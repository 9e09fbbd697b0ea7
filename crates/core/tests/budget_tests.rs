//! Run-budget semantics end to end (ISSUE 6): wall-clock deadlines,
//! cooperative cross-thread cancellation, row/block caps, graceful
//! degradation of the streaming engine into watermark-persisting partial
//! passes, the reference designs' refusal of a limited budget, and
//! worker-panic containment at the extraction-group boundary.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
use deepbase_tensor::Matrix;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const NS: usize = 4;
const UNITS: usize = 4;

/// Extractor wrapper counting forward passes and optionally sleeping per
/// call (to make wall-clock deadlines deterministic in tests), forwarding
/// the inner extractor's content fingerprint.
struct InstrumentedExtractor {
    inner: PrecomputedExtractor,
    calls: Arc<AtomicUsize>,
    sleep: Duration,
}

impl Extractor for InstrumentedExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.calls.fetch_add(1, Ordering::SeqCst);
        if !self.sleep.is_zero() {
            std::thread::sleep(self.sleep);
        }
        self.inner.extract(records, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

/// A hypothesis whose evaluation panics on every record from
/// `from_record` on — the poisoned-worker case the group boundary must
/// contain.
struct PanicHypothesis {
    from_record: usize,
}

impl HypothesisFn for PanicHypothesis {
    fn id(&self) -> &str {
        "panicker"
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, deepbase::DniError> {
        let id = std::hint::black_box(record.id);
        if id < self.from_record {
            return Ok(vec![0.0; NS]);
        }
        panic!("hypothesis panicker misbehaved on record {id}");
    }
}

/// An extractor that panics on any thread but `home`, the thread that
/// runs the batch: only an extraction chunk fanned out to a thread of its
/// own can reach the panic.
struct OffThreadPanicExtractor {
    inner: PrecomputedExtractor,
    home: std::thread::ThreadId,
}

impl Extractor for OffThreadPanicExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        if std::thread::current().id() != self.home {
            let n = std::hint::black_box(records.len());
            panic!("extractor misbehaved on a chunk of {n} records");
        }
        self.inner.extract(records, unit_ids)
    }
}

fn records(nd: usize) -> Vec<Record> {
    (0..nd)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 13 + t * 5) % 4 {
                    0 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

fn behaviors(nd: usize) -> Matrix {
    let recs = records(nd);
    let mut m = Matrix::zeros(nd * NS, UNITS);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.7 } else { -0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { 0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + 3) * 17) % 89) as f32 / 89.0 - 0.5);
            }
        }
    }
    m
}

fn unit_metas() -> Vec<UnitMeta> {
    (0..UNITS)
        .map(|uid| UnitMeta {
            uid,
            layer: (uid % 2) as i64,
        })
        .collect()
}

fn char_hypotheses() -> Vec<Arc<dyn HypothesisFn>> {
    vec![
        Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
        Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
    ]
}

/// One model (`m1`), the char hypotheses, one dataset; the extractor
/// counts calls and sleeps `sleep` per call.
fn catalog_with(nd: usize, sleep: Duration) -> (Catalog, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        1,
        Arc::new(InstrumentedExtractor {
            inner: PrecomputedExtractor::new(behaviors(nd), NS),
            calls: Arc::clone(&calls),
            sleep,
        }),
        unit_metas(),
    );
    catalog.add_hypotheses("chars", char_hypotheses());
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::new("seq", NS, records(nd)).unwrap()),
    );
    (catalog, calls)
}

const Q_ALL: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                     FROM models M, units U, hypotheses H, inputs D";

/// Full-stream config (epsilon so small no pair converges early).
fn config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 4,
        epsilon: Some(1e-12),
        ..InspectionConfig::default()
    }
}

fn budgeted(device: Device, budget: RunBudget) -> InspectionConfig {
    InspectionConfig {
        budget,
        ..config(device)
    }
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("budget-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        block_records: 4,
        ..StoreConfig::at(dir)
    }
}

fn session_with(
    nd: usize,
    sleep: Duration,
    inspection: InspectionConfig,
    dir: Option<&Path>,
) -> (Session, Arc<AtomicUsize>) {
    let (catalog, calls) = catalog_with(nd, sleep);
    let session = Session::with_config(
        catalog,
        SessionConfig {
            inspection,
            store: dir.map(store_config),
            ..SessionConfig::default()
        },
    );
    (session, calls)
}

// ---------------------------------------------------------------------
// Caps: deterministic interruption semantics
// ---------------------------------------------------------------------

#[test]
fn block_cap_trips_budget_exhausted_with_a_valid_prefix_frame() {
    let nd = 32;
    let (catalog, _) = catalog_with(nd, Duration::ZERO);
    let reference = bare(&catalog, &config(Device::SingleCore))
        .run_batch(&[Q_ALL])
        .unwrap();

    let (catalog, calls) = catalog_with(nd, Duration::ZERO);
    let budget = RunBudget {
        max_blocks: Some(2),
        ..RunBudget::default()
    };
    let out = bare(&catalog, &budgeted(Device::SingleCore, budget))
        .run_batch(&[Q_ALL])
        .unwrap();

    let completion = &out.report.completion;
    assert_eq!(completion.status, CompletionStatus::BudgetExhausted);
    assert!(completion.status.is_interrupted());
    assert_eq!(completion.rows_read, 8, "2 blocks of 4 records");
    assert_eq!(
        calls.load(Ordering::SeqCst),
        2,
        "one forward pass per block"
    );
    // Every (group, measure, hypothesis) pair is still converging
    // (epsilon is unreachable): one "all" unit group × corr × 2
    // hypotheses, each reporting its current convergence distance.
    assert_eq!(completion.pending.len(), 2);
    assert!(completion.pending.iter().all(|p| p.epsilon == 1e-12));
    assert!(completion.pending.iter().all(|p| p.error.is_finite()));
    // The partial frame is a valid prefix answer: same shape as the full
    // answer, scores estimated from the streamed prefix.
    assert_eq!(out.tables[0].len(), reference.tables[0].len());
    assert_eq!(out.tables[0].schema(), reference.tables[0].schema());
    // The per-wave report carries the same completion.
    assert_eq!(out.report.groups.len(), 1);
    assert_eq!(
        out.report.groups[0].completion.status,
        CompletionStatus::BudgetExhausted
    );
}

#[test]
fn row_cap_trips_once_the_cap_is_reached_at_a_block_boundary() {
    let nd = 32;
    let (catalog, _) = catalog_with(nd, Duration::ZERO);
    let budget = RunBudget {
        max_records: Some(10),
        ..RunBudget::default()
    };
    let out = bare(&catalog, &budgeted(Device::SingleCore, budget))
        .run_batch(&[Q_ALL])
        .unwrap();
    // Polled at block boundaries: 8 rows < 10 admits one more block,
    // 12 >= 10 stops.
    assert_eq!(out.report.completion.rows_read, 12);
    assert_eq!(
        out.report.completion.status,
        CompletionStatus::BudgetExhausted
    );
}

#[test]
fn unlimited_budget_reports_converged_with_no_overhead_paths() {
    let nd = 16;
    assert!(RunBudget::default().is_unlimited());
    let (catalog, _) = catalog_with(nd, Duration::ZERO);
    let out = bare(&catalog, &config(Device::SingleCore))
        .run_batch(&[Q_ALL])
        .unwrap();
    let completion = &out.report.completion;
    assert_eq!(completion.status, CompletionStatus::Converged);
    assert!(completion.is_complete());
    assert_eq!(completion.rows_read, nd);
    // Natural stream exhaustion is Converged even though the epsilon
    // target was never met — the pending list records the distance for
    // both (group, measure, hypothesis) pairs.
    assert_eq!(completion.pending.len(), 2);
    assert!(out.report.query_errors.iter().all(Option::is_none));
}

// ---------------------------------------------------------------------
// Deadline: graceful degradation + resume at the watermark
// ---------------------------------------------------------------------

#[test]
fn deadline_interrupted_run_persists_partials_and_resume_is_cheaper_and_bit_identical() {
    let nd = 32; // 8 blocks of 4
    let total_blocks = 8;
    // Reference: unbudgeted, store-less.
    let (catalog, ref_calls) = catalog_with(nd, Duration::ZERO);
    let reference = bare(&catalog, &config(Device::SingleCore))
        .run_batch(&[Q_ALL])
        .unwrap()
        .tables;
    assert_eq!(ref_calls.load(Ordering::SeqCst), total_blocks);

    // Interrupted cold run: each forward pass sleeps 8ms, deadline 10ms —
    // the budget trips after 1–2 blocks, never 0 (the first poll happens
    // before any extraction) and never all 8 (that would need 56ms).
    let dir = store_dir("deadline-resume");
    let budget = RunBudget::with_deadline(Duration::from_millis(10));
    let (mut cold, cold_calls) = session_with(
        nd,
        Duration::from_millis(8),
        budgeted(Device::SingleCore, budget),
        Some(&dir),
    );
    let out = cold.run_batch(&[Q_ALL]).unwrap();
    let completion = out.report.completion.clone();
    assert_eq!(completion.status, CompletionStatus::DeadlineExceeded);
    let cold_blocks = cold_calls.load(Ordering::SeqCst);
    assert!(
        cold_blocks >= 1 && cold_blocks < total_blocks,
        "deadline should interrupt mid-stream, got {cold_blocks} blocks"
    );
    assert_eq!(completion.rows_read, cold_blocks * 4);
    // The streamed prefix was persisted as watermark-extending partial
    // columns through the normal write-back path.
    assert_eq!(out.report.store.partial_columns_written, UNITS);
    assert!(
        out.report.store.errors.is_empty(),
        "{:?}",
        out.report.store.errors
    );
    drop(cold);

    // Warm unbudgeted re-run: resumes at the watermark — strictly fewer
    // forward passes (exactly the uncovered blocks), final frame
    // bit-identical to the never-interrupted reference.
    let (mut warm, warm_calls) =
        session_with(nd, Duration::ZERO, config(Device::SingleCore), Some(&dir));
    let again = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(again.tables, reference);
    assert_eq!(again.report.completion.status, CompletionStatus::Converged);
    let resumed = warm_calls.load(Ordering::SeqCst);
    assert_eq!(
        resumed,
        total_blocks - cold_blocks,
        "resume must extract exactly the blocks past the watermark"
    );
    assert!(resumed < total_blocks);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Cancellation
// ---------------------------------------------------------------------

#[test]
fn pre_cancelled_token_stops_before_any_block() {
    let nd = 16;
    let token = CancelToken::new();
    token.cancel();
    assert!(token.is_cancelled());
    let (catalog, calls) = catalog_with(nd, Duration::ZERO);
    let out = bare(
        &catalog,
        &budgeted(Device::SingleCore, RunBudget::with_cancel(token)),
    )
    .run_batch(&[Q_ALL])
    .unwrap();
    assert_eq!(out.report.completion.status, CompletionStatus::Cancelled);
    assert_eq!(out.report.completion.rows_read, 0);
    assert_eq!(calls.load(Ordering::SeqCst), 0);
}

#[test]
fn cancel_mid_wave_from_a_second_thread_leaves_a_consistent_store() {
    let nd = 48; // 12 blocks of 4, >= 60ms of extraction at 5ms/block
    let (catalog, _) = catalog_with(nd, Duration::ZERO);
    let reference = bare(&catalog, &config(Device::Parallel(3)))
        .run_batch(&[Q_ALL])
        .unwrap()
        .tables;

    let dir = store_dir("cancel-race");
    let token = CancelToken::new();
    let (mut cancelled, _) = session_with(
        nd,
        Duration::from_millis(5),
        budgeted(Device::Parallel(3), RunBudget::with_cancel(token.clone())),
        Some(&dir),
    );
    let canceller = {
        let token = token.clone();
        std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(12));
            token.cancel();
        })
    };
    let out = cancelled.run_batch(&[Q_ALL]).unwrap();
    canceller.join().unwrap();
    assert_eq!(out.report.completion.status, CompletionStatus::Cancelled);
    assert!(out.report.completion.rows_read < nd);
    // The partial frame is a valid prefix: full answer shape, estimates
    // from the records streamed before the cancel landed.
    assert_eq!(out.tables[0].len(), reference[0].len());
    assert!(
        out.report.store.errors.is_empty(),
        "{:?}",
        out.report.store.errors
    );
    drop(cancelled);

    // The store was left consistent: a subsequent uncancelled run over
    // the same store converges bit-identically to a never-cancelled
    // session.
    let (mut verify, _) = session_with(nd, Duration::ZERO, config(Device::Parallel(3)), Some(&dir));
    let again = verify.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(again.tables, reference);
    assert_eq!(again.report.completion.status, CompletionStatus::Converged);
    assert!(again.report.store.errors.is_empty());
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// The reference designs have no partial answer: a limited budget is refused
// ---------------------------------------------------------------------

#[test]
fn baselines_refuse_every_limited_budget_and_run_unlimited() {
    let nd = 16;
    let dataset = Dataset::new("seq", NS, records(nd)).unwrap();
    let extractor = PrecomputedExtractor::new(behaviors(nd), NS);
    let hyps = char_hypotheses();
    let req = InspectionRequest {
        model_id: "m1".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(UNITS)],
        dataset: &dataset,
        hypotheses: hyps.iter().map(|h| h.as_ref()).collect(),
        measures: vec![&CorrelationMeasure],
    };
    let tripped = CancelToken::new();
    tripped.cancel();
    let limited = [
        RunBudget::with_deadline(Duration::from_secs(3600)),
        RunBudget::with_cancel(tripped),
        RunBudget {
            max_records: Some(8),
            ..RunBudget::default()
        },
        RunBudget {
            max_blocks: Some(2),
            ..RunBudget::default()
        },
    ];
    for kind in [
        EngineKind::PyBase,
        EngineKind::Merged,
        EngineKind::MergedEarlyStop,
        EngineKind::Madlib,
    ] {
        for budget in &limited {
            let cfg = budgeted(Device::SingleCore, budget.clone());
            let err = inspect_as(kind, &req, &cfg).unwrap_err();
            assert!(
                matches!(err, deepbase::DniError::BadConfig(_)),
                "{kind:?} under {budget:?}: {err}"
            );
        }
        let (frame, profile) = inspect_as(kind, &req, &config(Device::SingleCore)).unwrap();
        assert_eq!(frame.len(), UNITS * hyps.len(), "{kind:?}");
        assert_eq!(profile.records_read, nd, "{kind:?}");
    }
    // The streaming design honours the same caps with a partial answer.
    let (_, profile) = inspect_as(
        EngineKind::DeepBase,
        &req,
        &budgeted(Device::SingleCore, limited[2].clone()),
    )
    .unwrap();
    assert_eq!(profile.records_read, 8);
}

// ---------------------------------------------------------------------
// Worker-panic containment at the group boundary
// ---------------------------------------------------------------------

/// Two models (two extraction groups), a good hypothesis set and a
/// panicking one, over `nd` records; `m3` is a model whose extractor
/// panics off the calling thread.
fn panic_catalog(nd: usize) -> Catalog {
    panic_catalog_over(
        Dataset::new("seq", NS, records(nd)).unwrap(),
        PanicHypothesis { from_record: 0 },
    )
}

fn panic_catalog_over(dataset: Dataset, hypothesis: PanicHypothesis) -> Catalog {
    let nd = dataset.len();
    let mut catalog = Catalog::new();
    for mid in ["m1", "m2"] {
        catalog.add_model_with_units(
            mid,
            1,
            Arc::new(PrecomputedExtractor::new(behaviors(nd), NS)),
            unit_metas(),
        );
    }
    catalog.add_model_with_units(
        "m3",
        1,
        Arc::new(OffThreadPanicExtractor {
            inner: PrecomputedExtractor::new(behaviors(nd), NS),
            home: std::thread::current().id(),
        }),
        unit_metas(),
    );
    catalog.add_hypotheses("good", char_hypotheses());
    catalog.add_hypotheses("bad", vec![Arc::new(hypothesis)]);
    catalog.add_dataset("seq", Arc::new(dataset));
    catalog
}

const Q_BAD: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                     FROM models M, units U, hypotheses H, inputs D \
                     WHERE M.mid = 'm1' AND H.name = 'bad'";
const Q_GOOD: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                      FROM models M, units U, hypotheses H, inputs D \
                      WHERE M.mid = 'm2' AND H.name = 'good'";
const Q_BAD_EXTRACTOR: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                               OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                               WHERE M.mid = 'm3' AND H.name = 'good'";

/// Runs `[bad, Q_GOOD]` on `session` and checks that the bad query fails
/// alone with an `Internal` error carrying a panic message that starts
/// with `payload`, and that `Q_GOOD`'s table is bit-equal to `reference`.
/// Returns the message.
fn assert_contained(
    session: &mut Session,
    bad: &str,
    payload: &str,
    reference: &Table,
    leg: &str,
) -> String {
    let out = session.run_batch(&[bad, Q_GOOD]).unwrap();
    let msg = match &out.report.query_errors[0] {
        Some(deepbase::DniError::Internal(msg)) => msg.clone(),
        other => panic!("{leg}: expected a contained Internal error, got {other:?}"),
    };
    assert!(msg.contains(payload), "{leg}: payload lost: {msg:?}");
    assert!(
        out.tables[0].is_empty(),
        "{leg}: the dead query's table is empty"
    );
    assert!(out.report.query_errors[1].is_none(), "{leg}");
    assert_eq!(&out.tables[1], reference, "{leg}");
    msg
}

#[test]
fn contained_panic_fails_only_its_query_through_every_fan_out() {
    let nd = 16;
    let catalog = panic_catalog(nd);
    let reference = bare(&catalog, &config(Device::SingleCore))
        .run_batch(&[Q_GOOD])
        .unwrap()
        .tables;
    let hyp_payload = "hypothesis panicker misbehaved on record";

    for device in [Device::SingleCore, Device::Parallel(3)] {
        assert_contained(
            &mut bare(&catalog, &config(device)),
            Q_BAD,
            hyp_payload,
            &reference[0],
            &format!("{device:?}"),
        );
    }

    // (a) A stream budget that fits one group, never both: the two
    // groups fan out under a bound and queue for the permit.
    let (bad_width, good_width) = (UNITS + 1, UNITS + 2);
    let mut bounded = Session::with_config(
        catalog.clone(),
        SessionConfig {
            inspection: config(Device::Parallel(3)),
            admission: AdmissionConfig {
                max_stream_width: Some(good_width),
                max_scan_width: None,
            },
            reuse_scores: false,
            cache_bytes: 0,
            ..SessionConfig::default()
        },
    );
    assert_contained(&mut bounded, Q_BAD, hyp_payload, &reference[0], "bounded");
    let stats = bounded.scheduler().stats();
    assert_eq!(stats.waves_admitted, 2);
    assert!(
        stats.peak_stream_width < bad_width + good_width,
        "{stats:?}"
    );

    // (b) Two segments, the hypothesis panicking only on the second: the
    // panic is raised on the second segment's stream thread.
    let halves = vec![
        records(nd)[..nd / 2].to_vec(),
        records(nd)[nd / 2..].to_vec(),
    ];
    let segmented = panic_catalog_over(
        Dataset::with_segments("seq", NS, halves).unwrap(),
        PanicHypothesis {
            from_record: nd / 2,
        },
    );
    let segmented_reference = bare(&segmented, &config(Device::SingleCore))
        .run_batch(&[Q_GOOD])
        .unwrap()
        .tables;
    let msg = assert_contained(
        &mut bare(&segmented, &config(Device::Parallel(3))),
        Q_BAD,
        hyp_payload,
        &segmented_reference[0],
        "stream thread",
    );
    let record: usize = msg.rsplit(' ').next().unwrap().parse().unwrap();
    assert!(record >= nd / 2, "raised by the second segment: {msg:?}");

    // (c) Blocks of 8 records split into 3 extraction chunks; the
    // extractor panics on the two chunks fanned out to threads of their
    // own, never on the first, which runs on the batch's thread.
    let chunked = InspectionConfig {
        block_records: 8,
        ..config(Device::Parallel(3))
    };
    let chunked_reference = bare(
        &catalog,
        &InspectionConfig {
            device: Device::SingleCore,
            ..chunked.clone()
        },
    )
    .run_batch(&[Q_GOOD])
    .unwrap()
    .tables;
    assert_contained(
        &mut bare(&catalog, &chunked),
        Q_BAD_EXTRACTOR,
        "extractor misbehaved on a chunk of 3 records",
        &chunked_reference[0],
        "extraction chunk",
    );
}

#[test]
fn single_statement_panic_surfaces_as_an_internal_error() {
    let mut session = Session::with_config(
        panic_catalog(16),
        SessionConfig {
            inspection: config(Device::SingleCore),
            ..SessionConfig::default()
        },
    );
    let err = session.run(Q_BAD).unwrap_err();
    assert!(
        matches!(&err, deepbase::DniError::Internal(msg)
            if msg.contains("hypothesis panicker misbehaved")),
        "got {err:?}"
    );
    assert!(!err.is_transient());
    // The session itself stays usable.
    let table = session.run(Q_GOOD).unwrap();
    assert!(!table.is_empty());
}

// ---------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------

#[test]
fn explain_renders_the_budget_only_when_bounded() {
    let (catalog, _) = catalog_with(8, Duration::ZERO);
    let mut unbounded = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(Device::SingleCore),
            ..SessionConfig::default()
        },
    );
    assert!(!unbounded.explain(Q_ALL).unwrap().contains("budget"));

    let (catalog, _) = catalog_with(8, Duration::ZERO);
    let budget = RunBudget {
        deadline: Some(Duration::from_millis(250)),
        cancel: Some(CancelToken::new()),
        max_records: Some(100),
        max_blocks: None,
    };
    let mut bounded = Session::with_config(
        catalog,
        SessionConfig {
            inspection: budgeted(Device::SingleCore, budget),
            ..SessionConfig::default()
        },
    );
    let tree = bounded.explain(Q_ALL).unwrap();
    assert!(
        tree.contains("budget: deadline=250ms, cancellable, max_records=100"),
        "{tree}"
    );
}
