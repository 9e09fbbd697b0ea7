//! Store lifecycle completion (ISSUE 5 acceptance): an early-stopped
//! batch persists its completed prefix and a warm re-run resumes at the
//! watermark with strictly fewer forward passes, bit-identically on both
//! devices; store-aware admission runs a fully warm over-wide group in
//! one wave while the same group cold still splits; compaction reclaims
//! quarantined files under the retention budget and evicts past the disk
//! budget, with every byte reported in the batch's `StoreStats`; and
//! concurrent sessions sharing one
//! store path stay panic-free, torn-read-free and bit-identical to solo
//! runs (a read-only session never creates files).

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_store::ERROR_RING_CAP;
use deepbase_tensor::Matrix;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const ND: usize = 64;
const NS: usize = 8;
const UNITS: usize = 6;

/// Extractor wrapper counting forward passes and recording the unit ids
/// of every call, forwarding the inner extractor's content fingerprint.
struct CountingExtractor {
    inner: PrecomputedExtractor,
    calls: Arc<AtomicUsize>,
    unit_calls: Arc<Mutex<Vec<Vec<usize>>>>,
}

impl Extractor for CountingExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.unit_calls.lock().unwrap().push(unit_ids.to_vec());
        self.inner.extract(records, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

struct Counters {
    calls: Arc<AtomicUsize>,
    unit_calls: Arc<Mutex<Vec<Vec<usize>>>>,
}

impl Counters {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    fn units_extracted(&self) -> Vec<usize> {
        let mut units: Vec<usize> = self
            .unit_calls
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .copied()
            .collect();
        units.sort_unstable();
        units.dedup();
        units
    }
}

fn records() -> Vec<Record> {
    (0..ND)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 7 + t * 3) % 5 {
                    0 | 3 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

fn behaviors() -> Matrix {
    let recs = records();
    let mut m = Matrix::zeros(ND * NS, UNITS);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + 7) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    m
}

fn test_catalog() -> (Catalog, Counters) {
    hooked_catalog(&Hook::default())
}

/// An action run once, from the first hypothesis evaluation of the next
/// pass: after that pass fetched its first streamed block and before it
/// fetches the second.
type Hook = Arc<Mutex<Option<Box<dyn FnOnce() + Send>>>>;

/// The test catalog, with `is_a` running `hook` when it is armed.
fn hooked_catalog(hook: &Hook) -> (Catalog, Counters) {
    let counters = Counters {
        calls: Arc::new(AtomicUsize::new(0)),
        unit_calls: Arc::new(Mutex::new(Vec::new())),
    };
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        3,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(behaviors(), NS),
            calls: Arc::clone(&counters.calls),
            unit_calls: Arc::clone(&counters.unit_calls),
        }),
        (0..UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    let is_a = FnHypothesis::char_class("is_a", |c| c == 'a');
    let hook = Arc::clone(hook);
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::new("is_a", move |rec| {
                let action = hook.lock().unwrap().take();
                if let Some(action) = action {
                    action();
                }
                is_a.behavior(rec).expect("a char class evaluates")
            })),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records()).unwrap()));
    (catalog, counters)
}

const Q_ALL: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                     FROM models M, units U, hypotheses H, inputs D";
const Q_LAYER0: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                        OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                        WHERE U.layer = 0";

/// Full-stream configuration (never converges early).
fn full_config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 16,
        epsilon: Some(1e-12),
        ..InspectionConfig::default()
    }
}

/// Early-stop configuration: every pair converges after the first block,
/// so a cold pass streams 16 of the 64 records and stops.
fn early_config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 16,
        epsilon: Some(1e6),
        ..InspectionConfig::default()
    }
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("lifecycle-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path, policy: MaterializationPolicy) -> StoreConfig {
    StoreConfig {
        policy,
        block_records: 8,
        ..StoreConfig::at(dir)
    }
}

fn session(
    inspection: InspectionConfig,
    dir: &Path,
    policy: MaterializationPolicy,
    admission: AdmissionConfig,
) -> (Session, Counters) {
    let (catalog, counters) = test_catalog();
    let sess = Session::with_config(
        catalog,
        SessionConfig {
            inspection,
            admission,
            store: Some(store_config(dir, policy)),
            ..SessionConfig::default()
        },
    );
    (sess, counters)
}

/// Store-less reference run.
fn live_tables(
    inspection: &InspectionConfig,
    queries: &[&str],
) -> (Vec<deepbase_relational::Table>, usize) {
    let (catalog, counters) = test_catalog();
    let tables = bare(&catalog, inspection)
        .run_batch(queries)
        .unwrap()
        .tables;
    (tables, counters.calls())
}

/// Recursive file listing (relative paths), for no-new-files assertions.
fn file_listing(dir: &Path) -> Vec<PathBuf> {
    let mut files = Vec::new();
    let Ok(entries) = std::fs::read_dir(dir) else {
        return files;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            files.extend(file_listing(&path));
        } else {
            files.push(path);
        }
    }
    files.sort();
    files
}

fn files_with(dir: &Path, needle: &str) -> Vec<PathBuf> {
    file_listing(dir)
        .into_iter()
        .filter(|p| {
            p.file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.contains(needle))
        })
        .collect()
}

// ---------------------------------------------------------------------
// Early-stop persistence: the completed prefix survives and resumes
// ---------------------------------------------------------------------

#[test]
fn early_stopped_batch_persists_its_prefix_and_resumes_with_fewer_passes() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = store_dir(&format!("early-{:?}", device).replace(['(', ')'], "-"));
        let config = early_config(device);
        let (reference, live_calls) = live_tables(&config, &[Q_ALL]);
        assert!(live_calls > 0);

        // Cold early-stopping pass: streams one block, persists the
        // prefix as partial columns with a watermark.
        let (mut cold, cold_counters) = session(
            config.clone(),
            &dir,
            MaterializationPolicy::ReadWrite,
            AdmissionConfig::default(),
        );
        let out = cold.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(out.tables, reference, "cold run matches live ({device:?})");
        let cold_calls = cold_counters.calls();
        assert!(cold_calls > 0);
        assert_eq!(
            out.report.store.partial_columns_written, UNITS,
            "early stop persists the completed prefix of every column"
        );
        assert_eq!(out.report.store.columns_written, 0, "nothing completed");
        assert_eq!(files_with(&dir, ".col").len(), UNITS);
        drop(cold);

        // Fresh process semantics: the plan sees the partials, the pass
        // scans the prefix and converges inside it — strictly fewer
        // forward passes (here: zero), bit-identical tables.
        let (mut warm, warm_counters) = session(
            config.clone(),
            &dir,
            MaterializationPolicy::ReadWrite,
            AdmissionConfig::default(),
        );
        let explain = warm.explain(Q_ALL).unwrap();
        assert!(
            explain.contains(
                "source: store scan (0/6 unit columns stored, 6 partial, 0 extracted live; \
                 read-write)"
            ),
            "got:\n{explain}"
        );
        let out = warm.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(
            out.tables, reference,
            "warm resume is bit-identical ({device:?})"
        );
        assert!(
            warm_counters.calls() < cold_calls,
            "warm re-run must do strictly fewer forward passes \
             ({} vs {cold_calls}, {device:?})",
            warm_counters.calls()
        );
        assert_eq!(
            warm_counters.calls(),
            0,
            "the stream converges inside the stored prefix ({device:?})"
        );
        let stats = &out.report.store;
        assert_eq!(stats.partial_columns_scanned, UNITS);
        assert!(stats.forward_passes_avoided > 0);
        assert_eq!(
            stats.partial_columns_written, 0,
            "no rewrite when the watermark does not advance"
        );
        assert!(stats.errors.is_empty(), "{stats:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn full_stream_completes_partials_in_place() {
    let dir = store_dir("complete-partials");
    // Early-stopped pass leaves partial columns behind.
    let (mut early, _) = session(
        early_config(Device::SingleCore),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    early.run_batch(&[Q_ALL]).unwrap();
    drop(early);
    assert_eq!(files_with(&dir, ".col").len(), UNITS);

    // A full-stream pass scans the prefix, extracts the tail and
    // completes every column by rewriting its one file — nothing is left
    // behind for the post-batch sweep to reclaim.
    let full = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&full, &[Q_ALL]);
    let (mut sess, counters) = session(
        full,
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    let out = sess.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert!(counters.calls() > 0, "the tail past the watermark extracts");
    assert_eq!(
        counters.units_extracted(),
        (0..UNITS).collect::<Vec<_>>(),
        "every partial column extracts its tail live"
    );
    assert_eq!(out.report.store.columns_written, UNITS, "all completed");
    assert_eq!(
        out.report.store.files_reclaimed, 0,
        "nothing superseded, got {:?}",
        out.report.store
    );
    assert_eq!(files_with(&dir, ".col").len(), UNITS, "one file per column");
    assert_eq!(
        sess.store_stats(),
        &out.report.store,
        "session accounting is the batch's whole delta"
    );
    drop(sess);

    // The completed store is a pure hit.
    let (mut verify, counters) = session(
        full_config(Device::SingleCore),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    assert_eq!(verify.run_batch(&[Q_ALL]).unwrap().tables, reference);
    assert_eq!(counters.calls(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Store-aware admission: warm over-wide groups run in one wave
// ---------------------------------------------------------------------

#[test]
fn fully_warm_over_wide_group_runs_in_one_wave_cold_still_splits() {
    let dir = store_dir("admission");
    let bound = AdmissionConfig {
        max_stream_width: Some(4),
        ..AdmissionConfig::default()
    };
    let config = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&config, &[Q_ALL, Q_LAYER0]);

    // Cold: 6 union units + 2 hypothesis columns = width 8 > bound 4,
    // so the two-member group splits into queued extraction waves.
    let (mut cold, _) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        bound,
    );
    let explain = cold.explain_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert!(
        explain.contains("admission: split into 2 queued waves"),
        "cold over-wide group must split, got:\n{explain}"
    );
    let out = cold.run_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(out.report.plan.admission_splits, 1);
    assert!(out.report.plan.admission_queued >= 1);
    assert_eq!(
        out.report.plan.scan_charged_columns, 0,
        "nothing stored yet"
    );
    assert!(out.report.groups.len() > 1, "one report per executed wave");
    drop(cold);

    // Warm: every unit column is a complete store hit, charged to the
    // scan budget — the extraction width is just the 2 hypothesis
    // columns, so the same over-wide group is admitted in one wave.
    let (mut warm, counters) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        bound,
    );
    let explain = warm.explain_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert!(
        explain.contains("source: store scan (6/6 unit columns stored, 0 extracted live"),
        "got:\n{explain}"
    );
    assert!(
        explain.contains(
            "admission: 1 wave (extract width 2 <= bound 4; 6 columns on the scan budget)"
        ),
        "warm group must admit in one wave, got:\n{explain}"
    );
    let out = warm.run_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert_eq!(out.tables, reference, "one-wave warm run is bit-identical");
    assert_eq!(counters.calls(), 0);
    assert_eq!(out.report.plan.admission_splits, 0, "no split when warm");
    assert_eq!(out.report.plan.admission_queued, 0);
    assert_eq!(
        out.report.plan.scan_charged_columns, UNITS,
        "all six unit columns charged to the scan budget"
    );
    assert_eq!(out.report.groups.len(), 1, "exactly one executed wave");
    drop(warm);

    // The scan budget is a real bound of its own: capping it below the
    // hit count splits the warm group again.
    let scan_bound = AdmissionConfig {
        max_stream_width: Some(4),
        max_scan_width: Some(3),
    };
    let (mut capped, _) = session(config, &dir, MaterializationPolicy::ReadWrite, scan_bound);
    let explain = capped.explain_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert!(
        explain.contains("queued waves") && explain.contains("scan budget 3"),
        "scan-budget overflow must split, got:\n{explain}"
    );
    let out = capped.run_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    assert_eq!(out.tables, reference, "split execution stays bit-identical");
    assert_eq!(out.report.plan.admission_splits, 1);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Compaction: quarantine retention
// ---------------------------------------------------------------------

/// A session's `stats()` is the sum of its batch reports' plan counters,
/// field by field, plus the plan-cache lookups no report carries: over
/// `run_batch`, `execute_batch` of a prepared batch and of a stale one it
/// re-prepares, and `run`, whose report is not returned, so its share is
/// spelled out. Every counter is non-zero in some report, so a field the
/// session total dropped would show.
#[test]
fn session_stats_are_the_sum_of_its_batch_reports() {
    let dir = store_dir("stats-sum");
    let bound = AdmissionConfig {
        max_stream_width: Some(4),
        ..AdmissionConfig::default()
    };
    let (mut session, _) = session(
        full_config(Device::SingleCore),
        &dir,
        MaterializationPolicy::ReadWrite,
        bound,
    );
    let mut sum = PlanStats::default();

    // Cold: two binds, and the over-wide group splits into queued waves.
    let cold = session.run_batch(&[Q_ALL, Q_LAYER0]).unwrap().report.plan;
    assert_eq!((cold.plan_cache_misses, cold.admission_splits), (2, 1));
    assert!(cold.admission_queued >= 1 && cold.waves >= 2, "{cold:?}");
    sum.accumulate(&cold);

    // Prepared again: two plan-cache hits outside any batch call, then
    // both frames from the score cache and no wave.
    let prepared = session.prepare_batch(&[Q_ALL, Q_LAYER0]).unwrap();
    sum.plan_cache_hits += 2;
    let cached = session.execute_batch(&prepared).unwrap().report.plan;
    let expected = PlanStats {
        score_cache_hits: 2,
        ..PlanStats::default()
    };
    assert_eq!(cached, expected);
    sum.accumulate(&cached);

    // The dataset registered again with the same records: the handle is
    // stale and re-binds on execution, and its unit columns are complete
    // store hits charged to the scan budget.
    let stale = session.prepare_batch(&[Q_LAYER0]).unwrap();
    sum.plan_cache_hits += 1;
    let seq = Dataset::new("seq", NS, records()).unwrap();
    session.catalog_mut().add_dataset("seq", Arc::new(seq));
    let rebound = session.execute_batch(&stale).unwrap().report.plan;
    let expected = PlanStats {
        plan_cache_misses: 1,
        scan_charged_columns: 3,
        waves: 1,
        ..PlanStats::default()
    };
    assert_eq!(rebound, expected);
    sum.accumulate(&rebound);
    assert_eq!(session.stats(), sum);

    // `run` of the re-bound statement: a plan-cache and a score-cache hit.
    session.run(Q_LAYER0).unwrap();
    sum.plan_cache_hits += 1;
    sum.score_cache_hits += 1;
    assert_eq!(session.stats(), sum);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn compaction_deletes_quarantined_files_past_the_retention_budget() {
    let dir = store_dir("retention");
    let config = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&config, &[Q_ALL]);
    let (mut cold, _) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);

    // Corrupt two columns on disk.
    let pair_dir = std::fs::read_dir(&dir)
        .unwrap()
        .find(|e| e.as_ref().unwrap().file_type().unwrap().is_dir())
        .unwrap()
        .unwrap()
        .path();
    for unit in [1usize, 4] {
        let path = pair_dir.join(format!("u{unit}.col"));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 3] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
    }

    // A session with a zero retention budget: the batch quarantines both
    // columns, heals them via write-back, and its post-batch compaction
    // sweep deletes the quarantined samples immediately — with the
    // reclaimed bytes reported.
    let (catalog, counters) = test_catalog();
    let mut sess = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config.clone(),
            store: Some(StoreConfig {
                quarantine_retention_bytes: 0,
                ..store_config(&dir, MaterializationPolicy::ReadWrite)
            }),
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    let out = sess.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference, "corruption never changes results");
    assert!(counters.calls() > 0, "damaged columns re-extract live");
    assert!(out.report.store.error_count >= 2);
    assert!(
        out.report.store.files_reclaimed >= 2,
        "expired quarantine samples deleted, got {:?}",
        out.report.store
    );
    assert!(out.report.store.bytes_reclaimed > 0);
    assert!(
        files_with(&dir, ".corrupt").is_empty(),
        "zero retention keeps no samples"
    );
    // The quarantined columns are plan-time misses now: the next batch
    // heals them.
    let out = sess.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(out.report.store.columns_written, 2, "both healed");
    drop(sess);

    // Default retention (64 MiB) keeps the samples instead.
    let path = pair_dir.join("u2.col");
    let mut bytes = std::fs::read(&path).unwrap();
    bytes[40] ^= 0xff;
    std::fs::write(&path, &bytes).unwrap();
    let (mut keep, _) = session(
        config,
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    let out = keep.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(
        files_with(&dir, ".corrupt").len(),
        1,
        "default retention keeps the forensic sample"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A batch report carries the post-batch sweep's evictions like its
/// reclaims — of complete and of partial columns — and the session total
/// is exactly the sum of its batch reports plus the sweeps run outside a
/// batch.
#[test]
fn a_batch_report_carries_its_whole_store_delta() {
    for (name, inspection) in [
        ("full", full_config(Device::SingleCore)),
        ("early", early_config(Device::SingleCore)),
    ] {
        let dir = store_dir(&format!("batch-delta-{name}"));
        let (catalog, _) = test_catalog();
        let mut sess = Session::with_config(
            catalog,
            SessionConfig {
                inspection,
                store: Some(StoreConfig {
                    disk_budget_bytes: 1,
                    ..store_config(&dir, MaterializationPolicy::ReadWrite)
                }),
                reuse_scores: false,
                ..SessionConfig::default()
            },
        );
        let mut total = StoreStats::default();
        // The second batch re-extracts what the first one's sweep
        // evicted, so it writes (and evicts) every column again.
        for _ in 0..2 {
            let out = sess.run_batch(&[Q_ALL]).unwrap();
            let store = &out.report.store;
            assert_eq!(
                store.columns_written + store.partial_columns_written,
                UNITS,
                "{name}: {store:?}"
            );
            assert_eq!(
                store.columns_evicted, UNITS,
                "{name}: a one-byte budget evicts every column the batch wrote, got {store:?}"
            );
            assert!(store.evicted_bytes > 0);
            total.accumulate(store);
        }
        total.accumulate(&sess.compact_store().unwrap());
        assert_eq!(sess.store_stats(), &total, "{name}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Concurrent sessions sharing one store path
// ---------------------------------------------------------------------

#[test]
fn concurrent_read_write_and_read_only_sessions_stay_bit_identical() {
    let dir = store_dir("rw-ro");
    let config = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&config, &[Q_ALL]);

    // Populate once so the read-only session has something to scan.
    let (mut cold, _) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);
    let before = file_listing(&dir);

    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let rw = s.spawn(|| {
            let (mut sess, _) = session(
                config.clone(),
                &dir,
                MaterializationPolicy::ReadWrite,
                AdmissionConfig::default(),
            );
            barrier.wait();
            for _ in 0..3 {
                let out = sess.run_batch(&[Q_ALL]).unwrap();
                assert_eq!(out.tables, reference, "read-write interleaved run");
            }
        });
        let ro = s.spawn(|| {
            let (mut sess, _) = session(
                config.clone(),
                &dir,
                MaterializationPolicy::ReadOnly,
                AdmissionConfig::default(),
            );
            barrier.wait();
            for _ in 0..3 {
                let out = sess.run_batch(&[Q_ALL]).unwrap();
                assert_eq!(out.tables, reference, "read-only interleaved run");
                assert_eq!(out.report.store.columns_written, 0);
                assert_eq!(out.report.store.partial_columns_written, 0);
            }
            assert_eq!(sess.store_stats().error_count, 0);
        });
        rw.join().unwrap();
        ro.join().unwrap();
    });
    assert_eq!(
        file_listing(&dir),
        before,
        "a warm read-write pass and a read-only session leave the tree untouched"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn two_concurrent_read_write_sessions_race_without_torn_reads() {
    let dir = store_dir("rw-rw");
    let config = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&config, &[Q_ALL]);

    // Both sessions start cold on an empty store and race their
    // write-backs (atomic tmp+rename, identical contents by
    // construction): no panics, no torn reads, bit-identical results.
    let barrier = std::sync::Barrier::new(2);
    std::thread::scope(|s| {
        let spawn_rw = || {
            s.spawn(|| {
                let (mut sess, _) = session(
                    config.clone(),
                    &dir,
                    MaterializationPolicy::ReadWrite,
                    AdmissionConfig::default(),
                );
                barrier.wait();
                for _ in 0..2 {
                    let out = sess.run_batch(&[Q_ALL]).unwrap();
                    assert_eq!(out.tables, reference, "racing read-write run");
                }
            })
        };
        let a = spawn_rw();
        let b = spawn_rw();
        a.join().unwrap();
        b.join().unwrap();
    });

    // Whatever interleaving happened, the store converged to a clean
    // fully warm state.
    let (mut verify, counters) = session(
        config,
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    let out = verify.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(counters.calls(), 0, "store is fully warm after the race");
    assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Error accounting stays bounded across a long-lived session
// ---------------------------------------------------------------------

#[test]
fn session_error_ring_stays_capped_while_the_count_stays_exact() {
    let dir = store_dir("error-ring");
    let config = full_config(Device::SingleCore);
    let (mut cold, _) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);

    // Corrupt every column, then hammer them through a read-only session
    // (no quarantine, no healing — every batch re-detects all six).
    let pair_dir = std::fs::read_dir(&dir)
        .unwrap()
        .find(|e| e.as_ref().unwrap().file_type().unwrap().is_dir())
        .unwrap()
        .unwrap()
        .path();
    for unit in 0..UNITS {
        let path = pair_dir.join(format!("u{unit}.col"));
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
    }
    let (catalog, _) = test_catalog();
    let (reference, _) = live_tables(&config, &[Q_ALL]);
    let mut sess = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config,
            store: Some(store_config(&dir, MaterializationPolicy::ReadOnly)),
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    let batches = 8;
    for _ in 0..batches {
        let out = sess.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(out.tables, reference, "fallback stays bit-identical");
    }
    let stats = sess.store_stats();
    assert_eq!(
        stats.error_count,
        batches * UNITS,
        "every detection is counted"
    );
    assert!(stats.error_count > ERROR_RING_CAP, "the cap was exercised");
    assert_eq!(
        stats.errors.len(),
        ERROR_RING_CAP,
        "the message ring stays bounded"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash litter: one reap rule for columns and views
// ---------------------------------------------------------------------

/// A temp file a foreign process left behind is kept while it is young
/// (its writer may be alive) and reaped once it has aged — by `open` and
/// by `compact`, in a pair directory and in `views/` alike.
#[test]
fn young_foreign_temps_survive_open_and_compact_and_aged_ones_are_reaped() {
    let dir = store_dir("reap");
    let config = store_config(&dir, MaterializationPolicy::ReadWrite);
    let store = BehaviorStore::open(&config).unwrap();
    let key = ColumnKey {
        model_fp: 1,
        dataset_fp: 2,
        unit: 0,
    };
    store.write_column(&key, 4, 2, &[0.5; 8]).unwrap();
    std::fs::create_dir_all(store.views().dir()).unwrap();
    let litter = [
        dir.join("0000000000000001.0000000000000002/u7.col.tmp.99999.3"),
        // The counter-less name older builds gave view temps.
        store.views().dir().join("v-00.view.tmp.99999"),
    ];
    let strew = |aged: bool| {
        for path in &litter {
            std::fs::write(path, b"half-written").unwrap();
            if aged {
                let long_ago =
                    std::time::SystemTime::now() - 2 * deepbase_store::durable::TMP_REAP_AGE;
                let file = std::fs::File::options().write(true).open(path).unwrap();
                file.set_modified(long_ago).unwrap();
            }
        }
    };
    let survivors = || litter.iter().filter(|p| p.exists()).count();

    strew(false);
    assert_eq!(store.compact(u64::MAX), StoreStats::default());
    drop(BehaviorStore::open(&config).unwrap());
    assert_eq!(survivors(), 2, "a young temp may be a live writer's");

    strew(true);
    let report = store.compact(u64::MAX);
    assert_eq!(
        (report.files_reclaimed, report.bytes_reclaimed),
        (2, 2 * b"half-written".len() as u64),
        "compaction reaps the pair directory and views/"
    );
    assert_eq!(survivors(), 0);

    strew(true);
    drop(BehaviorStore::open(&config).unwrap());
    assert_eq!(survivors(), 0, "open reaps too");
    assert!(store.contains(&key), "the real column is untouched");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// A pass's held pages across a rewrite, a move-aside and a compaction
// ---------------------------------------------------------------------

/// The key and file of `unit`'s column in a store holding one model and
/// one dataset.
fn stored_column(dir: &Path, unit: usize) -> (ColumnKey, PathBuf) {
    let pair = std::fs::read_dir(dir)
        .unwrap()
        .flatten()
        .find(|e| e.file_name().to_string_lossy().contains('.'))
        .expect("one pair directory");
    let name = pair.file_name().into_string().unwrap();
    let (model, dataset) = name.split_once('.').unwrap();
    let key = ColumnKey {
        model_fp: u64::from_str_radix(model, 16).unwrap(),
        dataset_fp: u64::from_str_radix(dataset, 16).unwrap(),
        unit,
    };
    (key, pair.path().join(format!("u{unit}.col")))
}

/// `unit`'s true column, record-major.
fn column_values(unit: usize) -> Vec<f32> {
    let m = behaviors();
    (0..ND * NS).map(|r| m.get(r, unit)).collect()
}

/// A session over the hooked catalog that recomputes every score.
fn hooked_session(
    hook: &Hook,
    inspection: InspectionConfig,
    store: StoreConfig,
) -> (Session, Counters) {
    let (catalog, counters) = hooked_catalog(hook);
    let session = Session::with_config(
        catalog,
        SessionConfig {
            inspection,
            store: Some(store),
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    (session, counters)
}

/// Arms `hook` with `action`, first noting the bytes the store's passes
/// hold at that moment into the returned cell.
fn arm(
    hook: &Hook,
    store: &Arc<BehaviorStore>,
    action: impl FnOnce() + Send + 'static,
) -> Arc<AtomicUsize> {
    let held = Arc::new(AtomicUsize::new(0));
    let (store, noted) = (Arc::clone(store), Arc::clone(&held));
    *hook.lock().unwrap() = Some(Box::new(move || {
        noted.store(store.held_page_bytes(), Ordering::SeqCst);
        action();
    }));
    held
}

/// Every partial column is extended by the pass's own store between its
/// first and second streamed block: the rows are repacked, so the pages
/// the pass held are stale, and the second block reads the new file
/// through its new row map.
#[test]
fn a_partial_column_extended_mid_pass_is_read_through_its_new_row_map() {
    let dir = store_dir("held-extend");
    let (mut cold, _) = session(
        early_config(Device::SingleCore),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    assert_eq!(
        cold.run_batch(&[Q_ALL])
            .unwrap()
            .report
            .store
            .partial_columns_written,
        UNITS
    );
    drop(cold);

    // 8-record blocks: the first two lie under the 16-record watermark.
    let inspection = InspectionConfig {
        block_records: 8,
        ..full_config(Device::SingleCore)
    };
    let (reference, _) = live_tables(&inspection, &[Q_ALL]);
    let hook = Hook::default();
    let (mut warm, _) = hooked_session(
        &hook,
        inspection,
        store_config(&dir, MaterializationPolicy::ReadWrite),
    );
    let store = Arc::clone(warm.store().unwrap());
    let writer = Arc::clone(&store);
    let extended = dir.clone();
    let held = arm(&hook, &store, move || {
        for unit in 0..UNITS {
            let (key, path) = stored_column(&extended, unit);
            let file = deepbase_store::format::read_meta(&mut std::fs::File::open(&path).unwrap());
            let stored = file.unwrap().positions;
            assert!(stored.len() < ND, "a partial column");
            // The prefix plus the first half of the records: still
            // partial, with every row moved (record order now).
            let filled: Vec<u32> = (0..ND as u32)
                .filter(|&p| p < ND as u32 / 2 || stored.contains(&p))
                .collect();
            let data = column_values(unit);
            let rows: Vec<f32> = filled
                .iter()
                .flat_map(|&p| &data[p as usize * NS..(p as usize + 1) * NS])
                .copied()
                .collect();
            let written = writer.write_columns(ND, NS, &filled, &[(key, &rows)]).pop();
            assert_eq!(written.unwrap().unwrap().partial_columns_written, 1);
        }
    });
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert!(held.load(Ordering::SeqCst) > 0, "the pass held pages");
    let stats = &out.report.store;
    assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
    assert_eq!(stats.partial_columns_scanned, UNITS);
    assert_eq!(
        stats.forward_passes_avoided, 2,
        "both blocks under the old watermark were scanned"
    );
    assert_eq!(store.held_page_bytes(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Two columns are moved aside and rewritten on another block grid by a
/// second store instance between two streamed blocks: the pass's store
/// still has the old zone tables, so its next read of either file fails
/// validation, drops the column's held pages with the stale info and
/// reads the new file afresh.
#[test]
fn a_column_moved_aside_and_rewritten_mid_pass_is_read_afresh() {
    let dir = store_dir("held-rewrite");
    let config = full_config(Device::SingleCore);
    let (reference, _) = live_tables(&config, &[Q_ALL]);
    let (mut cold, _) = session(
        config.clone(),
        &dir,
        MaterializationPolicy::ReadWrite,
        AdmissionConfig::default(),
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);

    let hook = Hook::default();
    let (mut warm, counters) = hooked_session(
        &hook,
        config,
        store_config(&dir, MaterializationPolicy::ReadWrite),
    );
    let store = Arc::clone(warm.store().unwrap());
    let other = BehaviorStore::open(&StoreConfig {
        block_records: 4,
        ..store_config(&dir, MaterializationPolicy::ReadWrite)
    })
    .unwrap();
    let rewritten = dir.clone();
    let held = arm(&hook, &store, move || {
        for unit in [1, 4] {
            let (key, path) = stored_column(&rewritten, unit);
            std::fs::rename(&path, path.with_extension("aside")).unwrap();
            other
                .write_column(&key, ND, NS, &column_values(unit))
                .unwrap();
        }
    });
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert!(held.load(Ordering::SeqCst) > 0, "the pass held pages");
    assert_eq!(counters.calls(), 0, "every column still scans");
    assert_eq!(
        out.report.store.error_count, 0,
        "{:?}",
        out.report.store.errors
    );
    assert_eq!(store.held_page_bytes(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Disk-budget compaction between two streamed blocks deletes every
/// column the pass holds pages of; nothing the pass holds refuses a
/// delete. Run by the pass's own store, the eviction de-indexes the
/// columns and each demotes at its next fetch. Run by another store
/// instance over the same root, the pass's store still knows the columns:
/// with one stored block per column, every page was held after the first
/// block, and the held pages serve the rest of the pass.
#[test]
fn compaction_mid_pass_evicts_what_the_pass_holds_and_the_answers_stay_bare() {
    for (name, own_store, stored_block) in [("own", true, 8), ("other", false, ND)] {
        let dir = store_dir(&format!("held-compact-{name}"));
        let config = full_config(Device::SingleCore);
        let (reference, _) = live_tables(&config, &[Q_ALL]);
        let stored = StoreConfig {
            block_records: stored_block,
            ..store_config(&dir, MaterializationPolicy::ReadWrite)
        };
        let (mut cold, _) = hooked_session(&Hook::default(), config.clone(), stored.clone());
        cold.run_batch(&[Q_ALL]).unwrap();
        drop(cold);

        let tight = StoreConfig {
            disk_budget_bytes: 1,
            ..stored.clone()
        };
        let hook = Hook::default();
        let (mut warm, counters) = hooked_session(
            &hook,
            config,
            if own_store { tight.clone() } else { stored },
        );
        let store = Arc::clone(warm.store().unwrap());
        let compactor = if own_store {
            Arc::clone(&store)
        } else {
            BehaviorStore::open(&tight).unwrap()
        };
        let evicted = Arc::new(AtomicUsize::new(0));
        let noted = Arc::clone(&evicted);
        let held = arm(&hook, &store, move || {
            let swept = compactor.compact(u64::MAX);
            noted.store(swept.columns_evicted, Ordering::SeqCst);
        });
        let out = warm.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(out.tables, reference, "{name}");
        assert!(
            held.load(Ordering::SeqCst) > 0,
            "{name}: the pass held pages"
        );
        assert_eq!(
            evicted.load(Ordering::SeqCst),
            UNITS,
            "{name}: nothing refused"
        );
        assert!(files_with(&dir, ".col").is_empty(), "{name}");
        let stats = &out.report.store;
        if own_store {
            assert!(counters.calls() > 0, "evicted columns extract live");
            assert_eq!(stats.error_count, UNITS, "{:?}", stats.errors);
            assert!(stats
                .errors
                .iter()
                .all(|e| e.contains("disk-budget eviction")));
        } else {
            assert_eq!(counters.calls(), 0, "the held pages served the pass");
            assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
        }
        assert_eq!(store.held_page_bytes(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
