//! Engine-level integration tests: the optimization-correctness claims of
//! paper §5 (merging is exact, early stopping approximates, streaming
//! reads less, the MADLib baseline scans a lot; that caching is transparent
//! is a session property, in `session_tests`).

use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Value;
use deepbase_tensor::Matrix;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// Synthetic world: 4 units over 6-symbol records; unit 0 mirrors the
/// `ones` hypothesis, unit 2 anti-mirrors it, units 1 and 3 are noise.
fn fixture(n_records: usize) -> (Dataset, Matrix) {
    let ns = 6;
    let records: Vec<Record> = (0..n_records)
        .map(|i| {
            let text: String = (0..ns)
                .map(|t| if (i * 7 + t * 3) % 4 == 1 { '1' } else { '0' })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let mut behaviors = Matrix::zeros(n_records * ns, 4);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let h = if c == '1' { 1.0 } else { 0.0 };
            let r = ri * ns + t;
            behaviors.set(r, 0, h * 0.8 + 0.1);
            behaviors.set(r, 1, ((ri * 131 + t * 17) % 23) as f32 / 23.0);
            behaviors.set(r, 2, 1.0 - h);
            behaviors.set(r, 3, ((ri * 37 + t * 11) % 19) as f32 / 19.0);
        }
    }
    let dataset = Dataset::new("fixture", ns, records).unwrap();
    (dataset, behaviors)
}

fn ones_hypothesis() -> FnHypothesis {
    FnHypothesis::char_class("ones", |c| c == '1')
}

fn zeros_hypothesis() -> FnHypothesis {
    FnHypothesis::char_class("zeros", |c| c == '0')
}

fn request<'a>(
    extractor: &'a PrecomputedExtractor,
    dataset: &'a Dataset,
    hyps: &'a [FnHypothesis],
    measures: Vec<&'a dyn Measure>,
) -> InspectionRequest<'a> {
    InspectionRequest {
        model_id: "fixture_model".into(),
        extractor,
        groups: vec![UnitGroup::all(4)],
        dataset,
        hypotheses: hyps.iter().map(|h| h as &dyn HypothesisFn).collect(),
        measures,
    }
}

#[test]
fn correlation_scores_identify_mirror_units() {
    let (dataset, behaviors) = fixture(64);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let (frame, _) = inspect(&req, &InspectionConfig::default()).unwrap();
    let scores = frame.unit_scores("corr", "ones");
    assert!(scores[0].1 > 0.95, "unit 0 {:?}", scores);
    assert!(scores[2].1 < -0.95, "unit 2 {:?}", scores);
    assert!(scores[1].1.abs() < 0.4, "unit 1 {:?}", scores);
}

#[test]
fn all_engines_agree_on_correlation() {
    let (dataset, behaviors) = fixture(48);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis(), zeros_hypothesis()];
    let corr = CorrelationMeasure;

    let mut reference: Option<Vec<(usize, f32)>> = None;
    for engine in [
        EngineKind::PyBase,
        EngineKind::Merged,
        EngineKind::MergedEarlyStop,
        EngineKind::DeepBase,
        EngineKind::Madlib,
    ] {
        let req = request(&extractor, &dataset, &hyps, vec![&corr]);
        let config = InspectionConfig {
            // Tight epsilon: approximating engines must still match.
            epsilon: Some(1e-4),
            block_records: 16,
            ..Default::default()
        };
        let (frame, _) = inspect_as(engine, &req, &config).unwrap();
        let scores = frame.unit_scores("corr", "ones");
        match &reference {
            None => reference = Some(scores),
            Some(exact) => {
                for ((u1, s1), (u2, s2)) in exact.iter().zip(scores.iter()) {
                    assert_eq!(u1, u2);
                    assert!((s1 - s2).abs() < 0.05, "{engine:?} unit {u1}: {s1} vs {s2}");
                }
            }
        }
    }
}

#[test]
fn merged_logreg_engine_matches_pybase() {
    let (dataset, behaviors) = fixture(64);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis(), zeros_hypothesis()];
    let logreg = LogRegMeasure::l1(0.001);

    let run = |engine: EngineKind| {
        let req = request(&extractor, &dataset, &hyps, vec![&logreg]);
        inspect_as(engine, &req, &InspectionConfig::default())
            .unwrap()
            .0
    };
    let pybase = run(EngineKind::PyBase);
    let merged = run(EngineKind::Merged);
    for hyp in ["ones", "zeros"] {
        let a = pybase.unit_scores("logreg_l1", hyp);
        let b = merged.unit_scores("logreg_l1", hyp);
        for ((u1, s1), (u2, s2)) in a.iter().zip(b.iter()) {
            assert_eq!(u1, u2);
            assert!((s1 - s2).abs() < 1e-3, "{hyp} unit {u1}: {s1} vs {s2}");
        }
        let g1 = pybase.group_score("logreg_l1", hyp).unwrap();
        let g2 = merged.group_score("logreg_l1", hyp).unwrap();
        assert!((g1 - g2).abs() < 1e-5, "{hyp} group: {g1} vs {g2}");
    }
}

#[test]
fn logreg_probe_learns_the_predictable_hypothesis() {
    let (dataset, behaviors) = fixture(96);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let logreg = LogRegMeasure::l2(0.0);
    let req = request(&extractor, &dataset, &hyps, vec![&logreg]);
    let (frame, _) = inspect_as(EngineKind::Merged, &req, &InspectionConfig::default()).unwrap();
    let f1 = frame.group_score("logreg_l2", "ones").unwrap();
    assert!(f1 > 0.9, "probe F1 {f1}");
}

#[test]
fn streaming_reads_fewer_records_with_loose_epsilon() {
    let (dataset, behaviors) = fixture(512);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;

    let run = |epsilon: f32| {
        let req = request(&extractor, &dataset, &hyps, vec![&corr]);
        let config = InspectionConfig {
            epsilon: Some(epsilon),
            block_records: 16,
            ..Default::default()
        };
        inspect(&req, &config).unwrap().1
    };
    let loose = run(0.2);
    let tight = run(1e-6);
    assert!(
        loose.records_read < tight.records_read,
        "loose {} vs tight {}",
        loose.records_read,
        tight.records_read
    );
    assert_eq!(tight.records_read, 512, "tight epsilon reads everything");
}

#[test]
fn early_stopped_scores_approximate_exact_scores() {
    let (dataset, behaviors) = fixture(512);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;

    let exact = {
        let req = request(&extractor, &dataset, &hyps, vec![&corr]);
        inspect_as(EngineKind::PyBase, &req, &InspectionConfig::default())
            .unwrap()
            .0
    };
    let approx = {
        let req = request(&extractor, &dataset, &hyps, vec![&corr]);
        let config = InspectionConfig {
            epsilon: Some(0.05),
            block_records: 32,
            ..Default::default()
        };
        inspect(&req, &config).unwrap().0
    };
    for ((u1, s1), (u2, s2)) in exact
        .unit_scores("corr", "ones")
        .iter()
        .zip(approx.unit_scores("corr", "ones").iter())
    {
        assert_eq!(u1, u2);
        assert!(
            (s1 - s2).abs() < 0.1,
            "unit {u1}: exact {s1} vs approx {s2}"
        );
    }
}

#[test]
fn inspect_as_deepbase_is_inspect_is_the_sole_member_of_inspect_shared() {
    let (dataset, behaviors) = fixture(256);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis(), zeros_hypothesis()];
    let corr = CorrelationMeasure;
    let logreg = LogRegMeasure::l1(0.001);
    let req = request(&extractor, &dataset, &hyps, vec![&corr, &logreg]);
    // Loose enough that corr stops early while logreg streams on.
    let config = InspectionConfig {
        epsilon: Some(0.1),
        block_records: 16,
        ..Default::default()
    };
    let bits = |frame: &ResultFrame| -> Vec<(String, usize, u32, u32)> {
        let row = |r: &ScoreRow| {
            let ids = [&*r.model_id, &*r.group_id, &*r.measure_id, &*r.hyp_id].join("/");
            (ids, r.unit, r.unit_score.to_bits(), r.group_score.to_bits())
        };
        frame.rows.iter().map(row).collect()
    };
    let counters = |p: &Profile| (p.records_read, p.blocks_processed);

    let (direct, direct_profile) = inspect(&req, &config).unwrap();
    let (by_kind, by_kind_profile) = inspect_as(EngineKind::DeepBase, &req, &config).unwrap();
    let shared = inspect_shared(std::slice::from_ref(&req), &config).unwrap();
    assert_eq!(shared.results.len(), 1);
    let (member, member_profile) = &shared.results[0];

    assert!(!direct.is_empty());
    assert_eq!(bits(&by_kind), bits(&direct));
    assert_eq!(bits(member), bits(&direct));
    assert_eq!(counters(&by_kind_profile), counters(&direct_profile));
    assert_eq!(counters(member_profile), counters(&direct_profile));
    assert_eq!(counters(&shared.pass), counters(&direct_profile));
    assert_eq!(shared.extraction_passes, 1);
}

#[test]
fn parallel_device_matches_single_core() {
    let (dataset, behaviors) = fixture(64);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis(), zeros_hypothesis()];
    let corr = CorrelationMeasure;

    let run = |device: Device| {
        let req = request(&extractor, &dataset, &hyps, vec![&corr]);
        let config = InspectionConfig {
            device,
            ..Default::default()
        };
        inspect_as(EngineKind::PyBase, &req, &config).unwrap().0
    };
    let single = run(Device::SingleCore);
    let parallel = run(Device::Parallel(4));
    for hyp in ["ones", "zeros"] {
        for ((u1, s1), (u2, s2)) in single
            .unit_scores("corr", hyp)
            .iter()
            .zip(parallel.unit_scores("corr", hyp).iter())
        {
            assert_eq!(u1, u2);
            assert!((s1 - s2).abs() < 1e-5);
        }
    }
}

#[test]
fn madlib_engine_pays_many_scans() {
    let (dataset, behaviors) = fixture(16);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis(), zeros_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let (_, profile) = inspect_as(EngineKind::Madlib, &req, &InspectionConfig::default()).unwrap();
    let stats = profile.madlib_stats.expect("madlib reports scan stats");
    assert!(stats.full_scans >= 1);
    assert!(stats.rows_scanned >= dataset.total_symbols());
}

#[test]
fn madlib_rejects_unsupported_measures() {
    let (dataset, behaviors) = fixture(8);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let mi = BufferedMeasure::mutual_info(8, 65_536);
    let req = request(&extractor, &dataset, &hyps, vec![&mi]);
    let err = inspect_as(EngineKind::Madlib, &req, &InspectionConfig::default()).unwrap_err();
    assert!(matches!(err, DniError::BadConfig(_)));
}

#[test]
fn invalid_hypothesis_output_is_rejected() {
    let (dataset, behaviors) = fixture(8);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    // Wrong length.
    let short = FnHypothesis::new("short", |_| vec![1.0]);
    let corr = CorrelationMeasure;
    let hyps = vec![short];
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let err = inspect(&req, &InspectionConfig::default()).unwrap_err();
    assert!(matches!(err, DniError::BadHypothesisOutput { .. }), "{err}");

    // NaN values.
    let nan = FnHypothesis::new("nan", |r| vec![f32::NAN; r.symbols.len()]);
    let hyps = vec![nan];
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let err = inspect(&req, &InspectionConfig::default()).unwrap_err();
    assert!(matches!(err, DniError::BadHypothesisOutput { .. }), "{err}");
}

#[test]
fn bad_unit_groups_are_rejected() {
    let (dataset, behaviors) = fixture(8);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let mut req = request(&extractor, &dataset, &hyps, vec![&corr]);
    req.groups = vec![UnitGroup::new("oob", vec![99])];
    assert!(matches!(
        inspect(&req, &InspectionConfig::default()),
        Err(DniError::BadUnitGroup { .. })
    ));

    let mut req = request(&extractor, &dataset, &hyps, vec![&corr]);
    req.groups = vec![UnitGroup::new("empty", vec![])];
    assert!(matches!(
        inspect(&req, &InspectionConfig::default()),
        Err(DniError::BadUnitGroup { .. })
    ));
}

/// ε must be finite and positive wherever a config is taken: a state
/// reports ∞ before it can estimate anything, so under an infinite ε a
/// pass would stop after its first block and call itself converged.
#[test]
fn epsilon_validation_refuses_zero_negative_nan_and_infinite_epsilons() {
    let (dataset, behaviors) = fixture(64);
    let extractor = PrecomputedExtractor::new(behaviors.clone(), dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors, dataset.ns)),
        (0..4).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses(
        "h",
        vec![Arc::new(ones_hypothesis()) as Arc<dyn HypothesisFn>],
    );
    catalog.add_dataset("seq", Arc::new(dataset.clone()));
    let statement = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq \
                     AS S FROM models M, units U, hypotheses H, inputs D";
    for epsilon in [0.0, -1.0, f32::NAN, f32::INFINITY, 0.5] {
        let config = InspectionConfig {
            epsilon: Some(epsilon),
            block_records: 8,
            ..Default::default()
        };
        let session = || {
            let mut session = Session::with_config(
                catalog.clone(),
                SessionConfig {
                    inspection: config.clone(),
                    ..SessionConfig::default()
                },
            );
            session.run(statement).map(|_| ())
        };
        let outcomes = [
            ("inspect", inspect(&req, &config).map(|_| ())),
            (
                "inspect_as(PyBase)",
                inspect_as(EngineKind::PyBase, &req, &config).map(|_| ()),
            ),
            ("Session::run", session()),
        ];
        for (path, outcome) in outcomes {
            match epsilon {
                0.5 => assert!(outcome.is_ok(), "{path}: ε {epsilon}: {outcome:?}"),
                _ => assert!(
                    matches!(outcome, Err(DniError::BadConfig(_))),
                    "{path}: ε {epsilon}: {outcome:?}"
                ),
            }
        }
    }
}

#[test]
fn zero_symbol_records_survive_the_parallel_device() {
    // ns == 0 means zero-size extraction buffers; the parallel chunking
    // must fall back to the serial path instead of chunking by zero.
    let records: Vec<Record> = (0..16)
        .map(|i| Record::standalone(i, vec![], String::new()))
        .collect();
    let dataset = Dataset::new("empty-symbols", 0, records).unwrap();
    let extractor = PrecomputedExtractor::new(Matrix::zeros(0, 4), 0);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let config = InspectionConfig {
        device: Device::Parallel(4),
        ..Default::default()
    };
    let (frame, _) = inspect_as(EngineKind::PyBase, &req, &config).unwrap();
    assert_eq!(frame.rows.len(), 4, "one row per unit, scores default to 0");
    assert!(frame.rows.iter().all(|r| r.unit_score == 0.0));
}

#[test]
fn empty_dataset_yields_empty_frame() {
    let dataset = Dataset::new("empty", 6, vec![]).unwrap();
    let extractor = PrecomputedExtractor::new(Matrix::zeros(0, 4), 6);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let (frame, _) = inspect(&req, &InspectionConfig::default()).unwrap();
    assert!(frame.is_empty());
}

#[test]
fn multiple_groups_scored_independently_by_logreg() {
    let (dataset, behaviors) = fixture(64);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let logreg = LogRegMeasure::l2(0.0);
    let mut req = request(&extractor, &dataset, &hyps, vec![&logreg]);
    // Group A holds the informative units, group B only noise.
    req.groups = vec![
        UnitGroup::new("informative", vec![0, 2]),
        UnitGroup::new("noise", vec![1, 3]),
    ];
    let (frame, _) = inspect_as(EngineKind::Merged, &req, &InspectionConfig::default()).unwrap();
    let informative: Vec<&ScoreRow> = frame
        .rows
        .iter()
        .filter(|r| r.group_id == "informative")
        .collect();
    let noise: Vec<&ScoreRow> = frame
        .rows
        .iter()
        .filter(|r| r.group_id == "noise")
        .collect();
    assert!(
        informative[0].group_score > 0.9,
        "informative F1 {}",
        informative[0].group_score
    );
    assert!(
        noise[0].group_score < informative[0].group_score,
        "noise {} vs informative {}",
        noise[0].group_score,
        informative[0].group_score
    );
}

#[test]
fn profile_accounts_for_phases() {
    let (dataset, behaviors) = fixture(128);
    let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
    let hyps = vec![ones_hypothesis()];
    let corr = CorrelationMeasure;
    let req = request(&extractor, &dataset, &hyps, vec![&corr]);
    let (_, profile) = inspect(
        &req,
        &InspectionConfig {
            block_records: 32,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(profile.blocks_processed >= 1);
    assert!(profile.records_read >= 32);
    assert!(profile.total >= profile.inspection);
}

// ---------------------------------------------------------------------
// A `corr` list stops each member where its one-hypothesis run would
// ---------------------------------------------------------------------

/// Symbols per record of the convergence fixture.
const MIX_NS: usize = 8;
/// Units: one 8-wide tile and a tail unit.
const MIX_UNITS: usize = 9;
/// How strongly each hypothesis drives every unit. A hypothesis that
/// explains most of each unit has a narrow Fisher interval early; the last
/// ones need most of the data, so under the default ε the six pairs of a
/// unit converge at different blocks, or never.
const MIX_WEIGHTS: [f32; 6] = [4.0, 2.0, 1.0, 0.6, 0.3, 0.0];

/// Hypothesis `k`'s 0/1 signal at symbol `t` of record `id`.
fn mix_signal(k: usize, id: usize, t: usize) -> f32 {
    let mut x = ((id * MIX_NS + t) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x ^= (k as u64 + 1).wrapping_mul(0xC2B2_AE3D_27D4_EB4F);
    x ^= x >> 31;
    x = x.wrapping_mul(0xBF58_476D_1CE4_E5B9);
    ((x >> 40) & 1) as f32
}

fn mix_records(first_id: usize, n: usize) -> Vec<Record> {
    (first_id..first_id + n)
        .map(|i| Record::standalone(i, vec![0; MIX_NS], "x".repeat(MIX_NS)))
        .collect()
}

/// Unit `u` of record `id`'s symbol `t`: the weighted hypothesis signals,
/// scaled per unit, plus a little unit-specific noise.
fn mix_behaviors(total: usize) -> Matrix {
    Matrix::from_fn(total * MIX_NS, MIX_UNITS, |r, u| {
        let (id, t) = (r / MIX_NS, r % MIX_NS);
        let signal: f32 = (MIX_WEIGHTS.iter().enumerate())
            .map(|(k, w)| w * mix_signal(k, id, t))
            .sum();
        let noise = ((r * (u + 11) * 7919) % 101) as f32 / 101.0;
        signal * (1.0 + 0.1 * u as f32) + 0.5 * noise - u as f32
    })
}

/// Hypothesis `k` of the fixture, counting its evaluations.
struct MixHypothesis {
    id: String,
    k: usize,
    calls: Arc<AtomicUsize>,
}

impl HypothesisFn for MixHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        self.calls.fetch_add(1, Ordering::Relaxed);
        Ok((0..MIX_NS)
            .map(|t| mix_signal(self.k, record.id, t))
            .collect())
    }
}

fn mix_hypotheses() -> Vec<Arc<MixHypothesis>> {
    (0..MIX_WEIGHTS.len())
        .map(|k| {
            Arc::new(MixHypothesis {
                id: format!("mix{k}"),
                k,
                calls: Arc::new(AtomicUsize::new(0)),
            })
        })
        .collect()
}

/// `(hypothesis, unit, score bits, group score bits)` per frame row.
type MixRow = (String, usize, u32, u32);
/// `(hypothesis, error bits, epsilon bits)` per pending pair.
type MixPending = (String, u32, u32);

/// What a pass reports about its pairs, in list order: rows, pending
/// pairs, rows read and each hypothesis's evaluations.
#[derive(Debug, PartialEq)]
struct MixRun {
    rows: Vec<MixRow>,
    pending: Vec<MixPending>,
    rows_read: usize,
    calls: Vec<usize>,
}

impl MixRun {
    /// The singles' runs as one list run would report them: rows and
    /// pending pairs concatenated, the longest stream, each hypothesis's
    /// calls from its own run.
    fn of_singles(singles: Vec<MixRun>) -> MixRun {
        let mut joined = MixRun {
            rows: Vec::new(),
            pending: Vec::new(),
            rows_read: 0,
            calls: Vec::new(),
        };
        for single in singles {
            joined.rows.extend(single.rows);
            joined.pending.extend(single.pending);
            joined.rows_read = joined.rows_read.max(single.rows_read);
            joined.calls.extend(single.calls);
        }
        joined
    }
}

/// One pass of `measure` over `hyps` through the engine, with each
/// hypothesis's call count over the pass.
fn mix_pass(
    dataset: &Dataset,
    extractor: &PrecomputedExtractor,
    hyps: &[Arc<MixHypothesis>],
    measure: &dyn Measure,
    config: &InspectionConfig,
) -> MixRun {
    let all = mix_hypotheses_calls(hyps);
    let req = mix_request(dataset, extractor, hyps, measure);
    let outcome = inspect_shared(std::slice::from_ref(&req), config).unwrap();
    let rows = mix_rows(&outcome.results[0].0);
    let pending = (outcome.completion.pending.iter())
        .map(|p| (p.hyp_id.clone(), p.error.to_bits(), p.epsilon.to_bits()))
        .collect();
    MixRun {
        rows,
        pending,
        rows_read: outcome.completion.rows_read,
        calls: all
            .iter()
            .zip(mix_hypotheses_calls(hyps))
            .map(|(a, b)| b - a)
            .collect(),
    }
}

/// A request for `measure` over the fixture.
fn mix_request<'a>(
    dataset: &'a Dataset,
    extractor: &'a PrecomputedExtractor,
    hyps: &'a [Arc<MixHypothesis>],
    measure: &'a dyn Measure,
) -> InspectionRequest<'a> {
    InspectionRequest {
        model_id: "mix".into(),
        extractor,
        groups: vec![UnitGroup::all(MIX_UNITS)],
        dataset,
        hypotheses: hyps
            .iter()
            .map(|h| h.as_ref() as &dyn HypothesisFn)
            .collect(),
        measures: vec![measure],
    }
}

/// The measures whose list members stop on their own, each with a fixture
/// size and a block size (records) at which its default ε stops members
/// before the data runs out: `diff_means` and the baselines need about
/// 10,000 rows, and the `diff_means` members, whose hypotheses are all on
/// about half the time, stop within 16 records of each other.
const LIST_MEASURES: [(&str, usize, usize); 4] = [
    ("corr", 720, 16),
    ("diff_means", 1600, 4),
    ("majority_baseline", 1600, 4),
    ("random_baseline", 1600, 4),
];

fn library_measure(id: &str) -> Box<dyn Measure> {
    let mut library = standard_library().into_iter();
    library.find(|m| m.id() == id).expect("a library measure")
}

fn mix_rows(frame: &ResultFrame) -> Vec<MixRow> {
    (frame.rows.iter())
        .map(|r| {
            let bits = (r.unit_score.to_bits(), r.group_score.to_bits());
            (r.hyp_id.clone(), r.unit, bits.0, bits.1)
        })
        .collect()
}

fn mix_hypotheses_calls(hyps: &[Arc<MixHypothesis>]) -> Vec<usize> {
    hyps.iter()
        .map(|h| h.calls.load(Ordering::Relaxed))
        .collect()
}

/// Paper §5.2.1 merges what a hypothesis list shares; §5.2.2 stops each
/// pair at its own ε. One statement over six hypotheses must score, report
/// pending and read exactly what six one-hypothesis runs do — under the
/// default ε, where the pairs stop early, and under 1e-12, where none
/// stops — on both devices, on one segment and folded over three, for
/// every measure whose list members stop on their own.
#[test]
fn list_differential_a_list_is_bit_equal_to_its_single_hypothesis_runs_at_any_epsilon() {
    for (id, total, block_records) in LIST_MEASURES {
        let measure = library_measure(id);
        let extractor = PrecomputedExtractor::new(mix_behaviors(total), MIX_NS);
        let one_segment = Dataset::new("mix", MIX_NS, mix_records(0, total)).unwrap();
        let (a, b) = (total * 7 / 15, total / 3);
        let segs = vec![
            mix_records(0, a),
            mix_records(a, b),
            mix_records(a + b, total - a - b),
        ];
        let three_segments = Dataset::with_segments("mix", MIX_NS, segs).unwrap();
        let hyps = mix_hypotheses();
        for (dataset, segmented) in [(&one_segment, false), (&three_segments, true)] {
            for device in [Device::SingleCore, Device::Parallel(3)] {
                for epsilon in [None, Some(1e-12)] {
                    let config = InspectionConfig {
                        epsilon,
                        block_records,
                        device,
                        ..Default::default()
                    };
                    let what = format!("{id}, segmented {segmented}, {device:?}, {epsilon:?}");
                    let pass =
                        |hyps| mix_pass(dataset, &extractor, hyps, measure.as_ref(), &config);
                    let list = pass(&hyps);
                    let singles: Vec<MixRun> =
                        hyps.iter().map(|h| pass(std::slice::from_ref(h))).collect();
                    let stops: Vec<usize> = singles.iter().map(|s| s.rows_read).collect();
                    assert_eq!(list, MixRun::of_singles(singles), "{what}");
                    assert_eq!(list.rows.len(), MIX_WEIGHTS.len() * MIX_UNITS);
                    // Not vacuous: under the default ε on one segment the
                    // pairs stop early; otherwise every pair reads everything.
                    let distinct: std::collections::BTreeSet<usize> =
                        stops.iter().copied().collect();
                    let what = format!("{what}: stops {stops:?}");
                    if epsilon.is_some() || segmented {
                        assert_eq!(stops, vec![total; MIX_WEIGHTS.len()], "{what}");
                    } else if id == "corr" {
                        // At different blocks, one of them early and one never.
                        assert!(distinct.len() >= 3, "{what}");
                        assert!(stops[0] < total / 4, "{what}");
                        assert!(!list.pending.is_empty(), "{what}");
                        assert!(list.pending.len() < MIX_WEIGHTS.len(), "{what}");
                    } else if id == "diff_means" {
                        // At different blocks, every one before the end.
                        assert!(distinct.len() >= 2, "{what}");
                        assert!(stops.iter().all(|&s| s < total), "{what}");
                    } else {
                        // The baselines share one error rule: all together.
                        assert_eq!(distinct.len(), 1, "{what}");
                        assert!(stops[0] < total, "{what}");
                    }
                }
            }
        }
    }
}

/// The same differential across a view: a view over the six hypotheses,
/// built on two segments and refreshed incrementally with a third, holds
/// the scores, and stores the fold point, of six one-hypothesis views.
#[test]
fn list_differential_a_list_view_builds_and_refreshes_like_its_single_hypothesis_views() {
    for (id, _, _) in LIST_MEASURES {
        list_view_builds_and_refreshes_like_its_single_hypothesis_views(id);
    }
}

fn list_view_builds_and_refreshes_like_its_single_hypothesis_views(id: &str) {
    let q = format!(
        "SELECT S.hyp_id, S.uid, S.unit_score, S.group_score \
         INSPECT U.uid AND H.h USING {id} OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D"
    );
    let total = 600;
    let catalog = |hyps: &[Arc<MixHypothesis>]| {
        let mut catalog = Catalog::new();
        catalog.add_model_with_units(
            "m1",
            0,
            Arc::new(PrecomputedExtractor::new(mix_behaviors(total), MIX_NS)),
            (0..MIX_UNITS)
                .map(|uid| UnitMeta { uid, layer: 0 })
                .collect(),
        );
        let set = hyps.iter().map(|h| h.clone() as Arc<dyn HypothesisFn>);
        catalog.add_hypotheses("mix", set.collect());
        let segs = vec![mix_records(0, 250), mix_records(250, 150)];
        let dataset = Dataset::with_segments("seq", MIX_NS, segs).unwrap();
        catalog.add_dataset("seq", Arc::new(dataset));
        catalog
    };
    // Table cells as bits, the view's stored states, each hypothesis's calls.
    let view = |hyps: &[Arc<MixHypothesis>], name: &str| {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-engine-tests")
            .join(format!("{id}-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let before = mix_hypotheses_calls(hyps);
        let mut session = Session::with_config(
            catalog(hyps),
            SessionConfig {
                inspection: InspectionConfig {
                    block_records: 16,
                    ..Default::default()
                },
                store: Some(StoreConfig {
                    block_records: 16,
                    ..StoreConfig::at(&dir)
                }),
                ..SessionConfig::default()
            },
        );
        session.create_view("v", &q).unwrap();
        session
            .append_records("seq", mix_records(400, total - 400))
            .unwrap();
        let refresh = session.refresh_view("v").unwrap();
        assert_eq!(refresh, ViewRefresh::Incremental { new_segments: 1 });
        let table = session.read_view("v").unwrap();
        let cells: Vec<Vec<String>> = (0..table.len())
            .map(|r| {
                (table.row(r).iter())
                    .map(|v| match v {
                        Value::Float(f) => format!("{:08x}", f.to_bits()),
                        other => format!("{other:?}"),
                    })
                    .collect()
            })
            .collect();
        let views = session.store().unwrap().views();
        let states = views.load("v").unwrap().expect("view v").states.clone();
        let calls: Vec<usize> = (mix_hypotheses_calls(hyps).iter().zip(&before))
            .map(|(a, b)| a - b)
            .collect();
        let _ = std::fs::remove_dir_all(&dir);
        (cells, states, calls)
    };
    let hyps = mix_hypotheses();
    let (cells, states, calls) = view(&hyps, "list");
    assert_eq!(cells.len(), MIX_WEIGHTS.len() * MIX_UNITS);
    let (mut want_cells, mut want_states, mut want_calls) = (Vec::new(), Vec::new(), Vec::new());
    for (k, hyp) in hyps.iter().enumerate() {
        let (c, s, n) = view(std::slice::from_ref(hyp), &format!("single-{k}"));
        want_cells.extend(c);
        want_states.extend(s);
        want_calls.push(n[0]);
    }
    assert_eq!(cells, want_cells, "{id}");
    assert!(states == want_states, "{id}: stored fold points differ");
    assert_eq!(calls, want_calls, "{id}");
}

/// The `+MM+ES` reference design scores a list bit for bit as the
/// streaming engine does under the default ε: both freeze each member at
/// the block its own error met ε, on either device.
#[test]
fn list_differential_merged_early_stop_scores_a_list_as_deepbase_does_at_the_default_epsilon() {
    for (id, total, block_records) in LIST_MEASURES {
        let measure = library_measure(id);
        let extractor = PrecomputedExtractor::new(mix_behaviors(total), MIX_NS);
        let dataset = Dataset::new("mix", MIX_NS, mix_records(0, total)).unwrap();
        let hyps = mix_hypotheses();
        let req = mix_request(&dataset, &extractor, &hyps, measure.as_ref());
        for device in [Device::SingleCore, Device::Parallel(3)] {
            let config = InspectionConfig {
                block_records,
                device,
                ..Default::default()
            };
            let run = |kind| mix_rows(&inspect_as(kind, &req, &config).unwrap().0);
            let streamed = run(EngineKind::DeepBase);
            assert_eq!(
                run(EngineKind::MergedEarlyStop),
                streamed,
                "{id} {device:?}"
            );
            // Not vacuous: early stopping moved the scores off the full data's.
            assert_ne!(run(EngineKind::Merged), streamed, "{id} {device:?}");
        }
    }
}
