//! Engine-level integration tests: the optimization-correctness claims of
//! paper §5 (merging is exact, early stopping approximates, streaming
//! reads less, the MADLib baseline scans a lot; that caching is transparent
//! is a session property, in `session_tests`).

use deepbase::prelude::*;
use deepbase_tensor::Matrix;

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
    let mi = MutualInfoMeasure::default();
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
