//! Property-based tests for the inspection engine: score-range invariants,
//! engine agreement, and streaming transparency over randomized synthetic
//! behavior worlds (caching transparency is in `session_tests`).

use deepbase::prelude::*;
use deepbase_tensor::Matrix;
use proptest::prelude::*;

/// A randomized behavior world: `n` records of 5 symbols over a small
/// alphabet, with 3 units whose behaviors mix the hypothesis signal and
/// noise at a random strength.
fn world(n: usize, signal: f32, noise_seed: u64) -> (Dataset, Matrix) {
    let ns = 5;
    let records: Vec<Record> = (0..n)
        .map(|i| {
            let text: String = (0..ns)
                .map(|t| {
                    if (i * 3 + t * 7 + noise_seed as usize).is_multiple_of(3) {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let mut behaviors = Matrix::zeros(n * ns, 3);
    let mut lcg = noise_seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let h = if c == '1' { 1.0 } else { 0.0 };
            let r = ri * ns + t;
            lcg = lcg
                .wrapping_mul(2862933555777941757)
                .wrapping_add(3037000493);
            let noise = ((lcg >> 33) as f32 / (u32::MAX >> 1) as f32) - 0.5;
            behaviors.set(r, 0, signal * h + (1.0 - signal) * noise);
            behaviors.set(r, 1, noise);
            behaviors.set(r, 2, -signal * h + (1.0 - signal) * noise);
        }
    }
    (Dataset::new("prop", ns, records).unwrap(), behaviors)
}

fn hyp() -> FnHypothesis {
    FnHypothesis::char_class("ones", |c| c == '1')
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn correlation_scores_in_unit_interval(
        n in 8usize..48,
        signal in 0.0f32..1.0,
        seed in 0u64..100,
    ) {
        let (dataset, behaviors) = world(n, signal, seed);
        let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
        let h = hyp();
        let corr = CorrelationMeasure;
        let request = InspectionRequest {
            model_id: "w".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(3)],
            dataset: &dataset,
            hypotheses: vec![&h],
            measures: vec![&corr],
        };
        let (frame, _) = inspect(&request, &InspectionConfig::default()).unwrap();
        for row in &frame.rows {
            prop_assert!((-1.0..=1.0).contains(&row.unit_score));
            prop_assert!((0.0..=1.0).contains(&row.group_score));
        }
    }

    #[test]
    fn stronger_signal_never_scores_lower(
        n in 24usize..64,
        seed in 0u64..50,
    ) {
        let run = |signal: f32| {
            let (dataset, behaviors) = world(n, signal, seed);
            let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
            let h = hyp();
            let corr = CorrelationMeasure;
            let request = InspectionRequest {
                model_id: "w".into(),
                extractor: &extractor,
                groups: vec![UnitGroup::all(3)],
                dataset: &dataset,
                hypotheses: vec![&h],
                measures: vec![&corr],
            };
            let (frame, _) = inspect(&request, &InspectionConfig::default()).unwrap();
            frame.unit_scores("corr", "ones")[0].1
        };
        let weak = run(0.2);
        let strong = run(0.9);
        prop_assert!(strong >= weak - 0.05, "signal monotonicity: {weak} vs {strong}");
    }

    #[test]
    fn engines_agree_for_any_world(
        n in 16usize..40,
        signal in 0.1f32..0.9,
        seed in 0u64..50,
    ) {
        let (dataset, behaviors) = world(n, signal, seed);
        let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
        let h = hyp();
        let corr = CorrelationMeasure;
        let run = |engine: EngineKind| {
            let request = InspectionRequest {
                model_id: "w".into(),
                extractor: &extractor,
                groups: vec![UnitGroup::all(3)],
                dataset: &dataset,
                hypotheses: vec![&h],
                measures: vec![&corr],
            };
            let config = InspectionConfig { epsilon: Some(1e-6), ..Default::default() };
            inspect_as(engine, &request, &config).unwrap().0.unit_scores("corr", "ones")
        };
        let a = run(EngineKind::PyBase);
        let b = run(EngineKind::DeepBase);
        let c = run(EngineKind::Madlib);
        for ((u, x), ((_, y), (_, z))) in a.iter().zip(b.iter().zip(c.iter())) {
            prop_assert!((x - y).abs() < 1e-3, "unit {u} pybase/deepbase: {x} vs {y}");
            prop_assert!((x - z).abs() < 1e-3, "unit {u} pybase/madlib: {x} vs {z}");
        }
    }

    #[test]
    fn pool_parallel_inspection_identical_to_single_core(
        n in 16usize..48,
        signal in 0.1f32..0.9,
        seed in 0u64..50,
        threads in 2usize..6,
    ) {
        // The parallel device only changes *where* deterministic chunks
        // run, so results must be bit-identical to SingleCore — for a
        // pairwise measure (parallel extraction) and the joint merged
        // measure (parallel extraction + pool matmul).
        let (dataset, behaviors) = world(n, signal, seed);
        let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
        let h = hyp();
        let h2 = FnHypothesis::char_class("zeros", |c| c == '0');
        let corr = CorrelationMeasure;
        let logreg = LogRegMeasure::l1(0.01);
        let run = |device: Device| {
            let request = InspectionRequest {
                model_id: "w".into(),
                extractor: &extractor,
                groups: vec![UnitGroup::all(3)],
                dataset: &dataset,
                hypotheses: vec![&h, &h2],
                measures: vec![&corr, &logreg],
            };
            let config = InspectionConfig { device, ..Default::default() };
            inspect(&request, &config).unwrap().0
        };
        let single = run(Device::SingleCore);
        let parallel = run(Device::Parallel(threads));
        let parallel_again = run(Device::Parallel(threads));
        for measure in ["corr", "logreg_l1"] {
            for hyp_id in ["ones", "zeros"] {
                let a = single.unit_scores(measure, hyp_id);
                let b = parallel.unit_scores(measure, hyp_id);
                let c = parallel_again.unit_scores(measure, hyp_id);
                prop_assert_eq!(&a, &b, "{}/{} parallel != single", measure, hyp_id);
                prop_assert_eq!(&b, &c, "{}/{} parallel nondeterministic", measure, hyp_id);
                prop_assert_eq!(
                    single.group_score(measure, hyp_id),
                    parallel.group_score(measure, hyp_id)
                );
            }
        }
    }

    #[test]
    fn block_size_does_not_change_exact_scores(
        n in 16usize..40,
        block in 1usize..16,
        seed in 0u64..50,
    ) {
        let (dataset, behaviors) = world(n, 0.7, seed);
        let extractor = PrecomputedExtractor::new(behaviors, dataset.ns);
        let h = hyp();
        let corr = CorrelationMeasure;
        let run = |block_records: usize| {
            let request = InspectionRequest {
                model_id: "w".into(),
                extractor: &extractor,
                groups: vec![UnitGroup::all(3)],
                dataset: &dataset,
                hypotheses: vec![&h],
                measures: vec![&corr],
            };
            let config = InspectionConfig {
                epsilon: Some(1e-9), // never converge early
                block_records,
                ..Default::default()
            };
            inspect(&request, &config).unwrap().0.unit_scores("corr", "ones")
        };
        let small = run(block);
        let big = run(n);
        for ((u, a), (_, b)) in small.iter().zip(big.iter()) {
            prop_assert!((a - b).abs() < 1e-4, "unit {u}: block-size sensitivity {a} vs {b}");
        }
    }
}
