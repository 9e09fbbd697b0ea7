//! Property-based tests for the NN substrate: output invariants that must
//! hold for arbitrary inputs and seeds (probability simplexes, bounded
//! activations, determinism, extraction layout) — and the contract of the
//! inference forward: bit for bit what the training forward computes,
//! because stored behavior columns outlive the code that wrote them. (The
//! seq2seq encoder's and the CNN's training forwards are private, so
//! their parity properties sit in those modules' own tests.)

use deepbase_nn::{one_hot_batch, CharLstmModel, Lstm, OutputMode, Seq2Seq};
use deepbase_tensor::{init, Matrix};
use proptest::prelude::*;

/// Weights that separate "the same sum" from "almost the same sum":
/// signed zeros, denormals, the smallest normal, and magnitudes whose
/// products with `|h| <= 1` stay finite over the widths tested here.
const SPECIAL_WEIGHTS: [f32; 10] = [
    -0.0,
    0.0,
    1e-40,
    -3e-42,
    f32::MIN_POSITIVE,
    -f32::MIN_POSITIVE,
    1e30,
    -1e30,
    2.5e-7,
    -7.0,
];

/// Overwrites weights of `m` with special values at the given positions.
fn plant(m: &mut Matrix, specials: &[(usize, usize)]) {
    let len = m.len();
    for &(pos, which) in specials {
        m.as_mut_slice()[pos % len] = SPECIAL_WEIGHTS[which];
    }
}

fn bits(m: &Matrix) -> Vec<u32> {
    m.as_slice().iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn lstm_infer_is_the_training_forward_on_one_hot_ids(
        seed in 0u64..10_000,
        hidden in 1usize..8,
        steps in 0usize..5,
        ids in proptest::collection::vec(0u32..400, 20),
        specials in proptest::collection::vec((0usize..100_000, 0usize..SPECIAL_WEIGHTS.len()), 0..32),
    ) {
        // Batches hit the kernel's two-row tile, its one-row tail and
        // both; vocabularies sit on both sides of its 256-wide panel.
        for batch in [1usize, 2, 3, 5] {
            for vocab in [1usize, 3, 40, 255, 256, 257, 300] {
                let mut lstm = Lstm::new(vocab, hidden, &mut init::seeded_rng(seed));
                plant(lstm.wx_mut(), &specials);
                plant(lstm.wh_mut(), &specials);
                let ids_at = |t: usize, r: usize| ids[(t * batch + r) % ids.len()];
                let xs: Vec<Matrix> = (0..steps)
                    .map(|t| {
                        let step: Vec<u32> = (0..batch).map(|r| ids_at(t, r)).collect();
                        one_hot_batch(&step, vocab)
                    })
                    .collect();
                let training = lstm.forward(&xs);
                let mut infer = lstm.forward_infer(batch);
                for (t, expected) in training.hs.iter().enumerate() {
                    let h = infer.step_ids(|r| ids_at(t, r));
                    prop_assert_eq!(
                        bits(h), bits(expected),
                        "step {} of batch {} vocab {} hidden {}", t, batch, vocab, hidden
                    );
                }
            }
        }
    }

    #[test]
    fn lstm_infer_is_the_training_forward_on_dense_rows(
        seed in 0u64..10_000,
        hidden in 1usize..8,
        steps in 0usize..5,
        specials in proptest::collection::vec((0usize..100_000, 0usize..SPECIAL_WEIGHTS.len()), 0..32),
    ) {
        for batch in [1usize, 2, 3, 5] {
            for input_dim in [1usize, 6, 255, 258] {
                let mut rng = init::seeded_rng(seed);
                let mut lstm = Lstm::new(input_dim, hidden, &mut rng);
                plant(lstm.wx_mut(), &specials);
                plant(lstm.wh_mut(), &specials);
                let xs: Vec<Matrix> = (0..steps)
                    .map(|_| {
                        let mut x = init::uniform(batch, input_dim, -1.0, 1.0, &mut rng);
                        // Inputs get signed zeros and denormals too.
                        plant(&mut x, &specials[..specials.len().min(6)]);
                        x.map_inplace(|v| v.clamp(-1.0, 1.0));
                        x
                    })
                    .collect();
                let training = lstm.forward(&xs);
                let mut infer = lstm.forward_infer(batch);
                for (t, (x, expected)) in xs.iter().zip(&training.hs).enumerate() {
                    prop_assert_eq!(
                        bits(infer.step_rows(x)), bits(expected),
                        "step {} of batch {} input {} hidden {}", t, batch, input_dim, hidden
                    );
                }
            }
        }
    }

    #[test]
    fn char_model_extraction_is_the_training_forward_record_major(
        seed in 0u64..10_000,
        batch in 1usize..6,
        steps in 0usize..7,
        hidden in 1usize..10,
        // Ids at and past the vocabulary clamp to its last entry.
        ids in proptest::collection::vec(0u32..9, 36),
        unit_picks in proptest::collection::vec(0usize..100, 0..12),
    ) {
        let model = CharLstmModel::new(5, hidden, OutputMode::LastStep, seed);
        let inputs: Vec<Vec<u32>> = (0..batch)
            .map(|r| (0..steps).map(|t| ids[r * steps + t]).collect())
            .collect();
        let training = model.run(&inputs);
        let all = model.extract_activations(&inputs);
        prop_assert_eq!(all.shape(), (batch * steps, hidden));
        let unit_ids: Vec<usize> = unit_picks.iter().map(|u| u % hidden).collect();
        let some = model.extract_units(&inputs, &unit_ids);
        prop_assert_eq!(some.shape(), (batch * steps, unit_ids.len()));
        for (t, h) in training.hs.iter().enumerate() {
            for r in 0..batch {
                let row = all.row(r * steps + t);
                prop_assert_eq!(
                    row.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    h.row(r).iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
                    "record {} step {}", r, t
                );
                let picked: Vec<f32> = unit_ids.iter().map(|&u| row[u]).collect();
                prop_assert_eq!(some.row(r * steps + t), &picked[..]);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn char_model_proba_is_distribution(
        seed in 0u64..1000,
        ids in proptest::collection::vec(0u32..5, 1..12),
    ) {
        let model = CharLstmModel::new(5, 6, OutputMode::LastStep, seed);
        let p = model.predict_proba(&ids);
        prop_assert_eq!(p.len(), 5);
        let sum: f32 = p.iter().sum();
        prop_assert!((sum - 1.0).abs() < 1e-4);
        prop_assert!(p.iter().all(|&v| (0.0..=1.0).contains(&v)));
    }

    #[test]
    fn lstm_activations_bounded(
        seed in 0u64..1000,
        ids in proptest::collection::vec(0u32..4, 2..16),
    ) {
        let model = CharLstmModel::new(4, 8, OutputMode::LastStep, seed);
        let acts = model.extract_activations(std::slice::from_ref(&ids));
        prop_assert_eq!(acts.shape(), (ids.len(), 8));
        // h = o * tanh(c) is bounded by 1 in magnitude.
        prop_assert!(acts.as_slice().iter().all(|v| v.abs() <= 1.0));
    }

    #[test]
    fn extraction_is_deterministic(seed in 0u64..500) {
        let model = CharLstmModel::new(4, 6, OutputMode::EveryStep, seed);
        let inputs = vec![vec![0u32, 1, 2, 3], vec![3u32, 2, 1, 0]];
        let a = model.extract_activations(&inputs);
        let b = model.extract_activations(&inputs);
        prop_assert_eq!(a.as_slice(), b.as_slice());
    }

    #[test]
    fn extraction_row_layout_is_record_major(
        seed in 0u64..200,
        n_records in 1usize..4,
    ) {
        let model = CharLstmModel::new(3, 5, OutputMode::LastStep, seed);
        let inputs: Vec<Vec<u32>> =
            (0..n_records).map(|i| (0..6).map(|t| ((i + t) % 3) as u32).collect()).collect();
        let all = model.extract_activations(&inputs);
        // Extracting one record alone gives the same rows.
        for (i, input) in inputs.iter().enumerate() {
            let single = model.extract_activations(std::slice::from_ref(input));
            for t in 0..6 {
                prop_assert_eq!(single.row(t), all.row(i * 6 + t));
            }
        }
    }

    #[test]
    fn one_hot_rows_sum_to_one(ids in proptest::collection::vec(0u32..7, 1..20)) {
        let m = one_hot_batch(&ids, 7);
        for r in 0..m.rows() {
            prop_assert_eq!(m.row(r).iter().sum::<f32>(), 1.0);
        }
    }

    #[test]
    fn seq2seq_translate_is_bounded_and_deterministic(
        seed in 0u64..200,
        src in proptest::collection::vec(4u32..10, 1..6),
    ) {
        let model = Seq2Seq::new(12, 12, 4, 4, seed);
        let a = model.translate(&src, 8);
        let b = model.translate(&src, 8);
        prop_assert_eq!(&a, &b);
        prop_assert!(a.len() <= 8);
        prop_assert!(a.iter().all(|&t| t < 12));
    }

    #[test]
    fn encoder_activation_shape_matches_source(
        seed in 0u64..200,
        src in proptest::collection::vec(4u32..10, 1..8),
    ) {
        let model = Seq2Seq::new(12, 12, 4, 5, seed);
        let acts = model.encoder_activations_all(&src);
        prop_assert_eq!(acts.shape(), (src.len(), 10));
        prop_assert!(acts.as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn training_step_keeps_parameters_finite(
        seed in 0u64..100,
        ids in proptest::collection::vec(0u32..4, 4..10),
    ) {
        let mut model = CharLstmModel::new(4, 6, OutputMode::LastStep, seed);
        let target = ids[0];
        let loss = model.train_batch_last(std::slice::from_ref(&ids), &[target], 0.05);
        prop_assert!(loss.is_finite() && loss >= 0.0);
        let acts = model.extract_activations(&[ids]);
        prop_assert!(acts.as_slice().iter().all(|v| v.is_finite()));
    }
}
