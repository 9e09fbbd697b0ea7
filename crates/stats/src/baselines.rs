//! Naive scoring baselines (paper §4.1): DeepBase's standard library ships
//! a *random class* and a *majority class* scorer so that probe F1 scores
//! can be read against chance performance.

use rand::Rng;

/// F1 of always predicting the majority class of `target`.
pub fn majority_class_f1(target: &[f32]) -> f32 {
    if target.is_empty() {
        return 0.0;
    }
    let positives = target.iter().filter(|&&t| t > 0.5).count();
    let majority = if positives * 2 >= target.len() {
        1.0
    } else {
        0.0
    };
    let pred = vec![majority; target.len()];
    crate::classify::f1_score(&pred, target)
}

/// F1 of predicting each class uniformly at random (seeded).
pub fn random_class_f1(target: &[f32], seed: u64) -> f32 {
    if target.is_empty() {
        return 0.0;
    }
    let mut rng = deepbase_tensor::init::seeded_rng(seed);
    let pred: Vec<f32> = (0..target.len())
        .map(|_| if rng.gen_bool(0.5) { 1.0 } else { 0.0 })
        .collect();
    crate::classify::f1_score(&pred, target)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn majority_all_positive_is_perfect() {
        assert_eq!(majority_class_f1(&[1.0; 10]), 1.0);
    }

    #[test]
    fn majority_all_negative_scores_zero_f1() {
        // Majority predicts 0 everywhere: no true positives -> F1 = 0.
        assert_eq!(majority_class_f1(&[0.0; 10]), 0.0);
    }

    #[test]
    fn majority_balanced_set() {
        let target: Vec<f32> = (0..10).map(|i| (i % 2) as f32).collect();
        // Ties go to positive: predicting all 1s gives precision 0.5, recall 1.
        let f1 = majority_class_f1(&target);
        assert!((f1 - 2.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn random_f1_is_deterministic_per_seed() {
        let target: Vec<f32> = (0..50).map(|i| ((i * 13) % 2) as f32).collect();
        assert_eq!(random_class_f1(&target, 7), random_class_f1(&target, 7));
    }

    #[test]
    fn random_f1_near_half_for_balanced_targets() {
        let target: Vec<f32> = (0..2000).map(|i| (i % 2) as f32).collect();
        let f1 = random_class_f1(&target, 1);
        assert!((f1 - 0.5).abs() < 0.05, "{f1}");
    }
}
