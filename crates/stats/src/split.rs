//! Deterministic dataset splitting helpers (shuffles and train/test
//! splits) shared by probes and the inspection engines.

use rand::seq::SliceRandom;

/// Seeded permutation of `0..n`.
pub fn shuffled_indices(n: usize, seed: u64) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let mut rng = deepbase_tensor::init::seeded_rng(seed);
    idx.shuffle(&mut rng);
    idx
}

/// Splits `0..n` into `(train, test)` index sets with the given test
/// fraction, after a seeded shuffle. Guarantees at least one element per
/// side when `n >= 2`.
pub fn train_test_split(n: usize, test_fraction: f32, seed: u64) -> (Vec<usize>, Vec<usize>) {
    assert!(
        (0.0..=1.0).contains(&test_fraction),
        "fraction out of range"
    );
    let idx = shuffled_indices(n, seed);
    let mut n_test = ((n as f32) * test_fraction).round() as usize;
    if n >= 2 {
        n_test = n_test.clamp(1, n - 1);
    }
    let (test, train) = idx.split_at(n_test.min(n));
    (train.to_vec(), test.to_vec())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shuffle_is_permutation() {
        let idx = shuffled_indices(100, 9);
        let mut sorted = idx.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn shuffle_deterministic_by_seed() {
        assert_eq!(shuffled_indices(50, 3), shuffled_indices(50, 3));
        assert_ne!(shuffled_indices(50, 3), shuffled_indices(50, 4));
    }

    #[test]
    fn split_partitions_everything() {
        let (train, test) = train_test_split(40, 0.25, 1);
        assert_eq!(train.len() + test.len(), 40);
        assert_eq!(test.len(), 10);
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..40).collect::<Vec<_>>());
    }

    #[test]
    fn split_never_empties_either_side() {
        let (train, test) = train_test_split(2, 0.0, 1);
        assert_eq!(train.len(), 1);
        assert_eq!(test.len(), 1);
        let (train, test) = train_test_split(5, 1.0, 1);
        assert!(!train.is_empty());
        assert!(!test.is_empty());
    }
}
