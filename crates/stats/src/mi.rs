//! Mutual information between behavior vectors (paper §4.3, used by
//! Morcos et al.-style analyses).
//!
//! Continuous behaviors are discretized into quantile bins before the
//! plug-in MI estimate. A multivariate variant treats a small group of
//! units as a joint variable; beyond `MAX_EXACT_JOINT_DIMS` units the joint
//! histogram would explode, so the estimator falls back to the maximum
//! pairwise MI (a standard, conservative surrogate).
//!
//! The estimate runs on a dense joint table and sums its cells in
//! ascending `(x, y)` order, so a score is a function of its inputs alone
//! (no hasher state). Binning is the expensive half and is the caller's to
//! share: [`mutual_information_discrete`] and [`multivariate_mi_binned`]
//! take pre-binned columns, so a caller scoring every unit against every
//! hypothesis bins each column once.

use crate::quantile::quantile_bin;

/// Number of quantile bins used when discretizing continuous behaviors.
pub const DEFAULT_BINS: usize = 8;

/// Joint-histogram MI is computed exactly up to this many variables.
pub const MAX_EXACT_JOINT_DIMS: usize = 3;

/// Maps labels onto `0..k` preserving their order, and returns `k`. Bin
/// ids — at most as many distinct values as samples — are already dense
/// and pass through untouched; sparse labels are ranked, which bounds the
/// dense tables below by the sample size instead of the label range.
fn dense_labels(labels: &[usize]) -> (std::borrow::Cow<'_, [usize]>, usize) {
    let max = labels.iter().copied().max().unwrap_or(0);
    if max < labels.len() {
        return (labels.into(), max + 1);
    }
    let mut distinct = labels.to_vec();
    distinct.sort_unstable();
    distinct.dedup();
    let ranked = labels
        .iter()
        .map(|l| distinct.binary_search(l).expect("label is in its own set"))
        .collect();
    (ranked, distinct.len())
}

/// Plug-in mutual information (in nats) between two discrete label vectors.
///
/// Probabilities accumulate as `+= 1/n` per sample, so a cell's value
/// depends only on its count, and the terms are summed over the joint
/// table in ascending `(x, y)` label order.
pub fn mutual_information_discrete(xs: &[usize], ys: &[usize]) -> f32 {
    assert_eq!(xs.len(), ys.len(), "MI input length mismatch");
    let n = xs.len();
    if n == 0 {
        return 0.0;
    }
    let (xs, kx) = dense_labels(xs);
    let (ys, ky) = dense_labels(ys);
    let mut joint = vec![0.0f64; kx * ky];
    let mut px = vec![0.0f64; kx];
    let mut py = vec![0.0f64; ky];
    let w = 1.0 / n as f64;
    for (&x, &y) in xs.iter().zip(ys.iter()) {
        joint[x * ky + y] += w;
        px[x] += w;
        py[y] += w;
    }
    let mut mi = 0.0f64;
    for (row, &px) in joint.chunks_exact(ky).zip(&px) {
        for (&pxy, &py) in row.iter().zip(&py) {
            let denom = px * py;
            if pxy > 0.0 && denom > 0.0 {
                mi += pxy * (pxy / denom).ln();
            }
        }
    }
    mi.max(0.0) as f32
}

/// MI between two continuous behavior vectors after quantile binning.
pub fn mutual_information(xs: &[f32], ys: &[f32], bins: usize) -> f32 {
    let bx = quantile_bin(xs, bins);
    let by = quantile_bin(ys, bins);
    mutual_information_discrete(&bx, &by)
}

/// Entropy (nats) of a discrete label vector; the upper bound of any MI
/// against it, used to normalize scores. Terms are summed in ascending
/// label order.
pub fn entropy_discrete(xs: &[usize]) -> f32 {
    if xs.is_empty() {
        return 0.0;
    }
    let (labels, k) = dense_labels(xs);
    let mut counts = vec![0.0f64; k];
    for &x in labels.iter() {
        counts[x] += 1.0;
    }
    let n = xs.len() as f64;
    let mut h = 0.0f64;
    for &c in counts.iter().filter(|&&c| c > 0.0) {
        let p = c / n;
        h -= p * p.ln();
    }
    h.max(0.0) as f32
}

/// Multivariate MI between a group of unit behaviors (rows of
/// `unit_behaviors`, one row per unit, columns are symbols) and a
/// hypothesis behavior: every column quantile-binned into `bins` bins,
/// then [`multivariate_mi_binned`].
pub fn multivariate_mi(unit_behaviors: &[&[f32]], hypothesis: &[f32], bins: usize) -> f32 {
    let binned: Vec<Vec<usize>> = unit_behaviors
        .iter()
        .map(|u| quantile_bin(u, bins))
        .collect();
    multivariate_mi_binned(&binned, &quantile_bin(hypothesis, bins), bins)
}

/// [`multivariate_mi`] over columns already binned into `0..bins`.
///
/// With ≤ [`MAX_EXACT_JOINT_DIMS`] units, forms the exact joint variable;
/// otherwise returns the maximum pairwise MI.
pub fn multivariate_mi_binned(unit_bins: &[Vec<usize>], hyp_bins: &[usize], bins: usize) -> f32 {
    if unit_bins.is_empty() {
        return 0.0;
    }
    if unit_bins.len() <= MAX_EXACT_JOINT_DIMS {
        // Compose a joint discrete variable by mixed-radix packing.
        let n = hyp_bins.len();
        let mut joint_ids = vec![0usize; n];
        for b in unit_bins {
            assert_eq!(b.len(), n, "unit behavior length mismatch");
            for (j, &v) in b.iter().enumerate() {
                joint_ids[j] = joint_ids[j] * bins + v;
            }
        }
        mutual_information_discrete(&joint_ids, hyp_bins)
    } else {
        unit_bins
            .iter()
            .map(|u| mutual_information_discrete(u, hyp_bins))
            .fold(0.0f32, f32::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quantile::{adversarial_sample, reference::quantile_bin as reference_bin};
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    /// The parent's map-based estimate with its three `HashMap`s made
    /// `BTreeMap`s: the same `+= w` cell updates, summed in ascending
    /// `(x, y)` order — the order the dense table is pinned to.
    fn reference_mi_discrete(xs: &[usize], ys: &[usize]) -> f32 {
        assert_eq!(xs.len(), ys.len(), "MI input length mismatch");
        let n = xs.len();
        if n == 0 {
            return 0.0;
        }
        let mut joint: BTreeMap<(usize, usize), f64> = BTreeMap::new();
        let mut px: BTreeMap<usize, f64> = BTreeMap::new();
        let mut py: BTreeMap<usize, f64> = BTreeMap::new();
        let w = 1.0 / n as f64;
        for (&x, &y) in xs.iter().zip(ys.iter()) {
            *joint.entry((x, y)).or_default() += w;
            *px.entry(x).or_default() += w;
            *py.entry(y).or_default() += w;
        }
        let mut mi = 0.0f64;
        for (&(x, y), &pxy) in &joint {
            let denom = px[&x] * py[&y];
            if pxy > 0.0 && denom > 0.0 {
                mi += pxy * (pxy / denom).ln();
            }
        }
        mi.max(0.0) as f32
    }

    fn reference_entropy(xs: &[usize]) -> f32 {
        let mut counts: BTreeMap<usize, f64> = BTreeMap::new();
        for &x in xs {
            *counts.entry(x).or_default() += 1.0;
        }
        let n = xs.len() as f64;
        let mut h = 0.0f64;
        for &c in counts.values() {
            let p = c / n;
            h -= p * p.ln();
        }
        if xs.is_empty() {
            0.0
        } else {
            h.max(0.0) as f32
        }
    }

    /// The parent's `multivariate_mi`, on the sort-per-boundary binning.
    fn reference_multivariate(units: &[&[f32]], hypothesis: &[f32], bins: usize) -> f32 {
        if units.is_empty() {
            return 0.0;
        }
        let hy = reference_bin(hypothesis, bins);
        if units.len() <= MAX_EXACT_JOINT_DIMS {
            let mut joint_ids = vec![0usize; hypothesis.len()];
            for b in units.iter().map(|u| reference_bin(u, bins)) {
                for (j, &v) in b.iter().enumerate() {
                    joint_ids[j] = joint_ids[j] * bins + v;
                }
            }
            reference_mi_discrete(&joint_ids, &hy)
        } else {
            units
                .iter()
                .map(|u| reference_mi_discrete(&reference_bin(u, bins), &hy))
                .fold(0.0f32, f32::max)
        }
    }

    proptest! {
        #[test]
        fn dense_table_mi_sums_in_ascending_label_order(
            labels in proptest::collection::vec((0usize..9, 0usize..9), 0..200),
            stretch in 0usize..3,
        ) {
            // `stretch` spreads the labels out: dense bin ids, a range just
            // past the sample size, and labels far beyond any table.
            let scale = [1, 40, usize::MAX / 16][stretch];
            let xs: Vec<usize> = labels.iter().map(|p| p.0 * scale).collect();
            let ys: Vec<usize> = labels.iter().map(|p| p.1 * scale).collect();
            let want = reference_mi_discrete(&xs, &ys);
            prop_assert_eq!(mutual_information_discrete(&xs, &ys).to_bits(), want.to_bits());
            prop_assert_eq!(entropy_discrete(&xs).to_bits(), reference_entropy(&xs).to_bits());
        }

        #[test]
        fn binned_mi_equals_the_parent_bodies_in_btreemap_order(
            codes in proptest::collection::vec((0u32..8, 0u32..1000), 0..200),
            profile in 0usize..6,
            zeros in 0u32..2,
            bins in 1usize..10,
            n_units in 1usize..6,
        ) {
            let n = codes.len();
            // Unit columns are rotations of one adversarial sample; the
            // hypothesis is a step function of the position.
            let sample = adversarial_sample(&codes, profile, zeros == 1);
            let units: Vec<Vec<f32>> = (0..n_units)
                .map(|u| (0..n).map(|i| sample[(i + u * 7) % n]).collect())
                .collect();
            let hyp: Vec<f32> = (0..n).map(|i| ((i / 3) % 4) as f32).collect();
            for unit in &units {
                let want = reference_mi_discrete(
                    &reference_bin(unit, bins),
                    &reference_bin(&hyp, bins),
                );
                prop_assert_eq!(mutual_information(unit, &hyp, bins).to_bits(), want.to_bits());
            }
            let refs: Vec<&[f32]> = units.iter().map(|u| u.as_slice()).collect();
            let want = reference_multivariate(&refs, &hyp, bins);
            prop_assert_eq!(multivariate_mi(&refs, &hyp, bins).to_bits(), want.to_bits());
        }
    }

    #[test]
    fn identical_variables_mi_equals_entropy() {
        let xs = vec![0usize, 1, 0, 1, 2, 2, 0, 1];
        let mi = mutual_information_discrete(&xs, &xs);
        let h = entropy_discrete(&xs);
        assert!((mi - h).abs() < 1e-5, "{mi} vs {h}");
    }

    #[test]
    fn independent_variables_mi_near_zero() {
        // x cycles with period 2, y with period 3 over 600 samples: the
        // joint distribution is exactly the product of marginals.
        let xs: Vec<usize> = (0..600).map(|i| i % 2).collect();
        let ys: Vec<usize> = (0..600).map(|i| i % 3).collect();
        assert!(mutual_information_discrete(&xs, &ys) < 1e-5);
    }

    #[test]
    fn mi_is_nonnegative_and_symmetric() {
        let xs = vec![0usize, 0, 1, 1, 2, 0, 1, 2, 2, 1];
        let ys = vec![1usize, 0, 1, 0, 2, 2, 1, 0, 2, 1];
        let a = mutual_information_discrete(&xs, &ys);
        let b = mutual_information_discrete(&ys, &xs);
        assert!(a >= 0.0);
        assert!((a - b).abs() < 1e-6);
    }

    #[test]
    fn continuous_mi_detects_functional_dependence() {
        let xs: Vec<f32> = (0..200).map(|i| (i as f32 * 0.1).sin()).collect();
        let dependent = mutual_information(&xs, &xs.iter().map(|v| v * 3.0).collect::<Vec<_>>(), 8);
        let noise: Vec<f32> = (0..200).map(|i| ((i * 7919) % 100) as f32).collect();
        let independent = mutual_information(&xs, &noise, 8);
        assert!(dependent > independent, "{dependent} vs {independent}");
    }

    #[test]
    fn entropy_uniform_is_log_k() {
        let xs: Vec<usize> = (0..100).map(|i| i % 4).collect();
        assert!((entropy_discrete(&xs) - (4.0f32).ln()).abs() < 1e-4);
    }

    #[test]
    fn entropy_constant_is_zero() {
        assert_eq!(entropy_discrete(&[7usize; 10]), 0.0);
    }

    #[test]
    fn multivariate_joint_beats_single_unit_on_xor() {
        // h = XOR(u1, u2): neither unit alone is informative, together they
        // determine h exactly — the case where joint measures matter
        // (paper: groups of units behaving collectively as a detector).
        let n = 400;
        let u1: Vec<f32> = (0..n).map(|i| (i % 2) as f32).collect();
        let u2: Vec<f32> = (0..n).map(|i| ((i / 2) % 2) as f32).collect();
        let h: Vec<f32> = u1
            .iter()
            .zip(u2.iter())
            .map(|(a, b)| (a + b) % 2.0)
            .collect();
        let single = multivariate_mi(&[&u1], &h, 2);
        let joint = multivariate_mi(&[&u1, &u2], &h, 2);
        assert!(single < 0.01, "single {single}");
        assert!(joint > 0.5, "joint {joint}");
    }

    #[test]
    fn multivariate_falls_back_beyond_exact_dims() {
        let n = 100;
        let units: Vec<Vec<f32>> = (0..5)
            .map(|u| (0..n).map(|i| ((i + u) % 3) as f32).collect())
            .collect();
        let refs: Vec<&[f32]> = units.iter().map(|v| v.as_slice()).collect();
        let h: Vec<f32> = (0..n).map(|i| (i % 3) as f32).collect();
        let score = multivariate_mi(&refs, &h, 3);
        // Must equal max pairwise MI: unit 0 matches h exactly.
        let exact = mutual_information(&units[0], &h, 3);
        assert!((score - exact).abs() < 1e-5);
    }

    #[test]
    fn empty_inputs_yield_zero() {
        assert_eq!(mutual_information_discrete(&[], &[]), 0.0);
        assert_eq!(multivariate_mi(&[], &[], 4), 0.0);
    }
}
