//! Descriptive statistics, Jaccard/IoU, difference of means, and the
//! silhouette score used by DeepBase's verification procedure (§4.4).
//!
//! Jaccard is one bitset count, [`jaccard_bits`], over sets [`above_bits`]
//! packs: a caller scoring one unit against many hypothesis masks
//! thresholds the unit once and each mask once, then counts every pair
//! with popcounts. The counts are the integers a float loop over `x > t`
//! and `y > 0.5` would reach, so the ratio is the same `f32` division.

/// Mean of a slice (0 when empty).
pub(crate) fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Unbiased sample variance (0 when fewer than two values).
pub(crate) fn variance(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64
}

/// Difference-of-means affinity (paper §4.3): mean behavior where the
/// binary hypothesis is active minus mean where inactive, normalized by the
/// pooled standard deviation (Cohen's d-style, so scores are comparable
/// across units with different activation scales). Returns 0 when either
/// class is empty or behaviors are constant.
///
/// Means and variances accumulate in `f64`: two `f32` means summed over
/// different counts can round apart and give a constant unit a large
/// score.
pub fn difference_of_means(behavior: &[f32], hypothesis: &[f32]) -> f32 {
    assert_eq!(behavior.len(), hypothesis.len(), "length mismatch");
    let mut on = Vec::new();
    let mut off = Vec::new();
    for (&b, &h) in behavior.iter().zip(hypothesis.iter()) {
        if h > 0.5 {
            on.push(b as f64);
        } else {
            off.push(b as f64);
        }
    }
    if on.is_empty() || off.is_empty() {
        return 0.0;
    }
    let pooled = ((variance(&on) * (on.len() - 1).max(1) as f64
        + variance(&off) * (off.len() - 1).max(1) as f64)
        / (on.len() + off.len()).saturating_sub(2).max(1) as f64)
        .sqrt();
    if pooled <= 1e-12 {
        return 0.0;
    }
    ((mean(&on) - mean(&off)) / pooled) as f32
}

/// The set `{i : values[i] > threshold}` as a bitset: bit `i % 64` of word
/// `i / 64`, bits past the end clear. NaN never sets a bit, and a NaN
/// threshold (the quantile of an empty sample) sets none.
///
/// Each 64-value chunk is compared into a byte array first — a loop the
/// compiler vectorises on the baseline target — and packed eight bytes
/// per multiply after; setting `word |= bit << i` per value did not
/// vectorise and measured 3x slower.
pub fn above_bits(values: &[f32], threshold: f32) -> Vec<u64> {
    /// Moves byte `k`'s low bit of a little-endian word to bit `56 + k`:
    /// every partial product lands on its own bit, so nothing carries.
    const GATHER: u64 = 0x0102_0408_1020_4080;
    values
        .chunks(64)
        .map(|chunk| {
            let mut on = [0u8; 64];
            for (o, &v) in on.iter_mut().zip(chunk) {
                *o = u8::from(v > threshold);
            }
            on.chunks_exact(8)
                .enumerate()
                .fold(0u64, |word, (k, eight)| {
                    let bytes = u64::from_le_bytes(eight.try_into().expect("8 bytes"));
                    word | (bytes.wrapping_mul(GATHER) >> 56) << (8 * k)
                })
        })
        .collect()
}

/// Jaccard coefficient of two bitsets of one length:
/// `Σ popcount(a & b) / Σ popcount(a | b)`, 0 when both are empty. The one
/// Jaccard count of this crate.
pub fn jaccard_bits(a: &[u64], b: &[u64]) -> f32 {
    assert_eq!(a.len(), b.len(), "length mismatch");
    let (mut inter, mut union) = (0usize, 0usize);
    for (&x, &y) in a.iter().zip(b) {
        inter += (x & y).count_ones() as usize;
        union += (x | y).count_ones() as usize;
    }
    if union == 0 {
        0.0
    } else {
        inter as f32 / union as f32
    }
}

/// Jaccard coefficient (intersection over union) between `behavior`
/// binarized at `> threshold` and a binary mask (on where `> 0.5`) —
/// NetDissect's IoU (paper Appendix E): [`jaccard_bits`] of the two
/// [`above_bits`] sets. [`jaccard`] and [`jaccard_at_quantile`] only choose
/// the threshold.
pub(crate) fn jaccard_above(behavior: &[f32], mask: &[f32], threshold: f32) -> f32 {
    assert_eq!(behavior.len(), mask.len(), "length mismatch");
    jaccard_bits(&above_bits(behavior, threshold), &above_bits(mask, 0.5))
}

/// Jaccard coefficient between two binary masks (on where `> 0.5`).
pub fn jaccard(a: &[f32], b: &[f32]) -> f32 {
    jaccard_above(a, b, 0.5)
}

/// Jaccard between a continuous behavior thresholded at its top-`q`
/// quantile and a binary hypothesis mask — the full NetDissect scoring rule.
pub fn jaccard_at_quantile(behavior: &[f32], hypothesis_mask: &[f32], top_quantile: f32) -> f32 {
    let threshold = crate::quantile::quantile(behavior, top_quantile);
    jaccard_above(behavior, hypothesis_mask, threshold)
}

/// Mean silhouette score of points under integer cluster labels, with
/// Euclidean distance (Rousseeuw 1987; the verification statistic of §4.4).
///
/// Points are rows of `points` (all the same dimension). Returns 0 when
/// there are fewer than two clusters or fewer than three points.
pub fn silhouette_score(points: &[Vec<f32>], labels: &[usize]) -> f32 {
    assert_eq!(points.len(), labels.len(), "label count mismatch");
    let n = points.len();
    if n < 3 {
        return 0.0;
    }
    let distinct: std::collections::BTreeSet<usize> = labels.iter().copied().collect();
    if distinct.len() < 2 {
        return 0.0;
    }

    let dist = |a: &[f32], b: &[f32]| -> f32 {
        a.iter()
            .zip(b.iter())
            .map(|(x, y)| (x - y).powi(2))
            .sum::<f32>()
            .sqrt()
    };

    let mut total = 0.0f32;
    let mut counted = 0usize;
    for i in 0..n {
        // Mean intra-cluster distance a(i) and per-other-cluster means.
        let mut intra_sum = 0.0f32;
        let mut intra_count = 0usize;
        let mut inter: std::collections::BTreeMap<usize, (f32, usize)> = Default::default();
        for j in 0..n {
            if i == j {
                continue;
            }
            let d = dist(&points[i], &points[j]);
            if labels[j] == labels[i] {
                intra_sum += d;
                intra_count += 1;
            } else {
                let e = inter.entry(labels[j]).or_insert((0.0, 0));
                e.0 += d;
                e.1 += 1;
            }
        }
        if intra_count == 0 || inter.is_empty() {
            continue; // Singleton clusters contribute 0 by convention.
        }
        let a = intra_sum / intra_count as f32;
        let b = inter
            .values()
            .map(|&(s, c)| s / c as f32)
            .fold(f32::INFINITY, f32::min);
        let s = if a.max(b) > 0.0 {
            (b - a) / a.max(b)
        } else {
            0.0
        };
        total += s;
        counted += 1;
    }
    if counted == 0 {
        0.0
    } else {
        total / counted as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mean_and_variance_known_values() {
        let xs = [2.0f64, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        assert!((mean(&xs) - 5.0).abs() < 1e-6);
        assert!((variance(&xs) - 32.0 / 7.0).abs() < 1e-4);
    }

    #[test]
    fn variance_of_single_value_is_zero() {
        assert_eq!(variance(&[3.0]), 0.0);
        assert_eq!(variance(&[]), 0.0);
    }

    #[test]
    fn diff_of_means_detects_separated_classes() {
        let behavior = [1.0f32, 1.1, 0.9, 5.0, 5.1, 4.9];
        let hypothesis = [0.0f32, 0.0, 0.0, 1.0, 1.0, 1.0];
        let d = difference_of_means(&behavior, &hypothesis);
        assert!(d > 5.0, "expected large effect size, got {d}");
    }

    #[test]
    fn diff_of_means_zero_when_identical_distributions() {
        let behavior = [1.0f32, 2.0, 1.0, 2.0];
        let hypothesis = [0.0f32, 0.0, 1.0, 1.0];
        assert!(difference_of_means(&behavior, &hypothesis).abs() < 1e-5);
    }

    #[test]
    fn diff_of_means_degenerate_class_is_zero() {
        let behavior = [1.0f32, 2.0, 3.0];
        assert_eq!(difference_of_means(&behavior, &[1.0, 1.0, 1.0]), 0.0);
        assert_eq!(difference_of_means(&behavior, &[0.0, 0.0, 0.0]), 0.0);
        // A constant unit scores 0 whatever the two class sizes (two
        // `f32` means over n and n + 3 rows round apart: 1.36 at n = 32).
        for n in [32, 64, 128] {
            let behavior = vec![0.99999994f32; 2 * n + 3];
            let hypothesis: Vec<f32> = (0..2 * n + 3).map(|i| (i < n) as u8 as f32).collect();
            assert_eq!(difference_of_means(&behavior, &hypothesis), 0.0, "n = {n}");
        }
    }

    #[test]
    fn jaccard_bounds_and_known_values() {
        assert_eq!(jaccard(&[1.0, 1.0, 0.0], &[1.0, 1.0, 0.0]), 1.0);
        assert_eq!(jaccard(&[1.0, 0.0, 0.0], &[0.0, 1.0, 0.0]), 0.0);
        let j = jaccard(&[1.0, 1.0, 0.0, 0.0], &[1.0, 0.0, 1.0, 0.0]);
        assert!((j - 1.0 / 3.0).abs() < 1e-6);
    }

    #[test]
    fn jaccard_empty_masks_is_zero() {
        assert_eq!(jaccard(&[0.0; 4], &[0.0; 4]), 0.0);
    }

    #[test]
    fn jaccard_at_quantile_matches_manual_threshold() {
        let behavior = [0.1f32, 0.2, 0.9, 0.95, 0.3, 0.05];
        let mask = [0.0f32, 0.0, 1.0, 1.0, 0.0, 0.0];
        // Top ~1/3 of activations are exactly the two masked positions.
        let j = jaccard_at_quantile(&behavior, &mask, 0.66);
        assert!(j > 0.99, "expected ~1.0, got {j}");
    }

    /// The parent's one counting loop over floats.
    fn reference_jaccard_above(behavior: &[f32], mask: &[f32], threshold: f32) -> f32 {
        let (mut inter, mut union) = (0usize, 0usize);
        for (&x, &y) in behavior.iter().zip(mask) {
            let (bx, by) = (x > threshold, y > 0.5);
            inter += usize::from(bx && by);
            union += usize::from(bx || by);
        }
        if union == 0 {
            0.0
        } else {
            inter as f32 / union as f32
        }
    }

    /// The older scoring rule: sorted quantile, binarized copy, mask
    /// Jaccard over the two.
    fn reference_jaccard_at_quantile(behavior: &[f32], mask: &[f32], q: f32) -> f32 {
        let thresh = crate::quantile::reference::quantile(behavior, q);
        let binarized: Vec<f32> = behavior
            .iter()
            .map(|&v| if v > thresh { 1.0 } else { 0.0 })
            .collect();
        reference_jaccard_above(&binarized, mask, 0.5)
    }

    #[test]
    fn bitset_jaccard_is_the_float_count_at_word_boundaries() {
        for len in [0, 1, 63, 64, 65, 127, 1000] {
            let behavior: Vec<f32> = (0..len)
                .map(|i| match i % 11 {
                    0 => f32::NAN,
                    1 => 0.5,
                    k => (k as f32 - 5.0) * 0.25,
                })
                .collect();
            let mask: Vec<f32> = (0..len)
                .map(|i| [1.0, 0.0, 0.5, 0.6, f32::NAN, 0.49, 1.0][i * 5 % 7])
                .collect();
            for t in [-1.0, 0.0, 0.5, 0.75, f32::NAN, f32::INFINITY] {
                let bits = above_bits(&behavior, t);
                assert_eq!(bits.len(), len.div_ceil(64));
                for i in 0..bits.len() * 64 {
                    let on = i < len && behavior[i] > t;
                    assert_eq!((bits[i / 64] >> (i % 64)) & 1 == 1, on, "len {len} bit {i}");
                }
                let want = reference_jaccard_above(&behavior, &mask, t);
                let got = jaccard_bits(&bits, &above_bits(&mask, 0.5));
                assert_eq!(got.to_bits(), want.to_bits(), "len {len} t {t}");
                assert_eq!(jaccard_above(&behavior, &mask, t).to_bits(), want.to_bits());
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn threshold_jaccard_is_the_binarized_jaccard_bit_for_bit(
            codes in proptest::collection::vec((0u32..8, 0u32..1000), 0..300),
            profile in 0usize..6,
            zeros in 0u32..2,
            q in 0.0f32..=1.0,
            mask_seed in 1usize..50,
            t in -80.0f32..80.0,
        ) {
            let behavior = crate::quantile::adversarial_sample(&codes, profile, zeros == 1);
            // Masks with soft values on either side of 0.5, and NaNs.
            let mask: Vec<f32> = (0..behavior.len())
                .map(|i| match (i * mask_seed) % 7 {
                    0 | 1 => 1.0,
                    2 => 0.6,
                    3 => 0.5,
                    4 => f32::NAN,
                    _ => 0.0,
                })
                .collect();
            for q in [0.5, 0.95, 0.995, q] {
                let want = reference_jaccard_at_quantile(&behavior, &mask, q);
                let got = jaccard_at_quantile(&behavior, &mask, q);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "q {}", q);
            }
            // Thresholds no quantile picks: signed zeros, NaN, anywhere.
            for t in [t, 0.0, -0.0, 0.5, f32::NAN] {
                let want = reference_jaccard_above(&behavior, &mask, t);
                let got = jaccard_above(&behavior, &mask, t);
                proptest::prop_assert_eq!(got.to_bits(), want.to_bits(), "t {}", t);
            }
        }
    }

    #[test]
    fn silhouette_well_separated_clusters_near_one() {
        let mut points = Vec::new();
        let mut labels = Vec::new();
        for i in 0..10 {
            points.push(vec![0.0 + 0.01 * i as f32, 0.0]);
            labels.push(0);
            points.push(vec![10.0 + 0.01 * i as f32, 10.0]);
            labels.push(1);
        }
        assert!(silhouette_score(&points, &labels) > 0.9);
    }

    #[test]
    fn silhouette_mixed_clusters_near_zero() {
        // Interleave the two labels over the same point cloud.
        let points: Vec<Vec<f32>> = (0..40)
            .map(|i| vec![(i % 7) as f32, (i % 5) as f32])
            .collect();
        let labels: Vec<usize> = (0..40).map(|i| i % 2).collect();
        let s = silhouette_score(&points, &labels);
        assert!(s.abs() < 0.3, "expected near-zero separation, got {s}");
    }

    #[test]
    fn silhouette_bounds() {
        let points: Vec<Vec<f32>> = (0..20).map(|i| vec![i as f32]).collect();
        let labels: Vec<usize> = (0..20).map(|i| i / 10).collect();
        let s = silhouette_score(&points, &labels);
        assert!((-1.0..=1.0).contains(&s));
    }

    #[test]
    fn silhouette_single_cluster_is_zero() {
        let points: Vec<Vec<f32>> = (0..5).map(|i| vec![i as f32]).collect();
        assert_eq!(silhouette_score(&points, &[0; 5]), 0.0);
    }
}
