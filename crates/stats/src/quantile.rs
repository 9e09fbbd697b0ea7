//! Quantiles and quantile binning.
//!
//! NetDissect-style measures (paper Appendix E) binarize activations at a
//! top-quantile threshold; mutual information discretizes behaviors into
//! quantile bins. [`quantile`] reads its two order statistics by selection
//! (no full sort) over the few values above a sampled pivot — exact,
//! because everything at or below the pivot sorts first and is only
//! counted; [`quantile_bin`] sorts one copy and takes every boundary from
//! it; [`P2Quantile`] is the streaming estimator for the online pipeline
//! (NaN-blind, like the exact routines). Both exact routines interpolate
//! through the same two private helpers, so a boundary is the same number
//! whichever of them computed it.

use crate::descriptive::above_bits;
use std::cmp::Ordering;

/// `partial_cmp` for NaN-free values (callers filter NaNs out first).
/// Spelled as two comparisons and `#[inline]` because the selection loop
/// lives on it: `partial_cmp(..).expect(..)` here measured 2.6x slower.
#[inline]
fn by_value(a: &f32, b: &f32) -> Ordering {
    if a < b {
        Ordering::Less
    } else if a > b {
        Ordering::Greater
    } else {
        Ordering::Equal
    }
}

/// The order statistics quantile `q` of an `n`-sample interpolates
/// between, `lo <= hi <= lo + 1`, and the weight of the upper one.
fn order_stats(n: usize, q: f32) -> (usize, usize, f32) {
    let pos = q as f64 * (n - 1) as f64;
    let lo = pos.floor() as usize;
    (lo, pos.ceil() as usize, (pos - lo as f64) as f32)
}

/// Linear interpolation between two order statistics (NumPy's default).
fn interpolate(lo: f32, hi: f32, frac: f32) -> f32 {
    lo * (1.0 - frac) + hi * frac
}

/// Exact sample quantile (linear interpolation between order statistics,
/// matching NumPy's default); NaNs are ignored, an empty or all-NaN
/// sample yields NaN.
///
/// The two order statistics are found by selection, which returns the
/// values a full sort would — except that `-0.0` and `+0.0` compare
/// equal, so when the sample holds both, which of them lands on an order
/// statistic is unspecified. The result is then a zero of either sign:
/// equal under `==`, and unobservable to every consumer here, which all
/// compare `v > threshold`.
///
/// The selection runs on a pre-filtered few: a pivot `p` just below the
/// target rank is read off a strided sample of about 1,024
/// values, and one [`above_bits`] pass counts `a` values `> p`. Every
/// value `<= p` sorts before every value `> p`, so when the lower order
/// statistic's rank `lo` is at least `n - a`, both statistics are the
/// candidates' own order statistics `lo - (n - a)` and the one after —
/// the same values, found among 0.5–10% of the sample on the measures'
/// high quantiles. When the rank falls on a tie *at* `p` (at least
/// `n - a` values `<= p`, at most `lo` of them `< p`), the statistic is `p`
/// itself. Only a pivot that landed above the rank falls back to
/// selecting over the whole NaN-free copy.
pub fn quantile(values: &[f32], q: f32) -> f32 {
    quantile_around(values, q, sample_pivot)
}

/// How many values [`quantile`]'s pivot is read from.
const PIVOT_SAMPLE: usize = 1024;

/// [`quantile`] with the pivot chosen by `pivot(values, lo, n)` — the rank
/// of the lower order statistic among the `n` non-NaN values. Any pivot
/// gives the same answer (a NaN one is no pivot); the choice only decides
/// how much is selected.
fn quantile_around(
    values: &[f32],
    q: f32,
    pivot: impl FnOnce(&[f32], usize, usize) -> Option<f32>,
) -> f32 {
    assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
    let n = values.len() - values.iter().filter(|v| v.is_nan()).count();
    if n == 0 {
        return f32::NAN;
    }
    let (lo, hi, frac) = order_stats(n, q);
    pivot(values, lo, n)
        .filter(|p| !p.is_nan())
        .and_then(|p| select_around(values, n, (lo, hi, frac), p))
        .unwrap_or_else(|| {
            let mut scratch: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
            select(&mut scratch, lo, hi, frac)
        })
}

/// Reads order statistics `lo` and `hi` (`hi <= lo + 1`) of `scratch` by
/// selection and interpolates between them.
fn select(scratch: &mut [f32], lo: usize, hi: usize, frac: f32) -> f32 {
    let (_, &mut lo_value, above) = scratch.select_nth_unstable_by(lo, by_value);
    if lo == hi {
        return lo_value;
    }
    // `hi == lo + 1`: the smallest value of the upper partition.
    let hi_value = above.iter().copied().fold(f32::INFINITY, f32::min);
    interpolate(lo_value, hi_value, frac)
}

/// The quantile by way of pivot `p`, or `None` when the rank lies below
/// `p` and `p` cannot answer it (see [`quantile`] for why this is exact).
fn select_around(
    values: &[f32],
    n: usize,
    (lo, hi, frac): (usize, usize, f32),
    p: f32,
) -> Option<f32> {
    let bits = above_bits(values, p);
    let at_most_p = n - bits.iter().map(|w| w.count_ones() as usize).sum::<usize>();
    let candidates = || {
        bits.iter().enumerate().flat_map(|(w, &word)| {
            let mut word = word;
            std::iter::from_fn(move || {
                (word != 0).then(|| {
                    let bit = word.trailing_zeros() as usize;
                    word &= word - 1;
                    values[w * 64 + bit]
                })
            })
        })
    };
    if lo >= at_most_p {
        let mut scratch: Vec<f32> = candidates().collect();
        return Some(select(&mut scratch, lo - at_most_p, hi - at_most_p, frac));
    }
    if values.iter().filter(|&&v| v < p).count() > lo {
        return None;
    }
    // Order statistic `lo` ties at `p`; `hi` does too unless it is the
    // first value above `p`.
    let hi_value = if hi < at_most_p {
        p
    } else {
        candidates().fold(f32::INFINITY, f32::min)
    };
    Some(if lo == hi {
        p
    } else {
        interpolate(p, hi_value, frac)
    })
}

/// A pivot just below rank `lo` of `n`: an order statistic of every
/// `stride`-th value, a few sample ranks under `lo`'s expected place so the
/// true rank lands above it but close. The stride is prime so the sample
/// does not lock onto a period of the data (a stride of 64 read the same
/// pixels of every 256-pixel image). `None` when the sample is all NaN.
fn sample_pivot(values: &[f32], lo: usize, n: usize) -> Option<f32> {
    let mut stride = (values.len() / PIVOT_SAMPLE) | 1;
    while (3..stride)
        .step_by(2)
        .take_while(|d| d * d <= stride)
        .any(|d| stride.is_multiple_of(d))
    {
        stride += 2;
    }
    let mut sample: Vec<f32> = (values.iter().step_by(stride).copied())
        .filter(|v| !v.is_nan())
        .collect();
    let m = sample.len();
    let expected = lo as f64 / n as f64 * m as f64;
    // Three standard deviations of a sample rank, plus one for rounding.
    let slack = 3.0 * (expected * (1.0 - expected / m as f64)).max(0.0).sqrt() + 1.0;
    let k = (expected - slack).max(0.0) as usize;
    (m > 0).then(|| *sample.select_nth_unstable_by(k.min(m - 1), by_value).1)
}

/// Streaming quantile estimator using the P² algorithm (Jain & Chlamtac,
/// 1985): five markers track the running quantile without storing the
/// sample. NetDissect uses an online quantile approximation for exactly
/// this purpose; the paper notes the approximation is one source of its
/// score nondeterminism.
#[derive(Debug, Clone)]
pub struct P2Quantile {
    q: f64,
    /// Marker heights.
    heights: [f64; 5],
    /// Marker positions (1-based counts).
    positions: [f64; 5],
    /// Desired marker positions.
    desired: [f64; 5],
    /// Increments for desired positions.
    increments: [f64; 5],
    /// Initial observations until five samples arrive.
    initial: Vec<f64>,
    count: u64,
}

impl P2Quantile {
    /// Creates an estimator for quantile `q` in `(0, 1)`.
    pub fn new(q: f64) -> Self {
        assert!(
            q > 0.0 && q < 1.0,
            "P2 quantile must be strictly inside (0,1)"
        );
        P2Quantile {
            q,
            heights: [0.0; 5],
            positions: [1.0, 2.0, 3.0, 4.0, 5.0],
            desired: [1.0, 1.0 + 2.0 * q, 1.0 + 4.0 * q, 3.0 + 2.0 * q, 5.0],
            increments: [0.0, q / 2.0, q, (1.0 + q) / 2.0, 1.0],
            initial: Vec::with_capacity(5),
            count: 0,
        }
    }

    /// Feeds one observation. NaN is ignored and not counted, as
    /// [`quantile`] ignores it: it would panic the sort of the first five
    /// and, later, fail every marker comparison and drag the markers.
    pub fn push(&mut self, x: f32) {
        if x.is_nan() {
            return;
        }
        let x = x as f64;
        self.count += 1;
        if self.initial.len() < 5 {
            self.initial.push(x);
            if self.initial.len() == 5 {
                self.initial.sort_by(|a, b| a.partial_cmp(b).unwrap());
                self.heights.copy_from_slice(&self.initial);
            }
            return;
        }

        // Find cell k such that heights[k] <= x < heights[k+1].
        let k = if x < self.heights[0] {
            self.heights[0] = x;
            0
        } else if x >= self.heights[4] {
            self.heights[4] = x;
            3
        } else {
            let mut k = 0;
            for i in 0..4 {
                if self.heights[i] <= x && x < self.heights[i + 1] {
                    k = i;
                    break;
                }
            }
            k
        };

        for p in self.positions.iter_mut().skip(k + 1) {
            *p += 1.0;
        }
        for (d, inc) in self.desired.iter_mut().zip(self.increments.iter()) {
            *d += inc;
        }

        // Adjust interior markers with parabolic (or linear) interpolation.
        for i in 1..4 {
            let d = self.desired[i] - self.positions[i];
            let right_gap = self.positions[i + 1] - self.positions[i];
            let left_gap = self.positions[i - 1] - self.positions[i];
            if (d >= 1.0 && right_gap > 1.0) || (d <= -1.0 && left_gap < -1.0) {
                let sign = d.signum();
                let new_height = self.parabolic(i, sign);
                self.heights[i] =
                    if self.heights[i - 1] < new_height && new_height < self.heights[i + 1] {
                        new_height
                    } else {
                        self.linear(i, sign)
                    };
                self.positions[i] += sign;
            }
        }
    }

    fn parabolic(&self, i: usize, d: f64) -> f64 {
        let (h, p) = (&self.heights, &self.positions);
        h[i] + d / (p[i + 1] - p[i - 1])
            * ((p[i] - p[i - 1] + d) * (h[i + 1] - h[i]) / (p[i + 1] - p[i])
                + (p[i + 1] - p[i] - d) * (h[i] - h[i - 1]) / (p[i] - p[i - 1]))
    }

    fn linear(&self, i: usize, d: f64) -> f64 {
        let j = if d > 0.0 { i + 1 } else { i - 1 };
        self.heights[i]
            + d * (self.heights[j] - self.heights[i]) / (self.positions[j] - self.positions[i])
    }

    /// Current quantile estimate.
    pub fn estimate(&self) -> f32 {
        if self.count == 0 {
            return f32::NAN;
        }
        if self.initial.len() < 5 && self.count < 5 {
            // Fall back to exact quantile over the tiny buffer.
            let vals: Vec<f32> = self.initial.iter().map(|&v| v as f32).collect();
            return quantile(&vals, self.q as f32);
        }
        self.heights[2] as f32
    }
}

/// Assigns each value to one of `bins` quantile bins (0-based). Values equal
/// to a boundary fall into the lower bin; the mapping is monotone. The
/// `bins - 1` boundaries are [`quantile`]'s values at `b / bins`, all read
/// from one sorted copy.
pub fn quantile_bin(values: &[f32], bins: usize) -> Vec<usize> {
    assert!(bins >= 1, "need at least one bin");
    let mut sorted: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
    sorted.sort_by(by_value);
    let boundaries: Vec<f32> = (1..bins)
        .map(|b| {
            if sorted.is_empty() {
                return f32::NAN;
            }
            let (lo, hi, frac) = order_stats(sorted.len(), b as f32 / bins as f32);
            if lo == hi {
                sorted[lo]
            } else {
                interpolate(sorted[lo], sorted[hi], frac)
            }
        })
        .collect();
    values
        .iter()
        .map(|&v| boundaries.iter().take_while(|&&b| v > b).count())
        .collect()
}

/// The parent implementations — a full sort per quantile, `bins - 1`
/// sorts per binning — kept as the references the kernels above are
/// pinned to, bit for bit.
#[cfg(test)]
pub(crate) mod reference {
    pub fn quantile(values: &[f32], q: f32) -> f32 {
        assert!((0.0..=1.0).contains(&q), "quantile out of [0,1]");
        if values.is_empty() {
            return f32::NAN;
        }
        let mut sorted: Vec<f32> = values.iter().copied().filter(|v| !v.is_nan()).collect();
        if sorted.is_empty() {
            return f32::NAN;
        }
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let pos = q as f64 * (sorted.len() - 1) as f64;
        let lo = pos.floor() as usize;
        let hi = pos.ceil() as usize;
        if lo == hi {
            sorted[lo]
        } else {
            let frac = (pos - lo as f64) as f32;
            sorted[lo] * (1.0 - frac) + sorted[hi] * frac
        }
    }

    pub fn quantile_bin(values: &[f32], bins: usize) -> Vec<usize> {
        assert!(bins >= 1, "need at least one bin");
        if values.is_empty() {
            return Vec::new();
        }
        let mut boundaries = Vec::with_capacity(bins - 1);
        for b in 1..bins {
            boundaries.push(quantile(values, b as f32 / bins as f32));
        }
        values
            .iter()
            .map(|&v| boundaries.iter().take_while(|&&b| v > b).count())
            .collect()
    }
}

/// Adversarial samples for the parity proptests of this crate: each
/// element is a `(kind, raw)` code, and `profile` picks which kinds a
/// sample may hold — all-equal, heavy ties, NaNs mixed in, ±1e30,
/// denormals, or everything at once. Signed zeros only with `zeros`.
#[cfg(test)]
pub(crate) fn adversarial_sample(codes: &[(u32, u32)], profile: usize, zeros: bool) -> Vec<f32> {
    codes
        .iter()
        .map(|&(kind, raw)| {
            let spread = raw as f32 / 7.0 - 70.0;
            let tie = (raw % 4) as f32 + 1.0;
            let value = match (profile % 6, kind % 8) {
                (0, _) => 3.5,
                (1, _) => tie,
                (2, 0..=2) => f32::NAN,
                (3, 0) => 1e30,
                (3, 1) => -1e30,
                (4, 0..=3) => f32::from_bits(raw + 1),
                (4, 4) => -f32::from_bits(raw + 1),
                (5, 0) => f32::NAN,
                (5, 1) => 1e30,
                (5, 2) => -1e30,
                (5, 3) => f32::from_bits(raw + 1),
                (5, 4 | 5) => tie,
                _ => spread,
            };
            match (zeros, kind % 8) {
                (true, 6) => 0.0,
                (true, 7) => -0.0,
                _ => value,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn codes(len: std::ops::Range<usize>) -> impl Strategy<Value = Vec<(u32, u32)>> {
        proptest::collection::vec((0u32..8, 0u32..1000), len)
    }

    /// The quantiles the measures use, the extremes, and a random one.
    fn quantiles(random: f32) -> [f32; 6] {
        [0.0, 0.5, 0.95, 0.995, 1.0, random]
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        #[test]
        fn selection_quantile_is_the_sorted_quantile_bit_for_bit(
            codes in codes(1..300), profile in 0usize..6, q in 0.0f32..=1.0,
        ) {
            let sample = adversarial_sample(&codes, profile, false);
            for q in quantiles(q) {
                let (got, want) = (quantile(&sample, q), reference::quantile(&sample, q));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "q {} of {:?}", q, sample);
            }
        }

        #[test]
        fn selection_quantile_with_signed_zeros_is_equal_under_eq(
            codes in codes(1..300), profile in 0usize..6, q in 0.0f32..=1.0,
        ) {
            let sample = adversarial_sample(&codes, profile, true);
            for q in quantiles(q) {
                let (got, want) = (quantile(&sample, q), reference::quantile(&sample, q));
                prop_assert!(
                    got == want || (got.is_nan() && want.is_nan()),
                    "q {}: {} vs {} of {:?}", q, got, want, sample
                );
            }
        }

        #[test]
        fn any_pivot_gives_the_sorted_quantile_bit_for_bit(
            codes in codes(1..300), profile in 0usize..6, q in 0.0f32..=1.0, pick in 0usize..1000,
        ) {
            // The pivot a sample would never pick — any value of the data,
            // or one above all of it — changes only how much is selected.
            let sample = adversarial_sample(&codes, profile, false);
            let pivot = sample.get(pick).copied().unwrap_or(f32::INFINITY);
            for q in quantiles(q) {
                let got = quantile_around(&sample, q, |_, _, _| Some(pivot));
                let want = reference::quantile(&sample, q);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "q {} pivot {}", q, pivot);
            }
        }
    }

    proptest! {
        // Each case sorts up to 70,000 values six times in the reference;
        // few cases keep the debug workspace suite quick.
        #![proptest_config(ProptestConfig::with_cases(6))]

        #[test]
        fn selection_quantile_of_large_samples_is_the_sorted_quantile_bit_for_bit(
            codes in codes(4096..70_000), profile in 0usize..6, q in 0.0f32..=1.0,
        ) {
            let sample = adversarial_sample(&codes, profile, false);
            for q in [0.5, 0.9, 0.95, 0.995, 1.0, q] {
                let (got, want) = (quantile(&sample, q), reference::quantile(&sample, q));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "q {} of {} values", q, sample.len());
            }
        }

        #[test]
        fn selection_quantile_of_relu_samples_is_the_sorted_quantile_bit_for_bit(
            len in 4096usize..70_000, zero_permille in 600usize..996, seed in 1u64..1000,
            q in 0.0f32..=1.0,
        ) {
            let sample = relu_sample(len, zero_permille, seed);
            for q in [0.5, 0.9, 0.95, 0.995, 1.0, q] {
                let (got, want) = (quantile(&sample, q), reference::quantile(&sample, q));
                prop_assert_eq!(got.to_bits(), want.to_bits(), "q {} of {} values", q, len);
            }
        }
    }

    /// A post-ReLU activation profile: `zero_permille`‰ exact `+0.0`,
    /// scattered (every rank below the zero share lands on the zero tie),
    /// and the rest positive, with ties of their own.
    fn relu_sample(len: usize, zero_permille: usize, seed: u64) -> Vec<f32> {
        let mut x = seed;
        (0..len)
            .map(|_| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let r = (x >> 33) as usize;
                if r % 1000 < zero_permille {
                    0.0
                } else {
                    (r % 5000) as f32 / 997.0
                }
            })
            .collect()
    }

    #[test]
    fn a_pivot_above_the_rank_falls_back_to_the_whole_selection() {
        let sample = relu_sample(10_000, 900, 7);
        let max = sample.iter().copied().fold(f32::NEG_INFINITY, f32::max);
        let n = sample.len();
        for q in [0.5, 0.95] {
            let stats = order_stats(n, q);
            assert_eq!(select_around(&sample, n, stats, max), None, "q {q}");
            let got = quantile_around(&sample, q, |_, _, _| Some(max));
            assert_eq!(got.to_bits(), reference::quantile(&sample, q).to_bits());
        }
        // The rank on the zero tie is answered by the pivot itself.
        assert_eq!(
            select_around(&sample, n, order_stats(n, 0.5), 0.0),
            Some(0.0)
        );
        // The sampled pivot lands below the rank or on its tie, not above.
        for q in [0.5, 0.9, 0.95, 0.995, 1.0] {
            let (lo, hi, frac) = order_stats(n, q);
            let pivot = sample_pivot(&sample, lo, n).expect("finite sample");
            assert!(
                select_around(&sample, n, (lo, hi, frac), pivot).is_some(),
                "q {q}"
            );
        }
    }

    proptest! {
        #[test]
        fn one_sort_binning_assigns_the_bins_of_a_sort_per_boundary(
            codes in codes(0..300), profile in 0usize..6, zeros in 0u32..2, bins in 1usize..10,
        ) {
            let sample = adversarial_sample(&codes, profile, zeros == 1);
            prop_assert_eq!(quantile_bin(&sample, bins), reference::quantile_bin(&sample, bins));
        }
    }

    #[test]
    fn exact_quantile_median_of_odd() {
        let vals = [5.0f32, 1.0, 3.0];
        assert_eq!(quantile(&vals, 0.5), 3.0);
    }

    #[test]
    fn exact_quantile_interpolates() {
        let vals = [0.0f32, 10.0];
        assert!((quantile(&vals, 0.25) - 2.5).abs() < 1e-6);
    }

    #[test]
    fn exact_quantile_extremes() {
        let vals = [2.0f32, 9.0, 4.0, 7.0];
        assert_eq!(quantile(&vals, 0.0), 2.0);
        assert_eq!(quantile(&vals, 1.0), 9.0);
    }

    #[test]
    fn exact_quantile_empty_is_nan() {
        assert!(quantile(&[], 0.5).is_nan());
    }

    #[test]
    fn p2_tracks_median_of_uniform_stream() {
        let mut est = P2Quantile::new(0.5);
        // Deterministic pseudo-uniform stream.
        let mut x = 123456789u64;
        let mut all = Vec::new();
        for _ in 0..5000 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = ((x >> 33) as f32) / (u32::MAX >> 1) as f32;
            est.push(v);
            all.push(v);
        }
        let exact = quantile(&all, 0.5);
        assert!(
            (est.estimate() - exact).abs() < 0.02,
            "{} vs {}",
            est.estimate(),
            exact
        );
    }

    #[test]
    fn p2_tracks_high_quantile() {
        let mut est = P2Quantile::new(0.99);
        let mut all = Vec::new();
        for i in 0..10000 {
            let v = ((i * 7919) % 10000) as f32 / 10000.0;
            est.push(v);
            all.push(v);
        }
        let exact = quantile(&all, 0.99);
        assert!(
            (est.estimate() - exact).abs() < 0.03,
            "{} vs {}",
            est.estimate(),
            exact
        );
    }

    #[test]
    fn p2_ignores_a_nan_among_the_first_five() {
        let mut est = P2Quantile::new(0.5);
        for v in [1.0, f32::NAN, 2.0, 3.0, 4.0, 5.0] {
            est.push(v);
        }
        assert_eq!(est.count, 5);
        assert_eq!(est.estimate(), 3.0);
    }

    #[test]
    fn p2_ignores_nans_after_the_first_five() {
        let mut est = P2Quantile::new(0.5);
        for v in 1..=5 {
            est.push(v as f32);
        }
        for _ in 0..100 {
            est.push(f32::NAN);
        }
        assert_eq!(est.count, 5);
        assert_eq!(est.estimate(), 3.0);
    }

    #[test]
    fn p2_estimates_of_a_finite_stream_keep_their_bits() {
        // Taken on the parent of the NaN fix, debug and release.
        let mut x = 123456789u64;
        let stream: Vec<f32> = (0..5000)
            .map(|i| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let v = ((x >> 33) as f32) / (u32::MAX >> 1) as f32;
                if i % 7 == 0 {
                    0.25
                } else {
                    v * 10.0 - 2.0
                }
            })
            .collect();
        let estimate = |q: f64, take: usize| {
            let mut est = P2Quantile::new(q);
            stream[..take].iter().for_each(|&v| est.push(v));
            est.estimate().to_bits()
        };
        let bits = [0.05, 0.5, 0.9, 0.995].map(|q| estimate(q, stream.len()));
        assert_eq!(bits, [0xbfb0f2fc, 0x400eee34, 0x40da9146, 0x40fe7bed]);
        assert_eq!(estimate(0.3, 3), 0x40669f4b);
    }

    #[test]
    fn p2_small_sample_falls_back_to_exact() {
        let mut est = P2Quantile::new(0.5);
        est.push(10.0);
        est.push(20.0);
        assert!((est.estimate() - 15.0).abs() < 1e-5);
    }

    #[test]
    fn quantile_bins_are_balanced() {
        let vals: Vec<f32> = (0..100).map(|i| i as f32).collect();
        let bins = quantile_bin(&vals, 4);
        let mut counts = [0usize; 4];
        for &b in &bins {
            counts[b] += 1;
        }
        for &c in &counts {
            assert!((20..=30).contains(&c), "{counts:?}");
        }
    }

    #[test]
    fn quantile_bins_monotone() {
        let vals = [5.0f32, 1.0, 9.0, 3.0, 7.0];
        let bins = quantile_bin(&vals, 3);
        // Larger value never gets a smaller bin.
        for i in 0..vals.len() {
            for j in 0..vals.len() {
                if vals[i] < vals[j] {
                    assert!(bins[i] <= bins[j]);
                }
            }
        }
    }

    #[test]
    fn single_bin_puts_everything_in_zero() {
        let bins = quantile_bin(&[1.0, 2.0, 3.0], 1);
        assert_eq!(bins, vec![0, 0, 0]);
    }
}
