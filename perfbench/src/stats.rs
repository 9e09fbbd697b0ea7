//! Order statistics for benchmark samples: medians, nearest-rank
//! percentiles, the "at least ten samples beyond" rule that decides which
//! percentile a sample count can carry, and the band overlap `bench diff`
//! uses to tell a shift from noise.

/// Samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: usize = 10;

/// Distribution summary of one metric's samples, as written to result
/// files.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub p10: f64,
    pub p90: f64,
    pub min: f64,
    pub samples: usize,
}

/// Sorts ascending; NaN never occurs in timings, so total order holds.
fn sorted(values: &[f64]) -> Vec<f64> {
    let mut v = values.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).expect("benchmark samples are never NaN"));
    v
}

/// Median (mean of the two middle values for an even count); 0 for no
/// samples, so a metric that does not apply to a workload reads 0.
pub fn median(values: &[f64]) -> f64 {
    let v = sorted(values);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// 1-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n.max(1))
}

/// Nearest-rank percentile (`q` in 0..=1); 0 for no samples.
pub fn percentile(values: &[f64], q: f64) -> f64 {
    let v = sorted(values);
    if v.is_empty() {
        return 0.0;
    }
    v[rank(v.len(), q) - 1]
}

/// How many of `n` samples lie strictly beyond the `q` percentile's rank.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The highest of p99.9 / p99 / p90 that `n` samples can carry: the one
/// with at least [`MIN_BEYOND`] samples beyond it. `None` below 100
/// samples, where only the median is reported.
pub fn highest_percentile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.9]
        .into_iter()
        .find(|&q| samples_beyond(n, q) >= MIN_BEYOND)
}

pub fn summarize(values: &[f64]) -> Summary {
    Summary {
        median: median(values),
        p10: percentile(values, 0.1),
        p90: percentile(values, 0.9),
        min: sorted(values).first().copied().unwrap_or(0.0),
        samples: values.len(),
    }
}

/// Length of the intersection of two closed bands, as a share of `base`
/// (0 when they are disjoint or `base` is 0).
pub fn band_overlap(a: (f64, f64), b: (f64, f64), base: f64) -> f64 {
    let len = a.1.min(b.1) - a.0.max(b.0);
    if len <= 0.0 || base == 0.0 {
        0.0
    } else {
        len / base.abs()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn percentile_choice_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(100, 0.9), 10);
        assert_eq!(samples_beyond(99, 0.9), 9);
        assert_eq!(highest_percentile(99), None);
        assert_eq!(highest_percentile(100), Some(0.9));
        assert_eq!(highest_percentile(999), Some(0.9));
        assert_eq!(highest_percentile(1000), Some(0.99));
        assert_eq!(highest_percentile(10_000), Some(0.999));
    }

    #[test]
    fn summary_fields() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let s = summarize(&v);
        assert_eq!(
            (s.median, s.p10, s.p90, s.min, s.samples),
            (5.5, 1.0, 9.0, 1.0, 10)
        );
    }

    #[test]
    fn band_overlap_is_relative_to_base() {
        assert_eq!(band_overlap((1.0, 2.0), (3.0, 4.0), 2.0), 0.0);
        assert_eq!(band_overlap((1.0, 3.0), (2.0, 4.0), 2.0), 0.5);
        assert_eq!(band_overlap((1.0, 4.0), (2.0, 3.0), 2.0), 0.5);
        assert_eq!(band_overlap((1.0, 3.0), (2.0, 4.0), 0.0), 0.0);
    }
}
