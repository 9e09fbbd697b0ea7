//! The logistic sigmoid, the row-wise softmax and the cross-entropy loss
//! used by the NN substrate and the logistic-regression probes.

use crate::Matrix;

/// Numerically-stable logistic sigmoid.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    if x >= 0.0 {
        let z = (-x).exp();
        1.0 / (1.0 + z)
    } else {
        let z = x.exp();
        z / (1.0 + z)
    }
}

/// Row-wise softmax with max-subtraction for numerical stability.
pub fn softmax_rows(m: &Matrix) -> Matrix {
    let mut out = m.clone();
    for r in 0..out.rows() {
        softmax_slice(out.row_mut(r));
    }
    out
}

/// In-place softmax over a single slice.
pub fn softmax_slice(row: &mut [f32]) {
    if row.is_empty() {
        return;
    }
    let max = row.iter().copied().fold(f32::NEG_INFINITY, f32::max);
    let mut sum = 0.0f32;
    for v in row.iter_mut() {
        *v = (*v - max).exp();
        sum += *v;
    }
    if sum > 0.0 {
        for v in row.iter_mut() {
            *v /= sum;
        }
    }
}

/// Cross-entropy loss of row-wise softmax probabilities against integer
/// class targets; returns the mean negative log-likelihood.
pub fn cross_entropy_rows(probs: &Matrix, targets: &[usize]) -> f32 {
    assert_eq!(probs.rows(), targets.len(), "cross_entropy target count");
    let mut total = 0.0f32;
    for (r, &t) in targets.iter().enumerate() {
        let p = probs.get(r, t).max(1e-12);
        total -= p.ln();
    }
    total / targets.len().max(1) as f32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sigmoid_bounds_and_midpoint() {
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-6);
        assert!(sigmoid(30.0) > 0.999);
        assert!(sigmoid(-30.0) < 0.001);
        // Extreme inputs should not produce NaN.
        assert!(!sigmoid(1e10).is_nan());
        assert!(!sigmoid(-1e10).is_nan());
    }

    #[test]
    fn softmax_rows_sum_to_one() {
        let m = Matrix::from_vec(2, 3, vec![1.0, 2.0, 3.0, -1.0, 0.0, 1.0]).unwrap();
        let s = softmax_rows(&m);
        for r in 0..2 {
            let sum: f32 = s.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        // Largest logit keeps largest probability.
        assert_eq!(s.argmax_rows(), vec![2, 2]);
    }

    #[test]
    fn softmax_stable_for_large_logits() {
        let m = Matrix::from_vec(1, 3, vec![1000.0, 1001.0, 1002.0]).unwrap();
        let s = softmax_rows(&m);
        assert!(s.as_slice().iter().all(|v| v.is_finite()));
        let sum: f32 = s.row(0).iter().sum();
        assert!((sum - 1.0).abs() < 1e-5);
    }

    #[test]
    fn softmax_shift_invariance() {
        let a = Matrix::from_vec(1, 4, vec![0.1, 0.2, 0.3, 0.4]).unwrap();
        let b = a.map(|x| x + 5.0);
        assert!(softmax_rows(&a).approx_eq(&softmax_rows(&b), 1e-5));
    }

    #[test]
    fn cross_entropy_perfect_prediction_near_zero() {
        let probs = Matrix::from_vec(1, 2, vec![1.0, 0.0]).unwrap();
        assert!(cross_entropy_rows(&probs, &[0]) < 1e-6);
    }

    #[test]
    fn cross_entropy_uniform_is_log_k() {
        let probs = Matrix::from_vec(1, 4, vec![0.25; 4]).unwrap();
        let loss = cross_entropy_rows(&probs, &[2]);
        assert!((loss - (4.0f32).ln()).abs() < 1e-5);
    }
}
