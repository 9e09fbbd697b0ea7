//! Random weight initializers.
//!
//! These mirror the defaults Keras applies to the layers the paper's models
//! use: Glorot-uniform for dense/input projections and orthogonal-ish
//! scaled-normal for recurrent kernels (we use scaled normal, which is
//! sufficient for the model scales in this reproduction).

use crate::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// Deterministic RNG for reproducible experiments. Every harness and test in
/// this repository seeds explicitly; nothing uses entropy from the OS.
pub fn seeded_rng(seed: u64) -> StdRng {
    StdRng::seed_from_u64(seed)
}

/// Uniform values in `[lo, hi)`.
pub fn uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| rng.gen_range(lo..hi))
}

/// Glorot/Xavier uniform: `U(-l, l)` with `l = sqrt(6 / (fan_in + fan_out))`.
pub fn glorot_uniform(fan_in: usize, fan_out: usize, rng: &mut impl Rng) -> Matrix {
    let limit = (6.0f32 / (fan_in + fan_out).max(1) as f32).sqrt();
    uniform(fan_in, fan_out, -limit, limit, rng)
}

/// Zero-mean normal values with the given standard deviation
/// (Box–Muller; avoids a distribution-crate dependency).
pub fn normal(rows: usize, cols: usize, std_dev: f32, rng: &mut impl Rng) -> Matrix {
    Matrix::from_fn(rows, cols, |_, _| {
        let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
        let u2: f32 = rng.gen_range(0.0..1.0);
        std_dev * (-2.0 * u1.ln()).sqrt() * (2.0 * std::f32::consts::PI * u2).cos()
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_rng_is_deterministic() {
        let mut a = seeded_rng(42);
        let mut b = seeded_rng(42);
        let ma = uniform(3, 3, -1.0, 1.0, &mut a);
        let mb = uniform(3, 3, -1.0, 1.0, &mut b);
        assert_eq!(ma, mb);
    }

    #[test]
    fn uniform_respects_bounds() {
        let mut rng = seeded_rng(1);
        let m = uniform(20, 20, -0.5, 0.5, &mut rng);
        assert!(m.as_slice().iter().all(|&v| (-0.5..0.5).contains(&v)));
    }

    #[test]
    fn glorot_limit_shrinks_with_fan() {
        let mut rng = seeded_rng(2);
        let small_fan = glorot_uniform(4, 4, &mut rng);
        let big_fan = glorot_uniform(400, 400, &mut rng);
        let max_abs = |m: &Matrix| m.as_slice().iter().fold(0.0f32, |a, v| a.max(v.abs()));
        assert!(max_abs(&small_fan) > max_abs(&big_fan));
    }

    #[test]
    fn normal_sample_statistics() {
        let mut rng = seeded_rng(3);
        let m = normal(100, 100, 2.0, &mut rng);
        let mean = m.sum() / m.len() as f32;
        let var =
            m.as_slice().iter().map(|v| (v - mean).powi(2)).sum::<f32>() / (m.len() - 1) as f32;
        assert!(mean.abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }

    #[test]
    fn normal_produces_finite_values() {
        let mut rng = seeded_rng(4);
        let m = normal(50, 50, 1.0, &mut rng);
        assert!(m.as_slice().iter().all(|v| v.is_finite()));
    }
}
