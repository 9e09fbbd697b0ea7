//! Adam optimizer state for a single parameter matrix.
//!
//! Each layer owns one `Adam` per parameter; the training loops call
//! `step` with the accumulated gradient. Keras' default hyper-parameters
//! (β₁ = 0.9, β₂ = 0.999, ε = 1e-8) are baked in, matching the paper's
//! training setup.

use deepbase_tensor::Matrix;
use serde::{Deserialize, Serialize};

/// Adam moment estimates for one parameter matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Adam {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl Adam {
    /// Creates zeroed state for a `rows x cols` parameter.
    pub(crate) fn new(rows: usize, cols: usize) -> Self {
        Adam {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
        }
    }

    /// Applies one Adam update of `param` using `grad`.
    pub(crate) fn step(&mut self, param: &mut Matrix, grad: &Matrix, lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        debug_assert_eq!(param.shape(), grad.shape(), "adam shape mismatch");
        self.t += 1;
        let t = self.t as f32;
        let bias1 = 1.0 - B1.powf(t);
        let bias2 = 1.0 - B2.powf(t);
        let (ms, vs) = (self.m.as_mut_slice(), self.v.as_mut_slice());
        let ps = param.as_mut_slice();
        let gs = grad.as_slice();
        for i in 0..gs.len() {
            ms[i] = B1 * ms[i] + (1.0 - B1) * gs[i];
            vs[i] = B2 * vs[i] + (1.0 - B2) * gs[i] * gs[i];
            ps[i] -= lr * (ms[i] / bias1) / ((vs[i] / bias2).sqrt() + EPS);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adam_minimizes_quadratic() {
        // Minimize f(w) = (w - 3)^2 elementwise; gradient 2(w - 3).
        let mut w = Matrix::full(2, 2, 10.0);
        let mut opt = Adam::new(2, 2);
        for _ in 0..2000 {
            let grad = w.map(|x| 2.0 * (x - 3.0));
            opt.step(&mut w, &grad, 0.05);
        }
        for &v in w.as_slice() {
            assert!((v - 3.0).abs() < 0.05, "converged to {v}");
        }
    }

    #[test]
    fn first_step_moves_by_about_lr() {
        // Adam's bias correction makes the first step ≈ lr * sign(grad).
        let mut w = Matrix::zeros(1, 1);
        let mut opt = Adam::new(1, 1);
        let grad = Matrix::full(1, 1, 123.0);
        opt.step(&mut w, &grad, 0.01);
        assert!(
            (w.get(0, 0) + 0.01).abs() < 1e-4,
            "step was {}",
            w.get(0, 0)
        );
        assert_eq!(opt.t, 1);
    }

    #[test]
    fn zero_gradient_keeps_param() {
        let mut w = Matrix::full(1, 3, 5.0);
        let mut opt = Adam::new(1, 3);
        opt.step(&mut w, &Matrix::zeros(1, 3), 0.1);
        for &v in w.as_slice() {
            assert!((v - 5.0).abs() < 1e-6);
        }
    }
}
