//! Fully-connected layer with Glorot init, cached forward, exact backward
//! and Adam updates. Used as the output projection of every model in the
//! reproduction (the paper's models all end in a dense softmax layer).

use crate::adam::Adam;
use deepbase_tensor::{init, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// A dense (fully-connected) layer `y = x W + b`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub(crate) struct Dense {
    w: Matrix,
    b: Matrix,
    adam_w: Adam,
    adam_b: Adam,
    grad_w: Matrix,
    grad_b: Matrix,
}

impl Dense {
    /// Creates a layer with Glorot-uniform weights and zero bias.
    pub(crate) fn new(in_dim: usize, out_dim: usize, rng: &mut impl Rng) -> Self {
        Dense {
            w: init::glorot_uniform(in_dim, out_dim, rng),
            b: Matrix::zeros(1, out_dim),
            adam_w: Adam::new(in_dim, out_dim),
            adam_b: Adam::new(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
        }
    }

    /// Borrow the weight matrix.
    pub(crate) fn weights(&self) -> &Matrix {
        &self.w
    }

    /// Borrow the bias row.
    pub(crate) fn bias(&self) -> &Matrix {
        &self.b
    }

    /// Forward pass: `x` is `batch x in_dim`, result `batch x out_dim`.
    pub(crate) fn forward(&self, x: &Matrix) -> Matrix {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast(self.b.row(0));
        y
    }

    /// Accumulates gradients for a batch and returns `dL/dx`.
    ///
    /// `x` must be the same input passed to `forward`; `dy` is `dL/dy`.
    /// Gradients accumulate across calls until [`Dense::apply_grads`].
    pub(crate) fn backward(&mut self, x: &Matrix, dy: &Matrix) -> Matrix {
        self.grad_w.add_assign(&x.t_matmul(dy));
        let col_sums = dy.col_sums();
        for (g, s) in self.grad_b.as_mut_slice().iter_mut().zip(col_sums.iter()) {
            *g += s;
        }
        dy.matmul_t(&self.w)
    }

    /// Applies accumulated gradients (scaled by `scale`, typically `1/batch`)
    /// with Adam, then clears them.
    pub(crate) fn apply_grads(&mut self, lr: f32, scale: f32) {
        self.grad_w.scale_inplace(scale);
        self.grad_b.scale_inplace(scale);
        self.adam_w.step(&mut self.w, &self.grad_w, lr);
        self.adam_b.step(&mut self.b, &self.grad_b, lr);
        self.grad_w.scale_inplace(0.0);
        self.grad_b.scale_inplace(0.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_tensor::init::seeded_rng;
    use deepbase_tensor::ops;

    #[test]
    fn forward_shape_and_bias() {
        let mut rng = seeded_rng(1);
        let layer = Dense::new(3, 2, &mut rng);
        let x = Matrix::zeros(4, 3);
        let y = layer.forward(&x);
        assert_eq!(y.shape(), (4, 2));
        // Zero input: output equals bias (zero at init).
        assert!(y.as_slice().iter().all(|&v| v == 0.0));
    }

    #[test]
    fn gradient_check_weights() {
        // Finite-difference check of dL/dW for L = sum(y^2)/2.
        let mut rng = seeded_rng(2);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = init::uniform(5, 3, -1.0, 1.0, &mut rng);

        let y = layer.forward(&x);
        let dy = y.clone(); // dL/dy = y for L = sum(y^2)/2
        layer.backward(&x, &dy);
        let analytic = layer.grad_w.clone();

        let eps = 1e-3;
        for r in 0..3 {
            for c in 0..2 {
                let orig = layer.w.get(r, c);
                layer.w.set(r, c, orig + eps);
                let lp: f32 = layer
                    .forward(&x)
                    .as_slice()
                    .iter()
                    .map(|v| v * v / 2.0)
                    .sum();
                layer.w.set(r, c, orig - eps);
                let lm: f32 = layer
                    .forward(&x)
                    .as_slice()
                    .iter()
                    .map(|v| v * v / 2.0)
                    .sum();
                layer.w.set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic.get(r, c);
                assert!((fd - an).abs() < 2e-2, "dW[{r},{c}]: fd {fd} vs {an}");
            }
        }
    }

    #[test]
    fn gradient_check_input() {
        let mut rng = seeded_rng(3);
        let mut layer = Dense::new(3, 2, &mut rng);
        let x = init::uniform(2, 3, -1.0, 1.0, &mut rng);
        let y = layer.forward(&x);
        let dx = layer.backward(&x, &y);

        let eps = 1e-3;
        for r in 0..2 {
            for c in 0..3 {
                let mut xp = x.clone();
                xp.set(r, c, x.get(r, c) + eps);
                let lp: f32 = layer
                    .forward(&xp)
                    .as_slice()
                    .iter()
                    .map(|v| v * v / 2.0)
                    .sum();
                let mut xm = x.clone();
                xm.set(r, c, x.get(r, c) - eps);
                let lm: f32 = layer
                    .forward(&xm)
                    .as_slice()
                    .iter()
                    .map(|v| v * v / 2.0)
                    .sum();
                let fd = (lp - lm) / (2.0 * eps);
                assert!((fd - dx.get(r, c)).abs() < 2e-2, "dx[{r},{c}]");
            }
        }
    }

    #[test]
    fn trains_linear_map() {
        // Learn y = [x0 + x1, x0 - x1] with MSE.
        let mut rng = seeded_rng(4);
        let mut layer = Dense::new(2, 2, &mut rng);
        let x = init::uniform(64, 2, -1.0, 1.0, &mut rng);
        let target = Matrix::from_fn(64, 2, |r, c| {
            if c == 0 {
                x.get(r, 0) + x.get(r, 1)
            } else {
                x.get(r, 0) - x.get(r, 1)
            }
        });
        let mut last_loss = f32::INFINITY;
        for _ in 0..1200 {
            let y = layer.forward(&x);
            let diff = y.sub(&target);
            layer.backward(&x, &diff);
            layer.apply_grads(0.01, 1.0 / 64.0);
            last_loss = diff.as_slice().iter().map(|v| v * v).sum::<f32>() / 64.0;
        }
        assert!(last_loss < 2e-3, "loss {last_loss}");
    }

    #[test]
    fn softmax_cross_entropy_classifier() {
        // 3-class one-hot passthrough should be perfectly learnable.
        let mut rng = seeded_rng(5);
        let mut layer = Dense::new(3, 3, &mut rng);
        let x = Matrix::from_fn(30, 3, |r, c| if r % 3 == c { 1.0 } else { 0.0 });
        let targets: Vec<usize> = (0..30).map(|r| r % 3).collect();
        for _ in 0..200 {
            let logits = layer.forward(&x);
            let mut dlogits = ops::softmax_rows(&logits);
            for (r, &t) in targets.iter().enumerate() {
                let v = dlogits.get(r, t);
                dlogits.set(r, t, v - 1.0);
            }
            layer.backward(&x, &dlogits);
            layer.apply_grads(0.05, 1.0 / 30.0);
        }
        let probs = ops::softmax_rows(&layer.forward(&x));
        assert_eq!(probs.argmax_rows(), targets);
    }
}
