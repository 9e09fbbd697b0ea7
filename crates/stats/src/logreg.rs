//! Logistic regression probes.
//!
//! DeepBase's default *joint* measure (paper §4.3) trains a logistic
//! regression classifier that predicts a hypothesis behavior from the
//! activations of a unit group; the classifier's F1 is the group score and
//! the coefficient magnitudes are the per-unit scores.
//!
//! The key systems idea reproduced here is **model merging** (§5.2.1): a
//! multi-output model trains all |H| hypothesis probes as one weight matrix
//! with a shared input pass. Because the per-column losses and parameters
//! are independent, merged training is *exactly* equivalent to training the
//! columns separately (verified by tests), while amortizing the input
//! matrix products — the source of the paper's +MM speedup.

use deepbase_tensor::{activation, init, ops, Matrix};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Training hyper-parameters. The defaults mirror the paper's setup:
/// Adam with Keras' default learning rate, L1 regularization, SGD
/// mini-batches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LogRegConfig {
    /// Adam learning rate.
    pub learning_rate: f32,
    /// L1 penalty weight (sparsity; the paper's §6.3.2 layer analysis).
    pub l1: f32,
    /// L2 penalty weight.
    pub l2: f32,
    /// Number of passes over the data in [`SoftmaxReg::fit`].
    pub epochs: usize,
    /// Mini-batch size.
    pub batch_size: usize,
    /// Shuffle seed (training is fully deterministic given the seed).
    pub seed: u64,
}

impl Default for LogRegConfig {
    fn default() -> Self {
        LogRegConfig {
            learning_rate: 0.01,
            l1: 0.0,
            l2: 0.0,
            epochs: 20,
            batch_size: 64,
            seed: 0,
        }
    }
}

/// Adam optimizer state for one parameter matrix.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct AdamState {
    m: Matrix,
    v: Matrix,
    t: u64,
}

impl AdamState {
    fn new(rows: usize, cols: usize) -> Self {
        AdamState {
            m: Matrix::zeros(rows, cols),
            v: Matrix::zeros(rows, cols),
            t: 0,
        }
    }

    /// One Adam update with the standard β₁=0.9, β₂=0.999. Operates on raw
    /// slices so weight matrices and bias vectors share one allocation-free
    /// path.
    fn update(&mut self, weights: &mut [f32], grad: &[f32], lr: f32) {
        const B1: f32 = 0.9;
        const B2: f32 = 0.999;
        const EPS: f32 = 1e-8;
        self.t += 1;
        let t = self.t as f32;
        let (ms, vs) = (self.m.as_mut_slice(), self.v.as_mut_slice());
        assert_eq!(weights.len(), grad.len(), "adam slice mismatch");
        assert_eq!(ms.len(), grad.len(), "adam state mismatch");
        let bias1 = 1.0 - B1.powf(t);
        let bias2 = 1.0 - B2.powf(t);
        for i in 0..grad.len() {
            ms[i] = B1 * ms[i] + (1.0 - B1) * grad[i];
            vs[i] = B2 * vs[i] + (1.0 - B2) * grad[i] * grad[i];
            let m_hat = ms[i] / bias1;
            let v_hat = vs[i] / bias2;
            weights[i] -= lr * m_hat / (v_hat.sqrt() + EPS);
        }
    }
}

/// Reusable buffers for [`MultiLogReg::sgd_step`] /
/// [`SoftmaxReg::sgd_step`]: the probability/error matrix, the weight
/// gradient, and the bias gradient are each written in place and survive
/// across blocks, so steady-state training steps allocate nothing.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct StepScratch {
    err: Matrix,
    grad_w: Matrix,
    grad_b: Vec<f32>,
}

impl Default for StepScratch {
    fn default() -> Self {
        StepScratch {
            err: Matrix::zeros(0, 0),
            grad_w: Matrix::zeros(0, 0),
            grad_b: Vec::new(),
        }
    }
}

impl StepScratch {
    /// Ensures buffer shapes for a batch of `rows` with the given model
    /// dimensions, reallocating only when a shape changes (the streaming
    /// engines feed constant-size blocks, so this is a no-op in steady
    /// state).
    fn ensure(&mut self, rows: usize, n_features: usize, n_outputs: usize) {
        if self.err.shape() != (rows, n_outputs) {
            self.err = Matrix::zeros(rows, n_outputs);
        }
        if self.grad_w.shape() != (n_features, n_outputs) {
            self.grad_w = Matrix::zeros(n_features, n_outputs);
        }
        if self.grad_b.len() != n_outputs {
            self.grad_b = vec![0.0; n_outputs];
        }
    }
}

/// Multi-output binary logistic regression: one sigmoid output per
/// hypothesis, sharing the input pass. A single-output probe is the
/// special case `n_outputs == 1`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MultiLogReg {
    /// `n_features x n_outputs` weight matrix.
    weights: Matrix,
    /// Per-output bias.
    bias: Vec<f32>,
    /// Per-output positive-class loss weight (1.0 = unweighted). Class
    /// weighting keeps rare-event probes (e.g. one period per sentence)
    /// from collapsing to the all-negative predictor.
    pos_weights: Vec<f32>,
    adam_w: AdamState,
    adam_b: AdamState,
    config: LogRegConfig,
    /// Reused per-step buffers; not part of the model state.
    #[serde(skip)]
    scratch: StepScratch,
}

impl MultiLogReg {
    /// Creates a zero-initialized model (the convex objective does not need
    /// random init, and zero init keeps merged == separate exactly).
    pub fn new(n_features: usize, n_outputs: usize, config: LogRegConfig) -> Self {
        MultiLogReg {
            weights: Matrix::zeros(n_features, n_outputs),
            bias: vec![0.0; n_outputs],
            pos_weights: vec![1.0; n_outputs],
            adam_w: AdamState::new(n_features, n_outputs),
            adam_b: AdamState::new(1, n_outputs),
            config,
            scratch: StepScratch::default(),
        }
    }

    /// Sets per-output positive-class weights (length must match outputs).
    pub fn set_pos_weights(&mut self, weights: Vec<f32>) {
        assert_eq!(weights.len(), self.n_outputs(), "pos_weights length");
        self.pos_weights = weights;
    }

    /// Number of input features (units).
    pub(crate) fn n_features(&self) -> usize {
        self.weights.rows()
    }

    /// Number of outputs (hypotheses).
    pub(crate) fn n_outputs(&self) -> usize {
        self.weights.cols()
    }

    /// Borrow the weight matrix (features x outputs).
    pub fn weights(&self) -> &Matrix {
        &self.weights
    }

    /// Predicted probabilities, shape `n x n_outputs`.
    pub fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = x.matmul(&self.weights);
        logits.add_row_broadcast(&self.bias);
        activation::sigmoid_slice(logits.as_mut_slice());
        logits
    }

    /// One gradient step on a mini-batch: mean BCE gradient + L2 + L1
    /// subgradient, applied with Adam.
    ///
    /// Fully fused hot path: the forward pass, error, weight gradient and
    /// bias gradient are all written into reusable scratch buffers, so a
    /// steady-state training step performs zero heap allocations.
    pub fn sgd_step(&mut self, x: &Matrix, y: &Matrix) {
        assert_eq!(x.rows(), y.rows(), "batch row mismatch");
        assert_eq!(y.cols(), self.n_outputs(), "target output mismatch");
        assert_eq!(x.cols(), self.n_features(), "feature mismatch");
        let n = x.rows().max(1) as f32;
        let n_outputs = self.n_outputs();
        self.scratch.ensure(x.rows(), self.n_features(), n_outputs);

        // Forward pass into the error buffer: err = sigmoid(xW + b).
        let err = &mut self.scratch.err;
        x.matmul_into(&self.weights, err);
        err.add_row_broadcast(&self.bias);
        activation::sigmoid_slice(err.as_mut_slice());

        // err = (probs - y), with the positive-class weight fused in.
        let weighted = self.pos_weights.iter().any(|&w| w != 1.0);
        for (err_row, y_row) in err.as_mut_slice().chunks_mut(n_outputs).zip(y.rows_iter()) {
            for ((e, &t), &w) in err_row.iter_mut().zip(y_row).zip(&self.pos_weights) {
                *e -= t;
                if weighted && t > 0.5 {
                    *e *= w;
                }
            }
        }

        // grad_w = x^T err / n (+ regularization, not applied to bias,
        // matching scikit-learn/Keras), written in place.
        let grad_w = &mut self.scratch.grad_w;
        x.t_matmul_into(err, grad_w);
        grad_w.scale_inplace(1.0 / n);
        if self.config.l2 > 0.0 {
            grad_w.add_scaled(&self.weights, self.config.l2);
        }
        if self.config.l1 > 0.0 {
            let l1 = self.config.l1;
            for (g, &w) in grad_w
                .as_mut_slice()
                .iter_mut()
                .zip(self.weights.as_slice())
            {
                *g += l1
                    * if w > 0.0 {
                        1.0
                    } else if w < 0.0 {
                        -1.0
                    } else {
                        0.0
                    };
            }
        }

        // grad_b = column means of err, in place.
        let grad_b = &mut self.scratch.grad_b;
        grad_b.fill(0.0);
        for err_row in err.as_slice().chunks(n_outputs.max(1)) {
            for (b, &e) in grad_b.iter_mut().zip(err_row) {
                *b += e;
            }
        }
        for b in grad_b.iter_mut() {
            *b /= n;
        }

        let lr = self.config.learning_rate;
        self.adam_w
            .update(self.weights.as_mut_slice(), grad_w.as_slice(), lr);
        self.adam_b.update(&mut self.bias, grad_b, lr);
    }

    /// Incremental training on one block (a single pass of mini-batches, in
    /// order): the `process_block` API of paper §5.2.2.
    pub fn partial_fit(&mut self, x: &Matrix, y: &Matrix) {
        let bs = self.config.batch_size.max(1);
        let n = x.rows();
        let mut start = 0;
        while start < n {
            let end = (start + bs).min(n);
            let xb = x.slice_rows(start, end);
            let yb = y.slice_rows(start, end);
            self.sgd_step(&xb, &yb);
            start = end;
        }
    }

    /// Per-output binary F1 on a labelled set.
    pub fn f1_per_output(&self, x: &Matrix, y: &Matrix) -> Vec<f32> {
        let probs = self.predict_proba(x);
        (0..self.n_outputs())
            .map(|h| {
                let pred = probs.col(h);
                let targ = y.col(h);
                crate::classify::f1_score(&pred, &targ)
            })
            .collect()
    }

    /// Absolute coefficient of each (feature, output) pair — DeepBase's
    /// per-unit scores for joint measures.
    pub fn unit_scores(&self, output: usize) -> Vec<f32> {
        (0..self.n_features())
            .map(|f| self.weights.get(f, output).abs())
            .collect()
    }
}

/// Multiclass softmax regression (used for POS-tag probes where the
/// hypothesis returns one of `k` tags per symbol, §6.3.1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SoftmaxReg {
    weights: Matrix,
    bias: Vec<f32>,
    adam_w: AdamState,
    adam_b: AdamState,
    config: LogRegConfig,
}

impl SoftmaxReg {
    /// Creates a zero-initialized `k`-class probe.
    pub fn new(n_features: usize, n_classes: usize, config: LogRegConfig) -> Self {
        SoftmaxReg {
            weights: Matrix::zeros(n_features, n_classes),
            bias: vec![0.0; n_classes],
            adam_w: AdamState::new(n_features, n_classes),
            adam_b: AdamState::new(1, n_classes),
            config,
        }
    }

    /// Class probabilities, shape `n x k`.
    pub(crate) fn predict_proba(&self, x: &Matrix) -> Matrix {
        let mut logits = x.matmul(&self.weights);
        logits.add_row_broadcast(&self.bias);
        ops::softmax_rows(&logits)
    }

    /// Hard class predictions.
    pub fn predict(&self, x: &Matrix) -> Vec<usize> {
        self.predict_proba(x).argmax_rows()
    }

    /// One gradient step on a mini-batch with integer targets.
    pub(crate) fn sgd_step(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "batch target mismatch");
        let n = x.rows().max(1) as f32;
        let mut err = self.predict_proba(x);
        for (r, &t) in y.iter().enumerate() {
            let v = err.get(r, t);
            err.set(r, t, v - 1.0);
        }
        let mut grad_w = x.t_matmul(&err);
        grad_w.scale_inplace(1.0 / n);
        if self.config.l2 > 0.0 {
            grad_w.add_scaled(&self.weights, self.config.l2);
        }
        let grad_b: Vec<f32> = err.col_sums().iter().map(|s| s / n).collect();
        let lr = self.config.learning_rate;
        self.adam_w
            .update(self.weights.as_mut_slice(), grad_w.as_slice(), lr);
        self.adam_b.update(&mut self.bias, &grad_b, lr);
    }

    /// Full training run with seeded shuffling.
    pub fn fit(&mut self, x: &Matrix, y: &[usize]) {
        assert_eq!(x.rows(), y.len(), "dataset target mismatch");
        let n = x.rows();
        let mut order: Vec<usize> = (0..n).collect();
        let mut rng = init::seeded_rng(self.config.seed);
        let bs = self.config.batch_size.max(1);
        for _ in 0..self.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(bs) {
                let xb = gather_rows(x, chunk);
                let yb: Vec<usize> = chunk.iter().map(|&i| y[i]).collect();
                self.sgd_step(&xb, &yb);
            }
        }
    }
}

/// Copies the given rows of `m` into a new matrix (mini-batch gather).
pub(crate) fn gather_rows(m: &Matrix, indices: &[usize]) -> Matrix {
    let mut out = Matrix::zeros(indices.len(), m.cols());
    for (dst, &src) in indices.iter().enumerate() {
        out.row_mut(dst).copy_from_slice(m.row(src));
    }
    out
}

/// Tracks a validation-score history and reports the early-stopping error
/// from paper §5.2.2: the absolute difference between the latest score and
/// the mean over the trailing window.
#[derive(Debug, Clone, Default)]
pub struct ConvergenceTracker {
    window: usize,
    history: Vec<f32>,
}

impl ConvergenceTracker {
    /// Window of trailing scores to average (paper default: enough batches
    /// to cover 2,048 tuples).
    pub fn new(window: usize) -> Self {
        ConvergenceTracker {
            window: window.max(1),
            history: Vec::new(),
        }
    }

    /// Records `score`, returning the current error estimate
    /// (infinity until the window has filled).
    pub fn push(&mut self, score: f32) -> f32 {
        self.history.push(score);
        if self.history.len() <= self.window {
            return f32::INFINITY;
        }
        let tail = &self.history[self.history.len() - 1 - self.window..self.history.len() - 1];
        let avg = tail.iter().sum::<f32>() / tail.len() as f32;
        (score - avg).abs()
    }

    /// Latest score, if any.
    pub fn latest(&self) -> Option<f32> {
        self.history.last().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Full training run: `epochs` passes of seeded-shuffled mini-batches.
    fn fit(model: &mut MultiLogReg, x: &Matrix, y: &Matrix) {
        let mut order: Vec<usize> = (0..x.rows()).collect();
        let mut rng = init::seeded_rng(model.config.seed);
        for _ in 0..model.config.epochs {
            order.shuffle(&mut rng);
            for chunk in order.chunks(model.config.batch_size.max(1)) {
                model.sgd_step(&gather_rows(x, chunk), &gather_rows(y, chunk));
            }
        }
    }

    /// Linearly separable toy set: y = 1 iff x0 + x1 > 1.
    fn toy_dataset(n: usize) -> (Matrix, Matrix) {
        let x = Matrix::from_fn(n, 2, |r, c| ((r * 37 + c * 17) % 100) as f32 / 100.0);
        let y = Matrix::from_fn(n, 1, |r, _| {
            if x.get(r, 0) + x.get(r, 1) > 1.0 {
                1.0
            } else {
                0.0
            }
        });
        (x, y)
    }

    #[test]
    fn learns_linearly_separable_data() {
        let (x, y) = toy_dataset(200);
        let mut model = MultiLogReg::new(
            2,
            1,
            LogRegConfig {
                epochs: 100,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        fit(&mut model, &x, &y);
        let f1 = model.f1_per_output(&x, &y)[0];
        assert!(f1 > 0.95, "F1 {f1}");
    }

    #[test]
    fn merged_training_equals_separate_training() {
        // The central model-merging exactness claim (§5.2.1).
        let (x, y0) = toy_dataset(120);
        let y1 = Matrix::from_fn(120, 1, |r, _| if x.get(r, 0) > 0.5 { 1.0 } else { 0.0 });
        let y = y0.hstack(&y1).unwrap();

        let config = LogRegConfig {
            epochs: 30,
            learning_rate: 0.05,
            ..Default::default()
        };
        let mut merged = MultiLogReg::new(2, 2, config.clone());
        fit(&mut merged, &x, &y);

        let mut sep0 = MultiLogReg::new(2, 1, config.clone());
        fit(&mut sep0, &x, &y0);
        let mut sep1 = MultiLogReg::new(2, 1, config);
        fit(&mut sep1, &x, &y1);

        for f in 0..2 {
            assert!(
                (merged.weights().get(f, 0) - sep0.weights().get(f, 0)).abs() < 1e-4,
                "output 0 weight {f} diverged"
            );
            assert!(
                (merged.weights().get(f, 1) - sep1.weights().get(f, 0)).abs() < 1e-4,
                "output 1 weight {f} diverged"
            );
        }
    }

    #[test]
    fn merged_training_equals_separate_with_regularization() {
        let (x, y0) = toy_dataset(80);
        let y1 = Matrix::from_fn(80, 1, |r, _| if x.get(r, 1) > 0.6 { 1.0 } else { 0.0 });
        let y = y0.hstack(&y1).unwrap();
        let config = LogRegConfig {
            epochs: 15,
            learning_rate: 0.05,
            l1: 0.01,
            l2: 0.01,
            ..Default::default()
        };
        let mut merged = MultiLogReg::new(2, 2, config.clone());
        fit(&mut merged, &x, &y);
        let mut sep = MultiLogReg::new(2, 1, config);
        fit(&mut sep, &x, &y0);
        for f in 0..2 {
            assert!((merged.weights().get(f, 0) - sep.weights().get(f, 0)).abs() < 1e-4);
        }
    }

    #[test]
    fn l1_regularization_sparsifies() {
        // 6 features, only feature 0 is informative.
        let n = 300;
        let x = Matrix::from_fn(n, 6, |r, c| {
            if c == 0 {
                (r % 2) as f32
            } else {
                ((r * (c + 7) * 31) % 100) as f32 / 100.0
            }
        });
        let y = Matrix::from_fn(n, 1, |r, _| (r % 2) as f32);
        let dense_cfg = LogRegConfig {
            epochs: 60,
            learning_rate: 0.05,
            ..Default::default()
        };
        let sparse_cfg = LogRegConfig {
            l1: 0.05,
            ..dense_cfg.clone()
        };
        let mut dense = MultiLogReg::new(6, 1, dense_cfg);
        let mut sparse = MultiLogReg::new(6, 1, sparse_cfg);
        fit(&mut dense, &x, &y);
        fit(&mut sparse, &x, &y);
        let selected = |m: &MultiLogReg| m.unit_scores(0).iter().filter(|&&w| w > 0.1).count();
        assert!(selected(&sparse) <= selected(&dense));
        assert!(sparse.unit_scores(0)[0] > 0.3, "informative unit kept");
    }

    #[test]
    fn partial_fit_progresses_toward_fit() {
        let (x, y) = toy_dataset(256);
        let mut model = MultiLogReg::new(
            2,
            1,
            LogRegConfig {
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        for _ in 0..50 {
            model.partial_fit(&x, &y);
        }
        assert!(model.f1_per_output(&x, &y)[0] > 0.9);
    }

    #[test]
    fn softmax_probe_learns_three_classes() {
        let n = 300;
        let x = Matrix::from_fn(n, 3, |r, c| if r % 3 == c { 1.0 } else { 0.0 });
        let y: Vec<usize> = (0..n).map(|r| r % 3).collect();
        let mut probe = SoftmaxReg::new(
            3,
            3,
            LogRegConfig {
                epochs: 40,
                learning_rate: 0.1,
                ..Default::default()
            },
        );
        probe.fit(&x, &y);
        let correct = probe
            .predict(&x)
            .iter()
            .zip(&y)
            .filter(|(p, t)| p == t)
            .count();
        assert!(correct as f32 / n as f32 > 0.99);
    }

    #[test]
    fn softmax_probabilities_are_distributions() {
        let probe = SoftmaxReg::new(2, 4, LogRegConfig::default());
        let x = Matrix::from_fn(5, 2, |r, c| (r + c) as f32);
        let p = probe.predict_proba(&x);
        for r in 0..5 {
            let sum: f32 = p.row(r).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn convergence_tracker_err_drops_when_stable() {
        let mut tracker = ConvergenceTracker::new(4);
        assert_eq!(tracker.push(0.1), f32::INFINITY);
        for s in [0.4, 0.6, 0.7, 0.72] {
            tracker.push(s);
        }
        let err_moving = tracker.push(0.9);
        for _ in 0..6 {
            tracker.push(0.9);
        }
        let err_stable = tracker.push(0.9);
        assert!(err_stable < err_moving);
        assert!(err_stable < 1e-6);
    }

    #[test]
    fn gather_rows_selects_expected() {
        let m = Matrix::from_fn(4, 2, |r, c| (r * 10 + c) as f32);
        let g = gather_rows(&m, &[2, 0]);
        assert_eq!(g.row(0), &[20.0, 21.0]);
        assert_eq!(g.row(1), &[0.0, 1.0]);
    }
}
