//! LSTM layer with full back-propagation through time.
//!
//! This is the recurrent workhorse behind every model in the paper: the
//! SQL auto-completion model (one LSTM layer, §2.1), the Appendix C
//! 16-unit specialization model, and both stacks of the OpenNMT-style
//! encoder–decoder (§6.3). The hidden-state sequence `h_t` is exactly what
//! DeepBase extracts as unit behaviors.
//!
//! There are two forwards, one per job:
//!
//! * [`Lstm::forward`] / [`Lstm::forward_from`] — the **training**
//!   forward. It retains everything [`Lstm::backward`] consumes (inputs,
//!   gates, cell states, `tanh(c)`) in an [`LstmCache`], and is for
//!   `train_*`, decoding heads and tests.
//! * [`Lstm::forward_infer`] — the **inference** forward behind every
//!   extractor. It steps two reused state buffers and one gate buffer and
//!   retains nothing; the caller copies each `h_t` where it wants it.
//!
//! The two are bit-identical per element — `z = ((x·Wx) + (h·Wh)) + b`
//! with both products from the blocked mat-mul kernel, the same
//! `ops::sigmoid` / `f32::tanh` calls, `c = f·c_prev + i·g`,
//! `h = o·tanh(c)` — because stored behavior columns are keyed by the
//! model's weights, not by which forward produced them
//! (`tests/proptests.rs` pins it).
//!
//! Gate layout in the packed `4H` dimension: `[i | f | g | o]`
//! (input, forget, candidate, output).

use crate::adam::Adam;
use deepbase_tensor::{init, ops, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// LSTM parameters and accumulated gradients.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Lstm {
    input_dim: usize,
    hidden: usize,
    /// `input_dim x 4H` input projection.
    wx: Matrix,
    /// `H x 4H` recurrent projection.
    wh: Matrix,
    /// `1 x 4H` bias (forget-gate slice initialized to 1).
    b: Matrix,
    adam_wx: Adam,
    adam_wh: Adam,
    adam_b: Adam,
    grad_wx: Matrix,
    grad_wh: Matrix,
    grad_b: Matrix,
}

/// Everything the backward pass needs (the training forward's output).
/// Index `t` refers to timestep `t` (0-based).
#[derive(Debug, Clone)]
pub struct LstmCache {
    /// Input at each step (`B x input_dim`).
    pub xs: Vec<Matrix>,
    /// Hidden state after each step (`B x H`).
    pub hs: Vec<Matrix>,
    /// Cell state after each step.
    pub cs: Vec<Matrix>,
    /// Post-activation gates `[i|f|g|o]` at each step (`B x 4H`).
    gates: Vec<Matrix>,
    /// `tanh(c_t)` at each step.
    tanhc: Vec<Matrix>,
    /// Initial hidden state (for stacked/decoder use).
    h0: Matrix,
    /// Initial cell state.
    c0: Matrix,
}

impl LstmCache {
    /// Sequence length.
    pub(crate) fn len(&self) -> usize {
        self.hs.len()
    }

    /// Final hidden state (initial state when the sequence is empty).
    pub(crate) fn final_h(&self) -> &Matrix {
        self.hs.last().unwrap_or(&self.h0)
    }

    /// Final cell state.
    pub(crate) fn final_c(&self) -> &Matrix {
        self.cs.last().unwrap_or(&self.c0)
    }
}

impl Lstm {
    /// Creates an LSTM with Glorot-uniform projections, zero bias and the
    /// customary forget-gate bias of 1.
    pub fn new(input_dim: usize, hidden: usize, rng: &mut impl Rng) -> Self {
        let mut b = Matrix::zeros(1, 4 * hidden);
        for h in hidden..2 * hidden {
            b.set(0, h, 1.0);
        }
        Lstm {
            input_dim,
            hidden,
            wx: init::glorot_uniform(input_dim, 4 * hidden, rng),
            wh: init::glorot_uniform(hidden, 4 * hidden, rng),
            b,
            adam_wx: Adam::new(input_dim, 4 * hidden),
            adam_wh: Adam::new(hidden, 4 * hidden),
            adam_b: Adam::new(1, 4 * hidden),
            grad_wx: Matrix::zeros(input_dim, 4 * hidden),
            grad_wh: Matrix::zeros(hidden, 4 * hidden),
            grad_b: Matrix::zeros(1, 4 * hidden),
        }
    }

    /// Training forward over a sequence starting from zero state.
    /// `xs[t]` is the `B x input_dim` input at step `t`.
    pub fn forward(&self, xs: &[Matrix]) -> LstmCache {
        let batch = xs.first().map(|m| m.rows()).unwrap_or(0);
        let h0 = Matrix::zeros(batch, self.hidden);
        let c0 = Matrix::zeros(batch, self.hidden);
        self.forward_from(xs, h0, c0)
    }

    /// Training forward from a given initial state (decoder use).
    pub(crate) fn forward_from(&self, xs: &[Matrix], h0: Matrix, c0: Matrix) -> LstmCache {
        let mut cache = LstmCache {
            xs: xs.to_vec(),
            hs: Vec::with_capacity(xs.len()),
            cs: Vec::with_capacity(xs.len()),
            gates: Vec::with_capacity(xs.len()),
            tanhc: Vec::with_capacity(xs.len()),
            h0,
            c0,
        };
        let hsz = self.hidden;
        for x in xs {
            let h_prev = cache.hs.last().unwrap_or(&cache.h0);
            let c_prev = cache.cs.last().unwrap_or(&cache.c0);
            debug_assert_eq!(x.cols(), self.input_dim, "lstm input width");
            let mut z = x.matmul(&self.wx);
            z.add_assign(&h_prev.matmul(&self.wh));
            z.add_row_broadcast(self.b.row(0));

            // Apply gate nonlinearities in place: sigmoid on i|f|o, tanh on g.
            let batch = z.rows();
            for r in 0..batch {
                let row = z.row_mut(r);
                for (col, v) in row.iter_mut().enumerate() {
                    let gate = col / hsz;
                    *v = if gate == 2 {
                        v.tanh()
                    } else {
                        ops::sigmoid(*v)
                    };
                }
            }

            let mut c = Matrix::zeros(batch, hsz);
            let mut h = Matrix::zeros(batch, hsz);
            let mut tanhc = Matrix::zeros(batch, hsz);
            for r in 0..batch {
                let zr = z.row(r);
                for k in 0..hsz {
                    let i = zr[k];
                    let f = zr[hsz + k];
                    let g = zr[2 * hsz + k];
                    let o = zr[3 * hsz + k];
                    let c_new = f * c_prev.get(r, k) + i * g;
                    let tc = c_new.tanh();
                    c.set(r, k, c_new);
                    tanhc.set(r, k, tc);
                    h.set(r, k, o * tc);
                }
            }
            cache.gates.push(z);
            cache.cs.push(c);
            cache.tanhc.push(tanhc);
            cache.hs.push(h);
        }
        cache
    }

    /// Starts an inference forward over `batch` sequences from zero
    /// state: step it once per timestep and read `h_t` after each step.
    pub fn forward_infer(&self, batch: usize) -> LstmInfer<'_> {
        LstmInfer {
            lstm: self,
            h: Matrix::zeros(batch, self.hidden),
            c: Matrix::zeros(batch, self.hidden),
            z: Matrix::zeros(batch, 4 * self.hidden),
            xz: Matrix::zeros(0, 0),
        }
    }

    /// Back-propagates through time.
    ///
    /// * `dh[t]` — gradient of the loss w.r.t. `h_t` from *outside* the
    ///   recurrence (per-step outputs, probes); may be empty matrices for
    ///   steps with no direct loss.
    /// * `final_state_grad` — optional gradient flowing into the final
    ///   `(h, c)` (used when a decoder was initialized from this encoder).
    ///
    /// Accumulates parameter gradients and returns
    /// `(dxs, dh0, dc0)` — gradients w.r.t. inputs and the initial state.
    pub(crate) fn backward(
        &mut self,
        cache: &LstmCache,
        dh: &[Matrix],
        final_state_grad: Option<(&Matrix, &Matrix)>,
    ) -> (Vec<Matrix>, Matrix, Matrix) {
        let steps = cache.len();
        assert_eq!(dh.len(), steps, "dh length mismatch");
        let batch = cache.h0.rows();
        let hsz = self.hidden;

        let mut dh_next = Matrix::zeros(batch, hsz);
        let mut dc_next = Matrix::zeros(batch, hsz);
        if let Some((dhf, dcf)) = final_state_grad {
            dh_next.add_assign(dhf);
            dc_next.add_assign(dcf);
        }
        let mut dxs = vec![Matrix::zeros(0, 0); steps];

        for t in (0..steps).rev() {
            let mut dh_total = dh_next;
            if dh[t].rows() == batch {
                dh_total.add_assign(&dh[t]);
            }
            let c_prev = if t == 0 { &cache.c0 } else { &cache.cs[t - 1] };
            let h_prev = if t == 0 { &cache.h0 } else { &cache.hs[t - 1] };
            let gates = &cache.gates[t];
            let tanhc = &cache.tanhc[t];

            // dz packs the pre-activation gradients [di|df|dg|do].
            let mut dz = Matrix::zeros(batch, 4 * hsz);
            let mut dc_prev = Matrix::zeros(batch, hsz);
            for r in 0..batch {
                let zr = gates.row(r);
                for k in 0..hsz {
                    let i = zr[k];
                    let f = zr[hsz + k];
                    let g = zr[2 * hsz + k];
                    let o = zr[3 * hsz + k];
                    let tc = tanhc.get(r, k);
                    let dh_v = dh_total.get(r, k);
                    let dov = dh_v * tc;
                    let dc_total = dc_next.get(r, k) + dh_v * o * (1.0 - tc * tc);
                    let div = dc_total * g;
                    let dfv = dc_total * c_prev.get(r, k);
                    let dgv = dc_total * i;
                    dz.set(r, k, div * i * (1.0 - i));
                    dz.set(r, hsz + k, dfv * f * (1.0 - f));
                    dz.set(r, 2 * hsz + k, dgv * (1.0 - g * g));
                    dz.set(r, 3 * hsz + k, dov * o * (1.0 - o));
                    dc_prev.set(r, k, dc_total * f);
                }
            }

            self.grad_wx.add_assign(&cache.xs[t].t_matmul(&dz));
            self.grad_wh.add_assign(&h_prev.t_matmul(&dz));
            let col_sums = dz.col_sums();
            for (g, s) in self.grad_b.as_mut_slice().iter_mut().zip(col_sums.iter()) {
                *g += s;
            }
            dxs[t] = dz.matmul_t(&self.wx);
            dh_next = dz.matmul_t(&self.wh);
            dc_next = dc_prev;
        }
        (dxs, dh_next, dc_next)
    }

    /// Applies accumulated gradients with Adam (scaled by `scale`) and
    /// clears them.
    pub(crate) fn apply_grads(&mut self, lr: f32, scale: f32) {
        self.grad_wx.scale_inplace(scale);
        self.grad_wh.scale_inplace(scale);
        self.grad_b.scale_inplace(scale);
        self.adam_wx.step(&mut self.wx, &self.grad_wx, lr);
        self.adam_wh.step(&mut self.wh, &self.grad_wh, lr);
        self.adam_b.step(&mut self.b, &self.grad_b, lr);
        self.grad_wx.scale_inplace(0.0);
        self.grad_wh.scale_inplace(0.0);
        self.grad_b.scale_inplace(0.0);
    }

    /// The trainable parameter matrices (`wx`, `wh`, `b`), in a fixed
    /// order — used to fingerprint a model's weights for the persistent
    /// behavior store.
    pub(crate) fn params(&self) -> [&Matrix; 3] {
        [&self.wx, &self.wh, &self.b]
    }

    /// Mutable access to the input projection (used by gradient-check
    /// tests only).
    #[doc(hidden)]
    pub fn wx_mut(&mut self) -> &mut Matrix {
        &mut self.wx
    }

    /// Mutable access to the recurrent projection (tests only).
    #[doc(hidden)]
    pub fn wh_mut(&mut self) -> &mut Matrix {
        &mut self.wh
    }
}

/// An inference forward in progress ([`Lstm::forward_infer`]): the
/// recurrent state of `B` sequences and the buffers one step reuses.
#[derive(Debug)]
pub struct LstmInfer<'l> {
    lstm: &'l Lstm,
    /// `h_t` (`B x H`), the left operand of the next step's `h·Wh`.
    h: Matrix,
    /// `c_t` (`B x H`).
    c: Matrix,
    /// `B x 4H`: `h·Wh`, then the pre-activations `z` in place.
    z: Matrix,
    /// `B x 4H`: `x·Wx` of a dense step (empty until the first one).
    xz: Matrix,
}

impl LstmInfer<'_> {
    /// One step on one-hot inputs: `id_of(r)` is the token of batch row
    /// `r`, clamped to the last vocabulary entry like
    /// [`crate::one_hot_batch`]. Returns `h_t`.
    ///
    /// A one-hot row times `Wx` is row `id` of `Wx` through the mat-mul
    /// kernel's zero-initialised accumulator, i.e. `Wx[id][j] + 0.0` (a
    /// `-0.0` weight comes out `+0.0`). The gather keeps that addition, so
    /// each term equals the training forward's on its own — not only
    /// because `h·Wh`, from the same accumulator, is never `-0.0` either.
    pub fn step_ids(&mut self, id_of: impl Fn(usize) -> u32) -> &Matrix {
        let lstm = self.lstm;
        self.h.matmul_into(&lstm.wh, &mut self.z);
        let last = lstm.input_dim.saturating_sub(1);
        let bias = lstm.b.row(0);
        for r in 0..self.h.rows() {
            let x = lstm.wx.row((id_of(r) as usize).min(last));
            for ((z, &x), &b) in self.z.row_mut(r).iter_mut().zip(x).zip(bias) {
                *z = ((x + 0.0) + *z) + b;
            }
        }
        self.gates()
    }

    /// One step on dense inputs `x` (`B x input_dim`). Returns `h_t`.
    pub fn step_rows(&mut self, x: &Matrix) -> &Matrix {
        let lstm = self.lstm;
        if self.xz.shape() != self.z.shape() {
            self.xz = Matrix::zeros(self.z.rows(), self.z.cols());
        }
        x.matmul_into(&lstm.wx, &mut self.xz);
        self.h.matmul_into(&lstm.wh, &mut self.z);
        let bias = lstm.b.row(0);
        for r in 0..self.h.rows() {
            let x = self.xz.row(r);
            for ((z, &x), &b) in self.z.row_mut(r).iter_mut().zip(x).zip(bias) {
                *z = (x + *z) + b;
            }
        }
        self.gates()
    }

    /// Gate nonlinearities fused with the cell update, from `z` into the
    /// state buffers.
    fn gates(&mut self) -> &Matrix {
        let hsz = self.lstm.hidden;
        for r in 0..self.h.rows() {
            let (zi, rest) = self.z.row(r).split_at(hsz);
            let (zf, rest) = rest.split_at(hsz);
            let (zg, zo) = rest.split_at(hsz);
            let cells = self.c.row_mut(r).iter_mut().zip(self.h.row_mut(r));
            for ((((c, h), &zi), &zf), (&zg, &zo)) in cells.zip(zi).zip(zf).zip(zg.iter().zip(zo)) {
                let i = ops::sigmoid(zi);
                let f = ops::sigmoid(zf);
                let g = zg.tanh();
                let o = ops::sigmoid(zo);
                *c = f * *c + i * g;
                *h = o * c.tanh();
            }
        }
        &self.h
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_tensor::init::seeded_rng;

    fn sequence(rng: &mut impl Rng, steps: usize, batch: usize, dim: usize) -> Vec<Matrix> {
        (0..steps)
            .map(|_| init::uniform(batch, dim, -1.0, 1.0, rng))
            .collect()
    }

    /// Scalar loss L = sum_t sum(h_t^2)/2, whose dL/dh_t = h_t.
    fn loss_of(cache: &LstmCache) -> f32 {
        cache
            .hs
            .iter()
            .map(|h| h.as_slice().iter().map(|v| v * v / 2.0).sum::<f32>())
            .sum()
    }

    #[test]
    fn forward_shapes() {
        let mut rng = seeded_rng(1);
        let lstm = Lstm::new(3, 4, &mut rng);
        let xs = sequence(&mut rng, 5, 2, 3);
        let cache = lstm.forward(&xs);
        assert_eq!(cache.len(), 5);
        for h in &cache.hs {
            assert_eq!(h.shape(), (2, 4));
        }
        assert_eq!(cache.final_h().shape(), (2, 4));
    }

    #[test]
    fn hidden_states_bounded_by_one() {
        // h = o * tanh(c): |h| <= 1 always.
        let mut rng = seeded_rng(2);
        let lstm = Lstm::new(3, 8, &mut rng);
        let xs = sequence(&mut rng, 20, 4, 3);
        let cache = lstm.forward(&xs);
        for h in &cache.hs {
            assert!(h.as_slice().iter().all(|v| v.abs() <= 1.0));
        }
    }

    #[test]
    fn zero_input_zero_state_stays_small() {
        let mut rng = seeded_rng(3);
        let lstm = Lstm::new(2, 4, &mut rng);
        let xs = vec![Matrix::zeros(1, 2); 3];
        let cache = lstm.forward(&xs);
        // g = tanh(0) = 0 means c and h stay exactly 0.
        for h in &cache.hs {
            assert!(h.as_slice().iter().all(|&v| v.abs() < 1e-6), "{h}");
        }
    }

    #[test]
    fn gradient_check_input_projection() {
        let mut rng = seeded_rng(4);
        let mut lstm = Lstm::new(3, 4, &mut rng);
        let xs = sequence(&mut rng, 3, 2, 3);
        let cache = lstm.forward(&xs);
        let dh: Vec<Matrix> = cache.hs.clone();
        lstm.backward(&cache, &dh, None);
        let analytic = lstm.grad_wx.clone();

        let eps = 5e-3;
        for r in 0..3 {
            for c in 0..8 {
                let orig = lstm.wx_mut().get(r, c);
                lstm.wx_mut().set(r, c, orig + eps);
                let lp = loss_of(&lstm.forward(&xs));
                lstm.wx_mut().set(r, c, orig - eps);
                let lm = loss_of(&lstm.forward(&xs));
                lstm.wx_mut().set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic.get(r, c);
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + fd.abs().max(an.abs())),
                    "dWx[{r},{c}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_recurrent_projection() {
        let mut rng = seeded_rng(5);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = sequence(&mut rng, 4, 2, 2);
        let cache = lstm.forward(&xs);
        let dh: Vec<Matrix> = cache.hs.clone();
        lstm.backward(&cache, &dh, None);
        let analytic = lstm.grad_wh.clone();

        let eps = 5e-3;
        for r in 0..3 {
            for c in 0..12 {
                let orig = lstm.wh_mut().get(r, c);
                lstm.wh_mut().set(r, c, orig + eps);
                let lp = loss_of(&lstm.forward(&xs));
                lstm.wh_mut().set(r, c, orig - eps);
                let lm = loss_of(&lstm.forward(&xs));
                lstm.wh_mut().set(r, c, orig);
                let fd = (lp - lm) / (2.0 * eps);
                let an = analytic.get(r, c);
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + fd.abs().max(an.abs())),
                    "dWh[{r},{c}]: fd {fd} vs analytic {an}"
                );
            }
        }
    }

    #[test]
    fn gradient_check_inputs() {
        let mut rng = seeded_rng(6);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = sequence(&mut rng, 3, 1, 2);
        let cache = lstm.forward(&xs);
        let dh: Vec<Matrix> = cache.hs.clone();
        let (dxs, _, _) = lstm.backward(&cache, &dh, None);

        let eps = 5e-3;
        for t in 0..3 {
            for c in 0..2 {
                let mut xs_p = xs.clone();
                xs_p[t].set(0, c, xs[t].get(0, c) + eps);
                let lp = loss_of(&lstm.forward(&xs_p));
                let mut xs_m = xs.clone();
                xs_m[t].set(0, c, xs[t].get(0, c) - eps);
                let lm = loss_of(&lstm.forward(&xs_m));
                let fd = (lp - lm) / (2.0 * eps);
                let an = dxs[t].get(0, c);
                assert!(
                    (fd - an).abs() < 0.05 * (1.0 + fd.abs().max(an.abs())),
                    "dx[{t}][0,{c}]: fd {fd} vs {an}"
                );
            }
        }
    }

    #[test]
    fn final_state_gradient_flows() {
        // Gradient injected only at the final state must reach parameters.
        let mut rng = seeded_rng(7);
        let mut lstm = Lstm::new(2, 3, &mut rng);
        let xs = sequence(&mut rng, 3, 2, 2);
        let cache = lstm.forward(&xs);
        let dh = vec![Matrix::zeros(0, 0); 3];
        let dhf = Matrix::full(2, 3, 1.0);
        let dcf = Matrix::zeros(2, 3);
        lstm.backward(&cache, &dh, Some((&dhf, &dcf)));
        assert!(lstm.grad_wx.frobenius_norm() > 0.0);
        assert!(lstm.grad_wh.frobenius_norm() > 0.0);
    }

    #[test]
    fn learns_to_remember_first_input() {
        // Task: output at the last step should match the first input bit —
        // requires carrying information across the sequence.
        let mut rng = seeded_rng(8);
        let mut lstm = Lstm::new(1, 8, &mut rng);
        let mut out = crate::dense::Dense::new(8, 1, &mut rng);
        let steps = 5;
        let mut final_loss = f32::INFINITY;
        for _ in 0..300 {
            // Batch of 8: first input ±1, later inputs noise.
            let first: Vec<f32> = (0..8)
                .map(|i| if i % 2 == 0 { 1.0 } else { -1.0 })
                .collect();
            let mut xs: Vec<Matrix> = Vec::new();
            xs.push(Matrix::from_vec(8, 1, first.clone()).unwrap());
            for _ in 1..steps {
                xs.push(init::uniform(8, 1, -0.3, 0.3, &mut rng));
            }
            let cache = lstm.forward(&xs);
            let y = out.forward(cache.final_h());
            let target = Matrix::from_vec(8, 1, first).unwrap();
            let diff = y.sub(&target);
            final_loss = diff.as_slice().iter().map(|v| v * v).sum::<f32>() / 8.0;
            let dh_last = out.backward(cache.final_h(), &diff);
            let mut dh = vec![Matrix::zeros(0, 0); steps];
            dh[steps - 1] = dh_last;
            lstm.backward(&cache, &dh, None);
            lstm.apply_grads(0.01, 1.0 / 8.0);
            out.apply_grads(0.01, 1.0 / 8.0);
        }
        assert!(final_loss < 0.05, "memory task loss {final_loss}");
    }

    #[test]
    fn forward_from_respects_initial_state() {
        let mut rng = seeded_rng(9);
        let lstm = Lstm::new(2, 3, &mut rng);
        let xs = sequence(&mut rng, 2, 1, 2);
        let zero = lstm.forward(&xs);
        let h0 = Matrix::full(1, 3, 0.9);
        let c0 = Matrix::full(1, 3, 0.9);
        let warm = lstm.forward_from(&xs, h0, c0);
        assert!(
            !zero.hs[0].approx_eq(&warm.hs[0], 1e-6),
            "initial state must matter"
        );
    }
}
