//! The character-level recurrent language model of the paper's running
//! example (§2.1): a one-hot input layer, one LSTM layer, and a dense
//! softmax output that predicts the next character of a fixed-length
//! window. Also implements the Appendix C *specialized* training mode,
//! where an auxiliary loss forces a chosen subset of hidden units to track
//! a hypothesis behavior (`loss = w * aux + (1 - w) * task`).

use crate::dense::Dense;
use crate::embedding::one_hot_batch;
use crate::lstm::{Lstm, LstmCache};
use deepbase_tensor::{init, ops, Matrix};
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};

/// Where the prediction loss applies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum OutputMode {
    /// Predict a single next character from the final hidden state (the
    /// SQL auto-completion setup: window in, next char out).
    LastStep,
    /// Predict the next character at every position (char-level LM, used
    /// by the Appendix C parentheses model).
    EveryStep,
}

/// The char-RNN model.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CharLstmModel {
    vocab_size: usize,
    hidden: usize,
    mode: OutputMode,
    lstm: Lstm,
    out: Dense,
}

/// Auxiliary-loss specification for Appendix C unit specialization.
#[derive(Debug, Clone)]
pub struct Specialization {
    /// Indices of the specialized hidden units `S ⊆ M`.
    pub units: Vec<usize>,
    /// Mixing weight `w` of the auxiliary loss (0 = pure task loss).
    pub weight: f32,
}

impl CharLstmModel {
    /// Creates a model with the given vocabulary and hidden width.
    pub fn new(vocab_size: usize, hidden: usize, mode: OutputMode, seed: u64) -> Self {
        let mut rng = init::seeded_rng(seed);
        CharLstmModel {
            vocab_size,
            hidden,
            mode,
            lstm: Lstm::new(vocab_size, hidden, &mut rng),
            out: Dense::new(hidden, vocab_size, &mut rng),
        }
    }

    /// Hidden width (number of inspectable units).
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Vocabulary size.
    pub fn vocab_size(&self) -> usize {
        self.vocab_size
    }

    /// Output mode.
    pub fn mode(&self) -> OutputMode {
        self.mode
    }

    /// Visits every trainable parameter matrix in a fixed order (LSTM
    /// projections and bias, then the output layer). Used to fingerprint
    /// the model's weights for the persistent behavior store: two models
    /// visit identical sequences iff their parameters are bit-identical.
    pub fn visit_params(&self, mut f: impl FnMut(&Matrix)) {
        for m in self.lstm.params() {
            f(m);
        }
        f(self.out.weights());
        f(self.out.bias());
    }

    /// Training forward of the recurrent stack over a batch of equal-length
    /// id sequences, returning the cache [`Lstm::backward`] consumes (for
    /// `train_*` and the prediction heads; extraction goes through
    /// [`Self::extract_units`]).
    pub fn run(&self, inputs: &[Vec<u32>]) -> LstmCache {
        let steps = inputs.first().map(|s| s.len()).unwrap_or(0);
        debug_assert!(inputs.iter().all(|s| s.len() == steps), "ragged batch");
        let xs: Vec<Matrix> = (0..steps)
            .map(|t| {
                let ids: Vec<u32> = inputs.iter().map(|s| s[t]).collect();
                one_hot_batch(&ids, self.vocab_size)
            })
            .collect();
        self.lstm.forward(&xs)
    }

    /// Hidden-unit activations for a batch, flattened record-major:
    /// row `r * steps + t` holds the activations of record `r` at symbol
    /// `t`. This is the `|D|·ns x |U|` behavior matrix of paper §5.1.2.
    pub fn extract_activations<S: AsRef<[u32]>>(&self, inputs: &[S]) -> Matrix {
        self.extract_rows(inputs, self.hidden, |dst, h| dst.copy_from_slice(h))
    }

    /// [`Self::extract_activations`] restricted to the columns `unit_ids`
    /// (in that order): the inference forward writes only those from its
    /// state buffer.
    pub fn extract_units<S: AsRef<[u32]>>(&self, inputs: &[S], unit_ids: &[usize]) -> Matrix {
        self.extract_rows(inputs, unit_ids.len(), |dst, h| {
            for (d, &u) in dst.iter_mut().zip(unit_ids) {
                *d = h[u];
            }
        })
    }

    /// Runs the inference forward over equal-length id sequences and lets
    /// `write(dst, h)` fill each `width`-wide record-major output row from
    /// that record's `h_t`.
    fn extract_rows<S: AsRef<[u32]>>(
        &self,
        inputs: &[S],
        width: usize,
        write: impl Fn(&mut [f32], &[f32]),
    ) -> Matrix {
        let steps = inputs.first().map_or(0, |s| s.as_ref().len());
        for (r, s) in inputs.iter().enumerate() {
            // A longer record would be silently cut to record 0's length
            // and its rows would stop lining up with `ns`.
            assert!(
                s.as_ref().len() == steps,
                "ragged batch: record {r} has {} symbols, record 0 has {steps}",
                s.as_ref().len()
            );
        }
        let mut out = Matrix::zeros(inputs.len() * steps, width);
        let mut state = self.lstm.forward_infer(inputs.len());
        for t in 0..steps {
            let h = state.step_ids(|r| inputs[r].as_ref()[t]);
            for r in 0..inputs.len() {
                write(out.row_mut(r * steps + t), h.row(r));
            }
        }
        out
    }

    /// Next-character distribution for one input window.
    pub fn predict_proba(&self, input: &[u32]) -> Vec<f32> {
        let cache = self.run(&[input.to_vec()]);
        let logits = self.out.forward(cache.final_h());
        ops::softmax_rows(&logits).row(0).to_vec()
    }

    /// Greedy next-character prediction.
    pub fn predict(&self, input: &[u32]) -> u32 {
        let proba = self.predict_proba(input);
        proba
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i as u32)
            .unwrap_or(0)
    }

    /// Classification accuracy on `(window, next_char)` pairs
    /// ([`OutputMode::LastStep`] semantics).
    pub fn accuracy(&self, inputs: &[Vec<u32>], targets: &[u32]) -> f32 {
        assert_eq!(inputs.len(), targets.len());
        if inputs.is_empty() {
            return 0.0;
        }
        let mut correct = 0usize;
        for chunk_start in (0..inputs.len()).step_by(256) {
            let end = (chunk_start + 256).min(inputs.len());
            let cache = self.run(&inputs[chunk_start..end]);
            let logits = self.out.forward(cache.final_h());
            let preds = logits.argmax_rows();
            for (p, &t) in preds.iter().zip(&targets[chunk_start..end]) {
                if *p == t as usize {
                    correct += 1;
                }
            }
        }
        correct as f32 / inputs.len() as f32
    }

    /// One gradient step on a [`OutputMode::LastStep`] batch; returns the
    /// mean cross-entropy loss.
    pub fn train_batch_last(&mut self, inputs: &[Vec<u32>], targets: &[u32], lr: f32) -> f32 {
        assert_eq!(self.mode, OutputMode::LastStep, "wrong output mode");
        assert_eq!(inputs.len(), targets.len());
        let batch = inputs.len();
        let steps = inputs[0].len();
        let cache = self.run(inputs);
        let logits = self.out.forward(cache.final_h());
        let probs = ops::softmax_rows(&logits);
        let target_idx: Vec<usize> = targets.iter().map(|&t| t as usize).collect();
        let loss = ops::cross_entropy_rows(&probs, &target_idx);

        let mut dlogits = probs;
        for (r, &t) in target_idx.iter().enumerate() {
            let v = dlogits.get(r, t);
            dlogits.set(r, t, v - 1.0);
        }
        let dh_last = self.out.backward(cache.final_h(), &dlogits);
        let mut dh = vec![Matrix::zeros(0, 0); steps];
        dh[steps - 1] = dh_last;
        self.lstm.backward(&cache, &dh, None);
        let scale = 1.0 / batch as f32;
        self.lstm.apply_grads(lr, scale);
        self.out.apply_grads(lr, scale);
        loss
    }

    /// One gradient step on an [`OutputMode::EveryStep`] batch, optionally
    /// with Appendix C specialization. `aux_targets[r][t]` is the
    /// hypothesis behavior the specialized units should emit. Returns the
    /// mean combined loss.
    pub fn train_batch_every(
        &mut self,
        inputs: &[Vec<u32>],
        targets: &[Vec<u32>],
        specialization: Option<(&Specialization, &[Vec<f32>])>,
        lr: f32,
    ) -> f32 {
        assert_eq!(self.mode, OutputMode::EveryStep, "wrong output mode");
        assert_eq!(inputs.len(), targets.len());
        let batch = inputs.len();
        let steps = inputs[0].len();
        let cache = self.run(inputs);

        let (task_w, aux_w) = match &specialization {
            Some((spec, _)) => (1.0 - spec.weight, spec.weight),
            None => (1.0, 0.0),
        };

        let mut total_loss = 0.0f32;
        let mut dh: Vec<Matrix> = Vec::with_capacity(steps);
        for t in 0..steps {
            let h = &cache.hs[t];
            let logits = self.out.forward(h);
            let probs = ops::softmax_rows(&logits);
            let target_idx: Vec<usize> = targets.iter().map(|s| s[t] as usize).collect();
            total_loss += task_w * ops::cross_entropy_rows(&probs, &target_idx);

            let mut dlogits = probs;
            for (r, &tt) in target_idx.iter().enumerate() {
                let v = dlogits.get(r, tt);
                dlogits.set(r, tt, v - 1.0);
            }
            dlogits.scale_inplace(task_w / steps as f32);
            let mut dh_t = self.out.backward(h, &dlogits);

            // Auxiliary specialization loss: MSE between the chosen units'
            // activations and the hypothesis behavior at this symbol.
            // Gradients here are per-example sums; apply_grads divides by
            // the batch size, completing the mean.
            if let Some((spec, aux)) = &specialization {
                let denom = (steps * spec.units.len().max(1)) as f32;
                for r in 0..batch {
                    let b_target = aux[r][t];
                    for &u in &spec.units {
                        let diff = h.get(r, u) - b_target;
                        total_loss += aux_w * diff * diff / (denom * batch as f32);
                        let v = dh_t.get(r, u);
                        dh_t.set(r, u, v + aux_w * 2.0 * diff / denom);
                    }
                }
            }
            dh.push(dh_t);
        }

        self.lstm.backward(&cache, &dh, None);
        let scale = 1.0 / batch as f32;
        self.lstm.apply_grads(lr, scale);
        self.out.apply_grads(lr, scale);
        total_loss
    }

    /// Per-position prediction accuracy for [`OutputMode::EveryStep`].
    pub fn accuracy_every(&self, inputs: &[Vec<u32>], targets: &[Vec<u32>]) -> f32 {
        let cache = self.run(inputs);
        let mut correct = 0usize;
        let mut total = 0usize;
        for (t, h) in cache.hs.iter().enumerate() {
            let preds = self.out.forward(h).argmax_rows();
            for (r, &p) in preds.iter().enumerate() {
                if p == targets[r][t] as usize {
                    correct += 1;
                }
                total += 1;
            }
        }
        if total == 0 {
            0.0
        } else {
            correct as f32 / total as f32
        }
    }
}

/// One epoch of mini-batch training for `LastStep` examples; returns the
/// mean batch loss. Shuffling is seeded for reproducibility.
pub fn train_epoch_last(
    model: &mut CharLstmModel,
    inputs: &[Vec<u32>],
    targets: &[u32],
    batch_size: usize,
    lr: f32,
    seed: u64,
) -> f32 {
    let mut order: Vec<usize> = (0..inputs.len()).collect();
    let mut rng = init::seeded_rng(seed);
    order.shuffle(&mut rng);
    let mut losses = Vec::new();
    for chunk in order.chunks(batch_size.max(1)) {
        let xb: Vec<Vec<u32>> = chunk.iter().map(|&i| inputs[i].clone()).collect();
        let yb: Vec<u32> = chunk.iter().map(|&i| targets[i]).collect();
        losses.push(model.train_batch_last(&xb, &yb, lr));
    }
    if losses.is_empty() {
        0.0
    } else {
        losses.iter().sum::<f32>() / losses.len() as f32
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Tiny deterministic task: next char of a repeating "abcabc..." string.
    fn cyclic_dataset(n: usize, len: usize) -> (Vec<Vec<u32>>, Vec<u32>) {
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        for start in 0..n {
            let seq: Vec<u32> = (0..len).map(|i| ((start + i) % 3) as u32).collect();
            let target = ((start + len) % 3) as u32;
            inputs.push(seq);
            targets.push(target);
        }
        (inputs, targets)
    }

    #[test]
    fn extract_activations_is_record_major() {
        let model = CharLstmModel::new(3, 4, OutputMode::LastStep, 0);
        let inputs = vec![vec![0u32, 1, 2], vec![2u32, 1, 0]];
        let acts = model.extract_activations(&inputs);
        assert_eq!(acts.shape(), (6, 4));
        // Row 0..3 = record 0 steps 0..3; compare with direct run.
        let cache = model.run(&inputs);
        assert_eq!(acts.row(0), cache.hs[0].row(0));
        assert_eq!(acts.row(1), cache.hs[1].row(0));
        assert_eq!(acts.row(3), cache.hs[0].row(1));
    }

    #[test]
    fn extract_units_selects_columns_in_request_order() {
        let model = CharLstmModel::new(3, 5, OutputMode::LastStep, 6);
        let inputs = [[0u32, 1, 2, 1], [2, 2, 0, 1]];
        let all = model.extract_activations(&inputs);
        let some = model.extract_units(&inputs, &[4, 0, 4]);
        assert_eq!(some.shape(), (8, 3));
        for r in 0..8 {
            let row = all.row(r);
            assert_eq!(some.row(r), &[row[4], row[0], row[4]]);
        }
        assert_eq!(model.extract_units(&inputs, &[]).shape(), (8, 0));
    }

    #[test]
    #[should_panic(expected = "ragged batch: record 1 has 3 symbols, record 0 has 2")]
    fn ragged_batch_is_refused_in_every_build() {
        let model = CharLstmModel::new(3, 4, OutputMode::LastStep, 7);
        model.extract_activations(&[vec![0u32, 1], vec![2u32, 1, 0]]);
    }

    #[test]
    fn learns_cyclic_next_char() {
        let (inputs, targets) = cyclic_dataset(30, 6);
        let mut model = CharLstmModel::new(3, 12, OutputMode::LastStep, 1);
        let before = model.accuracy(&inputs, &targets);
        for epoch in 0..40 {
            train_epoch_last(&mut model, &inputs, &targets, 10, 0.02, epoch as u64);
        }
        let after = model.accuracy(&inputs, &targets);
        assert!(after > 0.95, "accuracy {before} -> {after}");
    }

    #[test]
    fn loss_decreases_under_training() {
        let (inputs, targets) = cyclic_dataset(24, 5);
        let mut model = CharLstmModel::new(3, 8, OutputMode::LastStep, 2);
        let first = model.train_batch_last(&inputs, &targets, 0.02);
        let mut last = first;
        for _ in 0..30 {
            last = model.train_batch_last(&inputs, &targets, 0.02);
        }
        assert!(last < first, "loss {first} -> {last}");
    }

    #[test]
    fn every_step_mode_learns_language_model() {
        // Predict next char of "010101..." at every position.
        let inputs: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..8).map(|i| ((s + i) % 2) as u32).collect())
            .collect();
        let targets: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..8).map(|i| ((s + i + 1) % 2) as u32).collect())
            .collect();
        let mut model = CharLstmModel::new(2, 8, OutputMode::EveryStep, 3);
        for _ in 0..60 {
            model.train_batch_every(&inputs, &targets, None, 0.02);
        }
        assert!(model.accuracy_every(&inputs, &targets) > 0.95);
    }

    #[test]
    fn specialization_forces_units_toward_hypothesis() {
        // Aux target: 1 when current char is '1' (id 1), else 0. With a
        // large weight, the specialized unit's activation must correlate
        // strongly with the behavior.
        let inputs: Vec<Vec<u32>> = (0..16)
            .map(|s| (0..8).map(|i| (((s * 7 + i * 3) / 2) % 2) as u32).collect())
            .collect();
        let targets: Vec<Vec<u32>> = inputs
            .iter()
            .map(|seq| {
                let mut t: Vec<u32> = seq[1..].to_vec();
                t.push(0);
                t
            })
            .collect();
        let aux: Vec<Vec<f32>> = inputs
            .iter()
            .map(|seq| {
                seq.iter()
                    .map(|&c| if c == 1 { 1.0 } else { 0.0 })
                    .collect()
            })
            .collect();
        let spec = Specialization {
            units: vec![0],
            weight: 0.9,
        };
        let mut model = CharLstmModel::new(2, 8, OutputMode::EveryStep, 4);
        for _ in 0..150 {
            model.train_batch_every(&inputs, &targets, Some((&spec, &aux)), 0.05);
        }
        // Collect unit-0 activations and the aux behavior; correlate.
        let acts = model.extract_activations(&inputs);
        let unit0: Vec<f32> = acts.col(0);
        let behavior: Vec<f32> = aux.iter().flat_map(|b| b.iter().copied()).collect();
        let r = deepbase_stats::pearson(&unit0, &behavior);
        assert!(r > 0.8, "specialized unit correlation {r}");
    }

    #[test]
    fn predict_returns_valid_symbol() {
        let model = CharLstmModel::new(5, 4, OutputMode::LastStep, 5);
        let p = model.predict(&[0, 1, 2, 3]);
        assert!(p < 5);
        let proba = model.predict_proba(&[0, 1, 2, 3]);
        assert_eq!(proba.len(), 5);
        assert!((proba.iter().sum::<f32>() - 1.0).abs() < 1e-4);
    }

    #[test]
    fn untrained_models_with_same_seed_agree() {
        let a = CharLstmModel::new(4, 6, OutputMode::LastStep, 9);
        let b = CharLstmModel::new(4, 6, OutputMode::LastStep, 9);
        let input = vec![vec![1u32, 2, 3]];
        assert_eq!(a.extract_activations(&input), b.extract_activations(&input));
    }
}
