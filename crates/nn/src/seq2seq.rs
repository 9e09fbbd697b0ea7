//! Sequence-to-sequence encoder–decoder with dot-product attention: the
//! stand-in for the OpenNMT English→German model of paper §6.3.
//!
//! The architecture mirrors the paper's description: two LSTM layers in
//! the encoder, two in the decoder, plus an attention module on the
//! decoder (Luong-style dot-product attention over the top encoder layer).
//! DeepBase's NMT analyses probe the *encoder* hidden states, which
//! [`Seq2Seq::encoder_activations_all`] exposes, both layers side by side.

use crate::dense::Dense;
use crate::embedding::Embedding;
use crate::lstm::{Lstm, LstmCache};
use deepbase_tensor::{init, ops, Matrix};
use serde::{Deserialize, Serialize};

/// Encoder–decoder translation model (trained one sentence pair at a time,
/// which suits the short synthetic corpus).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Seq2Seq {
    hidden: usize,
    /// Construction-time metadata, retained for future serialization.
    #[allow(dead_code)]
    emb_dim: usize,
    /// Construction-time metadata, retained for future serialization.
    #[allow(dead_code)]
    tgt_vocab: usize,
    src_emb: Embedding,
    tgt_emb: Embedding,
    enc1: Lstm,
    enc2: Lstm,
    dec1: Lstm,
    dec2: Lstm,
    /// Combines `[h_t | context]` into the attentional hidden state.
    attn_combine: Dense,
    out: Dense,
}

/// Beginning-of-sequence id fed to the decoder (matches
/// `deepbase_lang::corpus::BOS_ID`).
pub(crate) const BOS: u32 = 1;
/// End-of-sequence id (matches `deepbase_lang::corpus::EOS_ID`).
pub(crate) const EOS: u32 = 2;

impl Seq2Seq {
    /// Creates a model. `hidden` is the per-layer unit count the paper's
    /// probes inspect (500 in the paper; scale down for experiments).
    pub fn new(
        src_vocab: usize,
        tgt_vocab: usize,
        emb_dim: usize,
        hidden: usize,
        seed: u64,
    ) -> Self {
        let mut rng = init::seeded_rng(seed);
        Seq2Seq {
            hidden,
            emb_dim,
            tgt_vocab,
            src_emb: Embedding::new(src_vocab, emb_dim, &mut rng),
            tgt_emb: Embedding::new(tgt_vocab, emb_dim, &mut rng),
            enc1: Lstm::new(emb_dim, hidden, &mut rng),
            enc2: Lstm::new(hidden, hidden, &mut rng),
            dec1: Lstm::new(emb_dim, hidden, &mut rng),
            dec2: Lstm::new(hidden, hidden, &mut rng),
            attn_combine: Dense::new(2 * hidden, hidden, &mut rng),
            out: Dense::new(hidden, tgt_vocab, &mut rng),
        }
    }

    /// Hidden width per layer.
    pub fn hidden(&self) -> usize {
        self.hidden
    }

    /// Training forward of the encoder stack, returning both layer caches
    /// (for `train_pair` and the decoding heads).
    fn encode(&self, src: &[u32]) -> (LstmCache, LstmCache) {
        let xs: Vec<Matrix> = src.iter().map(|&id| self.src_emb.forward(&[id])).collect();
        let enc1 = self.enc1.forward(&xs);
        let enc2 = self.enc2.forward(&enc1.hs);
        (enc1, enc2)
    }

    /// Inference forward of the encoder stack: both layers step in
    /// lockstep, layer 1 reading layer 0's `h_t` from its state buffer,
    /// and `emit(t, h0_t, h1_t)` sees each step's two hidden rows.
    fn encode_infer(&self, src: &[u32], mut emit: impl FnMut(usize, &[f32], &[f32])) {
        let mut l0 = self.enc1.forward_infer(1);
        let mut l1 = self.enc2.forward_infer(1);
        let mut x = Matrix::zeros(1, self.src_emb.dim());
        for (t, &id) in src.iter().enumerate() {
            x.row_mut(0).copy_from_slice(self.src_emb.row(id));
            let h0 = l0.step_rows(&x);
            let h1 = l1.step_rows(h0);
            emit(t, h0.row(0), h1.row(0));
        }
    }

    /// Both encoder layers side by side (`src_len x 2*hidden`), the "all
    /// 1000 units" view of Fig. 12.
    pub fn encoder_activations_all(&self, src: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(src.len(), 2 * self.hidden);
        self.encode_infer(src, |t, h0, h1| {
            let (left, right) = out.row_mut(t).split_at_mut(h0.len());
            left.copy_from_slice(h0);
            right.copy_from_slice(h1);
        });
        out
    }

    /// One training step (teacher forcing) on a sentence pair; returns the
    /// mean cross-entropy per target token.
    pub fn train_pair(&mut self, src: &[u32], tgt: &[u32], lr: f32) -> f32 {
        assert!(!src.is_empty() && !tgt.is_empty(), "empty sentence");
        let (enc1, enc2) = self.encode(src);
        let src_len = src.len();
        let tgt_len = tgt.len();

        // Decoder inputs: BOS followed by all but the last target token.
        let dec_ids: Vec<u32> = std::iter::once(BOS)
            .chain(tgt.iter().copied().take(tgt_len - 1))
            .collect();
        let dec_xs: Vec<Matrix> = dec_ids
            .iter()
            .map(|&id| self.tgt_emb.forward(&[id]))
            .collect();
        let dec1 = self
            .dec1
            .forward_from(&dec_xs, enc1.final_h().clone(), enc1.final_c().clone());
        let dec2 = self
            .dec2
            .forward_from(&dec1.hs, enc2.final_h().clone(), enc2.final_c().clone());

        // Attention + output per decoder step, caching what backward needs.
        let mut total_loss = 0.0f32;
        let mut dh_dec2 = vec![Matrix::zeros(1, self.hidden); tgt_len];
        let mut denc2_hs = vec![Matrix::zeros(1, self.hidden); src_len];
        let inv_t = 1.0 / tgt_len as f32;

        for t in 0..tgt_len {
            let h_t = &dec2.hs[t];
            // Dot-product attention over the top encoder layer.
            let mut scores = vec![0.0f32; src_len];
            for (j, enc_h) in enc2.hs.iter().enumerate() {
                scores[j] = dot(h_t.row(0), enc_h.row(0));
            }
            let mut alpha = scores.clone();
            ops::softmax_slice(&mut alpha);
            let mut ctx = Matrix::zeros(1, self.hidden);
            for (j, enc_h) in enc2.hs.iter().enumerate() {
                ctx.add_scaled(enc_h, alpha[j]);
            }
            let concat = h_t.hstack(&ctx).expect("attention concat");
            let comb_pre = self.attn_combine.forward(&concat);
            let comb = comb_pre.map(f32::tanh);
            let logits = self.out.forward(&comb);
            let probs = ops::softmax_rows(&logits);
            let target = tgt[t] as usize;
            total_loss += -probs.get(0, target).max(1e-12).ln();

            // ---- backward through this step's head ----
            let mut dlogits = probs;
            let v = dlogits.get(0, target);
            dlogits.set(0, target, v - 1.0);
            dlogits.scale_inplace(inv_t);
            let dcomb = self.out.backward(&comb, &dlogits);
            let dcomb_pre = dcomb
                .zip_map(&comb, |d, c| d * (1.0 - c * c))
                .expect("tanh grad");
            let dconcat = self.attn_combine.backward(&concat, &dcomb_pre);
            let mut dh_t = Matrix::zeros(1, self.hidden);
            let mut dctx = Matrix::zeros(1, self.hidden);
            for k in 0..self.hidden {
                dh_t.set(0, k, dconcat.get(0, k));
                dctx.set(0, k, dconcat.get(0, self.hidden + k));
            }
            // ctx = sum_j alpha_j enc_j.
            let mut dalpha = vec![0.0f32; src_len];
            for (j, enc_h) in enc2.hs.iter().enumerate() {
                dalpha[j] = dot(dctx.row(0), enc_h.row(0));
                denc2_hs[j].add_scaled(&dctx, alpha[j]);
            }
            // Softmax backward: dscore_j = alpha_j (dalpha_j - sum_k alpha_k dalpha_k).
            let dot_ad: f32 = alpha.iter().zip(dalpha.iter()).map(|(a, d)| a * d).sum();
            for j in 0..src_len {
                let dscore = alpha[j] * (dalpha[j] - dot_ad);
                dh_t.add_scaled(&enc2.hs[j], dscore);
                denc2_hs[j].add_scaled(h_t, dscore);
            }
            dh_dec2[t] = dh_t;
        }

        // ---- backward through the recurrent stacks ----
        let (d_dec1_hs, dh0_dec2, dc0_dec2) = self.dec2.backward(&dec2, &dh_dec2, None);
        let (d_dec_xs, dh0_dec1, dc0_dec1) = self.dec1.backward(&dec1, &d_dec1_hs, None);
        for (t, dx) in d_dec_xs.iter().enumerate() {
            self.tgt_emb.backward(&[dec_ids[t]], dx);
        }
        // Decoder initial states came from encoder finals.
        let (d_enc1_hs, _, _) = self
            .enc2
            .backward(&enc2, &denc2_hs, Some((&dh0_dec2, &dc0_dec2)));
        let (d_src_xs, _, _) = self
            .enc1
            .backward(&enc1, &d_enc1_hs, Some((&dh0_dec1, &dc0_dec1)));
        for (t, dx) in d_src_xs.iter().enumerate() {
            self.src_emb.backward(&[src[t]], dx);
        }

        let scale = 1.0;
        self.src_emb.apply_grads(lr, scale);
        self.tgt_emb.apply_grads(lr, scale);
        self.enc1.apply_grads(lr, scale);
        self.enc2.apply_grads(lr, scale);
        self.dec1.apply_grads(lr, scale);
        self.dec2.apply_grads(lr, scale);
        self.attn_combine.apply_grads(lr, scale);
        self.out.apply_grads(lr, scale);

        total_loss * inv_t
    }

    /// Greedy decoding up to `max_len` tokens (stops at EOS).
    pub fn translate(&self, src: &[u32], max_len: usize) -> Vec<u32> {
        let (enc1, enc2) = self.encode(src);
        let mut h1 = enc1.final_h().clone();
        let mut c1 = enc1.final_c().clone();
        let mut h2 = enc2.final_h().clone();
        let mut c2 = enc2.final_c().clone();
        let mut output = Vec::new();
        let mut prev = BOS;
        for _ in 0..max_len {
            let x = self.tgt_emb.forward(&[prev]);
            let step1 = self.dec1.forward_from(&[x], h1, c1);
            let step2 = self.dec2.forward_from(&[step1.hs[0].clone()], h2, c2);
            let h_t = &step2.hs[0];
            // Attention, as in training.
            let mut scores: Vec<f32> = enc2.hs.iter().map(|e| dot(h_t.row(0), e.row(0))).collect();
            ops::softmax_slice(&mut scores);
            let mut ctx = Matrix::zeros(1, self.hidden);
            for (j, enc_h) in enc2.hs.iter().enumerate() {
                ctx.add_scaled(enc_h, scores[j]);
            }
            let concat = h_t.hstack(&ctx).expect("attention concat");
            let comb = self.attn_combine.forward(&concat).map(f32::tanh);
            let logits = self.out.forward(&comb);
            let next = logits.argmax_rows()[0] as u32;
            h1 = step1.final_h().clone();
            c1 = step1.final_c().clone();
            h2 = step2.final_h().clone();
            c2 = step2.final_c().clone();
            if next == EOS {
                break;
            }
            output.push(next);
            prev = next;
        }
        output
    }
}

fn dot(a: &[f32], b: &[f32]) -> f32 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parity::{bits, plant, SPECIAL_WEIGHTS};

    /// Tiny copy-ish corpus: target is source shifted by a fixed mapping.
    fn toy_pairs() -> Vec<(Vec<u32>, Vec<u32>)> {
        // Vocab: 0..10 (0=pad,1=bos,2=eos reserved); map token k -> k+1.
        (0..8)
            .map(|s| {
                let src: Vec<u32> = (0..4).map(|i| 4 + ((s + i) % 5) as u32).collect();
                let mut tgt: Vec<u32> = src.iter().map(|&t| t + 1).collect();
                tgt.push(EOS);
                (src, tgt)
            })
            .collect()
    }

    #[test]
    fn encoder_activation_shapes() {
        let model = Seq2Seq::new(12, 12, 8, 6, 0);
        assert_eq!(model.encoder_activations_all(&[4, 5, 6]).shape(), (3, 12));
    }

    #[test]
    fn training_reduces_loss() {
        let mut model = Seq2Seq::new(12, 12, 8, 16, 1);
        let pairs = toy_pairs();
        let epoch_loss = |model: &mut Seq2Seq| {
            let total: f32 = pairs
                .iter()
                .map(|(s, t)| model.train_pair(s, t, 0.01))
                .sum();
            total / pairs.len() as f32
        };
        let first = epoch_loss(&mut model);
        let mut last = first;
        for _ in 1..60 {
            last = epoch_loss(&mut model);
        }
        assert!(last < first * 0.5, "loss {first} -> {last}");
    }

    #[test]
    fn learns_token_mapping() {
        let mut model = Seq2Seq::new(12, 12, 8, 16, 2);
        let pairs = toy_pairs();
        for _ in 0..150 {
            for (s, t) in &pairs {
                model.train_pair(s, t, 0.01);
            }
        }
        // Greedy decode of a training pair should reproduce the target.
        let (src, tgt) = &pairs[0];
        let hyp = model.translate(src, 10);
        let expect: Vec<u32> = tgt.iter().copied().filter(|&t| t != EOS).collect();
        let correct = hyp
            .iter()
            .zip(expect.iter())
            .filter(|(a, b)| a == b)
            .count();
        assert!(
            correct * 2 >= expect.len(),
            "decode {hyp:?} vs {expect:?} ({correct} correct)"
        );
    }

    #[test]
    fn translate_stops_at_eos_or_limit() {
        let model = Seq2Seq::new(12, 12, 4, 4, 3);
        let out = model.translate(&[4, 5], 7);
        assert!(out.len() <= 7);
        assert!(out.iter().all(|&t| t != EOS));
    }

    #[test]
    fn trained_and_untrained_activations_differ() {
        let mut trained = Seq2Seq::new(12, 12, 8, 8, 4);
        let untrained = Seq2Seq::new(12, 12, 8, 8, 4);
        for _ in 0..20 {
            for (s, t) in &toy_pairs() {
                trained.train_pair(s, t, 0.02);
            }
        }
        let src = vec![4u32, 5, 6];
        let a = trained.encoder_activations_all(&src);
        let b = untrained.encoder_activations_all(&src);
        assert!(
            !a.approx_eq(&b, 1e-3),
            "training must change encoder activations"
        );
    }

    /// The training forward's encoder states, stacked `src_len x hidden`
    /// per layer — the reference the inference forward must reproduce.
    fn training_encoder_activations(model: &Seq2Seq, src: &[u32]) -> (Matrix, Matrix) {
        let stack = |hs: &[Matrix]| {
            let mut out = Matrix::zeros(hs.len(), model.hidden);
            for (t, h) in hs.iter().enumerate() {
                out.row_mut(t).copy_from_slice(h.row(0));
            }
            out
        };
        let (enc1, enc2) = model.encode(src);
        (stack(&enc1.hs), stack(&enc2.hs))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Parity is the contract, one for all three families: the
        /// inference forward reproduces the training forward bit for bit
        /// — on one-token sentences, on sentences that carry their
        /// padding (id 0) and on ids past the vocabulary, with
        /// signed-zero, denormal and huge weights.
        #[test]
        fn encoder_inference_is_the_training_forward(
            seed in 0u64..10_000,
            hidden in 1usize..8,
            emb_dim in 1usize..7,
            body in proptest::collection::vec(0u32..16, 1..9),
            padding in 0usize..4,
            specials in proptest::collection::vec(
                (0usize..10_000, 0usize..SPECIAL_WEIGHTS.len()),
                0..24,
            ),
        ) {
            let mut model = Seq2Seq::new(12, 12, emb_dim, hidden, seed);
            for layer in [&mut model.enc1, &mut model.enc2] {
                plant(layer.wx_mut(), &specials);
                plant(layer.wh_mut(), &specials);
            }
            let mut src = body;
            src.resize(src.len() + padding, 0);
            let (t0, t1) = training_encoder_activations(&model, &src);
            let all = model.encoder_activations_all(&src);
            proptest::prop_assert_eq!(all.shape(), (src.len(), 2 * hidden));
            for t in 0..src.len() {
                let (left, right) = all.row(t).split_at(hidden);
                proptest::prop_assert_eq!(bits(left), bits(t0.row(t)));
                proptest::prop_assert_eq!(bits(right), bits(t1.row(t)));
            }
        }
    }

    #[test]
    fn an_empty_sentence_has_no_rows() {
        let model = Seq2Seq::new(10, 10, 4, 3, 5);
        assert_eq!(model.encoder_activations_all(&[]).shape(), (0, 6));
    }

    #[test]
    fn deterministic_construction() {
        let a = Seq2Seq::new(10, 10, 4, 4, 7);
        let b = Seq2Seq::new(10, 10, 4, 4, 7);
        let src = vec![3u32, 4];
        assert_eq!(
            a.encoder_activations_all(&src).as_slice(),
            b.encoder_activations_all(&src).as_slice()
        );
    }
}
