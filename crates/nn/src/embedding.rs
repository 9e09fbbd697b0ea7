//! Token-embedding layer (gather forward, scatter-add backward), used by
//! the word-level seq2seq models of §6.3. The char-level models feed
//! one-hot inputs directly, for which [`one_hot_batch`] is provided.

use crate::adam::Adam;
use deepbase_tensor::{init, Matrix};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// Embedding table `V x D`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedding {
    table: Matrix,
    adam: Adam,
    grad: Matrix,
}

impl Embedding {
    /// Creates a table with small-normal initialization.
    pub fn new(vocab: usize, dim: usize, rng: &mut impl Rng) -> Self {
        Embedding {
            table: init::normal(vocab, dim, 0.1, rng),
            adam: Adam::new(vocab, dim),
            grad: Matrix::zeros(vocab, dim),
        }
    }

    /// Embedding dimension.
    pub fn dim(&self) -> usize {
        self.table.cols()
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// The embedding of one token id (ids past the vocabulary clamp to
    /// its last entry).
    pub fn row(&self, id: u32) -> &[f32] {
        self.table.row((id as usize).min(self.vocab() - 1))
    }

    /// Looks up a batch of token ids, producing `B x D`.
    pub fn forward(&self, ids: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(ids.len(), self.dim());
        for (r, &id) in ids.iter().enumerate() {
            out.row_mut(r).copy_from_slice(self.row(id));
        }
        out
    }

    /// Scatter-adds `dout` rows into the gradient of the looked-up ids.
    pub fn backward(&mut self, ids: &[u32], dout: &Matrix) {
        assert_eq!(ids.len(), dout.rows(), "embedding backward batch mismatch");
        for (r, &id) in ids.iter().enumerate() {
            let id = (id as usize).min(self.vocab() - 1);
            let src = dout.row(r);
            let dst = self.grad.row_mut(id);
            for (d, s) in dst.iter_mut().zip(src.iter()) {
                *d += s;
            }
        }
    }

    /// Applies accumulated gradients with Adam and clears them.
    pub fn apply_grads(&mut self, lr: f32, scale: f32) {
        self.grad.scale_inplace(scale);
        self.adam.step(&mut self.table, &self.grad, lr);
        self.grad.scale_inplace(0.0);
    }
}

/// Builds a one-hot `B x V` matrix from token ids (char-model input layer).
pub fn one_hot_batch(ids: &[u32], vocab: usize) -> Matrix {
    let mut out = Matrix::zeros(ids.len(), vocab);
    for (r, &id) in ids.iter().enumerate() {
        let id = (id as usize).min(vocab.saturating_sub(1));
        out.set(r, id, 1.0);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_tensor::init::seeded_rng;

    #[test]
    fn forward_gathers_rows() {
        let mut rng = seeded_rng(1);
        let emb = Embedding::new(5, 3, &mut rng);
        let out = emb.forward(&[2, 0, 2]);
        assert_eq!(out.row(0), emb.table.row(2));
        assert_eq!(out.row(1), emb.table.row(0));
        assert_eq!(out.row(0), out.row(2));
    }

    #[test]
    fn out_of_range_ids_clamp() {
        let mut rng = seeded_rng(2);
        let emb = Embedding::new(3, 2, &mut rng);
        let out = emb.forward(&[99]);
        assert_eq!(out.row(0), emb.table.row(2));
    }

    #[test]
    fn backward_scatter_adds() {
        let mut rng = seeded_rng(3);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let dout = Matrix::from_vec(3, 2, vec![1.0, 1.0, 2.0, 2.0, 3.0, 3.0]).unwrap();
        emb.backward(&[1, 1, 3], &dout);
        assert_eq!(emb.grad.row(1), &[3.0, 3.0]); // rows 0 and 1 summed
        assert_eq!(emb.grad.row(3), &[3.0, 3.0]);
        assert_eq!(emb.grad.row(0), &[0.0, 0.0]);
    }

    #[test]
    fn training_moves_used_embeddings_only() {
        let mut rng = seeded_rng(4);
        let mut emb = Embedding::new(4, 2, &mut rng);
        let before = emb.table.clone();
        let dout = Matrix::full(1, 2, 1.0);
        emb.backward(&[2], &dout);
        emb.apply_grads(0.1, 1.0);
        assert_ne!(emb.table.row(2), before.row(2));
        assert_eq!(emb.table.row(0), before.row(0));
    }

    #[test]
    fn one_hot_layout() {
        let m = one_hot_batch(&[1, 0, 2], 3);
        assert_eq!(m.row(0), &[0.0, 1.0, 0.0]);
        assert_eq!(m.row(1), &[1.0, 0.0, 0.0]);
        assert_eq!(m.row(2), &[0.0, 0.0, 1.0]);
    }
}
