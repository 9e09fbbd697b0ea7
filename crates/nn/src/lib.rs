//! # deepbase-nn
//!
//! Trainable neural-network substrate for the DeepBase reproduction — the
//! role Keras/TensorFlow/PyTorch play in the paper, built from scratch on
//! `deepbase-tensor`.
//!
//! * `adam` — Adam optimizer state per parameter matrix.
//! * `dense` — fully-connected layer with exact backward.
//! * `lstm` ([`Lstm`]) — LSTM layer with full back-propagation through
//!   time, and the inference forward whose hidden states are the unit
//!   behaviors DeepBase inspects.
//! * `embedding` — token embeddings and one-hot encoding.
//! * `charmodel` ([`CharLstmModel`]) — the SQL auto-completion char-RNN
//!   (paper §2.1) and the Appendix C specialization training mode
//!   (auxiliary unit loss).
//! * `seq2seq` ([`Seq2Seq`]) — two-layer encoder–decoder with dot-product
//!   attention, the OpenNMT stand-in of §6.3, exposing its encoder
//!   activations.
//! * `conv` ([`SmallCnn`], [`Tensor3`]) — Conv2d/ReLU/MaxPool volumes and a
//!   small CNN classifier for the NetDissect comparison (Appendix E).
//!
//! Each model family has **two forwards**. The *training* forward
//! ([`Lstm::forward`], [`CharLstmModel::run`], `Conv2d::forward` +
//! `relu_volume` + `maxpool2`) retains what its backward pass consumes and
//! serves `train_*` and the prediction heads. The *inference* forward
//! ([`Lstm::forward_infer`]; for the CNN, one private channels-last conv
//! kernel that accumulates eight output channels per register tile, see
//! the `conv` module) retains nothing and serves every extraction entry
//! point — [`CharLstmModel::extract_activations`] /
//! [`CharLstmModel::extract_units`], [`Seq2Seq::encoder_activations_all`],
//! [`SmallCnn::unit_maps`] / [`SmallCnn::unit_pixels`] /
//! [`SmallCnn::unit_pixels_batch`]. The two agree bit for bit (same
//! operations, same order, per element — the layout and the grouping of
//! the work may differ, the sequence of additions into each output may
//! not): the behavior store keys columns by a model's weights, so a column
//! written by either must be readable as the other's output. The parity
//! proptests in `tests/proptests.rs` and in the `seq2seq` / `conv` module
//! tests are that contract; run them with `--release` too.
//!
//! Every layer's backward pass is verified against finite differences in
//! its module tests; training loops are deterministic given a seed.

mod adam;
mod charmodel;
mod conv;
mod dense;
mod embedding;
mod lstm;
mod seq2seq;

pub use charmodel::{train_epoch_last, CharLstmModel, OutputMode, Specialization};
pub use conv::{SmallCnn, Tensor3};
pub use embedding::one_hot_batch;
pub use lstm::Lstm;
pub use seq2seq::Seq2Seq;

/// Shared by the in-module parity proptests (`tests/proptests.rs` keeps its
/// own copy: an integration test sees only the public API).
#[cfg(test)]
pub(crate) mod parity {
    use deepbase_tensor::Matrix;

    /// Weights that separate "the same sum" from "almost the same sum":
    /// signed zeros, denormals, the smallest normal, and magnitudes whose
    /// sums over the small widths tested stay finite.
    pub const SPECIAL_WEIGHTS: [f32; 8] = [
        -0.0,
        0.0,
        1e-40,
        -3e-42,
        f32::MIN_POSITIVE,
        1e30,
        -1e30,
        -5.0,
    ];

    /// Overwrites entries of `m` with special weights: `(position, which)`.
    pub fn plant(m: &mut Matrix, specials: &[(usize, usize)]) {
        let len = m.len();
        for &(pos, which) in specials {
            m.as_mut_slice()[pos % len] = SPECIAL_WEIGHTS[which];
        }
    }

    pub fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }
}
