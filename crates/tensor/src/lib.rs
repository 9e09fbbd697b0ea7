//! # deepbase-tensor
//!
//! Dense `f32` linear algebra substrate for the DeepBase reproduction.
//!
//! The DeepBase paper builds on NumPy/Keras for its numeric kernels; this
//! crate provides the equivalent foundation in pure Rust:
//!
//! * [`Matrix`] — row-major dense matrix with cache-friendly and parallel
//!   mat-mul kernels (the parallel path backs the reproduction's simulated
//!   GPU device),
//! * [`activation`] — the one `tanh` / `sigmoid` kernel every model and
//!   probe calls: branch-free, with a vectorisable slice form, libm-free,
//!   and versioned, because its output bits key stored behaviors,
//! * [`ops`] — row-softmax and cross-entropy,
//! * [`init`] — deterministic, seedable weight initializers.
//!
//! Everything downstream (the `deepbase-nn` training substrate, merged
//! logistic-regression measures in `deepbase-stats`, the inspection engines
//! in `deepbase-core`) is built on these types.

pub mod activation;
pub mod init;
mod matrix;
pub mod ops;

pub use matrix::Matrix;
