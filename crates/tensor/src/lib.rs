//! # deepbase-tensor
//!
//! Dense `f32` linear algebra substrate for the DeepBase reproduction.
//!
//! The DeepBase paper builds on NumPy/Keras for its numeric kernels; this
//! crate provides the equivalent foundation in pure Rust:
//!
//! * [`Matrix`] — row-major dense matrix with cache-blocked mat-mul
//!   kernels,
//! * [`activation`] — the one `tanh` / `sigmoid` kernel every model and
//!   probe calls: branch-free, with a vectorisable slice form, libm-free,
//!   and versioned, because its output bits key stored behaviors,
//! * [`ops`] — row-softmax and cross-entropy,
//! * [`init`] — deterministic, seedable weight initializers,
//! * [`simd`] and [`simd_kernel!`] — run-time dispatch of a hot kernel to
//!   its AVX2 copy. The mat-mul kernels, the slice activations and
//!   `deepbase-stats`' Pearson block kernel are each compiled twice, for
//!   baseline x86-64 and for AVX2, from one body, with bit-identical
//!   results; [`simd::path`] names the copy a process runs.
//!
//! Everything downstream (the `deepbase-nn` training substrate, merged
//! logistic-regression measures in `deepbase-stats`, the inspection engines
//! in `deepbase-core`) is built on these types.

pub mod activation;
pub mod init;
mod matrix;
pub mod ops;
pub mod simd;

pub use matrix::Matrix;
