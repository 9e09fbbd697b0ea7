//! # deepbase-tensor
//!
//! Dense `f32` linear algebra substrate for the DeepBase reproduction.
//!
//! The DeepBase paper builds on NumPy/Keras for its numeric kernels; this
//! crate provides the equivalent foundation in pure Rust:
//!
//! * [`Matrix`] — row-major dense matrix with cache-blocked mat-mul
//!   kernels,
//! * [`Columns`] — a borrowed unit-major block, one slice per column (the
//!   blocks the inspection engine streams), [`transpose_rows_into`],
//!   which fills a unit-major buffer from row-major rows, and
//!   [`transpose_columns_into`], which fills row-major rows from columns
//!   (`deepbase-stats`' Pearson block kernel loads its tiles with it),
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
mod columns;
pub mod init;
mod matrix;
pub mod ops;
pub mod simd;

pub use columns::{column_runs, transpose_columns_into, transpose_rows_into, Columns};
pub use matrix::Matrix;
