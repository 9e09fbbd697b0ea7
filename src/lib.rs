//! # deepbase-repro
//!
//! Root facade of the DeepBase reproduction (Sellam et al., SIGMOD 2019).
//! Re-exports every workspace crate under one roof so the examples and
//! integration tests read like downstream user code:
//!
//! * [`deepbase`] — the inspection engine (the paper's contribution).
//! * [`nn`] — trainable neural-network substrate (Keras stand-in).
//! * [`lang`] — grammars, parsing, hypotheses and a POS-tagged synthetic
//!   corpus (NLTK / annotated-WMT15 stand-in).
//! * [`stats`] — statistical measures (scipy/scikit-learn stand-in).
//! * [`relational`] — mini columnar engine (PostgreSQL/MADLib stand-in).
//! * [`tensor`] — dense linear algebra (NumPy stand-in), built on cache-
//!   blocked mat-mul kernels.
//! * [`runtime`] — `fan_out`, the one scoped fan-out behind every parallel
//!   path (the CUDA stand-in). `Device::Parallel(n)` in the engine splits
//!   extraction, independent measures' hypothesis lists, segment streams
//!   and plan groups into at most `n` contiguous chunks, one scoped
//!   thread each; chunk bounds never depend on scheduling, so parallel
//!   results are always identical to `Device::SingleCore`.
//!
//! See `examples/` for runnable walkthroughs, `crates/bench` for the
//! harnesses that regenerate every table and figure of the paper, and
//! `perfbench/` for the one repeatable benchmark `BENCHMARK.json` names.

pub use deepbase;
pub use deepbase_lang as lang;
pub use deepbase_nn as nn;
pub use deepbase_relational as relational;
pub use deepbase_runtime as runtime;
pub use deepbase_stats as stats;
pub use deepbase_tensor as tensor;
