//! # deepbase-stats
//!
//! Statistical affinity measures for Deep Neural Inspection.
//!
//! DeepBase (paper §4.3) quantifies the affinity between hidden-unit
//! behaviors and hypothesis behaviors using statistical measures. The
//! Python original leans on scipy/scikit-learn/Keras; this crate implements
//! the required statistics from scratch:
//!
//! * [`corr`] — Pearson correlation, streaming accumulation, and
//!   Fisher-transform confidence intervals (the early-stopping criterion).
//! * [`mi`] — binned mutual information, univariate and multivariate, on
//!   dense joint tables over pre-binned columns.
//! * [`quantile`] — exact (by pivot-prefiltered selection) and P²
//!   streaming quantiles, one-sort quantile binning (NetDissect-style
//!   thresholds).
//! * [`descriptive`] — difference of means, Jaccard/IoU as a popcount over
//!   thresholded bitsets, silhouette score (the §4.4 verification
//!   statistic).
//! * [`classify`] — binary F1 and per-class precision.
//! * `logreg` ([`MultiLogReg`], [`SoftmaxReg`]) — single-, multi-output
//!   (merged) and softmax logistic regression probes with Adam, L1/L2 and
//!   incremental `process_block` training.
//! * [`baselines`] — random- and majority-class baselines.
//! * [`split`] — deterministic shuffles and train/test splits.

pub mod baselines;
pub mod classify;
pub mod corr;
pub mod descriptive;
mod logreg;
pub mod mi;
pub mod quantile;
pub mod split;

pub use classify::f1_score;
pub use corr::{pearson, StreamingPearson, Z_95};
pub use descriptive::silhouette_score;
pub use logreg::{ConvergenceTracker, LogRegConfig, MultiLogReg, SoftmaxReg};
pub use quantile::P2Quantile;
