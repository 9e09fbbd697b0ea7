//! The repeatable benchmark of the DeepBase reproduction: seven named
//! workloads, end-to-end metrics with regression bounds, and a per-layer
//! split measured from outside the program. See `README.md`.

pub mod calib;
pub mod diff;
pub mod harness;
pub mod json;
pub mod run;
pub mod stats;
pub mod trace;
pub mod workloads;
