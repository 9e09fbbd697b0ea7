//! Figure 5: runtime of the MADLib and Python baselines vs DeepBase with
//! all optimizations, for the correlation (top row) and logistic
//! regression (bottom row) measures, sweeping the number of hypotheses,
//! records, and hidden units (columns).
//!
//! Paper shape to reproduce: DeepBase ≪ PyBase ≪ MADLib for both measures,
//! with the gap widening along every sweep axis. Absolute ratios differ
//! from the paper's 72×/419× because our "PyBase" is compiled Rust rather
//! than interpreted Python (see the `deepbase::engine` module docs, *Device →
//! runtime mapping*, for the matching GPU substitution).

use deepbase::prelude::*;
use deepbase_bench::{sweep_figure, Args};

fn main() {
    let corr = CorrelationMeasure;
    let logreg = LogRegMeasure::l1(0.01);
    sweep_figure(
        &Args::parse(),
        "Figure 5: baselines vs DeepBase",
        &[("correlation", &corr), ("logreg", &logreg)],
        &[
            ("MADLib", EngineKind::Madlib, Device::SingleCore),
            ("PyBase", EngineKind::PyBase, Device::SingleCore),
            ("DeepBase", EngineKind::DeepBase, Device::SingleCore),
        ],
        [128, 256, 512],
        ["#hyps", "#records", "#units"],
    );
    println!("\n(expected ordering per row: DeepBase < PyBase < MADLib)");
}
