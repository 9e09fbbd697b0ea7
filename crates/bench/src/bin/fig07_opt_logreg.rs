//! Figure 7: DeepBase optimization ablation for the logistic-regression
//! measure: PyBase, +MM (CPU), +MM (GPU = parallel device), +MM+ES, and
//! full DeepBase, over the three sweeps.
//!
//! Paper shape: model merging provides the big win (one composite model
//! instead of one per hypothesis); early stopping alone adds little
//! because full materialization dominates; streaming extraction
//! (DeepBase) removes that bottleneck.
//!
//! The paper's GPU also trains the merged probe; the reproduction's
//! parallel device does not. It splits extraction into record chunks (and
//! an independent measure's hypothesis lists, of which a merged logreg
//! has none), while the probe trains on one thread on either device. So
//! "+MM(GPU)" differs from "+MM(CPU)" only in its materializing
//! extraction, run as 4 record chunks: its gain is bounded by
//! extraction's share of the run and by the machine's cores.

use deepbase::prelude::*;
use deepbase_bench::{sweep_figure, Args};

fn main() {
    sweep_figure(
        &Args::parse(),
        "Figure 7: optimization ablation (logistic regression)",
        &[("", &LogRegMeasure::l1(0.01))],
        &[
            ("PyBase", EngineKind::PyBase, Device::SingleCore),
            ("+MM(CPU)", EngineKind::Merged, Device::SingleCore),
            ("+MM(GPU)", EngineKind::Merged, Device::Parallel(4)),
            ("+MM+ES", EngineKind::MergedEarlyStop, Device::Parallel(4)),
            ("DeepBase", EngineKind::DeepBase, Device::Parallel(4)),
        ],
        [128, 256, 512],
        ["x"; 3],
    );
    println!(
        "\n(expected: +MM ≪ PyBase; +MM(GPU) ≤ +MM(CPU) by at most \
              the extraction share, training is never split; DeepBase smallest overall)"
    );
}
