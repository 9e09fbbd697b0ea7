//! Figure 6: DeepBase optimization ablation for the correlation measure.
//!
//! Correlation runs on the CPU (model merging is a GPU-side optimization,
//! so it is disabled here, as in the paper): the ablation compares the
//! naive PyBase design, + early stopping (+ES), and full DeepBase (+ lazy
//! streaming extraction) over the three sweeps.
//!
//! Paper shape: the dominant win comes from early stopping; lazy
//! extraction adds more as the record count grows, and matters less as
//! the unit count grows (pairwise-correlation compute dominates).

use deepbase::prelude::*;
use deepbase_bench::{sweep_figure, Args};

fn main() {
    sweep_figure(
        &Args::parse(),
        "Figure 6: optimization ablation (correlation)",
        &[("", &CorrelationMeasure)],
        &[
            ("PyBase", EngineKind::PyBase, Device::SingleCore),
            // Merging is a no-op for corr.
            ("+ES", EngineKind::MergedEarlyStop, Device::SingleCore),
            ("DeepBase", EngineKind::DeepBase, Device::SingleCore),
        ],
        [192, 384, 768],
        ["#hyps", "#records", "#units"],
    );
    println!(
        "\n(expected: +ES ≤ PyBase everywhere; DeepBase ≤ +ES, \
              with the streaming gain largest on the record sweep)"
    );
}
