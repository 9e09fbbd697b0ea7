//! Figure 10: sensitivity to the early-stopping error threshold ε.
//!
//! Sweeps ε for both measures under +MM+ES and DeepBase, reporting
//! extraction and inspection costs. Paper shape: for correlation, +MM+ES
//! only reduces inspector cost as ε is relaxed while DeepBase also slashes
//! extraction (it extracts only what it needs); logistic regression shows
//! the same trend but is less sensitive (its convergence is slower).

use deepbase::prelude::*;
use deepbase_bench::{hypothesis_refs, print_table, run_engine, secs, sql_bench_setup, Args};

fn main() {
    let args = Args::parse();
    println!("== Figure 10: error-threshold sensitivity ==\n");
    let setup = sql_bench_setup(
        &args,
        if args.paper { 29_696 } else { 1024 },
        if args.paper { 512 } else { 24 },
    );
    let hyps = hypothesis_refs(&setup.workload, if args.paper { 96 } else { 8 });
    let epsilons = [0.005f32, 0.01, 0.025, 0.05, 0.1];

    let corr = CorrelationMeasure;
    let logreg = LogRegMeasure::l1(0.01);
    let measures: [(&str, &dyn Measure); 2] = [("correlation", &corr), ("logreg", &logreg)];
    let engines: [(&str, EngineKind); 2] = [
        ("+MM+ES", EngineKind::MergedEarlyStop),
        ("DeepBase", EngineKind::DeepBase),
    ];

    for (mname, measure) in &measures {
        println!("-- {mname} --");
        let mut rows = Vec::new();
        for &eps in &epsilons {
            let mut cells = vec![format!("{eps}")];
            for (_, engine) in &engines {
                let profile = run_engine(
                    &setup,
                    &hyps,
                    *measure,
                    *engine,
                    Device::SingleCore,
                    Some(eps),
                );
                cells.push(secs(
                    profile.unit_extraction + profile.hypothesis_extraction,
                ));
                cells.push(secs(profile.inspection));
                cells.push(profile.records_read.to_string());
            }
            rows.push(cells);
        }
        print_table(
            &[
                "epsilon",
                "MMES extract",
                "MMES inspect",
                "MMES recs",
                "DB extract",
                "DB inspect",
                "DB recs",
            ],
            &rows,
        );
        println!();
    }
    println!(
        "(expected: relaxing epsilon shrinks DeepBase's records-read and \
         extraction columns; +MM+ES extraction stays flat)"
    );
}
