//! Figure 8: runtime breakdown by system component — hypothesis extractor,
//! unit extractor, and inspector — for correlation and logistic regression
//! under +MM+ES and full DeepBase.
//!
//! Paper shape: under +MM+ES the inspector dominates for correlation while
//! extraction is identical across measures; DeepBase's savings come from
//! lower extraction cost (online extraction stops when scores converge).

use deepbase::prelude::*;
use deepbase_bench::{hypothesis_refs, print_table, run_engine, secs, sql_bench_setup, Args};

fn main() {
    let args = Args::parse();
    println!(
        "== Figure 8: extraction vs inspection cost breakdown (kernels: {}) ==\n",
        deepbase_tensor::simd::path()
    );
    let setup = sql_bench_setup(
        &args,
        if args.paper { 29_696 } else { 768 },
        if args.paper { 512 } else { 32 },
    );
    let hyps = hypothesis_refs(&setup.workload, if args.paper { 190 } else { 8 });

    let corr = CorrelationMeasure;
    let logreg = LogRegMeasure::l1(0.01);
    let measures: [(&str, &dyn Measure); 2] = [("correlation", &corr), ("logreg", &logreg)];
    let engines: [(&str, EngineKind); 2] = [
        ("+MM+ES", EngineKind::MergedEarlyStop),
        ("DeepBase", EngineKind::DeepBase),
    ];

    let mut rows = Vec::new();
    for (mname, measure) in &measures {
        for (ename, engine) in &engines {
            let profile = run_engine(&setup, &hyps, *measure, *engine, Device::SingleCore, None);
            rows.push(vec![
                mname.to_string(),
                ename.to_string(),
                secs(profile.unit_extraction),
                secs(profile.hypothesis_extraction),
                secs(profile.inspection),
                secs(profile.total),
                profile.records_read.to_string(),
            ]);
        }
    }
    print_table(
        &[
            "measure",
            "engine",
            "unit extract",
            "hyp extract",
            "inspector",
            "total",
            "records",
        ],
        &rows,
    );
    println!(
        "\n(expected: +MM+ES pays full extraction for both measures; DeepBase \
         reads fewer records, shrinking the extraction columns)"
    );
}
