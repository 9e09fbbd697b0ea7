//! Figure 9: effect of cached hypothesis behaviors.
//!
//! The model-development loop re-inspects changing models against a fixed
//! hypothesis library and test set. The first (cold) run pays hypothesis
//! extraction; the second (cached) run serves behaviors from the LRU
//! cache. Paper shape: caching improves correlation modestly (inspection
//! dominates it) and logistic regression substantially.

use deepbase::prelude::*;
use deepbase::workloads::sql;
use deepbase_bench::{hypothesis_refs, print_table, run_engine, secs, Args, SqlBenchSetup};

fn main() {
    let args = Args::parse();
    println!("== Figure 9: cold vs cached hypothesis extraction ==\n");
    // Disable ground-truth parse trees: hypothesis extraction must run the
    // Earley parser, as the paper's NLTK-based extraction does (this is
    // what makes hypothesis behaviors expensive enough to be worth
    // caching).
    let records = if args.paper { 29_696 } else { 768 };
    let records = ((records as f32 * args.scale) as usize).max(64);
    let hidden = if args.paper { 512 } else { 32 };
    let workload = sql::build(&sql::SqlWorkloadConfig {
        n_queries: (records / 6).max(8),
        max_records: records,
        prepopulate_parse_cache: false,
        ..Default::default()
    });
    let snapshots = sql::train_model(&workload, hidden, if args.paper { 8 } else { 2 }, 0.02, 0);
    let setup = SqlBenchSetup {
        workload,
        model: snapshots.into_iter().last().expect("snapshot"),
        hidden,
    };
    let hyps = hypothesis_refs(&setup.workload, if args.paper { 190 } else { 12 });

    let corr = CorrelationMeasure;
    let logreg = LogRegMeasure::l1(0.01);
    let measures: [(&str, &dyn Measure); 2] = [("correlation", &corr), ("logreg", &logreg)];

    let mut rows = Vec::new();
    for (mname, measure) in &measures {
        let cache = HypothesisCache::new(1 << 30);
        // The parse cache outlives the row: only the first row's cold run
        // finds it empty and pays the parser.
        let parses = &setup.workload.parse_cache;
        let (parsed_before, parse_time_before) = (parses.miss_count(), parses.parse_time());
        let cold = run_engine(
            &setup,
            &hyps,
            *measure,
            EngineKind::DeepBase,
            Device::SingleCore,
            None,
            Some(std::sync::Arc::clone(&cache)),
        );
        // Second run: same dataset and hypotheses, "retrained" model (the
        // same extractor here; what matters is hypothesis reuse).
        let warm = run_engine(
            &setup,
            &hyps,
            *measure,
            EngineKind::DeepBase,
            Device::SingleCore,
            None,
            Some(std::sync::Arc::clone(&cache)),
        );
        let stats = cache.stats();
        let parsed = parses.miss_count() - parsed_before;
        let parse_time = parses.parse_time() - parse_time_before;
        rows.push(vec![
            mname.to_string(),
            secs(cold.total),
            secs(warm.total),
            format!(
                "{:.1}x",
                cold.total.as_secs_f64() / warm.total.as_secs_f64().max(1e-9)
            ),
            secs(cold.hypothesis_extraction),
            secs(warm.hypothesis_extraction),
            format!("{}h/{}m", stats.hits, stats.misses),
            parsed.to_string(),
            match parsed {
                0 => "-".to_string(),
                n => format!("{:.4}", parse_time.as_secs_f64() * 1e3 / n as f64),
            },
        ]);
    }
    print_table(
        &[
            "measure",
            "cold total",
            "cached total",
            "speedup",
            "cold hyp",
            "cached hyp",
            "cache",
            "parses",
            "ms/parse",
        ],
        &rows,
    );
    println!(
        "\n(expected: cached hypothesis-extraction time collapses; logreg \
         benefits more than correlation, as in the paper's 12.4x vs 1.9x; \
         parses x ms/parse is the Earley parser's part of that row's cold hyp)"
    );
}
