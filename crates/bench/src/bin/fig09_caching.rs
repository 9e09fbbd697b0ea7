//! Figure 9: effect of cached hypothesis behaviors.
//!
//! The model-development loop re-inspects changing models against a fixed
//! hypothesis library and test set. The first (cold) run pays hypothesis
//! extraction; the second (cached) run serves behaviors from the LRU
//! cache. Paper shape: caching improves correlation modestly (inspection
//! dominates it) and logistic regression substantially. Both runs are
//! batches of one session; the binary exits non-zero unless the cached run
//! missed nothing and hit exactly what the cold run missed.

use deepbase::prelude::*;
use deepbase::workloads::sql;
use deepbase_bench::{print_table, secs, Args};
use std::sync::Arc;

fn main() {
    let args = Args::parse();
    println!("== Figure 9: cold vs cached hypothesis extraction ==\n");
    // Disable ground-truth parse trees: hypothesis extraction must run the
    // Earley parser, as the paper's NLTK-based extraction does (this is
    // what makes hypothesis behaviors expensive enough to be worth
    // caching).
    let records = args.scaled(if args.paper { 29_696 } else { 768 }, 64);
    let hidden = if args.paper { 512 } else { 32 };
    let workload = sql::build(&sql::SqlWorkloadConfig {
        n_queries: (records / 6).max(8),
        max_records: records,
        prepopulate_parse_cache: false,
        ..Default::default()
    });
    let snapshots = sql::train_model(&workload, hidden, if args.paper { 8 } else { 2 }, 0.02, 0);
    // The catalog holds `'static` extractors; the model lives as long as
    // the process anyway.
    let model = Box::leak(Box::new(snapshots.into_iter().last().expect("snapshot")));
    let parses = Arc::clone(&workload.parse_cache);
    let hyps = workload
        .hypotheses
        .into_iter()
        .take(if args.paper { 190 } else { 12 });
    let mut catalog = Catalog::new();
    catalog.add_model("sql", 0, Arc::new(CharModelExtractor::new(model)));
    catalog.add_hypotheses("parse", hyps.map(|h| Arc::new(h) as _).collect());
    catalog.add_dataset("seq", Arc::new(workload.dataset));
    let config = SessionConfig {
        reuse_scores: false,
        cache_bytes: 1 << 30,
        ..SessionConfig::default()
    };

    let mut rows = Vec::new();
    let mut refuted = false;
    for (mname, measure) in [("correlation", "corr"), ("logreg", "logreg_l1")] {
        let statement = format!(
            "SELECT S.uid INSPECT U.uid AND H.h USING {measure} OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D"
        );
        // Without score reuse the second batch re-runs the pass (the
        // "retrained model"). The parse cache outlives the row: only the
        // first row's cold run finds it empty and pays the parser.
        let mut session = Session::with_config(catalog.clone(), config.clone());
        let (parsed_before, parse_time_before) = (parses.miss_count(), parses.parse_time());
        let mut run = || {
            let report = session.run_batch(&[&statement]).expect("inspection").report;
            (report.per_query[0].clone(), report.cache)
        };
        let (cold, cold_cache) = run();
        let (warm, warm_cache) = run();
        let parsed = parses.miss_count() - parsed_before;
        let parse_time = parses.parse_time() - parse_time_before;
        refuted |= warm_cache.misses != 0 || warm_cache.hits != cold_cache.misses;
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
            format!(
                "{}m -> {}h/{}m",
                cold_cache.misses, warm_cache.hits, warm_cache.misses
            ),
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
            "cache (cold -> cached)",
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
    if refuted {
        eprintln!(
            "Fig. 9 claim refuted: a cached run must hit every behavior its cold run computed"
        );
        std::process::exit(1);
    }
}
