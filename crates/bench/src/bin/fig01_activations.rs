//! Figure 1: activations over time for the SQL auto-completion model.
//!
//! Prints the hidden-state trajectories of four units while the model
//! reads the (padded) prefix of a sampled query — the "what is the model
//! learning?" teaser. Units are chosen as the strongest correlates of
//! whitespace and keyword hypotheses so the series show the same
//! qualitative shapes as the paper's u12/u86/u92/u97.

use deepbase::prelude::*;
use deepbase_bench::{print_table, Args};

fn main() {
    let args = Args::parse();
    let (records, hidden) = if args.paper { (29_696, 512) } else { (512, 48) };
    let setup = deepbase_bench::sql_bench_setup(&args, records, hidden);
    println!("== Figure 1: unit activations over a SQL query prefix ==\n");

    // Rank units by |corr| against whitespace and SELECT-keyword logic.
    let ws = FnHypothesis::char_class("whitespace", char::is_whitespace);
    let kw = FnHypothesis::keyword("FROM");
    let corr = CorrelationMeasure;
    let extractor = CharModelExtractor::new(&setup.model);
    let request = InspectionRequest {
        model_id: "sql_char_model".into(),
        extractor: &extractor,
        groups: vec![UnitGroup::all(setup.model.hidden())],
        dataset: &setup.workload.dataset,
        hypotheses: vec![&ws, &kw],
        measures: vec![&corr],
    };
    let (frame, _) = inspect(&request, &InspectionConfig::default()).expect("inspect");

    let top_for = |hyp: &str| -> usize {
        frame
            .unit_scores("corr", hyp)
            .into_iter()
            .max_by(|a, b| a.1.abs().partial_cmp(&b.1.abs()).unwrap())
            .map(|(u, _)| u)
            .unwrap_or(0)
    };
    let u_ws = top_for("whitespace");
    let u_kw = top_for("kw:FROM");
    let units = [
        u_ws,
        u_kw,
        (u_ws + 7) % setup.model.hidden(),
        (u_kw + 13) % setup.model.hidden(),
    ];
    println!("plotting units {units:?} (strongest whitespace / FROM correlates + two others)\n");

    // One record whose window contains a FROM clause.
    let record = setup
        .workload
        .dataset
        .records
        .iter()
        .find(|r| r.text.contains("FROM"))
        .unwrap_or(&setup.workload.dataset.records[0]);
    let acts = extractor.extract(&[record], &units);

    let mut rows = Vec::new();
    for (t, c) in record.text.chars().enumerate() {
        rows.push(vec![
            format!("{c}"),
            format!("{:+.3}", acts.get(t, 0)),
            format!("{:+.3}", acts.get(t, 1)),
            format!("{:+.3}", acts.get(t, 2)),
            format!("{:+.3}", acts.get(t, 3)),
        ]);
    }
    let headers: Vec<String> = std::iter::once("char".to_string())
        .chain(units.iter().map(|u| format!("u{u}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &rows);
    println!(
        "\n(series to compare against the paper's Fig. 1: the whitespace unit u{} \
         spikes on spaces, the FROM unit u{} activates inside the keyword, and \
         all units are flat on the '~' padding)",
        u_ws, u_kw
    );
}
