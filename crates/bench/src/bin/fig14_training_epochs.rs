//! Figure 14 (Appendix D): F1 of the highest-affinity hypotheses across
//! training epochs of the SQL auto-completion model.
//!
//! Paper shape: clause-level hypotheses (SELECT/FROM/WHERE/ORDER) are
//! learned within the first epochs — affinity rises with accuracy — with
//! ORDER-related rules among the strongest.

use deepbase::prelude::*;
use deepbase::workloads::sql;
use deepbase_bench::{print_table, Args};

fn main() {
    let args = Args::parse();
    println!("== Figure 14: hypothesis affinity across training epochs ==\n");
    let workload = sql::build(&sql::SqlWorkloadConfig {
        n_queries: args.scaled(if args.paper { 4096 } else { 64 }, 8),
        max_records: args.scaled(if args.paper { 29_696 } else { 768 }, 64),
        ..Default::default()
    });
    let hidden = if args.paper { 512 } else { 32 };
    let epochs = if args.paper { 13 } else { 4 };
    let snapshots = sql::train_model(&workload, hidden, epochs, 0.02, 5);

    // Inspect snapshots at epochs 0 (random init), 1, and the last —
    // the paper's checkpoints.
    let checkpoints: Vec<usize> = vec![0, 1, snapshots.len() - 1];
    let tracked = [
        "select_kw:time",
        "from_kw:time",
        "where_kw:time",
        "order_kw:time",
        "ordering_term:time",
        "number:time",
    ];
    let hypotheses: Vec<&dyn HypothesisFn> = workload
        .hypotheses
        .iter()
        .filter(|h| tracked.contains(&h.id()))
        .map(|h| h as &dyn HypothesisFn)
        .collect();
    let logreg = LogRegMeasure {
        inner_epochs: 20,
        ..LogRegMeasure::l2(0.001)
    };

    let mut per_checkpoint = Vec::new();
    let mut accuracies = Vec::new();
    for &cp in &checkpoints {
        let model = &snapshots[cp];
        accuracies.push(model.accuracy(&workload.train_inputs, &workload.train_targets));
        let extractor = CharModelExtractor::new(model);
        let request = InspectionRequest {
            model_id: format!("epoch{cp}"),
            extractor: &extractor,
            groups: vec![UnitGroup::all(hidden)],
            dataset: &workload.dataset,
            hypotheses: hypotheses.clone(),
            measures: vec![&logreg],
        };
        let (frame, _) = inspect(&request, &InspectionConfig::default()).expect("inspect");
        per_checkpoint.push(frame);
    }

    println!(
        "model accuracy at checkpoints {:?}: {:?}\n",
        checkpoints,
        accuracies
            .iter()
            .map(|a| format!("{:.1}%", a * 100.0))
            .collect::<Vec<_>>()
    );
    let mut rows = Vec::new();
    for hyp in &tracked {
        let mut cells = vec![hyp.to_string()];
        for frame in &per_checkpoint {
            cells.push(format!(
                "{:.3}",
                frame.group_score("logreg_l2", hyp).unwrap_or(0.0)
            ));
        }
        rows.push(cells);
    }
    let headers: Vec<String> = std::iter::once("hypothesis".to_string())
        .chain(checkpoints.iter().map(|c| format!("epoch {c}")))
        .collect();
    let header_refs: Vec<&str> = headers.iter().map(|s| s.as_str()).collect();
    print_table(&header_refs, &rows);
    println!(
        "\n(expected: F1 rises from epoch 0 to the trained checkpoints for the \
         clause hypotheses — the model learns SQL structure, not arbitrary n-grams)"
    );
}
