//! Figure 12: deep neural inspection on the translation model, trained vs
//! untrained.
//!
//! (a) Histogram of per-unit correlations across all encoder units: high
//!     correlations appear only in the trained model.
//! (b) Logistic-regression (L2) F1 per hypothesis: both models score on
//!     low-level features (periods), only the trained model scores on
//!     higher-level tags and phrase structure.
//! Plus the §6.3.2 per-layer L1 analysis: layer 0 is slightly more
//! predictive, and unit-group sizes vary widely by language feature.

use deepbase::prelude::*;
use deepbase::workloads::nmt;
use deepbase_bench::{print_table, Args};

fn main() {
    let args = Args::parse();
    println!("== Figure 12: trained vs untrained encoder ==\n");
    let n_sentences = args.scaled(if args.paper { 4_823 } else { 320 }, 64);
    let hidden = if args.paper { 500 } else { 24 };
    let workload = nmt::build(&nmt::NmtWorkloadConfig {
        n_sentences,
        seed: 2,
    });
    let trained = nmt::train_model(
        &workload,
        16,
        hidden,
        if args.paper { 12 } else { 8 },
        0.01,
        11,
    );
    let untrained = deepbase_nn::Seq2Seq::new(
        workload.src_vocab.size(),
        workload.tgt_vocab.size(),
        16,
        hidden,
        11,
    );

    // Hypotheses: POS tags + phrase structures (§6.3.2 adds 7 phrase-level
    // hypotheses; our corpus supports NP/VP/PP).
    let tags = ["CD", "JJ", "RB", ".", "VBD", "DT", "NN", "VBZ", "CC"];
    let mut hypotheses = nmt::tag_hypotheses(&workload, &tags);
    hypotheses.extend(nmt::phrase_hypotheses(&workload));
    let hyp_refs: Vec<&dyn HypothesisFn> =
        hypotheses.iter().map(|h| h as &dyn HypothesisFn).collect();

    // ---- (a) correlation histogram over all units ----
    println!(
        "-- Fig 12a: |corr| histogram over all {} encoder units --",
        2 * hidden
    );
    let corr = CorrelationMeasure;
    let mut histograms = Vec::new();
    for (name, model) in [("trained", &trained), ("untrained", &untrained)] {
        let extractor = Seq2SeqEncoderExtractor::new(model);
        let request = InspectionRequest {
            model_id: name.into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(2 * hidden)],
            dataset: &workload.dataset,
            hypotheses: hyp_refs.clone(),
            measures: vec![&corr],
        };
        let (frame, _) = inspect(&request, &InspectionConfig::default()).expect("inspect");
        // Max |corr| per unit across hypotheses (a unit "detects" its best
        // hypothesis).
        let mut best = vec![0.0f32; 2 * hidden];
        for row in &frame.rows {
            best[row.unit] = best[row.unit].max(row.unit_score.abs());
        }
        let bins = [0.0f32, 0.2, 0.4, 0.6, 0.8, 1.01];
        let mut counts = vec![0usize; bins.len() - 1];
        for &b in &best {
            for i in 0..bins.len() - 1 {
                if b >= bins[i] && b < bins[i + 1] {
                    counts[i] += 1;
                }
            }
        }
        histograms.push((name, counts));
    }
    let mut rows = Vec::new();
    for i in 0..5 {
        rows.push(vec![
            format!("[{:.1},{:.1})", 0.2 * i as f32, 0.2 * (i + 1) as f32),
            histograms[0].1[i].to_string(),
            histograms[1].1[i].to_string(),
        ]);
    }
    print_table(&["|corr| bin", "trained", "untrained"], &rows);
    println!("(expected: the right-most bins are populated only for the trained model)\n");

    // ---- (b) logreg-L2 F1 per hypothesis ----
    println!("-- Fig 12b: logreg-L2 F1 per hypothesis --");
    let logreg = LogRegMeasure {
        inner_epochs: 30,
        ..LogRegMeasure::l2(0.001)
    };
    let mut frames = Vec::new();
    for (name, model) in [("trained", &trained), ("untrained", &untrained)] {
        let extractor = Seq2SeqEncoderExtractor::new(model);
        let request = InspectionRequest {
            model_id: name.into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(2 * hidden)],
            dataset: &workload.dataset,
            hypotheses: hyp_refs.clone(),
            measures: vec![&logreg],
        };
        let (frame, _) = inspect(&request, &InspectionConfig::default()).expect("inspect");
        frames.push(frame);
    }
    let mut rows = Vec::new();
    for h in &hypotheses {
        let t = frames[0].group_score("logreg_l2", h.id()).unwrap_or(0.0);
        let u = frames[1].group_score("logreg_l2", h.id()).unwrap_or(0.0);
        rows.push(vec![
            h.id().to_string(),
            format!("{t:.3}"),
            format!("{u:.3}"),
        ]);
    }
    print_table(&["hypothesis", "trained F1", "untrained F1"], &rows);
    println!(
        "(expected: low-level features like pos:. score for both; high-level \
              tags and phrases only for the trained model)\n"
    );

    // ---- §6.3.2: per-layer L1 probes and unit-group sizes ----
    println!("-- per-layer L1 probes (unit-group sizes) --");
    let l1 = LogRegMeasure {
        inner_epochs: 30,
        ..LogRegMeasure::l1(0.01)
    };
    let extractor = Seq2SeqEncoderExtractor::new(&trained);
    let request = InspectionRequest {
        model_id: "trained".into(),
        extractor: &extractor,
        groups: vec![
            UnitGroup::new("layer0", (0..hidden).collect()),
            UnitGroup::new("layer1", (hidden..2 * hidden).collect()),
        ],
        dataset: &workload.dataset,
        hypotheses: hyp_refs,
        measures: vec![&l1],
    };
    let (frame, _) = inspect(&request, &InspectionConfig::default()).expect("inspect");
    let mut rows = Vec::new();
    for h in &hypotheses {
        let mut f1 = [0.0f32; 2];
        let mut selected = [0usize; 2];
        for row in frame.rows.iter().filter(|r| r.hyp_id == h.id()) {
            let layer = usize::from(row.group_id != "layer0");
            f1[layer] = row.group_score;
            if row.unit_score.abs() > 0.05 {
                selected[layer] += 1;
            }
        }
        rows.push(vec![
            h.id().to_string(),
            format!("{:.3}", f1[0]),
            format!("{:.3}", f1[1]),
            selected[0].to_string(),
            selected[1].to_string(),
        ]);
    }
    print_table(
        &["hypothesis", "L0 F1", "L1 F1", "L0 units", "L1 units"],
        &rows,
    );
    println!(
        "(expected: layer 0 slightly more predictive; group sizes vary \
              widely by feature, as in §6.3.2)"
    );
}
