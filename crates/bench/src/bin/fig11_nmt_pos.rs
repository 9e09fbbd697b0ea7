//! Figure 11: per-POS-tag precision — DeepBase vs the Belinkov et al.
//! methodology (paper §6.3.1).
//!
//! Both pipelines train a multiclass probe that predicts the POS tag of
//! each source token from encoder activations and report per-tag
//! precision on a held-out test split (the paper uses 4,823 train / 544
//! test sentences). The pipelines differ exactly as in the paper:
//!
//! * **Belinkov-style**: the probe is "inserted into" the model — every
//!   probe epoch re-runs the full encoder over the training corpus (no
//!   activation caching), against its own independently-trained model
//!   (their Lua/seq2seq-attn setup could not share a checkpoint with
//!   DeepBase).
//! * **DeepBase**: activations are extracted once and cached; the probe
//!   trains on the cached matrix, against a second model trained with a
//!   different seed.
//!
//! Paper shape: per-tag precisions strongly correlate (r = 0.84 in the
//! paper) without being identical, and the cached pipeline is faster.

use deepbase::prelude::*;
use deepbase::workloads::nmt;
use deepbase_bench::{print_table, secs, time, Args};
use deepbase_stats::{classify, LogRegConfig, SoftmaxReg};
use deepbase_tensor::Matrix;

/// Gathers (activation row, tag id) pairs for the visible tokens of the
/// given sentence indices.
fn gather(
    extractor: &Seq2SeqEncoderExtractor<'_>,
    workload: &nmt::NmtWorkload,
    targets: &[Vec<usize>],
    sentence_ids: &[usize],
    n_units: usize,
) -> (Matrix, Vec<usize>) {
    let ns = workload.dataset.ns;
    let records: Vec<&Record> = sentence_ids
        .iter()
        .map(|&i| &workload.dataset.records[i])
        .collect();
    let acts = extractor.extract(&records, &(0..n_units).collect::<Vec<_>>());
    let mut rows = Vec::new();
    let mut ys = Vec::new();
    for (pos, &sid) in sentence_ids.iter().enumerate() {
        let rec = &workload.dataset.records[sid];
        for (t, &target) in targets[sid].iter().enumerate().take(rec.visible) {
            rows.push(pos * ns + t);
            ys.push(target);
        }
    }
    let mut x = Matrix::zeros(rows.len(), n_units);
    for (dst, &src) in rows.iter().enumerate() {
        x.row_mut(dst).copy_from_slice(acts.row(src));
    }
    (x, ys)
}

fn main() {
    let args = Args::parse();
    println!("== Figure 11: DeepBase vs Belinkov-style POS probe precision ==\n");
    let n_sentences = args.scaled(if args.paper { 5_367 } else { 480 }, 64);
    let hidden = if args.paper { 500 } else { 16 };
    let nmt_epochs = if args.paper { 12 } else { 3 };
    let probe_epochs = if args.paper { 35 } else { 12 };
    let workload = nmt::build(&nmt::NmtWorkloadConfig {
        n_sentences,
        seed: 1,
    });

    // Two independently trained models of the same architecture.
    let model_deepbase = nmt::train_model(&workload, 16, hidden, nmt_epochs, 0.01, 100);
    let model_belinkov = nmt::train_model(&workload, 16, hidden, nmt_epochs, 0.01, 200);

    let tags = workload.corpus.observed_tags();
    let tag_index: std::collections::HashMap<&str, usize> = tags
        .iter()
        .enumerate()
        .map(|(i, t)| (t.as_str(), i))
        .collect();
    let targets: Vec<Vec<usize>> = workload
        .record_tags
        .iter()
        .map(|row| {
            row.iter()
                .map(|t| {
                    t.as_deref()
                        .and_then(|t| tag_index.get(t).copied())
                        .unwrap_or(0)
                })
                .collect()
        })
        .collect();

    // Sentence-level train/test split (paper: 4,823 train / 544 test).
    let (train_ids, test_ids) =
        deepbase_stats::split::train_test_split(workload.dataset.len(), 0.15, 9);
    println!(
        "{} train / {} test sentences, {} tags, hidden={hidden} per layer\n",
        train_ids.len(),
        test_ids.len(),
        tags.len()
    );
    let n_units = 2 * hidden;

    // --- DeepBase path: extract once, then train on the cached matrix ---
    let (db_precisions, db_time) = time(|| {
        let extractor = Seq2SeqEncoderExtractor::new(&model_deepbase);
        let (x_train, y_train) = gather(&extractor, &workload, &targets, &train_ids, n_units);
        let (x_test, y_test) = gather(&extractor, &workload, &targets, &test_ids, n_units);
        let mut probe = SoftmaxReg::new(
            n_units,
            tags.len(),
            LogRegConfig {
                learning_rate: 0.05,
                epochs: probe_epochs,
                ..Default::default()
            },
        );
        probe.fit(&x_train, &y_train);
        let preds = probe.predict(&x_test);
        classify::per_class_precision(&preds, &y_test, tags.len())
    });

    // --- Belinkov path: re-run the encoder every probe epoch ---
    let (bk_precisions, bk_time) = time(|| {
        let extractor = Seq2SeqEncoderExtractor::new(&model_belinkov);
        let mut probe = SoftmaxReg::new(
            n_units,
            tags.len(),
            LogRegConfig {
                learning_rate: 0.05,
                epochs: 1,
                ..Default::default()
            },
        );
        for _ in 0..probe_epochs {
            // No caching: activations recomputed each pass, as their
            // in-place classifier does.
            let (x_train, y_train) = gather(&extractor, &workload, &targets, &train_ids, n_units);
            probe.fit(&x_train, &y_train);
        }
        let (x_test, y_test) = gather(&extractor, &workload, &targets, &test_ids, n_units);
        let preds = probe.predict(&x_test);
        classify::per_class_precision(&preds, &y_test, tags.len())
    });

    // Per-tag scatter, filtered like the paper (tags covering >= 1.5% of
    // the test tokens).
    let mut tag_counts = vec![0usize; tags.len()];
    let mut total = 0usize;
    for &sid in &test_ids {
        let rec = &workload.dataset.records[sid];
        for t in 0..rec.visible {
            tag_counts[targets[sid][t]] += 1;
            total += 1;
        }
    }
    let mut rows = Vec::new();
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (i, tag) in tags.iter().enumerate() {
        if (tag_counts[i] as f32) < 0.015 * total as f32 {
            continue;
        }
        xs.push(bk_precisions[i]);
        ys.push(db_precisions[i]);
        rows.push(vec![
            tag.clone(),
            format!("{:.3}", bk_precisions[i]),
            format!("{:.3}", db_precisions[i]),
            tag_counts[i].to_string(),
        ]);
    }
    print_table(
        &["tag", "Belinkov-style", "DeepBase", "#test tokens"],
        &rows,
    );

    let r = deepbase_stats::pearson(&xs, &ys);
    println!("\nper-tag precision correlation r = {r:.3}  (paper: r = 0.84)");
    println!(
        "runtimes: Belinkov-style {} (re-runs the model each epoch), DeepBase {} \
         (extract once + cached passes)",
        secs(bk_time),
        secs(db_time)
    );
}
