//! Score goldens across binaries: the three cold benchmark families'
//! shapes, scaled down, through a bare `Session`, each score table hashed
//! with `FpHasher` and compared against a constant taken on an earlier
//! build.
//!
//! perfbench checks every answer against a reference computed by the
//! same binary, so a drift both sides share is invisible there. These
//! constants are the one place a deliberate bit change is declared: a
//! change that moves one updates its constant and names itself in the
//! comment beside it. Training runs inside each fixture, so a constant
//! pins the training forward and backward as well as the extractor.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::vision;
use deepbase::workloads::{nmt, sql};
use deepbase_relational::{Table, Value};
use std::sync::Arc;

fn inspection(block_records: usize) -> InspectionConfig {
    InspectionConfig {
        block_records,
        epsilon: Some(1e-12),
        seed: 3,
        ..Default::default()
    }
}

/// `FpHasher` over every cell of `table`, row-major; floats by their bits.
fn table_hash(table: &Table) -> u64 {
    let mut hash = FpHasher::new();
    for row in 0..table.len() {
        for value in table.row(row) {
            match value {
                Value::Int(v) => hash.write_u64(v as u64),
                Value::Float(v) => hash.write_f32(v),
                Value::Str(s) => hash.write_str(&s),
            };
        }
    }
    hash.finish()
}

/// Runs `statement` through a bare session and hashes the table, after
/// checking it has `rows` rows and a nonzero score (a table of zeros
/// pins nothing).
fn score_hash(catalog: &Catalog, config: &InspectionConfig, statement: &str, rows: usize) -> u64 {
    let table = bare(catalog, config)
        .run(statement)
        .expect("inspection runs");
    assert_eq!(table.len(), rows);
    assert!(
        (0..table.len()).any(|r| {
            table
                .value(r, "s_unit_score")
                .and_then(|v| v.as_f32())
                .is_some_and(|s| s != 0.0)
        }),
        "every score is zero"
    );
    table_hash(&table)
}

fn hypotheses<H: HypothesisFn + 'static>(
    hyps: impl IntoIterator<Item = H>,
) -> Vec<Arc<dyn HypothesisFn>> {
    hyps.into_iter()
        .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
        .collect()
}

#[test]
fn char_lstm_corr_scores_the_golden_bits() {
    // `cold_sql_corr`: a char-LSTM trained on SQL windows, parse
    // hypotheses, Pearson.
    let workload = sql::build(&sql::SqlWorkloadConfig {
        n_queries: 12,
        max_records: 48,
        ..Default::default()
    });
    let model = sql::train_model(&workload, 8, 1, 0.02, 0)
        .pop()
        .expect("training returns snapshots");
    let model: &'static deepbase_nn::CharLstmModel = Box::leak(Box::new(model));
    let mut catalog = Catalog::new();
    catalog.add_model("sqlparser", 0, Arc::new(CharModelExtractor::new(model)));
    catalog.add_dataset("seq", Arc::new(workload.dataset));
    catalog.add_hypotheses("parse", hypotheses(workload.hypotheses.into_iter().take(4)));
    let hash = score_hash(
        &catalog,
        &inspection(16),
        "SELECT S.uid, S.hyp_id, S.unit_score \
         INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        8 * 4,
    );
    // Moved from 0x6a4f_a33c_d72a_005d when the LSTM gates left libm for
    // the in-repo activation kernel (`activation::VERSION` 1).
    assert_eq!(
        hash, 0x12cf_7f95_36f1_30d1,
        "golden fingerprint of the corr scores: {hash:#x}"
    );
}

#[test]
fn seq2seq_logreg_scores_the_golden_bits() {
    // `cold_nmt_logreg`: a seq2seq encoder trained on the synthetic
    // corpus, POS-tag hypotheses, merged L1 logistic regression.
    let workload = nmt::build(&nmt::NmtWorkloadConfig {
        n_sentences: 24,
        ..Default::default()
    });
    let model = nmt::train_model(&workload, 8, 4, 1, 0.01, 100);
    let model: &'static deepbase_nn::Seq2Seq = Box::leak(Box::new(model));
    let tags = workload.corpus.observed_tags();
    let tags: Vec<&str> = tags.iter().take(4).map(String::as_str).collect();
    let mut catalog = Catalog::new();
    catalog.add_model("nmt", 0, Arc::new(Seq2SeqEncoderExtractor::new(model)));
    catalog.add_hypotheses("pos", hypotheses(nmt::tag_hypotheses(&workload, &tags)));
    catalog.add_dataset("seq", Arc::new(workload.dataset.clone()));
    let hash = score_hash(
        &catalog,
        &inspection(8),
        "SELECT S.uid, S.hyp_id, S.unit_score, S.group_score \
         INSPECT U.uid AND H.h USING logreg_l1 OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        8 * tags.len(),
    );
    // Moved from 0xd563_3e45_cb5d_904e when the LSTM gates, the attention
    // head and the logistic probe left libm for the in-repo activation
    // kernel (`activation::VERSION` 1).
    assert_eq!(
        hash, 0xcd98_182f_8b9c_44d7,
        "golden fingerprint of the logreg_l1 scores: {hash:#x}"
    );
}

#[test]
fn small_cnn_jaccard_scores_the_golden_bits() {
    // `cold_cnn_jaccard`: a shape CNN's conv-2 channels, concept masks,
    // Jaccard. No `tanh` or `sigmoid` runs here: this constant is the
    // control that never moved with the activation kernel.
    const SIZE: usize = 16;
    let images = vision::generate_shape_images(16, SIZE, 7);
    let cnn = vision::train_shape_cnn(&images[..8], SIZE, 1, 0.01, 8);
    let cnn: &'static deepbase_nn::SmallCnn = Box::leak(Box::new(cnn));
    let mut catalog = Catalog::new();
    catalog.add_model(
        "shape_cnn",
        0,
        Arc::new(vision::CnnPixelExtractor::new(cnn, &images, SIZE)),
    );
    catalog.add_hypotheses("concepts", hypotheses(vision::concept_hypotheses(&images)));
    catalog.add_dataset("seq", Arc::new(vision::pixel_dataset(&images, SIZE)));
    let hash = score_hash(
        &catalog,
        &inspection(8),
        "SELECT S.uid, S.hyp_id, S.unit_score \
         INSPECT U.uid AND H.h USING jaccard OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        8 * vision::CONCEPTS.len(),
    );
    assert_eq!(
        hash, 0x22cd_2606_8004_0689,
        "golden fingerprint of the jaccard scores: {hash:#x}"
    );
}
