//! The CNN pixel path of the NetDissect comparison (paper Appendix E)
//! through a bare `Session`: a golden taken across binaries, and typed
//! errors for records that name no image.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::vision::{self, ShapeImage};
use deepbase_nn::SmallCnn;
use deepbase_relational::{Table, Value};
use deepbase_store::FpHasher;
use std::sync::Arc;

const SIZE: usize = 16;
const Q: &str = "SELECT S.uid, S.hyp_id, S.unit_score \
                 INSPECT U.uid AND H.h USING jaccard OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D";

/// A shape CNN trained for one epoch on the first 12 of 24 images (the
/// `cold_cnn_jaccard` shape: conv widths 6 and 8, 16 px).
fn fixture() -> (&'static SmallCnn, Vec<ShapeImage>) {
    let images = vision::generate_shape_images(24, SIZE, 7);
    let cnn = vision::train_shape_cnn(&images[..12], SIZE, 1, 0.01, 8);
    (Box::leak(Box::new(cnn)), images)
}

/// The pixel dataset over `dataset_images`, with the extractor and the
/// concept hypotheses bound to their own image lists.
fn catalog(
    cnn: &'static SmallCnn,
    dataset_images: &[ShapeImage],
    extractor_images: &[ShapeImage],
    hypothesis_images: &[ShapeImage],
) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_model(
        "shape_cnn",
        0,
        Arc::new(vision::CnnPixelExtractor::new(cnn, extractor_images, SIZE)),
    );
    catalog.add_hypotheses(
        "concepts",
        vision::concept_hypotheses(hypothesis_images)
            .into_iter()
            .map(|h| Arc::new(h) as Arc<dyn HypothesisFn>)
            .collect(),
    );
    catalog.add_dataset("seq", Arc::new(vision::pixel_dataset(dataset_images, SIZE)));
    catalog
}

fn inspection() -> InspectionConfig {
    InspectionConfig {
        block_records: 8,
        epsilon: Some(1e-12),
        seed: 3,
        ..Default::default()
    }
}

fn fold_table(hash: &mut FpHasher, table: &Table) {
    for row in 0..table.len() {
        for value in table.row(row) {
            match value {
                Value::Int(v) => hash.write_u64(v as u64),
                Value::Float(v) => hash.write_f32(v),
                Value::Str(s) => hash.write_str(&s),
            };
        }
    }
}

/// The fingerprint of the fixture's score table under `query`, through a
/// bare session.
fn score_hash(cnn: &'static SmallCnn, images: &[ShapeImage], query: &str) -> u64 {
    let mut session = bare(&catalog(cnn, images, images, images), &inspection());
    let table = session.run(query).expect("inspection runs");
    assert_eq!(table.len(), 8 * vision::CONCEPTS.len());
    let positive = (0..table.len())
        .filter(|&r| table.value(r, "s_unit_score").and_then(|v| v.as_f32()) > Some(0.0))
        .count();
    assert!(
        positive > 0,
        "a fixture whose scores are all zero pins nothing"
    );
    let mut scores = FpHasher::new();
    fold_table(&mut scores, &table);
    scores.finish()
}

#[test]
fn the_cnn_jaccard_fixture_scores_the_golden_bits() {
    // perfbench checks every answer against a reference computed by the
    // same binary, so a forward that drifted would agree with itself
    // there; these hashes were taken on the row-wise conv kernel (the
    // parent of the channels-last one) and compare across binaries.
    let (cnn, images) = fixture();
    let scores = score_hash(cnn, &images, Q);

    let unit_ids = [7, 0, 5, 2, 2];
    let mut pixels = FpHasher::new();
    for img in &images[..4] {
        let mut out = vec![f32::NAN; SIZE * SIZE * unit_ids.len()];
        cnn.unit_pixels(&img.pixels, &unit_ids, &mut out);
        pixels.write_f32s(&out);
        for map in cnn.unit_maps(&img.pixels) {
            pixels.write_f32s(map.as_slice());
        }
    }
    assert_eq!(
        (scores, pixels.finish()),
        (0x3447_a068_2354_a7b6, 0xac7c_3903_5c7c_47e5),
        "golden fingerprints of the jaccard scores and the unit pixels / maps"
    );
}

#[test]
fn the_cnn_jaccard_q95_fixture_scores_the_golden_bits() {
    // q 0.95 is the quantile whose pre-filter keeps the most candidates
    // (≈ 7% of a unit's sample); the hash was taken on the parent of the
    // bitset Jaccard and the pivot selection.
    let (cnn, images) = fixture();
    let hash = score_hash(cnn, &images, &Q.replace("jaccard", "jaccard_q95"));
    assert_eq!(
        hash, 0x1594_df6b_9c36_6314,
        "golden fingerprint of the jaccard_q95 scores: {hash:#x}"
    );
}

#[test]
fn a_record_whose_image_the_extractor_lacks_is_a_typed_query_error() {
    let (cnn, images) = fixture();
    let catalog = catalog(cnn, &images[..8], &images[..7], &images[..8]);
    let err = bare(&catalog, &inspection())
        .run(Q)
        .expect_err("record 7 names no image of the extractor");
    match err {
        DniError::Internal(msg) => assert!(
            msg.contains("record 7") && msg.contains("source id 7"),
            "{msg}"
        ),
        other => panic!("expected a contained extractor panic, got {other:?}"),
    }
}

#[test]
fn a_record_whose_image_the_hypotheses_lack_is_a_typed_query_error() {
    let (cnn, images) = fixture();
    let catalog = catalog(cnn, &images[..8], &images[..8], &images[..7]);
    let err = bare(&catalog, &inspection())
        .run(Q)
        .expect_err("record 7 names no image of the hypotheses");
    match err {
        DniError::BadHypothesisOutput {
            hypothesis, record, ..
        } => {
            assert!(hypothesis.starts_with("concept:"), "{hypothesis}");
            assert_eq!(record, 7);
        }
        other => panic!("expected a rejected behavior, got {other:?}"),
    }
}
