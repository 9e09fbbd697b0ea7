//! Segmented datasets: the in-memory segment map and its per-segment
//! fingerprints (a dataset grown by `append_segment` equals the same
//! segments built at once by `with_segments`); per-segment extraction
//! whose merged scores match the single-pass result and stay
//! bit-identical across devices; measures without exact merge support
//! rejected with a typed error at bind time *and* in the engine; and
//! warm incremental re-inspection — append records, re-run, and only the
//! new segment pays forward passes while the merged frame stays
//! bit-identical to a cold run.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_tensor::Matrix;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

const NS: usize = 6;
const UNITS: usize = 4;

/// `n` deterministic records with globally contiguous ids starting at
/// `first_id` (segments of one dataset must not share ids — the
/// precomputed extractor addresses behaviors by `record id`).
fn records(first_id: usize, n: usize) -> Vec<Record> {
    (first_id..first_id + n)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 7 + t * 3) % 5 {
                    0 | 3 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

/// Behaviors for record ids `0..total`: unit 0 tracks 'a', unit 1 tracks
/// 'b', the rest deterministic noise.
fn behaviors(total: usize) -> Matrix {
    let recs = records(0, total);
    let mut m = Matrix::zeros(total * NS, UNITS);
    for rec in &recs {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            m.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    m
}

/// Splits `n` records into segments of the requested lengths; whatever
/// the lengths don't cover becomes one final segment (possibly empty).
fn split_records(n: usize, lens: &[usize]) -> Vec<Vec<Record>> {
    let mut segs = Vec::new();
    let mut next = 0usize;
    for &l in lens {
        let take = l.min(n - next);
        segs.push(records(next, take));
        next += take;
    }
    segs.push(records(next, n - next));
    segs
}

fn config(device: Device, block_records: usize) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records,
        epsilon: Some(1e-12), // never converge early: full deterministic pass
        ..InspectionConfig::default()
    }
}

/// Field-wise record equality (`Record` itself has no `PartialEq`).
fn assert_records_eq(got: &[Record], want: &[Record]) {
    assert_eq!(got.len(), want.len(), "record count");
    for (g, w) in got.iter().zip(want) {
        assert_eq!(g.id, w.id);
        assert_eq!(g.symbols, w.symbols);
        assert_eq!(g.text, w.text);
        assert_eq!(g.source_id, w.source_id);
        assert_eq!(*g.source_text, *w.source_text);
        assert_eq!(g.offset, w.offset);
        assert_eq!(g.visible, w.visible);
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-segment-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

// ---------------------------------------------------------------------
// Dataset segment map and fingerprints
// ---------------------------------------------------------------------

#[test]
fn segment_map_single_segment_is_the_legacy_dataset() {
    let flat = Dataset::new("d", NS, records(0, 10)).unwrap();
    assert_eq!(flat.segment_count(), 1);
    let segs = flat.segments();
    assert_eq!(segs.len(), 1);
    assert_eq!((segs[0].index, segs[0].start, segs[0].len), (0, 0, 10));
    // The sole segment fingerprints equal to the whole dataset, so
    // pre-append store columns are reused as segment 0 after an append.
    assert_eq!(flat.segment_fingerprint(0), flat.content_fingerprint());
}

#[test]
fn segment_fingerprints_are_content_fingerprints_of_the_slices() {
    let ds =
        Dataset::with_segments("d", NS, vec![records(0, 4), Vec::new(), records(4, 3)]).unwrap();
    assert_eq!(ds.segment_count(), 3);
    let segs = ds.segments();
    assert_eq!((segs[1].start, segs[1].len), (4, 0));
    assert_eq!((segs[2].start, segs[2].len), (4, 3));
    for (seg, recs) in segs.iter().zip([records(0, 4), Vec::new(), records(4, 3)]) {
        let standalone = Dataset::new("other-id", NS, recs).unwrap();
        assert_eq!(
            ds.segment_fingerprint(seg.index),
            standalone.content_fingerprint(),
            "segment {} fingerprint is the content fingerprint of its records",
            seg.index
        );
    }
}

#[test]
fn append_segment_preserves_existing_segment_fingerprints() {
    let flat = Dataset::new("d", NS, records(0, 8)).unwrap();
    let flat_fp = flat.content_fingerprint();
    let grown = flat.append_segment(records(8, 5)).unwrap();
    assert_eq!(grown.segment_count(), 2);
    assert_eq!(grown.len(), 13);
    // Old content is segment 0 under its old fingerprint; the
    // whole-dataset fingerprint changed (the content did).
    assert_eq!(grown.segment_fingerprint(0), flat_fp);
    assert_ne!(grown.content_fingerprint(), flat_fp);
    // Appending again carries both earlier fingerprints over.
    let grown2 = grown.append_segment(records(13, 2)).unwrap();
    assert_eq!(grown2.segment_count(), 3);
    assert_eq!(grown2.segment_fingerprint(0), grown.segment_fingerprint(0));
    assert_eq!(grown2.segment_fingerprint(1), grown.segment_fingerprint(1));

    // Growing is building at once: the segmented tests take
    // `with_segments` as their reference for the APPEND path.
    let at_once =
        Dataset::with_segments("d", NS, vec![records(0, 8), records(8, 5), records(13, 2)])
            .unwrap();
    assert_records_eq(&grown2.records, &at_once.records);
    assert_eq!(grown2.segments(), at_once.segments());
    for i in 0..at_once.segment_count() {
        assert_eq!(
            grown2.segment_fingerprint(i),
            at_once.segment_fingerprint(i),
            "segment {i}"
        );
    }
    assert_eq!(grown2.content_fingerprint(), at_once.content_fingerprint());
}

// ---------------------------------------------------------------------
// Measures without exact merge support: typed rejection on both paths
// ---------------------------------------------------------------------

#[test]
fn segmented_measure_support_is_enforced_in_the_engine() {
    let n = 16;
    let seg = Dataset::with_segments("d", NS, vec![records(0, 9), records(9, n - 9)]).unwrap();
    let extractor = PrecomputedExtractor::new(behaviors(n), NS);
    let h = FnHypothesis::char_class("is_a", |c| c == 'a');
    for measure in standard_library() {
        let request = InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(UNITS)],
            dataset: &seg,
            hypotheses: vec![&h],
            measures: vec![measure.as_ref()],
        };
        let result = inspect(&request, &config(Device::SingleCore, 8));
        if measure.supports_segment_merge() {
            assert!(
                result.is_ok(),
                "merge-capable measure {} must run on segmented datasets: {result:?}",
                measure.id()
            );
        } else {
            let expected = format!("measure {} cannot run on segmented datasets", measure.id());
            match result {
                Err(DniError::Query(msg)) => assert_eq!(msg, expected),
                other => panic!("measure {} must be rejected, got {other:?}", measure.id()),
            }
        }
    }
}

#[test]
fn segmented_measure_support_is_enforced_at_bind_time() {
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors(16), NS)),
        (0..UNITS).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
    );
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, vec![records(0, 9), records(9, 7)]).unwrap()),
    );
    let mut session = Session::new(catalog);
    let q = |measure: &str| {
        format!(
            "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING {measure} OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D"
        )
    };
    match session.prepare(&q("logreg_l1")) {
        Err(DniError::Query(msg)) => {
            assert_eq!(msg, "measure logreg_l1 cannot run on segmented datasets")
        }
        other => panic!(
            "logreg_l1 must be rejected at bind time, got {:?}",
            other.map(|p| p.statement().to_string())
        ),
    }
    // The merge-capable measure binds and runs on the very same dataset.
    let prepared = session.prepare(&q("corr")).unwrap();
    session.execute(&prepared).unwrap();
}

// ---------------------------------------------------------------------
// Per-segment extraction: merged scores vs the single pass
// ---------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any split of the records into segments — empty and single-record
    /// segments included — yields merged scores that match the flat
    /// single-pass result, is bit-identical between SingleCore and
    /// Parallel(3), and performs exactly one forward pass per block per
    /// non-empty segment.
    #[test]
    fn any_segment_split_matches_the_single_pass(
        n in 8usize..32,
        lens in proptest::collection::vec(0usize..7, 1..5),
    ) {
        const BLOCK: usize = 4;
        let flat = Dataset::new("d", NS, records(0, n)).unwrap();
        let seg = Dataset::with_segments("d", NS, split_records(n, &lens)).unwrap();
        prop_assert_eq!(seg.len(), n);
        let h = FnHypothesis::char_class("is_a", |c| c == 'a');
        let corr = CorrelationMeasure;
        let run = |dataset: &Dataset, device: Device| {
            let counting = CountingExtractor::new(Arc::new(PrecomputedExtractor::new(
                behaviors(n),
                NS,
            )));
            let request = InspectionRequest {
                model_id: "m".into(),
                extractor: &counting,
                groups: vec![UnitGroup::all(UNITS)],
                dataset,
                hypotheses: vec![&h],
                measures: vec![&corr],
            };
            let frame = inspect(&request, &config(device, BLOCK)).unwrap().0;
            (frame, counting.calls())
        };

        let (flat_frame, flat_calls) = run(&flat, Device::SingleCore);
        let (single, single_calls) = run(&seg, Device::SingleCore);
        let (parallel, parallel_calls) = run(&seg, Device::Parallel(3));

        // Exactly one forward pass per block, flat and segmented alike.
        prop_assert_eq!(flat_calls, n.div_ceil(BLOCK));
        let expected: usize = seg
            .segments()
            .iter()
            .map(|s| s.len.div_ceil(BLOCK))
            .sum();
        prop_assert_eq!(single_calls, expected, "segmented forward passes");
        prop_assert_eq!(parallel_calls, expected, "fan-out adds no passes");

        // Devices: bit-identical. Splits: equal to the flat pass within
        // float-accumulation tolerance (the per-segment partial sums
        // group differently).
        let a = single.unit_scores("corr", "is_a");
        prop_assert_eq!(&a, &parallel.unit_scores("corr", "is_a"));
        prop_assert_eq!(
            single.group_score("corr", "is_a"),
            parallel.group_score("corr", "is_a")
        );
        for ((u, x), (_, y)) in a.iter().zip(flat_frame.unit_scores("corr", "is_a")) {
            prop_assert!((x - y).abs() < 1e-3, "unit {}: {} vs flat {}", u, x, y);
        }
    }

    /// Merging is order-independent: two different splits of the same
    /// records agree with each other (not just with the flat pass).
    #[test]
    fn different_splits_agree_with_each_other(
        n in 8usize..28,
        lens_a in proptest::collection::vec(0usize..7, 1..4),
        lens_b in proptest::collection::vec(1usize..9, 1..3),
    ) {
        let h = FnHypothesis::char_class("is_b", |c| c == 'b');
        let corr = CorrelationMeasure;
        let run = |lens: &[usize]| {
            let seg = Dataset::with_segments("d", NS, split_records(n, lens)).unwrap();
            let extractor = PrecomputedExtractor::new(behaviors(n), NS);
            let request = InspectionRequest {
                model_id: "m".into(),
                extractor: &extractor,
                groups: vec![UnitGroup::all(UNITS)],
                dataset: &seg,
                hypotheses: vec![&h],
                measures: vec![&corr],
            };
            inspect(&request, &config(Device::SingleCore, 4))
                .unwrap()
                .0
                .unit_scores("corr", "is_b")
        };
        for ((u, x), (_, y)) in run(&lens_a).iter().zip(run(&lens_b)) {
            prop_assert!((x - y).abs() < 1e-3, "unit {}: split A {} vs split B {}", u, x, y);
        }
    }
}

// ---------------------------------------------------------------------
// Incremental warm re-inspection: append, re-run, extract only the new
// ---------------------------------------------------------------------

const SEG_LEN: usize = 16;
const TOTAL: usize = 3 * SEG_LEN;
const BLOCK: usize = 8;
const Q: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D";

fn segmented_catalog(segments: usize) -> (Catalog, Arc<CountingExtractor>) {
    let counting = Arc::new(CountingExtractor::new(Arc::new(PrecomputedExtractor::new(
        behaviors(TOTAL),
        NS,
    ))));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::<CountingExtractor>::clone(&counting),
        (0..UNITS).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    let segs = (0..segments)
        .map(|s| records(s * SEG_LEN, SEG_LEN))
        .collect();
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    (catalog, counting)
}

#[test]
fn append_then_reinspect_extracts_only_the_new_segment() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("incremental-{:?}", device).replace(['(', ')'], "-"));
        // Cold reference over the *grown* (3-segment) dataset, no store.
        let (reference_catalog, _) = segmented_catalog(3);
        let reference = bare(&reference_catalog, &config(device, BLOCK))
            .run_batch(&[Q])
            .unwrap()
            .tables;

        let (catalog, counting) = segmented_catalog(2);
        let mut session = Session::with_config(
            catalog,
            SessionConfig {
                inspection: config(device, BLOCK),
                store: Some(StoreConfig {
                    policy: MaterializationPolicy::ReadWrite,
                    block_records: BLOCK,
                    ..StoreConfig::at(&dir)
                }),
                ..SessionConfig::default()
            },
        );
        // Cold run over the first two segments: every block extracts.
        let out = session.run_batch(&[Q]).unwrap();
        assert!(out.report.query_errors.iter().all(Option::is_none));
        assert_eq!(
            counting.calls(),
            2 * SEG_LEN.div_ceil(BLOCK),
            "cold run extracts both segments ({device:?})"
        );
        assert_eq!(out.report.store.segment_passes, 2);

        // Append one segment; the plan now sees 2 warm + 1 cold segment.
        session
            .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
            .unwrap();
        let explain = session.explain(Q).unwrap();
        assert!(
            explain.contains("segments: 3 sealed, 2 warm, 0 partial, 1 cold\n")
                && explain.contains("extracted live; read-write)"),
            "got:\n{explain}"
        );

        // Warm incremental run: forward passes over ONLY the new segment,
        // merged frame bit-identical to the cold 3-segment reference.
        counting.reset();
        let out = session.run_batch(&[Q]).unwrap();
        assert!(out.report.query_errors.iter().all(Option::is_none));
        assert_eq!(
            counting.calls(),
            SEG_LEN.div_ceil(BLOCK),
            "warm re-inspection extracts only the appended segment ({device:?})"
        );
        assert_eq!(
            out.tables, reference,
            "incremental warm result is bit-identical to cold ({device:?})"
        );
        assert_eq!(out.report.store.segment_passes, 3, "all segments streamed");
        assert!(out.report.store.forward_passes_avoided > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A fully warm segmented re-run in a fresh session (fresh process
/// semantics) does zero forward passes on either device.
#[test]
fn fully_warm_segmented_rerun_does_zero_forward_passes() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("warm-{:?}", device).replace(['(', ')'], "-"));
        let store = |dir: &PathBuf| StoreConfig {
            policy: MaterializationPolicy::ReadWrite,
            block_records: BLOCK,
            ..StoreConfig::at(dir)
        };
        let (catalog, _) = segmented_catalog(3);
        let mut cold = Session::with_config(
            catalog,
            SessionConfig {
                inspection: config(device, BLOCK),
                store: Some(store(&dir)),
                ..SessionConfig::default()
            },
        );
        let cold_tables = cold.run_batch(&[Q]).unwrap().tables;
        drop(cold);

        let (catalog, counting) = segmented_catalog(3);
        let mut warm = Session::with_config(
            catalog,
            SessionConfig {
                inspection: config(device, BLOCK),
                store: Some(store(&dir)),
                ..SessionConfig::default()
            },
        );
        let out = warm.run_batch(&[Q]).unwrap();
        assert_eq!(counting.calls(), 0, "all three segments warm ({device:?})");
        assert_eq!(out.tables, cold_tables);
        assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
