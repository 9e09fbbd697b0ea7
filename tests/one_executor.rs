//! The seam of the one streaming executor, end to end through session +
//! store + views: a one-segment dataset runs the same pass as a segmented
//! one, and the only difference is the derived `full_pass` policy — a
//! plain one-segment INSPECT stops early and may merge `logreg` models, a
//! view pass or a multi-segment pass does neither.

mod common;

use common::bare;
use deepbase_repro::deepbase::prelude::*;
use deepbase_repro::deepbase::query::UnitMeta;
use deepbase_repro::tensor::Matrix;
use std::path::{Path, PathBuf};
use std::sync::Arc;

// Long enough (12,288 symbols a segment) that `corr` meets its default
// epsilon about half way through one segment.
const NS: usize = 16;
const UNITS: usize = 4;
const SEG_LEN: usize = 768;
const BLOCK: usize = 32;
const Q: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D";
const Q_LOGREG: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING logreg_l1 \
                        OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D";

/// `n` deterministic records with globally contiguous ids from `first_id`.
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

/// A catalog over `segments` sealed segments of `SEG_LEN` records.
fn catalog(segments: usize) -> (Catalog, Arc<CountingExtractor>) {
    catalog_split(segments, SEG_LEN)
}

/// A catalog over `segments` sealed segments of `seg_len` records (at most
/// `2 * SEG_LEN` in all): unit 0 tracks 'a', unit 1 tracks 'b', the rest
/// are deterministic noise.
fn catalog_split(segments: usize, seg_len: usize) -> (Catalog, Arc<CountingExtractor>) {
    let total = 2 * SEG_LEN;
    let mut behaviors = Matrix::zeros(total * NS, UNITS);
    for rec in records(0, total) {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            behaviors.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            behaviors.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            for u in 2..UNITS {
                behaviors.set(r, u, ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    let counting = Arc::new(CountingExtractor::new(Arc::new(PrecomputedExtractor::new(
        behaviors, NS,
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
        .map(|s| records(s * seg_len, seg_len))
        .collect();
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    (catalog, counting)
}

fn config(device: Device, epsilon: Option<f32>) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: BLOCK,
        epsilon,
        ..InspectionConfig::default()
    }
}

/// A read-write store session over a fresh directory.
fn session(
    name: &str,
    catalog: (Catalog, Arc<CountingExtractor>),
    inspection: InspectionConfig,
) -> (Session, Arc<CountingExtractor>, PathBuf) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-one-executor")
        .join(
            format!("{name}-{:?}-{}", inspection.device, std::process::id())
                .replace(['(', ')'], "-"),
        );
    let _ = std::fs::remove_dir_all(&dir);
    let (session, counting) = session_at(&dir, catalog, inspection);
    (session, counting, dir)
}

/// A read-write store session over whatever `dir` already holds.
fn session_at(
    dir: &Path,
    (catalog, counting): (Catalog, Arc<CountingExtractor>),
    inspection: InspectionConfig,
) -> (Session, Arc<CountingExtractor>) {
    let store = StoreConfig {
        policy: MaterializationPolicy::ReadWrite,
        block_records: BLOCK,
        ..StoreConfig::at(dir)
    };
    let config = SessionConfig {
        inspection,
        store: Some(store),
        ..SessionConfig::default()
    };
    (Session::with_config(catalog, config), counting)
}

#[test]
fn one_segment_view_replays_and_refreshes_like_the_cold_pass() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let exact = config(device, Some(1e-12));
        let cold = |segments: usize| {
            bare(&catalog(segments).0, &exact)
                .run_batch(&[Q])
                .unwrap()
                .tables
        };
        let (mut session, counting, dir) = session("replay", catalog(1), exact.clone());

        // Built over ONE segment, the view replays the cold INSPECT.
        session.create_view("v", Q).unwrap();
        assert_eq!(counting.calls(), SEG_LEN.div_ceil(BLOCK), "{device:?}");
        counting.reset();
        assert_eq!(session.read_view("v").unwrap(), cold(1)[0], "{device:?}");
        assert_eq!(counting.calls(), 0, "replay extracts nothing ({device:?})");

        // Its captured states are a valid fold base: append + refresh
        // streams only the new segment and equals the cold two-segment run.
        session
            .append_records("seq", records(SEG_LEN, SEG_LEN))
            .unwrap();
        assert_eq!(
            session.refresh_view("v").unwrap(),
            ViewRefresh::Incremental { new_segments: 1 }
        );
        assert_eq!(counting.calls(), SEG_LEN.div_ceil(BLOCK), "{device:?}");
        assert_eq!(session.read_view("v").unwrap(), cold(2)[0], "{device:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn one_segment_inspect_stops_early_while_the_view_build_reads_every_row() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let default_eps = config(device, None);
        let (mut session, counting, dir) = session("early", catalog(1), default_eps);
        session.create_view("v", Q).unwrap();
        assert_eq!(counting.records_extracted(), SEG_LEN, "{device:?}");

        // Same session, same statement, a fresh view on disk: the INSPECT
        // is not answered by replay and still stops the moment it converged.
        let out = session.run_batch(&[Q]).unwrap();
        let rows_read = out.report.completion.rows_read;
        assert!(
            0 < rows_read && rows_read < SEG_LEN,
            "read {rows_read} of {SEG_LEN} ({device:?})"
        );
        assert!(out.report.completion.is_complete());
        let _ = std::fs::remove_dir_all(&dir);
    }
}

#[test]
fn logreg_runs_on_one_segment_and_is_refused_typed_on_two() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let config = config(device, None);
        let one = bare(&catalog(1).0, &config).run_batch(&[Q_LOGREG]).unwrap();
        assert_eq!(one.tables[0].len(), 2 * UNITS, "{device:?}");
        match bare(&catalog(2).0, &config).run_batch(&[Q_LOGREG]) {
            Err(DniError::Query(msg)) => assert!(msg.contains("logreg_l1"), "{msg}"),
            other => panic!("expected the typed segmented-measure error, got {other:?}"),
        }
    }
}

/// The store side of the same seam: the same records registered as one
/// segment and as three take the same path from optimizer to scan — one
/// scan plan per segment — so a warm re-inspection does zero forward
/// passes, equals the store-less run of the same shape bit for bit, does
/// the same store work per segment, and `explain` renders the same lines.
#[test]
fn warm_store_scans_one_segment_and_three_through_the_same_path() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let exact = config(device, Some(1e-12));
        for segments in [1, 3] {
            let shape = || catalog_split(segments, SEG_LEN / segments);
            let reference = bare(&shape().0, &exact).run_batch(&[Q]).unwrap().tables;

            let name = format!("warm-{segments}");
            let (mut cold, _, dir) = session(&name, shape(), exact.clone());
            let out = cold.run_batch(&[Q]).unwrap();
            assert_eq!(out.tables, reference, "{segments} segments, {device:?}");
            assert_eq!(out.report.store.columns_written, UNITS * segments);
            drop(cold);

            let (mut warm, counting) = session_at(&dir, shape(), exact.clone());
            let explain = warm.explain(Q).unwrap();
            for line in [
                format!("{UNITS}/{UNITS} unit columns stored, 0 extracted live; read-write)"),
                format!("segments: {segments} sealed, {segments} warm, 0 partial, 0 cold"),
                "pruned: ".to_string(),
            ] {
                assert!(explain.contains(&line), "no {line:?} in:\n{explain}");
            }
            let out = warm.run_batch(&[Q]).unwrap();
            assert_eq!(counting.calls(), 0, "{segments} segments, {device:?}");
            assert_eq!(out.tables, reference, "{segments} segments, {device:?}");
            let store = &out.report.store;
            assert_eq!(store.columns_scanned, UNITS * segments);
            assert_eq!(store.forward_passes_avoided, SEG_LEN / BLOCK);
            assert_eq!(store.error_count, 0, "{:?}", store.errors);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
