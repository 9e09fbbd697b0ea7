//! Materialized views (ISSUE 9 acceptance): a fresh view replays its
//! stored frame bit-identically to a cold execution with **zero**
//! extractor forward passes and **zero** store block reads; after an
//! append the view goes stale, `refresh_view` streams only the new
//! segments and the folded frame stays bit-identical to a full cold
//! rebuild on SingleCore and Parallel; whitespace/case variants of one
//! statement normalize to one view; stale reads raise the typed
//! `ViewStale` error instead of silently paying extraction; a view over
//! appended records is invalid after a restart and rebuilds; and a
//! crashed (abandoned mid-write) refresh leaves the old entry intact
//! on reopen.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
use deepbase_tensor::Matrix;
use std::path::PathBuf;
use std::sync::Arc;

const NS: usize = 6;
const UNITS: usize = 4;
const SEG_LEN: usize = 16;
const BLOCK: usize = 8;
const TOTAL: usize = 3 * SEG_LEN;
const Q: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                 FROM models M, units U, hypotheses H, inputs D";

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

fn config(device: Device, block_records: usize) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records,
        epsilon: Some(1e-12), // never converge early: full deterministic pass
        ..InspectionConfig::default()
    }
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-view-tests")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn segmented_catalog(segments: usize) -> (Catalog, Arc<CountingExtractor>) {
    let chars: Vec<Arc<dyn HypothesisFn>> = vec![
        Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
        Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
    ];
    catalog_with_sets(segments, vec![("chars", chars)])
}

/// The fixture catalog over the given hypothesis sets.
fn catalog_with_sets(
    segments: usize,
    sets: Vec<(&str, Vec<Arc<dyn HypothesisFn>>)>,
) -> (Catalog, Arc<CountingExtractor>) {
    let counting = Arc::new(CountingExtractor::new(Arc::new(PrecomputedExtractor::new(
        behaviors(TOTAL),
        NS,
    ))));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::<CountingExtractor>::clone(&counting),
        (0..UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    for (name, hypotheses) in sets {
        catalog.add_hypotheses(name, hypotheses);
    }
    let segs = (0..segments)
        .map(|s| records(s * SEG_LEN, SEG_LEN))
        .collect();
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    (catalog, counting)
}

fn store_config(dir: &PathBuf, policy: MaterializationPolicy) -> StoreConfig {
    StoreConfig {
        policy,
        block_records: BLOCK,
        ..StoreConfig::at(dir)
    }
}

fn session_at(
    dir: &PathBuf,
    device: Device,
    segments: usize,
    policy: MaterializationPolicy,
) -> (Session, Arc<CountingExtractor>) {
    let (catalog, counting) = segmented_catalog(segments);
    (session_over(dir, device, catalog, policy), counting)
}

fn session_over(
    dir: &PathBuf,
    device: Device,
    catalog: Catalog,
    policy: MaterializationPolicy,
) -> Session {
    Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device, BLOCK),
            store: Some(store_config(dir, policy)),
            ..SessionConfig::default()
        },
    )
}

/// Cold reference tables over a fresh `segments`-segment catalog with no
/// store at all: the bit-exactness yardstick for every replay/refresh.
fn cold_reference(device: Device, segments: usize) -> Vec<Table> {
    let (catalog, _) = segmented_catalog(segments);
    bare(&catalog, &config(device, BLOCK))
        .run_batch(&[Q])
        .unwrap()
        .tables
}

// ---------------------------------------------------------------------
// Fresh replay: zero forward passes, zero store scans, bit-identical
// ---------------------------------------------------------------------

#[test]
fn read_view_replays_bit_identically_with_zero_passes_and_zero_scans() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("replay-{:?}", device).replace(['(', ')'], "-"));
        let reference = cold_reference(device, 2);
        let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);

        session.create_view("v", Q).unwrap();
        assert_eq!(
            counting.calls(),
            2 * SEG_LEN.div_ceil(BLOCK),
            "the build pays the full pass once ({device:?})"
        );
        assert_eq!(session.store_stats().view_builds, 1);
        assert!(session.store_stats().view_bytes_written > 0);

        counting.reset();
        let before = session.store_stats().clone();
        let table = session.read_view("v").unwrap();
        let after = session.store_stats();
        assert_eq!(counting.calls(), 0, "replay does zero forward passes");
        assert_eq!(
            after.blocks_read, before.blocks_read,
            "replay reads zero store blocks ({device:?})"
        );
        assert_eq!(
            after.columns_scanned, before.columns_scanned,
            "replay scans zero store columns ({device:?})"
        );
        assert_eq!(after.view_hits, before.view_hits + 1);
        assert_eq!(table, reference[0], "replay is bit-identical ({device:?})");
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The optimizer makes the same call for plain INSPECT statements: in a
/// fresh session (fresh process semantics) over the same store, the
/// statement short-circuits to a view replay — zero forward passes AND
/// zero block reads (a warm-store scan would read blocks; the view does
/// not even open the columns).
#[test]
fn optimizer_replays_a_fresh_view_for_plain_inspect() {
    let device = Device::SingleCore;
    let dir = tmp_dir("optimizer-replay");
    let reference = cold_reference(device, 2);
    let (mut builder, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    builder.create_view("v", Q).unwrap();
    drop(builder);

    let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    let explain = session.explain(Q).unwrap();
    assert!(
        explain.contains("view: v, fresh"),
        "explain names the replayed view, got:\n{explain}"
    );
    // The replayed statement is placed with the view's frame: it joins no
    // shared pass, and the replay line names it.
    assert!(
        explain.contains(", 0 shared groups,")
            && explain.contains("└─ query[0] view: v, fresh (replaying the stored frame"),
        "the replay is a placed frame, not a group, got:\n{explain}"
    );
    let out = session.run_batch(&[Q]).unwrap();
    assert!(out.report.query_errors.iter().all(Option::is_none));
    assert_eq!(counting.calls(), 0, "replay does zero forward passes");
    assert_eq!(
        session.store_stats().blocks_read,
        0,
        "replay reads zero store blocks (a warm scan would not)"
    );
    assert_eq!(session.store_stats().view_hits, 1);
    assert_eq!(
        out.report.store.view_hits, 1,
        "the batch report counts its own replay"
    );
    assert_eq!(out.tables, reference, "replayed batch is bit-identical");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Statement normalization: one statement, one view
// ---------------------------------------------------------------------

/// Whitespace and keyword-case variants of one statement normalize to
/// the same plan-cache key, so they share one view: a view created from
/// the noisy spelling replays for the canonical one and vice versa.
#[test]
fn whitespace_and_case_variants_share_one_view() {
    let device = Device::SingleCore;
    let dir = tmp_dir("normalize");
    let noisy = "SELECT  S.uid,   S.unit_score\n  INSPECT U.uid AND H.h USING corr \
                 OVER D.seq AS S FROM models M, units U,  hypotheses H, inputs D";
    let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", noisy).unwrap();

    counting.reset();
    let explain = session.explain(Q).unwrap();
    assert!(
        explain.contains("view: v, fresh"),
        "canonical spelling hits the view built from the noisy one, got:\n{explain}"
    );
    let table = session.read_view("v").unwrap();
    assert_eq!(counting.calls(), 0);
    assert_eq!(table, cold_reference(device, 2)[0]);

    // The reverse spelling re-registers nothing: creating under the same
    // name from the canonical text replaces (not duplicates) the entry.
    session.create_view("v", Q).unwrap();
    assert_eq!(session.list_views().unwrap().len(), 1, "still one view");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Staleness and incremental refresh
// ---------------------------------------------------------------------

#[test]
fn append_staleness_and_incremental_refresh_fold_only_new_segments() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("refresh-{:?}", device).replace(['(', ')'], "-"));
        let reference = cold_reference(device, 3);
        let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
        session.create_view("v", Q).unwrap();

        // Fresh → refresh is a no-op, no extraction.
        counting.reset();
        assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Noop);
        assert_eq!(counting.calls(), 0);

        // The dataset grows: the view is stale, reads refuse to pay.
        session
            .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
            .unwrap();
        match session.read_view("v") {
            Err(DniError::ViewStale { view, reason }) => {
                assert_eq!(view, "v");
                assert_eq!(reason, "1 new segments; REFRESH to fold them in");
            }
            other => panic!("stale read must raise ViewStale, got {other:?}"),
        }
        let explain = session.explain(Q).unwrap();
        assert!(
            explain.contains("view: v, stale(1 new segments)"),
            "explain annotates the stale view, got:\n{explain}"
        );

        // Refresh streams ONLY the appended segment and folds it in.
        counting.reset();
        assert_eq!(
            session.refresh_view("v").unwrap(),
            ViewRefresh::Incremental { new_segments: 1 }
        );
        assert_eq!(
            counting.calls(),
            SEG_LEN.div_ceil(BLOCK),
            "incremental refresh extracts only the new segment ({device:?})"
        );
        assert_eq!(session.store_stats().view_refreshes, 1);

        // The folded frame is bit-identical to a full cold rebuild.
        counting.reset();
        let table = session.read_view("v").unwrap();
        assert_eq!(counting.calls(), 0);
        assert_eq!(
            table, reference[0],
            "incremental refresh ≡ cold rebuild, bit-exactly ({device:?})"
        );
        assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Noop);
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A table with its float cells as bit patterns (`Table`'s own `==`
/// compares floats by value).
fn bits(table: &Table) -> Vec<Vec<String>> {
    (0..table.schema().arity())
        .map(|c| {
            let column = table.column_at(c);
            match column.floats() {
                Some(floats) => floats
                    .iter()
                    .map(|v| format!("{:08x}", v.to_bits()))
                    .collect(),
                None => (0..table.len())
                    .map(|r| format!("{:?}", column.value(r)))
                    .collect(),
            }
        })
        .collect()
}

/// Builds view `v` of `q` over two segments of `catalog_of(2)`, appends the
/// third and refreshes incrementally; returns the refreshed view, its
/// stored fold-point triples, and the cold rebuild over `catalog_of(3)`.
fn refresh_against_cold_rebuild(
    name: &str,
    q: &str,
    catalog_of: &dyn Fn(usize) -> Catalog,
) -> (Table, Vec<(String, String)>, Table) {
    let device = Device::SingleCore;
    let dir = tmp_dir(name);
    let rw = MaterializationPolicy::ReadWrite;
    let mut session = session_over(&dir, device, catalog_of(2), rw);
    session.create_view("v", q).unwrap();
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    assert_eq!(
        session.refresh_view("v").unwrap(),
        ViewRefresh::Incremental { new_segments: 1 }
    );
    let refreshed = session.read_view("v").unwrap();
    let doc = session.store().unwrap().views().load("v").unwrap().unwrap();
    let stored = (doc.states.iter())
        .map(|s| (s.measure_id.clone(), s.hyp_id.clone()))
        .collect();
    let cold = bare(&catalog_of(3), &config(device, BLOCK)).run_batch(&[q]);
    let _ = std::fs::remove_dir_all(&dir);
    (refreshed, stored, cold.unwrap().tables.remove(0))
}

const Q_CORR_JACCARD: &str = "SELECT S.score_id, S.hyp_id, S.uid, S.unit_score, S.group_score \
                              INSPECT U.uid AND H.h USING corr, jaccard_q95 OVER D.seq AS S \
                              FROM models M, units U, hypotheses H, inputs D";

/// A view built over two segments and refreshed over an appended third is
/// the same `ViewDoc` — header, every state byte, every row's score bits —
/// as a view created in a second store over the three-segment catalog, for
/// `corr`, `jaccard_q95` and `diff_means` in one statement, and for a
/// `corr` statement grouped by layer, whose two groups read one shared
/// accumulator grid (the refresh embeds both revived states into it), on
/// both devices.
#[test]
fn an_incremental_refresh_writes_the_view_file_a_cold_build_writes() {
    const Q_THREE: &str = "SELECT S.uid, S.unit_score \
                           INSPECT U.uid AND H.h USING corr, jaccard_q95, diff_means OVER D.seq AS S \
                           FROM models M, units U, hypotheses H, inputs D";
    const Q_LAYERS: &str = "SELECT S.group_id, S.uid, S.unit_score \
                            INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                            FROM models M, units U, hypotheses H, inputs D GROUP BY U.layer";
    let three = [
        "corr",
        "corr",
        "jaccard_q95",
        "jaccard_q95",
        "diff_means",
        "diff_means",
    ];
    for device in [Device::SingleCore, Device::Parallel(3)] {
        // (statement, stored measure per state, rows)
        let cases = [
            (Q_THREE, &three[..], 3 * 2 * UNITS),
            (Q_LAYERS, &["corr"; 4][..], 2 * 2 * UNITS / 2),
        ];
        for (q, measures, rows) in cases {
            let tag = format!("{device:?}-{}", measures.len()).replace(['(', ')'], "-");
            let rw = MaterializationPolicy::ReadWrite;
            let refreshed_dir = tmp_dir(&format!("file-refresh-{tag}"));
            let (mut refreshed, _) = session_at(&refreshed_dir, device, 2, rw);
            refreshed.create_view("v", q).unwrap();
            refreshed
                .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
                .unwrap();
            assert_eq!(
                refreshed.refresh_view("v").unwrap(),
                ViewRefresh::Incremental { new_segments: 1 }
            );
            let built_dir = tmp_dir(&format!("file-build-{tag}"));
            let (mut built, _) = session_at(&built_dir, device, 3, rw);
            built.create_view("v", q).unwrap();

            let load = |session: &Session| session.store().unwrap().views().load("v").unwrap();
            let (a, b) = (load(&refreshed).unwrap(), load(&built).unwrap());
            assert_eq!(a.segment_fps.len(), 3);
            let stored: Vec<&str> = a.states.iter().map(|s| s.measure_id.as_str()).collect();
            assert_eq!(stored, measures, "{device:?}");
            assert_eq!(a.rows.len(), rows);
            assert!(a == b, "refreshed ≡ built, byte for byte ({device:?}, {q})");
            let _ = std::fs::remove_dir_all(&refreshed_dir);
            let _ = std::fs::remove_dir_all(&built_dir);
        }
    }
}

/// Two different hypothesis functions registered under one id (nothing
/// enforces uniqueness; the pass keys by function identity for exactly
/// this reason): a refresh must revive each slot from *its* stored state,
/// not both from the first that carries the id.
#[test]
fn refreshing_a_view_over_two_same_id_hypotheses_equals_the_cold_rebuild() {
    let catalog_of = |segments| {
        let x = |class: char| -> Vec<Arc<dyn HypothesisFn>> {
            vec![Arc::new(FnHypothesis::char_class("x", move |c| c == class))]
        };
        catalog_with_sets(segments, vec![("set_a", x('a')), ("set_b", x('b'))]).0
    };
    let (refreshed, stored, cold) =
        refresh_against_cold_rebuild("same-id", Q_CORR_JACCARD, &catalog_of);
    assert_eq!(bits(&refreshed), bits(&cold), "refresh ≡ cold rebuild");
    assert_eq!(cold.len(), 2 * 2 * UNITS);
    let id = |measure: &str| (measure.to_string(), "x".to_string());
    let expect = [id("corr"), id("corr"), id("jaccard_q95"), id("jaccard_q95")];
    assert_eq!(stored, expect);
    // The two `x` rows differ: unit 1 *is* the second `x`.
    let scores = cold.column_at(3).floats().unwrap();
    assert_ne!(scores[..UNITS], scores[UNITS..2 * UNITS]);
    assert_eq!(scores[UNITS + 1], 1.0, "corr(unit 1, is_b)");
}

/// One function registered in two hypothesis sets is one union column named
/// twice by the statement: its state is stored once per measure, at its
/// first position (what per-pair slot dedup has always stored), and both
/// mentions revive from it.
#[test]
fn a_hypothesis_shared_by_two_sets_is_stored_once_and_refreshes_to_the_cold_rebuild() {
    let catalog_of = |segments| {
        let is_a: Arc<dyn HypothesisFn> = Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'));
        let is_b: Arc<dyn HypothesisFn> = Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b'));
        let sets = vec![
            ("set_a", vec![Arc::clone(&is_a), is_b]),
            ("set_b", vec![is_a]),
        ];
        catalog_with_sets(segments, sets).0
    };
    let (refreshed, stored, cold) =
        refresh_against_cold_rebuild("arc-shared", Q_CORR_JACCARD, &catalog_of);
    assert_eq!(bits(&refreshed), bits(&cold), "refresh ≡ cold rebuild");
    // Three mentions per measure in the frame, two states in the fold point.
    assert_eq!(cold.len(), 2 * 3 * UNITS);
    let pair = |measure: &str, hyp: &str| (measure.to_string(), hyp.to_string());
    let expect = [
        pair("corr", "is_a"),
        pair("corr", "is_b"),
        pair("jaccard_q95", "is_a"),
        pair("jaccard_q95", "is_b"),
    ];
    assert_eq!(stored, expect);
}

/// A stored fold point that does not line up with the statement's slots —
/// a state missing, one too many, two out of order, or bytes the measure
/// refuses — fails the refresh with the typed error, never a guess.
#[test]
fn a_fold_point_that_does_not_match_the_slots_is_refused_typed() {
    let device = Device::SingleCore;
    let dir = tmp_dir("tampered");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q_CORR_JACCARD).unwrap();
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    let views = session.store().unwrap().views();
    let intact = (*views.load("v").unwrap().unwrap()).clone();
    assert_eq!(intact.states.len(), 4);
    type Tamper = fn(&mut Vec<deepbase_store::ViewHypState>);
    let cases: [(&str, Tamper, &str); 5] = [
        ("a missing state", |s| drop(s.pop()), "missing slot"),
        ("a leftover state", |s| s.push(s[3].clone()), "1 more than"),
        ("swapped states", |s| s.swap(0, 1), "found where"),
        // A jaccard sample that disagrees between its two hypotheses.
        (
            "a disagreeing unit sample",
            |s| *s[3].state.last_mut().unwrap() ^= 1,
            "does not revive",
        ),
        (
            "mangled bytes",
            |s| s[0].state.truncate(9),
            "does not revive",
        ),
    ];
    for (what, tamper, expect) in cases {
        let mut doc = intact.clone();
        tamper(&mut doc.states);
        session.store().unwrap().views().save(&doc).unwrap();
        match session.refresh_view("v") {
            Err(DniError::BadConfig(msg)) => assert!(
                msg.starts_with("stored view state") && msg.contains(expect),
                "{what}: {msg}"
            ),
            other => panic!("{what} must be refused typed, got {other:?}"),
        }
    }
    session.store().unwrap().views().save(&intact).unwrap();
    assert_eq!(
        session.refresh_view("v").unwrap(),
        ViewRefresh::Incremental { new_segments: 1 }
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// Any non-append change — here the dataset's records are replaced
/// wholesale — invalidates the view; refresh rebuilds from scratch and
/// the rebuilt frame matches a cold run over the new inputs.
#[test]
fn invalid_view_rebuilds_from_scratch() {
    let device = Device::SingleCore;
    let dir = tmp_dir("rebuild");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q).unwrap();

    // Replace the dataset: same id, same shape, different content.
    let mut segs: Vec<Vec<Record>> = vec![records(0, SEG_LEN), records(SEG_LEN, SEG_LEN)];
    segs[0].reverse();
    session.catalog_mut().add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs.clone()).unwrap()),
    );
    match session.read_view("v") {
        Err(DniError::ViewStale { reason, .. }) => {
            assert_eq!(reason, "inputs changed; refresh rebuilds the view")
        }
        other => panic!("invalid read must raise ViewStale, got {other:?}"),
    }
    assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Rebuilt);

    let rebuilt = session.read_view("v").unwrap();
    let (reference_catalog, _) = segmented_catalog(2);
    let mut reference_catalog = reference_catalog;
    reference_catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    let reference = bare(&reference_catalog, &config(device, BLOCK))
        .run_batch(&[Q])
        .unwrap()
        .tables;
    assert_eq!(rebuilt, reference[0]);
    let _ = std::fs::remove_dir_all(&dir);
}

/// A session runs the one streaming engine, so `"DeepBase"` is the only
/// stamp it writes or accepts: a view file stamped anything else was not
/// built by this pass — it probes `Invalid` and is rebuilt, never
/// silently replayed.
#[test]
fn a_view_stamped_by_another_engine_is_invalid_and_rebuilds() {
    let dir = tmp_dir("foreign-stamp");
    let (mut session, _) = session_at(
        &dir,
        Device::SingleCore,
        2,
        MaterializationPolicy::ReadWrite,
    );
    session.create_view("v", Q).unwrap();
    let built = session.read_view("v").unwrap();
    let freshness = |session: &mut Session| session.list_views().unwrap()[0].freshness;
    assert_eq!(freshness(&mut session), ViewFreshness::Fresh);

    let stored = |session: &Session| {
        let views = session.store().unwrap().views();
        (*views.load("v").unwrap().expect("view v")).clone()
    };
    let doc = stored(&session);
    assert_eq!(doc.engine, "DeepBase");
    let foreign = ViewDoc {
        engine: "PyBase".into(),
        ..doc
    };
    session.store().unwrap().views().save(&foreign).unwrap();

    assert_eq!(freshness(&mut session), ViewFreshness::Invalid);
    assert!(matches!(
        session.read_view("v"),
        Err(DniError::ViewStale { .. })
    ));
    // A plain INSPECT of the statement runs the pass instead of replaying.
    let inspected = session.run_batch(&[Q]).unwrap();
    assert_eq!(inspected.report.store.view_hits, 0);
    assert_eq!(inspected.tables[0], built);

    assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Rebuilt);
    assert_eq!(stored(&session).engine, "DeepBase");
    assert_eq!(session.read_view("v").unwrap(), built);
    let _ = std::fs::remove_dir_all(&dir);
}

/// Appended records live in memory only; the store and its views outlive
/// the process. A session reopened over the same store with the base
/// catalog — what a restart leaves — sees a view whose dataset lost a
/// segment: it probes `Invalid`, is neither replayed nor read, and its
/// refresh rebuilds it over the records the process has.
#[test]
fn after_a_restart_a_view_over_appended_records_is_invalid_and_rebuilds() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = tmp_dir(&format!("restart-{:?}", device).replace(['(', ')'], "-"));
        let rw = MaterializationPolicy::ReadWrite;
        let (mut session, _) = session_at(&dir, device, 2, rw);
        session.create_view("v", Q).unwrap();
        session
            .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
            .unwrap();
        assert_eq!(
            session.refresh_view("v").unwrap(),
            ViewRefresh::Incremental { new_segments: 1 }
        );
        drop(session);

        let reference = cold_reference(device, 2);
        let (mut reopened, _) = session_at(&dir, device, 2, rw);
        let explain = reopened.explain(Q).unwrap();
        assert!(explain.contains("view: v, invalid"), "got:\n{explain}");
        let out = reopened.run_batch(&[Q]).unwrap();
        assert!(out.report.query_errors.iter().all(Option::is_none));
        assert_eq!(
            out.report.store.view_hits, 0,
            "an invalid view is never replayed ({device:?})"
        );
        assert_eq!(out.tables, reference);
        match reopened.read_view("v") {
            Err(DniError::ViewStale { view, reason }) => {
                assert_eq!(view, "v");
                assert_eq!(reason, "inputs changed; refresh rebuilds the view");
            }
            other => panic!("a read after restart must raise ViewStale, got {other:?}"),
        }
        assert_eq!(reopened.refresh_view("v").unwrap(), ViewRefresh::Rebuilt);
        let rebuilt = reopened.read_view("v").unwrap();
        assert_eq!(
            bits(&rebuilt),
            bits(&reference[0]),
            "the rebuilt view ≡ a cold run over the base catalog ({device:?})"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Error paths and catalog surface
// ---------------------------------------------------------------------

#[test]
fn view_error_paths_are_typed() {
    let device = Device::SingleCore;

    // No store configured: every view operation raises the same error.
    let (catalog, _) = segmented_catalog(2);
    let mut bare = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device, BLOCK),
            ..SessionConfig::default()
        },
    );
    for result in [
        bare.create_view("v", Q).err(),
        bare.read_view("v").map(|_| ()).err(),
        bare.refresh_view("v").map(|_| ()).err(),
    ] {
        match result {
            Some(DniError::Query(msg)) => {
                assert_eq!(msg, "materialized views need a configured behavior store")
            }
            other => panic!("store-less view op must raise Query, got {other:?}"),
        }
    }

    let dir = tmp_dir("errors");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    match session.create_view("", Q) {
        Err(DniError::Query(msg)) => assert_eq!(msg, "view name must not be empty"),
        other => panic!("empty name must be rejected, got {other:?}"),
    }
    match session.read_view("ghost") {
        Err(DniError::UnknownView(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown view must raise UnknownView, got {other:?}"),
    }
    match session.refresh_view("ghost") {
        Err(DniError::UnknownView(name)) => assert_eq!(name, "ghost"),
        other => panic!("unknown view must raise UnknownView, got {other:?}"),
    }
    // Order-dependent SGD measures have no durable state.
    let flat = Q.replace("corr", "logreg_l1");
    assert!(session.create_view("sgd", &flat).is_err());
    session.create_view("v", Q).unwrap();
    drop(session);

    // A read-only store serves reads but refuses writes.
    let (mut ro, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadOnly);
    counting.reset();
    assert!(ro.read_view("v").is_ok(), "read-only stores replay views");
    assert_eq!(counting.calls(), 0);
    match ro.create_view("other", Q) {
        Err(DniError::Query(msg)) => {
            assert_eq!(
                msg,
                "the behavior store is read-only; views cannot be written"
            )
        }
        other => panic!("read-only create must be rejected, got {other:?}"),
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A measure with no durable state (the order-dependent SGD probes) cannot
/// back a view: on one segment the view write refuses it before any pass,
/// and on two segments `bind` refuses it for the segments.
#[test]
fn a_measure_with_no_durable_state_is_refused_a_view_before_any_pass() {
    let device = Device::SingleCore;
    let sgd = Q.replace("corr", "logreg_l1");
    for (segments, want) in [
        (
            1,
            "measure logreg_l1 has no durable state; it cannot back a view",
        ),
        (2, "measure logreg_l1 cannot run on segmented datasets"),
    ] {
        let dir = tmp_dir(&format!("no-durable-state-{segments}"));
        let (mut session, counting) =
            session_at(&dir, device, segments, MaterializationPolicy::ReadWrite);
        counting.reset();
        match session.create_view("sgd", &sgd) {
            Err(DniError::Query(msg)) => assert_eq!(msg, want, "{segments} segments"),
            other => panic!("{segments} segments: expected Query, got {other:?}"),
        }
        assert_eq!(counting.calls(), 0, "{segments} segments");
        assert!(
            session.list_views().unwrap().is_empty(),
            "{segments} segments"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// A statement whose WHERE keeps no unit plans no wave: its view builds
/// without a pass and replays the empty table a cold run returns.
#[test]
fn a_view_over_no_units_is_built_without_a_pass() {
    let device = Device::SingleCore;
    let dir = tmp_dir("no-units");
    let (mut session, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    let no_units = format!("{Q} WHERE U.uid >= {UNITS}");
    counting.reset();
    session.create_view("v", &no_units).unwrap();
    assert_eq!(counting.calls(), 0, "no wave, no forward pass");
    assert_eq!(session.scheduler().stats().waves_admitted, 0);
    let replay = session.read_view("v").unwrap();
    assert!(replay.is_empty());
    let (catalog, _) = segmented_catalog(2);
    let cold = bare(&catalog, &config(device, BLOCK)).run(&no_units);
    assert_eq!(replay, cold.unwrap());
    let _ = std::fs::remove_dir_all(&dir);
}

/// File names under a views directory, sorted.
fn view_files(views_dir: &std::path::Path) -> Vec<String> {
    let mut names: Vec<String> = std::fs::read_dir(views_dir)
        .unwrap()
        .map(|entry| entry.unwrap().file_name().to_string_lossy().into_owned())
        .collect();
    names.sort();
    names
}

/// A view build or refresh needs a complete pass, so a run budget that
/// interrupts one fails it typed — `Cancelled` for a tripped token,
/// `DeadlineExceeded` for a work cap — and writes nothing: no catalog
/// entry, no view or temp file, and a stale view stays stale.
#[test]
fn view_builds_interrupted_by_the_run_budget_fail_typed_and_write_nothing() {
    let device = Device::SingleCore;
    let dir = tmp_dir("budget");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q).unwrap();
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    let views_dir = session.store().unwrap().views().dir().to_path_buf();
    let files = view_files(&views_dir);
    let listed = |session: &mut Session| -> Vec<String> {
        let views = session.list_views().unwrap();
        views.into_iter().map(|info| info.name).collect()
    };
    assert_eq!(listed(&mut session), vec!["v".to_string()]);

    // A token tripped before the build: the pass stops before its first
    // block.
    let token = CancelToken::new();
    token.cancel();
    session.set_budget(RunBudget {
        cancel: Some(token),
        ..RunBudget::default()
    });
    let err = session.create_view("cancelled", Q).unwrap_err();
    assert_eq!(err, DniError::Cancelled);
    assert!(err.is_transient(), "a cancelled build may be retried");
    assert_eq!(listed(&mut session), vec!["v".to_string()]);
    assert_eq!(view_files(&views_dir), files, "nothing written");

    // One block of a multi-block dataset: the cap interrupts the build.
    session.set_budget(RunBudget {
        max_blocks: Some(1),
        ..RunBudget::default()
    });
    match session.create_view("capped", Q) {
        Err(DniError::DeadlineExceeded(msg)) => assert!(msg.contains("complete pass"), "{msg}"),
        other => panic!("a capped build must raise DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(listed(&mut session), vec!["v".to_string()]);
    assert_eq!(view_files(&views_dir), files, "nothing written");

    // Refreshing the stale view under the same cap fails the same way,
    // and the old entry survives, still stale.
    match session.refresh_view("v") {
        Err(DniError::DeadlineExceeded(msg)) => assert!(msg.contains("complete pass"), "{msg}"),
        other => panic!("a capped refresh must raise DeadlineExceeded, got {other:?}"),
    }
    assert_eq!(listed(&mut session), vec!["v".to_string()]);
    assert_eq!(view_files(&views_dir), files, "nothing written");
    assert!(
        matches!(session.read_view("v"), Err(DniError::ViewStale { .. })),
        "the old view is still stale"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn list_and_drop_views() {
    let device = Device::SingleCore;
    let dir = tmp_dir("list-drop");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    let q_b = Q.replace("H.h USING corr", "H.h USING diff_means");
    session.create_view("alpha", Q).unwrap();
    session.create_view("beta", &q_b).unwrap();

    let mut views = session.list_views().unwrap();
    views.sort_by(|a, b| a.name.cmp(&b.name));
    assert_eq!(views.len(), 2);
    assert_eq!(views[0].name, "alpha");
    assert_eq!(views[0].freshness, ViewFreshness::Fresh);
    assert_eq!(views[1].name, "beta");
    assert_eq!(views[1].freshness, ViewFreshness::Fresh);
    assert!(views[0].statement.contains("inspect"), "normalized text");
    assert_eq!(
        views[0].statement,
        "select s.uid, s.unit_score inspect u.uid and h.h using corr over d.seq as s \
         from models m, units u, hypotheses h, inputs d",
        "listed as a reader writes it"
    );

    // An append flips both to stale in the listing.
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    for v in session.list_views().unwrap() {
        assert_eq!(v.freshness, ViewFreshness::Stale { new_segments: 1 });
    }

    assert!(session.drop_view("alpha").unwrap());
    assert!(
        !session.drop_view("alpha").unwrap(),
        "second drop is a no-op"
    );
    let views = session.list_views().unwrap();
    assert_eq!(views.len(), 1);
    assert_eq!(views[0].name, "beta");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Crash containment: an abandoned mid-write refresh changes nothing
// ---------------------------------------------------------------------

/// A refresh killed mid-write leaves only a `.view.tmp.<pid>` litter
/// file: on reopen the catalog sweeps it and the old entry still
/// replays bit-identically.
#[test]
fn crashed_refresh_leaves_the_old_entry_intact_on_reopen() {
    let device = Device::SingleCore;
    let dir = tmp_dir("crash");
    let (mut session, _) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    session.create_view("v", Q).unwrap();
    let before = session.read_view("v").unwrap();
    let views_dir = session.store().unwrap().views().dir().to_path_buf();
    drop(session);

    // Simulate the crash: a half-written replacement that never reached
    // its atomic rename.
    let litter = views_dir.join("v-0000000000000000.view.tmp.99999");
    std::fs::write(&litter, b"DBVIEW\x01\0half-written garbage").unwrap();
    // Long abandoned: a young temp could be a live writer's and is kept.
    std::fs::File::options()
        .write(true)
        .open(&litter)
        .unwrap()
        .set_modified(std::time::SystemTime::now() - 2 * deepbase_store::durable::TMP_REAP_AGE)
        .unwrap();

    let (mut reopened, counting) = session_at(&dir, device, 2, MaterializationPolicy::ReadWrite);
    counting.reset();
    let after = reopened.read_view("v").unwrap();
    assert_eq!(counting.calls(), 0, "old entry still replays");
    assert_eq!(after, before, "old frame intact, bit-exactly");
    assert!(!litter.exists(), "abandoned tmp file swept on rw reopen");
    let _ = std::fs::remove_dir_all(&dir);
}
