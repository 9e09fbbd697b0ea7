//! The buffered measures (`jaccard`, `mutual_info`, `group_mi`) score
//! the same bits on every path: a one-hypothesis state per pair (the
//! materializing `PyBase` design) and one state — one unit sample — per
//! hypothesis list (the merged designs and every streaming pass: one
//! segment, segmented folds, view build + refresh). The baseline designs
//! are reached through `inspect_as`, everything else through the
//! statement. A stored view holds
//! each hypothesis's bytes as a one-hypothesis state would write them, so
//! it does not depend on how the pass grouped hypotheses into states.
//! Also pinned here: measures are slot-keyed by identity, so two measures
//! answering to one id are each scored on their own, and `EXPLAIN` counts
//! the states the pass will build.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::{Table, Value};
use deepbase_store::ViewHypState;
use deepbase_tensor::Matrix;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const NS: usize = 6;
const UNITS: usize = 5;
const SEG_LEN: usize = 16;
const BLOCK: usize = 5; // ragged: 16 = 5 + 5 + 5 + 1
const TOTAL: usize = 3 * SEG_LEN;
const Q: &str = "SELECT S.score_id, S.hyp_id, S.uid, S.unit_score, S.group_score \
                 INSPECT U.uid AND H.h USING jaccard, jaccard_q95, mutual_info, group_mi \
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

/// ReLU-like behaviors for record ids `0..TOTAL`: units 0 and 1 fire on
/// 'a' and 'b' with a varying strength, the rest are rectified noise —
/// exact zeros and ties, as a conv layer produces them.
fn behaviors() -> Matrix {
    let mut m = Matrix::zeros(TOTAL * NS, UNITS);
    for rec in records(0, TOTAL) {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            let strength = 0.5 + ((r * 13) % 7) as f32 / 10.0;
            m.set(r, 0, if c == 'a' { strength } else { 0.0 });
            m.set(r, 1, if c == 'b' { 2.0 * strength } else { 0.0 });
            for u in 2..UNITS {
                let noise = ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5;
                m.set(r, u, noise.max(0.0));
            }
        }
    }
    m
}

fn hypotheses() -> Vec<Arc<dyn HypothesisFn>> {
    vec![
        Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
        Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        Arc::new(FnHypothesis::char_class("is_c", |c| c == 'c')),
    ]
}

/// The fixture's first records as consecutive segments of these lengths.
fn catalog(segment_lens: &[usize]) -> Catalog {
    catalog_over(segment_lens, hypotheses())
}

fn catalog_over(segment_lens: &[usize], hypotheses: Vec<Arc<dyn HypothesisFn>>) -> Catalog {
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors(), NS)),
        (0..UNITS).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );
    catalog.add_hypotheses("chars", hypotheses);
    let mut first = 0;
    let segs = segment_lens
        .iter()
        .map(|&len| {
            first += len;
            records(first - len, len)
        })
        .collect();
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    catalog
}

fn config() -> InspectionConfig {
    InspectionConfig {
        block_records: BLOCK,
        epsilon: Some(1e-12), // never converge early: every row is buffered
        ..InspectionConfig::default()
    }
}

/// `(measure id, hypothesis id, unit, score bits, group score bits)`: one
/// row of `Q`'s table, or of the frame behind it.
type Row = (String, String, usize, u32, u32);

/// The rows of one of `Q`'s tables, floats as bit patterns (`Table`'s own
/// `==` compares floats by value).
fn bits(table: &Table) -> Vec<Row> {
    (0..table.len())
        .map(|r| match &table.row(r)[..] {
            [Value::Str(m), Value::Str(h), Value::Int(u), Value::Float(s), Value::Float(g)] => {
                (m.clone(), h.clone(), *u as usize, s.to_bits(), g.to_bits())
            }
            other => panic!("row {r} does not have Q's shape: {other:?}"),
        })
        .collect()
}

/// `Q` as a statement: the streaming pass, one stream per segment.
fn run(catalog: &Catalog) -> Table {
    let mut tables = bare(catalog, &config()).run_batch(&[Q]).unwrap().tables;
    tables.pop().expect("one statement, one table")
}

/// `Q` under the engine design `kind` — no statement or config selects a
/// baseline, so `Q` is bound as a session binds it and handed to
/// `inspect_as` as the one request `execute_with` would build from the
/// plan. Rows come back in the table's order and shape.
fn run_as(catalog: &Catalog, kind: EngineKind) -> Vec<Row> {
    let plan = bind(&parse(Q).unwrap(), catalog).unwrap();
    let model = &plan.models[0];
    let req = InspectionRequest {
        model_id: model.mid.clone(),
        extractor: model.extractor.as_ref(),
        groups: model.groups.clone(),
        dataset: &plan.dataset,
        hypotheses: plan.hypotheses.iter().map(|h| h.as_ref()).collect(),
        measures: plan.measures.iter().map(|m| m.as_ref()).collect(),
    };
    frame_bits(&inspect_as(kind, &req, &config()).unwrap().0)
}

fn tmp_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-buffered-parity")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A streaming session over `catalog` with a store at `dir`.
fn view_session(dir: &Path, catalog: Catalog) -> Session {
    Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(),
            store: Some(StoreConfig {
                block_records: BLOCK,
                ..StoreConfig::at(dir)
            }),
            ..SessionConfig::default()
        },
    )
}

/// The stored fold point of view `v`.
fn stored_states(session: &Session) -> Vec<ViewHypState> {
    let views = session.store().unwrap().views();
    views.load("v").unwrap().expect("view v").states.clone()
}

#[test]
fn per_pair_list_segmented_and_view_paths_score_the_same_bits() {
    // One-hypothesis states over the whole dataset in one materialized piece.
    let want = run_as(&catalog(&[TOTAL]), EngineKind::PyBase);
    // 4 measures x 3 hypotheses x 5 units, and nothing degenerate.
    assert_eq!(want.len(), 4 * 3 * UNITS);
    let positive = |row: &&Row| f32::from_bits(row.3) > 0.0;
    assert!(want.iter().filter(positive).count() > want.len() / 2);

    // One state per hypothesis list: the merged designs and the
    // streaming engine on one segment.
    for kind in [
        EngineKind::Merged,
        EngineKind::MergedEarlyStop,
        EngineKind::DeepBase,
    ] {
        assert_eq!(run_as(&catalog(&[TOTAL]), kind), want, "{kind:?}");
    }

    // The statement's table, cell for cell: on one segment, and with the
    // list states folded across segments (even and ragged splits).
    for lens in [
        &[TOTAL][..],
        &[SEG_LEN; 3],
        &[TOTAL / 2, TOTAL / 2],
        &[7, 40, 1],
    ] {
        assert_eq!(bits(&run(&catalog(lens))), want, "segments {lens:?}");
    }

    // A view built over two segments, then refreshed with the third
    // folded into its stored (serialized per hypothesis) list states.
    let dir = tmp_dir("view");
    let mut session = view_session(&dir, catalog(&[SEG_LEN; 2]));
    session.create_view("v", Q).unwrap();
    let two_segments = run_as(&catalog(&[SEG_LEN; 2]), EngineKind::PyBase);
    assert_eq!(bits(&session.read_view("v").unwrap()), two_segments);
    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    assert_eq!(
        session.refresh_view("v").unwrap(),
        ViewRefresh::Incremental { new_segments: 1 }
    );
    assert_eq!(bits(&session.read_view("v").unwrap()), want, "refresh");
    let _ = std::fs::remove_dir_all(&dir);
}

/// The stored fold point is laid out as the parent commit's per-pair
/// slots wrote it — one state per `(measure, hypothesis)`, each the bytes
/// of a one-hypothesis state — whatever list the pass ran: assembled here
/// from three one-hypothesis view builds, it is byte for byte what the
/// three-hypothesis build stores, it revives into list states, refreshes
/// to the cold result, and re-serializes to what a fresh build writes.
#[test]
fn a_view_stored_as_single_hypothesis_states_revives_refreshes_and_reserializes() {
    // The fold point of a view over one hypothesis at a time: every state
    // in it was written by a one-hypothesis state.
    let one_at_a_time = |segment_lens: &[usize]| -> Vec<ViewHypState> {
        let mut per_hyp = Vec::new();
        for (i, hyp) in hypotheses().into_iter().enumerate() {
            let dir = tmp_dir(&format!("one-hyp-{i}-of-{}", segment_lens.len()));
            let mut session = view_session(&dir, catalog_over(segment_lens, vec![hyp]));
            session.create_view("v", Q).unwrap();
            per_hyp.push(stored_states(&session));
            let _ = std::fs::remove_dir_all(&dir);
        }
        // Per-pair slot order: measure-major, hypothesis-minor.
        let measures = per_hyp[0].len();
        assert_eq!(measures, 4);
        (0..measures)
            .flat_map(|m| per_hyp.iter().map(move |states| states[m].clone()))
            .collect()
    };

    let dir = tmp_dir("parent-layout");
    let mut session = view_session(&dir, catalog(&[SEG_LEN; 2]));
    session.create_view("v", Q).unwrap();
    let built = stored_states(&session);
    assert_eq!(built.len(), 4 * 3);
    assert!(built == one_at_a_time(&[SEG_LEN; 2]), "two-segment build");

    // Store the assembled states (a no-op on the bytes, by the assertion
    // above, but it is the one-hypothesis states' bytes that are revived).
    let views = session.store().unwrap().views();
    let mut doc = (*views.load("v").unwrap().unwrap()).clone();
    doc.states = one_at_a_time(&[SEG_LEN; 2]);
    views.save(&doc).unwrap();

    session
        .append_records("seq", records(2 * SEG_LEN, SEG_LEN))
        .unwrap();
    assert_eq!(
        session.refresh_view("v").unwrap(),
        ViewRefresh::Incremental { new_segments: 1 }
    );
    let cold = run_as(&catalog(&[SEG_LEN; 3]), EngineKind::PyBase);
    assert_eq!(bits(&session.read_view("v").unwrap()), cold);
    let refreshed = stored_states(&session);
    assert!(
        refreshed == one_at_a_time(&[SEG_LEN; 3]),
        "refreshed fold point"
    );

    // A fresh three-segment build writes the same file content.
    let fresh_dir = tmp_dir("parent-layout-fresh");
    let mut fresh = view_session(&fresh_dir, catalog(&[SEG_LEN; 3]));
    fresh.create_view("v", Q).unwrap();
    assert!(refreshed == stored_states(&fresh), "refresh ≡ fresh build");
    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh_dir);
}

/// A request over the fixture through the engine API, for the cases SQL
/// cannot phrase (explicit hypothesis lists, same-id measures).
fn request<'a>(
    extractor: &'a PrecomputedExtractor,
    dataset: &'a Dataset,
    hyps: Vec<&'a dyn HypothesisFn>,
    measures: Vec<&'a dyn Measure>,
) -> InspectionRequest<'a> {
    InspectionRequest {
        model_id: "m1".into(),
        extractor,
        groups: vec![UnitGroup::all(UNITS)],
        dataset,
        hypotheses: hyps,
        measures,
    }
}

/// The rows of a frame, in the shape of `Q`'s table.
fn frame_bits(frame: &ResultFrame) -> Vec<Row> {
    frame
        .rows
        .iter()
        .map(|r| {
            (
                r.measure_id.clone(),
                r.hyp_id.clone(),
                r.unit,
                r.unit_score.to_bits(),
                r.group_score.to_bits(),
            )
        })
        .collect()
}

#[test]
fn batch_members_naming_different_hypothesis_lists_keep_standalone_scores() {
    let extractor = PrecomputedExtractor::new(behaviors(), NS);
    let one_segment = Dataset::new("seq", NS, records(0, TOTAL)).unwrap();
    let halves = vec![records(0, TOTAL / 2), records(TOTAL / 2, TOTAL / 2)];
    let two_segments = Dataset::with_segments("seq", NS, halves).unwrap();
    let hyps = hypotheses();
    let (a, b, c) = (hyps[0].as_ref(), hyps[1].as_ref(), hyps[2].as_ref());
    let library = standard_library();
    let buffered: Vec<&dyn Measure> = library
        .iter()
        .filter(|m| ["jaccard", "mutual_info", "group_mi"].contains(&m.id()))
        .map(|m| m.as_ref())
        .collect();
    assert_eq!(buffered.len(), 3);
    // Overlapping lists, one shared hypothesis in a different position;
    // streamed once, and folded across two segments.
    for (dataset, passes) in [(&one_segment, 1), (&two_segments, 2)] {
        let members = [
            request(&extractor, dataset, vec![a, b], buffered.clone()),
            request(&extractor, dataset, vec![b, c], buffered.clone()),
        ];
        let shared = inspect_shared(&members, &config()).unwrap();
        assert_eq!(shared.extraction_passes, passes);
        for (member, (frame, _)) in members.iter().zip(&shared.results) {
            let standalone = request(
                &extractor,
                &one_segment,
                member.hypotheses.clone(),
                buffered.clone(),
            );
            let (standalone, _) = inspect_as(EngineKind::PyBase, &standalone, &config()).unwrap();
            assert_eq!(frame_bits(frame), frame_bits(&standalone));
            assert_eq!(frame.len(), 3 * 2 * UNITS);
        }
    }
}

#[test]
fn two_measures_answering_to_one_id_are_each_scored_on_their_own() {
    let extractor = PrecomputedExtractor::new(behaviors(), NS);
    let dataset = Dataset::new("seq", NS, records(0, TOTAL)).unwrap();
    let hyps = hypotheses();
    let hyp_refs = || hyps.iter().map(|h| h.as_ref()).collect::<Vec<_>>();
    let quantile = |top_quantile: f32| BufferedMeasure::jaccard("jaccard", top_quantile, 65_536);
    let (low, high) = (quantile(0.5), quantile(0.9));
    // Two batch members of one streaming pass naming one each: no slot is
    // shared, and each scores what every design below scores standalone.
    let members = [
        request(&extractor, &dataset, hyp_refs(), vec![&low]),
        request(&extractor, &dataset, hyp_refs(), vec![&high]),
    ];
    let shared = inspect_shared(&members, &config()).unwrap();
    for engine in [EngineKind::PyBase, EngineKind::Merged, EngineKind::DeepBase] {
        let alone = |measure: &BufferedMeasure| {
            let req = request(&extractor, &dataset, hyp_refs(), vec![measure]);
            frame_bits(&inspect_as(engine, &req, &config()).unwrap().0)
        };
        let (want_low, want_high) = (alone(&low), alone(&high));
        assert_ne!(want_low, want_high, "the two quantiles must disagree");

        // One request naming both: low's rows, then high's.
        let both = request(&extractor, &dataset, hyp_refs(), vec![&low, &high]);
        let got = frame_bits(&inspect_as(engine, &both, &config()).unwrap().0);
        assert_eq!(
            got,
            [want_low.clone(), want_high.clone()].concat(),
            "{engine:?}"
        );

        assert_eq!(frame_bits(&shared.results[0].0), want_low, "{engine:?}");
        assert_eq!(frame_bits(&shared.results[1].0), want_high, "{engine:?}");
    }
}

/// `EXPLAIN`'s measure-state count is the pass's own: the optimizer reads
/// it off the `PassLayout` the pass builds — one state for a one-group
/// statement, whatever the measure (`jaccard`: one unit sample for the
/// statement's three hypotheses; `corr` and `diff_means`: one pairwise
/// accumulator grid, which a grouped or batched statement's slots would
/// share) — on one segment and on a segmented dataset alike.
#[test]
fn explain_counts_one_state_per_list_for_jaccard_corr_and_diff_means() {
    let explain = |measure: &str, lens: &[usize]| {
        let q = format!(
            "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING {measure} \
             OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D"
        );
        Session::new(catalog(lens)).explain(&q).unwrap()
    };
    let plan = |states: &str| {
        format!(
            "\
PhysicalPlan: 1 query, 1 shared group, block_records=512
└─ group[0] model='m1' dataset='seq' members=[0]
   ├─ unit columns: 5 union (5 requested)
   ├─ hypothesis columns: 3 deduped (3 requested)
   ├─ measure states: {states}
   ├─ stream width: 8 columns, 98304 bytes/block (ns=6)
   └─ admission: 1 wave (unbounded)
"
        )
    };
    for lens in [&[TOTAL][..], &[SEG_LEN, 2 * SEG_LEN]] {
        assert_eq!(explain("jaccard", lens), plan("1 shared (1 requested)"));
        assert_eq!(explain("corr", lens), plan("1 shared (1 requested)"));
        assert_eq!(explain("diff_means", lens), plan("1 shared (1 requested)"));
    }
}
