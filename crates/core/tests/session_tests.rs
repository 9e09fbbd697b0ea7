//! Session API semantics: the plan cache serves repeated statements with
//! zero bind work while the catalog still holds what each plan bound;
//! prepared execution is bit-identical to a bare reference
//! session on both devices; `explain` output is stable; admission control splits
//! oversized batches without changing results; and the score cache skips
//! extraction on repeated batches.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::{Table, Value};
use deepbase_tensor::Matrix;
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ND: usize = 64;
const NS: usize = 8;

/// Extractor wrapper counting how many records it was asked to extract.
struct CountingExtractor {
    inner: PrecomputedExtractor,
    records: Arc<AtomicUsize>,
}

impl Extractor for CountingExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.records.fetch_add(records.len(), Ordering::SeqCst);
        self.inner.extract(records, unit_ids)
    }
}

fn records(n: usize, seed: usize) -> Vec<Record> {
    (0..n)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 7 + t * 3 + seed) % 5 {
                    0 | 3 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

fn behaviors_for(records: &[Record], units: usize, salt: usize) -> Matrix {
    let mut m = Matrix::zeros(records.len() * NS, units);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            for u in 1..units {
                m.set(r, u, ((r * (u + salt + 7) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    m
}

/// One model, two overlapping hypothesis sets, one dataset; the counter
/// observes every extraction pass.
fn test_catalog() -> (Catalog, Arc<AtomicUsize>) {
    let records = records(ND, 0);
    let extracted = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        3,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(behaviors_for(&records, 6, 0), NS),
            records: Arc::clone(&extracted),
        }),
        (0..6)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    let is_a: Arc<dyn HypothesisFn> = Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'));
    let is_b: Arc<dyn HypothesisFn> = Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b'));
    catalog.add_hypotheses("alpha", vec![Arc::clone(&is_a)]);
    catalog.add_hypotheses("beta", vec![is_b, is_a]);
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records).unwrap()));
    (catalog, extracted)
}

const Q_ALPHA: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                       OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                       WHERE H.name = 'alpha'";
const Q_BETA: &str = "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
                      OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                      WHERE H.name = 'beta' GROUP BY U.layer";

#[test]
fn plan_cache_hits_identical_statements_and_survives_normalization() {
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);

    let p1 = session.prepare(Q_ALPHA).unwrap();
    assert_eq!(session.stats().plan_cache_misses, 1);
    assert_eq!(session.stats().plan_cache_hits, 0);

    // Identical statement: zero bind work, the same cached plan.
    let p2 = session.prepare(Q_ALPHA).unwrap();
    assert_eq!(session.stats().plan_cache_hits, 1);
    assert!(Arc::ptr_eq(p1.plan(), p2.plan()), "plan served from cache");

    // Case / whitespace variations normalize onto the same key (string
    // literals keep their case).
    let variant = "select s.UID ,  S.unit_score  INSPECT u.uid AND h.h USING CORR \
                   over d.SEQ as s FROM models M , units U, hypotheses H, inputs D \
                   where H.NAME = 'alpha'";
    let p3 = session.prepare(variant).unwrap();
    assert_eq!(session.stats().plan_cache_hits, 2);
    assert!(Arc::ptr_eq(p1.plan(), p3.plan()));
    assert_eq!(session.stats().plan_cache_misses, 1);
}

/// A second model, matched by any statement that does not filter on
/// `M.mid`.
fn add_m2(catalog: &mut Catalog) {
    let recs = records(ND, 0);
    catalog.add_model(
        "m2",
        9,
        Arc::new(PrecomputedExtractor::new(behaviors_for(&recs, 3, 5), NS)),
    );
}

fn other_dataset(seed: usize) -> Arc<Dataset> {
    Arc::new(Dataset::new("other", NS, records(ND, seed)).unwrap())
}

/// One row per catalog input `bind` reads: run the statement, mutate the
/// catalog through `catalog_mut`, run it again. The second run hits the
/// plan cache (and the score cache, extracting nothing) exactly when the
/// statement still resolves to the entries its plan bound, and always
/// answers as a bare session over the mutated catalog.
#[test]
fn a_cached_plan_is_reused_exactly_while_the_catalog_holds_what_it_bound() {
    const ALPHA_SEQ: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                             OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                             WHERE H.name = 'alpha' AND D.name = 'seq'";
    const M1_ONLY: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                           OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                           WHERE H.name = 'alpha' AND D.name = 'seq' AND M.mid = 'm1'";
    const NOT_BETA: &str = "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h \
                            USING corr OVER D.seq AS S \
                            FROM models M, units U, hypotheses H, inputs D \
                            WHERE H.name != 'beta' AND D.name = 'seq'";
    type Row = (&'static str, &'static str, fn(&mut Catalog), bool);
    let rows: [Row; 8] = [
        ("a new model the filter matches", ALPHA_SEQ, add_m2, false),
        ("a new model the filter leaves out", M1_ONLY, add_m2, true),
        (
            "the named set re-registered",
            ALPHA_SEQ,
            |c| {
                let is_a = FnHypothesis::char_class("is_a", |c| c == 'a');
                c.add_hypotheses("alpha", vec![Arc::new(is_a)]);
            },
            false,
        ),
        (
            "another set re-registered",
            ALPHA_SEQ,
            |c| {
                let is_c = FnHypothesis::char_class("is_c", |c| c == 'c');
                c.add_hypotheses("beta", vec![Arc::new(is_c)]);
            },
            true,
        ),
        (
            "a new set the `!=` filter matches",
            NOT_BETA,
            |c| {
                let is_c = FnHypothesis::char_class("is_c", |c| c == 'c');
                c.add_hypotheses("gamma", vec![Arc::new(is_c)]);
            },
            false,
        ),
        (
            "the named dataset replaced",
            ALPHA_SEQ,
            |c| {
                let seq = Dataset::new("seq", NS, records(ND, 1)).unwrap();
                c.add_dataset("seq", Arc::new(seq));
            },
            false,
        ),
        (
            "another dataset replaced",
            ALPHA_SEQ,
            |c| c.add_dataset("other", other_dataset(2)),
            true,
        ),
        (
            "another dataset grown",
            ALPHA_SEQ,
            |c| c.append_to_dataset("other", records(8, 3)).unwrap(),
            true,
        ),
    ];
    for (label, sql, mutate, hit) in rows {
        let (mut catalog, extracted) = test_catalog();
        catalog.add_dataset("other", other_dataset(1));
        let mut session = Session::new(catalog);
        let before = session.run_batch(&[sql]).unwrap();
        assert_eq!(before.report.plan.plan_cache_misses, 1, "{label}");

        mutate(session.catalog_mut());
        let mutated = session.catalog_mut().clone();
        let extracted_before = extracted.load(Ordering::SeqCst);
        let after = session.run_batch(&[sql]).unwrap();
        let plan = after.report.plan;
        assert_eq!(
            (plan.plan_cache_hits, plan.plan_cache_misses),
            (hit as usize, !hit as usize),
            "{label}: plan cache"
        );
        assert_eq!(plan.score_cache_hits, hit as usize, "{label}: score cache");
        if hit {
            assert_eq!(
                extracted.load(Ordering::SeqCst),
                extracted_before,
                "{label}: nothing extracted"
            );
        }
        let reference = bare(&mutated, &InspectionConfig::default())
            .run(sql)
            .unwrap();
        assert_eq!(after.tables[0], reference, "{label}: ≡ bare");
        if label == "a new model the filter matches" {
            assert_eq!(
                after.tables[0].len(),
                before.tables[0].len() + 3,
                "m2 contributes 3 unit rows"
            );
        }
    }

    // A statement naming no dataset binds the sole one; once a second is
    // registered it is the typed error, not the old plan.
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);
    session.run(Q_ALPHA).unwrap();
    session.catalog_mut().add_dataset("other", other_dataset(1));
    match session.run(Q_ALPHA) {
        Err(DniError::Query(msg)) => assert!(msg.contains("multiple datasets"), "{msg}"),
        other => panic!("expected the multiple-datasets error, got {other:?}"),
    }
}

/// A stale entry pins what its plan bound only until the next plan-cache
/// miss, which drops every entry the catalog has moved past; hits drop
/// nothing.
#[test]
fn a_plan_cache_miss_drops_every_stale_entry_and_what_it_pinned() {
    const ON_OTHER: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                            OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                            WHERE H.name = 'alpha' AND D.name = 'other'";
    const ALPHA_SEQ: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                             OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                             WHERE H.name = 'alpha' AND D.name = 'seq'";
    const BETA_SEQ: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                            OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                            WHERE H.name = 'beta' AND D.name = 'seq'";
    let (mut catalog, _) = test_catalog();
    let old = other_dataset(1);
    let pinned = Arc::downgrade(&old);
    catalog.add_dataset("other", old);
    let mut session = Session::new(catalog);
    session.run_batch(&[ON_OTHER, ALPHA_SEQ]).unwrap();

    session.catalog_mut().add_dataset("other", other_dataset(2));
    session.run(ALPHA_SEQ).unwrap();
    assert_eq!(session.stats().plan_cache_hits, 1);
    assert!(pinned.upgrade().is_some(), "a hit leaves the stale entry");

    session.run(BETA_SEQ).unwrap();
    assert_eq!(session.stats().plan_cache_misses, 3);
    assert!(
        pinned.upgrade().is_none(),
        "the miss dropped the stale entry"
    );
    session.run(ALPHA_SEQ).unwrap();
    assert_eq!(session.stats().plan_cache_hits, 2, "current entries stay");
}

/// A handle prepared on one session and executed on a fork over another
/// catalog answers from the fork's catalog, and leaves nothing the
/// fork's score cache would serve later.
#[test]
fn a_prepared_handle_runs_against_the_catalog_of_the_session_that_executes_it() {
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);
    let handle = session.prepare(Q_ALPHA).unwrap();
    let first = session.execute(&handle).unwrap();

    let (mut other, _) = test_catalog();
    let seq = Dataset::new("seq", NS, records(ND, 1)).unwrap();
    other.add_dataset("seq", Arc::new(seq));
    let expected = bare(&other, &InspectionConfig::default())
        .run(Q_ALPHA)
        .unwrap();
    assert_ne!(expected, first, "the two catalogs answer differently");

    let mut fork = session.fork(other);
    assert_eq!(fork.execute(&handle).unwrap(), expected);
    assert_eq!(fork.run(Q_ALPHA).unwrap(), expected);
}

#[test]
fn stale_prepared_handle_transparently_reprepares() {
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);
    let prepared = session.prepare(Q_ALPHA).unwrap();
    let before = session.execute(&prepared).unwrap();

    let recs = records(ND, 0);
    session.catalog_mut().add_model(
        "m2",
        9,
        Arc::new(PrecomputedExtractor::new(behaviors_for(&recs, 3, 5), NS)),
    );
    // Executing the stale handle re-prepares against the new catalog.
    let after = session.execute(&prepared).unwrap();
    assert_eq!(after.len(), before.len() + 3);
}

#[test]
fn second_execution_reuses_scores_and_skips_extraction() {
    let (catalog, extracted) = test_catalog();
    let mut session = Session::new(catalog);

    let first = session.run_batch(&[Q_ALPHA, Q_BETA]).unwrap();
    let after_first = extracted.load(Ordering::SeqCst);
    assert!(after_first > 0);
    assert_eq!(first.report.plan.plan_cache_misses, 2);
    assert_eq!(first.report.plan.score_cache_hits, 0);

    // Identical batch: plans hit, converged scores are reused, the
    // extractor is never called again, and the tables are bit-identical.
    let second = session.run_batch(&[Q_ALPHA, Q_BETA]).unwrap();
    assert_eq!(extracted.load(Ordering::SeqCst), after_first);
    assert_eq!(second.tables, first.tables);
    assert_eq!(second.report.plan.plan_cache_hits, 2);
    assert_eq!(second.report.plan.plan_cache_misses, 0);
    assert_eq!(second.report.plan.score_cache_hits, 2);
    assert!(second.report.groups.is_empty(), "no pass executed");
    assert!(second.report.per_query.iter().all(|p| p.records_read == 0));
}

#[test]
fn disabling_score_reuse_still_amortizes_binding() {
    let (catalog, extracted) = test_catalog();
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    let first = session.run_batch(&[Q_ALPHA]).unwrap();
    let after_first = extracted.load(Ordering::SeqCst);
    let second = session.run_batch(&[Q_ALPHA]).unwrap();
    assert_eq!(second.tables, first.tables);
    assert_eq!(second.report.plan.plan_cache_hits, 1);
    assert_eq!(second.report.plan.score_cache_hits, 0);
    assert!(
        extracted.load(Ordering::SeqCst) > after_first,
        "extraction re-runs when score reuse is off"
    );
}

#[test]
fn same_id_different_function_within_and_across_batches_does_not_poison_the_cache() {
    // Two different predicates registered under one hypothesis id in two
    // sets (nothing enforces id uniqueness). The hypothesis cache keys on
    // the functions' identities, not their id, so the two never share an
    // entry — within one batch or across batches: each function misses
    // every record once, and every later lookup of it hits.
    let recs = records(ND, 0);
    let mut catalog = Catalog::new();
    catalog.add_model(
        "m",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors_for(&recs, 3, 0), NS)),
    );
    catalog.add_hypotheses(
        "s1",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'a'))],
    );
    catalog.add_hypotheses(
        "s2",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'b'))],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, recs).unwrap()));

    let q1 = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
              FROM models M, units U, hypotheses H, inputs D WHERE H.name = 's1'";
    let q2 = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
              FROM models M, units U, hypotheses H, inputs D WHERE H.name = 's2'";
    // Binds both sets: one plan, two functions, one id.
    let q_both = "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
                  OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D";
    let config = InspectionConfig::default();
    let reference_q1 = bare(&catalog, &config).run(q1).unwrap();
    let reference_q2 = bare(&catalog, &config).run(q2).unwrap();
    let reference_both = bare(&catalog, &config).run(q_both).unwrap();
    assert_ne!(
        reference_q1, reference_q2,
        "the two functions really differ"
    );

    // No score reuse, so every batch below really executes and its
    // `report.cache` shows its own lookups.
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    // Both functions in one batch: each misses every record once.
    let out = session.run_batch(&[q_both]).unwrap();
    assert_eq!(out.tables, vec![reference_both]);
    assert_eq!(
        (out.report.cache.hits, out.report.cache.misses),
        (0, 2 * ND)
    );
    assert_eq!(session.hypothesis_cache().len(), 2 * ND);
    // Each set on its own is then served its own function's behaviors.
    let out = session.run_batch(&[q1]).unwrap();
    assert_eq!(out.tables, vec![reference_q1.clone()]);
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (ND, 0));
    let out = session.run_batch(&[q2]).unwrap();
    assert_eq!(
        out.tables,
        vec![reference_q2],
        "the second set must not read the first set's cached behaviors"
    );
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (ND, 0));
    let out = session.run_batch(&[q1]).unwrap();
    assert_eq!(out.tables, vec![reference_q1]);
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (ND, 0));
    assert_eq!(session.hypothesis_cache().stats().misses, 2 * ND);
}

#[test]
fn a_swapped_dataset_misses_the_hypothesis_cache_and_an_unchanged_one_hits() {
    // Re-registering a dataset under an id the session cache already
    // holds behaviors for must not serve the old dataset's cached
    // behaviors for the new records — while a dataset the mutation left
    // alone keeps hitting. Score reuse is off: a still-current plan over
    // the unchanged dataset would otherwise answer from its frames and
    // never reach the hypothesis cache.
    let build = |name: &str, seed: usize| {
        let recs = records(ND, seed);
        Arc::new(Dataset::new(name, NS, recs).unwrap())
    };
    let catalog_with = |seq: Arc<Dataset>| {
        let mut catalog = Catalog::new();
        catalog.add_model(
            "m",
            0,
            Arc::new(PrecomputedExtractor::new(
                behaviors_for(&records(ND, 0), 3, 0),
                NS,
            )),
        );
        catalog.add_hypotheses(
            "h",
            vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
        );
        catalog.add_dataset("seq", seq);
        catalog.add_dataset("other", build("other", 1));
        catalog
    };

    let q = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D WHERE D.name = 'seq'";
    let q_other = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                   FROM models M, units U, hypotheses H, inputs D WHERE D.name = 'other'";
    let mut session = Session::with_config(
        catalog_with(build("seq", 0)),
        SessionConfig {
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    let before = session.run(q).unwrap();
    let other = session.run(q_other).unwrap();
    assert_eq!(session.hypothesis_cache().stats().misses, 2 * ND);

    // Swap the dataset (same registration name, same Dataset::id,
    // different records) through the session.
    session.catalog_mut().add_dataset("seq", build("seq", 3));
    let swapped = session.run_batch(&[q]).unwrap();
    assert_ne!(
        swapped.tables[0], before,
        "the swapped dataset genuinely differs"
    );
    assert_eq!(
        (swapped.report.cache.hits, swapped.report.cache.misses),
        (0, ND)
    );
    // Pinning the new dataset dropped the old one's behaviors: nothing
    // holds the old dataset any more.
    assert_eq!(session.hypothesis_cache().len(), 2 * ND);
    let unchanged = session.run_batch(&[q_other]).unwrap();
    assert_eq!(unchanged.tables, vec![other]);
    assert_eq!(
        (unchanged.report.cache.hits, unchanged.report.cache.misses),
        (ND, 0)
    );

    // Parity with a bare session over an identical catalog.
    let reference = catalog_with(build("seq", 3));
    let reference_table = bare(&reference, &InspectionConfig::default())
        .run(q)
        .unwrap();
    assert_eq!(swapped.tables, vec![reference_table]);
}

/// Regression: record ids are not unique keys. The second half of this
/// dataset repeats the first half's ids with different text, so a cache
/// keyed by record id serves the first half's behaviors for the second
/// half. `PrecomputedExtractor` addresses behaviors by id in both runs,
/// so only the hypothesis cache differs from the uncached engine pass.
#[test]
fn records_that_repeat_an_id_get_their_own_cached_behaviors() {
    const HALF: usize = 32;
    let first = records(HALF, 0);
    let recs: Vec<Record> = first.iter().cloned().chain(records(HALF, 2)).collect();
    assert!(recs[..HALF]
        .iter()
        .zip(&recs[HALF..])
        .any(|(a, b)| a.id == b.id && a.text != b.text));
    let behaviors = behaviors_for(&first, 3, 0);
    let dataset = Arc::new(Dataset::new("seq", NS, recs).unwrap());
    let hyp = Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'));
    let mut catalog = Catalog::new();
    catalog.add_model(
        "m",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors.clone(), NS)),
    );
    catalog.add_hypotheses("h", vec![Arc::clone(&hyp) as Arc<dyn HypothesisFn>]);
    catalog.add_dataset("seq", Arc::clone(&dataset));
    let q = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D";

    for device in [Device::SingleCore, Device::Parallel(3)] {
        let config = InspectionConfig {
            device,
            epsilon: Some(1e-12),
            ..Default::default()
        };
        let extractor = PrecomputedExtractor::new(behaviors.clone(), NS);
        let request = InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(3)],
            dataset: &dataset,
            hypotheses: vec![hyp.as_ref()],
            measures: vec![&CorrelationMeasure],
        };
        let (frame, _) = inspect(&request, &config).unwrap();
        let expected: Vec<(i64, u32)> = frame
            .unit_scores("corr", "is_a")
            .into_iter()
            .map(|(unit, score)| (unit as i64, score.to_bits()))
            .collect();

        let mut session = Session::with_config(
            catalog.clone(),
            SessionConfig {
                inspection: config,
                ..SessionConfig::default()
            },
        );
        let table = session.run(q).unwrap();
        let got: Vec<(i64, u32)> = (0..table.len())
            .map(
                |r| match (table.value(r, "s_uid"), table.value(r, "s_unit_score")) {
                    (Some(Value::Int(uid)), Some(Value::Float(score))) => (uid, score.to_bits()),
                    other => panic!("unexpected row {other:?}"),
                },
            )
            .collect();
        assert_eq!(got, expected, "device {device:?}");
        assert_eq!(session.hypothesis_cache().len(), 2 * HALF);
    }
}

/// A second run of a statement serves every hypothesis behavior from the
/// session cache and answers bit-identically to a bare session.
#[test]
fn hypothesis_cache_skips_reevaluation() {
    let (catalog, _) = test_catalog();
    let config = InspectionConfig {
        epsilon: Some(1e-12),
        ..Default::default()
    };
    let reference = bare(&catalog, &config).run(Q_BETA).unwrap();
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config,
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    let cold = session.run_batch(&[Q_BETA]).unwrap();
    assert_eq!(cold.tables, vec![reference.clone()]);
    assert_eq!(
        (cold.report.cache.hits, cold.report.cache.misses),
        (0, 2 * ND),
        "one evaluation per (hypothesis, record)"
    );
    // Second run (e.g. a retrained model): all hits, identical scores.
    let warm = session.run_batch(&[Q_BETA]).unwrap();
    assert_eq!(warm.tables, vec![reference], "caching must be transparent");
    assert_eq!(
        (warm.report.cache.hits, warm.report.cache.misses),
        (2 * ND, 0)
    );
}

#[test]
fn session_batch_matches_sequential_bare_sessions() {
    let (catalog, _) = test_catalog();
    let config = InspectionConfig::default();
    let sequential: Vec<Table> = [Q_ALPHA, Q_BETA]
        .iter()
        .map(|q| bare(&catalog, &config).run(q).unwrap())
        .collect();
    let mut session = Session::new(catalog);
    let batch = session.run_batch(&[Q_ALPHA, Q_BETA]).unwrap();
    assert_eq!(batch.tables, sequential);
    // And again, through the score cache.
    let again = session.run_batch(&[Q_ALPHA, Q_BETA]).unwrap();
    assert_eq!(again.tables, sequential);
}

// ---------------------------------------------------------------------
// Admission control
// ---------------------------------------------------------------------

/// A 32-unit model and four queries over disjoint 8-unit ranges, each
/// with its own single-hypothesis set: the union stream is 36 columns
/// wide, every individual item only 9.
fn wide_catalog() -> Catalog {
    let recs = records(ND, 1);
    let mut catalog = Catalog::new();
    catalog.add_model(
        "wide",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors_for(&recs, 32, 3), NS)),
    );
    for (i, class) in ['a', 'b', 'c', 'a'].into_iter().enumerate() {
        catalog.add_hypotheses(
            &format!("set{i}"),
            vec![Arc::new(FnHypothesis::char_class(
                &format!("h{i}"),
                move |c| c == class,
            ))],
        );
    }
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, recs).unwrap()));
    catalog
}

fn wide_queries() -> Vec<String> {
    (0..4)
        .map(|i| {
            format!(
                "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr \
                 OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                 WHERE U.uid >= {} AND U.uid < {} AND H.name = 'set{i}'",
                i * 8,
                (i + 1) * 8
            )
        })
        .collect()
}

#[test]
fn admission_splits_oversized_batch_without_changing_results() {
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let config = InspectionConfig::default();

    let catalog = wide_catalog();
    let sequential: Vec<Table> = refs
        .iter()
        .map(|q| bare(&catalog, &config).run(q).unwrap())
        .collect();

    let mut session = Session::with_config(
        wide_catalog(),
        SessionConfig {
            admission: AdmissionConfig {
                max_stream_width: Some(16),
                ..AdmissionConfig::default()
            },
            ..SessionConfig::default()
        },
    );
    let batch = session.run_batch(&refs).unwrap();
    assert_eq!(
        batch.tables, sequential,
        "split execution is bit-identical to sequential"
    );
    // The 36-wide group exceeds the bound and splits into queued waves.
    assert_eq!(batch.report.plan.admission_splits, 1);
    assert!(batch.report.plan.admission_queued >= 1);
    assert!(
        batch.report.groups.len() > 1,
        "one report per executed wave"
    );
    let covered: Vec<usize> = batch
        .report
        .groups
        .iter()
        .flat_map(|g| g.queries.iter().copied())
        .collect();
    assert_eq!(covered, vec![0, 1, 2, 3], "waves cover every query once");
    assert_eq!(session.stats().admission_splits, 1);
}

#[test]
fn admission_waves_respect_the_width_bound_at_plan_level() {
    let catalog = wide_catalog();
    let queries = wide_queries();
    let config = InspectionConfig::default();
    let plans: Vec<Arc<LogicalPlan>> = queries
        .iter()
        .map(|q| Arc::new(bind(&parse(q).unwrap(), &catalog).unwrap()))
        .collect();

    let bound = 16;
    let physical = optimize_store(
        &plans,
        &config,
        AdmissionConfig {
            max_stream_width: Some(bound),
            ..AdmissionConfig::default()
        },
        None,
    );
    assert_eq!(physical.groups.len(), 1);
    let group = &physical.groups[0];
    assert_eq!(group.stream_width(), 36, "32 units + 4 hypothesis columns");
    assert!(group.waves.len() > 1, "oversized group must split");
    for width in &group.wave_widths {
        assert!(
            *width <= bound,
            "every wave must respect the bound, got {width}"
        );
    }
    assert_eq!(physical.stats.admission_splits, 1);
    assert_eq!(physical.stats.admission_queued, group.waves.len() - 1);

    // Unbounded admission: one wave, full width.
    let unsplit = optimize_store(&plans, &config, AdmissionConfig::default(), None);
    assert_eq!(unsplit.groups[0].waves.len(), 1);
    assert_eq!(unsplit.groups[0].wave_widths, vec![36]);
    assert_eq!(unsplit.stats.admission_splits, 0);
}

// ---------------------------------------------------------------------
// Explain
// ---------------------------------------------------------------------

#[test]
fn explain_renders_the_plan_tree_snapshot() {
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);
    let rendered = session.explain_batch(&[Q_ALPHA, Q_BETA]).unwrap();
    let expected = "\
PhysicalPlan: 2 queries, 1 shared group, block_records=512
└─ group[0] model='m1' dataset='seq' members=[0, 1]
   ├─ unit columns: 6 union (12 requested)
   ├─ hypothesis columns: 2 deduped (3 requested)
   ├─ measure states: 1 shared (3 requested)
   ├─ stream width: 8 columns, 131072 bytes/block (ns=8)
   └─ admission: 1 wave (unbounded)
";
    assert_eq!(rendered, expected);
}

#[test]
fn explain_shows_admission_split() {
    let mut session = Session::with_config(
        wide_catalog(),
        SessionConfig {
            admission: AdmissionConfig {
                max_stream_width: Some(16),
                ..AdmissionConfig::default()
            },
            ..SessionConfig::default()
        },
    );
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let rendered = session.explain_batch(&refs).unwrap();
    assert!(
        rendered.contains("admission: split into"),
        "got:\n{rendered}"
    );
    assert!(rendered.contains("> bound 16"), "got:\n{rendered}");
}

// ---------------------------------------------------------------------
// Property: prepared execution is bit-identical to a bare session's run
// ---------------------------------------------------------------------

/// A randomized behavior world for the parity property.
fn world_catalog(n: usize, noise_seed: u64) -> Catalog {
    let recs: Vec<Record> = (0..n)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| {
                    if (i * 3 + t * 7 + noise_seed as usize).is_multiple_of(3) {
                        'a'
                    } else {
                        'b'
                    }
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let mut behaviors = Matrix::zeros(n * NS, 4);
    let mut lcg = noise_seed
        .wrapping_mul(2862933555777941757)
        .wrapping_add(3037000493);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let h = if c == 'a' { 1.0 } else { 0.0 };
            let r = ri * NS + t;
            for u in 0..4 {
                lcg = lcg
                    .wrapping_mul(2862933555777941757)
                    .wrapping_add(3037000493);
                let noise = ((lcg >> 33) as f32 / (u32::MAX >> 1) as f32) - 0.5;
                behaviors.set(
                    r,
                    u,
                    if u % 2 == 0 {
                        0.7 * h + 0.3 * noise
                    } else {
                        noise
                    },
                );
            }
        }
    }
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "w",
        1,
        Arc::new(PrecomputedExtractor::new(behaviors, NS)),
        (0..4)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_hypotheses(
        "hs",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, recs).unwrap()));
    catalog
}

const PROP_QUERIES: [&str; 3] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D",
    "SELECT S.group_id, S.uid, S.unit_score INSPECT U.uid AND H.h USING corr, mutual_info \
     OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D GROUP BY U.layer",
    "SELECT S.uid, S.group_score INSPECT U.uid AND H.h USING logreg_l1 OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE U.layer = 0",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn prepared_execution_is_bit_identical_to_a_bare_session(
        n in 12usize..48,
        seed in 0u64..1000,
        qidx in 0usize..3,
    ) {
        let query = PROP_QUERIES[qidx];
        for device in [Device::SingleCore, Device::Parallel(3)] {
            let config = InspectionConfig {
                device,
                block_records: 16,
                ..Default::default()
            };
            let catalog = world_catalog(n, seed);
            let reference_table = bare(&catalog, &config).run(query).unwrap();

            let mut session = Session::with_config(
                world_catalog(n, seed),
                SessionConfig {
                    inspection: config.clone(),
                    ..SessionConfig::default()
                },
            );
            let prepared = session.prepare(query).unwrap();
            let via_session = session.execute(&prepared).unwrap();
            prop_assert_eq!(&via_session, &reference_table, "device {:?}", device);
            // And once more through the score cache: still identical.
            let replay = session.execute(&prepared).unwrap();
            prop_assert_eq!(&replay, &reference_table);
        }
    }

    #[test]
    fn cache_is_transparent_for_any_world(
        n in 8usize..32,
        seed in 0u64..50,
        qidx in 0usize..3,
    ) {
        let query = PROP_QUERIES[qidx];
        let catalog = world_catalog(n, seed);
        let config = InspectionConfig {
            block_records: 16,
            ..Default::default()
        };
        let reference_table = bare(&catalog, &config).run(query).unwrap();
        // No score reuse: the second batch re-runs the pass against the
        // behaviors the first one cached.
        let mut session = Session::with_config(
            catalog,
            SessionConfig {
                inspection: config,
                reuse_scores: false,
                ..SessionConfig::default()
            },
        );
        let cold = session.run_batch(&[query]).unwrap();
        let warm = session.run_batch(&[query]).unwrap();
        prop_assert_eq!(&cold.tables[0], &reference_table);
        prop_assert_eq!(&warm.tables[0], &reference_table);
        prop_assert_eq!(warm.report.cache.misses, 0);
        prop_assert_eq!(
            warm.report.cache.hits,
            cold.report.cache.hits + cold.report.cache.misses
        );
    }
}

// ---------------------------------------------------------------------
// Forks: one store handle, one admission scheduler, one hypothesis cache
// ---------------------------------------------------------------------

/// A store directory under the system temp dir, unique per test and run.
fn temp_store_path(tag: &str) -> std::path::PathBuf {
    let path = std::env::temp_dir().join(format!("deepbase-session-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&path);
    let _ = std::fs::remove_file(&path);
    path
}

fn bounded(width: usize) -> AdmissionConfig {
    AdmissionConfig {
        max_stream_width: Some(width),
        ..AdmissionConfig::default()
    }
}

/// Two forks of one session run over-wide batches concurrently: results
/// stay bit-identical to sequential execution, every executed wave is
/// admitted through the template's scheduler, and the *summed* in-flight
/// stream width never exceeds its one budget.
#[test]
fn concurrent_forks_share_one_admission_budget() {
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let config = InspectionConfig::default();
    let catalog = wide_catalog();
    let sequential: Vec<Table> = refs
        .iter()
        .map(|q| bare(&catalog, &config).run(q).unwrap())
        .collect();

    let template = Session::with_config(
        Catalog::new(),
        SessionConfig {
            admission: bounded(16),
            ..SessionConfig::default()
        },
    );
    let outcomes: Vec<(Vec<Table>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let mut session = template.fork(wide_catalog());
                let refs = refs.clone();
                scope.spawn(move || {
                    let batch = session.run_batch(&refs).unwrap();
                    (batch.tables, batch.report.groups.len())
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut total_waves = 0;
    for (tables, waves) in &outcomes {
        assert_eq!(
            tables, &sequential,
            "execution under a shared scheduler stays bit-identical"
        );
        assert!(
            *waves >= 2,
            "a 36-wide group under budget 16 splits into waves"
        );
        total_waves += waves;
    }
    let stats = template.scheduler().stats();
    assert_eq!(
        stats.waves_admitted as usize, total_waves,
        "each executed wave acquired exactly one permit"
    );
    assert!(
        stats.peak_stream_width <= 16,
        "both forks' waves drew from ONE budget (peak {})",
        stats.peak_stream_width
    );
}

/// A fork shares its template's store handle, scheduler and hypothesis
/// cache, and starts with empty plan and score caches.
#[test]
fn forks_share_the_store_the_scheduler_and_the_hypothesis_cache() {
    let path = temp_store_path("forks");
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let template = Session::with_config(
        Catalog::new(),
        SessionConfig {
            admission: bounded(16),
            store: Some(StoreConfig::at(&path)),
            ..SessionConfig::default()
        },
    );
    let mut first = template.fork(wide_catalog());
    let cold = first.run_batch(&refs).unwrap();
    assert!(
        cold.report.store.columns_written > 0,
        "the first fork fills the store"
    );
    assert_eq!(
        first.run_batch(&refs).unwrap().report.plan.score_cache_hits,
        4
    );

    // A fork of a fork shares the same handles; its plan and score caches
    // start empty although the session it was forked from has warm ones.
    let mut second = first.fork(wide_catalog());
    let store = template.store().expect("store open");
    assert!(Arc::ptr_eq(first.store().unwrap(), store));
    assert!(Arc::ptr_eq(second.store().unwrap(), store));
    assert!(Arc::ptr_eq(first.scheduler(), template.scheduler()));
    assert!(Arc::ptr_eq(second.scheduler(), template.scheduler()));
    assert!(Arc::ptr_eq(
        first.hypothesis_cache(),
        template.hypothesis_cache()
    ));
    assert!(Arc::ptr_eq(
        second.hypothesis_cache(),
        template.hypothesis_cache()
    ));
    assert_eq!(second.stats(), SessionStats::default());

    let warm = second.run_batch(&refs).unwrap();
    assert_eq!(warm.tables, cold.tables);
    assert_eq!(warm.report.plan.plan_cache_misses, 4, "empty plan cache");
    assert_eq!(warm.report.plan.score_cache_hits, 0, "empty score cache");
    assert_eq!(
        warm.report.cache.hits, 0,
        "a catalog built anew holds new identities: nothing to hit"
    );
    assert!(
        warm.report.store.columns_scanned > 0,
        "the second fork scans what the first wrote through the shared handle"
    );
    // One scheduler: its count sums both forks' executed waves (the
    // score-cache replay executed none).
    assert_eq!(
        template.scheduler().stats().waves_admitted as usize,
        cold.report.groups.len() + warm.report.groups.len()
    );
    drop((first, second, template));
    let _ = std::fs::remove_dir_all(&path);
}

/// A template whose store failed to open hands its forks no store, and a
/// fork never tries to open one again: the one open error stays in the
/// template's store stats.
#[test]
fn forks_of_a_session_whose_store_failed_to_open_open_nothing() {
    // A *file* where the store directory should be: the open fails.
    let path = temp_store_path("unopenable-fork");
    std::fs::write(&path, b"not a directory").unwrap();
    let template = Session::with_config(
        Catalog::new(),
        SessionConfig {
            store: Some(StoreConfig::at(&path)),
            ..SessionConfig::default()
        },
    );
    assert!(template.store().is_none());
    assert_eq!(template.store_stats().errors.len(), 1);
    assert!(template.store_stats().errors[0].contains("persistence disabled"));

    // An open at the path would now succeed, so a second attempt would
    // show up as a store (and a directory).
    std::fs::remove_file(&path).unwrap();
    let mut fork = template.fork(wide_catalog());
    assert!(fork.store().is_none(), "the fork must not reopen the store");
    assert!(fork.store_stats().errors.is_empty());
    let live = fork.run(&wide_queries()[0]).unwrap();
    assert_eq!(
        live,
        bare(&wide_catalog(), &InspectionConfig::default())
            .run(&wide_queries()[0])
            .unwrap()
    );
    assert!(!path.exists(), "nothing was created at the store path");
}

/// Two forks over one catalog run one batch each from two threads into
/// their one shared hypothesis cache. Each report counts exactly its own
/// lookups — every (hypothesis, record) of its full pass, hit or miss —
/// and the shared cache's misses are the two reports' misses.
#[test]
fn forks_on_two_threads_each_report_their_own_cache_lookups() {
    let (catalog, _) = test_catalog();
    let config = InspectionConfig {
        epsilon: Some(1e-12),
        ..Default::default()
    };
    let reference = bare(&catalog, &config).run(Q_BETA).unwrap();
    let template = Session::with_config(
        Catalog::new(),
        SessionConfig {
            inspection: config,
            ..SessionConfig::default()
        },
    );
    let barrier = std::sync::Barrier::new(2);
    let reports: Vec<BatchOutput> = std::thread::scope(|s| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let mut fork = template.fork(catalog.clone());
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    fork.run_batch(&[Q_BETA]).unwrap()
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    for out in &reports {
        assert_eq!(out.tables, vec![reference.clone()]);
        // Q_BETA names two hypotheses, and ε = 1e-12 streams every record.
        assert_eq!(out.report.cache.hits + out.report.cache.misses, 2 * ND);
    }
    let shared = template.hypothesis_cache().stats();
    assert_eq!(
        reports.iter().map(|o| o.report.cache.misses).sum::<usize>(),
        shared.misses
    );
    assert_eq!(
        reports.iter().map(|o| o.report.cache.hits).sum::<usize>(),
        shared.hits
    );
    assert_eq!(template.hypothesis_cache().len(), 2 * ND);
}
