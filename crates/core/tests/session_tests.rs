//! Session API semantics (ISSUE 3 acceptance): the plan cache serves
//! repeated statements with zero bind work and is invalidated by catalog
//! mutation; prepared execution is bit-identical to a bare reference
//! session on both devices; `explain` output is stable; admission control splits
//! oversized batches without changing results; and the score cache skips
//! extraction on repeated batches.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
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

#[test]
fn catalog_mutation_bumps_generation_and_invalidates_plans() {
    let (catalog, _) = test_catalog();
    let mut session = Session::new(catalog);
    let before = session.run(Q_ALPHA).unwrap();
    assert_eq!(session.stats().plan_cache_misses, 1);
    assert_eq!(session.generation(), 0);

    // Mutate: register a second model the unfiltered statement matches.
    let recs = records(ND, 0);
    session.catalog_mut().add_model(
        "m2",
        9,
        Arc::new(PrecomputedExtractor::new(behaviors_for(&recs, 3, 5), NS)),
    );
    assert_eq!(session.generation(), 1);

    // The cached plan is stale: next prepare re-binds (miss +
    // invalidation), and the result now includes the new model's units.
    let after = session.run(Q_ALPHA).unwrap();
    assert_eq!(session.stats().plan_cache_invalidations, 1);
    assert_eq!(session.stats().plan_cache_misses, 2);
    assert_eq!(after.len(), before.len() + 3, "m2 contributes 3 unit rows");
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
    assert_eq!(session.stats().plan_cache_invalidations, 1);
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
    // sets (nothing enforces id uniqueness). The hypothesis caches key on
    // id strings, so a batch that carries both functions gets no cache at
    // all; and the session cache lives *across* batches, so after a batch
    // over set 1 populates it, a later batch over set 2 — unambiguous on
    // its own — must not be served set 1's cached behaviors: it gets a
    // private cache, and set 1 keeps the session's.
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
    // `report.cache` shows which hypothesis cache it was handed.
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            reuse_scores: false,
            ..SessionConfig::default()
        },
    );
    // Collision inside the batch: no cache, and no claim on the ids.
    let out = session.run_batch(&[q_both]).unwrap();
    assert_eq!(out.tables, vec![reference_both]);
    assert_eq!(out.report.cache, CacheStats::default());
    assert!(session.hypothesis_cache().is_empty());
    // Set 1 arrives first: it owns "dup" in the session cache.
    let out = session.run_batch(&[q1]).unwrap();
    assert_eq!(out.tables, vec![reference_q1.clone()]);
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (0, ND));
    assert_eq!(session.hypothesis_cache().len(), ND);
    // Set 2 collides with an earlier batch: a private cache, every
    // lookup a miss, the session cache untouched.
    let out = session.run_batch(&[q2]).unwrap();
    assert_eq!(
        out.tables,
        vec![reference_q2],
        "second batch must not read the first batch's cached behaviors"
    );
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (0, ND));
    assert_eq!(session.hypothesis_cache().stats().misses, ND);
    // And back to the first identity, which still owns the session cache.
    let out = session.run_batch(&[q1]).unwrap();
    assert_eq!(out.tables, vec![reference_q1]);
    assert_eq!((out.report.cache.hits, out.report.cache.misses), (ND, 0));
}

#[test]
fn catalog_mutation_resets_the_session_hypothesis_cache() {
    // Re-registering a dataset under an id the session cache already
    // holds behaviors for must not serve the old dataset's cached
    // behaviors for the new records.
    let build = |seed: usize| {
        let recs = records(ND, seed);
        Arc::new(Dataset::new("seq", NS, recs).unwrap())
    };
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
    catalog.add_dataset("seq", build(0));

    let q = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D";
    let mut session = Session::new(catalog);
    let before = session.run(q).unwrap();

    // Swap the dataset (same registration name, same Dataset::id,
    // different records) through the session.
    session.catalog_mut().add_dataset("seq", build(3));
    let after = session.run(q).unwrap();
    assert_ne!(after, before, "the swapped dataset genuinely differs");

    // Parity with a bare session over an identical catalog.
    let mut reference = Catalog::new();
    reference.add_model(
        "m",
        0,
        Arc::new(PrecomputedExtractor::new(
            behaviors_for(&records(ND, 0), 3, 0),
            NS,
        )),
    );
    reference.add_hypotheses(
        "h",
        vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
    );
    reference.add_dataset("seq", build(3));
    let reference_table = bare(&reference, &InspectionConfig::default())
        .run(q)
        .unwrap();
    assert_eq!(after, reference_table);
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
   ├─ measure states: 5 shared (5 requested)
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
}

// ---------------------------------------------------------------------
// Process-wide admission: sessions sharing one scheduler (ISSUE 8)
// ---------------------------------------------------------------------

/// Two sessions bound to one `AdmissionScheduler` run over-wide batches
/// concurrently: results stay bit-identical to sequential execution,
/// every wave acquires a global permit, and the *summed* in-flight
/// stream width never exceeds the single shared budget.
#[test]
fn concurrent_sessions_share_one_global_admission_budget() {
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let config = InspectionConfig::default();
    let catalog = wide_catalog();
    let sequential: Vec<Table> = refs
        .iter()
        .map(|q| bare(&catalog, &config).run(q).unwrap())
        .collect();

    let scheduler = AdmissionScheduler::new(AdmissionConfig {
        max_stream_width: Some(16),
        ..AdmissionConfig::default()
    });
    let outcomes: Vec<(Vec<Table>, usize)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let scheduler = Arc::clone(&scheduler);
                let refs = refs.clone();
                scope.spawn(move || {
                    let mut session = Session::with_config(
                        wide_catalog(),
                        SessionConfig {
                            scheduler: Some(scheduler),
                            ..SessionConfig::default()
                        },
                    );
                    let batch = session.run_batch(&refs).unwrap();
                    (batch.tables, batch.report.plan.global_waves)
                })
            })
            .collect();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });

    let mut total_waves = 0;
    for (tables, global_waves) in &outcomes {
        assert_eq!(
            tables, &sequential,
            "globally scheduled execution stays bit-identical"
        );
        assert!(
            *global_waves >= 2,
            "a 36-wide group under budget 16 splits into permit-acquiring waves"
        );
        total_waves += global_waves;
    }
    let stats = scheduler.stats();
    assert_eq!(
        stats.waves_admitted as usize, total_waves,
        "each planned wave acquired exactly one permit"
    );
    assert!(
        stats.peak_stream_width <= 16,
        "both sessions' waves drew from ONE budget (peak {})",
        stats.peak_stream_width
    );
}

/// The scheduler overrides the session's own admission config: plans are
/// split against the scheduler's budgets even when the session sets a
/// different (or no) per-batch budget, and `explain` says so.
#[test]
fn scheduler_budgets_override_per_session_admission() {
    let scheduler = AdmissionScheduler::new(AdmissionConfig {
        max_stream_width: Some(16),
        ..AdmissionConfig::default()
    });
    let mut session = Session::with_config(
        wide_catalog(),
        SessionConfig {
            // Unbounded per-session admission: the scheduler must win.
            admission: AdmissionConfig::default(),
            scheduler: Some(Arc::clone(&scheduler)),
            ..SessionConfig::default()
        },
    );
    let queries = wide_queries();
    let refs: Vec<&str> = queries.iter().map(|s| s.as_str()).collect();
    let explain = session.explain_batch(&refs).unwrap();
    assert!(
        explain.contains("global scheduler"),
        "explain must render the process-wide admission line:\n{explain}"
    );
    let batch = session.run_batch(&refs).unwrap();
    assert_eq!(batch.report.plan.admission_splits, 1);
    assert!(batch.report.plan.global_waves >= 2);
    assert_eq!(
        scheduler.stats().waves_admitted as usize,
        batch.report.plan.global_waves
    );
}
