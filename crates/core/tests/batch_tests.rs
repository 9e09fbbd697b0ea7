//! Batch scheduler semantics (ISSUE 2 acceptance): one `run_batch` must
//! produce byte-identical tables to sequential single-statement runs (a
//! fresh bare session each) on both devices, while doing strictly less
//! work — exactly one extraction pass per `(model, dataset)` group and
//! strictly fewer hypothesis evaluations, proven via counting wrappers
//! and `CacheStats`.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_relational::Table;
use deepbase_tensor::Matrix;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

const ND: usize = 96;
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

/// Hypothesis wrapper counting `behavior` evaluations.
struct CountingHypothesis {
    inner: FnHypothesis,
    calls: Arc<AtomicUsize>,
}

impl HypothesisFn for CountingHypothesis {
    fn id(&self) -> &str {
        self.inner.id()
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.behavior(record)
    }
}

struct Counters {
    extracted_records: Arc<AtomicUsize>,
    hypothesis_evals: Arc<AtomicUsize>,
}

/// Two models over one dataset; hypothesis set "alpha" = {is_a, counter},
/// "beta" = {is_b, is_a} — `is_a` is deliberately registered in both sets
/// so unfiltered queries carry a duplicate hypothesis id.
fn test_catalog() -> (Catalog, Counters) {
    let records: Vec<Record> = (0..ND)
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
        .collect();
    let dataset = Arc::new(Dataset::new("seq", NS, records.clone()).unwrap());

    let extracted_records = Arc::new(AtomicUsize::new(0));
    let hypothesis_evals = Arc::new(AtomicUsize::new(0));

    // m1: 6 units in layers 0/1, a couple tracking 'a' and 'b', the rest
    // deterministic pseudo-noise.
    let mut m1 = Matrix::zeros(ND * NS, 6);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m1.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            m1.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            m1.set(r, 2, t as f32 / NS as f32);
            for u in 3..6 {
                m1.set(r, u, ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    // m2: 4 units, different mixture.
    let mut m2 = Matrix::zeros(ND * NS, 4);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m2.set(r, 0, if c == 'c' { 0.7 } else { 0.0 });
            for u in 1..4 {
                m2.set(r, u, ((r * (u + 5) * 17) % 89) as f32 / 89.0 - 0.5);
            }
        }
    }

    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        3,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(m1, NS),
            records: Arc::clone(&extracted_records),
        }),
        (0..6)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_model_with_units(
        "m2",
        7,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(m2, NS),
            records: Arc::clone(&extracted_records),
        }),
        (0..4).map(|uid| UnitMeta { uid, layer: 0 }).collect(),
    );

    let count = |h: FnHypothesis| -> Arc<dyn HypothesisFn> {
        Arc::new(CountingHypothesis {
            inner: h,
            calls: Arc::clone(&hypothesis_evals),
        })
    };
    let is_a = count(FnHypothesis::char_class("is_a", |c| c == 'a'));
    let is_b = count(FnHypothesis::char_class("is_b", |c| c == 'b'));
    let counter = count(FnHypothesis::position_counter());
    catalog.add_hypotheses("alpha", vec![Arc::clone(&is_a), counter]);
    catalog.add_hypotheses("beta", vec![is_b, is_a]);
    catalog.add_dataset("seq", dataset);
    (
        catalog,
        Counters {
            extracted_records,
            hypothesis_evals,
        },
    )
}

/// Five queries over m1 (overlapping hypothesis sets, different GROUP BY /
/// HAVING / measures, one merged-measure query) plus one query spanning
/// both models.
const QUERIES: [&str; 6] = [
    "SELECT M.epoch, S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE M.mid = 'm1' HAVING S.unit_score > 0.5",
    "SELECT S.group_id, S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE M.mid = 'm1' AND H.name = 'alpha' GROUP BY U.layer",
    "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr, mutual_info \
     OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
     WHERE M.mid = 'm1' AND H.name = 'beta'",
    "SELECT S.uid, S.group_score INSPECT U.uid AND H.h USING logreg_l1 OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE M.mid = 'm1' AND H.name = 'alpha'",
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D \
     WHERE M.mid = 'm1' AND U.layer = 1 HAVING S.unit_score > -2.0",
    "SELECT M.mid, S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'beta'",
];

fn config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 24,
        ..Default::default()
    }
}

/// The batch side: a fresh session with its defaults (session hypothesis
/// cache, score reuse) running one batch.
fn run_batch(catalog: &Catalog, config: &InspectionConfig, queries: &[&str]) -> BatchOutput {
    let session_config = SessionConfig {
        inspection: config.clone(),
        ..SessionConfig::default()
    };
    Session::with_config(catalog.clone(), session_config)
        .run_batch(queries)
        .expect("batch runs")
}

/// The sequential side: every statement alone in its own bare session.
fn sequential_tables(catalog: &Catalog, config: &InspectionConfig, queries: &[&str]) -> Vec<Table> {
    queries
        .iter()
        .map(|q| bare(catalog, config).run(q).unwrap())
        .collect()
}

#[test]
fn batch_is_bit_identical_to_sequential_on_both_devices() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let (catalog, _) = test_catalog();
        let config = config(device);
        let sequential = sequential_tables(&catalog, &config, &QUERIES);
        let batch = run_batch(&catalog, &config, &QUERIES);
        assert_eq!(
            batch.tables, sequential,
            "batch tables must match sequential execution on {device:?}"
        );
        assert!(
            batch.tables.iter().any(|t| !t.is_empty()),
            "results nonempty"
        );
    }
}

#[test]
fn a_fresh_sessions_first_batch_reports_plan_provenance() {
    // A fresh session binds every statement of its first batch and,
    // unbounded, never splits: the BatchReport.plan counters must say
    // exactly that.
    let (catalog, _) = test_catalog();
    let batch = run_batch(&catalog, &config(Device::SingleCore), &QUERIES);
    assert_eq!(batch.report.plan.plan_cache_hits, 0);
    assert_eq!(batch.report.plan.plan_cache_misses, QUERIES.len());
    assert_eq!(batch.report.plan.score_cache_hits, 0);
    assert_eq!(batch.report.plan.admission_splits, 0);
    assert_eq!(batch.report.plan.admission_queued, 0);
}

#[test]
fn parallel_batch_matches_single_core_batch() {
    let (catalog, _) = test_catalog();
    let single = run_batch(&catalog, &config(Device::SingleCore), &QUERIES);
    let parallel = run_batch(&catalog, &config(Device::Parallel(4)), &QUERIES);
    assert_eq!(single.tables, parallel.tables);
}

#[test]
fn batch_runs_one_extraction_pass_per_model_dataset_group() {
    // A tight epsilon disables early stopping, so a full pass is exactly
    // ND records: the sharing is visible as exact counts.
    let tight = InspectionConfig {
        epsilon: Some(1e-9),
        block_records: 24,
        ..Default::default()
    };
    let m1_queries = &QUERIES[..5];

    let (catalog, counters) = test_catalog();
    let batch = run_batch(&catalog, &tight, m1_queries);
    let batch_extracted = counters.extracted_records.load(Ordering::SeqCst);
    assert_eq!(
        batch_extracted, ND,
        "five m1 queries must share exactly one extraction pass"
    );
    assert_eq!(batch.report.groups.len(), 1);
    assert_eq!(batch.report.groups[0].extraction_passes, 1);
    assert_eq!(batch.report.groups[0].model_id, "m1");
    assert_eq!(batch.report.groups[0].queries, vec![0, 1, 2, 3, 4]);
    assert_eq!(batch.report.groups[0].pass.records_read, ND);
    assert_eq!(batch.report.per_query.len(), 5);
    assert!(batch.report.per_query.iter().all(|p| p.records_read == ND));

    // Sequential execution re-extracts per query (and per GROUP BY group).
    let (catalog, counters) = test_catalog();
    let _ = sequential_tables(&catalog, &tight, m1_queries);
    let sequential_extracted = counters.extracted_records.load(Ordering::SeqCst);
    assert!(
        sequential_extracted >= 5 * ND,
        "sequential: at least one pass per query, got {sequential_extracted}"
    );
    assert!(batch_extracted < sequential_extracted);
}

#[test]
fn batch_does_strictly_fewer_hypothesis_evaluations() {
    let tight = InspectionConfig {
        epsilon: Some(1e-9),
        block_records: 24,
        ..Default::default()
    };
    let m1_queries = &QUERIES[..5];

    let (catalog, counters) = test_catalog();
    let batch = run_batch(&catalog, &tight, m1_queries);
    let batch_evals = counters.hypothesis_evals.load(Ordering::SeqCst);
    // The shared cache deduplicates evaluation across queries and blocks:
    // each of the 3 distinct hypotheses runs once per record.
    assert_eq!(batch_evals, 3 * ND);
    assert_eq!(batch.report.cache.misses, 3 * ND);
    // Within one shared group the union pass already evaluates each
    // (hypothesis, record) exactly once, so nothing is ever looked up
    // twice: sharing shows up as the *absence* of redundant lookups, not
    // as cache hits. (Hits appear across groups; see the multi-model test.)
    assert_eq!(batch.report.cache.hits, 0);
    assert_eq!(batch.report.cache.evictions, 0);

    let (catalog, counters) = test_catalog();
    let _ = sequential_tables(&catalog, &tight, m1_queries);
    let sequential_evals = counters.hypothesis_evals.load(Ordering::SeqCst);
    assert!(
        batch_evals < sequential_evals,
        "batch {batch_evals} must be < sequential {sequential_evals}"
    );
}

#[test]
fn multi_model_queries_fan_into_separate_groups() {
    let (catalog, _) = test_catalog();
    let config = config(Device::SingleCore);
    let batch = run_batch(&catalog, &config, &QUERIES);
    // m1 group (queries 0-5: query 5 spans both models) + m2 group.
    assert_eq!(batch.report.groups.len(), 2);
    let m2_group = batch
        .report
        .groups
        .iter()
        .find(|g| g.model_id == "m2")
        .expect("m2 group exists");
    assert_eq!(m2_group.queries, vec![5]);
    assert_eq!(m2_group.dataset_id, "seq");
    // Both groups stream the same dataset with overlapping hypotheses, so
    // the second group's hypothesis columns come from the shared cache.
    assert!(
        batch.report.cache.hits > 0,
        "cross-group lookups must hit the shared batch cache"
    );
    // The cross-model query's table contains rows from both models.
    let t = &batch.tables[5];
    let mids: Vec<String> = (0..t.len())
        .filter_map(|r| match t.value(r, "m_mid") {
            Some(deepbase_relational::Value::Str(s)) => Some(s),
            _ => None,
        })
        .collect();
    assert!(mids.iter().any(|m| m == "m1"));
    assert!(mids.iter().any(|m| m == "m2"));
}

#[test]
fn colliding_dataset_ids_do_not_cross_contaminate() {
    // Two *distinct* datasets registered under different catalog names
    // but sharing the same internal `Dataset::id` (a user mistake, but
    // reachable): the batch scheduler must not let its implicit shared
    // cache serve one dataset's behaviors for the other's records. The
    // proof is parity with cache-less sequential execution.
    let build = || {
        let mk_records = |flip: bool| -> Vec<Record> {
            (0..32)
                .map(|i| {
                    let text: String = (0..NS)
                        .map(|t| {
                            let a = (i + t) % 3 == 0;
                            if a != flip {
                                'a'
                            } else {
                                'b'
                            }
                        })
                        .collect();
                    Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
                })
                .collect()
        };
        let mut catalog = Catalog::new();
        let behaviors = Matrix::from_fn(32 * NS, 2, |r, c| ((r * (c + 2) * 7) % 19) as f32 / 19.0);
        catalog.add_model("m", 0, Arc::new(PrecomputedExtractor::new(behaviors, NS)));
        catalog.add_hypotheses(
            "h",
            vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
        );
        // Same internal id "dup" for two different record sets.
        catalog.add_dataset(
            "train",
            Arc::new(Dataset::new("dup", NS, mk_records(false)).unwrap()),
        );
        catalog.add_dataset(
            "test",
            Arc::new(Dataset::new("dup", NS, mk_records(true)).unwrap()),
        );
        catalog
    };
    let queries = [
        "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D WHERE D.name = 'train'",
        "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D WHERE D.name = 'test'",
    ];
    let config = InspectionConfig::default();
    let catalog = build();
    let sequential = sequential_tables(&catalog, &config, &queries);
    let batch = run_batch(&catalog, &config, &queries);
    assert_eq!(batch.tables, sequential);
    assert_ne!(
        batch.tables[0], batch.tables[1],
        "the two datasets genuinely differ"
    );
}

#[test]
fn colliding_hypothesis_ids_do_not_cross_contaminate() {
    // Two *different* predicates registered under the same hypothesis id
    // in two sets (nothing enforces id uniqueness): a query binding both
    // carries both functions. The union dedup must key on function
    // identity — not id — and the implicit batch cache (which keys on
    // id) must stand down, so batch results still match cache-less
    // sequential execution.
    let records: Vec<Record> = (0..48)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| if (i + t) % 3 == 0 { 'a' } else { 'b' })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let mut catalog = Catalog::new();
    let behaviors = Matrix::from_fn(48 * NS, 3, |r, c| ((r * (c + 2) * 13) % 29) as f32 / 29.0);
    let mut m = Matrix::zeros(48 * NS, 3);
    for (ri, rec) in records.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.9 } else { 0.0 });
            m.set(r, 1, behaviors.get(r, 1));
            m.set(r, 2, behaviors.get(r, 2));
        }
    }
    catalog.add_model("m", 0, Arc::new(PrecomputedExtractor::new(m, NS)));
    catalog.add_hypotheses(
        "s1",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'a'))],
    );
    catalog.add_hypotheses(
        "s2",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'b'))],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records).unwrap()));
    let queries = [
        // Binds both sets: one request with two distinct functions, both
        // with id "dup".
        "SELECT S.uid, S.hyp_id, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D",
        "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
         FROM models M, units U, hypotheses H, inputs D WHERE H.name = 's2'",
    ];
    let config = InspectionConfig::default();
    let sequential = sequential_tables(&catalog, &config, &queries);
    // Sanity: the two same-id functions genuinely score differently.
    assert_eq!(sequential[0].len(), 6, "2 hypotheses x 3 units");
    let batch = run_batch(&catalog, &config, &queries);
    assert_eq!(batch.tables, sequential);
}

/// Every cell of a table with floats as bit patterns (`Table`'s own `==`
/// compares floats by value, which lets `-0.0` pass for `0.0`).
fn bits(table: &Table) -> Vec<Vec<String>> {
    (0..table.len())
        .map(|r| {
            (0..table.schema().arity())
                .map(|c| match table.column_at(c).floats() {
                    Some(floats) => format!("{:#010x}", floats[r].to_bits()),
                    None => format!("{:?}", table.column_at(c).value(r)),
                })
                .collect()
        })
        .collect()
}

#[test]
fn identity_dedup_is_what_explain_counts_and_the_batch_matches_bare_sessions() {
    // One batch over m1 whose statements lean on every identity rule:
    // `is_a` is one Arc in `alpha` and `beta` (one column), `gamma` and
    // `delta` each hold a different function registered as "dup" (two
    // columns), and `jaccard_lo` / `jaccard_hi` are two quantiles both
    // answering to the id "jaccard" (two states). Statement 5 names
    // statement 0's (units, measure, list) again and shares its state, and
    // the three `corr` statements read one pairwise grid (three states).
    let (mut catalog, _) = test_catalog();
    catalog.add_hypotheses(
        "gamma",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'a'))],
    );
    catalog.add_hypotheses(
        "delta",
        vec![Arc::new(FnHypothesis::char_class("dup", |c| c == 'c'))],
    );
    let jaccard = |top_quantile: f32| -> Arc<dyn Measure> {
        Arc::new(BufferedMeasure::jaccard("jaccard", top_quantile, 65_536))
    };
    catalog.add_measure("jaccard_lo", jaccard(0.5));
    catalog.add_measure("jaccard_hi", jaccard(0.9));
    let statement = |select: &str, measure: &str, set: &str, having: &str| {
        format!(
            "SELECT {select} INSPECT U.uid AND H.h USING {measure} OVER D.seq AS S \
             FROM models M, units U, hypotheses H, inputs D \
             WHERE M.mid = 'm1' AND H.name = '{set}'{having}"
        )
    };
    let all = "S.uid, S.hyp_id, S.unit_score";
    let queries = [
        statement(all, "jaccard_lo", "alpha", ""),
        statement(all, "jaccard_hi", "alpha", ""),
        statement(all, "corr", "beta", ""),
        statement(all, "corr", "gamma", ""),
        statement(all, "corr", "delta", ""),
        statement(
            "S.uid, S.unit_score",
            "jaccard_lo",
            "alpha",
            " HAVING S.unit_score > 0.1",
        ),
    ];
    let queries: Vec<&str> = queries.iter().map(String::as_str).collect();

    let config = config(Device::SingleCore);
    let explain = Session::with_config(
        catalog.clone(),
        SessionConfig {
            inspection: config.clone(),
            ..SessionConfig::default()
        },
    )
    .explain_batch(&queries)
    .unwrap();
    assert_eq!(
        explain,
        "\
PhysicalPlan: 6 queries, 1 shared group, block_records=24
└─ group[0] model='m1' dataset='seq' members=[0, 1, 2, 3, 4, 5]
   ├─ unit columns: 6 union (36 requested)
   ├─ hypothesis columns: 5 deduped (10 requested)
   ├─ measure states: 3 shared (6 requested)
   ├─ stream width: 11 columns, 8448 bytes/block (ns=8)
   └─ admission: 1 wave (unbounded)
"
    );

    for device in [Device::SingleCore, Device::Parallel(3)] {
        let config = InspectionConfig {
            device,
            ..config.clone()
        };
        let batch = run_batch(&catalog, &config, &queries);
        // Each statement alone in a bare session: a shared pass that
        // conflated two identities would disagree with it.
        let reference = sequential_tables(&catalog, &config, &queries);
        assert_eq!(batch.report.groups.len(), 1, "one shared pass");
        for (i, (got, want)) in batch.tables.iter().zip(&reference).enumerate() {
            assert!(!want.is_empty(), "statement {i} scores something");
            assert_eq!(bits(got), bits(want), "statement {i} on {device:?}");
        }
        let tables = &batch.tables;
        assert_ne!(bits(&tables[0]), bits(&tables[1]), "the quantiles disagree");
        assert_ne!(
            bits(&tables[3]),
            bits(&tables[4]),
            "the two \"dup\" disagree"
        );
    }
}

/// The benchmark's `warm_scan` batch in miniature: 8 units in two layers
/// (`layer = uid % 2`), two hypothesis sets, three statements — every
/// unit × every hypothesis, `GROUP BY U.layer` × `chars`, every unit ×
/// `position` — over 1,536 records of 8 symbols.
///
/// Layer 0 tracks `is_a` closely and layer 1 is noise, `is_b` and
/// position, so at `corr`'s default ε the layer-0 group stops reading
/// `is_a` within a few blocks while the other two statements read it for
/// dozens more: the snapshot a consumer takes when a member stops is what
/// keeps its scores those of a state of its own.
fn warm_scan_catalog(segments: usize) -> Catalog {
    const UNITS: usize = 8;
    const RECORDS: usize = 1536;
    let records: Vec<Record> = (0..RECORDS)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 13 + t * 7 + i / 5) % 4 {
                    0 | 2 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let mut behaviors = Matrix::zeros(RECORDS * NS, UNITS);
    for rec in &records {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            let noise = |u: usize| ((r * (u + 13) * 31 + u * 7) % 97) as f32 / 97.0 - 0.5;
            let (a, b) = (f32::from(c == 'a'), f32::from(c == 'b'));
            let unit = [
                a + 0.05 * noise(0),
                noise(1),
                0.7 * a + 0.1 * noise(2),
                b + 0.3 * noise(3),
                0.2 * noise(4) - a,
                t as f32 / NS as f32 + 0.2 * noise(5),
                a + 0.15 * noise(6),
                (t % 2) as f32 + 0.5 * noise(7),
            ];
            behaviors.row_mut(r).copy_from_slice(&unit);
        }
    }
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::new(PrecomputedExtractor::new(behaviors, NS)),
        (0..UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    let even = FnHypothesis::new("even", |r: &Record| {
        (0..r.symbols.len()).map(|t| (t % 2) as f32).collect()
    });
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    catalog.add_hypotheses(
        "position",
        vec![Arc::new(FnHypothesis::position_counter()), Arc::new(even)],
    );
    let cut = RECORDS * 7 / 16;
    let segs = match segments {
        1 => vec![records],
        _ => vec![records[..cut].to_vec(), records[cut..].to_vec()],
    };
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::with_segments("seq", NS, segs).unwrap()),
    );
    catalog
}

/// `warm_scan`'s three statements over `measure`, then the second one's
/// two groups as statements of their own (one slot each, so nothing is
/// shared inside them).
fn warm_scan_statements(measure: &str) -> Vec<String> {
    let from = "FROM models M, units U, hypotheses H, inputs D";
    let inspect = format!("INSPECT U.uid AND H.h USING {measure} OVER D.seq AS S {from}");
    let chars = "S.uid, S.hyp_id, S.unit_score, S.group_score";
    let layer = |layer: usize| {
        format!("SELECT {chars} {inspect} WHERE U.layer = {layer} AND H.name = 'chars'")
    };
    vec![
        format!("SELECT {chars} {inspect}"),
        format!("SELECT S.group_id, {chars} {inspect} WHERE H.name = 'chars' GROUP BY U.layer"),
        format!("SELECT S.uid, S.hyp_id, S.unit_score {inspect} WHERE H.name = 'position'"),
        layer(0),
        layer(1),
    ]
}

/// A pass builds one accumulator grid per pairwise measure for the whole
/// `warm_scan` batch, whose four slots (the layer groups are two) read
/// their pairs out of it — and every table is bit-identical to its
/// statement alone in a bare session, the grouped one also to its two
/// groups run as statements of their own: for `corr`, `diff_means` and
/// `majority_baseline`, at the measure's default ε (members stop early,
/// for `corr` the same hypothesis at different blocks for different
/// slots) and at 1e-12, on both devices, on one segment and folded over
/// two.
#[test]
fn a_shared_pairwise_grid_answers_like_each_statement_alone() {
    let statements = warm_scan_statements("corr");
    let queries: Vec<&str> = statements[..3].iter().map(String::as_str).collect();
    assert_eq!(
        Session::new(warm_scan_catalog(1))
            .explain_batch(&queries)
            .unwrap(),
        "\
PhysicalPlan: 3 queries, 1 shared group, block_records=512
└─ group[0] model='m1' dataset='seq' members=[0, 1, 2]
   ├─ unit columns: 8 union (24 requested)
   ├─ hypothesis columns: 4 deduped (8 requested)
   ├─ measure states: 1 shared (4 requested)
   ├─ stream width: 12 columns, 196608 bytes/block (ns=8)
   └─ admission: 1 wave (unbounded)
"
    );
    for measure in ["corr", "diff_means", "majority_baseline"] {
        let statements = warm_scan_statements(measure);
        let (queries, layers) = statements.split_at(3);
        let queries: Vec<&str> = queries.iter().map(String::as_str).collect();
        for segments in [1, 2] {
            let catalog = warm_scan_catalog(segments);
            for device in [Device::SingleCore, Device::Parallel(3)] {
                for epsilon in [None, Some(1e-12)] {
                    let config = InspectionConfig {
                        device,
                        block_records: 16,
                        epsilon,
                        ..Default::default()
                    };
                    let what = format!("{measure}, {segments} segments, {device:?}, {epsilon:?}");
                    let explain = bare(&catalog, &config).explain_batch(&queries).unwrap();
                    assert!(
                        explain.contains("measure states: 1 shared (4 requested)"),
                        "{what}: {explain}"
                    );
                    let batch = run_batch(&catalog, &config, &queries);
                    assert_eq!(batch.report.groups.len(), 1, "{what}: one shared pass");
                    let reference = sequential_tables(&catalog, &config, &queries);
                    for (i, (got, want)) in batch.tables.iter().zip(&reference).enumerate() {
                        assert!(!want.is_empty(), "{what}: statement {i} scores something");
                        assert_eq!(bits(got), bits(want), "{what}: statement {i}");
                    }
                    let grouped: Vec<Vec<String>> = (bits(&batch.tables[1]).into_iter())
                        .map(|row| row[1..].to_vec())
                        .collect();
                    let by_layer: Vec<&str> = layers.iter().map(String::as_str).collect();
                    let by_layer = sequential_tables(&catalog, &config, &by_layer);
                    let by_layer: Vec<Vec<String>> = by_layer.iter().flat_map(bits).collect();
                    assert_eq!(grouped, by_layer, "{what}: the groups as statements");
                }
            }
        }
    }
    // Not vacuous: at `corr`'s default ε the layer-0 group is done reading
    // long before layer 1 is, while both read `is_a` and `is_b`.
    let catalog = warm_scan_catalog(1);
    let config = InspectionConfig {
        block_records: 16,
        ..Default::default()
    };
    let read = |layer: &str| {
        let report = bare(&catalog, &config).run_batch(&[layer]).unwrap().report;
        report.per_query[0].records_read
    };
    let (layer_0, layer_1) = (read(&statements[3]), read(&statements[4]));
    assert!(
        2 * layer_0 < layer_1,
        "layer 0 read {layer_0}, layer 1 {layer_1}"
    );
}

#[test]
fn shared_inspection_engine_level_parity() {
    // Engine-level check: inspect_shared member results are identical to
    // standalone inspect calls for members with different unit groups,
    // hypothesis subsets and measures.
    let records: Vec<Record> = (0..64)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| if (i + 2 * t) % 3 == 0 { 'a' } else { 'b' })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect();
    let dataset = Dataset::new("d", NS, records).unwrap();
    let behaviors = Matrix::from_fn(64 * NS, 5, |r, c| ((r * (c + 3) * 11) % 23) as f32 / 23.0);
    let extractor = PrecomputedExtractor::new(behaviors, NS);
    let is_a = FnHypothesis::char_class("is_a", |c| c == 'a');
    let is_b = FnHypothesis::char_class("is_b", |c| c == 'b');
    let corr = CorrelationMeasure;
    let mi = BufferedMeasure::mutual_info(8, 65_536);

    let requests = vec![
        InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(5)],
            dataset: &dataset,
            hypotheses: vec![&is_a, &is_b],
            measures: vec![&corr],
        },
        InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![
                UnitGroup::new("low", vec![0, 1]),
                UnitGroup::new("high", vec![2, 3, 4]),
            ],
            dataset: &dataset,
            hypotheses: vec![&is_b],
            measures: vec![&corr, &mi],
        },
        // Request 0's units, measure and hypotheses under another model id
        // and group label: it shares request 0's slot, and its rows must
        // carry its own ids.
        InspectionRequest {
            model_id: "m2".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::new("every", vec![0, 1, 2, 3, 4])],
            dataset: &dataset,
            hypotheses: vec![&is_a, &is_b],
            measures: vec![&corr],
        },
    ];
    let config = InspectionConfig {
        block_records: 16,
        ..Default::default()
    };
    let outcome = inspect_shared(&requests, &config).unwrap();
    assert_eq!(outcome.extraction_passes, 1);
    assert_eq!(outcome.results.len(), 3);
    let score_bits = |frame: &ResultFrame| -> Vec<_> {
        (frame.rows.iter())
            .map(|r| (r.unit_score.to_bits(), r.group_score.to_bits()))
            .collect()
    };
    for (req, (shared_frame, _)) in requests.iter().zip(&outcome.results) {
        let (solo_frame, _) = inspect(req, &config).unwrap();
        assert_eq!(
            shared_frame, &solo_frame,
            "member frame must be bit-identical"
        );
        assert_eq!(score_bits(shared_frame), score_bits(&solo_frame));
    }
    // Request 2 reads request 0's slot: the same score bits, under its own
    // ids.
    let (first, renamed) = (&outcome.results[0].0, &outcome.results[2].0);
    assert_eq!(score_bits(renamed), score_bits(first));
    assert!((renamed.rows.iter()).all(|r| (&*r.model_id, &*r.group_id) == ("m2", "every")));
}

#[test]
fn shared_inspection_rejects_mixed_datasets() {
    let records: Vec<Record> = (0..8)
        .map(|i| Record::standalone(i, vec![0; 4], "aaaa".into()))
        .collect();
    let d1 = Dataset::new("d1", 4, records.clone()).unwrap();
    let d2 = Dataset::new("d2", 4, records).unwrap();
    let behaviors = Matrix::zeros(32, 2);
    let extractor = PrecomputedExtractor::new(behaviors, 4);
    let hyp = FnHypothesis::char_class("is_a", |c| c == 'a');
    let corr = CorrelationMeasure;
    let reqs: Vec<InspectionRequest> = [&d1, &d2]
        .into_iter()
        .map(|d| InspectionRequest {
            model_id: "m".into(),
            extractor: &extractor,
            groups: vec![UnitGroup::all(2)],
            dataset: d,
            hypotheses: vec![&hyp],
            measures: vec![&corr],
        })
        .collect();
    let err = inspect_shared(&reqs, &InspectionConfig::default()).unwrap_err();
    assert!(matches!(err, DniError::BadConfig(_)));
}
