//! The warm store path in Tier-1: populate a store, then a *fresh* session
//! over the same directory answers bit-identically to the store-less run
//! with zero extractor calls — once with the buffer pool holding the whole
//! working set and once at a quarter of it, where the pool evicts. Ten
//! unit columns (one 8-wide Pearson tile plus a 2-column tail) mix a
//! constant column (pruned from its zone map), ±1 columns (dictionary
//! blocks) and raw ones. The populating pass stores each
//! column in its stream order, so each streamed block of 32 shuffled
//! records is two of a column's 24 stored blocks, and a pass reads each
//! stored page once, the pool fitting or not. Columns of 2 to 255
//! distinct values store dictionary blocks of 1, 2, 3, 4, 5 and 8 index
//! bits, and a warm session answers from them as the cold pass did.
//!
//! And the store outlives the code that filled it: columns written from
//! the char-LSTM's *training* forward (all a store could hold before the
//! inference forward existed), half of them partial, are scanned and
//! resumed by today's extractor to the bit. Columns and views stored
//! under the char-LSTM fingerprint of builds whose gates ran the host's
//! libm (no activation-kernel version in the hash) are never read as
//! today's: a column misses and re-extracts, a view probes `Invalid` and
//! rebuilds.

mod common;

use common::bare;
use deepbase_repro::deepbase::prelude::*;
use deepbase_repro::deepbase::query::UnitMeta;
use deepbase_repro::nn::{CharLstmModel, OutputMode};
use deepbase_repro::tensor::Matrix;
use deepbase_store::format;
use std::path::{Path, PathBuf};
use std::sync::{Arc, OnceLock};

const NS: usize = 16;
const UNITS: usize = 10;
const RECORDS: usize = 384;
const STREAM_BLOCK: usize = 32;
const STORED_BLOCK: usize = 16;
const WORKING_SET_BYTES: usize = UNITS * RECORDS * NS * 4;
const QUERIES: [&str; 2] = [
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D",
    "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
     FROM models M, units U, hypotheses H, inputs D WHERE H.name = 'is_a' AND U.uid < 9",
];

fn records() -> Vec<Record> {
    (0..RECORDS)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 7 + t * 3) % 5 {
                    0 | 3 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            let symbols = text.chars().map(|c| c as u32 - 'a' as u32).collect();
            Record::standalone(i, symbols, text)
        })
        .collect()
}

fn catalog() -> (Catalog, Arc<CountingExtractor>) {
    let records = records();
    let mut behaviors = Matrix::zeros(RECORDS * NS, UNITS);
    for rec in &records {
        for (t, c) in rec.text.chars().enumerate() {
            let r = rec.id * NS + t;
            behaviors.set(r, 0, 0.25);
            behaviors.set(r, 1, if c == 'a' { 1.0 } else { -1.0 });
            behaviors.set(r, 2, if c == 'b' { 1.0 } else { -1.0 });
            for u in 3..UNITS {
                behaviors.set(r, u, ((r * (u + 13) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    catalog_over(Arc::new(PrecomputedExtractor::new(behaviors, NS)), records)
}

fn catalog_over(
    extractor: Arc<dyn Extractor>,
    records: Vec<Record>,
) -> (Catalog, Arc<CountingExtractor>) {
    let counting = Arc::new(CountingExtractor::new(extractor));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        0,
        Arc::<CountingExtractor>::clone(&counting),
        (0..counting.n_units())
            .map(|uid| UnitMeta { uid, layer: 0 })
            .collect(),
    );
    catalog.add_hypotheses(
        "is_a",
        vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
    );
    catalog.add_hypotheses(
        "is_b",
        vec![Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b'))],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records).unwrap()));
    (catalog, counting)
}

fn inspection() -> InspectionConfig {
    InspectionConfig {
        block_records: STREAM_BLOCK,
        epsilon: Some(1e-12), // stream every record
        ..InspectionConfig::default()
    }
}

fn session_at(dir: &Path, pool_bytes: usize) -> (Session, Arc<CountingExtractor>) {
    session_over(catalog(), inspection(), dir, pool_bytes)
}

fn session_over(
    (catalog, counting): (Catalog, Arc<CountingExtractor>),
    inspection: InspectionConfig,
    dir: &Path,
    pool_bytes: usize,
) -> (Session, Arc<CountingExtractor>) {
    let config = SessionConfig {
        inspection,
        store: Some(StoreConfig {
            block_records: STORED_BLOCK,
            pool_bytes,
            ..StoreConfig::at(dir)
        }),
        ..SessionConfig::default()
    };
    (Session::with_config(catalog, config), counting)
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("target/tmp-warm-store")
        .join(format!("{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

#[test]
fn a_fresh_session_answers_from_the_store_alone_with_the_pool_fitting_and_at_a_quarter() {
    let reference = bare(&catalog().0, &inspection())
        .run_batch(&QUERIES)
        .unwrap()
        .tables;
    let dir = store_dir("warm");

    let (mut populate, extractor) = session_at(&dir, 64 << 20);
    let out = populate.run_batch(&QUERIES).unwrap();
    assert_eq!(out.tables, reference);
    assert!(extractor.calls() > 0);
    assert_eq!(out.report.store.columns_written, UNITS);
    drop(populate);

    for (pool_bytes, spills) in [(64 << 20, false), (WORKING_SET_BYTES / 4, true)] {
        let (mut warm, extractor) = session_at(&dir, pool_bytes);
        let out = warm.run_batch(&QUERIES).unwrap();
        assert_eq!(extractor.calls(), 0, "pool {pool_bytes}");
        assert_eq!(out.tables, reference, "pool {pool_bytes}");
        let store = &out.report.store;
        assert_eq!(store.error_count, 0, "{:?}", store.errors);
        assert_eq!(store.columns_scanned, UNITS);
        assert_eq!(store.forward_passes_avoided, RECORDS / STREAM_BLOCK);
        assert_eq!(store.pool_hits + store.pool_misses, store.blocks_read);
        // The constant column never enters the pool: every block of it a
        // fetch touches is served from the zone map.
        assert!(store.blocks_pruned >= RECORDS / STREAM_BLOCK, "{store:?}");
        assert_eq!(store.inverse_map_fetches, 0, "{store:?}");
        // Each stored page is loaded once per pass: a block is one row
        // range of each column, and the pages the pass holds or reads
        // ahead serve the blocks after it. At a quarter of the working
        // set the pool evicts what the pass no longer needs.
        let stored_pages = (UNITS - 1) * (RECORDS / STORED_BLOCK);
        assert_eq!(store.pool_evictions > 0, spills, "{store:?}");
        assert_eq!(
            (store.blocks_read, store.pool_misses),
            (stored_pages, stored_pages),
            "{store:?}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// Distinct values of the dictionary-width columns, one column each:
/// 1, 2, 2, 3, 4, 5 and 8 index bits.
const DICT_LEVELS: [usize; 7] = [2, 3, 4, 5, 16, 17, 255];
/// Records per stored block of the dictionary-width store: 1,024 values,
/// so that a block of more than 128 levels still packs below raw.
const DICT_STORED_BLOCK: usize = 64;

/// Column `u` cycles through `DICT_LEVELS[u]` values; 37 is prime to
/// every level count, so a record's 16 values are min(16, levels)
/// distinct levels and every 64-record block holds every level.
fn dict_catalog() -> (Catalog, Arc<CountingExtractor>) {
    let behaviors = Matrix::from_fn(RECORDS * NS, DICT_LEVELS.len(), |r, u| {
        ((r * 37) % DICT_LEVELS[u]) as f32 * 0.125 - 1.0
    });
    catalog_over(
        Arc::new(PrecomputedExtractor::new(behaviors, NS)),
        records(),
    )
}

/// The dictionary size of each stored block of a column file — a
/// dictionary payload's first byte — `None` for a block of another codec.
fn dict_sizes(file: &Path) -> Vec<Option<usize>> {
    let bytes = std::fs::read(file).unwrap();
    let col = format::read_meta(&mut std::fs::File::open(file).unwrap()).unwrap();
    col.zones
        .iter()
        .enumerate()
        .map(|(b, zone)| {
            let at = col.data_offset(b).unwrap() as usize;
            (zone.codec == format::Codec::Dict).then_some(bytes[at] as usize)
        })
        .collect()
}

#[test]
fn every_dict_width_reads_back_warm_as_the_cold_pass_answered() {
    let reference = bare(&dict_catalog().0, &inspection())
        .run_batch(&QUERIES)
        .unwrap()
        .tables;
    let dir = store_dir("dict-widths");
    let session = |dir: &Path| {
        let (catalog, counting) = dict_catalog();
        let config = SessionConfig {
            inspection: inspection(),
            store: Some(StoreConfig {
                block_records: DICT_STORED_BLOCK,
                pool_bytes: 64 << 20,
                ..StoreConfig::at(dir)
            }),
            ..SessionConfig::default()
        };
        (Session::with_config(catalog, config), counting)
    };

    let (mut cold, _) = session(&dir);
    let out = cold.run_batch(&QUERIES).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(out.report.store.columns_written, DICT_LEVELS.len());
    drop(cold);
    let pair = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.is_dir() && p.extension().is_some())
        .expect("the column directory");
    for (unit, levels) in DICT_LEVELS.into_iter().enumerate() {
        // A block of 64 records holds every level, or for 255 levels more
        // than 128: the width of its levels.
        for size in dict_sizes(&pair.join(format!("u{unit}.col"))) {
            let size = size.expect("every block is dictionary-coded");
            assert!(
                size == levels || (levels > 128 && size > 128),
                "{levels}: {size}"
            );
        }
    }

    let (mut warm, extractor) = session(&dir);
    let out = warm.run_batch(&QUERIES).unwrap();
    assert_eq!(extractor.calls(), 0);
    assert_eq!(out.tables, reference);
    let store = &out.report.store;
    assert_eq!(store.error_count, 0, "{:?}", store.errors);
    assert_eq!(store.columns_scanned, DICT_LEVELS.len());
    let stored_pages = DICT_LEVELS.len() * (RECORDS / DICT_STORED_BLOCK);
    assert_eq!(
        (store.blocks_read, store.pool_misses),
        (stored_pages, stored_pages),
        "{store:?}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

const LSTM_UNITS: usize = 8;

fn char_model() -> &'static CharLstmModel {
    static MODEL: OnceLock<CharLstmModel> = OnceLock::new();
    MODEL.get_or_init(|| CharLstmModel::new(3, LSTM_UNITS, OutputMode::LastStep, 17))
}

/// What filled every char-LSTM store before the inference forward
/// existed: the training forward's hidden states, record-major, under
/// the fingerprint of the model's weights.
struct TrainingForwardExtractor(&'static CharLstmModel);

impl Extractor for TrainingForwardExtractor {
    fn n_units(&self) -> usize {
        self.0.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        let inputs: Vec<Vec<u32>> = records.iter().map(|r| r.symbols.clone()).collect();
        let hs = self.0.run(&inputs).hs;
        Matrix::from_fn(records.len() * hs.len(), unit_ids.len(), |row, c| {
            hs[row % hs.len()].get(row / hs.len(), unit_ids[c])
        })
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(char_model_fingerprint(self.0))
    }
}

#[test]
fn a_store_filled_by_the_training_forward_is_scanned_and_resumed_by_the_inference_forward() {
    const Q_ALL: &str = QUERIES[0];
    let q_half = |filter: &str| format!("{Q_ALL} WHERE {filter}");
    let old = || catalog_over(Arc::new(TrainingForwardExtractor(char_model())), records());
    let new = || catalog_over(Arc::new(CharModelExtractor::new(char_model())), records());
    let reference = bare(&new().0, &inspection())
        .run_batch(&[Q_ALL])
        .unwrap()
        .tables;
    let dir = store_dir("old-store");

    // The old store: units 0..4 streamed to the end (complete columns),
    // units 4..8 interrupted after one of the twelve blocks (partial
    // columns with a watermark).
    let (mut full, _) = session_over(old(), inspection(), &dir, 64 << 20);
    let out = full.run_batch(&[&q_half("U.uid < 4")]).unwrap();
    assert_eq!(out.report.store.columns_written, LSTM_UNITS / 2);
    drop(full);
    let mut interrupted = inspection();
    interrupted.budget.max_blocks = Some(1);
    let (mut part, _) = session_over(old(), interrupted, &dir, 64 << 20);
    let out = part.run_batch(&[&q_half("U.uid >= 4")]).unwrap();
    assert_eq!(out.report.store.partial_columns_written, LSTM_UNITS / 2);
    assert_eq!(out.report.store.columns_written, 0);
    drop(part);

    // Today's extractor over that store: complete columns scan, partial
    // ones scan to the watermark and resume live — through the inference
    // forward, whose every sum must therefore land on the training
    // forward's bits, or the table moves.
    let (mut warm, extractor) = session_over(new(), inspection(), &dir, 64 << 20);
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    let store = &out.report.store;
    assert_eq!(store.error_count, 0, "{:?}", store.errors);
    assert_eq!(store.columns_scanned, LSTM_UNITS);
    assert_eq!(store.partial_columns_scanned, LSTM_UNITS / 2);
    assert_eq!(store.forward_passes_avoided, 1);
    assert_eq!(extractor.calls(), RECORDS / STREAM_BLOCK - 1);
    assert_eq!(
        bare(&old().0, &inspection())
            .run_batch(&[Q_ALL])
            .unwrap()
            .tables,
        reference,
        "the two forwards answer alike without a store in between"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The char-LSTM fingerprint of builds before it carried the activation
/// kernel's version.
fn unsalted_fingerprint(model: &CharLstmModel) -> u64 {
    let mut h = FpHasher::new();
    h.write_str("char-lstm")
        .write_u64(model.vocab_size() as u64)
        .write_u64(model.hidden() as u64);
    model.visit_params(|m| {
        h.write_f32s(m.as_slice());
    });
    h.finish()
}

/// What a build whose gates ran the host's libm stored: activations a
/// last bit away from today's, under the unsalted fingerprint.
struct LibmEraExtractor(&'static CharLstmModel);

impl Extractor for LibmEraExtractor {
    fn n_units(&self) -> usize {
        self.0.hidden()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        CharModelExtractor::new(self.0)
            .extract(records, unit_ids)
            .map(|v| f32::from_bits(v.to_bits() ^ 1))
    }

    fn fingerprint(&self) -> Option<u64> {
        Some(unsalted_fingerprint(self.0))
    }
}

fn libm_era_catalog() -> (Catalog, Arc<CountingExtractor>) {
    catalog_over(Arc::new(LibmEraExtractor(char_model())), records())
}

fn today_catalog() -> (Catalog, Arc<CountingExtractor>) {
    catalog_over(Arc::new(CharModelExtractor::new(char_model())), records())
}

#[test]
fn a_column_stored_under_the_unsalted_fingerprint_is_a_miss_that_re_extracts() {
    let model = char_model();
    assert_eq!(
        unsalted_fingerprint(model),
        0xd61b_628b_7bde_d213,
        "the fingerprint the builds before the salt computed for this model"
    );
    assert_ne!(char_model_fingerprint(model), unsalted_fingerprint(model));
    let q = QUERIES[0];
    let reference = bare(&today_catalog().0, &inspection())
        .run_batch(&[q])
        .unwrap()
        .tables;
    let dir = store_dir("unsalted-column");

    let (mut old, _) = session_over(libm_era_catalog(), inspection(), &dir, 64 << 20);
    let out = old.run_batch(&[q]).unwrap();
    assert_eq!(out.report.store.columns_written, LSTM_UNITS);
    assert_ne!(
        out.tables, reference,
        "the stored activations are not today's"
    );
    drop(old);

    let (mut warm, extractor) = session_over(today_catalog(), inspection(), &dir, 64 << 20);
    let out = warm.run_batch(&[q]).unwrap();
    assert_eq!(out.tables, reference);
    let store = &out.report.store;
    assert_eq!(store.error_count, 0, "{:?}", store.errors);
    assert_eq!(store.columns_scanned, 0);
    assert_eq!(extractor.calls(), RECORDS / STREAM_BLOCK);
    assert_eq!(store.columns_written, LSTM_UNITS, "re-materialized");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_view_built_under_the_unsalted_fingerprint_probes_invalid_and_rebuilds() {
    let q = QUERIES[0];
    let reference = bare(&today_catalog().0, &inspection())
        .run_batch(&[q])
        .unwrap()
        .tables;
    let dir = store_dir("unsalted-view");

    let (mut old, _) = session_over(libm_era_catalog(), inspection(), &dir, 64 << 20);
    old.create_view("v", q).unwrap();
    assert_ne!(old.read_view("v").unwrap(), reference[0]);
    drop(old);

    let (mut session, extractor) = session_over(today_catalog(), inspection(), &dir, 64 << 20);
    assert_eq!(
        session.list_views().unwrap()[0].freshness,
        ViewFreshness::Invalid
    );
    assert!(matches!(
        session.read_view("v"),
        Err(DniError::ViewStale { .. })
    ));
    assert_eq!(session.refresh_view("v").unwrap(), ViewRefresh::Rebuilt);
    assert_eq!(extractor.calls(), RECORDS / STREAM_BLOCK);
    assert_eq!(session.read_view("v").unwrap(), reference[0]);
    assert_eq!(
        session.list_views().unwrap()[0].freshness,
        ViewFreshness::Fresh
    );
    let _ = std::fs::remove_dir_all(&dir);
}
