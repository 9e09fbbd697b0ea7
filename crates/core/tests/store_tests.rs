//! Persistent behavior store semantics (ISSUE 4 acceptance): a warm
//! store serves repeated inspection in a *fresh* `Session` (fresh
//! process semantics — the store is dropped and reopened from disk) with
//! **zero** extractor forward passes and bit-identical tables on both
//! devices; partial hits scan stored columns and extract only the
//! missing units; corrupted columns are detected by checksum and fall
//! back to live extraction with the error surfaced in `StoreStats`
//! (never a panic), then self-heal via quarantine + re-materialization;
//! and content fingerprints make catalog changes miss the store instead
//! of reading stale behaviors.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_tensor::Matrix;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

const ND: usize = 64;
const NS: usize = 8;
const UNITS: usize = 6;

/// Extractor wrapper counting forward passes and recording the unit ids
/// of every call, forwarding the inner extractor's content fingerprint.
struct CountingExtractor {
    inner: PrecomputedExtractor,
    calls: Arc<AtomicUsize>,
    unit_calls: Arc<Mutex<Vec<Vec<usize>>>>,
}

impl Extractor for CountingExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.unit_calls.lock().unwrap().push(unit_ids.to_vec());
        self.inner.extract(records, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

struct Counters {
    calls: Arc<AtomicUsize>,
    unit_calls: Arc<Mutex<Vec<Vec<usize>>>>,
}

impl Counters {
    fn calls(&self) -> usize {
        self.calls.load(Ordering::SeqCst)
    }

    /// Sorted-deduplicated union of all unit ids the extractor was asked
    /// for.
    fn units_extracted(&self) -> Vec<usize> {
        let mut units: Vec<usize> = self
            .unit_calls
            .lock()
            .unwrap()
            .iter()
            .flatten()
            .copied()
            .collect();
        units.sort_unstable();
        units.dedup();
        units
    }
}

fn records() -> Vec<Record> {
    (0..ND)
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

fn behaviors(salt: usize) -> Matrix {
    let recs = records();
    let mut m = Matrix::zeros(ND * NS, UNITS);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.8 } else { 0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { -0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + salt + 7) * 31) % 97) as f32 / 97.0 - 0.5);
            }
        }
    }
    m
}

/// Catalog with one counted model (layers = uid % 2) and two hypothesis
/// sets over one dataset.
fn test_catalog(salt: usize) -> (Catalog, Counters) {
    let counters = Counters {
        calls: Arc::new(AtomicUsize::new(0)),
        unit_calls: Arc::new(Mutex::new(Vec::new())),
    };
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        3,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(behaviors(salt), NS),
            calls: Arc::clone(&counters.calls),
            unit_calls: Arc::clone(&counters.unit_calls),
        }),
        (0..UNITS)
            .map(|uid| UnitMeta {
                uid,
                layer: (uid % 2) as i64,
            })
            .collect(),
    );
    catalog.add_hypotheses(
        "chars",
        vec![
            Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a')),
            Arc::new(FnHypothesis::char_class("is_b", |c| c == 'b')),
        ],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records()).unwrap()));
    (catalog, counters)
}

const Q_ALL: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                     FROM models M, units U, hypotheses H, inputs D";
const Q_LAYER0: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr \
                        OVER D.seq AS S FROM models M, units U, hypotheses H, inputs D \
                        WHERE U.layer = 0";

/// A tiny epsilon keeps the streaming pass from converging early, so a
/// cold read-write pass streams every record and materializes complete
/// columns.
fn config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 16,
        epsilon: Some(1e-12),
        ..InspectionConfig::default()
    }
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("core-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &PathBuf, policy: MaterializationPolicy) -> StoreConfig {
    StoreConfig {
        policy,
        block_records: 8,
        ..StoreConfig::at(dir)
    }
}

fn session_with_store(
    salt: usize,
    device: Device,
    dir: &PathBuf,
    policy: MaterializationPolicy,
) -> (Session, Counters) {
    let (catalog, counters) = test_catalog(salt);
    let session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device),
            store: Some(store_config(dir, policy)),
            ..SessionConfig::default()
        },
    );
    (session, counters)
}

/// Reference tables from pure live execution (no store anywhere).
fn live_tables(salt: usize, device: Device, queries: &[&str]) -> Vec<deepbase_relational::Table> {
    let (catalog, _) = test_catalog(salt);
    bare(&catalog, &config(device))
        .run_batch(queries)
        .unwrap()
        .tables
}

// ---------------------------------------------------------------------
// Warm store: zero forward passes, bit-identical, both devices
// ---------------------------------------------------------------------

#[test]
fn warm_store_in_fresh_session_does_zero_forward_passes_and_is_bit_identical() {
    for device in [Device::SingleCore, Device::Parallel(3)] {
        let dir = store_dir(&format!("warm-{:?}", device).replace(['(', ')'], "-"));
        let reference = live_tables(1, device, &[Q_ALL]);

        // Cold pass: extracts live, materializes every union column.
        let (mut cold, cold_counters) =
            session_with_store(1, device, &dir, MaterializationPolicy::ReadWrite);
        let out = cold.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(out.tables, reference, "cold run matches live ({device:?})");
        assert!(cold_counters.calls() > 0, "cold run extracts");
        assert_eq!(out.report.store.columns_written, UNITS);
        assert_eq!(out.report.store.forward_passes_avoided, 0);
        assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store);
        drop(cold);

        // Warm pass, fresh process semantics: new Session, new Catalog
        // (same contents, so same fingerprints), store reopened from disk.
        let (mut warm, warm_counters) =
            session_with_store(1, device, &dir, MaterializationPolicy::ReadWrite);
        let out = warm.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(
            out.tables, reference,
            "warm store scan is bit-identical to live extraction ({device:?})"
        );
        assert_eq!(
            warm_counters.calls(),
            0,
            "warm run must perform zero extractor forward passes ({device:?})"
        );
        let stats = &out.report.store;
        assert_eq!(stats.columns_written, 0, "nothing left to materialize");
        assert!(stats.forward_passes_avoided > 0);
        assert!(stats.columns_scanned > 0);
        assert!(stats.blocks_read > 0);
        assert!(stats.errors.is_empty(), "{stats:?}");
        // Session-cumulative stats match the single batch.
        assert_eq!(
            warm.store_stats().forward_passes_avoided,
            stats.forward_passes_avoided
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}

// ---------------------------------------------------------------------
// Partial hits: only the missing units are extracted
// ---------------------------------------------------------------------

#[test]
fn partial_hits_extract_only_the_missing_units() {
    let dir = store_dir("partial");
    // Cold pass over layer 0 only: persists columns 0, 2, 4.
    let (mut cold, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let out = cold.run_batch(&[Q_LAYER0]).unwrap();
    assert_eq!(out.report.store.columns_written, 3);
    drop(cold);

    // Fresh session asks for every unit: the stored half is scanned, the
    // extractor sees exactly the missing units, and the merged stream is
    // bit-identical to pure live extraction.
    let reference = live_tables(1, Device::SingleCore, &[Q_ALL]);
    let (mut warm, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let explain = warm.explain(Q_ALL).unwrap();
    assert!(
        explain
            .contains("source: store scan (3/6 unit columns stored, 3 extracted live; read-write)"),
        "got:\n{explain}"
    );
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert!(counters.calls() > 0, "missing units are extracted");
    assert_eq!(
        counters.units_extracted(),
        vec![1, 3, 5],
        "only the units absent from the store reach the extractor"
    );
    // The missing half was materialized by write-back...
    assert_eq!(out.report.store.columns_written, 3);
    drop(warm);

    // ...so a third fresh session is a full hit: zero forward passes.
    let (mut full, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let explain = full.explain(Q_ALL).unwrap();
    assert!(
        explain
            .contains("source: store scan (6/6 unit columns stored, 0 extracted live; read-write)"),
        "got:\n{explain}"
    );
    let out = full.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(counters.calls(), 0);
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Corruption: checksum detection, live fallback, quarantine, self-heal
// ---------------------------------------------------------------------

#[test]
fn corrupted_column_falls_back_to_live_extraction_and_self_heals() {
    let dir = store_dir("corrupt");
    let reference = live_tables(1, Device::SingleCore, &[Q_ALL]);
    let (mut cold, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);

    // Flip a byte in u2's data region and truncate u4 mid-file.
    let pair_dir = std::fs::read_dir(&dir)
        .unwrap()
        .next()
        .unwrap()
        .unwrap()
        .path();
    let u2 = pair_dir.join("u2.col");
    let mut bytes = std::fs::read(&u2).unwrap();
    let n = bytes.len();
    bytes[n - 2] ^= 0xff;
    std::fs::write(&u2, &bytes).unwrap();
    let u4 = pair_dir.join("u4.col");
    let bytes = std::fs::read(&u4).unwrap();
    std::fs::write(&u4, &bytes[..bytes.len() / 2]).unwrap();

    // Fresh session: both damaged columns are detected, demoted to live
    // extraction, quarantined — and the tables are still bit-identical.
    let (mut warm, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(
        out.tables, reference,
        "corruption never changes results, only the source"
    );
    assert!(counters.calls() > 0, "damaged columns re-extract live");
    let stats = &out.report.store;
    assert!(
        !stats.errors.is_empty(),
        "corruption must be surfaced in StoreStats"
    );
    assert!(
        stats.errors.iter().any(|e| e.contains("unit 2")),
        "got {:?}",
        stats.errors
    );
    assert!(!u2.exists(), "corrupt file quarantined");
    let quarantined: Vec<String> = std::fs::read_dir(&pair_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().to_str().map(str::to_string))
        .filter(|n| n.contains(".corrupt"))
        .collect();
    assert!(
        quarantined.iter().any(|n| n.starts_with("u2.col.corrupt")),
        "unique quarantine sample kept, got {quarantined:?}"
    );
    drop(warm);

    // The quarantined columns re-materialize on the next read-write pass
    // (they are plan-time misses now), healing the store.
    let (mut heal, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let out = heal.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(out.report.store.columns_written, 2, "u2 and u4 rewritten");
    drop(heal);
    let (mut full, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    assert_eq!(full.run_batch(&[Q_ALL]).unwrap().tables, reference);
    assert_eq!(counters.calls(), 0, "healed store is a full hit again");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn missing_column_file_is_a_transient_error_not_a_quarantine() {
    let dir = store_dir("io-fallback");
    let reference = live_tables(1, Device::SingleCore, &[Q_ALL]);
    let (mut cold, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    cold.run_batch(&[Q_ALL]).unwrap();
    drop(cold);

    // Delete u3's file *after* the fresh session opens (its index still
    // lists the column): the scan fails with an I/O error, which must
    // demote to live extraction for the pass but never quarantine — a
    // transient failure is not proof of corruption.
    let (mut warm, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let pair_dir = std::fs::read_dir(&dir)
        .unwrap()
        .find(|e| e.as_ref().unwrap().file_type().unwrap().is_dir())
        .unwrap()
        .unwrap()
        .path();
    let u3 = pair_dir.join("u3.col");
    std::fs::remove_file(&u3).unwrap();
    let out = warm.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert!(counters.calls() > 0, "missing column re-extracts live");
    assert!(out.report.store.errors.iter().any(|e| e.contains("unit 3")));
    let quarantined = std::fs::read_dir(&pair_dir)
        .unwrap()
        .filter_map(|e| e.unwrap().file_name().to_str().map(str::to_string))
        .filter(|n| n.contains(".corrupt"))
        .count();
    assert_eq!(quarantined, 0, "an I/O failure must not quarantine");
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Fingerprint-based invalidation
// ---------------------------------------------------------------------

#[test]
fn changed_model_contents_miss_the_store_instead_of_reading_stale_columns() {
    let dir = store_dir("model-fp");
    let (mut a, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    a.run_batch(&[Q_ALL]).unwrap();
    drop(a);

    // Same mid, same epoch, different weights: the fingerprint differs,
    // so the store misses and the new model's true behaviors are used.
    let reference_b = live_tables(2, Device::SingleCore, &[Q_ALL]);
    let (mut b, counters) = session_with_store(
        2,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    let explain = b.explain(Q_ALL).unwrap();
    assert!(
        explain.contains("0/6 unit columns stored"),
        "changed model must probe as a full miss, got:\n{explain}"
    );
    let out = b.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference_b, "no stale columns are read");
    assert!(counters.calls() > 0);
    assert_eq!(
        out.report.store.columns_written, UNITS,
        "new key materialized"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn catalog_mutation_changes_dataset_fingerprint_and_misses_the_store() {
    let dir = store_dir("dataset-fp");
    let (mut session, counters) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    session.run_batch(&[Q_ALL]).unwrap();
    let cold_calls = counters.calls();
    assert!(cold_calls > 0);

    // Mutate the catalog: re-register "seq" with different records. The
    // re-bound plan fingerprints the new dataset, so the store misses —
    // fingerprint-based invalidation needs no explicit flush.
    let mut new_records = records();
    for r in &mut new_records {
        r.symbols.rotate_left(1);
    }
    session.catalog_mut().add_dataset(
        "seq",
        Arc::new(Dataset::new("seq", NS, new_records).unwrap()),
    );
    let out = session.run_batch(&[Q_ALL]).unwrap();
    assert!(
        counters.calls() > cold_calls,
        "new dataset contents must re-extract"
    );
    assert_eq!(out.report.store.forward_passes_avoided, 0);
    assert_eq!(
        out.report.store.columns_written, UNITS,
        "new dataset key materialized alongside the old one"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

// ---------------------------------------------------------------------
// Policies and opt-outs
// ---------------------------------------------------------------------

#[test]
fn read_only_policy_scans_but_never_writes() {
    let dir = store_dir("read-only");
    let (mut cold, _) = session_with_store(
        1,
        Device::SingleCore,
        &dir,
        MaterializationPolicy::ReadWrite,
    );
    cold.run_batch(&[Q_LAYER0]).unwrap();
    drop(cold);

    let reference = live_tables(1, Device::SingleCore, &[Q_ALL]);
    let (mut ro, counters) =
        session_with_store(1, Device::SingleCore, &dir, MaterializationPolicy::ReadOnly);
    let explain = ro.explain(Q_ALL).unwrap();
    assert!(
        explain.contains("3/6 unit columns stored, 3 extracted live; read-only"),
        "got:\n{explain}"
    );
    let out = ro.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference);
    assert_eq!(counters.units_extracted(), vec![1, 3, 5]);
    assert_eq!(
        out.report.store.columns_written, 0,
        "read-only never writes"
    );
    drop(ro);
    // The store still holds only the original three columns.
    let store = BehaviorStore::open(&store_config(&dir, MaterializationPolicy::ReadOnly)).unwrap();
    assert_eq!(store.columns(), 3);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unfingerprinted_models_opt_out_of_persistence() {
    /// An extractor that cannot hash its model: must never touch the store.
    struct Opaque {
        inner: PrecomputedExtractor,
    }
    impl Extractor for Opaque {
        fn n_units(&self) -> usize {
            self.inner.n_units()
        }
        fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
            self.inner.extract(records, unit_ids)
        }
        // Default fingerprint(): None.
    }

    let dir = store_dir("opaque");
    let mut catalog = Catalog::new();
    catalog.add_model(
        "opaque",
        0,
        Arc::new(Opaque {
            inner: PrecomputedExtractor::new(behaviors(1), NS),
        }),
    );
    catalog.add_hypotheses(
        "chars",
        vec![Arc::new(FnHypothesis::char_class("is_a", |c| c == 'a'))],
    );
    catalog.add_dataset("seq", Arc::new(Dataset::new("seq", NS, records()).unwrap()));
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(Device::SingleCore),
            store: Some(store_config(&dir, MaterializationPolicy::ReadWrite)),
            ..SessionConfig::default()
        },
    );
    let explain = session.explain(Q_ALL).unwrap();
    assert!(
        explain.contains("source: live extract (model has no content fingerprint)"),
        "got:\n{explain}"
    );
    let out = session.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.report.store.columns_written, 0);
    assert_eq!(out.report.store.columns_scanned, 0);
    drop(session);
    let store = BehaviorStore::open(&store_config(&dir, MaterializationPolicy::ReadWrite)).unwrap();
    assert_eq!(store.columns(), 0, "nothing was persisted");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn unopenable_store_disables_persistence_but_never_fails_the_session() {
    // Point the store at a *file* so opening the directory fails.
    let dir = store_dir("unopenable");
    std::fs::create_dir_all(dir.parent().unwrap()).unwrap();
    std::fs::write(&dir, b"not a directory").unwrap();
    let (catalog, counters) = test_catalog(1);
    let mut session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(Device::SingleCore),
            store: Some(store_config(&dir, MaterializationPolicy::ReadWrite)),
            ..SessionConfig::default()
        },
    );
    assert!(session.store().is_none());
    assert!(
        session
            .store_stats()
            .errors
            .iter()
            .any(|e| e.contains("persistence disabled")),
        "open failure surfaced: {:?}",
        session.store_stats().errors
    );
    let reference = live_tables(1, Device::SingleCore, &[Q_ALL]);
    let out = session.run_batch(&[Q_ALL]).unwrap();
    assert_eq!(out.tables, reference, "inspection proceeds live");
    assert!(counters.calls() > 0);
    let _ = std::fs::remove_file(&dir);
}
