//! End-to-end fault injection and partial-column differential testing
//! (ISSUE 5): the store-level generator from
//! `crates/store/tests/fault_injection.rs` is driven through a full
//! `Session` — an arbitrary single-bit flip anywhere in a populated
//! store must never change a score (detected corruption falls back to
//! live extraction; scores stay bit-identical to a store-less session) —
//! and partial columns are checked differentially: for random early-stop
//! watermarks, `scan(partial prefix) + extract(tail)` equals
//! `extract(full)` bit-for-bit on SingleCore and Parallel, including the
//! degenerate watermark-at-zero and watermark-at-end cases.

mod common;

use common::bare;
use deepbase::prelude::*;
use deepbase::query::UnitMeta;
use deepbase_stats::split::shuffled_indices;
use deepbase_tensor::Matrix;
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

const NS: usize = 4;
const UNITS: usize = 4;

/// Extractor wrapper counting forward passes, forwarding the inner
/// extractor's content fingerprint.
struct CountingExtractor {
    inner: PrecomputedExtractor,
    calls: Arc<AtomicUsize>,
}

impl Extractor for CountingExtractor {
    fn n_units(&self) -> usize {
        self.inner.n_units()
    }

    fn extract(&self, records: &[&Record], unit_ids: &[usize]) -> Matrix {
        self.calls.fetch_add(1, Ordering::SeqCst);
        self.inner.extract(records, unit_ids)
    }

    fn fingerprint(&self) -> Option<u64> {
        self.inner.fingerprint()
    }
}

fn records(nd: usize) -> Vec<Record> {
    (0..nd)
        .map(|i| {
            let text: String = (0..NS)
                .map(|t| match (i * 13 + t * 5) % 4 {
                    0 => 'a',
                    1 => 'b',
                    _ => 'c',
                })
                .collect();
            Record::standalone(i, text.chars().map(|c| c as u32).collect(), text)
        })
        .collect()
}

fn behaviors(nd: usize) -> Matrix {
    let recs = records(nd);
    let mut m = Matrix::zeros(nd * NS, UNITS);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, if c == 'a' { 0.7 } else { -0.1 });
            m.set(r, 1, if c == 'b' { 0.9 } else { 0.2 });
            for u in 2..UNITS {
                m.set(r, u, ((r * (u + 3) * 17) % 89) as f32 / 89.0 - 0.5);
            }
        }
    }
    m
}

fn test_catalog(nd: usize) -> (Catalog, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        1,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(behaviors(nd), NS),
            calls: Arc::clone(&calls),
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
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::new("seq", NS, records(nd)).unwrap()),
    );
    (catalog, calls)
}

const Q_ALL: &str = "SELECT S.uid, S.unit_score INSPECT U.uid AND H.h USING corr OVER D.seq AS S \
                     FROM models M, units U, hypotheses H, inputs D";

/// Full-stream config (epsilon so small no pair converges early).
fn config(device: Device) -> InspectionConfig {
    InspectionConfig {
        device,
        block_records: 8,
        epsilon: Some(1e-12),
        ..InspectionConfig::default()
    }
}

fn store_dir(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("fault-core-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn store_config(dir: &Path) -> StoreConfig {
    StoreConfig {
        block_records: 4,
        ..StoreConfig::at(dir)
    }
}

fn session_with_store(nd: usize, device: Device, dir: &Path) -> (Session, Arc<AtomicUsize>) {
    let (catalog, calls) = test_catalog(nd);
    let session = Session::with_config(
        catalog,
        SessionConfig {
            inspection: config(device),
            store: Some(store_config(dir)),
            ..SessionConfig::default()
        },
    );
    (session, calls)
}

// ---------------------------------------------------------------------
// Session-level fault injection
// ---------------------------------------------------------------------

struct FaultWorld {
    dir: PathBuf,
    /// Pristine store files captured after the populating cold run:
    /// relative path, bytes, and the byte ranges the format deliberately
    /// leaves unvalidated (the v3 access stamp; payloads of prunable
    /// blocks). Flips inside those ranges are provably harmless and may
    /// legitimately go undetected.
    pristine: Vec<(PathBuf, Vec<u8>, Vec<std::ops::Range<u64>>)>,
    reference: Vec<deepbase_relational::Table>,
}

fn fault_world() -> &'static FaultWorld {
    static WORLD: OnceLock<FaultWorld> = OnceLock::new();
    WORLD.get_or_init(|| {
        let nd = 24;
        let dir = store_dir("world");
        let (catalog, _) = test_catalog(nd);
        let reference = bare(&catalog, &config(Device::SingleCore))
            .run_batch(&[Q_ALL])
            .unwrap()
            .tables;
        let (mut cold, _) = session_with_store(nd, Device::SingleCore, &dir);
        let out = cold.run_batch(&[Q_ALL]).unwrap();
        assert_eq!(out.tables, reference);
        assert_eq!(out.report.store.columns_written, UNITS);
        drop(cold);
        let mut pristine = Vec::new();
        for entry in std::fs::read_dir(&dir).unwrap().flatten() {
            if !entry.file_type().unwrap().is_dir() {
                continue;
            }
            for col in std::fs::read_dir(entry.path()).unwrap().flatten() {
                let rel = col.path().strip_prefix(&dir).unwrap().to_path_buf();
                let mut f = std::fs::File::open(col.path()).unwrap();
                let unchecked = deepbase_store::format::read_meta(&mut f)
                    .unwrap()
                    .unvalidated_ranges();
                pristine.push((rel, std::fs::read(col.path()).unwrap(), unchecked));
            }
        }
        assert_eq!(pristine.len(), UNITS, "one column file per unit");
        FaultWorld {
            dir,
            pristine,
            reference,
        }
    })
}

fn restore_pristine(world: &FaultWorld) {
    let _ = std::fs::remove_dir_all(&world.dir);
    for (rel, bytes, _) in &world.pristine {
        let path = world.dir.join(rel);
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, bytes).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]
    #[test]
    fn session_scores_survive_any_single_bit_flip_bit_identically(
        file_sel in 0usize..1000,
        flip_sel in 0usize..1_000_000,
    ) {
        let world = fault_world();
        restore_pristine(world);
        let (rel, bytes, unchecked) = &world.pristine[file_sel % world.pristine.len()];
        let bit = flip_sel % (bytes.len() * 8);
        let mut corrupted = bytes.clone();
        corrupted[bit / 8] ^= 1 << (bit % 8);
        std::fs::write(world.dir.join(rel), &corrupted).unwrap();

        let (mut session, _) = session_with_store(24, Device::SingleCore, &world.dir);
        let out = session.run_batch(&[Q_ALL]).unwrap();
        prop_assert_eq!(
            &out.tables,
            &world.reference,
            "flip of bit {} in {:?} changed a score silently",
            bit,
            rel
        );
        // Every byte of the format is checksummed except the ranges it
        // deliberately leaves unvalidated (the v3 access stamp, which
        // only orders disk-budget eviction, and payloads of prunable
        // blocks a pruned scan never opens), so a flip anywhere else in
        // a file this query scans end-to-end must be *detected*, not
        // ignored. Flips inside the unvalidated ranges are already
        // proven harmless by the score comparison above.
        let in_unchecked = unchecked.iter().any(|r| r.contains(&((bit / 8) as u64)));
        prop_assert!(
            out.report.store.error_count > 0 || in_unchecked,
            "flip of bit {} in {:?} went undetected",
            bit,
            rel
        );
    }
}

// ---------------------------------------------------------------------
// Differential property: pruned v3 == pushdown-off v3 == live
// ---------------------------------------------------------------------

/// Behaviors with a unit mix that exercises every v3 codec and the NaN
/// guard at once: unit 0 is constant (every block prunable), unit 1
/// saturates to a two-level alphabet (Dict payloads, Constant on uniform
/// blocks), unit 2 sprinkles NaN into otherwise low-cardinality data
/// (its blocks must never prune), unit 3 is full-cardinality Raw data.
fn mixed_behaviors(nd: usize, salt: u64) -> Matrix {
    let recs = records(nd);
    let mut m = Matrix::zeros(nd * NS, UNITS);
    for (ri, rec) in recs.iter().enumerate() {
        for (t, c) in rec.text.chars().enumerate() {
            let r = ri * NS + t;
            m.set(r, 0, 0.25);
            m.set(r, 1, if c == 'a' { 1.0 } else { -1.0 });
            m.set(
                r,
                2,
                if r.is_multiple_of(7) {
                    f32::NAN
                } else {
                    (r % 3) as f32 - 1.0
                },
            );
            let x = (r as u64)
                .wrapping_mul(2654435761)
                .wrapping_add(salt.wrapping_mul(97));
            m.set(r, 3, (x % 1009) as f32 / 1009.0 - 0.5);
        }
    }
    m
}

fn mixed_catalog(nd: usize, salt: u64) -> (Catalog, Arc<AtomicUsize>) {
    let calls = Arc::new(AtomicUsize::new(0));
    let mut catalog = Catalog::new();
    catalog.add_model_with_units(
        "m1",
        1,
        Arc::new(CountingExtractor {
            inner: PrecomputedExtractor::new(mixed_behaviors(nd, salt), NS),
            calls: Arc::clone(&calls),
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
    catalog.add_dataset(
        "seq",
        Arc::new(Dataset::new("seq", NS, records(nd)).unwrap()),
    );
    (catalog, calls)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]
    #[test]
    fn pruned_v3_scans_match_pushdown_off_scans_and_live_extraction(
        nd in 9usize..28,
        salt in 0u64..1_000_000,
    ) {
        for device in [Device::SingleCore, Device::Parallel(3)] {
            // Reference: pure live extraction, no store.
            let (catalog, _) = mixed_catalog(nd, salt);
            let reference = bare(&catalog, &config(device)).run_batch(&[Q_ALL]).unwrap().tables;

            // v3 path: cold populate, then a warm scan with pushdown on
            // (the default) and one with pushdown forced off.
            let tag = format!("v3-{nd}-{salt}-{device:?}").replace(['(', ')'], "-");
            let v3_dir = store_dir(&tag);
            let (catalog, _) = mixed_catalog(nd, salt);
            let mut cold = Session::with_config(
                catalog,
                SessionConfig {
                    inspection: config(device),
                    store: Some(store_config(&v3_dir)),
                    ..SessionConfig::default()
                },
            );
            prop_assert_eq!(&cold.run_batch(&[Q_ALL]).unwrap().tables, &reference);
            drop(cold);

            let (mut pruned, pruned_calls) = {
                let (catalog, calls) = mixed_catalog(nd, salt);
                (
                    Session::with_config(
                        catalog,
                        SessionConfig {
                            inspection: config(device),
                            store: Some(store_config(&v3_dir)),
                            ..SessionConfig::default()
                        },
                    ),
                    calls,
                )
            };
            let explain = pruned.explain(Q_ALL).unwrap();
            prop_assert!(
                explain.contains("pruned:"),
                "explain must render the zone-map pushdown estimate, got:\n{}",
                explain
            );
            let out = pruned.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(
                &out.tables,
                &reference,
                "pruned v3 scan diverged from live extraction on {:?}",
                device
            );
            prop_assert_eq!(pruned_calls.load(Ordering::SeqCst), 0, "warm hit must not extract");
            prop_assert!(
                out.report.store.blocks_pruned > 0,
                "the constant unit guarantees prunable blocks, got 0"
            );
            prop_assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store.errors);
            drop(pruned);

            let (catalog, unpruned_calls) = mixed_catalog(nd, salt);
            let mut unpruned = Session::with_config(
                catalog,
                SessionConfig {
                    inspection: InspectionConfig {
                        pushdown: false,
                        ..config(device)
                    },
                    store: Some(store_config(&v3_dir)),
                    ..SessionConfig::default()
                },
            );
            let out = unpruned.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(
                &out.tables,
                &reference,
                "pushdown-off v3 scan diverged from live extraction on {:?}",
                device
            );
            prop_assert_eq!(unpruned_calls.load(Ordering::SeqCst), 0, "warm hit must not extract");
            prop_assert_eq!(out.report.store.blocks_pruned, 0);
            drop(unpruned);
            let _ = std::fs::remove_dir_all(&v3_dir);
        }
    }
}

// ---------------------------------------------------------------------
// Differential property: partial scan + tail extraction == full extraction
// ---------------------------------------------------------------------

/// Writes partial columns holding the true behaviors of the first `k`
/// records in stream order (the engine's shuffled order for seed 0), as
/// an early-stopped pass would have persisted them.
fn seed_partial_columns(dir: &Path, nd: usize, k: usize) {
    let m = behaviors(nd);
    let extractor = PrecomputedExtractor::new(behaviors(nd), NS);
    let model_fp = extractor.fingerprint().unwrap();
    let dataset_fp = Dataset::new("seq", NS, records(nd))
        .unwrap()
        .content_fingerprint();
    let order = shuffled_indices(nd, 0);
    let mut filled = vec![false; nd];
    for &pos in order.iter().take(k) {
        filled[pos] = true;
    }
    let store = BehaviorStore::open(&store_config(dir)).unwrap();
    for unit in 0..UNITS {
        let mut col = vec![0.0f32; nd * NS];
        for (pos, &f) in filled.iter().enumerate() {
            if f {
                for t in 0..NS {
                    col[pos * NS + t] = m.get(pos * NS + t, unit);
                }
            }
        }
        store
            .write_partial_column(
                &ColumnKey {
                    model_fp,
                    dataset_fp,
                    unit,
                },
                nd,
                NS,
                &col,
                &filled,
            )
            .unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]
    #[test]
    fn budget_interrupted_partials_plus_tail_extraction_equals_full_extraction(
        nd in 9usize..28,
        j_sel in 0usize..1000,
    ) {
        // A block-capped run is the deterministic stand-in for a
        // deadline-interrupted one: both break the streaming loop at the
        // same block boundary and persist the streamed prefix through
        // the same write-back path. `scan(budget-partial) +
        // extract(tail)` must equal `extract(full)` bit-for-bit.
        let nb = 8usize; // engine block_records in `config`
        let total_blocks = nd.div_ceil(nb);
        let j = 1 + j_sel % (total_blocks - 1).max(1);
        prop_assume!(j < total_blocks);

        for device in [Device::SingleCore, Device::Parallel(3)] {
            let (catalog, live_calls) = test_catalog(nd);
            let reference = bare(&catalog, &config(device)).run_batch(&[Q_ALL]).unwrap().tables;
            let live = live_calls.load(Ordering::SeqCst);

            let dir = store_dir(&format!("budget-{nd}-{j}-{:?}", device).replace(['(', ')'], "-"));
            let (catalog, cold_calls) = test_catalog(nd);
            let mut cold = Session::with_config(
                catalog,
                SessionConfig {
                    inspection: InspectionConfig {
                        budget: RunBudget {
                            max_blocks: Some(j),
                            ..Default::default()
                        },
                        ..config(device)
                    },
                    store: Some(store_config(&dir)),
                    ..SessionConfig::default()
                },
            );
            let out = cold.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(
                out.report.completion.status,
                CompletionStatus::BudgetExhausted
            );
            prop_assert_eq!(out.report.completion.rows_read, j * nb);
            if device == Device::SingleCore {
                // One forward pass per streamed block (Parallel splits
                // each block's extraction across workers).
                prop_assert_eq!(cold_calls.load(Ordering::SeqCst), j);
            }
            prop_assert_eq!(out.report.store.partial_columns_written, UNITS);
            prop_assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store.errors);
            drop(cold);

            // Warm uncapped run: scans the budget-written prefix, extracts
            // only the tail, and lands bit-identical to full extraction.
            let (mut warm, warm_calls) = session_with_store(nd, device, &dir);
            let again = warm.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(
                &again.tables,
                &reference,
                "scan(budget-partial, j={}) + extract(tail) diverged on {:?}",
                j,
                device
            );
            let warm_n = warm_calls.load(Ordering::SeqCst);
            prop_assert!(warm_n < live, "resume must be cheaper ({warm_n} vs {live})");
            if device == Device::SingleCore {
                prop_assert_eq!(warm_n, total_blocks - j);
            }
            prop_assert!(again.report.store.errors.is_empty());
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(20))]
    #[test]
    fn partial_scan_plus_tail_extraction_equals_full_extraction(
        nd in 9usize..28,
        k_sel in 0usize..1000,
    ) {
        // Watermark: degenerate 0 and nd often, the rest uniform.
        let k = match k_sel % 4 {
            0 => 0,
            1 => nd,
            _ => k_sel / 4 % (nd + 1),
        };
        // Stream blocks of 8 records; a block is servable from a partial
        // column iff it ends at or under the watermark (coverage is the
        // stream-order prefix).
        let nb = 8usize;
        let total_blocks = nd.div_ceil(nb);
        let covered_blocks = (0..total_blocks)
            .filter(|i| ((i + 1) * nb).min(nd) <= k)
            .count();

        for device in [Device::SingleCore, Device::Parallel(3)] {
            // Reference: pure live extraction (no store).
            let (catalog, live_calls) = test_catalog(nd);
            let reference = bare(&catalog, &config(device)).run_batch(&[Q_ALL]).unwrap().tables;
            let live = live_calls.load(Ordering::SeqCst);

            let dir = store_dir(&format!("diff-{nd}-{k}-{:?}", device).replace(['(', ')'], "-"));
            seed_partial_columns(&dir, nd, k);
            let (mut warm, warm_calls) = session_with_store(nd, device, &dir);
            let out = warm.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(
                &out.tables,
                &reference,
                "scan(partial, k={}) + extract(tail) diverged from extract(full) on {:?}",
                k,
                device
            );
            let warm_n = warm_calls.load(Ordering::SeqCst);
            if k == nd {
                prop_assert_eq!(warm_n, 0, "watermark-at-end is a full hit");
            } else if covered_blocks > 0 {
                prop_assert!(
                    warm_n < live,
                    "resume must do strictly fewer forward passes ({} vs {})",
                    warm_n,
                    live
                );
            } else {
                prop_assert_eq!(warm_n, live, "no covered block, no savings");
            }
            if device == Device::SingleCore {
                // One narrowed call per un-covered block, none past the
                // watermark's covered prefix.
                prop_assert_eq!(warm_n, total_blocks - covered_blocks);
            }
            prop_assert!(out.report.store.errors.is_empty(), "{:?}", out.report.store.errors);
            // The full stream completed every captured column, so a
            // fresh session is a pure store hit: zero forward passes.
            if k < nd {
                prop_assert_eq!(out.report.store.columns_written, UNITS);
            }
            drop(warm);
            let (mut verify, verify_calls) = session_with_store(nd, device, &dir);
            let again = verify.run_batch(&[Q_ALL]).unwrap();
            prop_assert_eq!(&again.tables, &reference);
            prop_assert_eq!(verify_calls.load(Ordering::SeqCst), 0);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
