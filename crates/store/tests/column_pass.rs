//! `ColumnPass` driven directly, with a closure standing in for the
//! extractor: the scan / demote / quarantine behaviour that otherwise
//! needs a full `Session` and catalog to reach.

use deepbase_store::{BehaviorStore, ColumnKey, ColumnPass, StoreConfig, StoreStats};
use std::path::PathBuf;
use std::sync::Arc;

const MODEL_FP: u64 = 0xA1;
const DATASET_FP: u64 = 0xD5;
const UNITS: [usize; 3] = [0, 1, 2];
const ND: usize = 12;
const NS: usize = 2;
/// Records per streamed block and per stored block.
const BLOCK: usize = 4;

fn config(name: &str) -> StoreConfig {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target/tmp-store-tests")
        .join(format!("pass-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    StoreConfig {
        block_records: BLOCK,
        ..StoreConfig::at(dir)
    }
}

/// Full-cardinality values, so every block is stored `Raw` and read.
fn value(unit: usize, pos: usize, t: usize) -> f32 {
    ((pos * NS + t) * 7 + unit * 1000) as f32 * 0.25
}

/// Writes every unit's complete column through a store that is then
/// dropped, so the pages the writer pushed through the pool are gone and
/// a later store over `config` scans from disk.
fn populate(config: &StoreConfig) {
    let store = BehaviorStore::open(config).unwrap();
    for unit in UNITS {
        let col: Vec<f32> = (0..ND * NS).map(|i| value(unit, i / NS, i % NS)).collect();
        let key = ColumnKey {
            model_fp: MODEL_FP,
            dataset_fp: DATASET_FP,
            unit,
        };
        store.write_column(&key, ND, NS, &col).unwrap();
    }
}

/// The true row-major behaviors of `units` over the records at `positions`.
fn block(units: &[usize], positions: &[usize]) -> Vec<u32> {
    let rows = positions
        .iter()
        .flat_map(|&pos| (0..NS).map(move |t| (pos, t)));
    rows.flat_map(|(pos, t)| units.iter().map(move |&u| value(u, pos, t).to_bits()))
        .collect()
}

/// Streams the segment in position order, one `BLOCK` at a time, serving
/// live requests with the true values and logging which units each block
/// asked for. Returns the log and the pass's stats; panics if any served
/// block differs from the true behaviors.
fn run_pass(store: &Arc<BehaviorStore>, write: bool) -> (Vec<Vec<usize>>, StoreStats) {
    let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, write, usize::MAX);
    assert_eq!(plan.hits, UNITS, "every column is a plan-time hit");
    let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);
    let mut asked: Vec<Vec<usize>> = Vec::new();
    for start in (0..ND).step_by(BLOCK) {
        let positions: Vec<usize> = (start..start + BLOCK).collect();
        let mut out = vec![0.0f32; BLOCK * NS * UNITS.len()];
        pass.fetch_block(&positions, &mut out, |units| {
            asked.push(units.to_vec());
            let live = block(units, &positions);
            live.into_iter().map(f32::from_bits).collect()
        });
        let served: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served, block(&UNITS, &positions), "block at {start}");
    }
    (asked, pass.finish())
}

/// A complete hit never calls the closure; a bit-flipped column demotes
/// mid-pass, the closure is asked for exactly that unit, and the file is
/// quarantined only when the plan may write.
#[test]
fn hits_scan_and_a_flipped_column_demotes_mid_pass_quarantined_only_under_write() {
    for (flip, write) in [(false, false), (true, false), (true, true)] {
        let config = config(&format!("flip{flip}-write{write}"));
        populate(&config);
        let file = config
            .path
            .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"))
            .join("u1.col");
        if flip {
            // One bit in the last byte of unit 1's file: the payload of its
            // last stored block, which the third streamed block reads.
            let mut bytes = std::fs::read(&file).unwrap();
            *bytes.last_mut().unwrap() ^= 0x10;
            std::fs::write(&file, &bytes).unwrap();
        }
        let store = BehaviorStore::open(&config).unwrap();
        let (asked, stats) = run_pass(&store, write);
        // Two clean blocks, then (if flipped) exactly the corrupt unit
        // goes live, for the block that found it.
        let expect_asked: Vec<Vec<usize>> = if flip { vec![vec![1]] } else { vec![] };
        assert_eq!(asked, expect_asked, "flip={flip} write={write}");
        assert_eq!(stats.forward_passes_avoided, if flip { 2 } else { 3 });
        assert_eq!(stats.columns_scanned, UNITS.len());
        assert_eq!(stats.error_count, usize::from(flip), "{:?}", stats.errors);
        assert_eq!(stats.columns_written, 0, "a demoted hit is not captured");
        // Quarantine renames the file aside; without `write` the pass
        // leaves it where it is even though the store itself is writable.
        assert_eq!(file.exists(), !(flip && write), "flip={flip} write={write}");
        let _ = std::fs::remove_dir_all(&config.path);
    }
}

mod group_write_back {
    use super::*;
    use deepbase_store::format;
    use std::fs::File;

    /// Wider than one sync run, so the group's syncs go 4 wide.
    const WIDE: [usize; 9] = [0, 1, 2, 3, 4, 5, 6, 7, 8];

    fn key(unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: MODEL_FP,
            dataset_fp: DATASET_FP,
            unit,
        }
    }

    fn column_file(config: &StoreConfig, unit: usize) -> PathBuf {
        config
            .path
            .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"))
            .join(format!("u{unit}.col"))
    }

    /// Streams the first `blocks` blocks of `WIDE` with every column live
    /// (a cold pass that writes back) and finishes it.
    fn write_back_pass(store: &Arc<BehaviorStore>, blocks: usize) -> StoreStats {
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &WIDE, true, usize::MAX);
        let mut pass = ColumnPass::new(&plan, &WIDE, ND, NS);
        for start in (0..ND).step_by(BLOCK).take(blocks) {
            let positions: Vec<usize> = (start..start + BLOCK).collect();
            let mut out = vec![0.0f32; BLOCK * NS * WIDE.len()];
            pass.fetch_block(&positions, &mut out, |units| {
                block(units, &positions)
                    .into_iter()
                    .map(f32::from_bits)
                    .collect()
            });
        }
        pass.finish()
    }

    /// Every position of `unit`'s stored column, as bits.
    fn scan(store: &BehaviorStore, unit: usize, stats: &mut StoreStats) -> Vec<u32> {
        let positions: Vec<usize> = (0..ND).collect();
        let mut out = vec![0.0f32; ND * NS];
        store
            .scan_into(&key(unit), ND, NS, &positions, &mut out, 1, 0, true, stats)
            .unwrap();
        out.iter().map(|v| v.to_bits()).collect()
    }

    /// A pass's write-back is one group publish. With one unit's column
    /// path blocked by a directory, that unit alone records a write-back
    /// error; every other column is indexed, complete, scans bit for bit
    /// like a store written one column at a time and is served from the
    /// pool the write filled.
    #[test]
    fn a_blocked_unit_fails_alone_and_the_rest_land_in_the_pool() {
        let blocked = 4;
        let config = config("group");
        let store = BehaviorStore::open(&config).unwrap();
        let occupied = column_file(&config, blocked).join("occupied");
        std::fs::create_dir_all(&occupied).unwrap();
        let stats = write_back_pass(&store, ND / BLOCK);
        assert_eq!(stats.error_count, 1, "{:?}", stats.errors);
        let want = format!("unit {blocked} write-back failed");
        assert!(stats.errors[0].starts_with(&want), "{:?}", stats.errors);
        assert_eq!(stats.columns_written, WIDE.len() - 1);
        assert!(occupied.is_dir(), "the blocked path is untouched");

        let reference_config = super::config("group-reference");
        let reference = BehaviorStore::open(&reference_config).unwrap();
        let mut scanned = StoreStats::default();
        for unit in WIDE {
            if unit == blocked {
                assert!(!store.contains(&key(unit)));
                continue;
            }
            let col: Vec<f32> = (0..ND * NS).map(|i| value(unit, i / NS, i % NS)).collect();
            reference.write_column(&key(unit), ND, NS, &col).unwrap();
            assert!(
                store.contains(&key(unit)),
                "unit {unit} indexed and complete"
            );
            let want = scan(&reference, unit, &mut StoreStats::default());
            assert_eq!(scan(&store, unit, &mut scanned), want, "unit {unit}");
        }
        assert!(scanned.blocks_read > 0);
        assert_eq!(scanned.pool_misses, 0, "every written page is resident");
        for dir in [&config.path, &reference_config.path] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// In the same group, an early-stopped pass writes the other units'
    /// prefixes as partial columns and leaves alone the unit whose stored
    /// prefix its fill would shrink.
    #[test]
    fn an_early_stop_never_shrinks_a_larger_stored_prefix() {
        let config = config("group-early");
        let store = BehaviorStore::open(&config).unwrap();
        let larger = 8;
        let filled: Vec<bool> = (0..ND).map(|pos| pos < 2 * BLOCK).collect();
        let col: Vec<f32> = (0..ND * NS)
            .map(|i| {
                if filled[i / NS] {
                    value(larger, i / NS, i % NS)
                } else {
                    0.0
                }
            })
            .collect();
        store
            .write_partial_column(&key(larger), ND, NS, &col, &filled)
            .unwrap();
        let read = |unit| {
            let file = format::read_meta(&mut File::open(column_file(&config, unit)).unwrap());
            let file = file.unwrap();
            (file.meta.completed_records, file.covered)
        };
        let before = read(larger);

        let stats = write_back_pass(&store, 1);
        assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
        assert_eq!(stats.partial_columns_written, WIDE.len() - 1);
        assert_eq!(before.0, 2 * BLOCK as u64);
        assert_eq!(read(larger), before, "the larger prefix stays");
        for unit in WIDE.into_iter().filter(|&u| u != larger) {
            assert_eq!(
                read(unit).0,
                BLOCK as u64,
                "unit {unit} holds the streamed prefix"
            );
        }
        let _ = std::fs::remove_dir_all(&config.path);
    }
}

// ---------------------------------------------------------------------
// The column fetch against the per-page loop it replaced
// ---------------------------------------------------------------------

mod shuffled {
    use super::*;
    use deepbase_store::format::{self, ColumnFile};
    use deepbase_store::BufferPool;
    use std::fs::File;

    /// Benchmark-like geometry: 24 stored blocks per column and four
    /// streamed blocks of 48 shuffled positions, so every fetch touches
    /// most of a column's pages.
    const ND: usize = 192;
    const NS: usize = 2;
    const STORED_BLOCK: usize = 8;
    const STREAM_BLOCK: usize = 48;
    const UNITS: [usize; 8] = [0, 1, 2, 3, 4, 5, 6, 7];
    const PAGE_BYTES: usize = STORED_BLOCK * NS * 4;

    /// Unit 0 is constant (every block prunes), unit 1 saturates to ±1
    /// (dictionary blocks), unit 2 is constant on its first half only, the
    /// rest are raw.
    fn value(unit: usize, pos: usize, t: usize) -> f32 {
        let i = pos * NS + t;
        match unit {
            0 => 0.5,
            1 => [1.0, -1.0][(i * 7 / 3) % 2],
            2 if pos < ND / 2 => -2.0,
            _ => (i * 7 + unit * 1000) as f32 * 0.25,
        }
    }

    fn key(unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: MODEL_FP,
            dataset_fp: DATASET_FP,
            unit,
        }
    }

    /// The true row-major behaviors of `units` over the records at
    /// `positions`.
    fn truth(units: &[usize], positions: &[usize]) -> Vec<f32> {
        positions
            .iter()
            .flat_map(|&pos| (0..NS).map(move |t| (pos, t)))
            .flat_map(|(pos, t)| units.iter().map(move |&u| value(u, pos, t)))
            .collect()
    }

    fn config(name: &str, pool_bytes: usize) -> StoreConfig {
        StoreConfig {
            block_records: STORED_BLOCK,
            pool_bytes,
            ..super::config(name)
        }
    }

    fn populate(config: &StoreConfig) {
        let store = BehaviorStore::open(config).unwrap();
        for unit in UNITS {
            let col: Vec<f32> = (0..ND * NS).map(|i| value(unit, i / NS, i % NS)).collect();
            store.write_column(&key(unit), ND, NS, &col).unwrap();
        }
    }

    /// A seeded Fisher–Yates shuffle of the segment's positions.
    fn shuffled_positions(seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..ND).collect();
        let mut state = seed | 1;
        for i in (1..ND).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    /// The scan the column fetch replaced, rebuilt from the public pieces
    /// over a pool of its own: one pool round trip per touched page in
    /// first-touch order — look up, load and install on a miss, keep the
    /// fetch — and all of one column's fetches dropped together at the end.
    #[allow(clippy::too_many_arguments)]
    fn per_page_scan(
        pool: &BufferPool,
        file: &mut File,
        column: &ColumnFile,
        key: &ColumnKey,
        positions: &[usize],
        out: &mut [f32],
        stride: usize,
        col: usize,
        stats: &mut StoreStats,
    ) {
        let ids: Vec<[u32; 1]> = (0..column.meta.n_blocks() as u32).map(|b| [b]).collect();
        let mut pages: Vec<Option<deepbase_store::ColumnFetch<'_>>> =
            ids.iter().map(|_| None).collect();
        let mut pruned = vec![false; ids.len()];
        for (i, &pos) in positions.iter().enumerate() {
            let b = column.meta.block_of(pos);
            if let Some(v) = column.zones[b].constant_value() {
                if !pruned[b] {
                    pruned[b] = true;
                    stats.blocks_pruned += 1;
                }
                for t in 0..NS {
                    out[(i * NS + t) * stride + col] = v;
                }
                continue;
            }
            if pages[b].is_none() {
                let mut page = pool.fetch_column(key, &ids[b]);
                if page.hits == 0 {
                    page.install([(0, format::read_block(file, column, b).unwrap())]);
                    stats.pool_misses += 1;
                } else {
                    stats.pool_hits += 1;
                }
                stats.blocks_read += 1;
                stats.pool_evictions += page.evictions;
                pages[b] = Some(page);
            }
            let page = pages[b].as_ref().unwrap().page(0).unwrap();
            let local = pos - b * STORED_BLOCK;
            for t in 0..NS {
                out[(i * NS + t) * stride + col] = page[local * NS + t];
            }
        }
    }

    /// What one pass reports beside the per-page loop's accounting.
    struct Compared {
        stats: StoreStats,
        reference: StoreStats,
        /// Stored blocks the pass touched and could not prune.
        unpruned_blocks: usize,
    }

    /// One whole pass, every column of every streamed block, through
    /// `ColumnPass` and through the per-page loop: same bytes, the same
    /// pruning, and never more pages taken through the pool. The pass
    /// keeps the pages it fetched within the reservation, which reads 0
    /// once it ends.
    fn pass_matches_the_per_page_loop(name: &str, pool_bytes: usize) -> Compared {
        let config = config(name, pool_bytes);
        populate(&config);
        let store = BehaviorStore::open(&config).unwrap();
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, false, usize::MAX);
        let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);

        let reference_pool = BufferPool::new(pool_bytes);
        let mut reference_stats = StoreStats::default();
        let dir = config
            .path
            .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"));
        let mut files: Vec<(File, ColumnFile)> = UNITS
            .iter()
            .map(|unit| {
                let mut file = File::open(dir.join(format!("u{unit}.col"))).unwrap();
                let column = format::read_meta(&mut file).unwrap();
                (file, column)
            })
            .collect();

        let order = shuffled_positions(0xD1CE);
        let width = UNITS.len();
        // One buffer reused across blocks, never re-zeroed: the pass
        // overwrites every cell.
        let mut out = vec![f32::NAN; STREAM_BLOCK * NS * width];
        for positions in order.chunks(STREAM_BLOCK) {
            pass.fetch_block(positions, &mut out, |units| {
                panic!("every column is stored, yet {units:?} went live")
            });
            assert!(store.held_page_bytes() <= pool_bytes, "{name}: reservation");
            let mut expect = vec![0.0f32; out.len()];
            for (col, (file, column)) in files.iter_mut().enumerate() {
                per_page_scan(
                    &reference_pool,
                    file,
                    column,
                    &key(UNITS[col]),
                    positions,
                    &mut expect,
                    width,
                    col,
                    &mut reference_stats,
                );
            }
            let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&out), bits(&expect), "{name}: block bytes");
            for (i, &pos) in positions.iter().enumerate() {
                for t in 0..NS {
                    for (col, &unit) in UNITS.iter().enumerate() {
                        assert_eq!(out[(i * NS + t) * width + col], value(unit, pos, t));
                    }
                }
            }
        }
        let stats = pass.finish();
        assert_eq!(
            store.held_page_bytes(),
            0,
            "{name}: reservation after finish"
        );
        assert_eq!(stats.blocks_pruned, reference_stats.blocks_pruned, "{name}");
        assert_eq!(stats.pool_hits + stats.pool_misses, stats.blocks_read);
        assert!(stats.blocks_read <= reference_stats.blocks_read, "{name}");
        assert_eq!(stats.io_retries, 0);
        assert_eq!(stats.columns_scanned, UNITS.len());
        assert_eq!(stats.forward_passes_avoided, ND / STREAM_BLOCK);
        assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
        // The pool is within its budget and its books balance.
        assert!(store.pool().stats().resident_bytes <= pool_bytes);
        store.pool().verify_accounting().unwrap();
        reference_pool.verify_accounting().unwrap();
        // The pass touches every position, so every stored block.
        let unpruned_blocks = files
            .iter()
            .flat_map(|(_, column)| &column.zones)
            .filter(|zone| zone.constant_value().is_none())
            .count();
        let _ = std::fs::remove_dir_all(&config.path);
        Compared {
            stats,
            reference: reference_stats,
            unpruned_blocks,
        }
    }

    #[test]
    fn a_shuffled_pass_matches_the_per_page_loop_with_the_pool_fitting() {
        let Compared {
            stats,
            reference,
            unpruned_blocks,
        } = pass_matches_the_per_page_loop("shuffled-fits", 1 << 20);
        assert_eq!(stats.pool_evictions, 0);
        // Each stored page is taken through the pool once per pass, as a
        // load; later streamed blocks serve it from the page table.
        assert_eq!(
            (stats.blocks_read, stats.pool_misses, stats.pool_hits),
            (unpruned_blocks, unpruned_blocks, 0),
            "{stats:?}"
        );
        assert!(reference.pool_hits > 0, "the per-page loop re-fetches");
        // Unit 0 prunes whole, unit 2 its first half.
        assert!(stats.blocks_pruned > 0);
    }

    #[test]
    fn a_shuffled_pass_matches_the_per_page_loop_at_a_quarter_of_the_working_set() {
        let working_set = UNITS.len() * (ND / STORED_BLOCK) * PAGE_BYTES;
        let Compared {
            stats, reference, ..
        } = pass_matches_the_per_page_loop("shuffled-quarter", working_set / 4);
        assert!(stats.pool_evictions > 0, "{stats:?}");
        assert!(
            stats.blocks_read < reference.blocks_read,
            "{stats:?} vs {reference:?}"
        );
    }

    /// A checksum failure on a block in the *middle* of one fetch's run
    /// of misses: the column demotes for the block that found it (and the
    /// rest of the pass), is quarantined under `write`, and the aborted
    /// fetch leaves no held page behind.
    #[test]
    fn a_checksum_failure_mid_fetch_demotes_quarantines_and_holds_nothing() {
        let config = config("shuffled-flip", 1 << 20);
        populate(&config);
        let path = config
            .path
            .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"))
            .join("u5.col");
        let mut file = File::open(&path).unwrap();
        let column = format::read_meta(&mut file).unwrap();
        let target = column.data_offset(3).unwrap() as usize;
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[target + 3] ^= 0x40;
        std::fs::write(&path, &bytes).unwrap();

        let store = BehaviorStore::open(&config).unwrap();
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, true, usize::MAX);
        let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);
        let width = UNITS.len();
        let mut asked = Vec::new();
        // In position order, so the first streamed block (positions
        // 0..48) reads stored blocks 0..6 of every column in one run.
        for start in (0..ND).step_by(STREAM_BLOCK) {
            let positions: Vec<usize> = (start..start + STREAM_BLOCK).collect();
            let mut out = vec![f32::NAN; STREAM_BLOCK * NS * width];
            pass.fetch_block(&positions, &mut out, |units| {
                asked.push(units.to_vec());
                truth(units, &positions)
            });
            if start == 0 {
                // Units 1, 3, 4, 6 and 7 hold stored blocks 0..6; units 0
                // and 2 pruned theirs, and the demoted unit 5 let go.
                assert_eq!(store.held_page_bytes(), 5 * 6 * PAGE_BYTES);
            }
            assert_eq!(out, truth(&UNITS, &positions));
        }
        assert_eq!(asked, vec![vec![5]; 4], "unit 5 live from the failure on");
        let stats = pass.finish();
        assert_eq!(store.held_page_bytes(), 0);
        assert_eq!(stats.error_count, 1, "{:?}", stats.errors);
        assert!(stats.errors[0].contains("block 3 checksum mismatch"));
        assert_eq!(stats.columns_scanned, UNITS.len() - 1);
        assert_eq!(stats.forward_passes_avoided, 0);
        assert!(!path.exists(), "quarantined under write");
        assert!(!store.contains(&key(5)));
        assert_eq!(store.pool().stats().resident_pages, {
            // Units 3, 4, 6, 7 whole, unit 1 whole, unit 2's raw half;
            // unit 5's pages were purged with the quarantine.
            5 * (ND / STORED_BLOCK) + ND / STORED_BLOCK / 2
        });
        store.pool().verify_accounting().unwrap();
        let _ = std::fs::remove_dir_all(&config.path);
    }

    /// Another store instance's disk-budget compaction deletes every
    /// column between two streamed blocks. The pass's store still knows
    /// the columns, so the pages the pass holds keep serving; a block that
    /// first touches a page demotes the column to live extraction, as a
    /// deleted file always did.
    #[test]
    fn after_a_compaction_elsewhere_held_pages_serve_and_first_touches_demote() {
        let config = config("shuffled-compact", 1 << 20);
        populate(&config);
        let store = BehaviorStore::open(&config).unwrap();
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, false, usize::MAX);
        let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);
        let width = UNITS.len();
        let mut out = vec![0.0f32; STREAM_BLOCK * NS * width];
        let mut asked = Vec::new();
        // The even, then the odd positions of stored blocks 0..12, then
        // stored blocks 12..18.
        let blocks: [Vec<usize>; 3] = [
            (0..ND / 2).step_by(2).collect(),
            (1..ND / 2).step_by(2).collect(),
            (ND / 2..ND / 2 + STREAM_BLOCK).collect(),
        ];
        for (i, positions) in blocks.iter().enumerate() {
            if i == 1 {
                let elsewhere = BehaviorStore::open(&StoreConfig {
                    disk_budget_bytes: 1,
                    ..config.clone()
                })
                .unwrap();
                let swept = elsewhere.compact(u64::MAX);
                assert_eq!(swept.columns_evicted, UNITS.len(), "no delete refused");
            }
            pass.fetch_block(positions, &mut out, |units| {
                asked.push((i, units.to_vec()));
                truth(units, positions)
            });
            assert_eq!(out, truth(&UNITS, positions));
        }
        // Unit 0 prunes every block from its zone map and never needs
        // its file.
        assert_eq!(asked, vec![(2, vec![1, 2, 3, 4, 5, 6, 7])]);
        let stats = pass.finish();
        assert_eq!(stats.error_count, UNITS.len() - 1, "{:?}", stats.errors);
        assert_eq!(store.held_page_bytes(), 0);
        let _ = std::fs::remove_dir_all(&config.path);
    }

    /// A pass that ends without `finish` — dropped after an early stop,
    /// or unwound by a panic in its `live` closure — gives its held pages
    /// back all the same.
    #[test]
    fn a_pass_dropped_mid_stream_or_unwound_by_a_panic_gives_its_pages_back() {
        let config = config("shuffled-drop", 1 << 20);
        populate(&config);
        let store = BehaviorStore::open(&config).unwrap();
        let order = shuffled_positions(0xBEEF);
        let width = UNITS.len();
        let mut out = vec![0.0f32; STREAM_BLOCK * NS * width];
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, false, usize::MAX);

        let mut pass = ColumnPass::new(&plan, &UNITS, ND, NS);
        pass.fetch_block(&order[..STREAM_BLOCK], &mut out, |_| unreachable!());
        assert!(
            store.held_page_bytes() > 0,
            "the first block holds its pages"
        );
        drop(pass);
        assert_eq!(store.held_page_bytes(), 0, "dropped mid-stream");

        // Unit 8 is not stored, so every block asks `live` for it; the
        // second ask panics after the first block's pages are held.
        let with_miss = [0, 1, 2, 3, 4, 5, 6, 7, 8];
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &with_miss, false, usize::MAX);
        let mut out = vec![0.0f32; STREAM_BLOCK * NS * with_miss.len()];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut pass = ColumnPass::new(&plan, &with_miss, ND, NS);
            for (i, positions) in order.chunks(STREAM_BLOCK).enumerate() {
                pass.fetch_block(positions, &mut out, |units| {
                    assert!(i == 0, "live extraction failed");
                    vec![0.0; positions.len() * NS * units.len()]
                });
                assert!(store.held_page_bytes() > 0);
            }
        }));
        assert!(unwound.is_err());
        assert_eq!(store.held_page_bytes(), 0, "unwound through the pass");
        store.pool().verify_accounting().unwrap();
        let _ = std::fs::remove_dir_all(&config.path);
    }
}
