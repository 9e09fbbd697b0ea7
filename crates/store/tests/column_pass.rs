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

/// Record order, the order `write_column` stores: a pass streaming it
/// reads each block of a column `write_column` wrote as one row range.
fn record_order() -> Vec<usize> {
    (0..ND).collect()
}

/// Streams the segment in `order`, one `BLOCK` at a time, serving live
/// requests with the true values and logging which units each block
/// asked for. Returns the log and the pass's stats; panics if any served
/// block differs from the true behaviors.
fn run_pass(
    store: &Arc<BehaviorStore>,
    write: bool,
    order: &[usize],
) -> (Vec<Vec<usize>>, StoreStats) {
    let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, write, usize::MAX);
    assert_eq!(plan.hits, UNITS, "every column is a plan-time hit");
    let mut pass = ColumnPass::new(&plan, &UNITS, order, NS);
    let mut asked: Vec<Vec<usize>> = Vec::new();
    for start in (0..ND).step_by(BLOCK) {
        let positions = &order[start..start + BLOCK];
        let mut out = vec![0.0f32; BLOCK * NS * UNITS.len()];
        pass.fetch_block(start..start + BLOCK, &mut out, |units| {
            asked.push(units.to_vec());
            let live = block(units, positions);
            live.into_iter().map(f32::from_bits).collect()
        });
        let served: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
        assert_eq!(served, block(&UNITS, positions), "block at {start}");
    }
    (asked, pass.finish())
}

/// A complete hit never calls the closure; a bit-flipped column demotes
/// at the fetch that reads the flipped block, the closure is asked for
/// exactly that unit from then on, and the file is quarantined only when
/// the plan may write. A pass in the stored order reads the column's
/// remaining blocks with its first fetch, so it finds the flip at once;
/// a pass in another order meets it at the third block.
#[test]
fn hits_scan_and_a_flipped_column_demotes_mid_pass_quarantined_only_under_write() {
    // The second stored block first: not the stored order.
    let rotated: Vec<usize> = (4..8).chain(0..4).chain(8..ND).collect();
    for (flip, write) in [(false, false), (true, false), (true, true)] {
        for (aligned, order) in [(true, record_order()), (false, rotated.clone())] {
            let config = config(&format!("flip{flip}-write{write}-aligned{aligned}"));
            populate(&config);
            let file = config
                .path
                .join(format!("{MODEL_FP:016x}.{DATASET_FP:016x}"))
                .join("u1.col");
            if flip {
                // One bit in the last byte of unit 1's file: the payload
                // of its last stored block, which the third streamed block
                // reads.
                let mut bytes = std::fs::read(&file).unwrap();
                *bytes.last_mut().unwrap() ^= 0x10;
                std::fs::write(&file, &bytes).unwrap();
            }
            let store = BehaviorStore::open(&config).unwrap();
            let (asked, stats) = run_pass(&store, write, &order);
            let case = format!("flip={flip} write={write} aligned={aligned}");
            // Clean blocks, then (if flipped) exactly the corrupt unit goes
            // live, from the block that found it.
            let clean = match (flip, aligned) {
                (false, _) => 3,
                (true, true) => 0,
                (true, false) => 2,
            };
            assert_eq!(asked, vec![vec![1]; 3 - clean], "{case}");
            assert_eq!(stats.forward_passes_avoided, clean, "{case}");
            let scanned = UNITS.len() - usize::from(clean == 0);
            assert_eq!(stats.columns_scanned, scanned, "{case}");
            assert_eq!(stats.error_count, usize::from(flip), "{:?}", stats.errors);
            assert_eq!(stats.columns_written, 0, "a demoted hit is not captured");
            assert_eq!(stats.inverse_map_fetches == 0, aligned, "{case}");
            // Quarantine renames the file aside; without `write` the pass
            // leaves it where it is even though the store itself is
            // writable.
            assert_eq!(file.exists(), !(flip && write), "{case}");
            let _ = std::fs::remove_dir_all(&config.path);
        }
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

    /// Streams the first `blocks` blocks of `WIDE` in record order with
    /// every column live (a cold pass that writes back) and finishes it.
    fn write_back_pass(store: &Arc<BehaviorStore>, blocks: usize) -> StoreStats {
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &WIDE, true, usize::MAX);
        let order = record_order();
        let mut pass = ColumnPass::new(&plan, &WIDE, &order, NS);
        for start in (0..ND).step_by(BLOCK).take(blocks) {
            let positions: Vec<usize> = (start..start + BLOCK).collect();
            let mut out = vec![0.0f32; BLOCK * NS * WIDE.len()];
            pass.fetch_block(start..start + BLOCK, &mut out, |units| {
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
        let filled: Vec<u32> = (0..2 * BLOCK as u32).collect();
        let rows: Vec<f32> = (0..filled.len() * NS)
            .map(|i| value(larger, i / NS, i % NS))
            .collect();
        store
            .write_columns(ND, NS, &filled, &[(key(larger), &rows)])
            .pop()
            .unwrap()
            .unwrap();
        let read = |unit| {
            let file = format::read_meta(&mut File::open(column_file(&config, unit)).unwrap());
            let file = file.unwrap();
            (file.meta.completed_records, file.positions)
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
    /// Each record is found at its stored row through the file's
    /// positions section.
    #[allow(clippy::too_many_arguments)]
    pub(super) fn per_page_scan(
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
        let mut row_of = vec![usize::MAX; column.meta.nd as usize];
        for (row, &pos) in column.positions.iter().enumerate() {
            row_of[pos as usize] = row;
        }
        let ns = column.meta.ns as usize;
        for (i, &pos) in positions.iter().enumerate() {
            let row = row_of[pos];
            let b = column.meta.block_of(row);
            if let Some(v) = column.zones[b].constant_value() {
                if !pruned[b] {
                    pruned[b] = true;
                    stats.blocks_pruned += 1;
                }
                for t in 0..ns {
                    out[(i * ns + t) * stride + col] = v;
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
            let local = row - b * column.meta.block_records as usize;
            for t in 0..ns {
                out[(i * ns + t) * stride + col] = page[local * ns + t];
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
        let order = shuffled_positions(0xD1CE);
        let mut pass = ColumnPass::new(&plan, &UNITS, &order, NS);

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

        let width = UNITS.len();
        // One buffer reused across blocks, never re-zeroed: the pass
        // overwrites every cell.
        let mut out = vec![f32::NAN; STREAM_BLOCK * NS * width];
        for (b, positions) in order.chunks(STREAM_BLOCK).enumerate() {
            let block = b * STREAM_BLOCK..(b + 1) * STREAM_BLOCK;
            pass.fetch_block(block, &mut out, |units| {
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
        // Record-order columns under a shuffled stream: every fetch maps
        // its positions through the inverse row map.
        assert_eq!(stats.inverse_map_fetches, UNITS.len() * ND / STREAM_BLOCK);
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
        // Each streamed block's positions backwards: not the stored order,
        // and the first streamed block (positions 47..=0) reads stored
        // blocks 0..6 of every column in one run.
        let order: Vec<usize> = (0..ND)
            .map(|i| i / STREAM_BLOCK * STREAM_BLOCK + STREAM_BLOCK - 1 - i % STREAM_BLOCK)
            .collect();
        let mut pass = ColumnPass::new(&plan, &UNITS, &order, NS);
        let width = UNITS.len();
        let mut asked = Vec::new();
        for start in (0..ND).step_by(STREAM_BLOCK) {
            let positions = &order[start..start + STREAM_BLOCK];
            let mut out = vec![f32::NAN; STREAM_BLOCK * NS * width];
            pass.fetch_block(start..start + STREAM_BLOCK, &mut out, |units| {
                asked.push(units.to_vec());
                truth(units, positions)
            });
            if start == 0 {
                // Units 1, 3, 4, 6 and 7 hold stored blocks 0..6; units 0
                // and 2 pruned theirs, and the demoted unit 5 let go.
                assert_eq!(store.held_page_bytes(), 5 * 6 * PAGE_BYTES);
            }
            assert_eq!(out, truth(&UNITS, positions));
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
        // The even, then the odd positions of stored blocks 0..12, then
        // stored blocks 12..18.
        let order: Vec<usize> = (0..ND / 2)
            .step_by(2)
            .chain((1..ND / 2).step_by(2))
            .chain(ND / 2..ND)
            .collect();
        let mut pass = ColumnPass::new(&plan, &UNITS, &order, NS);
        let width = UNITS.len();
        let mut out = vec![0.0f32; STREAM_BLOCK * NS * width];
        let mut asked = Vec::new();
        for (i, positions) in order.chunks(STREAM_BLOCK).take(3).enumerate() {
            if i == 1 {
                let elsewhere = BehaviorStore::open(&StoreConfig {
                    disk_budget_bytes: 1,
                    ..config.clone()
                })
                .unwrap();
                let swept = elsewhere.compact(u64::MAX);
                assert_eq!(swept.columns_evicted, UNITS.len(), "no delete refused");
            }
            let block = i * STREAM_BLOCK..(i + 1) * STREAM_BLOCK;
            pass.fetch_block(block, &mut out, |units| {
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

        let mut pass = ColumnPass::new(&plan, &UNITS, &order, NS);
        pass.fetch_block(0..STREAM_BLOCK, &mut out, |_| unreachable!());
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
            let mut pass = ColumnPass::new(&plan, &with_miss, &order, NS);
            for (i, positions) in order.chunks(STREAM_BLOCK).enumerate() {
                let block = i * STREAM_BLOCK..(i + 1) * STREAM_BLOCK;
                pass.fetch_block(block, &mut out, |units| {
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

// ---------------------------------------------------------------------
// Columns stored in a pass's own stream order
// ---------------------------------------------------------------------

mod stream_order {
    use super::*;
    use deepbase_store::{format, MaterializationPolicy};
    use std::fs::File;
    use std::ops::Range;

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

    /// A seeded Fisher–Yates shuffle of the segment's positions.
    fn shuffled(seed: u64) -> Vec<usize> {
        shuffled_of(ND, seed)
    }

    /// A seeded Fisher–Yates shuffle of `0..nd`.
    fn shuffled_of(nd: usize, seed: u64) -> Vec<usize> {
        let mut order: Vec<usize> = (0..nd).collect();
        let mut state = seed | 1;
        for i in (1..nd).rev() {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }
        order
    }

    /// The stored record positions and watermark of `unit`'s file.
    fn stored(config: &StoreConfig, unit: usize) -> (u64, Vec<u32>) {
        let file = format::read_meta(&mut File::open(column_file(config, unit)).unwrap());
        let file = file.unwrap();
        (file.meta.completed_records, file.positions)
    }

    /// Streams `order` in blocks of `stream_block` — the first `blocks`
    /// of them — serving live requests with the true values, checks every
    /// served block bit for bit and returns, per block, the units it
    /// asked for, and the pass's stats.
    fn stream(
        store: &Arc<BehaviorStore>,
        write: bool,
        order: &[usize],
        stream_block: usize,
        blocks: usize,
    ) -> (Vec<Vec<usize>>, StoreStats) {
        let plan = store.plan_scan(MODEL_FP, DATASET_FP, &UNITS, write, usize::MAX);
        let mut pass = ColumnPass::new(&plan, &UNITS, order, NS);
        let mut asked = Vec::new();
        let ranges: Vec<Range<usize>> = (0..ND)
            .step_by(stream_block)
            .map(|start| start..(start + stream_block).min(ND))
            .take(blocks)
            .collect();
        for range in ranges {
            let positions = &order[range.clone()];
            let mut out = vec![f32::NAN; range.len() * NS * UNITS.len()];
            let mut units_asked = Vec::new();
            pass.fetch_block(range.clone(), &mut out, |units| {
                units_asked = units.to_vec();
                block(units, positions)
                    .into_iter()
                    .map(f32::from_bits)
                    .collect()
            });
            let served: Vec<u32> = out.iter().map(|v| v.to_bits()).collect();
            assert_eq!(served, block(&UNITS, positions), "block {range:?}");
            asked.push(units_asked);
        }
        (asked, pass.finish())
    }

    /// A cold pass writes every column back in the order it streamed.
    /// A pass in that order reads each block as a row range of every
    /// column — with stream blocks the size of the stored ones and with
    /// blocks that straddle them — takes each page once and maps nothing
    /// through an inverse row map; a pass in another order reads the
    /// same bits through the inverse map.
    #[test]
    fn a_pass_in_another_order_takes_the_inverse_map_and_reads_the_same_bits() {
        let config = config("stream-order");
        let order = shuffled(0x5EED);
        let written = {
            let store = BehaviorStore::open(&config).unwrap();
            stream(&store, true, &order, BLOCK, usize::MAX).1
        };
        assert_eq!(written.columns_written, UNITS.len());
        let positions: Vec<u32> = order.iter().map(|&p| p as u32).collect();
        for unit in UNITS {
            assert_eq!(stored(&config, unit), (ND as u64, positions.clone()));
        }
        for stream_block in [BLOCK, 6, 5] {
            let store = BehaviorStore::open(&config).unwrap();
            let (asked, stats) = stream(&store, false, &order, stream_block, usize::MAX);
            assert!(asked.iter().all(Vec::is_empty), "{asked:?}");
            assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
            assert_eq!(stats.inverse_map_fetches, 0, "block {stream_block}");
            assert_eq!(stats.columns_scanned, UNITS.len());
            // Raw values: no block prunes, and each stored page is taken
            // through the pool once, all with the first fetch.
            let pages = UNITS.len() * ND / BLOCK;
            assert_eq!(stats.blocks_read, pages, "block {stream_block}");
            assert_eq!(stats.pool_misses, pages, "block {stream_block}");
            assert_eq!(store.held_page_bytes(), 0);
        }
        let store = BehaviorStore::open(&config).unwrap();
        let (asked, stats) = stream(&store, false, &shuffled(0xB0B), BLOCK, usize::MAX);
        assert!(asked.iter().all(Vec::is_empty), "{asked:?}");
        assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
        assert_eq!(stats.inverse_map_fetches, UNITS.len() * ND / BLOCK);
        let _ = std::fs::remove_dir_all(&config.path);
    }

    /// An early-stopped pass leaves its first `W` records as partial
    /// columns. A pass in another order never shrinks them — not with a
    /// shorter prefix, nor with a longer one that drops some of their
    /// records. A resume in the stored order scans the prefix as row
    /// ranges, extracts only past `W` and completes every column in the
    /// stream's order.
    #[test]
    fn an_early_stopped_prefix_resumes_aligned_and_completes_the_column() {
        let config = config("stream-resume");
        let order = shuffled(0xACE);
        let store = BehaviorStore::open(&config).unwrap();
        let (_, stats) = stream(&store, true, &order, BLOCK, 2);
        assert_eq!(stats.partial_columns_written, UNITS.len());
        let prefix: Vec<u32> = order[..2 * BLOCK].iter().map(|&p| p as u32).collect();
        for unit in UNITS {
            assert_eq!(stored(&config, unit), (2 * BLOCK as u64, prefix.clone()));
        }

        // Another order: its first four records, then its first ten, which
        // leave out the prefix's first two. Its first block holds records
        // past the prefix and goes live; its second lies inside it.
        let mut other: Vec<usize> = order[2..].iter().rev().copied().collect();
        other.extend(&order[..2]);
        for (stream_block, blocks) in [(BLOCK, 1), (5, 2)] {
            let (asked, stats) = stream(&store, true, &other, stream_block, blocks);
            let mut want = vec![UNITS.to_vec()];
            want.resize(blocks, vec![]);
            assert_eq!(asked, want, "{stream_block}");
            let mapped = (blocks - 1) * UNITS.len();
            assert_eq!(stats.inverse_map_fetches, mapped, "{stream_block}");
            assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
            assert_eq!(stats.partial_columns_written, 0, "{stream_block}");
            for unit in UNITS {
                assert_eq!(stored(&config, unit), (2 * BLOCK as u64, prefix.clone()));
            }
        }

        let (asked, stats) = stream(&store, true, &order, BLOCK, usize::MAX);
        assert_eq!(
            asked,
            vec![vec![], vec![], UNITS.to_vec()],
            "live past the watermark only"
        );
        assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
        assert_eq!(stats.inverse_map_fetches, 0);
        assert_eq!(stats.partial_columns_scanned, UNITS.len());
        assert_eq!(stats.columns_written, UNITS.len());
        let positions: Vec<u32> = order.iter().map(|&p| p as u32).collect();
        for unit in UNITS {
            assert_eq!(stored(&config, unit), (ND as u64, positions.clone()));
            assert!(store.contains(&key(unit)));
        }
        let _ = std::fs::remove_dir_all(&config.path);
    }

    /// `scan_into` by record positions over a column stored in a stream's
    /// order equals the same scan over the column `write_column` stores
    /// in record order, for any positions, through the inverse map.
    #[test]
    fn scan_into_over_a_stream_ordered_column_equals_the_record_order_reference() {
        let config = config("stream-scan-into");
        let reference_config = super::config("stream-scan-into-reference");
        let store = BehaviorStore::open(&config).unwrap();
        stream(&store, true, &shuffled(0xF00D), BLOCK, usize::MAX);
        populate(&reference_config);
        let reference = BehaviorStore::open(&reference_config).unwrap();
        let queries: [Vec<usize>; 3] = [record_order(), shuffled(7), vec![11, 0, 5, 5, 3]];
        for unit in UNITS {
            for positions in &queries {
                let scan = |store: &BehaviorStore, stats: &mut StoreStats| {
                    let mut out = vec![f32::NAN; positions.len() * NS];
                    store
                        .scan_into(&key(unit), ND, NS, positions, &mut out, 1, 0, true, stats)
                        .unwrap();
                    out.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
                };
                let mut stats = StoreStats::default();
                let got = scan(&store, &mut stats);
                assert_eq!(got, scan(&reference, &mut StoreStats::default()));
                assert_eq!(stats.inverse_map_fetches, 1);
            }
        }
        for dir in [&config.path, &reference_config.path] {
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    /// A column file of the record-ordered version 3 reads as corrupt:
    /// a read-write pass quarantines it and extracts the column live, and
    /// the next pass re-materializes it, which the pass after scans.
    #[test]
    fn a_version_3_file_quarantines_and_re_materializes() {
        let config = config("stream-v3");
        populate(&config);
        let file = column_file(&config, 1);
        let mut bytes = std::fs::read(&file).unwrap();
        bytes[8..10].copy_from_slice(&3u16.to_le_bytes());
        // A header checksum that validates: only the version is wrong.
        let reference = {
            let mut h = bytes[..12].to_vec();
            h.extend_from_slice(&[0; 4]);
            h
        };
        let crc = deepbase_store_crc(&reference[..12]);
        bytes[12..16].copy_from_slice(&crc.to_le_bytes());
        std::fs::write(&file, &bytes).unwrap();
        let order = record_order();

        let store = BehaviorStore::open(&config).unwrap();
        let (asked, stats) = stream(&store, true, &order, BLOCK, usize::MAX);
        assert_eq!(asked, vec![vec![1]; ND / BLOCK]);
        assert_eq!(stats.error_count, 1, "{:?}", stats.errors);
        assert!(stats.errors[0].contains("unsupported version 3"));
        assert!(!file.exists(), "quarantined");
        let (asked, stats) = stream(&store, true, &order, BLOCK, usize::MAX);
        assert_eq!(asked, vec![vec![1]; ND / BLOCK]);
        assert_eq!(stats.columns_written, 1, "re-materialized");
        let (asked, stats) = stream(&store, true, &order, BLOCK, usize::MAX);
        assert!(asked.iter().all(Vec::is_empty), "{asked:?}");
        assert_eq!((stats.error_count, stats.inverse_map_fetches), (0, 0));
        let _ = std::fs::remove_dir_all(&config.path);
    }

    /// CRC32 (IEEE), bit by bit.
    fn deepbase_store_crc(bytes: &[u8]) -> u32 {
        let mut crc = 0xffff_ffffu32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 != 0 {
                    (crc >> 1) ^ 0xedb8_8320
                } else {
                    crc >> 1
                };
            }
        }
        !crc
    }

    /// One flipped byte of a stored position, or of the schema's
    /// watermark, reads as corruption: a read-write pass quarantines the
    /// column and extracts it live, and a pass over a read-only store
    /// extracts it live and leaves every byte on disk as it was.
    #[test]
    fn a_flipped_position_or_watermark_byte_is_corrupt() {
        // Header 16 bytes, schema 7 u64 + crc + stamp, 3 zone entries of
        // 24 bytes + crc, the positions count, then the positions.
        let watermark_byte = 16 + 6 * 8;
        let position_byte = 16 + 7 * 8 + 4 + 8 + 3 * 24 + 4 + 8 + 4 * 5;
        for (what, at) in [
            ("positions section checksum", position_byte),
            ("schema checksum", watermark_byte),
        ] {
            for read_only in [false, true] {
                let config = config(&format!("stream-flip-{at}-{read_only}"));
                let order = shuffled(0x0DD);
                {
                    let store = BehaviorStore::open(&config).unwrap();
                    stream(&store, true, &order, BLOCK, usize::MAX);
                }
                let file = column_file(&config, 2);
                let mut bytes = std::fs::read(&file).unwrap();
                bytes[at] ^= 0x04;
                std::fs::write(&file, &bytes).unwrap();
                let store = BehaviorStore::open(&StoreConfig {
                    policy: match read_only {
                        true => MaterializationPolicy::ReadOnly,
                        false => MaterializationPolicy::ReadWrite,
                    },
                    ..config.clone()
                })
                .unwrap();
                let (asked, stats) = stream(&store, !read_only, &order, BLOCK, usize::MAX);
                assert_eq!(asked, vec![vec![2]; ND / BLOCK], "{what}");
                assert_eq!(stats.error_count, 1, "{:?}", stats.errors);
                assert!(stats.errors[0].contains(what), "{:?}", stats.errors);
                if read_only {
                    assert_eq!(std::fs::read(&file).unwrap(), bytes, "{what}");
                } else {
                    assert!(!file.exists(), "{what}: quarantined");
                }
                let _ = std::fs::remove_dir_all(&config.path);
            }
        }
    }

    /// Records of the fetch-shape table: five stored blocks of 64.
    const SHAPE_ND: usize = 320;
    const SHAPE_BLOCK: usize = 64;
    const SHAPE_UNITS: [usize; 4] = [0, 1, 2, 3];
    /// The partial columns' watermark, inside a stored block.
    const SHAPE_PREFIX: usize = 212;

    /// The value of `unit` at stored row `row`: unit 0 raw; unit 1
    /// constant on stored blocks 1 and 2, so every run across them has
    /// pruned pieces in its middle; unit 2 NaN on all of block 2 (a
    /// constant never pruned) and on every fifth row of block 3; unit 3
    /// ±1 (dictionary blocks).
    fn shape_value(unit: usize, row: usize, t: usize) -> f32 {
        match (unit, row / SHAPE_BLOCK) {
            (1, 1 | 2) => 0.75,
            (2, 2) => f32::NAN,
            (2, 3) if row.is_multiple_of(5) => f32::NAN,
            (3, _) => [1.0, -1.0][(row + t) % 2],
            _ => ((row * NS + t) * 7 + unit * 1000) as f32 * 0.25,
        }
    }

    /// Every fetch shape against the per-page loop: stream blocks of 48,
    /// 64 and 100 over stored blocks of 64; a pass in the stored order
    /// (one run per block), in another seed's order and in record order
    /// (a run per record), and in a hand-built order whose blocks are
    /// six-record runs of stored rows in reverse, some of them across a
    /// stored-block edge; over complete columns and over partial ones
    /// holding the stored order's first 212 records; with the pool
    /// fitting and at a quarter of the working set. Every block a pass
    /// scans carries the loop's bits, the pass prunes what the loop
    /// prunes and never takes more pages, only a pass in another order
    /// maps positions through the inverse row map, and the pass holds no
    /// page once it ends.
    #[test]
    fn every_fetch_shape_equals_the_per_page_loop() {
        let stored_order = shuffled_of(SHAPE_ND, 0x0DDBA11);
        let mut rank = vec![0; SHAPE_ND];
        for (row, &pos) in stored_order.iter().enumerate() {
            rank[pos] = row;
        }
        let rank = &rank;
        let truth = |units: &[usize], positions: &[usize]| -> Vec<f32> {
            let cells = positions
                .iter()
                .flat_map(|&pos| (0..NS).map(move |t| (pos, t)));
            cells
                .flat_map(|(pos, t)| units.iter().map(move |&u| shape_value(u, rank[pos], t)))
                .collect()
        };
        let chunks: Vec<&[usize]> = stored_order.chunks(6).collect();
        let runs_order: Vec<usize> = chunks
            .chunks(8)
            .flat_map(|group| group.iter().rev())
            .flat_map(|chunk| chunk.iter().copied())
            .collect();
        let orders = [
            ("stored", stored_order.clone()),
            ("another seed", shuffled_of(SHAPE_ND, 0xC0FFEE)),
            ("record", (0..SHAPE_ND).collect()),
            ("runs", runs_order),
        ];
        let working_set = SHAPE_UNITS.len() * SHAPE_ND * NS * 4;
        for watermark in [SHAPE_ND, SHAPE_PREFIX] {
            for pool_bytes in [1 << 20, working_set / 4] {
                for stream_block in [48, 64, 100] {
                    for (name, order) in &orders {
                        let case = format!(
                            "{name} order, blocks of {stream_block}, {watermark} records \
                             stored, pool {pool_bytes}"
                        );
                        let config = StoreConfig {
                            block_records: SHAPE_BLOCK,
                            pool_bytes,
                            ..config("fetch-shapes")
                        };
                        {
                            let store = BehaviorStore::open(&config).unwrap();
                            let positions: Vec<u32> = stored_order[..watermark]
                                .iter()
                                .map(|&p| p as u32)
                                .collect();
                            let rows: Vec<Vec<f32>> = SHAPE_UNITS
                                .iter()
                                .map(|&unit| {
                                    (0..watermark * NS)
                                        .map(|i| shape_value(unit, i / NS, i % NS))
                                        .collect()
                                })
                                .collect();
                            let columns: Vec<(ColumnKey, &[f32])> = SHAPE_UNITS
                                .iter()
                                .zip(&rows)
                                .map(|(&unit, rows)| (key(unit), rows.as_slice()))
                                .collect();
                            for written in store.write_columns(SHAPE_ND, NS, &positions, &columns) {
                                written.unwrap();
                            }
                        }
                        let store = BehaviorStore::open(&config).unwrap();
                        let plan =
                            store.plan_scan(MODEL_FP, DATASET_FP, &SHAPE_UNITS, false, usize::MAX);
                        let mut pass = ColumnPass::new(&plan, &SHAPE_UNITS, order, NS);
                        let reference_pool = deepbase_store::BufferPool::new(pool_bytes);
                        let mut reference = StoreStats::default();
                        let mut files: Vec<(File, format::ColumnFile)> = SHAPE_UNITS
                            .iter()
                            .map(|&unit| {
                                let mut file = File::open(column_file(&config, unit)).unwrap();
                                let column = format::read_meta(&mut file).unwrap();
                                (file, column)
                            })
                            .collect();
                        let width = SHAPE_UNITS.len();
                        let mut scanned_fetches = 0;
                        for start in (0..SHAPE_ND).step_by(stream_block) {
                            let range = start..(start + stream_block).min(SHAPE_ND);
                            let positions = &order[range.clone()];
                            let mut out = vec![f32::NAN; range.len() * NS * width];
                            let mut asked = Vec::new();
                            pass.fetch_block(range.clone(), &mut out, |units| {
                                asked = units.to_vec();
                                truth(units, positions)
                            });
                            let bits =
                                |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                            let expect = truth(&SHAPE_UNITS, positions);
                            assert_eq!(bits(&out), bits(&expect), "{case}: block {range:?}");
                            let held = positions.iter().all(|&pos| rank[pos] < watermark);
                            if !held {
                                assert_eq!(asked, SHAPE_UNITS, "{case}: block {range:?}");
                                continue;
                            }
                            assert!(asked.is_empty(), "{case}: block {range:?}");
                            scanned_fetches += width;
                            let mut looped = vec![0.0f32; out.len()];
                            for (col, (file, column)) in files.iter_mut().enumerate() {
                                shuffled::per_page_scan(
                                    &reference_pool,
                                    file,
                                    column,
                                    &key(SHAPE_UNITS[col]),
                                    positions,
                                    &mut looped,
                                    width,
                                    col,
                                    &mut reference,
                                );
                            }
                            assert_eq!(bits(&out), bits(&looped), "{case}: block {range:?}");
                        }
                        let stats = pass.finish();
                        assert_eq!(stats.error_count, 0, "{case}: {:?}", stats.errors);
                        assert_eq!(stats.blocks_pruned, reference.blocks_pruned, "{case}");
                        assert!(
                            stats.blocks_read <= reference.blocks_read,
                            "{case}: {stats:?} vs {reference:?}"
                        );
                        assert_eq!(stats.pool_hits + stats.pool_misses, stats.blocks_read);
                        let mapped = if *name == "stored" {
                            0
                        } else {
                            scanned_fetches
                        };
                        assert_eq!(stats.inverse_map_fetches, mapped, "{case}");
                        assert!(
                            scanned_fetches > 0 || watermark < SHAPE_ND,
                            "{case}: a complete column scans"
                        );
                        assert_eq!(store.held_page_bytes(), 0, "{case}");
                        let _ = std::fs::remove_dir_all(&config.path);
                    }
                }
            }
        }
    }
}
