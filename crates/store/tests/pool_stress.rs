//! Buffer-pool stress: threads fetching column sets, inserting and purging
//! whole columns against a budget of a few pages. CI runs it in release
//! mode beside the fault-injection suite. A passing run is not a proof
//! of thread safety; what it checks is the pool's own bookkeeping under
//! contention — at quiescence `verify_accounting()` is `Ok` and the pool
//! is within its budget — and, throughout, that a fetch's pages read
//! right while other fetches, purges and inserts run, and that resident
//! frames stay within the budget while fetches hold their pages.

use deepbase_store::{BufferPool, ColumnFetch, ColumnKey};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const PAGE_VALUES: usize = 16;
const PAGE_BYTES: usize = PAGE_VALUES * 4;
/// Room for six pages; the two fetches of one round below hold up to ten.
const BUDGET: usize = 6 * PAGE_BYTES;
const BLOCKS: u32 = 12;
/// Columns that are only ever scanned (never purged, never re-inserted).
const STABLE: std::ops::Range<usize> = 0..4;
/// Columns the churn threads insert into and purge.
const CHURNED: std::ops::Range<usize> = 4..7;
const ROUNDS: usize = 20_000;

fn column(unit: usize) -> ColumnKey {
    ColumnKey {
        model_fp: 7,
        dataset_fp: 9,
        unit,
    }
}

/// The one page every thread agrees block `block` of column `unit` holds.
fn page(unit: usize, block: u32) -> Vec<f32> {
    vec![(unit * 1000 + block as usize) as f32; PAGE_VALUES]
}

struct Lcg(u64);

impl Lcg {
    fn below(&mut self, n: usize) -> usize {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (self.0 >> 33) as usize % n
    }

    /// One to five distinct ascending block indices.
    fn blocks(&mut self) -> Vec<u32> {
        let mut blocks: Vec<u32> = (0..1 + self.below(5))
            .map(|_| self.below(BLOCKS as usize) as u32)
            .collect();
        blocks.sort_unstable();
        blocks.dedup();
        blocks
    }
}

/// One column fetch: look up, then load and install the misses.
fn fetch<'p>(pool: &'p BufferPool, unit: usize, blocks: &'p [u32]) -> ColumnFetch<'p> {
    let mut fetched = pool.fetch_column(&column(unit), blocks);
    let missing: Vec<usize> = fetched.missing().collect();
    fetched.install(missing.into_iter().map(|i| (i, page(unit, blocks[i]))));
    fetched
}

/// Every page of a fetch reads what its block holds.
fn check(fetched: &ColumnFetch<'_>, unit: usize, blocks: &[u32]) {
    for (i, &block) in blocks.iter().enumerate() {
        assert_eq!(fetched.page(i).unwrap(), page(unit, block).as_slice());
    }
}

/// One scanner round over `units`: a fetch that stays held while a second
/// fetch runs beside it. The pool is within its budget while both hold
/// their pages, and the first still reads right after the second and
/// whatever the other threads fetched, purged and inserted meanwhile.
/// Returns how many pages the two asked for.
fn round(pool: &BufferPool, rng: &mut Lcg, units: std::ops::Range<usize>) -> usize {
    let (unit, blocks) = (units.start + rng.below(units.len()), rng.blocks());
    let held = fetch(pool, unit, &blocks);
    check(&held, unit, &blocks);
    let (other, other_blocks) = (units.start + rng.below(units.len()), rng.blocks());
    let second = fetch(pool, other, &other_blocks);
    let stats = pool.stats();
    assert!(
        stats.resident_bytes <= BUDGET,
        "over budget while held: {stats:?}"
    );
    check(&second, other, &other_blocks);
    check(&held, unit, &blocks);
    blocks.len() + other_blocks.len()
}

#[test]
fn fetches_inserts_and_purges_under_a_tiny_budget_keep_the_books() {
    let pool = BufferPool::new(BUDGET);
    let start = Barrier::new(5);
    let requested = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Three scanners over the stable columns and one over the churned
        // columns, whose pages get purged and re-inserted under it.
        for (t, units) in [STABLE, STABLE, STABLE, CHURNED].into_iter().enumerate() {
            let (pool, start, requested) = (&pool, &start, &requested);
            s.spawn(move || {
                let mut rng = Lcg(0x5EED + t as u64);
                start.wait();
                for _ in 0..ROUNDS {
                    let n = round(pool, &mut rng, units.clone());
                    requested.fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        // The writer: write-back style inserts, then whole-column purges.
        {
            let (pool, start) = (&pool, &start);
            s.spawn(move || {
                let mut rng = Lcg(0xFEED);
                start.wait();
                for _ in 0..ROUNDS {
                    let unit = CHURNED.start + rng.below(CHURNED.len());
                    for block in rng.blocks() {
                        pool.insert(&column(unit), block, page(unit, block));
                    }
                    pool.purge_column(&column(CHURNED.start + rng.below(CHURNED.len())));
                }
            });
        }
    });
    pool.verify_accounting().unwrap();
    let stats = pool.stats();
    assert!(stats.resident_bytes <= BUDGET, "{stats:?}");
    assert_eq!(stats.resident_bytes, stats.resident_pages * PAGE_BYTES);
    assert_eq!(
        stats.hits + stats.misses,
        requested.load(Ordering::Relaxed),
        "every requested page was counted as a hit or a miss"
    );
    assert!(stats.evictions > 0 && stats.hits > 0, "{stats:?}");
}

mod passes {
    use deepbase_store::{BehaviorStore, ColumnKey, ColumnPass, StoreConfig};
    use std::path::PathBuf;

    const ND: usize = 96;
    const NS: usize = 2;
    const STORED_BLOCK: usize = 8;
    const STREAM_BLOCK: usize = 24;
    const UNITS: [usize; 6] = [0, 1, 2, 3, 4, 5];
    const PAGE_BYTES: usize = STORED_BLOCK * NS * 4;
    /// A sixth of the 72-page working set.
    const POOL_BYTES: usize = 12 * PAGE_BYTES;
    const PASSES: usize = 150;

    fn key(unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: 3,
            dataset_fp: 5,
            unit,
        }
    }

    fn value(unit: usize, pos: usize, t: usize) -> f32 {
        ((pos * NS + t) * 13 + unit * 1000) as f32 * 0.5
    }

    fn column(unit: usize) -> Vec<f32> {
        (0..ND * NS).map(|i| value(unit, i / NS, i % NS)).collect()
    }

    /// Threads running whole passes, shuffled and in stored order, over
    /// one pool a sixth of their working set, beside a writer rewriting
    /// columns under them: every served value is right, the pages the
    /// passes hold never exceed `pool_bytes` together, and at quiescence
    /// none are held and the pool's books balance.
    #[test]
    fn whole_passes_over_a_tight_pool_stay_within_the_reservation() {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-store-tests")
            .join(format!("stress-passes-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = BehaviorStore::open(&StoreConfig {
            block_records: STORED_BLOCK,
            pool_bytes: POOL_BYTES,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        for unit in UNITS {
            store
                .write_column(&key(unit), ND, NS, &column(unit))
                .unwrap();
        }
        std::thread::scope(|s| {
            for t in 0..3u64 {
                let store = &store;
                s.spawn(move || {
                    let mut rng = super::Lcg(0xA11 + t);
                    let plan = store.plan_scan(3, 5, &UNITS, false, usize::MAX);
                    let width = UNITS.len();
                    let mut out = vec![0.0f32; STREAM_BLOCK * NS * width];
                    for p in 0..2 * PASSES {
                        // `PASSES` shuffled passes, and between them as many
                        // in record order, the order `write_column` stores:
                        // those read each block as one row range and their
                        // columns ahead.
                        let mut order: Vec<usize> = (0..ND).collect();
                        for i in (1..ND).rev().filter(|_| p % 2 == 0) {
                            order.swap(i, rng.below(i + 1));
                        }
                        let mut pass = ColumnPass::new(&plan, &UNITS, &order, NS);
                        for (b, positions) in order.chunks(STREAM_BLOCK).enumerate() {
                            let block = b * STREAM_BLOCK..b * STREAM_BLOCK + positions.len();
                            pass.fetch_block(block, &mut out, |_| unreachable!());
                            assert!(store.held_page_bytes() <= POOL_BYTES);
                            for (i, &pos) in positions.iter().enumerate() {
                                for t in 0..NS {
                                    for (col, &unit) in UNITS.iter().enumerate() {
                                        let got = out[(i * NS + t) * width + col];
                                        assert_eq!(got, value(unit, pos, t));
                                    }
                                }
                            }
                        }
                        let stats = pass.finish();
                        assert_eq!(stats.error_count, 0, "{:?}", stats.errors);
                    }
                });
            }
            let store = &store;
            s.spawn(move || {
                let mut rng = super::Lcg(0xB0B);
                for _ in 0..PASSES / 3 {
                    let unit = UNITS[rng.below(UNITS.len())];
                    store
                        .write_column(&key(unit), ND, NS, &column(unit))
                        .unwrap();
                }
            });
        });
        assert_eq!(store.held_page_bytes(), 0);
        store.pool().verify_accounting().unwrap();
        assert!(store.pool().stats().resident_bytes <= POOL_BYTES);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
