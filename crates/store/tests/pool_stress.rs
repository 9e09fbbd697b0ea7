//! Buffer-pool stress: threads pinning column sets, inserting and purging
//! whole columns against a budget of a few pages. CI runs it in release
//! mode beside the fault-injection suite. A passing run is not a proof
//! of thread safety; what it checks is the pool's own bookkeeping under
//! contention — at quiescence `verify_accounting()` is `Ok`, nothing is
//! left pinned and the pool is back under its budget — and, throughout,
//! that a frame is never evicted while a fetch holds it pinned.

use deepbase_store::{BufferPool, ColumnKey};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Barrier;

const PAGE_VALUES: usize = 16;
const PAGE_BYTES: usize = PAGE_VALUES * 4;
/// Room for six pages; one fetch below pins up to five.
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

/// One column fetch: pin, load and install the misses, check every page.
/// Returns how many pages it asked for.
fn fetch(pool: &BufferPool, unit: usize, blocks: &[u32], check_repin: bool) -> usize {
    let key = column(unit);
    let mut pins = pool.pin_column(&key, blocks);
    let missing: Vec<usize> = pins.missing().collect();
    pins.install(missing.into_iter().map(|i| (i, page(unit, blocks[i]))));
    for (i, &block) in blocks.iter().enumerate() {
        assert_eq!(pins.page(i).unwrap(), page(unit, block).as_slice());
    }
    assert!(pool.column_pinned(&key));
    if check_repin {
        // Nobody purges a stable column, so while this fetch holds its
        // pins a second fetch of the same blocks must find every one of
        // them resident: a miss here means a pinned frame was evicted.
        let again = pool.pin_column(&key, blocks);
        assert_eq!(again.hits, blocks.len(), "a pinned frame was evicted");
        return 2 * blocks.len();
    }
    blocks.len()
}

#[test]
fn pins_inserts_and_purges_under_a_tiny_budget_keep_the_books() {
    let pool = BufferPool::new(BUDGET);
    let start = Barrier::new(5);
    let requested = AtomicUsize::new(0);
    std::thread::scope(|s| {
        // Three scanners over the stable columns.
        for t in 0..3u64 {
            let (pool, start, requested) = (&pool, &start, &requested);
            s.spawn(move || {
                let mut rng = Lcg(0x5EED + t);
                start.wait();
                for _ in 0..ROUNDS {
                    let unit = STABLE.start + rng.below(STABLE.len());
                    let n = fetch(pool, unit, &rng.blocks(), true);
                    requested.fetch_add(n, Ordering::Relaxed);
                }
            });
        }
        // A scanner over the churned columns: its pins get purged from
        // under it (doomed frames) and must stay readable until dropped.
        {
            let (pool, start, requested) = (&pool, &start, &requested);
            s.spawn(move || {
                let mut rng = Lcg(0xD00D);
                start.wait();
                for _ in 0..ROUNDS {
                    let unit = CHURNED.start + rng.below(CHURNED.len());
                    let n = fetch(pool, unit, &rng.blocks(), false);
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
    for unit in STABLE.start..CHURNED.end {
        assert!(
            !pool.column_pinned(&column(unit)),
            "unit {unit} left pinned"
        );
    }
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
