//! Hypothesis-behavior cache (paper §5.1.2 / Fig. 9).
//!
//! The hypothesis library and test set stay fixed while the model changes,
//! so DeepBase caches hypothesis behaviors per record under a byte budget:
//! re-inspecting a new model skips hypothesis extraction.
//!
//! **Layout.** The cache holds one column per `(hypothesis identity,
//! dataset identity)`, an identity being the address of the catalog `Arc`
//! a plan bound — never a name. A column is a per-position row index plus
//! one contiguous buffer of `ns`-wide rows. The engine asks for a whole
//! block of positions at once ([`CacheRun::behaviors`]): hits are copied
//! out under one lock, misses are evaluated outside it, and the new rows
//! are published under one more.
//!
//! **Pin rule.** A column is kept only while both identities are pinned
//! ([`CacheRun::pin`]): the cache then holds a `Weak` to each, which keeps
//! the allocation (the address cannot be reused) and makes `Arc::get_mut`
//! fail (the value cannot change) without keeping the value alive. Pinning
//! a new identity first drops every dead one, with its columns and their
//! bytes, so a later value at a reused address starts from nothing. No
//! stale or foreign hit is possible, so nothing invalidates the cache and
//! a session shares it with its forks.
//!
//! **Eviction.** `bytes` counts the resident rows. Publishing a row past
//! the budget evicts whole columns, least recently used first, never the
//! column being filled; a row that still does not fit is returned but not
//! kept. Evictions are counted in rows.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

deepbase_store::counters! {
    /// Cache statistics for the Fig. 9 accounting.
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct CacheStats {
        /// Lookups that found the behavior.
        pub hits: usize,
        /// Lookups that had to evaluate the hypothesis.
        pub misses: usize,
        /// Rows evicted to keep the byte budget.
        pub evictions: usize,
    }
}

/// `(hypothesis address, dataset address)`.
type Key = (usize, usize);

/// Address of the value behind a reference, metadata discarded.
fn address<T: ?Sized>(value: &T) -> usize {
    value as *const T as *const u8 as usize
}

/// Marks a position with no cached row.
const ABSENT: u32 = u32::MAX;

/// One identity pair's cached behaviors.
#[derive(Default)]
struct Column {
    /// Row of each record position, [`ABSENT`] where none is cached;
    /// as long as the largest position cached.
    index: Vec<u32>,
    /// The cached rows, `ns` values each, in publish order.
    rows: Vec<f32>,
    /// Number of rows.
    len: usize,
    /// Clock of the last block that read or filled the column.
    used: u64,
}

impl Column {
    fn row(&self, position: usize, ns: usize) -> Option<&[f32]> {
        let row = *self.index.get(position)? as usize;
        (row != ABSENT as usize).then(|| &self.rows[row * ns..(row + 1) * ns])
    }

    fn bytes(&self) -> usize {
        self.rows.len() * size_of::<f32>()
    }
}

/// Byte-budgeted cache of per-record hypothesis behaviors.
pub struct HypothesisCache {
    capacity_bytes: usize,
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    columns: HashMap<Key, Column>,
    /// Pinned identities: whether each one's value is still alive.
    pins: HashMap<usize, Box<dyn Fn() -> bool + Send>>,
    clock: u64,
    bytes: usize,
    stats: CacheStats,
}

impl HypothesisCache {
    /// Creates a cache with the given byte budget.
    pub fn new(capacity_bytes: usize) -> Arc<HypothesisCache> {
        Arc::new(HypothesisCache {
            capacity_bytes,
            inner: Mutex::new(CacheInner {
                columns: HashMap::new(),
                pins: HashMap::new(),
                clock: 0,
                bytes: 0,
                stats: CacheStats::default(),
            }),
        })
    }

    /// Current statistics, over every run that used the cache.
    pub fn stats(&self) -> CacheStats {
        self.inner.lock().stats
    }

    /// Number of cached rows (one per record behavior).
    pub fn len(&self) -> usize {
        self.inner.lock().columns.values().map(|c| c.len).sum()
    }

    /// True when the cache holds nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// One batch's or view pass's handle on a shared cache, counting its own
/// lookups.
pub(crate) struct CacheRun<'c> {
    cache: &'c HypothesisCache,
    stats: Mutex<CacheStats>,
}

impl<'c> CacheRun<'c> {
    pub(crate) fn new(cache: &'c HypothesisCache) -> CacheRun<'c> {
        CacheRun {
            cache,
            stats: Mutex::new(CacheStats::default()),
        }
    }

    /// Pins a catalog value's identity (module docs, *Pin rule*). Pinning
    /// a new identity first drops every dead one, with its columns.
    pub(crate) fn pin<T: ?Sized + Send + Sync + 'static>(&self, value: &Arc<T>) {
        let mut inner = self.cache.inner.lock();
        let CacheInner {
            columns,
            pins,
            bytes,
            ..
        } = &mut *inner;
        let at = address(&**value);
        if pins.contains_key(&at) {
            return;
        }
        let pinned = pins.len();
        pins.retain(|_, alive| alive());
        if pins.len() < pinned {
            columns.retain(|(h, d), column| {
                let live = pins.contains_key(h) && pins.contains_key(d);
                if !live {
                    *bytes -= column.bytes();
                }
                live
            });
        }
        let weak = Arc::downgrade(value);
        pins.insert(at, Box::new(move || weak.strong_count() > 0));
    }

    /// The behaviors of `hypothesis` on the records at `positions` of
    /// `dataset`, `ns` values each, concatenated in `positions` order.
    /// Cached rows are copied out; `compute` runs once per other position,
    /// outside the cache's lock, and must return `ns` values. Every lookup
    /// of the block is counted, even when a `compute` fails. A failed
    /// block keeps nothing, and nothing is kept on an identity that is not
    /// pinned (module docs, *Eviction*, for what does not fit).
    pub(crate) fn behaviors<H: ?Sized, D: ?Sized, E>(
        &self,
        hypothesis: &H,
        dataset: &D,
        positions: &[usize],
        ns: usize,
        mut compute: impl FnMut(usize) -> Result<Vec<f32>, E>,
    ) -> Result<Vec<f32>, E> {
        let key = (address(hypothesis), address(dataset));
        let mut out = vec![0.0; positions.len() * ns];
        // Indices into `positions` of the rows to compute.
        let mut missing = Vec::new();
        let pinned = {
            let mut inner = self.cache.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            match inner.columns.get_mut(&key) {
                Some(column) => {
                    column.used = clock;
                    for (slot, &position) in positions.iter().enumerate() {
                        match column.row(position, ns) {
                            Some(row) => out[slot * ns..(slot + 1) * ns].copy_from_slice(row),
                            None => missing.push(slot),
                        }
                    }
                }
                None => missing.extend(0..positions.len()),
            }
            self.count(
                &mut inner,
                CacheStats {
                    hits: positions.len() - missing.len(),
                    misses: missing.len(),
                    evictions: 0,
                },
            );
            inner.pins.contains_key(&key.0) && inner.pins.contains_key(&key.1)
        };
        for &slot in &missing {
            out[slot * ns..(slot + 1) * ns].copy_from_slice(&compute(positions[slot])?);
        }
        if pinned && !missing.is_empty() && ns * size_of::<f32>() <= self.cache.capacity_bytes {
            self.publish(key, positions, &missing, &out, ns);
        }
        Ok(out)
    }

    /// Keeps the computed rows `missing` of a block (module docs,
    /// *Eviction*), under one lock.
    fn publish(&self, key: Key, positions: &[usize], missing: &[usize], out: &[f32], ns: usize) {
        let row_bytes = ns * size_of::<f32>();
        let mut inner = self.cache.inner.lock();
        inner.clock += 1;
        let CacheInner {
            columns,
            bytes,
            clock,
            ..
        } = &mut *inner;
        // Out of the map while it fills, so no eviction can pick it.
        let mut column = columns.remove(&key).unwrap_or_default();
        column.used = *clock;
        let mut evicted = 0;
        for &slot in missing {
            let position = positions[slot];
            // Another run may have published this row while we computed.
            if column.row(position, ns).is_some() {
                continue;
            }
            while *bytes + row_bytes > self.cache.capacity_bytes {
                let Some(victim) = columns.iter().min_by_key(|(_, c)| c.used).map(|(k, _)| *k)
                else {
                    break;
                };
                let victim = columns.remove(&victim).expect("victim is resident");
                *bytes -= victim.bytes();
                evicted += victim.len;
            }
            if *bytes + row_bytes > self.cache.capacity_bytes {
                break;
            }
            if column.index.len() <= position {
                column.index.resize(position + 1, ABSENT);
            }
            column.index[position] = u32::try_from(column.len).expect("fewer than 2^32 rows");
            column
                .rows
                .extend_from_slice(&out[slot * ns..(slot + 1) * ns]);
            column.len += 1;
            *bytes += row_bytes;
        }
        if column.len > 0 {
            columns.insert(key, column);
        }
        if evicted > 0 {
            self.count(
                &mut inner,
                CacheStats {
                    evictions: evicted,
                    ..CacheStats::default()
                },
            );
        }
    }

    /// Adds `delta` to the cache's tally and to this run's.
    fn count(&self, inner: &mut CacheInner, delta: CacheStats) {
        inner.stats.accumulate(&delta);
        self.stats.lock().accumulate(&delta);
    }

    /// This run's lookups so far.
    pub(crate) fn stats(&self) -> CacheStats {
        *self.stats.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes currently held.
    fn bytes(cache: &HypothesisCache) -> usize {
        cache.inner.lock().bytes
    }

    /// Columns currently held.
    fn columns(cache: &HypothesisCache) -> usize {
        cache.inner.lock().columns.len()
    }

    fn ok(v: Vec<f32>) -> Result<Vec<f32>, std::convert::Infallible> {
        Ok(v)
    }

    /// What every test hypothesis gives the record at `position`.
    fn row(position: usize, ns: usize) -> Vec<f32> {
        vec![position as f32; ns]
    }

    /// Looks a block up, computing misses with [`row`], checks the block
    /// and returns the positions it computed, in order.
    fn lookup<H: ?Sized, D: ?Sized>(
        run: &CacheRun<'_>,
        h: &H,
        d: &D,
        positions: &[usize],
        ns: usize,
    ) -> Vec<usize> {
        let mut computed = Vec::new();
        let block = run
            .behaviors(h, d, positions, ns, |p| {
                computed.push(p);
                ok(row(p, ns))
            })
            .unwrap();
        let want: Vec<f32> = positions.iter().flat_map(|&p| row(p, ns)).collect();
        assert_eq!(block, want);
        computed
    }

    /// A fresh identity, pinned on `run`.
    fn pinned(run: &CacheRun<'_>, name: &str) -> Arc<String> {
        let value = Arc::new(name.to_string());
        run.pin(&value);
        value
    }

    #[test]
    fn second_lookup_hits() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        assert_eq!(lookup(&run, &*h, &*d, &[0], 2), vec![0]);
        for _ in 0..2 {
            assert!(lookup(&run, &*h, &*d, &[0], 2).is_empty());
        }
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(run.stats(), stats, "one run: its tally is the cache's");
    }

    #[test]
    fn a_block_of_hits_and_misses_computes_each_miss_once() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        assert_eq!(lookup(&run, &*h, &*d, &[4, 0], 3), vec![4, 0]);
        // Hits and misses interleave, out of position order.
        assert_eq!(lookup(&run, &*h, &*d, &[7, 0, 2, 4, 9], 3), vec![7, 2, 9]);
        assert!(lookup(&run, &*h, &*d, &[9, 7, 4, 2, 0], 3).is_empty());
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (7, 5));
        assert_eq!(cache.len(), 5);
        assert_eq!(bytes(&cache), 5 * 3 * size_of::<f32>());
    }

    #[test]
    fn a_zero_byte_cache_keeps_nothing_and_builds_no_column() {
        let cache = HypothesisCache::new(0);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        for _ in 0..2 {
            assert_eq!(lookup(&run, &*h, &*d, &[0, 1], 30), vec![0, 1]);
        }
        assert!(cache.is_empty());
        assert_eq!(columns(&cache), 0);
        assert_eq!(bytes(&cache), 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 4, 0));
    }

    #[test]
    fn identities_and_positions_are_separate_keys() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        // Equal contents, distinct allocations: distinct identities.
        let (h1, h2) = (pinned(&run, "h"), pinned(&run, "h"));
        let (d1, d2) = (pinned(&run, "d"), pinned(&run, "d"));
        for (h, d, pos) in [(&h1, &d1, 0), (&h1, &d2, 0), (&h1, &d1, 1), (&h2, &d1, 0)] {
            assert_eq!(lookup(&run, &**h, &**d, &[pos], 1), vec![pos]);
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(columns(&cache), 3);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn an_unpinned_identity_computes_uncached() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let h = pinned(&run, "h");
        let unpinned = Arc::new("d".to_string());
        for _ in 0..2 {
            assert_eq!(lookup(&run, &*h, &*unpinned, &[0], 1), vec![0]);
        }
        assert!(cache.is_empty());
        assert_eq!(columns(&cache), 0);
        assert_eq!(cache.stats().misses, 2, "every lookup is counted");
    }

    #[test]
    fn a_dropped_identity_is_dropped_with_its_entries_at_the_next_pin() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        let gone = pinned(&run, "gone");
        lookup(&run, &*h, &*d, &[0], 4);
        lookup(&run, &*h, &*gone, &[0], 4);
        drop(gone);
        // Nothing moves until the next pin of a new identity.
        assert_eq!(cache.len(), 2);
        run.pin(&h);
        assert_eq!(
            cache.len(),
            2,
            "re-pinning a pinned identity sweeps nothing"
        );
        let _fresh = pinned(&run, "fresh");
        assert_eq!(cache.len(), 1);
        assert_eq!(bytes(&cache), 4 * std::mem::size_of::<f32>());
        assert_eq!(cache.inner.lock().pins.len(), 3, "h, d and fresh");
        assert!(lookup(&run, &*h, &*d, &[0], 4).is_empty());
        assert_eq!(cache.stats().evictions, 0, "a sweep is not an eviction");
    }

    #[test]
    fn a_dead_datasets_column_goes_at_the_next_pin_and_a_new_one_misses() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let h = pinned(&run, "h");
        let small = pinned(&run, "dataset");
        lookup(&run, &*h, &*small, &[0, 1, 2], 2);
        drop(small);
        // The sweep at this pin drops the dead column with its `Weak`, so
        // from then on a grown dataset may sit at the freed address: it
        // must miss, not read the old column's index.
        let grown = pinned(&run, "dataset");
        assert!(cache.is_empty(), "the pin swept the dead column");
        assert_eq!(bytes(&cache), 0);
        let positions: Vec<usize> = (0..8).rev().collect();
        assert_eq!(lookup(&run, &*h, &*grown, &positions, 2), positions);
        assert_eq!(cache.len(), 8);
        assert_eq!(bytes(&cache), 8 * 2 * size_of::<f32>());
    }

    #[test]
    fn lru_evicts_oldest_beyond_budget() {
        // Budget of 2 columns x 2 rows x 4 floats.
        let cache = HypothesisCache::new(2 * 2 * 16);
        let run = CacheRun::new(&cache);
        let d = pinned(&run, "d");
        let [a, b, c] = ["a", "b", "c"].map(|h| pinned(&run, h));
        lookup(&run, &*a, &*d, &[0, 1], 4);
        lookup(&run, &*b, &*d, &[0, 1], 4);
        // Touch "a" so "b" becomes the LRU victim.
        assert!(lookup(&run, &*a, &*d, &[1], 4).is_empty());
        lookup(&run, &*c, &*d, &[0, 1], 4);
        assert_eq!(cache.stats().evictions, 2, "b's two rows");
        assert_eq!(run.stats().evictions, 2);
        assert!(lookup(&run, &*a, &*d, &[0, 1], 4).is_empty());
        assert!(lookup(&run, &*c, &*d, &[0, 1], 4).is_empty());
        assert_eq!(
            lookup(&run, &*b, &*d, &[0, 1], 4),
            vec![0, 1],
            "b must have been evicted"
        );
    }

    #[test]
    fn the_column_being_filled_is_never_evicted_and_what_does_not_fit_is_not_kept() {
        // Budget of 4 rows x 4 floats; one column of 6 rows does not fit.
        let cache = HypothesisCache::new(4 * 16);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        assert_eq!(lookup(&run, &*h, &*d, &[0, 1, 2, 3, 4, 5], 4).len(), 6);
        assert_eq!(cache.len(), 4, "the first rows that fit are kept");
        assert_eq!(bytes(&cache), 4 * 16);
        assert_eq!(cache.stats().evictions, 0);
        assert!(lookup(&run, &*h, &*d, &[0, 1, 2, 3], 4).is_empty());
        assert_eq!(lookup(&run, &*h, &*d, &[4, 5], 4), vec![4, 5]);
    }

    #[test]
    fn concurrent_duplicate_misses_charge_the_bytes_once() {
        // Two runs miss on the same block and both compute. The loser of
        // the publish race must keep the winner's rows: a second row per
        // position would charge `bytes` twice, so a long-lived shared
        // cache would evict spuriously.
        let cache = HypothesisCache::new(1 << 20);
        let (h, d) = (Arc::new("h"), Arc::new("d"));
        let barrier = std::sync::Barrier::new(2);
        let runs = [CacheRun::new(&cache), CacheRun::new(&cache)];
        let positions = [3, 1, 2, 0];
        let results: Vec<Vec<f32>> = std::thread::scope(|s| {
            let handles: Vec<_> = runs
                .iter()
                .map(|run| {
                    let (h, d, barrier) = (&h, &d, &barrier);
                    s.spawn(move || {
                        run.pin(h);
                        run.pin(d);
                        run.behaviors(&**h, &**d, &positions, 64, |p| {
                            // Both threads are inside `compute` at the
                            // same time, so both necessarily missed.
                            if p == positions[0] {
                                barrier.wait();
                            }
                            ok(row(p, 64))
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 4, "one row per position");
        assert_eq!(
            bytes(&cache),
            4 * 64 * std::mem::size_of::<f32>(),
            "bytes must match the rows cached once"
        );
        assert_eq!(cache.stats().misses, 8, "both blocks were real misses");
        assert!(runs.iter().all(|run| run.stats().misses == 4));
        assert_eq!(results[0], results[1]);
        let run = CacheRun::new(&cache);
        assert!(lookup(&run, &*h, &*d, &positions, 64).is_empty());
    }

    #[test]
    fn filling_past_capacity_evicts_and_keeps_accounting_consistent() {
        // Budget of exactly 4 rows x 10 floats (40 bytes each); five
        // hypotheses fill a column of 4 rows each, one row per block.
        let row_bytes = 10 * std::mem::size_of::<f32>();
        let cache = HypothesisCache::new(4 * row_bytes);
        let run = CacheRun::new(&cache);
        let d = pinned(&run, "d");
        let hyps: Vec<_> = (0..5).map(|i| pinned(&run, &format!("h{i}"))).collect();
        for h in &hyps {
            for i in 0..4 {
                lookup(&run, &**h, &*d, &[i], 10);
                // The budget is enforced after every insert, not eventually.
                assert!(
                    bytes(&cache) <= 4 * row_bytes,
                    "bytes {} over budget after insert {i}",
                    bytes(&cache)
                );
            }
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 20, "every distinct key misses once");
        assert_eq!(stats.hits, 0);
        assert_eq!(cache.len(), 4, "budget holds exactly 4 rows");
        assert_eq!(columns(&cache), 1, "each new column evicted the last");
        assert_eq!(
            stats.evictions,
            stats.misses - cache.len(),
            "every row beyond capacity was evicted once"
        );
        assert_eq!(
            bytes(&cache),
            cache.len() * row_bytes,
            "bytes equals the resident rows"
        );
        // Resident rows still serve hits without recomputation.
        assert!(lookup(&run, &*hyps[4], &*d, &[0, 1, 2, 3], 10).is_empty());
        assert_eq!(cache.stats().misses, 20);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn concurrent_fills_past_capacity_stay_consistent() {
        // 8 runs, each filling its own hypothesis's column of 4 rows, two
        // rows per block, under a budget of 6 rows: eviction races with
        // insertion from every thread, but bytes/len/stats must stay
        // mutually consistent and under budget throughout.
        let row_bytes = 8 * std::mem::size_of::<f32>();
        let budget = 6 * row_bytes;
        let cache = HypothesisCache::new(budget);
        let d = Arc::new("d");
        let hyps: Vec<_> = (0..8).map(|t| Arc::new(format!("h{t}"))).collect();
        let tallies: Vec<CacheStats> = std::thread::scope(|s| {
            let handles: Vec<_> = hyps
                .iter()
                .map(|h| {
                    let (cache, d) = (&cache, &d);
                    s.spawn(move || {
                        let run = CacheRun::new(cache);
                        run.pin(h);
                        run.pin(d);
                        for block in [[0, 1], [2, 3]] {
                            assert_eq!(lookup(&run, &**h, &**d, &block, 8), block);
                            assert!(bytes(cache) <= budget, "over budget mid-race");
                        }
                        run.stats()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let stats = cache.stats();
        assert_eq!(
            stats.misses,
            8 * 4,
            "all keys distinct: every lookup missed"
        );
        assert_eq!(stats.hits, 0);
        assert!(tallies.iter().all(|t| t.misses == 4 && t.hits == 0));
        assert_eq!(
            tallies.iter().map(|t| t.evictions).sum::<usize>(),
            stats.evictions,
            "each eviction is charged to the run whose insert caused it"
        );
        assert!(cache.len() <= 6);
        assert!(!cache.is_empty());
        assert_eq!(bytes(&cache), cache.len() * row_bytes);
        assert_eq!(stats.evictions, stats.misses - cache.len());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        let r = run.behaviors(&*h, &*d, &[0], 1, |_| Err("boom".to_string()));
        assert!(r.is_err());
        assert_eq!(lookup(&run, &*h, &*d, &[0], 1), vec![0]);
        assert_eq!(run.stats().misses, 2, "the failed lookup counts too");
    }

    #[test]
    fn byte_accounting() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        lookup(&run, &*h, &*d, &[0], 100);
        assert_eq!(bytes(&cache), 400);
    }
}
