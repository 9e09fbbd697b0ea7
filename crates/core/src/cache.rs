//! Hypothesis-behavior cache (paper §5.1.2 / Fig. 9).
//!
//! The hypothesis library and test set stay fixed while the model changes,
//! so DeepBase caches hypothesis behaviors per record under a byte-budgeted
//! LRU policy: re-inspecting a new model skips hypothesis extraction.
//!
//! A behavior is keyed by `(hypothesis identity, dataset identity, record
//! position)`, an identity being the address of the catalog `Arc` a plan
//! bound — never a name. **Pin rule:** a lookup is cached only when both
//! identities are pinned ([`CacheRun::pin`]): the cache then holds a
//! `Weak` to each, which keeps the allocation (the address cannot be
//! reused) and makes `Arc::get_mut` fail (the value cannot change)
//! without keeping the value alive; a dropped value's entries go at the
//! next pin. No stale or foreign hit is possible, so nothing invalidates
//! the cache and a session shares it with its forks.

use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Cache statistics for the Fig. 9 accounting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups that found the behavior.
    pub hits: usize,
    /// Lookups that had to evaluate the hypothesis.
    pub misses: usize,
    /// Entries evicted by the LRU policy.
    pub evictions: usize,
}

type Key = (usize, usize, usize);

/// Address of the value behind a reference, metadata discarded.
fn address<T: ?Sized>(value: &T) -> usize {
    value as *const T as *const u8 as usize
}

/// LRU cache of per-record hypothesis behaviors.
///
/// Recency is tracked with a monotonic access counter per entry (O(1) on
/// the hit path); eviction scans for the minimum counter, which is fine
/// because eviction only happens when the byte budget is exceeded.
pub struct HypothesisCache {
    capacity_bytes: usize,
    inner: Mutex<CacheInner>,
}

struct CacheInner {
    map: HashMap<Key, (Arc<Vec<f32>>, u64)>,
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
                map: HashMap::new(),
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

    /// Number of cached entries.
    pub fn len(&self) -> usize {
        self.inner.lock().map.len()
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
    /// a new identity first drops every dead one, with its entries.
    pub(crate) fn pin<T: ?Sized + Send + Sync + 'static>(&self, value: &Arc<T>) {
        let mut inner = self.cache.inner.lock();
        let CacheInner {
            map, pins, bytes, ..
        } = &mut *inner;
        let at = address(&**value);
        if pins.contains_key(&at) {
            return;
        }
        let pinned = pins.len();
        pins.retain(|_, alive| alive());
        if pins.len() < pinned {
            map.retain(|(h, d, _), (behavior, _)| {
                let live = pins.contains_key(h) && pins.contains_key(d);
                if !live {
                    *bytes -= behavior.len() * size_of::<f32>();
                }
                live
            });
        }
        let weak = Arc::downgrade(value);
        pins.insert(at, Box::new(move || weak.strong_count() > 0));
    }

    /// Fetches the behavior of `hypothesis` on the record at `position` of
    /// `dataset`, running `compute` on a miss. Failed computations are not
    /// cached, and neither is anything on an identity that is not pinned
    /// or a behavior larger than the whole budget.
    pub(crate) fn get_or_compute<H: ?Sized, D: ?Sized, E>(
        &self,
        hypothesis: &H,
        dataset: &D,
        position: usize,
        compute: impl FnOnce() -> Result<Vec<f32>, E>,
    ) -> Result<Arc<Vec<f32>>, E> {
        let key = (address(hypothesis), address(dataset), position);
        let count = |inner: &mut CacheInner, bump: fn(&mut CacheStats)| {
            bump(&mut inner.stats);
            bump(&mut self.stats.lock());
        };
        let pinned = {
            let mut inner = self.cache.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.1 = clock;
                let hit = Arc::clone(&entry.0);
                count(&mut inner, |s| s.hits += 1);
                return Ok(hit);
            }
            count(&mut inner, |s| s.misses += 1);
            inner.pins.contains_key(&key.0) && inner.pins.contains_key(&key.1)
        };
        let value = Arc::new(compute()?);
        let value_bytes = value.len() * size_of::<f32>();
        if !pinned || value_bytes > self.cache.capacity_bytes {
            return Ok(value);
        }
        let mut inner = self.cache.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        // Another run may have missed on the same key concurrently and
        // published its result while we were computing. Reuse that entry:
        // blindly inserting would overwrite it while `bytes` kept both
        // charges, drifting the byte accounting upward forever and causing
        // spurious evictions under a long-lived shared cache.
        if let Some(existing) = inner.map.get_mut(&key) {
            existing.1 = clock;
            return Ok(Arc::clone(&existing.0));
        }
        inner.bytes += value_bytes;
        inner.map.insert(key, (Arc::clone(&value), clock));
        // The new entry is the most recent and fits alone, so it goes last.
        while inner.bytes > self.cache.capacity_bytes {
            let victim = *inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
                .expect("non-empty map");
            if let Some((evicted, _)) = inner.map.remove(&victim) {
                inner.bytes -= evicted.len() * size_of::<f32>();
                count(&mut inner, |s| s.evictions += 1);
            }
        }
        Ok(value)
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

    fn ok(v: Vec<f32>) -> Result<Vec<f32>, std::convert::Infallible> {
        Ok(v)
    }

    fn must_hit() -> Result<Vec<f32>, std::convert::Infallible> {
        unreachable!("must hit")
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
        let mut computes = 0;
        for _ in 0..3 {
            let v = run
                .get_or_compute(&*h, &*d, 0, || {
                    computes += 1;
                    ok(vec![1.0, 2.0])
                })
                .unwrap();
            assert_eq!(v.as_slice(), &[1.0, 2.0]);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses), (2, 1));
        assert_eq!(run.stats(), stats, "one run: its tally is the cache's");
    }

    #[test]
    fn a_behavior_larger_than_the_budget_is_returned_but_not_kept() {
        let cache = HypothesisCache::new(0);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        let mut computes = 0;
        for _ in 0..2 {
            let v = run
                .get_or_compute(&*h, &*d, 0, || {
                    computes += 1;
                    ok(vec![0.5; 30])
                })
                .unwrap();
            assert_eq!(v.len(), 30);
        }
        assert_eq!(computes, 2);
        assert!(cache.is_empty());
        assert_eq!(bytes(&cache), 0);
        let stats = cache.stats();
        assert_eq!((stats.hits, stats.misses, stats.evictions), (0, 2, 0));
    }

    #[test]
    fn identities_and_positions_are_separate_keys() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        // Equal contents, distinct allocations: distinct identities.
        let (h1, h2) = (pinned(&run, "h"), pinned(&run, "h"));
        let (d1, d2) = (pinned(&run, "d"), pinned(&run, "d"));
        for (h, d, pos) in [(&h1, &d1, 0), (&h1, &d2, 0), (&h1, &d1, 1), (&h2, &d1, 0)] {
            run.get_or_compute(&**h, &**d, pos, || ok(vec![pos as f32]))
                .unwrap();
        }
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.stats().misses, 4);
    }

    #[test]
    fn an_unpinned_identity_computes_uncached() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let h = pinned(&run, "h");
        let unpinned = Arc::new("d".to_string());
        let mut computes = 0;
        for _ in 0..2 {
            run.get_or_compute(&*h, &*unpinned, 0, || {
                computes += 1;
                ok(vec![1.0])
            })
            .unwrap();
        }
        assert_eq!(computes, 2);
        assert!(cache.is_empty());
        assert_eq!(cache.stats().misses, 2, "every lookup is counted");
    }

    #[test]
    fn a_dropped_identity_is_dropped_with_its_entries_at_the_next_pin() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        let gone = pinned(&run, "gone");
        run.get_or_compute(&*h, &*d, 0, || ok(vec![0.0; 4]))
            .unwrap();
        run.get_or_compute(&*h, &*gone, 0, || ok(vec![0.0; 4]))
            .unwrap();
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
        run.get_or_compute(&*h, &*d, 0, must_hit).unwrap();
        assert_eq!(cache.stats().evictions, 0, "a sweep is not an eviction");
    }

    #[test]
    fn lru_evicts_oldest_beyond_budget() {
        // Budget of 2 entries x 4 floats.
        let cache = HypothesisCache::new(32);
        let run = CacheRun::new(&cache);
        let d = pinned(&run, "d");
        let [a, b, c] = ["a", "b", "c"].map(|h| pinned(&run, h));
        run.get_or_compute(&*a, &*d, 0, || ok(vec![0.0; 4]))
            .unwrap();
        run.get_or_compute(&*b, &*d, 0, || ok(vec![0.0; 4]))
            .unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        run.get_or_compute(&*a, &*d, 0, must_hit).unwrap();
        run.get_or_compute(&*c, &*d, 0, || ok(vec![0.0; 4]))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        assert_eq!(run.stats().evictions, 1);
        let mut b_recomputed = false;
        run.get_or_compute(&*b, &*d, 0, || {
            b_recomputed = true;
            ok(vec![0.0; 4])
        })
        .unwrap();
        assert!(b_recomputed, "b must have been evicted");
    }

    #[test]
    fn concurrent_duplicate_misses_charge_the_bytes_once() {
        // Two runs miss on the same key and both compute. The loser of
        // the publish race must reuse the winner's entry: historically the
        // second insert overwrote the first while `bytes` was charged
        // twice, so `bytes` drifted upward forever and a long-lived shared
        // cache evicted spuriously.
        let cache = HypothesisCache::new(1 << 20);
        let (h, d) = (Arc::new("h"), Arc::new("d"));
        let barrier = std::sync::Barrier::new(2);
        let runs = [CacheRun::new(&cache), CacheRun::new(&cache)];
        let results: Vec<Arc<Vec<f32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = runs
                .iter()
                .map(|run| {
                    let (h, d, barrier) = (&h, &d, &barrier);
                    s.spawn(move || {
                        run.pin(h);
                        run.pin(d);
                        run.get_or_compute(&**h, &**d, 0, || {
                            // Both threads are inside `compute` at the
                            // same time, so both necessarily missed.
                            barrier.wait();
                            ok(vec![0.0; 64])
                        })
                        .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(cache.len(), 1);
        assert_eq!(
            bytes(&cache),
            64 * std::mem::size_of::<f32>(),
            "bytes must match the single cached entry"
        );
        assert_eq!(cache.stats().misses, 2, "both lookups were real misses");
        assert!(runs.iter().all(|run| run.stats().misses == 1));
        assert!(
            Arc::ptr_eq(&results[0], &results[1]),
            "racing computes must settle on one shared entry"
        );
    }

    #[test]
    fn filling_past_capacity_evicts_and_keeps_accounting_consistent() {
        // Budget of exactly 4 entries x 10 floats (40 bytes each).
        let entry_bytes = 10 * std::mem::size_of::<f32>();
        let cache = HypothesisCache::new(4 * entry_bytes);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        for i in 0..20 {
            run.get_or_compute(&*h, &*d, i, || ok(vec![0.5; 10]))
                .unwrap();
            // The budget is enforced after every insert, not eventually.
            assert!(
                bytes(&cache) <= 4 * entry_bytes,
                "bytes {} over budget after insert {i}",
                bytes(&cache)
            );
        }
        let stats = cache.stats();
        assert_eq!(stats.misses, 20, "every distinct key misses once");
        assert_eq!(stats.hits, 0);
        assert_eq!(cache.len(), 4, "budget holds exactly 4 entries");
        assert_eq!(
            stats.evictions,
            stats.misses - cache.len(),
            "every miss beyond capacity evicted exactly one entry"
        );
        assert_eq!(
            bytes(&cache),
            cache.len() * entry_bytes,
            "bytes() equals the sum of resident entries"
        );
        // Resident entries still serve hits without recomputation.
        for i in 16..20 {
            run.get_or_compute(&*h, &*d, i, must_hit).unwrap();
        }
        assert_eq!(cache.stats().misses, 20);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn concurrent_fills_past_capacity_stay_consistent() {
        // 8 runs x 16 distinct keys, budget of 6 entries: eviction races
        // with insertion from every thread, but bytes/len/stats must stay
        // mutually consistent and under budget throughout.
        let entry_bytes = 8 * std::mem::size_of::<f32>();
        let budget = 6 * entry_bytes;
        let cache = HypothesisCache::new(budget);
        let (h, d) = (Arc::new("h"), Arc::new("d"));
        let tallies: Vec<CacheStats> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8usize)
                .map(|t| {
                    let (cache, h, d) = (&cache, &h, &d);
                    s.spawn(move || {
                        let run = CacheRun::new(cache);
                        run.pin(h);
                        run.pin(d);
                        for i in 0..16usize {
                            let v = run
                                .get_or_compute(&**h, &**d, t * 16 + i, || ok(vec![t as f32; 8]))
                                .unwrap();
                            assert_eq!(v.len(), 8);
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
            8 * 16,
            "all keys distinct: every lookup missed"
        );
        assert_eq!(stats.hits, 0);
        assert!(tallies.iter().all(|t| t.misses == 16 && t.hits == 0));
        assert_eq!(
            tallies.iter().map(|t| t.evictions).sum::<usize>(),
            stats.evictions,
            "each eviction is charged to the run whose insert caused it"
        );
        assert!(cache.len() <= 6);
        assert!(!cache.is_empty());
        assert_eq!(bytes(&cache), cache.len() * entry_bytes);
        assert_eq!(stats.evictions, stats.misses - cache.len());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        let r: Result<_, String> = run.get_or_compute(&*h, &*d, 0, || Err("boom".to_string()));
        assert!(r.is_err());
        let mut recomputed = false;
        run.get_or_compute(&*h, &*d, 0, || {
            recomputed = true;
            ok(vec![1.0])
        })
        .unwrap();
        assert!(recomputed);
        assert_eq!(run.stats().misses, 2, "the failed lookup counts too");
    }

    #[test]
    fn byte_accounting() {
        let cache = HypothesisCache::new(1 << 20);
        let run = CacheRun::new(&cache);
        let (h, d) = (pinned(&run, "h"), pinned(&run, "d"));
        run.get_or_compute(&*h, &*d, 0, || ok(vec![0.0; 100]))
            .unwrap();
        assert_eq!(bytes(&cache), 400);
    }
}
