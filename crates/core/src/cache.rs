//! Hypothesis-behavior cache (paper §5.1.2 / Fig. 9).
//!
//! During model development the hypothesis library and test set stay fixed
//! while the model changes; DeepBase therefore caches hypothesis behaviors
//! keyed by `(dataset id, hypothesis id, record id)` with a byte-budgeted
//! LRU policy, so re-running the same analysis on a new model skips
//! hypothesis extraction entirely. Per-record granularity lets the cache
//! serve both the materializing engines (whole-dataset passes) and the
//! streaming engine (block-at-a-time), and composes with early stopping:
//! a first run that converged after 20% of the records caches exactly
//! those records.

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

impl CacheStats {
    /// Counter movement since an earlier snapshot (used for per-batch
    /// deltas of a long-lived session cache).
    pub(crate) fn delta_since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits - before.hits,
            misses: self.misses - before.misses,
            evictions: self.evictions - before.evictions,
        }
    }
}

type Key = (String, String, usize);

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
                clock: 0,
                bytes: 0,
                stats: CacheStats::default(),
            }),
        })
    }

    /// Fetches the behavior of one hypothesis on one record, running
    /// `compute` on a miss. Failed computations are not cached.
    pub(crate) fn get_or_compute<E>(
        &self,
        dataset_id: &str,
        hyp_id: &str,
        record_id: usize,
        compute: impl FnOnce() -> Result<Vec<f32>, E>,
    ) -> Result<Arc<Vec<f32>>, E> {
        let key = (dataset_id.to_string(), hyp_id.to_string(), record_id);
        {
            let mut inner = self.inner.lock();
            inner.clock += 1;
            let clock = inner.clock;
            if let Some(entry) = inner.map.get_mut(&key) {
                entry.1 = clock;
                let hit = Arc::clone(&entry.0);
                inner.stats.hits += 1;
                return Ok(hit);
            }
            inner.stats.misses += 1;
        }
        let value = Arc::new(compute()?);
        let mut inner = self.inner.lock();
        inner.clock += 1;
        let clock = inner.clock;
        // Another thread may have missed on the same key concurrently and
        // published its result while we were computing. Reuse that entry:
        // blindly inserting would overwrite it while `bytes` kept both
        // charges, drifting the byte accounting upward forever and causing
        // spurious evictions under a long-lived shared batch cache.
        if let Some(existing) = inner.map.get_mut(&key) {
            existing.1 = clock;
            return Ok(Arc::clone(&existing.0));
        }
        let size = value.len() * std::mem::size_of::<f32>();
        inner.bytes += size;
        inner.map.insert(key, (Arc::clone(&value), clock));
        while inner.bytes > self.capacity_bytes && inner.map.len() > 1 {
            let victim = inner
                .map
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k.clone())
                .expect("non-empty map");
            if let Some((evicted, _)) = inner.map.remove(&victim) {
                inner.bytes -= evicted.len() * std::mem::size_of::<f32>();
                inner.stats.evictions += 1;
            }
        }
        Ok(value)
    }

    /// Current statistics.
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

#[cfg(test)]
mod tests {
    use super::*;

    /// Bytes currently pinned.
    fn bytes(cache: &HypothesisCache) -> usize {
        cache.inner.lock().bytes
    }

    fn ok(v: Vec<f32>) -> Result<Vec<f32>, std::convert::Infallible> {
        Ok(v)
    }

    #[test]
    fn second_lookup_hits() {
        let cache = HypothesisCache::new(1 << 20);
        let mut computes = 0;
        for _ in 0..3 {
            let v = cache
                .get_or_compute("d", "h", 0, || {
                    computes += 1;
                    ok(vec![1.0, 2.0])
                })
                .unwrap();
            assert_eq!(v.as_slice(), &[1.0, 2.0]);
        }
        assert_eq!(computes, 1);
        let stats = cache.stats();
        assert_eq!(stats.hits, 2);
        assert_eq!(stats.misses, 1);
    }

    #[test]
    fn distinct_keys_are_separate() {
        let cache = HypothesisCache::new(1 << 20);
        cache
            .get_or_compute("d1", "h", 0, || ok(vec![1.0]))
            .unwrap();
        cache
            .get_or_compute("d2", "h", 0, || ok(vec![2.0]))
            .unwrap();
        cache
            .get_or_compute("d1", "h", 1, || ok(vec![3.0]))
            .unwrap();
        cache
            .get_or_compute("d1", "h2", 0, || ok(vec![4.0]))
            .unwrap();
        assert_eq!(cache.len(), 4);
    }

    #[test]
    fn lru_evicts_oldest_beyond_budget() {
        // Budget of 2 entries x 4 floats.
        let cache = HypothesisCache::new(32);
        cache
            .get_or_compute("d", "a", 0, || ok(vec![0.0; 4]))
            .unwrap();
        cache
            .get_or_compute("d", "b", 0, || ok(vec![0.0; 4]))
            .unwrap();
        // Touch "a" so "b" becomes the LRU victim.
        cache
            .get_or_compute(
                "d",
                "a",
                0,
                || -> Result<Vec<f32>, std::convert::Infallible> { unreachable!("must hit") },
            )
            .unwrap();
        cache
            .get_or_compute("d", "c", 0, || ok(vec![0.0; 4]))
            .unwrap();
        assert_eq!(cache.stats().evictions, 1);
        let mut b_recomputed = false;
        cache
            .get_or_compute("d", "b", 0, || {
                b_recomputed = true;
                ok(vec![0.0; 4])
            })
            .unwrap();
        assert!(b_recomputed, "b must have been evicted");
    }

    #[test]
    fn concurrent_duplicate_misses_do_not_leak_bytes() {
        // Two threads miss on the same key and both compute. The loser of
        // the publish race must reuse the winner's entry: historically the
        // second insert overwrote the first while `bytes` was charged
        // twice, so `bytes` drifted upward forever and a long-lived shared
        // batch cache evicted spuriously.
        let cache = HypothesisCache::new(1 << 20);
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let results: Vec<Arc<Vec<f32>>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..2)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let barrier = Arc::clone(&barrier);
                    s.spawn(move || {
                        cache
                            .get_or_compute("d", "h", 0, || {
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
        for i in 0..20 {
            cache
                .get_or_compute("d", "h", i, || ok(vec![0.5; 10]))
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
        let before = cache.stats().misses;
        for i in 16..20 {
            cache
                .get_or_compute(
                    "d",
                    "h",
                    i,
                    || -> Result<Vec<f32>, std::convert::Infallible> {
                        unreachable!("recent entries must be resident")
                    },
                )
                .unwrap();
        }
        assert_eq!(cache.stats().misses, before);
        assert_eq!(cache.stats().hits, 4);
    }

    #[test]
    fn concurrent_fills_past_capacity_stay_consistent() {
        // 8 threads x 16 distinct keys, budget of 6 entries: eviction
        // races with insertion from every thread, but bytes/len/stats
        // must stay mutually consistent and under budget throughout.
        let entry_bytes = 8 * std::mem::size_of::<f32>();
        let budget = 6 * entry_bytes;
        let cache = HypothesisCache::new(budget);
        std::thread::scope(|s| {
            for t in 0..8usize {
                let cache = Arc::clone(&cache);
                s.spawn(move || {
                    for i in 0..16usize {
                        let v = cache
                            .get_or_compute("d", "h", t * 16 + i, || ok(vec![t as f32; 8]))
                            .unwrap();
                        assert_eq!(v.len(), 8);
                        assert!(bytes(&cache) <= budget, "over budget mid-race");
                    }
                });
            }
        });
        let stats = cache.stats();
        assert_eq!(
            stats.hits + stats.misses,
            8 * 16,
            "every lookup is counted exactly once"
        );
        assert_eq!(
            stats.misses,
            8 * 16,
            "all keys distinct: every lookup missed"
        );
        assert!(cache.len() <= 6);
        assert!(!cache.is_empty());
        assert_eq!(bytes(&cache), cache.len() * entry_bytes);
        assert_eq!(stats.evictions, stats.misses - cache.len());
    }

    #[test]
    fn errors_are_not_cached() {
        let cache = HypothesisCache::new(1 << 20);
        let r: Result<_, String> = cache.get_or_compute("d", "h", 0, || Err("boom".to_string()));
        assert!(r.is_err());
        let mut recomputed = false;
        cache
            .get_or_compute("d", "h", 0, || {
                recomputed = true;
                ok(vec![1.0])
            })
            .unwrap();
        assert!(recomputed);
    }

    #[test]
    fn byte_accounting() {
        let cache = HypothesisCache::new(1 << 20);
        cache
            .get_or_compute("d", "h", 0, || ok(vec![0.0; 100]))
            .unwrap();
        assert_eq!(bytes(&cache), 400);
    }
}
