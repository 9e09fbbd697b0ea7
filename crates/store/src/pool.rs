//! The buffer pool: decoded block pages cached in memory under a byte
//! budget, with **CLOCK** (second-chance) eviction.
//!
//! The frame map is keyed by *column*: one entry per stored column holding
//! a slot per block. A scan fetches everything it needs of one column in
//! one call — [`BufferPool::fetch_column`] looks up every resident page
//! among the requested blocks under **one** critical section and returns a
//! [`ColumnFetch`] holding their pages; the scan loads the pages that were
//! missing (outside the lock), hands them to [`ColumnFetch::install`] (one
//! more critical section for all of them) and copies rows out.
//!
//! A page is an immutable `Arc`, so a fetch — or a pass that keeps the
//! page past its fetch (`ColumnFetch::shared_page`) — reads it whatever
//! the pool does next: CLOCK may evict its frame, a purge may drop it and
//! compaction may delete its file. Nothing pins a frame, so resident
//! frames stay within the budget at all times. The store charges the pages
//! every pass keeps to one reservation bounded by this pool's budget, so
//! decoded pages in memory — frames plus kept pages — stay within twice
//! the budget, however many passes run at once.
//!
//! Eviction runs at install/insert time when the budget is exceeded: the
//! clock hand sweeps the frame table, granting each referenced frame a
//! second chance (clearing its bit) and evicting the first unreferenced
//! frame it meets.

use crate::store::ColumnKey;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::Arc;

/// Pool-wide counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Lookups served from memory.
    pub hits: usize,
    /// Lookups that had to load the page.
    pub misses: usize,
    /// Frames evicted by the CLOCK sweep.
    pub evictions: usize,
    /// Bytes currently resident.
    pub resident_bytes: usize,
    /// Pages currently resident.
    pub resident_pages: usize,
}

struct Frame {
    column: ColumnKey,
    block: u32,
    data: Arc<Vec<f32>>,
    referenced: bool,
}

impl Frame {
    fn bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }
}

/// "No frame" in [`ColumnFrames::slots`].
const NO_SLOT: u32 = u32::MAX;

/// The resident pages of one column.
#[derive(Default)]
struct ColumnFrames {
    /// Frame-table slot per block index (`NO_SLOT` = not resident).
    slots: Vec<u32>,
    /// How many entries of `slots` name a frame.
    live: u32,
}

impl ColumnFrames {
    fn slot(&self, block: u32) -> Option<usize> {
        match self.slots.get(block as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }
}

struct PoolInner {
    /// Frame table; `None` slots are free (CLOCK needs stable indices).
    slots: Vec<Option<Frame>>,
    free: Vec<usize>,
    columns: HashMap<ColumnKey, ColumnFrames>,
    /// Resident pages over all columns.
    pages: usize,
    hand: usize,
    bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PoolInner {
    /// Evicts until `bytes <= budget`. Returns how many frames were
    /// evicted. Every frame is evictable, so the sweep ends: a frame whose
    /// bit it cleared is the victim when the hand comes round again.
    fn enforce_budget(&mut self, budget: usize) -> usize {
        let mut evicted = 0;
        while self.bytes > budget {
            let idx = self.hand % self.slots.len();
            self.hand = (idx + 1) % self.slots.len();
            let Some(frame) = &mut self.slots[idx] else {
                continue;
            };
            if frame.referenced {
                frame.referenced = false; // second chance
                continue;
            }
            let frame = self.slots[idx].take().expect("checked above");
            self.bytes -= frame.bytes();
            self.free.push(idx);
            let frames = self
                .columns
                .get_mut(&frame.column)
                .expect("resident frame's column is mapped");
            frames.slots[frame.block as usize] = NO_SLOT;
            frames.live -= 1;
            if frames.live == 0 {
                self.columns.remove(&frame.column);
            }
            self.pages -= 1;
            self.evictions += 1;
            evicted += 1;
        }
        evicted
    }

    fn install(&mut self, column: &ColumnKey, block: u32, data: Arc<Vec<f32>>) {
        let frame = Frame {
            column: *column,
            block,
            data,
            referenced: true,
        };
        self.bytes += frame.bytes();
        let idx = match self.free.pop() {
            Some(idx) => {
                self.slots[idx] = Some(frame);
                idx
            }
            None => {
                self.slots.push(Some(frame));
                self.slots.len() - 1
            }
        };
        let frames = self.columns.entry(*column).or_default();
        if frames.slots.len() <= block as usize {
            frames.slots.resize(block as usize + 1, NO_SLOT);
        }
        frames.slots[block as usize] = idx as u32;
        frames.live += 1;
        self.pages += 1;
    }
}

/// Marks the frame at `idx` of the frame table referenced and returns its
/// page (a free function so a caller can hold the column map borrowed).
fn touch_frame(slots: &mut [Option<Frame>], idx: usize) -> Arc<Vec<f32>> {
    let frame = slots[idx].as_mut().expect("mapped frame exists");
    frame.referenced = true;
    Arc::clone(&frame.data)
}

/// A byte-budgeted page cache shared by every scan of a
/// [`crate::BehaviorStore`].
pub struct BufferPool {
    budget_bytes: usize,
    inner: Mutex<PoolInner>,
}

impl BufferPool {
    /// Creates a pool with the given byte budget.
    pub fn new(budget_bytes: usize) -> BufferPool {
        BufferPool {
            budget_bytes,
            inner: Mutex::new(PoolInner {
                slots: Vec::new(),
                free: Vec::new(),
                columns: HashMap::new(),
                pages: 0,
                hand: 0,
                bytes: 0,
                hits: 0,
                misses: 0,
                evictions: 0,
            }),
        }
    }

    /// Starts one column fetch: under one critical section, takes the page
    /// of every resident block among `blocks` (distinct block indices of
    /// `column`) and counts the rest as misses. The caller loads the
    /// missing pages (outside the lock) and hands them to
    /// [`ColumnFetch::install`].
    pub fn fetch_column<'p>(&'p self, column: &ColumnKey, blocks: &'p [u32]) -> ColumnFetch<'p> {
        let mut pages = Vec::with_capacity(blocks.len());
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // One map lookup for the whole fetch.
        let frames = inner.columns.get(column);
        for &block in blocks {
            let slot = frames.and_then(|f| f.slot(block));
            pages.push(slot.map(|idx| touch_frame(&mut inner.slots, idx)));
        }
        let hits = pages.iter().flatten().count();
        inner.hits += hits;
        inner.misses += blocks.len() - hits;
        drop(guard);
        ColumnFetch {
            pool: self,
            column: *column,
            blocks,
            pages,
            hits,
            evictions: 0,
        }
    }

    /// Inserts (or refreshes) a page — the write-back path pushes freshly
    /// persisted blocks through the pool so the next scan hits memory.
    /// Returns the evictions the insert caused.
    pub fn insert(&self, column: &ColumnKey, block: u32, data: Vec<f32>) -> usize {
        let mut inner = self.inner.lock();
        match inner.columns.get(column).and_then(|f| f.slot(block)) {
            Some(idx) => {
                let frame = inner.slots[idx].as_mut().expect("mapped frame exists");
                let old = frame.bytes();
                frame.data = Arc::new(data);
                frame.referenced = true;
                let new = frame.bytes();
                inner.bytes = inner.bytes - old + new;
            }
            None => inner.install(column, block, Arc::new(data)),
        }
        inner.enforce_budget(self.budget_bytes)
    }

    /// Drops every resident page of one column (quarantine, overwrite
    /// and disk-eviction support) — one map lookup. A fetch that already
    /// took one of its pages keeps reading it.
    pub fn purge_column(&self, column: &ColumnKey) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(frames) = inner.columns.remove(column) else {
            return;
        };
        for slot in frames.slots.into_iter().filter(|&s| s != NO_SLOT) {
            let frame = inner.slots[slot as usize]
                .take()
                .expect("mapped frame exists");
            inner.bytes -= frame.bytes();
            inner.free.push(slot as usize);
        }
        inner.pages -= frames.live as usize;
    }

    /// Cross-checks the pool's running counters and the column map against
    /// the frame table. `resident_bytes` must equal the sum of every
    /// resident frame's **decoded** size (what actually occupies memory —
    /// pages are decompressed before they enter the pool, so on-disk
    /// compressed sizes never leak into the budget); every column entry
    /// must name exactly its frames, block by block, with a matching
    /// `live` count and no empty entry left behind. Returns a description
    /// of the first inconsistency found.
    pub fn verify_accounting(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let frame_bytes: usize = inner.slots.iter().flatten().map(|f| f.bytes()).sum();
        if frame_bytes != inner.bytes {
            return Err(format!(
                "resident_bytes {} != sum of frame bytes {frame_bytes}",
                inner.bytes
            ));
        }
        let resident = inner.slots.iter().flatten().count();
        if resident != inner.pages {
            return Err(format!(
                "page counter says {} but {resident} frames exist",
                inner.pages
            ));
        }
        let mut mapped = 0;
        for (column, frames) in &inner.columns {
            if frames.live == 0 {
                return Err(format!("empty map entry left for {column:?}"));
            }
            let mut named = 0;
            for (block, &slot) in frames.slots.iter().enumerate() {
                if slot == NO_SLOT {
                    continue;
                }
                named += 1;
                match inner.slots.get(slot as usize).and_then(|s| s.as_ref()) {
                    Some(f) if f.column == *column && f.block as usize == block => {}
                    _ => {
                        return Err(format!(
                            "map entry for {column:?} block {block} points at a wrong frame"
                        ))
                    }
                }
            }
            if named != frames.live as usize {
                return Err(format!(
                    "{column:?} counts live {} but names {named} frames",
                    frames.live
                ));
            }
            mapped += named;
        }
        if mapped != resident {
            return Err(format!(
                "map names {mapped} frames but {resident} frames exist"
            ));
        }
        Ok(())
    }

    /// Current statistics.
    pub fn stats(&self) -> PoolStats {
        let inner = self.inner.lock();
        PoolStats {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident_bytes: inner.bytes,
            resident_pages: inner.pages,
        }
    }
}

/// The pages of one column fetch (see [`BufferPool::fetch_column`]): entry
/// `i` belongs to the `i`-th requested block. The pages are shared `Arc`s,
/// readable however the pool changes after the lookup.
pub struct ColumnFetch<'p> {
    pool: &'p BufferPool,
    column: ColumnKey,
    blocks: &'p [u32],
    /// Page per requested block; `None` until loaded.
    pages: Vec<Option<Arc<Vec<f32>>>>,
    /// How many of the requested blocks were served from memory.
    pub hits: usize,
    /// Frames evicted to make room for this fetch's installs.
    pub evictions: usize,
}

impl ColumnFetch<'_> {
    /// The page of the `i`-th requested block, `None` while it is missing.
    pub fn page(&self, i: usize) -> Option<&[f32]> {
        self.pages[i].as_deref().map(Vec::as_slice)
    }

    /// The shared page of the `i`-th requested block, for a caller that
    /// keeps it past the fetch.
    pub(crate) fn shared_page(&self, i: usize) -> Option<&Arc<Vec<f32>>> {
        self.pages[i].as_ref()
    }

    /// Indices (into the requested blocks) of the pages still to load.
    pub fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.pages.len()).filter(|&i| self.pages[i].is_none())
    }

    /// Installs this fetch's loaded pages — `(index into the requested
    /// blocks, decoded values)` — under one critical section, then
    /// enforces the budget once.
    pub fn install(&mut self, loaded: impl IntoIterator<Item = (usize, Vec<f32>)>) {
        let mut inner = self.pool.inner.lock();
        for (i, data) in loaded {
            debug_assert!(self.pages[i].is_none(), "page {i} installed twice");
            let block = self.blocks[i];
            // Another thread may have loaded the same page since the
            // lookup; reuse its frame so bytes are charged once.
            let resident = inner.columns.get(&self.column).and_then(|f| f.slot(block));
            self.pages[i] = Some(match resident {
                Some(idx) => touch_frame(&mut inner.slots, idx),
                None => {
                    let data = Arc::new(data);
                    inner.install(&self.column, block, Arc::clone(&data));
                    data
                }
            });
        }
        self.evictions += inner.enforce_budget(self.pool.budget_bytes);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn col(unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: 1,
            dataset_fp: 2,
            unit,
        }
    }

    fn page(v: f32, len: usize) -> Vec<f32> {
        vec![v; len]
    }

    /// The one-block case of a column fetch: look up, run `load` on a
    /// miss, install.
    fn fetch<'p>(
        pool: &'p BufferPool,
        unit: usize,
        block: &'p [u32; 1],
        load: impl FnOnce() -> Vec<f32>,
    ) -> ColumnFetch<'p> {
        let mut fetch = pool.fetch_column(&col(unit), block);
        if fetch.hits == 0 {
            fetch.install([(0, load())]);
        }
        fetch
    }

    fn must_hit() -> Vec<f32> {
        unreachable!("must hit")
    }

    #[test]
    fn hit_after_miss_and_stats() {
        let pool = BufferPool::new(1 << 20);
        let p = fetch(&pool, 0, &[0], || page(1.0, 8));
        assert_eq!(p.hits, 0);
        assert_eq!(&p.page(0).unwrap()[..2], &[1.0, 1.0]);
        let p = fetch(&pool, 0, &[0], must_hit);
        assert_eq!(p.hits, 1);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 8 * 4);
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn one_fetch_takes_the_resident_pages_and_installs_the_rest_together() {
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 1, page(1.0, 4));
        pool.insert(&col(0), 3, page(3.0, 4));
        pool.insert(&col(1), 0, page(9.0, 4));
        let blocks = [0u32, 1, 3, 5];
        let mut fetched = pool.fetch_column(&col(0), &blocks);
        assert_eq!(fetched.hits, 2);
        assert_eq!(fetched.missing().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(fetched.page(1).unwrap()[0], 1.0);
        assert!(fetched.page(0).is_none());
        fetched.install([(0, page(0.5, 4)), (3, page(5.0, 4))]);
        assert_eq!(fetched.missing().count(), 0);
        let got: Vec<f32> = (0..4).map(|i| fetched.page(i).unwrap()[0]).collect();
        assert_eq!(got, vec![0.5, 1.0, 3.0, 5.0]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.resident_pages, 5);
        pool.verify_accounting().unwrap();
        // Everything the fetch installed is resident for the next one.
        let again = pool.fetch_column(&col(0), &blocks);
        assert_eq!(again.hits, 4);
    }

    #[test]
    fn clock_gives_a_referenced_frame_a_second_chance() {
        // Budget: 2 pages of 8 floats (32 bytes each).
        let pool = BufferPool::new(64);
        pool.insert(&col(0), 0, page(0.0, 8));
        pool.insert(&col(1), 0, page(1.0, 8));
        // The third page sweeps every bit clear and takes page 0.
        assert_eq!(pool.insert(&col(2), 0, page(2.0, 8)), 1);
        // A hit re-references page 1, so the next sweep passes it over
        // and takes page 2.
        assert_eq!(fetch(&pool, 1, &[0], must_hit).hits, 1);
        assert_eq!(pool.insert(&col(3), 0, page(3.0, 8)), 1);
        assert_eq!(fetch(&pool, 1, &[0], must_hit).hits, 1);
        assert_eq!(
            pool.fetch_column(&col(2), &[0]).hits,
            0,
            "page 2 was the victim"
        );
        let s = pool.stats();
        assert_eq!(
            (s.evictions, s.resident_pages, s.resident_bytes),
            (2, 2, 64)
        );
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn a_fetch_reads_its_pages_after_eviction_and_purge() {
        let pool = BufferPool::new(32); // one 8-float page
        let first = fetch(&pool, 0, &[0], || page(0.0, 8));
        // The second install evicts the first fetch's frame: the pool
        // stays within its budget and the fetch still reads its page.
        let second = fetch(&pool, 1, &[0], || page(1.0, 8));
        assert_eq!(second.evictions, 1);
        let s = pool.stats();
        assert_eq!((s.resident_pages, s.resident_bytes), (1, 32));
        pool.purge_column(&col(1));
        assert_eq!(pool.stats().resident_bytes, 0);
        assert_eq!(first.page(0).unwrap(), page(0.0, 8).as_slice());
        assert_eq!(second.page(0).unwrap(), page(1.0, 8).as_slice());
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn insert_populates_and_refreshes_in_place() {
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 0, page(7.0, 4));
        let p = fetch(&pool, 0, &[0], must_hit);
        assert_eq!(p.hits, 1);
        assert_eq!(&p.page(0).unwrap()[..1], &[7.0]);
        // Refresh replaces bytes accounting, not duplicates it.
        pool.insert(&col(0), 0, page(8.0, 16));
        assert_eq!(pool.stats().resident_bytes, 16 * 4);
        assert_eq!(&p.page(0).unwrap()[..1], &[7.0], "the fetch keeps its page");
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn purge_column_drops_only_that_column() {
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 0, page(0.0, 4));
        pool.insert(&col(0), 1, page(0.0, 4));
        pool.insert(&col(1), 0, page(1.0, 4));
        pool.purge_column(&col(0));
        let s = pool.stats();
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 4 * 4);
        assert_eq!(fetch(&pool, 1, &[0], must_hit).hits, 1);
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn a_failed_load_installs_nothing() {
        // A fetch whose load fails is just dropped: the missing pages
        // stay missing.
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 0, page(1.0, 4));
        let blocks = [0u32, 1];
        let fetched = pool.fetch_column(&col(0), &blocks);
        assert_eq!((fetched.hits, fetched.missing().count()), (1, 1));
        drop(fetched); // the load errored
        assert_eq!(pool.stats().resident_pages, 1);
        let mut loaded = false;
        fetch(&pool, 0, &[1], || {
            loaded = true;
            page(2.0, 4)
        });
        assert!(loaded, "the failure was not cached");
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn concurrent_same_page_misses_settle_on_one_frame() {
        let pool = BufferPool::new(1 << 20);
        let barrier = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    // Both threads miss before either installs.
                    let mut fetched = pool.fetch_column(&col(0), &[0]);
                    assert_eq!(fetched.hits, 0);
                    barrier.wait();
                    fetched.install([(0, page(3.0, 64))]);
                    assert_eq!(fetched.page(0).unwrap()[0], 3.0);
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 64 * 4, "bytes charged once");
        assert_eq!(s.misses, 2, "both lookups missed");
        // The running counters agree with the frame table: bytes are the
        // decoded frame sizes, charged exactly once per resident frame.
        pool.verify_accounting().unwrap();
    }
}
