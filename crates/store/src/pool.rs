//! The buffer pool: decoded block pages cached in memory under a byte
//! budget, with **pinned pages** and **CLOCK** (second-chance) eviction.
//!
//! The frame map is keyed by *column*: one entry per stored column holding
//! a slot per block. A scan fetches everything it needs of one column in
//! one call — [`BufferPool::pin_column`] pins every resident page among
//! the requested blocks under **one** critical section and returns a
//! [`ColumnPins`] guard; the scan loads the pages that were missing
//! (outside the lock), hands them to [`ColumnPins::install`] (one more
//! critical section for all of them), copies rows out, and drops the
//! guard, which unpins everything under one lock. **Pin lifetime is one
//! column fetch**: nothing holds a pin from one streamed block to the
//! next, so the byte budget, CLOCK eviction under spill and compaction's
//! "never delete a pinned column" rule see the same short pins they
//! always did.
//!
//! A pass may keep the page `Arc`s it fetched (`ColumnPins::shared_page`)
//! so that its later blocks gather without a pool trip. A kept page is not
//! a pin: CLOCK may evict its frame and compaction may delete its file. The
//! store charges the pages every pass keeps to one reservation bounded by
//! this pool's budget, so decoded pages in memory — frames plus kept
//! pages — stay within twice the budget, however many passes run at once.
//!
//! Eviction runs at install/insert time when the budget is exceeded: the
//! clock hand sweeps the frame table, skipping pinned frames, granting
//! each referenced frame a second chance (clearing its bit) and evicting
//! the first unreferenced, unpinned frame it meets. If every frame is
//! pinned the pool temporarily exceeds its budget rather than deadlock.

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
    pins: u32,
    /// Purged while pinned: the frame is out of the map (no new hits)
    /// but its bytes stay charged until the last pin drops, when the
    /// slot is freed. Guarantees a purge never yanks a slot out from
    /// under a live [`ColumnPins`] (whose unpin would otherwise hit a
    /// recycled slot and corrupt another frame's pin count).
    doomed: bool,
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
    /// Frames of this column purged while pinned and not yet released.
    doomed: u32,
}

impl ColumnFrames {
    fn slot(&self, block: u32) -> Option<usize> {
        match self.slots.get(block as usize) {
            Some(&slot) if slot != NO_SLOT => Some(slot as usize),
            _ => None,
        }
    }

    fn is_empty(&self) -> bool {
        self.live == 0 && self.doomed == 0
    }
}

struct PoolInner {
    /// Frame table; `None` slots are free (CLOCK needs stable indices).
    slots: Vec<Option<Frame>>,
    free: Vec<usize>,
    columns: HashMap<ColumnKey, ColumnFrames>,
    /// Mapped (resident, not doomed) pages over all columns.
    pages: usize,
    hand: usize,
    bytes: usize,
    hits: usize,
    misses: usize,
    evictions: usize,
}

impl PoolInner {
    /// Evicts until `bytes <= budget` or nothing evictable remains.
    /// Returns how many frames were evicted.
    fn enforce_budget(&mut self, budget: usize) -> usize {
        let mut evicted = 0;
        let mut scanned_since_progress = 0;
        while self.bytes > budget && !self.slots.is_empty() {
            // Two full sweeps with no progress means everything left is
            // pinned: give up and run over budget until pins drop.
            if scanned_since_progress > 2 * self.slots.len() {
                break;
            }
            let idx = self.hand % self.slots.len();
            self.hand = (self.hand + 1) % self.slots.len();
            scanned_since_progress += 1;
            let Some(frame) = &mut self.slots[idx] else {
                continue;
            };
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false; // second chance
                continue;
            }
            let frame = self.slots[idx].take().expect("checked above");
            self.bytes -= frame.bytes();
            self.free.push(idx);
            // An unpinned frame is never doomed, so it is mapped.
            let frames = self
                .columns
                .get_mut(&frame.column)
                .expect("resident frame's column is mapped");
            frames.slots[frame.block as usize] = NO_SLOT;
            frames.live -= 1;
            if frames.is_empty() {
                self.columns.remove(&frame.column);
            }
            self.pages -= 1;
            self.evictions += 1;
            evicted += 1;
            scanned_since_progress = 0;
        }
        evicted
    }

    fn install(&mut self, column: &ColumnKey, block: u32, data: Arc<Vec<f32>>, pins: u32) -> usize {
        let frame = Frame {
            column: *column,
            block,
            data,
            referenced: true,
            pins,
            doomed: false,
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
        idx
    }

    fn unpin(&mut self, slot: usize) {
        let Some(frame) = self.slots.get_mut(slot).and_then(|s| s.as_mut()) else {
            return;
        };
        frame.pins = frame.pins.saturating_sub(1);
        // A frame purged while pinned leaves once its last pin drops (it
        // is already out of its column's slots).
        if frame.doomed && frame.pins == 0 {
            let frame = self.slots[slot].take().expect("checked above");
            self.bytes -= frame.bytes();
            self.free.push(slot);
            if let Some(frames) = self.columns.get_mut(&frame.column) {
                frames.doomed -= 1;
                if frames.is_empty() {
                    self.columns.remove(&frame.column);
                }
            }
        }
    }
}

/// Pins the frame at `idx` of the frame table and returns its page (a
/// free function so a caller can hold the column map borrowed).
fn pin_frame(slots: &mut [Option<Frame>], idx: usize) -> Arc<Vec<f32>> {
    let frame = slots[idx].as_mut().expect("mapped frame exists");
    frame.referenced = true;
    frame.pins += 1;
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

    /// Starts one column fetch: under one critical section, pins every
    /// resident page among `blocks` (distinct block indices of `column`)
    /// and counts the rest as misses. The caller loads the missing pages
    /// (outside the lock) and hands them to [`ColumnPins::install`]; every
    /// pin drops with the guard.
    pub fn pin_column<'p>(&'p self, column: &ColumnKey, blocks: &'p [u32]) -> ColumnPins<'p> {
        let mut pages = Vec::with_capacity(blocks.len());
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        // One map lookup for the whole fetch.
        let frames = inner.columns.get(column);
        let mut hits = 0;
        for &block in blocks {
            let slot = frames.and_then(|f| f.slot(block));
            pages.push(slot.map(|idx| {
                hits += 1;
                (idx, pin_frame(&mut inner.slots, idx))
            }));
        }
        inner.hits += hits;
        inner.misses += blocks.len() - hits;
        drop(guard);
        ColumnPins {
            pool: self,
            column: *column,
            blocks,
            pages,
            hits,
            evictions: 0,
        }
    }

    /// Inserts (or refreshes) a page without pinning it — the write-back
    /// path pushes freshly persisted blocks through the pool so the next
    /// scan hits memory. Returns the evictions the insert caused.
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
            None => {
                inner.install(column, block, Arc::new(data), 0);
            }
        }
        inner.enforce_budget(self.budget_bytes)
    }

    /// Drops every resident page of one column (quarantine, overwrite
    /// and disk-eviction support) — one map lookup. Pages a concurrent
    /// scan holds pinned are **doomed** instead of dropped: unmapped
    /// immediately (no new lookups find them) but kept resident — and
    /// byte-charged — until the last pin releases, so the pinned reader
    /// finishes against a valid frame.
    pub fn purge_column(&self, column: &ColumnKey) {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        let Some(frames) = inner.columns.get_mut(column) else {
            return;
        };
        for slot in frames.slots.drain(..).filter(|&s| s != NO_SLOT) {
            let idx = slot as usize;
            match &mut inner.slots[idx] {
                Some(frame) if frame.pins > 0 => {
                    frame.doomed = true;
                    frames.doomed += 1;
                }
                slot => {
                    if let Some(frame) = slot.take() {
                        inner.bytes -= frame.bytes();
                        inner.free.push(idx);
                    }
                }
            }
        }
        inner.pages -= frames.live as usize;
        frames.live = 0;
        if frames.is_empty() {
            inner.columns.remove(column);
        }
    }

    /// True when any page of the column — resident, or purged but not yet
    /// released — is currently pinned by a scan (one map lookup). The
    /// disk-budget eviction path refuses to delete a column file while
    /// this holds.
    pub fn column_pinned(&self, column: &ColumnKey) -> bool {
        let inner = self.inner.lock();
        inner.columns.get(column).is_some_and(|frames| {
            frames.doomed > 0
                || frames.slots.iter().any(|&s| {
                    s != NO_SLOT && inner.slots[s as usize].as_ref().is_some_and(|f| f.pins > 0)
                })
        })
    }

    /// Cross-checks the pool's running counters and the column map against
    /// the frame table. `resident_bytes` must equal the sum of every
    /// resident frame's **decoded** size (what actually occupies memory —
    /// pages are decompressed before they enter the pool, so on-disk
    /// compressed sizes never leak into the budget); every column entry
    /// must name exactly its non-doomed frames, block by block, with
    /// matching `live`/`doomed` counts and no empty entry left behind.
    /// Returns a description of the first inconsistency found.
    pub fn verify_accounting(&self) -> Result<(), String> {
        let inner = self.inner.lock();
        let frame_bytes: usize = inner.slots.iter().flatten().map(|f| f.bytes()).sum();
        if frame_bytes != inner.bytes {
            return Err(format!(
                "resident_bytes {} != sum of frame bytes {frame_bytes}",
                inner.bytes
            ));
        }
        let live = inner.slots.iter().flatten().filter(|f| !f.doomed).count();
        if live != inner.pages {
            return Err(format!(
                "page counter says {} but {live} live frames exist",
                inner.pages
            ));
        }
        let mut doomed: HashMap<ColumnKey, u32> = HashMap::new();
        for frame in inner.slots.iter().flatten().filter(|f| f.doomed) {
            *doomed.entry(frame.column).or_default() += 1;
        }
        if let Some(column) = doomed.keys().find(|c| !inner.columns.contains_key(c)) {
            return Err(format!("doomed frames of {column:?} have no map entry"));
        }
        let mut mapped = 0;
        for (column, frames) in &inner.columns {
            if frames.is_empty() {
                return Err(format!("empty map entry left for {column:?}"));
            }
            let mut named = 0;
            for (block, &slot) in frames.slots.iter().enumerate() {
                if slot == NO_SLOT {
                    continue;
                }
                named += 1;
                match inner.slots.get(slot as usize).and_then(|s| s.as_ref()) {
                    Some(f) if f.column == *column && f.block as usize == block && !f.doomed => {}
                    _ => {
                        return Err(format!(
                            "map entry for {column:?} block {block} points at a wrong frame"
                        ))
                    }
                }
            }
            let doomed = doomed.get(column).copied().unwrap_or(0);
            if named != frames.live as usize || doomed != frames.doomed {
                return Err(format!(
                    "{column:?} counts live {} doomed {} but names {named} frames and \
                     {doomed} doomed frames exist",
                    frames.live, frames.doomed
                ));
            }
            mapped += named;
        }
        if mapped != live {
            return Err(format!(
                "map names {mapped} frames but {live} live frames exist"
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

/// The pinned pages of one column fetch (see [`BufferPool::pin_column`]):
/// entry `i` belongs to the `i`-th requested block. No frame named here
/// can be evicted while the guard lives; dropping it unpins them all under
/// one lock.
pub struct ColumnPins<'p> {
    pool: &'p BufferPool,
    column: ColumnKey,
    blocks: &'p [u32],
    /// Frame slot and page per requested block; `None` until loaded.
    pages: Vec<Option<(usize, Arc<Vec<f32>>)>>,
    /// How many of the requested blocks were served from memory.
    pub hits: usize,
    /// Frames evicted to make room for this fetch's installs.
    pub evictions: usize,
}

impl ColumnPins<'_> {
    /// The page of the `i`-th requested block, `None` while it is missing.
    pub fn page(&self, i: usize) -> Option<&[f32]> {
        self.pages[i].as_ref().map(|(_, data)| data.as_slice())
    }

    /// The shared page of the `i`-th requested block, for a caller that
    /// keeps it past the guard. A kept page is not a pin: its frame stays
    /// evictable once the guard drops.
    pub(crate) fn shared_page(&self, i: usize) -> Option<&Arc<Vec<f32>>> {
        self.pages[i].as_ref().map(|(_, data)| data)
    }

    /// Indices (into the requested blocks) of the pages still to load.
    pub fn missing(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.pages.len()).filter(|&i| self.pages[i].is_none())
    }

    /// Installs this fetch's loaded pages — `(index into the requested
    /// blocks, decoded values)` — pinned, under one critical section, then
    /// enforces the budget once.
    pub fn install(&mut self, loaded: impl IntoIterator<Item = (usize, Vec<f32>)>) {
        let mut inner = self.pool.inner.lock();
        for (i, data) in loaded {
            debug_assert!(self.pages[i].is_none(), "page {i} installed twice");
            let block = self.blocks[i];
            // Another thread may have loaded the same page since the pin
            // pass; reuse its frame so bytes are charged once.
            let resident = inner.columns.get(&self.column).and_then(|f| f.slot(block));
            self.pages[i] = Some(match resident {
                Some(idx) => (idx, pin_frame(&mut inner.slots, idx)),
                None => {
                    let data = Arc::new(data);
                    (
                        inner.install(&self.column, block, Arc::clone(&data), 1),
                        data,
                    )
                }
            });
        }
        self.evictions += inner.enforce_budget(self.pool.budget_bytes);
    }
}

impl std::fmt::Debug for ColumnPins<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ColumnPins")
            .field("column", &self.column)
            .field("blocks", &self.blocks)
            .field("hits", &self.hits)
            .field("evictions", &self.evictions)
            .finish()
    }
}

impl Drop for ColumnPins<'_> {
    fn drop(&mut self) {
        let mut inner = self.pool.inner.lock();
        for (slot, _) in self.pages.iter().flatten() {
            inner.unpin(*slot);
        }
        // A scan may pin a working set larger than the budget (pinned
        // frames are unevictable); re-enforce as the pins drop so the
        // pool returns under budget without waiting for the next insert.
        if inner.bytes > self.pool.budget_bytes {
            inner.enforce_budget(self.pool.budget_bytes);
        }
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

    /// The one-block case of a column fetch: pin, run `load` on a miss,
    /// install.
    fn fetch<'p>(
        pool: &'p BufferPool,
        unit: usize,
        block: &'p [u32; 1],
        load: impl FnOnce() -> Vec<f32>,
    ) -> ColumnPins<'p> {
        let mut pins = pool.pin_column(&col(unit), block);
        if pins.hits == 0 {
            pins.install([(0, load())]);
        }
        pins
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
        drop(p);
        let p = fetch(&pool, 0, &[0], must_hit);
        assert_eq!(p.hits, 1);
        drop(p);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses, s.evictions), (1, 1, 0));
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 8 * 4);
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn one_fetch_pins_the_resident_pages_and_installs_the_rest_together() {
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 1, page(1.0, 4));
        pool.insert(&col(0), 3, page(3.0, 4));
        pool.insert(&col(1), 0, page(9.0, 4));
        let blocks = [0u32, 1, 3, 5];
        let mut pins = pool.pin_column(&col(0), &blocks);
        assert_eq!(pins.hits, 2);
        assert_eq!(pins.missing().collect::<Vec<_>>(), vec![0, 3]);
        assert_eq!(pins.page(1).unwrap()[0], 1.0);
        assert!(pins.page(0).is_none());
        assert!(pool.column_pinned(&col(0)));
        assert!(!pool.column_pinned(&col(1)), "other columns stay unpinned");
        pins.install([(0, page(0.5, 4)), (3, page(5.0, 4))]);
        assert_eq!(pins.missing().count(), 0);
        let got: Vec<f32> = (0..4).map(|i| pins.page(i).unwrap()[0]).collect();
        assert_eq!(got, vec![0.5, 1.0, 3.0, 5.0]);
        let s = pool.stats();
        assert_eq!((s.hits, s.misses), (2, 2));
        assert_eq!(s.resident_pages, 5);
        pool.verify_accounting().unwrap();
        drop(pins);
        assert!(!pool.column_pinned(&col(0)));
        // Everything the fetch installed is resident for the next one.
        let again = pool.pin_column(&col(0), &blocks);
        assert_eq!(again.hits, 4);
    }

    #[test]
    fn clock_evicts_past_pins_with_second_chances() {
        // Budget: 2 pages of 8 floats (32 bytes each).
        let pool = BufferPool::new(64);
        let pinned = fetch(&pool, 0, &[0], || page(0.0, 8));
        drop(fetch(&pool, 1, &[0], || page(1.0, 8)));
        // Inserting a third page sweeps: page 0 is pinned (skipped), page
        // 1 gets its reference bit cleared (second chance), the new page
        // is pinned, and the wrap-around takes page 1.
        let third = fetch(&pool, 2, &[0], || page(2.0, 8));
        assert_eq!(third.evictions, 1);
        let s = pool.stats();
        assert_eq!(s.evictions, 1);
        assert_eq!(s.resident_pages, 2);
        assert!(s.resident_bytes <= 64);
        drop(third);
        // Page 0 survived (pinned); page 1 was the victim.
        assert_eq!(&pinned.page(0).unwrap()[..1], &[0.0]);
        drop(pinned);
        let mut reloaded = false;
        drop(fetch(&pool, 1, &[0], || {
            reloaded = true;
            page(1.0, 8)
        }));
        assert!(reloaded, "page 1 must have been the victim");
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = BufferPool::new(32); // one 8-float page
        let pinned = fetch(&pool, 0, &[0], || page(0.0, 8));
        // Inserting more while the only evictable candidate is pinned
        // runs the pool over budget instead of evicting it.
        let second = fetch(&pool, 1, &[0], || page(1.0, 8));
        let s = pool.stats();
        assert_eq!(s.resident_pages, 2, "both pages stay resident");
        assert!(s.resident_bytes > 32, "over budget while pinned");
        assert_eq!(&pinned.page(0).unwrap()[..1], &[0.0], "pinned data valid");
        drop(pinned);
        drop(second);
        // With pins released, the next insert can evict.
        drop(fetch(&pool, 2, &[0], || page(2.0, 8)));
        assert!(pool.stats().evictions >= 1);
        assert!(pool.stats().resident_bytes <= 32);
    }

    #[test]
    fn insert_populates_without_pinning() {
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 0, page(7.0, 4));
        let p = fetch(&pool, 0, &[0], must_hit);
        assert_eq!(p.hits, 1);
        assert_eq!(&p.page(0).unwrap()[..1], &[7.0]);
        // Refresh replaces bytes accounting, not duplicates it.
        drop(p);
        pool.insert(&col(0), 0, page(8.0, 16));
        assert_eq!(pool.stats().resident_bytes, 16 * 4);
        assert!(!pool.column_pinned(&col(0)));
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
    fn a_failed_load_installs_nothing_and_releases_the_pins() {
        // A fetch whose load fails just drops its guard: the pages that
        // were resident are unpinned, the missing ones stay missing.
        let pool = BufferPool::new(1 << 20);
        pool.insert(&col(0), 0, page(1.0, 4));
        let blocks = [0u32, 1];
        let pins = pool.pin_column(&col(0), &blocks);
        assert_eq!((pins.hits, pins.missing().count()), (1, 1));
        drop(pins); // the load errored
        assert!(!pool.column_pinned(&col(0)));
        assert_eq!(pool.stats().resident_pages, 1);
        let mut loaded = false;
        drop(fetch(&pool, 0, &[1], || {
            loaded = true;
            page(2.0, 4)
        }));
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
                    let mut pins = pool.pin_column(&col(0), &[0]);
                    assert_eq!(pins.hits, 0);
                    barrier.wait();
                    pins.install([(0, page(3.0, 64))]);
                    assert_eq!(pins.page(0).unwrap()[0], 3.0);
                    // Neither unpins before both installed.
                    barrier.wait();
                });
            }
        });
        let s = pool.stats();
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 64 * 4, "bytes charged once");
        assert_eq!(s.misses, 2, "both lookups missed");
        assert!(!pool.column_pinned(&col(0)), "both pins released");
        // The running counters agree with the frame table: bytes are the
        // decoded frame sizes, charged exactly once per resident frame.
        pool.verify_accounting().unwrap();
    }

    #[test]
    fn purge_while_pinned_dooms_the_frame_instead_of_recycling_its_slot() {
        let pool = BufferPool::new(1 << 20);
        let pinned = fetch(&pool, 0, &[0], || page(5.0, 8));
        // Purging the column under a live pin: the frame leaves the map
        // (no new hits) but stays resident and byte-charged.
        pool.purge_column(&col(0));
        assert!(pool.column_pinned(&col(0)));
        let s = pool.stats();
        assert_eq!(s.resident_pages, 0, "doomed frame is unmapped");
        assert_eq!(s.resident_bytes, 8 * 4, "…but still charged");
        pool.verify_accounting().unwrap();
        // A fresh lookup misses and loads a new frame; the doomed frame's
        // slot is NOT recycled while the pin lives, so the guard's later
        // unpin cannot touch the new frame.
        let fresh = fetch(&pool, 0, &[0], || page(6.0, 8));
        assert_eq!(fresh.hits, 0);
        assert_eq!(
            &pinned.page(0).unwrap()[..1],
            &[5.0],
            "old guard reads old bytes"
        );
        assert_eq!(&fresh.page(0).unwrap()[..1], &[6.0]);
        pool.verify_accounting().unwrap();
        drop(pinned); // last pin drops: doomed frame leaves, bytes fall
        let s = pool.stats();
        assert_eq!(s.resident_pages, 1);
        assert_eq!(s.resident_bytes, 8 * 4);
        assert!(pool.column_pinned(&col(0)), "fresh frame still pinned");
        drop(fresh);
        assert!(!pool.column_pinned(&col(0)));
        pool.verify_accounting().unwrap();
    }
}
