//! The behavior store: durable unit-behavior columns addressed by
//! content fingerprints, scanned through the buffer pool.
//!
//! On disk a store is a directory tree:
//!
//! ```text
//! <root>/<model_fp:016x>.<dataset_fp:016x>/u<unit>.col
//! ```
//!
//! one column file per `(model fingerprint, dataset fingerprint, unit)`
//! key. The file's header watermark (see [`crate::format`]) — not its
//! name — says how much it holds: a **complete** column holds every
//! record; a **partial** column holds the completed prefix of an
//! early-stopped streaming pass, and completing or extending it rewrites
//! the same file. (Older builds gave partial columns the file extension
//! `part`; such files are ignored: never indexed, never read, and their
//! units re-extract.) Opening a store walks the tree once into an
//! in-memory index of the keys that have a file; writers update the index
//! as they commit. Column metadata (shape, zone table and the record
//! position of every stored row) is cached after first validation so a
//! warm scan touches the filesystem only on buffer-pool misses.
//!
//! Corruption handling is fail-soft: a block whose checksum disagrees
//! surfaces a [`StoreError::Corrupt`] to the caller (who falls back to
//! live extraction) and the store **quarantines** the file — renames it
//! aside, drops it from the index and purges its pool pages — so the next
//! read-write pass re-materializes a clean copy. How files are published,
//! which temporaries are litter and how a quarantined file is named is
//! [`crate::durable`]'s one rule; [`BehaviorStore::compact`] deletes
//! quarantined files past a retention budget, together with stale
//! temporaries.
//!
//! A store opened under [`MaterializationPolicy::ReadOnly`] never touches
//! the filesystem beyond reads: no directory creation, no temp-file
//! sweep, no quarantine renames, no compaction.

use crate::durable::{self, retry_transient};
use crate::format::{self, ColumnMeta};
use crate::pool::BufferPool;
use crate::{StoreError, StoreStats};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::SystemTime;

/// What a store-configured session is allowed to do with the store.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MaterializationPolicy {
    /// Stored columns are scanned; nothing new is persisted and nothing
    /// on disk is created, renamed or deleted.
    ReadOnly,
    /// Stored columns are scanned and newly extracted columns are
    /// persisted at the end of a streamed pass (complete columns after a
    /// full stream, partial columns up to the watermark after an early
    /// stop).
    #[default]
    ReadWrite,
}

/// Store configuration (carried by `SessionConfig` in the core crate).
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// Root directory of the store (created on open, unless read-only).
    pub path: PathBuf,
    /// Buffer-pool byte budget for decoded block pages.
    pub pool_bytes: usize,
    /// What the engine may do with the store.
    pub policy: MaterializationPolicy,
    /// Records per on-disk block (zone-map / checksum granularity) for
    /// newly written columns; existing files keep their own grid.
    pub block_records: usize,
    /// Write-back capture budget: a pass whose missing columns would
    /// buffer more than this many bytes skips materialization rather
    /// than balloon memory.
    pub writeback_limit_bytes: usize,
    /// Compaction retention budget for quarantined (`*.corrupt.*`)
    /// files: the newest files totalling up to this many bytes are kept
    /// as forensic samples, older ones are deleted by
    /// [`BehaviorStore::compact`].
    pub quarantine_retention_bytes: u64,
    /// Disk budget for column files, partial and complete: when their
    /// total size exceeds this, [`BehaviorStore::compact`] evicts the
    /// coldest columns (LRU by persisted access stamp — the on-disk analogue of
    /// the CLOCK pool's memory budget) until the rest fit. Evicted
    /// columns are healthy and re-materialize on the next read-write
    /// pass. `u64::MAX` (the default) disables eviction.
    pub disk_budget_bytes: u64,
}

impl StoreConfig {
    /// Configuration rooted at `path` with defaults: 64 MiB pool,
    /// read-write policy, 64-record blocks, 256 MiB write-back budget,
    /// 64 MiB quarantine retention, unbounded disk budget.
    pub fn at(path: impl Into<PathBuf>) -> StoreConfig {
        StoreConfig {
            path: path.into(),
            pool_bytes: 64 << 20,
            policy: MaterializationPolicy::ReadWrite,
            block_records: 64,
            writeback_limit_bytes: 256 << 20,
            quarantine_retention_bytes: 64 << 20,
            disk_budget_bytes: u64::MAX,
        }
    }
}

/// Key of one stored column.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ColumnKey {
    /// Model content fingerprint.
    pub model_fp: u64,
    /// Dataset content fingerprint.
    pub dataset_fp: u64,
    /// Hidden-unit index within the model.
    pub unit: usize,
}

/// Reusable buffers of a run of column fetches (see
/// [`BehaviorStore::scan_with`]), and the **page table** of every stored
/// column they fetched: the pages found resident in or loaded through the
/// pool, kept so that a later fetch of the same column serves them
/// without a pool trip. A held page is an immutable `Arc` — CLOCK may
/// evict its frame and compaction may delete its file — and it was
/// checksummed when it was loaded. A column's table is valid only while
/// the store's column info is the one its pages were read under (the
/// same `Arc`), so a purge, a rewrite or a refreshed zone table drops it
/// first. Its bytes count against the store-wide reservation of
/// `StoreConfig::pool_bytes`; a page that would overrun it serves its
/// fetch and is not kept. The scratch gives its bytes back when it drops.
///
/// A fetch gathers nothing itself: it leaves a [`Span`] of [`Piece`]s,
/// which its caller writes into the output together with the other
/// columns' spans (`pass::gather_spans`).
pub(crate) struct FetchScratch {
    /// The current fetch's stored rows, as runs of consecutive rows in
    /// the order the fetch's positions ask for them.
    runs: Vec<Range<usize>>,
    /// The blocks this fetch takes through the pool, ascending.
    needed: Vec<u32>,
    /// The spans of the current stream block, in fetch order.
    pub(crate) spans: Vec<Span>,
    /// Their pieces, each span's a contiguous run.
    pub(crate) pieces: Vec<Piece>,
    /// The page table per stored column.
    held: HashMap<ColumnKey, HeldPages>,
    reservation: Arc<PageReservation>,
}

/// Where one stretch of a span's values comes from: a run of stored
/// rows inside one stored block.
pub(crate) enum Piece {
    /// Values `values` of a decoded page.
    Page {
        page: Arc<Vec<f32>>,
        values: Range<usize>,
    },
    /// A pruned block's rows: `len` copies of its zone's constant.
    Constant { value: f32, len: usize },
}

impl Piece {
    /// Values in the piece.
    pub(crate) fn len(&self) -> usize {
        match self {
            Piece::Page { values, .. } => values.len(),
            Piece::Constant { len, .. } => *len,
        }
    }
}

/// The stored values of one fetch in one column: its runs of stored
/// rows, cut at stored-block edges, in the order its positions ask for
/// them.
pub(crate) struct Span {
    /// The output column the values go to.
    pub(crate) col: usize,
    /// The pieces, in order, as a range of `FetchScratch::pieces`.
    pub(crate) pieces: Range<usize>,
}

/// One block of a pass's stream, for a column fetch that may find the
/// column stored in that stream's order.
#[derive(Clone, Copy)]
pub(crate) struct StreamBlock<'a> {
    /// The stream's records, in order.
    pub(crate) order: &'a [usize],
    /// The block is stream records `start..end`.
    pub(crate) start: usize,
    pub(crate) end: usize,
}

/// How a column fetch served its block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Fetched {
    /// Left as a [`Span`] in the scratch for the caller to write.
    Scanned,
    /// A requested record has no stored row (past a partial column's
    /// watermark); nothing was read.
    PastWatermark,
}

/// The pages one [`FetchScratch`] holds of one stored column.
struct HeldPages {
    /// The column info the pages were read under.
    info: CachedInfo,
    /// Per stored block: the page, when held.
    pages: Vec<Option<Arc<Vec<f32>>>>,
    /// Their decoded size, charged to the store's reservation.
    bytes: usize,
    /// Whether the stored positions are the fetching pass's stream
    /// prefix, once a fetch with a stream has compared them.
    in_order: Option<bool>,
}

impl FetchScratch {
    pub(crate) fn new(store: &BehaviorStore) -> FetchScratch {
        FetchScratch {
            runs: Vec::new(),
            needed: Vec::new(),
            spans: Vec::new(),
            pieces: Vec::new(),
            held: HashMap::new(),
            reservation: Arc::clone(&store.reservation),
        }
    }

    /// Drops one column's page table.
    fn drop_held(&mut self, key: &ColumnKey) {
        if let Some(table) = self.held.remove(key) {
            self.reservation.give_back(table.bytes);
        }
    }

    /// Drops every page table.
    pub(crate) fn release(&mut self) {
        let bytes = self.held.drain().map(|(_, table)| table.bytes).sum();
        self.reservation.give_back(bytes);
    }
}

impl Drop for FetchScratch {
    fn drop(&mut self) {
        self.release();
    }
}

/// The decoded bytes that live page tables hold, store-wide, kept within
/// the pool's byte budget. A byte count that publishes no other data, so
/// its operations are `Relaxed`.
struct PageReservation {
    held: AtomicUsize,
    limit: usize,
}

impl PageReservation {
    /// Charges `bytes` if the total stays within the limit.
    fn try_take(&self, bytes: usize) -> bool {
        self.held
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |held| {
                held.checked_add(bytes).filter(|&total| total <= self.limit)
            })
            .is_ok()
    }

    /// Bytes the reservation has room for now.
    fn room(&self) -> usize {
        self.limit.saturating_sub(self.held.load(Ordering::Relaxed))
    }

    fn give_back(&self, bytes: usize) {
        if bytes > 0 {
            self.held.fetch_sub(bytes, Ordering::Relaxed);
        }
    }
}

/// An inverse row map entry: the record has no stored row.
const NOT_STORED: u32 = u32::MAX;

/// Validated column metadata: the parsed file (schema, zone table,
/// positions, payload offsets) and, once a fetch by record position needs
/// it, the inverse of its positions.
struct ColumnFileInfo {
    file: format::ColumnFile,
    inverse: OnceLock<Vec<u32>>,
}

impl ColumnFileInfo {
    /// Record position → stored row, [`NOT_STORED`] where the column holds
    /// no row; built on first use.
    fn inverse(&self) -> &[u32] {
        self.inverse.get_or_init(|| {
            let mut rows = vec![NOT_STORED; self.file.meta.nd as usize];
            for (row, &p) in self.file.positions.iter().enumerate() {
                rows[p as usize] = row as u32;
            }
            rows
        })
    }
}

type CachedInfo = Arc<ColumnFileInfo>;

/// An open behavior store (see the module docs).
pub struct BehaviorStore {
    root: PathBuf,
    block_records: usize,
    read_only: bool,
    /// Disk budget for column files, enforced by
    /// [`BehaviorStore::compact`] (see [`StoreConfig::disk_budget_bytes`]).
    disk_budget_bytes: u64,
    pool: BufferPool,
    /// Bytes held by live page tables (see [`FetchScratch`]), at most
    /// `StoreConfig::pool_bytes`.
    reservation: Arc<PageReservation>,
    /// The keys that have a column file, partial or complete.
    index: Mutex<HashSet<ColumnKey>>,
    /// Held by every write from its coverage decisions through its
    /// group's renames and installs, so no writer of this instance
    /// replaces a column another one completed in between.
    write_lock: Mutex<()>,
    /// Validated file info per column, filled on first scan.
    meta_cache: Mutex<HashMap<ColumnKey, CachedInfo>>,
    /// Columns this instance's disk-budget eviction deleted. Lets a later
    /// lookup fail with the typed [`StoreError::Evicted`] (re-extract)
    /// instead of a generic not-indexed error; cleared by the next write.
    evicted: Mutex<HashSet<ColumnKey>>,
    /// Materialized-view catalog at `<root>/views/`.
    views: crate::views::ViewCatalog,
}

/// Milliseconds since the Unix epoch, for access stamps. Saturates to 0
/// on a pre-epoch clock (such a stamp just reads as maximally cold).
fn now_stamp() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .map(|d| d.as_millis() as u64)
        .unwrap_or(0)
}

impl BehaviorStore {
    /// Opens the store rooted at `config.path` and indexes the columns
    /// already on disk. A read-write store creates the root if missing
    /// and sweeps temporaries left by crashed writers; a read-only store
    /// performs no filesystem mutation at all (a missing root is simply
    /// an empty store).
    pub fn open(config: &StoreConfig) -> Result<Arc<BehaviorStore>, StoreError> {
        let read_only = config.policy == MaterializationPolicy::ReadOnly;
        if !read_only {
            std::fs::create_dir_all(&config.path)?;
        }
        let mut index = HashSet::new();
        let entries = match std::fs::read_dir(&config.path) {
            Ok(entries) => Some(entries),
            Err(e) if read_only && e.kind() == std::io::ErrorKind::NotFound => None,
            Err(e) => return Err(e.into()),
        };
        for entry in entries.into_iter().flatten() {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            let Some((model_fp, dataset_fp)) = parse_pair_dir(&entry.file_name()) else {
                continue;
            };
            if !read_only {
                durable::reap_stale_temps(&entry.path());
            }
            for col in std::fs::read_dir(entry.path())? {
                if let Some(unit) = parse_column_file(&col?.file_name()) {
                    index.insert(ColumnKey {
                        model_fp,
                        dataset_fp,
                        unit,
                    });
                }
            }
        }
        Ok(Arc::new(BehaviorStore {
            root: config.path.clone(),
            block_records: config.block_records.max(1),
            read_only,
            disk_budget_bytes: config.disk_budget_bytes,
            pool: BufferPool::new(config.pool_bytes),
            reservation: Arc::new(PageReservation {
                held: AtomicUsize::new(0),
                limit: config.pool_bytes,
            }),
            index: Mutex::new(index),
            write_lock: Mutex::new(()),
            meta_cache: Mutex::new(HashMap::new()),
            evicted: Mutex::new(HashSet::new()),
            views: crate::views::ViewCatalog::open(&config.path, read_only),
        }))
    }

    /// The store's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
    }

    /// Decoded bytes the page tables of live passes hold (see
    /// [`crate::ColumnPass`]): at most [`StoreConfig::pool_bytes`], and 0
    /// once every pass has ended.
    pub fn held_page_bytes(&self) -> usize {
        self.reservation.held.load(Ordering::Relaxed)
    }

    /// Root directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// True when this store was opened read-only (no writes, renames or
    /// deletions ever touch the filesystem).
    pub fn is_read_only(&self) -> bool {
        self.read_only
    }

    /// The materialized-view catalog at `<root>/views/`. Shared by every
    /// holder of this store handle (the server shares one store across
    /// all connections, so views are shared the same way).
    pub fn views(&self) -> &crate::views::ViewCatalog {
        &self.views
    }

    /// Number of indexed complete columns (reads each uncached header to
    /// tell).
    pub fn columns(&self) -> usize {
        let keys: Vec<ColumnKey> = self.index.lock().iter().copied().collect();
        keys.iter().filter(|key| self.contains(key)).count()
    }

    /// True when a column is indexed and its header declares a full
    /// watermark (block contents are only validated when scanned).
    pub fn contains(&self, key: &ColumnKey) -> bool {
        self.column_meta(key).is_ok_and(|m| m.is_complete())
    }

    /// Splits `units` by what the store holds for them under `(model_fp,
    /// dataset_fp)` — `(complete, partial, absent)`, each in input order.
    /// The file's own watermark, read through the cached column
    /// metadata, tells complete from partial; an indexed column whose
    /// header cannot be read counts as complete, so its scan surfaces
    /// the error and demotes it to live extraction.
    pub(crate) fn split_units(
        &self,
        model_fp: u64,
        dataset_fp: u64,
        units: &[usize],
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let (mut complete, mut partial, mut absent) = (Vec::new(), Vec::new(), Vec::new());
        for &unit in units {
            let key = ColumnKey {
                model_fp,
                dataset_fp,
                unit,
            };
            if !self.index.lock().contains(&key) {
                absent.push(unit);
            } else if self.column_meta(&key).is_ok_and(|m| !m.is_complete()) {
                partial.push(unit);
            } else {
                complete.push(unit);
            }
        }
        (complete, partial, absent)
    }

    fn column_path(&self, key: &ColumnKey) -> PathBuf {
        self.root
            .join(format!("{:016x}.{:016x}", key.model_fp, key.dataset_fp))
            .join(format!("u{}.col", key.unit))
    }

    /// Persists a complete column (`data.len() == nd * ns`, record-major)
    /// atomically — replacing any partial column of the same key — and
    /// pushes its blocks through the pool so an immediate scan hits
    /// memory. Returns the write's accounting. A group of one
    /// ([`BehaviorStore::write_columns`]) in record order.
    pub fn write_column(
        &self,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        data: &[f32],
    ) -> Result<StoreStats, StoreError> {
        let positions: Vec<u32> = (0..nd as u32).collect();
        self.write_columns(nd, ns, &positions, &[(*key, data)])
            .pop()
            .expect("one outcome per column")
    }

    /// Persists `columns` — `(key, stored rows)` pairs whose row `i` holds
    /// record position `positions[i]` (`positions.len() * ns` values per
    /// column; the positions below `nd` and distinct) — as one group: a
    /// complete column when every record has a row, else a partial one
    /// that is written only where it strictly extends what the store holds
    /// for its key (`fill_extends_stored`); every file published by one
    /// [`durable`] group publish (all temps written, then synced, then
    /// renamed in input order), and each renamed column installed in the
    /// pool, the index and the caches. The write lock is held from the
    /// first extension decision through the last install, so decision and
    /// rename stay atomic within this instance. An empty partial fill is a
    /// no-op, and an `nd` past the format's u32 record positions refuses
    /// every column. Returns each column's delta or error, in input order.
    pub fn write_columns(
        &self,
        nd: usize,
        ns: usize,
        positions: &[u32],
        columns: &[(ColumnKey, &[f32])],
    ) -> Vec<Result<StoreStats, StoreError>> {
        let refuse = |e: StoreError| columns.iter().map(|_| Err(e.clone())).collect();
        if u32::try_from(nd).is_err() {
            return refuse(StoreError::Io(format!(
                "{nd} records do not fit the format's u32 record positions"
            )));
        }
        let mut in_fill = vec![false; nd];
        for &p in positions {
            match in_fill.get_mut(p as usize) {
                Some(f) if !*f => *f = true,
                _ => {
                    return refuse(StoreError::Io(format!(
                        "record position {p} is repeated or out of range (nd={nd})"
                    )))
                }
            }
        }
        let completed = positions.len();
        let complete = completed == nd;
        if !complete && completed == 0 {
            return columns.iter().map(|_| Ok(StoreStats::default())).collect();
        }
        if self.read_only {
            return refuse(StoreError::Io("store opened read-only".into()));
        }
        let _write = self.write_lock.lock();
        let mut outcomes = Vec::with_capacity(columns.len());
        let mut writes = Vec::with_capacity(columns.len());
        for (i, &(key, data)) in columns.iter().enumerate() {
            outcomes.push(Ok(StoreStats::default()));
            if data.len() != completed * ns {
                outcomes[i] = Err(StoreError::Io(format!(
                    "column shape mismatch: {} values for {completed} rows of ns={ns}",
                    data.len()
                )));
                continue;
            }
            if !complete && !self.fill_extends_stored(&key, &in_fill, completed) {
                continue;
            }
            let path = self.column_path(&key);
            if let Some(Err(e)) = path.parent().map(std::fs::create_dir_all) {
                outcomes[i] = Err(e.into());
                continue;
            }
            let meta = ColumnMeta {
                model_fp: key.model_fp,
                dataset_fp: key.dataset_fp,
                unit: key.unit as u64,
                nd: nd as u64,
                ns: ns as u64,
                block_records: self.block_records as u64,
                completed_records: completed as u64,
            };
            writes.push((i, key, path, meta, data));
        }
        let published = durable::publish_group(writes.iter().map(|(_, _, path, meta, data)| {
            let write =
                |file: &mut File| format::write_column(file, meta, data, positions, now_stamp());
            (path.as_path(), write)
        }));
        for ((i, key, _, meta, data), summary) in writes.iter().zip(published) {
            outcomes[*i] = summary.map(|summary| self.install(key, meta, data, summary));
        }
        outcomes
    }

    /// The never-shrink rule of partial writes: true when a fill of
    /// `completed` records (`in_fill`, per record position) may replace
    /// what the store holds for `key` — it holds every record the stored
    /// column holds, in whatever order, and more. Callers hold
    /// `write_lock`.
    fn fill_extends_stored(&self, key: &ColumnKey, in_fill: &[bool], completed: usize) -> bool {
        // Freshen this instance's view from the filesystem before
        // deciding: the index and meta cache are instance-local, and a
        // concurrent store instance may have created, extended or
        // completed this column since we last looked.
        self.meta_cache.lock().remove(key);
        if !self.column_path(key).exists() {
            return true;
        }
        self.index.lock().insert(*key);
        // Never shrink a stored column: one (complete, or partial) whose
        // records are not strictly extended by this fill keeps its file
        // (a pass that transiently failed to read it — or early-stopped
        // sooner than a previous one, or streamed another order — must
        // not replace a larger prefix with a smaller one). Only a
        // *provably corrupt* existing file is junk that may be
        // overwritten; a transient I/O failure says nothing about the
        // file, so the write is refused too. The write lock makes
        // decision and rename atomic within this instance; a writer of
        // another instance can still slip between them, which at worst
        // loses re-computable rows, never correctness.
        match self.column_info(key) {
            Ok(prior) => {
                let held = |&p: &u32| in_fill.get(p as usize).copied().unwrap_or(false);
                completed > prior.file.positions.len() && prior.file.positions.iter().all(held)
            }
            // A provably corrupt (or deliberately evicted) prior file
            // protects nothing; overwrite it.
            Err(StoreError::Corrupt(_)) | Err(StoreError::Evicted(_)) => true,
            Err(StoreError::Io(_)) | Err(StoreError::TransientIo(_)) => false,
        }
    }

    /// Installs a renamed column file in the pool, the index and the
    /// caches (an overwrite replaces stale state; the written pages go
    /// into the pool so an immediate scan hits memory) and returns the
    /// write's accounting. Callers hold `write_lock`.
    fn install(
        &self,
        key: &ColumnKey,
        meta: &ColumnMeta,
        stored: &[f32],
        summary: format::WriteSummary,
    ) -> StoreStats {
        self.pool.purge_column(key);
        let complete = meta.is_complete();
        let mut written = StoreStats {
            columns_written: complete as usize,
            partial_columns_written: !complete as usize,
            blocks_written: summary.n_blocks,
            raw_bytes_written: summary.raw_data_bytes,
            stored_bytes_written: summary.stored_data_bytes,
            ..StoreStats::default()
        };
        let ns = meta.ns as usize;
        for b in 0..meta.n_blocks() {
            let rows = meta.rows_in_block(b);
            let start = b * self.block_records * ns;
            written.pool_evictions +=
                self.pool
                    .insert(key, b as u32, stored[start..start + rows * ns].to_vec());
        }
        self.meta_cache.lock().remove(key);
        // A fresh write resurrects a disk-budget-evicted column.
        self.evicted.lock().remove(key);
        self.index.lock().insert(*key);
        written
    }

    /// Validated file info for a column, cached after the first read. A
    /// cache miss on a read-write store also freshens the file's
    /// persisted access stamp (best-effort) so disk-budget
    /// eviction sees recently scanned columns as warm.
    fn column_info(&self, key: &ColumnKey) -> Result<CachedInfo, StoreError> {
        if let Some(info) = self.meta_cache.lock().get(key) {
            return Ok(Arc::clone(info));
        }
        if !self.index.lock().contains(key) {
            if self.evicted.lock().contains(key) {
                return Err(StoreError::Evicted(format!(
                    "unit {} was deleted by disk-budget eviction",
                    key.unit
                )));
            }
            return Err(StoreError::Io(format!("unit {} is not indexed", key.unit)));
        }
        let path = self.column_path(key);
        // One handle for the read and the stamp: a read-write store opens
        // it writable (falling back to read-only where the file refuses —
        // the stamp is best-effort, the read is not).
        let mut file = if self.read_only {
            File::open(&path)?
        } else {
            std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&path)
                .or_else(|_| File::open(&path))?
        };
        let parsed = format::read_meta(&mut file)?;
        if !self.read_only {
            // Failure to bump the stamp never fails the read — the
            // column just stays cold in the eviction order.
            let _ = format::write_access_stamp(&mut file, now_stamp());
        }
        let parsed = Arc::new(ColumnFileInfo {
            file: parsed,
            inverse: OnceLock::new(),
        });
        // A racing first read may have cached its own copy: hand out the
        // cached one, so every fetch sees one identity per cached info.
        Ok(Arc::clone(
            self.meta_cache.lock().entry(*key).or_insert(parsed),
        ))
    }

    /// How many of a column's blocks a pruned scan could serve from the
    /// zone map alone, as `(prunable, total)`. `None` when the column is
    /// not indexed or fails validation — pruning estimates are advisory,
    /// so errors are swallowed here and surface on the real scan.
    pub(crate) fn zone_summary(&self, key: &ColumnKey) -> Option<(usize, usize)> {
        let info = self.column_info(key).ok()?;
        Some((info.file.prunable_blocks(), info.file.meta.n_blocks()))
    }

    /// The validated schema of a column (its watermark says complete or
    /// partial). Reads (and caches) the file metadata; any validation
    /// failure is the usual [`StoreError::Corrupt`].
    pub(crate) fn column_meta(&self, key: &ColumnKey) -> Result<ColumnMeta, StoreError> {
        Ok(self.column_info(key)?.file.meta)
    }

    /// Scans one column for the given record positions, writing the `ns`
    /// values of position `positions[i]` into
    /// `out[(i * ns + t) * stride + col]` — i.e. straight into column
    /// `col` of a row-major `(positions.len() * ns) x stride` matrix. A
    /// `col` outside the stride, or an `out` too short for every
    /// position, is refused before anything is read. It is the fetch a
    /// pass makes, its rows found through the column's inverse row map
    /// (counted in `stats.inverse_map_fetches`), written by the pass's
    /// tile gather. Pages are fetched (and their checksums verified)
    /// through the pool; `stats` receives the per-call page accounting
    /// (`blocks_read`, pool hit/miss/eviction counters — `columns_scanned`
    /// is per-pass and counted by the caller). Every requested position
    /// must have a stored row: serving a position a partial column never
    /// filled would be a silent wrong score, so it is refused as
    /// corruption.
    ///
    /// With `prune` set, blocks whose zone entry proves their exact
    /// contents — a finite `Constant` block is `zone.min` repeated — are
    /// reconstructed from the (CRC-protected) zone table without reading
    /// or checksumming their payload, counted in `stats.blocks_pruned`.
    /// The reconstruction is bit-exact, so pruned and unpruned scans
    /// return identical bytes; blocks flagged `has_non_finite` never
    /// qualify (their zone statistics cannot speak for NaN/Inf values).
    ///
    /// A validation failure is retried **once** against freshly read
    /// metadata (cached info and pooled pages dropped first): a
    /// concurrent store instance may have extended or completed a partial
    /// column in place (atomic rename onto the same path rewrites the
    /// rows), which makes this instance's cached zone table stale — that
    /// is a valid newer file, not corruption. Only a failure against the
    /// file's current bytes surfaces as [`StoreError::Corrupt`].
    #[allow(clippy::too_many_arguments)] // a scan is genuinely this wide
    pub fn scan_into(
        &self,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        positions: &[usize],
        out: &mut [f32],
        stride: usize,
        col: usize,
        prune: bool,
        stats: &mut StoreStats,
    ) -> Result<(), StoreError> {
        let cells = positions
            .len()
            .checked_mul(ns)
            .and_then(|v| v.checked_mul(stride));
        if col >= stride || cells.is_none_or(|cells| out.len() < cells) {
            return Err(StoreError::Io(format!(
                "an output of {} cells cannot hold column {col} of {} positions x {ns} \
                 values at stride {stride}",
                out.len(),
                positions.len()
            )));
        }
        let mut scratch = FetchScratch::new(self);
        self.scan_with(
            &mut scratch,
            key,
            nd,
            ns,
            positions,
            None,
            col,
            prune,
            stats,
        )?;
        let values = positions.len() * ns;
        crate::pass::gather_spans(out, stride, values, &scratch.spans, &scratch.pieces);
        Ok(())
    }

    /// One column fetch over caller-kept buffers and page tables (a
    /// [`crate::ColumnPass`] makes thousands of fetches per pass and keeps
    /// one [`FetchScratch`] for all of them, so each stored page is taken
    /// through the pool once per pass while the reservation has room for
    /// it): the `ns` values of each of `positions`, in order, left as a
    /// [`Span`] for output column `col` in the scratch. A failed fetch
    /// leaves no span and drops the column's page table; a corruption is
    /// retried once, as for [`BehaviorStore::scan_into`].
    ///
    /// With `stream` given — `positions` are that stream block's records
    /// — a position the column holds no row for makes the block
    /// [`Fetched::PastWatermark`], and nothing is read. Without a stream,
    /// such a position is corruption, as for `scan_into`.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_with(
        &self,
        scratch: &mut FetchScratch,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        positions: &[usize],
        stream: Option<StreamBlock<'_>>,
        col: usize,
        prune: bool,
        stats: &mut StoreStats,
    ) -> Result<Fetched, StoreError> {
        let attempt = |scratch: &mut FetchScratch, stats: &mut StoreStats| {
            let fetched =
                self.scan_attempt(scratch, key, nd, ns, positions, stream, col, prune, stats)?;
            match (fetched, stream) {
                (Fetched::PastWatermark, None) => Err(StoreError::Corrupt(format!(
                    "a record position is past the column's watermark \
                     ({} of {nd} records stored)",
                    self.column_info(key)?.file.meta.completed_records
                ))),
                (fetched, _) => Ok(fetched),
            }
        };
        let scanned = match attempt(scratch, stats) {
            Err(StoreError::Corrupt(_)) => {
                self.meta_cache.lock().remove(key);
                self.pool.purge_column(key);
                scratch.drop_held(key);
                attempt(scratch, stats)
            }
            other => other,
        };
        if scanned.is_err() {
            scratch.drop_held(key);
        }
        scanned
    }

    /// One column fetch, every cost per *column* and one path for every
    /// fetch:
    ///
    /// 1. **Rows as runs.** When the column's stored positions are the
    ///    stream's prefix — compared once per pass, kept in the page
    ///    table — the stream block is the one run of stored rows
    ///    `start..end`. Otherwise each position goes through the inverse
    ///    row map (counted in `stats.inverse_map_fetches`), consecutive
    ///    rows merged into one run.
    /// 2. **Classify.** Each stored block the runs touch is classified
    ///    once: pruned (served from the zone map), held (served from the
    ///    column's page table) or needed.
    /// 3. **Take.** The needed pages come through one `take_pages` call.
    ///    A fetch of a complete column stored in the stream's order reads
    ///    ahead: it also takes the column's later blocks that are neither
    ///    held nor prunable, as far as the reservation holds them beside
    ///    this fetch's pages, so the pass, which reads them next, opens
    ///    the file once. Any other fetch takes only what it touched:
    ///    nothing says which rows it reads next, and a partial column's
    ///    last rows are read only by a stream block that ends at or
    ///    before its watermark.
    /// 4. **Cut.** Every run is cut at stored-block edges into pieces —
    ///    a page slice or a pruned zone constant — and left as a span.
    ///
    /// A column file that vanished since its info was cached — deleted
    /// by a disk-budget sweep of this instance or another — is the typed
    /// [`StoreError::Evicted`].
    #[allow(clippy::too_many_arguments)]
    fn scan_attempt(
        &self,
        scratch: &mut FetchScratch,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        positions: &[usize],
        stream: Option<StreamBlock<'_>>,
        col: usize,
        prune: bool,
        stats: &mut StoreStats,
    ) -> Result<Fetched, StoreError> {
        let cached = retry_transient(&mut stats.io_retries, || self.column_info(key))?;
        let meta = &cached.file.meta;
        let zones = &cached.file.zones;
        if meta.nd != nd as u64 || meta.ns != ns as u64 {
            return Err(StoreError::Corrupt(format!(
                "stored shape (nd={}, ns={}) disagrees with dataset (nd={nd}, ns={ns})",
                meta.nd, meta.ns
            )));
        }

        // The page table is valid only while the column info it was read
        // under is current.
        if scratch
            .held
            .get(key)
            .is_some_and(|table| !Arc::ptr_eq(&table.info, &cached))
        {
            scratch.drop_held(key);
        }
        let FetchScratch {
            runs,
            needed,
            spans,
            pieces,
            held,
            reservation,
        } = scratch;
        let table = held.entry(*key).or_insert_with(|| HeldPages {
            info: Arc::clone(&cached),
            pages: vec![None; meta.n_blocks()],
            bytes: 0,
            in_order: None,
        });

        // 1. The stored rows, as runs.
        runs.clear();
        let stored = meta.completed_records as usize;
        let aligned = stream.filter(|s| {
            *table.in_order.get_or_insert_with(|| {
                let positions = &cached.file.positions;
                s.order.len() >= stored
                    && positions
                        .iter()
                        .zip(s.order)
                        .all(|(&p, &o)| p as usize == o)
            })
        });
        if let Some(block) = aligned {
            if block.end > stored {
                return Ok(Fetched::PastWatermark);
            }
            if block.start < block.end {
                runs.push(block.start..block.end);
            }
        } else {
            let inverse = cached.inverse();
            for &pos in positions {
                let row = match inverse.get(pos) {
                    None => {
                        return Err(StoreError::Corrupt(format!(
                            "record position {pos} out of range (nd={nd})"
                        )))
                    }
                    Some(&NOT_STORED) => return Ok(Fetched::PastWatermark),
                    Some(&row) => row as usize,
                };
                match runs.last_mut() {
                    Some(run) if run.end == row => run.end += 1,
                    _ => runs.push(row..row + 1),
                }
            }
        }

        // 2. Every stored block the runs touch, once: pruned, held or
        // needed.
        let block_records = meta.block_records as usize;
        needed.clear();
        for run in runs.iter() {
            let blocks = run.start / block_records..run.end.div_ceil(block_records);
            needed.extend(blocks.map(|b| b as u32));
        }
        needed.sort_unstable();
        needed.dedup();
        let after_touched = needed.last().map_or(0, |&b| b as usize + 1);
        let prunable = |b: usize| prune && zones[b].constant_value().is_some();
        let touched = needed.len();
        needed.retain(|&b| !prunable(b as usize));
        let pruned = touched - needed.len();
        needed.retain(|&b| table.pages[b as usize].is_none());

        // 3. Take the needed pages, and read ahead when the pass reads
        // the whole column in stored order.
        let now = needed.len();
        if now > 0 && aligned.is_some() && meta.is_complete() {
            let page_bytes = |b: usize| meta.rows_in_block(b) * ns * std::mem::size_of::<f32>();
            let fetch_bytes: usize = needed.iter().map(|&b| page_bytes(b as usize)).sum();
            let mut room = reservation.room().saturating_sub(fetch_bytes);
            for b in after_touched..meta.n_blocks() {
                if prunable(b) || table.pages[b].is_some() {
                    continue;
                }
                let bytes = page_bytes(b);
                if bytes > room {
                    break;
                }
                room -= bytes;
                needed.push(b as u32);
            }
        }
        let taken = self.take_pages(key, &cached, table, reservation, needed, stats)?;
        let page = |b: usize| match &table.pages[b] {
            Some(page) => Arc::clone(page),
            None => {
                let i = needed[..now].binary_search(&(b as u32));
                Arc::clone(&taken[i.expect("a needed page was taken")])
            }
        };

        // 4. Cut every run at stored-block edges.
        let first = pieces.len();
        for run in runs.iter() {
            let mut row = run.start;
            while row < run.end {
                let b = row / block_records;
                let base = b * block_records;
                let end = run.end.min(base + block_records);
                let values = (row - base) * ns..(end - base) * ns;
                pieces.push(match zones[b].constant_value().filter(|_| prune) {
                    Some(value) => Piece::Constant {
                        value,
                        len: values.len(),
                    },
                    None => Piece::Page {
                        page: page(b),
                        values,
                    },
                });
                row = end;
            }
        }
        spans.push(Span {
            col,
            pieces: first..pieces.len(),
        });
        stats.blocks_pruned += pruned;
        stats.inverse_map_fetches += usize::from(aligned.is_none());
        Ok(Fetched::Scanned)
    }

    /// Takes the pages of `needed` (distinct stored blocks of one column,
    /// ascending): the resident ones under one pool lock, the rest loaded
    /// through one file handle in ascending block order — each run of
    /// consecutive blocks one read — and installed under one more lock.
    /// Keeps each page in the column's page table while the reservation
    /// has room, and returns them in `needed` order. `stats` counts the
    /// pages only once they are all in hand, so a failed fetch reports its
    /// retries and nothing else.
    fn take_pages(
        &self,
        key: &ColumnKey,
        cached: &CachedInfo,
        table: &mut HeldPages,
        reservation: &PageReservation,
        needed: &[u32],
        stats: &mut StoreStats,
    ) -> Result<Vec<Arc<Vec<f32>>>, StoreError> {
        if needed.is_empty() {
            // A column whose touched blocks were all pruned or held never
            // enters the pool.
            return Ok(Vec::new());
        }
        let mut fetch = self.pool.fetch_column(key, needed);
        let missing: Vec<usize> = fetch.missing().collect();
        if !missing.is_empty() {
            let blocks: Vec<u32> = missing.iter().map(|&i| needed[i]).collect();
            let path = self.column_path(key);
            let pages = retry_transient(&mut stats.io_retries, || {
                let mut file = File::open(&path).map_err(|e| match e.kind() {
                    std::io::ErrorKind::NotFound => StoreError::Evicted(format!(
                        "unit {} was deleted after it was looked up",
                        key.unit
                    )),
                    _ => e.into(),
                })?;
                format::read_blocks(&mut file, &cached.file, &blocks)
            })?;
            fetch.install(missing.into_iter().zip(pages));
        }
        let mut pages = Vec::with_capacity(needed.len());
        for (i, &b) in needed.iter().enumerate() {
            let page = fetch.shared_page(i).expect("every needed page is in hand");
            let bytes = page.len() * std::mem::size_of::<f32>();
            if reservation.try_take(bytes) {
                table.pages[b as usize] = Some(Arc::clone(page));
                table.bytes += bytes;
            }
            pages.push(Arc::clone(page));
        }
        stats.blocks_read += needed.len();
        stats.pool_hits += fetch.hits;
        stats.pool_misses += needed.len() - fetch.hits;
        stats.pool_evictions += fetch.evictions;
        Ok(pages)
    }

    /// Quarantines a column that failed validation: renames the file
    /// aside ([`durable::quarantine`] — repeated quarantines of one column
    /// never collide or overwrite an earlier sample), drops it from the
    /// index and purges its pool pages. The next read-write pass
    /// re-materializes it from live extraction. No-op on a read-only
    /// store.
    pub(crate) fn quarantine(&self, key: &ColumnKey) {
        if self.read_only {
            return;
        }
        self.index.lock().remove(key);
        self.meta_cache.lock().remove(key);
        self.pool.purge_column(key);
        // A missing file (a racing pass got there first) is nothing to
        // move.
        let _ = durable::quarantine(&self.column_path(key));
    }

    /// Reclaims disk space the store no longer needs: stale temporaries
    /// left by *other* (crashed) processes and quarantined files past the
    /// retention budget (the newest quarantined files totalling up to
    /// `quarantine_retention_bytes` are kept as forensic samples). When
    /// the column files together exceed
    /// [`StoreConfig::disk_budget_bytes`], the coldest of them (LRU by
    /// persisted access stamp; an unreadable stamp counts as coldest)
    /// are evicted until the rest fit. A concurrent scan keeps reading the
    /// pages it already holds; its next load from a deleted file fails
    /// typed ([`StoreError::Evicted`]) and falls back to live extraction.
    /// Returns the sweep's accounting (`files_reclaimed`,
    /// `bytes_reclaimed`, `columns_evicted`, `evicted_bytes`). No-op on a
    /// read-only store.
    pub fn compact(&self, quarantine_retention_bytes: u64) -> StoreStats {
        let mut swept = StoreStats::default();
        if self.read_only {
            return swept;
        }
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return swept;
        };
        let mut reclaimed = |(files, bytes): (usize, u64)| {
            swept.files_reclaimed += files;
            swept.bytes_reclaimed += bytes;
        };
        let mut quarantined: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        reclaimed(durable::reap_stale_temps(self.views.dir()));
        for entry in entries.flatten() {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false)
                || parse_pair_dir(&entry.file_name()).is_none()
            {
                continue;
            }
            reclaimed(durable::reap_stale_temps(&entry.path()));
            let Ok(cols) = std::fs::read_dir(entry.path()) else {
                continue;
            };
            for col in cols.flatten() {
                if durable::is_quarantined(&col.file_name().to_string_lossy()) {
                    let meta = col.metadata();
                    let len = meta.as_ref().map(|m| m.len()).unwrap_or(0);
                    let modified = meta
                        .and_then(|m| m.modified())
                        .unwrap_or(SystemTime::UNIX_EPOCH);
                    quarantined.push((col.path(), len, modified));
                }
            }
            // Pair directories are deliberately left in place even when
            // empty: removing one here races a concurrent writer's
            // create_dir_all → File::create window and would fail its
            // write-back. An empty directory costs nothing and is reused
            // by the next write.
        }
        // Quarantine retention: keep the newest files within the budget.
        quarantined.sort_by_key(|q| std::cmp::Reverse(q.2));
        let mut kept: u64 = 0;
        for (path, len, _) in quarantined {
            if kept + len <= quarantine_retention_bytes {
                kept += len;
                continue;
            }
            if std::fs::remove_file(&path).is_ok() {
                reclaimed((1, len));
            }
        }
        self.enforce_disk_budget(&mut swept);
        swept
    }

    /// Evicts cold columns until the survivors fit the disk budget (the
    /// compaction leg of [`StoreConfig::disk_budget_bytes`]).
    fn enforce_disk_budget(&self, swept: &mut StoreStats) {
        if self.disk_budget_bytes == u64::MAX {
            return;
        }
        // Snapshot the indexed columns with size and persisted access
        // stamp. Stamps are read fresh from disk (not the meta cache):
        // another store instance over the same path may have scanned —
        // and stamped — a column this instance never touched.
        let keys: Vec<ColumnKey> = self.index.lock().iter().copied().collect();
        let mut columns: Vec<(ColumnKey, PathBuf, u64, u64)> = Vec::with_capacity(keys.len());
        let mut total: u64 = 0;
        for key in keys {
            let path = self.column_path(&key);
            let Ok(len) = std::fs::metadata(&path).map(|m| m.len()) else {
                continue;
            };
            let stamp = format::read_access_stamp(&path).ok().flatten().unwrap_or(0);
            total += len;
            columns.push((key, path, len, stamp));
        }
        if total <= self.disk_budget_bytes {
            return;
        }
        // Coldest first; ties break on the path for determinism.
        columns.sort_by(|a, b| a.3.cmp(&b.3).then_with(|| a.1.cmp(&b.1)));
        for (key, path, len, _) in columns {
            if total <= self.disk_budget_bytes {
                break;
            }
            // De-index before deleting so a later lookup resolves to the
            // typed `Evicted` error; a scan that looked the column up
            // before gets the same error when its open finds no file.
            self.index.lock().remove(&key);
            self.meta_cache.lock().remove(&key);
            self.evicted.lock().insert(key);
            self.pool.purge_column(&key);
            if std::fs::remove_file(&path).is_ok() {
                swept.columns_evicted += 1;
                swept.evicted_bytes += len;
                total -= len;
            } else {
                // Deletion failed (e.g. a racing external delete): the
                // column is gone either way; keep the evicted marker so
                // lookups stay typed, but claim no reclaimed bytes.
                total = total.saturating_sub(len);
            }
        }
    }
}

fn parse_pair_dir(name: &std::ffi::OsStr) -> Option<(u64, u64)> {
    let name = name.to_str()?;
    let (model, dataset) = name.split_once('.')?;
    Some((
        u64::from_str_radix(model, 16).ok()?,
        u64::from_str_radix(dataset, 16).ok()?,
    ))
}

fn parse_column_file(name: &std::ffi::OsStr) -> Option<usize> {
    let unit = name.to_str()?.strip_prefix('u')?.strip_suffix(".col")?;
    unit.parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::age_file;

    /// Writes the records `filled` marks, ascending, from a record-major
    /// `nd * ns` buffer: one group of one through `write_columns`.
    fn write_filled(
        store: &BehaviorStore,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        data: &[f32],
        filled: &[bool],
    ) -> Result<StoreStats, StoreError> {
        let positions: Vec<u32> = (0..nd as u32).filter(|&p| filled[p as usize]).collect();
        let rows: Vec<f32> = positions
            .iter()
            .flat_map(|&p| &data[p as usize * ns..(p as usize + 1) * ns])
            .copied()
            .collect();
        store
            .write_columns(nd, ns, &positions, &[(*key, &rows)])
            .pop()
            .expect("one outcome per column")
    }

    fn partial_columns(store: &BehaviorStore) -> usize {
        let keys: Vec<ColumnKey> = store.index.lock().iter().copied().collect();
        keys.iter()
            .filter(|key| store.column_meta(key).is_ok_and(|m| !m.is_complete()))
            .count()
    }

    fn test_store(name: &str, pool_bytes: usize) -> (Arc<BehaviorStore>, PathBuf) {
        let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target/tmp-store-tests")
            .join(format!("store-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = StoreConfig::at(&dir);
        config.pool_bytes = pool_bytes;
        config.block_records = 4;
        (BehaviorStore::open(&config).unwrap(), dir)
    }

    fn key(unit: usize) -> ColumnKey {
        ColumnKey {
            model_fp: 0x11,
            dataset_fp: 0x22,
            unit,
        }
    }

    fn column(nd: usize, ns: usize, unit: usize) -> Vec<f32> {
        (0..nd * ns)
            .map(|i| (i * 7 + unit * 1000) as f32 * 0.25)
            .collect()
    }

    /// Overwrites a column file's access stamp.
    fn set_stamp(path: &Path, stamp: u64) {
        let mut file = std::fs::OpenOptions::new().write(true).open(path).unwrap();
        format::write_access_stamp(&mut file, stamp).unwrap();
    }

    #[test]
    fn io_error_kinds_classify_transient_vs_permanent() {
        use std::io::{Error, ErrorKind};
        for kind in [
            ErrorKind::Interrupted,
            ErrorKind::WouldBlock,
            ErrorKind::TimedOut,
        ] {
            let e = StoreError::from(Error::new(kind, "flaky"));
            assert!(e.is_transient(), "{kind:?} must classify transient");
        }
        for kind in [
            ErrorKind::NotFound,
            ErrorKind::PermissionDenied,
            ErrorKind::UnexpectedEof,
        ] {
            let e = StoreError::from(Error::new(kind, "broken"));
            assert!(!e.is_transient(), "{kind:?} must classify permanent");
        }
        assert!(!StoreError::Corrupt("x".into()).is_transient());
    }

    #[test]
    fn write_scan_roundtrip_in_shuffled_order() {
        let (store, dir) = test_store("roundtrip", 1 << 20);
        let (nd, ns) = (10, 3);
        let data = column(nd, ns, 0);
        store.write_column(&key(0), nd, ns, &data).unwrap();
        assert!(store.contains(&key(0)));
        // Scan positions out of order into column 1 of a stride-2 buffer.
        let positions = [7, 0, 9, 3];
        let mut out = vec![0.0f32; positions.len() * ns * 2];
        let mut stats = StoreStats::default();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                2,
                1,
                true,
                &mut stats,
            )
            .unwrap();
        for (i, &pos) in positions.iter().enumerate() {
            for t in 0..ns {
                assert_eq!(out[(i * ns + t) * 2 + 1], data[pos * ns + t]);
                assert_eq!(out[(i * ns + t) * 2], 0.0, "other column untouched");
            }
        }
        // Positions 7,0,9,3 at 4 records/block touch blocks {0, 1, 2},
        // each taken through the pool exactly once for the whole call.
        assert_eq!(stats.blocks_read, 3);
        // Write populated the pool, so every fetch hit memory.
        assert_eq!(stats.pool_hits, 3);
        assert_eq!(stats.pool_misses, 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_indexes_existing_columns_and_reads_from_disk() {
        let (store, dir) = test_store("reopen", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(2), nd, ns, &column(nd, ns, 2))
            .unwrap();
        store
            .write_column(&key(5), nd, ns, &column(nd, ns, 5))
            .unwrap();
        drop(store);
        // Fresh process semantics: reopen from disk.
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        assert_eq!(store.columns(), 2);
        assert_eq!(store.split_units(0x11, 0x22, &[0, 2, 5, 9]).0, vec![2, 5]);
        assert_eq!(
            store.split_units(0x99, 0x22, &[2, 5]).0,
            Vec::<usize>::new()
        );
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        let positions: Vec<usize> = (0..nd).collect();
        store
            .scan_into(
                &key(5),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, column(nd, ns, 5), "bit-identical across reopen");
        assert!(stats.pool_misses > 0, "cold pool reads from disk");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_write_scan_and_completion_lifecycle() {
        let (store, dir) = test_store("partial", 1 << 20);
        let (nd, ns) = (12, 2);
        let data = column(nd, ns, 0);
        // Fill positions 0..8 (blocks 0 and 1 fully valid, block 2 empty).
        let mut partial = vec![0.0f32; nd * ns];
        partial[..8 * ns].copy_from_slice(&data[..8 * ns]);
        let mut filled = vec![false; nd];
        filled[..8].fill(true);
        write_filled(&store, &key(0), nd, ns, &partial, &filled).unwrap();
        assert!(!store.contains(&key(0)), "partial is not a complete hit");
        assert_eq!(store.split_units(0x11, 0x22, &[0, 1]).1, vec![0]);
        assert_eq!(partial_columns(&store), 1);
        assert_eq!(store.column_meta(&key(0)).unwrap().completed_records, 8);
        // Covered positions scan bit-identically...
        let positions: Vec<usize> = (0..8).collect();
        let mut out = vec![0.0f32; 8 * ns];
        let mut stats = StoreStats::default();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, &data[..8 * ns]);
        // ...and a position past the watermark is refused, never served.
        let err = store
            .scan_into(&key(0), nd, ns, &[9], &mut out, 1, 0, true, &mut stats)
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        assert!(err.to_string().contains("watermark"), "got {err}");
        // Reopen sees the partial from disk.
        drop(store);
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        assert_eq!(store.split_units(0x11, 0x22, &[0]).1, vec![0]);
        // Completing the column rewrites its one file in place: the key
        // plans as a complete hit and nothing is left for compaction.
        store.write_column(&key(0), nd, ns, &data).unwrap();
        assert!(store.contains(&key(0)));
        assert_eq!(store.split_units(0x11, 0x22, &[0]).1, Vec::<usize>::new());
        assert_eq!(store.split_units(0x11, 0x22, &[0]).0, vec![0]);
        let pair = store.column_path(&key(0)).parent().unwrap().to_path_buf();
        assert_eq!(std::fs::read_dir(&pair).unwrap().count(), 1, "one file");
        assert_eq!(store.compact(u64::MAX), StoreStats::default());
        // The complete column still scans.
        let positions: Vec<usize> = (0..nd).collect();
        let mut out = vec![0.0f32; nd * ns];
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, data);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_writes_never_shrink_stored_coverage() {
        let (store, dir) = test_store("partial-shrink", 1 << 20);
        let (nd, ns) = (12, 2);
        let data = column(nd, ns, 0);
        let fill = |positions: &[usize]| {
            let mut filled = vec![false; nd];
            let mut col = vec![0.0f32; nd * ns];
            for &p in positions {
                filled[p] = true;
                col[p * ns..(p + 1) * ns].copy_from_slice(&data[p * ns..(p + 1) * ns]);
            }
            (col, filled)
        };
        let (col8, filled8) = fill(&(0..8).collect::<Vec<_>>());
        write_filled(&store, &key(0), nd, ns, &col8, &filled8).unwrap();
        assert_eq!(store.column_meta(&key(0)).unwrap().completed_records, 8);
        // A smaller prefix (an earlier early stop) is refused...
        let (col4, filled4) = fill(&(0..4).collect::<Vec<_>>());
        let report = write_filled(&store, &key(0), nd, ns, &col4, &filled4).unwrap();
        assert_eq!(report, StoreStats::default());
        assert_eq!(store.column_meta(&key(0)).unwrap().completed_records, 8);
        // ...as is a disjoint fill that would lose covered positions...
        let (col_d, filled_d) = fill(&[8, 9, 10, 11]);
        write_filled(&store, &key(0), nd, ns, &col_d, &filled_d).unwrap();
        assert_eq!(store.column_meta(&key(0)).unwrap().completed_records, 8);
        // ...while a strict extension goes through.
        let (col10, filled10) = fill(&(0..10).collect::<Vec<_>>());
        let report = write_filled(&store, &key(0), nd, ns, &col10, &filled10).unwrap();
        assert!(report.blocks_written > 0);
        assert_eq!(store.column_meta(&key(0)).unwrap().completed_records, 10);
        let mut out = vec![0.0f32; 10 * ns];
        let mut stats = StoreStats::default();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &(0..10).collect::<Vec<_>>(),
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, &data[..10 * ns]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_partial_extension_revalidates_instead_of_false_corruption() {
        // Two store instances over one path: B extends a partial column
        // in place (rename onto the same file moves the rows), which
        // makes A's cached zone table stale. A's next pool-missing scan
        // must revalidate against the new file and serve correct values
        // — never report the valid newer file as corrupt.
        let (a, dir) = test_store("concurrent-extend", 32); // tiny pool: pages evict at once
        let (nd, ns) = (12, 2);
        let data = column(nd, ns, 0);
        let fill = |positions: &[usize]| {
            let mut filled = vec![false; nd];
            let mut col = vec![0.0f32; nd * ns];
            for &p in positions {
                filled[p] = true;
                col[p * ns..(p + 1) * ns].copy_from_slice(&data[p * ns..(p + 1) * ns]);
            }
            (col, filled)
        };
        // Scattered coverage so the extension changes every row's rank.
        let (col_a, filled_a) = fill(&[1, 5, 9]);
        write_filled(&a, &key(0), nd, ns, &col_a, &filled_a).unwrap();
        let mut out = vec![0.0f32; 3 * ns];
        let mut stats = StoreStats::default();
        a.scan_into(
            &key(0),
            nd,
            ns,
            &[1, 5, 9],
            &mut out,
            1,
            0,
            true,
            &mut stats,
        )
        .unwrap(); // caches A's meta/ranks; tiny pool evicts the page
        let b = BehaviorStore::open(&StoreConfig {
            pool_bytes: 32,
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let (col_b, filled_b) = fill(&[0, 1, 4, 5, 8, 9]);
        write_filled(&b, &key(0), nd, ns, &col_b, &filled_b).unwrap();
        assert_eq!(b.column_meta(&key(0)).unwrap().completed_records, 6);
        // A scans through its stale cache: must succeed bit-identically.
        let mut out = vec![0.0f32; 3 * ns];
        a.scan_into(
            &key(0),
            nd,
            ns,
            &[1, 5, 9],
            &mut out,
            1,
            0,
            true,
            &mut stats,
        )
        .unwrap();
        for (i, &pos) in [1usize, 5, 9].iter().enumerate() {
            assert_eq!(
                &out[i * ns..(i + 1) * ns],
                &data[pos * ns..(pos + 1) * ns],
                "position {pos} after concurrent extension"
            );
        }
        // And A now sees the extended coverage on a fresh read.
        let mut out = vec![0.0f32; 6 * ns];
        a.scan_into(
            &key(0),
            nd,
            ns,
            &[0, 1, 4, 5, 8, 9],
            &mut out,
            1,
            0,
            true,
            &mut stats,
        )
        .unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn empty_or_redundant_partial_writes_are_no_ops() {
        let (store, dir) = test_store("partial-noop", 1 << 20);
        let (nd, ns) = (8, 2);
        let data = column(nd, ns, 0);
        // Nothing filled: no file.
        let report = write_filled(
            &store,
            &key(0),
            nd,
            ns,
            &vec![0.0; nd * ns],
            &vec![false; nd],
        )
        .unwrap();
        assert_eq!(report, StoreStats::default());
        assert_eq!(partial_columns(&store), 0);
        // Everything filled: promoted to a complete column.
        let report = write_filled(&store, &key(0), nd, ns, &data, &vec![true; nd]).unwrap();
        assert!(report.blocks_written > 0);
        assert!(store.contains(&key(0)));
        assert_eq!(partial_columns(&store), 0);
        // A partial write under an existing complete column is dropped.
        let report = write_filled(&store, &key(0), nd, ns, &data, &{
            let mut f = vec![false; nd];
            f[0] = true;
            f
        })
        .unwrap();
        assert_eq!(report, StoreStats::default());
        assert!(store.contains(&key(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An output that cannot hold every position's values in its column
    /// — one cell short, or a column outside the stride — is refused
    /// before anything is read or written; the same call with room
    /// writes every value in place.
    #[test]
    fn scan_into_refuses_an_output_that_does_not_hold_its_positions() {
        let (store, dir) = test_store("scan-into-shape", 1 << 20);
        let (nd, ns) = (8, 4);
        let data = column(nd, ns, 0);
        store.write_column(&key(0), nd, ns, &data).unwrap();
        store.pool.purge_column(&key(0));
        let positions: Vec<usize> = (0..nd).collect();
        for (cells, stride, col) in [(nd * ns - 1, 1, 0), (nd * ns * 2, 2, 3), (0, 1, 0)] {
            let mut out = vec![f32::NAN; cells];
            let mut stats = StoreStats::default();
            let scan = store.scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                stride,
                col,
                true,
                &mut stats,
            );
            let case = format!("{cells} cells, stride {stride}, column {col}");
            assert!(matches!(scan, Err(StoreError::Io(_))), "{case}: {scan:?}");
            assert!(out.iter().all(|v| v.is_nan()), "{case}: nothing written");
            assert_eq!(stats, StoreStats::default(), "{case}: nothing read");
        }
        let mut out = vec![f32::NAN; nd * ns * 2];
        let mut stats = StoreStats::default();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                2,
                1,
                true,
                &mut stats,
            )
            .unwrap();
        for (i, &v) in data.iter().enumerate() {
            assert_eq!(out[i * 2 + 1].to_bits(), v.to_bits(), "value {i}");
            assert!(out[i * 2].is_nan(), "column 0 untouched");
        }
        assert_eq!(stats.blocks_read, 2);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Record positions are stored as u32, so a record count past them
    /// is refused before anything is sized by it or written.
    #[cfg(target_pointer_width = "64")]
    #[test]
    fn a_record_count_past_u32_positions_is_refused() {
        let (store, dir) = test_store("wide-nd", 1 << 20);
        let nd = u32::MAX as usize + 1;
        let outcomes = store.write_columns(nd, 1, &[0], &[(key(0), &[1.0]), (key(1), &[2.0])]);
        for outcome in outcomes {
            let err = outcome.unwrap_err();
            assert!(err.to_string().contains("u32 record positions"), "{err}");
        }
        assert!(!store.contains(&key(0)) && !store.contains(&key(1)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_column_errors_and_quarantine_self_heals() {
        let (store, dir) = test_store("quarantine", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        drop(store);
        // Corrupt a data byte on disk, then reopen cold.
        let path = dir.join("0000000000000011.0000000000000022").join("u0.col");
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let positions: Vec<usize> = (0..nd).collect();
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        let err = store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)), "got {err:?}");
        store.quarantine(&key(0));
        assert!(!store.contains(&key(0)));
        assert_eq!(quarantined_files(&dir).len(), 1);
        assert!(!path.exists());
        // Re-materializing writes a clean copy that scans again.
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, column(nd, ns, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    fn quarantined_files(dir: &Path) -> Vec<PathBuf> {
        let mut found = Vec::new();
        for entry in std::fs::read_dir(dir).unwrap().flatten() {
            if !entry.file_type().unwrap().is_dir() {
                continue;
            }
            for col in std::fs::read_dir(entry.path()).unwrap().flatten() {
                if col.file_name().to_str().unwrap().contains(".corrupt") {
                    found.push(col.path());
                }
            }
        }
        found
    }

    #[test]
    fn repeated_quarantines_of_one_column_never_collide() {
        let (store, dir) = test_store("quarantine-twice", 1 << 20);
        let (nd, ns) = (8, 2);
        for round in 0..3 {
            store
                .write_column(&key(0), nd, ns, &column(nd, ns, 0))
                .unwrap();
            store.quarantine(&key(0));
            assert!(!store.contains(&key(0)));
            assert_eq!(
                quarantined_files(&dir).len(),
                round + 1,
                "every quarantine keeps its own sample"
            );
        }
        // Compaction with a zero retention budget deletes all samples.
        let report = store.compact(0);
        assert_eq!(report.files_reclaimed, 3);
        assert!(report.bytes_reclaimed > 0);
        assert!(quarantined_files(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_respects_the_quarantine_retention_budget() {
        let (store, dir) = test_store("retention", 1 << 20);
        let (nd, ns) = (8, 2);
        // Three quarantined samples of equal size.
        for _ in 0..3 {
            store
                .write_column(&key(0), nd, ns, &column(nd, ns, 0))
                .unwrap();
            store.quarantine(&key(0));
        }
        let files = quarantined_files(&dir);
        assert_eq!(files.len(), 3);
        let each = std::fs::metadata(&files[0]).unwrap().len();
        // Budget for two files: the oldest one goes.
        let report = store.compact(2 * each);
        assert_eq!(report.files_reclaimed, 1);
        assert_eq!(report.bytes_reclaimed, each);
        assert_eq!(quarantined_files(&dir).len(), 2);
        // A huge budget deletes nothing further.
        let report = store.compact(u64::MAX);
        assert_eq!(report, StoreStats::default());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_sweeps_foreign_tmp_files_only() {
        let (store, dir) = test_store("tmp-compact", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        let pair = dir.join("0000000000000011.0000000000000022");
        let foreign_stale = pair.join("u7.tmp.99999.0");
        std::fs::write(&foreign_stale, b"half-written").unwrap();
        age_file(&foreign_stale);
        let foreign_fresh = pair.join("u9.tmp.99999.1");
        std::fs::write(&foreign_fresh, b"mid-write").unwrap();
        let mine = pair.join(format!("u8.tmp.{}.77", std::process::id()));
        std::fs::write(&mine, b"in-flight").unwrap();
        age_file(&mine);
        let report = store.compact(u64::MAX);
        assert_eq!(report.files_reclaimed, 1);
        assert!(!foreign_stale.exists(), "stale foreign temp swept");
        assert!(
            foreign_fresh.exists(),
            "a young foreign temp may be a live writer's in-flight file"
        );
        assert!(mine.exists(), "own (possibly in-flight) temp kept");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmp_files_from_crashed_writers() {
        let (store, dir) = test_store("tmp-sweep", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        drop(store);
        // A writer killed between create and rename leaves a temp file.
        let pair = dir.join("0000000000000011.0000000000000022");
        let stale = pair.join("u7.tmp.99999.0");
        std::fs::write(&stale, b"half-written").unwrap();
        age_file(&stale);
        let fresh = pair.join("u9.tmp.99999.1");
        std::fs::write(&fresh, b"mid-write").unwrap();
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        assert!(!stale.exists(), "stale temp file swept on open");
        assert!(fresh.exists(), "young temp kept (may be a live writer)");
        assert_eq!(store.columns(), 1, "real column survives the sweep");
        assert!(store.contains(&key(0)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_open_never_mutates_the_filesystem() {
        let (store, dir) = test_store("ro", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        drop(store);
        // Leave bait: a stale temp a read-write open would sweep.
        let pair = dir.join("0000000000000011.0000000000000022");
        let stale = pair.join("u7.tmp.99999.0");
        std::fs::write(&stale, b"half-written").unwrap();
        let ro = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            policy: MaterializationPolicy::ReadOnly,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        assert!(ro.is_read_only());
        assert!(stale.exists(), "read-only open sweeps nothing");
        // Reads work; writes, quarantine and compaction are refused.
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        let positions: Vec<usize> = (0..nd).collect();
        ro.scan_into(
            &key(0),
            nd,
            ns,
            &positions,
            &mut out,
            1,
            0,
            true,
            &mut stats,
        )
        .unwrap();
        assert_eq!(out, column(nd, ns, 0));
        assert!(matches!(
            ro.write_column(&key(1), nd, ns, &column(nd, ns, 1)),
            Err(StoreError::Io(_))
        ));
        ro.quarantine(&key(0));
        assert!(ro.contains(&key(0)), "read-only quarantine is a no-op");
        assert!(dir
            .join("0000000000000011.0000000000000022/u0.col")
            .exists());
        assert_eq!(ro.compact(0), StoreStats::default());
        assert!(stale.exists());
        drop(ro);
        // A read-only store over a missing directory is simply empty.
        let missing = dir.join("does-not-exist");
        let empty = BehaviorStore::open(&StoreConfig {
            policy: MaterializationPolicy::ReadOnly,
            ..StoreConfig::at(&missing)
        })
        .unwrap();
        assert_eq!(empty.columns(), 0);
        assert!(!missing.exists(), "read-only open creates no directories");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shape_mismatch_is_corrupt_not_wrong_data() {
        let (store, dir) = test_store("shape", 1 << 20);
        store.write_column(&key(0), 8, 2, &column(8, 2, 0)).unwrap();
        let mut out = vec![0.0f32; 4];
        let mut stats = StoreStats::default();
        let err = store
            .scan_into(&key(0), 8, 4, &[0], &mut out, 1, 0, true, &mut stats)
            .unwrap_err();
        assert!(matches!(err, StoreError::Corrupt(_)));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn scans_respect_pool_budget() {
        // Pool holds one 4-record x 2-symbol page (32 bytes).
        let (store, dir) = test_store("budget", 32);
        let (nd, ns) = (16, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        let positions: Vec<usize> = (0..nd).collect();
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, column(nd, ns, 0));
        assert!(stats.pool_evictions > 0 || store.pool().stats().evictions > 0);
        assert!(store.pool().stats().resident_bytes <= 32);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Scans a whole column twice — pruned and unpruned — and asserts
    /// the outputs are bit-identical (NaN patterns included).
    fn scan_both_ways(
        store: &BehaviorStore,
        k: &ColumnKey,
        nd: usize,
        ns: usize,
    ) -> (Vec<f32>, Vec<f32>, StoreStats) {
        let positions: Vec<usize> = (0..nd).collect();
        let mut pruned = vec![0.0f32; nd * ns];
        let mut plain = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        store
            .scan_into(k, nd, ns, &positions, &mut pruned, 1, 0, true, &mut stats)
            .unwrap();
        let mut plain_stats = StoreStats::default();
        store
            .scan_into(
                k,
                nd,
                ns,
                &positions,
                &mut plain,
                1,
                0,
                false,
                &mut plain_stats,
            )
            .unwrap();
        assert_eq!(plain_stats.blocks_pruned, 0, "prune=false never prunes");
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            bits(&pruned),
            bits(&plain),
            "pruned == unpruned bit-exactly"
        );
        (pruned, plain, stats)
    }

    #[test]
    fn pruned_scans_are_bit_exact_and_nan_blocks_are_never_pruned() {
        let (store, dir) = test_store("nan-prune", 1 << 20);
        let (nd, ns) = (12, 2);
        // Block 0: finite constant (prunable). Block 1: all NaN — the
        // regression case: a NaN-blind zone map would write inverted
        // +inf/-inf bounds and prune it. Block 2: mixed values with an
        // Inf. Only block 0 may ever be pruned.
        let mut data = vec![1.5f32; nd * ns];
        for v in &mut data[4 * ns..8 * ns] {
            *v = f32::NAN;
        }
        for (j, v) in data[8 * ns..].iter_mut().enumerate() {
            *v = if j == 3 {
                f32::INFINITY
            } else {
                j as f32 - 2.0
            };
        }
        store.write_column(&key(0), nd, ns, &data).unwrap();
        let (pruned_out, _, stats) = scan_both_ways(&store, &key(0), nd, ns);
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&pruned_out), bits(&data), "scan returns the column");
        assert_eq!(stats.blocks_pruned, 1, "only the finite constant block");
        assert_eq!(stats.blocks_read, 2, "NaN and mixed blocks were fetched");
        assert_eq!(store.zone_summary(&key(0)), Some((1, 3)));
        // Cold re-open: pruning works off the freshly validated zone
        // table, still without touching the pruned block's payload.
        drop(store);
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let (_, _, stats) = scan_both_ways(&store, &key(0), nd, ns);
        assert_eq!(stats.blocks_pruned, 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_report_shows_compression_wins_on_constant_columns() {
        let (store, dir) = test_store("compress", 1 << 20);
        let (nd, ns) = (64, 4);
        let report = store
            .write_column(&key(0), nd, ns, &vec![0.25f32; nd * ns])
            .unwrap();
        assert_eq!(report.raw_bytes_written, (nd * ns * 4) as u64);
        assert!(
            report.stored_bytes_written < report.raw_bytes_written,
            "constant blocks compress: {} vs {}",
            report.stored_bytes_written,
            report.raw_bytes_written
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn disk_budget_evicts_coldest_columns_and_lookups_fail_typed() {
        let (store, dir) = test_store("disk-budget", 1 << 20);
        let (nd, ns) = (8, 2);
        for unit in 0..3 {
            store
                .write_column(&key(unit), nd, ns, &column(nd, ns, unit))
                .unwrap();
        }
        drop(store);
        let pair = dir.join("0000000000000011.0000000000000022");
        let len = std::fs::metadata(pair.join("u0.col")).unwrap().len();
        // Backdate the stamps so unit 0 is coldest, unit 2 warmest.
        for unit in 0..3u64 {
            set_stamp(&pair.join(format!("u{unit}.col")), 100 + unit);
        }
        // Budget for two columns: compaction must evict exactly unit 0.
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            disk_budget_bytes: 2 * len,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let report = store.compact(u64::MAX);
        assert_eq!(report.columns_evicted, 1);
        assert_eq!(report.evicted_bytes, len);
        assert!(!pair.join("u0.col").exists(), "coldest column deleted");
        assert!(!store.contains(&key(0)));
        // The evicted column fails with the typed error — no fallback to
        // quarantine, no `.corrupt` file, and the caller knows to
        // re-extract rather than report corruption.
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        let positions: Vec<usize> = (0..nd).collect();
        let err = store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap_err();
        assert!(matches!(err, StoreError::Evicted(_)), "got {err:?}");
        assert!(quarantined_files(&dir).is_empty());
        // The warmer columns still scan...
        for unit in [1usize, 2] {
            store
                .scan_into(
                    &key(unit),
                    nd,
                    ns,
                    &positions,
                    &mut out,
                    1,
                    0,
                    true,
                    &mut stats,
                )
                .unwrap();
            assert_eq!(out, column(nd, ns, unit));
        }
        // ...an in-budget store evicts nothing further...
        assert_eq!(store.compact(u64::MAX).columns_evicted, 0);
        // ...and re-materializing the evicted column clears the marker.
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        store
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                true,
                &mut stats,
            )
            .unwrap();
        assert_eq!(out, column(nd, ns, 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn a_column_deleted_by_another_instances_sweep_fails_typed() {
        let (writer, dir) = test_store("evicted-elsewhere", 1 << 20);
        let (nd, ns) = (8, 2);
        for unit in 0..2 {
            writer
                .write_column(&key(unit), nd, ns, &column(nd, ns, unit))
                .unwrap();
        }
        drop(writer);
        let pair = dir.join("0000000000000011.0000000000000022");
        let len = std::fs::metadata(pair.join("u0.col")).unwrap().len();
        // Instance A keeps no page resident or held, so every scan opens
        // the file; its first scan caches the column info.
        let a = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            pool_bytes: 0,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        let positions: Vec<usize> = (0..nd).collect();
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        let mut scan = |out: &mut [f32]| {
            a.scan_into(&key(0), nd, ns, &positions, out, 1, 0, false, &mut stats)
        };
        scan(&mut out).unwrap();
        assert_eq!(out, column(nd, ns, 0));
        // Instance B's sweep, with room for one column, deletes the
        // colder unit 0.
        set_stamp(&pair.join("u0.col"), 1);
        set_stamp(&pair.join("u1.col"), 2);
        let b = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            disk_budget_bytes: len,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        assert_eq!(b.compact(u64::MAX).columns_evicted, 1);
        assert!(!pair.join("u0.col").exists());
        // A's cached info is still current; the vanished file is an
        // eviction, not an IO failure, and quarantines nothing.
        let err = scan(&mut out).unwrap_err();
        assert!(matches!(err, StoreError::Evicted(_)), "got {err:?}");
        assert!(quarantined_files(&dir).is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn partial_columns_count_toward_the_disk_budget() {
        let (store, dir) = test_store("partial-budget", 1 << 20);
        let (nd, ns) = (8, 2);
        let mut filled = vec![false; nd];
        filled[..5].fill(true);
        for unit in 0..3 {
            let mut prefix = column(nd, ns, unit);
            prefix[5 * ns..].fill(0.0);
            write_filled(&store, &key(unit), nd, ns, &prefix, &filled).unwrap();
        }
        assert_eq!(partial_columns(&store), 3);
        drop(store);
        let pair = dir.join("0000000000000011.0000000000000022");
        let len = std::fs::metadata(pair.join("u0.col")).unwrap().len();
        for unit in 0..3u64 {
            set_stamp(&pair.join(format!("u{unit}.col")), 100 + unit);
        }
        let open = |disk_budget_bytes| {
            BehaviorStore::open(&StoreConfig {
                block_records: 4,
                disk_budget_bytes,
                ..StoreConfig::at(&dir)
            })
            .unwrap()
        };
        // Budget for two: the coldest partial goes, as a complete column
        // would.
        let swept = open(2 * len).compact(u64::MAX);
        assert_eq!((swept.columns_evicted, swept.evicted_bytes), (1, len));
        assert!(!pair.join("u0.col").exists(), "coldest partial evicted");
        assert!(pair.join("u1.col").exists() && pair.join("u2.col").exists());
        // A one-byte budget evicts every partial.
        let store = open(1);
        let swept = store.compact(u64::MAX);
        assert_eq!((swept.columns_evicted, swept.evicted_bytes), (2, 2 * len));
        assert_eq!(store.split_units(0x11, 0x22, &[0, 1, 2]).2, vec![0, 1, 2]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn racing_complete_and_partial_writes_of_one_key_leave_it_complete() {
        let (store, dir) = test_store("race-kinds", 1 << 20);
        let config = StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        };
        let (nd, ns) = (12, 2);
        let mut filled = vec![true; nd];
        filled[nd - 1] = false;
        let positions: Vec<usize> = (0..nd).collect();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for round in 0..60 {
            let k = key(round);
            let data = column(nd, ns, round);
            let mut prefix = data.clone();
            prefix[(nd - 1) * ns..].fill(0.0);
            // Round mod 3: 0 races freely, 1 lands the partial first, 2
            // lands the complete column first.
            let (forced, partial_first) = (round % 3 != 0, round % 3 == 1);
            let (start, handoff) = (std::sync::Barrier::new(2), std::sync::Barrier::new(2));
            std::thread::scope(|scope| {
                scope.spawn(|| {
                    start.wait();
                    if forced && !partial_first {
                        handoff.wait();
                    }
                    write_filled(&store, &k, nd, ns, &prefix, &filled).unwrap();
                    if forced && partial_first {
                        handoff.wait();
                    }
                });
                scope.spawn(|| {
                    start.wait();
                    if forced && partial_first {
                        handoff.wait();
                    }
                    store.write_column(&k, nd, ns, &data).unwrap();
                    if forced && !partial_first {
                        handoff.wait();
                    }
                });
            });
            let reopened = BehaviorStore::open(&config).unwrap();
            for s in [&store, &reopened] {
                assert!(s.column_meta(&k).unwrap().is_complete(), "round {round}");
                let mut out = vec![0.0f32; nd * ns];
                let mut stats = StoreStats::default();
                s.scan_into(&k, nd, ns, &positions, &mut out, 1, 0, false, &mut stats)
                    .unwrap();
                assert_eq!(bits(&out), bits(&data), "round {round}");
            }
        }
        assert_eq!(store.pool().verify_accounting(), Ok(()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn two_instances_writing_one_key_never_share_a_temp() {
        let (first, dir) = test_store("same-key", 1 << 20);
        let config = StoreConfig {
            block_records: 4,
            ..StoreConfig::at(&dir)
        };
        let second = BehaviorStore::open(&config).unwrap();
        let (nd, ns) = (8, 2);
        let data = column(nd, ns, 0);
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for store in [&first, &second] {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..200 {
                        store
                            .write_column(&key(0), nd, ns, &data)
                            .unwrap_or_else(|e| panic!("write {i}: {e}"));
                    }
                });
            }
        });
        let third = BehaviorStore::open(&config).unwrap();
        let positions: Vec<usize> = (0..nd).collect();
        let mut out = vec![0.0f32; nd * ns];
        let mut stats = StoreStats::default();
        third
            .scan_into(
                &key(0),
                nd,
                ns,
                &positions,
                &mut out,
                1,
                0,
                false,
                &mut stats,
            )
            .unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&out), bits(&data));
        for store in [&first, &second, &third] {
            assert_eq!(store.pool().verify_accounting(), Ok(()));
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
