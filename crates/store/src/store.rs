//! The behavior store: durable unit-behavior columns addressed by
//! content fingerprints, scanned through the buffer pool.
//!
//! On disk a store is a directory tree:
//!
//! ```text
//! <root>/<model_fp:016x>.<dataset_fp:016x>/u<unit>.col    complete column
//!                                          u<unit>.part   partial column
//! ```
//!
//! one column file per `(model fingerprint, dataset fingerprint, unit)`
//! key. A **complete** column (`u<unit>.col`) holds every record; a
//! **partial** column (`u<unit>.part`) holds the completed prefix of an
//! early-stopped streaming pass up to its watermark (see
//! [`crate::format`]) and is superseded — left for compaction to reclaim
//! — once a completed version lands beside it. Opening a store walks the
//! tree once into an in-memory index of available columns; writers update
//! the index as they commit. Column metadata (shape + zone table +
//! coverage) is cached after first validation so a warm scan touches the
//! filesystem only on buffer-pool misses.
//!
//! Corruption handling is fail-soft: a block whose checksum disagrees
//! surfaces a [`StoreError::Corrupt`] to the caller (who falls back to
//! live extraction) and the store **quarantines** the file — renames it
//! aside, drops it from the index and purges its pool pages — so the next
//! read-write pass re-materializes a clean copy. How files are published,
//! which temporaries are litter and how a quarantined file is named is
//! [`crate::durable`]'s one rule; [`BehaviorStore::compact`] deletes
//! quarantined files past a retention budget, together with stale
//! temporaries and superseded partials.
//!
//! A store opened under [`MaterializationPolicy::ReadOnly`] never touches
//! the filesystem beyond reads: no directory creation, no temp-file
//! sweep, no quarantine renames, no compaction.

use crate::durable::{self, retry_transient};
use crate::format::{self, coverage_covers, ColumnMeta};
use crate::pool::BufferPool;
use crate::{StoreError, StoreStats};
use parking_lot::Mutex;
use std::collections::{HashMap, HashSet};
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::Arc;
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
    /// Disk budget for *complete* column files: when their total size
    /// exceeds this, [`BehaviorStore::compact`] evicts the coldest
    /// columns (LRU by persisted access stamp — the on-disk analogue of
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

/// Outcome of one column write.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WriteReport {
    /// Data blocks written.
    pub blocks_written: usize,
    /// Pool evictions caused by populating the written blocks.
    pub pool_evictions: usize,
    /// Raw (uncompressed f32) size of the data region.
    pub raw_data_bytes: u64,
    /// Encoded size the data region actually occupies on disk.
    pub stored_data_bytes: u64,
}

/// Outcome of one [`BehaviorStore::compact`] sweep.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CompactionReport {
    /// Files deleted (expired quarantined files, stale temporaries,
    /// superseded partial columns).
    pub files_reclaimed: usize,
    /// Bytes those files occupied.
    pub bytes_reclaimed: u64,
    /// Healthy complete columns evicted to meet the disk budget (LRU by
    /// access stamp; see [`StoreConfig::disk_budget_bytes`]).
    pub columns_evicted: usize,
    /// Bytes those evictions returned to the filesystem.
    pub evicted_bytes: u64,
}

impl CompactionReport {
    fn reclaimed(&mut self, (files, bytes): (usize, u64)) {
        self.files_reclaimed += files;
        self.bytes_reclaimed += bytes;
    }
}

/// Which file currently backs a column key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Disposition {
    /// `u<unit>.col` — every record valid.
    Complete,
    /// `u<unit>.part` — valid up to the watermark only.
    Partial,
}

/// Validated position coverage of one stored column: which record
/// positions hold real extractor output. Complete columns cover every
/// position; partial columns cover exactly the watermarked set.
#[derive(Debug, Clone)]
pub struct Coverage {
    nd: usize,
    completed: usize,
    /// `None` = complete (all positions valid).
    bits: Option<Arc<Vec<u8>>>,
}

impl Coverage {
    /// Total record positions in the column.
    pub(crate) fn nd(&self) -> usize {
        self.nd
    }

    /// The watermark: how many positions are valid.
    pub(crate) fn completed_records(&self) -> usize {
        self.completed
    }

    /// True when every position is valid.
    pub(crate) fn is_complete(&self) -> bool {
        self.completed == self.nd
    }

    /// Whether record position `pos` holds real data.
    pub(crate) fn covers(&self, pos: usize) -> bool {
        if pos >= self.nd {
            return false;
        }
        match &self.bits {
            None => true,
            Some(bits) => coverage_covers(bits, pos),
        }
    }

    /// Whether every position in `positions` holds real data.
    pub(crate) fn covers_all(&self, positions: &[usize]) -> bool {
        positions.iter().all(|&p| self.covers(p))
    }

    /// Whether every covered position is marked in `filled` — i.e. a
    /// column rebuilt from `filled` would lose nothing this coverage
    /// holds.
    pub(crate) fn is_subset_of_filled(&self, filled: &[bool]) -> bool {
        match &self.bits {
            None => filled.iter().take(self.nd).all(|&f| f),
            Some(bits) => (0..self.nd)
                .all(|p| !coverage_covers(bits, p) || filled.get(p).copied().unwrap_or(false)),
        }
    }
}

/// Reusable buffers of one column fetch (see
/// [`BehaviorStore::scan_with`]).
#[derive(Default)]
pub(crate) struct FetchScratch {
    /// Per requested position: its stored block and its row within it.
    rows: Vec<(usize, usize)>,
    /// Per stored block: `BLOCK_UNTOUCHED`, `BLOCK_PRUNED`, or the block's
    /// index in `needed`.
    block_use: Vec<u32>,
    /// The blocks this fetch takes through the pool, ascending.
    needed: Vec<u32>,
}

const BLOCK_UNTOUCHED: u32 = u32::MAX;
const BLOCK_PRUNED: u32 = u32::MAX - 1;
/// Touched and not prunable; replaced by the index into `needed` once the
/// positions are classified.
const BLOCK_NEEDED: u32 = u32::MAX - 2;

/// Validated column metadata: the parsed file (schema, zone table,
/// payload offsets) with the coverage bitmap lifted into an `Arc` for
/// cheap sharing, plus which file it was read from.
struct ColumnFileInfo {
    file: format::ColumnFile,
    covered: Option<Arc<Vec<u8>>>,
    /// Position → packed data row (rank among covered positions), for
    /// partial columns.
    ranks: Option<Vec<u32>>,
    disposition: Disposition,
}

type CachedInfo = Arc<ColumnFileInfo>;

/// An open behavior store (see the module docs).
pub struct BehaviorStore {
    root: PathBuf,
    block_records: usize,
    read_only: bool,
    /// Disk budget for complete columns, enforced by
    /// [`BehaviorStore::compact`] (see [`StoreConfig::disk_budget_bytes`]).
    disk_budget_bytes: u64,
    pool: BufferPool,
    index: Mutex<HashMap<ColumnKey, Disposition>>,
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
        let mut index = HashMap::new();
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
                let col = col?;
                if let Some((unit, disposition)) = parse_column_file(&col.file_name()) {
                    let key = ColumnKey {
                        model_fp,
                        dataset_fp,
                        unit,
                    };
                    // A complete column always wins over a leftover
                    // partial of the same unit.
                    match index.get(&key) {
                        Some(Disposition::Complete) => {}
                        _ => {
                            index.insert(key, disposition);
                        }
                    }
                }
            }
        }
        Ok(Arc::new(BehaviorStore {
            root: config.path.clone(),
            block_records: config.block_records.max(1),
            read_only,
            disk_budget_bytes: config.disk_budget_bytes,
            pool: BufferPool::new(config.pool_bytes),
            index: Mutex::new(index),
            meta_cache: Mutex::new(HashMap::new()),
            evicted: Mutex::new(HashSet::new()),
            views: crate::views::ViewCatalog::open(&config.path, read_only),
        }))
    }

    /// The store's buffer pool.
    pub fn pool(&self) -> &BufferPool {
        &self.pool
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

    /// Number of indexed *complete* columns.
    pub fn columns(&self) -> usize {
        self.index
            .lock()
            .values()
            .filter(|d| **d == Disposition::Complete)
            .count()
    }

    /// True when a complete column is indexed (file present; contents are
    /// only validated when scanned).
    pub fn contains(&self, key: &ColumnKey) -> bool {
        self.index.lock().get(key) == Some(&Disposition::Complete)
    }

    /// Splits `units` by what the index holds for them under `(model_fp,
    /// dataset_fp)` — `(complete, partial, absent)`, each in input order.
    /// One lock acquisition, so the split is a consistent snapshot.
    pub(crate) fn split_units(
        &self,
        model_fp: u64,
        dataset_fp: u64,
        units: &[usize],
    ) -> (Vec<usize>, Vec<usize>, Vec<usize>) {
        let index = self.index.lock();
        let (mut complete, mut partial, mut absent) = (Vec::new(), Vec::new(), Vec::new());
        for &unit in units {
            let key = ColumnKey {
                model_fp,
                dataset_fp,
                unit,
            };
            match index.get(&key) {
                Some(Disposition::Complete) => complete.push(unit),
                Some(Disposition::Partial) => partial.push(unit),
                None => absent.push(unit),
            }
        }
        (complete, partial, absent)
    }

    fn column_path(&self, key: &ColumnKey, disposition: Disposition) -> PathBuf {
        let file = match disposition {
            Disposition::Complete => format!("u{}.col", key.unit),
            Disposition::Partial => format!("u{}.part", key.unit),
        };
        self.root
            .join(format!("{:016x}.{:016x}", key.model_fp, key.dataset_fp))
            .join(file)
    }

    /// Persists a complete column (`data.len() == nd * ns`, record-major)
    /// atomically and pushes its blocks through the pool so an immediate
    /// scan hits memory. Any partial file of the same key is superseded
    /// (reclaimed by the next [`BehaviorStore::compact`]).
    pub fn write_column(
        &self,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        data: &[f32],
    ) -> Result<WriteReport, StoreError> {
        self.write_column_inner(key, nd, ns, data, None)
    }

    /// Persists the completed prefix of an early-stopped pass: `data` is
    /// a full `nd * ns` buffer whose positions marked in `filled` hold
    /// real extractor output (the rest must be `0.0`). Writes a partial
    /// column with watermark `filled.count(true)`; a fully filled buffer
    /// is promoted to a complete column. An empty fill, or a key that
    /// already has a complete column, is a no-op.
    pub fn write_partial_column(
        &self,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        data: &[f32],
        filled: &[bool],
    ) -> Result<WriteReport, StoreError> {
        if filled.len() != nd {
            return Err(StoreError::Io(format!(
                "fill mask has {} entries for nd={nd}",
                filled.len()
            )));
        }
        let completed = filled.iter().filter(|&&f| f).count();
        if completed == nd {
            return self.write_column(key, nd, ns, data);
        }
        if completed == 0 {
            return Ok(WriteReport::default());
        }
        if self.read_only {
            return Err(StoreError::Io("store opened read-only".into()));
        }
        // Freshen this instance's view from the filesystem before
        // deciding: the index and meta cache are instance-local, and a
        // concurrent store instance may have created, extended or
        // completed this column since we last looked.
        self.meta_cache.lock().remove(key);
        if self.column_path(key, Disposition::Complete).exists() {
            self.index.lock().insert(*key, Disposition::Complete);
            return Ok(WriteReport::default());
        }
        if self.column_path(key, Disposition::Partial).exists() {
            {
                let mut index = self.index.lock();
                if index.get(key) != Some(&Disposition::Complete) {
                    index.insert(*key, Disposition::Partial);
                }
            }
            // Never shrink stored coverage: an existing partial whose
            // valid coverage is not strictly extended by this fill keeps
            // its file (a pass that transiently failed to read it — or
            // early-stopped sooner than a previous one — must not
            // replace a larger prefix with a smaller one). Only a
            // *provably corrupt* existing partial is junk that may be
            // overwritten; a transient I/O failure says nothing about
            // the file, so the write is refused too. (The decision is
            // made against freshly read metadata; a racing writer can
            // still slip between read and rename, which at worst loses
            // re-computable coverage, never correctness.)
            match self.coverage(key) {
                Ok(prior) => {
                    let extends =
                        prior.is_subset_of_filled(filled) && completed > prior.completed_records();
                    if !extends {
                        return Ok(WriteReport::default());
                    }
                }
                // A provably corrupt (or deliberately evicted) prior file
                // protects nothing; overwrite it.
                Err(StoreError::Corrupt(_)) | Err(StoreError::Evicted(_)) => {}
                Err(StoreError::Io(_)) | Err(StoreError::TransientIo(_)) => {
                    return Ok(WriteReport::default())
                }
            }
        }
        self.write_column_inner(key, nd, ns, data, Some(filled))
    }

    fn write_column_inner(
        &self,
        key: &ColumnKey,
        nd: usize,
        ns: usize,
        data: &[f32],
        filled: Option<&[bool]>,
    ) -> Result<WriteReport, StoreError> {
        if self.read_only {
            return Err(StoreError::Io("store opened read-only".into()));
        }
        if data.len() != nd * ns {
            return Err(StoreError::Io(format!(
                "column shape mismatch: {} values for nd={nd} ns={ns}",
                data.len()
            )));
        }
        let completed = match filled {
            Some(f) => f.iter().filter(|&&x| x).count(),
            None => nd,
        };
        let meta = ColumnMeta {
            model_fp: key.model_fp,
            dataset_fp: key.dataset_fp,
            unit: key.unit as u64,
            nd: nd as u64,
            ns: ns as u64,
            block_records: self.block_records as u64,
            completed_records: completed as u64,
        };
        let disposition = if filled.is_some() {
            Disposition::Partial
        } else {
            Disposition::Complete
        };
        let path = self.column_path(key, disposition);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let bitmap = filled.map(format::coverage_from_filled);
        // Partial columns store only their valid rows, densely packed in
        // ascending position order (a warm resume then reads exactly the
        // prefix's bytes, not a mostly empty grid).
        let packed = filled.map(|f| format::pack_rows(data, f, ns));
        let stored: &[f32] = packed.as_deref().unwrap_or(data);
        let summary =
            format::write_column_file(&path, &meta, stored, bitmap.as_deref(), now_stamp())?;
        // Refresh the caches (an overwrite replaces stale state), then
        // populate the pool with the written pages so an immediate scan
        // hits memory.
        self.pool.purge_column(key);
        let mut pool_evictions = 0;
        for b in 0..meta.n_blocks() {
            let rows = meta.rows_in_block(b);
            let start = b * self.block_records * ns;
            pool_evictions +=
                self.pool
                    .insert(key, b as u32, stored[start..start + rows * ns].to_vec());
        }
        self.meta_cache.lock().remove(key);
        // A fresh write resurrects a disk-budget-evicted column.
        self.evicted.lock().remove(key);
        let mut index = self.index.lock();
        // Never let a partial write demote an indexed complete column.
        match (disposition, index.get(key)) {
            (Disposition::Partial, Some(Disposition::Complete)) => {}
            _ => {
                index.insert(*key, disposition);
            }
        }
        Ok(WriteReport {
            blocks_written: summary.n_blocks,
            pool_evictions,
            raw_data_bytes: summary.raw_data_bytes,
            stored_data_bytes: summary.stored_data_bytes,
        })
    }

    /// Validated file info for a column, cached after the first read. A
    /// cache miss on a read-write store also freshens the file's
    /// persisted access stamp (best-effort) so disk-budget
    /// eviction sees recently scanned columns as warm.
    fn column_info(&self, key: &ColumnKey) -> Result<CachedInfo, StoreError> {
        if let Some(info) = self.meta_cache.lock().get(key) {
            return Ok(Arc::clone(info));
        }
        let Some(disposition) = self.index.lock().get(key).copied() else {
            if self.evicted.lock().contains(key) {
                return Err(StoreError::Evicted(format!(
                    "unit {} was deleted by disk-budget eviction",
                    key.unit
                )));
            }
            return Err(StoreError::Io(format!("unit {} is not indexed", key.unit)));
        };
        let path = self.column_path(key, disposition);
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
        let mut parsed = format::read_meta(&mut file)?;
        // The file's own watermark decides completeness; the index only
        // remembers which path to open.
        if disposition == Disposition::Partial && parsed.meta.is_complete() {
            return Err(StoreError::Corrupt(
                "partial file declares a full watermark".into(),
            ));
        }
        if !self.read_only {
            // Failure to bump the stamp never fails the read — the
            // column just stays cold in the eviction order.
            let _ = format::write_access_stamp(&mut file, now_stamp());
        }
        let covered = parsed.covered.take().map(Arc::new);
        let ranks = covered
            .as_ref()
            .map(|bits| format::coverage_ranks(bits, parsed.meta.nd as usize));
        let parsed = Arc::new(ColumnFileInfo {
            file: parsed,
            covered,
            ranks,
            disposition,
        });
        self.meta_cache
            .lock()
            .entry(*key)
            .or_insert_with(|| Arc::clone(&parsed));
        Ok(parsed)
    }

    /// How many of a column's blocks a pruned scan could serve from the
    /// zone map alone, as `(prunable, total)`. `None` when the column is
    /// not indexed or fails validation — pruning estimates are advisory,
    /// so errors are swallowed here and surface on the real scan.
    pub(crate) fn zone_summary(&self, key: &ColumnKey) -> Option<(usize, usize)> {
        let info = self.column_info(key).ok()?;
        Some((info.file.prunable_blocks(), info.file.meta.n_blocks()))
    }

    /// The validated position coverage of a column: complete columns
    /// cover everything, partial columns exactly their watermarked set.
    /// Reads (and caches) the file metadata; any validation failure is
    /// the usual [`StoreError::Corrupt`].
    pub(crate) fn coverage(&self, key: &ColumnKey) -> Result<Coverage, StoreError> {
        let info = self.column_info(key)?;
        Ok(Coverage {
            nd: info.file.meta.nd as usize,
            completed: info.file.meta.completed_records as usize,
            bits: info.covered.clone(),
        })
    }

    /// Scans one column for the given record positions, writing the `ns`
    /// values of position `positions[i]` into
    /// `out[(i * ns + t) * stride + col]` — i.e. straight into column
    /// `col` of a row-major `(positions.len() * ns) x stride` matrix.
    /// Pages are fetched (and their checksums verified) through the pool;
    /// `stats` receives the per-call page accounting (`blocks_read`,
    /// pool hit/miss/eviction counters — `columns_scanned` is per-pass
    /// and counted by the caller). Every requested position must be
    /// covered by the column's watermark: serving a position a partial
    /// column never filled would be a silent wrong score, so it is
    /// refused as corruption.
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
    /// concurrent store instance may have extended a partial column in
    /// place (atomic rename onto the same path repacks the rows), which
    /// makes this instance's cached zone table stale — that is a valid
    /// newer file, not corruption. Only a failure against the file's
    /// current bytes surfaces as [`StoreError::Corrupt`].
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
        let mut scratch = FetchScratch::default();
        self.scan_with(
            &mut scratch,
            key,
            nd,
            ns,
            positions,
            out,
            stride,
            col,
            prune,
            stats,
        )
    }

    /// [`BehaviorStore::scan_into`] over caller-kept buffers (a
    /// [`crate::ColumnPass`] makes thousands of fetches per pass and keeps
    /// one [`FetchScratch`] for all of them).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn scan_with(
        &self,
        scratch: &mut FetchScratch,
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
        match self.scan_attempt(
            scratch, key, nd, ns, positions, out, stride, col, prune, stats,
        ) {
            Err(StoreError::Corrupt(_)) => {
                self.meta_cache.lock().remove(key);
                self.pool.purge_column(key);
                self.scan_attempt(
                    scratch, key, nd, ns, positions, out, stride, col, prune, stats,
                )
            }
            other => other,
        }
    }

    /// One column fetch, every cost per *column*: validate the positions
    /// and work out which stored blocks they touch; pin the resident ones
    /// under one pool lock; load this fetch's misses through one file
    /// handle in ascending block order and install them under one more
    /// lock; gather. The pins drop (one lock) when the fetch returns.
    /// `stats` counts the fetch's pages only once they are all in hand —
    /// a failed attempt reports its retries and nothing else.
    #[allow(clippy::too_many_arguments)]
    fn scan_attempt(
        &self,
        scratch: &mut FetchScratch,
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
        let cached = retry_transient(&mut stats.io_retries, || self.column_info(key))?;
        let meta = &cached.file.meta;
        let zones = &cached.file.zones;
        if meta.nd != nd as u64 || meta.ns != ns as u64 {
            return Err(StoreError::Corrupt(format!(
                "stored shape (nd={}, ns={}) disagrees with dataset (nd={nd}, ns={ns})",
                meta.nd, meta.ns
            )));
        }

        // Validate every position before touching the pool, and classify
        // each stored block the fetch touches once: served from its zone
        // entry (pruned) or fetched. Positions are shuffled, so
        // consecutive positions land on arbitrary blocks.
        let FetchScratch {
            rows,
            block_use,
            needed,
        } = scratch;
        rows.clear();
        needed.clear();
        block_use.clear();
        block_use.resize(meta.n_blocks(), BLOCK_UNTOUCHED);
        let block_records = meta.block_records as usize;
        let mut pruned = 0;
        for &pos in positions {
            if pos >= nd {
                return Err(StoreError::Corrupt(format!(
                    "record position {pos} out of range (nd={nd})"
                )));
            }
            if let Some(bits) = &cached.covered {
                if !coverage_covers(bits, pos) {
                    return Err(StoreError::Corrupt(format!(
                        "record position {pos} is past the column's watermark \
                         ({} of {nd} records completed)",
                        meta.completed_records
                    )));
                }
            }
            // A partial column stores its valid rows densely packed: the
            // position's data row is its rank among covered positions.
            let row = match &cached.ranks {
                Some(ranks) => ranks[pos] as usize,
                None => pos,
            };
            let b = meta.block_of(row);
            if block_use[b] == BLOCK_UNTOUCHED {
                // Predicate pushdown: the zone entry of a finite constant
                // block determines every value in it, so the block is
                // served without touching its payload (no read, no
                // checksum, no pool traffic). `constant_value` is `None`
                // for non-finite-flagged blocks.
                if prune && zones[b].constant_value().is_some() {
                    block_use[b] = BLOCK_PRUNED;
                    pruned += 1;
                } else {
                    block_use[b] = BLOCK_NEEDED;
                }
            }
            rows.push((b, row - b * block_records));
        }
        for (b, block) in block_use.iter_mut().enumerate() {
            if *block == BLOCK_NEEDED {
                *block = needed.len() as u32;
                needed.push(b as u32);
            }
        }

        // Pin what is resident, load and install the rest. A column whose
        // touched blocks were all pruned never enters the pool.
        let pins = if needed.is_empty() {
            None
        } else {
            let mut pins = self.pool.pin_column(key, needed);
            let missing: Vec<usize> = pins.missing().collect();
            if !missing.is_empty() {
                let blocks: Vec<u32> = missing.iter().map(|&i| needed[i]).collect();
                let path = self.column_path(key, cached.disposition);
                let pages = retry_transient(&mut stats.io_retries, || {
                    let mut file = File::open(&path)?;
                    format::read_blocks(&mut file, &cached.file, &blocks)
                })?;
                pins.install(missing.into_iter().zip(pages));
            }
            stats.blocks_read += needed.len();
            stats.pool_hits += pins.hits;
            stats.pool_misses += needed.len() - pins.hits;
            stats.pool_evictions += pins.evictions;
            Some(pins)
        };
        stats.blocks_pruned += pruned;

        // Gather: the `ns` values of position `i` go down column `col` of
        // the row-major output, `stride` apart.
        for (i, &(b, local)) in rows.iter().enumerate() {
            let cells = out[i * ns * stride + col..].iter_mut().step_by(stride);
            match block_use[b] {
                BLOCK_PRUNED => {
                    let v = zones[b].constant_value().expect("classified prunable");
                    cells.take(ns).for_each(|cell| *cell = v);
                }
                page => {
                    let page = pins
                        .as_ref()
                        .and_then(|pins| pins.page(page as usize))
                        .expect("every needed page was pinned or installed");
                    let values = &page[local * ns..(local + 1) * ns];
                    cells.zip(values).for_each(|(cell, &v)| *cell = v);
                }
            }
        }
        Ok(())
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
        let disposition = self.index.lock().remove(key);
        self.meta_cache.lock().remove(key);
        self.pool.purge_column(key);
        let dispositions = match disposition {
            Some(d) => vec![d],
            // Not indexed (e.g. already quarantined by a racing pass):
            // move aside whichever files exist.
            None => vec![Disposition::Complete, Disposition::Partial],
        };
        for d in dispositions {
            // A missing file (the other disposition, or a racing pass
            // got there first) is nothing to move.
            let _ = durable::quarantine(&self.column_path(key, d));
        }
    }

    /// Reclaims disk space the store no longer needs: stale temporaries
    /// left by *other* (crashed) processes, partial columns superseded by
    /// a completed version, and quarantined files past the retention
    /// budget (the newest quarantined files totalling up to
    /// `quarantine_retention_bytes` are kept as forensic samples). When
    /// the complete columns together exceed
    /// [`StoreConfig::disk_budget_bytes`], the coldest of them (LRU by
    /// persisted access stamp; an unreadable stamp counts as coldest)
    /// are evicted until the rest fit — except columns whose pages a
    /// concurrent scan currently holds pinned, which are never deleted
    /// out from under the scan. No-op on a read-only store.
    pub fn compact(&self, quarantine_retention_bytes: u64) -> CompactionReport {
        let mut report = CompactionReport::default();
        if self.read_only {
            return report;
        }
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return report;
        };
        let mut quarantined: Vec<(PathBuf, u64, SystemTime)> = Vec::new();
        report.reclaimed(durable::reap_stale_temps(self.views.dir()));
        for entry in entries.flatten() {
            if !entry.file_type().map(|t| t.is_dir()).unwrap_or(false) {
                continue;
            }
            let Some((model_fp, dataset_fp)) = parse_pair_dir(&entry.file_name()) else {
                continue;
            };
            report.reclaimed(durable::reap_stale_temps(&entry.path()));
            let Ok(cols) = std::fs::read_dir(entry.path()) else {
                continue;
            };
            for col in cols.flatten() {
                let path = col.path();
                let len = col.metadata().map(|m| m.len()).unwrap_or(0);
                if durable::is_quarantined(&col.file_name().to_string_lossy()) {
                    let modified = col
                        .metadata()
                        .and_then(|m| m.modified())
                        .unwrap_or(SystemTime::UNIX_EPOCH);
                    quarantined.push((path, len, modified));
                } else if let Some((unit, Disposition::Partial)) =
                    parse_column_file(&col.file_name())
                {
                    // A partial column beside (or indexed behind) a
                    // completed version is superseded.
                    let key = ColumnKey {
                        model_fp,
                        dataset_fp,
                        unit,
                    };
                    let superseded = self.index.lock().get(&key) == Some(&Disposition::Complete);
                    if superseded && std::fs::remove_file(&path).is_ok() {
                        report.reclaimed((1, len));
                    }
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
                report.reclaimed((1, len));
            }
        }
        self.enforce_disk_budget(&mut report);
        report
    }

    /// Evicts cold complete columns until the survivors fit the disk
    /// budget (the compaction leg of [`StoreConfig::disk_budget_bytes`]).
    fn enforce_disk_budget(&self, report: &mut CompactionReport) {
        if self.disk_budget_bytes == u64::MAX {
            return;
        }
        // Snapshot the complete columns with size and persisted access
        // stamp. Stamps are read fresh from disk (not the meta cache):
        // another store instance over the same path may have scanned —
        // and stamped — a column this instance never touched.
        let keys: Vec<ColumnKey> = self
            .index
            .lock()
            .iter()
            .filter(|(_, d)| **d == Disposition::Complete)
            .map(|(k, _)| *k)
            .collect();
        let mut columns: Vec<(ColumnKey, PathBuf, u64, u64)> = Vec::with_capacity(keys.len());
        let mut total: u64 = 0;
        for key in keys {
            let path = self.column_path(&key, Disposition::Complete);
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
            // Never delete a column a concurrent scan holds pinned: the
            // scan would read a dead path and misreport it as corruption.
            // A pinned column simply survives this sweep (it is warm by
            // definition) and the next-coldest is considered instead.
            if self.pool.column_pinned(&key) {
                continue;
            }
            // De-index before deleting so a racing scan resolves to the
            // typed `Evicted` error, not a dangling open.
            self.index.lock().remove(&key);
            self.meta_cache.lock().remove(&key);
            self.evicted.lock().insert(key);
            self.pool.purge_column(&key);
            if std::fs::remove_file(&path).is_ok() {
                report.columns_evicted += 1;
                report.evicted_bytes += len;
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

fn parse_column_file(name: &std::ffi::OsStr) -> Option<(usize, Disposition)> {
    let name = name.to_str()?;
    let stem = name.strip_prefix('u')?;
    if let Some(unit) = stem.strip_suffix(".col") {
        return Some((unit.parse().ok()?, Disposition::Complete));
    }
    if let Some(unit) = stem.strip_suffix(".part") {
        return Some((unit.parse().ok()?, Disposition::Partial));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::durable::age_file;

    fn partial_columns(store: &BehaviorStore) -> usize {
        let index = store.index.lock();
        index
            .values()
            .filter(|d| **d == Disposition::Partial)
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
        // each pinned exactly once for the whole call.
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
        store
            .write_partial_column(&key(0), nd, ns, &partial, &filled)
            .unwrap();
        assert!(!store.contains(&key(0)), "partial is not a complete hit");
        assert_eq!(store.split_units(0x11, 0x22, &[0, 1]).1, vec![0]);
        assert_eq!(partial_columns(&store), 1);
        let cov = store.coverage(&key(0)).unwrap();
        assert_eq!(cov.completed_records(), 8);
        assert!(cov.covers_all(&[0, 3, 7]));
        assert!(!cov.covers(8));
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
        // Completing the column supersedes the partial: complete file
        // indexed, partial file still on disk until compaction reclaims.
        store.write_column(&key(0), nd, ns, &data).unwrap();
        assert!(store.contains(&key(0)));
        assert_eq!(store.split_units(0x11, 0x22, &[0]).1, Vec::<usize>::new());
        let part_path = store.column_path(&key(0), Disposition::Partial);
        assert!(part_path.exists(), "superseded partial awaits compaction");
        let report = store.compact(u64::MAX);
        assert_eq!(report.files_reclaimed, 1);
        assert!(report.bytes_reclaimed > 0);
        assert!(!part_path.exists(), "compaction reclaimed it");
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
        store
            .write_partial_column(&key(0), nd, ns, &col8, &filled8)
            .unwrap();
        assert_eq!(store.coverage(&key(0)).unwrap().completed_records(), 8);
        // A smaller prefix (an earlier early stop) is refused...
        let (col4, filled4) = fill(&(0..4).collect::<Vec<_>>());
        let report = store
            .write_partial_column(&key(0), nd, ns, &col4, &filled4)
            .unwrap();
        assert_eq!(report, WriteReport::default());
        assert_eq!(store.coverage(&key(0)).unwrap().completed_records(), 8);
        // ...as is a disjoint fill that would lose covered positions...
        let (col_d, filled_d) = fill(&[8, 9, 10, 11]);
        store
            .write_partial_column(&key(0), nd, ns, &col_d, &filled_d)
            .unwrap();
        assert_eq!(store.coverage(&key(0)).unwrap().completed_records(), 8);
        // ...while a strict extension goes through.
        let (col10, filled10) = fill(&(0..10).collect::<Vec<_>>());
        let report = store
            .write_partial_column(&key(0), nd, ns, &col10, &filled10)
            .unwrap();
        assert!(report.blocks_written > 0);
        assert_eq!(store.coverage(&key(0)).unwrap().completed_records(), 10);
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
        // in place (rename onto the same file repacks the rows), which
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
        a.write_partial_column(&key(0), nd, ns, &col_a, &filled_a)
            .unwrap();
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
        b.write_partial_column(&key(0), nd, ns, &col_b, &filled_b)
            .unwrap();
        assert_eq!(b.coverage(&key(0)).unwrap().completed_records(), 6);
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
        let report = store
            .write_partial_column(&key(0), nd, ns, &vec![0.0; nd * ns], &vec![false; nd])
            .unwrap();
        assert_eq!(report, WriteReport::default());
        assert_eq!(partial_columns(&store), 0);
        // Everything filled: promoted to a complete column.
        let report = store
            .write_partial_column(&key(0), nd, ns, &data, &vec![true; nd])
            .unwrap();
        assert!(report.blocks_written > 0);
        assert!(store.contains(&key(0)));
        assert_eq!(partial_columns(&store), 0);
        // A partial write under an existing complete column is dropped.
        let report = store
            .write_partial_column(&key(0), nd, ns, &data, &{
                let mut f = vec![false; nd];
                f[0] = true;
                f
            })
            .unwrap();
        assert_eq!(report, WriteReport::default());
        assert!(store.contains(&key(0)));
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
        assert_eq!(report, CompactionReport::default());
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
        assert_eq!(ro.compact(0), CompactionReport::default());
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
        assert_eq!(report.raw_data_bytes, (nd * ns * 4) as u64);
        assert!(
            report.stored_data_bytes < report.raw_data_bytes,
            "constant blocks compress: {} vs {}",
            report.stored_data_bytes,
            report.raw_data_bytes
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
    fn disk_budget_never_evicts_a_column_with_pinned_pages() {
        let (store, dir) = test_store("pinned-evict", 1 << 20);
        let (nd, ns) = (8, 2);
        store
            .write_column(&key(0), nd, ns, &column(nd, ns, 0))
            .unwrap();
        store
            .write_column(&key(1), nd, ns, &column(nd, ns, 1))
            .unwrap();
        drop(store);
        let pair = dir.join("0000000000000011.0000000000000022");
        let len = std::fs::metadata(pair.join("u0.col")).unwrap().len();
        // Unit 0 is much colder than unit 1...
        set_stamp(&pair.join("u0.col"), 1);
        set_stamp(&pair.join("u1.col"), 2);
        let store = BehaviorStore::open(&StoreConfig {
            block_records: 4,
            disk_budget_bytes: len,
            ..StoreConfig::at(&dir)
        })
        .unwrap();
        // ...but a concurrent scan holds one of unit 0's pages pinned, so
        // the budget (room for one column) evicts unit 1 instead.
        let mut pin = store.pool.pin_column(&key(0), &[0]);
        let mut file = File::open(pair.join("u0.col")).unwrap();
        let col = format::read_meta(&mut file).unwrap();
        pin.install([(0, format::read_block(&mut file, &col, 0).unwrap())]);
        let report = store.compact(u64::MAX);
        assert_eq!(report.columns_evicted, 1);
        assert!(pair.join("u0.col").exists(), "pinned column survives");
        assert!(!pair.join("u1.col").exists(), "next-coldest evicted");
        drop(pin);
        // The pinned column still scans from disk after the sweep.
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
