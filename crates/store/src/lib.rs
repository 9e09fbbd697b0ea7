//! # deepbase-store
//!
//! Durable materialization for DeepBase: an embedded, on-disk columnar
//! **behavior store** that persists extracted unit-behavior columns so
//! repeated inspection never re-runs a model (the paper's headline
//! optimization, extended across process lifetimes).
//!
//! The store is deliberately database-shaped:
//!
//! * [`format`](mod@format) — the self-describing column file format (v4): a
//!   checksummed header, a schema section naming the column's key and
//!   shape plus a persisted **access stamp** for
//!   disk-budget LRU, a per-block **zone map** (NaN-safe min/max, row
//!   count, codec tag, non-finite flag, encoded size) with a CRC32
//!   checksum per encoded data block, a checksummed **positions**
//!   section naming the record of every stored row, then the per-block
//!   encoded payloads (raw f32, constant, or bit-packed dictionary). A
//!   pass stores a column in its own stream order. A file of any other
//!   version reads as corrupt and re-materializes.
//! * [`durable`] — how bytes become durable, stated once for every
//!   artifact (columns and views): atomic publish of a group of files
//!   through uniquely named temps (all written, then synced four at a
//!   time, then renamed in order), the one rule for
//!   which temps are crash litter, quarantine naming, retried whole-file
//!   reads — `std::fs` only — and the little-endian `ByteWriter` /
//!   `ByteReader` pair every variable-length payload is laid out with.
//! * `pool` — a [`BufferPool`] of decoded block pages with **CLOCK**
//!   (second-chance) eviction under a configurable byte budget, keyed by
//!   column. A scan takes the resident pages one column fetch needs in
//!   one critical section ([`ColumnFetch`]) and installs the ones it
//!   loaded in another. Pages are immutable `Arc`s, so a fetch reads its
//!   pages whatever the pool evicts or purges next, and resident frames
//!   never exceed the budget.
//! * `store` — the [`BehaviorStore`]: columns keyed by
//!   `(model fingerprint, dataset fingerprint, unit id)`, one file per
//!   key whose header watermark says whether it is complete, an
//!   in-memory index of the keys with a file, checksum-verified block
//!   reads through the pool, the "never shrink stored coverage" rule for
//!   partial writes, and quarantine of corrupted files (renamed aside so
//!   the next read-write pass re-materializes them).
//! * `pass` — the store's half of a streamed inspection pass.
//!   [`BehaviorStore::plan_scan`] decides, per dataset segment, which
//!   unit columns scan, which resume at a partial column's watermark and
//!   which must be computed live ([`ScanPlan`]); a [`ColumnPass`] executes
//!   that plan block by block — scan order, the one column fetch (a
//!   block's stored rows as runs, cut at stored-block edges into page
//!   slices and pruned constants; one run per stream block for a column
//!   stored in the pass's own stream order, runs through the inverse row
//!   map otherwise; every fetch, [`BehaviorStore::scan_into`]'s too,
//!   written eight columns at a time by one tile gather), the pages it keeps
//!   so each stored page is read once per pass (within one store-wide
//!   reservation of the pool budget), demote-on-failure, quarantine of
//!   proven corruption (only under a read-write policy) and stream-order
//!   write-back capture all live there.
//!   The caller supplies live columns through a closure, so this crate
//!   never sees a model, an extractor or a record.
//! * `views` ([`ViewCatalog`]) — the materialized-view catalog under `<root>/views/`.
//!
//! Keys are **content fingerprints** ([`FpHasher`], FNV-1a 64): a model
//! that changes its weights or a dataset that changes its records hashes
//! to a different key, so stale columns are never read — invalidation is
//! free and implicit. The core crate (`deepbase`) decides *what* to
//! inspect and turns behaviors into scores; where a column's bytes come
//! from is decided and carried out here, and the crate says no loudly (a
//! typed [`StoreError`]) when a checksum disagrees.

pub mod durable;
pub mod format;
mod pass;
mod pool;
mod store;
mod views;

pub use pass::{ColumnPass, ScanPlan};
pub use pool::{BufferPool, ColumnFetch};
pub use store::{BehaviorStore, ColumnKey, MaterializationPolicy, StoreConfig};
pub use views::{ViewCatalog, ViewDoc, ViewFreshness, ViewHypState, ViewRow};

use std::fmt;

/// Errors surfaced by store operations. `Corrupt` means the bytes on disk
/// failed validation (magic, version, shape or checksum); `Io` wraps a
/// permanent filesystem error; `TransientIo` wraps a filesystem error
/// whose [`std::io::ErrorKind`] signals a retryable condition (interrupted
/// syscall, would-block, timeout) — the store's read paths retry those
/// with bounded backoff before surfacing them; `Evicted` means the
/// disk-budget eviction deleted the (healthy) column between index lookup
/// and read, so the caller should re-extract. All are recoverable:
/// callers fall back to live extraction and surface the message in
/// [`StoreStats::errors`], but only `Corrupt` may quarantine a file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StoreError {
    /// Permanent filesystem-level failure.
    Io(String),
    /// On-disk bytes failed a validation check.
    Corrupt(String),
    /// Retryable filesystem-level failure: interrupted, would-block or
    /// timed-out IO.
    TransientIo(String),
    /// The column was deliberately deleted by the disk-budget eviction in
    /// [`BehaviorStore::compact`]. The file is gone on purpose — the bytes
    /// were healthy — so this never quarantines anything; callers
    /// re-extract (a read-write pass re-materializes the column).
    Evicted(String),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(msg) => write!(f, "store io error: {msg}"),
            StoreError::Corrupt(msg) => write!(f, "store corruption: {msg}"),
            StoreError::TransientIo(msg) => write!(f, "transient store io error: {msg}"),
            StoreError::Evicted(msg) => write!(f, "store column evicted: {msg}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl StoreError {
    /// True when retrying the same operation could succeed without any
    /// change to the file (the error came from a retryable
    /// [`std::io::ErrorKind`], not from the bytes themselves). Corruption
    /// is never transient: the bytes are wrong and will stay wrong.
    pub(crate) fn is_transient(&self) -> bool {
        matches!(self, StoreError::TransientIo(_))
    }
}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        use std::io::ErrorKind;
        match e.kind() {
            ErrorKind::Interrupted | ErrorKind::WouldBlock | ErrorKind::TimedOut => {
                StoreError::TransientIo(e.to_string())
            }
            _ => StoreError::Io(e.to_string()),
        }
    }
}

/// Most recent error messages a [`StoreStats`] retains. The total is
/// tracked separately in [`StoreStats::error_count`], so a long-lived
/// session accumulating errors across thousands of batches keeps a
/// bounded ring of recent messages instead of growing without limit.
pub const ERROR_RING_CAP: usize = 32;

/// Declares a counter struct from one documented field list and derives
/// its field-wise `accumulate(&mut self, other: &Self)`: each field is
/// summed with `+=`, except those in a trailing `merged by <fn> { .. }`
/// block, declared last and merged by calling `<fn>(self, other)`.
#[macro_export]
macro_rules! counters {
    (
        $(#[$meta:meta])*
        $vis:vis struct $name:ident {
            $( $(#[$fmeta:meta])* $fvis:vis $field:ident : $ty:ty, )*
        }
        $( merged by $merge:path {
            $( $(#[$xmeta:meta])* $xvis:vis $xfield:ident : $xty:ty, )*
        } )?
    ) => {
        $(#[$meta])*
        $vis struct $name {
            $( $(#[$fmeta])* $fvis $field: $ty, )*
            $( $( $(#[$xmeta])* $xvis $xfield: $xty, )* )?
        }

        impl $name {
            /// Adds another window's counters into this one, field by field.
            pub fn accumulate(&mut self, other: &$name) {
                $( self.$field += other.$field; )*
                $( $merge(self, other); )?
            }
        }
    };
}

counters! {
    /// Accounting for store-backed passes, carried per shared pass and
    /// aggregated per batch / per session by the core crate. Column writes
    /// and compaction sweeps return their own delta in this shape.
    #[derive(Debug, Clone, Default, PartialEq)]
    pub struct StoreStats {
        /// Unit columns served (fully or partially) from the store.
        pub columns_scanned: usize,
        /// Subset of `columns_scanned` that were partial columns (scanned up
        /// to their watermark, extracted live past it).
        pub partial_columns_scanned: usize,
        /// Block pages taken through the buffer pool (hits + misses). A page
        /// a pass already holds (see [`ColumnPass`]) and serves again is not
        /// a read, so with the reservation's room a pass reads each stored
        /// page once.
        pub blocks_read: usize,
        /// Blocks the scan never fetched because their zone map proved the
        /// contents (a finite constant block is reconstructed from the zone
        /// entry alone — no read, no checksum). Counted once per distinct
        /// block per column fetch, however many of the fetch's runs cross
        /// it, so a pass over columns stored in its own stream order counts
        /// each prunable block once per stream block that reads from it
        /// (once per pass when the block sizes match).
        pub blocks_pruned: usize,
        /// Column fetches whose stored rows came through the column's
        /// inverse row map: a pass over a column not stored in its stream
        /// order (another seed, or a column `write_column` wrote in record
        /// order), and every [`BehaviorStore::scan_into`]. Counted once per
        /// fetch that scanned, not per position. 0 on a pass over the
        /// columns it wrote itself, which reads each stream block as one
        /// run of stored rows.
        pub inverse_map_fetches: usize,
        /// Pool lookups served from memory: pages resident in the pool that
        /// the pass did not already hold.
        pub pool_hits: usize,
        /// Pool lookups that had to read and verify a block from disk.
        pub pool_misses: usize,
        /// Pages evicted by the CLOCK policy during this window.
        pub pool_evictions: usize,
        /// Complete unit columns newly persisted by write-back.
        pub columns_written: usize,
        /// Partial unit columns persisted by an early-stopped pass (the
        /// completed prefix, resumable at the watermark).
        pub partial_columns_written: usize,
        /// Data blocks written to disk by write-back.
        pub blocks_written: usize,
        /// Uncompressed (raw f32) size of the data written by write-back.
        pub raw_bytes_written: u64,
        /// Encoded size actually stored on disk for that data (`<=` raw when
        /// the per-block codecs compress; equal when every block stays raw).
        pub stored_bytes_written: u64,
        /// Extractor forward passes avoided: streamed engine blocks whose
        /// unit behaviors were served entirely from the store.
        pub forward_passes_avoided: usize,
        /// Segment streams executed by segmented passes (one per dataset
        /// segment actually streamed; 0 on unsegmented passes). On segmented
        /// passes the column key's dataset fingerprint is the *segment*
        /// fingerprint, so warm re-inspection after an append scans old
        /// segments and extracts only the new ones.
        pub segment_passes: usize,
        /// Files deleted by compaction (expired quarantined files and stale
        /// temporaries).
        pub files_reclaimed: usize,
        /// Bytes those deletions returned to the filesystem.
        pub bytes_reclaimed: u64,
        /// Column files, partial or complete, deleted by the disk-budget
        /// (LRU by access stamp) eviction in compaction. Distinct from
        /// `files_reclaimed`, which counts garbage; evicted columns were
        /// healthy but cold.
        pub columns_evicted: usize,
        /// Bytes those evictions returned to the filesystem.
        pub evicted_bytes: u64,
        /// Transient IO errors that were retried (successfully or not) by the
        /// store's bounded-backoff read path. A retry that ultimately succeeds
        /// bumps this without touching `error_count`.
        pub io_retries: usize,
        /// Materialized-view reads answered by replaying a stored frame —
        /// zero extraction, zero store block reads: a view read, or a
        /// batch statement the optimizer answered from a fresh view (the
        /// one place such a replay is counted).
        pub view_hits: usize,
        /// Materialized views refreshed incrementally (new segments only,
        /// folded into the stored measure states).
        pub view_refreshes: usize,
        /// Materialized views built (created, or fully rebuilt because an
        /// input other than dataset growth changed).
        pub view_builds: usize,
        /// Bytes written to view files (create + refresh + rebuild).
        pub view_bytes_written: u64,
        /// Total errors survived by falling back to live extraction
        /// (corrupted or unreadable blocks, failed write-backs). Never fatal.
        pub error_count: usize,
    }
    merged by merge_error_rings {
        /// The most recent `error_count` messages, capped at
        /// [`ERROR_RING_CAP`] (oldest dropped first).
        pub errors: Vec<String>,
    }
}

/// [`StoreStats::accumulate`]'s error ring: the most recent messages of
/// both windows (`error_count`, summed, stays exact).
fn merge_error_rings(stats: &mut StoreStats, other: &StoreStats) {
    stats.errors.extend(other.errors.iter().cloned());
    if stats.errors.len() > ERROR_RING_CAP {
        stats.errors.drain(..stats.errors.len() - ERROR_RING_CAP);
    }
}

impl StoreStats {
    /// Records a survived error: bumps the total and appends the message
    /// to the bounded ring (dropping the oldest past the cap).
    pub fn record_error(&mut self, msg: String) {
        self.error_count += 1;
        if self.errors.len() >= ERROR_RING_CAP {
            self.errors.remove(0);
        }
        self.errors.push(msg);
    }
}

/// Incremental FNV-1a 64-bit hasher for content fingerprints.
///
/// Deterministic across processes and platforms (unlike
/// `std::collections::hash_map::DefaultHasher`, whose seed is
/// randomized), which is what makes fingerprints usable as durable store
/// keys. Not cryptographic — the store is a cache of recomputable data,
/// so collision resistance only has to be statistical.
#[derive(Debug, Clone, Copy)]
pub struct FpHasher {
    state: u64,
}

impl Default for FpHasher {
    fn default() -> Self {
        FpHasher::new()
    }
}

impl FpHasher {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;

    /// Fresh hasher at the FNV offset basis.
    pub fn new() -> FpHasher {
        FpHasher {
            state: Self::OFFSET,
        }
    }

    /// Hashes raw bytes.
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &b in bytes {
            self.state ^= b as u64;
            self.state = self.state.wrapping_mul(Self::PRIME);
        }
        self
    }

    /// Hashes a string (length-prefixed so concatenations can't collide).
    pub fn write_str(&mut self, s: &str) -> &mut Self {
        self.write_u64(s.len() as u64);
        self.write_bytes(s.as_bytes())
    }

    /// Hashes a u64 (little-endian bytes).
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Hashes a u32.
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Hashes an f32 by bit pattern (bit-exact, -0.0 != 0.0).
    pub fn write_f32(&mut self, v: f32) -> &mut Self {
        self.write_u32(v.to_bits())
    }

    /// Hashes a whole f32 slice (length-prefixed).
    pub fn write_f32s(&mut self, vs: &[f32]) -> &mut Self {
        self.write_u64(vs.len() as u64);
        for &v in vs {
            self.write_u32(v.to_bits());
        }
        self
    }

    /// The fingerprint.
    pub fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fp_hasher_is_deterministic_and_sensitive() {
        let fp = |f: &dyn Fn(&mut FpHasher)| {
            let mut h = FpHasher::new();
            f(&mut h);
            h.finish()
        };
        let a = fp(&|h| {
            h.write_str("model").write_u64(7).write_f32s(&[1.0, 2.0]);
        });
        let b = fp(&|h| {
            h.write_str("model").write_u64(7).write_f32s(&[1.0, 2.0]);
        });
        assert_eq!(a, b, "same content, same fingerprint");
        let c = fp(&|h| {
            h.write_str("model").write_u64(7).write_f32s(&[1.0, 2.5]);
        });
        assert_ne!(a, c, "one weight changed, fingerprint changed");
        // Length prefixes keep concatenations apart.
        let d = fp(&|h| {
            h.write_str("ab").write_str("c");
        });
        let e = fp(&|h| {
            h.write_str("a").write_str("bc");
        });
        assert_ne!(d, e);
    }

    #[test]
    fn store_stats_accumulate() {
        let mut a = StoreStats {
            blocks_read: 2,
            pool_hits: 1,
            ..StoreStats::default()
        };
        a.record_error("x".into());
        let mut b = StoreStats {
            blocks_read: 3,
            pool_misses: 4,
            forward_passes_avoided: 5,
            bytes_reclaimed: 7,
            io_retries: 2,
            ..StoreStats::default()
        };
        b.record_error("y".into());
        a.accumulate(&b);
        assert_eq!(a.blocks_read, 5);
        assert_eq!(a.io_retries, 2);
        assert_eq!(a.pool_hits, 1);
        assert_eq!(a.pool_misses, 4);
        assert_eq!(a.forward_passes_avoided, 5);
        assert_eq!(a.bytes_reclaimed, 7);
        assert_eq!(a.error_count, 2);
        assert_eq!(a.errors, vec!["x".to_string(), "y".to_string()]);
    }

    #[test]
    fn error_ring_is_bounded_but_the_count_is_exact() {
        let mut stats = StoreStats::default();
        for i in 0..(3 * ERROR_RING_CAP) {
            stats.record_error(format!("err {i}"));
        }
        assert_eq!(stats.error_count, 3 * ERROR_RING_CAP);
        assert_eq!(stats.errors.len(), ERROR_RING_CAP, "ring stays capped");
        assert_eq!(
            stats.errors.last().unwrap(),
            &format!("err {}", 3 * ERROR_RING_CAP - 1),
            "newest message retained"
        );
        assert_eq!(
            stats.errors.first().unwrap(),
            &format!("err {}", 2 * ERROR_RING_CAP),
            "oldest messages dropped first"
        );
        // Accumulating two full rings stays capped, count stays exact.
        let mut other = StoreStats::default();
        for i in 0..ERROR_RING_CAP {
            other.record_error(format!("other {i}"));
        }
        stats.accumulate(&other);
        assert_eq!(stats.error_count, 4 * ERROR_RING_CAP);
        assert_eq!(stats.errors.len(), ERROR_RING_CAP);
        assert_eq!(
            stats.errors.last().unwrap(),
            &format!("other {}", ERROR_RING_CAP - 1)
        );
    }
}
