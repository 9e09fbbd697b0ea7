//! The Deep Neural Inspection problem model (paper §3).
//!
//! A [`Dataset`] is `nd` fixed-length records of `ns` symbols; a
//! [`HypothesisFn`] maps a record to a per-symbol behavior vector; a
//! [`UnitGroup`] names the hidden units under inspection. The engine
//! validates hypothesis outputs at execution time (length and finiteness),
//! as §4.1 prescribes ("output formats are checked during execution").

use crate::error::DniError;
use deepbase_lang::vocab::{project_behavior, Window};
use deepbase_lang::ParseTree;
use deepbase_lang::{EarleyParser, Grammar, TreeHypothesis};
use deepbase_store::durable::{self, ByteReader, ByteWriter};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// One record: a fixed-length window of symbols, with provenance into the
/// source string it was cut from (so parse-derived hypotheses can label it
/// from a single parse of the source, §6.1).
#[derive(Debug, Clone)]
pub struct Record {
    /// Record index within its dataset.
    pub id: usize,
    /// Symbol ids fed to the model (length = dataset `ns`, padded).
    pub symbols: Vec<u32>,
    /// The window text (padded, same length as `symbols` for char data).
    pub text: String,
    /// Index of the source string this window came from.
    pub source_id: usize,
    /// The full source string.
    pub source_text: Arc<String>,
    /// Offset of the first visible symbol within the source.
    pub offset: usize,
    /// Number of non-padding symbols.
    pub visible: usize,
}

impl Record {
    /// Builds a standalone record (its own source; no windowing).
    pub fn standalone(id: usize, symbols: Vec<u32>, text: String) -> Record {
        let visible = symbols.len();
        Record {
            id,
            symbols,
            source_text: Arc::new(text.clone()),
            text,
            source_id: id,
            offset: 0,
            visible,
        }
    }

    /// The window-projection descriptor for this record.
    pub(crate) fn window(&self) -> Window {
        Window {
            text: self.text.clone(),
            offset: self.offset,
            visible: self.visible,
            target: None,
        }
    }
}

/// One sealed segment of a [`Dataset`]: a contiguous record range with
/// its own content fingerprint (the per-segment behavior-store key).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SegmentInfo {
    /// Segment index within the dataset, in append order.
    pub index: usize,
    /// First record position covered by the segment.
    pub start: usize,
    /// Number of records in the segment (may be zero).
    pub len: usize,
}

/// A dataset `D`: `nd` records of exactly `ns` symbols each, organized as
/// one or more sealed immutable **segments**.
///
/// A dataset built by [`Dataset::new`] is the one-segment case — every
/// pre-segmentation caller compiles and behaves bit-identically, and its
/// sole segment fingerprints equal to the whole dataset (so behavior
/// columns stored before the first append are reused as segment 0 after
/// it). [`Dataset::with_segments`] builds an explicitly segmented
/// dataset, and [`Dataset::append_segment`] is the functional grow step:
/// existing segments (and their cached fingerprints) are carried over
/// unchanged, so warm per-segment store columns keep hitting while only
/// the new segment extracts live.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Stable identifier (keys hypothesis caches).
    pub id: String,
    /// Symbols per record.
    pub ns: usize,
    /// The records, concatenated across segments in segment order.
    pub records: Vec<Record>,
    /// Cumulative segment end offsets (`seg_ends[i]` = one past the last
    /// record of segment `i`). Empty means "one segment covering
    /// everything" — the [`Dataset::new`] case. Kept private so the
    /// segment map can only be built through the validating
    /// constructors; if `records` is mutated out from under it (it is a
    /// public field for compatibility), [`Dataset::segments`] detects the
    /// inconsistency and falls back to the single-segment view.
    seg_ends: Vec<usize>,
    /// Lazily computed whole-dataset fingerprint. Binding and optimizing
    /// fingerprint the dataset once per batch; caching here means the
    /// full symbol data is hashed once per dataset, not once per batch.
    fp: OnceLock<u64>,
    /// Lazily computed per-segment fingerprints (empty for the
    /// single-segment representation, which reuses `fp`).
    seg_fps: Vec<OnceLock<u64>>,
}

fn check_record_lengths(records: &[Record], ns: usize) -> Result<(), DniError> {
    for r in records {
        if r.symbols.len() != ns {
            return Err(DniError::BadRecord {
                record: r.id,
                msg: format!("record length {} != ns {}", r.symbols.len(), ns),
            });
        }
    }
    Ok(())
}

/// Fingerprints a record range with the store's FNV-1a hasher. The
/// "dataset" tag plus (ns, len, per-record id + symbols) schema is shared
/// by whole-dataset and per-segment fingerprints, so a one-segment
/// dataset's segment fingerprint equals its dataset fingerprint.
fn fingerprint_records(ns: usize, records: &[Record]) -> u64 {
    let mut h = deepbase_store::FpHasher::new();
    h.write_str("dataset")
        .write_u64(ns as u64)
        .write_u64(records.len() as u64);
    for r in records {
        h.write_u64(r.id as u64);
        h.write_u64(r.symbols.len() as u64);
        for &s in &r.symbols {
            h.write_u32(s);
        }
    }
    h.finish()
}

impl Dataset {
    /// Creates a single-segment dataset, checking record lengths.
    pub fn new(id: &str, ns: usize, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, ns)?;
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends: Vec::new(),
            fp: OnceLock::new(),
            seg_fps: Vec::new(),
        })
    }

    /// Creates an explicitly segmented dataset from per-segment record
    /// lists (segments may be empty), checking record lengths.
    pub fn with_segments(
        id: &str,
        ns: usize,
        segments: Vec<Vec<Record>>,
    ) -> Result<Dataset, DniError> {
        let mut records = Vec::with_capacity(segments.iter().map(Vec::len).sum());
        let mut seg_ends = Vec::with_capacity(segments.len());
        for seg in segments {
            check_record_lengths(&seg, ns)?;
            records.extend(seg);
            seg_ends.push(records.len());
        }
        let seg_fps = seg_ends.iter().map(|_| OnceLock::new()).collect();
        Ok(Dataset {
            id: id.to_string(),
            ns,
            records,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Functionally appends one sealed segment: a new dataset whose
    /// existing segments — and their already computed fingerprints — are
    /// carried over unchanged, with `records` as one new segment at the
    /// end. The whole-dataset fingerprint restarts (the content changed),
    /// so whole-dataset keys miss while per-segment keys keep hitting.
    pub fn append_segment(&self, records: Vec<Record>) -> Result<Dataset, DniError> {
        check_record_lengths(&records, self.ns)?;
        let mut all = self.records.clone();
        all.extend(records);
        let (mut seg_ends, mut seg_fps) = if self.seg_ends.is_empty() {
            // Single-segment representation: materialize it as segment 0,
            // reusing the whole-dataset fingerprint cell (they are equal
            // by construction of `fingerprint_records`).
            (vec![self.records.len()], vec![self.fp.clone()])
        } else {
            (self.seg_ends.clone(), self.seg_fps.clone())
        };
        seg_ends.push(all.len());
        seg_fps.push(OnceLock::new());
        Ok(Dataset {
            id: self.id.clone(),
            ns: self.ns,
            records: all,
            seg_ends,
            fp: OnceLock::new(),
            seg_fps,
        })
    }

    /// Number of records `nd`.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total number of symbols (`nd * ns`) — the behavior-matrix height.
    pub fn total_symbols(&self) -> usize {
        self.len() * self.ns
    }

    /// True when the private segment map still describes `records` (the
    /// public field may have been mutated since construction).
    fn seg_map_consistent(&self) -> bool {
        !self.seg_ends.is_empty()
            && self.seg_ends.last() == Some(&self.records.len())
            && self.seg_ends.windows(2).all(|w| w[0] <= w[1])
            && self.seg_fps.len() == self.seg_ends.len()
    }

    /// Number of sealed segments (at least 1; a dataset whose segment map
    /// was invalidated by direct `records` mutation reads as 1).
    pub fn segment_count(&self) -> usize {
        if self.seg_map_consistent() {
            self.seg_ends.len()
        } else {
            1
        }
    }

    /// The segment map, in append order. Always covers `records` exactly.
    pub fn segments(&self) -> Vec<SegmentInfo> {
        if !self.seg_map_consistent() {
            return vec![SegmentInfo {
                index: 0,
                start: 0,
                len: self.records.len(),
            }];
        }
        let mut start = 0;
        self.seg_ends
            .iter()
            .enumerate()
            .map(|(index, &end)| {
                let info = SegmentInfo {
                    index,
                    start,
                    len: end - start,
                };
                start = end;
                info
            })
            .collect()
    }

    /// Content fingerprint of one segment (same observable-content schema
    /// as [`Dataset::content_fingerprint`], over the segment's records) —
    /// the per-segment behavior-store key. Cached per segment.
    ///
    /// # Panics
    /// Panics when `index >= segment_count()`.
    pub fn segment_fingerprint(&self, index: usize) -> u64 {
        if !self.seg_map_consistent() {
            assert_eq!(index, 0, "single-segment dataset has only segment 0");
            return self.content_fingerprint();
        }
        let start = if index == 0 {
            0
        } else {
            self.seg_ends[index - 1]
        };
        let end = self.seg_ends[index];
        *self.seg_fps[index].get_or_init(|| fingerprint_records(self.ns, &self.records[start..end]))
    }

    /// Content fingerprint of everything an extractor can observe: the
    /// shape, each record's id (the `PrecomputedExtractor` addressing
    /// key) and its symbols. Keys the persistent behavior store, so two
    /// datasets fingerprint equal iff extraction over them is
    /// bit-identical; window text and provenance are deliberately
    /// excluded (extractors never read them). Segment boundaries are
    /// excluded too — extraction does not depend on them — and the value
    /// is cached (`OnceLock`), so binding and optimizing never rehash the
    /// full symbol data per batch.
    pub fn content_fingerprint(&self) -> u64 {
        *self
            .fp
            .get_or_init(|| fingerprint_records(self.ns, &self.records))
    }
}

// ---------------------------------------------------------------------------
// WAL-backed streaming ingest
// ---------------------------------------------------------------------------

/// Magic + format version for the write-ahead log file.
const WAL_MAGIC: &[u8; 8] = b"DBWAL\x01\0\0";
/// Magic + format version for sealed segment files.
const SEG_MAGIC: &[u8; 8] = b"DBSEG\x01\0\0";
/// The WAL file name inside a [`SegmentedDataset`] directory.
const WAL_FILE: &str = "wal.log";

fn io_err(what: &str, path: &std::path::Path, e: impl std::fmt::Display) -> DniError {
    DniError::Io(format!("{what} {}: {e}", path.display()))
}

/// Serializes one record for WAL frames and segment files. The `Arc`
/// sharing between `text` and `source_text` is not preserved across a
/// round-trip (each decoded record owns its source string), which only
/// costs memory, never correctness.
fn encode_record(r: &Record, out: &mut ByteWriter) {
    out.u64(r.id as u64);
    out.u32s(&r.symbols);
    out.str(&r.text);
    out.u64(r.source_id as u64);
    out.str(&r.source_text);
    out.u64(r.offset as u64);
    out.u64(r.visible as u64);
}

/// Decodes an [`encode_record`] payload. Returns `None` on any truncation,
/// trailing byte or malformed UTF-8 (callers treat that as corruption).
fn decode_record(buf: &[u8]) -> Option<Record> {
    let mut c = ByteReader::new(buf);
    let record = Record {
        id: c.u64()? as usize,
        symbols: c.u32s()?,
        text: c.str()?,
        source_id: c.u64()? as usize,
        source_text: Arc::new(c.str()?),
        offset: c.u64()? as usize,
        visible: c.u64()? as usize,
    };
    c.done().then_some(record)
}

fn payload_checksum(payload: &[u8]) -> u64 {
    let mut h = deepbase_store::FpHasher::new();
    h.write_bytes(payload);
    h.finish()
}

fn segment_file_name(seq: u64) -> String {
    format!("segment-{seq:06}.seg")
}

/// Parses a sealed segment file. Returns `(ns, records)` or `None` on any
/// corruption (bad magic, truncation, checksum mismatch).
fn parse_segment_file(bytes: &[u8]) -> Option<(usize, Vec<Record>)> {
    let checked = bytes.strip_prefix(&SEG_MAGIC[..])?;
    let (body, stored) = checked.split_at(checked.len().checked_sub(8)?);
    if payload_checksum(body).to_le_bytes() != *stored {
        return None;
    }
    let mut c = ByteReader::new(body);
    let ns = c.u64()? as usize;
    let n_records = c.u64()? as usize;
    let mut records = Vec::with_capacity(n_records.min(body.len()));
    for _ in 0..n_records {
        records.push(decode_record(c.blob()?)?);
    }
    c.done().then_some((ns, records))
}

fn build_segment_file(ns: usize, records: &[Record]) -> Vec<u8> {
    let mut out = ByteWriter::default();
    out.bytes(SEG_MAGIC);
    out.u64(ns as u64);
    out.u64(records.len() as u64);
    for r in records {
        let mut payload = ByteWriter::default();
        encode_record(r, &mut payload);
        out.blob(&payload.0);
    }
    let sum = payload_checksum(&out.0[SEG_MAGIC.len()..]);
    out.u64(sum);
    out.0
}

/// One WAL frame: payload length, payload checksum, the record.
fn build_wal_frame(record: &Record) -> Vec<u8> {
    let mut payload = ByteWriter::default();
    encode_record(record, &mut payload);
    let mut frame = ByteWriter::default();
    frame.u32(payload.0.len() as u32);
    frame.u64(payload_checksum(&payload.0));
    frame.bytes(&payload.0);
    frame.0
}

/// The next whole, checksummed [`build_wal_frame`] frame holding a record
/// of `ns` symbols; `None` at the end of the log or at a torn tail.
fn read_wal_frame(c: &mut ByteReader, ns: usize) -> Option<Record> {
    let len = c.u32()? as usize;
    let sum = c.u64()?;
    let payload = c.bytes(len)?;
    if payload_checksum(payload) != sum {
        return None;
    }
    decode_record(payload).filter(|r| r.symbols.len() == ns)
}

/// Makes `path` durably hold exactly `bytes` ([`durable::publish`]).
fn publish(path: &std::path::Path, bytes: &[u8]) -> Result<(), DniError> {
    use std::io::Write as _;
    durable::publish(path, |f| Ok(f.write_all(bytes)?)).map_err(|e| io_err("publish", path, e))
}

/// Publishes an empty WAL (magic + the segment sequence it seals into).
fn reset_wal(wal_path: &std::path::Path, seq: u64) -> Result<(), DniError> {
    let mut header = ByteWriter::default();
    header.bytes(WAL_MAGIC);
    header.u64(seq);
    publish(wal_path, &header.0)
}

/// A dataset that grows by streaming ingest: records append through a
/// length-prefixed, checksummed write-ahead log and are sealed into
/// immutable segment files, each carrying its own content fingerprint
/// when snapshotted into a [`Dataset`]. Files are published, stale temps
/// reaped and corrupt segments quarantined by `deepbase_store::durable`'s
/// one rule.
///
/// Layout under `dir`: `segment-{seq:06}.seg` (sealed, immutable) plus
/// `wal.log` (the unsealed tail). The WAL header records the segment
/// sequence its records will seal into; on reopen, if that segment file
/// already exists the process crashed between seal-rename and WAL reset,
/// so the WAL's records are already durable and the log is discarded
/// (exactly-once ingest across the crash window). A torn tail write is
/// truncated at the last whole checksummed frame; a corrupt sealed
/// segment is renamed aside (quarantined) and reported through
/// [`SegmentedDataset::errors`], leaving every other segment readable and
/// the lost records re-ingestable.
#[derive(Debug)]
pub struct SegmentedDataset {
    dir: std::path::PathBuf,
    id: String,
    ns: usize,
    /// Sealed segments, in sequence order.
    segments: Vec<Vec<Record>>,
    /// The unsealed tail: records appended to the WAL since the last seal.
    tail: Vec<Record>,
    /// Segment sequence the current WAL seals into (= header seq).
    wal_seq: u64,
    /// Open WAL handle, positioned at the end.
    wal: std::fs::File,
    /// Fail-soft recovery notes: quarantined segment files, discarded
    /// duplicate WALs, torn-tail truncations.
    errors: Vec<String>,
}

impl SegmentedDataset {
    /// Opens (or creates) a segmented dataset rooted at `dir`, recovering
    /// sealed segments and the WAL tail. Recoverable damage (corrupt
    /// segment files, torn WAL tails, already-sealed WALs) is repaired
    /// and noted in [`SegmentedDataset::errors`]; only unrecoverable I/O
    /// failures return `Err`.
    pub fn open(
        dir: impl Into<std::path::PathBuf>,
        id: &str,
        ns: usize,
    ) -> Result<SegmentedDataset, DniError> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir).map_err(|e| io_err("create dir", &dir, e))?;
        durable::reap_stale_temps(&dir);
        let mut errors = Vec::new();

        // Load sealed segments in sequence order; quarantine corrupt ones.
        let mut seg_files: Vec<(u64, std::path::PathBuf)> = Vec::new();
        let entries = std::fs::read_dir(&dir).map_err(|e| io_err("read dir", &dir, e))?;
        for entry in entries {
            let entry = entry.map_err(|e| io_err("read dir entry", &dir, e))?;
            let name = entry.file_name().to_string_lossy().into_owned();
            if let Some(seq) = name
                .strip_prefix("segment-")
                .and_then(|s| s.strip_suffix(".seg"))
                .and_then(|s| s.parse::<u64>().ok())
            {
                seg_files.push((seq, entry.path()));
            }
        }
        seg_files.sort();
        let mut segments = Vec::new();
        let mut seg_seqs = Vec::new();
        for (seq, path) in &seg_files {
            let bytes = durable::read_file(path).map_err(|e| io_err("read segment", path, e))?;
            match bytes.and_then(|bytes| parse_segment_file(&bytes)) {
                Some((seg_ns, records)) if seg_ns == ns => {
                    segments.push(records);
                    seg_seqs.push(*seq);
                }
                _ => {
                    // Quarantine: rename aside so the damage is inspectable
                    // and the slot is free for re-ingest.
                    let aside =
                        durable::quarantine(path).map_err(|e| io_err("quarantine", path, e))?;
                    errors.push(format!(
                        "segment {} corrupt; quarantined as {}",
                        segment_file_name(*seq),
                        aside.display()
                    ));
                }
            }
        }
        let next_seq = seg_seqs.iter().max().map_or(0, |m| m + 1);

        // Recover the WAL tail.
        let wal_path = dir.join(WAL_FILE);
        let mut tail = Vec::new();
        let mut wal_seq = next_seq;
        let mut need_reset = true;
        let wal_bytes = durable::read_file(&wal_path);
        if let Some(bytes) = wal_bytes.map_err(|e| io_err("read wal", &wal_path, e))? {
            let mut c = ByteReader::new(&bytes);
            let header_seq = c
                .bytes(WAL_MAGIC.len())
                .filter(|magic| magic == WAL_MAGIC)
                .and_then(|_| c.u64());
            if let Some(header_seq) = header_seq {
                if seg_seqs.contains(&header_seq) {
                    // Crash between seal-rename and WAL reset: these
                    // records are already durable in the sealed segment.
                    errors.push(format!(
                        "wal for already-sealed segment {header_seq} discarded"
                    ));
                } else {
                    wal_seq = header_seq;
                    need_reset = false;
                    // Parse frames; keep the whole-frame checksummed
                    // prefix, truncate any torn suffix.
                    let mut good = c.pos();
                    while let Some(r) = read_wal_frame(&mut c, ns) {
                        tail.push(r);
                        good = c.pos();
                    }
                    if good != bytes.len() {
                        errors.push(format!(
                            "wal tail torn at byte {good} of {}; truncated",
                            bytes.len()
                        ));
                        let f = std::fs::OpenOptions::new()
                            .write(true)
                            .open(&wal_path)
                            .map_err(|e| io_err("open wal", &wal_path, e))?;
                        f.set_len(good as u64)
                            .map_err(|e| io_err("truncate wal", &wal_path, e))?;
                    }
                }
            } else if !bytes.is_empty() {
                errors.push("wal header corrupt; log discarded".to_string());
            }
        }
        if need_reset {
            reset_wal(&wal_path, wal_seq)?;
        }
        let wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("open wal", &wal_path, e))?;

        Ok(SegmentedDataset {
            dir,
            id: id.to_string(),
            ns,
            segments,
            tail,
            wal_seq,
            wal,
            errors,
        })
    }

    /// Appends one record to the WAL (durable before return; sealed into
    /// an immutable segment by [`SegmentedDataset::seal`]).
    pub fn append(&mut self, record: Record) -> Result<(), DniError> {
        use std::io::Write as _;
        if record.symbols.len() != self.ns {
            return Err(DniError::BadRecord {
                record: record.id,
                msg: format!("record length {} != ns {}", record.symbols.len(), self.ns),
            });
        }
        let wal_path = self.dir.join(WAL_FILE);
        self.wal
            .write_all(&build_wal_frame(&record))
            .map_err(|e| io_err("append wal", &wal_path, e))?;
        self.wal
            .sync_data()
            .map_err(|e| io_err("sync wal", &wal_path, e))?;
        self.tail.push(record);
        Ok(())
    }

    /// Seals the WAL tail into an immutable segment file (published
    /// atomically), then resets the WAL for the next segment. No-op when
    /// the tail is empty. Crash-safe: the WAL is reset only *after* the
    /// segment rename lands, and reopen detects the in-between state by
    /// the WAL header's sequence number.
    pub fn seal(&mut self) -> Result<(), DniError> {
        if self.tail.is_empty() {
            return Ok(());
        }
        let seg_path = self.dir.join(segment_file_name(self.wal_seq));
        publish(&seg_path, &build_segment_file(self.ns, &self.tail))?;
        // Segment durable; now reset the WAL for the next sequence.
        self.wal_seq += 1;
        let wal_path = self.dir.join(WAL_FILE);
        reset_wal(&wal_path, self.wal_seq)?;
        self.wal = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .map_err(|e| io_err("open wal", &wal_path, e))?;
        self.segments.push(std::mem::take(&mut self.tail));
        Ok(())
    }

    /// Snapshots the **sealed** segments as an immutable [`Dataset`]
    /// (unsealed tail records are excluded until [`SegmentedDataset::seal`]).
    pub fn snapshot(&self) -> Result<Arc<Dataset>, DniError> {
        Ok(Arc::new(Dataset::with_segments(
            &self.id,
            self.ns,
            self.segments.clone(),
        )?))
    }

    /// Total sealed records across all segments.
    pub fn len(&self) -> usize {
        self.segments.iter().map(Vec::len).sum()
    }

    /// True when no records are sealed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of sealed segments.
    pub fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Records appended but not yet sealed.
    pub fn tail_len(&self) -> usize {
        self.tail.len()
    }

    /// Fail-soft recovery notes from [`SegmentedDataset::open`]
    /// (quarantined segments, torn-tail truncations, discarded WALs).
    pub fn errors(&self) -> &[String] {
        &self.errors
    }
}

/// A named group of hidden units `U ⊆ M` (paper Def. 1: measures score a
/// *group*, because joint measures depend on which units train together).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnitGroup {
    /// Group name (e.g. `layer0`, `all`, `epoch3/layer1`).
    pub id: String,
    /// Unit indices into the model's unit vector.
    pub units: Vec<usize>,
}

impl UnitGroup {
    /// Convenience constructor.
    pub fn new(id: &str, units: Vec<usize>) -> UnitGroup {
        UnitGroup {
            id: id.to_string(),
            units,
        }
    }

    /// The group `0..n` named `all`.
    pub fn all(n: usize) -> UnitGroup {
        UnitGroup {
            id: "all".into(),
            units: (0..n).collect(),
        }
    }
}

/// A hypothesis function `h(d) ∈ R^ns` (paper §3): annotates every symbol
/// of a record with high-level logic.
pub trait HypothesisFn: Send + Sync {
    /// Stable identifier (e.g. `where_clause:time`, `pos:CC`).
    fn id(&self) -> &str;

    /// Evaluates the hypothesis over one record. The engine checks that
    /// the result has exactly `ns` finite entries.
    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError>;
}

/// Validates a hypothesis output per §4.1: exact length and finite values.
pub(crate) fn validate_behavior(
    hyp_id: &str,
    record: &Record,
    ns: usize,
    b: &[f32],
) -> Result<(), DniError> {
    if b.len() != ns {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("behavior length {} != ns {}", b.len(), ns),
        });
    }
    if let Some(pos) = b.iter().position(|v| !v.is_finite()) {
        return Err(DniError::BadHypothesisOutput {
            hypothesis: hyp_id.to_string(),
            record: record.id,
            msg: format!("non-finite behavior value at symbol {pos}"),
        });
    }
    Ok(())
}

/// Boxed behavior closure backing [`FnHypothesis`].
type BehaviorFn = Box<dyn Fn(&Record) -> Vec<f32> + Send + Sync>;

/// A hypothesis defined by a plain closure over the record text — the
/// "arbitrary Python function" path of the paper's API.
pub struct FnHypothesis {
    id: String,
    f: BehaviorFn,
}

impl FnHypothesis {
    /// Wraps a closure producing a per-symbol behavior.
    pub fn new(id: &str, f: impl Fn(&Record) -> Vec<f32> + Send + Sync + 'static) -> Self {
        FnHypothesis {
            id: id.to_string(),
            f: Box::new(f),
        }
    }

    /// Keyword-detector hypothesis over the window text.
    pub fn keyword(keyword: &str) -> Self {
        let kw = keyword.to_string();
        FnHypothesis::new(&format!("kw:{keyword}"), move |rec| {
            deepbase_lang::hypothesis::keyword_behavior(&rec.text, &kw)
        })
    }

    /// Character-class hypothesis over the window text.
    pub fn char_class(id: &str, pred: impl Fn(char) -> bool + Send + Sync + 'static) -> Self {
        FnHypothesis::new(id, move |rec| {
            deepbase_lang::hypothesis::char_class_behavior(&rec.text, &pred)
        })
    }

    /// Position-counter hypothesis ("does the model count symbols?").
    pub fn position_counter() -> Self {
        FnHypothesis::new("counter", |rec| {
            deepbase_lang::hypothesis::position_counter_behavior(&rec.text)
        })
    }
}

impl HypothesisFn for FnHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        Ok((self.f)(record))
    }
}

/// One source's cache entry: its parse (`None`: unparseable) and, beside
/// it, the source's length in characters — every parse hypothesis needs
/// it on every record of the source. Both are once-cells, so the map lock
/// is never held while parsing: threads missing the same source wait on
/// that source's cell, one of them parses, and other sources parse
/// alongside.
#[derive(Default)]
struct ParsedSource {
    tree: OnceLock<Option<Arc<ParseTree>>>,
    chars: OnceLock<usize>,
}

impl ParsedSource {
    fn tree(&self) -> Option<&Arc<ParseTree>> {
        self.tree.get().and_then(Option::as_ref)
    }
}

/// Shared parse cache: each source string is parsed at most once, and the
/// tree is shared by every parse-derived hypothesis (paper §6.1: "the
/// other hypothesis functions based on the parser do not need to re-parse
/// the input text"). `None` records an unparseable source.
#[derive(Default)]
pub struct ParseCache {
    sources: Mutex<HashMap<usize, Arc<ParsedSource>>>,
    /// Number of parser invocations (cache misses), for the Fig. 9 cost
    /// accounting.
    misses: AtomicUsize,
    /// Wall time spent inside those invocations, in nanoseconds.
    parse_nanos: AtomicU64,
}

impl ParseCache {
    /// Empty cache.
    pub fn new() -> Arc<ParseCache> {
        Arc::new(ParseCache::default())
    }

    /// Pre-populates the cache with a ground-truth tree (PCFG sampling
    /// yields the derivation for free).
    pub(crate) fn insert(&self, source_id: usize, tree: ParseTree) {
        let parsed = ParsedSource {
            tree: OnceLock::from(Some(Arc::new(tree))),
            chars: OnceLock::new(),
        };
        self.sources.lock().insert(source_id, Arc::new(parsed));
    }

    /// The entry of a source, parsed by `parse` if nobody asked before.
    fn source(
        &self,
        source_id: usize,
        parse: impl FnOnce() -> Option<ParseTree>,
    ) -> Arc<ParsedSource> {
        let source = Arc::clone(self.sources.lock().entry(source_id).or_default());
        source.tree.get_or_init(|| {
            let started = Instant::now();
            let tree = parse().map(Arc::new);
            let nanos = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            self.parse_nanos.fetch_add(nanos, Ordering::Relaxed);
            self.misses.fetch_add(1, Ordering::Relaxed);
            tree
        });
        source
    }

    /// Number of parser invocations so far.
    pub fn miss_count(&self) -> usize {
        self.misses.load(Ordering::Relaxed)
    }

    /// Wall time spent in those parser invocations.
    pub fn parse_time(&self) -> Duration {
        Duration::from_nanos(self.parse_nanos.load(Ordering::Relaxed))
    }
}

/// A parse-derived hypothesis (paper Fig. 3): evaluates a
/// [`TreeHypothesis`] on the record's *source* parse and projects the
/// behavior onto the window.
pub struct ParseHypothesis {
    id: String,
    grammar: Arc<Grammar>,
    inner: TreeHypothesis,
    cache: Arc<ParseCache>,
}

impl ParseHypothesis {
    /// Creates a hypothesis for one grammar rule + representation, sharing
    /// `cache` with its siblings.
    pub(crate) fn new(
        grammar: Arc<Grammar>,
        inner: TreeHypothesis,
        cache: Arc<ParseCache>,
    ) -> Self {
        ParseHypothesis {
            id: inner.name(),
            grammar,
            inner,
            cache,
        }
    }

    /// Builds the paper's default library: one hypothesis per nonterminal
    /// per representation, all sharing one parse cache.
    pub fn library(
        grammar: &Arc<Grammar>,
        reprs: &[deepbase_lang::TreeRepr],
        cache: &Arc<ParseCache>,
    ) -> Vec<ParseHypothesis> {
        deepbase_lang::grammar_hypotheses(grammar, reprs)
            .into_iter()
            .map(|inner| ParseHypothesis::new(Arc::clone(grammar), inner, Arc::clone(cache)))
            .collect()
    }
}

impl HypothesisFn for ParseHypothesis {
    fn id(&self) -> &str {
        &self.id
    }

    fn behavior(&self, record: &Record) -> Result<Vec<f32>, DniError> {
        let source = self.cache.source(record.source_id, || {
            EarleyParser::new(&self.grammar).parse(&record.source_text)
        });
        let ns = record.symbols.len();
        match source.tree() {
            Some(tree) => {
                let source_len = *source
                    .chars
                    .get_or_init(|| record.source_text.chars().count());
                let full = self.inner.behavior(tree, source_len);
                Ok(project_behavior(&full, &record.window(), ns))
            }
            // Unparseable source: the hypothesis is silent everywhere.
            None => Ok(vec![0.0; ns]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use deepbase_lang::TreeRepr;

    /// Fetches the parse of a source, running `parse` on a miss.
    fn get_or_parse(
        cache: &ParseCache,
        source_id: usize,
        parse: impl FnOnce() -> Option<ParseTree>,
    ) -> Option<Arc<ParseTree>> {
        cache.source(source_id, parse).tree().cloned()
    }

    fn record(text: &str) -> Record {
        Record::standalone(
            0,
            text.chars().map(|c| c as u32).collect(),
            text.to_string(),
        )
    }

    #[test]
    fn dataset_rejects_ragged_records() {
        let r1 = record("abc");
        let r2 = record("abcd");
        assert!(Dataset::new("d", 3, vec![r1.clone()]).is_ok());
        assert!(Dataset::new("d", 3, vec![r1, r2]).is_err());
    }

    #[test]
    fn dataset_total_symbols() {
        let d = Dataset::new("d", 3, vec![record("abc"), record("xyz")]).unwrap();
        assert_eq!(d.total_symbols(), 6);
    }

    #[test]
    fn unit_group_all() {
        let g = UnitGroup::all(4);
        assert_eq!(g.units, vec![0, 1, 2, 3]);
        assert_eq!(g.id, "all");
    }

    #[test]
    fn validate_behavior_checks_length_and_nan() {
        let r = record("ab");
        assert!(validate_behavior("h", &r, 2, &[0.0, 1.0]).is_ok());
        assert!(validate_behavior("h", &r, 2, &[0.0]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::NAN]).is_err());
        assert!(validate_behavior("h", &r, 2, &[0.0, f32::INFINITY]).is_err());
    }

    #[test]
    fn fn_hypothesis_keyword() {
        let h = FnHypothesis::keyword("ab");
        let b = h.behavior(&record("xabx")).unwrap();
        assert_eq!(b, vec![0.0, 1.0, 1.0, 0.0]);
        assert_eq!(h.id(), "kw:ab");
    }

    #[test]
    fn fn_hypothesis_char_class_and_counter() {
        let h = FnHypothesis::char_class("ws", char::is_whitespace);
        assert_eq!(h.behavior(&record("a b")).unwrap(), vec![0.0, 1.0, 0.0]);
        let c = FnHypothesis::position_counter();
        assert_eq!(c.behavior(&record("abc")).unwrap(), vec![0.0, 1.0, 2.0]);
    }

    #[test]
    fn parse_cache_parses_once() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = get_or_parse(&cache, 7, || {
                calls += 1;
                Some(ParseTree {
                    rule: "s".into(),
                    start: 0,
                    end: 1,
                    children: vec![],
                })
            });
            assert!(t.is_some());
        }
        assert_eq!(calls, 1);
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_cache_remembers_failures() {
        let cache = ParseCache::new();
        let mut calls = 0;
        for _ in 0..3 {
            let t = get_or_parse(&cache, 1, || {
                calls += 1;
                None
            });
            assert!(t.is_none());
        }
        assert_eq!(calls, 1, "failure must also be cached");
    }

    #[test]
    fn concurrent_misses_of_one_source_parse_once() {
        use std::sync::atomic::AtomicUsize;
        use std::sync::mpsc::channel;
        let leaf = || ParseTree {
            rule: "s".into(),
            start: 0,
            end: 1,
            children: vec![],
        };
        let cache = ParseCache::new();
        let calls = AtomicUsize::new(0);
        let (started_tx, started_rx) = channel();
        let (go_tx, go_rx) = channel::<()>();
        let (done_tx, done_rx) = channel();
        let (early, alongside) = std::thread::scope(|s| {
            // The first thread is held inside its parse of source 7 ...
            let (cache, calls) = (&cache, &calls);
            s.spawn(move || {
                get_or_parse(cache, 7, || {
                    calls.fetch_add(1, Ordering::SeqCst);
                    started_tx.send(()).unwrap();
                    go_rx.recv().unwrap();
                    Some(leaf())
                })
            });
            started_rx.recv().unwrap();
            // ... while seven more miss the same source. A cache that
            // forgets the parse in flight lets them parse and answer now.
            for _ in 0..7 {
                let done_tx = done_tx.clone();
                s.spawn(move || {
                    let tree = get_or_parse(cache, 7, || {
                        calls.fetch_add(1, Ordering::SeqCst);
                        Some(leaf())
                    });
                    done_tx.send(tree.is_some()).unwrap();
                });
            }
            let early = done_rx.recv_timeout(Duration::from_millis(200)).is_ok();
            // Another source is not behind the one in flight.
            let alongside = get_or_parse(cache, 8, || Some(leaf())).is_some();
            go_tx.send(()).unwrap();
            (early, alongside)
        });
        assert!(!early, "a waiter answered before the parse finished");
        assert!(alongside);
        assert_eq!(done_rx.try_iter().collect::<Vec<_>>(), vec![true; 7]);
        assert_eq!(calls.load(Ordering::SeqCst), 1, "source 7 parsed once");
        assert_eq!(cache.miss_count(), 2, "one miss per source");
    }

    #[test]
    fn parse_cache_accounts_parser_wall_time() {
        let grammar = Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' ;").unwrap();
        let cache = ParseCache::new();
        assert_eq!(cache.parse_time(), Duration::ZERO);
        let source = vec!["1"; 200].join("+");
        for _ in 0..2 {
            let tree = get_or_parse(&cache, 0, || EarleyParser::new(&grammar).parse(&source));
            assert!(tree.is_some());
        }
        let spent = cache.parse_time();
        assert!(spent > Duration::ZERO);
        // A hit adds nothing.
        get_or_parse(&cache, 0, || unreachable!("cached"));
        assert_eq!(cache.parse_time(), spent);
    }

    #[test]
    fn parse_hypothesis_labels_window_from_source_parse() {
        let grammar = Arc::new(
            Grammar::from_spec("expr -> term | expr '+' term ; term -> '1' | '2' ;").unwrap(),
        );
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "term".into(),
                repr: TreeRepr::Time,
            },
            Arc::clone(&cache),
        );
        // Source "1+2", window covering chars 1..3 ("+2") padded to 3.
        let source = Arc::new("1+2".to_string());
        let rec = Record {
            id: 0,
            symbols: vec![0, '+' as u32, '2' as u32],
            text: "~+2".into(),
            source_id: 0,
            source_text: source,
            offset: 1,
            visible: 2,
        };
        let b = hyp.behavior(&rec).unwrap();
        // Pad position 0, '+' not a term, '2' is a term.
        assert_eq!(b, vec![0.0, 0.0, 1.0]);
        assert_eq!(cache.miss_count(), 1);
        // Second evaluation hits the cache.
        let _ = hyp.behavior(&rec).unwrap();
        assert_eq!(cache.miss_count(), 1);
    }

    #[test]
    fn parse_hypothesis_unparseable_source_is_silent() {
        let grammar = Arc::new(Grammar::from_spec("s -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let hyp = ParseHypothesis::new(
            Arc::clone(&grammar),
            TreeHypothesis {
                rule: "s".into(),
                repr: TreeRepr::Time,
            },
            cache,
        );
        let rec = record("zz");
        assert_eq!(hyp.behavior(&rec).unwrap(), vec![0.0, 0.0]);
    }

    #[test]
    fn parse_library_shares_cache() {
        let grammar = Arc::new(Grammar::from_spec("a -> b ; b -> 'x' ;").unwrap());
        let cache = ParseCache::new();
        let lib = ParseHypothesis::library(&grammar, &[TreeRepr::Time, TreeRepr::Signal], &cache);
        assert_eq!(lib.len(), 4);
        let rec = record("x");
        for h in &lib {
            let _ = h.behavior(&rec).unwrap();
        }
        assert_eq!(cache.miss_count(), 1, "one parse serves all hypotheses");
    }
    fn golden_records() -> Vec<Record> {
        vec![
            Record::standalone(0, vec![97, 98, 99], "abc".to_string()),
            Record {
                id: 1,
                symbols: vec![120, 121, 122],
                text: "xyz".to_string(),
                source_id: 7,
                source_text: Arc::new("wxyz!".to_string()),
                offset: 1,
                visible: 2,
            },
        ]
    }

    /// `golden_records()` sealed as `segment-000000.seg` by the parent
    /// commit's code.
    const GOLDEN_SEGMENT: &[u8] = &[
        0x44, 0x42, 0x53, 0x45, 0x47, 0x01, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x3e, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x61, 0x00, 0x00, 0x00, 0x62,
        0x00, 0x00, 0x00, 0x63, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x61, 0x62, 0x63, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x40, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00,
        0x00, 0x78, 0x00, 0x00, 0x00, 0x79, 0x00, 0x00, 0x00, 0x7a, 0x00, 0x00, 0x00, 0x03, 0x00,
        0x00, 0x00, 0x78, 0x79, 0x7a, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00,
        0x00, 0x00, 0x77, 0x78, 0x79, 0x7a, 0x21, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x02, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x0d, 0xd3, 0xa2, 0xbd, 0x44, 0xc9, 0x12,
        0x45,
    ];
    /// The `wal.log` of segment 1 holding `golden_records()[1]`, as the
    /// parent commit's code wrote it: 16 header bytes, then one frame.
    const GOLDEN_WAL: &[u8] = &[
        0x44, 0x42, 0x57, 0x41, 0x4c, 0x01, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x40, 0x00, 0x00, 0x00, 0xd8, 0x6a, 0xfd, 0x88, 0x48, 0x73, 0x01, 0x63, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x78, 0x00, 0x00, 0x00, 0x79,
        0x00, 0x00, 0x00, 0x7a, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x78, 0x79, 0x7a, 0x07,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x05, 0x00, 0x00, 0x00, 0x77, 0x78, 0x79, 0x7a,
        0x21, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00,
    ];

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("deepbase-model-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn the_segment_file_bytes_did_not_move() {
        let records = golden_records();
        assert_eq!(build_segment_file(3, &records), GOLDEN_SEGMENT);
        let (ns, decoded) = parse_segment_file(GOLDEN_SEGMENT).expect("golden decodes");
        assert_eq!(ns, 3);
        assert_eq!(build_segment_file(ns, &decoded), GOLDEN_SEGMENT);
        assert_eq!(decoded[1].source_text.as_str(), "wxyz!");
        assert_eq!((decoded[1].offset, decoded[1].visible), (1, 2));
        for cut in 0..GOLDEN_SEGMENT.len() {
            assert!(
                parse_segment_file(&GOLDEN_SEGMENT[..cut]).is_none(),
                "prefix {cut} decoded"
            );
        }
        assert!(parse_segment_file(&[GOLDEN_SEGMENT, &[0]].concat()).is_none());
    }

    #[test]
    fn the_wal_bytes_did_not_move_and_every_torn_tail_is_cut_at_a_frame() {
        let record = golden_records().pop().unwrap();
        let (header, frame) = GOLDEN_WAL.split_at(16);
        assert_eq!(build_wal_frame(&record), frame);
        // The record payload itself: every cut and any trailing byte is
        // refused.
        let payload = &frame[12..];
        assert_eq!(
            build_wal_frame(&decode_record(payload).expect("golden decodes")),
            frame
        );
        for cut in 0..payload.len() {
            assert!(decode_record(&payload[..cut]).is_none(), "prefix {cut}");
        }
        assert!(decode_record(&[payload, &[0]].concat()).is_none());

        // Through recovery: the golden log replays its one record; a log
        // cut anywhere inside the frame (or grown by a byte) keeps only
        // whole frames and is truncated there, never misread.
        let dir = temp_dir("wal");
        let wal = dir.join(WAL_FILE);
        let recover = |bytes: &[u8]| {
            std::fs::write(&wal, bytes).unwrap();
            let ds = SegmentedDataset::open(&dir, "d", 3).unwrap();
            (
                ds.tail_len(),
                ds.errors().len(),
                std::fs::read(&wal).unwrap(),
            )
        };
        assert_eq!(recover(GOLDEN_WAL), (1, 0, GOLDEN_WAL.to_vec()));
        for cut in 17..GOLDEN_WAL.len() {
            assert_eq!(
                recover(&GOLDEN_WAL[..cut]),
                (0, 1, header.to_vec()),
                "cut {cut}"
            );
        }
        let longer = [GOLDEN_WAL, &[0]].concat();
        assert_eq!(recover(&longer), (1, 1, GOLDEN_WAL.to_vec()));
        // A cut inside the header discards the log and starts segment 0.
        for cut in 1..16 {
            let (tail, notes, bytes) = recover(&GOLDEN_WAL[..cut]);
            assert_eq!((tail, notes), (0, 1), "cut {cut}");
            assert_eq!(bytes, [&header[..8], &[0; 8]].concat(), "cut {cut}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}
