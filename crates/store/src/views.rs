//! Durable materialized inspection views.
//!
//! A **view** is a named, persisted answer to one bound INSPECT
//! statement: the normalized statement text, the exact configuration it
//! ran under, a high-water mark over every input (model fingerprints and
//! per-segment dataset fingerprints), the mergeable per-slot measure
//! states of the full pass, and the raw result frame — floats stored as
//! raw bits so a replay is bit-identical to the pass that produced it.
//!
//! The [`ViewCatalog`] owns the `<store root>/views/` directory. Each
//! view is one self-contained file (magic + version header, body,
//! trailing CRC32) published, reaped and read by [`crate::durable`]'s one
//! rule — exactly like column files and sealed dataset segments — so a
//! reader concurrent with a refresh sees either the old or the new file,
//! never a torn one, and a writer that crashes mid-refresh leaves the old
//! entry intact.
//!
//! Freshness is decided by fingerprint comparison alone
//! ([`ViewDoc::freshness`]): identical inputs replay, a dataset that
//! only *grew* (the stored segment fingerprints are a strict prefix of
//! the current ones) refreshes incrementally over the new segments, and
//! any other change invalidates the view for a full rebuild. The store
//! layer knows nothing about statements or measures — it stores the
//! bytes faithfully and validates them loudly; the core crate decides
//! what they mean.

use std::collections::BTreeMap;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::SystemTime;

use crate::durable::{self, ByteReader, ByteWriter};
use crate::format::crc32;
use crate::{FpHasher, StoreError};

/// Magic + format version of a view file.
const VIEW_MAGIC: &[u8; 8] = b"DBVIEW\x01\0";
/// View file extension.
const VIEW_EXT: &str = "view";

/// One hypothesis's share of a serialized mergeable measure state — the
/// bytes a one-hypothesis state writes, whatever hypothesis list the pass
/// ran its states over — in capture order. The identifying triple lets a
/// refresh validate that the plan it re-bound still expects exactly these
/// states, in this order, before folding anything.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewHypState {
    /// Unit-group id of the slot.
    pub group_id: String,
    /// Measure id of the slot.
    pub measure_id: String,
    /// Hypothesis id of the slot.
    pub hyp_id: String,
    /// Opaque state bytes (the core crate's measure serialization).
    pub state: Vec<u8>,
}

/// One stored result row. Scores are raw `f32` bits so NaN payloads and
/// signed zeros replay exactly.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewRow {
    /// Model id.
    pub model_id: String,
    /// Unit-group id.
    pub group_id: String,
    /// Measure id.
    pub measure_id: String,
    /// Hypothesis id.
    pub hyp_id: String,
    /// Unit index.
    pub unit: u64,
    /// `f32::to_bits` of the unit score.
    pub unit_score_bits: u32,
    /// `f32::to_bits` of the group score.
    pub group_score_bits: u32,
}

/// How a stored view relates to the current inputs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ViewFreshness {
    /// Every input fingerprint matches: replay the stored frame.
    Fresh,
    /// Only the dataset grew: the stored segment fingerprints are a
    /// strict prefix of the current ones. Refresh incrementally over the
    /// `new_segments` appended segments.
    Stale {
        /// Segments appended since the view was materialized.
        new_segments: usize,
    },
    /// Some other input changed (model weights, configuration, dataset
    /// contents): the stored state is unusable, rebuild from scratch.
    Invalid,
}

/// The complete durable content of one materialized view.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDoc {
    /// View name (the catalog key).
    pub name: String,
    /// Normalized statement text (the session plan-cache key form, so
    /// whitespace/case variants of one statement map to one view).
    pub statement: String,
    /// Engine kind tag the pass ran under.
    pub engine: String,
    /// Streaming block size the pass ran under.
    pub block_records: u64,
    /// `f32::to_bits` of the convergence threshold, when one was set.
    pub epsilon_bits: Option<u32>,
    /// Shuffle seed the pass ran under.
    pub seed: u64,
    /// Fingerprints of every bound model, in binding order.
    pub model_fps: Vec<u64>,
    /// Per-segment dataset fingerprints, in segment order — the
    /// high-water mark incremental refresh advances.
    pub segment_fps: Vec<u64>,
    /// Serialized mergeable measure states, one per hypothesis of every
    /// state, in capture order.
    pub states: Vec<ViewHypState>,
    /// The raw (pre-projection) result frame.
    pub rows: Vec<ViewRow>,
}

impl ViewDoc {
    /// Compares the stored high-water mark against the current inputs.
    pub fn freshness(
        &self,
        engine: &str,
        block_records: u64,
        epsilon_bits: Option<u32>,
        seed: u64,
        model_fps: &[u64],
        segment_fps: &[u64],
    ) -> ViewFreshness {
        if self.engine != engine
            || self.block_records != block_records
            || self.epsilon_bits != epsilon_bits
            || self.seed != seed
            || self.model_fps != model_fps
        {
            return ViewFreshness::Invalid;
        }
        if self.segment_fps == segment_fps {
            return ViewFreshness::Fresh;
        }
        if self.segment_fps.len() < segment_fps.len()
            && !self.segment_fps.is_empty()
            && segment_fps[..self.segment_fps.len()] == self.segment_fps[..]
        {
            return ViewFreshness::Stale {
                new_segments: segment_fps.len() - self.segment_fps.len(),
            };
        }
        ViewFreshness::Invalid
    }

    /// The whole file: magic, body, CRC32 of the body.
    fn encode(&self) -> Vec<u8> {
        let mut b = ByteWriter::default();
        b.bytes(VIEW_MAGIC);
        b.str(&self.name);
        b.str(&self.statement);
        b.str(&self.engine);
        b.u64(self.block_records);
        match self.epsilon_bits {
            Some(bits) => {
                b.u8(1);
                b.u32(bits);
            }
            None => b.u8(0),
        }
        b.u64(self.seed);
        b.u64s(&self.model_fps);
        b.u64s(&self.segment_fps);
        b.u32(self.states.len() as u32);
        for s in &self.states {
            b.str(&s.group_id);
            b.str(&s.measure_id);
            b.str(&s.hyp_id);
            b.blob(&s.state);
        }
        b.u64(self.rows.len() as u64);
        for r in &self.rows {
            b.str(&r.model_id);
            b.str(&r.group_id);
            b.str(&r.measure_id);
            b.str(&r.hyp_id);
            b.u64(r.unit);
            b.u32(r.unit_score_bits);
            b.u32(r.group_score_bits);
        }
        let crc = crc32(&b.0[VIEW_MAGIC.len()..]);
        b.u32(crc);
        b.0
    }

    /// Validates and decodes a whole view file; `what` names it in errors.
    fn decode(bytes: &[u8], what: &dyn std::fmt::Display) -> Result<ViewDoc, StoreError> {
        let corrupt = |why: &str| StoreError::Corrupt(format!("view file {what} {why}"));
        if bytes.len() < VIEW_MAGIC.len() + 4 || !bytes.starts_with(VIEW_MAGIC) {
            return Err(corrupt("has a bad header"));
        }
        let (body, stored) = bytes[VIEW_MAGIC.len()..].split_at(bytes.len() - VIEW_MAGIC.len() - 4);
        if crc32(body).to_le_bytes() != *stored {
            return Err(corrupt("failed its checksum"));
        }
        Self::decode_body(body).ok_or_else(|| corrupt("body is malformed"))
    }

    fn decode_body(body: &[u8]) -> Option<ViewDoc> {
        let mut c = ByteReader::new(body);
        let name = c.str()?;
        let statement = c.str()?;
        let engine = c.str()?;
        let block_records = c.u64()?;
        let epsilon_bits = match c.u8()? {
            0 => None,
            1 => Some(c.u32()?),
            _ => return None,
        };
        let seed = c.u64()?;
        let model_fps = c.u64s()?;
        let segment_fps = c.u64s()?;
        let n_states = c.u32()? as usize;
        let mut states = Vec::with_capacity(n_states.min(1024));
        for _ in 0..n_states {
            states.push(ViewHypState {
                group_id: c.str()?,
                measure_id: c.str()?,
                hyp_id: c.str()?,
                state: c.blob()?.to_vec(),
            });
        }
        let n_rows = c.u64()? as usize;
        let mut rows = Vec::with_capacity(n_rows.min(1 << 16));
        for _ in 0..n_rows {
            rows.push(ViewRow {
                model_id: c.str()?,
                group_id: c.str()?,
                measure_id: c.str()?,
                hyp_id: c.str()?,
                unit: c.u64()?,
                unit_score_bits: c.u32()?,
                group_score_bits: c.u32()?,
            });
        }
        c.done().then_some(ViewDoc {
            name,
            statement,
            engine,
            block_records,
            epsilon_bits,
            seed,
            model_fps,
            segment_fps,
            states,
            rows,
        })
    }
}

/// What tells one version of a file from the next without reading it:
/// length and mtime (a rename carries both over from the temp).
type FileIdentity = (u64, Option<SystemTime>);

/// The durable view catalog at `<store root>/views/`.
///
/// Thread-safe behind one handle (the server shares it across every
/// connection exactly like the behavior store): writes serialize through
/// the filesystem's atomic rename, reads validate the trailing CRC and
/// are cached in memory keyed by file path and identity, so a warm replay
/// costs one `stat` call and a warm statement probe one `read_dir` plus
/// one `stat` per view — zero file reads, zero store block reads and zero
/// extraction while the files are unchanged.
pub struct ViewCatalog {
    dir: PathBuf,
    read_only: bool,
    /// Validated views by file path, with the identity each was read at.
    cache: Mutex<BTreeMap<PathBuf, (FileIdentity, Arc<ViewDoc>)>>,
    /// View files read and decoded so far (cache misses).
    #[cfg(test)]
    decodes: std::sync::atomic::AtomicUsize,
}

impl ViewCatalog {
    /// Opens the catalog under `store_root/views/`. The directory is
    /// created lazily by the first `save` — a store that never
    /// materializes a view keeps its old layout. Read-write opens of an
    /// existing catalog reap the temp files crashed refreshes left behind
    /// ([`durable::reap_stale_temps`]; the completed entry a crashed
    /// refresh failed to replace is untouched). Never fails: an
    /// unreadable directory just behaves as an empty catalog whose writes
    /// error.
    pub fn open(store_root: &Path, read_only: bool) -> ViewCatalog {
        let dir = store_root.join("views");
        if !read_only {
            durable::reap_stale_temps(&dir);
        }
        ViewCatalog {
            dir,
            read_only,
            cache: Mutex::new(BTreeMap::new()),
            #[cfg(test)]
            decodes: Default::default(),
        }
    }

    /// The catalog directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// File path of a view: a sanitized name prefix (for humans) plus the
    /// full-name fingerprint (for uniqueness across names the sanitizer
    /// collapses).
    fn path_of(&self, name: &str) -> PathBuf {
        let safe: String = name
            .chars()
            .take(40)
            .map(|c| {
                if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                    c
                } else {
                    '_'
                }
            })
            .collect();
        let fp = FpHasher::new().write_str(name).finish();
        self.dir.join(format!("{safe}-{fp:016x}.{VIEW_EXT}"))
    }

    /// The validated document in the view file at `path`, whose metadata
    /// the caller just read: from the cache while the file identity is
    /// unchanged, else read, validated and cached. `Ok(None)` when the
    /// file is absent.
    fn fetch(
        &self,
        path: PathBuf,
        meta: std::io::Result<fs::Metadata>,
    ) -> Result<Option<Arc<ViewDoc>>, StoreError> {
        let Ok(meta) = meta else {
            self.cache.lock().expect("view cache lock").remove(&path);
            return Ok(None);
        };
        let identity = (meta.len(), meta.modified().ok());
        if let Some((at, doc)) = self.cache.lock().expect("view cache lock").get(&path) {
            if *at == identity {
                return Ok(Some(Arc::clone(doc)));
            }
        }
        #[cfg(test)]
        self.decodes
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let Some(bytes) = durable::read_file(&path)? else {
            return Ok(None);
        };
        let doc = Arc::new(ViewDoc::decode(&bytes, &path.display())?);
        let cached = (identity, Arc::clone(&doc));
        self.cache
            .lock()
            .expect("view cache lock")
            .insert(path, cached);
        Ok(Some(doc))
    }

    /// Every readable view on disk, sorted by name. Unreadable entries are
    /// skipped — a corrupt sibling must not poison a listing or an
    /// unrelated statement's probe.
    fn docs(&self) -> Vec<Arc<ViewDoc>> {
        let mut docs = Vec::new();
        for entry in fs::read_dir(&self.dir).into_iter().flatten().flatten() {
            let path = entry.path();
            if path.extension().is_some_and(|e| e == VIEW_EXT) {
                docs.extend(self.fetch(path, entry.metadata()).ok().flatten());
            }
        }
        docs.sort_by(|a, b| a.name.cmp(&b.name));
        docs.dedup_by(|a, b| a.name == b.name);
        docs
    }

    /// Names of every view currently on disk, sorted.
    pub fn list(&self) -> Vec<String> {
        self.docs().iter().map(|doc| doc.name.clone()).collect()
    }

    /// Finds the view materializing a given normalized statement, if
    /// any. First match in name order wins (one statement normally backs
    /// at most one view).
    pub fn find_by_statement(&self, statement: &str) -> Option<Arc<ViewDoc>> {
        self.docs()
            .into_iter()
            .find(|doc| doc.statement == statement)
    }

    /// Persists a view atomically ([`durable::publish`]) and refreshes the
    /// in-memory cache. Returns the bytes written.
    pub fn save(&self, doc: &ViewDoc) -> Result<u64, StoreError> {
        if self.read_only {
            return Err(StoreError::Io(
                "view catalog is read-only (store policy)".into(),
            ));
        }
        let bytes = doc.encode();
        let path = self.path_of(&doc.name);
        fs::create_dir_all(&self.dir).map_err(|e| StoreError::Io(e.to_string()))?;
        // The identity is the written file's own (not a `stat` after the
        // rename, which could already be a concurrent writer's file).
        let identity = durable::publish(&path, |f| {
            f.write_all(&bytes)?;
            let meta = f.metadata()?;
            Ok((meta.len(), meta.modified().ok()))
        })?;
        let cached = (identity, Arc::new(doc.clone()));
        self.cache
            .lock()
            .expect("view cache lock")
            .insert(path, cached);
        Ok(bytes.len() as u64)
    }

    /// Loads a view by name: `Ok(None)` when absent, `Err(Corrupt)` when
    /// the file exists but fails validation. Served from the in-memory
    /// cache while the file identity (length + mtime) is unchanged.
    pub fn load(&self, name: &str) -> Result<Option<Arc<ViewDoc>>, StoreError> {
        let path = self.path_of(name);
        let meta = fs::metadata(&path);
        match self.fetch(path, meta)? {
            Some(doc) if doc.name != name => Err(StoreError::Corrupt(format!(
                "view file for {name:?} names {:?}",
                doc.name
            ))),
            doc => Ok(doc),
        }
    }

    /// Deletes a view. Returns true when a file was removed.
    pub fn remove(&self, name: &str) -> Result<bool, StoreError> {
        if self.read_only {
            return Err(StoreError::Io(
                "view catalog is read-only (store policy)".into(),
            ));
        }
        let path = self.path_of(name);
        self.cache.lock().expect("view cache lock").remove(&path);
        match fs::remove_file(&path) {
            Ok(()) => Ok(true),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(false),
            Err(e) => Err(StoreError::from(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_root(tag: &str) -> PathBuf {
        use std::sync::atomic::{AtomicUsize, Ordering};
        static SEQ: AtomicUsize = AtomicUsize::new(0);
        let dir = std::env::temp_dir().join(format!(
            "deepbase-views-{tag}-{}-{}",
            std::process::id(),
            SEQ.fetch_add(1, Ordering::SeqCst)
        ));
        let _ = fs::remove_dir_all(&dir);
        dir
    }

    fn sample_doc(name: &str, segs: &[u64]) -> ViewDoc {
        ViewDoc {
            name: name.into(),
            statement: "select s.uid inspect ...".into(),
            engine: "DeepBase".into(),
            block_records: 64,
            epsilon_bits: Some(0.05f32.to_bits()),
            seed: 42,
            model_fps: vec![11, 22],
            segment_fps: segs.to_vec(),
            states: vec![ViewHypState {
                group_id: "all".into(),
                measure_id: "corr".into(),
                hyp_id: "kw:SELECT".into(),
                state: vec![1, 2, 3, 255, 0],
            }],
            rows: vec![ViewRow {
                model_id: "m".into(),
                group_id: "all".into(),
                measure_id: "corr".into(),
                hyp_id: "kw:SELECT".into(),
                unit: 7,
                unit_score_bits: f32::NAN.to_bits(),
                group_score_bits: (-0.0f32).to_bits(),
            }],
        }
    }

    #[test]
    fn save_load_round_trip_is_bit_exact() {
        let root = temp_root("roundtrip");
        let catalog = ViewCatalog::open(&root, false);
        let doc = sample_doc("my view/1", &[5, 6]);
        let bytes = catalog.save(&doc).expect("save");
        assert!(bytes > 0);
        let back = catalog.load("my view/1").expect("load").expect("present");
        assert_eq!(*back, doc, "round trip must preserve every field");
        // NaN bits survive exactly.
        assert_eq!(back.rows[0].unit_score_bits, f32::NAN.to_bits());
        assert_eq!(catalog.list(), vec!["my view/1".to_string()]);
        assert!(catalog.load("other").expect("load").is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn cache_follows_file_identity_and_removal() {
        let root = temp_root("cache");
        let catalog = ViewCatalog::open(&root, false);
        catalog.save(&sample_doc("v", &[1])).unwrap();
        let first = catalog.load("v").unwrap().unwrap();
        assert_eq!(first.segment_fps, vec![1]);
        catalog.save(&sample_doc("v", &[1, 2])).unwrap();
        let second = catalog.load("v").unwrap().unwrap();
        assert_eq!(second.segment_fps, vec![1, 2], "save refreshes the cache");
        assert!(catalog.remove("v").unwrap());
        assert!(!catalog.remove("v").unwrap(), "second remove is a no-op");
        assert!(catalog.load("v").unwrap().is_none());
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn corruption_is_detected_never_misread() {
        let root = temp_root("corrupt");
        let catalog = ViewCatalog::open(&root, false);
        catalog.save(&sample_doc("v", &[1])).unwrap();
        let path = catalog.path_of("v");
        let mut bytes = fs::read(&path).unwrap();
        // Flip one bit in the middle of the body.
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::write(&path, &bytes).unwrap();
        // A fresh catalog (no warm cache) must refuse the bytes.
        let cold = ViewCatalog::open(&root, false);
        assert!(matches!(cold.load("v"), Err(StoreError::Corrupt(_))));
        // Truncation is also detected.
        bytes.truncate(bytes.len() - 7);
        fs::write(&path, &bytes).unwrap();
        let cold = ViewCatalog::open(&root, false);
        assert!(matches!(cold.load("v"), Err(StoreError::Corrupt(_))));
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn crashed_refresh_leaves_the_old_entry_intact() {
        let root = temp_root("crash");
        let catalog = ViewCatalog::open(&root, false);
        let doc = sample_doc("v", &[1]);
        catalog.save(&doc).unwrap();
        // Simulate a refresh killed mid-write: a half-written temp file
        // next to the completed entry, never renamed.
        let tmp = catalog
            .path_of("v")
            .with_extension(format!("{VIEW_EXT}.tmp.99999"));
        fs::write(&tmp, b"half-written garbage").unwrap();
        durable::age_file(&tmp);
        // Reopen: the temp is swept, the old entry reads back bit-exact.
        let reopened = ViewCatalog::open(&root, false);
        assert!(!tmp.exists(), "abandoned temp must be swept on open");
        let back = reopened.load("v").unwrap().unwrap();
        assert_eq!(*back, doc);
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn read_only_catalog_refuses_writes_but_serves_reads() {
        let root = temp_root("ro");
        let rw = ViewCatalog::open(&root, false);
        rw.save(&sample_doc("v", &[1])).unwrap();
        let ro = ViewCatalog::open(&root, true);
        assert!(ro.load("v").unwrap().is_some());
        assert!(ro.save(&sample_doc("w", &[1])).is_err());
        assert!(ro.remove("v").is_err());
        assert!(rw.load("v").unwrap().is_some(), "nothing was deleted");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn freshness_classifies_prefix_growth_and_changes() {
        let doc = sample_doc("v", &[10, 20]);
        let fresh = |segs: &[u64]| {
            doc.freshness("DeepBase", 64, Some(0.05f32.to_bits()), 42, &[11, 22], segs)
        };
        assert_eq!(fresh(&[10, 20]), ViewFreshness::Fresh);
        assert_eq!(
            fresh(&[10, 20, 30]),
            ViewFreshness::Stale { new_segments: 1 }
        );
        assert_eq!(
            fresh(&[10, 20, 30, 40]),
            ViewFreshness::Stale { new_segments: 2 }
        );
        // Mutated prefix, shrunk dataset, reordered segments: invalid.
        assert_eq!(fresh(&[10, 21, 30]), ViewFreshness::Invalid);
        assert_eq!(fresh(&[10]), ViewFreshness::Invalid);
        assert_eq!(fresh(&[20, 10]), ViewFreshness::Invalid);
        // Any config or model change: invalid.
        assert_eq!(
            doc.freshness(
                "PyBase",
                64,
                Some(0.05f32.to_bits()),
                42,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                32,
                Some(0.05f32.to_bits()),
                42,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness("DeepBase", 64, None, 42, &[11, 22], &[10, 20]),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                64,
                Some(0.05f32.to_bits()),
                43,
                &[11, 22],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
        assert_eq!(
            doc.freshness(
                "DeepBase",
                64,
                Some(0.05f32.to_bits()),
                42,
                &[11, 23],
                &[10, 20]
            ),
            ViewFreshness::Invalid
        );
    }

    #[test]
    fn concurrent_readers_see_old_or_new_never_torn() {
        let root = temp_root("concurrent");
        let catalog = Arc::new(ViewCatalog::open(&root, false));
        let old = sample_doc("v", &[1]);
        let new = sample_doc("v", &[1, 2]);
        catalog.save(&old).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..2 {
                let catalog = Arc::clone(&catalog);
                let (old, new) = (old.clone(), new.clone());
                scope.spawn(move || {
                    for _ in 0..200 {
                        // A fresh catalog per read defeats the in-memory
                        // cache, so every read exercises the file path.
                        let cold = ViewCatalog::open(catalog.dir().parent().unwrap(), true);
                        let doc = cold.load("v").expect("never torn").expect("present");
                        assert!(*doc == old || *doc == new, "reader saw a torn view");
                    }
                });
            }
            scope.spawn(|| {
                for i in 0..100 {
                    let doc = if i % 2 == 0 { &new } else { &old };
                    catalog.save(doc).unwrap();
                }
            });
        });
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn same_name_saves_from_many_threads_never_collide() {
        let root = temp_root("same-name");
        let catalog = ViewCatalog::open(&root, false);
        let docs: Vec<ViewDoc> = (1..=4u64)
            .map(|t| sample_doc("v", &vec![t; t as usize]))
            .collect();
        catalog.save(&docs[0]).unwrap();
        let start = std::sync::Barrier::new(2 * docs.len());
        std::thread::scope(|scope| {
            for doc in &docs {
                scope.spawn(|| {
                    start.wait();
                    for i in 0..200 {
                        catalog
                            .save(doc)
                            .unwrap_or_else(|e| panic!("save {i} of {:?}: {e}", doc.segment_fps));
                    }
                });
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..200 {
                        // A fresh catalog per read: every load takes the
                        // file path, not the shared cache.
                        let cold = ViewCatalog::open(&root, true);
                        let seen = cold.load("v").expect("never torn").expect("present");
                        assert!(docs.contains(&seen), "loaded a view nobody wrote");
                        let warm = catalog.load("v").expect("never torn").expect("present");
                        assert!(docs.contains(&warm), "cached a view nobody wrote");
                    }
                });
            }
        });
        let litter: Vec<_> = fs::read_dir(catalog.dir())
            .unwrap()
            .flatten()
            .map(|e| e.file_name())
            .filter(|n| n.to_string_lossy().contains(".tmp."))
            .collect();
        assert!(litter.is_empty(), "temp files left behind: {litter:?}");
        let _ = fs::remove_dir_all(&root);
    }

    #[test]
    fn statement_probes_decode_nothing_while_the_files_are_unchanged() {
        use std::sync::atomic::Ordering::Relaxed;
        let root = temp_root("probe");
        let writer = ViewCatalog::open(&root, false);
        let with_statement = |i: usize, segs: &[u64]| ViewDoc {
            statement: format!("statement {i}"),
            ..sample_doc(&format!("view {i}"), segs)
        };
        for i in 0..6 {
            writer.save(&with_statement(i, &[1])).unwrap();
        }
        // The sixth view is set aside to come back corrupt below.
        let broken = writer.path_of("view 5");
        let mut bytes = fs::read(&broken).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        fs::remove_file(&broken).unwrap();

        let catalog = ViewCatalog::open(&root, true);
        assert_eq!(catalog.list().len(), 5);
        assert_eq!(
            catalog.decodes.load(Relaxed),
            5,
            "warming reads each file once"
        );
        for probe in 0..100 {
            let hit = catalog.find_by_statement(&format!("statement {}", probe % 5));
            assert_eq!(
                hit.expect("materialized").name,
                format!("view {}", probe % 5)
            );
            assert!(catalog.find_by_statement("no such statement").is_none());
            assert!(catalog.load("view 3").expect("load").is_some());
        }
        assert_eq!(catalog.list().len(), 5);
        assert_eq!(catalog.decodes.load(Relaxed), 5, "warm probes read no file");
        // Another process rewrites one view: exactly that file is re-read.
        writer.save(&with_statement(2, &[1, 2])).unwrap();
        let hit = catalog.find_by_statement("statement 2").unwrap();
        assert_eq!(hit.segment_fps, vec![1, 2]);
        assert!(catalog.find_by_statement("statement 4").is_some());
        assert_eq!(catalog.decodes.load(Relaxed), 6);
        // A corrupt sibling is skipped by listing and probes alike.
        fs::write(&broken, &bytes).unwrap();
        assert_eq!(catalog.list().len(), 5);
        assert!(catalog.find_by_statement("statement 5").is_none());
        assert!(catalog.find_by_statement("statement 0").is_some());
        assert!(matches!(
            catalog.load("view 5"),
            Err(StoreError::Corrupt(_))
        ));
        let _ = fs::remove_dir_all(&root);
    }

    /// `sample_doc("my view/1", &[5, 6])` as the parent commit's
    /// `ViewCatalog::save` wrote it.
    const GOLDEN_VIEW: &[u8] = &[
        0x44, 0x42, 0x56, 0x49, 0x45, 0x57, 0x01, 0x00, 0x09, 0x00, 0x00, 0x00, 0x6d, 0x79, 0x20,
        0x76, 0x69, 0x65, 0x77, 0x2f, 0x31, 0x18, 0x00, 0x00, 0x00, 0x73, 0x65, 0x6c, 0x65, 0x63,
        0x74, 0x20, 0x73, 0x2e, 0x75, 0x69, 0x64, 0x20, 0x69, 0x6e, 0x73, 0x70, 0x65, 0x63, 0x74,
        0x20, 0x2e, 0x2e, 0x2e, 0x08, 0x00, 0x00, 0x00, 0x44, 0x65, 0x65, 0x70, 0x42, 0x61, 0x73,
        0x65, 0x40, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0xcd, 0xcc, 0x4c, 0x3d, 0x2a,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00, 0x00, 0x0b, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x16, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x02, 0x00, 0x00,
        0x00, 0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x06, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x03, 0x00, 0x00, 0x00, 0x61, 0x6c, 0x6c, 0x04, 0x00,
        0x00, 0x00, 0x63, 0x6f, 0x72, 0x72, 0x09, 0x00, 0x00, 0x00, 0x6b, 0x77, 0x3a, 0x53, 0x45,
        0x4c, 0x45, 0x43, 0x54, 0x05, 0x00, 0x00, 0x00, 0x01, 0x02, 0x03, 0xff, 0x00, 0x01, 0x00,
        0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x01, 0x00, 0x00, 0x00, 0x6d, 0x03, 0x00, 0x00, 0x00,
        0x61, 0x6c, 0x6c, 0x04, 0x00, 0x00, 0x00, 0x63, 0x6f, 0x72, 0x72, 0x09, 0x00, 0x00, 0x00,
        0x6b, 0x77, 0x3a, 0x53, 0x45, 0x4c, 0x45, 0x43, 0x54, 0x07, 0x00, 0x00, 0x00, 0x00, 0x00,
        0x00, 0x00, 0x00, 0x00, 0xc0, 0x7f, 0x00, 0x00, 0x00, 0x80, 0x16, 0xed, 0x0e, 0x56,
    ];

    #[test]
    fn the_view_file_bytes_did_not_move() {
        let doc = sample_doc("my view/1", &[5, 6]);
        assert_eq!(doc.encode(), GOLDEN_VIEW);
        assert_eq!(ViewDoc::decode(GOLDEN_VIEW, &"golden").unwrap(), doc);
        for cut in 0..GOLDEN_VIEW.len() {
            let err = ViewDoc::decode(&GOLDEN_VIEW[..cut], &"prefix").unwrap_err();
            assert!(
                matches!(err, StoreError::Corrupt(_)),
                "prefix {cut}: {err:?}"
            );
        }
        let longer = [GOLDEN_VIEW, &[0]].concat();
        assert!(matches!(
            ViewDoc::decode(&longer, &"longer"),
            Err(StoreError::Corrupt(_))
        ));
        // Past the checksum, the body decoder itself refuses every cut.
        let body = &GOLDEN_VIEW[8..GOLDEN_VIEW.len() - 4];
        assert_eq!(ViewDoc::decode_body(body), Some(doc));
        for cut in 0..body.len() {
            assert_eq!(
                ViewDoc::decode_body(&body[..cut]),
                None,
                "body prefix {cut}"
            );
        }
        assert_eq!(ViewDoc::decode_body(&[body, &[0]].concat()), None);
    }
}
