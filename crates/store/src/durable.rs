//! One way to put bytes on disk, and one way to lay them out. Column
//! files and view files follow the rules below; view bodies and measure
//! states are written by [`ByteWriter`] and read by [`ByteReader`].
//!
//! * **Publish** (`publish_group`; `publish` is a group of one). A file
//!   appears under its final name only complete. A group of files is
//!   published in three steps: every member's bytes go to its sibling
//!   temp `<final file name>.tmp.<pid>.<n>` — `n` from one process-wide
//!   counter, so no two writers of one process (threads, store instances,
//!   catalogs) ever share a temp; then every temp is fsynced, up to
//!   `SYNC_WIDTH` (4) at once; then the temps are renamed over their
//!   destinations in input order. Each file is synced before its rename,
//!   so a reader sees the old file or the new one, and a crash leaves at
//!   most the group's temps, which the reap rule deletes. A member whose
//!   write, sync or rename fails leaves its destination untouched and no
//!   temp; the other members are published all the same. A wide group
//!   goes through in windows of `GROUP_WINDOW` (64) members, so it never
//!   holds more open temps than that.
//! * **Reap** (`reap_stale_temps`, on read-write opens and compaction).
//!   A writer holds its temp for milliseconds, so a temp older than
//!   [`TMP_REAP_AGE`] belongs to a crashed writer and is deleted. A young
//!   temp (maybe an in-flight write of a concurrent process), a temp of
//!   this process and a file whose age cannot be read are never reaped.
//!   The counter-less `.tmp.<pid>` of older builds is recognised too.
//! * **Quarantine** (`quarantine`). A file that failed validation is
//!   renamed to `<name>.corrupt.<pid>.<n>` (same counter: repeated
//!   quarantines of one name keep every sample) — a forensic sample, not
//!   live data.
//! * **Read** (`read_file`). Transient IO errors are retried with
//!   bounded backoff (`retry_transient`); wrong bytes never are.

use crate::StoreError;
use std::fs::{self, File};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::{Duration, SystemTime};

/// How old a temp file must be before `reap_stale_temps` deletes it.
pub const TMP_REAP_AGE: Duration = Duration::from_secs(60);

/// Sleeps (ms) between the attempts of [`retry_transient`]: at most
/// `len + 1` attempts, ~7ms of waiting in total.
const IO_RETRY_BACKOFF_MS: [u64; 3] = [1, 2, 4];

/// Uniquifies temp and quarantine names within this process.
static NAME_SEQ: AtomicU64 = AtomicU64::new(0);

/// `<path's file name>.<kind>.<pid>.<n>` beside `path`.
fn sibling(path: &Path, kind: &str) -> PathBuf {
    let mut name = path.file_name().unwrap_or_default().to_os_string();
    let n = NAME_SEQ.fetch_add(1, Ordering::Relaxed);
    name.push(format!(".{kind}.{}.{n}", std::process::id()));
    path.with_file_name(name)
}

/// How many temps a group publish syncs at once: a group of at most this
/// many syncs on the calling thread, a larger one on the calling thread
/// and `SYNC_WIDTH - 1` scoped threads, each taking the next unsynced
/// temp until none is left.
pub(crate) const SYNC_WIDTH: usize = 4;

/// The most members a group publish writes, syncs and renames at a time
/// (each written temp stays open until its sync).
pub(crate) const GROUP_WINDOW: usize = 64;

/// A group member between its write and its rename.
struct Staged<'a, T> {
    path: &'a Path,
    tmp: PathBuf,
    /// The open temp and what the write returned.
    written: Result<(File, T), StoreError>,
    /// The temp's `sync_all`, set once by whichever thread took it, as
    /// the bare IO error: the sync threads allocate nothing, so the
    /// conversion waits for the calling thread.
    synced: OnceLock<std::io::Result<()>>,
}

/// Makes every member's `path` durable with whatever its `write` puts
/// into the file it is handed, as one group (the publish rule of the
/// module docs; no directory fsync). Returns each member's outcome in
/// input order.
pub(crate) fn publish_group<'a, T: Sync, F>(
    members: impl IntoIterator<Item = (&'a Path, F)>,
) -> Vec<Result<T, StoreError>>
where
    F: FnOnce(&mut File) -> Result<T, StoreError>,
{
    let mut members = members.into_iter().peekable();
    let mut published = Vec::new();
    while members.peek().is_some() {
        let window: Vec<Staged<T>> = members
            .by_ref()
            .take(GROUP_WINDOW)
            .map(|(path, write)| {
                let tmp = sibling(path, "tmp");
                let written = File::create(&tmp)
                    .map_err(StoreError::from)
                    .and_then(|mut file| write(&mut file).map(|out| (file, out)));
                Staged {
                    path,
                    tmp,
                    written,
                    synced: OnceLock::new(),
                }
            })
            .collect();
        sync_temps(&window);
        published.extend(window.into_iter().map(|staged| {
            let renamed = staged.written.and_then(|(file, out)| {
                let synced = staged.synced.into_inner();
                synced.expect("every written temp is synced")?;
                drop(file);
                fs::rename(&staged.tmp, staged.path)?;
                Ok(out)
            });
            renamed.inspect_err(|_| drop(fs::remove_file(&staged.tmp)))
        }));
    }
    published
}

/// Syncs every written temp of `window`, `SYNC_WIDTH` at once.
fn sync_temps<T: Sync>(window: &[Staged<T>]) {
    // The cursor only hands out indices; the scope's join orders every
    // `synced` before the calling thread reads it.
    let next = AtomicUsize::new(0);
    let sync_the_rest = || {
        while let Some(staged) = window.get(next.fetch_add(1, Ordering::Relaxed)) {
            if let Ok((file, _)) = &staged.written {
                let _ = staged.synced.set(file.sync_all());
            }
        }
    };
    if window.len() <= SYNC_WIDTH {
        return sync_the_rest();
    }
    std::thread::scope(|scope| {
        for _ in 1..SYNC_WIDTH {
            // A thread that cannot start leaves its temps to the others.
            let _ = std::thread::Builder::new().spawn_scoped(scope, sync_the_rest);
        }
        sync_the_rest();
    });
}

/// [`publish_group`] of the one file `path`.
pub(crate) fn publish<T: Sync>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    publish_group([(path, write)])
        .pop()
        .expect("a group publish returns one outcome per member")
}

/// The writer's process id when `name` is a temp-file name
/// (`*.tmp.<pid>.<n>`, or the `*.tmp.<pid>` of older builds).
fn temp_pid(name: &str) -> Option<u32> {
    let (_, suffix) = name.rsplit_once(".tmp.")?;
    let (pid, n) = suffix.split_once('.').unwrap_or((suffix, "0"));
    n.parse::<u64>().ok()?;
    pid.parse().ok()
}

/// Deletes the temps crashed writers left in `dir` (the reap rule of the
/// module docs) and returns `(files, bytes)` reclaimed.
pub(crate) fn reap_stale_temps(dir: &Path) -> (usize, u64) {
    let (mut files, mut bytes) = (0, 0);
    for entry in fs::read_dir(dir).into_iter().flatten().flatten() {
        let Some(pid) = entry.file_name().to_str().and_then(temp_pid) else {
            continue;
        };
        let Ok(meta) = entry.metadata() else {
            continue;
        };
        let aged = meta
            .modified()
            .ok()
            .and_then(|mtime| SystemTime::now().duration_since(mtime).ok())
            .is_some_and(|age| age > TMP_REAP_AGE);
        if aged && pid != std::process::id() && fs::remove_file(entry.path()).is_ok() {
            files += 1;
            bytes += meta.len();
        }
    }
    (files, bytes)
}

/// Moves a file that failed validation aside (the quarantine rule of the
/// module docs) and returns where it went.
pub(crate) fn quarantine(path: &Path) -> Result<PathBuf, StoreError> {
    let aside = sibling(path, "corrupt");
    fs::rename(path, &aside)?;
    Ok(aside)
}

/// True for names `quarantine` produced.
pub(crate) fn is_quarantined(name: &str) -> bool {
    name.contains(".corrupt.")
}

/// Runs `op`, retrying transient IO failures (a retryable
/// [`std::io::ErrorKind`]: interrupted syscall, would-block, timeout —
/// see [`StoreError::is_transient`]) after a bounded backoff and counting
/// each retry in `retries` (successful or not — the counter measures how
/// often the filesystem misbehaved, not how often we gave up). Permanent
/// IO errors and corruption surface immediately: retrying wrong bytes
/// cannot make them right.
pub(crate) fn retry_transient<T>(
    retries: &mut usize,
    mut op: impl FnMut() -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    for backoff in IO_RETRY_BACKOFF_MS {
        match op() {
            Err(e) if e.is_transient() => {
                *retries += 1;
                std::thread::sleep(Duration::from_millis(backoff));
            }
            other => return other,
        }
    }
    op()
}

/// The whole file at `path` (transient IO errors retried); `Ok(None)`
/// when it does not exist. Validating the bytes is the caller's.
pub(crate) fn read_file(path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    retry_transient(&mut 0, || match fs::read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(e.into()),
    })
}

/// Little-endian encoder into the buffer it wraps. Variable-length
/// fields carry a `u32` count first; floats travel as raw bits.
#[derive(Debug, Default)]
pub struct ByteWriter(pub Vec<u8>);

impl ByteWriter {
    /// Raw bytes, no length prefix.
    pub(crate) fn bytes(&mut self, v: &[u8]) {
        self.0.extend_from_slice(v);
    }
    pub(crate) fn u8(&mut self, v: u8) {
        self.0.push(v);
    }
    pub fn u32(&mut self, v: u32) {
        self.bytes(&v.to_le_bytes());
    }
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
    /// `u32` length, then the bytes.
    pub(crate) fn blob(&mut self, v: &[u8]) {
        self.u32(v.len() as u32);
        self.bytes(v);
    }
    /// A string as the [`ByteWriter::blob`] of its UTF-8.
    pub(crate) fn str(&mut self, v: &str) {
        self.blob(v.as_bytes());
    }
    /// `u32` count, then each value.
    pub(crate) fn u64s(&mut self, vs: &[u64]) {
        self.u32(vs.len() as u32);
        vs.iter().for_each(|&v| self.u64(v));
    }
    /// `u32` count, then each value's raw bits.
    pub fn f32s(&mut self, vs: &[f32]) {
        self.u32(vs.len() as u32);
        vs.iter().for_each(|&v| self.u32(v.to_bits()));
    }
}

/// Bounds-checked decoder of what [`ByteWriter`] wrote: every read is
/// `None` past the end of the input, and a declared count is checked
/// against the bytes that remain before anything is allocated for it.
pub struct ByteReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader at the start of `buf`.
    pub fn new(buf: &'a [u8]) -> ByteReader<'a> {
        ByteReader { buf, pos: 0 }
    }
    /// The next `n` raw bytes.
    pub(crate) fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let s = self.buf.get(self.pos..self.pos.checked_add(n)?)?;
        self.pos += n;
        Some(s)
    }
    pub(crate) fn u8(&mut self) -> Option<u8> {
        Some(self.bytes(1)?[0])
    }
    pub fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.bytes(4)?.try_into().ok()?))
    }
    pub fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.bytes(8)?.try_into().ok()?))
    }
    /// A [`ByteWriter::blob`].
    pub(crate) fn blob(&mut self) -> Option<&'a [u8]> {
        let len = self.u32()? as usize;
        self.bytes(len)
    }
    /// A [`ByteWriter::str`]; malformed UTF-8 is `None`.
    pub(crate) fn str(&mut self) -> Option<String> {
        String::from_utf8(self.blob()?.to_vec()).ok()
    }
    /// A [`ByteWriter::u64s`].
    pub(crate) fn u64s(&mut self) -> Option<Vec<u64>> {
        self.counted(8, ByteReader::u64)
    }
    /// A [`ByteWriter::f32s`].
    pub fn f32s(&mut self) -> Option<Vec<f32>> {
        self.counted(4, |r| r.u32().map(f32::from_bits))
    }
    /// `u32` count, then that many `width`-byte items.
    fn counted<T>(
        &mut self,
        width: usize,
        item: impl Fn(&mut ByteReader<'a>) -> Option<T>,
    ) -> Option<Vec<T>> {
        let n = self.u32()? as usize;
        if (self.buf.len() - self.pos) / width < n {
            return None;
        }
        (0..n).map(|_| item(self)).collect()
    }
    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }
    /// True when every input byte was consumed.
    pub fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

/// Backdates a file past the temp-reap threshold (simulating a crashed
/// writer from long ago).
#[cfg(test)]
pub(crate) fn age_file(path: &Path) {
    File::options()
        .write(true)
        .open(path)
        .unwrap()
        .set_modified(SystemTime::now() - 2 * TMP_REAP_AGE)
        .unwrap();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transient_io_is_retried_with_bounded_backoff() {
        // Two transient failures, then success: the value comes through
        // and both retries are counted.
        let mut retries = 0;
        let mut failures = 2;
        let out = retry_transient(&mut retries, || {
            if failures > 0 {
                failures -= 1;
                return Err(StoreError::TransientIo("EINTR".into()));
            }
            Ok(42)
        });
        assert_eq!(out, Ok(42));
        assert_eq!(retries, 2);

        // A persistently transient error surfaces after the full backoff
        // schedule is spent; the final attempt's error comes through.
        let mut retries = 0;
        let mut attempts = 0;
        let out: Result<(), StoreError> = retry_transient(&mut retries, || {
            attempts += 1;
            Err(StoreError::TransientIo("still busy".into()))
        });
        assert_eq!(out, Err(StoreError::TransientIo("still busy".into())));
        assert_eq!(retries, IO_RETRY_BACKOFF_MS.len());
        assert_eq!(attempts, IO_RETRY_BACKOFF_MS.len() + 1);

        // Permanent errors surface immediately: no retries, one attempt.
        for err in [
            StoreError::Io("gone".into()),
            StoreError::Corrupt("bad crc".into()),
        ] {
            let mut retries = 0;
            let mut attempts = 0;
            let out: Result<(), StoreError> = retry_transient(&mut retries, || {
                attempts += 1;
                Err(err.clone())
            });
            assert_eq!(out, Err(err));
            assert_eq!(retries, 0);
            assert_eq!(attempts, 1);
        }
    }

    #[test]
    fn temp_names_are_recognised_with_and_without_the_counter() {
        assert_eq!(temp_pid("u7.col.tmp.123.45"), Some(123));
        assert_eq!(temp_pid("u7.tmp.123.0"), Some(123), "pre-durable columns");
        assert_eq!(temp_pid("v-00ff.view.tmp.99999"), Some(99999), "pid-only");
        assert_eq!(temp_pid("wal.tmp.7"), Some(7));
        for not_a_temp in [
            "u7.col",
            "u.tmp",
            "v.view",
            "u7.col.corrupt.1.2",
            "a.tmp.x.1",
            "a.tmp.1.x",
            "a.tmp.1.2.3",
        ] {
            assert_eq!(temp_pid(not_a_temp), None, "{not_a_temp}");
        }
    }

    #[test]
    fn a_group_publishes_every_member_but_the_ones_that_fail() {
        let dir = std::env::temp_dir().join(format!("deepbase-group-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        // Wider than one window, and the second window still syncs on
        // several threads. A member of the first window fails its write;
        // one of the second meets a non-empty directory at its rename.
        let n = GROUP_WINDOW + 2 * SYNC_WIDTH + 1;
        let (bad_write, bad_rename) = (3, GROUP_WINDOW + 6);
        let paths: Vec<PathBuf> = (0..n).map(|i| dir.join(format!("m{i}.bin"))).collect();
        let body = |i: usize| vec![i as u8; 100 + i];
        fs::create_dir_all(paths[bad_rename].join("occupied")).unwrap();
        let outcomes = publish_group(paths.iter().enumerate().map(|(i, path)| {
            let write = move |f: &mut File| {
                if i == bad_write {
                    return Err(StoreError::Io("disk full".into()));
                }
                std::io::Write::write_all(f, &body(i))?;
                Ok(i)
            };
            (path.as_path(), write)
        }));
        assert_eq!(outcomes.len(), n);
        for (i, (outcome, path)) in outcomes.iter().zip(&paths).enumerate() {
            if i == bad_write {
                assert_eq!(outcome, &Err(StoreError::Io("disk full".into())));
                assert!(!path.exists(), "a failed write publishes nothing");
            } else if i == bad_rename {
                assert!(outcome.is_err(), "a directory is not replaced");
                assert!(path.join("occupied").is_dir(), "destination untouched");
            } else {
                assert_eq!(outcome, &Ok(i));
                assert_eq!(fs::read(path).unwrap(), body(i), "member {i} byte-exact");
            }
        }
        let entries = fs::read_dir(&dir).unwrap().flatten();
        let temps: Vec<_> = entries
            .filter(|e| temp_pid(e.file_name().to_str().unwrap()).is_some())
            .collect();
        assert!(temps.is_empty(), "no temp left behind: {temps:?}");
        assert_eq!(fs::read_dir(&dir).unwrap().count(), n - 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn published_and_quarantined_names_never_repeat() {
        let dir = std::env::temp_dir().join(format!("deepbase-durable-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("a.bin");
        let failed: Result<(), _> = publish(&path, |_| Err(StoreError::Io("disk full".into())));
        assert!(failed.is_err());
        assert!(!path.exists(), "a failed write publishes nothing");
        for round in 0..3u8 {
            publish(&path, |f| Ok(std::io::Write::write_all(f, &[round])?)).unwrap();
            assert_eq!(fs::read(&path).unwrap(), [round]);
            let aside = quarantine(&path).unwrap();
            assert!(is_quarantined(aside.file_name().unwrap().to_str().unwrap()));
            assert_eq!(fs::read(&aside).unwrap(), [round]);
        }
        let names: Vec<_> = fs::read_dir(&dir).unwrap().flatten().collect();
        assert_eq!(
            names.len(),
            3,
            "three samples, no temp left (not even the failed one)"
        );
        assert!(matches!(quarantine(&path), Err(StoreError::Io(_))));
        let _ = fs::remove_dir_all(&dir);
    }
}
