//! One way to put bytes on disk, and one way to lay them out. Column
//! files and view files follow the rules below; view bodies and measure
//! states are written by [`ByteWriter`] and read by [`ByteReader`].
//!
//! * **Publish** (`publish`). A file appears under its final name only
//!   complete: the bytes go to the sibling temp
//!   `<final file name>.tmp.<pid>.<n>` — `n` from one process-wide
//!   counter, so no two writers of one process (threads, store instances,
//!   catalogs) ever share a temp — which is fsynced, then renamed over
//!   the destination. A reader sees the old file or the new one.
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
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Makes `path` durable with whatever `write` puts into the file it is
/// handed (temp, fsync, rename; no directory fsync). A failed write
/// leaves `path` untouched and removes its temp.
pub(crate) fn publish<T>(
    path: &Path,
    write: impl FnOnce(&mut File) -> Result<T, StoreError>,
) -> Result<T, StoreError> {
    let tmp = sibling(path, "tmp");
    let attempt = || -> Result<T, StoreError> {
        let mut file = File::create(&tmp)?;
        let out = write(&mut file)?;
        file.sync_all()?;
        drop(file);
        fs::rename(&tmp, path)?;
        Ok(out)
    };
    attempt().inspect_err(|_| drop(fs::remove_file(&tmp)))
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
