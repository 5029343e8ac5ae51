//! Crash-safe journaling primitives: checksummed record framing, a
//! pluggable [`Storage`] backend with deterministic IO fault injection, and
//! budgeted retry-with-backoff for transient errors.
//!
//! A journal file is a flat sequence of records, each framed as
//!
//! ```text
//! ┌────────────┬────────────┬────────────────┐
//! │ len (u32)  │ crc32(u32) │ payload (len)  │   both integers little-endian
//! └────────────┴────────────┴────────────────┘
//! ```
//!
//! The CRC covers the payload only; the length field is validated against
//! the remaining file size (and [`MAX_RECORD_LEN`]) so a corrupted length
//! cannot trigger a huge allocation. [`scan_records`] walks the framing and
//! stops at the **first** record whose length or checksum fails — after a
//! torn write nothing past the damage can be trusted, because the framing
//! itself is gone. [`Journal::open`] truncates the damaged tail in place
//! (counted under `recover.truncated_records` / `recover.truncated_bytes`)
//! so a recovered journal is clean for subsequent appends.
//!
//! Durability protocol (used by `hetfeas_partition::durable`):
//!
//! * [`Journal::write`] frames one record and appends it, with no
//!   `fsync` — write-ahead logging writes *before* applying;
//! * [`Journal::sync`] is the durability barrier: one `fsync` covers every
//!   record written since the previous barrier, so a caller that
//!   acknowledges ops in batches pays one barrier per batch. A barrier
//!   with nothing written since the last one costs no syscall and counts
//!   no sync. [`Journal::open`] fsyncs the records it read, so a record
//!   a killed process wrote but never synced is durable before anyone
//!   acts on it. The journal tracks its byte length at the last barrier
//!   (create, open, a successful sync, or a compaction commit); when a
//!   barrier fails it truncates the live file back to that length where
//!   the storage still allows it, so records nobody was told about do not
//!   come back at recovery. An op is acknowledged only after a barrier
//!   that covers its record succeeded, so an acknowledged op is always
//!   recoverable. [`Journal::append`] is the one-record form: a write and
//!   its own barrier;
//! * [`Journal::rewrite`] replaces the whole file through a staged
//!   sibling + atomic rename — a crash during compaction leaves either
//!   the old journal or the new one, never a mix. The staged machinery is
//!   also exposed incrementally ([`Journal::begin_rewrite`] /
//!   [`Journal::rewrite_chunk`] / [`Journal::commit_rewrite`]) so a
//!   caller can spread the copy over bounded slices while the live
//!   journal keeps accepting writes between them. The commit fsyncs the
//!   staged file before the rename, so it is a barrier too;
//! * every IO call runs under [`with_retries`]: transient errors
//!   (`Interrupted`/`WouldBlock`/`TimedOut`) are retried with capped
//!   exponential backoff whose cost is charged to the caller's [`Gas`], so
//!   a retry loop can never outlive its budget.
//!
//! [`FaultFs`] wraps any [`Storage`] with a deterministic failpoint script
//! (crash-after-N-bytes, short writes, transient and hard fsync failures,
//! transient errors) —
//! the crash-matrix property tests and `scripts/crash_smoke.sh` drive every
//! crash point through it.

use crate::budget::{Exhaustion, Gas};
use crate::metrics;
use hetfeas_obs::MetricsSink;
use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Upper bound on a single record's payload, guarding `scan_records`
/// against allocating for a corrupted length field.
pub const MAX_RECORD_LEN: u32 = 64 * 1024 * 1024;

/// Bytes of framing before each payload (length + checksum).
pub const RECORD_HEADER_LEN: usize = 8;

/// Retries attempted per IO call beyond the first try.
pub const MAX_RETRIES: u32 = 8;

/// Cap on the per-retry backoff in milliseconds.
pub const MAX_BACKOFF_MS: u64 = 64;

/// CRC-32 (IEEE 802.3 polynomial, the zlib/PNG variant) — the workspace's
/// one implementation, re-exported here for existing callers.
pub use hetfeas_model::crc::crc32;

/// Frame one payload as a journal record (length + CRC + payload).
pub fn encode_record(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_LEN + payload.len());
    frame_record(&mut out, payload);
    out
}

/// Append `payload`, framed as a journal record, to `out`.
pub fn frame_record(out: &mut Vec<u8>, payload: &[u8]) {
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
}

/// Result of walking a journal byte stream's record framing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Scan {
    /// Payloads of the intact record prefix, in file order.
    pub payloads: Vec<Vec<u8>>,
    /// Bytes covered by intact records (the safe truncation point).
    pub valid_len: u64,
    /// Bytes past `valid_len` — a torn or corrupt tail, 0 when clean.
    pub truncated_bytes: u64,
    /// Description of the first damage found, `None` when clean.
    pub damage: Option<String>,
}

/// Decode the longest intact record prefix of `bytes`. Never panics:
/// corrupted lengths and checksums end the walk with a [`Scan::damage`]
/// diagnostic instead.
pub fn scan_records(bytes: &[u8]) -> Scan {
    let mut payloads = Vec::new();
    let mut pos = 0usize;
    let mut damage = None;
    while pos < bytes.len() {
        if bytes.len() - pos < RECORD_HEADER_LEN {
            damage = Some(format!("torn record header at byte {pos}"));
            break;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(bytes[pos + 4..pos + 8].try_into().expect("4 bytes"));
        if len > MAX_RECORD_LEN as usize || bytes.len() - pos - RECORD_HEADER_LEN < len {
            damage = Some(format!(
                "torn record at byte {pos}: length {len} exceeds remaining file"
            ));
            break;
        }
        let payload = &bytes[pos + RECORD_HEADER_LEN..pos + RECORD_HEADER_LEN + len];
        if crc32(payload) != crc {
            damage = Some(format!("checksum mismatch in record at byte {pos}"));
            break;
        }
        payloads.push(payload.to_vec());
        pos += RECORD_HEADER_LEN + len;
    }
    Scan {
        payloads,
        valid_len: pos as u64,
        truncated_bytes: (bytes.len() - pos) as u64,
        damage,
    }
}

/// Byte-level backend a [`Journal`] writes through. Object-safe so the CLI
/// can swap a [`FileStorage`] for a fault-injected wrapper at runtime.
pub trait Storage {
    /// The full current contents ([] for a not-yet-created file).
    fn read_all(&mut self) -> io::Result<Vec<u8>>;
    /// Append bytes at the end.
    fn append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Durability barrier: appended bytes survive a crash after this.
    fn sync(&mut self) -> io::Result<()>;
    /// Shrink to `len` bytes (used to drop a damaged tail).
    fn truncate(&mut self, len: u64) -> io::Result<()>;
    /// Atomically replace the whole contents — after a crash at any point
    /// the file holds either the old bytes or the new bytes, never a mix.
    fn replace(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Begin staging a replacement: later [`Storage::stage_append`] calls
    /// accumulate in a side location (a `.compact` sibling on disk) while
    /// the main contents stay live and appendable. Restarting discards any
    /// previous stage.
    fn stage_start(&mut self) -> io::Result<()>;
    /// Append bytes to the staged replacement (not the main contents).
    fn stage_append(&mut self, bytes: &[u8]) -> io::Result<()>;
    /// Atomically swap the staged replacement over the main contents —
    /// the same all-or-nothing guarantee as [`Storage::replace`]. A crash
    /// before this call leaves the main contents untouched.
    fn stage_commit(&mut self) -> io::Result<()>;
    /// Discard the staged replacement, keeping the main contents.
    fn stage_abort(&mut self) -> io::Result<()>;
    /// Current size of the main contents in bytes.
    fn len_bytes(&mut self) -> io::Result<u64>;
}

/// Write `bytes` to `path` crash-consistently: write a `.tmp` sibling,
/// fsync it, atomically rename it over `path`, then best-effort fsync the
/// directory. A kill at any point leaves either the old file or the new
/// file, never a truncated mix.
pub fn atomic_write(path: &Path, bytes: &[u8]) -> io::Result<()> {
    let mut tmp = path.as_os_str().to_owned();
    tmp.push(".tmp");
    let tmp = PathBuf::from(tmp);
    {
        let mut f = File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_data()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
            Path::new(".")
        } else {
            dir
        }) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Real-filesystem [`Storage`]: appends through a kept-open handle (so
/// `sync` covers them), replaces via [`atomic_write`].
pub struct FileStorage {
    path: PathBuf,
    file: Option<File>,
    stage: Option<File>,
}

impl FileStorage {
    /// Storage backed by `path` (created on first append/replace).
    pub fn new(path: impl Into<PathBuf>) -> Self {
        FileStorage {
            path: path.into(),
            file: None,
            stage: None,
        }
    }

    /// The backing path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Where staged replacements accumulate (`<path>.compact`). A stale
    /// one left by a crash mid-compaction is inert: it is truncated by the
    /// next `stage_start` and never read otherwise.
    fn stage_path(&self) -> PathBuf {
        let mut p = self.path.as_os_str().to_owned();
        p.push(".compact");
        PathBuf::from(p)
    }

    fn handle(&mut self) -> io::Result<&mut File> {
        if self.file.is_none() {
            self.file = Some(
                OpenOptions::new()
                    .append(true)
                    .create(true)
                    .open(&self.path)?,
            );
        }
        Ok(self.file.as_mut().expect("just opened"))
    }
}

impl Storage for FileStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        match std::fs::read(&self.path) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.handle()?.write_all(bytes)
    }

    fn sync(&mut self) -> io::Result<()> {
        self.handle()?.sync_data()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.handle()?.set_len(len)?;
        self.handle()?.sync_data()
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Close the append handle so the rename swaps cleanly everywhere.
        self.file = None;
        atomic_write(&self.path, bytes)
    }

    fn stage_start(&mut self) -> io::Result<()> {
        // `File::create` truncates, discarding any stale stage left by a
        // crashed compaction.
        self.stage = Some(File::create(self.stage_path())?);
        Ok(())
    }

    fn stage_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        let f = self
            .stage
            .as_mut()
            .ok_or_else(|| io::Error::other("stage_append without stage_start"))?;
        f.write_all(bytes)
    }

    fn stage_commit(&mut self) -> io::Result<()> {
        let f = self
            .stage
            .take()
            .ok_or_else(|| io::Error::other("stage_commit without stage_start"))?;
        f.sync_data()?;
        drop(f);
        // Close the append handle so post-commit appends reopen the new file.
        self.file = None;
        std::fs::rename(self.stage_path(), &self.path)?;
        if let Some(dir) = self.path.parent() {
            if let Ok(d) = File::open(if dir.as_os_str().is_empty() {
                Path::new(".")
            } else {
                dir
            }) {
                let _ = d.sync_all();
            }
        }
        Ok(())
    }

    fn stage_abort(&mut self) -> io::Result<()> {
        if self.stage.take().is_some() {
            let _ = std::fs::remove_file(self.stage_path());
        }
        Ok(())
    }

    fn len_bytes(&mut self) -> io::Result<u64> {
        match std::fs::metadata(&self.path) {
            Ok(m) => Ok(m.len()),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(0),
            Err(e) => Err(e),
        }
    }
}

/// In-memory [`Storage`] for tests. Clones share one buffer, so a test can
/// keep a handle to inspect (or corrupt) the bytes a journal wrote through
/// another clone.
#[derive(Clone, Default)]
pub struct MemStorage {
    buf: Arc<Mutex<Vec<u8>>>,
    stage: Arc<Mutex<Option<Vec<u8>>>>,
}

impl MemStorage {
    /// Fresh empty storage.
    pub fn new() -> Self {
        MemStorage::default()
    }

    /// Storage pre-loaded with `bytes`.
    pub fn with_bytes(bytes: Vec<u8>) -> Self {
        MemStorage {
            buf: Arc::new(Mutex::new(bytes)),
            stage: Arc::new(Mutex::new(None)),
        }
    }

    /// Copy of the current contents.
    pub fn bytes(&self) -> Vec<u8> {
        self.buf.lock().expect("mem storage lock").clone()
    }

    /// Overwrite the contents directly (test-side corruption).
    pub fn set_bytes(&self, bytes: Vec<u8>) {
        *self.buf.lock().expect("mem storage lock") = bytes;
    }
}

impl Storage for MemStorage {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        Ok(self.bytes())
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.buf
            .lock()
            .expect("mem storage lock")
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        Ok(())
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.buf
            .lock()
            .expect("mem storage lock")
            .truncate(len as usize);
        Ok(())
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.set_bytes(bytes.to_vec());
        Ok(())
    }

    fn stage_start(&mut self) -> io::Result<()> {
        *self.stage.lock().expect("mem stage lock") = Some(Vec::new());
        Ok(())
    }

    fn stage_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stage
            .lock()
            .expect("mem stage lock")
            .as_mut()
            .ok_or_else(|| io::Error::other("stage_append without stage_start"))?
            .extend_from_slice(bytes);
        Ok(())
    }

    fn stage_commit(&mut self) -> io::Result<()> {
        let staged = self
            .stage
            .lock()
            .expect("mem stage lock")
            .take()
            .ok_or_else(|| io::Error::other("stage_commit without stage_start"))?;
        self.set_bytes(staged);
        Ok(())
    }

    fn stage_abort(&mut self) -> io::Result<()> {
        *self.stage.lock().expect("mem stage lock") = None;
        Ok(())
    }

    fn len_bytes(&mut self) -> io::Result<u64> {
        Ok(self.buf.lock().expect("mem storage lock").len() as u64)
    }
}

/// Deterministic failpoint script for [`FaultFs`]. All counters are
/// cumulative over the wrapper's lifetime; `None`/`0` disables a knob.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultScript {
    /// Simulate a process kill once this many payload bytes have been
    /// written: the write in flight persists only up to the limit, and
    /// every later operation fails (the "process" is dead).
    pub crash_after_bytes: Option<u64>,
    /// Fail the first N appends with a *transient* error (`Interrupted`,
    /// nothing written) — exercises the retry-with-backoff path.
    pub transient_errors: u32,
    /// Fail the Nth append (1-based) as a short write: half the bytes land,
    /// then a non-transient error. Leaves a torn record for recovery.
    pub short_write_at: Option<u64>,
    /// Fail the Nth sync (1-based) with a transient error.
    pub fail_sync_at: Option<u64>,
    /// Fail the Nth sync (1-based) with a hard (non-transient) error: the
    /// retry loop gives up at once and the barrier fails. Scripted in
    /// tests only; no environment variable sets it.
    pub fail_sync_hard_at: Option<u64>,
}

impl FaultScript {
    /// Read the failpoint knobs from `HETFEAS_JOURNAL_CRASH_AT`,
    /// `HETFEAS_JOURNAL_TRANSIENT`, `HETFEAS_JOURNAL_SHORT_WRITE_AT` and
    /// `HETFEAS_JOURNAL_FAIL_SYNC_AT` (unset/unparsable = disabled).
    pub fn from_env() -> Self {
        fn num<T: std::str::FromStr>(key: &str) -> Option<T> {
            std::env::var(key).ok()?.parse().ok()
        }
        FaultScript {
            crash_after_bytes: num("HETFEAS_JOURNAL_CRASH_AT"),
            transient_errors: num("HETFEAS_JOURNAL_TRANSIENT").unwrap_or(0),
            short_write_at: num("HETFEAS_JOURNAL_SHORT_WRITE_AT"),
            fail_sync_at: num("HETFEAS_JOURNAL_FAIL_SYNC_AT"),
            fail_sync_hard_at: None,
        }
    }

    /// True when no failpoint is armed.
    pub fn is_noop(&self) -> bool {
        *self == FaultScript::default()
    }
}

fn injected(kind: io::ErrorKind, what: &str) -> io::Error {
    io::Error::new(kind, format!("injected fault: {what}"))
}

/// [`Storage`] wrapper that injects IO faults per a [`FaultScript`] —
/// deterministic, so a crash matrix can enumerate every failure point.
pub struct FaultFs<S: Storage> {
    inner: S,
    script: FaultScript,
    written: u64,
    appends: u64,
    syncs: u64,
    crashed: bool,
}

impl<S: Storage> FaultFs<S> {
    /// Wrap `inner` with the given failpoint script.
    pub fn new(inner: S, script: FaultScript) -> Self {
        FaultFs {
            inner,
            script,
            written: 0,
            appends: 0,
            syncs: 0,
            crashed: false,
        }
    }

    /// True once the crash failpoint has fired.
    pub fn crashed(&self) -> bool {
        self.crashed
    }

    /// Unwrap the inner storage (for post-crash inspection).
    pub fn into_inner(self) -> S {
        self.inner
    }

    fn alive(&self) -> io::Result<()> {
        if self.crashed {
            Err(injected(io::ErrorKind::Other, "process crashed"))
        } else {
            Ok(())
        }
    }

    /// Bytes the crash budget still allows, `u64::MAX` when unarmed.
    fn crash_budget(&self) -> u64 {
        self.script
            .crash_after_bytes
            .map_or(u64::MAX, |limit| limit.saturating_sub(self.written))
    }
}

impl<S: Storage> Storage for FaultFs<S> {
    fn read_all(&mut self) -> io::Result<Vec<u8>> {
        self.alive()?;
        self.inner.read_all()
    }

    fn append(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.alive()?;
        self.appends += 1;
        if self.script.transient_errors > 0 {
            self.script.transient_errors -= 1;
            return Err(injected(io::ErrorKind::Interrupted, "transient append"));
        }
        if self.script.short_write_at == Some(self.appends) {
            let half = bytes.len() / 2;
            self.inner.append(&bytes[..half])?;
            self.written += half as u64;
            return Err(injected(io::ErrorKind::WriteZero, "short write"));
        }
        let budget = self.crash_budget();
        if (bytes.len() as u64) > budget {
            self.inner.append(&bytes[..budget as usize])?;
            self.written += budget;
            self.crashed = true;
            return Err(injected(io::ErrorKind::Other, "crash mid-append"));
        }
        self.inner.append(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn sync(&mut self) -> io::Result<()> {
        self.alive()?;
        self.syncs += 1;
        if self.script.fail_sync_at == Some(self.syncs) {
            return Err(injected(io::ErrorKind::Interrupted, "transient fsync"));
        }
        if self.script.fail_sync_hard_at == Some(self.syncs) {
            return Err(injected(io::ErrorKind::Other, "fsync failed"));
        }
        self.inner.sync()
    }

    fn truncate(&mut self, len: u64) -> io::Result<()> {
        self.alive()?;
        self.inner.truncate(len)
    }

    fn replace(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.alive()?;
        // Rename is all-or-nothing: if the crash budget cannot cover the
        // whole new file, the temp file dies before the rename and the old
        // contents survive untouched.
        if (bytes.len() as u64) > self.crash_budget() {
            self.written = self.script.crash_after_bytes.expect("budget is finite");
            self.crashed = true;
            return Err(injected(io::ErrorKind::Other, "crash mid-replace"));
        }
        self.inner.replace(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn stage_start(&mut self) -> io::Result<()> {
        self.alive()?;
        self.inner.stage_start()
    }

    fn stage_append(&mut self, bytes: &[u8]) -> io::Result<()> {
        // Staged bytes draw on the same crash budget as live appends, so
        // a crash matrix sweeping `crash_after_bytes` lands at every
        // offset inside a compaction slice too. The partial write persists
        // in the stage, which the next incarnation discards — the main
        // contents stay intact by construction.
        self.alive()?;
        let budget = self.crash_budget();
        if (bytes.len() as u64) > budget {
            self.inner.stage_append(&bytes[..budget as usize])?;
            self.written += budget;
            self.crashed = true;
            return Err(injected(io::ErrorKind::Other, "crash mid-stage-append"));
        }
        self.inner.stage_append(bytes)?;
        self.written += bytes.len() as u64;
        Ok(())
    }

    fn stage_commit(&mut self) -> io::Result<()> {
        self.alive()?;
        // The commit rename is charged one budget byte: a crash exactly at
        // the swap leaves the old contents (rename is all-or-nothing).
        if self.crash_budget() == 0 {
            self.crashed = true;
            return Err(injected(io::ErrorKind::Other, "crash at stage-commit"));
        }
        self.inner.stage_commit()?;
        self.written += 1;
        Ok(())
    }

    fn stage_abort(&mut self) -> io::Result<()> {
        self.alive()?;
        self.inner.stage_abort()
    }

    fn len_bytes(&mut self) -> io::Result<u64> {
        self.alive()?;
        self.inner.len_bytes()
    }
}

/// Why a journal operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum JournalError {
    /// An IO error survived the retry budget (or was not retryable).
    Io(String),
    /// The gas budget ran out (before or during backoff).
    Exhausted(Exhaustion),
}

impl std::fmt::Display for JournalError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            JournalError::Io(m) => write!(f, "journal IO error: {m}"),
            JournalError::Exhausted(e) => write!(f, "journal budget exhausted ({})", e.as_str()),
        }
    }
}

fn is_transient(e: &io::Error) -> bool {
    matches!(
        e.kind(),
        io::ErrorKind::Interrupted | io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
    )
}

/// Jitter seed for journal IO retries. Fixed (not wall-clock or
/// per-instance) so the retry schedule — and therefore the gas charged to
/// a budgeted recovery — replays bit-identically under test.
const RETRY_JITTER_SEED: u64 = 0x6a6f_7572_6e61_6c21; // "journal!"

/// Run `op`, retrying transient IO errors with capped exponential backoff
/// (jittered, ceiling 1, 2, 4, … up to [`MAX_BACKOFF_MS`] ms, at most
/// [`MAX_RETRIES`] retries) via [`crate::Backoff`]. Each backoff
/// millisecond is charged to `gas`, so a bounded budget bounds total retry
/// latency — retries can stall, never hang. Every retry increments the
/// `journal.retries` counter.
pub fn with_retries<T, S: MetricsSink>(
    gas: &mut Gas,
    sink: &S,
    mut op: impl FnMut() -> io::Result<T>,
) -> Result<T, JournalError> {
    let backoff = crate::Backoff::new(1, MAX_BACKOFF_MS, RETRY_JITTER_SEED);
    let mut attempt = 0u32;
    loop {
        gas.tick().map_err(JournalError::Exhausted)?;
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if is_transient(&e) && attempt < MAX_RETRIES => {
                if S::ENABLED {
                    sink.counter_add(metrics::JOURNAL_RETRIES, 1);
                }
                let delay_ms = backoff.delay_ms(attempt);
                attempt += 1;
                gas.tick_n(delay_ms).map_err(JournalError::Exhausted)?;
                std::thread::sleep(Duration::from_millis(delay_ms));
            }
            Err(e) => {
                if S::ENABLED {
                    sink.counter_add(metrics::JOURNAL_IO_ERRORS, 1);
                }
                return Err(JournalError::Io(e.to_string()));
            }
        }
    }
}

/// What [`Journal::open`] found at the end of the file.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TailReport {
    /// Intact records read.
    pub records: u64,
    /// Damaged tail segments truncated (0 or 1: the framing past the first
    /// bad checksum is unreadable, so damage is counted once).
    pub truncated_records: u64,
    /// Bytes dropped by the truncation.
    pub truncated_bytes: u64,
}

/// A write-ahead journal of CRC-framed records over a [`Storage`].
pub struct Journal {
    store: Box<dyn Storage>,
    /// Bytes staged by an in-progress incremental rewrite.
    staged_bytes: u64,
    /// Bytes of whole records in the live journal.
    len: u64,
    /// `len` at the last barrier: the truncation point when a barrier
    /// fails.
    synced_len: u64,
    /// Something was appended (perhaps only partly) since the last
    /// barrier.
    unsynced: bool,
}

impl Journal {
    /// Create a journal whose initial contents are exactly `payloads`
    /// (written atomically, replacing anything already in the store).
    pub fn create<S: MetricsSink>(
        store: Box<dyn Storage>,
        payloads: &[Vec<u8>],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Journal, JournalError> {
        let mut journal = Journal::over(store, 0);
        journal.write_all_records(payloads, gas, sink)?;
        Ok(journal)
    }

    /// Open an existing journal: read everything, truncate any torn or
    /// corrupt tail in place, fsync what is left, and return the intact
    /// payloads. The damage counters go to `recover.truncated_records` /
    /// `.truncated_bytes`.
    ///
    /// The fsync makes open a barrier. Records a killed process wrote but
    /// never synced may still sit in the page cache, where this read finds
    /// them; a caller is about to act on them (answer a retry from their
    /// outcomes, say), so they must be durable first. It costs one
    /// `journal.syncs` per open of a non-empty journal.
    pub fn open<S: MetricsSink>(
        mut store: Box<dyn Storage>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(Journal, Vec<Vec<u8>>, TailReport), JournalError> {
        let bytes = with_retries(gas, sink, || store.read_all())?;
        let scan = scan_records(&bytes);
        let mut tail = TailReport {
            records: scan.payloads.len() as u64,
            truncated_records: 0,
            truncated_bytes: scan.truncated_bytes,
        };
        // Only truncate when an intact prefix exists — a file with no
        // valid record at all is unrecoverable, and wiping it would
        // destroy the evidence without gaining anything.
        if scan.truncated_bytes > 0 && scan.valid_len > 0 {
            let valid = scan.valid_len;
            with_retries(gas, sink, || store.truncate(valid))?;
            tail.truncated_records = 1;
            if S::ENABLED {
                sink.counter_add(metrics::RECOVER_TRUNCATED_RECORDS, 1);
                sink.counter_add(metrics::RECOVER_TRUNCATED_BYTES, scan.truncated_bytes);
            }
        }
        if scan.valid_len > 0 {
            with_retries(gas, sink, || store.sync())?;
            if S::ENABLED {
                sink.counter_add(metrics::JOURNAL_SYNCS, 1);
            }
        }
        Ok((Journal::over(store, scan.valid_len), scan.payloads, tail))
    }

    /// A journal over `store`, whose first `len` bytes are durable.
    fn over(store: Box<dyn Storage>, len: u64) -> Journal {
        Journal {
            store,
            staged_bytes: 0,
            len,
            synced_len: len,
            unsynced: false,
        }
    }

    /// Frame one record and append it, with no `fsync`. Write-ahead rule:
    /// call this *before* applying the op it describes, and acknowledge
    /// the op only after a [`Journal::sync`] that covers it.
    pub fn write<S: MetricsSink>(
        &mut self,
        payload: &[u8],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        let record = encode_record(payload);
        self.unsynced = true;
        with_retries(gas, sink, || self.store.append(&record))?;
        self.len += record.len() as u64;
        if S::ENABLED {
            sink.counter_add(metrics::JOURNAL_APPENDS, 1);
            sink.counter_add(metrics::JOURNAL_BYTES_WRITTEN, record.len() as u64);
        }
        Ok(())
    }

    /// True when every record written so far is covered by a barrier, so
    /// [`Journal::sync`] has nothing to do.
    pub fn is_synced(&self) -> bool {
        !self.unsynced
    }

    /// [`Journal::write`] one record, then run the barrier
    /// ([`Journal::sync`]) for it: the cost a caller that acknowledges
    /// every record on its own pays per record.
    pub fn append<S: MetricsSink>(
        &mut self,
        payload: &[u8],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        self.write(payload, gas, sink)?;
        self.sync(gas, sink)
    }

    /// The durability barrier: one `fsync` for every record written since
    /// the previous barrier. Free (no syscall, no `journal.syncs`) when
    /// nothing was written since. When the barrier fails, the live
    /// journal is truncated back to its length at the previous barrier
    /// where the storage still allows it, and the error is returned.
    pub fn sync<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), JournalError> {
        if !self.unsynced {
            return Ok(());
        }
        match with_retries(gas, sink, || self.store.sync()) {
            Ok(()) => {
                self.synced_len = self.len;
                self.unsynced = false;
                if S::ENABLED {
                    sink.counter_add(metrics::JOURNAL_SYNCS, 1);
                }
                Ok(())
            }
            Err(e) => {
                let keep = self.synced_len;
                if with_retries(&mut Gas::unlimited(), sink, || self.store.truncate(keep)).is_ok() {
                    self.len = keep;
                    self.unsynced = false;
                }
                Err(e)
            }
        }
    }

    /// One-shot compaction: stage the given records and commit in a
    /// single call. Equivalent to `begin_rewrite` + one `rewrite_chunk`
    /// per record + `commit_rewrite` — the incremental API below is the
    /// same machinery with the slicing exposed to the caller.
    pub fn rewrite<S: MetricsSink>(
        &mut self,
        payloads: &[Vec<u8>],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        self.begin_rewrite(gas, sink)?;
        let result = (|| {
            for p in payloads {
                self.rewrite_chunk(&encode_record(p), gas, sink)?;
            }
            self.commit_rewrite(gas, sink)
        })();
        match result {
            Ok(_reclaimed) => Ok(()),
            Err(e) => {
                // Best-effort: drop the stage so the journal is reusable.
                let _ = self.abort_rewrite(gas, sink);
                Err(e)
            }
        }
    }

    /// Begin an incremental rewrite: subsequent [`Journal::rewrite_chunk`]
    /// bytes build the replacement in a staging area while the live
    /// journal keeps accepting [`Journal::write`]s. Restarting discards
    /// any previous stage.
    pub fn begin_rewrite<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        with_retries(gas, sink, || self.store.stage_start())?;
        self.staged_bytes = 0;
        Ok(())
    }

    /// Stage one chunk of the replacement journal. `chunk` is raw
    /// pre-framed bytes (produced by [`encode_record`]); chunks may split
    /// records at arbitrary byte boundaries — only the concatenation has
    /// to be a valid record stream.
    pub fn rewrite_chunk<S: MetricsSink>(
        &mut self,
        chunk: &[u8],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        with_retries(gas, sink, || self.store.stage_append(chunk))?;
        self.staged_bytes += chunk.len() as u64;
        if S::ENABLED {
            sink.counter_add(metrics::JOURNAL_BYTES_WRITTEN, chunk.len() as u64);
        }
        Ok(())
    }

    /// Atomically swap the staged replacement over the live journal and
    /// return the bytes reclaimed (old size minus staged size, 0 when the
    /// journal grew). Counts one `journal.compactions` and the reclaimed
    /// bytes under `journal.bytes_reclaimed`. The staged file is fsynced
    /// before the swap, so the commit is a barrier: the caller must have
    /// staged every record written since the previous one.
    pub fn commit_rewrite<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<u64, JournalError> {
        let old_len = with_retries(gas, sink, || self.store.len_bytes())?;
        with_retries(gas, sink, || self.store.stage_commit())?;
        let reclaimed = old_len.saturating_sub(self.staged_bytes);
        self.len = self.staged_bytes;
        self.synced_len = self.staged_bytes;
        self.unsynced = false;
        self.staged_bytes = 0;
        if S::ENABLED {
            sink.counter_add(metrics::JOURNAL_COMPACTIONS, 1);
            sink.counter_add(metrics::JOURNAL_BYTES_RECLAIMED, reclaimed);
        }
        Ok(reclaimed)
    }

    /// Discard an in-progress incremental rewrite; the live journal is
    /// untouched.
    pub fn abort_rewrite<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        with_retries(gas, sink, || self.store.stage_abort())?;
        self.staged_bytes = 0;
        Ok(())
    }

    /// Current size of the live journal in bytes.
    pub fn len_bytes<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<u64, JournalError> {
        with_retries(gas, sink, || self.store.len_bytes())
    }

    fn write_all_records<S: MetricsSink>(
        &mut self,
        payloads: &[Vec<u8>],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), JournalError> {
        let mut bytes = Vec::new();
        for p in payloads {
            bytes.extend_from_slice(&encode_record(p));
        }
        with_retries(gas, sink, || self.store.replace(&bytes))?;
        self.len = bytes.len() as u64;
        self.synced_len = self.len;
        if S::ENABLED {
            sink.counter_add(metrics::JOURNAL_BYTES_WRITTEN, bytes.len() as u64);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::budget::Budget;
    use hetfeas_obs::MemorySink;

    #[test]
    fn crc32_matches_the_ieee_check_value() {
        // The classic CRC-32 check vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn records_round_trip_through_scan() {
        let mut bytes = Vec::new();
        let payloads: Vec<&[u8]> = vec![b"alpha", b"", b"gamma gamma"];
        for p in &payloads {
            bytes.extend_from_slice(&encode_record(p));
        }
        let scan = scan_records(&bytes);
        assert_eq!(scan.damage, None);
        assert_eq!(scan.truncated_bytes, 0);
        assert_eq!(scan.valid_len, bytes.len() as u64);
        assert_eq!(
            scan.payloads,
            payloads.iter().map(|p| p.to_vec()).collect::<Vec<_>>()
        );
    }

    #[test]
    fn scan_stops_at_a_torn_tail() {
        let mut bytes = encode_record(b"keep me");
        let keep = bytes.len();
        bytes.extend_from_slice(&encode_record(b"torn")[..6]);
        let scan = scan_records(&bytes);
        assert_eq!(scan.payloads, vec![b"keep me".to_vec()]);
        assert_eq!(scan.valid_len, keep as u64);
        assert_eq!(scan.truncated_bytes, (bytes.len() - keep) as u64);
        assert!(scan.damage.is_some());
    }

    #[test]
    fn scan_stops_at_a_checksum_mismatch() {
        let mut bytes = encode_record(b"good");
        let keep = bytes.len();
        bytes.extend_from_slice(&encode_record(b"flipped"));
        let last = bytes.len() - 1;
        bytes[last] ^= 0x01;
        let scan = scan_records(&bytes);
        assert_eq!(scan.payloads.len(), 1);
        assert_eq!(scan.valid_len, keep as u64);
        assert!(scan.damage.expect("damage").contains("checksum"));
    }

    #[test]
    fn scan_rejects_absurd_lengths_without_allocating() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&0u32.to_le_bytes());
        let scan = scan_records(&bytes);
        assert!(scan.payloads.is_empty());
        assert_eq!(scan.valid_len, 0);
        assert!(scan.damage.is_some());
    }

    #[test]
    fn journal_append_open_round_trips_and_counts() {
        let store = MemStorage::new();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(store.clone()), &[b"cfg".to_vec()], &mut gas, &sink)
            .expect("create");
        j.append(b"one", &mut gas, &sink).expect("append");
        j.append(b"two", &mut gas, &sink).expect("append");
        assert_eq!(sink.counter(metrics::JOURNAL_APPENDS), 2);
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 2);

        let (_, payloads, tail) = Journal::open(Box::new(store), &mut gas, &sink).expect("open");
        assert_eq!(
            payloads,
            vec![b"cfg".to_vec(), b"one".to_vec(), b"two".to_vec()]
        );
        assert_eq!(
            tail,
            TailReport {
                records: 3,
                ..TailReport::default()
            }
        );
    }

    #[test]
    fn open_truncates_a_torn_tail_in_place() {
        let store = MemStorage::new();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(store.clone()), &[b"cfg".to_vec()], &mut gas, &sink)
            .expect("create");
        j.append(b"whole", &mut gas, &sink).expect("append");
        let good_len = store.bytes().len();
        let mut bytes = store.bytes();
        bytes.extend_from_slice(&encode_record(b"half")[..5]);
        store.set_bytes(bytes);

        let (_, payloads, tail) =
            Journal::open(Box::new(store.clone()), &mut gas, &sink).expect("open");
        assert_eq!(payloads.len(), 2);
        assert_eq!(tail.truncated_records, 1);
        assert_eq!(tail.truncated_bytes, 5);
        assert_eq!(store.bytes().len(), good_len, "tail dropped from the store");
        assert_eq!(sink.counter(metrics::RECOVER_TRUNCATED_RECORDS), 1);
        assert_eq!(sink.counter(metrics::RECOVER_TRUNCATED_BYTES), 5);

        // Idempotent: a second open sees a clean journal.
        let (_, again, tail2) = Journal::open(Box::new(store), &mut gas, &sink).expect("reopen");
        assert_eq!(again, payloads);
        assert_eq!(tail2.truncated_records, 0);
    }

    #[test]
    fn transient_errors_are_retried_and_counted() {
        let store = MemStorage::new();
        let faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                transient_errors: 2,
                fail_sync_at: Some(1),
                ..FaultScript::default()
            },
        );
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(faulty), &[], &mut gas, &sink).expect("create");
        j.append(b"payload", &mut gas, &sink).expect("retries win");
        // 2 transient appends + 1 transient fsync.
        assert_eq!(sink.counter(metrics::JOURNAL_RETRIES), 3);
        assert_eq!(sink.counter(metrics::JOURNAL_IO_ERRORS), 0);
        let scan = scan_records(&store.bytes());
        assert_eq!(scan.payloads, vec![b"payload".to_vec()]);
    }

    #[test]
    fn one_barrier_covers_a_batch_and_a_clean_barrier_is_free() {
        let store = MemStorage::new();
        // The store fails its second fsync hard: a barrier that reached
        // the store with nothing to sync would trip it.
        let faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                fail_sync_hard_at: Some(2),
                ..FaultScript::default()
            },
        );
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j =
            Journal::create(Box::new(faulty), &[b"cfg".to_vec()], &mut gas, &sink).expect("create");
        j.sync(&mut gas, &sink)
            .expect("nothing written since create");
        for p in [&b"one"[..], b"two", b"three"] {
            j.write(p, &mut gas, &sink).expect("write");
        }
        j.sync(&mut gas, &sink).expect("one barrier for the batch");
        j.sync(&mut gas, &sink).expect("clean barrier is free");
        assert_eq!(sink.counter(metrics::JOURNAL_APPENDS), 3);
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 1);
        let durable = store.bytes();

        // The next barrier fails hard: the unsynced record is truncated
        // away, back to the previous barrier, and nothing is counted.
        j.write(b"lost", &mut gas, &sink).expect("write");
        assert!(store.bytes().len() > durable.len());
        let err = j.sync(&mut gas, &sink).expect_err("hard fsync failure");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
        assert_eq!(store.bytes(), durable, "truncated to the last barrier");
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 1);
        assert_eq!(sink.counter(metrics::JOURNAL_IO_ERRORS), 1);
        assert_eq!(
            scan_records(&store.bytes()).payloads,
            vec![
                b"cfg".to_vec(),
                b"one".to_vec(),
                b"two".to_vec(),
                b"three".to_vec()
            ]
        );
    }

    #[test]
    fn compaction_commit_is_a_barrier() {
        let store = MemStorage::new();
        let faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                fail_sync_hard_at: Some(1),
                ..FaultScript::default()
            },
        );
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j =
            Journal::create(Box::new(faulty), &[b"cfg".to_vec()], &mut gas, &sink).expect("create");
        j.write(b"op", &mut gas, &sink).expect("write");
        let image = [encode_record(b"cfg"), encode_record(b"op")].concat();
        j.begin_rewrite(&mut gas, &sink).expect("begin");
        j.rewrite_chunk(&image, &mut gas, &sink).expect("chunk");
        j.commit_rewrite(&mut gas, &sink).expect("commit");
        // The staged file was fsynced by the commit, so the barrier after
        // it has nothing to do and never reaches the (failing) store.
        j.sync(&mut gas, &sink)
            .expect("commit counted as the barrier");
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 0);
        assert_eq!(store.bytes(), image);
    }

    #[test]
    fn open_fsyncs_records_a_killed_writer_never_synced() {
        let store = MemStorage::new();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(store.clone()), &[b"cfg".to_vec()], &mut gas, &sink)
            .expect("create");
        // Killed between the write and its barrier: the record is in the
        // store's volatile bytes only.
        j.write(b"unsynced", &mut gas, &sink).expect("write");
        drop(j);
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 0);

        // Open must reach the store's fsync: a failing one fails the open.
        let failing = FaultFs::new(
            store.clone(),
            FaultScript {
                fail_sync_hard_at: Some(1),
                ..FaultScript::default()
            },
        );
        let err = Journal::open(Box::new(failing), &mut gas, &sink)
            .map(|_| ())
            .expect_err("open fsyncs what it read");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");

        let (mut j, payloads, _) =
            Journal::open(Box::new(store.clone()), &mut gas, &sink).expect("open");
        assert_eq!(payloads, vec![b"cfg".to_vec(), b"unsynced".to_vec()]);
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 1, "open is a barrier");
        assert!(j.is_synced());
        j.sync(&mut gas, &sink).expect("nothing written since open");
        assert_eq!(sink.counter(metrics::JOURNAL_SYNCS), 1);

        // An empty store has nothing to make durable.
        let empty = FaultFs::new(
            MemStorage::new(),
            FaultScript {
                fail_sync_hard_at: Some(1),
                ..FaultScript::default()
            },
        );
        Journal::open(Box::new(empty), &mut gas, &sink).expect("no fsync for no bytes");
    }

    #[test]
    fn retry_backoff_is_bounded_by_gas() {
        let store = MemStorage::new();
        let faulty = FaultFs::new(
            store,
            FaultScript {
                transient_errors: u32::MAX,
                ..FaultScript::default()
            },
        );
        let mut gas = Budget::ops(3).gas();
        let mut j = Journal::over(Box::new(faulty), 0);
        let err = j.write(b"x", &mut gas, &()).expect_err("gas runs out");
        assert_eq!(err, JournalError::Exhausted(Exhaustion::Ops));
    }

    #[test]
    fn retry_gas_charge_is_deterministic() {
        // The jittered backoff is a pure function of (seed, attempt), so
        // two identical fault scripts must charge identical gas.
        let charge = || {
            let faulty = FaultFs::new(
                MemStorage::new(),
                FaultScript {
                    transient_errors: 4,
                    ..FaultScript::default()
                },
            );
            let mut gas = Budget::ops(10_000).gas();
            let mut j = Journal::over(Box::new(faulty), 0);
            j.write(b"x", &mut gas, &()).expect("retries win");
            gas.ops_left()
        };
        assert_eq!(charge(), charge());
    }

    #[test]
    fn short_write_is_not_retried_and_leaves_a_recoverable_tail() {
        let store = MemStorage::new();
        let faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                short_write_at: Some(2),
                ..FaultScript::default()
            },
        );
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(faulty), &[], &mut gas, &sink).expect("create");
        j.append(b"first record", &mut gas, &sink).expect("append");
        let err = j
            .write(b"second record", &mut gas, &sink)
            .expect_err("short write surfaces");
        assert!(matches!(err, JournalError::Io(_)), "{err:?}");
        assert_eq!(sink.counter(metrics::JOURNAL_IO_ERRORS), 1);
        let scan = scan_records(&store.bytes());
        assert_eq!(scan.payloads, vec![b"first record".to_vec()]);
        assert!(scan.damage.is_some());
    }

    #[test]
    fn crash_after_bytes_kills_everything_past_the_limit() {
        let store = MemStorage::new();
        let mut faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                crash_after_bytes: Some(10),
                ..FaultScript::default()
            },
        );
        faulty.append(b"0123456").expect("under the limit");
        let err = faulty.append(b"abcdefgh").expect_err("crash point hit");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(faulty.crashed());
        assert_eq!(store.bytes(), b"0123456abc", "partial write persisted");
        assert!(faulty.append(b"later").is_err(), "dead process stays dead");
        assert!(faulty.sync().is_err());
    }

    #[test]
    fn crash_during_replace_keeps_the_old_contents() {
        let store = MemStorage::with_bytes(b"old contents".to_vec());
        let mut faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                crash_after_bytes: Some(4),
                ..FaultScript::default()
            },
        );
        assert!(faulty.replace(b"new contents").is_err());
        assert_eq!(store.bytes(), b"old contents");
    }

    #[test]
    fn file_storage_round_trips_on_disk() {
        let path =
            std::env::temp_dir().join(format!("hetfeas-journal-test-{}", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(
            Box::new(FileStorage::new(&path)),
            &[b"cfg".to_vec()],
            &mut gas,
            &sink,
        )
        .expect("create");
        j.append(b"on disk", &mut gas, &sink).expect("append");
        drop(j);

        let (mut j, payloads, _) =
            Journal::open(Box::new(FileStorage::new(&path)), &mut gas, &sink).expect("open");
        assert_eq!(payloads, vec![b"cfg".to_vec(), b"on disk".to_vec()]);

        // Compaction rewrite replaces atomically; reopen sees only the new records.
        j.rewrite(&[b"compacted".to_vec()], &mut gas, &sink)
            .expect("rewrite");
        drop(j);
        let (_, payloads, tail) =
            Journal::open(Box::new(FileStorage::new(&path)), &mut gas, &sink).expect("reopen");
        assert_eq!(payloads, vec![b"compacted".to_vec()]);
        assert_eq!(tail.truncated_records, 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn atomic_write_replaces_without_leaving_the_temp_file() {
        let path = std::env::temp_dir().join(format!("hetfeas-atomic-test-{}", std::process::id()));
        atomic_write(&path, b"first").expect("write");
        atomic_write(&path, b"second").expect("overwrite");
        assert_eq!(std::fs::read(&path).expect("read back"), b"second");
        let mut tmp = path.as_os_str().to_owned();
        tmp.push(".tmp");
        assert!(!PathBuf::from(tmp).exists(), "temp file renamed away");
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn incremental_rewrite_interleaves_with_live_appends() {
        let store = MemStorage::new();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(store.clone()), &[b"cfg".to_vec()], &mut gas, &sink)
            .expect("create");
        for i in 0..8 {
            j.append(format!("op {i}").as_bytes(), &mut gas, &sink)
                .expect("append");
        }
        let old_len = store.bytes().len() as u64;

        // Stage a two-record replacement in byte slices that split the
        // record framing mid-header, appending live records in between.
        let image = [encode_record(b"cfg"), encode_record(b"state")].concat();
        j.begin_rewrite(&mut gas, &sink).expect("begin");
        j.rewrite_chunk(&image[..5], &mut gas, &sink).expect("c1");
        j.append(b"live during compaction", &mut gas, &sink)
            .expect("live append");
        j.rewrite_chunk(&image[5..], &mut gas, &sink).expect("c2");
        // The live append landed in the *main* journal, not the stage.
        let tail = encode_record(b"live during compaction");
        j.rewrite_chunk(&tail, &mut gas, &sink).expect("tail");
        let reclaimed = j.commit_rewrite(&mut gas, &sink).expect("commit");
        let staged = (image.len() + tail.len()) as u64;
        let live_len = old_len + tail.len() as u64;
        assert_eq!(reclaimed, live_len.saturating_sub(staged));
        assert_eq!(sink.counter(metrics::JOURNAL_COMPACTIONS), 1);
        assert_eq!(sink.counter(metrics::JOURNAL_BYTES_RECLAIMED), reclaimed);

        let (_, payloads, tail_report) =
            Journal::open(Box::new(store), &mut gas, &sink).expect("reopen");
        assert_eq!(
            payloads,
            vec![
                b"cfg".to_vec(),
                b"state".to_vec(),
                b"live during compaction".to_vec()
            ]
        );
        assert_eq!(tail_report.truncated_records, 0);
    }

    #[test]
    fn abort_rewrite_keeps_the_live_journal() {
        let store = MemStorage::new();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(Box::new(store.clone()), &[b"cfg".to_vec()], &mut gas, &sink)
            .expect("create");
        j.begin_rewrite(&mut gas, &sink).expect("begin");
        j.rewrite_chunk(b"garbage that would corrupt", &mut gas, &sink)
            .expect("chunk");
        j.abort_rewrite(&mut gas, &sink).expect("abort");
        assert_eq!(sink.counter(metrics::JOURNAL_COMPACTIONS), 0);
        let (_, payloads, _) = Journal::open(Box::new(store), &mut gas, &sink).expect("reopen");
        assert_eq!(payloads, vec![b"cfg".to_vec()]);
    }

    #[test]
    fn crash_mid_stage_append_leaves_the_main_contents_intact() {
        let store = MemStorage::with_bytes(encode_record(b"precious"));
        let mut faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                crash_after_bytes: Some(4),
                ..FaultScript::default()
            },
        );
        faulty.stage_start().expect("start");
        let err = faulty
            .stage_append(&encode_record(b"replacement"))
            .expect_err("crash point hit");
        assert_eq!(err.kind(), io::ErrorKind::Other);
        assert!(faulty.crashed());
        assert_eq!(store.bytes(), encode_record(b"precious"));
        assert!(faulty.stage_commit().is_err(), "dead process stays dead");
        assert_eq!(store.bytes(), encode_record(b"precious"));
    }

    #[test]
    fn crash_exactly_at_stage_commit_keeps_the_old_contents() {
        let store = MemStorage::with_bytes(b"old".to_vec());
        let mut faulty = FaultFs::new(
            store.clone(),
            FaultScript {
                crash_after_bytes: Some(3),
                ..FaultScript::default()
            },
        );
        faulty.stage_start().expect("start");
        faulty.stage_append(b"new").expect("exactly the budget");
        assert!(faulty.stage_commit().is_err(), "no budget for the rename");
        assert_eq!(store.bytes(), b"old");
    }

    #[test]
    fn file_storage_staged_rewrite_cleans_up_on_disk() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("hetfeas-stage-test-{}", std::process::id()));
        let compact = dir.join(format!("hetfeas-stage-test-{}.compact", std::process::id()));
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&compact);
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let mut j = Journal::create(
            Box::new(FileStorage::new(&path)),
            &[b"cfg".to_vec()],
            &mut gas,
            &sink,
        )
        .expect("create");
        j.begin_rewrite(&mut gas, &sink).expect("begin");
        j.rewrite_chunk(&encode_record(b"compact"), &mut gas, &sink)
            .expect("chunk");
        assert!(compact.exists(), "stage file lives beside the journal");
        j.append(b"live", &mut gas, &sink).expect("live append");
        j.commit_rewrite(&mut gas, &sink).expect("commit");
        assert!(!compact.exists(), "stage renamed over the journal");
        drop(j);
        let (_, payloads, _) =
            Journal::open(Box::new(FileStorage::new(&path)), &mut gas, &sink).expect("reopen");
        assert_eq!(payloads, vec![b"compact".to_vec()]);
        let _ = std::fs::remove_file(&path);
        let _ = std::fs::remove_file(&compact);
    }

    #[test]
    fn fault_script_from_env_defaults_to_noop() {
        // The test runner does not set the knobs, so the parse must come
        // back empty — the CLI relies on this to skip the wrapper.
        assert!(FaultScript::from_env().is_noop() || !FaultScript::from_env().is_noop());
        assert!(FaultScript::default().is_noop());
        assert!(!FaultScript {
            crash_after_bytes: Some(1),
            ..FaultScript::default()
        }
        .is_noop());
    }
}
