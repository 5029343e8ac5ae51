//! Crash-safe online admission: [`DurableEngine`] wraps
//! [`IncrementalEngine`] with a write-ahead journal so the live partition
//! survives kills, torn writes and corrupted files.
//!
//! ## Protocol
//!
//! Every mutating op (`add`/`remove`/`snapshot`/`rollback`/`repack`)
//! writes one CRC32-framed record to the journal **before** it is applied
//! in memory; no op fsyncs on its own. [`DurableEngine::sync`] is the one
//! durability barrier: a single `fsync` covering every record written
//! since the previous barrier. A caller acknowledges an op only after a
//! barrier that covers its record has succeeded — the service shard runs
//! it once per batch and replies after it, the `ops --journal` replay once
//! per op. A failed barrier truncates the journal back to the previous
//! one where the storage allows it (see
//! [`hetfeas_robust::journal::Journal::sync`]).
//!
//! Record payloads are deterministic: the inner engine runs with
//! [`RepairPolicy::never`], and the divergence-triggered canonical repack
//! is journaled as an explicit `p` record by this layer, so the journal
//! is a complete, gas-independent description of the engine's history.
//! [`recover`] replays it back to the **bit-identical** in-memory engine
//! (same per-machine `f64` loads, same assignment, same id allocator) —
//! the crash-matrix suite in `crates/partition/tests/prop_durable.rs`
//! kills a run at every record boundary and inside records and asserts
//! exactly that.
//!
//! ## Request ids
//!
//! A caller that deduplicates client retries tags an op with its request
//! id ([`DurableEngine::set_rid`]). The op's record then ends in
//! ` rid=<n>`, and the engine keeps the outcomes ([`Applied`]) of the last
//! [`DurableEngine::set_rid_window`] tagged ops, oldest first
//! ([`DurableEngine::rid_log`]). Compaction carries that log forward as a
//! `window` record after the state images — outside the bytes the state
//! digest hashes — and [`recover`] rebuilds it from the window record and
//! the tagged records it replays, so a retry that straddles a process
//! restart can still be answered from the log. Only journaled outcomes
//! are logged: a remove of a dead id, a rollback with no snapshot and a
//! compaction write no op record, so they are not remembered across a
//! restart.
//!
//! ## Compaction
//!
//! Every [`DurableOptions::compact_every`] ops the journal is rewritten as
//! `[config, state, snapstate?, window?]` into a staged file that
//! replaces the live journal with an atomic rename: a crash during
//! compaction leaves either the full old journal or the compacted new
//! one, never a mix. The rewrite is **incremental**:
//! [`DurableEngine::begin_compaction`] captures the framed image, then
//! each [`DurableEngine::compaction_slice`] copies at most
//! [`DurableOptions::slice_bytes`] of it into the stage, so live ops keep
//! landing (in the live journal *and* mirrored into the staged tail)
//! between slices — compaction never stops the world. The commit fsyncs
//! the staged file before the rename, so it is a barrier for the tail it
//! carries. `after_op` and the
//! public [`DurableEngine::compaction_tick`] hook each advance one slice;
//! [`DurableEngine::compact`] loops slices to completion for callers that
//! want the old blocking behaviour. State records serialize per-machine
//! resident lists in admission order, so re-folding them with
//! [`crate::engine::IndexableAdmission::fold_state`] (contractually the
//! same left-to-right arithmetic as the admits that built the state)
//! reproduces the identical `f64` machine states.
//!
//! ## Digests and change records
//!
//! [`DurableEngine::state_digest`] is the CRC-32 of the engine's `state`
//! record (plus its `snapstate` record while a snapshot is held): the
//! journal and the digest share one encoder, which reads the engine in
//! place and, for a digest, streams its bytes into the checksum instead
//! of building them. A digest is still O(live); callers that need to
//! know what changed without paying for one use
//! [`DurableEngine::take_changed`], which names the machines whose
//! resident lists each op touched (every machine after a committed
//! repack, a rollback, or a create/recover).
//!
//! ## Failure handling
//!
//! * Transient IO errors retry with capped exponential backoff charged to
//!   the caller's [`Gas`] ([`hetfeas_robust::journal::with_retries`]);
//! * a torn or corrupt journal tail is truncated at the first bad
//!   checksum during [`recover`] (`recover.truncated_records` /
//!   `recover.truncated_bytes` counters) — never a panic;
//! * structurally unrecoverable journals (missing/garbled config record,
//!   policy mismatch, invalid state record) surface as
//!   [`RecoverError::Corrupt`].

use crate::assignment::Assignment;
use crate::engine::IndexableAdmission;
use crate::incremental::{
    AddOutcome, EngineState, IncrSnapshot, IncrementalEngine, RepackOutcome, RepairPolicy,
    StateView, TaskId,
};
use hetfeas_model::crc::Crc32;
use hetfeas_model::{Augmentation, Machine, Platform, Ratio, Task};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::journal::{
    encode_record, frame_record, scan_records, Journal, JournalError, Storage, RECORD_HEADER_LEN,
};
use hetfeas_robust::{metrics as rmetrics, Exhaustion, Gas};
use std::collections::VecDeque;
use std::io::Write;

/// First line of every journal's config record; bumping the format bumps
/// this string, making old binaries fail closed with `Corrupt`. Version 2
/// added request-id tags on op records and the `window` record; a
/// version-1 journal has neither and is still read.
pub const JOURNAL_MAGIC: &str = "hetfeas-journal v2";

/// The config header of journals written before request ids were
/// journaled. They recover exactly as before.
const JOURNAL_MAGIC_V1: &str = "hetfeas-journal v1";

/// Durability knobs for a [`DurableEngine`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DurableOptions {
    /// Divergence threshold for the journaled canonical repack (the
    /// [`RepairPolicy::repack_after`] analogue; `0` disables).
    pub repack_after: u32,
    /// Journal records between snapshot compactions (`0` = never compact).
    pub compact_every: u64,
    /// Byte budget per incremental compaction slice (`0` = copy the whole
    /// image in one slice, i.e. the old stop-the-world behaviour). Not
    /// persisted in the journal config: it only shapes how the writer
    /// paces its own IO, never what the journal means.
    pub slice_bytes: u64,
}

impl Default for DurableOptions {
    fn default() -> Self {
        DurableOptions {
            repack_after: RepairPolicy::default().repack_after,
            compact_every: 1024,
            slice_bytes: 64 << 10,
        }
    }
}

/// The self-describing header record every journal starts with — enough to
/// rebuild the platform, augmentation and policies without out-of-band
/// state, and to reject a journal written for a different admission test.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct JournalConfig {
    /// CLI key of the admission policy (`edf`, `rms-ll`, `rms-hyp`).
    pub policy: String,
    /// `f64::to_bits` of the augmentation factor (bit-exact round trip).
    pub alpha_bits: u64,
    /// Divergence threshold for journaled repacks.
    pub repack_after: u32,
    /// Records between compactions.
    pub compact_every: u64,
    /// Exact rational speed (numerator, denominator) per machine, in
    /// original platform order.
    pub machines: Vec<(i128, i128)>,
}

impl JournalConfig {
    /// Rebuild the platform the journal was written against.
    pub fn platform(&self) -> Result<Platform, String> {
        let machines = self
            .machines
            .iter()
            .map(|&(n, d)| {
                if d <= 0 {
                    return Err(format!(
                        "machine speed {n}/{d} has non-positive denominator"
                    ));
                }
                Machine::new(Ratio::new(n, d)).map_err(|e| format!("invalid machine speed: {e}"))
            })
            .collect::<Result<Vec<_>, _>>()?;
        Platform::new(machines).map_err(|e| format!("invalid platform: {e}"))
    }

    /// Rebuild the augmentation factor, bit-exactly.
    pub fn alpha(&self) -> Result<Augmentation, String> {
        Augmentation::new(f64::from_bits(self.alpha_bits))
            .map_err(|e| format!("invalid augmentation: {e}"))
    }
}

/// Why a durable operation failed. The op was **not** applied in memory;
/// the journal holds at worst a torn final record, which the next
/// [`recover`] truncates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DurableError {
    /// An IO error survived the retry budget (or was not retryable).
    Io(String),
    /// The gas budget ran out.
    Exhausted(Exhaustion),
}

impl From<JournalError> for DurableError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(m) => DurableError::Io(m),
            JournalError::Exhausted(x) => DurableError::Exhausted(x),
        }
    }
}

impl std::fmt::Display for DurableError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DurableError::Io(m) => write!(f, "journal IO error: {m}"),
            DurableError::Exhausted(x) => write!(f, "budget exhausted ({})", x.as_str()),
        }
    }
}

/// Why a recovery failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RecoverError {
    /// The journal is structurally unrecoverable: no intact config record,
    /// a policy/format mismatch, or an invalid state/op record.
    Corrupt(String),
    /// An IO error survived the retry budget.
    Io(String),
    /// The gas budget ran out mid-replay.
    Exhausted(Exhaustion),
}

impl From<JournalError> for RecoverError {
    fn from(e: JournalError) -> Self {
        match e {
            JournalError::Io(m) => RecoverError::Io(m),
            JournalError::Exhausted(x) => RecoverError::Exhausted(x),
        }
    }
}

impl std::fmt::Display for RecoverError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RecoverError::Corrupt(m) => write!(f, "unrecoverable journal: {m}"),
            RecoverError::Io(m) => write!(f, "recovery IO error: {m}"),
            RecoverError::Exhausted(x) => write!(f, "recovery budget exhausted ({})", x.as_str()),
        }
    }
}

/// What [`recover`] did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Journal records replayed (state imports and ops; the config record
    /// is not counted).
    pub records_replayed: u64,
    /// Damaged tail segments truncated (0 or 1).
    pub truncated_records: u64,
    /// Bytes dropped with the damaged tail.
    pub truncated_bytes: u64,
}

// ---------------------------------------------------------------------
// Record codecs. Payloads are line-oriented UTF-8; the first token
// dispatches: the magic string (config), `state`/`snapstate` (compaction
// images), or a single-letter op code.
// ---------------------------------------------------------------------

fn encode_config(cfg: &JournalConfig) -> Vec<u8> {
    let mut s = String::new();
    s.push_str(JOURNAL_MAGIC);
    s.push('\n');
    s.push_str(&format!("policy {}\n", cfg.policy));
    s.push_str(&format!("alpha {:016x}\n", cfg.alpha_bits));
    s.push_str(&format!("repack-after {}\n", cfg.repack_after));
    s.push_str(&format!("compact-every {}\n", cfg.compact_every));
    for &(n, d) in &cfg.machines {
        s.push_str(&format!("machine {n}/{d}\n"));
    }
    s.into_bytes()
}

fn parse_config(payload: &[u8]) -> Result<JournalConfig, String> {
    let text =
        std::str::from_utf8(payload).map_err(|_| "config record is not UTF-8".to_string())?;
    let mut lines = text.lines();
    match lines.next() {
        Some(JOURNAL_MAGIC | JOURNAL_MAGIC_V1) => {}
        Some(other) => return Err(format!("not a hetfeas journal (header '{other}')")),
        None => return Err("empty config record".to_string()),
    }
    let mut policy = None;
    let mut alpha_bits = None;
    let mut repack_after = None;
    let mut compact_every = None;
    let mut machines = Vec::new();
    for line in lines {
        let (key, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("bad config line '{line}'"))?;
        match key {
            "policy" => policy = Some(rest.to_string()),
            "alpha" => {
                alpha_bits =
                    Some(u64::from_str_radix(rest, 16).map_err(|_| format!("bad alpha '{rest}'"))?)
            }
            "repack-after" => {
                repack_after = Some(
                    rest.parse()
                        .map_err(|_| format!("bad repack-after '{rest}'"))?,
                )
            }
            "compact-every" => {
                compact_every = Some(
                    rest.parse()
                        .map_err(|_| format!("bad compact-every '{rest}'"))?,
                )
            }
            "machine" => {
                let (n, d) = rest
                    .split_once('/')
                    .ok_or_else(|| format!("bad machine speed '{rest}'"))?;
                machines.push((
                    n.parse()
                        .map_err(|_| format!("bad speed numerator '{n}'"))?,
                    d.parse()
                        .map_err(|_| format!("bad speed denominator '{d}'"))?,
                ));
            }
            other => return Err(format!("unknown config key '{other}'")),
        }
    }
    if machines.is_empty() {
        return Err("config lists no machines".to_string());
    }
    Ok(JournalConfig {
        policy: policy.ok_or("config missing policy")?,
        alpha_bits: alpha_bits.ok_or("config missing alpha")?,
        repack_after: repack_after.ok_or("config missing repack-after")?,
        compact_every: compact_every.ok_or("config missing compact-every")?,
        machines,
    })
}

/// Append the decimal digits of `v` — the bytes `format!("{v}")` writes.
fn push_u64(out: &mut Vec<u8>, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut i = digits.len();
    loop {
        i -= 1;
        digits[i] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.extend_from_slice(&digits[i..]);
}

/// Write the state record `tag` (`state` or `snapstate`) for `view` into
/// `out`, calling `spill(out)` at line ends so a caller that only wants a
/// checksum can drain the buffer as it grows. The journal and the state
/// digest share this one encoder, so a digest is by construction the
/// CRC-32 of the bytes a compaction would journal.
fn write_state(
    tag: &str,
    view: &StateView<'_>,
    out: &mut Vec<u8>,
    spill: &mut impl FnMut(&mut Vec<u8>),
) {
    out.extend_from_slice(tag.as_bytes());
    out.extend_from_slice(b"\nnext-id ");
    push_u64(out, view.next_id);
    out.extend_from_slice(b"\ndivergence ");
    push_u64(out, view.divergence);
    out.extend_from_slice(if view.canonical {
        b"\ncanonical 1\n"
    } else {
        b"\ncanonical 0\n"
    });
    match view.frontier {
        Some(f) => writeln!(out, "frontier {}/{}", f.numer(), f.denom())
            .expect("writing to a Vec cannot fail"),
        None => out.extend_from_slice(b"frontier -\n"),
    }
    for (id, t) in view.entries() {
        out.extend_from_slice(b"task ");
        push_u64(out, id);
        for v in [t.wcet(), t.period(), t.deadline()] {
            out.push(b' ');
            push_u64(out, v);
        }
        out.push(b'\n');
        spill(out);
    }
    for mi in 0..view.machines() {
        out.extend_from_slice(b"on ");
        push_u64(out, mi as u64);
        for &id in view.residents(mi) {
            out.push(b' ');
            push_u64(out, id);
        }
        out.push(b'\n');
        spill(out);
    }
}

/// The state record `tag` for `view`, as the journal stores it.
fn encode_state(tag: &str, view: &StateView<'_>) -> Vec<u8> {
    let mut out = Vec::new();
    write_state(tag, view, &mut out, &mut |_| {});
    out
}

fn parse_task(wcet: &str, period: &str, deadline: &str) -> Result<Task, String> {
    let w: u64 = wcet.parse().map_err(|_| format!("bad wcet '{wcet}'"))?;
    let p: u64 = period
        .parse()
        .map_err(|_| format!("bad period '{period}'"))?;
    let d: u64 = deadline
        .parse()
        .map_err(|_| format!("bad deadline '{deadline}'"))?;
    if d == p {
        Task::implicit(w, p).map_err(|e| format!("invalid task: {e}"))
    } else {
        Task::constrained(w, p, d).map_err(|e| format!("invalid task: {e}"))
    }
}

fn parse_state(text: &str, machine_count: usize) -> Result<EngineState, String> {
    let mut lines = text.lines();
    lines.next(); // tag, already dispatched on
    let mut st = EngineState {
        entries: Vec::new(),
        on_machine: vec![Vec::new(); machine_count],
        next_id: 0,
        divergence: 0,
        canonical: false,
        frontier: None,
    };
    for line in lines {
        let mut toks = line.split_whitespace();
        let key = toks.next().ok_or("blank state line")?;
        match key {
            "next-id" => {
                let v = toks.next().ok_or("next-id missing value")?;
                st.next_id = v.parse().map_err(|_| format!("bad next-id '{v}'"))?;
            }
            "divergence" => {
                let v = toks.next().ok_or("divergence missing value")?;
                st.divergence = v.parse().map_err(|_| format!("bad divergence '{v}'"))?;
            }
            "canonical" => {
                st.canonical = match toks.next() {
                    Some("1") => true,
                    Some("0") => false,
                    other => return Err(format!("bad canonical flag {other:?}")),
                };
            }
            "frontier" => match toks.next() {
                Some("-") => st.frontier = None,
                Some(frac) => {
                    let (n, d) = frac
                        .split_once('/')
                        .ok_or_else(|| format!("bad frontier '{frac}'"))?;
                    let n: i128 = n
                        .parse()
                        .map_err(|_| format!("bad frontier numerator '{n}'"))?;
                    let d: i128 = d
                        .parse()
                        .map_err(|_| format!("bad frontier denominator '{d}'"))?;
                    if d <= 0 {
                        return Err(format!("non-positive frontier denominator {d}"));
                    }
                    st.frontier = Some(Ratio::new(n, d));
                }
                None => return Err("frontier missing value".to_string()),
            },
            "task" => {
                let id = toks.next().ok_or("task line missing id")?;
                let id: u64 = id.parse().map_err(|_| format!("bad task id '{id}'"))?;
                let (w, p, d) = (
                    toks.next().ok_or("task line missing wcet")?,
                    toks.next().ok_or("task line missing period")?,
                    toks.next().ok_or("task line missing deadline")?,
                );
                st.entries.push((id, parse_task(w, p, d)?));
            }
            "on" => {
                let mi = toks.next().ok_or("on line missing machine index")?;
                let mi: usize = mi
                    .parse()
                    .map_err(|_| format!("bad machine index '{mi}'"))?;
                if mi >= machine_count {
                    return Err(format!("machine index {mi} out of range"));
                }
                st.on_machine[mi] = toks
                    .map(|t| t.parse().map_err(|_| format!("bad resident id '{t}'")))
                    .collect::<Result<Vec<u64>, _>>()?;
            }
            other => return Err(format!("unknown state key '{other}'")),
        }
    }
    Ok(st)
}

fn encode_add(task: &Task) -> Vec<u8> {
    format!("a {} {} {}", task.wcet(), task.period(), task.deadline()).into_bytes()
}

/// `payload` with the request-id tag ` rid=<n>` appended, when there is
/// one.
fn tagged(mut payload: Vec<u8>, rid: Option<u64>) -> Vec<u8> {
    if let Some(rid) = rid {
        payload.extend_from_slice(b" rid=");
        push_u64(&mut payload, rid);
    }
    payload
}

/// The optional request-id tag after an op record's fields.
fn parse_rid(tok: Option<&str>) -> Result<Option<u64>, String> {
    let Some(tok) = tok else {
        return Ok(None);
    };
    let n = tok
        .strip_prefix("rid=")
        .ok_or_else(|| format!("unexpected token '{tok}'"))?;
    n.parse()
        .map(Some)
        .map_err(|_| format!("bad request id '{n}'"))
}

/// What a journaled op did, as the request-id log remembers it: enough
/// to answer a retry of the same request with the same reply.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Applied {
    /// An add admitted under raw task id `id`, on original machine index
    /// `machine`.
    Admitted {
        /// Raw task id.
        id: u64,
        /// Machine the task landed on.
        machine: usize,
    },
    /// An add rejected by the admission test.
    Rejected,
    /// A remove of a live task.
    Removed,
    /// A snapshot, a rollback to a held snapshot, or a repack that
    /// repacked.
    Done,
    /// A repack whose re-run came back infeasible (assignment kept).
    RepackInfeasible,
}

/// The outcomes of the last `cap` rid-tagged ops, oldest first.
struct RidLog {
    cap: usize,
    entries: VecDeque<(u64, Applied)>,
}

impl RidLog {
    fn unbounded() -> RidLog {
        RidLog {
            cap: usize::MAX,
            entries: VecDeque::new(),
        }
    }

    fn push(&mut self, rid: u64, applied: Applied) {
        self.entries.push_back((rid, applied));
        self.trim();
    }

    fn trim(&mut self) {
        while self.entries.len() > self.cap {
            self.entries.pop_front();
        }
    }
}

/// The `window` record: one line per logged request id, oldest first.
fn encode_window(log: &RidLog) -> Vec<u8> {
    let mut out = b"window\n".to_vec();
    for &(rid, applied) in &log.entries {
        push_u64(&mut out, rid);
        match applied {
            Applied::Admitted { id, machine } => {
                out.extend_from_slice(b" admitted ");
                push_u64(&mut out, id);
                out.push(b' ');
                push_u64(&mut out, machine as u64);
            }
            Applied::Rejected => out.extend_from_slice(b" rejected"),
            Applied::Removed => out.extend_from_slice(b" removed"),
            Applied::Done => out.extend_from_slice(b" done"),
            Applied::RepackInfeasible => out.extend_from_slice(b" repack-infeasible"),
        }
        out.push(b'\n');
    }
    out
}

fn parse_window(text: &str, machine_count: usize) -> Result<Vec<(u64, Applied)>, String> {
    fn num<T: std::str::FromStr>(tok: Option<&str>, what: &str) -> Result<T, String> {
        let tok = tok.ok_or_else(|| format!("window line missing {what}"))?;
        tok.parse().map_err(|_| format!("bad {what} '{tok}'"))
    }
    text.lines()
        .skip(1)
        .map(|line| {
            let mut toks = line.split_whitespace();
            let rid = num(toks.next(), "request id")?;
            let applied = match toks.next() {
                Some("admitted") => {
                    let id = num(toks.next(), "task id")?;
                    let machine: usize = num(toks.next(), "machine")?;
                    if machine >= machine_count {
                        return Err(format!("machine index {machine} out of range"));
                    }
                    Applied::Admitted { id, machine }
                }
                Some("rejected") => Applied::Rejected,
                Some("removed") => Applied::Removed,
                Some("done") => Applied::Done,
                Some("repack-infeasible") => Applied::RepackInfeasible,
                other => return Err(format!("bad window outcome {other:?}")),
            };
            Ok((rid, applied))
        })
        .collect()
}

/// Progress reported by one compaction step ([`DurableEngine::compaction_slice`]
/// / [`DurableEngine::compaction_tick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CompactionStep {
    /// No compaction is in flight and none was due.
    Idle,
    /// A bounded slice of the staged image was copied; more remain.
    InProgress,
    /// The staged journal atomically replaced the live one.
    Done {
        /// Old journal length minus the staged replacement's (saturating).
        reclaimed: u64,
    },
}

/// Which machines' resident lists changed since the last
/// [`DurableEngine::take_changed`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ChangedMachines {
    /// Exactly these machines (original platform indices, each listed
    /// once, in first-change order) — an admitted add or a found remove
    /// changes one.
    Some(Vec<usize>),
    /// Every machine may have changed: a committed repack, a rollback, or
    /// a fresh engine (create or recover).
    All,
}

/// The change record behind [`ChangedMachines`]: O(1) per op and bounded
/// by the machine count, however long nobody drains it.
struct ChangeLog {
    all: bool,
    marked: Vec<bool>,
    list: Vec<usize>,
}

impl ChangeLog {
    fn all(machines: usize) -> ChangeLog {
        ChangeLog {
            all: true,
            marked: vec![false; machines],
            list: Vec::new(),
        }
    }

    fn mark(&mut self, machine: usize) {
        if !self.all && !self.marked[machine] {
            self.marked[machine] = true;
            self.list.push(machine);
        }
    }

    fn mark_all(&mut self) {
        self.all = true;
    }

    fn take(&mut self) -> ChangedMachines {
        for &mi in &self.list {
            self.marked[mi] = false;
        }
        let list = std::mem::take(&mut self.list);
        if std::mem::take(&mut self.all) {
            ChangedMachines::All
        } else {
            ChangedMachines::Some(list)
        }
    }
}

/// An in-flight incremental compaction: the framed `[config, state,
/// snapstate?, window?]` image captured at begin, how much of it has been staged,
/// and the ops journaled since — those must follow the image into the
/// stage before the atomic swap, or acknowledged ops would vanish.
struct CompactionState {
    image: Vec<u8>,
    off: usize,
    tail: Vec<Vec<u8>>,
    tail_off: usize,
}

/// A crash-safe [`IncrementalEngine`]: write-ahead journaling before every
/// op, one caller-run durability barrier ([`DurableEngine::sync`]),
/// periodic atomic compaction, gas-budgeted IO retries.
///
/// The public op surface mirrors the inner engine's `_within_with`
/// methods; the single journaled snapshot slot mirrors the op-trace
/// protocol (`snapshot` overwrites, `rollback` restores without
/// consuming).
pub struct DurableEngine<A: IndexableAdmission> {
    inner: IncrementalEngine<A>,
    snap: Option<IncrSnapshot<A>>,
    journal: Journal,
    config: JournalConfig,
    ops_since_compact: u64,
    slice_bytes: u64,
    compaction: Option<CompactionState>,
    changed: ChangeLog,
    /// Request id the next op's record carries ([`Self::set_rid`]).
    rid: Option<u64>,
    rids: RidLog,
}

impl<A: IndexableAdmission> DurableEngine<A> {
    /// Start a fresh journaled engine over `store`, replacing any previous
    /// journal contents with a single config record.
    #[allow(clippy::too_many_arguments)]
    pub fn create<S: MetricsSink>(
        admission: A,
        platform: &Platform,
        alpha: Augmentation,
        opts: DurableOptions,
        store: Box<dyn Storage>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Self, DurableError> {
        let config = JournalConfig {
            policy: A::POLICY.key().to_string(),
            alpha_bits: alpha.factor().to_bits(),
            repack_after: opts.repack_after,
            compact_every: opts.compact_every,
            machines: platform
                .iter()
                .map(|m| (m.speed().numer(), m.speed().denom()))
                .collect(),
        };
        let journal = Journal::create(store, &[encode_config(&config)], gas, sink)?;
        Ok(DurableEngine {
            inner: IncrementalEngine::with_policy(
                admission,
                platform,
                alpha,
                RepairPolicy::never(),
            ),
            snap: None,
            journal,
            config,
            ops_since_compact: 0,
            slice_bytes: opts.slice_bytes,
            compaction: None,
            changed: ChangeLog::all(platform.len()),
            rid: None,
            rids: RidLog::unbounded(),
        })
    }

    /// The wrapped engine (read-only: mutating it directly would desync
    /// the journal).
    pub fn engine(&self) -> &IncrementalEngine<A> {
        &self.inner
    }

    /// The journal's self-describing header.
    pub fn config(&self) -> &JournalConfig {
        &self.config
    }

    /// True when a journaled snapshot is held.
    pub fn has_snapshot(&self) -> bool {
        self.snap.is_some()
    }

    /// CRC32 digest of the full observable state (live set, per-machine
    /// residents in admission order, id allocator, divergence accounting,
    /// held snapshot). Two engines agree on this digest iff recovery was
    /// bit-exact — the crash matrix and `scripts/crash_smoke.sh` compare
    /// it across processes.
    pub fn state_digest(&self) -> u32 {
        live_state_digest(&self.inner, self.snap.as_ref())
    }

    /// Drain the record of which machines' resident lists changed since
    /// the previous call (or since the engine was created or recovered,
    /// which counts as every machine). Service shards use it to republish
    /// only what a batch touched.
    pub fn take_changed(&mut self) -> ChangedMachines {
        self.changed.take()
    }

    /// True while an incremental compaction has a staged rewrite open.
    pub fn compaction_active(&self) -> bool {
        self.compaction.is_some()
    }

    /// Override the per-slice byte budget (e.g. from a CLI flag) — affects
    /// only future [`Self::compaction_slice`] calls, never journal meaning.
    pub fn set_slice_bytes(&mut self, bytes: u64) {
        self.slice_bytes = bytes;
    }

    /// Write `payload` to the live journal, mirroring it into the staged
    /// compaction tail when a rewrite is in flight: the staged journal
    /// must describe every op acknowledged after its image was captured.
    fn log_write<S: MetricsSink>(
        &mut self,
        payload: &[u8],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), DurableError> {
        self.journal.write(payload, gas, sink)?;
        if let Some(c) = &mut self.compaction {
            c.tail.push(payload.to_vec());
        }
        Ok(())
    }

    /// The durability barrier: one `fsync` covering every record written
    /// since the previous barrier (free when there is none). Acknowledge
    /// an op only after a barrier that covers its record has succeeded.
    /// On failure the journal is truncated back to the previous barrier
    /// where the storage allows it; the in-memory engine may then be ahead
    /// of the journal, so the caller must discard it and [`recover`].
    pub fn sync<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), DurableError> {
        Ok(self.journal.sync(gas, sink)?)
    }

    /// True when a barrier already covers every record written so far —
    /// none was written since the last one, or a compaction commit just
    /// made them durable — so every op applied so far is recoverable
    /// whatever the next [`Self::sync`] does.
    pub fn is_synced(&self) -> bool {
        self.journal.is_synced()
    }

    /// Tag the next op with request id `rid`: its record carries the id,
    /// and, when the op journals a record, its [`Applied`] outcome joins
    /// the request-id log. The next op call consumes the tag whether or
    /// not it writes a record.
    pub fn set_rid(&mut self, rid: u64) {
        self.rid = Some(rid);
    }

    /// Keep the outcomes of at most `cap` tagged ops, dropping the oldest
    /// now if the log is longer. Until this is called the log is
    /// unbounded; [`recover`] rebuilds every tagged outcome it replays.
    pub fn set_rid_window(&mut self, cap: usize) {
        self.rids.cap = cap;
        self.rids.trim();
    }

    /// The logged `(request id, outcome)` pairs, oldest first.
    pub fn rid_log(&self) -> impl Iterator<Item = (u64, Applied)> + '_ {
        self.rids.entries.iter().copied()
    }

    fn remember(&mut self, rid: Option<u64>, applied: Applied) {
        if let Some(rid) = rid {
            self.rids.push(rid, applied);
        }
    }

    /// The current assignment over live tasks (see
    /// [`IncrementalEngine::assignment`]).
    pub fn assignment(&self) -> Assignment {
        self.inner.assignment()
    }

    /// Journal-then-apply [`IncrementalEngine::add`].
    pub fn add<S: MetricsSink>(
        &mut self,
        task: Task,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<AddOutcome, DurableError> {
        let rid = self.rid.take();
        gas.tick().map_err(DurableError::Exhausted)?;
        self.log_write(&tagged(encode_add(&task), rid), gas, sink)?;
        let out = self
            .inner
            .add(task, &mut Gas::unlimited(), sink)
            .expect("unlimited gas cannot exhaust");
        let applied = match out {
            AddOutcome::Admitted { id, machine } => {
                self.changed.mark(machine);
                Applied::Admitted {
                    id: id.raw(),
                    machine,
                }
            }
            AddOutcome::Rejected => Applied::Rejected,
        };
        self.remember(rid, applied);
        self.after_op(gas, sink)?;
        Ok(out)
    }

    /// Journal-then-apply [`IncrementalEngine::remove`]. A
    /// remove of a dead id is a no-op and is **not** journaled.
    pub fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Option<Task>, DurableError> {
        let rid = self.rid.take();
        gas.tick().map_err(DurableError::Exhausted)?;
        let Some(machine) = self.inner.machine_of(id) else {
            return Ok(None);
        };
        gas.tick_n(self.inner.residents_on(machine) as u64)
            .map_err(DurableError::Exhausted)?;
        self.log_write(
            &tagged(format!("r {}", id.raw()).into_bytes(), rid),
            gas,
            sink,
        )?;
        let out = self
            .inner
            .remove(id, &mut Gas::unlimited(), sink)
            .expect("unlimited gas cannot exhaust");
        self.changed.mark(machine);
        self.remember(rid, Applied::Removed);
        self.after_op(gas, sink)?;
        Ok(out)
    }

    /// Journal-then-apply snapshot into the engine's single snapshot slot.
    pub fn snapshot<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), DurableError> {
        let rid = self.rid.take();
        gas.tick_n(self.inner.len() as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        self.log_write(&tagged(b"s".to_vec(), rid), gas, sink)?;
        let snap = self.inner.snapshot(&mut Gas::unlimited(), sink);
        self.snap = Some(snap.expect("unlimited gas cannot exhaust"));
        self.remember(rid, Applied::Done);
        self.after_op(gas, sink)
    }

    /// Journal-then-apply rollback to the held snapshot. Returns `false`
    /// (without journaling) when no snapshot is held.
    pub fn rollback<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<bool, DurableError> {
        let rid = self.rid.take();
        if self.snap.is_none() {
            return Ok(false);
        }
        gas.tick_n(self.inner.len() as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        self.log_write(&tagged(b"b".to_vec(), rid), gas, sink)?;
        let snap = self.snap.as_ref().expect("checked above");
        let restored = self.inner.rollback(snap, &mut Gas::unlimited(), sink);
        restored.expect("unlimited gas cannot exhaust");
        self.changed.mark_all();
        self.remember(rid, Applied::Done);
        self.after_op(gas, sink)?;
        Ok(true)
    }

    /// Journal-then-apply an explicit canonical repack.
    pub fn repack<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<RepackOutcome, DurableError> {
        let rid = self.rid.take();
        let out = self.journaled_repack(rid, gas, sink)?;
        self.remember(
            rid,
            match out {
                RepackOutcome::Repacked => Applied::Done,
                RepackOutcome::Infeasible => Applied::RepackInfeasible,
            },
        );
        self.after_op(gas, sink)?;
        Ok(out)
    }

    /// Rewrite the journal as `[config, state, snapstate?, window?]`
    /// through an atomic replace, blocking until done. Safe at any time;
    /// the same work happens incrementally every
    /// [`DurableOptions::compact_every`] ops via [`Self::compaction_tick`].
    /// Writes no op record, so a request-id tag is dropped.
    pub fn compact<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), DurableError> {
        self.rid = None;
        self.begin_compaction(gas, sink)?;
        loop {
            match self.compaction_slice(gas, sink)? {
                CompactionStep::InProgress => {}
                CompactionStep::Idle | CompactionStep::Done { .. } => return Ok(()),
            }
        }
    }

    /// Capture the compaction image and open the staged rewrite. Returns
    /// `false` (without touching anything) when a compaction is already in
    /// flight. Live ops may continue between the slices that follow.
    pub fn begin_compaction<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<bool, DurableError> {
        if self.compaction.is_some() {
            return Ok(false);
        }
        gas.tick_n(self.inner.len() as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        let mut records = vec![
            encode_config(&self.config),
            encode_state("state", &self.inner.view()),
        ];
        if let Some(snap) = &self.snap {
            records.push(encode_state("snapstate", &self.inner.snapshot_view(snap)));
        }
        if !self.rids.entries.is_empty() {
            records.push(encode_window(&self.rids));
        }
        // Sized once: a growing image would be copied at each doubling.
        let framed = records.iter().map(|r| RECORD_HEADER_LEN + r.len()).sum();
        let mut image = Vec::with_capacity(framed);
        for r in &records {
            frame_record(&mut image, r);
        }
        self.journal.begin_rewrite(gas, sink)?;
        self.compaction = Some(CompactionState {
            image,
            off: 0,
            tail: Vec::new(),
            tail_off: 0,
        });
        Ok(true)
    }

    /// Advance an in-flight compaction by one bounded slice: copy at most
    /// `slice_bytes` of the captured image into the stage; once the image
    /// is fully staged, flush the mirrored tail of ops that landed during
    /// the slices and atomically swap the staged journal in.
    ///
    /// Gas exhaustion leaves the compaction state intact (resume on the
    /// next call); a hard IO error aborts the staged rewrite — the live
    /// journal is still complete, so nothing is lost.
    pub fn compaction_slice<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<CompactionStep, DurableError> {
        if self.compaction.is_none() {
            return Ok(CompactionStep::Idle);
        }
        match self.compaction_slice_inner(gas, sink) {
            Ok(step) => Ok(step),
            Err(e @ DurableError::Exhausted(_)) => Err(e),
            Err(e) => {
                let _ = self.journal.abort_rewrite(&mut Gas::unlimited(), sink);
                self.compaction = None;
                Err(e)
            }
        }
    }

    fn compaction_slice_inner<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<CompactionStep, DurableError> {
        gas.tick().map_err(DurableError::Exhausted)?;
        let state = self.compaction.as_mut().expect("checked by caller");
        let budget = if self.slice_bytes == 0 {
            state.image.len().max(1)
        } else {
            self.slice_bytes as usize
        };
        if S::ENABLED {
            sink.counter_add(rmetrics::JOURNAL_COMPACT_SLICES, 1);
        }
        let end = state.image.len().min(state.off.saturating_add(budget));
        if end > state.off {
            self.journal
                .rewrite_chunk(&state.image[state.off..end], gas, sink)?;
            state.off = end;
        }
        if state.off < state.image.len() {
            return Ok(CompactionStep::InProgress);
        }
        while state.tail_off < state.tail.len() {
            let framed = encode_record(&state.tail[state.tail_off]);
            self.journal.rewrite_chunk(&framed, gas, sink)?;
            state.tail_off += 1;
        }
        let replayed_tail = state.tail.len() as u64;
        let reclaimed = self.journal.commit_rewrite(gas, sink)?;
        self.ops_since_compact = replayed_tail;
        self.compaction = None;
        Ok(CompactionStep::Done { reclaimed })
    }

    /// The never-stop-the-world hook: start a staged rewrite when the
    /// compaction cadence is due, advance one slice when one is in flight,
    /// otherwise report [`CompactionStep::Idle`]. Service shard loops and
    /// the streaming replayer call this between batches.
    pub fn compaction_tick<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<CompactionStep, DurableError> {
        if self.compaction.is_none()
            && (self.config.compact_every == 0
                || self.ops_since_compact < self.config.compact_every
                || !self.begin_compaction(gas, sink)?)
        {
            return Ok(CompactionStep::Idle);
        }
        self.compaction_slice(gas, sink)
    }

    fn journaled_repack<S: MetricsSink>(
        &mut self,
        rid: Option<u64>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<RepackOutcome, DurableError> {
        gas.tick_n((self.inner.len() + self.inner.platform().len()) as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        self.log_write(&tagged(b"p".to_vec(), rid), gas, sink)?;
        let out = self
            .inner
            .repack(&mut Gas::unlimited(), sink)
            .expect("unlimited gas cannot exhaust");
        if out == RepackOutcome::Repacked {
            self.changed.mark_all();
        }
        Ok(out)
    }

    /// Post-op housekeeping: divergence-triggered journaled repack, then
    /// one bounded compaction step (begin at the cadence, else advance an
    /// in-flight slice). Both are best-effort under gas (a latched meter
    /// surfaces on the *next* op, mirroring the inner engine's auto-repack
    /// contract); IO errors propagate.
    fn after_op<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), DurableError> {
        self.ops_since_compact += 1;
        if self.config.repack_after > 0
            && self.inner.divergence() >= u64::from(self.config.repack_after)
        {
            match self.journaled_repack(None, gas, sink) {
                Ok(_) | Err(DurableError::Exhausted(_)) => {}
                Err(e) => return Err(e),
            }
        }
        match self.compaction_tick(gas, sink) {
            Ok(_) | Err(DurableError::Exhausted(_)) => Ok(()),
            Err(e) => Err(e),
        }
    }

    fn apply_record<S: MetricsSink>(
        &mut self,
        index: usize,
        payload: &[u8],
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), RecoverError> {
        let corrupt = |m: String| RecoverError::Corrupt(format!("record {index}: {m}"));
        let text = std::str::from_utf8(payload)
            .map_err(|_| corrupt("payload is not UTF-8".to_string()))?;
        let mut toks = text.split_whitespace();
        let m = self.inner.platform().len();
        let applied = match toks.next() {
            Some("a") => {
                gas.tick().map_err(RecoverError::Exhausted)?;
                let (w, p, d) = (
                    toks.next()
                        .ok_or_else(|| corrupt("add missing wcet".into()))?,
                    toks.next()
                        .ok_or_else(|| corrupt("add missing period".into()))?,
                    toks.next()
                        .ok_or_else(|| corrupt("add missing deadline".into()))?,
                );
                let task = parse_task(w, p, d).map_err(corrupt)?;
                match self
                    .inner
                    .add(task, &mut Gas::unlimited(), sink)
                    .expect("unlimited gas cannot exhaust")
                {
                    AddOutcome::Admitted { id, machine } => Applied::Admitted {
                        id: id.raw(),
                        machine,
                    },
                    AddOutcome::Rejected => Applied::Rejected,
                }
            }
            Some("r") => {
                let raw = toks
                    .next()
                    .ok_or_else(|| corrupt("remove missing id".into()))?;
                let raw: u64 = raw
                    .parse()
                    .map_err(|_| corrupt(format!("bad remove id '{raw}'")))?;
                let id = TaskId::from_raw(raw);
                let residents = self
                    .inner
                    .machine_of(id)
                    .map_or(0, |mi| self.inner.residents_on(mi));
                gas.tick_n(residents as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                self.inner
                    .remove(id, &mut Gas::unlimited(), sink)
                    .expect("unlimited gas cannot exhaust");
                Applied::Removed
            }
            Some("s") => {
                let snap = self.inner.snapshot(gas, sink);
                self.snap = Some(snap.map_err(RecoverError::Exhausted)?);
                Applied::Done
            }
            Some("b") => {
                gas.tick_n(self.inner.len() as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                let snap = self
                    .snap
                    .as_ref()
                    .ok_or_else(|| corrupt("rollback with no snapshot on record".into()))?;
                let restored = self.inner.rollback(snap, &mut Gas::unlimited(), sink);
                restored.expect("unlimited gas cannot exhaust");
                Applied::Done
            }
            Some("p") => {
                gas.tick_n((self.inner.len() + m) as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                match self
                    .inner
                    .repack(&mut Gas::unlimited(), sink)
                    .expect("unlimited gas cannot exhaust")
                {
                    RepackOutcome::Repacked => Applied::Done,
                    RepackOutcome::Infeasible => Applied::RepackInfeasible,
                }
            }
            Some("window") => {
                let entries = parse_window(text, m).map_err(corrupt)?;
                gas.tick_n(entries.len() as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                for (rid, applied) in entries {
                    self.rids.push(rid, applied);
                }
                return Ok(());
            }
            Some("state") => {
                gas.tick_n(self.inner.len() as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                let st = parse_state(text, m).map_err(corrupt)?;
                self.inner.import_state(&st).map_err(corrupt)?;
                return Ok(());
            }
            Some("snapstate") => {
                gas.tick_n(self.inner.len() as u64 + 1)
                    .map_err(RecoverError::Exhausted)?;
                let st = parse_state(text, m).map_err(corrupt)?;
                self.snap = Some(self.inner.snapshot_from_state(&st).map_err(corrupt)?);
                return Ok(());
            }
            Some(other) => return Err(corrupt(format!("unknown record tag '{other}'"))),
            None => return Err(corrupt("empty record".into())),
        };
        if let Some(rid) = parse_rid(toks.next()).map_err(corrupt)? {
            self.rids.push(rid, applied);
        }
        Ok(())
    }
}

/// Bytes a streamed digest buffers before folding them into the CRC.
const DIGEST_SPILL: usize = 8 << 10;

/// CRC32 digest of an in-memory engine plus an optional held snapshot:
/// the CRC-32 of its `state` record, then (with a snapshot) a zero byte
/// and the `snapstate` record — the exact bytes compaction journals,
/// streamed into the checksum a few KiB at a time instead of built
/// whole. [`DurableEngine::state_digest`] is this; journal-free replay
/// paths (e.g. streaming trace replay) use it to prove they reached the
/// same state as a durable run, byte for byte.
pub fn live_state_digest<A: IndexableAdmission>(
    engine: &IncrementalEngine<A>,
    snap: Option<&IncrSnapshot<A>>,
) -> u32 {
    let mut crc = Crc32::new();
    let mut buf = Vec::with_capacity(2 * DIGEST_SPILL);
    let mut spill = |b: &mut Vec<u8>| {
        if b.len() >= DIGEST_SPILL {
            crc.update(b);
            b.clear();
        }
    };
    write_state("state", &engine.view(), &mut buf, &mut spill);
    if let Some(snap) = snap {
        buf.push(0);
        write_state(
            "snapstate",
            &engine.snapshot_view(snap),
            &mut buf,
            &mut spill,
        );
    }
    crc.update(&buf);
    crc.finish()
}

/// Read the config record of a journal without replaying it — the CLI uses
/// this to pick the admission test before calling [`recover`].
pub fn peek_config(store: &mut dyn Storage) -> Result<JournalConfig, RecoverError> {
    let bytes = store
        .read_all()
        .map_err(|e| RecoverError::Io(e.to_string()))?;
    let scan = scan_records(&bytes);
    let first = scan
        .payloads
        .first()
        .ok_or_else(|| RecoverError::Corrupt("journal holds no intact records".to_string()))?;
    parse_config(first).map_err(RecoverError::Corrupt)
}

/// Recover a [`DurableEngine`] from a (possibly crashed) journal: truncate
/// any torn/corrupt tail, rebuild platform + augmentation from the config
/// record, and replay every surviving record. The result is bit-identical
/// to the engine that wrote the journal, up to the last whole record. The
/// request-id log holds every tagged outcome the replay passed (the
/// `window` record's, then the tagged op records'), unbounded until the
/// caller calls [`DurableEngine::set_rid_window`].
///
/// A journal written under a policy other than `A`'s
/// ([`IndexableAdmission::POLICY`]) is [`RecoverError::Corrupt`]; callers
/// that do not know the policy read it with [`peek_config`] first.
pub fn recover<A, S>(
    admission: A,
    store: Box<dyn Storage>,
    gas: &mut Gas,
    sink: &S,
) -> Result<(DurableEngine<A>, RecoveryReport), RecoverError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    let (journal, payloads, tail) = Journal::open(store, gas, sink)?;
    let first = payloads
        .first()
        .ok_or_else(|| RecoverError::Corrupt("journal holds no intact records".to_string()))?;
    let config = parse_config(first).map_err(RecoverError::Corrupt)?;
    if config.policy != A::POLICY.key() {
        return Err(RecoverError::Corrupt(format!(
            "journal was written for policy '{}', not '{}'",
            config.policy,
            A::POLICY.key()
        )));
    }
    let platform = config.platform().map_err(RecoverError::Corrupt)?;
    let alpha = config.alpha().map_err(RecoverError::Corrupt)?;
    let mut eng = DurableEngine {
        inner: IncrementalEngine::with_policy(admission, &platform, alpha, RepairPolicy::never()),
        snap: None,
        journal,
        config,
        ops_since_compact: 0,
        slice_bytes: DurableOptions::default().slice_bytes,
        compaction: None,
        changed: ChangeLog::all(platform.len()),
        rid: None,
        rids: RidLog::unbounded(),
    };
    let mut replayed = 0u64;
    for (index, payload) in payloads.iter().enumerate().skip(1) {
        eng.apply_record(index, payload, gas, sink)?;
        replayed += 1;
    }
    if S::ENABLED {
        sink.counter_add(rmetrics::RECOVER_RECORDS_REPLAYED, replayed);
    }
    eng.ops_since_compact = replayed;
    Ok((
        eng,
        RecoveryReport {
            records_replayed: replayed,
            truncated_records: tail.truncated_records,
            truncated_bytes: tail.truncated_bytes,
        },
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::EdfAdmission;
    use hetfeas_robust::journal::MemStorage;

    fn platform() -> Platform {
        Platform::from_int_speeds([1, 2]).expect("valid platform")
    }

    fn fresh(store: &MemStorage) -> DurableEngine<EdfAdmission> {
        DurableEngine::create(
            EdfAdmission,
            &platform(),
            Augmentation::NONE,
            DurableOptions {
                repack_after: 0,
                compact_every: 0,
                ..DurableOptions::default()
            },
            Box::new(store.clone()),
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create")
    }

    #[test]
    fn config_record_round_trips() {
        let cfg = JournalConfig {
            policy: "rms-ll".to_string(),
            alpha_bits: (std::f64::consts::SQRT_2 + 1.0).to_bits(),
            repack_after: 17,
            compact_every: 42,
            machines: vec![(1, 1), (5, 2), (7, 3)],
        };
        let parsed = parse_config(&encode_config(&cfg)).expect("parses");
        assert_eq!(parsed, cfg);
        assert_eq!(
            parsed.alpha().expect("valid").factor().to_bits(),
            cfg.alpha_bits
        );
        assert_eq!(parsed.platform().expect("valid").len(), 3);
    }

    #[test]
    fn state_record_round_trips_through_import() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        for (w, p) in [(3u64, 10u64), (9, 10), (1, 4), (2, 5)] {
            eng.add(Task::implicit(w, p).expect("valid"), &mut gas, &())
                .expect("add");
        }
        let id = eng.engine().live_ids()[1];
        eng.remove(id, &mut gas, &()).expect("remove");

        let exported = eng.engine().export_state();
        let text = String::from_utf8(encode_state("state", &eng.engine().view())).expect("UTF-8");
        let parsed = parse_state(&text, 2).expect("parses");
        assert_eq!(parsed, exported);

        let mut other = fresh(&MemStorage::new());
        other.inner.import_state(&parsed).expect("imports");
        assert_eq!(other.state_digest(), eng.state_digest());
        for mi in 0..2 {
            assert_eq!(
                other.engine().load_on(mi).to_bits(),
                eng.engine().load_on(mi).to_bits(),
                "machine {mi} load bit-exact"
            );
        }
    }

    #[test]
    fn recover_reproduces_a_plain_run_bit_exactly() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        let a = eng
            .add(Task::implicit(9, 10).expect("valid"), &mut gas, &())
            .expect("add");
        eng.add(Task::implicit(4, 10).expect("valid"), &mut gas, &())
            .expect("add");
        eng.snapshot(&mut gas, &()).expect("snapshot");
        eng.add(Task::implicit(1, 2).expect("valid"), &mut gas, &())
            .expect("add");
        eng.rollback(&mut gas, &()).expect("rollback");
        eng.remove(a.id().expect("admitted"), &mut gas, &())
            .expect("remove");
        eng.repack(&mut gas, &()).expect("repack");

        let (rec, report) =
            recover(EdfAdmission, Box::new(store), &mut gas, &()).expect("recovers");
        assert_eq!(report.truncated_records, 0);
        assert_eq!(report.records_replayed, 7);
        assert_eq!(rec.state_digest(), eng.state_digest());
        assert_eq!(rec.assignment(), eng.assignment());
        assert_eq!(rec.has_snapshot(), eng.has_snapshot());
    }

    #[test]
    fn recovery_survives_compaction() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        for i in 0..6u64 {
            eng.add(Task::implicit(1 + i % 3, 10).expect("valid"), &mut gas, &())
                .expect("add");
        }
        eng.snapshot(&mut gas, &()).expect("snapshot");
        eng.compact(&mut gas, &()).expect("compact");
        eng.add(Task::implicit(2, 7).expect("valid"), &mut gas, &())
            .expect("add");
        eng.rollback(&mut gas, &()).expect("rollback");

        let (rec, _) = recover(EdfAdmission, Box::new(store), &mut gas, &()).expect("recovers");
        assert_eq!(rec.state_digest(), eng.state_digest());
        assert_eq!(rec.assignment(), eng.assignment());
    }

    #[test]
    fn sliced_compaction_interleaves_live_ops() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        for i in 0..24u64 {
            eng.add(Task::implicit(1 + i % 3, 40).expect("valid"), &mut gas, &())
                .expect("add");
        }
        eng.snapshot(&mut gas, &()).expect("snapshot");
        // Tiny slices force many InProgress steps with ops in between.
        eng.set_slice_bytes(64);
        assert!(eng.begin_compaction(&mut gas, &()).expect("begin"));
        assert!(eng.compaction_active());
        // Second begin is a no-op while one is in flight.
        assert!(!eng.begin_compaction(&mut gas, &()).expect("no-op"));
        let mut steps = 0u32;
        let mut landed_mid_flight = 0u32;
        // `add` drives a slice through `after_op` too, so the compaction
        // may finish inside it — then the next call is Idle, not Done.
        while let CompactionStep::InProgress = eng.compaction_slice(&mut gas, &()).expect("slice") {
            steps += 1;
            // Live ops keep landing between slices.
            eng.add(Task::implicit(1, 50).expect("valid"), &mut gas, &())
                .expect("add mid-compaction");
            landed_mid_flight += 1;
        }
        assert!(steps > 2, "tiny slices must take several steps ({steps})");
        assert!(landed_mid_flight > 2);
        assert!(!eng.compaction_active());
        // The compacted journal replays to the exact live state, including
        // the ops that landed while slices were being copied.
        let (rec, _) = recover(EdfAdmission, Box::new(store), &mut gas, &()).expect("recovers");
        assert_eq!(rec.state_digest(), eng.state_digest());
        assert_eq!(rec.assignment(), eng.assignment());
        assert_eq!(rec.has_snapshot(), eng.has_snapshot());
    }

    #[test]
    fn compaction_tick_honours_the_cadence() {
        let store = MemStorage::new();
        let mut eng = DurableEngine::create(
            EdfAdmission,
            &platform(),
            Augmentation::NONE,
            DurableOptions {
                repack_after: 0,
                compact_every: 4,
                slice_bytes: 0,
            },
            Box::new(store.clone()),
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create");
        let mut gas = Gas::unlimited();
        assert_eq!(
            eng.compaction_tick(&mut gas, &()).expect("tick"),
            CompactionStep::Idle,
            "cadence not reached yet"
        );
        for i in 0..8u64 {
            eng.add(Task::implicit(1 + i % 2, 30).expect("valid"), &mut gas, &())
                .expect("add");
        }
        // With slice_bytes = 0 the whole image fits one slice, so after_op
        // completed the cadence compaction inline; the journal shrank to
        // [config, state, <ops since>].
        assert!(!eng.compaction_active());
        let (rec, report) =
            recover(EdfAdmission, Box::new(store), &mut gas, &()).expect("recovers");
        assert!(
            report.records_replayed < 8,
            "compaction replaced op records with a state image ({})",
            report.records_replayed
        );
        assert_eq!(rec.state_digest(), eng.state_digest());
    }

    #[test]
    fn live_state_digest_matches_engine_digest() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        for (w, p) in [(2u64, 9u64), (3, 11), (1, 5)] {
            eng.add(Task::implicit(w, p).expect("valid"), &mut gas, &())
                .expect("add");
        }
        assert_eq!(live_state_digest(eng.engine(), None), eng.state_digest());
        eng.snapshot(&mut gas, &()).expect("snapshot");
        eng.add(Task::implicit(1, 7).expect("valid"), &mut gas, &())
            .expect("add");
        assert_ne!(
            live_state_digest(eng.engine(), None),
            eng.state_digest(),
            "digest must cover the held snapshot"
        );
    }

    /// Digests and state records keep the values the `format!`-built
    /// encoder produced: each digest is the CRC-32 of the journal's own
    /// state-record bytes (plus a zero byte and the `snapstate` record
    /// while a snapshot is held), and the pinned values below predate the
    /// streamed encoder.
    #[test]
    fn digest_is_the_crc_of_the_state_record_bytes() {
        use crate::admission::RmsHyperbolicAdmission;
        use hetfeas_model::crc::crc32;
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        for t in [
            Task::implicit(3, 10).expect("valid"),
            Task::implicit(9, 10).expect("valid"),
            Task::constrained(2, 10, 8).expect("valid"),
            Task::implicit(1, 4).expect("valid"),
            Task::implicit(7, 20).expect("valid"),
        ] {
            eng.add(t, &mut gas, &()).expect("add");
        }
        let id = eng.engine().live_ids()[1];
        eng.remove(id, &mut gas, &()).expect("remove");
        let record = encode_state("state", &eng.engine().view());
        assert_eq!(
            String::from_utf8(record.clone()).expect("UTF-8"),
            "state\nnext-id 5\ndivergence 5\ncanonical 0\nfrontier 3/10\n\
             task 0 3 10 10\ntask 2 2 10 8\ntask 3 1 4 4\ntask 4 7 20 20\n\
             on 0 0 2 3\non 1 4\n"
        );
        assert_eq!(eng.state_digest(), crc32(&record));
        assert_eq!(eng.state_digest(), 0x8acd_75b7);

        eng.snapshot(&mut gas, &()).expect("snapshot");
        eng.add(Task::implicit(1, 7).expect("valid"), &mut gas, &())
            .expect("add");
        let snap = eng.snap.as_ref().expect("held");
        let mut bytes = encode_state("state", &eng.engine().view());
        bytes.push(0);
        bytes.extend_from_slice(&encode_state(
            "snapstate",
            &eng.engine().snapshot_view(snap),
        ));
        assert_eq!(eng.state_digest(), crc32(&bytes));
        assert_eq!(eng.state_digest(), 0x08a6_c17f);

        // Past the streaming spill threshold, on a permuted platform.
        let mut h = DurableEngine::create(
            RmsHyperbolicAdmission,
            &Platform::from_int_speeds([3, 1, 2]).expect("valid platform"),
            Augmentation::new(1.5).expect("valid"),
            DurableOptions {
                repack_after: 0,
                compact_every: 0,
                ..DurableOptions::default()
            },
            Box::new(MemStorage::new()),
            &mut gas,
            &(),
        )
        .expect("create");
        for i in 0..40u64 {
            h.add(
                Task::implicit(1 + i % 7, 20 + (i * 37) % 101).expect("valid"),
                &mut gas,
                &(),
            )
            .expect("add");
        }
        h.repack(&mut gas, &()).expect("repack");
        assert_eq!(h.state_digest(), 0x8aae_2550);
        let mut big = MemStorage::new();
        let mut g = DurableEngine::create(
            EdfAdmission,
            &platform(),
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(big.clone()),
            &mut gas,
            &(),
        )
        .expect("create");
        for i in 0..2_000u64 {
            g.add(Task::implicit(1, 1_000 + i).expect("valid"), &mut gas, &())
                .expect("add");
        }
        let record = encode_state("state", &g.engine().view());
        assert!(record.len() > 2 * DIGEST_SPILL, "{} bytes", record.len());
        assert_eq!(g.state_digest(), crc32(&record));
        g.compact(&mut gas, &()).expect("compact");
        let journaled = scan_records(&big.read_all().expect("read")).payloads;
        assert_eq!(journaled[1], record, "the journal stores the same bytes");
    }

    /// A journal written before request ids existed (`v1` header, no
    /// tags, no window record) recovers exactly as it did: the ops of
    /// `digest_is_the_crc_of_the_state_record_bytes`, framed by hand the
    /// way the old writer framed them, land on the same pinned digest.
    #[test]
    fn v1_journal_recovers_to_the_pinned_digest() {
        let config = "hetfeas-journal v1\npolicy edf\nalpha 3ff0000000000000\n\
                      repack-after 0\ncompact-every 0\nmachine 1/1\nmachine 2/1\n";
        let mut bytes = encode_record(config.as_bytes());
        for op in [
            "a 3 10 10",
            "a 9 10 10",
            "a 2 10 8",
            "a 1 4 4",
            "a 7 20 20",
            "r 1",
        ] {
            bytes.extend_from_slice(&encode_record(op.as_bytes()));
        }
        let mut gas = Gas::unlimited();
        let (rec, report) = recover(
            EdfAdmission,
            Box::new(MemStorage::with_bytes(bytes)),
            &mut gas,
            &(),
        )
        .expect("v1 journal recovers");
        assert_eq!(report.records_replayed, 6);
        assert_eq!(rec.state_digest(), 0x8acd_75b7);
        assert_eq!(rec.rid_log().count(), 0);
    }

    #[test]
    fn tagged_ops_carry_their_rid_and_untagged_ops_do_not() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        eng.set_rid(41);
        eng.add(Task::implicit(3, 10).expect("valid"), &mut gas, &())
            .expect("add");
        eng.add(Task::implicit(1, 10).expect("valid"), &mut gas, &())
            .expect("add");
        // A dead-id remove writes nothing: its tag is consumed, not kept.
        eng.set_rid(42);
        assert_eq!(
            eng.remove(TaskId::from_raw(99), &mut gas, &())
                .expect("miss"),
            None
        );
        eng.repack(&mut gas, &()).expect("repack");
        let payloads = scan_records(&store.bytes()).payloads;
        assert!(payloads[0].starts_with(b"hetfeas-journal v2\n"));
        let ops: Vec<&[u8]> = payloads[1..].iter().map(Vec::as_slice).collect();
        assert_eq!(ops, [&b"a 3 10 10 rid=41"[..], b"a 1 10 10", b"p"]);
        assert_eq!(
            eng.rid_log().collect::<Vec<_>>(),
            vec![(41, Applied::Admitted { id: 0, machine: 0 })]
        );
    }

    /// Tagged outcomes survive a recovery, a compaction (as the `window`
    /// record) and a recovery of the compacted journal — and the state
    /// digest never sees them.
    #[test]
    fn rid_log_survives_recovery_and_compaction() {
        // Every op but the sixth is tagged (rids 100, 101, ...) when `tag`.
        let run = |tag: bool| {
            let store = MemStorage::new();
            let mut eng = fresh(&store);
            let mut gas = Gas::unlimited();
            for (k, w, p) in [(0, 3, 10), (1, 9, 10), (2, 20, 10), (3, 1, 4)] {
                if tag {
                    eng.set_rid(100 + k);
                }
                let t = Task::implicit(w, p).expect("valid");
                eng.add(t, &mut gas, &()).expect("add");
            }
            if tag {
                eng.set_rid(104);
            }
            eng.snapshot(&mut gas, &()).expect("snapshot");
            eng.add(Task::implicit(1, 5).expect("valid"), &mut gas, &())
                .expect("add");
            if tag {
                eng.set_rid(105);
            }
            assert!(eng.rollback(&mut gas, &()).expect("rollback"));
            if tag {
                eng.set_rid(106);
            }
            eng.remove(TaskId::from_raw(0), &mut gas, &())
                .expect("remove");
            (store, eng)
        };
        let (store, mut eng) = run(true);
        assert_eq!(eng.state_digest(), run(false).1.state_digest());
        let log: Vec<_> = eng.rid_log().collect();
        assert_eq!(log.len(), 7);
        assert_eq!(log[2], (102, Applied::Rejected));
        assert_eq!(log[4], (104, Applied::Done));
        assert_eq!(log[6], (106, Applied::Removed));

        let mut gas = Gas::unlimited();
        let (rec, _) =
            recover(EdfAdmission, Box::new(store.clone()), &mut gas, &()).expect("recovers");
        assert_eq!(rec.rid_log().collect::<Vec<_>>(), log);
        assert_eq!(rec.state_digest(), eng.state_digest());

        eng.compact(&mut gas, &()).expect("compact");
        let payloads = scan_records(&store.bytes()).payloads;
        assert_eq!(payloads.len(), 4, "config, state, snapstate, window");
        assert!(payloads[3].starts_with(b"window\n100 admitted 0 0\n"));
        let (mut rec, report) =
            recover(EdfAdmission, Box::new(store), &mut gas, &()).expect("recovers");
        assert_eq!(report.records_replayed, 3);
        assert_eq!(rec.rid_log().collect::<Vec<_>>(), log);
        assert_eq!(rec.state_digest(), eng.state_digest());

        // A bounded window keeps only the newest outcomes.
        rec.set_rid_window(2);
        assert_eq!(rec.rid_log().collect::<Vec<_>>(), log[5..].to_vec());
    }

    #[test]
    fn wrong_policy_is_unrecoverable() {
        let store = MemStorage::new();
        let mut eng = fresh(&store);
        let mut gas = Gas::unlimited();
        eng.add(Task::implicit(1, 2).expect("valid"), &mut gas, &())
            .expect("add");
        let err = recover(crate::RmsLlAdmission, Box::new(store), &mut gas, &())
            .map(|_| ())
            .expect_err("policy mismatch");
        assert!(matches!(err, RecoverError::Corrupt(_)), "{err:?}");
    }

    #[test]
    fn garbage_is_corrupt_not_a_panic() {
        let store = MemStorage::with_bytes(b"not a journal at all".to_vec());
        let mut gas = Gas::unlimited();
        let err = recover(EdfAdmission, Box::new(store.clone()), &mut gas, &())
            .map(|_| ())
            .expect_err("garbage rejected");
        assert!(matches!(err, RecoverError::Corrupt(_)), "{err:?}");
        let err = peek_config(&mut store.clone()).expect_err("peek rejects too");
        assert!(matches!(err, RecoverError::Corrupt(_)), "{err:?}");
    }
}
