//! The supervised shard: one tenant, one worker thread, one journaled
//! engine.
//!
//! A shard is the service's bulkhead. The worker thread owns the tenant's
//! [`TenantEngine`] outright — engine and journal never cross threads —
//! and every fallible step (boot, recovery, op application) runs inside
//! the [`hetfeas_robust::firewall`] panic guard, so the *worst* a tenant
//! can do is crash its own incarnation. The supervision state machine
//! lives in the worker loop:
//!
//! ```text
//!            boot ok                    op Io / panic / gas-exhausted
//!  Starting ────────▶ Running ────────────────────────────┐
//!     ▲                  ▲                                ▼
//!     │ recover ok       │ recover ok              Backoff(attempt k)
//!     │                  └────────────────────────── sleep jittered
//!     │                                              delay, then
//!     └── boot Io (retry) ◀──────────────────────────recover() from
//!                                                    the journal
//!  Quarantined ◀── corrupt WAL │ restart cap exceeded │ unrecoverable
//!                  (terminal, still answers every request)
//! ```
//!
//! Restart delays come from [`Backoff`] with a per-tenant seed, so a
//! correlated fault does not make all shards hammer storage in lockstep,
//! yet the whole schedule replays deterministically under the chaos
//! harness. A quarantined shard never exits and never takes the process
//! down: it keeps draining its queue, answering `err quarantined` to ops
//! and serving its last known digest to health checks.
//!
//! The worker publishes into its [`ShardCell`] without ever paying O(live)
//! per batch. After each batch it sets the live count and rewrites, in
//! the cell's [`QuoteBoard`], only the machines the batch changed (one
//! per admitted add or found remove; all of them after a committed
//! repack, a rollback or a boot), counted by `service.quote_refreshes`.
//! The state digest is O(live), so the worker computes it only on demand
//! — at boot, for a `digest` request, and at shutdown — through one
//! helper that counts `service.digests`; the cell keeps the last value
//! computed. That is the digest a quarantined shard answers with: the
//! one from its last boot, `digest` request or shutdown before the fence.
//!
//! The queue between the front end and the worker is a **bounded**
//! `sync_channel`; the worker drains it in batches (up to
//! `batch_max`), coalescing adjacent idempotent ops (`repack`,
//! `compact`) into one execution. Requests queued behind a crash are
//! *not* lost: they stay in the worker's pending deque across the
//! restart and apply to the recovered engine in order.
//!
//! Each op of a batch writes its journal record before it applies, with
//! no `fsync` of its own. The worker holds every reply of the batch —
//! queries, digests and dedup hits included, so no reply shows state
//! that is not yet durable — then runs the engine's durability barrier
//! ([`TenantEngine::sync`]) once, and only then sends the replies. An
//! op that fails or panics mid-batch ends the batch; the barrier still
//! runs for the ops before it, which are answered only if it succeeds.
//! When the barrier fails, every reply the batch held answers with the
//! barrier's error (`err io` for a storage failure), the journal is
//! truncated back to the previous barrier where the storage allows it,
//! and the shard restarts from the journal as after a failed op. Two
//! kinds of reply are already durable and keep their answer: a dedup hit
//! from the window, which holds only outcomes an earlier barrier (or the
//! boot's open of the journal) made durable, and a reply the engine gave
//! while no record was waiting for a barrier — such as every reply up to
//! an op whose compaction commit, itself a barrier, landed mid-batch.

use crate::engine::TenantEngine;
use crate::metrics;
use crate::quote::QuoteBoard;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::{MemorySink, MetricsSink};
use hetfeas_partition::durable::{Applied, DurableError, DurableOptions, RecoverError};
use hetfeas_partition::incremental::{AddOutcome, RepackOutcome};
use hetfeas_partition::PolicyKind;
use hetfeas_robust::journal::{with_retries, JournalError, Storage};
use hetfeas_robust::{firewall, Backoff, Budget, Gas};
use std::collections::{HashMap, VecDeque};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

/// Builds the storage for a shard incarnation. Called with `0` for the
/// first boot and `k` for the k-th restart — a restart models "reopen the
/// same file after a crash", so a factory over real files returns a fresh
/// handle to the *same* path, while the chaos harness uses the
/// incarnation index to scope injected faults to specific lives of the
/// shard.
pub type StorageFactory = Arc<dyn Fn(u32) -> Box<dyn Storage> + Send + Sync>;

/// Everything the service needs to open one tenant.
#[derive(Clone)]
pub struct TenantSpec {
    /// Tenant name (unique within the service).
    pub name: String,
    /// Admission policy for this tenant's engine.
    pub policy: PolicyKind,
    /// The tenant's machine platform.
    pub platform: Platform,
    /// Speed augmentation the tenant runs at.
    pub alpha: Augmentation,
    /// Storage factory for the tenant's journal (see [`StorageFactory`]).
    pub factory: StorageFactory,
    /// Per-op gas budget (ops); `None` = unlimited.
    pub op_gas: Option<u64>,
    /// Gas budget for boot/recovery; `None` = unlimited.
    pub recover_gas: Option<u64>,
}

/// Knobs shared by every shard of a service.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// Max ops drained per batch.
    pub batch_max: usize,
    /// Restarts allowed before quarantine.
    pub max_restarts: u32,
    /// Base restart delay (ms).
    pub backoff_base_ms: u64,
    /// Restart delay cap (ms).
    pub backoff_cap_ms: u64,
    /// Jitter seed (xored with a per-tenant hash).
    pub seed: u64,
    /// Journal options (auto-repack / compaction cadence).
    pub opts: DurableOptions,
    /// Capacity of the per-tenant request-id dedup window (`0` disables
    /// idempotent-retry dedup).
    pub dedup_window: usize,
}

/// Lifecycle state of a shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardState {
    /// First boot in progress.
    Starting,
    /// Serving ops from a live engine.
    Running,
    /// Crashed; waiting out the restart delay before recovery.
    Backoff,
    /// Terminal: fenced off, answers every request with an error but
    /// never takes the process down.
    Quarantined,
}

impl ShardState {
    /// Stable lowercase name (used by reports and the wire protocol).
    pub fn as_str(self) -> &'static str {
        match self {
            ShardState::Starting => "starting",
            ShardState::Running => "running",
            ShardState::Backoff => "backoff",
            ShardState::Quarantined => "quarantined",
        }
    }
}

/// Published view of a shard, updated by its worker on every state
/// transition and, for the live count, after every batch. Reads never
/// touch the worker, and none copies O(live) data.
#[derive(Debug, Clone)]
pub struct ShardStatus {
    /// Lifecycle state.
    pub state: ShardState,
    /// Why the shard is quarantined (when it is).
    pub reason: Option<String>,
    /// The last state digest the worker computed — at boot, for a
    /// `digest` request, or at shutdown. Digests are O(live), so the
    /// worker never computes one just to publish it.
    pub digest: Option<u32>,
    /// Last known live-task count.
    pub live: usize,
    /// Restarts performed so far.
    pub restarts: u32,
    /// Current incarnation index.
    pub incarnation: u32,
}

impl ShardStatus {
    fn new() -> ShardStatus {
        ShardStatus {
            state: ShardState::Starting,
            reason: None,
            digest: None,
            live: 0,
            restarts: 0,
            incarnation: 0,
        }
    }
}

/// Shared cell carrying a shard's published status and, beside it, the
/// tenant's quote board.
pub struct ShardCell {
    status: Mutex<ShardStatus>,
    board: Mutex<QuoteBoard>,
}

impl ShardCell {
    pub(crate) fn new() -> Arc<ShardCell> {
        Arc::new(ShardCell {
            status: Mutex::new(ShardStatus::new()),
            board: Mutex::new(QuoteBoard::default()),
        })
    }

    /// Snapshot the published status.
    pub fn status(&self) -> ShardStatus {
        self.status.lock().expect("shard cell poisoned").clone()
    }

    /// Shed-time α quote from the published board (see
    /// [`QuoteBoard::quote`]).
    pub fn quote(
        &self,
        policy: PolicyKind,
        platform: &Platform,
        current_alpha: f64,
        task: Task,
        rungs: &[f64],
    ) -> Option<f64> {
        self.board.lock().expect("quote board poisoned").quote(
            policy,
            platform,
            current_alpha,
            task,
            rungs,
        )
    }

    fn update(&self, f: impl FnOnce(&mut ShardStatus)) {
        f(&mut self.status.lock().expect("shard cell poisoned"));
    }

    /// Publish what `engine` changed since the last publish: its live
    /// count, and the board entries of the machines it touched (all of
    /// them right after a boot).
    fn publish(&self, engine: &mut TenantEngine, sink: &MemorySink) {
        let changed = engine.take_changed();
        let rewritten = self
            .board
            .lock()
            .expect("quote board poisoned")
            .refresh(engine, &changed);
        if rewritten > 0 {
            sink.counter_add(metrics::SERVICE_QUOTE_REFRESHES, rewritten as u64);
        }
        self.update(|s| s.live = engine.len());
    }
}

/// The shard's one path to a state digest, so `service.digests` counts
/// every O(live) digest the worker pays for.
fn digest(engine: &TenantEngine, sink: &MemorySink) -> u32 {
    sink.counter_add(metrics::SERVICE_DIGESTS, 1);
    engine.state_digest()
}

/// Counting semaphore bounding how many shards apply batches
/// concurrently — `HETFEAS_WORKERS`-shaped CPU control without starving
/// idle shards of their queues.
pub struct Gate {
    permits: Mutex<usize>,
    freed: Condvar,
}

impl Gate {
    pub(crate) fn new(permits: usize) -> Arc<Gate> {
        Arc::new(Gate {
            permits: Mutex::new(permits.max(1)),
            freed: Condvar::new(),
        })
    }

    fn acquire(self: &Arc<Gate>) -> GatePermit {
        let mut n = self.permits.lock().expect("gate poisoned");
        while *n == 0 {
            n = self.freed.wait(n).expect("gate poisoned");
        }
        *n -= 1;
        GatePermit {
            gate: Arc::clone(self),
        }
    }
}

struct GatePermit {
    gate: Arc<Gate>,
}

impl Drop for GatePermit {
    fn drop(&mut self) {
        *self.gate.permits.lock().expect("gate poisoned") += 1;
        self.gate.freed.notify_one();
    }
}

/// A journaled engine op.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Op {
    /// Admit a task.
    Add(Task),
    /// Remove a task by raw id.
    Remove(u64),
    /// Snapshot into the single journaled slot.
    Snapshot,
    /// Roll back to the held snapshot.
    Rollback,
    /// Explicit canonical repack.
    Repack,
    /// Compact the journal.
    Compact,
}

/// A request to a shard.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Request {
    /// Apply a journaled op.
    Op(Op),
    /// Which machine hosts raw id (read-only)?
    Query(u64),
    /// Exact post-queue state digest (read-only).
    Digest,
    /// Panic inside the firewall — chaos/testing aid.
    InjectPanic,
    /// Busy-sleep the worker (sheds load upstream) — chaos/testing aid.
    Stall(u64),
    /// Drain and exit cleanly.
    Shutdown,
}

/// How an op failed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ErrorKind {
    /// IO error that survived the retry budget.
    Io,
    /// Gas budget exhausted.
    Exhausted,
    /// Panic caught by the firewall.
    Panic,
    /// The target tenant does not exist.
    UnknownTenant,
    /// The shard worker is unavailable (post-shutdown).
    Unavailable,
}

impl ErrorKind {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            ErrorKind::Io => "io",
            ErrorKind::Exhausted => "exhausted",
            ErrorKind::Panic => "panic",
            ErrorKind::UnknownTenant => "unknown-tenant",
            ErrorKind::Unavailable => "unavailable",
        }
    }
}

/// A shard's answer to one request.
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// Add admitted; the raw id is stable across crash-recovery.
    Admitted {
        /// Raw task id (valid until removed).
        id: u64,
        /// Machine the task landed on at admission time.
        machine: usize,
    },
    /// Add rejected by the admission test at the tenant's α.
    Rejected,
    /// Remove outcome (`found == false`: the id was dead; not journaled).
    Removed {
        /// Whether a live task was removed.
        found: bool,
    },
    /// Query answer.
    Machine(Option<usize>),
    /// Snapshot / rollback / repack / compact / stall completed.
    Done,
    /// Rollback with no held snapshot (not journaled).
    NoSnapshot,
    /// Repack found the survivor set FFD-infeasible; assignment kept.
    RepackInfeasible,
    /// Digest answer.
    Digest {
        /// CRC32 state digest.
        digest: u32,
        /// Shard state at answer time.
        state: ShardState,
        /// Live task count.
        live: usize,
    },
    /// Load-shed: queue full, op rejected without blocking. `alpha` is
    /// the speculative quote — the smallest ladder rung that would have
    /// admitted the task a moment ago (adds only).
    Shed {
        /// Speculative α quote, when one exists.
        alpha: Option<f64>,
    },
    /// The shard is quarantined; the op was not applied.
    Quarantined {
        /// Why the shard was fenced off.
        reason: String,
    },
    /// The op failed (and was not applied).
    Error {
        /// Failure class.
        kind: ErrorKind,
        /// Human-readable detail.
        message: String,
    },
    /// Clean shutdown acknowledged.
    Shutdown,
}

impl From<Applied> for Response {
    fn from(applied: Applied) -> Response {
        match applied {
            Applied::Admitted { id, machine } => Response::Admitted { id, machine },
            Applied::Rejected => Response::Rejected,
            Applied::Removed => Response::Removed { found: true },
            Applied::Done => Response::Done,
            Applied::RepackInfeasible => Response::RepackInfeasible,
        }
    }
}

impl Response {
    /// The reply to an op or barrier that failed with `e`.
    fn failed(e: &DurableError) -> Response {
        let (kind, message) = match e {
            DurableError::Io(m) => (ErrorKind::Io, m.clone()),
            DurableError::Exhausted(x) => {
                (ErrorKind::Exhausted, format!("op gas exhausted ({x:?})"))
            }
        };
        Response::Error { kind, message }
    }

    /// True when the request's engine op was applied (journaled ops
    /// only; used by the chaos harness to build the fault-free
    /// reference replay).
    pub fn applied(&self) -> bool {
        matches!(
            self,
            Response::Admitted { .. }
                | Response::Rejected
                | Response::Removed { .. }
                | Response::Done
                | Response::NoSnapshot
                | Response::RepackInfeasible
        )
    }
}

/// A sequenced request plus its reply route. Coalescing folds dropped
/// duplicates into `extra`, which receive a clone of the reply. `rid`
/// is the client-assigned idempotency token, when the request carried
/// one — rid-bearing ops bypass coalescing and consult the dedup
/// window instead.
pub(crate) struct Envelope {
    pub seq: u64,
    pub rid: Option<u64>,
    pub req: Request,
    pub reply: Sender<(u64, Response)>,
    pub extra: Vec<(u64, Sender<(u64, Response)>)>,
}

impl Envelope {
    fn respond(&self, resp: Response) {
        for (seq, tx) in &self.extra {
            let _ = tx.send((*seq, resp.clone()));
        }
        let _ = self.reply.send((self.seq, resp));
    }
}

pub(crate) struct WorkerCtx {
    pub spec: TenantSpec,
    pub cfg: ShardConfig,
    pub cell: Arc<ShardCell>,
    pub sink: Arc<MemorySink>,
    pub gate: Arc<Gate>,
    pub rx: Receiver<Envelope>,
}

enum BootError {
    /// Transient — retry after backoff (IO, gas, panic during boot).
    Retry(String),
    /// Terminal — corrupt journal; quarantine without retrying.
    Quarantine(String),
}

/// FNV-1a, so each tenant gets a distinct jitter stream from one seed.
fn tenant_hash(name: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in name.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x1_0000_01b3);
    }
    h
}

fn boot(ctx: &WorkerCtx, incarnation: u32) -> Result<TenantEngine, BootError> {
    let sink = &*ctx.sink;
    let mut gas = match ctx.spec.recover_gas {
        Some(n) => Budget::ops(n).gas(),
        None => Gas::unlimited(),
    };
    let retry_io = |e: JournalError| match e {
        JournalError::Io(m) => BootError::Retry(format!("journal IO: {m}")),
        JournalError::Exhausted(x) => BootError::Retry(format!("boot gas exhausted ({x:?})")),
    };
    let guarded = firewall::guard(sink, || {
        let mut store = (ctx.spec.factory)(incarnation);
        let empty = with_retries(&mut gas, sink, || store.read_all())
            .map_err(retry_io)?
            .is_empty();
        if empty {
            TenantEngine::create(
                ctx.spec.policy,
                &ctx.spec.platform,
                ctx.spec.alpha,
                ctx.cfg.opts,
                store,
                &mut gas,
                sink,
            )
            .map_err(|e| match e {
                DurableError::Io(m) => BootError::Retry(format!("create IO: {m}")),
                DurableError::Exhausted(x) => {
                    BootError::Retry(format!("create gas exhausted ({x:?})"))
                }
            })
        } else {
            TenantEngine::recover(ctx.spec.policy, store, &mut gas, sink)
                .map(|(engine, _report)| engine)
                .map_err(|e| match e {
                    RecoverError::Corrupt(m) => {
                        BootError::Quarantine(format!("corrupt journal: {m}"))
                    }
                    RecoverError::Io(m) => BootError::Retry(format!("recover IO: {m}")),
                    RecoverError::Exhausted(x) => {
                        BootError::Retry(format!("recovery gas exhausted ({x:?})"))
                    }
                })
        }
    });
    match guarded {
        Ok(result) => result,
        Err(_panic) => Err(BootError::Retry("panic during boot/recovery".to_string())),
    }
}

/// Per-op (and per-barrier) gas for a shard's tenant.
fn op_gas(spec: &TenantSpec) -> Gas {
    match spec.op_gas {
        Some(n) => Budget::ops(n).gas(),
        None => Gas::unlimited(),
    }
}

/// Apply one [`Op`] to `engine`, its journal record tagged with `rid`
/// when the request carried one — the one place the service maps its
/// ops onto the engine, shared by the shard worker and the chaos
/// harness's fault-free reference replay. Writes the op's record but
/// runs no barrier: the caller acknowledges only after
/// [`TenantEngine::sync`].
pub(crate) fn apply_op<S: MetricsSink>(
    engine: &mut TenantEngine,
    op: Op,
    rid: Option<u64>,
    gas: &mut Gas,
    sink: &S,
) -> Result<Response, DurableError> {
    if let Some(rid) = rid {
        engine.set_rid(rid);
    }
    Ok(match op {
        Op::Add(task) => match engine.add(task, gas, sink)? {
            AddOutcome::Admitted { id, machine } => Response::Admitted {
                id: id.raw(),
                machine,
            },
            AddOutcome::Rejected => Response::Rejected,
        },
        Op::Remove(raw) => Response::Removed {
            found: engine.remove(raw, gas, sink)?.is_some(),
        },
        Op::Snapshot => {
            engine.snapshot(gas, sink)?;
            Response::Done
        }
        Op::Rollback => {
            if engine.rollback(gas, sink)? {
                Response::Done
            } else {
                Response::NoSnapshot
            }
        }
        Op::Repack => match engine.repack(gas, sink)? {
            RepackOutcome::Repacked => Response::Done,
            RepackOutcome::Infeasible => Response::RepackInfeasible,
        },
        Op::Compact => {
            engine.compact(gas, sink)?;
            Response::Done
        }
    })
}

/// A bounded per-tenant LRU of recently acked request ids and their
/// cached replies. A retried op whose rid is still in the window is
/// answered from the cache without touching the engine, so at-least-once
/// delivery becomes exactly-once application. Only *applied* replies are
/// cached, and only once a barrier made them durable — errors stay
/// retryable. The window lives outside the supervision loop, so it
/// survives panic-restart incarnations of the same worker, and every boot
/// seeds it from the request-id log the engine's recovery rebuilt from
/// the journal (whose open fsyncs what it read), so journaled outcomes
/// survive a process restart too. Every entry is therefore durable.
/// Outcomes that write no record — a remove of a dead id, a rollback with
/// no snapshot, a compaction — live only here and re-execute on a retry
/// after a process restart (see DESIGN.md §15).
struct DedupWindow {
    cap: usize,
    map: HashMap<u64, Response>,
    order: VecDeque<u64>,
}

impl DedupWindow {
    fn new(cap: usize) -> DedupWindow {
        DedupWindow {
            cap,
            map: HashMap::new(),
            order: VecDeque::new(),
        }
    }

    fn get(&self, rid: u64) -> Option<&Response> {
        self.map.get(&rid)
    }

    fn insert(&mut self, rid: u64, resp: Response) {
        if self.cap == 0 {
            return;
        }
        if self.map.insert(rid, resp).is_none() {
            self.order.push_back(rid);
            while self.order.len() > self.cap {
                if let Some(old) = self.order.pop_front() {
                    self.map.remove(&old);
                }
            }
        }
    }
}

/// A reply a batch holds until its barrier.
struct Held {
    env: Envelope,
    resp: Response,
    /// The reply stands whatever the batch's barrier does: it is a hit
    /// in the dedup window (which holds durable outcomes only), or a
    /// barrier inside the batch — a compaction commit — already covered
    /// the state it reports.
    durable: bool,
}

impl Held {
    fn pending(env: Envelope, resp: Response) -> Held {
        Held {
            env,
            resp,
            durable: false,
        }
    }

    /// The request id whose applied outcome this reply is, if any: what
    /// the dedup window remembers once the reply is sent.
    fn outcome_rid(&self) -> Option<u64> {
        match self.env.req {
            Request::Op(_) => self.env.rid.filter(|_| self.resp.applied()),
            _ => None,
        }
    }
}

/// Merge adjacent duplicate idempotent ops (repack, compact): the later
/// envelope executes once and answers both. Returns merged count.
/// Envelopes carrying a request id are never merged — each rid must be
/// individually acked (and individually recorded in the dedup window).
fn coalesce(pending: &mut VecDeque<Envelope>) -> u64 {
    fn coalescible(env: &Envelope) -> bool {
        env.rid.is_none() && matches!(env.req, Request::Op(Op::Repack) | Request::Op(Op::Compact))
    }
    let mut merged = 0u64;
    let mut out: VecDeque<Envelope> = VecDeque::with_capacity(pending.len());
    for env in pending.drain(..) {
        match out.back_mut() {
            Some(prev) if coalescible(prev) && coalescible(&env) && prev.req == env.req => {
                let mut folded = env;
                folded.extra.append(&mut prev.extra);
                folded.extra.push((prev.seq, prev.reply.clone()));
                *prev = folded;
                merged += 1;
            }
            _ => out.push_back(env),
        }
    }
    *pending = out;
    merged
}

/// Shard worker main loop. Never panics out (every fallible step is
/// guarded); returns only on `Shutdown` or when the service drops the
/// send side.
pub(crate) fn run(ctx: WorkerCtx) {
    let sink = Arc::clone(&ctx.sink);
    let backoff = Backoff::new(
        ctx.cfg.backoff_base_ms,
        ctx.cfg.backoff_cap_ms,
        ctx.cfg.seed ^ tenant_hash(&ctx.spec.name),
    );
    let mut engine: Option<TenantEngine> = None;
    let mut incarnation: u32 = 0;
    let mut restarts: u32 = 0;
    let mut quarantine: Option<String> = None;
    let mut pending: VecDeque<Envelope> = VecDeque::new();
    // Outside the supervision loop on purpose: acked ids must stay
    // deduplicated across panic-restart incarnations.
    let mut dedup = DedupWindow::new(ctx.cfg.dedup_window);
    // Reused by every batch: the replies it holds until its barrier.
    let mut held: Vec<Held> = Vec::new();

    let do_quarantine = |reason: &str,
                         engine: &mut Option<TenantEngine>,
                         quarantine: &mut Option<String>,
                         restarts: u32,
                         incarnation: u32| {
        *engine = None;
        *quarantine = Some(reason.to_string());
        sink.counter_add(metrics::SERVICE_QUARANTINES, 1);
        ctx.cell.update(|s| {
            s.state = ShardState::Quarantined;
            s.reason = Some(reason.to_string());
            s.restarts = restarts;
            s.incarnation = incarnation;
        });
        ctx.cell.board.lock().expect("quote board poisoned").clear();
    };

    loop {
        // Supervision: (re)boot until Running or Quarantined.
        while engine.is_none() && quarantine.is_none() {
            if restarts > 0 {
                ctx.cell.update(|s| {
                    s.state = ShardState::Backoff;
                    s.restarts = restarts;
                    s.incarnation = incarnation;
                });
                std::thread::sleep(Duration::from_millis(backoff.delay_ms(restarts - 1)));
            }
            match boot(&ctx, incarnation) {
                Ok(mut e) => {
                    e.set_rid_window(ctx.cfg.dedup_window);
                    for (rid, applied) in e.rid_log() {
                        dedup.insert(rid, applied.into());
                    }
                    let d = digest(&e, &sink);
                    ctx.cell.publish(&mut e, &sink);
                    ctx.cell.update(|s| {
                        s.state = ShardState::Running;
                        s.reason = None;
                        s.digest = Some(d);
                        s.restarts = restarts;
                        s.incarnation = incarnation;
                    });
                    engine = Some(e);
                }
                Err(BootError::Quarantine(reason)) => {
                    do_quarantine(&reason, &mut engine, &mut quarantine, restarts, incarnation);
                }
                Err(BootError::Retry(reason)) => {
                    incarnation += 1;
                    restarts += 1;
                    sink.counter_add(metrics::SERVICE_RESTARTS, 1);
                    if restarts > ctx.cfg.max_restarts {
                        let msg = format!(
                            "restart cap ({}) exceeded; last failure: {reason}",
                            ctx.cfg.max_restarts
                        );
                        do_quarantine(&msg, &mut engine, &mut quarantine, restarts, incarnation);
                    }
                }
            }
        }

        // Refill the pending deque (blocking when idle, then batch).
        if pending.is_empty() {
            match ctx.rx.recv() {
                Ok(env) => pending.push_back(env),
                Err(_) => return, // service dropped — no more clients
            }
            while pending.len() < ctx.cfg.batch_max {
                match ctx.rx.try_recv() {
                    Ok(env) => pending.push_back(env),
                    Err(_) => break,
                }
            }
            let merged = coalesce(&mut pending);
            sink.counter_add(metrics::SERVICE_BATCHES, 1);
            if merged > 0 {
                sink.counter_add(metrics::SERVICE_COALESCED, merged);
            }
        }

        // Apply the batch under a CPU permit, holding every reply until
        // the batch's barrier.
        let mut permit = if quarantine.is_none() {
            Some(ctx.gate.acquire())
        } else {
            None
        };
        let mut crashed: Option<String> = None;
        let mut shutdown: Option<Envelope> = None;
        // `held[..settled]` is marked durable: after the last of those
        // replies, no record waited for a barrier.
        let mut settled = 0;
        while let Some(env) = pending.pop_front() {
            if matches!(env.req, Request::Shutdown) {
                shutdown = Some(env);
                break;
            }
            // Idempotent-retry fast path: a rid we already acked (or
            // applied earlier in this batch) answers from the cache —
            // even on a now-quarantined shard, because the original
            // application *did* happen and the ack must stay consistent
            // with the journal. The window holds durable outcomes only,
            // so a hit there stands whatever this batch's barrier does.
            if let (Some(rid), Request::Op(_)) = (env.rid, env.req) {
                let cached = match dedup.get(rid) {
                    Some(resp) => Some((resp.clone(), true)),
                    None => held
                        .iter()
                        .rev()
                        .find(|h| h.outcome_rid() == Some(rid))
                        .map(|h| (h.resp.clone(), h.durable)),
                };
                if let Some((resp, durable)) = cached {
                    sink.counter_add(metrics::SERVICE_DEDUP_HITS, 1);
                    held.push(Held { env, resp, durable });
                    continue;
                }
            }
            if let Some(reason) = &quarantine {
                let resp = match env.req {
                    Request::Digest => {
                        let status = ctx.cell.status();
                        Response::Digest {
                            digest: status.digest.unwrap_or(0),
                            state: ShardState::Quarantined,
                            live: status.live,
                        }
                    }
                    _ => Response::Quarantined {
                        reason: reason.clone(),
                    },
                };
                held.push(Held::pending(env, resp));
                continue;
            }
            let eng = engine.as_mut().expect("running shard has an engine");
            let resp = match env.req {
                Request::Query(raw) => Response::Machine(eng.machine_of(raw)),
                Request::Digest => {
                    let d = digest(eng, &sink);
                    ctx.cell.update(|s| s.digest = Some(d));
                    Response::Digest {
                        digest: d,
                        state: ShardState::Running,
                        live: eng.len(),
                    }
                }
                Request::Stall(ms) => {
                    // Testing aid: hold this worker (not the CPU gate)
                    // busy so its bounded queue fills upstream.
                    drop(permit.take());
                    std::thread::sleep(Duration::from_millis(ms));
                    permit = Some(ctx.gate.acquire());
                    Response::Done
                }
                Request::InjectPanic => {
                    let poisoned = firewall::guard(&*sink, || {
                        panic!("injected shard panic");
                    });
                    debug_assert!(poisoned.is_err());
                    sink.counter_add(metrics::SERVICE_OP_ERRORS, 1);
                    crashed = Some("injected shard panic".to_string());
                    Response::Error {
                        kind: ErrorKind::Panic,
                        message: "injected shard panic".to_string(),
                    }
                }
                Request::Op(op) => {
                    let mut gas = op_gas(&ctx.spec);
                    match firewall::guard(&*sink, || apply_op(eng, op, env.rid, &mut gas, &*sink)) {
                        Ok(Ok(resp)) => resp,
                        Ok(Err(e)) => {
                            sink.counter_add(metrics::SERVICE_OP_ERRORS, 1);
                            // The journal may hold a torn tail; resync
                            // by recovering a fresh incarnation before
                            // touching the engine again.
                            crashed = Some(format!("op failed: {e}"));
                            Response::failed(&e)
                        }
                        Err(report) => {
                            sink.counter_add(metrics::SERVICE_OP_ERRORS, 1);
                            crashed = Some("panic during op".to_string());
                            Response::Error {
                                kind: ErrorKind::Panic,
                                message: format!("panic during op: {}", report.message),
                            }
                        }
                    }
                }
                Request::Shutdown => unreachable!("handled above"),
            };
            held.push(Held::pending(env, resp));
            if eng.is_synced() {
                // Nothing written since the last barrier — or a
                // compaction commit just made it durable.
                for h in &mut held[settled..] {
                    h.durable = true;
                }
                settled = held.len();
            }
            if crashed.is_some() {
                break;
            }
        }
        drop(permit);

        // The batch's one barrier, then its replies. Free when no op of
        // the batch wrote a record.
        let barrier = match engine.as_mut() {
            Some(e) => {
                let mut gas = op_gas(&ctx.spec);
                firewall::guard(&*sink, || e.sync(&mut gas, &*sink)).unwrap_or_else(|report| {
                    let m = format!("panic during barrier: {}", report.message);
                    Err(DurableError::Io(m))
                })
            }
            None => Ok(()),
        };
        // When it fails, every held reply not already durable reports the
        // failure instead, and the engine (now ahead of its journal) is
        // recovered afresh.
        let failed = barrier.as_ref().err().map(Response::failed);
        for h in held.drain(..) {
            let resp = match &failed {
                Some(f) if !h.durable && !matches!(h.resp, Response::Error { .. }) => {
                    sink.counter_add(metrics::SERVICE_OP_ERRORS, 1);
                    f.clone()
                }
                _ => {
                    if let Some(rid) = h.outcome_rid() {
                        dedup.insert(rid, h.resp.clone());
                    }
                    h.resp
                }
            };
            h.env.respond(resp);
        }
        if let Err(e) = barrier {
            crashed.get_or_insert(format!("barrier failed: {e}"));
        }

        if let Some(env) = shutdown {
            if crashed.is_some() {
                // Answered by the recovered incarnation.
                pending.push_front(env);
            } else {
                if let Some(e) = engine.as_ref() {
                    let d = digest(e, &sink);
                    ctx.cell.update(|s| {
                        s.digest = Some(d);
                        s.live = e.len();
                    });
                }
                env.respond(Response::Shutdown);
                return;
            }
        }

        if let Some(reason) = crashed {
            // Discard the possibly-poisoned incarnation; the supervision
            // loop at the top recovers from the journal. Pending
            // requests survive in order.
            engine = None;
            incarnation += 1;
            restarts += 1;
            sink.counter_add(metrics::SERVICE_RESTARTS, 1);
            if restarts > ctx.cfg.max_restarts {
                let msg = format!(
                    "restart cap ({}) exceeded; last failure: {reason}",
                    ctx.cfg.max_restarts
                );
                do_quarantine(&msg, &mut engine, &mut quarantine, restarts, incarnation);
            }
        } else if quarantine.is_none() {
            if let Some(e) = engine.as_mut() {
                // Between batches, advance any in-flight incremental
                // journal compaction by one bounded slice. Best-effort:
                // gas exhaustion resumes next batch; an IO error here
                // aborted the staged file only, so the live journal (and
                // the shard) keep going — the next cadence retries.
                let _ = e.compaction_tick(&mut op_gas(&ctx.spec), &*sink);
                ctx.cell.publish(e, &sink);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;

    fn env_for(seq: u64, req: Request, tx: &Sender<(u64, Response)>) -> Envelope {
        Envelope {
            seq,
            rid: None,
            req,
            reply: tx.clone(),
            extra: Vec::new(),
        }
    }

    #[test]
    fn coalesce_merges_adjacent_repacks_and_answers_all() {
        let (tx, rx) = mpsc::channel();
        let mut pending: VecDeque<Envelope> = [
            env_for(1, Request::Op(Op::Repack), &tx),
            env_for(2, Request::Op(Op::Repack), &tx),
            env_for(3, Request::Op(Op::Compact), &tx),
            env_for(4, Request::Op(Op::Compact), &tx),
            env_for(5, Request::Op(Op::Repack), &tx),
            env_for(6, Request::Query(0), &tx),
        ]
        .into_iter()
        .collect();
        assert_eq!(coalesce(&mut pending), 2);
        assert_eq!(pending.len(), 4);
        // Each kept envelope still answers every subsumed seq.
        for env in &pending {
            env.respond(Response::Done);
        }
        let mut seqs: Vec<u64> = rx.try_iter().map(|(s, _)| s).collect();
        seqs.sort_unstable();
        assert_eq!(seqs, vec![1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn coalesce_keeps_non_adjacent_and_non_idempotent_ops() {
        let (tx, _rx) = mpsc::channel();
        let t = Task::implicit(1, 10).expect("task");
        let mut pending: VecDeque<Envelope> = [
            env_for(1, Request::Op(Op::Add(t)), &tx),
            env_for(2, Request::Op(Op::Add(t)), &tx),
            env_for(3, Request::Op(Op::Snapshot), &tx),
            env_for(4, Request::Op(Op::Snapshot), &tx),
        ]
        .into_iter()
        .collect();
        assert_eq!(coalesce(&mut pending), 0);
        assert_eq!(pending.len(), 4);
    }

    #[test]
    fn gate_bounds_concurrency() {
        let gate = Gate::new(2);
        let a = gate.acquire();
        let _b = gate.acquire();
        // Third acquire would block; release one and take it from
        // another thread to prove hand-off works.
        drop(a);
        let g2 = Arc::clone(&gate);
        std::thread::spawn(move || {
            let _c = g2.acquire();
        })
        .join()
        .expect("acquire after release");
    }

    #[test]
    fn tenant_hash_separates_names() {
        assert_ne!(tenant_hash("a"), tenant_hash("b"));
    }

    #[test]
    fn coalesce_never_merges_rid_bearing_ops() {
        let (tx, rx) = mpsc::channel();
        let mut pending: VecDeque<Envelope> = VecDeque::new();
        for (seq, rid) in [(1, Some(10)), (2, Some(11)), (3, None), (4, None)] {
            let mut env = env_for(seq, Request::Op(Op::Repack), &tx);
            env.rid = rid;
            pending.push_back(env);
        }
        // Only the two rid-less repacks merge.
        assert_eq!(coalesce(&mut pending), 1);
        assert_eq!(pending.len(), 3);
        for env in &pending {
            env.respond(Response::Done);
        }
        assert_eq!(rx.try_iter().count(), 4);
    }

    #[test]
    fn dedup_window_evicts_oldest_and_keeps_recent() {
        let mut w = DedupWindow::new(2);
        w.insert(1, Response::Done);
        w.insert(2, Response::Rejected);
        assert!(w.get(1).is_some() && w.get(2).is_some());
        w.insert(3, Response::Done);
        assert!(w.get(1).is_none(), "oldest evicted at capacity");
        assert!(w.get(2).is_some() && w.get(3).is_some());
        // Re-inserting an existing rid does not double-count capacity.
        w.insert(3, Response::Done);
        assert!(w.get(2).is_some());
        let mut off = DedupWindow::new(0);
        off.insert(9, Response::Done);
        assert!(off.get(9).is_none(), "cap 0 disables dedup");
    }
}
