//! Op-trace replay: the batched front end of the online admission engine.
//!
//! An op trace ([`hetfeas_model::parse_op_trace`], or an HBT1 stream read
//! through [`OpStream`]) holds *independent* instances. Each instance's
//! operations run through one protocol, [`InstanceReplayer::apply`], over
//! any [`OpEngine`]:
//!
//! * [`Incremental`] — the [`IncrementalEngine`] (`O(log m)` adds, local
//!   repairs) with the trace's single snapshot slot;
//! * [`DurableEngine`] — the same engine behind a write-ahead journal,
//!   with the journal's barrier run after every op;
//! * [`FromScratch`] — the honest baseline: a full batch first-fit re-run
//!   ([`FirstFitEngine`]) after every mutating operation.
//!
//! [`replay_ops`] is the one per-instance driver. The trace's format
//! decides only how instances reach it: [`replay_sharded`] fans a parsed
//! trace's instances out across worker threads with
//! [`hetfeas_par::par_map_with`], ticking a shared [`Progress`] counter so
//! long replays report `done/total` live, and [`replay_stream_with`] pulls
//! an HBT1 stream's instances one at a time in bounded memory. Both give
//! each instance its own meter from one run deadline, so an exhausted
//! instance is reported on its own and the next one still runs. A
//! journaled replay is one instance of either format run on a
//! [`DurableEngine`].
//!
//! The engines agree on the *protocol* (a rejected add leaves the live
//! set unchanged, removes of unknown ids are counted misses, a rollback
//! with no snapshot held is a trace error, snapshot/rollback restore
//! observable state) but may diverge on individual accept/reject decisions
//! once an incremental assignment drifts from canonical FFD order — that
//! gap is exactly what the divergence-triggered repack bounds, and
//! `tests/prop_incremental.rs` pins the equivalence after a repack.

use hetfeas_model::crc::Crc32;
use hetfeas_model::{
    Augmentation, BinTraceError, OpStream, OpTrace, Platform, Task, TaskSet, TraceEvent, TraceOp,
};
use hetfeas_obs::MetricsSink;
use hetfeas_par::{par_map_with, Progress};
use hetfeas_partition::{
    live_state_digest, AddOutcome, DurableEngine, DurableError, FirstFitEngine, IncrSnapshot,
    IncrementalEngine, IndexableAdmission, Outcome, RepackOutcome, TaskId,
};
use hetfeas_robust::journal::crc32;
use hetfeas_robust::{Budget, Exhaustion, Gas};
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// Which journal-free engine serves the operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplayMode {
    /// The online [`IncrementalEngine`].
    Incremental,
    /// Full batch first-fit re-run per mutating operation — the
    /// from-scratch baseline the bench compares against.
    FromScratch,
}

impl ReplayMode {
    /// Stable name for reports.
    pub const fn as_str(self) -> &'static str {
        match self {
            ReplayMode::Incremental => "incremental",
            ReplayMode::FromScratch => "from-scratch",
        }
    }
}

/// Per-instance replay outcome counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplayStats {
    /// Operations executed.
    pub ops: u64,
    /// Adds the engine admitted.
    pub admitted: u64,
    /// Adds the engine rejected (no machine fits).
    pub rejected: u64,
    /// Successful removes.
    pub removed: u64,
    /// Removes naming an id that was not live.
    pub remove_misses: u64,
    /// Queries answered with a machine.
    pub query_hits: u64,
    /// Queries for ids that were not live.
    pub query_misses: u64,
    /// Snapshots taken.
    pub snapshots: u64,
    /// Rollbacks applied.
    pub rollbacks: u64,
    /// Repacks that re-canonicalized the assignment.
    pub repacks: u64,
    /// Repacks whose from-scratch FFD was infeasible (assignment kept).
    pub repacks_infeasible: u64,
    /// Live tasks when the stream ended.
    pub final_live: u64,
}

impl ReplayStats {
    /// Accumulate `other` into `self` (for cross-instance aggregation).
    pub fn merge(&mut self, other: &ReplayStats) {
        self.ops += other.ops;
        self.admitted += other.admitted;
        self.rejected += other.rejected;
        self.removed += other.removed;
        self.remove_misses += other.remove_misses;
        self.query_hits += other.query_hits;
        self.query_misses += other.query_misses;
        self.snapshots += other.snapshots;
        self.rollbacks += other.rollbacks;
        self.repacks += other.repacks;
        self.repacks_infeasible += other.repacks_infeasible;
        self.final_live += other.final_live;
    }
}

/// Why a replay stopped before the end of its stream.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplayError {
    /// The gas budget ran out at operation `op_index` (0-based).
    Exhausted {
        /// 0-based index of the operation that could not complete.
        op_index: usize,
        /// Which resource ran out.
        cause: Exhaustion,
    },
    /// The trace is semantically malformed at `op_index` (e.g. an `add`
    /// reusing a trace id that is still live).
    Trace {
        /// 0-based index of the offending operation.
        op_index: usize,
        /// Explanation.
        message: String,
    },
    /// A journaled replay hit an IO error that survived the retry budget
    /// (only a [`DurableEngine`] produces this).
    Io {
        /// 0-based index of the operation that could not be journaled.
        op_index: usize,
        /// The underlying IO error.
        message: String,
    },
    /// A binary stream is torn, corrupt, or hit an IO error — with the
    /// byte offset baked into the message by the decoder.
    Decode(String),
}

impl ReplayError {
    /// An engine error at operation `op_index`.
    pub fn at(op_index: usize, e: DurableError) -> ReplayError {
        match e {
            DurableError::Io(message) => ReplayError::Io { op_index, message },
            DurableError::Exhausted(cause) => ReplayError::Exhausted { op_index, cause },
        }
    }
}

impl std::fmt::Display for ReplayError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplayError::Exhausted { op_index, cause } => {
                write!(f, "budget exhausted ({}) at op {op_index}", cause.as_str())
            }
            ReplayError::Trace { op_index, message } => {
                write!(f, "malformed trace at op {op_index}: {message}")
            }
            ReplayError::Io { op_index, message } => {
                write!(f, "journal IO error at op {op_index}: {message}")
            }
            ReplayError::Decode(m) => write!(f, "binary trace: {m}"),
        }
    }
}

/// What an [`OpEngine`] step returns. Errors are [`DurableError`]s, so the
/// journaled engine's IO failures and every engine's exhaustion travel
/// the same way.
pub type OpResult<T> = Result<T, DurableError>;

/// An engine the trace protocol drives: engine-id adds and removes, the
/// single snapshot slot, and repacks, each charged to `gas`.
pub trait OpEngine {
    /// Try to admit `task`.
    fn add<S: MetricsSink>(&mut self, task: Task, gas: &mut Gas, sink: &S) -> OpResult<AddOutcome>;
    /// Remove a live task; `None` when `id` is not live.
    fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> OpResult<Option<Task>>;
    /// The machine hosting `id`, if live.
    fn machine_of(&self, id: TaskId) -> Option<usize>;
    /// Live task count.
    fn len(&self) -> usize;
    /// True when no task is live.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
    /// Overwrite the snapshot slot with the current state.
    fn snapshot<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<()>;
    /// Restore the snapshot slot (keeping it); `false` when none is held.
    fn rollback<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<bool>;
    /// Re-run first-fit over the live set.
    fn repack<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<RepackOutcome>;
    /// CRC32 digest of the current state and the held snapshot.
    fn digest(&self) -> u32;
}

/// The [`IncrementalEngine`] with the trace protocol's snapshot slot.
pub struct Incremental<A: IndexableAdmission> {
    eng: IncrementalEngine<A>,
    snap: Option<IncrSnapshot<A>>,
}

impl<A: IndexableAdmission> Incremental<A> {
    /// A fresh engine over `platform`.
    pub fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        Incremental {
            eng: IncrementalEngine::new(admission, platform, alpha),
            snap: None,
        }
    }
}

impl<A: IndexableAdmission> OpEngine for Incremental<A> {
    fn add<S: MetricsSink>(&mut self, task: Task, gas: &mut Gas, sink: &S) -> OpResult<AddOutcome> {
        self.eng
            .add(task, gas, sink)
            .map_err(DurableError::Exhausted)
    }

    fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> OpResult<Option<Task>> {
        self.eng
            .remove(id, gas, sink)
            .map_err(DurableError::Exhausted)
    }

    fn machine_of(&self, id: TaskId) -> Option<usize> {
        self.eng.machine_of(id)
    }

    fn len(&self) -> usize {
        self.eng.len()
    }

    fn snapshot<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<()> {
        let snap = self.eng.snapshot(gas, sink);
        self.snap = Some(snap.map_err(DurableError::Exhausted)?);
        Ok(())
    }

    fn rollback<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<bool> {
        let Some(snap) = &self.snap else {
            return Ok(false);
        };
        let restored = self.eng.rollback(snap, gas, sink);
        restored.map_err(DurableError::Exhausted)?;
        Ok(true)
    }

    fn repack<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<RepackOutcome> {
        self.eng.repack(gas, sink).map_err(DurableError::Exhausted)
    }

    /// The bytes [`DurableEngine::state_digest`] hashes, so a journal-free
    /// replay compares against a durable run.
    fn digest(&self) -> u32 {
        live_state_digest(&self.eng, self.snap.as_ref())
    }
}

/// A replay acknowledges every op, so each one runs the journal's
/// barrier ([`DurableEngine::sync`]) right after it: one `fsync` per op
/// that wrote a record, none for one that did not.
impl<A: IndexableAdmission> OpEngine for DurableEngine<A> {
    fn add<S: MetricsSink>(&mut self, task: Task, gas: &mut Gas, sink: &S) -> OpResult<AddOutcome> {
        let out = DurableEngine::add(self, task, gas, sink)?;
        self.sync(gas, sink)?;
        Ok(out)
    }

    fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> OpResult<Option<Task>> {
        let out = DurableEngine::remove(self, id, gas, sink)?;
        self.sync(gas, sink)?;
        Ok(out)
    }

    fn machine_of(&self, id: TaskId) -> Option<usize> {
        self.engine().machine_of(id)
    }

    fn len(&self) -> usize {
        self.engine().len()
    }

    fn snapshot<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<()> {
        DurableEngine::snapshot(self, gas, sink)?;
        self.sync(gas, sink)
    }

    fn rollback<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<bool> {
        let out = DurableEngine::rollback(self, gas, sink)?;
        self.sync(gas, sink)?;
        Ok(out)
    }

    fn repack<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<RepackOutcome> {
        let out = DurableEngine::repack(self, gas, sink)?;
        self.sync(gas, sink)?;
        Ok(out)
    }

    fn digest(&self) -> u32 {
        self.state_digest()
    }
}

/// The from-scratch baseline: the live set, re-partitioned by batch
/// first-fit after every mutation. Placements are keyed by engine id (not
/// positional index) so that a remove whose re-run comes back infeasible
/// can keep the previous — still valid — placements of the survivors.
pub struct FromScratch<A: IndexableAdmission> {
    ff: FirstFitEngine<A>,
    platform: Platform,
    alpha: Augmentation,
    live: Scratch,
    snap: Option<Scratch>,
    next_id: u64,
}

#[derive(Clone, Default)]
struct Scratch {
    ids: Vec<TaskId>,
    tasks: Vec<Task>,
    placed: HashMap<TaskId, usize>,
}

impl<A: IndexableAdmission> FromScratch<A> {
    /// An empty live set over `platform`.
    pub fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        FromScratch {
            ff: FirstFitEngine::new(admission),
            platform: platform.clone(),
            alpha,
            live: Scratch::default(),
            snap: None,
            next_id: 0,
        }
    }

    /// Re-run first-fit over the live set; on success adopt its
    /// placements. `false` leaves the previous placements in force.
    fn rerun<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<bool> {
        let live = &mut self.live;
        gas.tick_n((live.tasks.len() + self.platform.len()) as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        let ts: TaskSet = live.tasks.iter().copied().collect();
        let unmetered = &mut Gas::unlimited();
        let Outcome::Feasible(a) = self
            .ff
            .run(&ts, &self.platform, self.alpha, unmetered, sink)
        else {
            return Ok(false);
        };
        live.placed = live
            .ids
            .iter()
            .enumerate()
            .map(|(i, &id)| (id, a.machine_of(i).expect("complete assignment")))
            .collect();
        Ok(true)
    }
}

impl<A: IndexableAdmission> OpEngine for FromScratch<A> {
    fn add<S: MetricsSink>(&mut self, task: Task, gas: &mut Gas, sink: &S) -> OpResult<AddOutcome> {
        let id = TaskId::from_raw(self.next_id);
        self.live.ids.push(id);
        self.live.tasks.push(task);
        if self.rerun(gas, sink)? {
            self.next_id += 1;
            let machine = self.live.placed[&id];
            return Ok(AddOutcome::Admitted { id, machine });
        }
        self.live.ids.pop();
        self.live.tasks.pop();
        Ok(AddOutcome::Rejected)
    }

    fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> OpResult<Option<Task>> {
        let Some(pos) = self.live.ids.iter().position(|&x| x == id) else {
            return Ok(None);
        };
        self.live.ids.remove(pos);
        let task = self.live.tasks.remove(pos);
        self.live.placed.remove(&id);
        // FFD is order-sensitive: a subset of a feasible set can fail the
        // re-run. Removal only sheds load, so on infeasible the survivors
        // keep their placements — the incremental engine's infeasible
        // repack policy.
        self.rerun(gas, sink)?;
        Ok(Some(task))
    }

    fn machine_of(&self, id: TaskId) -> Option<usize> {
        self.live.placed.get(&id).copied()
    }

    fn len(&self) -> usize {
        self.live.tasks.len()
    }

    fn snapshot<S: MetricsSink>(&mut self, gas: &mut Gas, _sink: &S) -> OpResult<()> {
        gas.tick_n(self.live.tasks.len() as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        self.snap = Some(self.live.clone());
        Ok(())
    }

    fn rollback<S: MetricsSink>(&mut self, gas: &mut Gas, _sink: &S) -> OpResult<bool> {
        let Some(snap) = &self.snap else {
            return Ok(false);
        };
        gas.tick_n(self.live.tasks.len() as u64 + 1)
            .map_err(DurableError::Exhausted)?;
        self.live = snap.clone();
        Ok(true)
    }

    /// The baseline is always canonical; the re-run is for cost parity.
    fn repack<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> OpResult<RepackOutcome> {
        Ok(if self.rerun(gas, sink)? {
            RepackOutcome::Repacked
        } else {
            RepackOutcome::Infeasible
        })
    }

    /// CRC-32 of each live task's id, parameters and machine, in
    /// admission order (the held snapshot is not covered).
    fn digest(&self) -> u32 {
        let mut crc = Crc32::new();
        for (id, t) in self.live.ids.iter().zip(&self.live.tasks) {
            let machine = self.live.placed[id] as u64;
            for v in [id.raw(), t.wcet(), t.period(), t.deadline(), machine] {
                crc.update(&v.to_le_bytes());
            }
        }
        crc.finish()
    }
}

/// The trace protocol over one [`OpEngine`]: the trace-id → engine-id
/// map, its copy for the held snapshot, and the protocol stats.
/// [`Self::apply`] is the only code that applies a [`TraceOp`], for every
/// engine and both trace formats.
pub struct InstanceReplayer<E> {
    eng: E,
    ids: HashMap<u64, TaskId>,
    ids_snap: Option<HashMap<u64, TaskId>>,
    stats: ReplayStats,
    op_index: usize,
}

impl<A: IndexableAdmission> InstanceReplayer<Incremental<A>> {
    /// Fresh replayer over an [`Incremental`] engine on `platform`.
    pub fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        InstanceReplayer::over(Incremental::new(admission, platform, alpha))
    }
}

impl<E: OpEngine> InstanceReplayer<E> {
    /// Fresh replayer over `eng`, which must hold no tasks yet.
    pub fn over(eng: E) -> Self {
        InstanceReplayer {
            eng,
            ids: HashMap::new(),
            ids_snap: None,
            stats: ReplayStats::default(),
            op_index: 0,
        }
    }

    /// Apply the next operation of the stream.
    pub fn apply<S: MetricsSink>(
        &mut self,
        op: &TraceOp,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), ReplayError> {
        let op_index = self.op_index;
        self.op_index += 1;
        self.stats.ops += 1;
        let engine_err = |e| ReplayError::at(op_index, e);
        let exhausted = |cause| ReplayError::Exhausted { op_index, cause };
        let trace_err = |message: String| ReplayError::Trace { op_index, message };
        let eng = &mut self.eng;
        let stats = &mut self.stats;
        match *op {
            TraceOp::Add { id, task } => {
                if let Some(&tid) = self.ids.get(&id) {
                    if eng.machine_of(tid).is_some() {
                        return Err(trace_err(format!("add reuses live id {id}")));
                    }
                }
                match eng.add(task, gas, sink).map_err(engine_err)? {
                    AddOutcome::Admitted { id: tid, .. } => {
                        self.ids.insert(id, tid);
                        stats.admitted += 1;
                    }
                    AddOutcome::Rejected => stats.rejected += 1,
                }
            }
            TraceOp::Remove { id } => match self.ids.get(&id).copied() {
                Some(tid) => match eng.remove(tid, gas, sink).map_err(engine_err)? {
                    Some(_) => {
                        self.ids.remove(&id);
                        stats.removed += 1;
                    }
                    None => stats.remove_misses += 1,
                },
                None => {
                    gas.tick().map_err(exhausted)?;
                    stats.remove_misses += 1;
                }
            },
            TraceOp::Query { id } => {
                gas.tick().map_err(exhausted)?;
                if self.ids.get(&id).and_then(|&t| eng.machine_of(t)).is_some() {
                    stats.query_hits += 1;
                } else {
                    stats.query_misses += 1;
                }
            }
            TraceOp::Snapshot => {
                eng.snapshot(gas, sink).map_err(engine_err)?;
                self.ids_snap = Some(self.ids.clone());
                stats.snapshots += 1;
            }
            TraceOp::Rollback => {
                // The text parser and OpStream both reject this
                // structurally; keep the direct API honest anyway.
                let (true, Some(ids)) =
                    (eng.rollback(gas, sink).map_err(engine_err)?, &self.ids_snap)
                else {
                    return Err(trace_err("rollback before any snapshot".to_string()));
                };
                self.ids.clone_from(ids);
                stats.rollbacks += 1;
            }
            TraceOp::Repack => match eng.repack(gas, sink).map_err(engine_err)? {
                RepackOutcome::Repacked => stats.repacks += 1,
                RepackOutcome::Infeasible => stats.repacks_infeasible += 1,
            },
        }
        Ok(())
    }

    /// The engine's [`OpEngine::digest`].
    pub fn digest(&self) -> u32 {
        self.eng.digest()
    }

    /// Close the instance: fill `final_live` and return stats + digest.
    pub fn finish(mut self) -> (ReplayStats, u32) {
        self.stats.final_live = self.eng.len() as u64;
        (self.stats, self.eng.digest())
    }
}

/// The one per-instance driver: replay `ops` on `eng` and return the
/// stats and final [`OpEngine::digest`].
pub fn replay_ops<E, S>(
    eng: E,
    ops: impl IntoIterator<Item = TraceOp>,
    gas: &mut Gas,
    sink: &S,
) -> Result<(ReplayStats, u32), ReplayError>
where
    E: OpEngine,
    S: MetricsSink,
{
    let mut rep = InstanceReplayer::over(eng);
    for op in ops {
        rep.apply(&op, gas, sink)?;
    }
    Ok(rep.finish())
}

/// Replay one instance's `ops` on a fresh `mode` engine over `platform`.
pub fn replay_instance<A, S>(
    admission: A,
    platform: &Platform,
    ops: impl IntoIterator<Item = TraceOp>,
    alpha: Augmentation,
    mode: ReplayMode,
    gas: &mut Gas,
    sink: &S,
) -> Result<(ReplayStats, u32), ReplayError>
where
    A: IndexableAdmission,
    S: MetricsSink,
{
    match mode {
        ReplayMode::Incremental => {
            replay_ops(Incremental::new(admission, platform, alpha), ops, gas, sink)
        }
        ReplayMode::FromScratch => {
            replay_ops(FromScratch::new(admission, platform, alpha), ops, gas, sink)
        }
    }
}

/// One finished instance of a streaming replay.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamSummary {
    /// Instance name from its begin record.
    pub name: String,
    /// Protocol outcome counts.
    pub stats: ReplayStats,
    /// [`OpEngine::digest`] of the final state.
    pub digest: u32,
}

/// The ops of the instance an [`OpStream`] is inside, up to its end. A
/// decode error ends the iteration and is kept for the caller; after the
/// end, the iteration reads nothing more.
pub struct StreamOps<'s, R: std::io::Read> {
    stream: &'s mut OpStream<R>,
    ended: bool,
    err: Option<BinTraceError>,
}

impl<R: std::io::Read> Iterator for StreamOps<'_, R> {
    type Item = TraceOp;

    fn next(&mut self) -> Option<TraceOp> {
        if self.ended {
            return None;
        }
        match self.stream.next_event() {
            Ok(Some(TraceEvent::Op(op))) => return Some(op),
            Ok(_) => {}
            Err(e) => self.err = Some(e),
        }
        self.ended = true;
        None
    }
}

/// One replayed instance: its name, and its stats and digest or the
/// budget exhaustion that stopped it.
pub type InstanceOutcome = (String, Result<(ReplayStats, u32), ReplayError>);

/// The wall-clock deadline `budget_ms` from now, for a whole run.
fn run_deadline(budget_ms: Option<u64>) -> Option<Instant> {
    budget_ms.map(|ms| Instant::now() + Duration::from_millis(ms))
}

/// A meter for one instance of a run: the time left before the run's
/// `deadline`, or unlimited without one.
fn instance_gas(deadline: Option<Instant>) -> Gas {
    match deadline {
        Some(d) => {
            let left = d.saturating_duration_since(Instant::now());
            Budget::wall_ms(left.as_millis() as u64).gas()
        }
        None => Gas::unlimited(),
    }
}

/// Pull `stream`'s instances one at a time and hand each one's platform,
/// ops and meter to `replay` (usually [`replay_ops`] on a fresh engine).
/// Only one instance's engine and one decode frame are ever resident,
/// never the trace.
///
/// `budget_ms` is one wall-clock allowance for the whole run: each
/// instance replays under the time left when it starts, as in
/// [`replay_sharded`]. An instance that runs out is kept as
/// `Err(ReplayError::Exhausted)`, the rest of its ops are skipped, and the
/// next instance starts. Any other error ends the run.
pub fn replay_stream_with<R, F>(
    stream: &mut OpStream<R>,
    budget_ms: Option<u64>,
    mut replay: F,
) -> Result<Vec<InstanceOutcome>, ReplayError>
where
    R: std::io::Read,
    F: FnMut(&Platform, &mut StreamOps<'_, R>, &mut Gas) -> Result<(ReplayStats, u32), ReplayError>,
{
    let decode = |e: BinTraceError| ReplayError::Decode(e.to_string());
    let deadline = run_deadline(budget_ms);
    let mut out = Vec::new();
    while let Some(ev) = stream.next_event().map_err(decode)? {
        let TraceEvent::Begin { name, platform } = ev else {
            unreachable!("OpStream yields ops and ends only inside an instance");
        };
        let mut ops = StreamOps {
            stream,
            ended: false,
            err: None,
        };
        let replayed = replay(&platform, &mut ops, &mut instance_gas(deadline));
        if matches!(replayed, Err(ReplayError::Exhausted { .. })) {
            // Skip the ops the exhausted instance left unread.
            ops.by_ref().for_each(drop);
        }
        if let Some(e) = ops.err {
            return Err(decode(e));
        }
        match replayed {
            Err(e) if !matches!(e, ReplayError::Exhausted { .. }) => return Err(e),
            replayed => out.push((name, replayed)),
        }
    }
    Ok(out)
}

/// [`replay_stream_with`] on incremental engines, every instance against
/// the one `gas`; the first error, exhaustion included, is the result.
/// Digests are [`live_state_digest`]s, so a materialized
/// [`replay_instance`] run over the same trace (text or binary) lands on
/// identical values — `tests/prop_stream.rs` pins that on every prefix.
pub fn replay_stream<A, S, R>(
    stream: &mut OpStream<R>,
    admission: A,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Result<Vec<StreamSummary>, ReplayError>
where
    A: IndexableAdmission + Clone,
    S: MetricsSink,
    R: std::io::Read,
{
    let done = replay_stream_with(stream, None, |platform, ops, _| {
        let eng = Incremental::new(admission.clone(), platform, alpha);
        replay_ops(eng, ops, gas, sink)
    })?;
    let summary = |(name, replayed): InstanceOutcome| {
        let (stats, digest) = replayed?;
        Ok(StreamSummary {
            name,
            stats,
            digest,
        })
    };
    done.into_iter().map(summary).collect()
}

/// Fold per-instance digests into one order-sensitive trace digest (the
/// CRC32 of the concatenated little-endian digests), so a streaming run
/// and a materialized run over a multi-instance trace compare with a
/// single number.
pub fn combine_digests<I: IntoIterator<Item = u32>>(digests: I) -> u32 {
    let mut buf = Vec::new();
    for d in digests {
        buf.extend_from_slice(&d.to_le_bytes());
    }
    crc32(&buf)
}

/// How [`replay_sharded`] spreads a trace's instances over threads.
#[derive(Debug, Clone, Copy)]
pub struct Sharding<'p> {
    /// Worker threads.
    pub workers: usize,
    /// A *global* wall-clock allowance: each instance replays under the
    /// time remaining when its worker picks it up, so the whole call ends
    /// near the deadline with per-instance [`ReplayError::Exhausted`]
    /// markers instead of overshooting.
    pub budget_ms: Option<u64>,
    /// Ticks once per finished instance and prints a throttled
    /// `done/total` status line to stderr.
    pub progress: Option<&'p Progress>,
}

/// Shard a trace's independent instances across threads as `sharding`
/// says, each replayed by [`replay_instance`]. Results keep instance
/// order.
pub fn replay_sharded<A, S>(
    trace: &OpTrace,
    admission: A,
    alpha: Augmentation,
    mode: ReplayMode,
    sharding: Sharding<'_>,
    sink: &S,
) -> Vec<Result<(ReplayStats, u32), ReplayError>>
where
    A: IndexableAdmission + Clone + Sync,
    S: MetricsSink + Sync,
{
    let deadline = run_deadline(sharding.budget_ms);
    let total = trace.instances.len() as u64;
    let step = (total / 20).max(1);
    par_map_with(&trace.instances, sharding.workers, 1, |inst| {
        let mut gas = instance_gas(deadline);
        let (platform, ops) = (&inst.platform, inst.ops.iter().copied());
        let out = replay_instance(
            admission.clone(),
            platform,
            ops,
            alpha,
            mode,
            &mut gas,
            sink,
        );
        if let Some(p) = sharding.progress {
            let done = p.tick();
            if done % step == 0 || done == total {
                eprintln!("replay [{}] {}", mode.as_str(), p.status_line());
            }
        }
        out
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_model::{parse_op_trace, TraceInstance};
    use hetfeas_partition::{DurableOptions, EdfAdmission};
    use hetfeas_robust::journal::MemStorage;

    const TRACE: &str = "\
begin churn
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
remove 7
repack
end
";

    fn one_instance() -> TraceInstance {
        parse_op_trace(TRACE)
            .expect("trace parses")
            .instances
            .remove(0)
    }

    fn replay(
        inst: &TraceInstance,
        mode: ReplayMode,
        gas: &mut Gas,
    ) -> Result<ReplayStats, ReplayError> {
        let ops = inst.ops.iter().copied();
        replay_instance(
            EdfAdmission,
            &inst.platform,
            ops,
            Augmentation::NONE,
            mode,
            gas,
            &(),
        )
        .map(|(stats, _)| stats)
    }

    fn durable(
        inst: &TraceInstance,
        store: &MemStorage,
        gas: &mut Gas,
    ) -> DurableEngine<EdfAdmission> {
        let opts = DurableOptions::default();
        let store = Box::new(store.clone());
        DurableEngine::create(
            EdfAdmission,
            &inst.platform,
            Augmentation::NONE,
            opts,
            store,
            gas,
            &(),
        )
        .expect("create")
    }

    #[test]
    fn incremental_replay_counts_protocol_events() {
        let inst = one_instance();
        let mut gas = Gas::unlimited();
        let stats = replay(&inst, ReplayMode::Incremental, &mut gas).expect("replay completes");
        assert_eq!(stats.ops, 9);
        assert_eq!(stats.admitted, 3);
        assert_eq!(stats.query_hits, 1);
        assert_eq!(stats.snapshots, 1);
        assert_eq!(stats.rollbacks, 1);
        assert_eq!(stats.removed, 1);
        assert_eq!(stats.remove_misses, 1);
        assert_eq!(stats.repacks + stats.repacks_infeasible, 1);
        // rollback undid task 3; remove dropped task 2 → task 1 survives.
        assert_eq!(stats.final_live, 1);
    }

    #[test]
    fn both_modes_agree_on_the_small_trace() {
        let inst = one_instance();
        let run = |mode| replay(&inst, mode, &mut Gas::unlimited()).expect("replay completes");
        assert_eq!(run(ReplayMode::Incremental), run(ReplayMode::FromScratch));
    }

    #[test]
    fn duplicate_live_id_is_a_trace_error() {
        let trace =
            parse_op_trace("begin dup\nmachine 1\nadd 1 1 4\nadd 1 1 4\nend\n").expect("parses");
        let mut gas = Gas::unlimited();
        let err = replay(&trace.instances[0], ReplayMode::Incremental, &mut gas)
            .expect_err("duplicate id rejected");
        assert!(
            matches!(err, ReplayError::Trace { op_index: 1, .. }),
            "{err}"
        );
    }

    /// A rollback with no snapshot held is the same trace error on every
    /// engine (the parsers reject it, so the instance is built directly).
    #[test]
    fn early_rollback_is_a_trace_error_on_every_engine() {
        let inst = TraceInstance {
            name: "early".to_string(),
            platform: Platform::from_int_speeds([1]).expect("platform"),
            ops: vec![
                TraceOp::Add {
                    id: 1,
                    task: Task::implicit(1, 4).expect("task"),
                },
                TraceOp::Rollback,
            ],
        };
        let mut gas = Gas::unlimited();
        let durable = durable(&inst, &MemStorage::new(), &mut gas);
        for err in [
            replay(&inst, ReplayMode::Incremental, &mut gas),
            replay(&inst, ReplayMode::FromScratch, &mut gas),
            replay_ops(durable, inst.ops.iter().copied(), &mut gas, &()).map(|(s, _)| s),
        ] {
            assert!(
                matches!(err, Err(ReplayError::Trace { op_index: 1, .. })),
                "{err:?}"
            );
        }
    }

    #[test]
    fn exhaustion_reports_the_failing_op() {
        let inst = one_instance();
        let mut gas = Budget::ops(2).gas();
        let err = replay(&inst, ReplayMode::Incremental, &mut gas)
            .expect_err("two ops of gas cannot finish");
        match err {
            ReplayError::Exhausted { op_index, cause } => {
                assert!(op_index < inst.ops.len());
                assert_eq!(cause, Exhaustion::Ops);
            }
            other => panic!("unexpected error {other:?}"),
        }
    }

    #[test]
    fn sharded_replay_preserves_instance_order_and_ticks_progress() {
        let mut text = String::new();
        for i in 0..5 {
            text.push_str(&format!(
                "begin inst{i}\nmachine 1\nadd 1 {} 10\nend\n",
                i + 1
            ));
        }
        let trace = parse_op_trace(&text).expect("parses");
        let progress = Progress::new(trace.instances.len() as u64);
        let results = replay_sharded(
            &trace,
            EdfAdmission,
            Augmentation::NONE,
            ReplayMode::Incremental,
            Sharding {
                workers: 2,
                budget_ms: None,
                progress: Some(&progress),
            },
            &(),
        );
        assert_eq!(results.len(), 5);
        assert_eq!(progress.done(), 5);
        for r in &results {
            let (stats, _) = r.as_ref().expect("each instance completes");
            assert_eq!(stats.ops, 1);
        }
    }

    #[test]
    fn durable_replay_matches_incremental_and_recovers_bit_exact() {
        let inst = one_instance();
        let mut gas = Gas::unlimited();
        let plain =
            replay(&inst, ReplayMode::Incremental, &mut gas).expect("plain replay completes");

        let store = MemStorage::new();
        let eng = durable(&inst, &store, &mut gas);
        let (stats, digest) = replay_ops(eng, inst.ops.iter().copied(), &mut gas, &())
            .expect("durable replay completes");
        assert_eq!(stats, plain, "journaling must not change protocol outcomes");

        let (rec, report) =
            hetfeas_partition::recover(EdfAdmission, Box::new(store), &mut gas, &())
                .expect("recovers");
        assert_eq!(report.truncated_records, 0);
        assert_eq!(rec.state_digest(), digest, "recovery is bit-exact");
    }

    #[test]
    fn streaming_replay_matches_materialized_digests() {
        use hetfeas_model::write_op_trace_bin;

        let trace = parse_op_trace(TRACE).expect("parses");
        let bin = write_op_trace_bin(&trace, Vec::new()).expect("encodes");

        let mut stream = OpStream::new(&bin[..]).expect("valid header");
        let mut gas = Gas::unlimited();
        let summaries = replay_stream(&mut stream, EdfAdmission, Augmentation::NONE, &mut gas, &())
            .expect("streams");
        assert_eq!(summaries.len(), 1);
        assert_eq!(summaries[0].name, "churn");

        let inst = &trace.instances[0];
        let (stats, digest) = replay_instance(
            EdfAdmission,
            &inst.platform,
            inst.ops.iter().copied(),
            Augmentation::NONE,
            ReplayMode::Incremental,
            &mut gas,
            &(),
        )
        .expect("materialized replay completes");
        assert_eq!(summaries[0].stats, stats);
        assert_eq!(summaries[0].digest, digest);
        assert_eq!(
            combine_digests(summaries.iter().map(|s| s.digest)),
            combine_digests([digest])
        );
    }

    #[test]
    fn durable_stream_matches_durable_materialized() {
        use hetfeas_model::write_op_trace_bin;

        let trace = parse_op_trace(TRACE).expect("parses");
        let bin = write_op_trace_bin(&trace, Vec::new()).expect("encodes");

        let mut gas = Gas::unlimited();
        let inst = &trace.instances[0];
        let eng = durable(inst, &MemStorage::new(), &mut gas);
        let (mat_stats, mat_digest) = replay_ops(eng, inst.ops.iter().copied(), &mut gas, &())
            .expect("materialized durable replay");

        let store = MemStorage::new();
        let mut stream = OpStream::new(&bin[..]).expect("valid header");
        let summaries = replay_stream_with(&mut stream, None, |_, ops, gas| {
            replay_ops(durable(inst, &store, gas), ops, gas, &())
        })
        .expect("streamed durable replay");
        let (name, replayed) = summaries.into_iter().next().expect("one instance");
        let (stats, digest) = replayed.expect("streamed durable replay");
        assert_eq!(name, "churn");
        assert_eq!(stats, mat_stats);
        assert_eq!(digest, mat_digest);

        let (rec, _) = hetfeas_partition::recover(EdfAdmission, Box::new(store), &mut gas, &())
            .expect("recovers");
        assert_eq!(rec.state_digest(), digest);
    }

    #[test]
    fn stream_budget_is_per_instance() {
        use hetfeas_model::write_op_trace_bin;

        // A spent run deadline exhausts each instance at its snapshot (a
        // `tick_n` polls the clock), and the replay goes on to the next.
        let mut trace = parse_op_trace(TRACE).expect("parses");
        trace.instances.push(trace.instances[0].clone());
        let bin = write_op_trace_bin(&trace, Vec::new()).expect("encodes");
        let mut stream = OpStream::new(&bin[..]).expect("valid header");
        let done = replay_stream_with(&mut stream, Some(0), |platform, ops, gas| {
            replay_instance(
                EdfAdmission,
                platform,
                ops,
                Augmentation::NONE,
                ReplayMode::Incremental,
                gas,
                &(),
            )
        })
        .expect("exhaustion is per instance");
        assert_eq!(done.len(), 2);
        for (name, replayed) in done {
            assert_eq!(name, "churn");
            let err = replayed.expect_err("no time left");
            assert!(
                matches!(err, ReplayError::Exhausted { op_index: 3, .. }),
                "{err:?}"
            );
        }
    }

    #[test]
    fn corrupt_stream_is_a_decode_error() {
        use hetfeas_model::write_op_trace_bin;

        let trace = parse_op_trace(TRACE).expect("parses");
        let bin = write_op_trace_bin(&trace, Vec::new()).expect("encodes");
        let cut = bin.len() - 3;
        let mut stream = OpStream::new(&bin[..cut]).expect("valid header");
        let mut gas = Gas::unlimited();
        let err = replay_stream(&mut stream, EdfAdmission, Augmentation::NONE, &mut gas, &())
            .expect_err("torn tail must error");
        assert!(matches!(err, ReplayError::Decode(_)), "{err:?}");
    }

    #[test]
    fn stats_merge_accumulates() {
        let mut a = ReplayStats {
            ops: 1,
            admitted: 1,
            ..ReplayStats::default()
        };
        let b = ReplayStats {
            ops: 2,
            rejected: 1,
            final_live: 3,
            ..ReplayStats::default()
        };
        a.merge(&b);
        assert_eq!(a.ops, 3);
        assert_eq!(a.admitted, 1);
        assert_eq!(a.rejected, 1);
        assert_eq!(a.final_live, 3);
    }
}
