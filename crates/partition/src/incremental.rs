//! Incremental online admission: the §III first-fit test as a *serving*
//! data structure.
//!
//! [`crate::FirstFitEngine`] answers one-shot questions; a deployed
//! admission controller instead sees a *stream* — tasks arrive, run for a
//! while and leave. Re-packing from scratch per request costs
//! `O(n log n + (n+m) log m)` each; [`IncrementalEngine`] maintains the
//! live partition across the stream so that
//!
//! * [`IncrementalEngine::add`] is one descend-left query on the same
//!   max-segment-tree the batch engine uses — `O(log m)` amortized;
//! * [`IncrementalEngine::remove`] credits capacity back with a *local
//!   repair*: the leaver's machine state is re-folded from its remaining
//!   residents (`O(k)` for a machine holding `k` tasks) rather than
//!   subtracted, so float drift can never corrupt a residual;
//! * [`IncrementalEngine::snapshot`] / [`IncrementalEngine::rollback`]
//!   support speculative admission ("would this batch fit?") with exact
//!   state restoration, including id allocation;
//! * every path threads a [`hetfeas_obs::MetricsSink`] (`incr.*` family,
//!   see [`crate::metrics`]) and a [`hetfeas_robust::Gas`] meter.
//!
//! ## Divergence accounting and the canonical repack
//!
//! The paper's α-guarantees (Theorems I.1/I.2) are stated for first-fit
//! over tasks in **decreasing-utilization order** (FFD). An online stream
//! does not arrive in that order, so the live assignment can *diverge*
//! from what the canonical batch test would produce — it stays a valid
//! partition (every machine passes its admission test) but loses the
//! paper's approximation pedigree and, empirically, acceptance quality.
//!
//! The engine therefore tracks a divergence counter:
//!
//! * an add whose utilization is ≤ every live task's (compared as exact
//!   rationals, matching the batch sort's tie-breaking) *appends* to the
//!   canonical order — FFD would place it last and see exactly the
//!   current machine states, so the assignment stays canonical for free;
//! * any other add, and every remove, bumps the counter;
//! * when the counter exceeds [`RepairPolicy::repack_after`], the engine
//!   falls back to a counted full repack: from-scratch FFD (via the batch
//!   [`crate::FirstFitEngine`]) over the survivors. After a repack the
//!   assignment is **byte-identical** to [`crate::first_fit_ordered`] on
//!   the survivor set — `tests/prop_incremental.rs` asserts this — so the
//!   paper's guarantee is restored with bounded staleness.
//!
//! A repack can come back infeasible even though the live assignment is
//! valid (first-fit is order-sensitive and non-optimal). The engine then
//! keeps the current assignment, counts `incr.repack_infeasible`, and
//! resets the divergence clock.

use crate::assignment::{Assignment, Outcome};
use crate::engine::{probe_gas, FirstFitEngine, IndexableAdmission, MaxTree};
use crate::metrics;
use hetfeas_model::{Augmentation, Platform, Ratio, Task, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::{Exhaustion, Gas};
use std::collections::HashMap;

/// Opaque handle to a live task inside an [`IncrementalEngine`]. Ids are
/// allocated sequentially per engine and never reused — except across a
/// [`IncrementalEngine::rollback`], which restores the allocator along
/// with the rest of the observable state.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TaskId(u64);

impl TaskId {
    /// The raw id value (stable within one engine lifetime).
    pub fn raw(self) -> u64 {
        self.0
    }

    /// Reconstruct a handle from a raw id, e.g. when replaying a journal
    /// or an op trace that recorded [`TaskId::raw`] values. The caller is
    /// responsible for pairing it with the engine that allocated it.
    pub fn from_raw(raw: u64) -> TaskId {
        TaskId(raw)
    }
}

/// When the incremental engine falls back to a full canonical repack.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RepairPolicy {
    /// Trigger a full repack once this many potentially canonical-breaking
    /// operations (out-of-order adds, removals) accumulate since the last
    /// repack. `0` disables automatic repacks — only
    /// [`IncrementalEngine::repack`] re-canonicalizes.
    pub repack_after: u32,
}

impl Default for RepairPolicy {
    fn default() -> Self {
        // Amortizes the O(n log n) repack over enough O(log m) ops that
        // churn stays cheap, while bounding how stale the paper's FFD
        // guarantee can get.
        RepairPolicy { repack_after: 256 }
    }
}

impl RepairPolicy {
    /// Never repack automatically.
    pub fn never() -> Self {
        RepairPolicy { repack_after: 0 }
    }
}

/// Result of an [`IncrementalEngine::add`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AddOutcome {
    /// The task was admitted.
    Admitted {
        /// Handle for later removal / queries.
        id: TaskId,
        /// Original platform index of the admitting machine (the machine
        /// the task landed on *at admission time*; an automatic repack may
        /// migrate it — consult [`IncrementalEngine::machine_of`]).
        machine: usize,
    },
    /// No machine admits the task at the engine's augmentation; the live
    /// partition is unchanged.
    Rejected,
}

impl AddOutcome {
    /// The admitted id, if any.
    pub fn id(&self) -> Option<TaskId> {
        match self {
            AddOutcome::Admitted { id, .. } => Some(*id),
            AddOutcome::Rejected => None,
        }
    }

    /// True when the task was admitted.
    pub fn is_admitted(&self) -> bool {
        matches!(self, AddOutcome::Admitted { .. })
    }
}

/// Result of a full repack attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RepackOutcome {
    /// The survivors were re-packed canonically; the assignment now equals
    /// from-scratch FFD ([`crate::first_fit_ordered`]) on the live set.
    Repacked,
    /// From-scratch FFD rejects the survivor set (first-fit is
    /// order-sensitive); the current — still valid — assignment is kept.
    Infeasible,
}

/// Where a live task sits: its slot in the insertion log and its machine
/// slot in scan order.
#[derive(Debug, Clone, Copy)]
struct Entry {
    live_idx: usize,
    slot: usize,
}

/// The cloneable part of the engine — everything [`IncrementalEngine::
/// snapshot`] must capture to make rollback exact.
struct Core<A: IndexableAdmission> {
    /// Insertion log of live tasks; `None` marks a removed (tombstoned)
    /// entry. Order = canonical tie-breaking order for the batch sort.
    live: Vec<Option<(TaskId, Task)>>,
    /// id → position in `live` + machine slot.
    index: HashMap<u64, Entry>,
    /// Ids resident on each machine slot, in admission order.
    on_slot: Vec<Vec<u64>>,
    /// Per-slot admission states.
    states: Vec<A::State>,
    /// Max-tree over per-slot residual hints.
    tree: MaxTree,
    live_count: usize,
    next_id: u64,
    /// Canonical-breaking ops since the last repack (attempt).
    divergence: u64,
    /// True while the assignment provably equals from-scratch FFD.
    canonical: bool,
    /// Utilization (exact rational) of the canonical order's last task —
    /// the append threshold. `None` when the live set is empty.
    frontier: Option<Ratio>,
}

impl<A: IndexableAdmission> Clone for Core<A> {
    fn clone(&self) -> Self {
        Core {
            live: self.live.clone(),
            index: self.index.clone(),
            on_slot: self.on_slot.clone(),
            states: self.states.clone(),
            tree: self.tree.clone(),
            live_count: self.live_count,
            next_id: self.next_id,
            divergence: self.divergence,
            canonical: self.canonical,
            frontier: self.frontier,
        }
    }
}

/// A point-in-time capture of an engine's observable state. Only valid
/// for the engine that produced it (same platform, α, admission test);
/// rolling back a snapshot from a different engine is a logic error
/// (caught in debug builds by shape assertions).
pub struct IncrSnapshot<A: IndexableAdmission> {
    core: Core<A>,
}

/// Portable image of an engine's observable state, sufficient to rebuild
/// the engine **bit-exactly**: per-machine resident lists are kept in
/// admission order, so re-folding them with
/// [`IndexableAdmission::fold_state`] (defined as the same left-to-right
/// arithmetic as repeated admits) reproduces the identical `f64` machine
/// states. Produced by [`IncrementalEngine::export_state`], consumed by
/// [`IncrementalEngine::import_state`] — this is what the durability
/// layer's snapshot records serialize.
#[derive(Debug, Clone, PartialEq)]
pub struct EngineState {
    /// Live `(raw id, task)` pairs in insertion order (the canonical
    /// tie-breaking order). Tombstones are not represented — an imported
    /// engine starts with a compacted insertion log, which is observably
    /// identical.
    pub entries: Vec<(u64, Task)>,
    /// Resident raw ids per **original** platform machine index, in
    /// admission order.
    pub on_machine: Vec<Vec<u64>>,
    /// Next id the allocator would hand out.
    pub next_id: u64,
    /// Canonical-breaking ops since the last repack (attempt).
    pub divergence: u64,
    /// Whether the assignment provably equals from-scratch FFD.
    pub canonical: bool,
    /// The canonical order's append threshold (exact rational), if any.
    pub frontier: Option<Ratio>,
}

/// A borrowed view of an engine's (or a held snapshot's) observable state:
/// the fields of [`EngineState`], read in place instead of copied.
/// Produced by [`IncrementalEngine::view`] and
/// [`IncrementalEngine::snapshot_view`]; the durability layer encodes
/// state records and digests straight from it.
pub struct StateView<'a> {
    live: &'a [Option<(TaskId, Task)>],
    on_slot: &'a [Vec<u64>],
    slot_of_machine: &'a [usize],
    /// Next id the allocator would hand out.
    pub next_id: u64,
    /// Canonical-breaking ops since the last repack (attempt).
    pub divergence: u64,
    /// Whether the assignment provably equals from-scratch FFD.
    pub canonical: bool,
    /// The canonical order's append threshold (exact rational), if any.
    pub frontier: Option<Ratio>,
}

impl<'a> StateView<'a> {
    /// Live `(raw id, task)` pairs in insertion order, as in
    /// [`EngineState::entries`].
    pub fn entries(&self) -> impl Iterator<Item = (u64, &'a Task)> + 'a {
        self.live.iter().flatten().map(|(id, t)| (id.0, t))
    }

    /// Number of machines on the platform.
    pub fn machines(&self) -> usize {
        self.slot_of_machine.len()
    }

    /// Resident raw ids of **original** machine index `machine`, in
    /// admission order, as in [`EngineState::on_machine`].
    pub fn residents(&self, machine: usize) -> &'a [u64] {
        &self.on_slot[self.slot_of_machine[machine]]
    }

    /// Copy the view into a portable [`EngineState`].
    pub fn to_state(&self) -> EngineState {
        EngineState {
            entries: self.entries().map(|(id, &t)| (id, t)).collect(),
            on_machine: (0..self.machines())
                .map(|mi| self.residents(mi).to_vec())
                .collect(),
            next_id: self.next_id,
            divergence: self.divergence,
            canonical: self.canonical,
            frontier: self.frontier,
        }
    }
}

/// Online first-fit admission over a fixed platform and augmentation.
///
/// ```
/// use hetfeas_model::{Augmentation, Platform, Task};
/// use hetfeas_partition::{AddOutcome, EdfAdmission, IncrementalEngine};
/// use hetfeas_robust::{Exhaustion, Gas};
///
/// let platform = Platform::from_int_speeds([1, 2]).unwrap();
/// let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
/// let gas = &mut Gas::unlimited();
/// let a = eng.add(Task::implicit(9, 10).unwrap(), gas, &())?;
/// assert!(a.is_admitted());
/// let b = eng.add(Task::implicit(4, 10).unwrap(), gas, &())?.id().unwrap();
/// eng.remove(b, gas, &())?;
/// assert_eq!(eng.len(), 1);
/// # Ok::<(), Exhaustion>(())
/// ```
pub struct IncrementalEngine<A: IndexableAdmission> {
    platform: Platform,
    alpha: Augmentation,
    /// Machine indices in scan order (increasing speed).
    machine_order: Vec<usize>,
    /// Inverse of `machine_order`: original machine index → scan slot.
    slot_of_machine: Vec<usize>,
    /// α-augmented speeds in scan order.
    speeds: Vec<f64>,
    policy: RepairPolicy,
    /// Batch engine reused for repacks (owns the admission test).
    ff: FirstFitEngine<A>,
    core: Core<A>,
    /// Scratch for tree rebuilds.
    hints: Vec<f64>,
}

impl<A: IndexableAdmission> IncrementalEngine<A> {
    /// A fresh, empty engine over `platform` at augmentation `alpha` with
    /// the default [`RepairPolicy`].
    pub fn new(admission: A, platform: &Platform, alpha: Augmentation) -> Self {
        Self::with_policy(admission, platform, alpha, RepairPolicy::default())
    }

    /// [`Self::new`] with an explicit repack policy.
    pub fn with_policy(
        admission: A,
        platform: &Platform,
        alpha: Augmentation,
        policy: RepairPolicy,
    ) -> Self {
        let machine_order = platform.order_by_increasing_speed();
        let m = platform.len();
        let mut slot_of_machine = vec![0usize; m];
        for (slot, &mi) in machine_order.iter().enumerate() {
            slot_of_machine[mi] = slot;
        }
        let speeds: Vec<f64> = machine_order
            .iter()
            .map(|&mi| alpha.factor() * platform.speed_f64(mi))
            .collect();
        let states: Vec<A::State> = (0..m).map(|_| admission.empty_state()).collect();
        let hints: Vec<f64> = states
            .iter()
            .zip(&speeds)
            .map(|(st, &sp)| admission.residual_hint(st, sp))
            .collect();
        let mut tree = MaxTree::default();
        tree.rebuild(&hints);
        IncrementalEngine {
            platform: platform.clone(),
            alpha,
            machine_order,
            slot_of_machine,
            speeds,
            policy,
            ff: FirstFitEngine::new(admission),
            core: Core {
                live: Vec::new(),
                index: HashMap::new(),
                on_slot: vec![Vec::new(); m],
                states,
                tree,
                live_count: 0,
                next_id: 0,
                divergence: 0,
                canonical: true,
                frontier: None,
            },
            hints,
        }
    }

    /// The admission test in use.
    pub fn admission(&self) -> &A {
        self.ff.admission()
    }

    /// The platform the engine packs onto.
    pub fn platform(&self) -> &Platform {
        &self.platform
    }

    /// The speed augmentation applied to every machine.
    pub fn alpha(&self) -> Augmentation {
        self.alpha
    }

    /// Number of live tasks.
    pub fn len(&self) -> usize {
        self.core.live_count
    }

    /// True when no task is live.
    pub fn is_empty(&self) -> bool {
        self.core.live_count == 0
    }

    /// Canonical-breaking ops since the last repack (attempt).
    pub fn divergence(&self) -> u64 {
        self.core.divergence
    }

    /// True while the assignment provably equals from-scratch FFD on the
    /// live set.
    pub fn is_canonical(&self) -> bool {
        self.core.canonical
    }

    /// Original platform index of the machine currently hosting `id`.
    pub fn machine_of(&self, id: TaskId) -> Option<usize> {
        self.core
            .index
            .get(&id.0)
            .map(|e| self.machine_order[e.slot])
    }

    /// The live task behind `id`.
    pub fn task(&self, id: TaskId) -> Option<&Task> {
        self.core.index.get(&id.0).map(|e| {
            &self.core.live[e.live_idx]
                .as_ref()
                .expect("indexed entry is live")
                .1
        })
    }

    /// Live tasks in insertion order (the canonical tie-breaking order).
    pub fn live_tasks(&self) -> TaskSet {
        self.core
            .live
            .iter()
            .filter_map(|e| e.as_ref().map(|&(_, t)| t))
            .collect()
    }

    /// Ids of live tasks, in insertion order (parallel to
    /// [`Self::live_tasks`]).
    pub fn live_ids(&self) -> Vec<TaskId> {
        self.core
            .live
            .iter()
            .filter_map(|e| e.as_ref().map(|&(id, _)| id))
            .collect()
    }

    /// The current assignment over the live tasks: dense task indices in
    /// insertion order (matching [`Self::live_tasks`]) to original
    /// platform machine indices.
    pub fn assignment(&self) -> Assignment {
        let mut asg = Assignment::new(self.core.live_count, self.platform.len());
        for (dense, (id, _)) in self.core.live.iter().flatten().enumerate() {
            let slot = self.core.index[&id.0].slot;
            asg.assign(dense, self.machine_order[slot]);
        }
        asg
    }

    /// Utilization load currently on original machine index `machine`.
    pub fn load_on(&self, machine: usize) -> f64 {
        let slot = self.slot_of_machine[machine];
        self.admission().load(&self.core.states[slot])
    }

    /// Number of tasks resident on original machine index `machine` —
    /// callers that must pre-pay a removal's gas (the local repair re-fold
    /// is `O(k)`) size the charge with this.
    pub fn residents_on(&self, machine: usize) -> usize {
        self.core.on_slot[self.slot_of_machine[machine]].len()
    }

    /// The tasks resident on original machine index `machine`, in
    /// admission order — the sequence [`IndexableAdmission::fold_state`]
    /// folds into that machine's admission state.
    pub fn resident_tasks(&self, machine: usize) -> impl Iterator<Item = &Task> + '_ {
        self.core.on_slot[self.slot_of_machine[machine]]
            .iter()
            .map(|id| {
                &self.core.live[self.core.index[id].live_idx]
                    .as_ref()
                    .expect("resident ids are live")
                    .1
            })
    }

    /// Admit `task` onto the first (slowest) machine that accepts it —
    /// one tree descent plus exact re-checks, `O(log m)` amortized.
    ///
    /// Charges one tick of `gas`; on `Err` the operation was **not**
    /// applied. An automatic repack triggered by this add is best-effort:
    /// if the remaining gas cannot pay for it, the repack is skipped (the
    /// add itself still succeeded) and — exhaustion being sticky — the
    /// *next* operation surfaces the error.
    pub fn add<S: MetricsSink>(
        &mut self,
        task: Task,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<AddOutcome, Exhaustion> {
        gas.tick()?;
        let u = task.utilization();
        let mut descents = 0u64;
        let mut exact = 0u64;
        let mut misses = 0u64;
        let mut from = 0usize;
        let placed = loop {
            descents += 1;
            let Some(slot) = self.core.tree.first_at_least::<()>(from, u, &mut 0) else {
                break None;
            };
            exact += 1;
            if let Some(next) =
                self.ff
                    .admission()
                    .admit(&self.core.states[slot], &task, self.speeds[slot])
            {
                let hint = self.ff.admission().residual_hint(&next, self.speeds[slot]);
                self.core.states[slot] = next;
                self.core.tree.update(slot, hint);
                break Some(slot);
            }
            misses += 1;
            from = slot + 1;
        };
        if S::ENABLED {
            sink.counter_add(metrics::INCR_TREE_DESCENTS, descents);
            sink.counter_add(metrics::INCR_EXACT_CHECKS, exact);
            sink.counter_add(metrics::INCR_REVERIFY_MISSES, misses);
        }
        let Some(slot) = placed else {
            if S::ENABLED {
                sink.counter_add(metrics::INCR_ADD_REJECTS, 1);
            }
            return Ok(AddOutcome::Rejected);
        };
        let id = TaskId(self.core.next_id);
        self.core.next_id += 1;
        let live_idx = self.core.live.len();
        self.core.live.push(Some((id, task)));
        self.core.index.insert(id.0, Entry { live_idx, slot });
        self.core.on_slot[slot].push(id.0);
        self.core.live_count += 1;
        // Canonical accounting: a task no heavier (exact rational, the
        // batch sort's comparison) than every live task appends to the FFD
        // order — the batch test would place it last, seeing exactly the
        // machine states it was just admitted against.
        let ur = task.utilization_ratio();
        if self.core.canonical && self.core.frontier.is_none_or(|f| ur <= f) {
            self.core.frontier = Some(ur);
        } else {
            self.core.canonical = false;
            self.core.divergence += 1;
        }
        if S::ENABLED {
            sink.counter_add(metrics::INCR_ADDS, 1);
        }
        let machine = self.machine_order[slot];
        self.maybe_auto_repack(gas, sink);
        Ok(AddOutcome::Admitted { id, machine })
    }

    /// Remove a live task, crediting its capacity back via a local repair
    /// of its machine's state. Returns the removed task, or `None` if the
    /// id is unknown or already removed.
    ///
    /// Gas is charged proportionally to the resident count of the leaver's
    /// machine (the local-repair re-fold). On `Err` the operation was
    /// **not** applied; automatic repacks are best-effort as in
    /// [`Self::add`].
    pub fn remove<S: MetricsSink>(
        &mut self,
        id: TaskId,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Option<Task>, Exhaustion> {
        gas.tick()?;
        let Some(&Entry { live_idx, slot }) = self.core.index.get(&id.0) else {
            if S::ENABLED {
                sink.counter_add(metrics::INCR_REMOVE_MISSES, 1);
            }
            return Ok(None);
        };
        gas.tick_n(self.core.on_slot[slot].len() as u64)?;
        self.core.index.remove(&id.0);
        let (_, task) = self.core.live[live_idx]
            .take()
            .expect("indexed entry is live");
        self.core.live_count -= 1;
        let pos = self.core.on_slot[slot]
            .iter()
            .position(|&x| x == id.0)
            .expect("resident list contains every indexed id");
        self.core.on_slot[slot].remove(pos);
        // Local repair: re-fold the machine's state from its remaining
        // residents instead of subtracting the leaver — exact by
        // construction, no acceptance decision involved.
        let refolds = self.core.on_slot[slot].len() as u64;
        let Core {
            live,
            index,
            on_slot,
            states,
            tree,
            ..
        } = &mut self.core;
        let st = self.ff.admission().fold_state(
            on_slot[slot].iter().map(|x| {
                &live[index[x].live_idx]
                    .as_ref()
                    .expect("resident ids are live")
                    .1
            }),
            self.speeds[slot],
        );
        let hint = self.ff.admission().residual_hint(&st, self.speeds[slot]);
        states[slot] = st;
        tree.update(slot, hint);
        self.core.canonical = false;
        self.core.divergence += 1;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_REMOVES, 1);
            sink.counter_add(metrics::INCR_LOCAL_REPAIRS, 1);
            sink.counter_add(metrics::INCR_REPAIR_REFOLDS, refolds);
        }
        // Keep the insertion log from growing without bound under churn:
        // compact once tombstones dominate (repacks also compact).
        if self.core.live.len() - self.core.live_count > self.core.live_count.max(32) {
            self.compact();
        }
        self.maybe_auto_repack(gas, sink);
        Ok(Some(task))
    }

    /// Re-pack the survivors canonically (from-scratch FFD via the batch
    /// engine) regardless of the divergence counter. Gas is charged
    /// `n + m + 1` up front (a repack is `O((n+m)·log m)` work); on `Err`
    /// the engine state is unchanged.
    pub fn repack<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<RepackOutcome, Exhaustion> {
        gas.tick_n(probe_gas(self.core.live_count, self.platform.len()))?;
        let survivors = self.live_tasks();
        let ids = self.live_ids();
        let unmetered = &mut Gas::unlimited();
        let outcome = self
            .ff
            .run(&survivors, &self.platform, self.alpha, unmetered, sink);
        let asg = match outcome {
            Outcome::Feasible(asg) => asg,
            _ => {
                if S::ENABLED {
                    sink.counter_add(metrics::INCR_REPACK_INFEASIBLE, 1);
                }
                // Keep the valid current assignment; restart the
                // divergence clock so the next trigger waits a full window
                // instead of re-attempting on every op.
                self.core.divergence = 0;
                return Ok(RepackOutcome::Infeasible);
            }
        };
        // Commit: rebuild the whole core from the canonical assignment,
        // replaying placements in the order the batch run sorted.
        let order = self.ff.task_order();
        let admission = self.ff.admission();
        for slot in 0..self.platform.len() {
            self.core.states[slot] = admission.empty_state();
            self.core.on_slot[slot].clear();
        }
        for &ti in order {
            let mi = asg.machine_of(ti).expect("feasible assignment is complete");
            let slot = self.slot_of_machine[mi];
            let next = admission
                .admit(&self.core.states[slot], &survivors[ti], self.speeds[slot])
                .expect("replaying the engine's own placement cannot be rejected");
            self.core.states[slot] = next;
            self.core.on_slot[slot].push(ids[ti].0);
        }
        self.core.frontier = order.last().map(|&ti| survivors[ti].utilization_ratio());
        self.hints.clear();
        self.hints.extend(
            self.core
                .states
                .iter()
                .zip(&self.speeds)
                .map(|(st, &sp)| admission.residual_hint(st, sp)),
        );
        self.core.tree.rebuild(&self.hints);
        self.core.live.clear();
        self.core.live.extend(
            ids.iter()
                .zip(survivors.iter())
                .map(|(&id, &t)| Some((id, t))),
        );
        self.core.index.clear();
        for (live_idx, &id) in ids.iter().enumerate() {
            // Dense survivor index == live index after compaction.
            self.core.index.insert(
                id.0,
                Entry {
                    live_idx,
                    slot: self.slot_of_machine
                        [asg.machine_of(live_idx).expect("complete assignment")],
                },
            );
        }
        self.core.canonical = true;
        self.core.divergence = 0;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_REPACKS, 1);
        }
        Ok(RepackOutcome::Repacked)
    }

    /// Capture the engine's observable state for speculative admission.
    /// Charges `n + 1` ticks of `gas` for the copy.
    pub fn snapshot<S: MetricsSink>(
        &self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<IncrSnapshot<A>, Exhaustion> {
        gas.tick_n(self.len() as u64 + 1)?;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_SNAPSHOTS, 1);
        }
        Ok(IncrSnapshot {
            core: self.core.clone(),
        })
    }

    /// Restore the state captured by [`Self::snapshot`] — every observable
    /// (live set, assignment, divergence, id allocation) returns to its
    /// captured value. Charges `n + 1` ticks of `gas`, `n` being the live
    /// count before the restore; on `Err` the engine is unchanged.
    pub fn rollback<S: MetricsSink>(
        &mut self,
        snap: &IncrSnapshot<A>,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<(), Exhaustion> {
        gas.tick_n(self.len() as u64 + 1)?;
        debug_assert_eq!(
            snap.core.states.len(),
            self.platform.len(),
            "rollback() with a snapshot from a different engine"
        );
        if S::ENABLED {
            sink.counter_add(metrics::INCR_ROLLBACKS, 1);
        }
        self.core = snap.core.clone();
        Ok(())
    }

    /// Export the observable state as a portable [`EngineState`].
    pub fn export_state(&self) -> EngineState {
        self.view().to_state()
    }

    /// The observable state, borrowed in place (see [`StateView`]).
    pub fn view(&self) -> StateView<'_> {
        self.view_of_core(&self.core)
    }

    /// [`Self::view`] for a snapshot taken from this engine.
    pub fn snapshot_view<'a>(&'a self, snap: &'a IncrSnapshot<A>) -> StateView<'a> {
        self.view_of_core(&snap.core)
    }

    /// Replace the engine's state with an imported [`EngineState`] —
    /// validated, then rebuilt with the exact arithmetic of the live
    /// paths, so the result is bit-identical to the exporting engine.
    /// On `Err` the engine is unchanged.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.core_from_state(state).map(|core| self.core = core)
    }

    /// Build a rollback target directly from an imported state (the
    /// durability layer restores journaled snapshots this way).
    pub fn snapshot_from_state(&self, state: &EngineState) -> Result<IncrSnapshot<A>, String> {
        self.core_from_state(state)
            .map(|core| IncrSnapshot { core })
    }

    fn view_of_core<'a>(&'a self, core: &'a Core<A>) -> StateView<'a> {
        StateView {
            live: &core.live,
            on_slot: &core.on_slot,
            slot_of_machine: &self.slot_of_machine,
            next_id: core.next_id,
            divergence: core.divergence,
            canonical: core.canonical,
            frontier: core.frontier,
        }
    }

    fn core_from_state(&self, state: &EngineState) -> Result<Core<A>, String> {
        let m = self.platform.len();
        if state.on_machine.len() != m {
            return Err(format!(
                "state has {} machines, engine platform has {m}",
                state.on_machine.len()
            ));
        }
        let mut live = Vec::with_capacity(state.entries.len());
        let mut index = HashMap::with_capacity(state.entries.len());
        for (live_idx, &(id, task)) in state.entries.iter().enumerate() {
            if id >= state.next_id {
                return Err(format!("task id {id} not below next id {}", state.next_id));
            }
            live.push(Some((TaskId(id), task)));
            // `slot` is patched below from the resident lists.
            if index.insert(id, Entry { live_idx, slot: 0 }).is_some() {
                return Err(format!("duplicate task id {id}"));
            }
        }
        let mut on_slot = vec![Vec::new(); m];
        let mut placed = 0usize;
        for (mi, residents) in state.on_machine.iter().enumerate() {
            let slot = self.slot_of_machine[mi];
            for &id in residents {
                let entry = index
                    .get_mut(&id)
                    .ok_or_else(|| format!("machine {mi} lists unknown task id {id}"))?;
                entry.slot = slot;
                placed += 1;
            }
            on_slot[slot] = residents.clone();
        }
        if placed != state.entries.len() {
            return Err(format!(
                "{} tasks in the insertion log but {placed} resident placements",
                state.entries.len()
            ));
        }
        let mut seen = std::collections::HashSet::with_capacity(placed);
        for residents in &on_slot {
            for &id in residents {
                if !seen.insert(id) {
                    return Err(format!("task id {id} resident on two machines"));
                }
            }
        }
        let admission = self.ff.admission();
        let states: Vec<A::State> = on_slot
            .iter()
            .zip(&self.speeds)
            .map(|(residents, &sp)| {
                admission.fold_state(
                    residents.iter().map(|id| {
                        &live[index[id].live_idx]
                            .as_ref()
                            .expect("imported entries are live")
                            .1
                    }),
                    sp,
                )
            })
            .collect();
        let hints: Vec<f64> = states
            .iter()
            .zip(&self.speeds)
            .map(|(st, &sp)| admission.residual_hint(st, sp))
            .collect();
        let mut tree = MaxTree::default();
        tree.rebuild(&hints);
        Ok(Core {
            live_count: state.entries.len(),
            live,
            index,
            on_slot,
            states,
            tree,
            next_id: state.next_id,
            divergence: state.divergence,
            canonical: state.canonical,
            frontier: state.frontier,
        })
    }

    /// Drop tombstoned entries from the insertion log, re-indexing
    /// survivors. Purely internal — observable state is unchanged.
    fn compact(&mut self) {
        let mut new_live = Vec::with_capacity(self.core.live_count);
        for (id, t) in self.core.live.drain(..).flatten() {
            self.core
                .index
                .get_mut(&id.0)
                .expect("live ids are indexed")
                .live_idx = new_live.len();
            new_live.push(Some((id, t)));
        }
        self.core.live = new_live;
    }

    /// Divergence-triggered repack; best-effort under gas (see
    /// [`Self::add`]).
    fn maybe_auto_repack<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) {
        if self.policy.repack_after > 0
            && self.core.divergence >= u64::from(self.policy.repack_after)
        {
            // A failed up-front gas charge leaves the state untouched and
            // the meter latched; the next operation surfaces the error.
            let _ = self.repack(gas, sink);
        }
    }
}
