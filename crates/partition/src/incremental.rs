//! Incremental online admission: the §III first-fit test as a *serving*
//! data structure.
//!
//! [`crate::FirstFitEngine`] answers one-shot questions; a deployed
//! admission controller instead sees a *stream* — tasks arrive, run for a
//! while and leave. Re-packing from scratch per request costs
//! `O(n log n + (n+m) log n)` each; [`IncrementalEngine`] maintains the
//! live partition across the stream so that
//!
//! * [`IncrementalEngine::add`] is one online placement on the live
//!   partition's indexed kernel (see [`crate::engine`]) — one
//!   descend-left query on its fan-out-8 max-tree, `O(log m)` amortized;
//! * [`IncrementalEngine::remove`] credits capacity back with a *local
//!   repair*: the leaver's machine state is re-folded from its remaining
//!   residents (`O(k)` for a machine holding `k` tasks) rather than
//!   subtracted, so float drift can never corrupt a residual;
//! * [`IncrementalEngine::snapshot`] / [`IncrementalEngine::rollback`]
//!   support speculative admission ("would this batch fit?") with exact
//!   state restoration, including id allocation. The engine holds one
//!   snapshot slot: `snapshot` overwrites it, `rollback` restores it
//!   without consuming it, and [`IncrementalEngine::snapshot_view`] reads
//!   it in place;
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
//!   falls back to a counted full repack: from-scratch FFD over the
//!   survivors, one machine-major run of the batch kernel on empty
//!   machines, the run [`crate::FirstFitEngine`] makes, whose final
//!   states the live partition adopts with one rebuild of its max-tree.
//!   After a repack the
//!   assignment is **byte-identical** to [`crate::first_fit_ordered`] on
//!   the survivor set — `tests/prop_incremental.rs` asserts this — so the
//!   paper's guarantee is restored with bounded staleness. The FFD order
//!   itself is carried from one repack to the next, so a repack sorts
//!   only the tasks admitted since (see [`IncrementalEngine::repack`]).
//!
//! A repack can come back infeasible even though the live assignment is
//! valid (first-fit is order-sensitive and non-optimal). The engine then
//! keeps the current assignment, counts `incr.repack_infeasible`, and
//! resets the divergence clock.

use crate::assignment::Assignment;
use crate::engine::{probe_gas, Ffd, IndexableAdmission, IndexedKernel, Kernel, Work};
use crate::metrics;
use hetfeas_model::{Augmentation, Platform, Ratio, Task, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::{Exhaustion, Gas};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

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

/// The live-id index's hasher: one folded 64×64→128-bit multiply per id.
/// Ids are allocated by the engine (sequentially) or come back from its
/// own exported state, so a client can look ids up but never chooses the
/// keys inserted, and SipHash's resistance to chosen collisions buys
/// nothing here.
#[derive(Debug, Clone, Copy, Default)]
struct IdHasher(u64);

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(u64::from(b));
        }
    }

    fn write_u64(&mut self, id: u64) {
        let m = u128::from(self.0 ^ id) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (m as u64) ^ ((m >> 64) as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Raw id → where the task sits.
type IdIndex = HashMap<u64, Entry, BuildHasherDefault<IdHasher>>;

/// A dropped task's mark in the repack's position map.
const GONE: u32 = u32::MAX;

/// The cloneable part of the engine — everything [`IncrementalEngine::
/// snapshot`] must capture to make rollback exact — over admission
/// states `St`.
#[derive(Clone)]
struct Core<St> {
    /// Insertion log of live tasks; `None` marks a removed (tombstoned)
    /// entry. Order = canonical tie-breaking order for the batch sort.
    live: Vec<Option<(TaskId, Task)>>,
    /// id → position in `live` + machine slot.
    index: IdIndex,
    /// Ids resident on each machine slot, in admission order.
    on_slot: Vec<Vec<u64>>,
    /// Per-slot admission states and their residual max-tree.
    kernel: IndexedKernel<St>,
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

/// A borrowed view of an engine's (or its held snapshot's) observable state:
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
    policy: RepairPolicy,
    admission: A,
    core: Core<A::State>,
    /// The snapshot slot ([`Self::snapshot`] / [`Self::rollback`]).
    snap: Option<Core<A::State>>,
    /// The last repack's FFD order, as positions in the insertion log. It
    /// covers the first `ordered` log entries; every later entry was
    /// appended since. Whatever replaces or compacts the log forgets it
    /// ([`Self::forget_order`]), so the next repack sorts in full.
    order: Vec<usize>,
    ordered: usize,
    /// Repack scratch: the survivors in log order, each ordered log
    /// position's index among them, the survivors in FFD order as the run
    /// reads them, the kernel the run packs (adopted by the live one when
    /// it succeeds, which hands back its old kernel) and the slot it put
    /// each survivor on, in FFD order.
    survivors: TaskSet,
    dense: Vec<u32>,
    ffd: Ffd,
    scratch: Kernel<A::State>,
    slots: Vec<usize>,
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
        let mut kernel = Kernel::new();
        let speeds = machine_order
            .iter()
            .map(|&mi| alpha.factor() * platform.speed_f64(mi));
        kernel.reset(&admission, speeds, &());
        let kernel = IndexedKernel::new(&admission, kernel);
        IncrementalEngine {
            platform: platform.clone(),
            alpha,
            machine_order,
            slot_of_machine,
            policy,
            admission,
            core: Core {
                live: Vec::new(),
                index: IdIndex::default(),
                on_slot: vec![Vec::new(); m],
                kernel,
                live_count: 0,
                next_id: 0,
                divergence: 0,
                canonical: true,
                frontier: None,
            },
            snap: None,
            order: Vec::new(),
            ordered: 0,
            survivors: TaskSet::empty(),
            dense: Vec::new(),
            ffd: Ffd::default(),
            scratch: Kernel::new(),
            slots: Vec::new(),
        }
    }

    /// The admission test in use.
    pub fn admission(&self) -> &A {
        &self.admission
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
        self.admission.load(self.core.kernel.state(slot))
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
    /// one online placement (a tree descent plus exact re-checks),
    /// `O(log m)` amortized.
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
        let mut work = Work::default();
        let placed = self.core.kernel.place(&self.admission, &task, &mut work);
        if S::ENABLED {
            sink.counter_add(metrics::INCR_TREE_DESCENTS, work.descents);
            sink.counter_add(metrics::INCR_EXACT_CHECKS, work.exact);
            sink.counter_add(metrics::INCR_REVERIFY_MISSES, work.misses);
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
        // machine states it was just admitted against. The comparison takes
        // c/p unreduced; only a frontier that moves is reduced.
        if self.core.canonical
            && self
                .core
                .frontier
                .is_none_or(|f| task.cmp_utilization(&f).is_le())
        {
            self.core.frontier = Some(task.utilization_ratio());
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
        let core = &mut self.core;
        let refolds = core.on_slot[slot].len() as u64;
        let residents = core.on_slot[slot].iter().map(|x| {
            &core.live[core.index[x].live_idx]
                .as_ref()
                .expect("resident ids are live")
                .1
        });
        let st = self
            .admission
            .fold_state(residents, core.kernel.speeds()[slot]);
        core.kernel.set(&self.admission, slot, st);
        core.canonical = false;
        core.divergence += 1;
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

    /// Re-pack the survivors canonically (from-scratch FFD: one kernel run
    /// on empty machines, as [`crate::FirstFitEngine::run`] makes it)
    /// regardless of the divergence counter. Gas is charged `n + m + 1` up
    /// front (a repack is `O((n+m)·log n)` work); on `Err` the engine state
    /// is unchanged. The run reports `ff.*` and `engine.*` counts like a
    /// batch run.
    ///
    /// The FFD order is not sorted from scratch: the engine keeps the last
    /// repack's order, drops the tasks that left since, sorts only the `k`
    /// tasks admitted since (`incr.repack_sorted` counts them) and merges
    /// them in — `O(n + k·log n)`. The run packs a scratch kernel; when it
    /// places every survivor, the live partition adopts that kernel's
    /// final states as they are and rebuilds its max-tree once from them
    /// for the online adds, and the resident lists and the index are
    /// rebuilt from the slots the run recorded.
    pub fn repack<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<RepackOutcome, Exhaustion> {
        gas.tick_n(probe_gas(self.core.live_count, self.platform.len()))?;
        let sorted = self.order_survivors();
        if S::ENABLED {
            sink.counter_add(metrics::INCR_REPACK_SORTED, sorted as u64);
        }
        self.ffd.load(&self.survivors, &self.order, sink);
        let speeds = self.core.kernel.speeds().iter().copied();
        self.scratch.reset(&self.admission, speeds, sink);
        let feasible =
            self.scratch
                .place_all(&self.admission, &mut self.ffd, &mut self.slots, sink);
        let Core {
            live,
            index,
            on_slot,
            kernel,
            ..
        } = &mut self.core;
        if !feasible {
            // Keep the valid current assignment, re-pointing the index at
            // the compacted log; restart the divergence clock so the next
            // trigger waits a full window instead of re-attempting on every
            // op.
            for (live_idx, (id, _)) in live.iter().flatten().enumerate() {
                index.get_mut(&id.0).expect("live ids are indexed").live_idx = live_idx;
            }
            if S::ENABLED {
                sink.counter_add(metrics::INCR_REPACK_INFEASIBLE, 1);
            }
            self.core.divergence = 0;
            return Ok(RepackOutcome::Infeasible);
        }
        kernel.adopt(&self.admission, &mut self.scratch);
        on_slot.iter_mut().for_each(Vec::clear);
        // Each machine's tasks, in the order the run admitted them.
        for (&ti, &slot) in self.order.iter().zip(&self.slots) {
            let (id, _) = live[ti].expect("the repack compacted the log");
            on_slot[slot].push(id.0);
            *index.get_mut(&id.0).expect("live ids are indexed") = Entry { live_idx: ti, slot };
        }
        self.core.frontier = self
            .order
            .last()
            .map(|&ti| self.survivors[ti].utilization_ratio());
        self.core.canonical = true;
        self.core.divergence = 0;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_REPACKS, 1);
        }
        Ok(RepackOutcome::Repacked)
    }

    /// Compact the insertion log, copy its tasks into `survivors` and turn
    /// `order` into their FFD order, as survivor indices (which the
    /// compacted log's positions now equal). Returns how many tasks it
    /// sorted: the kept order loses its departed tasks through `dense` in
    /// one pass, and only the tasks appended since are sorted and merged in.
    fn order_survivors(&mut self) -> usize {
        let live = &mut self.core.live;
        self.survivors.clear();
        self.dense.clear();
        let mut kept = 0usize;
        for pos in 0..live.len() {
            let entry = live[pos];
            if pos < self.ordered {
                let to = u32::try_from(kept).expect("fewer than 2^32 live tasks");
                self.dense.push(if entry.is_some() { to } else { GONE });
            }
            if let Some((_, task)) = entry {
                self.survivors.push(task);
                live[kept] = entry;
                kept += 1;
            }
        }
        live.truncate(kept);
        let dense = &self.dense;
        self.order.retain_mut(|pos| {
            *pos = dense[*pos] as usize;
            *pos != GONE as usize
        });
        let mut fresh = Vec::new();
        self.survivors
            .extend_by_decreasing_utilization(self.order.len(), &mut fresh);
        merge_ordered(&self.survivors, &mut self.order, &fresh);
        self.ordered = kept;
        fresh.len()
    }

    /// Drop the carried FFD order: the next repack sorts every survivor.
    fn forget_order(&mut self) {
        self.order.clear();
        self.ordered = 0;
    }

    /// Capture the engine's observable state into its snapshot slot for
    /// speculative admission, overwriting any held snapshot. Charges
    /// `n + 1` ticks of `gas` for the copy; on `Err` nothing changed.
    pub fn snapshot<S: MetricsSink>(&mut self, gas: &mut Gas, sink: &S) -> Result<(), Exhaustion> {
        gas.tick_n(self.len() as u64 + 1)?;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_SNAPSHOTS, 1);
        }
        self.snap = Some(self.core.clone());
        Ok(())
    }

    /// Restore the held snapshot, keeping it held — every observable
    /// (live set, assignment, divergence, id allocation) returns to its
    /// captured value. Returns `false`, charging nothing, when no snapshot
    /// is held. Otherwise charges `n + 1` ticks of `gas`, `n` being the
    /// live count before the restore; on `Err` the engine is unchanged.
    pub fn rollback<S: MetricsSink>(
        &mut self,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<bool, Exhaustion> {
        let Some(snap) = &self.snap else {
            return Ok(false);
        };
        gas.tick_n(self.core.live_count as u64 + 1)?;
        if S::ENABLED {
            sink.counter_add(metrics::INCR_ROLLBACKS, 1);
        }
        self.core = snap.clone();
        self.forget_order();
        Ok(true)
    }

    /// Export the observable state as a portable [`EngineState`].
    pub fn export_state(&self) -> EngineState {
        self.view().to_state()
    }

    /// The observable state, borrowed in place (see [`StateView`]).
    pub fn view(&self) -> StateView<'_> {
        self.view_of_core(&self.core)
    }

    /// [`Self::view`] of the held snapshot, if any.
    pub fn snapshot_view(&self) -> Option<StateView<'_>> {
        self.snap.as_ref().map(|core| self.view_of_core(core))
    }

    /// Replace the engine's state with an imported [`EngineState`] —
    /// validated, then rebuilt with the exact arithmetic of the live
    /// paths, so the result is bit-identical to the exporting engine.
    /// The snapshot slot is left as it is. On `Err` the engine is
    /// unchanged.
    pub fn import_state(&mut self, state: &EngineState) -> Result<(), String> {
        self.core = self.core_from_state(state)?;
        self.forget_order();
        Ok(())
    }

    /// Fill the snapshot slot from an imported [`EngineState`], as
    /// [`Self::import_state`] rebuilds the live state (the durability
    /// layer restores journaled snapshots this way). On `Err` the slot is
    /// unchanged.
    pub fn import_snapshot(&mut self, state: &EngineState) -> Result<(), String> {
        self.snap = Some(self.core_from_state(state)?);
        Ok(())
    }

    fn view_of_core<'a>(&'a self, core: &'a Core<A::State>) -> StateView<'a> {
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

    fn core_from_state(&self, state: &EngineState) -> Result<Core<A::State>, String> {
        let m = self.platform.len();
        if state.on_machine.len() != m {
            return Err(format!(
                "state has {} machines, engine platform has {m}",
                state.on_machine.len()
            ));
        }
        let mut live = Vec::with_capacity(state.entries.len());
        let mut index = IdIndex::with_capacity_and_hasher(state.entries.len(), Default::default());
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
        let mut kernel = Kernel::new();
        let speeds = self.core.kernel.speeds();
        kernel.reset(&self.admission, speeds.iter().copied(), &());
        let mut kernel = IndexedKernel::new(&self.admission, kernel);
        for (slot, residents) in on_slot.iter().enumerate() {
            let tasks = residents.iter().map(|id| {
                &live[index[id].live_idx]
                    .as_ref()
                    .expect("imported entries are live")
                    .1
            });
            let st = self.admission.fold_state(tasks, speeds[slot]);
            kernel.set(&self.admission, slot, st);
        }
        Ok(Core {
            live_count: state.entries.len(),
            live,
            index,
            on_slot,
            kernel,
            next_id: state.next_id,
            divergence: state.divergence,
            canonical: state.canonical,
            frontier: state.frontier,
        })
    }

    /// Drop tombstoned entries from the insertion log, re-indexing
    /// survivors. Purely internal — observable state is unchanged — but it
    /// moves the positions the carried FFD order names.
    fn compact(&mut self) {
        self.forget_order();
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

/// Merge the FFD-ordered task indices `fresh` into the FFD-ordered `order`
/// over `tasks`, in place. Each fresh task, last first, binary-searches its
/// place among the kept tasks not yet passed, and the kept tasks after it
/// shift right past it: `O(k·log n)` comparisons and `O(n)` moves for `k`
/// fresh tasks. The comparisons take no sort keys
/// ([`TaskSet::cmp_indices_by_decreasing_utilization`]), so the kept
/// tasks cost no division each.
fn merge_ordered(tasks: &TaskSet, order: &mut Vec<usize>, fresh: &[usize]) {
    if order.is_empty() {
        order.extend_from_slice(fresh);
        return;
    }
    let mut end = order.len();
    order.resize(end + fresh.len(), 0);
    let mut w = order.len();
    for &ti in fresh.iter().rev() {
        let at = order[..end]
            .partition_point(|&oi| tasks.cmp_indices_by_decreasing_utilization(oi, ti).is_lt());
        order.copy_within(at..end, w - (end - at));
        w -= end - at + 1;
        order[w] = ti;
        end = at;
    }
}
