//! Indexed first-fit engine: the §III test in `O((n+m)·log n)` per run.
//!
//! The reference [`crate::first_fit()`] scans machines linearly per task —
//! `O(n·m)` admission checks in the worst case. Every higher layer (the
//! α-bisection, the E1–E17 sweeps, the benches) calls it thousands of
//! times, so [`FirstFitEngine`] fills the machines one at a time instead.
//!
//! ## Machine-major runs
//!
//! An indexable admission ([`IndexableAdmission`]) accepts a task when
//! its utilization is at most a threshold that depends on the machine's
//! own state alone. So first-fit-decreasing gives the same packing when
//! machines are filled in scan order, each taking the first remaining
//! task it admits, then the first after that one, until none fits: by
//! induction over the machines, each receives exactly the tasks, in the
//! order, that the task-major scan gives it. The tasks' f64 utilizations
//! in FFD order are kept with their running minimum, which is
//! non-increasing, so the first task a machine may admit is one gallop
//! away: `O(log n)` evaluations of the machine's exact test per
//! placement, one failed search per machine, `O((n+m)·log n)` per run
//! after the `O(n log n + m log m)` sorts.
//!
//! ## The online index
//!
//! An online add ([`crate::IncrementalEngine::add`]) places one task on
//! machines that are already loaded, so it cannot fill them in order; it
//! queries a fan-out-8 max-tree over per-machine *residual capacities*:
//!
//! * EDF: the residual of machine `j` is `α·s_j − load_j`;
//! * RMS-LL: it is `bound(k_j + 1)·α·s_j − load_j` where `k_j` is the
//!   number of tasks already on `j`.
//!
//! Both residuals change only on the machine that admits the task, so a
//! point update keeps the tree valid, and "first (slowest) machine that
//! admits τ" becomes a descend-left query: `O(log m)` per add instead of
//! `O(m)`. A tree node's children are one contiguous group of 8 values,
//! resolved by one branch-free compare and a trailing-zero count, so a
//! query from the first slot reads one group per level: three at m = 512.
//! Tree values are *hints*: each [`IndexableAdmission::residual_hint`]
//! over-approximates (by a ~1e-12 relative slack, far below
//! [`hetfeas_model::EPS`]) the largest utilization the exact
//! [`AdmissionTest::admit`] predicate would accept, and every candidate
//! leaf is re-checked with that exact predicate before placing; a
//! rejected candidate resumes the query to its right.
//!
//! ## Exact equivalence with the reference scan
//!
//! Both paths decide with the exact predicate the reference scan uses
//! ([`IndexableAdmission::admit_utilization`]), so the engine admits each
//! task on *exactly* the machine the reference scan picks — outcomes
//! (assignments, witnesses, tie-breaking) are byte-identical, which
//! `tests/prop_engine.rs` asserts. Admissions whose acceptance is not a
//! threshold on the candidate's utilization (exact RTA, Kuo–Mok — they
//! re-inspect the whole accumulated set) cannot be indexed this way and
//! stay on the linear reference path.
//!
//! ## One batch kernel, one online kernel
//!
//! The batch run and the online placement are each written once. The
//! crate-private `Kernel` holds per-slot admission states at α-augmented
//! speeds and runs the machine-major fill; `IndexedKernel` wraps one with
//! the max-tree of its residual hints and places single tasks, keeping
//! the tree current on every change. [`FirstFitEngine`] runs every probe
//! on a `Kernel`; [`crate::IncrementalEngine`] keeps its live partition
//! in an `IndexedKernel`, repacks in a plain `Kernel` and adopts that
//! kernel's states when the run places every task, so the two engines
//! cannot drift apart.
//!
//! The engine owns its workspaces (sort permutations, the sorted
//! utilizations, the kernel, the placed slots), so repeated calls — e.g.
//! the probes of [`FirstFitEngine::min_feasible_alpha`] — amortize all
//! allocation, and that search sorts once for all its probes. Only
//! [`FirstFitEngine::run`] builds an [`Assignment`], from the slots its
//! run recorded.
//!
//! ## Probes without a run
//!
//! Most α-search probes lie far from α\*, where the argument behind the
//! paper's theorems proves their verdict: one pass over the task order
//! gives a load `G` below which first-fit cannot fail and the total
//! utilization `U` above which it cannot succeed. The search answers
//! those probes from the two bounds (each the probe's own first-fit
//! verdict, proven with f64 rounding accounted for) and runs the kernel
//! on the rest; see [`FirstFitEngine::min_feasible_alpha`].

use crate::admission::{
    admit_rhs, AdmissionTest, EdfAdmission, HyperbolicState, RmsHyperbolicAdmission,
    RmsLlAdmission, RmsLlState,
};
use crate::assignment::{Assignment, FailureWitness, Outcome};
use crate::first_fit::bisection;
use crate::metrics;
use crate::policy::PolicyKind;
use hetfeas_analysis::liu_layland_bound;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet, EPS};
use hetfeas_obs::{HistogramSnapshot, MetricsSink};
use hetfeas_robust::{Exhaustion, Gas};

/// Relative slack added to residual hints so f64 rounding in
/// `capacity − load` can never make the tree skip a machine the exact
/// admission predicate would accept. ~1e-12 is ≥ 10³× the accumulated
/// rounding error of the few flops involved and ≤ 10⁻³× [`hetfeas_model::EPS`], so false
/// positives (cost: one wasted exact re-check) are vanishingly rare and
/// false negatives are impossible.
const HINT_SLACK: f64 = 1e-12;

#[inline]
fn relaxed_residual(capacity_rhs: f64, load: f64) -> f64 {
    (capacity_rhs - load) + HINT_SLACK * capacity_rhs.abs().max(load.abs()).max(1.0)
}

/// An [`AdmissionTest`] whose acceptance of a candidate task is a threshold
/// on the candidate's utilization — the property that lets the batch run
/// fill one machine at a time by searching a sorted utilization array, and
/// a residual max-tree index the online placements.
///
/// # Contract
/// * [`Self::fits`] is monotone in `u`: a room that admits `u` admits
///   every `u' ≤ u`.
/// * `residual_hint(state, speed)` must be ≥ the utilization of **every**
///   task that `admit(state, task, speed)` would accept (over-approximation
///   is fine: the engine re-checks candidates with the exact `admit`;
///   under-approximation would silently skip machines and is a bug).
pub trait IndexableAdmission: AdmissionTest {
    /// The policy this test implements; journals record its key.
    const POLICY: PolicyKind;

    /// φ, the share of its augmented speed that a machine surely fills
    /// before this test rejects a task: the utilization floor of Chen's
    /// analysis (arXiv 1505.04693) behind Theorems I.1–I.4, which
    /// [`FirstFitEngine::min_feasible_alpha`] uses to settle probes
    /// without a run.
    ///
    /// # Contract
    /// On a machine of augmented speed `σ` holding `c` tasks of exact
    /// total utilization `L`, with `c + 1 ≤ 2^20` and `γ_t = t·2^-53 /
    /// (1 − t·2^-53)` the usual rounding-error factor:
    ///
    /// * a rejection of a task of utilization `w` implies
    ///   `L + w > φ·σ·(1 − γ_{c+1})`;
    /// * an accepting machine holds at most
    ///   `L ≤ (σ·(1 + 2·EPS) + EPS)·(1 + γ_{6c+4})`, with
    ///   [`hetfeas_model::EPS`] the admission padding.
    ///
    /// EDF's φ is 1. The Liu–Layland bound `k(2^{1/k} − 1)` falls towards
    /// `ln 2`, so RMS-LL and the hyperbolic test (`Π(1 + w_i/σ) > 2`
    /// forces `Σ w_i/σ > ln 2`) take `ln 2·(1 − 10^-9)`, which stays below
    /// the f64 [`liu_layland_bound`] of every `k ≤ 2^20` (a unit test
    /// checks each) and below `ln 2` by more than the product's rounding.
    const UTILIZATION_FLOOR: f64;

    /// The part of the test that depends on the machine alone — its state
    /// and augmented speed — evaluated once per state, so that each
    /// candidate then costs one [`Self::fits`].
    type Room: Copy;

    /// The room of a machine in `state` at augmented speed `speed`.
    fn room(&self, state: &Self::State, speed: f64) -> Self::Room;

    /// Whether a machine with `room` admits a task of utilization `u`.
    fn fits(&self, room: Self::Room, u: f64) -> bool;

    /// The state of a machine in `state` at augmented speed `speed` once
    /// it holds one more task, of utilization `u`, with no check.
    fn grow(&self, state: &Self::State, u: f64, speed: f64) -> Self::State;

    /// Admission by utilization: the successor state when a machine in
    /// `state` at augmented speed `speed` admits a task of utilization
    /// `u`. Each indexable test's [`AdmissionTest::admit`] is this at the
    /// task's f64 utilization, so the engines and the reference scan
    /// decide with the same arithmetic bit for bit.
    #[inline]
    fn admit_utilization(&self, state: &Self::State, u: f64, speed: f64) -> Option<Self::State> {
        self.fits(self.room(state, speed), u)
            .then(|| self.grow(state, u, speed))
    }

    /// Upper bound on the utilization of any task [`AdmissionTest::admit`]
    /// accepts in `state` at augmented speed `speed`.
    fn residual_hint(&self, state: &Self::State, speed: f64) -> f64;

    /// State of a machine holding exactly `tasks`, folded left-to-right
    /// with [`Self::grow`] — the arithmetic of repeated
    /// [`AdmissionTest::admit`] calls — **without** acceptance checks. The
    /// incremental engine's local repair uses this after a removal, where
    /// every remaining task was already admitted — the aggregate is a
    /// plain recomputation, not a decision, so the boundary-case float
    /// drift of "subtract the leaver" can never spuriously reject a
    /// machine's own residents.
    fn fold_state<'a, I>(&self, tasks: I, speed: f64) -> Self::State
    where
        I: IntoIterator<Item = &'a Task>,
    {
        tasks.into_iter().fold(self.empty_state(), |st, t| {
            self.grow(&st, t.utilization(), speed)
        })
    }
}

/// `ln 2·(1 − 10^-9)`: the utilization floor of the two RMS tests (see
/// [`IndexableAdmission::UTILIZATION_FLOOR`]).
const LN_2_FLOOR: f64 = std::f64::consts::LN_2 * (1.0 - 1e-9);

impl IndexableAdmission for EdfAdmission {
    const POLICY: PolicyKind = PolicyKind::Edf;
    const UTILIZATION_FLOOR: f64 = 1.0;
    /// The load and the padded capacity.
    type Room = (f64, f64);

    fn room(&self, load: &f64, speed: f64) -> (f64, f64) {
        // approx_le(load + u, speed), i.e. load + u ≤ admit_rhs(speed).
        (*load, admit_rhs(speed))
    }

    fn fits(&self, (load, rhs): (f64, f64), u: f64) -> bool {
        load + u <= rhs
    }

    fn grow(&self, load: &f64, u: f64, _speed: f64) -> f64 {
        load + u
    }

    fn residual_hint(&self, state: &f64, speed: f64) -> f64 {
        relaxed_residual(admit_rhs(speed), *state)
    }
}

impl IndexableAdmission for RmsLlAdmission {
    const POLICY: PolicyKind = PolicyKind::RmsLl;
    const UTILIZATION_FLOOR: f64 = LN_2_FLOOR;
    /// The load and the padded Liu–Layland capacity the next task faces.
    type Room = (f64, f64);

    fn room(&self, state: &RmsLlState, speed: f64) -> (f64, f64) {
        // approx_le(load + u, bound(count + 1) · speed).
        let rhs = admit_rhs(liu_layland_bound(state.count + 1) * speed);
        (state.load, rhs)
    }

    fn fits(&self, (load, rhs): (f64, f64), u: f64) -> bool {
        load + u <= rhs
    }

    fn grow(&self, state: &RmsLlState, u: f64, _speed: f64) -> RmsLlState {
        RmsLlState {
            load: state.load + u,
            count: state.count + 1,
        }
    }

    fn residual_hint(&self, state: &RmsLlState, speed: f64) -> f64 {
        let (load, rhs) = self.room(state, speed);
        relaxed_residual(rhs, load)
    }
}

impl IndexableAdmission for RmsHyperbolicAdmission {
    const POLICY: PolicyKind = PolicyKind::RmsHyp;
    const UTILIZATION_FLOOR: f64 = LN_2_FLOOR;
    /// The product `Π (w_i/speed + 1)` and the speed.
    type Room = (f64, f64);

    fn room(&self, state: &HyperbolicState, speed: f64) -> (f64, f64) {
        (state.product, speed)
    }

    fn fits(&self, (product, speed): (f64, f64), u: f64) -> bool {
        // rms_hyperbolic_product_ok(next) ⟺ approx_le(next, 2).
        product * (u / speed + 1.0) <= admit_rhs(2.0)
    }

    fn grow(&self, state: &HyperbolicState, u: f64, speed: f64) -> HyperbolicState {
        HyperbolicState {
            product: state.product * (u / speed + 1.0),
            load: state.load + u,
        }
    }

    fn residual_hint(&self, state: &HyperbolicState, speed: f64) -> f64 {
        // fits: product · (u/speed + 1) ≤ rhs, so
        // u ≤ speed · (rhs/product − 1) with rhs the ε-padded 2.
        let rhs = admit_rhs(2.0);
        let bound = speed * (rhs / state.product - 1.0);
        bound + HINT_SLACK * bound.abs().max(speed.abs()).max(1.0)
    }
}

/// Values per tree group: a node's children are one contiguous group of
/// `FANOUT` values, which one branch-free comparison resolves.
const FANOUT: usize = 8;

/// Most levels a tree can have: `FANOUT^22 > 2^64 > usize::MAX`.
const MAX_LEVELS: usize = 22;

/// Fan-out-8 max-tree over `f64` values supporting point updates and
/// "leftmost value ≥ threshold at or after position `from`".
///
/// Level 0 holds the values; each value of level `l + 1` is the max of one
/// group of [`FANOUT`] consecutive values of level `l`; the top level is a
/// single group. Every level lives in one buffer, each padded with `-∞`
/// to whole groups, so padding never matches a (finite-threshold) query.
/// At m = 512 the levels hold 512, 64 and 8 values: a query from slot 0
/// reads three groups.
#[derive(Debug, Clone, Default)]
struct MaxTree {
    /// Every level, leaves first, each a whole number of groups.
    buf: Vec<f64>,
    /// Offset of each level in `buf`; `starts[levels]` is `buf.len()`.
    starts: [usize; MAX_LEVELS + 1],
    /// Number of levels (0 until the first rebuild).
    levels: usize,
}

/// Bit `k` set iff `group[k] ≥ threshold`: one compare per lane and no
/// branch, the shape LLVM turns into vector compares and a mask move.
#[inline]
fn mask_at_least(group: &[f64], threshold: f64) -> u32 {
    let group: &[f64; FANOUT] = group.try_into().expect("one whole group");
    group
        .iter()
        .enumerate()
        .fold(0, |mask, (k, &v)| mask | (u32::from(v >= threshold) << k))
}

/// Max of one group via an unrolled 4-lane reduction (the shape LLVM
/// turns into vector `max` + a horizontal reduce).
#[inline]
fn group_max(vals: &[f64]) -> f64 {
    debug_assert_eq!(vals.len(), FANOUT);
    let m0 = vals[0].max(vals[4]);
    let m1 = vals[1].max(vals[5]);
    let m2 = vals[2].max(vals[6]);
    let m3 = vals[3].max(vals[7]);
    m0.max(m1).max(m2.max(m3))
}

impl MaxTree {
    /// Reset the tree to `values`, reusing the backing allocation.
    fn rebuild(&mut self, values: impl ExactSizeIterator<Item = f64>) {
        let mut len = values.len().max(1);
        let mut total = 0;
        self.levels = 0;
        loop {
            self.starts[self.levels] = total;
            self.levels += 1;
            total += len.next_multiple_of(FANOUT);
            if len <= FANOUT {
                break;
            }
            len = len.div_ceil(FANOUT);
        }
        self.starts[self.levels] = total;
        self.buf.clear();
        self.buf.reserve(total);
        self.buf.extend(values);
        for l in 0..self.levels {
            self.buf.resize(self.starts[l + 1], f64::NEG_INFINITY);
            if l + 1 < self.levels {
                for g in (self.starts[l]..self.starts[l + 1]).step_by(FANOUT) {
                    let max = group_max(&self.buf[g..g + FANOUT]);
                    self.buf.push(max);
                }
            }
        }
    }

    /// The group of level `l` that holds its position `i`.
    #[inline]
    fn group(&self, l: usize, i: usize) -> &[f64] {
        let at = self.starts[l] + i / FANOUT * FANOUT;
        &self.buf[at..at + FANOUT]
    }

    /// Set value `i` to `v` and repair its ancestors, up to the first
    /// whose max did not change.
    fn update(&mut self, mut i: usize, v: f64) {
        self.buf[i] = v;
        for l in 0..self.levels - 1 {
            let max = group_max(self.group(l, i));
            i /= FANOUT;
            let parent = &mut self.buf[self.starts[l + 1] + i];
            if *parent == max {
                return;
            }
            *parent = max;
        }
    }

    /// Index of the leftmost value at position `≥ from` that is
    /// `≥ threshold`.
    fn first_at_least(&self, from: usize, threshold: f64) -> Option<usize> {
        self.first_at_least_counting(from, threshold, &mut 0)
    }

    /// [`Self::first_at_least`], adding the groups it reads to `groups`
    /// (the unit tests check the count). A query from 0 descends from the
    /// top group, reading one group per level; a resumed one climbs from
    /// `from`'s group until a group right of the path holds a match, then
    /// descends, reading at most two groups per level.
    fn first_at_least_counting(
        &self,
        from: usize,
        threshold: f64,
        groups: &mut u64,
    ) -> Option<usize> {
        if from >= self.starts[1] {
            return None;
        }
        let mut read = |l: usize, i: usize, skip: usize| {
            *groups += 1;
            let mask = mask_at_least(self.group(l, i), threshold) >> skip << skip;
            (mask != 0).then(|| i / FANOUT * FANOUT + mask.trailing_zeros() as usize)
        };
        // Find the level `l` and position `i` of the leftmost match's
        // ancestor on the first level that shows one.
        let (mut l, mut i) = if from == 0 {
            let top = self.levels - 1;
            (top, read(top, 0, 0)?)
        } else {
            let (mut l, mut i) = (0, from);
            loop {
                if let Some(hit) = read(l, i, i % FANOUT) {
                    break (l, hit);
                }
                // Nothing at or right of `i` in its group: go on with the
                // parent's right neighbour.
                l += 1;
                i = i / FANOUT + 1;
                if l == self.levels || i >= self.starts[l + 1] - self.starts[l] {
                    return None;
                }
            }
        };
        while l > 0 {
            l -= 1;
            i = read(l, i * FANOUT, 0).expect("a group holds its parent's max");
        }
        Some(i)
    }
}

/// Work an online placement did: tree descents, exact re-checks and
/// re-verification misses.
#[derive(Default)]
pub(crate) struct Work {
    pub(crate) descents: u64,
    pub(crate) exact: u64,
    pub(crate) misses: u64,
}

/// Marks a task the machine-major run has not placed in its slot list.
const UNPLACED: usize = usize::MAX;

/// One FFD task order in the form the machine-major run reads, with that
/// run's scratch: [`Self::load`] fills it once per order, and every
/// [`Kernel::place_all`] over that order reuses it.
#[derive(Debug, Clone, Default)]
pub(crate) struct Ffd {
    /// The f64 utilization of each task, in FFD order.
    utils: Vec<f64>,
    /// `floor[i] = min(utils[..=i])`, the search key. It is non-increasing
    /// even where f64 rounding inverts the exact order (wcets or periods
    /// above 2^53), so the positions whose floor a machine admits form a
    /// suffix, and no task before that suffix fits.
    floor: Vec<f64>,
    /// The run's "next unplaced" links, path-halved: `next[i] == i` while
    /// position `i` is unplaced; otherwise it names a later position with
    /// no unplaced one in between. `next[n] = n` ends every chain.
    next: Vec<u32>,
}

impl Ffd {
    /// Take the tasks of `tasks` in FFD `order` (a permutation of their
    /// indices). Counts each buffer that had to grow under
    /// `ff.workspace_allocs`.
    pub(crate) fn load<S: MetricsSink>(&mut self, tasks: &TaskSet, order: &[usize], sink: &S) {
        let n = u32::try_from(order.len()).expect("fewer than 2^32 tasks") as usize;
        let caps = |f: &Self| [f.utils.capacity(), f.floor.capacity(), f.next.capacity()];
        let before = caps(self);
        self.utils.clear();
        self.utils
            .extend(order.iter().map(|&ti| tasks[ti].utilization()));
        let mut min = f64::INFINITY;
        self.floor.clear();
        self.floor.extend(self.utils.iter().map(|&u| {
            min = min.min(u);
            min
        }));
        self.next.resize(n + 1, 0);
        count_grown(sink, &before, &caps(self));
    }

    /// The f64 utilization of each task, in FFD order.
    pub(crate) fn utils(&self) -> &[f64] {
        &self.utils
    }
}

/// Add the buffers whose capacity changed between `before` and `after` to
/// `ff.workspace_allocs`.
fn count_grown<S: MetricsSink>(sink: &S, before: &[usize], after: &[usize]) {
    if S::ENABLED {
        let grown = before.iter().zip(after).filter(|(b, a)| b != a).count() as u64;
        if grown > 0 {
            sink.counter_add(metrics::FF_WORKSPACE_ALLOCS, grown);
        }
    }
}

/// The first unplaced position at or after `i`, halving the path there.
#[inline]
fn unplaced_from(next: &mut [u32], mut i: usize) -> usize {
    while next[i] as usize != i {
        let up = next[next[i] as usize];
        next[i] = up;
        i = up as usize;
    }
    i
}

/// The first position in `from..=last` whose key `fits` accepts, given
/// that it accepts `keys[last]` and, the keys being non-increasing, a
/// suffix of them: probes `from`, `from + 1`, `from + 3`, … until one
/// fits, then binary-searches the last step, so an answer `d` positions
/// on costs about `2·log2 d` probes.
fn gallop(keys: &[f64], from: usize, last: usize, mut fits: impl FnMut(f64) -> bool) -> usize {
    let (mut lo, mut hi, mut step) = (from, last, 1);
    while lo + step <= last {
        let probe = lo + step - 1;
        if fits(keys[probe]) {
            hi = probe;
            break;
        }
        lo = probe + 1;
        step *= 2;
    }
    lo + keys[lo..hi].partition_point(|&k| !fits(k))
}

/// The batch kernel of the indexed engines: per-slot admission states at
/// α-augmented speeds, slots in machine-scan order, which one
/// machine-major run ([`Self::place_all`]) fills. It is the only code that
/// runs first-fit over a whole task order; [`IndexedKernel`] places
/// single tasks.
#[derive(Debug, Clone)]
pub(crate) struct Kernel<St> {
    speeds: Vec<f64>,
    states: Vec<St>,
}

impl<St> Kernel<St> {
    /// A kernel with no slots; [`Self::reset`] sizes it.
    pub(crate) fn new() -> Self {
        Kernel {
            speeds: Vec::new(),
            states: Vec::new(),
        }
    }

    /// The α-augmented speed of every slot, in scan order.
    pub(crate) fn speeds(&self) -> &[f64] {
        &self.speeds
    }

    /// The admission state of `slot`.
    pub(crate) fn state(&self, slot: usize) -> &St {
        &self.states[slot]
    }

    /// Empty every slot at the α-augmented `speeds`, reusing the buffers.
    /// Counts each buffer that had to grow under `ff.workspace_allocs`.
    pub(crate) fn reset<A, S>(&mut self, adm: &A, speeds: impl Iterator<Item = f64>, sink: &S)
    where
        A: IndexableAdmission<State = St>,
        S: MetricsSink,
    {
        let caps = |k: &Self| [k.speeds.capacity(), k.states.capacity()];
        let before = caps(self);
        self.speeds.clear();
        self.speeds.extend(speeds);
        self.states.clear();
        self.states
            .extend(self.speeds.iter().map(|_| adm.empty_state()));
        count_grown(sink, &before, &caps(self));
    }

    /// One first-fit run, machine-major: place the tasks `ffd` holds from
    /// the current slot states, recording the slot of each placed task of
    /// the FFD prefix before the first one no slot admits in `slots`
    /// (cleared first). Returns true when every task was placed.
    ///
    /// Slots are filled one at a time, in scan order: each takes the first
    /// unplaced task it admits, then the first after that one, until none
    /// fits. A slot's admissions depend only on its own state, so by
    /// induction over the slots each one receives exactly the tasks, in
    /// the order, that the task-major scan gives it; the unplaced tasks
    /// are the ones no slot admits, and the first of them is the scan's
    /// failing task. A failed run still places every later task some slot
    /// admits, so after it the slot states hold more than the scan's
    /// prefix; callers discard them.
    ///
    /// The search key is the running minimum of the utilizations (see
    /// [`Ffd`]): a slot whose room takes a position's floor but not the
    /// task's own utilization (only where rounding inverted the order)
    /// confirms the task against that utilization and moves on. Each
    /// placement costs one gallop, `O(log n)` [`IndexableAdmission::fits`]
    /// evaluations, and each slot one more failed one, so a run is
    /// `O((n + m)·log n)`. Flushes once into `sink`:
    ///
    /// * `ff.*` in *reference-scan units*, derived from the byte-identical
    ///   placement sequence (a task placed at scan slot `s` would have cost
    ///   the reference `s + 1` checks; a failing task costs `m`) — so the
    ///   engines and [`crate::first_fit_ordered`] report identical `ff.*`
    ///   numbers for the same instance;
    /// * `engine.admission_evals`, the evaluations actually made.
    pub(crate) fn place_all<A, S>(
        &mut self,
        adm: &A,
        ffd: &mut Ffd,
        slots: &mut Vec<usize>,
        sink: &S,
    ) -> bool
    where
        A: IndexableAdmission<State = St>,
        S: MetricsSink,
    {
        let n = ffd.utils.len();
        let (utils, floor, next) = (&ffd.utils[..], &ffd.floor[..], &mut ffd.next[..]);
        for (i, link) in next.iter_mut().enumerate() {
            *link = i as u32;
        }
        slots.clear();
        slots.resize(n, UNPLACED);
        let mut evals = 0u64;
        // Every unplaced position lies in `first..end`.
        let (mut first, mut end) = (0, n);
        for (slot, (&speed, state)) in self.speeds.iter().zip(&mut self.states).enumerate() {
            first = unplaced_from(next, first);
            if first >= end {
                break;
            }
            let mut from = first;
            loop {
                from = unplaced_from(next, from);
                if from >= end {
                    break;
                }
                let room = adm.room(state, speed);
                let mut fits = |u: f64| {
                    evals += 1;
                    adm.fits(room, u)
                };
                // The first unplaced task whose floor fits: `from` itself,
                // or a later one when the last unplaced floor fits.
                let at = if fits(floor[from]) {
                    from
                } else if from + 1 == end || !fits(floor[end - 1]) {
                    break;
                } else {
                    unplaced_from(next, gallop(floor, from + 1, end - 1, &mut fits))
                };
                let u = utils[at];
                if u == floor[at] || fits(u) {
                    *state = adm.grow(state, u, speed);
                    slots[at] = slot;
                    next[at] = at as u32 + 1;
                    if at + 1 == end {
                        end = at;
                        while end > first && next[end - 1] as usize != end - 1 {
                            end -= 1;
                        }
                    }
                }
                from = at + 1;
            }
        }
        let placed = slots.iter().position(|&s| s == UNPLACED).unwrap_or(n);
        slots.truncate(placed);
        if S::ENABLED {
            // The reference scan visits slots 0..=slot, or all m and fails.
            let m = self.states.len() as u64;
            let mut checks_per_task = HistogramSnapshot::EMPTY;
            let failed = (placed < n).then_some(m);
            let scan_checks: u64 = (slots.iter().map(|&s| s as u64 + 1).chain(failed))
                .inspect(|&c| checks_per_task.record(c))
                .sum();
            checks_per_task.flush(sink, metrics::FF_CHECKS_PER_TASK);
            sink.counter_add(metrics::FF_ADMISSION_CHECKS, scan_checks);
            sink.counter_add(metrics::FF_MACHINES_VISITED, scan_checks);
            sink.counter_add(metrics::FF_PLACED, placed as u64);
            sink.counter_add(metrics::ENGINE_ADMISSION_EVALS, evals);
        }
        placed == n
    }
}

/// A [`Kernel`] with the [`MaxTree`] of its slots' residual hints: the
/// live partition of [`crate::IncrementalEngine`], which places one task
/// at a time. Every way to build one or change a state keeps the tree
/// current. It is the only code that places a single task or reads the
/// tree.
#[derive(Debug, Clone)]
pub(crate) struct IndexedKernel<St> {
    kernel: Kernel<St>,
    tree: MaxTree,
}

impl<St> IndexedKernel<St> {
    /// Index `kernel`: build the tree from its states.
    pub(crate) fn new<A: IndexableAdmission<State = St>>(adm: &A, kernel: Kernel<St>) -> Self {
        let mut indexed = IndexedKernel {
            kernel,
            tree: MaxTree::default(),
        };
        indexed.reindex(adm);
        indexed
    }

    /// The α-augmented speed of every slot, in scan order.
    pub(crate) fn speeds(&self) -> &[f64] {
        self.kernel.speeds()
    }

    /// The admission state of `slot`.
    pub(crate) fn state(&self, slot: usize) -> &St {
        self.kernel.state(slot)
    }

    /// Take the states of `run`, a kernel a batch run has just filled, as
    /// the live ones, and rebuild the tree once from them. `run` receives
    /// the replaced kernel, whose buffers the next run reuses.
    pub(crate) fn adopt<A: IndexableAdmission<State = St>>(
        &mut self,
        adm: &A,
        run: &mut Kernel<St>,
    ) {
        std::mem::swap(&mut self.kernel, run);
        self.reindex(adm);
    }

    /// Rebuild the tree from the slot states.
    fn reindex<A: IndexableAdmission<State = St>>(&mut self, adm: &A) {
        let Kernel { speeds, states } = &self.kernel;
        self.tree.rebuild(
            states
                .iter()
                .zip(speeds)
                .map(|(st, &sp)| adm.residual_hint(st, sp)),
        );
    }

    /// Give `slot` the admission state `state` (e.g. re-folded from its
    /// residents after a removal) and the matching residual hint.
    pub(crate) fn set<A: IndexableAdmission<State = St>>(
        &mut self,
        adm: &A,
        slot: usize,
        state: St,
    ) {
        let hint = adm.residual_hint(&state, self.kernel.speeds[slot]);
        self.kernel.states[slot] = state;
        self.tree.update(slot, hint);
    }

    /// Place `task` on the first slot that admits it: descend to the
    /// leftmost slot whose hint fits the task's utilization, re-check it
    /// with the exact [`AdmissionTest::admit`], and resume right of a
    /// miss. `None` (nothing changed) when no slot admits it.
    pub(crate) fn place<A>(&mut self, adm: &A, task: &Task, work: &mut Work) -> Option<usize>
    where
        A: IndexableAdmission<State = St>,
    {
        let u = task.utilization();
        let mut from = 0usize;
        loop {
            work.descents += 1;
            let slot = self.tree.first_at_least(from, u)?;
            work.exact += 1;
            let (state, speed) = (self.state(slot), self.speeds()[slot]);
            if let Some(next) = adm.admit(state, task, speed) {
                self.set(adm, slot, next);
                return Some(slot);
            }
            work.misses += 1;
            from = slot + 1;
        }
    }
}

/// Reusable indexed first-fit: same outcomes as [`crate::first_fit()`],
/// `O((n+m)·log n)` per run, zero per-call allocation after warm-up.
///
/// ```
/// use hetfeas_model::{Augmentation, Platform, TaskSet};
/// use hetfeas_partition::{first_fit, EdfAdmission, FirstFitEngine};
/// use hetfeas_robust::Gas;
///
/// let tasks = TaskSet::from_pairs([(3, 10), (4, 10), (9, 10)]).unwrap();
/// let platform = Platform::from_int_speeds([1, 2]).unwrap();
/// let mut engine = FirstFitEngine::new(EdfAdmission);
/// let indexed = engine.run(&tasks, &platform, Augmentation::NONE, &mut Gas::unlimited(), &());
/// let reference = first_fit(&tasks, &platform, Augmentation::NONE, &EdfAdmission);
/// assert_eq!(indexed, reference);
/// ```
#[derive(Debug, Clone)]
pub struct FirstFitEngine<A: IndexableAdmission> {
    admission: A,
    task_order: Vec<usize>,
    machine_order: Vec<usize>,
    /// Un-augmented speeds in machine-scan order (filled by
    /// `prepare_machines`).
    base_speeds: Vec<f64>,
    /// The sorted tasks as the run reads them (filled by `prepare_tasks`).
    ffd: Ffd,
    kernel: Kernel<A::State>,
    /// The scan slot of each task of the FFD prefix the last probe placed.
    slots: Vec<usize>,
}

impl<A: IndexableAdmission> FirstFitEngine<A> {
    /// A fresh engine for the given admission test. Workspaces grow on
    /// first use and are reused by every later call.
    pub fn new(admission: A) -> Self {
        FirstFitEngine {
            admission,
            task_order: Vec::new(),
            machine_order: Vec::new(),
            base_speeds: Vec::new(),
            ffd: Ffd::default(),
            kernel: Kernel::new(),
            slots: Vec::new(),
        }
    }

    /// The admission test this engine indexes.
    pub fn admission(&self) -> &A {
        &self.admission
    }

    /// Sort the tasks by decreasing utilization and cache them in the form
    /// the run reads: the per-task-set work that [`Self::probe`] reuses
    /// for every α.
    fn prepare_tasks<S: MetricsSink>(&mut self, tasks: &TaskSet, sink: &S) {
        tasks.order_by_decreasing_utilization_into(&mut self.task_order);
        self.ffd.load(tasks, &self.task_order, sink);
    }

    /// Sort machines by increasing speed and cache the scan-order speeds:
    /// the per-platform work that [`Self::probe`] reuses for every α.
    fn prepare_machines(&mut self, platform: &Platform) {
        platform.order_by_increasing_speed_into(&mut self.machine_order);
        self.base_speeds.clear();
        self.base_speeds
            .extend(self.machine_order.iter().map(|&m| platform.speed_f64(m)));
    }

    /// One kernel run at augmentation `alpha` over the tasks and machines
    /// the last [`Self::prepare_tasks`] and [`Self::prepare_machines`]
    /// cached, from empty machines. True when every task was placed;
    /// `self.slots` holds the placed prefix's slots.
    fn probe<S: MetricsSink>(&mut self, alpha: Augmentation, sink: &S) -> bool {
        let alpha = alpha.factor();
        let speeds = self.base_speeds.iter().map(|&s| alpha * s);
        self.kernel.reset(&self.admission, speeds, sink);
        self.kernel
            .place_all(&self.admission, &mut self.ffd, &mut self.slots, sink)
    }

    /// Indexed first-fit: a drop-in replacement for [`crate::first_fit()`]
    /// with an indexable admission — identical outcomes,
    /// `O((n+m)·log n)` per run. The run is charged `n + m + 1` ticks of
    /// `gas` up front, and a refused charge returns
    /// [`Outcome::BudgetExhausted`] with nothing placed. `sink` receives
    /// `ff.*` counts in reference-scan units (equal to
    /// [`crate::first_fit_ordered`]'s for the same instance) and
    /// `engine.admission_evals`, the work actually done (see
    /// [`crate::metrics`]).
    pub fn run<S: MetricsSink>(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        alpha: Augmentation,
        gas: &mut Gas,
        sink: &S,
    ) -> Outcome {
        let mut assignment = Assignment::new(tasks.len(), platform.len());
        if gas.tick_n(probe_gas(tasks.len(), platform.len())).is_err() {
            return Outcome::BudgetExhausted {
                partial: assignment,
            };
        }
        self.prepare_tasks(tasks, sink);
        self.prepare_machines(platform);
        let feasible = self.probe(alpha, sink);
        for (&ti, &slot) in self.task_order.iter().zip(&self.slots) {
            assignment.assign(ti, self.machine_order[slot]);
        }
        match (!feasible).then(|| self.task_order[self.slots.len()]) {
            None => Outcome::Feasible(assignment),
            Some(ti) => Outcome::Infeasible(FailureWitness {
                failing_task: ti,
                failing_utilization: tasks[ti].utilization(),
                partial: assignment,
            }),
        }
    }

    /// Sort-once α-search: smallest augmentation (within `tol`) in
    /// `[1, hi]` at which the test accepts `tasks`, or `None` if even `hi`
    /// does not suffice — the engine counterpart of
    /// [`crate::bisect_alpha`].
    ///
    /// The sorts run once (not once per probe) and every probe reuses the
    /// engine's workspaces and builds no assignment. The search probes
    /// exactly the reference bisection's sequence — `1`, `hi`, then
    /// midpoints — and each probe's verdict is byte-identical to the
    /// scan's, so the answer equals [`crate::min_feasible_alpha`] on every
    /// input, including the rare ones where first-fit's acceptance is not
    /// monotone in α.
    ///
    /// Far from α\* a probe's verdict is provable without a run: one pass
    /// over the task order yields the total utilization `U` and
    /// `G = max_k (w_1 + … + w_{k−1} + m·w_k)`, and first-fit at α places
    /// every task when `G ≤ φ·α·S·(1 − δ)` and fails when
    /// `U > (α·S·(1 + 2·EPS) + m·EPS)·(1 + δ)` (`S` the total speed, φ the
    /// admission's [`IndexableAdmission::UTILIZATION_FLOOR`], δ a rounding
    /// margin; the proofs are on the private `ProbeBounds`). A bound
    /// answers a probe only with that probe's own first-fit verdict, so
    /// the sequence, the verdicts and the answer stay the reference's.
    ///
    /// Each kernel run is charged `n + m + 1` ticks of `gas` and each
    /// bounded probe one, so a wall-clock or ops limit stops the search
    /// with `Err(Exhaustion)` (distinct from the in-band `Ok(None)` "even
    /// `hi` fails"). Every probe adds one to `alpha.probes` in `sink`, a
    /// kernel run its own `ff.*`/`engine.*` counts, and each bisection
    /// halving adds one to `alpha.bisect_iters` — the reference
    /// bisection's counts; `alpha.probes_bounded` counts the probes the
    /// bounds answered. Invalid searches (`hi` below 1 or non-finite,
    /// `tol` non-positive or non-finite) return `Ok(None)`.
    pub fn min_feasible_alpha<S: MetricsSink>(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        hi: f64,
        tol: f64,
        gas: &mut Gas,
        sink: &S,
    ) -> Result<Option<f64>, Exhaustion> {
        if !hi.is_finite() || hi < 1.0 || !tol.is_finite() || tol <= 0.0 {
            return Ok(None);
        }
        self.prepare_tasks(tasks, sink);
        self.prepare_machines(platform);
        let cost = probe_gas(tasks.len(), platform.len());
        let bounds = ProbeBounds::new(A::UTILIZATION_FLOOR, self.ffd.utils(), &self.base_speeds);
        let mut bounded = 0u64;
        let found = bisection(hi, tol, sink, |alpha| {
            if let Some(verdict) = bounds.and_then(|b| b.verdict(alpha.factor())) {
                gas.tick()?;
                bounded += 1;
                return Ok(verdict);
            }
            gas.tick_n(cost)?;
            Ok(self.probe(alpha, sink))
        });
        if S::ENABLED {
            sink.counter_add(metrics::ALPHA_PROBES_BOUNDED, bounded);
        }
        found
    }
}

/// Largest `n + m` that [`ProbeBounds`] answers for: the floors φ hold
/// for machines of up to `2^20` tasks, and the margin δ stays far below 1.
const BOUNDED_SIZE: usize = 1 << 20;

/// The first-fit verdicts an α-search settles without a kernel run,
/// from one pass over the task order (the argument behind Theorems
/// I.1–I.4, made exact for f64).
///
/// Notation: tasks in first-fit order with f64 utilizations
/// `w_1 ≥ … ≥ w_n`, machines with f64 base speeds `s_j` (exact sum `S`,
/// f64 fold `S_f`) and augmented speeds `σ_j = fl(α·s_j)`, within
/// `1 ± u` of `α·s_j` for `u = 2^-53`; `γ_t = t·u/(1 − t·u)`, `W_k` the
/// exact sum `w_1 + … + w_k`, and `δ = 8·(n + m)·f64::EPSILON =
/// 16·(n + m)·u`. A fold of `t` non-negative f64 terms is within a
/// factor `1 ± γ_{t−1}` of their exact sum. Both bounds need
/// `n + m ≤ 2^20`.
///
/// **Feasible** when `G ≤ α·fl(φ·S_f·(1 − δ))`, `G` the f64 max over `k`
/// of `P_{k−1} + m·w_k` (`P` the running f64 prefix sum). Suppose
/// first-fit failed on task `k`. The tasks before it are placed, so the
/// exact loads `L_j` sum to `W_{k−1}`, and every machine rejected `w_k`; by
/// the contract of [`IndexableAdmission::UTILIZATION_FLOOR`]
/// `L_j + w_k > φ·σ_j·(1 − γ_{n+1}) ≥ φ·α·s_j·(1 − γ_{n+2})`. Summing,
/// `W_{k−1} + m·w_k > φ·α·S·(1 − γ_{n+2})`, while the pass computed
/// `G ≥ (W_{k−1} + m·w_k)·(1 − γ_{n+1})` and the test's right side is
/// at most `φ·α·S·(1 − δ)·(1 + γ_{m+4})`. Together they need
/// `(1 − δ)(1 + γ_{m+4}) > (1 − γ_{n+1})(1 − γ_{n+2})`, i.e.
/// `16·(n + m) < 2n + m + 7` up to second-order terms: impossible.
///
/// **Infeasible** when `U > fl((α·fl(S_f·(1 + 2·EPS)) + m·EPS)·(1 + δ))`,
/// `U = P_n`. Suppose every task was placed. Each machine accepted its
/// last resident, so by the contract `L_j ≤ (σ_j·(1 + 2·EPS) + EPS)·(1 +
/// γ_{6n+4})`; summing, `W_n ≤ (α·S·(1 + 2·EPS) + m·EPS)·(1 + γ_{6n+5})`,
/// and `U ≤ W_n·(1 + γ_n)`, while the threshold is at least
/// `(α·S·(1 + 2·EPS) + m·EPS)·(1 + δ)·(1 − γ_{m+6})`. Together they need
/// `16·(n + m) < 7n + m + 11` up to second-order terms: impossible.
///
/// Either bound is a proof of the probe's own verdict, so the bisection
/// sees the verdicts a run would give, also where acceptance is not
/// monotone in α.
#[derive(Debug, Clone, Copy)]
struct ProbeBounds {
    /// `G = max_k (w_1 + … + w_{k−1} + m·w_k)`.
    g: f64,
    /// `U = w_1 + … + w_n`.
    u: f64,
    /// `φ·S·(1 − δ)`: every task fits at α when `G ≤ α·fits`.
    fits: f64,
    /// `S·(1 + 2·EPS)`, `m·EPS` and `1 + δ`: some task fails at α when
    /// `U > (α·overload_speed + overload_pad)·overload_margin`.
    overload_speed: f64,
    overload_pad: f64,
    overload_margin: f64,
}

impl ProbeBounds {
    /// One pass over the f64 task utilizations `utils`, in first-fit
    /// order, on machines of base `speeds`, for an admission of
    /// utilization floor `floor`; `None` when `n + m` exceeds
    /// [`BOUNDED_SIZE`].
    fn new(floor: f64, utils: &[f64], speeds: &[f64]) -> Option<Self> {
        let (n, m) = (utils.len(), speeds.len());
        if n + m > BOUNDED_SIZE {
            return None;
        }
        let machines = m as f64;
        let (mut g, mut u) = (0.0f64, 0.0f64);
        for &w in utils {
            g = g.max(u + machines * w);
            u += w;
        }
        let total_speed = speeds.iter().fold(0.0, |s, &x| s + x);
        let delta = 8.0 * (n + m) as f64 * f64::EPSILON;
        Some(ProbeBounds {
            g,
            u,
            fits: floor * total_speed * (1.0 - delta),
            overload_speed: total_speed * (1.0 + 2.0 * EPS),
            overload_pad: machines * EPS,
            overload_margin: 1.0 + delta,
        })
    }

    /// First-fit's verdict at augmentation `alpha` when a bound proves
    /// it: `Some(true)` every task fits, `Some(false)` one fails.
    fn verdict(&self, alpha: f64) -> Option<bool> {
        if self.g <= alpha * self.fits {
            Some(true)
        } else if self.u > (alpha * self.overload_speed + self.overload_pad) * self.overload_margin
        {
            Some(false)
        } else {
            None
        }
    }
}

/// Gas charged per first-fit run under a budget: a run is
/// `O((n+m)·log n)` work, so it ticks `n + m + 1`.
pub(crate) fn probe_gas(n: usize, m: usize) -> u64 {
    (n + m) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::first_fit::{first_fit, min_feasible_alpha};
    use hetfeas_model::rng::{Gen, Rng};
    use hetfeas_model::Task;

    fn platform(speeds: &[u64]) -> Platform {
        Platform::from_int_speeds(speeds.iter().copied()).unwrap()
    }

    /// [`FirstFitEngine::run`] with unlimited gas and no metrics.
    fn run<A: IndexableAdmission>(
        e: &mut FirstFitEngine<A>,
        ts: &TaskSet,
        p: &Platform,
        alpha: Augmentation,
    ) -> Outcome {
        e.run(ts, p, alpha, &mut Gas::unlimited(), &())
    }

    /// [`FirstFitEngine::min_feasible_alpha`] with unlimited gas and no
    /// metrics.
    fn min_alpha<A: IndexableAdmission>(
        e: &mut FirstFitEngine<A>,
        ts: &TaskSet,
        p: &Platform,
        hi: f64,
        tol: f64,
    ) -> Option<f64> {
        e.min_feasible_alpha(ts, p, hi, tol, &mut Gas::unlimited(), &())
            .expect("unlimited gas cannot exhaust")
    }

    #[test]
    fn maxtree_basic_queries() {
        let mut t = MaxTree::default();
        t.rebuild([0.5, 0.2, 0.9, 0.4, 0.9].into_iter());
        assert_eq!(t.first_at_least(0, 0.1), Some(0));
        assert_eq!(t.first_at_least(0, 0.6), Some(2));
        assert_eq!(t.first_at_least(3, 0.6), Some(4));
        assert_eq!(t.first_at_least(0, 0.95), None);
        assert_eq!(t.first_at_least(5, 0.0), None);
        t.update(2, 0.0);
        assert_eq!(t.first_at_least(0, 0.6), Some(4));
        t.update(0, 1.5);
        assert_eq!(t.first_at_least(0, 1.0), Some(0));
        assert_eq!(t.first_at_least(1, 1.0), None);
    }

    /// Random values, point updates (some leaving a group's max as it
    /// was, so the repair stops early) and queries from every position,
    /// against a linear scan, at sizes from one group to four levels.
    #[test]
    fn maxtree_matches_a_linear_scan() {
        let mut rng = Rng::new(0x7EE5_0F08_0000_0001);
        let mut t = MaxTree::default();
        for m in [1usize, 7, 8, 9, 63, 64, 65, 511, 512, 513, 700] {
            let draw = |rng: &mut Rng| rng.below(16) as f64 / 4.0;
            let mut vals: Vec<f64> = (0..m).map(|_| draw(&mut rng)).collect();
            t.rebuild(vals.iter().copied());
            for _ in 0..200 {
                let i = rng.below(m as u64) as usize;
                vals[i] = draw(&mut rng);
                t.update(i, vals[i]);
                let threshold = draw(&mut rng) + 0.125;
                let from = rng.below(m as u64 + 2) as usize;
                let scan = (from..m).find(|&j| vals[j] >= threshold);
                let mut groups = 0;
                let got = t.first_at_least_counting(from, threshold, &mut groups);
                assert_eq!(got, scan, "m = {m}, from {from}, threshold {threshold}");
                let levels = t.levels as u64;
                assert!(groups <= 2 * levels, "m = {m}: {groups} groups read");
                if from == 0 && got.is_some() {
                    assert_eq!(groups, levels, "m = {m}: a query from slot 0");
                }
            }
        }
    }

    #[test]
    fn maxtree_single_leaf() {
        let mut t = MaxTree::default();
        t.rebuild([0.3].into_iter());
        assert_eq!(t.first_at_least(0, 0.3), Some(0));
        assert_eq!(t.first_at_least(0, 0.31), None);
        assert_eq!(t.first_at_least(1, 0.0), None);
    }

    #[test]
    fn maxtree_rebuild_shrinks_and_grows() {
        let mut t = MaxTree::default();
        t.rebuild([1.0; 9].into_iter());
        assert_eq!(t.first_at_least(8, 1.0), Some(8));
        t.rebuild([0.5, 0.7].into_iter());
        assert_eq!(t.first_at_least(0, 0.6), Some(1));
        assert_eq!(t.first_at_least(2, 0.0), None);
    }

    #[test]
    fn engine_matches_reference_on_basic_cases() {
        let tasks = TaskSet::from_pairs([(9, 10), (4, 10), (3, 10)]).unwrap();
        let p = platform(&[1, 2]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        assert_eq!(
            run(&mut e, &tasks, &p, Augmentation::NONE),
            first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission)
        );
        // Infeasible case: identical witness.
        let heavy = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p2 = platform(&[1, 1]);
        assert_eq!(
            run(&mut e, &heavy, &p2, Augmentation::NONE),
            first_fit(&heavy, &p2, Augmentation::NONE, &EdfAdmission)
        );
        assert_eq!(
            run(&mut e, &heavy, &p2, Augmentation::EDF_VS_PARTITIONED),
            first_fit(&heavy, &p2, Augmentation::EDF_VS_PARTITIONED, &EdfAdmission)
        );
    }

    /// Wcets and periods above 2^53 round on their way to f64, so the f64
    /// utilizations can invert the exact FFD order: `a = (2^53+1)/(2^53+2)`
    /// sorts before `b = (2^53−1)/2^53` but rounds to the f64 just below
    /// `b`'s. At the α found below, the slow machine's padded capacity is
    /// exactly `fl(a)`, so it takes `a` but not `b`, and rejects the heavier
    /// third task `d`. A search over the raw utilizations would see `b`
    /// last, find that the slow machine rejects it and stop, skipping
    /// `a`; the running minimum keeps the search on `a`.
    #[test]
    fn utilizations_that_round_out_of_order_keep_the_reference_packing() {
        use hetfeas_model::{Machine, Ratio};
        let big = 1u64 << 53;
        let d = Task::implicit(1, 1).unwrap();
        let a = Task::implicit(big + 1, big + 2).unwrap();
        let b = Task::implicit(big - 1, big).unwrap();
        assert!(a.cmp_utilization(&b.utilization_ratio()).is_gt());
        assert!(a.utilization() < b.utilization());
        let tasks = TaskSet::new(vec![b, d, a]);
        let speeds = [Ratio::new(1, 2), Ratio::from_integer(2)];
        let p = Platform::new(speeds.map(|s| Machine::new(s).unwrap()).to_vec()).unwrap();
        // The α at which the slow machine, empty, takes `a` and not `b`.
        let alone = |alpha: f64, t: &Task| EdfAdmission.admit(&0.0, t, alpha * 0.5).is_some();
        let mut alpha = 2.0 * (a.utilization() - EPS);
        for _ in 0..64 {
            let step = if alone(alpha, &a) { -1 } else { 1 };
            if alone(alpha, &a) && !alone(alpha, &b) {
                break;
            }
            alpha = f64::from_bits(alpha.to_bits().wrapping_add_signed(step));
        }
        assert!(alone(alpha, &a) && !alone(alpha, &b) && !alone(alpha, &d));
        let aug = Augmentation::new(alpha).unwrap();
        let reference = first_fit(&tasks, &p, aug, &EdfAdmission);
        assert_eq!(
            reference.assignment().unwrap().machine_of(2),
            Some(0),
            "the scan puts `a` on the slow machine"
        );
        let mut edf = FirstFitEngine::new(EdfAdmission);
        assert_eq!(run(&mut edf, &tasks, &p, aug), reference);
        let mut rms = FirstFitEngine::new(RmsLlAdmission);
        assert_eq!(
            run(&mut rms, &tasks, &p, aug),
            first_fit(&tasks, &p, aug, &RmsLlAdmission)
        );
    }

    #[test]
    fn engine_empty_taskset_is_feasible() {
        let mut e = FirstFitEngine::new(EdfAdmission);
        let out = run(
            &mut e,
            &TaskSet::empty(),
            &platform(&[1]),
            Augmentation::NONE,
        );
        assert!(out.is_feasible());
        assert!(out.assignment().unwrap().is_complete());
    }

    #[test]
    fn engine_reuse_across_instances_is_clean() {
        // A big instance followed by a small one must not leak state.
        let mut e = FirstFitEngine::new(EdfAdmission);
        let big = TaskSet::from_pairs((0..40).map(|_| (1u64, 10u64))).unwrap();
        let p_big = platform(&[1, 2, 3, 4, 5, 6, 7, 8]);
        run(&mut e, &big, &p_big, Augmentation::NONE);
        let small = TaskSet::from_pairs([(1, 2)]).unwrap();
        let p_small = platform(&[4, 1]);
        let out = run(&mut e, &small, &p_small, Augmentation::NONE);
        assert_eq!(out.assignment().unwrap().machine_of(0), Some(1));
    }

    fn random_instance(rng: &mut Rng, max_n: u64, max_m: u64) -> (TaskSet, Platform) {
        let n = rng.below(max_n) as usize;
        let m = 1 + rng.below(max_m) as usize;
        let periods = [10u64, 20, 25, 40, 50, 100];
        let tasks: TaskSet = (0..n)
            .map(|_| {
                let p = periods[rng.below(6) as usize];
                Task::implicit(1 + rng.below(60), p).unwrap()
            })
            .collect();
        let speeds: Vec<u64> = (0..m).map(|_| 1 + rng.below(6)).collect();
        (tasks, Platform::from_int_speeds(speeds).unwrap())
    }

    /// 300-case randomized equivalence sweep over EDF, RMS-LL and
    /// hyperbolic admissions at several α — a dependency-free mirror of
    /// the proptest suite in `tests/prop_engine.rs`.
    #[test]
    fn engine_equals_reference_on_random_instances() {
        let mut rng = Rng::new(0x9E37_79B9_7F4A_7C15);
        let alphas = [1.0, 1.3, 2.0, 3.0];
        let mut edf = FirstFitEngine::new(EdfAdmission);
        let mut rms = FirstFitEngine::new(RmsLlAdmission);
        let mut hyp = FirstFitEngine::new(RmsHyperbolicAdmission);
        for case in 0..300 {
            let (ts, p) = random_instance(&mut rng, 14, 4);
            for &a in &alphas {
                let aug = Augmentation::new(a).unwrap();
                assert_eq!(
                    run(&mut edf, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &EdfAdmission),
                    "EDF mismatch (case {case}, α={a}): {ts} on {p}"
                );
                assert_eq!(
                    run(&mut rms, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &RmsLlAdmission),
                    "RMS-LL mismatch (case {case}, α={a}): {ts} on {p}"
                );
                assert_eq!(
                    run(&mut hyp, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &RmsHyperbolicAdmission),
                    "hyperbolic mismatch (case {case}, α={a}): {ts} on {p}"
                );
            }
        }
    }

    /// Platforms wide enough for three tree levels and ragged last groups
    /// (m up to 150, against `FANOUT` = 8): group boundaries, `-∞` padding
    /// and the climb/descend paths all get exercised.
    #[test]
    fn engine_equals_reference_on_wide_platforms() {
        let mut rng = Rng::new(0xBADC_0FFE_E0DD_F00D);
        let mut edf = FirstFitEngine::new(EdfAdmission);
        let mut rms = FirstFitEngine::new(RmsLlAdmission);
        let mut hyp = FirstFitEngine::new(RmsHyperbolicAdmission);
        for case in 0..40 {
            let (ts, p) = random_instance(&mut rng, 120, 150);
            for &a in &[1.0, 1.7] {
                let aug = Augmentation::new(a).unwrap();
                let (n, m) = (ts.len(), p.len());
                assert_eq!(
                    run(&mut edf, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &EdfAdmission),
                    "EDF case {case}, α={a}, n={n}, m={m}"
                );
                assert_eq!(
                    run(&mut rms, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &RmsLlAdmission),
                    "RMS-LL case {case}, α={a}, n={n}, m={m}"
                );
                assert_eq!(
                    run(&mut hyp, &ts, &p, aug),
                    first_fit(&ts, &p, aug, &RmsHyperbolicAdmission),
                    "hyperbolic case {case}, α={a}, n={n}, m={m}"
                );
            }
        }
    }

    /// The engine α-search's answer is the reference bisection's, and a
    /// one-sided certificate: feasible at α*, infeasible at α* − 2·tol
    /// (unless α* = 1).
    fn assert_alpha_certificates<A: IndexableAdmission + Copy>(admission: A, seed: u64) {
        let tol = 1e-6;
        let mut rng = Rng::new(seed);
        let mut engine = FirstFitEngine::new(admission);
        for case in 0..100 {
            let (ts, p) = random_instance(&mut rng, 14, 4);
            let warm = min_alpha(&mut engine, &ts, &p, 8.0, tol);
            let cold = min_feasible_alpha(&ts, &p, &admission, 8.0, tol);
            let name = admission.name();
            assert_eq!(warm, cold, "{name} case {case}: {ts} / {p}");
            match warm {
                Some(a) => {
                    let at = Augmentation::new(a).unwrap();
                    assert!(
                        run(&mut engine, &ts, &p, at).is_feasible(),
                        "{name} case {case}: α* = {a} infeasible on {ts} / {p}"
                    );
                    if a > 1.0 + 2.0 * tol {
                        let below = Augmentation::new(a - 2.0 * tol).unwrap();
                        assert!(
                            !run(&mut engine, &ts, &p, below).is_feasible(),
                            "{name} case {case}: α* − 2·tol still feasible on {ts} / {p}"
                        );
                    }
                }
                None => assert!(
                    !run(&mut engine, &ts, &p, Augmentation::new(8.0).unwrap()).is_feasible()
                ),
            }
        }
    }

    #[test]
    fn engine_alpha_is_a_certificate_for_every_indexable_admission() {
        assert_alpha_certificates(EdfAdmission, 0x0123_4567_89AB_CDEF);
        assert_alpha_certificates(RmsLlAdmission, 0xFEED_FACE_DEAD_BEEF);
        assert_alpha_certificates(RmsHyperbolicAdmission, 0x5EED_0F0A_1FA5_EA12);
    }

    #[test]
    fn budgeted_run_refuses_without_placing() {
        use hetfeas_robust::Budget;
        let tasks = TaskSet::from_pairs([(3, 10), (4, 10), (9, 10)]).unwrap();
        let p = platform(&[1, 2]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        // n + m + 1 = 6 ops pays for exactly one run.
        let mut gas = Budget::ops(6).gas();
        assert_eq!(
            e.run(&tasks, &p, Augmentation::NONE, &mut gas, &()),
            first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission)
        );
        match e.run(&tasks, &p, Augmentation::NONE, &mut gas, &()) {
            Outcome::BudgetExhausted { partial } => assert_eq!(partial.assigned_count(), 0),
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    /// The engine's `ff.*` counters are *scan-equivalent*: derived from the
    /// byte-identical placement sequence, they must equal the reference
    /// scan's actual counts exactly, and its `ff.checks_per_task` histogram
    /// the scan's bucket for bucket — while the engine's own exact checks
    /// never exceed them (that is the point of the index).
    #[test]
    fn engine_counters_match_reference_scan() {
        use crate::first_fit::{counted_first_fit, ScanStats};
        use hetfeas_obs::MemorySink;
        let mut rng = Rng::new(0x1234_5678_9ABC_DEF0);
        let mut e = FirstFitEngine::new(EdfAdmission);
        let mut rms = FirstFitEngine::new(RmsLlAdmission);
        for case in 0..200 {
            let (ts, p) = random_instance(&mut rng, 14, 4);
            for &a in &[1.0, 1.5, 2.0] {
                let aug = Augmentation::new(a).unwrap();
                for admissible in [true, false] {
                    let (sink, gas) = (MemorySink::new(), &mut Gas::unlimited());
                    let (out, reference, stats) = if admissible {
                        let out = e.run(&ts, &p, aug, gas, &sink);
                        let (r, s) = counted_first_fit(&ts, &p, aug, &EdfAdmission);
                        (out, r, s)
                    } else {
                        let out = rms.run(&ts, &p, aug, gas, &sink);
                        let (r, s) = counted_first_fit(&ts, &p, aug, &RmsLlAdmission);
                        (out, r, s)
                    };
                    assert_eq!(out, reference, "outcome mismatch (case {case}, α={a})");
                    // The counters, and the checks-per-task histogram
                    // bucket for bucket.
                    assert_eq!(
                        ScanStats::from_sink(&sink),
                        stats,
                        "counter mismatch (case {case}, α={a}): {ts} on {p}"
                    );
                    // Engine work: each task placed (a failed run goes on
                    // placing the tasks after its failing one) costs at
                    // most one gallop plus its first and last probes, and
                    // each slot two evaluations to find it full.
                    let (n, m) = (ts.len() as u64, p.len() as u64);
                    let bits = u64::from(u64::BITS - n.leading_zeros());
                    let evals = sink.counter(metrics::ENGINE_ADMISSION_EVALS);
                    assert!(
                        evals <= n * (2 * bits + 2) + 2 * m,
                        "{evals} evaluations for {n} tasks on {m} machines (case {case}, α={a})"
                    );
                    // One histogram sample per task considered.
                    let considered = stats.placed + u64::from(!out.is_feasible());
                    assert_eq!(
                        sink.histogram(metrics::FF_CHECKS_PER_TASK)
                            .map_or(0, |h| h.count()),
                        considered
                    );
                }
            }
        }
    }

    #[test]
    fn engine_alpha_search_counts_probes() {
        use hetfeas_obs::MemorySink;
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        let sink = MemorySink::new();
        let a = e
            .min_feasible_alpha(&tasks, &p, 4.0, 1e-6, &mut Gas::unlimited(), &sink)
            .unwrap()
            .unwrap();
        assert!((a - 1.6).abs() < 1e-5);
        let probes = sink.counter(metrics::ALPHA_PROBES);
        let iters = sink.counter(metrics::ALPHA_BISECT_ITERS);
        // α = 1 and α = hi probes + one probe per bisect iter.
        assert_eq!(probes, 2 + iters);
        assert!(iters >= 1);
        // The reference bisection counts the same probes.
        let cold = MemorySink::new();
        let gas = &mut Gas::unlimited();
        crate::first_fit::bisect_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6, gas, &cold).unwrap();
        assert_eq!(cold.counter(metrics::ALPHA_PROBES), probes);
    }

    #[test]
    fn engine_workspace_allocations_zero_at_steady_state() {
        use hetfeas_obs::MemorySink;
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        let warmup = MemorySink::new();
        e.prepare_tasks(&tasks, &warmup);
        e.prepare_machines(&p);
        e.probe(Augmentation::NONE, &warmup);
        assert!(warmup.counter(metrics::FF_WORKSPACE_ALLOCS) > 0);
        let steady = MemorySink::new();
        for a in [1.0, 1.5, 1.6, 2.0, 3.0] {
            e.probe(Augmentation::new(a).unwrap(), &steady);
        }
        assert_eq!(steady.counter(metrics::FF_WORKSPACE_ALLOCS), 0);
    }

    #[test]
    fn engine_handles_exact_boundary_loads() {
        // Loads that land exactly on capacity exercise the EPS padding and
        // the hint slack together.
        let tasks = TaskSet::from_pairs([(1, 2), (1, 2), (1, 2), (1, 2)]).unwrap();
        let p = platform(&[1, 1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        let out = run(&mut e, &tasks, &p, Augmentation::NONE);
        assert_eq!(
            out,
            first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission)
        );
        assert!(out.is_feasible());
    }

    #[test]
    fn warm_probe_reuses_sorts() {
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        e.prepare_tasks(&tasks, &());
        e.prepare_machines(&p);
        assert!(!e.probe(Augmentation::NONE, &()));
        assert!(e.probe(Augmentation::new(1.6).unwrap(), &()));
        assert!(!e.probe(Augmentation::new(1.59).unwrap(), &()));
    }

    #[test]
    fn engine_min_alpha_matches_bisection() {
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        let warm = min_alpha(&mut e, &tasks, &p, 4.0, 1e-6).unwrap();
        let cold = min_feasible_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6).unwrap();
        // Same probe sequence as the reference bisection, same threshold.
        assert!((warm - 1.6).abs() < 1e-5, "warm α* = {warm}");
        assert!((warm - cold).abs() < 2e-6, "warm {warm} vs cold {cold}");
        // Feasible at 1 → exactly 1.
        let light = TaskSet::from_pairs([(1, 10)]).unwrap();
        assert_eq!(min_alpha(&mut e, &light, &p, 4.0, 1e-6), Some(1.0));
        // Impossible even at hi.
        let heavy = TaskSet::from_pairs([(100, 10)]).unwrap();
        assert_eq!(min_alpha(&mut e, &heavy, &p, 2.0, 1e-6), None);
    }

    #[test]
    fn engine_min_alpha_rejects_invalid_searches() {
        let tasks = TaskSet::from_pairs([(8, 10)]).unwrap();
        let p = platform(&[1]);
        let mut e = FirstFitEngine::new(EdfAdmission);
        assert_eq!(min_alpha(&mut e, &tasks, &p, 0.5, 1e-6), None);
        assert_eq!(min_alpha(&mut e, &tasks, &p, f64::NAN, 1e-6), None);
        assert_eq!(min_alpha(&mut e, &tasks, &p, 4.0, f64::NAN), None);
        assert_eq!(min_alpha(&mut e, &tasks, &p, 4.0, 0.0), None);
        assert_eq!(min_alpha(&mut e, &tasks, &p, 4.0, -1.0), None);
        assert_eq!(min_alpha(&mut e, &tasks, &p, f64::INFINITY, 1e-6), None);
    }

    #[test]
    fn residual_hints_never_undershoot_admissible_tasks() {
        // Directly stress the IndexableAdmission contract on random states.
        let mut rng = Rng::new(0xDEAD_BEEF_CAFE_1234);
        let periods = [10u64, 20, 25, 40, 50, 100];
        for _ in 0..2000 {
            let speed = 1.0 + rng.below(60) as f64 / 10.0;
            let task = Task::implicit(1 + rng.below(60), periods[rng.below(6) as usize]).unwrap();
            // Build a random RMS-LL state by stuffing tasks.
            let rms = RmsLlAdmission;
            let mut st = rms.empty_state();
            for _ in 0..rng.below(5) {
                let filler =
                    Task::implicit(1 + rng.below(20), periods[rng.below(6) as usize]).unwrap();
                if let Some(next) = rms.admit(&st, &filler, speed) {
                    st = next;
                }
            }
            if rms.admit(&st, &task, speed).is_some() {
                assert!(
                    rms.residual_hint(&st, speed) >= task.utilization(),
                    "RMS-LL hint undershoots: {st:?} speed {speed} task {task}"
                );
            }
            let edf = EdfAdmission;
            let load = rng.below(100) as f64 / 37.0;
            if edf.admit(&load, &task, speed).is_some() {
                assert!(edf.residual_hint(&load, speed) >= task.utilization());
            }
        }
    }

    #[test]
    fn budgeted_alpha_search_agrees_and_exhausts() {
        use hetfeas_robust::Budget;
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let mut eng = FirstFitEngine::new(EdfAdmission);
        let a = eng
            .min_feasible_alpha(&tasks, &p, 4.0, 1e-6, &mut Budget::ops(10_000).gas(), &())
            .unwrap()
            .unwrap();
        let reference = min_alpha(&mut eng, &tasks, &p, 4.0, 1e-6).unwrap();
        assert!((a - reference).abs() < 1e-9, "{a} vs {reference}");
        let mut gas = Budget::ops(2).gas();
        assert_eq!(
            eng.min_feasible_alpha(&tasks, &p, 4.0, 1e-6, &mut gas, &()),
            Err(Exhaustion::Ops)
        );
    }

    /// The RMS floor φ is at most the f64 Liu–Layland bound of every task
    /// count the probe bounds cover (and that bound at most 1, which the
    /// infeasibility bound needs), and `ln 2 − φ` covers the rounding of a
    /// hyperbolic product of that many factors.
    #[test]
    fn the_rms_floor_lower_bounds_every_liu_layland_bound() {
        let floor = RmsLlAdmission::UTILIZATION_FLOOR;
        assert_eq!(floor, RmsHyperbolicAdmission::UTILIZATION_FLOOR);
        for k in 1..=BOUNDED_SIZE {
            let bound = liu_layland_bound(k);
            assert!(floor <= bound && bound <= 1.0, "k = {k}: bound {bound}");
        }
        let t = (3 * BOUNDED_SIZE + 2) as f64 * 2f64.powi(-53);
        let gamma = t / (1.0 - t);
        assert!(std::f64::consts::LN_2 - floor > gamma / (1.0 - gamma));
    }

    /// Up to 24 tasks on up to 6 machines of speed 1..=6, where about half
    /// the machines' speeds are split exactly into tasks of one period (so
    /// first-fit can fill machines exactly), plus up to 8 free tasks.
    fn full_machine_system(g: &mut Gen) -> (TaskSet, Platform) {
        let speeds = g.vec(1..7, |g| g.range(1u64..=6));
        let mut tasks = Vec::new();
        for &s in &speeds {
            if g.rng().chance(0.5) {
                let p = g.pick(&[2u64, 3, 4, 10, 25]);
                let mut left = s * p;
                while left > 0 && tasks.len() < 16 {
                    let c = g.range(1..=left.min(p));
                    tasks.push(Task::implicit(c, p).unwrap());
                    left -= c;
                }
            }
        }
        let periods = [10u64, 20, 25, 40, 50, 100];
        tasks.extend(g.vec(0..9, |g| {
            Task::implicit(g.range(1u64..=60), g.pick(&periods)).unwrap()
        }));
        (
            TaskSet::new(tasks),
            Platform::from_int_speeds(speeds).unwrap(),
        )
    }

    /// Whenever a bound answers a probe, a first-fit run at that α gives
    /// the same verdict: α on a grid over [1, 4], at each bound's
    /// threshold (`G/(φS)` and `U/S`) and within ±1e-12 relative of it.
    /// Just above `G/(φS)` the feasible bound must answer, and just below
    /// `U/S` (when above 1) the infeasible one, so neither is vacuous.
    fn bounds_agree_with_runs<A: IndexableAdmission>(adm: A, g: &mut Gen) {
        let name = adm.name();
        let (tasks, platform) = full_machine_system(g);
        let mut engine = FirstFitEngine::new(adm);
        engine.prepare_tasks(&tasks, &());
        engine.prepare_machines(&platform);
        let bounds = ProbeBounds::new(
            A::UTILIZATION_FLOOR,
            engine.ffd.utils(),
            &engine.base_speeds,
        )
        .expect("a small system is bounded");
        let total_speed = platform.total_speed();
        let fits = bounds.g / (A::UTILIZATION_FLOOR * total_speed);
        let overloads = bounds.u / total_speed;
        let near = [fits, overloads]
            .into_iter()
            .flat_map(|t| [-1e-12, -1e-15, 0.0, 1e-15, 1e-12].map(|r| t * (1.0 + r)));
        let grid = (10..=40).map(|k| k as f64 / 10.0);
        for alpha in grid.chain(near).filter(|&a| a >= 1.0) {
            if let Some(verdict) = bounds.verdict(alpha) {
                let at = Augmentation::new(alpha).unwrap();
                let feasible = run(&mut engine, &tasks, &platform, at).is_feasible();
                assert_eq!(
                    verdict, feasible,
                    "{name} at α = {alpha}: the bound says {verdict}, a run {feasible} \
                     on {tasks} / {platform}"
                );
            }
        }
        let above = fits.max(1.0) * (1.0 + 1e-6);
        assert_eq!(bounds.verdict(above), Some(true), "{name} at α = {above}");
        let below = overloads * (1.0 - 1e-6);
        if below >= 1.0 {
            assert_eq!(bounds.verdict(below), Some(false), "{name} at α = {below}");
        }
    }

    hetfeas_model::properties! {
        fn edf_bounds_agree_with_runs(g) {
            bounds_agree_with_runs(EdfAdmission, g);
        }

        fn rms_ll_bounds_agree_with_runs(g) {
            bounds_agree_with_runs(RmsLlAdmission, g);
        }

        fn hyperbolic_bounds_agree_with_runs(g) {
            bounds_agree_with_runs(RmsHyperbolicAdmission, g);
        }
    }

    /// The bounds answer only probes and never change an answer: the
    /// probe count is the reference bisection's, some probes are bounded,
    /// and α* equals the reference's bit for bit.
    #[test]
    fn bounded_probes_keep_the_reference_answer() {
        use hetfeas_obs::MemorySink;
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let sink = MemorySink::new();
        let warm = FirstFitEngine::new(EdfAdmission)
            .min_feasible_alpha(&tasks, &p, 4.0, 1e-6, &mut Gas::unlimited(), &sink)
            .unwrap();
        let cold = MemorySink::new();
        let gas = &mut Gas::unlimited();
        let reference =
            crate::first_fit::bisect_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6, gas, &cold)
                .unwrap();
        assert_eq!(warm, reference);
        let probes = sink.counter(metrics::ALPHA_PROBES);
        assert_eq!(probes, cold.counter(metrics::ALPHA_PROBES));
        let bounded = sink.counter(metrics::ALPHA_PROBES_BOUNDED);
        assert!(bounded > 0 && bounded < probes, "{bounded} of {probes}");
        assert_eq!(cold.counter(metrics::ALPHA_PROBES_BOUNDED), 0);
    }
}
