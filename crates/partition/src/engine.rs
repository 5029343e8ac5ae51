//! Indexed first-fit engine: the §III test in `O((n+m)·log m)`.
//!
//! The reference [`crate::first_fit()`] scans machines linearly per task —
//! `O(n·m)` admission checks in the worst case. Every higher layer (the
//! α-bisection, the E1–E17 sweeps, the benches) calls it thousands of
//! times, so [`FirstFitEngine`] replaces the scan with a max-segment-tree
//! over per-machine *residual capacities*:
//!
//! * EDF: the residual of machine `j` is `α·s_j − load_j`;
//! * RMS-LL: it is `bound(k_j + 1)·α·s_j − load_j` where `k_j` is the
//!   number of tasks already on `j`.
//!
//! Both residuals change only on the machine that admits the task, so a
//! point update keeps the tree valid, and "first (slowest) machine that
//! admits τ" becomes a descend-left query: `O(log m)` per placement instead
//! of `O(m)`. Total: `O(n log n + m log m)` for the sorts plus
//! `O((n+m)·log m)` for the placements.
//!
//! ## Exact equivalence with the reference scan
//!
//! Tree thresholds are *hints*: each [`IndexableAdmission::residual_hint`]
//! over-approximates (by a ~1e-12 relative slack, far below [`hetfeas_model::EPS`]) the
//! largest utilization the exact [`AdmissionTest::admit`] predicate would
//! accept, and every candidate leaf is re-checked with that exact
//! predicate before placing. A rejected candidate resumes the query to its
//! right. Hence the engine admits each task on *exactly* the machine the
//! reference scan picks — outcomes (assignments, witnesses, tie-breaking)
//! are byte-identical, which `tests/prop_engine.rs` asserts. Admissions
//! whose acceptance is not a threshold on the candidate's utilization
//! (exact RTA, Kuo–Mok — they re-inspect the whole accumulated set) cannot
//! be indexed this way and stay on the linear reference path.
//!
//! The engine owns its workspaces (sort permutations, admission states,
//! the tree), so repeated calls — e.g. the probes of
//! [`FirstFitEngine::min_feasible_alpha`] — amortize all allocation, and
//! that search sorts once for all its probes.

use crate::admission::{
    admit_rhs, AdmissionTest, EdfAdmission, HyperbolicState, RmsHyperbolicAdmission,
    RmsLlAdmission, RmsLlState,
};
use crate::assignment::{Assignment, FailureWitness, Outcome};
use crate::first_fit::bisection;
use crate::metrics;
use crate::policy::PolicyKind;
use hetfeas_analysis::liu_layland_bound;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::{Exhaustion, Gas};

/// Relative slack added to residual hints so f64 rounding in
/// `capacity − load` can never make the tree skip a machine the exact
/// admission predicate would accept. ~1e-12 is ≥ 10³× the accumulated
/// rounding error of the few flops involved and ≤ 10⁻³× [`hetfeas_model::EPS`], so false
/// positives (cost: one wasted exact re-check) are vanishingly rare and
/// false negatives are impossible.
pub(crate) const HINT_SLACK: f64 = 1e-12;

#[inline]
pub(crate) fn relaxed_residual(capacity_rhs: f64, load: f64) -> f64 {
    (capacity_rhs - load) + HINT_SLACK * capacity_rhs.abs().max(load.abs()).max(1.0)
}

/// An [`AdmissionTest`] whose acceptance of a candidate task is a threshold
/// on the candidate's utilization — the property that lets a residual
/// max-tree index it.
///
/// # Contract
/// `residual_hint(state, speed)` must be ≥ the utilization of **every**
/// task that `admit(state, task, speed)` would accept (over-approximation
/// is fine: the engine re-checks candidates with the exact `admit`;
/// under-approximation would silently skip machines and is a bug).
pub trait IndexableAdmission: AdmissionTest {
    /// The policy this test implements; journals record its key.
    const POLICY: PolicyKind;

    /// Upper bound on the utilization of any task [`AdmissionTest::admit`]
    /// accepts in `state` at augmented speed `speed`.
    fn residual_hint(&self, state: &Self::State, speed: f64) -> f64;

    /// State of a machine holding exactly `tasks` (folded left-to-right
    /// with the same arithmetic as repeated [`AdmissionTest::admit`] calls)
    /// **without** acceptance checks. The incremental engine's local repair
    /// uses this after a removal, where every remaining task was already
    /// admitted — the aggregate is a plain recomputation, not a decision,
    /// so the boundary-case float drift of "subtract the leaver" can never
    /// spuriously reject a machine's own residents.
    fn fold_state<'a, I>(&self, tasks: I, speed: f64) -> Self::State
    where
        I: IntoIterator<Item = &'a Task>;
}

impl IndexableAdmission for EdfAdmission {
    const POLICY: PolicyKind = PolicyKind::Edf;

    fn residual_hint(&self, state: &f64, speed: f64) -> f64 {
        // admit: approx_le(load + u, speed), i.e. load + u ≤ admit_rhs(speed).
        relaxed_residual(admit_rhs(speed), *state)
    }

    fn fold_state<'a, I>(&self, tasks: I, _speed: f64) -> f64
    where
        I: IntoIterator<Item = &'a Task>,
    {
        tasks
            .into_iter()
            .fold(0.0, |load, t| load + t.utilization())
    }
}

impl IndexableAdmission for RmsLlAdmission {
    const POLICY: PolicyKind = PolicyKind::RmsLl;

    fn residual_hint(&self, state: &RmsLlState, speed: f64) -> f64 {
        // admit: approx_le(load + u, bound(count + 1) · speed).
        let rhs = admit_rhs(liu_layland_bound(state.count + 1) * speed);
        relaxed_residual(rhs, state.load)
    }

    fn fold_state<'a, I>(&self, tasks: I, _speed: f64) -> RmsLlState
    where
        I: IntoIterator<Item = &'a Task>,
    {
        tasks
            .into_iter()
            .fold(RmsLlState::default(), |st, t| RmsLlState {
                load: st.load + t.utilization(),
                count: st.count + 1,
            })
    }
}

impl IndexableAdmission for RmsHyperbolicAdmission {
    const POLICY: PolicyKind = PolicyKind::RmsHyp;

    fn residual_hint(&self, state: &HyperbolicState, speed: f64) -> f64 {
        // admit: approx_le(product · (u/speed + 1), 2), so
        // u ≤ speed · (rhs/product − 1) with rhs the ε-padded 2.
        let rhs = admit_rhs(2.0);
        let bound = speed * (rhs / state.product - 1.0);
        bound + HINT_SLACK * bound.abs().max(speed.abs()).max(1.0)
    }

    fn fold_state<'a, I>(&self, tasks: I, speed: f64) -> HyperbolicState
    where
        I: IntoIterator<Item = &'a Task>,
    {
        tasks.into_iter().fold(
            HyperbolicState {
                product: 1.0,
                load: 0.0,
            },
            |st, t| HyperbolicState {
                product: st.product * (t.utilization() / speed + 1.0),
                load: st.load + t.utilization(),
            },
        )
    }
}

/// Leaf values per tree leaf: the tree's leaves are *blocks* of
/// `LEAF_SPAN` contiguous values, not single values, so the final step of
/// every query is a branch-predictable linear scan over contiguous memory
/// (and the heap is `LEAF_SPAN`× smaller — three levels shorter to climb).
pub(crate) const LEAF_SPAN: usize = 8;

/// Max-segment-tree over `f64` values supporting point updates and
/// "leftmost value ≥ threshold at or after position `from`" in `O(log m)`.
///
/// Values live in one contiguous array grouped into [`LEAF_SPAN`]-sized
/// blocks; the heap indexes the per-block maxima. Queries climb/descend
/// over block maxima and resolve the final position with an in-block scan,
/// which auto-vectorizes and costs no pointer chasing.
#[derive(Debug, Clone, Default)]
pub(crate) struct MaxTree {
    /// Power-of-two number of block leaves (0 until first rebuild).
    block_leaves: usize,
    /// Raw values, padded with `-∞` to `block_leaves · LEAF_SPAN` so
    /// padding never matches a (finite-threshold) query.
    values: Vec<f64>,
    /// 1-based heap over block maxima: `node[1]` root, block `b`'s max at
    /// `node[block_leaves + b]`.
    node: Vec<f64>,
}

/// Max of one `LEAF_SPAN` block via an unrolled 4-lane reduction (the
/// shape LLVM turns into vector `max` + a horizontal reduce).
#[inline]
fn block_max(vals: &[f64]) -> f64 {
    debug_assert_eq!(vals.len(), LEAF_SPAN);
    let m0 = vals[0].max(vals[4]);
    let m1 = vals[1].max(vals[5]);
    let m2 = vals[2].max(vals[6]);
    let m3 = vals[3].max(vals[7]);
    m0.max(m1).max(m2.max(m3))
}

impl MaxTree {
    /// Reset the tree to `values`, reusing the backing allocations.
    pub(crate) fn rebuild(&mut self, values: &[f64]) {
        let blocks = values.len().div_ceil(LEAF_SPAN).max(1).next_power_of_two();
        self.block_leaves = blocks;
        self.values.clear();
        self.values.resize(blocks * LEAF_SPAN, f64::NEG_INFINITY);
        self.values[..values.len()].copy_from_slice(values);
        self.node.clear();
        self.node.resize(2 * blocks, f64::NEG_INFINITY);
        for b in 0..blocks {
            self.node[blocks + b] = block_max(&self.values[b * LEAF_SPAN..(b + 1) * LEAF_SPAN]);
        }
        for i in (1..blocks).rev() {
            self.node[i] = self.node[2 * i].max(self.node[2 * i + 1]);
        }
    }

    /// Set value `i` to `v` and repair the block max plus its ancestors.
    pub(crate) fn update(&mut self, i: usize, v: f64) {
        self.values[i] = v;
        let b = i / LEAF_SPAN;
        let mut i = self.block_leaves + b;
        self.node[i] = block_max(&self.values[b * LEAF_SPAN..(b + 1) * LEAF_SPAN]);
        while i > 1 {
            i /= 2;
            self.node[i] = self.node[2 * i].max(self.node[2 * i + 1]);
        }
    }

    /// Index of the leftmost value at position `≥ from` that is
    /// `≥ threshold`. Adds the heap nodes (block maxima) the climb and
    /// descent read to `nodes`, at most `2·log2` of the block count per
    /// query; under a sink with `ENABLED = false` the count compiles away.
    pub(crate) fn first_at_least<S: MetricsSink>(
        &self,
        from: usize,
        threshold: f64,
        nodes: &mut u64,
    ) -> Option<usize> {
        if from >= self.values.len() {
            return None;
        }
        // Finish `from`'s own block with a contiguous scan.
        let b0 = from / LEAF_SPAN;
        for (off, &v) in self.values[from..(b0 + 1) * LEAF_SPAN].iter().enumerate() {
            if v >= threshold {
                return Some(from + off);
            }
        }
        // Climb over block maxima until a right-sibling subtree can
        // contain a match.
        let mut i = self.block_leaves + b0;
        loop {
            if i == 1 {
                return None;
            }
            if i & 1 == 0 {
                if S::ENABLED {
                    *nodes += 1;
                }
                if self.node[i + 1] >= threshold {
                    i += 1;
                    break;
                }
                i += 1; // sibling exhausted too — climb from it
            }
            i /= 2;
        }
        // Descend to the leftmost qualifying block, then scan it.
        while i < self.block_leaves {
            i *= 2;
            if S::ENABLED {
                *nodes += 1;
            }
            if self.node[i] < threshold {
                i += 1;
            }
        }
        let base = (i - self.block_leaves) * LEAF_SPAN;
        self.values[base..base + LEAF_SPAN]
            .iter()
            .position(|&v| v >= threshold)
            .map(|off| base + off)
    }
}

/// Reusable indexed first-fit: same outcomes as [`crate::first_fit()`],
/// `O((n+m)·log m)` placements, zero per-call allocation after warm-up.
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
    /// Un-augmented speeds in machine-scan order (filled by `prepare`).
    base_speeds: Vec<f64>,
    /// α-augmented speeds in machine-scan order (filled per probe).
    speeds: Vec<f64>,
    states: Vec<A::State>,
    residuals: Vec<f64>,
    tree: MaxTree,
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
            speeds: Vec::new(),
            states: Vec::new(),
            residuals: Vec::new(),
            tree: MaxTree::default(),
        }
    }

    /// The admission test this engine indexes.
    pub fn admission(&self) -> &A {
        &self.admission
    }

    /// Sort tasks by decreasing utilization and machines by increasing
    /// speed, and cache the scan-order speeds: the per-instance work that
    /// [`Self::probe`] reuses for every α.
    fn prepare(&mut self, tasks: &TaskSet, platform: &Platform) {
        tasks.order_by_decreasing_utilization_into(&mut self.task_order);
        platform.order_by_increasing_speed_into(&mut self.machine_order);
        self.base_speeds.clear();
        self.base_speeds
            .extend(self.machine_order.iter().map(|&m| platform.speed_f64(m)));
    }

    /// One first-fit run at augmentation `alpha` over the orders the last
    /// [`Self::prepare`] cached for this same instance. Emits two families
    /// into `sink` (see [`crate::metrics`]):
    ///
    /// * `ff.*` in *reference-scan units*, derived from the byte-identical
    ///   placement sequence (a task placed at scan slot `s` would have cost
    ///   the reference `s + 1` checks; a failing task costs `m`) — so the
    ///   engine and [`crate::first_fit_ordered`] report identical `ff.*`
    ///   numbers for the same instance;
    /// * `engine.*` for the work actually done: tree descents, exact
    ///   re-checks, and re-verification misses.
    ///
    /// Counts accumulate in locals and flush once per probe.
    fn probe<S: MetricsSink>(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        alpha: Augmentation,
        sink: &S,
    ) -> Outcome {
        let alpha = alpha.factor();
        let caps = (
            self.speeds.capacity(),
            self.states.capacity(),
            self.residuals.capacity(),
        );
        self.speeds.clear();
        self.speeds
            .extend(self.base_speeds.iter().map(|&s| alpha * s));

        self.states.clear();
        self.states
            .extend((0..platform.len()).map(|_| self.admission.empty_state()));
        self.residuals.clear();
        self.residuals.extend(
            self.states
                .iter()
                .zip(&self.speeds)
                .map(|(st, &sp)| self.admission.residual_hint(st, sp)),
        );
        self.tree.rebuild(&self.residuals);
        if S::ENABLED {
            let grown = u64::from(self.speeds.capacity() != caps.0)
                + u64::from(self.states.capacity() != caps.1)
                + u64::from(self.residuals.capacity() != caps.2);
            if grown > 0 {
                sink.counter_add(metrics::FF_WORKSPACE_ALLOCS, grown);
            }
        }

        let mut scan_checks = 0u64;
        let mut placed_count = 0u64;
        let mut descents = 0u64;
        let mut tree_nodes = 0u64;
        let mut exact_checks = 0u64;
        let mut misses = 0u64;
        let flush = |scan_checks: u64,
                     placed: u64,
                     descents: u64,
                     tree_nodes: u64,
                     exact: u64,
                     misses: u64| {
            if S::ENABLED {
                sink.counter_add(metrics::FF_ADMISSION_CHECKS, scan_checks);
                sink.counter_add(metrics::FF_MACHINES_VISITED, scan_checks);
                sink.counter_add(metrics::FF_PLACED, placed);
                sink.counter_add(metrics::ENGINE_TREE_DESCENTS, descents);
                sink.counter_add(metrics::ENGINE_TREE_NODES, tree_nodes);
                sink.counter_add(metrics::ENGINE_EXACT_CHECKS, exact);
                sink.counter_add(metrics::ENGINE_REVERIFY_MISSES, misses);
            }
        };

        let mut assignment = Assignment::new(tasks.len(), platform.len());
        for idx in 0..self.task_order.len() {
            let ti = self.task_order[idx];
            let task = &tasks[ti];
            let u = task.utilization();
            let mut from = 0usize;
            let placed = loop {
                if S::ENABLED {
                    descents += 1;
                }
                let Some(slot) = self.tree.first_at_least::<S>(from, u, &mut tree_nodes) else {
                    break None;
                };
                // Exact re-check: the hint over-approximates, the reference
                // predicate decides.
                if S::ENABLED {
                    exact_checks += 1;
                }
                if let Some(next) =
                    self.admission
                        .admit(&self.states[slot], task, self.speeds[slot])
                {
                    let hint = self.admission.residual_hint(&next, self.speeds[slot]);
                    self.states[slot] = next;
                    self.tree.update(slot, hint);
                    break Some(slot);
                }
                if S::ENABLED {
                    misses += 1;
                }
                from = slot + 1;
            };
            match placed {
                Some(slot) => {
                    if S::ENABLED {
                        // The reference scan visits slots 0..=slot.
                        scan_checks += slot as u64 + 1;
                        sink.observe(metrics::FF_CHECKS_PER_TASK, slot as u64 + 1);
                        placed_count += 1;
                    }
                    assignment.assign(ti, self.machine_order[slot]);
                }
                None => {
                    if S::ENABLED {
                        // The reference scan visits every machine and fails.
                        scan_checks += platform.len() as u64;
                        sink.observe(metrics::FF_CHECKS_PER_TASK, platform.len() as u64);
                    }
                    flush(
                        scan_checks,
                        placed_count,
                        descents,
                        tree_nodes,
                        exact_checks,
                        misses,
                    );
                    return Outcome::Infeasible(FailureWitness {
                        failing_task: ti,
                        failing_utilization: u,
                        partial: assignment,
                    });
                }
            }
        }
        flush(
            scan_checks,
            placed_count,
            descents,
            tree_nodes,
            exact_checks,
            misses,
        );
        Outcome::Feasible(assignment)
    }

    /// Indexed first-fit: a drop-in replacement for [`crate::first_fit()`]
    /// with an indexable admission — identical outcomes,
    /// `O((n+m)·log m)` placements. The run is charged `n + m + 1` ticks of
    /// `gas` up front, and a refused charge returns
    /// [`Outcome::BudgetExhausted`] with nothing placed. `sink` receives
    /// `ff.*` counts in reference-scan units (equal to
    /// [`crate::first_fit_ordered`]'s for the same instance) and `engine.*`
    /// counts of the work actually done (see [`crate::metrics`]).
    pub fn run<S: MetricsSink>(
        &mut self,
        tasks: &TaskSet,
        platform: &Platform,
        alpha: Augmentation,
        gas: &mut Gas,
        sink: &S,
    ) -> Outcome {
        if gas.tick_n(probe_gas(tasks.len(), platform.len())).is_err() {
            return Outcome::BudgetExhausted {
                partial: Assignment::new(tasks.len(), platform.len()),
            };
        }
        self.prepare(tasks, platform);
        self.probe(tasks, platform, alpha, sink)
    }

    /// Task indices in the decreasing-utilization order the last
    /// [`Self::prepare`] computed — the order placements were made in.
    pub(crate) fn task_order(&self) -> &[usize] {
        &self.task_order
    }

    /// Sort-once α-search: smallest augmentation (within `tol`) in
    /// `[1, hi]` at which the test accepts `tasks`, or `None` if even `hi`
    /// does not suffice — the engine counterpart of
    /// [`crate::bisect_alpha`].
    ///
    /// The sorts run once (not once per probe) and every probe reuses the
    /// engine's workspaces. The search probes exactly the reference
    /// bisection's sequence — `1`, `hi`, then midpoints — and each probe's
    /// verdict is byte-identical to the scan's, so the answer equals
    /// [`crate::min_feasible_alpha`] on every input, including the rare
    /// ones where first-fit's acceptance is not monotone in α.
    ///
    /// Each probe is charged `n + m + 1` ticks of `gas`, so a wall-clock or
    /// ops limit stops the search with `Err(Exhaustion)` (distinct from the
    /// in-band `Ok(None)` "even `hi` fails"). Every probe adds one to
    /// `alpha.probes` in `sink` plus its own `ff.*`/`engine.*` counts, and
    /// each bisection halving adds one to `alpha.bisect_iters` — the
    /// reference bisection's counts. Invalid searches (`hi` below 1 or
    /// non-finite, `tol` non-positive or non-finite) return `Ok(None)`.
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
        self.prepare(tasks, platform);
        let cost = probe_gas(tasks.len(), platform.len());
        bisection(hi, tol, sink, |alpha| {
            gas.tick_n(cost)?;
            Ok(self.probe(tasks, platform, alpha, sink).is_feasible())
        })
    }
}

/// Gas charged per first-fit run under a budget: a run is
/// `O((n+m)·log m)` work, so it ticks `n + m + 1`.
pub(crate) fn probe_gas(n: usize, m: usize) -> u64 {
    (n + m) as u64 + 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::first_fit::{first_fit, min_feasible_alpha};
    use hetfeas_model::rng::Rng;
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
        t.rebuild(&[0.5, 0.2, 0.9, 0.4, 0.9]);
        assert_eq!(t.first_at_least::<()>(0, 0.1, &mut 0), Some(0));
        assert_eq!(t.first_at_least::<()>(0, 0.6, &mut 0), Some(2));
        assert_eq!(t.first_at_least::<()>(3, 0.6, &mut 0), Some(4));
        assert_eq!(t.first_at_least::<()>(0, 0.95, &mut 0), None);
        assert_eq!(t.first_at_least::<()>(5, 0.0, &mut 0), None);
        t.update(2, 0.0);
        assert_eq!(t.first_at_least::<()>(0, 0.6, &mut 0), Some(4));
        t.update(0, 1.5);
        assert_eq!(t.first_at_least::<()>(0, 1.0, &mut 0), Some(0));
        assert_eq!(t.first_at_least::<()>(1, 1.0, &mut 0), None);
    }

    #[test]
    fn maxtree_single_leaf() {
        let mut t = MaxTree::default();
        t.rebuild(&[0.3]);
        assert_eq!(t.first_at_least::<()>(0, 0.3, &mut 0), Some(0));
        assert_eq!(t.first_at_least::<()>(0, 0.31, &mut 0), None);
        assert_eq!(t.first_at_least::<()>(1, 0.0, &mut 0), None);
    }

    #[test]
    fn maxtree_rebuild_shrinks_and_grows() {
        let mut t = MaxTree::default();
        t.rebuild(&[1.0; 9]);
        assert_eq!(t.first_at_least::<()>(8, 1.0, &mut 0), Some(8));
        t.rebuild(&[0.5, 0.7]);
        assert_eq!(t.first_at_least::<()>(0, 0.6, &mut 0), Some(1));
        assert_eq!(t.first_at_least::<()>(2, 0.0, &mut 0), None);
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

    /// Platforms wide enough for several tree levels and ragged leaf
    /// blocks (m up to 150, against `LEAF_SPAN` = 8): block boundaries,
    /// `-∞` padding and the climb/descend paths all get exercised.
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
    /// scan's actual counts exactly — while the engine's own exact checks
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
                    assert_eq!(
                        ScanStats::from_sink(&sink),
                        stats,
                        "counter mismatch (case {case}, α={a}): {ts} on {p}"
                    );
                    // Engine work: every exact check corresponds to a slot
                    // the reference scan also visited.
                    assert!(
                        sink.counter(metrics::ENGINE_EXACT_CHECKS) <= stats.admission_checks,
                        "engine re-checked more slots than the scan visited"
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
        e.prepare(&tasks, &p);
        let warmup = MemorySink::new();
        e.probe(&tasks, &p, Augmentation::NONE, &warmup);
        assert!(warmup.counter(metrics::FF_WORKSPACE_ALLOCS) > 0);
        let steady = MemorySink::new();
        for a in [1.0, 1.5, 1.6, 2.0, 3.0] {
            e.probe(&tasks, &p, Augmentation::new(a).unwrap(), &steady);
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
        e.prepare(&tasks, &p);
        assert!(!e.probe(&tasks, &p, Augmentation::NONE, &()).is_feasible());
        assert!(e
            .probe(&tasks, &p, Augmentation::new(1.6).unwrap(), &())
            .is_feasible());
        assert!(!e
            .probe(&tasks, &p, Augmentation::new(1.59).unwrap(), &())
            .is_feasible());
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
}
