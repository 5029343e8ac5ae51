//! Parallel branch-and-bound exact partitioned feasibility — the scalable
//! rebuild of [`crate::exact`]'s toy DFS.
//!
//! [`ExactSolver`] decides the same question as the old search (does a
//! partition exist in which every machine passes the admission test?) but
//! adds the four ingredients that make exact answers reachable at n ≥ 50,
//! m ≥ 8 (DESIGN.md §12):
//!
//! * **First-fit incumbent** — the §III heuristic runs first; a feasible
//!   heuristic witness settles the decision problem immediately, so the
//!   tree is only ever searched on instances the heuristic cannot place.
//! * **LP bounding** — every node evaluates the level-algorithm relaxation
//!   ([`hetfeas_lp::level_feasible_sorted_f64`]) over the remaining tasks
//!   and sound per-machine *residual capacity upper bounds*
//!   ([`BnbAdmission::residual_upper`]). If even the migrative relaxation
//!   cannot place the suffix, no integral completion exists and the
//!   subtree is cut. The inputs stay pre-sorted (task order is fixed,
//!   residuals are maintained incrementally through assign/undo), so the
//!   bound costs `O(n − depth + m)` per node with no allocation or sort.
//! * **Dominance + visited-state pruning** — machines with bitwise-equal
//!   augmented speed are interchangeable, so (a) within a node, slots in
//!   the same speed group whose states encode identically are tried once
//!   ([`BnbAdmission::encode_state`]); (b) across nodes, the canonical key
//!   (depth + per-group *sorted* state encodings) of every **fully
//!   refuted** subtree goes into a [`VisitedFilter`] (bloom front + exact
//!   hash-set backing) and re-derived states are cut on entry. Inserting
//!   only refuted states — never states merely *entered* — is what keeps
//!   parallel runs honest: a state abandoned mid-exploration (budget,
//!   supersession) is never mistaken for a refuted one.
//! * **Parallel subtree exploration** — a deterministic, worker-count
//!   independent breadth-first expansion grows a frontier of subtree
//!   roots (default 256); workers claim subtrees in index order from a
//!   [`TakeQueue`] and explore each by DFS. Feasibility uses a min-index
//!   incumbent rule: a worker finding a complete assignment publishes its
//!   subtree index via `fetch_min`; only *higher*-index subtrees abort,
//!   lower ones run to completion. The returned witness is therefore the
//!   solution of the minimum feasible subtree index — a quantity defined
//!   by the (deterministic) frontier alone — so verdict *and witness* are
//!   byte-identical across `--workers 1/2/8` whenever the budget does not
//!   bind. (Per-worker visited filters mean `bnb.nodes` varies with the
//!   worker count; the answer does not.)
//!
//! Budgets thread through unchanged: the caller's [`Gas`] is carved into a
//! [`SharedBudget`] pool, every node ticks, exhaustion latches stickily
//! across all workers, and the outcome degrades to
//! [`ExactOutcome::Unknown`] — never a wrong definite answer.

use crate::admission::{admit_rhs, AdmissionTest};
use crate::admission::{
    EdfAdmission, HyperbolicState, RmsHyperbolicAdmission, RmsKuoMokAdmission, RmsLlAdmission,
    RmsLlState, RmsRtaAdmission,
};
use crate::assignment::{Assignment, Outcome};
use crate::bloom::VisitedFilter;
use crate::exact::ExactOutcome;
use crate::first_fit::first_fit;
use crate::metrics as m;
use hetfeas_analysis::liu_layland_bound;
use hetfeas_lp::level_feasible_sorted_f64;
use hetfeas_model::{Augmentation, Platform, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_par::{run_workers, TakeQueue};
use hetfeas_robust::{Gas, SharedBudget, SharedGas};
use std::collections::{HashSet, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

/// How many nodes a worker claims from the shared node pool per refill.
const NODE_CHUNK: u64 = 64;

/// An [`AdmissionTest`] the branch-and-bound solver can prune over.
///
/// Both extensions are *correctness-critical*, so their contracts are
/// spelled out:
///
/// * [`encode_state`](BnbAdmission::encode_state) must be injective on
///   reachable states up to behavioral equivalence: two states with equal
///   encodings must admit exactly the same future task sequences at the
///   same speed. Equal encodings license dominance skips and visited-set
///   pruning — an over-coarse encoding would prune live subtrees.
/// * [`residual_upper`](BnbAdmission::residual_upper) must upper-bound the
///   total utilization of *every* task multiset the machine could still
///   accept from this state (in any order). An under-estimate would let
///   the LP bound refute feasible nodes.
pub trait BnbAdmission: AdmissionTest<State: Send + Sync> + Sync {
    /// Append a canonical encoding of `state` to `out`.
    fn encode_state(&self, state: &Self::State, out: &mut Vec<u64>);

    /// Sound upper bound on the additional utilization this machine (at
    /// augmented speed `speed`, in `state`) can still accept.
    fn residual_upper(&self, state: &Self::State, speed: f64) -> f64;
}

impl BnbAdmission for EdfAdmission {
    fn encode_state(&self, state: &f64, out: &mut Vec<u64>) {
        out.push(state.to_bits());
    }

    fn residual_upper(&self, state: &f64, speed: f64) -> f64 {
        // Any accepted sequence ends with load ≤ admit_rhs(speed).
        (admit_rhs(speed) - state).max(0.0)
    }
}

impl BnbAdmission for RmsLlAdmission {
    fn encode_state(&self, state: &RmsLlState, out: &mut Vec<u64>) {
        out.push(state.load.to_bits());
        out.push(state.count as u64);
    }

    fn residual_upper(&self, state: &RmsLlState, speed: f64) -> f64 {
        // Adding k ≥ 1 tasks ends at load ≤ admit_rhs(LL(count+k)·speed)
        // ≤ admit_rhs(LL(count+1)·speed), since LL is non-increasing.
        (admit_rhs(liu_layland_bound(state.count + 1) * speed) - state.load).max(0.0)
    }
}

impl BnbAdmission for RmsHyperbolicAdmission {
    fn encode_state(&self, state: &HyperbolicState, out: &mut Vec<u64>) {
        out.push(state.product.to_bits());
        out.push(state.load.to_bits());
    }

    fn residual_upper(&self, state: &HyperbolicState, speed: f64) -> f64 {
        // Accepted extras u_i satisfy P·Π(u_i/s + 1) ≤ admit_rhs(2), and
        // Π(1 + x_i) ≥ 1 + Σ x_i, so Σ u_i ≤ s·(admit_rhs(2)/P − 1).
        (speed * (admit_rhs(2.0) / state.product - 1.0)).max(0.0)
    }
}

impl BnbAdmission for RmsKuoMokAdmission {
    fn encode_state(&self, state: &TaskSet, out: &mut Vec<u64>) {
        encode_taskset(state, out);
    }

    fn residual_upper(&self, state: &TaskSet, speed: f64) -> f64 {
        // The Kuo–Mok bound k(2^{1/k} − 1) ≤ 1, so any accepted set has
        // total utilization ≤ admit_rhs(speed).
        (admit_rhs(speed) - state.total_utilization()).max(0.0)
    }
}

impl BnbAdmission for RmsRtaAdmission {
    fn encode_state(&self, state: &TaskSet, out: &mut Vec<u64>) {
        encode_taskset(state, out);
    }

    fn residual_upper(&self, state: &TaskSet, speed: f64) -> f64 {
        // RM-schedulability (implicit deadlines) requires U ≤ speed; keep
        // the admit_rhs padding for float headroom.
        (admit_rhs(speed) - state.total_utilization()).max(0.0)
    }
}

/// Tasks accumulate in branch order, which is deterministic given the
/// assigned subset — so the ordered (wcet, period) list is a canonical
/// encoding of a machine's reachable `TaskSet` states.
fn encode_taskset(state: &TaskSet, out: &mut Vec<u64>) {
    out.push(state.len() as u64);
    for t in state.iter() {
        out.push(t.wcet());
        out.push(t.period());
    }
}

/// Tuning knobs for [`ExactSolver`]. The defaults match the old DFS's
/// contract (unlimited nodes, one worker) so drop-in callers behave.
#[derive(Debug, Clone, Copy)]
pub struct BnbConfig {
    /// Cap on branch nodes across *all* workers (expansion included);
    /// exhausting it yields [`ExactOutcome::Unknown`].
    pub node_budget: u64,
    /// Worker threads exploring frontier subtrees (min 1; the solver
    /// runs at most one per frontier subtree).
    pub workers: usize,
    /// Per-worker visited-filter entry cap; at saturation the filter
    /// stops inserting (sound — it is an optimization only).
    pub visited_cap: usize,
    /// Target frontier size for the deterministic breadth-first
    /// expansion. Worker-count independent by construction: determinism
    /// of the verdict depends on this, never on `workers`.
    pub frontier_target: usize,
}

impl Default for BnbConfig {
    fn default() -> Self {
        BnbConfig {
            node_budget: u64::MAX,
            workers: 1,
            visited_cap: 1 << 20,
            frontier_target: 256,
        }
    }
}

/// The parallel branch-and-bound exact solver. See the module docs for
/// the algorithm; construct with [`ExactSolver::new`], adjust via the
/// builder methods, then call [`ExactSolver::solve`].
#[derive(Debug)]
pub struct ExactSolver<'a, A: BnbAdmission> {
    tasks: &'a TaskSet,
    platform: &'a Platform,
    alpha: Augmentation,
    admission: &'a A,
    config: BnbConfig,
}

/// A subtree root produced by the frontier expansion.
struct Node<St> {
    depth: usize,
    /// Slot chosen for each branch depth `0..depth`.
    path: Vec<usize>,
    states: Vec<St>,
}

/// Immutable per-solve search context shared by expansion and workers.
struct Ctx<'a, A: BnbAdmission> {
    tasks: &'a TaskSet,
    admission: &'a A,
    /// Original task index per branch depth (decreasing utilization).
    order: Vec<usize>,
    /// Utilization per branch depth (non-increasing).
    utils_desc: Vec<f64>,
    /// Augmented speed per slot (increasing-speed scan order).
    speeds: Vec<f64>,
    /// Original machine index per slot.
    machines: Vec<usize>,
    /// First slot of each slot's speed group (bitwise-equal speeds are
    /// contiguous after the sort).
    group_start: Vec<usize>,
    visited_cap: usize,
}

/// Reusable per-depth scratch: per-slot state encodings, a sort-index
/// buffer and the canonical key under construction.
#[derive(Default)]
struct DepthScratch {
    enc: Vec<Vec<u64>>,
    idx: Vec<usize>,
    key: Vec<u64>,
}

/// Outcome of exploring one subtree (or one DFS node).
enum Step {
    /// Complete assignment found; the worker recorded its path.
    Solution,
    /// Subtree exhaustively refuted.
    Refuted,
    /// Budget (gas or node pool) ran out — verdict is Unknown.
    Exhausted,
    /// A lower-index subtree already found a solution; abort.
    Superseded,
}

/// Local prune/visit counters, merged into the shared bank per worker.
#[derive(Default)]
struct Tally {
    nodes: u64,
    prune_bound: u64,
    prune_dominance: u64,
    prune_visited: u64,
}

#[derive(Default)]
struct SharedTally {
    nodes: AtomicU64,
    prune_bound: AtomicU64,
    prune_dominance: AtomicU64,
    prune_visited: AtomicU64,
    bloom_hits: AtomicU64,
    bloom_fp: AtomicU64,
    visited_inserts: AtomicU64,
    visited_saturated: AtomicU64,
}

impl SharedTally {
    fn add(&self, t: &Tally, visited: &VisitedFilter) {
        self.nodes.fetch_add(t.nodes, Ordering::Relaxed);
        self.prune_bound.fetch_add(t.prune_bound, Ordering::Relaxed);
        self.prune_dominance
            .fetch_add(t.prune_dominance, Ordering::Relaxed);
        self.prune_visited
            .fetch_add(t.prune_visited, Ordering::Relaxed);
        self.bloom_hits.fetch_add(
            visited.hits + visited.bloom_false_positives,
            Ordering::Relaxed,
        );
        self.bloom_fp
            .fetch_add(visited.bloom_false_positives, Ordering::Relaxed);
        self.visited_inserts
            .fetch_add(visited.len() as u64, Ordering::Relaxed);
        self.visited_saturated
            .fetch_add(visited.saturated_skips, Ordering::Relaxed);
    }
}

impl<A: BnbAdmission> Ctx<'_, A> {
    fn n(&self) -> usize {
        self.order.len()
    }

    fn m(&self) -> usize {
        self.speeds.len()
    }

    fn residual(&self, state: &A::State, slot: usize) -> f64 {
        self.admission
            .residual_upper(state, self.speeds[slot])
            .max(0.0)
    }

    /// Fill `sc.enc` with per-slot encodings and `sc.key` with the
    /// canonical key: depth, then per speed group the member encodings in
    /// lexicographic order (each length-prefixed). Sorting within groups
    /// is the machine-symmetry canonicalization — permuted assignments
    /// over equal-speed machines collapse to one key.
    fn canonical_key(&self, depth: usize, states: &[A::State], sc: &mut DepthScratch) {
        let mcount = self.m();
        sc.enc.resize_with(mcount, Vec::new);
        for (enc, state) in sc.enc.iter_mut().zip(&states[..mcount]) {
            enc.clear();
            self.admission.encode_state(state, enc);
        }
        sc.key.clear();
        sc.key.push(depth as u64);
        let mut slot = 0;
        while slot < mcount {
            let end = (slot + 1..mcount)
                .find(|&s| self.group_start[s] != self.group_start[slot])
                .unwrap_or(mcount);
            sc.idx.clear();
            sc.idx.extend(slot..end);
            sc.idx.sort_by(|&a, &b| sc.enc[a].cmp(&sc.enc[b]));
            for &i in &sc.idx {
                sc.key.push(sc.enc[i].len() as u64);
                sc.key.extend_from_slice(&sc.enc[i]);
            }
            slot = end;
        }
    }

    /// True when an earlier slot in the same speed group has an identical
    /// state encoding — assigning there first covers this branch.
    fn dominated(&self, slot: usize, sc: &DepthScratch) -> bool {
        (self.group_start[slot]..slot).any(|p| sc.enc[p] == sc.enc[slot])
    }

    /// Sorted-descending residual uppers of `states`.
    fn residuals_desc(&self, states: &[A::State]) -> Vec<f64> {
        let mut rd: Vec<f64> = states
            .iter()
            .enumerate()
            .map(|(slot, st)| self.residual(st, slot))
            .collect();
        rd.sort_by(|a, b| b.partial_cmp(a).expect("residuals are finite"));
        rd
    }

    /// Materialize a complete branch path as an [`Assignment`] in original
    /// task/machine indices.
    fn assignment_from_path(&self, path: &[usize]) -> Assignment {
        let mut a = Assignment::new(self.tasks.len(), self.machines.len());
        for (depth, &slot) in path.iter().enumerate() {
            a.assign(self.order[depth], self.machines[slot]);
        }
        a
    }
}

/// Shared node-budget pool: workers claim [`NODE_CHUNK`]-sized chunks; an
/// empty pool latches `dead` for everyone.
struct NodePool {
    pool: AtomicU64,
    capped: bool,
    dead: AtomicBool,
}

impl NodePool {
    fn new(budget: u64) -> Self {
        NodePool {
            pool: AtomicU64::new(budget),
            capped: budget != u64::MAX,
            dead: AtomicBool::new(false),
        }
    }

    /// Claim a chunk; `None` = budget exhausted (latched).
    fn claim(&self) -> Option<u64> {
        if self.dead.load(Ordering::Relaxed) {
            return None;
        }
        let r = self
            .pool
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |avail| {
                if avail == 0 {
                    None
                } else {
                    Some(avail - avail.min(NODE_CHUNK))
                }
            })
            .ok()
            .map(|before| before.min(NODE_CHUNK));
        if r.is_none() {
            self.dead.store(true, Ordering::Relaxed);
        }
        r
    }
}

/// Per-worker DFS state over one frontier subtree.
struct Worker<'c, A: BnbAdmission> {
    ctx: &'c Ctx<'c, A>,
    best: &'c AtomicUsize,
    node_pool: &'c NodePool,
    gas: SharedGas<'c>,
    node_local: u64,
    /// Index of the subtree currently being explored.
    id: usize,
    states: Vec<A::State>,
    path: Vec<usize>,
    /// Residual upper per slot, maintained incrementally.
    res: Vec<f64>,
    /// The same residuals sorted descending (the bound's input).
    res_desc: Vec<f64>,
    scratch: Vec<DepthScratch>,
    visited: VisitedFilter,
    tally: Tally,
    solution: Option<Vec<usize>>,
}

impl<'c, A: BnbAdmission> Worker<'c, A> {
    fn new(
        ctx: &'c Ctx<'c, A>,
        best: &'c AtomicUsize,
        pool: &'c NodePool,
        gas: SharedGas<'c>,
    ) -> Self {
        Worker {
            ctx,
            best,
            node_pool: pool,
            gas,
            node_local: 0,
            id: usize::MAX,
            states: Vec::new(),
            path: Vec::new(),
            res: Vec::new(),
            res_desc: Vec::new(),
            scratch: (0..=ctx.n()).map(|_| DepthScratch::default()).collect(),
            visited: VisitedFilter::new(ctx.visited_cap),
            tally: Tally::default(),
            solution: None,
        }
    }

    /// Consume one node of budget; `false` = exhausted.
    fn claim_node(&mut self) -> bool {
        if !self.node_pool.capped {
            return true;
        }
        if self.node_local == 0 {
            match self.node_pool.claim() {
                Some(chunk) => self.node_local = chunk,
                None => return false,
            }
        }
        self.node_local -= 1;
        true
    }

    /// Explore subtree `id` rooted at `node` to completion (or abort).
    fn explore(&mut self, id: usize, node: &Node<A::State>) -> Step {
        self.id = id;
        self.states.clear();
        self.states.extend(node.states.iter().cloned());
        self.path.clear();
        self.path.extend_from_slice(&node.path);
        self.res.clear();
        self.res.extend(
            self.states
                .iter()
                .enumerate()
                .map(|(slot, st)| self.ctx.residual(st, slot)),
        );
        self.res_desc.clear();
        self.res_desc.extend_from_slice(&self.res);
        self.res_desc
            .sort_by(|a, b| b.partial_cmp(a).expect("residuals are finite"));
        self.dfs(node.depth)
    }

    fn dfs(&mut self, depth: usize) -> Step {
        if depth == self.ctx.n() {
            self.solution = Some(self.path.clone());
            return Step::Solution;
        }
        if !self.claim_node() || self.gas.tick().is_err() {
            return Step::Exhausted;
        }
        self.tally.nodes += 1;
        if self.best.load(Ordering::Relaxed) < self.id {
            return Step::Superseded;
        }
        let mut sc = std::mem::take(&mut self.scratch[depth]);
        let step = self.dfs_body(depth, &mut sc);
        self.scratch[depth] = sc;
        step
    }

    fn dfs_body(&mut self, depth: usize, sc: &mut DepthScratch) -> Step {
        self.ctx.canonical_key(depth, &self.states, sc);
        if self.visited.contains(&sc.key) {
            self.tally.prune_visited += 1;
            return Step::Refuted;
        }
        if !level_feasible_sorted_f64(&self.ctx.utils_desc[depth..], &self.res_desc) {
            self.tally.prune_bound += 1;
            // A bound cut is a complete refutation of this state.
            self.visited.insert(&sc.key);
            return Step::Refuted;
        }
        let task = &self.ctx.tasks[self.ctx.order[depth]];
        for slot in 0..self.ctx.m() {
            if self.ctx.dominated(slot, sc) {
                self.tally.prune_dominance += 1;
                continue;
            }
            let Some(next) =
                self.ctx
                    .admission
                    .admit(&self.states[slot], task, self.ctx.speeds[slot])
            else {
                continue;
            };
            let new_res = self.ctx.residual(&next, slot);
            let old_res = self.res[slot];
            let saved = std::mem::replace(&mut self.states[slot], next);
            self.res[slot] = new_res;
            replace_desc(&mut self.res_desc, old_res, new_res);
            self.path.push(slot);
            match self.dfs(depth + 1) {
                Step::Refuted => {
                    self.path.pop();
                    self.states[slot] = saved;
                    self.res[slot] = old_res;
                    replace_desc(&mut self.res_desc, new_res, old_res);
                }
                // Solution / Exhausted / Superseded: unwind without undo —
                // this subtree's traversal state is abandoned either way.
                other => return other,
            }
        }
        // Every child refuted: the state itself is refuted — only now may
        // it enter the visited filter (insert-on-refute, see module docs).
        self.visited.insert(&sc.key);
        Step::Refuted
    }
}

/// Replace one value in a descending-sorted vector, preserving order.
/// `old` is compared bitwise-exactly (it is the value previously stored),
/// so duplicates are harmless. O(m) memmove, no allocation.
fn replace_desc(v: &mut [f64], old: f64, new: f64) {
    let i = v
        .iter()
        .position(|&x| x == old)
        .expect("old residual present in sorted view");
    // Bubble the hole toward new's sorted position.
    let mut i = i;
    if new <= old {
        while i + 1 < v.len() && v[i + 1] > new {
            v[i] = v[i + 1];
            i += 1;
        }
    } else {
        while i > 0 && v[i - 1] < new {
            v[i] = v[i - 1];
            i -= 1;
        }
    }
    v[i] = new;
}

enum Expansion<St> {
    Decided(ExactOutcome),
    Frontier(Vec<Node<St>>),
}

impl<'a, A: BnbAdmission> ExactSolver<'a, A> {
    /// Solver over `tasks`/`platform` with `admission` at speed
    /// augmentation 1 (override with [`ExactSolver::alpha`]).
    pub fn new(tasks: &'a TaskSet, platform: &'a Platform, admission: &'a A) -> Self {
        ExactSolver {
            tasks,
            platform,
            alpha: Augmentation::NONE,
            admission,
            config: BnbConfig::default(),
        }
    }

    /// Set the speed augmentation factor.
    pub fn alpha(mut self, alpha: Augmentation) -> Self {
        self.alpha = alpha;
        self
    }

    /// Replace the whole tuning config.
    pub fn config(mut self, config: BnbConfig) -> Self {
        self.config = config;
        self
    }

    /// Set the worker-thread count.
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers.max(1);
        self
    }

    /// Set the global node budget.
    pub fn node_budget(mut self, nodes: u64) -> Self {
        self.config.node_budget = nodes;
        self
    }

    /// Solve under `gas` (exhaustion ⇒ [`ExactOutcome::Unknown`], latched
    /// stickily into `gas`), emitting `bnb.*` counters into `sink`.
    pub fn solve<S: MetricsSink>(&self, gas: &mut Gas, sink: &S) -> ExactOutcome {
        // An already-exhausted (or zero) budget must surface as Unknown
        // before any work happens — the sticky-exhaustion contract the
        // degradation ladders rely on.
        if gas.tick().is_err() {
            if S::ENABLED {
                sink.counter_add(m::BNB_EXHAUSTED, 1);
            }
            return ExactOutcome::Unknown;
        }

        // Phase 0: the first-fit incumbent. A feasible heuristic witness
        // settles the decision problem without any search.
        let ff = first_fit(self.tasks, self.platform, self.alpha, self.admission);
        if let Outcome::Feasible(a) = ff {
            if S::ENABLED {
                sink.counter_add(m::BNB_FF_INCUMBENT, 1);
            }
            return ExactOutcome::Feasible(a);
        }

        let ctx = self.build_ctx();
        let mut tally = Tally::default();

        // Phase 1: root bound.
        let root_states: Vec<A::State> =
            (0..ctx.m()).map(|_| self.admission.empty_state()).collect();
        if !level_feasible_sorted_f64(&ctx.utils_desc, &ctx.residuals_desc(&root_states)) {
            tally.prune_bound += 1;
            self.flush(sink, &tally, None, 0, 0);
            return ExactOutcome::Infeasible;
        }

        let shared = gas.share();
        let pool = NodePool::new(self.config.node_budget);

        // Phase 2: deterministic breadth-first frontier expansion. Runs
        // identically for every worker count — all worker-dependent
        // execution happens strictly after the frontier is fixed.
        let expansion = self.expand(&ctx, root_states, &pool, &shared, &mut tally);
        let frontier = match expansion {
            Expansion::Decided(out) => {
                gas.absorb(&shared);
                self.flush(sink, &tally, None, 0, 0);
                return out;
            }
            Expansion::Frontier(nodes) => nodes,
        };

        // Phase 3: parallel subtree exploration with the min-index
        // incumbent rule. A worker past the frontier's length would claim
        // nothing, so the requested count is capped there.
        let workers = self.config.workers.min(frontier.len()).max(1);
        let queue = TakeQueue::new(&frontier);
        let best = AtomicUsize::new(usize::MAX);
        let solutions: Vec<Mutex<Option<Vec<usize>>>> =
            (0..frontier.len()).map(|_| Mutex::new(None)).collect();
        let bank = SharedTally::default();
        run_workers(workers, |_| {
            let mut w = Worker::new(&ctx, &best, &pool, shared.gas());
            while let Some((id, node)) = queue.take() {
                if best.load(Ordering::Relaxed) < id {
                    continue;
                }
                match w.explore(id, node) {
                    Step::Solution => {
                        best.fetch_min(id, Ordering::Relaxed);
                        *solutions[id].lock().expect("solution slot poisoned") = w.solution.take();
                    }
                    Step::Refuted | Step::Superseded => {}
                    Step::Exhausted => break,
                }
            }
            bank.add(&w.tally, &w.visited);
        });
        gas.absorb(&shared);
        tally.nodes += bank.nodes.load(Ordering::Relaxed);
        tally.prune_bound += bank.prune_bound.load(Ordering::Relaxed);
        tally.prune_dominance += bank.prune_dominance.load(Ordering::Relaxed);
        tally.prune_visited += bank.prune_visited.load(Ordering::Relaxed);
        self.flush(sink, &tally, Some(&bank), frontier.len(), workers);

        let best_id = best.load(Ordering::Relaxed);
        if best_id != usize::MAX {
            let path = solutions[best_id]
                .lock()
                .expect("solution slot poisoned")
                .take()
                .expect("winning subtree stored its path");
            return ExactOutcome::Feasible(ctx.assignment_from_path(&path));
        }
        if pool.dead.load(Ordering::Relaxed) || shared.exhausted().is_some() {
            if S::ENABLED {
                sink.counter_add(m::BNB_EXHAUSTED, 1);
            }
            return ExactOutcome::Unknown;
        }
        ExactOutcome::Infeasible
    }

    fn build_ctx(&self) -> Ctx<'a, A> {
        let machines = self.platform.order_by_increasing_speed();
        let speeds: Vec<f64> = machines
            .iter()
            .map(|&mi| self.alpha.factor() * self.platform.speed_f64(mi))
            .collect();
        let mut group_start = vec![0usize; speeds.len()];
        for slot in 1..speeds.len() {
            group_start[slot] = if speeds[slot].to_bits() == speeds[slot - 1].to_bits() {
                group_start[slot - 1]
            } else {
                slot
            };
        }
        let order = self.tasks.order_by_decreasing_utilization();
        // The order is exact, but the `f64` images of utilizations that
        // differ beyond `f64` precision (periods near `u64::MAX`) can come
        // out increasing. A running minimum makes the bound's input
        // non-increasing without raising any entry: a lower utilization
        // only weakens the prune, so the bound stays sound.
        let mut floor = f64::INFINITY;
        let utils_desc: Vec<f64> = order
            .iter()
            .map(|&t| {
                floor = floor.min(self.tasks[t].utilization());
                floor
            })
            .collect();
        Ctx {
            tasks: self.tasks,
            admission: self.admission,
            order,
            utils_desc,
            speeds,
            machines,
            group_start,
            visited_cap: self.config.visited_cap,
        }
    }

    /// Level-synchronized breadth-first expansion to ~`frontier_target`
    /// subtree roots. Children are generated in slot order, deduplicated
    /// by canonical key (first occurrence kept — which is also what makes
    /// the min-index witness the deterministic one), bound-pruned on pop,
    /// and metered like any other node.
    fn expand(
        &self,
        ctx: &Ctx<'a, A>,
        root_states: Vec<A::State>,
        pool: &NodePool,
        shared: &SharedBudget,
        tally: &mut Tally,
    ) -> Expansion<A::State> {
        let mut gas = shared.gas();
        let mut nodes_local = 0u64;
        let claim = |nodes_local: &mut u64| -> bool {
            if !pool.capped {
                return true;
            }
            if *nodes_local == 0 {
                match pool.claim() {
                    Some(chunk) => *nodes_local = chunk,
                    None => return false,
                }
            }
            *nodes_local -= 1;
            true
        };

        let mut queue: VecDeque<Node<A::State>> = VecDeque::new();
        queue.push_back(Node {
            depth: 0,
            path: Vec::new(),
            states: root_states,
        });
        let mut seen: HashSet<Vec<u64>> = HashSet::new();
        let mut sc = DepthScratch::default();
        let mut child_sc = DepthScratch::default();

        while queue.len() < self.config.frontier_target.max(1) {
            let Some(node) = queue.pop_front() else {
                // Whole tree refuted during expansion.
                return Expansion::Decided(ExactOutcome::Infeasible);
            };
            if node.depth == ctx.n() {
                return Expansion::Decided(ExactOutcome::Feasible(
                    ctx.assignment_from_path(&node.path),
                ));
            }
            if !claim(&mut nodes_local) || gas.tick().is_err() {
                return Expansion::Decided(ExactOutcome::Unknown);
            }
            tally.nodes += 1;
            ctx.canonical_key(node.depth, &node.states, &mut sc);
            if !level_feasible_sorted_f64(
                &ctx.utils_desc[node.depth..],
                &ctx.residuals_desc(&node.states),
            ) {
                tally.prune_bound += 1;
                continue;
            }
            let task = &ctx.tasks[ctx.order[node.depth]];
            for slot in 0..ctx.m() {
                if ctx.dominated(slot, &sc) {
                    tally.prune_dominance += 1;
                    continue;
                }
                let Some(next) = ctx
                    .admission
                    .admit(&node.states[slot], task, ctx.speeds[slot])
                else {
                    continue;
                };
                let mut states = node.states.clone();
                states[slot] = next;
                let mut path = node.path.clone();
                path.push(slot);
                if node.depth + 1 == ctx.n() {
                    return Expansion::Decided(ExactOutcome::Feasible(
                        ctx.assignment_from_path(&path),
                    ));
                }
                ctx.canonical_key(node.depth + 1, &states, &mut child_sc);
                if seen.insert(child_sc.key.clone()) {
                    queue.push_back(Node {
                        depth: node.depth + 1,
                        path,
                        states,
                    });
                } else {
                    tally.prune_visited += 1;
                }
            }
        }
        Expansion::Frontier(queue.into_iter().collect())
    }

    fn flush<S: MetricsSink>(
        &self,
        sink: &S,
        tally: &Tally,
        bank: Option<&SharedTally>,
        frontier: usize,
        workers: usize,
    ) {
        if !S::ENABLED {
            return;
        }
        sink.counter_add(m::BNB_NODES, tally.nodes);
        sink.counter_add(m::BNB_PRUNE_BOUND, tally.prune_bound);
        sink.counter_add(m::BNB_PRUNE_DOMINANCE, tally.prune_dominance);
        sink.counter_add(m::BNB_PRUNE_VISITED, tally.prune_visited);
        sink.counter_add(m::BNB_FRONTIER, frontier as u64);
        sink.counter_add(m::BNB_WORKERS, workers as u64);
        if let Some(bank) = bank {
            sink.counter_add(m::BNB_BLOOM_HITS, bank.bloom_hits.load(Ordering::Relaxed));
            sink.counter_add(m::BNB_BLOOM_FP, bank.bloom_fp.load(Ordering::Relaxed));
            sink.counter_add(
                m::BNB_VISITED_INSERTS,
                bank.visited_inserts.load(Ordering::Relaxed),
            );
            sink.counter_add(
                m::BNB_VISITED_SATURATED,
                bank.visited_saturated.load(Ordering::Relaxed),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_obs::MemorySink;
    use hetfeas_robust::{Budget, FaultKind, FaultPlan};

    fn ts(pairs: &[(u64, u64)]) -> TaskSet {
        TaskSet::from_pairs(pairs.iter().copied()).unwrap()
    }

    /// 17 tasks of util 0.334 (max 2 per unit machine) + 33 light fillers
    /// on 8 identical machines: infeasible (17 heavies need 9 machines),
    /// but the plain utilization check (7.328 < 8) cannot see it and the
    /// old DFS drowns in the 8^17 heavy placements.
    fn gate_infeasible_n50_m8() -> (TaskSet, Platform) {
        let mut pairs = vec![(334u64, 1000u64); 17];
        pairs.extend(vec![(5, 100); 33]);
        (ts(&pairs), Platform::identical(8).unwrap())
    }

    /// 8 × (0.42, 0.30, 0.28) triples on 8 unit machines: Σ = 8.0 exactly,
    /// so only the perfect per-machine {0.42, 0.30, 0.28} packing works.
    /// First-fit(dec) fails (it pairs the 0.42s), so the verdict and the
    /// witness must come out of the search itself.
    fn perfect_triples_n24_m8() -> (TaskSet, Platform) {
        let mut pairs = Vec::new();
        for _ in 0..8 {
            pairs.extend([(42u64, 100u64), (30, 100), (28, 100)]);
        }
        (ts(&pairs), Platform::identical(8).unwrap())
    }

    /// Periods near `u64::MAX` make the `f64` utilizations of the exact
    /// order non-monotone; the level bound must still get a non-increasing
    /// input (debug builds assert it) and decide every case soundly
    /// (`tests/prop_bnb.rs` checks the verdicts against the plain DFS).
    #[test]
    fn huge_period_corpus_keeps_the_bound_input_sorted() {
        for seed in 1..=8 {
            for case in FaultPlan::new(seed).cases_of(FaultKind::HugePeriods) {
                let solver = ExactSolver::new(&case.tasks, &case.platform, &EdfAdmission);
                let ctx = solver.build_ctx();
                assert!(
                    ctx.utils_desc.windows(2).all(|w| w[0] >= w[1]),
                    "{}: bound input not non-increasing",
                    case.name
                );
                solver
                    .node_budget(1 << 16)
                    .solve(&mut Gas::unlimited(), &());
            }
        }
    }

    #[test]
    fn verdict_and_witness_identical_across_worker_counts() {
        // A frontier target of 4 leaves every instance with subtrees to
        // hand out (the default target settles all three during the
        // breadth-first expansion), so the 2/4/8-worker runs really
        // search in parallel.
        let (inf_tasks, inf_p) = gate_infeasible_n50_m8();
        let (fea_tasks, fea_p) = perfect_triples_n24_m8();
        let (util_tasks, util_p) = (ts(&vec![(334, 1000); 13]), Platform::identical(6).unwrap());
        for (name, tasks, p) in [
            ("infeasible-n50-m8", &inf_tasks, &inf_p),
            ("feasible-triples-24x8", &fea_tasks, &fea_p),
            ("identical-util-13x6", &util_tasks, &util_p),
        ] {
            let runs: Vec<(ExactOutcome, u64, u64)> = [1usize, 2, 4, 8]
                .into_iter()
                .map(|w| {
                    let sink = MemorySink::new();
                    let out = ExactSolver::new(tasks, p, &EdfAdmission)
                        .config(BnbConfig {
                            workers: w,
                            node_budget: 2_000_000,
                            frontier_target: 4,
                            ..BnbConfig::default()
                        })
                        .solve(&mut Gas::unlimited(), &sink);
                    (
                        out,
                        sink.counter(m::BNB_FRONTIER),
                        sink.counter(m::BNB_WORKERS),
                    )
                })
                .collect();
            for (w, (out, frontier, workers)) in [1usize, 2, 4, 8].into_iter().zip(&runs) {
                assert_eq!(out, &runs[0].0, "{name}: workers 1 vs {w}");
                if w >= 2 {
                    assert!(*frontier > 0, "{name}: settled before the parallel phase");
                    assert!(*workers >= 2, "{name}: {workers} workers at {w} requested");
                }
            }
            assert!(runs[0].0.is_decided(), "{name}");
            if let ExactOutcome::Feasible(w) = &runs[0].0 {
                assert!(w.validate(tasks, p, 1.0, &EdfAdmission));
            }
        }
    }

    #[test]
    fn search_finds_packing_first_fit_misses() {
        let (tasks, p) = perfect_triples_n24_m8();
        let ff = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        assert!(!ff.is_feasible(), "instance must defeat the incumbent");
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut Gas::unlimited(), &());
        let ExactOutcome::Feasible(w) = out else {
            panic!("perfect packing exists, got {out:?}");
        };
        assert!(w.validate(&tasks, &p, 1.0, &EdfAdmission));
    }

    #[test]
    fn ff_incumbent_short_circuits_feasible_instances() {
        let mut pairs = vec![(334u64, 1000u64); 16];
        pairs.extend(vec![(5, 100); 34]);
        let tasks = ts(&pairs);
        let p = Platform::identical(8).unwrap();
        let sink = MemorySink::new();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut Gas::unlimited(), &sink);
        assert!(out.is_feasible());
        assert_eq!(sink.counter(m::BNB_FF_INCUMBENT), 1);
        assert_eq!(sink.counter(m::BNB_NODES), 0);
    }

    #[test]
    fn tiny_node_budget_returns_unknown_never_wrong() {
        // FF fails on this infeasible blowup, so the search must run —
        // and a 1-node budget cannot decide anything.
        let tasks = ts(&vec![(334, 1000); 13]);
        let p = Platform::identical(6).unwrap();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission)
            .node_budget(1)
            .solve(&mut Gas::unlimited(), &());
        assert_eq!(out, ExactOutcome::Unknown);
    }

    #[test]
    fn gas_exhaustion_is_unknown_and_sticky() {
        // Distinct utilizations defeat the dedup collapse, so a tiny ops
        // budget exhausts mid-search.
        let pairs: Vec<(u64, u64)> = (0..21).map(|i| (451 + i, 1000)).collect();
        let tasks = ts(&pairs);
        let p = Platform::identical(10).unwrap();
        let mut gas = Budget::ops(2_000).gas();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut gas, &());
        assert_eq!(out, ExactOutcome::Unknown);
        // Sticky: the caller's meter is latched after absorb.
        assert!(gas.tick().is_err());
    }

    #[test]
    fn old_identical_util_blowup_now_decides_fast() {
        // 13 × 0.334 on 6 machines took the old DFS ~4M nodes; state
        // collapse shrinks it to a few hundred.
        let tasks = ts(&vec![(334, 1000); 13]);
        let p = Platform::identical(6).unwrap();
        let sink = MemorySink::new();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission)
            .node_budget(50_000)
            .solve(&mut Gas::unlimited(), &sink);
        assert_eq!(out, ExactOutcome::Infeasible);
        assert!(sink.counter(m::BNB_NODES) < 10_000);
    }

    #[test]
    fn heterogeneous_speeds_group_only_equal_machines() {
        // speeds [1, 1, 2]: the two unit machines form one dominance
        // group, the fast one its own. Feasibility must respect that.
        let tasks = ts(&[(18, 10), (9, 10), (9, 10)]); // 1.8, 0.9, 0.9
        let p = Platform::from_int_speeds([1, 1, 2]).unwrap();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut Gas::unlimited(), &());
        assert!(out.is_feasible());
        let tasks = ts(&[(18, 10), (19, 10), (9, 10)]); // 1.8+1.9 need the fast one twice
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut Gas::unlimited(), &());
        assert_eq!(out, ExactOutcome::Infeasible);
    }

    #[test]
    fn workers_are_capped_at_the_frontier() {
        // A frontier of about 16 subtrees leaves most of 64 requested
        // workers nothing to claim; the solver must not spawn them.
        let (tasks, p) = perfect_triples_n24_m8();
        let config = BnbConfig {
            workers: 64,
            frontier_target: 16,
            ..BnbConfig::default()
        };
        let sink = MemorySink::new();
        let capped = ExactSolver::new(&tasks, &p, &EdfAdmission)
            .config(config)
            .solve(&mut Gas::unlimited(), &sink);
        let frontier = sink.counter(m::BNB_FRONTIER);
        assert!(frontier > 0 && frontier < 64, "frontier {frontier}");
        let workers = sink.counter(m::BNB_WORKERS);
        assert!(
            workers <= frontier,
            "{workers} workers for {frontier} subtrees"
        );
        let single = ExactSolver::new(&tasks, &p, &EdfAdmission)
            .config(BnbConfig {
                workers: 1,
                ..config
            })
            .solve(&mut Gas::unlimited(), &());
        assert_eq!(capped, single);
    }

    #[test]
    fn replace_desc_keeps_order() {
        let mut v = vec![5.0, 4.0, 3.0, 2.0, 1.0];
        replace_desc(&mut v, 3.0, 4.5);
        assert_eq!(v, vec![5.0, 4.5, 4.0, 2.0, 1.0]);
        replace_desc(&mut v, 4.5, 0.5);
        assert_eq!(v, vec![5.0, 4.0, 2.0, 1.0, 0.5]);
        replace_desc(&mut v, 5.0, 5.0);
        assert_eq!(v, vec![5.0, 4.0, 2.0, 1.0, 0.5]);
        // Duplicates: removing either is fine.
        let mut v = vec![2.0, 2.0, 1.0];
        replace_desc(&mut v, 2.0, 0.0);
        assert_eq!(v, vec![2.0, 1.0, 0.0]);
    }

    #[test]
    fn empty_taskset_is_feasible() {
        let tasks = TaskSet::empty();
        let p = Platform::identical(2).unwrap();
        let out = ExactSolver::new(&tasks, &p, &EdfAdmission).solve(&mut Gas::unlimited(), &());
        assert!(out.is_feasible());
    }
}
