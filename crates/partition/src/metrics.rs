//! Metric names emitted by this crate's instrumented paths.
//!
//! Names live in a dotted namespace, grouped by emitter:
//!
//! * `ff.*` — the §III first-fit scan, in *reference-scan units*: one
//!   admission check per machine slot visited. The indexed engine emits
//!   the **same** `ff.*` numbers (derived from its byte-identical
//!   placement sequence: a task placed at scan slot `s` costs `s + 1`
//!   reference checks, a failing task costs `m`), so reports are
//!   comparable across the two paths and the differential tests in
//!   `tests/prop_engine.rs` can assert exact equality.
//! * `engine.*` — the batch engine's *actual* work: the exact admission
//!   evaluations its machine-major runs make. Online placements count
//!   their tree work under `incr.*`.
//! * `bnb.*` — the branch-and-bound exact solver: nodes expanded, prunes
//!   by LP bound / dominance / visited-state, bloom front effectiveness
//!   (hits and false positives), incumbent short-circuits, frontier size
//!   and worker count.
//! * `alpha.*` — α-search probe counts for the reference bisection
//!   ([`crate::min_feasible_alpha`]) and the engine's sort-once search,
//!   which probes the same sequence and so reports the same counts; the
//!   engine also counts the probes its bounds answered without a run.
//!
//! All counters are cheap to emit: the hot loops accumulate into locals
//! and flush once per run, guarded on [`MetricsSink::ENABLED`] so the
//! no-op sink costs nothing.
//!
//! [`MetricsSink::ENABLED`]: hetfeas_obs::MetricsSink::ENABLED

/// Admission-test invocations in reference-scan units (counter).
pub const FF_ADMISSION_CHECKS: &str = "ff.admission_checks";
/// Tasks placed successfully (counter).
pub const FF_PLACED: &str = "ff.placed";
/// Machine slots visited; equals [`FF_ADMISSION_CHECKS`] for first-fit
/// (counter, kept separate for future strategies).
pub const FF_MACHINES_VISITED: &str = "ff.machines_visited";
/// Reference-scan checks needed per task (log2 histogram).
pub const FF_CHECKS_PER_TASK: &str = "ff.checks_per_task";
/// Workspace buffers that had to (re)allocate during a run (counter).
/// Steady-state reuse — e.g. the probes of an α-search over one reusable
/// workspace — must keep this at zero after the first probe, which
/// `first_fit::tests` asserts.
pub const FF_WORKSPACE_ALLOCS: &str = "ff.workspace_allocs";

/// Exact admission evaluations ([`crate::IndexableAdmission::fits`])
/// made by machine-major batch runs — [`crate::FirstFitEngine`]'s runs and
/// probes and every [`crate::IncrementalEngine::repack`]: the gallop and
/// binary-search steps over the utilization floor, each machine's check
/// of its last candidate, and the confirmations of tasks whose
/// utilization is above their floor. About `2·log2` of the search
/// distance per placement, plus two per machine (counter).
pub const ENGINE_ADMISSION_EVALS: &str = "engine.admission_evals";

/// Tasks admitted by the incremental engine (counter).
pub const INCR_ADDS: &str = "incr.adds";
/// Add operations rejected — no machine admits the task (counter).
pub const INCR_ADD_REJECTS: &str = "incr.add_rejects";
/// Tasks removed from the live partition (counter).
pub const INCR_REMOVES: &str = "incr.removes";
/// Remove operations naming an unknown/already-removed id (counter).
pub const INCR_REMOVE_MISSES: &str = "incr.remove_misses";
/// Max-tree descend-left queries issued by incremental adds (counter).
pub const INCR_TREE_DESCENTS: &str = "incr.tree_descents";
/// Exact admission re-checks of incremental tree candidates (counter).
pub const INCR_EXACT_CHECKS: &str = "incr.exact_checks";
/// Incremental candidates the hint offered but the exact predicate
/// rejected (counter; should stay near zero).
pub const INCR_REVERIFY_MISSES: &str = "incr.reverify_misses";
/// Local repairs after removals — one per machine-state re-fold (counter).
pub const INCR_LOCAL_REPAIRS: &str = "incr.local_repairs";
/// Tasks re-folded across all local repairs (counter; the O(k) part).
pub const INCR_REPAIR_REFOLDS: &str = "incr.repair_refolds";
/// Full canonical repacks — forced or divergence-triggered (counter).
pub const INCR_REPACKS: &str = "incr.repacks";
/// Repacks whose from-scratch FFD came back infeasible, keeping the
/// current (still valid) assignment instead (counter).
pub const INCR_REPACK_INFEASIBLE: &str = "incr.repack_infeasible";
/// Tasks repacks ordered by comparison sort (counter): a repack keeps the
/// previous repack's FFD order and sorts only the survivors admitted
/// since, or every survivor when it holds no order — the engine's first
/// repack, and the first after a rollback, an imported state or a
/// compaction of the insertion log.
pub const INCR_REPACK_SORTED: &str = "incr.repack_sorted";
/// Snapshots taken for speculative admission (counter).
pub const INCR_SNAPSHOTS: &str = "incr.snapshots";
/// Rollbacks to a snapshot (counter).
pub const INCR_ROLLBACKS: &str = "incr.rollbacks";

/// First-fit probes issued by an α-search, all phases (counter).
pub const ALPHA_PROBES: &str = "alpha.probes";
/// Probes of [`crate::FirstFitEngine::min_feasible_alpha`] that a bound
/// answered without a kernel run (counter; part of [`ALPHA_PROBES`]).
/// The reference bisection runs every probe and does not emit it.
pub const ALPHA_PROBES_BOUNDED: &str = "alpha.probes_bounded";
/// Bisection iterations after the `1` and `hi` probes (counter).
pub const ALPHA_BISECT_ITERS: &str = "alpha.bisect_iters";

/// Branch nodes expanded by the B&B exact solver, all workers plus the
/// frontier expansion (counter).
pub const BNB_NODES: &str = "bnb.nodes";
/// Subtrees cut because the level-algorithm LP relaxation refuted the
/// remaining tasks against the residual capacities (counter).
pub const BNB_PRUNE_BOUND: &str = "bnb.prune_bound";
/// Branches skipped because an earlier equal-speed machine had an
/// identical state (counter).
pub const BNB_PRUNE_DOMINANCE: &str = "bnb.prune_dominance";
/// Nodes cut because their canonical state was already refuted — visited
/// filter hits plus frontier-expansion dedup (counter).
pub const BNB_PRUNE_VISITED: &str = "bnb.prune_visited";
/// Visited-filter queries the bloom front answered *maybe* (counter).
pub const BNB_BLOOM_HITS: &str = "bnb.bloom_hits";
/// Bloom *maybes* the exact backing rejected — wasted lookups; the FP
/// rate is this over [`BNB_BLOOM_HITS`]' complement (counter).
pub const BNB_BLOOM_FP: &str = "bnb.bloom_fp";
/// Refuted canonical keys stored across all per-worker filters (counter).
pub const BNB_VISITED_INSERTS: &str = "bnb.visited_inserts";
/// Insertions dropped because a worker's filter hit its cap (counter).
pub const BNB_VISITED_SATURATED: &str = "bnb.visited_saturated";
/// Runs settled by the first-fit incumbent without any search (counter).
pub const BNB_FF_INCUMBENT: &str = "bnb.ff_incumbent";
/// Runs ending Unknown on node/gas budget exhaustion (counter).
pub const BNB_EXHAUSTED: &str = "bnb.exhausted";
/// Frontier subtrees handed to the parallel phase (counter).
pub const BNB_FRONTIER: &str = "bnb.frontier";
/// Worker threads that explored the frontier: the configured count
/// capped at [`BNB_FRONTIER`], 0 when the search settled before the
/// parallel phase (counter).
pub const BNB_WORKERS: &str = "bnb.workers";
