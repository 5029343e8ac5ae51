//! # hetfeas-partition
//!
//! The paper's contribution: partitioned feasibility tests for sporadic
//! tasks on related (heterogeneous-speed) machines, plus the exact
//! partitioned oracles the approximation theorems compare against.
//!
//! * [`first_fit()`] — the §III algorithm: tasks by decreasing utilization,
//!   machines by increasing speed, first-fit with a pluggable per-machine
//!   [`AdmissionTest`] and speed augmentation `α`.
//! * [`admission`] — EDF (Theorem II.2), RMS via Liu–Layland (Theorem
//!   II.3), plus hyperbolic and exact-RTA admissions for the ablations.
//! * [`variants`] — task/machine orders and fit strategies (experiment E8).
//! * [`constrained`] — constrained-deadline admissions (density bound and
//!   exact QPA) — the extension the paper's related work points to.
//! * [`exact`] — optimal partitioned feasibility (the Theorem I.1/I.2
//!   adversary); routes through [`bnb`].
//! * [`bnb`] — [`ExactSolver`], the parallel branch-and-bound exact
//!   search: level-algorithm LP bounding, dominance pruning over
//!   machine-symmetric states, a bloom-fronted visited filter ([`bloom`]),
//!   a first-fit incumbent and work distribution over frontier subtrees
//!   with worker-count-independent verdicts (DESIGN.md §12).
//! * [`bloom`] — [`VisitedFilter`], the bloom front + exact hash-set
//!   backing the B&B visited-state pruning uses.
//! * [`lp_rounding`] — an LP-guided rounding baseline (experiment E11).
//! * [`splitting`] — semi-partitioned EDF with two-machine task splitting
//!   (experiment E16).
//! * [`min_feasible_alpha`] / [`bisect_alpha`] — the reference bisection
//!   for the empirical augmentation factor α*, the oracle the engine's
//!   search is tested against.
//! * [`engine`] — [`FirstFitEngine`], the indexed `O((n+m)·log m)` version
//!   of the §III scan with reusable workspaces and an α-search that sorts
//!   once, then probes the reference bisection's α sequence:
//!   the one first-fit and α-search behind `hetfeas check`/`alpha` and
//!   experiments E1–E4 for the indexable admissions (EDF, RMS-LL,
//!   hyperbolic). Outcomes stay byte-identical to [`first_fit()`].
//! * [`incremental`] — [`IncrementalEngine`], the online form of the same
//!   test: `O(log m)` adds, local-repair removes, snapshot/rollback for
//!   speculative admission, and a divergence-counted canonical repack.
//! * [`durable`] — [`DurableEngine`], a crash-safe wrapper around the
//!   incremental engine: every op is appended to a CRC32-framed
//!   write-ahead journal before it is applied, compaction rewrites the
//!   journal atomically, and [`durable::recover`] replays a (possibly
//!   torn) journal back to the bit-identical in-memory engine.
//! * [`policy`] — [`PolicyKind`], the one enum naming the indexable
//!   admission tests, the `with_admission!` macro that dispatches on it,
//!   and [`AnyDurable`], a durable engine whose policy is chosen at run
//!   time.
//! * [`metrics`] — metric names for the instrumented paths (`ff.*`,
//!   `engine.*`, `alpha.*`, `incr.*`, `bnb.*`).
//! * [`degrade`] — graceful-degradation ladders: when a budgeted exact (or
//!   LP) computation exhausts its [`hetfeas_robust::Budget`], fall back to
//!   cheaper tests whose one-sided guarantees still yield a *sound*
//!   verdict.
//!
//! Each operation has one full form, whose last two parameters are a
//! [`hetfeas_robust::Gas`] meter and a [`hetfeas_obs::MetricsSink`]
//! (either is left out where the operation never uses it); exhaustion
//! surfaces as [`Outcome::BudgetExhausted`], [`ExactOutcome::Unknown`] or
//! `Err(Exhaustion)` instead of a hang. Pass `&mut Gas::unlimited(), &()`
//! for neither: the `()` sink compiles the counting away. A plain form
//! without either ([`first_fit()`], [`min_feasible_alpha`],
//! [`exact_partition`]) exists only where callers use it that way.

#![warn(missing_docs)]

pub mod admission;
pub mod assignment;
pub mod bloom;
pub mod bnb;
pub mod constrained;
pub mod degrade;
pub mod durable;
pub mod engine;
pub mod exact;
pub mod exact_rational;
pub mod first_fit;
pub mod incremental;
pub mod lp_rounding;
pub mod metrics;
pub mod policy;
pub mod splitting;
pub mod variants;

pub use admission::{
    admit_rhs, AdmissionTest, EdfAdmission, HyperbolicState, RmsHyperbolicAdmission,
    RmsKuoMokAdmission, RmsLlAdmission, RmsLlState, RmsRtaAdmission,
};
pub use assignment::{Assignment, FailureWitness, Outcome};
pub use bloom::{BloomFilter, VisitedFilter};
pub use bnb::{BnbAdmission, BnbConfig, ExactSolver};
pub use constrained::{DemandState, DensityAdmission, EdfDemandAdmission};
pub use degrade::{
    exact_partition_edf_degraded, lp_feasible_degraded, LadderReport, LadderVerdict,
};
pub use durable::{
    live_state_digest, peek_config, recover, Applied, ChangedMachines, CompactionStep,
    DurableEngine, DurableError, DurableOptions, JournalConfig, RecoverError, RecoveryReport,
};
pub use engine::{FirstFitEngine, IndexableAdmission};
pub use exact::{exact_partition, exact_partition_edf, exact_partition_rms, ExactOutcome};
pub use exact_rational::exact_partition_edf_rational;
pub use first_fit::{
    bisect_alpha, first_fit, first_fit_ordered, min_feasible_alpha, ScanWorkspace,
};
pub use incremental::{
    AddOutcome, EngineState, IncrSnapshot, IncrementalEngine, RepackOutcome, RepairPolicy,
    StateView, TaskId,
};
pub use lp_rounding::lp_rounding_partition;
pub use policy::{AnyDurable, PolicyKind};
pub use splitting::{semi_partition, Placement, SplitOutcome};
pub use variants::{partition_with, FitStrategy, HeuristicConfig, MachineOrder, TaskOrder};
