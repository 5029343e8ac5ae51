//! Graceful-degradation ladders: salvage a *sound* (possibly conservative)
//! verdict when an exact computation runs out of budget.
//!
//! The exact partitioned oracle is a branch-and-bound over an NP-hard
//! question; under a wall-clock or ops budget it may come back
//! [`ExactOutcome::Unknown`]. Rather than surface "don't know" directly,
//! the ladder walks down to cheaper tests whose one-sided guarantees still
//! hold:
//!
//! * **exact → first-fit**: a completed first-fit partition at α = 1 is a
//!   constructive witness — `Feasible` stays sound (the paper's §III test
//!   is sufficient for partitioned feasibility).
//! * **first-fit → utilization bound**: total utilization exceeding total
//!   speed certifies `Infeasible` against *every* adversary.
//! * **LP → first-fit constant**: first-fit feasibility at α = 1 implies
//!   LP feasibility (a partition induces an LP point), and first-fit
//!   *in*feasibility at α = 2.98 ([`Augmentation::EDF_VS_ANY`]) refutes the
//!   LP by Theorem I.3's contrapositive.
//!
//! Anything the ladder cannot certify is reported as
//! [`LadderVerdict::Undecided`] — degraded answers are conservative, never
//! wrong. Each downgrade increments `robust.degraded` (and the triggering
//! exhaustion increments `robust.budget_exhausted`) in the supplied
//! [`MetricsSink`], so sweeps can quantify how often the budget bit.

use crate::admission::EdfAdmission;
use crate::assignment::{Assignment, Outcome};
use crate::bnb::ExactSolver;
use crate::exact::ExactOutcome;
use crate::first_fit::first_fit;
use hetfeas_model::{approx_le, Augmentation, Platform, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::metrics as rmetrics;
use hetfeas_robust::Gas;

/// A possibly-degraded verdict. `Feasible`/`Infeasible` are sound whichever
/// rung produced them; `Undecided` means no rung could certify either way
/// within budget.
#[derive(Debug, Clone, PartialEq)]
pub enum LadderVerdict {
    /// A feasible schedule exists; the witness partition is included when
    /// the deciding rung constructed one.
    Feasible {
        /// Witness assignment (exact search or first-fit rungs).
        witness: Option<Assignment>,
    },
    /// Certified infeasible.
    Infeasible,
    /// No rung could decide within budget.
    Undecided,
}

impl LadderVerdict {
    /// True for [`LadderVerdict::Feasible`].
    pub fn is_feasible(&self) -> bool {
        matches!(self, LadderVerdict::Feasible { .. })
    }

    /// True for a definite answer.
    pub fn is_decided(&self) -> bool {
        !matches!(self, LadderVerdict::Undecided)
    }

    /// Stable short name: `feasible` / `infeasible` / `undecided`.
    pub const fn as_str(&self) -> &'static str {
        match self {
            LadderVerdict::Feasible { .. } => "feasible",
            LadderVerdict::Infeasible => "infeasible",
            LadderVerdict::Undecided => "undecided",
        }
    }
}

/// Outcome of a ladder run: the verdict, the rung that produced it, and
/// how many downgrades it took to get there (0 = the exact rung decided).
#[derive(Debug, Clone, PartialEq)]
pub struct LadderReport {
    /// The (sound) verdict.
    pub verdict: LadderVerdict,
    /// Stable name of the deciding rung, e.g. `exact`, `first-fit`,
    /// `utilization-bound`, `lp-simplex`, `first-fit-2.98`.
    pub level: &'static str,
    /// Number of downgrade steps taken before the verdict.
    pub degraded: u32,
}

/// Budgeted exact partitioned-EDF feasibility with graceful degradation:
/// exact branch-and-bound → first-fit witness → utilization bound.
///
/// The exact rung runs against `gas` on `workers` branch-and-bound
/// threads; worker count affects only how much of the tree a given budget
/// covers, never the verdict reached when the budget suffices. The
/// fallback rungs are closed-form `O(n log n)` computations and always
/// terminate. Every downgrade bumps `robust.degraded` in `sink` (pass
/// `&()` to discard the counters).
pub fn exact_partition_edf_degraded<S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    node_budget: u64,
    workers: usize,
    gas: &mut Gas,
    sink: &S,
) -> LadderReport {
    match ExactSolver::new(tasks, platform, &EdfAdmission)
        .node_budget(node_budget)
        .workers(workers)
        .solve(gas, sink)
    {
        ExactOutcome::Feasible(a) => {
            return LadderReport {
                verdict: LadderVerdict::Feasible { witness: Some(a) },
                level: "exact",
                degraded: 0,
            }
        }
        ExactOutcome::Infeasible => {
            return LadderReport {
                verdict: LadderVerdict::Infeasible,
                level: "exact",
                degraded: 0,
            }
        }
        ExactOutcome::Unknown => {}
    }
    sink.counter_add(rmetrics::ROBUST_BUDGET_EXHAUSTED, 1);

    // Rung 2: the paper's first-fit test at speed 1 — a constructed
    // partition is a witness of feasibility regardless of the search state.
    sink.counter_add(rmetrics::ROBUST_DEGRADED, 1);
    if let Outcome::Feasible(a) = first_fit(tasks, platform, Augmentation::NONE, &EdfAdmission) {
        return LadderReport {
            verdict: LadderVerdict::Feasible { witness: Some(a) },
            level: "first-fit",
            degraded: 1,
        };
    }

    // Rung 3: total utilization above total speed refutes every schedule.
    sink.counter_add(rmetrics::ROBUST_DEGRADED, 1);
    if !approx_le(tasks.total_utilization(), platform.total_speed()) {
        return LadderReport {
            verdict: LadderVerdict::Infeasible,
            level: "utilization-bound",
            degraded: 2,
        };
    }
    LadderReport {
        verdict: LadderVerdict::Undecided,
        level: "utilization-bound",
        degraded: 2,
    }
}

/// Budgeted LP (migrative-adversary) feasibility with graceful
/// degradation: simplex → first-fit at α = 1 (sufficiency) → first-fit at
/// α = 2.98 (Theorem I.3 refutation).
///
/// The closed-form [`hetfeas_lp::lp_feasible`] decides this exactly and
/// cheaply — this ladder exists for callers that specifically want the
/// simplex point (E3/E4 cross-validation) yet must stay responsive under
/// adversarial inputs.
pub fn lp_feasible_degraded<S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    gas: &mut Gas,
    sink: &S,
) -> LadderReport {
    match hetfeas_lp::solve_paper_lp_within(tasks, platform, gas) {
        Ok(Some(_)) => {
            return LadderReport {
                verdict: LadderVerdict::Feasible { witness: None },
                level: "lp-simplex",
                degraded: 0,
            }
        }
        Ok(None) => {
            return LadderReport {
                verdict: LadderVerdict::Infeasible,
                level: "lp-simplex",
                degraded: 0,
            }
        }
        Err(_) => {}
    }
    sink.counter_add(rmetrics::ROBUST_BUDGET_EXHAUSTED, 1);

    // Rung 2: a first-fit partition at speed 1 induces a feasible LP point.
    sink.counter_add(rmetrics::ROBUST_DEGRADED, 1);
    if first_fit(tasks, platform, Augmentation::NONE, &EdfAdmission).is_feasible() {
        return LadderReport {
            verdict: LadderVerdict::Feasible { witness: None },
            level: "first-fit",
            degraded: 1,
        };
    }

    // Rung 3: Theorem I.3 — first-fit at α = 2.98 accepts everything the
    // LP adversary can schedule, so failure at 2.98 refutes the LP.
    sink.counter_add(rmetrics::ROBUST_DEGRADED, 1);
    if !first_fit(tasks, platform, Augmentation::EDF_VS_ANY, &EdfAdmission).is_feasible() {
        return LadderReport {
            verdict: LadderVerdict::Infeasible,
            level: "first-fit-2.98",
            degraded: 2,
        };
    }
    LadderReport {
        verdict: LadderVerdict::Undecided,
        level: "first-fit-2.98",
        degraded: 2,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_obs::MemorySink;
    use hetfeas_robust::Budget;

    fn blowup_instance() -> (TaskSet, Platform) {
        // 21 tasks with *distinct* utilizations ≈ 0.451..0.471 on 10 unit
        // machines: infeasible (only two fit a machine, and 21 > 20 slots)
        // but utilization 9.68 < 10 defeats the trivial check, distinct
        // utilizations defeat the B&B's dominance/visited collapse, and
        // the LP bound only bites deep in the tree — refutation genuinely
        // costs an exponential search.
        (
            TaskSet::from_pairs((0..21u64).map(|i| (451 + i, 1000))).unwrap(),
            Platform::identical(10).unwrap(),
        )
    }

    #[test]
    fn exact_rung_decides_small_instances_without_degrading() {
        let tasks = TaskSet::from_pairs([(6, 10), (6, 10), (4, 10), (4, 10)]).unwrap();
        let p = Platform::identical(2).unwrap();
        let sink = MemorySink::new();
        let mut gas = Gas::unlimited();
        let r = exact_partition_edf_degraded(&tasks, &p, 1 << 20, 1, &mut gas, &sink);
        assert!(r.verdict.is_feasible());
        assert_eq!((r.level, r.degraded), ("exact", 0));
        assert_eq!(sink.counter(rmetrics::ROBUST_DEGRADED), 0);
    }

    #[test]
    fn starved_exact_falls_back_to_first_fit_witness() {
        // Feasible and first-fit-friendly, but the exact search gets no gas.
        let tasks = TaskSet::from_pairs(vec![(1, 2); 8]).unwrap();
        let p = Platform::identical(4).unwrap();
        let sink = MemorySink::new();
        let mut gas = Budget::ops(0).gas();
        let r = exact_partition_edf_degraded(&tasks, &p, 1 << 20, 1, &mut gas, &sink);
        assert!(r.verdict.is_feasible());
        assert_eq!((r.level, r.degraded), ("first-fit", 1));
        assert_eq!(sink.counter(rmetrics::ROBUST_DEGRADED), 1);
        assert_eq!(sink.counter(rmetrics::ROBUST_BUDGET_EXHAUSTED), 1);
        // The salvaged witness is a genuine partition.
        if let LadderVerdict::Feasible { witness: Some(a) } = &r.verdict {
            assert!(a.validate(&tasks, &p, 1.0, &EdfAdmission));
        } else {
            panic!("expected a witness");
        }
    }

    #[test]
    fn starved_exact_falls_back_to_utilization_refutation() {
        // Wildly overloaded: rung 3 certifies infeasibility.
        let tasks = TaskSet::from_pairs(vec![(9, 10); 10]).unwrap();
        let p = Platform::identical(2).unwrap();
        let sink = MemorySink::new();
        let mut gas = Budget::ops(0).gas();
        let r = exact_partition_edf_degraded(&tasks, &p, 1 << 20, 1, &mut gas, &sink);
        assert_eq!(r.verdict, LadderVerdict::Infeasible);
        assert_eq!((r.level, r.degraded), ("utilization-bound", 2));
        assert_eq!(sink.counter(rmetrics::ROBUST_DEGRADED), 2);
    }

    #[test]
    fn blowup_instance_degrades_to_undecided_not_a_hang() {
        let (tasks, p) = blowup_instance();
        let sink = MemorySink::new();
        let mut gas = Budget::ops(10_000).gas();
        let r = exact_partition_edf_degraded(&tasks, &p, u64::MAX, 1, &mut gas, &sink);
        // First-fit also fails (it is infeasible) and utilization is under
        // total speed — the sound answer within this budget is Undecided.
        assert_eq!(r.verdict, LadderVerdict::Undecided);
        assert!(r.degraded >= 1);
        assert!(sink.counter(rmetrics::ROBUST_DEGRADED) >= 1);
        // Soundness: Undecided, never a wrong "feasible".
        assert!(!r.verdict.is_feasible());
    }

    #[test]
    fn worker_count_does_not_change_the_ladder_verdict() {
        // A refutation the exact rung *can* finish: identical utilizations
        // collapse under the B&B's visited-state dedup.
        let tasks = TaskSet::from_pairs(vec![(334, 1000); 13]).unwrap();
        let p = Platform::identical(6).unwrap();
        for workers in [1usize, 2, 8] {
            let mut gas = Gas::unlimited();
            let r = exact_partition_edf_degraded(&tasks, &p, 1 << 20, workers, &mut gas, &());
            assert_eq!(r.verdict, LadderVerdict::Infeasible, "workers={workers}");
            assert_eq!((r.level, r.degraded), ("exact", 0));
        }
    }

    #[test]
    fn verdict_names_are_stable() {
        assert_eq!(
            LadderVerdict::Feasible { witness: None }.as_str(),
            "feasible"
        );
        assert_eq!(LadderVerdict::Infeasible.as_str(), "infeasible");
        assert_eq!(LadderVerdict::Undecided.as_str(), "undecided");
        assert!(!LadderVerdict::Undecided.is_decided());
    }

    #[test]
    fn lp_ladder_agrees_with_closed_form_when_budget_suffices() {
        type Case = (Vec<(u64, u64)>, Vec<u64>);
        let cases: [Case; 3] = [
            (vec![(3, 2), (3, 2)], vec![2, 1, 1]),
            (vec![(19, 10), (19, 10)], vec![2, 1, 1]),
            (vec![(1, 2), (1, 2)], vec![1]),
        ];
        for (pairs, speeds) in cases {
            let tasks = TaskSet::from_pairs(pairs).unwrap();
            let p = Platform::from_int_speeds(speeds).unwrap();
            let mut gas = Gas::unlimited();
            let r = lp_feasible_degraded(&tasks, &p, &mut gas, &());
            assert_eq!(r.degraded, 0);
            assert_eq!(
                r.verdict.is_feasible(),
                hetfeas_lp::lp_feasible(&tasks, &p),
                "ladder vs closed form on {tasks}"
            );
        }
    }

    #[test]
    fn starved_lp_degrades_soundly() {
        let sink = MemorySink::new();
        // Feasible case: first-fit rescues it.
        let tasks = TaskSet::from_pairs([(1, 2), (1, 2)]).unwrap();
        let p = Platform::identical(2).unwrap();
        let mut gas = Budget::ops(0).gas();
        let r = lp_feasible_degraded(&tasks, &p, &mut gas, &sink);
        assert!(r.verdict.is_feasible());
        assert_eq!(r.degraded, 1);
        // Overloaded case: the 2.98 rung refutes it.
        let heavy = TaskSet::from_pairs(vec![(99, 10); 4]).unwrap();
        let mut gas = Budget::ops(0).gas();
        let r = lp_feasible_degraded(&heavy, &p, &mut gas, &sink);
        assert_eq!(r.verdict, LadderVerdict::Infeasible);
        assert_eq!((r.level, r.degraded), ("first-fit-2.98", 2));
        // Both degraded answers agree with the exact closed form.
        assert!(hetfeas_lp::lp_feasible(&tasks, &p));
        assert!(!hetfeas_lp::lp_feasible(&heavy, &p));
    }
}
