//! The paper's partitioned feasibility test (§III).
//!
//! 1. Sort tasks by non-increasing utilization.
//! 2. Sort machines by non-decreasing speed.
//! 3. First-fit: assign each task to the first (slowest) machine whose
//!    single-machine admission test accepts it at augmented speed `α·s_j`.
//! 4. If no machine accepts, declare failure.
//!
//! Running time: `O(n log n + m log m)` for the sorts plus `O(n·m)`
//! admission checks, matching the paper's claim (each check is O(1) for the
//! EDF and RMS-LL admission tests). This module is the *reference*
//! implementation — the oracle the property tests compare against, and the
//! only path supporting non-indexable admissions (exact RTA, Kuo–Mok). For
//! the indexable tests (EDF, RMS-LL, hyperbolic) the segment-tree engine in
//! [`crate::engine`] produces byte-identical outcomes in `O((n+m)·log m)`
//! placements with reusable workspaces, and its α-search returns exactly
//! [`min_feasible_alpha`]'s answer; `hetfeas check`/`alpha`/`simulate`,
//! the online engines and experiments E1–E4 run on it. Both paths share
//! the exact sorts of `hetfeas_model`.

use crate::admission::AdmissionTest;
use crate::assignment::{Assignment, FailureWitness, Outcome};
use crate::metrics;
use hetfeas_model::{Augmentation, Platform, TaskSet};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::{Exhaustion, Gas};

/// The paper's feasibility test with EDF or RMS admission (or any other
/// [`AdmissionTest`]): first-fit by decreasing utilization over machines by
/// increasing speed, with speed augmentation `α`.
///
/// Returns [`Outcome::Feasible`] with a complete assignment, or
/// [`Outcome::Infeasible`] with the failing task. When `alpha` is at least
/// the relevant theorem constant (see [`Augmentation`]'s associated
/// constants), infeasibility certifies that the corresponding adversary
/// cannot schedule the set on the *un*-augmented platform.
///
/// ```
/// use hetfeas_model::{Augmentation, Platform, TaskSet};
/// use hetfeas_partition::{first_fit, EdfAdmission};
///
/// let tasks = TaskSet::from_pairs([(3, 10), (4, 10), (9, 10)]).unwrap();
/// let platform = Platform::from_int_speeds([1, 2]).unwrap();
/// let outcome = first_fit(&tasks, &platform, Augmentation::NONE, &EdfAdmission);
/// assert!(outcome.is_feasible());
/// ```
pub fn first_fit<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
) -> Outcome {
    first_fit_with(tasks, platform, alpha, admission, &())
}

/// [`first_fit`] with metrics: emits `ff.*` counters and the
/// `ff.checks_per_task` histogram (see [`crate::metrics`]) into `sink`.
/// Passing `&()` selects the no-op sink and compiles to exactly
/// [`first_fit`].
pub fn first_fit_with<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    sink: &S,
) -> Outcome {
    let task_order = tasks.order_by_decreasing_utilization();
    let machine_order = platform.order_by_increasing_speed();
    first_fit_ordered_with(
        tasks,
        platform,
        alpha,
        admission,
        &task_order,
        &machine_order,
        sink,
    )
}

/// First-fit over explicit task/machine orders (the paper's algorithm uses
/// decreasing-utilization tasks and increasing-speed machines; the E8
/// ablation passes other orders). `task_order` and `machine_order` must be
/// permutations of the respective index ranges.
pub fn first_fit_ordered<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    task_order: &[usize],
    machine_order: &[usize],
) -> Outcome {
    first_fit_ordered_with(
        tasks,
        platform,
        alpha,
        admission,
        task_order,
        machine_order,
        &(),
    )
}

/// [`first_fit_ordered`] with metrics (see [`first_fit_with`]). The hot
/// loop accumulates counts into locals and flushes once at the end, so an
/// enabled sink adds a handful of map operations per *run*, not per check.
#[allow(clippy::too_many_arguments)]
pub fn first_fit_ordered_with<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    task_order: &[usize],
    machine_order: &[usize],
    sink: &S,
) -> Outcome {
    first_fit_ordered_within_with(
        tasks,
        platform,
        alpha,
        admission,
        task_order,
        machine_order,
        &mut Gas::unlimited(),
        sink,
    )
}

/// [`first_fit`] under an execution budget: each admission check ticks
/// `gas` once, and exhaustion returns [`Outcome::BudgetExhausted`] with
/// the partial assignment built so far instead of finishing the scan.
pub fn first_fit_within<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    gas: &mut Gas,
) -> Outcome {
    let task_order = tasks.order_by_decreasing_utilization();
    let machine_order = platform.order_by_increasing_speed();
    first_fit_ordered_within_with(
        tasks,
        platform,
        alpha,
        admission,
        &task_order,
        &machine_order,
        gas,
        &(),
    )
}

/// Reusable scratch buffers for the reference scan: the α-augmented speeds
/// and per-machine admission states in scan order. A workspace held across
/// calls — e.g. across the probes of [`min_feasible_alpha`] — makes every
/// call after the first allocation-free; the instrumented paths count each
/// buffer growth under `ff.workspace_allocs` so steady-state reuse is
/// verifiable (zero after warm-up).
#[derive(Debug, Clone)]
pub struct ScanWorkspace<A: AdmissionTest> {
    speeds: Vec<f64>,
    states: Vec<A::State>,
}

impl<A: AdmissionTest> ScanWorkspace<A> {
    /// An empty workspace; buffers grow on first use and are reused after.
    pub fn new() -> Self {
        ScanWorkspace {
            speeds: Vec::new(),
            states: Vec::new(),
        }
    }
}

impl<A: AdmissionTest> Default for ScanWorkspace<A> {
    fn default() -> Self {
        Self::new()
    }
}

/// [`first_fit_ordered_with`] under an execution budget (explicit orders,
/// metrics sink and gas meter). Allocates a fresh workspace per call;
/// repeated callers should hold a [`ScanWorkspace`] and use
/// [`first_fit_ordered_ws`] instead.
#[allow(clippy::too_many_arguments)]
pub fn first_fit_ordered_within_with<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    task_order: &[usize],
    machine_order: &[usize],
    gas: &mut Gas,
    sink: &S,
) -> Outcome {
    first_fit_ordered_ws(
        tasks,
        platform,
        alpha,
        admission,
        task_order,
        machine_order,
        &mut ScanWorkspace::new(),
        gas,
        sink,
    )
}

/// The most general reference-scan form: explicit orders, metrics sink,
/// gas meter, and a caller-owned [`ScanWorkspace`] so multi-probe loops
/// (the α-searches) run allocation-free after the first probe.
#[allow(clippy::too_many_arguments)]
pub fn first_fit_ordered_ws<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    task_order: &[usize],
    machine_order: &[usize],
    ws: &mut ScanWorkspace<A>,
    gas: &mut Gas,
    sink: &S,
) -> Outcome {
    debug_assert_eq!(task_order.len(), tasks.len());
    debug_assert_eq!(machine_order.len(), platform.len());
    let alpha = alpha.factor();

    // Augmented speeds in scan order, plus one admission state per machine
    // — filled into the reused workspace buffers.
    let caps = (ws.speeds.capacity(), ws.states.capacity());
    ws.speeds.clear();
    ws.speeds
        .extend(machine_order.iter().map(|&m| alpha * platform.speed_f64(m)));
    ws.states.clear();
    ws.states
        .extend((0..platform.len()).map(|_| admission.empty_state()));
    if S::ENABLED {
        let grown =
            u64::from(ws.speeds.capacity() != caps.0) + u64::from(ws.states.capacity() != caps.1);
        if grown > 0 {
            sink.counter_add(metrics::FF_WORKSPACE_ALLOCS, grown);
        }
    }
    let (speeds, states) = (&ws.speeds, &mut ws.states);

    let flush = |checks: u64, placed: u64| {
        if S::ENABLED {
            sink.counter_add(metrics::FF_ADMISSION_CHECKS, checks);
            sink.counter_add(metrics::FF_MACHINES_VISITED, checks);
            sink.counter_add(metrics::FF_PLACED, placed);
        }
    };

    let mut checks = 0u64;
    let mut placed_count = 0u64;
    let mut assignment = Assignment::new(tasks.len(), platform.len());
    for &ti in task_order {
        let task = &tasks[ti];
        let mut placed = false;
        let mut task_checks = 0u64;
        for (slot, &mi) in machine_order.iter().enumerate() {
            if gas.tick().is_err() {
                flush(checks + task_checks, placed_count);
                return Outcome::BudgetExhausted {
                    partial: assignment,
                };
            }
            task_checks += 1;
            if let Some(next) = admission.admit(&states[slot], task, speeds[slot]) {
                states[slot] = next;
                assignment.assign(ti, mi);
                placed = true;
                break;
            }
        }
        if S::ENABLED {
            checks += task_checks;
            sink.observe(metrics::FF_CHECKS_PER_TASK, task_checks);
        }
        if !placed {
            flush(checks, placed_count);
            return Outcome::Infeasible(FailureWitness {
                failing_task: ti,
                failing_utilization: task.utilization(),
                partial: assignment,
            });
        }
        placed_count += 1;
    }
    flush(checks, placed_count);
    Outcome::Feasible(assignment)
}

/// Smallest augmentation factor (within `tol`) at which the first-fit test
/// accepts `tasks`, searched over `[1, hi]` by bisection; `None` if even
/// `hi` does not suffice.
///
/// Bisection is exact up to `tol` where acceptance is monotone in α. Both
/// capacity bounds of the EDF and RMS-LL admissions scale linearly with
/// speed, and acceptance is monotone on the property-test inputs, but
/// that is not a theorem for first-fit (DESIGN.md §5): where acceptance
/// flips back as α grows, the answer is an accepting α within `tol` of a
/// rejecting one, not necessarily the smallest accepting α.
///
/// The task/machine sorts are computed once and shared by every bisection
/// probe via [`first_fit_ordered`]. Invalid searches (`hi` below 1 or
/// non-finite, `tol` non-positive or non-finite) return `None`. For
/// indexable admissions, [`crate::FirstFitEngine::min_feasible_alpha`]
/// additionally replaces each probe's linear scan with the `O(log m)`
/// indexed one.
pub fn min_feasible_alpha<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    hi: f64,
    tol: f64,
) -> Option<f64> {
    min_feasible_alpha_with(tasks, platform, admission, hi, tol, &())
}

/// [`min_feasible_alpha`] with metrics (see
/// [`min_feasible_alpha_within_with`]).
pub fn min_feasible_alpha_with<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    hi: f64,
    tol: f64,
    sink: &S,
) -> Option<f64> {
    min_feasible_alpha_within_with(
        tasks,
        platform,
        admission,
        hi,
        tol,
        &mut Gas::unlimited(),
        sink,
    )
    .expect("unlimited gas cannot exhaust")
}

/// [`min_feasible_alpha`] under an execution budget: every first-fit probe
/// runs against `gas`, and exhaustion surfaces as `Err(Exhaustion)`
/// (distinguishable from the in-band `Ok(None)` "even `hi` fails").
pub fn min_feasible_alpha_within<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    hi: f64,
    tol: f64,
    gas: &mut Gas,
) -> Result<Option<f64>, Exhaustion> {
    min_feasible_alpha_within_with(tasks, platform, admission, hi, tol, gas, &())
}

/// [`min_feasible_alpha_within`] with metrics: each first-fit probe adds
/// one to `alpha.probes` (and emits its own `ff.*` counts into `sink`),
/// and each bisection halving adds one to `alpha.bisect_iters`.
pub fn min_feasible_alpha_within_with<A: AdmissionTest, S: MetricsSink>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    hi: f64,
    tol: f64,
    gas: &mut Gas,
    sink: &S,
) -> Result<Option<f64>, Exhaustion> {
    if !hi.is_finite() || hi < 1.0 || !tol.is_finite() || tol <= 0.0 {
        return Ok(None);
    }
    let task_order = tasks.order_by_decreasing_utilization();
    let machine_order = platform.order_by_increasing_speed();
    // One workspace shared by every probe: only the first may allocate.
    let mut ws = ScanWorkspace::new();
    bisect_alpha(hi, tol, sink, |alpha| {
        let out = first_fit_ordered_ws(
            tasks,
            platform,
            alpha,
            admission,
            &task_order,
            &machine_order,
            &mut ws,
            gas,
            sink,
        );
        match out {
            Outcome::BudgetExhausted { .. } => {
                // Ops exhaustion leaves check_now() Ok — default to Ops.
                Err(gas.check_now().err().unwrap_or(Exhaustion::Ops))
            }
            other => Ok(other.is_feasible()),
        }
    })
}

/// The probe sequence every α-search runs: `1`, then `hi`, then midpoints
/// until the bracket is at most `tol` wide, counting `alpha.probes` and
/// `alpha.bisect_iters` into `sink`. The scan and the indexed engine decide
/// each probe identically, so sharing this sequence makes their α*
/// identical even where acceptance is not monotone in α. `hi` and `tol`
/// must already be validated.
pub(crate) fn bisect_alpha<S: MetricsSink>(
    hi: f64,
    tol: f64,
    sink: &S,
    mut accepts: impl FnMut(Augmentation) -> Result<bool, Exhaustion>,
) -> Result<Option<f64>, Exhaustion> {
    let mut probe = |alpha: f64| {
        if S::ENABLED {
            sink.counter_add(metrics::ALPHA_PROBES, 1);
        }
        accepts(Augmentation::new(alpha).expect("alpha ∈ [1, hi], finite"))
    };
    if probe(1.0)? {
        return Ok(Some(1.0));
    }
    if !probe(hi)? {
        return Ok(None);
    }
    let (mut lo, mut hi) = (1.0, hi);
    while hi - lo > tol {
        if S::ENABLED {
            sink.counter_add(metrics::ALPHA_BISECT_ITERS, 1);
        }
        let mid = 0.5 * (lo + hi);
        if probe(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(Some(hi))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{EdfAdmission, RmsLlAdmission};
    use hetfeas_model::Augmentation;

    fn platform(speeds: &[u64]) -> Platform {
        Platform::from_int_speeds(speeds.iter().copied()).unwrap()
    }

    #[test]
    fn assigns_heavy_tasks_to_slowest_feasible_machine() {
        // Tasks 0.9, 0.4, 0.3 on speeds [1, 2]: first-fit places 0.9 on the
        // speed-1 machine (it fits), then 0.4 and 0.3... 0.9+0.4 > 1 so 0.4
        // goes to machine 2, 0.3 won't fit machine 1 (1.2 > 1) → machine 2.
        let tasks = TaskSet::from_pairs([(9, 10), (4, 10), (3, 10)]).unwrap();
        let p = platform(&[1, 2]);
        let out = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        let a = out.assignment().expect("feasible");
        assert_eq!(a.machine_of(0), Some(0));
        assert_eq!(a.machine_of(1), Some(1));
        assert_eq!(a.machine_of(2), Some(1));
        assert!(a.validate(&tasks, &p, 1.0, &EdfAdmission));
    }

    #[test]
    fn machine_scan_is_by_increasing_speed_regardless_of_input_order() {
        // Platform given fast-first; the algorithm must still prefer slow.
        let tasks = TaskSet::from_pairs([(1, 2)]).unwrap();
        let p = platform(&[4, 1]);
        let out = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        assert_eq!(out.assignment().unwrap().machine_of(0), Some(1));
    }

    #[test]
    fn failure_reports_first_unplaceable_task_in_sorted_order() {
        // utils 0.8, 0.8, 0.8 on speeds [1,1]: third 0.8 fails.
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let out = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        let w = out.witness().expect("infeasible");
        assert_eq!(w.failing_task, 2);
        assert_eq!(w.failing_utilization, 0.8);
        assert_eq!(w.partial.assigned_count(), 2);
    }

    #[test]
    fn augmentation_rescues_rejected_sets() {
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        assert!(!first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission).is_feasible());
        assert!(
            first_fit(&tasks, &p, Augmentation::EDF_VS_PARTITIONED, &EdfAdmission).is_feasible()
        );
    }

    #[test]
    fn task_too_heavy_for_any_machine_fails_even_on_empty_platform() {
        let tasks = TaskSet::from_pairs([(3, 1)]).unwrap(); // util 3
        let p = platform(&[1, 2]);
        let out = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        assert_eq!(out.witness().unwrap().failing_task, 0);
        // Speed augmentation 1.5 makes the fast machine speed 3 — fits.
        let out = first_fit(&tasks, &p, Augmentation::new(1.5).unwrap(), &EdfAdmission);
        assert!(out.is_feasible());
    }

    #[test]
    fn rms_is_stricter_than_edf() {
        // Two tasks of 0.45 on one speed-1 machine: EDF fits (0.9 ≤ 1),
        // RMS-LL does not (bound 0.8284).
        let tasks = TaskSet::from_pairs([(45, 100), (45, 100)]).unwrap();
        let p = platform(&[1]);
        assert!(first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission).is_feasible());
        assert!(!first_fit(&tasks, &p, Augmentation::NONE, &RmsLlAdmission).is_feasible());
    }

    #[test]
    fn empty_taskset_is_trivially_feasible() {
        let out = first_fit(
            &TaskSet::empty(),
            &platform(&[1]),
            Augmentation::NONE,
            &EdfAdmission,
        );
        assert!(out.is_feasible());
        assert!(out.assignment().unwrap().is_complete());
    }

    #[test]
    fn min_alpha_bisection() {
        // Three 0.8 tasks on two unit machines need α = 1.6 (two on one
        // machine: 1.6 ≤ α).
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let a = min_feasible_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6).unwrap();
        assert!((a - 1.6).abs() < 1e-5, "got {a}");
        // Already-feasible sets need exactly 1.
        let light = TaskSet::from_pairs([(1, 10)]).unwrap();
        assert_eq!(
            min_feasible_alpha(&light, &p, &EdfAdmission, 4.0, 1e-6),
            Some(1.0)
        );
        // Impossible even at hi.
        let heavy = TaskSet::from_pairs([(100, 10)]).unwrap();
        assert_eq!(
            min_feasible_alpha(&heavy, &p, &EdfAdmission, 2.0, 1e-6),
            None
        );
    }

    #[test]
    fn min_alpha_rejects_invalid_searches_without_panicking() {
        let tasks = TaskSet::from_pairs([(8, 10)]).unwrap();
        let p = platform(&[1]);
        assert_eq!(
            min_feasible_alpha(&tasks, &p, &EdfAdmission, 0.5, 1e-6),
            None
        );
        assert_eq!(
            min_feasible_alpha(&tasks, &p, &EdfAdmission, f64::NAN, 1e-6),
            None
        );
        assert_eq!(
            min_feasible_alpha(&tasks, &p, &EdfAdmission, 4.0, f64::NAN),
            None
        );
        assert_eq!(
            min_feasible_alpha(&tasks, &p, &EdfAdmission, 4.0, 0.0),
            None
        );
        assert_eq!(
            min_feasible_alpha(&tasks, &p, &EdfAdmission, f64::INFINITY, 1e-6),
            None
        );
    }

    #[test]
    fn budgeted_first_fit_agrees_and_exhausts() {
        use hetfeas_robust::Budget;
        let tasks = TaskSet::from_pairs([(9, 10), (4, 10), (3, 10)]).unwrap();
        let p = platform(&[1, 2]);
        // Ample budget: identical to the unbudgeted scan.
        let mut gas = Budget::ops(1_000).gas();
        assert_eq!(
            first_fit_within(&tasks, &p, Augmentation::NONE, &EdfAdmission, &mut gas),
            first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission)
        );
        // One admission check of budget: stops with a partial assignment.
        let mut gas = Budget::ops(1).gas();
        let out = first_fit_within(&tasks, &p, Augmentation::NONE, &EdfAdmission, &mut gas);
        assert!(!out.is_decided());
        assert!(out.partial().assigned_count() <= 1);
    }

    #[test]
    fn budgeted_min_alpha_agrees_and_exhausts() {
        use hetfeas_robust::{Budget, Exhaustion, Gas};
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let a =
            min_feasible_alpha_within(&tasks, &p, &EdfAdmission, 4.0, 1e-6, &mut Gas::unlimited())
                .unwrap()
                .unwrap();
        assert!((a - 1.6).abs() < 1e-5);
        let mut gas = Budget::ops(3).gas();
        assert_eq!(
            min_feasible_alpha_within(&tasks, &p, &EdfAdmission, 4.0, 1e-6, &mut gas),
            Err(Exhaustion::Ops)
        );
    }

    #[test]
    fn workspace_allocations_zero_at_steady_state() {
        use hetfeas_obs::MemorySink;
        // The α-search shares one workspace across all its probes: only
        // the first probe may grow the two buffers (speeds + states).
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let sink = MemorySink::new();
        let a = min_feasible_alpha_with(&tasks, &p, &EdfAdmission, 4.0, 1e-6, &sink).unwrap();
        assert!((a - 1.6).abs() < 1e-5);
        let probes = sink.counter(metrics::ALPHA_PROBES);
        let allocs = sink.counter(metrics::FF_WORKSPACE_ALLOCS);
        assert!(probes > 3, "expected a multi-probe bisection, got {probes}");
        assert!(
            allocs <= 2,
            "steady-state probes must not allocate: {allocs} growths over {probes} probes"
        );
        // A reused explicit workspace across repeat scans: second run clean.
        let t_ord = tasks.order_by_decreasing_utilization();
        let m_ord = p.order_by_increasing_speed();
        let mut ws = ScanWorkspace::new();
        for pass in 0..3 {
            let sink = MemorySink::new();
            first_fit_ordered_ws(
                &tasks,
                &p,
                Augmentation::NONE,
                &EdfAdmission,
                &t_ord,
                &m_ord,
                &mut ws,
                &mut Gas::unlimited(),
                &sink,
            );
            let expect = if pass == 0 { 2 } else { 0 };
            assert_eq!(sink.counter(metrics::FF_WORKSPACE_ALLOCS), expect);
        }
    }

    #[test]
    fn tie_breaking_is_deterministic() {
        // Equal utilizations and equal speeds: assignment must be repeatable.
        let tasks = TaskSet::from_pairs([(1, 2), (2, 4), (3, 6)]).unwrap();
        let p = platform(&[1, 1, 1]);
        let a1 = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        let a2 = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        assert_eq!(a1, a2);
        // All three 0.5-util tasks pack pairwise: 0.5+0.5 on m0, 0.5 on m1.
        let a = a1.assignment().unwrap();
        assert_eq!(a.machine_of(0), Some(0));
        assert_eq!(a.machine_of(1), Some(0));
        assert_eq!(a.machine_of(2), Some(1));
    }
}
