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
//! the indexable tests (EDF, RMS-LL, hyperbolic) the machine-major engine in
//! [`crate::engine`] produces byte-identical outcomes in `O((n+m)·log n)`
//! per run with reusable workspaces, and its α-search returns exactly
//! [`min_feasible_alpha`]'s answer; `hetfeas check`/`alpha`/`simulate`,
//! the online engines and experiments E1–E4 run on it. Both paths share
//! the exact sorts of `hetfeas_model`.

use crate::admission::AdmissionTest;
use crate::assignment::{Assignment, FailureWitness, Outcome};
use crate::metrics;
use hetfeas_model::{Augmentation, Platform, TaskSet};
use hetfeas_obs::{HistogramSnapshot, MetricsSink};
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
    first_fit_ordered(
        tasks,
        platform,
        alpha,
        admission,
        &tasks.order_by_decreasing_utilization(),
        &platform.order_by_increasing_speed(),
        &mut ScanWorkspace::new(),
        &mut Gas::unlimited(),
        &(),
    )
}

/// Reusable scratch buffers for the reference scan: the α-augmented speeds
/// and per-machine admission states in scan order. A workspace held across
/// calls — e.g. across the probes of [`min_feasible_alpha`] — makes every
/// call after the first allocation-free; an enabled sink counts each
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

/// The reference scan in full: [`first_fit`] over explicit task/machine
/// orders, in a caller-owned [`ScanWorkspace`], under `gas`, counting into
/// `sink`.
///
/// * `task_order` and `machine_order` must be permutations of the
///   respective index ranges; the paper's algorithm (and [`first_fit`])
///   uses decreasing-utilization tasks and increasing-speed machines.
/// * Each admission check ticks `gas` once; exhaustion returns
///   [`Outcome::BudgetExhausted`] with the partial assignment built so far.
/// * `sink` receives the `ff.*` counters and the `ff.checks_per_task`
///   histogram (see [`crate::metrics`]). The hot loop accumulates counts
///   and histogram buckets into locals and flushes once per run, and
///   `&()` compiles the counting away.
#[allow(clippy::too_many_arguments)]
pub fn first_fit_ordered<A: AdmissionTest, S: MetricsSink>(
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

    let flush = |checks: u64, placed: u64, checks_per_task: &HistogramSnapshot| {
        if S::ENABLED {
            checks_per_task.flush(sink, metrics::FF_CHECKS_PER_TASK);
            sink.counter_add(metrics::FF_ADMISSION_CHECKS, checks);
            sink.counter_add(metrics::FF_MACHINES_VISITED, checks);
            sink.counter_add(metrics::FF_PLACED, placed);
        }
    };

    let mut checks = 0u64;
    let mut placed_count = 0u64;
    let mut checks_per_task = HistogramSnapshot::EMPTY;
    let mut assignment = Assignment::new(tasks.len(), platform.len());
    for &ti in task_order {
        let task = &tasks[ti];
        let mut placed = false;
        let mut task_checks = 0u64;
        for (slot, &mi) in machine_order.iter().enumerate() {
            if gas.tick().is_err() {
                flush(checks + task_checks, placed_count, &checks_per_task);
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
            checks_per_task.record(task_checks);
        }
        if !placed {
            flush(checks, placed_count, &checks_per_task);
            return Outcome::Infeasible(FailureWitness {
                failing_task: ti,
                failing_utilization: task.utilization(),
                partial: assignment,
            });
        }
        placed_count += 1;
    }
    flush(checks, placed_count, &checks_per_task);
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
/// Invalid searches (`hi` below 1 or non-finite, `tol` non-positive or
/// non-finite) return `None`. For indexable admissions,
/// [`crate::FirstFitEngine::min_feasible_alpha`] runs the same search with
/// the `O(log m)` indexed probe in place of the linear scan.
pub fn min_feasible_alpha<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    hi: f64,
    tol: f64,
) -> Option<f64> {
    bisect_alpha(
        tasks,
        platform,
        admission,
        hi,
        tol,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("unlimited gas cannot exhaust")
}

/// [`min_feasible_alpha`] under `gas`, counting into `sink`. The sorts run
/// once and every probe shares one [`ScanWorkspace`]. Each probe is a
/// [`first_fit_ordered`] run against `gas` that adds one to `alpha.probes`
/// and its own `ff.*` counts; each bisection halving adds one to
/// `alpha.bisect_iters`. Exhaustion is `Err(Exhaustion)`, distinct from
/// the in-band `Ok(None)` "even `hi` fails".
pub fn bisect_alpha<A: AdmissionTest, S: MetricsSink>(
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
    bisection(hi, tol, sink, |alpha| {
        let out = first_fit_ordered(
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
pub(crate) fn bisection<S: MetricsSink>(
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

/// Exact work counters of one scan, read back from its `ff.*` counters
/// and its `ff.checks_per_task` buckets.
#[cfg(test)]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct ScanStats {
    pub admission_checks: u64,
    pub placed: u64,
    pub machines_visited: u64,
    pub checks_per_task: Option<HistogramSnapshot>,
}

#[cfg(test)]
impl ScanStats {
    pub fn worst_case(n_tasks: usize, n_machines: usize) -> u64 {
        n_tasks as u64 * n_machines as u64
    }

    pub fn from_sink(sink: &hetfeas_obs::MemorySink) -> ScanStats {
        ScanStats {
            admission_checks: sink.counter(metrics::FF_ADMISSION_CHECKS),
            placed: sink.counter(metrics::FF_PLACED),
            machines_visited: sink.counter(metrics::FF_MACHINES_VISITED),
            checks_per_task: sink.histogram(metrics::FF_CHECKS_PER_TASK),
        }
    }
}

/// [`first_fit`] plus its exact work counters.
#[cfg(test)]
pub(crate) fn counted_first_fit<A: AdmissionTest>(
    t: &TaskSet,
    p: &Platform,
    alpha: Augmentation,
    adm: &A,
) -> (Outcome, ScanStats) {
    let sink = hetfeas_obs::MemorySink::new();
    let (to, mo) = (
        t.order_by_decreasing_utilization(),
        p.order_by_increasing_speed(),
    );
    let (ws, gas) = (&mut ScanWorkspace::new(), &mut Gas::unlimited());
    let out = first_fit_ordered(t, p, alpha, adm, &to, &mo, ws, gas, &sink);
    (out, ScanStats::from_sink(&sink))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::{EdfAdmission, RmsLlAdmission};
    use hetfeas_model::Augmentation;
    use hetfeas_obs::MemorySink;

    fn platform(speeds: &[u64]) -> Platform {
        Platform::from_int_speeds(speeds.iter().copied()).unwrap()
    }

    fn setup(pairs: &[(u64, u64)], speeds: &[u64]) -> (TaskSet, Platform) {
        (
            TaskSet::from_pairs(pairs.iter().copied()).unwrap(),
            platform(speeds),
        )
    }

    #[test]
    fn matches_uninstrumented_outcome() {
        let (ts, p) = setup(&[(9, 10), (4, 10), (3, 10)], &[1, 2]);
        let (out, _) = counted_first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
        assert_eq!(out, first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission));
    }

    #[test]
    fn counts_bounded_by_nm() {
        let (ts, p) = setup(&[(9, 10), (9, 10), (9, 10), (9, 10)], &[1, 1, 1]);
        let (_, stats) = counted_first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
        assert!(stats.admission_checks <= ScanStats::worst_case(ts.len(), p.len()));
        assert_eq!(stats.admission_checks, stats.machines_visited);
    }

    #[test]
    fn light_load_checks_one_machine_per_task() {
        // Everything fits the slowest machine → exactly n checks.
        let (ts, p) = setup(&[(1, 100); 5], &[1, 1, 1, 1]);
        let (out, stats) = counted_first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
        assert!(out.is_feasible());
        assert_eq!(stats.admission_checks, 5);
        assert_eq!(stats.placed, 5);
    }

    #[test]
    fn failure_scans_every_machine_for_the_failing_task() {
        let (ts, p) = setup(&[(9, 10), (9, 10), (9, 10)], &[1, 1]);
        let (out, stats) = counted_first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
        assert!(!out.is_feasible());
        // Task 1: 1 check (fits m0). Task 2: m0 full, m1 ok → 2 checks.
        // Task 3: scans both and fails → 2 checks.
        assert_eq!(stats.admission_checks, 1 + 2 + 2);
        assert_eq!(stats.placed, 2);
    }

    #[test]
    fn saturated_instance_approaches_worst_case() {
        // Tasks sized so each new one walks past all filled machines.
        let (ts, p) = setup(&[(1, 1); 4], &[1, 1, 1, 1]);
        let (out, stats) = counted_first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
        assert!(out.is_feasible());
        // Task k (1-based) performs k checks: 1+2+3+4 = 10 = n(n+1)/2.
        assert_eq!(stats.admission_checks, 10);
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
        let (to, mo) = (
            tasks.order_by_decreasing_utilization(),
            p.order_by_increasing_speed(),
        );
        let scan = |gas: &mut Gas| {
            let ws = &mut ScanWorkspace::new();
            first_fit_ordered(
                &tasks,
                &p,
                Augmentation::NONE,
                &EdfAdmission,
                &to,
                &mo,
                ws,
                gas,
                &(),
            )
        };
        // Ample budget: identical to the unbudgeted scan.
        assert_eq!(
            scan(&mut Budget::ops(1_000).gas()),
            first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission)
        );
        // One admission check of budget: stops with a partial assignment.
        let out = scan(&mut Budget::ops(1).gas());
        assert!(!out.is_decided());
        assert!(out.partial().assigned_count() <= 1);
    }

    #[test]
    fn budgeted_min_alpha_agrees_and_exhausts() {
        use hetfeas_robust::Budget;
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let a = bisect_alpha(
            &tasks,
            &p,
            &EdfAdmission,
            4.0,
            1e-6,
            &mut Gas::unlimited(),
            &(),
        )
        .unwrap()
        .unwrap();
        assert!((a - 1.6).abs() < 1e-5);
        let mut gas = Budget::ops(3).gas();
        assert_eq!(
            bisect_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6, &mut gas, &()),
            Err(Exhaustion::Ops)
        );
    }

    #[test]
    fn workspace_allocations_zero_at_steady_state() {
        // The α-search shares one workspace across all its probes: only
        // the first probe may grow the two buffers (speeds + states).
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = platform(&[1, 1]);
        let sink = MemorySink::new();
        let gas = &mut Gas::unlimited();
        let a = bisect_alpha(&tasks, &p, &EdfAdmission, 4.0, 1e-6, gas, &sink)
            .unwrap()
            .unwrap();
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
            first_fit_ordered(
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
