//! The no-panic battery (`DESIGN.md` §8): every public entry point of the
//! workspace terminates within its budget and never panics — on arbitrary
//! generated instances and on the adversarial [`FaultPlan`] corpus alike.

use hetfeas::analysis::{qpa_schedulable_within, rta_schedulable_within};
use hetfeas::experiments::{replay_instance, replay_ops, ReplayMode};
use hetfeas::lp::solve_paper_lp_within;
use hetfeas::model::properties;
use hetfeas::model::rng::Gen;
use hetfeas::model::{parse_op_trace, parse_system, Augmentation, Platform, Ratio, Task, TaskSet};
use hetfeas::partition::{
    bisect_alpha, exact_partition_edf, exact_partition_edf_degraded, first_fit, first_fit_ordered,
    lp_feasible_degraded, DurableEngine, DurableOptions, EdfAdmission, ExactOutcome, ExactSolver,
    LadderVerdict, Outcome, ScanWorkspace,
};
use hetfeas::robust::{guard, Budget, FaultKind, FaultPlan, MemStorage};
use hetfeas::sim::{validate_assignment_within, SchedPolicy};

fn menu_task(g: &mut Gen) -> Task {
    let c = g.range(1u64..=90);
    let p = g.pick(&[10u64, 20, 25, 40, 50, 100, 1000]);
    Task::implicit(c, p.max(c)).unwrap()
}

fn small_set(g: &mut Gen, max: usize) -> TaskSet {
    TaskSet::new(g.vec(0..max, menu_task))
}

fn small_platform(g: &mut Gen) -> Platform {
    Platform::from_int_speeds(g.vec(1..5, |g| g.range(1u64..=6))).unwrap()
}

/// An ops budget small enough to exhaust mid-computation on many of the
/// generated instances, so both the `Ok` and `Err` paths get exercised.
fn tight_ops(g: &mut Gen) -> u64 {
    match g.rng().below(3) {
        0 => 0,
        1 => g.range(1u64..200),
        _ => u64::MAX,
    }
}

properties! {
    // Budgeted first-fit terminates, never panics, and agrees with the
    // unbudgeted run whenever it does not exhaust.
    fn first_fit_within_terminates_and_agrees(g) {
        let (ts, p, ops) = (small_set(g, 14), small_platform(g), tight_ops(g));
        let mut gas = Budget::ops(ops).gas();
        let (to, mo) = (ts.order_by_decreasing_utilization(), p.order_by_increasing_speed());
        let ws = &mut ScanWorkspace::new();
        let budgeted =
            first_fit_ordered(&ts, &p, Augmentation::NONE, &EdfAdmission, &to, &mo, ws, &mut gas, &());
        if budgeted.is_decided() {
            let free = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission);
            assert_eq!(budgeted.is_feasible(), free.is_feasible());
        }
    }

    // The α-bisection under a budget either answers like the unbudgeted
    // search or reports exhaustion — it never panics or loops.
    fn alpha_search_within_terminates(g) {
        let (ts, p, ops) = (small_set(g, 10), small_platform(g), tight_ops(g));
        let mut gas = Budget::ops(ops).gas();
        let _ = bisect_alpha(&ts, &p, &EdfAdmission, 8.0, 1e-4, &mut gas, &());
    }

    // The exact-partition degradation ladder: always returns, and a
    // decided verdict is sound against the exact oracle.
    fn exact_ladder_is_sound_under_any_budget(g) {
        let (ts, p, ops) = (small_set(g, 9), small_platform(g), tight_ops(g));
        let mut gas = Budget::ops(ops).gas();
        let ladder = exact_partition_edf_degraded(&ts, &p, 100_000, 1, &mut gas, &());
        match exact_partition_edf(&ts, &p, 2_000_000) {
            ExactOutcome::Feasible(_) => {
                assert!(!matches!(ladder.verdict, LadderVerdict::Infeasible));
            }
            ExactOutcome::Infeasible => {
                assert!(!ladder.verdict.is_feasible());
            }
            ExactOutcome::Unknown => {}
        }
    }

    // The LP ladder mirrors the same contract against the LP oracle.
    fn lp_ladder_terminates(g) {
        let (ts, p, ops) = (small_set(g, 10), small_platform(g), tight_ops(g));
        let mut gas = Budget::ops(ops).gas();
        let _ = lp_feasible_degraded(&ts, &p, &mut gas, &());
    }

    // Budgeted single-machine analyses terminate on any menu instance.
    fn analysis_within_terminates(g) {
        let (ts, speed, ops) = (small_set(g, 12), g.range(1u64..=6), tight_ops(g));
        let s = Ratio::from_integer(speed as i128);
        let mut gas = Budget::ops(ops).gas();
        let _ = qpa_schedulable_within(&ts, s, &mut gas);
        let mut gas = Budget::ops(ops).gas();
        let _ = rta_schedulable_within(&ts, s, &mut gas);
    }

    // The budgeted LP solver terminates on any instance.
    fn lp_solver_within_terminates(g) {
        let (ts, p, ops) = (small_set(g, 10), small_platform(g), tight_ops(g));
        let mut gas = Budget::ops(ops).gas();
        let _ = solve_paper_lp_within(&ts, &p, &mut gas);
    }

    // A budgeted simulation either validates the first-fit witness or
    // reports exhaustion; a witness that simulates to completion is clean.
    fn budgeted_validation_terminates(g) {
        let (ts, p, ops) = (small_set(g, 8), small_platform(g), tight_ops(g));
        if let Outcome::Feasible(a) = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission) {
            let mut gas = Budget::ops(ops).gas();
            if let Ok(Ok(report)) = validate_assignment_within(
                &ts, &p, &a, Ratio::ONE, SchedPolicy::Edf, &mut gas,
            ) {
                assert_eq!(report.miss_count, 0, "EDF witness missed a deadline");
            }
        }
    }

    // The parser never panics on arbitrary input — it answers Ok or a
    // diagnostic Err for any byte soup.
    fn parser_never_panics(g) {
        let _ = parse_system(&g.text(200));
    }

    // The op-trace parser never panics on arbitrary input either.
    fn op_trace_parser_never_panics(g) {
        let _ = parse_op_trace(&g.text(300));
    }

    // Line-level corruption of a well-formed op trace — dropped,
    // duplicated (duplicate ids), truncated and junk lines, truncated
    // files — yields a diagnostic Err or a valid parse, never a panic;
    // and whatever still parses replays under a budget, through both the
    // in-memory engine and the journaled durability layer, without
    // panicking.
    fn corrupted_op_traces_never_panic(g) {
        let mutations = g.vec(1..5, |g| {
            (g.range(0usize..64), g.range(0usize..6), g.text(24))
        });
        let mut lines: Vec<String> = CORRUPTION_BASE_TRACE.lines().map(str::to_string).collect();
        for (pos, kind, junk) in mutations {
            if lines.is_empty() {
                break;
            }
            let i = pos % lines.len();
            match kind {
                0 => {
                    lines.remove(i);
                }
                1 => {
                    // Duplicate a line — re-adding a live id, re-opening
                    // an instance, doubling an `end`.
                    let line = lines[i].clone();
                    lines.insert(i, line);
                }
                2 => {
                    // Torn line (truncated at an arbitrary byte).
                    let mut cut = junk.len() % (lines[i].len() + 1);
                    while !lines[i].is_char_boundary(cut) {
                        cut -= 1;
                    }
                    lines[i].truncate(cut);
                }
                3 => lines[i] = junk,
                4 => lines.insert(i, junk),
                _ => {
                    // Torn file: drop everything from line i on.
                    lines.truncate(i);
                }
            }
        }
        let text = lines.join("\n");
        if let Ok(trace) = parse_op_trace(&text) {
            for inst in &trace.instances {
                let mut gas = Budget::ops(10_000).gas();
                let _ = replay_instance(
                    EdfAdmission,
                    &inst.platform,
                    inst.ops.iter().copied(),
                    Augmentation::NONE,
                    ReplayMode::Incremental,
                    &mut gas,
                    &(),
                );
                let mut gas = Budget::ops(10_000).gas();
                if let Ok(eng) = DurableEngine::create(
                    EdfAdmission,
                    &inst.platform,
                    Augmentation::NONE,
                    DurableOptions::default(),
                    Box::new(MemStorage::new()),
                    &mut gas,
                    &(),
                ) {
                    let _ = replay_ops(eng, inst.ops.iter().copied(), &mut gas, &());
                }
            }
        }
    }
}

/// Base trace for the corruption generator: two instances covering every
/// op kind, so mutations can manufacture duplicate ids, orphan ops,
/// unterminated instances and mid-line garbage.
const CORRUPTION_BASE_TRACE: &str = "\
begin alpha
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
repack
end

begin beta
machine 1
add 7 1 5
query 7
remove 7
end
";

/// Every fault-plan case runs through both ladders under a small ops
/// budget without panicking, and decided verdicts are internally
/// consistent (never both feasible and infeasible for the same case).
#[test]
fn fault_corpus_survives_both_ladders() {
    for seed in [0u64, 1, 42] {
        for case in FaultPlan::new(seed).cases() {
            let outcome = guard(&(), || {
                let mut gas = Budget::ops(200_000).gas();
                let exact = exact_partition_edf_degraded(
                    &case.tasks,
                    &case.platform,
                    50_000,
                    1,
                    &mut gas,
                    &(),
                );
                let mut gas = Budget::ops(200_000).gas();
                let lp = lp_feasible_degraded(&case.tasks, &case.platform, &mut gas, &());
                (exact, lp)
            });
            let (exact, lp) =
                outcome.unwrap_or_else(|p| panic!("case {} panicked: {}", case.name, p.message));
            // Exact-partitioned feasible implies LP (migrative) feasible,
            // so "exact feasible + lp infeasible" would be unsound.
            if exact.verdict.is_feasible() {
                assert!(
                    !matches!(lp.verdict, LadderVerdict::Infeasible),
                    "case {}: exact feasible but LP refuted",
                    case.name
                );
            }
        }
    }
}

/// Budget conformance on the B&B blowup corpus: these cases are
/// infeasible by counting (2m+1 pairs-only tasks on m machines), so under
/// *any* ops budget the solver may answer `Infeasible` or `Unknown` but
/// never `Feasible`; and once a meter exhausts mid-search, the latch is
/// sticky — every later tick keeps failing, so a caller that checks once
/// after the solve cannot be fooled by a revived meter.
#[test]
fn bnb_blowup_tiny_budgets_never_lie_and_latch_is_sticky() {
    for seed in [0u64, 7] {
        for case in FaultPlan::new(seed).cases() {
            if case.kind != FaultKind::BnbBlowup {
                continue;
            }
            for ops in [0u64, 1, 64, 4096, 100_000] {
                let mut gas = Budget::ops(ops).gas();
                let out = ExactSolver::new(&case.tasks, &case.platform, &EdfAdmission)
                    .workers(2)
                    .solve(&mut gas, &());
                assert!(
                    !matches!(out, ExactOutcome::Feasible(_)),
                    "case {} (ops={ops}): counting-infeasible instance reported feasible",
                    case.name
                );
                if matches!(out, ExactOutcome::Unknown) {
                    assert!(
                        gas.tick().is_err(),
                        "case {} (ops={ops}): Unknown verdict but the meter still ticks",
                        case.name
                    );
                    assert!(
                        gas.tick().is_err(),
                        "case {} (ops={ops}): exhaustion latch is not sticky",
                        case.name
                    );
                }
            }
        }
    }
}

/// Regression for the acceptance scenario: a starved exact search on the
/// blowup instance must fall back to a sound answer, not hang or lie.
#[test]
fn starved_exact_blowup_degrades_soundly() {
    // 21 distinct pairs-only tasks on 10 unit machines — infeasible, but
    // only provably so by exhaustive search (utilization 9.68 < 10).
    let tasks = TaskSet::new(
        (0..21)
            .map(|i| Task::implicit(451 + i, 1000).unwrap())
            .collect::<Vec<_>>(),
    );
    let platform = Platform::from_int_speeds(vec![1u64; 10]).unwrap();
    let mut gas = Budget::ops(10_000).gas();
    let ladder = exact_partition_edf_degraded(&tasks, &platform, u64::MAX, 1, &mut gas, &());
    assert!(
        !ladder.verdict.is_feasible(),
        "infeasible instance reported feasible after degradation"
    );
    assert!(
        ladder.degraded >= 1,
        "starved search must record a downgrade"
    );
}
