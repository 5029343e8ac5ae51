//! Exhaustive verification on a small discrete grid — no randomness, every
//! instance in the family is checked, so any coherence bug in the oracle
//! chain shows up deterministically.
//!
//! Family: utilizations from {0.25, 0.5, 0.75, 1.0} (as c/p = k/4), up to
//! 4 tasks, platforms [1], [1,1], [1,2]. That is 4+16+64+256 task sets ×
//! 3 platforms = 1 020 instances, each pushed through first-fit (EDF and
//! RMS), the exact branch-and-bound, the LP, and the level-algorithm
//! simulation.

use hetfeas::lp::lp_feasible;
use hetfeas::model::{Augmentation, Platform, Ratio, TaskSet};
use hetfeas::obs::MemorySink;
use hetfeas::partition::{
    exact_partition_edf, exact_partition_rms, first_fit, first_fit_ordered, EdfAdmission,
    FirstFitEngine, RmsLlAdmission, ScanWorkspace,
};
use hetfeas::robust::Gas;
use hetfeas::sim::{level_schedulable, validate_assignment, SchedPolicy};

fn all_tasksets(max_n: usize) -> Vec<TaskSet> {
    let mut out = Vec::new();
    // wcets from 1..=4 over period 4 → utils 0.25..1.0.
    fn rec(prefix: &mut Vec<u64>, max_n: usize, out: &mut Vec<TaskSet>) {
        if !prefix.is_empty() {
            out.push(TaskSet::from_pairs(prefix.iter().map(|&c| (c, 4))).unwrap());
        }
        if prefix.len() == max_n {
            return;
        }
        // Non-decreasing wcets to kill permutation duplicates (every
        // algorithm here is permutation-invariant up to tie-breaking of
        // equal utilizations, and feasibility certainly is).
        let lo = prefix.last().copied().unwrap_or(1);
        for c in lo..=4 {
            prefix.push(c);
            rec(prefix, max_n, out);
            prefix.pop();
        }
    }
    rec(&mut Vec::new(), max_n, &mut out);
    out
}

fn platforms() -> Vec<Platform> {
    vec![
        Platform::identical(1).unwrap(),
        Platform::identical(2).unwrap(),
        Platform::from_int_speeds([1, 2]).unwrap(),
    ]
}

#[test]
fn exhaustive_oracle_coherence() {
    let mut checked = 0usize;
    for platform in platforms() {
        for ts in all_tasksets(4) {
            checked += 1;
            let ff_edf = first_fit(&ts, &platform, Augmentation::NONE, &EdfAdmission);
            let exact_edf = exact_partition_edf(&ts, &platform, 1 << 20);
            assert!(exact_edf.is_decided(), "budget must suffice at this size");
            let lp = lp_feasible(&ts, &platform);
            let demands: Vec<Ratio> = ts.iter().map(|t| t.utilization_ratio()).collect();
            let speeds: Vec<Ratio> = platform.iter().map(|m| m.speed()).collect();
            let fluid = level_schedulable(&demands, &speeds);

            // Chain: FF ⊆ exact ⊆ LP = fluid.
            if ff_edf.is_feasible() {
                assert!(exact_edf.is_feasible(), "FF ⊄ exact on {ts} / {platform}");
            }
            if exact_edf.is_feasible() {
                assert!(lp, "exact ⊄ LP on {ts} / {platform}");
            }
            assert_eq!(lp, fluid, "LP ≠ level simulation on {ts} / {platform}");

            // Theorem I.1 exhaustively: exact-feasible ⇒ FF-EDF@2 accepts.
            if exact_edf.is_feasible() {
                assert!(
                    first_fit(
                        &ts,
                        &platform,
                        Augmentation::EDF_VS_PARTITIONED,
                        &EdfAdmission
                    )
                    .is_feasible(),
                    "Theorem I.1 fails on {ts} / {platform}"
                );
            }
            // Theorem I.3 exhaustively: LP-feasible ⇒ FF-EDF@2.98 accepts.
            if lp {
                assert!(
                    first_fit(&ts, &platform, Augmentation::EDF_VS_ANY, &EdfAdmission)
                        .is_feasible(),
                    "Theorem I.3 fails on {ts} / {platform}"
                );
            }

            // Simulator agreement for every accepted EDF assignment.
            if let Some(a) = ff_edf.assignment() {
                let rep = validate_assignment(&ts, &platform, a, Ratio::ONE, SchedPolicy::Edf)
                    .expect("simulate");
                assert_eq!(rep.miss_count, 0, "accepted but missed: {ts} / {platform}");
            }
        }
    }
    assert_eq!(checked, 3 * (4 + 10 + 20 + 35), "combinatorial family size");
}

/// Wider conformance grid: tasks off a two-period utilization menu
/// ({k/4} ∪ {k/5}), every non-decreasing multiset of size ≤ `max_n`.
fn mixed_tasksets(max_n: usize) -> Vec<TaskSet> {
    const MENU: [(u64, u64); 9] = [
        (1, 5),
        (1, 4),
        (2, 5),
        (2, 4),
        (3, 5),
        (3, 4),
        (4, 5),
        (4, 4),
        (5, 5),
    ];
    let mut out = Vec::new();
    fn rec(prefix: &mut Vec<usize>, max_n: usize, out: &mut Vec<TaskSet>) {
        if !prefix.is_empty() {
            out.push(TaskSet::from_pairs(prefix.iter().map(|&i| MENU[i])).unwrap());
        }
        if prefix.len() == max_n {
            return;
        }
        let lo = prefix.last().copied().unwrap_or(0);
        for i in lo..MENU.len() {
            prefix.push(i);
            rec(prefix, max_n, out);
            prefix.pop();
        }
    }
    rec(&mut Vec::new(), max_n, &mut out);
    out
}

/// Every platform with m ≤ 3 machines over the speed menu {1, 2}.
fn wide_platforms() -> Vec<Platform> {
    [
        vec![1],
        vec![2],
        vec![1, 1],
        vec![1, 2],
        vec![2, 2],
        vec![1, 1, 1],
        vec![1, 1, 2],
        vec![1, 2, 2],
        vec![2, 2, 2],
    ]
    .into_iter()
    .map(|s| Platform::from_int_speeds(s).unwrap())
    .collect()
}

/// Conformance tier at the theorem constants, over the full n ≤ 4, m ≤ 3
/// coarse grid: whenever the exact partitioned oracle fits the instance at
/// speed 1, first-fit at α = 2 (EDF, Theorem I.1) and at α = 1/(√2−1)
/// (RMS-LL, Theorem I.2) must accept — no exceptions anywhere in the
/// family. The same sweep cross-checks the observability layer: the
/// instrumented scan's counters stay within the analytic worst case and
/// the indexed engine reports identical scan-equivalent counters.
#[test]
fn exhaustive_theorem_constants_wide_grid() {
    let tasksets = mixed_tasksets(4);
    let mut checked = 0usize;
    for platform in wide_platforms() {
        for ts in &tasksets {
            checked += 1;
            let exact = exact_partition_edf(ts, &platform, 1 << 20);
            assert!(
                exact.is_decided(),
                "EDF budget must suffice at n ≤ 4, m ≤ 3"
            );
            if exact.is_feasible() {
                assert!(
                    first_fit(
                        ts,
                        &platform,
                        Augmentation::EDF_VS_PARTITIONED,
                        &EdfAdmission
                    )
                    .is_feasible(),
                    "Theorem I.1 violated at α = 2 on {ts} / {platform}"
                );
            }

            // Counter conformance rides the same sweep: the scan does at
            // most n·m admission checks and places at most n tasks, and
            // the engine's derived counters match the scan exactly.
            let stats = MemorySink::new();
            let outcome = first_fit_ordered(
                ts,
                &platform,
                Augmentation::NONE,
                &EdfAdmission,
                &ts.order_by_decreasing_utilization(),
                &platform.order_by_increasing_speed(),
                &mut ScanWorkspace::new(),
                &mut Gas::unlimited(),
                &stats,
            );
            let ff = |s: &MemorySink| {
                ["ff.admission_checks", "ff.placed", "ff.machines_visited"].map(|k| s.counter(k))
            };
            let [checks, placed, _] = ff(&stats);
            let worst = ts.len() as u64 * platform.len() as u64;
            assert!(checks <= worst, "{ts} / {platform}");
            assert!(placed <= ts.len() as u64, "{ts} / {platform}");
            let sink = MemorySink::new();
            let engine_outcome = FirstFitEngine::new(EdfAdmission).run(
                ts,
                &platform,
                Augmentation::NONE,
                &mut Gas::unlimited(),
                &sink,
            );
            assert_eq!(
                engine_outcome, outcome,
                "engine diverges on {ts} / {platform}"
            );
            assert_eq!(
                ff(&sink),
                ff(&stats),
                "engine counters diverge on {ts} / {platform}"
            );
        }
    }
    // 9-element menu, non-decreasing multisets of sizes 1..=4:
    // 9 + 45 + 165 + 495 = 714 task sets on each of the 9 platforms.
    assert_eq!(checked, 9 * 714, "combinatorial family size");
}

/// RMS half of the conformance tier (n ≤ 3 keeps the exact RTA
/// branch-and-bound cheap): exact-partitioned-feasible at speed 1 ⇒
/// first-fit RMS-LL accepts at the Theorem I.2 constant √2 + 1.
#[test]
fn exhaustive_rms_theorem_constant_wide_grid() {
    for platform in wide_platforms() {
        for ts in mixed_tasksets(3) {
            let exact = exact_partition_rms(&ts, &platform, 1 << 20);
            assert!(
                exact.is_decided(),
                "RMS budget must suffice at n ≤ 3, m ≤ 3"
            );
            if exact.is_feasible() {
                assert!(
                    first_fit(
                        &ts,
                        &platform,
                        Augmentation::RMS_VS_PARTITIONED,
                        &RmsLlAdmission
                    )
                    .is_feasible(),
                    "Theorem I.2 violated at α = √2 + 1 on {ts} / {platform}"
                );
            }
        }
    }
}

#[test]
fn exhaustive_rms_chain() {
    for platform in platforms() {
        for ts in all_tasksets(3) {
            let ff = first_fit(&ts, &platform, Augmentation::NONE, &RmsLlAdmission);
            let exact = exact_partition_rms(&ts, &platform, 1 << 20);
            assert!(exact.is_decided());
            // FF with LL admission ⊆ exact RTA partitioning.
            if ff.is_feasible() {
                assert!(
                    exact.is_feasible(),
                    "LL-FF ⊄ exact RTA on {ts} / {platform}"
                );
            }
            // Theorem I.2 exhaustively.
            if exact.is_feasible() {
                assert!(
                    first_fit(
                        &ts,
                        &platform,
                        Augmentation::RMS_VS_PARTITIONED,
                        &RmsLlAdmission
                    )
                    .is_feasible(),
                    "Theorem I.2 fails on {ts} / {platform}"
                );
            }
            // Theorem I.4 exhaustively.
            if lp_feasible(&ts, &platform) {
                assert!(
                    first_fit(&ts, &platform, Augmentation::RMS_VS_ANY, &RmsLlAdmission)
                        .is_feasible(),
                    "Theorem I.4 fails on {ts} / {platform}"
                );
            }
            // Accepted RMS assignments survive simulation.
            if let Some(a) = ff.assignment() {
                let rep =
                    validate_assignment(&ts, &platform, a, Ratio::ONE, SchedPolicy::RateMonotonic)
                        .expect("simulate");
                assert_eq!(rep.miss_count, 0, "accepted RMS missed: {ts} / {platform}");
            }
        }
    }
}
