//! Metamorphic properties of the first-fit partitioner: transformations of
//! the input that provably must not change the verdict (or the placement),
//! checked over deterministic pseudo-random instance families.
//! The instances come from fixed seeds of the shared
//! [`hetfeas_model::rng::Rng`].

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_partition::{first_fit, EdfAdmission, FirstFitEngine, Outcome, RmsLlAdmission};
use hetfeas_robust::Gas;

/// Random instance: up to `max_n` tasks off a shared period menu, up to
/// `max_m` machines with small integer speeds.
fn instance(rng: &mut Rng, max_n: usize, max_m: usize) -> (Vec<(u64, u64)>, Vec<u64>) {
    const PERIODS: [u64; 6] = [10, 20, 25, 40, 50, 100];
    let n = rng.below(max_n as u64 + 1) as usize;
    let m = 1 + rng.below(max_m as u64) as usize;
    let tasks = (0..n)
        .map(|_| {
            let p = PERIODS[rng.below(PERIODS.len() as u64) as usize];
            (1 + rng.below(p.min(60)), p)
        })
        .collect();
    let speeds = (0..m).map(|_| 1 + rng.below(6)).collect();
    (tasks, speeds)
}

fn build(tasks: &[(u64, u64)], speeds: &[u64]) -> (TaskSet, Platform) {
    let ts = TaskSet::new(
        tasks
            .iter()
            .map(|&(c, p)| Task::implicit(c, p).expect("valid task"))
            .collect(),
    );
    let platform = Platform::from_int_speeds(speeds.to_vec()).expect("valid platform");
    (ts, platform)
}

fn alphas() -> [Augmentation; 3] {
    [
        Augmentation::NONE,
        Augmentation::new(1.5).unwrap(),
        Augmentation::new(2.0).unwrap(),
    ]
}

/// Per-machine load profile of a feasible outcome, or the failing task of
/// an infeasible one — the placement signature the metamorphic transforms
/// must preserve.
fn signature(outcome: &Outcome, ts: &TaskSet, m: usize) -> Result<Vec<f64>, usize> {
    match outcome {
        Outcome::Feasible(a) => Ok((0..m).map(|k| a.load_on(k, ts)).collect()),
        Outcome::Infeasible(w) => Err(w.failing_task),
        Outcome::BudgetExhausted { .. } => unreachable!("unbudgeted first-fit cannot exhaust"),
    }
}

// Scaling both sides of every admission inequality by a common power of
// two is exact in f64: multiplying every WCET by k scales every task
// utilization by k, and multiplying every speed by k scales every
// capacity by k, so the placement decisions — including ties — are
// bit-for-bit identical.
#[test]
fn common_power_of_two_scaling_preserves_placement() {
    let mut rng = Rng::new(0xA11CE);
    for round in 0..200 {
        let (tasks, speeds) = instance(&mut rng, 12, 4);
        let (ts, p) = build(&tasks, &speeds);
        for k in [2u64, 4, 8] {
            let scaled_tasks: Vec<(u64, u64)> =
                tasks.iter().map(|&(c, per)| (c * k, per)).collect();
            let scaled_speeds: Vec<u64> = speeds.iter().map(|&s| s * k).collect();
            let (ts_k, p_k) = build(&scaled_tasks, &scaled_speeds);
            for a in alphas() {
                let base = first_fit(&ts, &p, a, &EdfAdmission);
                let scaled = first_fit(&ts_k, &p_k, a, &EdfAdmission);
                // Assignments compare task-by-task; witnesses by task id
                // (the witness utilization itself scales by k).
                match (&base, &scaled) {
                    (Outcome::Feasible(b), Outcome::Feasible(s)) => {
                        for t in 0..ts.len() {
                            assert_eq!(
                                b.machine_of(t),
                                s.machine_of(t),
                                "round {round}: task {t} moved under ×{k} scaling"
                            );
                        }
                    }
                    (Outcome::Infeasible(b), Outcome::Infeasible(s)) => {
                        assert_eq!(b.failing_task, s.failing_task, "round {round} ×{k}");
                    }
                    _ => panic!("round {round}: verdict flipped under ×{k} scaling"),
                }
            }
        }
    }
}

// Permuting the input task list must not change the verdict or the
// per-machine load profile: first-fit sorts by decreasing utilization, so
// the sequence of utilization values offered to the scan is identical —
// only the identities of tied tasks may swap.
#[test]
fn input_permutation_preserves_verdict_and_loads() {
    let mut rng = Rng::new(0xBEEF);
    for round in 0..200 {
        let (tasks, speeds) = instance(&mut rng, 12, 4);
        let (ts, p) = build(&tasks, &speeds);
        let mut permuted = tasks.clone();
        rng.shuffle(&mut permuted);
        let (ts_perm, _) = build(&permuted, &speeds);
        for a in alphas() {
            let base = signature(&first_fit(&ts, &p, a, &EdfAdmission), &ts, speeds.len());
            let perm = signature(
                &first_fit(&ts_perm, &p, a, &EdfAdmission),
                &ts_perm,
                speeds.len(),
            );
            // Loads are sums of the same utilizations accumulated in the
            // same scan order, so they match exactly (no epsilon).
            assert_eq!(
                base.is_ok(),
                perm.is_ok(),
                "round {round}: verdict changed under permutation"
            );
            if let (Ok(b), Ok(q)) = (&base, &perm) {
                assert_eq!(
                    b, q,
                    "round {round}: load profile changed under permutation"
                );
            }
        }
    }
}

// Reusing one engine across many instances must be indistinguishable from
// a fresh engine per instance: interleave runs of unrelated instances and
// re-check the first one afterwards, for both indexable admissions.
#[test]
fn engine_reuse_is_idempotent_across_workspaces() {
    let mut rng = Rng::new(0xC0FFEE);
    let mut edf = FirstFitEngine::new(EdfAdmission);
    let mut rms = FirstFitEngine::new(RmsLlAdmission);
    for round in 0..100 {
        let (tasks, speeds) = instance(&mut rng, 12, 4);
        let (ts, p) = build(&tasks, &speeds);
        let (other_tasks, other_speeds) = instance(&mut rng, 16, 3);
        let (ts2, p2) = build(&other_tasks, &other_speeds);
        let gas = &mut Gas::unlimited();
        for a in alphas() {
            let first_edf = edf.run(&ts, &p, a, gas, &());
            let first_rms = rms.run(&ts, &p, a, gas, &());
            // Warm both workspaces on an unrelated instance, then repeat.
            edf.run(&ts2, &p2, a, gas, &());
            rms.run(&ts2, &p2, a, gas, &());
            assert_eq!(
                edf.run(&ts, &p, a, gas, &()),
                first_edf,
                "round {round}: EDF engine leaked state"
            );
            assert_eq!(
                rms.run(&ts, &p, a, gas, &()),
                first_rms,
                "round {round}: RMS engine leaked state"
            );
            // And a cold engine agrees with the warmed one.
            assert_eq!(
                FirstFitEngine::new(EdfAdmission).run(&ts, &p, a, gas, &()),
                first_edf,
                "round {round}: cold/warm EDF engines diverge"
            );
        }
    }
}
