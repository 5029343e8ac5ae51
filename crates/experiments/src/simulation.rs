//! Experiment E7: end-to-end validation by discrete-event simulation.
//!
//! Every assignment the feasibility test accepts is replayed in the exact
//! simulator over two hyperperiods of each machine's residents, under the
//! synchronous periodic worst case;
//! Theorems II.2/II.3 promise zero misses, and the table verifies exactly
//! that. A control group force-assigns *rejected* instances round-robin and
//! confirms the simulator does observe misses there (the oracle is not
//! vacuous).

use crate::config::ExpConfig;
use crate::table::Table;
use hetfeas_model::{Augmentation, Ratio};
use hetfeas_par::par_map_with;
use hetfeas_partition::{first_fit, with_admission, Assignment, PolicyKind};
use hetfeas_sim::{validate_assignment, SchedPolicy};
use hetfeas_workload::{PeriodMenu, PlatformSpec, UtilizationSampler, WorkloadSpec};

struct CellOutcome {
    generated: usize,
    accepted: usize,
    validated: usize,
    miss_jobs: u64,
    forced_instances: usize,
    forced_with_misses: usize,
}

fn run_cell(cfg: &ExpConfig, policy: SchedPolicy, u_norm: f64, cell: u64) -> CellOutcome {
    let spec = WorkloadSpec {
        n_tasks: 10,
        normalized_utilization: u_norm,
        platform: PlatformSpec::BigLittle {
            big: 1,
            little: 3,
            ratio: 3,
        },
        sampler: UtilizationSampler::UUniFastCapped,
        periods: PeriodMenu::standard(),
    };
    let seed = cfg.cell_seed(cell);
    let indices: Vec<u64> = (0..cfg.samples as u64).collect();
    // (accepted, misses if accepted, forced-misses if rejected)
    let results: Vec<Option<(bool, u64, Option<bool>)>> =
        par_map_with(&indices, cfg.effective_workers(), 1, |&i| {
            let inst = spec.generate(seed, i)?;
            let kind = match policy {
                SchedPolicy::Edf => PolicyKind::Edf,
                SchedPolicy::RateMonotonic => PolicyKind::RmsLl,
            };
            let (tasks, platform) = (&inst.tasks, &inst.platform);
            let outcome =
                with_admission!(kind, adm => first_fit(tasks, platform, Augmentation::NONE, &adm));
            match outcome.assignment() {
                Some(a) => {
                    let report =
                        validate_assignment(&inst.tasks, &inst.platform, a, Ratio::ONE, policy)
                            .expect("simulation of a complete assignment");
                    Some((true, report.miss_count, None))
                }
                None => {
                    // Control: round-robin force-assignment, ignoring
                    // admission entirely.
                    let mut forced = Assignment::new(inst.tasks.len(), inst.platform.len());
                    for t in 0..inst.tasks.len() {
                        forced.assign(t, t % inst.platform.len());
                    }
                    let report = validate_assignment(
                        &inst.tasks,
                        &inst.platform,
                        &forced,
                        Ratio::ONE,
                        policy,
                    )
                    .expect("simulation of the forced assignment");
                    Some((false, 0, Some(report.miss_count > 0)))
                }
            }
        });

    let mut out = CellOutcome {
        generated: 0,
        accepted: 0,
        validated: 0,
        miss_jobs: 0,
        forced_instances: 0,
        forced_with_misses: 0,
    };
    for r in results.into_iter().flatten() {
        out.generated += 1;
        if r.0 {
            out.accepted += 1;
            out.miss_jobs += r.1;
            if r.1 == 0 {
                out.validated += 1;
            }
        } else if let Some(missed) = r.2 {
            out.forced_instances += 1;
            out.forced_with_misses += usize::from(missed);
        }
    }
    out
}

/// E7: simulator validation of accepted assignments.
pub fn e7(cfg: &ExpConfig) -> Vec<Table> {
    let mut table = Table::new(
        "E7: simulation validation of accepted partitions",
        &[
            "policy",
            "U/S",
            "gen",
            "accepted",
            "validated",
            "missed jobs",
            "forced",
            "forced w/ miss",
        ],
    );
    let mut cell = 0u64;
    for (policy, label) in [
        (SchedPolicy::Edf, "EDF"),
        (SchedPolicy::RateMonotonic, "RMS"),
    ] {
        for u in [0.5, 0.7, 0.9] {
            let o = run_cell(cfg, policy, u, cell);
            cell += 1;
            table.push_row(vec![
                label.to_string(),
                format!("{u:.2}"),
                o.generated.to_string(),
                o.accepted.to_string(),
                o.validated.to_string(),
                o.miss_jobs.to_string(),
                o.forced_instances.to_string(),
                o.forced_with_misses.to_string(),
            ]);
        }
    }
    table.note("validated must equal accepted and missed jobs must be 0 (Theorems II.2/II.3)");
    table
        .note("forced = rejected instances replayed with a round-robin assignment (control group)");
    table.note(
        "horizon = 2 hyperperiods of each machine's residents, synchronous periodic releases \
         (critical instant)",
    );
    vec![table]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e7_accepted_assignments_never_miss() {
        let cfg = ExpConfig {
            samples: 15,
            seed: 11,
            workers: 2,
        };
        let t = &e7(&cfg)[0];
        assert_eq!(t.rows.len(), 6);
        for row in &t.rows {
            assert_eq!(row[3], row[4], "accepted ≠ validated in {row:?}");
            assert_eq!(row[5], "0", "missed jobs in {row:?}");
        }
    }

    #[test]
    fn e7_control_group_detects_overload_at_high_load() {
        let cfg = ExpConfig {
            samples: 30,
            seed: 11,
            workers: 2,
        };
        let t = &e7(&cfg)[0];
        // At U/S = 0.9 the RMS heuristic rejects a fair share; most forced
        // round-robin assignments should miss. We only require: whenever
        // there are many forced instances, at least one misses.
        let forced_total: usize = t.rows.iter().map(|r| r[6].parse::<usize>().unwrap()).sum();
        let forced_miss: usize = t.rows.iter().map(|r| r[7].parse::<usize>().unwrap()).sum();
        if forced_total >= 10 {
            assert!(forced_miss > 0, "control group never missed: {t:?}");
        }
    }
}
