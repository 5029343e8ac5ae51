//! Experiments E1–E4: empirical verification of Theorems I.1–I.4.
//!
//! For each theorem: generate random instances, keep those the theorem's
//! *adversary* can schedule at speed 1 (exact partitioned oracle for
//! I.1/I.2, the LP for I.3/I.4), and measure the least augmentation α* at
//! which the paper's first-fit test accepts each. The theorem asserts
//! α* ≤ bound; the tables report the empirical distribution and the
//! violation count (which must be zero).

use crate::alpha_search::{empirical_alpha_indexed, AlphaStats};
use crate::config::ExpConfig;
use crate::table::{f3, Table};
use hetfeas_lp::lp_feasible;
use hetfeas_model::{Augmentation, Platform, TaskSet};
use hetfeas_par::par_map_with;
use hetfeas_partition::{
    exact_partition_edf, exact_partition_edf_rational, exact_partition_rms, first_fit,
    with_admission, ExactOutcome, PolicyKind,
};
use hetfeas_robust::Gas;
use hetfeas_workload::{PeriodMenu, PlatformSpec, UtilizationSampler, WorkloadSpec};

/// The adversary class a theorem compares against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Adversary {
    /// Exact optimal partitioned EDF (branch-and-bound) — Theorem I.1.
    PartitionedEdf {
        /// Branch-and-bound node budget.
        budget: u64,
    },
    /// Exact optimal partitioned fixed-priority via RTA — Theorem I.2.
    PartitionedRms {
        /// Branch-and-bound node budget.
        budget: u64,
    },
    /// The paper's LP (arbitrary, possibly migrative adversary) —
    /// Theorems I.3/I.4.
    Lp,
}

impl Adversary {
    /// `Some(feasible)` when decided, `None` when the oracle's budget ran
    /// out (instance skipped, counted in the table notes).
    fn decide(&self, tasks: &TaskSet, platform: &Platform) -> Option<bool> {
        match *self {
            Adversary::PartitionedEdf { budget } => {
                // Prefer the pure-integer oracle (no epsilon); fall back to
                // the f64 branch-and-bound if the hyperperiod cannot scale.
                let first =
                    exact_partition_edf_rational(tasks, platform, budget, &mut Gas::unlimited());
                let outcome = if first.is_decided() {
                    first
                } else {
                    exact_partition_edf(tasks, platform, budget)
                };
                match outcome {
                    ExactOutcome::Feasible(_) => Some(true),
                    ExactOutcome::Infeasible => Some(false),
                    ExactOutcome::Unknown => None,
                }
            }
            Adversary::PartitionedRms { budget } => {
                match exact_partition_rms(tasks, platform, budget) {
                    ExactOutcome::Feasible(_) => Some(true),
                    ExactOutcome::Infeasible => Some(false),
                    ExactOutcome::Unknown => None,
                }
            }
            Adversary::Lp => Some(lp_feasible(tasks, platform)),
        }
    }
}

/// One table cell: a workload family to sample.
#[derive(Debug, Clone)]
pub struct Cell {
    /// Platform family.
    pub platform: PlatformSpec,
    /// Task count.
    pub n: usize,
    /// Normalized utilization (fraction of total platform speed).
    pub u_norm: f64,
    /// Period menu (`None` → the standard menu).
    pub menu: Option<PeriodMenu>,
}

impl Cell {
    /// Cell with the standard period menu.
    pub fn new(platform: PlatformSpec, n: usize, u_norm: f64) -> Self {
        Cell {
            platform,
            n,
            u_norm,
            menu: None,
        }
    }

    /// Cell with the harmonic period menu (RM-friendly: exact RM can reach
    /// utilization 1, maximizing the gap to the Liu–Layland admission).
    pub fn harmonic(platform: PlatformSpec, n: usize, u_norm: f64) -> Self {
        Cell {
            platform,
            n,
            u_norm,
            menu: Some(PeriodMenu::harmonic()),
        }
    }
}

/// Per-cell measurement outcome.
struct CellResult {
    stats: AlphaStats,
    generated: usize,
    adversary_feasible: usize,
    undecided: usize,
    contrapositive_checked: usize,
}

/// Run one theorem experiment over the given cells.
pub fn run_theorem(
    cfg: &ExpConfig,
    id: &str,
    title: &str,
    admission: PolicyKind,
    adversary: Adversary,
    bound: f64,
    cells: &[Cell],
) -> Table {
    let mut table = Table::new(
        format!("{id}: {title}"),
        &[
            "platform", "n", "U/S", "gen", "feas", "mean α*", "p95 α*", "max α*", "bound", "viol",
        ],
    );
    let mut total_undecided = 0usize;
    let mut total_contrapositive = 0usize;

    for (cell_idx, cell) in cells.iter().enumerate() {
        let spec = WorkloadSpec {
            n_tasks: cell.n,
            normalized_utilization: cell.u_norm,
            platform: cell.platform,
            sampler: UtilizationSampler::UUniFastCapped,
            periods: cell.menu.clone().unwrap_or_else(PeriodMenu::standard),
        };
        let seed = cfg.cell_seed(cell_idx as u64);
        let indices: Vec<u64> = (0..cfg.samples as u64).collect();
        // (adversary verdict, measured α*, contrapositive ok) per instance.
        type Sample = Option<(Option<bool>, Option<f64>, bool)>;
        let results: Vec<Sample> = par_map_with(&indices, cfg.effective_workers(), 1, |&i| {
            let inst = spec.generate(seed, i)?;
            let (tasks, platform) = (&inst.tasks, &inst.platform);
            let feasible = adversary.decide(tasks, platform);
            let at_bound = Augmentation::new(bound).expect("bounds ≥ 1");
            // Both admissions are indexable, so the α-search runs on the
            // engine (sorts hoisted, O(log m) probes). Contrapositive
            // check: FF rejecting at α = bound must imply adversary
            // infeasibility (when decided).
            let (alpha, ff_at_bound) = with_admission!(admission, adm => (
                (feasible == Some(true))
                    .then(|| empirical_alpha_indexed(tasks, platform, adm, bound))
                    .flatten(),
                first_fit(tasks, platform, at_bound, &adm).is_feasible(),
            ));
            let contrapositive_ok = ff_at_bound || feasible != Some(true);
            Some((feasible, alpha, contrapositive_ok))
        });

        let mut cr = CellResult {
            stats: AlphaStats::default(),
            generated: 0,
            adversary_feasible: 0,
            undecided: 0,
            contrapositive_checked: 0,
        };
        for r in results.into_iter().flatten() {
            cr.generated += 1;
            match r.0 {
                Some(true) => {
                    cr.adversary_feasible += 1;
                    cr.stats.record(r.1, bound);
                }
                Some(false) => {}
                None => cr.undecided += 1,
            }
            if r.2 {
                cr.contrapositive_checked += 1;
            }
        }
        total_undecided += cr.undecided;
        total_contrapositive += cr.generated - cr.contrapositive_checked;

        table.push_row(vec![
            cell.platform.label(),
            cell.n.to_string(),
            format!("{:.2}", cell.u_norm),
            cr.generated.to_string(),
            cr.adversary_feasible.to_string(),
            f3(cr.stats.mean()),
            f3(cr.stats.p95()),
            f3(cr.stats.max()),
            f3(bound),
            cr.stats.violations().to_string(),
        ]);
    }
    table.note(format!(
        "α* = least augmentation at which first-fit ({}) accepts; bound from the theorem",
        admission.key().to_ascii_uppercase()
    ));
    table.note(format!(
        "adversary = {:?}; oracle-undecided instances skipped: {total_undecided}",
        adversary
    ));
    table.note(format!(
        "contrapositive failures (FF@bound rejects an adversary-feasible set): {total_contrapositive} (must be 0)"
    ));
    table
}

/// E1 — Theorem I.1: FF-EDF vs the optimal *partitioned* EDF adversary,
/// bound α = 2.
pub fn e1(cfg: &ExpConfig) -> Vec<Table> {
    let cells = vec![
        Cell::new(PlatformSpec::Identical { m: 3 }, 8, 0.80),
        Cell::new(PlatformSpec::Identical { m: 3 }, 8, 0.95),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 1,
                little: 3,
                ratio: 3,
            },
            10,
            0.80,
        ),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 1,
                little: 3,
                ratio: 3,
            },
            10,
            0.95,
        ),
        Cell::new(PlatformSpec::Geometric { m: 3, base: 2 }, 12, 0.90),
        Cell::new(PlatformSpec::Identical { m: 3 }, 8, 1.00),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 1,
                little: 3,
                ratio: 3,
            },
            10,
            1.00,
        ),
    ];
    vec![run_theorem(
        cfg,
        "E1",
        "FF-EDF vs optimal partitioned adversary (Theorem I.1, α ≤ 2)",
        PolicyKind::Edf,
        Adversary::PartitionedEdf { budget: 4_000_000 },
        2.0,
        &cells,
    )]
}

/// E2 — Theorem I.2: FF-RMS(LL) vs the optimal partitioned fixed-priority
/// adversary, bound α = √2 + 1 ≈ 2.414.
pub fn e2(cfg: &ExpConfig) -> Vec<Table> {
    let cells = vec![
        Cell::new(PlatformSpec::Identical { m: 2 }, 6, 0.55),
        Cell::new(PlatformSpec::Identical { m: 2 }, 6, 0.70),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 1,
                little: 2,
                ratio: 2,
            },
            8,
            0.60,
        ),
        Cell::new(PlatformSpec::Geometric { m: 3, base: 2 }, 8, 0.60),
        Cell::new(PlatformSpec::Identical { m: 2 }, 6, 0.80),
        Cell::harmonic(PlatformSpec::Identical { m: 2 }, 6, 0.85),
        Cell::harmonic(
            PlatformSpec::BigLittle {
                big: 1,
                little: 2,
                ratio: 2,
            },
            8,
            0.80,
        ),
    ];
    vec![run_theorem(
        cfg,
        "E2",
        "FF-RMS vs optimal partitioned adversary (Theorem I.2, α ≤ 2.414)",
        PolicyKind::RmsLl,
        Adversary::PartitionedRms { budget: 300_000 },
        Augmentation::RMS_VS_PARTITIONED.factor(),
        &cells,
    )]
}

/// E3 — Theorem I.3: FF-EDF vs the LP (arbitrary adversary), bound 2.98.
pub fn e3(cfg: &ExpConfig) -> Vec<Table> {
    let cells = vec![
        Cell::new(
            PlatformSpec::BigLittle {
                big: 2,
                little: 6,
                ratio: 4,
            },
            16,
            0.85,
        ),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 2,
                little: 6,
                ratio: 4,
            },
            16,
            0.98,
        ),
        Cell::new(PlatformSpec::Geometric { m: 5, base: 2 }, 24, 0.90),
        Cell::new(PlatformSpec::UniformRandom { m: 6, lo: 1, hi: 8 }, 32, 0.90),
        Cell::new(PlatformSpec::Identical { m: 8 }, 32, 0.95),
    ];
    vec![run_theorem(
        cfg,
        "E3",
        "FF-EDF vs LP / migrative adversary (Theorem I.3, α ≤ 2.98)",
        PolicyKind::Edf,
        Adversary::Lp,
        Augmentation::EDF_VS_ANY.factor(),
        &cells,
    )]
}

/// E4 — Theorem I.4: FF-RMS(LL) vs the LP, bound 3.34.
pub fn e4(cfg: &ExpConfig) -> Vec<Table> {
    let cells = vec![
        Cell::new(
            PlatformSpec::BigLittle {
                big: 2,
                little: 6,
                ratio: 4,
            },
            16,
            0.60,
        ),
        Cell::new(
            PlatformSpec::BigLittle {
                big: 2,
                little: 6,
                ratio: 4,
            },
            16,
            0.80,
        ),
        Cell::new(PlatformSpec::Geometric { m: 5, base: 2 }, 24, 0.70),
        Cell::new(PlatformSpec::UniformRandom { m: 6, lo: 1, hi: 8 }, 32, 0.70),
    ];
    vec![run_theorem(
        cfg,
        "E4",
        "FF-RMS vs LP / migrative adversary (Theorem I.4, α ≤ 3.34)",
        PolicyKind::RmsLl,
        Adversary::Lp,
        Augmentation::RMS_VS_ANY.factor(),
        &cells,
    )]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ExpConfig {
        ExpConfig {
            samples: 12,
            seed: 7,
            workers: 2,
        }
    }

    #[test]
    fn e1_reports_zero_violations() {
        let t = &e1(&tiny())[0];
        assert_eq!(t.rows.len(), 7);
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "Theorem I.1 violated: {row:?}");
        }
        assert!(t.notes.iter().any(|n| n.contains(": 0 (must be 0)")));
    }

    #[test]
    fn e2_reports_zero_violations() {
        let t = &e2(&tiny())[0];
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "Theorem I.2 violated: {row:?}");
        }
    }

    #[test]
    fn e3_reports_zero_violations() {
        let t = &e3(&tiny())[0];
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "Theorem I.3 violated: {row:?}");
        }
    }

    #[test]
    fn e4_reports_zero_violations() {
        let t = &e4(&tiny())[0];
        for row in &t.rows {
            assert_eq!(row.last().unwrap(), "0", "Theorem I.4 violated: {row:?}");
        }
    }

    #[test]
    fn adversary_lp_decides_immediately() {
        let tasks = TaskSet::from_pairs([(1, 2)]).unwrap();
        let p = Platform::identical(1).unwrap();
        assert_eq!(Adversary::Lp.decide(&tasks, &p), Some(true));
    }
}
