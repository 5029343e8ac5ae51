//! Ablation variants of the paper's partitioning heuristic (experiment E8):
//! different task orders, machine orders and fit strategies. The paper's
//! algorithm is `(DecreasingUtilization, IncreasingSpeed, FirstFit)`.

use crate::admission::AdmissionTest;
use crate::assignment::{Assignment, FailureWitness, Outcome};
use crate::first_fit::{first_fit_ordered, ScanWorkspace};
use hetfeas_model::{Augmentation, Platform, TaskSet};
use hetfeas_robust::Gas;

/// Order in which tasks are offered to the packer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskOrder {
    /// Non-increasing utilization (the paper's choice).
    DecreasingUtilization,
    /// Non-decreasing utilization (classically bad for first-fit).
    IncreasingUtilization,
    /// Original input order.
    AsGiven,
}

impl TaskOrder {
    /// Materialize the order for a task set.
    pub fn order(&self, tasks: &TaskSet) -> Vec<usize> {
        match self {
            TaskOrder::DecreasingUtilization => tasks.order_by_decreasing_utilization(),
            TaskOrder::IncreasingUtilization => {
                let mut o = tasks.order_by_decreasing_utilization();
                o.reverse();
                o
            }
            TaskOrder::AsGiven => (0..tasks.len()).collect(),
        }
    }

    /// Label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            TaskOrder::DecreasingUtilization => "dec-util",
            TaskOrder::IncreasingUtilization => "inc-util",
            TaskOrder::AsGiven => "as-given",
        }
    }
}

/// Order in which machines are scanned.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MachineOrder {
    /// Non-decreasing speed (the paper's choice: fill slow machines first).
    IncreasingSpeed,
    /// Non-increasing speed.
    DecreasingSpeed,
    /// Original input order.
    AsGiven,
}

impl MachineOrder {
    /// Materialize the order for a platform.
    pub fn order(&self, platform: &Platform) -> Vec<usize> {
        match self {
            MachineOrder::IncreasingSpeed => platform.order_by_increasing_speed(),
            MachineOrder::DecreasingSpeed => {
                let mut o = platform.order_by_increasing_speed();
                o.reverse();
                o
            }
            MachineOrder::AsGiven => (0..platform.len()).collect(),
        }
    }

    /// Label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            MachineOrder::IncreasingSpeed => "inc-speed",
            MachineOrder::DecreasingSpeed => "dec-speed",
            MachineOrder::AsGiven => "as-given",
        }
    }
}

/// How to choose among machines that admit the task.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FitStrategy {
    /// First admitting machine in scan order (the paper's choice).
    FirstFit,
    /// Admitting machine with the least residual capacity `α·s − load`
    /// (packs tightly).
    BestFit,
    /// Admitting machine with the greatest residual capacity (balances
    /// load).
    WorstFit,
}

impl FitStrategy {
    /// Label for tables.
    pub fn name(&self) -> &'static str {
        match self {
            FitStrategy::FirstFit => "first-fit",
            FitStrategy::BestFit => "best-fit",
            FitStrategy::WorstFit => "worst-fit",
        }
    }
}

/// A full heuristic configuration for E8.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeuristicConfig {
    /// Task ordering.
    pub task_order: TaskOrder,
    /// Machine ordering.
    pub machine_order: MachineOrder,
    /// Fit strategy.
    pub fit: FitStrategy,
}

impl HeuristicConfig {
    /// The paper's configuration.
    pub const PAPER: HeuristicConfig = HeuristicConfig {
        task_order: TaskOrder::DecreasingUtilization,
        machine_order: MachineOrder::IncreasingSpeed,
        fit: FitStrategy::FirstFit,
    };

    /// Compact label like `dec-util/inc-speed/first-fit`.
    pub fn label(&self) -> String {
        format!(
            "{}/{}/{}",
            self.task_order.name(),
            self.machine_order.name(),
            self.fit.name()
        )
    }
}

/// Run the partitioning heuristic described by `config`. First-fit is the
/// reference scan ([`first_fit_ordered`]) over the configured orders;
/// best- and worst-fit visit every admitting machine and keep the
/// earliest of equally good ones.
pub fn partition_with<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    config: HeuristicConfig,
) -> Outcome {
    let task_order = config.task_order.order(tasks);
    let machine_order = config.machine_order.order(platform);
    if config.fit == FitStrategy::FirstFit {
        return first_fit_ordered(
            tasks,
            platform,
            alpha,
            admission,
            &task_order,
            &machine_order,
            &mut ScanWorkspace::new(),
            &mut Gas::unlimited(),
            &(),
        );
    }
    let best = config.fit == FitStrategy::BestFit;
    let alpha = alpha.factor();

    let speeds: Vec<f64> = machine_order
        .iter()
        .map(|&m| alpha * platform.speed_f64(m))
        .collect();
    let mut states: Vec<A::State> = (0..platform.len())
        .map(|_| admission.empty_state())
        .collect();
    let mut assignment = Assignment::new(tasks.len(), platform.len());

    for &ti in &task_order {
        let task = &tasks[ti];
        // The admitting machine with the least (best-fit) or greatest
        // (worst-fit) residual `α·s − load`; strict comparisons keep the
        // earlier machine on a tie.
        let mut chosen: Option<(f64, usize, A::State)> = None;
        for slot in 0..machine_order.len() {
            let Some(next) = admission.admit(&states[slot], task, speeds[slot]) else {
                continue;
            };
            let residual = speeds[slot] - admission.load(&next);
            let better = match chosen {
                None => true,
                Some((r, ..)) if best => residual < r,
                Some((r, ..)) => residual > r,
            };
            if better {
                chosen = Some((residual, slot, next));
            }
        }
        match chosen {
            Some((_, slot, next)) => {
                states[slot] = next;
                assignment.assign(ti, machine_order[slot]);
            }
            None => {
                return Outcome::Infeasible(FailureWitness {
                    failing_task: ti,
                    failing_utilization: task.utilization(),
                    partial: assignment,
                });
            }
        }
    }
    Outcome::Feasible(assignment)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::EdfAdmission;
    use crate::first_fit::first_fit;

    fn setup() -> (TaskSet, Platform) {
        (
            TaskSet::from_pairs([(9, 10), (4, 10), (3, 10), (2, 10)]).unwrap(),
            Platform::from_int_speeds([1, 2]).unwrap(),
        )
    }

    #[test]
    fn paper_config_matches_first_fit() {
        let (tasks, p) = setup();
        let a = partition_with(
            &tasks,
            &p,
            Augmentation::NONE,
            &EdfAdmission,
            HeuristicConfig::PAPER,
        );
        let b = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
        assert_eq!(a, b);
    }

    #[test]
    fn orders_materialize_correct_permutations() {
        let (tasks, p) = setup();
        assert_eq!(
            TaskOrder::DecreasingUtilization.order(&tasks),
            vec![0, 1, 2, 3]
        );
        assert_eq!(
            TaskOrder::IncreasingUtilization.order(&tasks),
            vec![3, 2, 1, 0]
        );
        assert_eq!(TaskOrder::AsGiven.order(&tasks), vec![0, 1, 2, 3]);
        assert_eq!(MachineOrder::IncreasingSpeed.order(&p), vec![0, 1]);
        assert_eq!(MachineOrder::DecreasingSpeed.order(&p), vec![1, 0]);
    }

    #[test]
    fn worst_fit_balances_best_fit_packs() {
        // Two 0.4 tasks on unit-speed machines.
        let tasks = TaskSet::from_pairs([(4, 10), (4, 10)]).unwrap();
        let p = Platform::from_int_speeds([1, 1]).unwrap();
        let bf = partition_with(
            &tasks,
            &p,
            Augmentation::NONE,
            &EdfAdmission,
            HeuristicConfig {
                fit: FitStrategy::BestFit,
                ..HeuristicConfig::PAPER
            },
        );
        let a = bf.assignment().unwrap();
        assert_eq!(a.machine_of(0), a.machine_of(1), "best-fit packs together");

        let wf = partition_with(
            &tasks,
            &p,
            Augmentation::NONE,
            &EdfAdmission,
            HeuristicConfig {
                fit: FitStrategy::WorstFit,
                ..HeuristicConfig::PAPER
            },
        );
        let a = wf.assignment().unwrap();
        assert_ne!(a.machine_of(0), a.machine_of(1), "worst-fit spreads");
    }

    #[test]
    fn increasing_util_order_can_fail_where_decreasing_succeeds() {
        // Classic first-fit pathology: small items first fragment capacity.
        // utils: 0.3,0.3,0.3,0.55,0.55 on two unit machines.
        // dec-util: 0.55,0.55 → separate machines; 0.3s fill: m0:0.85,
        //   m1:0.85, last 0.3 fails? 0.55+0.3=0.85, +0.3=1.15 >1 → m1
        //   0.55+0.3=0.85, last 0.3: m0 1.15 no, m1 1.15 no → fails too.
        // Pick instead: 0.6,0.6,0.4,0.4 — dec: m0:0.6, m1:0.6, 0.4→m0(1.0),
        //   0.4→m1(1.0) ✓. inc: 0.4,0.4→m0(0.8); 0.6→m1(0.6); 0.6 → m0 1.4
        //   no, m1 1.2 no → fail ✓.
        let tasks = TaskSet::from_pairs([(6, 10), (6, 10), (4, 10), (4, 10)]).unwrap();
        let p = Platform::from_int_speeds([1, 1]).unwrap();
        let dec = partition_with(
            &tasks,
            &p,
            Augmentation::NONE,
            &EdfAdmission,
            HeuristicConfig::PAPER,
        );
        assert!(dec.is_feasible());
        let inc = partition_with(
            &tasks,
            &p,
            Augmentation::NONE,
            &EdfAdmission,
            HeuristicConfig {
                task_order: TaskOrder::IncreasingUtilization,
                ..HeuristicConfig::PAPER
            },
        );
        assert!(!inc.is_feasible());
    }

    #[test]
    fn labels() {
        assert_eq!(
            HeuristicConfig::PAPER.label(),
            "dec-util/inc-speed/first-fit"
        );
        assert_eq!(FitStrategy::BestFit.name(), "best-fit");
        assert_eq!(TaskOrder::AsGiven.name(), "as-given");
        assert_eq!(MachineOrder::DecreasingSpeed.name(), "dec-speed");
    }
}
