//! Fully-rational exact partitioned-EDF oracle.
//!
//! The generic branch-and-bound in [`crate::exact`] runs its admission in
//! `f64` with the workspace epsilon — fine in practice, but the E1/E14
//! ground truth deserves zero tolerance games. This variant decides
//! partitioned-EDF feasibility in *pure integer arithmetic*: task loads
//! become `c_i · (H / p_i)` work-units-per-hyperperiod (exact, since menu
//! periods divide the hyperperiod `H`), and machine `j` of rational speed
//! `num_j/den_j` admits a load set iff
//!
//! ```text
//! (Σ loads) · den_j ≤ num_j · H        (all in u128)
//! ```
//!
//! A property test pins this oracle against the f64 branch-and-bound:
//! they may only disagree within ε of a capacity boundary, where the
//! rational answer is the correct one by definition.

use crate::assignment::Assignment;
use crate::exact::ExactOutcome;
use hetfeas_model::{Platform, TaskSet};
use hetfeas_robust::Gas;

struct RSearch<'a> {
    loads: &'a [u128],       // per task (sorted order applied via `order`)
    order: Vec<usize>,       // task indices, decreasing load
    caps: Vec<(u128, u128)>, // per machine slot: (num·H, den)
    machines: Vec<usize>,    // original machine index per slot
    suffix: Vec<u128>,       // suffix sums of ordered loads
    nodes_left: u64,
    gas: &'a mut Gas,
}

impl RSearch<'_> {
    fn fits(&self, used: u128, load: u128, slot: usize) -> bool {
        let (cap_num_h, den) = self.caps[slot];
        match used.checked_add(load).and_then(|tot| tot.checked_mul(den)) {
            Some(lhs) => lhs <= cap_num_h,
            None => false,
        }
    }

    /// Residual capacity of a slot in load units (floor), for pruning.
    fn residual(&self, used: u128, slot: usize) -> u128 {
        let (cap_num_h, den) = self.caps[slot];
        let cap_units = cap_num_h / den;
        cap_units.saturating_sub(used)
    }

    fn dfs(
        &mut self,
        depth: usize,
        used: &mut Vec<u128>,
        assignment: &mut Assignment,
    ) -> Option<bool> {
        if depth == self.order.len() {
            return Some(true);
        }
        if self.nodes_left == 0 || self.gas.tick().is_err() {
            return None;
        }
        self.nodes_left -= 1;

        // Optimistic residual bound (exact integers — no epsilon).
        let residual: u128 = (0..self.caps.len())
            .map(|s| self.residual(used[s], s))
            .sum();
        if self.suffix[depth] > residual {
            return Some(false);
        }

        let ti = self.order[depth];
        let load = self.loads[ti];
        let mut exhausted = false;
        let mut tried_empty: Vec<(u128, u128)> = Vec::new();
        for slot in 0..self.caps.len() {
            if used[slot] == 0 {
                if tried_empty.contains(&self.caps[slot]) {
                    continue; // identical empty machines are interchangeable
                }
                tried_empty.push(self.caps[slot]);
            }
            if !self.fits(used[slot], load, slot) {
                continue;
            }
            used[slot] += load;
            assignment.assign(ti, self.machines[slot]);
            match self.dfs(depth + 1, used, assignment) {
                Some(true) => return Some(true),
                Some(false) => {}
                // Budget gone — abandon sibling subtrees immediately.
                None => {
                    assignment.unassign(ti);
                    used[slot] -= load;
                    exhausted = true;
                    break;
                }
            }
            assignment.unassign(ti);
            used[slot] -= load;
        }
        if exhausted {
            None
        } else {
            Some(false)
        }
    }
}

/// Exact partitioned-EDF feasibility at speed 1, in pure integer
/// arithmetic. Requires the task set's hyperperiod (and per-task scaled
/// loads) to fit `u128` — guaranteed for the divisor-friendly period menus
/// the workspace uses; returns [`ExactOutcome::Unknown`] otherwise (callers
/// can fall back to the f64 oracle). Each branch node ticks `gas`;
/// exhaustion yields [`ExactOutcome::Unknown`] too.
pub fn exact_partition_edf_rational(
    tasks: &TaskSet,
    platform: &Platform,
    node_budget: u64,
    gas: &mut Gas,
) -> ExactOutcome {
    if tasks.is_empty() {
        return ExactOutcome::Feasible(Assignment::new(0, platform.len()));
    }
    let Some((h, loads)) = tasks.scaled_loads() else {
        return ExactOutcome::Unknown; // hyperperiod overflow — cannot scale
    };
    let machine_order = platform.order_by_increasing_speed();
    let mut caps = Vec::with_capacity(platform.len());
    for &m in &machine_order {
        let s = platform.machine(m).speed();
        let num = s.numer() as u128;
        let den = s.denom() as u128;
        let Some(cap) = num.checked_mul(h) else {
            return ExactOutcome::Unknown;
        };
        caps.push((cap, den));
    }
    let mut order: Vec<usize> = (0..tasks.len()).collect();
    order.sort_by(|&a, &b| loads[b].cmp(&loads[a]).then(a.cmp(&b)));
    let mut suffix = vec![0u128; order.len() + 1];
    for d in (0..order.len()).rev() {
        suffix[d] = suffix[d + 1] + loads[order[d]];
    }
    let mut search = RSearch {
        loads: &loads,
        order,
        caps,
        machines: machine_order,
        suffix,
        nodes_left: node_budget,
        gas,
    };
    let mut used = vec![0u128; platform.len()];
    let mut assignment = Assignment::new(tasks.len(), platform.len());
    match search.dfs(0, &mut used, &mut assignment) {
        Some(true) => ExactOutcome::Feasible(assignment),
        Some(false) => ExactOutcome::Infeasible,
        None => ExactOutcome::Unknown,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exact::exact_partition_edf;

    #[test]
    fn agrees_with_f64_oracle_on_fixed_cases() {
        let p2 = Platform::identical(2).unwrap();
        let p12 = Platform::from_int_speeds([1, 2]).unwrap();
        let cases: Vec<(Vec<(u64, u64)>, &Platform)> = vec![
            (vec![(6, 10), (6, 10), (4, 10), (4, 10)], &p2),
            (vec![(8, 10), (8, 10), (8, 10)], &p2),
            (
                vec![
                    (46, 100),
                    (46, 100),
                    (30, 100),
                    (30, 100),
                    (24, 100),
                    (24, 100),
                ],
                &p2,
            ),
            (vec![(9, 10), (9, 10), (9, 10)], &p12),
            (vec![(1, 2); 9], &p2),
        ];
        for (pairs, platform) in cases {
            let ts = TaskSet::from_pairs(pairs).unwrap();
            let rational =
                exact_partition_edf_rational(&ts, platform, 1 << 22, &mut Gas::unlimited());
            let float = exact_partition_edf(&ts, platform, 1 << 22);
            assert_eq!(
                rational.is_feasible(),
                float.is_feasible(),
                "oracles disagree on {ts}"
            );
        }
    }

    #[test]
    fn knife_edge_decides_exactly() {
        // Loads exactly filling both machines: 1/3 + 2/3 = 1 per machine.
        let ts = TaskSet::from_pairs([(1, 3), (2, 3), (1, 3), (2, 3)]).unwrap();
        let p = Platform::identical(2).unwrap();
        assert!(
            exact_partition_edf_rational(&ts, &p, 1 << 20, &mut Gas::unlimited()).is_feasible()
        );
        // One extra unit of work anywhere tips it over — exactly.
        let ts = TaskSet::from_pairs([(1, 3), (2, 3), (1, 3), (2, 3), (1, 300)]).unwrap();
        assert_eq!(
            exact_partition_edf_rational(&ts, &p, 1 << 20, &mut Gas::unlimited()),
            ExactOutcome::Infeasible
        );
    }

    #[test]
    fn fractional_speeds_exact() {
        // Machine of speed 3/2: capacity is exactly 1.5 utilization.
        let p = Platform::from_f64_speeds([1.5]).unwrap();
        let fits = TaskSet::from_pairs([(3, 2)]).unwrap(); // 1.5
        assert!(
            exact_partition_edf_rational(&fits, &p, 1 << 16, &mut Gas::unlimited()).is_feasible()
        );
        let over = TaskSet::from_pairs([(3, 2), (1, 1000)]).unwrap();
        assert_eq!(
            exact_partition_edf_rational(&over, &p, 1 << 16, &mut Gas::unlimited()),
            ExactOutcome::Infeasible
        );
    }

    #[test]
    fn gas_exhaustion_reports_unknown() {
        use hetfeas_robust::Budget;
        let deep = TaskSet::from_pairs(vec![(5, 10); 12]).unwrap();
        let p6 = Platform::identical(6).unwrap();
        let mut gas = Budget::ops(2).gas();
        assert_eq!(
            exact_partition_edf_rational(&deep, &p6, u64::MAX, &mut gas),
            ExactOutcome::Unknown
        );
    }

    #[test]
    fn empty_and_budget_edges() {
        let p = Platform::identical(2).unwrap();
        assert!(
            exact_partition_edf_rational(&TaskSet::empty(), &p, 1, &mut Gas::unlimited())
                .is_feasible()
        );
        let deep = TaskSet::from_pairs(vec![(5, 10); 12]).unwrap();
        let p6 = Platform::identical(6).unwrap();
        assert_eq!(
            exact_partition_edf_rational(&deep, &p6, 1, &mut Gas::unlimited()),
            ExactOutcome::Unknown
        );
    }
}
