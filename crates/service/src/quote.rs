//! Shed-time α quotes from a per-machine quote board.
//!
//! After every batch a shard republishes, into its tenant's
//! [`QuoteBoard`], the residents of each machine the batch changed —
//! their tasks in admission order — and nothing else: one machine for an
//! admitted add or a found remove, every machine after a committed
//! repack, a rollback or a boot (see
//! [`DurableEngine::take_changed`](hetfeas_partition::durable::DurableEngine::take_changed)).
//!
//! When the front end sheds an add, [`QuoteBoard::quote`] names the
//! smallest ladder rung `r ≥ α` at which the task would have fit a moment
//! ago. For each rung it runs the tenant's own admission test machine by
//! machine: fold the residents with `fold_state` at speed `r·s_j`, then
//! `admit` the task at that speed. That is the arithmetic an
//! `IncrementalEngine` at α = r runs when it imports the published state
//! (`fold_state` per machine) and probes the add (`admit`, machine by
//! machine until one accepts). So the quote equals probing a scratch
//! engine once per rung, without building one. The board can lag the
//! live shard by one in-flight batch, so the quote is advisory: "at
//! α = x this task would have fit a moment ago".

use crate::engine::{PolicyKind, TenantEngine};
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_partition::durable::ChangedMachines;
use hetfeas_partition::{EdfAdmission, IndexableAdmission, RmsHyperbolicAdmission, RmsLlAdmission};

/// The per-machine residents a tenant's shed-time quotes read.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct QuoteBoard {
    /// Resident tasks per original machine index, in admission order;
    /// `None` while there is nothing to quote from (before the first boot
    /// and after quarantine).
    machines: Option<Vec<Vec<Task>>>,
}

impl QuoteBoard {
    /// A board built from scratch: every machine of `engine`.
    pub fn from_engine(engine: &TenantEngine) -> QuoteBoard {
        let mut board = QuoteBoard::default();
        board.refresh(engine, &ChangedMachines::All);
        board
    }

    /// Rewrite the entries `changed` names from `engine`. Returns the
    /// number of machine entries rewritten.
    pub fn refresh(&mut self, engine: &TenantEngine, changed: &ChangedMachines) -> usize {
        let m = engine.machines();
        let machines = self.machines.get_or_insert_with(Vec::new);
        machines.resize_with(m, Vec::new);
        match changed {
            ChangedMachines::All => {
                for (mi, entry) in machines.iter_mut().enumerate() {
                    engine.copy_residents(mi, entry);
                }
                m
            }
            ChangedMachines::Some(list) => {
                for &mi in list {
                    engine.copy_residents(mi, &mut machines[mi]);
                }
                list.len()
            }
        }
    }

    /// Forget every entry: a quarantined shard quotes nothing.
    pub fn clear(&mut self) {
        self.machines = None;
    }

    /// The smallest rung of `rungs` at or above `current_alpha` at which
    /// some machine of `platform` admits `task` on top of its published
    /// residents, under `policy`'s admission test; `None` when no rung
    /// does or the board is empty.
    pub fn quote(
        &self,
        policy: PolicyKind,
        platform: &Platform,
        current_alpha: f64,
        task: Task,
        rungs: &[f64],
    ) -> Option<f64> {
        let machines = self.machines.as_deref()?;
        rungs
            .iter()
            .copied()
            .filter(|&r| r >= current_alpha - 1e-9)
            .find(|&r| match policy {
                PolicyKind::Edf => fits(&EdfAdmission, platform, machines, r, &task),
                PolicyKind::RmsLl => fits(&RmsLlAdmission, platform, machines, r, &task),
                PolicyKind::RmsHyp => fits(&RmsHyperbolicAdmission, platform, machines, r, &task),
            })
    }
}

/// Would some machine admit `task` at rung `rung`? Speeds are computed as
/// `IncrementalEngine::with_policy` computes them.
fn fits<A: IndexableAdmission>(
    admission: &A,
    platform: &Platform,
    machines: &[Vec<Task>],
    rung: f64,
    task: &Task,
) -> bool {
    let Ok(alpha) = Augmentation::new(rung) else {
        return false;
    };
    machines.iter().enumerate().any(|(mi, residents)| {
        let speed = alpha.factor() * platform.speed_f64(mi);
        let state = admission.fold_state(residents, speed);
        admission.admit(&state, task, speed).is_some()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_model::Augmentation;
    use hetfeas_partition::durable::DurableOptions;
    use hetfeas_robust::journal::MemStorage;
    use hetfeas_robust::Gas;

    fn tenant(speeds: &[u64]) -> TenantEngine {
        TenantEngine::create(
            PolicyKind::Edf,
            &Platform::from_int_speeds(speeds.to_vec()).expect("platform"),
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(MemStorage::new()),
            &mut Gas::unlimited(),
            &(),
        )
        .expect("create")
    }

    #[test]
    fn refresh_rewrites_only_the_named_machines() {
        let mut eng = tenant(&[1, 2, 4]);
        let mut gas = Gas::unlimited();
        let mut board = QuoteBoard::default();
        let boot = eng.take_changed();
        assert_eq!(boot, ChangedMachines::All);
        assert_eq!(board.refresh(&eng, &boot), 3);
        let heavy = Task::implicit(15, 10).expect("task");
        eng.add(heavy, &mut gas, &()).expect("add");
        let changed = eng.take_changed();
        assert_eq!(changed, ChangedMachines::Some(vec![1]));
        assert_eq!(board.refresh(&eng, &changed), 1);
        assert_eq!(board, QuoteBoard::from_engine(&eng));
        assert_eq!(eng.take_changed(), ChangedMachines::Some(Vec::new()));
        // A quarantined shard's cleared board quotes nothing.
        let plat = Platform::from_int_speeds([1, 2, 4]).expect("platform");
        let light = Task::implicit(1, 10).expect("task");
        assert_eq!(
            board.quote(PolicyKind::Edf, &plat, 1.0, light, &[1.0]),
            Some(1.0)
        );
        board.clear();
        assert_eq!(
            board.quote(PolicyKind::Edf, &plat, 1.0, light, &[1.0]),
            None
        );
    }
}
