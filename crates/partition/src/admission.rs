//! Per-machine admission tests plugged into the paper's first-fit.
//!
//! §III of the paper: "The algorithm uses any algorithm A to schedule tasks
//! that are assigned to a machine" — admission onto a machine of augmented
//! speed `αs` holding a set `S` is
//!
//! * EDF:  `Σ_{S∪{τ}} w_i ≤ αs`
//! * RMS:  `Σ_{S∪{τ}} w_i ≤ (|S|+1)(2^{1/(|S|+1)} − 1)·αs`
//!
//! The trait keeps per-machine state so each admission check is O(1)
//! (amortized), preserving the paper's `O(n·m)` total running time. Two
//! extra tests beyond the paper — the hyperbolic bound and exact RTA — back
//! the E8/E9 ablations.

use crate::engine::IndexableAdmission;
use hetfeas_analysis::{rms_schedulable_kuo_mok, rta_schedulable_f64};
use hetfeas_model::{Task, TaskSet, EPS};

/// The ε-padded right-hand side of [`hetfeas_model::approx_le`]:
/// `approx_le(x, cap) ⟺ x <= admit_rhs(cap)`, by definition of
/// `approx_le`. Hoisting the padding onto the capacity side turns every
/// additive admission predicate into the single comparison
/// `load + u <= rhs`, evaluated once per machine state by the indexable
/// tests' rooms ([`crate::IndexableAdmission::room`]); their
/// [`AdmissionTest::admit`] impls below and the engine's residual hints
/// use the *same* expression, so they decide identically bit for bit.
#[inline(always)]
pub fn admit_rhs(cap: f64) -> f64 {
    cap + EPS * cap.abs().max(1.0)
}

/// A pluggable single-machine admission test with incremental state.
///
/// `speed` arguments are the *augmented* speed `α·s_j` of the machine under
/// the algorithm's speed augmentation.
pub trait AdmissionTest {
    /// Per-machine incremental state (e.g. the running utilization).
    type State: Clone;

    /// State of an empty machine.
    fn empty_state(&self) -> Self::State;

    /// If `task` can be admitted onto a machine of augmented speed `speed`
    /// currently in `state`, return the successor state; otherwise `None`.
    fn admit(&self, state: &Self::State, task: &Task, speed: f64) -> Option<Self::State>;

    /// Utilization load currently on the machine (used by best-/worst-fit
    /// variants to rank machines and by witnesses for reporting).
    fn load(&self, state: &Self::State) -> f64;

    /// Human-readable name for tables and logs.
    fn name(&self) -> &'static str;
}

/// EDF admission (Theorem II.2): utilization must fit the machine speed.
#[derive(Debug, Clone, Copy, Default)]
pub struct EdfAdmission;

impl AdmissionTest for EdfAdmission {
    type State = f64;

    fn empty_state(&self) -> f64 {
        0.0
    }

    #[inline]
    fn admit(&self, state: &f64, task: &Task, speed: f64) -> Option<f64> {
        self.admit_utilization(state, task.utilization(), speed)
    }

    fn load(&self, state: &f64) -> f64 {
        *state
    }

    fn name(&self) -> &'static str {
        "EDF"
    }
}

/// State for [`RmsLlAdmission`]: running utilization and task count.
#[derive(Debug, Clone, Copy, Default)]
pub struct RmsLlState {
    /// Sum of utilizations of the tasks assigned to the machine.
    pub load: f64,
    /// Number of tasks assigned to the machine.
    pub count: usize,
}

/// RMS admission via the Liu–Layland bound (Theorem II.3) — the test the
/// paper's Theorems I.2/I.4 analyze.
#[derive(Debug, Clone, Copy, Default)]
pub struct RmsLlAdmission;

impl AdmissionTest for RmsLlAdmission {
    type State = RmsLlState;

    fn empty_state(&self) -> RmsLlState {
        RmsLlState::default()
    }

    #[inline]
    fn admit(&self, state: &RmsLlState, task: &Task, speed: f64) -> Option<RmsLlState> {
        self.admit_utilization(state, task.utilization(), speed)
    }

    fn load(&self, state: &RmsLlState) -> f64 {
        state.load
    }

    fn name(&self) -> &'static str {
        "RMS-LL"
    }
}

/// State for [`RmsHyperbolicAdmission`]: running `Π (w_i/s + 1)` plus the
/// load for reporting.
#[derive(Debug, Clone, Copy)]
pub struct HyperbolicState {
    /// Running product `Π (w_i/speed + 1)`.
    pub product: f64,
    /// Sum of utilizations (reporting only).
    pub load: f64,
}

/// RMS admission via the hyperbolic bound `Π (w_i/s + 1) ≤ 2` (Bini &
/// Buttazzo) — strictly dominates Liu–Layland; the E9 ablation.
#[derive(Debug, Clone, Copy, Default)]
pub struct RmsHyperbolicAdmission;

impl AdmissionTest for RmsHyperbolicAdmission {
    type State = HyperbolicState;

    fn empty_state(&self) -> HyperbolicState {
        HyperbolicState {
            product: 1.0,
            load: 0.0,
        }
    }

    #[inline]
    fn admit(&self, state: &HyperbolicState, task: &Task, speed: f64) -> Option<HyperbolicState> {
        self.admit_utilization(state, task.utilization(), speed)
    }

    fn load(&self, state: &HyperbolicState) -> f64 {
        state.load
    }

    fn name(&self) -> &'static str {
        "RMS-hyperbolic"
    }
}

/// RMS admission via the Kuo–Mok harmonic-chain bound:
/// `Σ w ≤ k(2^{1/k} − 1)·s` with `k` the number of harmonic period
/// chains. Dominates Liu–Layland; shines on rate-grouped workloads
/// (avionics). O(n) per admission (chain count recomputed).
#[derive(Debug, Clone, Copy, Default)]
pub struct RmsKuoMokAdmission;

impl AdmissionTest for RmsKuoMokAdmission {
    type State = TaskSet;

    fn empty_state(&self) -> TaskSet {
        TaskSet::empty()
    }

    fn admit(&self, state: &TaskSet, task: &Task, speed: f64) -> Option<TaskSet> {
        let mut candidate = state.clone();
        candidate.push(*task);
        rms_schedulable_kuo_mok(&candidate, speed).then_some(candidate)
    }

    fn load(&self, state: &TaskSet) -> f64 {
        state.total_utilization()
    }

    fn name(&self) -> &'static str {
        "RMS-KuoMok"
    }
}

/// Exact fixed-priority admission: re-runs response-time analysis on the
/// machine's accumulated task set for every attempt. O(set²·periods) per
/// admission — *not* O(1); this deliberately trades the paper's O(nm) bound
/// for exactness (experiment E9 quantifies the acceptance gain).
#[derive(Debug, Clone, Copy, Default)]
pub struct RmsRtaAdmission;

impl AdmissionTest for RmsRtaAdmission {
    type State = TaskSet;

    fn empty_state(&self) -> TaskSet {
        TaskSet::empty()
    }

    fn admit(&self, state: &TaskSet, task: &Task, speed: f64) -> Option<TaskSet> {
        let mut candidate = state.clone();
        candidate.push(*task);
        rta_schedulable_f64(&candidate, speed).then_some(candidate)
    }

    fn load(&self, state: &TaskSet) -> f64 {
        state.total_utilization()
    }

    fn name(&self) -> &'static str {
        "RMS-RTA"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_model::Task;

    fn t(c: u64, p: u64) -> Task {
        Task::implicit(c, p).unwrap()
    }

    #[test]
    fn edf_admission_accumulates() {
        let a = EdfAdmission;
        let s0 = a.empty_state();
        let s1 = a.admit(&s0, &t(1, 2), 1.0).expect("0.5 fits");
        assert_eq!(a.load(&s1), 0.5);
        let s2 = a.admit(&s1, &t(1, 2), 1.0).expect("1.0 fits exactly");
        assert_eq!(a.load(&s2), 1.0);
        assert!(a.admit(&s2, &t(1, 100), 1.0).is_none());
    }

    #[test]
    fn edf_admission_respects_speed() {
        let a = EdfAdmission;
        let s0 = a.empty_state();
        assert!(a.admit(&s0, &t(3, 2), 1.0).is_none()); // util 1.5 > 1
        assert!(a.admit(&s0, &t(3, 2), 1.5).is_some());
    }

    #[test]
    fn rms_ll_admission_uses_count_dependent_bound() {
        let a = RmsLlAdmission;
        let s0 = a.empty_state();
        // First task may use the whole machine (bound(1) = 1).
        let s1 = a.admit(&s0, &t(82, 100), 1.0).unwrap();
        assert_eq!(s1.count, 1);
        // Second pushes count to 2: bound ≈ 0.8284; 0.82 + 0.01 = 0.83 > bound.
        assert!(a.admit(&s1, &t(1, 100), 1.0).is_none());
        // A lighter pair fits: 0.41 + 0.41 = 0.82 ≤ 0.8284.
        let s1 = a.admit(&s0, &t(41, 100), 1.0).unwrap();
        assert!(a.admit(&s1, &t(41, 100), 1.0).is_some());
    }

    #[test]
    fn hyperbolic_admits_more_than_ll() {
        let ll = RmsLlAdmission;
        let hy = RmsHyperbolicAdmission;
        // utils 0.5 then 0.33: LL rejects the pair, hyperbolic accepts.
        let l1 = ll.admit(&ll.empty_state(), &t(1, 2), 1.0).unwrap();
        assert!(ll.admit(&l1, &t(33, 100), 1.0).is_none());
        let h1 = hy.admit(&hy.empty_state(), &t(1, 2), 1.0).unwrap();
        assert!(hy.admit(&h1, &t(33, 100), 1.0).is_some());
    }

    #[test]
    fn rta_admission_exact_on_harmonic_sets() {
        let a = RmsRtaAdmission;
        let mut st = a.empty_state();
        // Harmonic set reaching utilization 1.0 — LL would refuse, RTA admits.
        for task in [t(1, 2), t(1, 4), t(2, 8)] {
            st = a
                .admit(&st, &task, 1.0)
                .expect("harmonic set is RM-schedulable");
        }
        assert!((a.load(&st) - 1.0).abs() < 1e-12);
        assert!(a.admit(&st, &t(1, 1000), 1.0).is_none());
    }

    #[test]
    fn kuo_mok_admits_harmonic_chains_to_full_load() {
        let a = RmsKuoMokAdmission;
        let mut st = a.empty_state();
        for task in [t(1, 2), t(1, 4), t(2, 8)] {
            st = a.admit(&st, &task, 1.0).expect("harmonic chain, k = 1");
        }
        assert!((a.load(&st) - 1.0).abs() < 1e-12);
        // A non-harmonic intruder pushes k to 2 → bound 0.828 < 1 + w.
        assert!(a.admit(&st, &t(1, 3), 1.0).is_none());
    }

    #[test]
    fn admit_rhs_is_exactly_the_approx_le_padding() {
        use hetfeas_model::approx_le;
        for x in [0.0, 0.3, 1.0, 2.0, 17.5, 1e9, 1e-9] {
            // approx_le(a, b) ⟺ a <= admit_rhs(b): probe both sides of the
            // padded boundary.
            let rhs = admit_rhs(x);
            assert!(approx_le(rhs, x));
            assert!(!approx_le(rhs + rhs.abs().max(1.0) * 1e-8, x));
        }
    }

    #[test]
    fn names() {
        assert_eq!(EdfAdmission.name(), "EDF");
        assert_eq!(RmsLlAdmission.name(), "RMS-LL");
        assert_eq!(RmsHyperbolicAdmission.name(), "RMS-hyperbolic");
        assert_eq!(RmsKuoMokAdmission.name(), "RMS-KuoMok");
        assert_eq!(RmsRtaAdmission.name(), "RMS-RTA");
    }
}
