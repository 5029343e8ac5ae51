//! Empirical speed-augmentation measurement (experiments E1–E4).
//!
//! For an instance that some adversary *can* schedule at speed 1, the
//! empirical augmentation factor α* is the least α at which the paper's
//! first-fit test accepts it. The theorems bound α* by 2 / 2.414 / 2.98 /
//! 3.34 depending on the admission test and adversary class; these helpers
//! measure the actual distribution.

use crate::stats;
use hetfeas_model::{Platform, TaskSet};
use hetfeas_partition::{min_feasible_alpha, AdmissionTest, FirstFitEngine, IndexableAdmission};
use hetfeas_robust::Gas;

/// Bisection tolerance for α*.
pub const ALPHA_TOL: f64 = 1e-4;

/// Measure α* for one instance; `bound` is the theorem constant (used only
/// to size the bisection interval generously). Returns `None` if even
/// `bound + 1` does not suffice — which would falsify the theorem for
/// adversary-feasible instances and is surfaced as a violation by
/// [`AlphaStats`].
pub fn empirical_alpha<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: &A,
    bound: f64,
) -> Option<f64> {
    min_feasible_alpha(tasks, platform, admission, bound + 1.0, ALPHA_TOL)
}

/// [`empirical_alpha`] on the indexed engine's α-search: the sorts run once
/// per instance and each bisection probe is an `O((n+m)·log n)`
/// machine-major first-fit instead of an `O(n·m)` scan — the
/// E1–E4 sweeps measure thousands of instances, so this is their hot path.
/// Returns exactly what [`empirical_alpha`] returns. Only for indexable
/// admissions (EDF, RMS-LL, hyperbolic); RTA/Kuo–Mok sweeps keep using
/// [`empirical_alpha`].
pub fn empirical_alpha_indexed<A: IndexableAdmission>(
    tasks: &TaskSet,
    platform: &Platform,
    admission: A,
    bound: f64,
) -> Option<f64> {
    FirstFitEngine::new(admission)
        .min_feasible_alpha(
            tasks,
            platform,
            bound + 1.0,
            ALPHA_TOL,
            &mut Gas::unlimited(),
            &(),
        )
        .expect("unlimited gas cannot exhaust")
}

/// Aggregate α* statistics for a table row.
#[derive(Debug, Clone, Default)]
pub struct AlphaStats {
    samples: Vec<f64>,
    /// Instances where FF needed more than the theorem bound (plus the
    /// bisection tolerance) — must stay 0 for adversary-feasible inputs.
    violations: usize,
    /// Instances the α-search could not satisfy at all (counted as
    /// violations of the bound).
    unsatisfied: usize,
}

impl AlphaStats {
    /// Record one measured α* against `bound`.
    pub fn record(&mut self, alpha: Option<f64>, bound: f64) {
        match alpha {
            Some(a) => {
                if a > bound + 10.0 * ALPHA_TOL {
                    self.violations += 1;
                }
                self.samples.push(a);
            }
            None => self.unsatisfied += 1,
        }
    }

    /// Number of measured instances.
    pub fn count(&self) -> usize {
        self.samples.len()
    }

    /// Mean α*.
    pub fn mean(&self) -> f64 {
        stats::mean(&self.samples)
    }

    /// 95th percentile α*.
    pub fn p95(&self) -> f64 {
        stats::percentile(&self.samples, 95.0)
    }

    /// Maximum α*.
    pub fn max(&self) -> f64 {
        stats::max(&self.samples)
    }

    /// Bound violations (including unsatisfiable searches).
    pub fn violations(&self) -> usize {
        self.violations + self.unsatisfied
    }

    /// Merge another accumulator.
    pub fn absorb(&mut self, other: &AlphaStats) {
        self.samples.extend_from_slice(&other.samples);
        self.violations += other.violations;
        self.unsatisfied += other.unsatisfied;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_model::Platform;
    use hetfeas_partition::EdfAdmission;

    #[test]
    fn alpha_of_trivial_instance_is_one() {
        let tasks = TaskSet::from_pairs([(1, 10)]).unwrap();
        let p = Platform::identical(1).unwrap();
        let a = empirical_alpha(&tasks, &p, &EdfAdmission, 2.0).unwrap();
        assert_eq!(a, 1.0);
    }

    #[test]
    fn alpha_matches_known_gap() {
        // Three 0.8-util tasks on two unit machines: FF needs α = 1.6.
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = Platform::identical(2).unwrap();
        let a = empirical_alpha(&tasks, &p, &EdfAdmission, 2.0).unwrap();
        assert!((a - 1.6).abs() < 1e-3, "α* = {a}");
    }

    #[test]
    fn indexed_alpha_agrees_with_bisection() {
        let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10)]).unwrap();
        let p = Platform::identical(2).unwrap();
        let cold = empirical_alpha(&tasks, &p, &EdfAdmission, 2.0).unwrap();
        let warm = empirical_alpha_indexed(&tasks, &p, EdfAdmission, 2.0).unwrap();
        assert!((warm - cold).abs() <= 2.0 * ALPHA_TOL, "{warm} vs {cold}");
        // Trivial instance: both return exactly 1.
        let light = TaskSet::from_pairs([(1, 10)]).unwrap();
        assert_eq!(
            empirical_alpha_indexed(&light, &p, EdfAdmission, 2.0),
            Some(1.0)
        );
    }

    #[test]
    fn stats_accumulate_and_flag_violations() {
        let mut s = AlphaStats::default();
        s.record(Some(1.2), 2.0);
        s.record(Some(1.9), 2.0);
        s.record(Some(2.5), 2.0); // violation
        s.record(None, 2.0); // unsatisfied
        assert_eq!(s.count(), 3);
        assert_eq!(s.violations(), 2);
        assert!((s.mean() - (1.2 + 1.9 + 2.5) / 3.0).abs() < 1e-12);
        assert_eq!(s.max(), 2.5);
    }

    #[test]
    fn absorb_merges() {
        let mut a = AlphaStats::default();
        a.record(Some(1.0), 2.0);
        let mut b = AlphaStats::default();
        b.record(Some(1.5), 2.0);
        b.record(None, 2.0);
        a.absorb(&b);
        assert_eq!(a.count(), 2);
        assert_eq!(a.violations(), 1);
        assert_eq!(a.max(), 1.5);
    }
}
