//! Sporadic task model.
//!
//! The paper studies *implicit-deadline* sporadic tasks: task `τ_i` releases
//! jobs at least `p_i` ticks apart, each job needs `c_i` work units and must
//! finish `p_i` after release. We additionally carry an explicit relative
//! deadline to support the constrained-deadline extension analysed by
//! `hetfeas-analysis::dbf` (deadline ≤ period); the headline algorithm only
//! ever sees implicit-deadline tasks.
//!
//! WCET is expressed in *work units*: a machine of speed `s` completes `s`
//! work units per tick, so a job of WCET `c` occupies a speed-`s` machine for
//! `c / s` ticks. This keeps all quantities integral on unit-speed machines
//! and exactly rational otherwise.

use crate::error::ModelError;
use crate::ratio::{cmp_fractions, Ratio};
use crate::time::Tick;
use core::cmp::Ordering;
use core::fmt;

/// A sporadic task: worst-case execution time (work units), minimum
/// inter-arrival time (period, ticks) and relative deadline (ticks).
///
/// ```
/// use hetfeas_model::Task;
/// let t = Task::implicit(2, 10).unwrap();
/// assert_eq!(t.utilization(), 0.2);
/// assert!(t.is_implicit_deadline());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Task {
    wcet: u64,
    period: Tick,
    deadline: Tick,
}

impl Task {
    /// Create an implicit-deadline task (`deadline == period`).
    pub fn implicit(wcet: u64, period: Tick) -> Result<Self, ModelError> {
        Self::constrained(wcet, period, period)
    }

    /// Create a constrained-deadline task (`deadline ≤ period` is *not*
    /// enforced; arbitrary deadlines are allowed for the DBF extension).
    pub fn constrained(wcet: u64, period: Tick, deadline: Tick) -> Result<Self, ModelError> {
        if period == 0 {
            return Err(ModelError::ZeroPeriod);
        }
        if wcet == 0 {
            return Err(ModelError::ZeroWcet);
        }
        if deadline == 0 {
            return Err(ModelError::ZeroDeadline);
        }
        Ok(Task {
            wcet,
            period,
            deadline,
        })
    }

    /// Worst-case execution time in work units.
    #[inline]
    pub const fn wcet(&self) -> u64 {
        self.wcet
    }

    /// Minimum inter-arrival time (period) in ticks.
    #[inline]
    pub const fn period(&self) -> Tick {
        self.period
    }

    /// Relative deadline in ticks.
    #[inline]
    pub const fn deadline(&self) -> Tick {
        self.deadline
    }

    /// True when `deadline == period` (the paper's model).
    #[inline]
    pub const fn is_implicit_deadline(&self) -> bool {
        self.deadline == self.period
    }

    /// Utilization `w_i = c_i / p_i` as `f64` (the quantity the paper's
    /// admission tests compare against machine speeds).
    #[inline]
    pub fn utilization(&self) -> f64 {
        self.wcet as f64 / self.period as f64
    }

    /// Utilization as an exact rational.
    #[inline]
    pub fn utilization_ratio(&self) -> Ratio {
        Ratio::new(self.wcet as i128, self.period as i128)
    }

    /// This task's utilization against `r`, exactly as
    /// `self.utilization_ratio().cmp(r)` but without reducing `c/p` (no
    /// gcd): `c·den` vs `num·p`, overflow-safe for every `r`.
    #[inline]
    pub fn cmp_utilization(&self, r: &Ratio) -> Ordering {
        cmp_fractions(self.wcet as i128, self.period as i128, r.numer(), r.denom())
    }

    /// Density `c_i / min(d_i, p_i)` — used by constrained-deadline
    /// sufficient tests.
    #[inline]
    pub fn density(&self) -> f64 {
        self.wcet as f64 / self.deadline.min(self.period) as f64
    }

    /// Exact scaled load `c_i · (H / p_i)`: the amount of work the task
    /// demands per hyperperiod `H`, provided `p_i` divides `H`.
    ///
    /// Returns `None` if `p_i` does not divide `H` or on overflow. Used by
    /// the exact partitioned oracle to compare integer loads instead of
    /// floating-point utilizations.
    pub fn scaled_load(&self, h: u128) -> Option<u128> {
        if !h.is_multiple_of(self.period as u128) {
            return None;
        }
        (self.wcet as u128).checked_mul(h / self.period as u128)
    }
}

impl fmt::Display for Task {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_implicit_deadline() {
            write!(f, "τ(c={}, p={})", self.wcet, self.period)
        } else {
            write!(
                f,
                "τ(c={}, p={}, d={})",
                self.wcet, self.period, self.deadline
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn implicit_task_has_deadline_equal_period() {
        let t = Task::implicit(3, 12).unwrap();
        assert_eq!(t.wcet(), 3);
        assert_eq!(t.period(), 12);
        assert_eq!(t.deadline(), 12);
        assert!(t.is_implicit_deadline());
        assert_eq!(t.utilization(), 0.25);
        assert_eq!(t.utilization_ratio(), Ratio::new(1, 4));
    }

    #[test]
    fn constrained_task() {
        let t = Task::constrained(2, 10, 5).unwrap();
        assert!(!t.is_implicit_deadline());
        assert_eq!(t.density(), 0.4);
        assert_eq!(t.utilization(), 0.2);
    }

    #[test]
    fn construction_rejects_zeroes() {
        assert_eq!(Task::implicit(1, 0), Err(ModelError::ZeroPeriod));
        assert_eq!(Task::implicit(0, 5), Err(ModelError::ZeroWcet));
        assert_eq!(Task::constrained(1, 5, 0), Err(ModelError::ZeroDeadline));
    }

    #[test]
    fn utilization_may_exceed_one() {
        // A heavy task that only a fast machine can host.
        let t = Task::implicit(30, 10).unwrap();
        assert_eq!(t.utilization(), 3.0);
        assert_eq!(t.utilization_ratio(), Ratio::from_integer(3));
    }

    #[test]
    fn scaled_load_exact() {
        let t = Task::implicit(3, 10).unwrap();
        assert_eq!(t.scaled_load(100), Some(30));
        assert_eq!(t.scaled_load(10), Some(3));
        assert_eq!(t.scaled_load(25), None); // 10 does not divide 25
        let heavy = Task::implicit(1_000, 10).unwrap();
        assert_eq!(heavy.scaled_load(u128::MAX - (u128::MAX % 10)), None); // overflow
    }

    #[test]
    fn display_renders_both_forms() {
        assert_eq!(Task::implicit(1, 4).unwrap().to_string(), "τ(c=1, p=4)");
        assert_eq!(
            Task::constrained(1, 4, 2).unwrap().to_string(),
            "τ(c=1, p=4, d=2)"
        );
    }
}
