//! # hetfeas-model
//!
//! Shared model substrate for the `hetfeas` workspace: sporadic tasks,
//! related-machine platforms, exact rational arithmetic and integer time
//! utilities.
//!
//! The types here mirror the formal model in Ahuja, Lu & Moseley,
//! *Partitioned Feasibility Tests for Sporadic Tasks on Heterogeneous
//! Machines* (IPPS 2016), §II:
//!
//! * [`Task`] — implicit-deadline sporadic task `τ_i = (c_i, p_i)` with
//!   utilization `w_i = c_i/p_i` (plus an optional constrained deadline for
//!   the DBF extension);
//! * [`TaskSet`] — an ordered set of tasks with the utilization-sorted view
//!   used by the paper's first-fit;
//! * [`Machine`] / [`Platform`] — the related (uniform) machine model with
//!   exact rational speeds;
//! * [`Augmentation`] — the speed-augmentation factor `α`, with the four
//!   theorem constants as associated constants.
//!
//! ## Numerics policy
//!
//! Algorithmic comparisons run in `f64` with the workspace-wide epsilon
//! [`EPS`] via [`approx_le`]/[`approx_ge`]; exact paths (simulator, oracles)
//! use [`Ratio`] and integer scaled loads. See `DESIGN.md` §10.

#![warn(missing_docs)]

pub mod crc;
mod error;
pub mod io;
mod machine;
mod ratio;
pub mod rng;
mod task;
mod taskset;
pub mod time;

pub use error::ModelError;
pub use io::bin::{
    is_binary_trace, read_op_trace_bin, write_op_trace_bin, BinTraceError, OpStream, TraceEvent,
    TraceWriter,
};
pub use io::{
    parse_op_trace, parse_system, render_op_trace, render_system, OpTrace, ParseError, System,
    TraceInstance, TraceOp,
};
pub use machine::{Augmentation, Machine, Platform};
pub use ratio::{gcd_i128, Ratio};
pub use task::Task;
pub use taskset::{utilization_key, TaskSet};

/// Workspace-wide tolerance for `f64` feasibility comparisons.
///
/// Admission tests accept a task when the load is below the capacity *or
/// within `EPS` of it*, so that instances generated to sit exactly on a bound
/// (e.g. total utilization exactly `α·s`) classify as feasible, matching the
/// non-strict inequalities in the paper (Theorems II.2/II.3).
pub const EPS: f64 = 1e-9;

/// `a ≤ b` up to [`EPS`] absolute-or-relative tolerance.
#[inline]
pub fn approx_le(a: f64, b: f64) -> bool {
    a <= b + EPS * b.abs().max(1.0)
}

/// `a ≥ b` up to [`EPS`] absolute-or-relative tolerance.
#[inline]
pub fn approx_ge(a: f64, b: f64) -> bool {
    approx_le(b, a)
}

/// `a == b` up to [`EPS`] absolute-or-relative tolerance.
#[inline]
pub fn approx_eq(a: f64, b: f64) -> bool {
    (a - b).abs() <= EPS * a.abs().max(b.abs()).max(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn approx_comparisons() {
        assert!(approx_le(1.0, 1.0));
        assert!(approx_le(1.0 + 1e-12, 1.0));
        assert!(!approx_le(1.0 + 1e-6, 1.0));
        assert!(approx_ge(1.0, 1.0 + 1e-12));
        assert!(approx_eq(0.1 + 0.2, 0.3));
        assert!(!approx_eq(0.3001, 0.3));
    }

    #[test]
    fn approx_scales_with_magnitude() {
        // Relative tolerance must kick in for large magnitudes.
        let big = 1e12;
        assert!(approx_le(big + 1e-3, big));
        assert!(!approx_le(big * (1.0 + 1e-6), big));
    }
}
