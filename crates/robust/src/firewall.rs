//! Panic firewall: run one unit of work behind `catch_unwind` so a
//! poisoned sweep cell reports `✗panic` instead of aborting the run.
//!
//! The workspace's core crates still carry `panic!`/`unwrap` sites for
//! genuinely-internal invariants; the firewall is the outermost line of
//! defence for *driver* code (experiment sweeps, the fault-smoke stage)
//! that must survive whatever a cell does. Library entry points are
//! hardened directly (budgets + checked arithmetic) and should never reach
//! this layer — `robust.panics` staying at zero in the default
//! configuration is a CI assertion.

use crate::metrics::ROBUST_PANICS;
use hetfeas_obs::MetricsSink;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// What a caught panic looked like, for rendering and reports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicReport {
    /// The panic payload, if it was a string (the overwhelmingly common
    /// case); `"<non-string panic payload>"` otherwise.
    pub message: String,
}

impl PanicReport {
    /// The marker rendered into sweep-table cells for a poisoned cell.
    pub const CELL: &'static str = "✗panic";
}

/// Run `f`, converting a panic into `Err(PanicReport)` and a
/// `robust.panics` increment in `sink`.
///
/// `AssertUnwindSafe` is deliberate: the closures guarded here construct
/// their state internally (a sweep cell rebuilds its instance from config),
/// so observing broken invariants after an unwind is not possible.
pub fn guard<S: MetricsSink, R>(sink: &S, f: impl FnOnce() -> R) -> Result<R, PanicReport> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|payload| {
        sink.counter_add(ROBUST_PANICS, 1);
        let message = if let Some(s) = payload.downcast_ref::<&'static str>() {
            (*s).to_string()
        } else if let Some(s) = payload.downcast_ref::<String>() {
            s.clone()
        } else {
            "<non-string panic payload>".to_string()
        };
        PanicReport { message }
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hetfeas_obs::MemorySink;

    #[test]
    fn ok_results_pass_through() {
        assert_eq!(guard(&(), || 41 + 1), Ok(42));
    }

    #[test]
    fn str_panics_are_captured() {
        let err = guard(&(), || -> () { panic!("boom") }).unwrap_err();
        assert_eq!(err.message, "boom");
    }

    #[test]
    fn formatted_panics_are_captured() {
        let err = guard(&(), || -> () { panic!("bad value {}", 7) }).unwrap_err();
        assert_eq!(err.message, "bad value 7");
    }

    #[test]
    fn guard_with_counts_panics() {
        let sink = MemorySink::new();
        assert_eq!(guard(&sink, || 1), Ok(1));
        assert_eq!(sink.counter(ROBUST_PANICS), 0);
        let _ = guard(&sink, || -> () { panic!("x") });
        let _ = guard(&sink, || -> () { panic!("y") });
        assert_eq!(sink.counter(ROBUST_PANICS), 2);
    }

    #[test]
    fn cell_marker_is_stable() {
        assert_eq!(PanicReport::CELL, "✗panic");
    }
}
