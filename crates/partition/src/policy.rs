//! The one policy enum: which indexable admission test an online engine
//! runs, and the one macro that turns that runtime choice into a
//! monomorphized call.
//!
//! [`PolicyKind`] names the three admission tests that have an
//! incremental form — EDF, RMS with the Liu–Layland bound and RMS with
//! the hyperbolic bound. Exact RTA is absent: its response-time fixpoint
//! is not a fold over residents, so it has no indexed admission state.
//! Each [`IndexableAdmission`] carries its kind as
//! [`IndexableAdmission::POLICY`], and a journal records the kind's
//! [`PolicyKind::key`], so recovery can refuse a journal written under a
//! different test.
//!
//! [`with_admission!`](crate::with_admission) dispatches once per call
//! site; each arm is its own monomorphization, so the body runs with no
//! dynamic dispatch. [`AnyDurable`] holds a [`DurableEngine`] whose
//! policy is chosen at run time, as a service tenant's is.

use crate::admission::{EdfAdmission, RmsHyperbolicAdmission, RmsLlAdmission};
use crate::durable::DurableEngine;
#[cfg(doc)]
use crate::engine::IndexableAdmission;

/// The admission policies an online engine can run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// EDF demand-bound admission.
    Edf,
    /// RMS with the Liu–Layland utilization bound.
    RmsLl,
    /// RMS with the hyperbolic bound.
    RmsHyp,
}

impl PolicyKind {
    /// Every policy, in declaration order.
    pub const ALL: [PolicyKind; 3] = [PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp];

    /// Parse a journal policy key (exactly what [`Self::key`] writes).
    pub fn parse(s: &str) -> Result<PolicyKind, String> {
        PolicyKind::ALL
            .into_iter()
            .find(|p| p.key() == s)
            .ok_or_else(|| format!("unknown policy '{s}' (expected edf, rms-ll or rms-hyp)"))
    }

    /// The stable key written into journal config records.
    pub fn key(self) -> &'static str {
        match self {
            PolicyKind::Edf => "edf",
            PolicyKind::RmsLl => "rms-ll",
            PolicyKind::RmsHyp => "rms-hyp",
        }
    }
}

/// A [`DurableEngine`] under whichever indexable policy was chosen at run
/// time. Reach the engine with `with_admission!(engine in any, e => ..)`.
pub enum AnyDurable {
    /// EDF demand-bound admission.
    Edf(DurableEngine<EdfAdmission>),
    /// RMS Liu–Layland admission.
    RmsLl(DurableEngine<RmsLlAdmission>),
    /// RMS hyperbolic admission.
    RmsHyp(DurableEngine<RmsHyperbolicAdmission>),
}

impl From<DurableEngine<EdfAdmission>> for AnyDurable {
    fn from(e: DurableEngine<EdfAdmission>) -> Self {
        AnyDurable::Edf(e)
    }
}

impl From<DurableEngine<RmsLlAdmission>> for AnyDurable {
    fn from(e: DurableEngine<RmsLlAdmission>) -> Self {
        AnyDurable::RmsLl(e)
    }
}

impl From<DurableEngine<RmsHyperbolicAdmission>> for AnyDurable {
    fn from(e: DurableEngine<RmsHyperbolicAdmission>) -> Self {
        AnyDurable::RmsHyp(e)
    }
}

/// Dispatch on an indexable policy.
///
/// * `with_admission!(policy, adm => body)` runs `body` with `adm` bound
///   to the admission test a [`PolicyKind`] names;
/// * `with_admission!(engine in any, e => body)` runs `body` with `e`
///   bound to the [`DurableEngine`] an [`AnyDurable`] holds.
///
/// `body` is expanded once per policy, so it may call generic code and
/// each expansion is monomorphized for its admission test.
#[macro_export]
macro_rules! with_admission {
    (engine in $any:expr, $e:ident => $body:expr) => {
        match $any {
            $crate::AnyDurable::Edf($e) => $body,
            $crate::AnyDurable::RmsLl($e) => $body,
            $crate::AnyDurable::RmsHyp($e) => $body,
        }
    };
    ($policy:expr, $adm:ident => $body:expr) => {
        match $policy {
            $crate::PolicyKind::Edf => {
                let $adm = $crate::EdfAdmission;
                $body
            }
            $crate::PolicyKind::RmsLl => {
                let $adm = $crate::RmsLlAdmission;
                $body
            }
            $crate::PolicyKind::RmsHyp => {
                let $adm = $crate::RmsHyperbolicAdmission;
                $body
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::IndexableAdmission;

    #[test]
    fn keys_round_trip_and_admissions_carry_their_kind() {
        for p in PolicyKind::ALL {
            assert_eq!(PolicyKind::parse(p.key()), Ok(p));
            assert_eq!(with_admission!(p, adm => kind_of(&adm)), p);
        }
        assert!(PolicyKind::parse("rms-rta").is_err());
        assert!(PolicyKind::parse("rms").is_err());
    }

    fn kind_of<A: IndexableAdmission>(_: &A) -> PolicyKind {
        A::POLICY
    }
}
