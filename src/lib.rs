//! # hetfeas — partitioned feasibility tests for sporadic tasks on heterogeneous machines
//!
//! Facade crate re-exporting the `hetfeas` workspace: a reproduction of
//! Ahuja, Lu & Moseley, *Partitioned Feasibility Tests for Sporadic Tasks on
//! Heterogeneous Machines* (IPPS 2016).
//!
//! ## Quickstart
//!
//! ```
//! use hetfeas::model::{Augmentation, Platform, TaskSet};
//! use hetfeas::partition::{first_fit, EdfAdmission};
//!
//! // Three tasks, two machines of speeds 1 and 2.
//! let tasks = TaskSet::from_pairs([(3, 10), (4, 10), (9, 10)]).unwrap();
//! let platform = Platform::from_int_speeds([1, 2]).unwrap();
//!
//! // The paper's feasibility test: first-fit by decreasing utilization onto
//! // machines by increasing speed, EDF admission, speed augmentation α.
//! let outcome = first_fit(&tasks, &platform, Augmentation::NONE, &EdfAdmission);
//! assert!(outcome.is_feasible());
//! ```
//!
//! See the crate-level docs of the member crates for details:
//! [`model`], [`analysis`], [`partition`], [`lp`], [`sim`], [`workload`],
//! [`par`], [`obs`], [`robust`], [`experiments`], [`service`].

pub use hetfeas_analysis as analysis;
pub use hetfeas_experiments as experiments;
pub use hetfeas_lp as lp;
pub use hetfeas_model as model;
pub use hetfeas_obs as obs;
pub use hetfeas_par as par;
pub use hetfeas_robust as robust;
pub use hetfeas_service as service;
pub use hetfeas_sim as sim;
pub use hetfeas_workload as workload;

/// The paper's partitioned feasibility tests: [`hetfeas_partition`], plus
/// two older names the benchmark harness still imports.
pub mod partition {
    use hetfeas_model::{Augmentation, Platform, TaskSet};
    use hetfeas_obs::MetricsSink;
    pub use hetfeas_partition::*;
    use hetfeas_robust::Gas;

    /// [`first_fit_ordered`] in a fresh workspace.
    #[doc(hidden)]
    #[allow(clippy::too_many_arguments)]
    pub fn first_fit_ordered_within_with<A: AdmissionTest, S: MetricsSink>(
        tasks: &TaskSet,
        platform: &Platform,
        alpha: Augmentation,
        admission: &A,
        task_order: &[usize],
        machine_order: &[usize],
        gas: &mut Gas,
        sink: &S,
    ) -> Outcome {
        let ws = &mut ScanWorkspace::new();
        first_fit_ordered(
            tasks,
            platform,
            alpha,
            admission,
            task_order,
            machine_order,
            ws,
            gas,
            sink,
        )
    }

    /// [`bisect_alpha`] with unlimited gas.
    #[doc(hidden)]
    pub fn min_feasible_alpha_with<A: AdmissionTest, S: MetricsSink>(
        tasks: &TaskSet,
        platform: &Platform,
        admission: &A,
        hi: f64,
        tol: f64,
        sink: &S,
    ) -> Option<f64> {
        let gas = &mut Gas::unlimited();
        bisect_alpha(tasks, platform, admission, hi, tol, gas, sink).expect("unlimited gas")
    }
}
