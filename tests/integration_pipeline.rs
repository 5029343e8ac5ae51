//! End-to-end integration: workload generation → feasibility test →
//! adversary oracles → simulator, spanning every crate via the facade.

use hetfeas::analysis::rta_schedulable;
use hetfeas::lp::{lp_feasible, lp_feasible_simplex, solve_paper_lp};
use hetfeas::model::{Augmentation, Platform, Ratio, TaskSet};
use hetfeas::partition::{
    exact_partition_edf, first_fit, EdfAdmission, ExactOutcome, RmsLlAdmission,
};
use hetfeas::sim::{validate_assignment, SchedPolicy};
use hetfeas::workload::{PeriodMenu, PlatformSpec, UtilizationSampler, WorkloadSpec};

fn family(u_norm: f64) -> WorkloadSpec {
    WorkloadSpec {
        n_tasks: 10,
        normalized_utilization: u_norm,
        platform: PlatformSpec::BigLittle {
            big: 1,
            little: 3,
            ratio: 3,
        },
        sampler: UtilizationSampler::UUniFastCapped,
        periods: PeriodMenu::standard(),
    }
}

/// The full soundness chain on random instances:
/// FF accepted ⇒ simulator-clean; FF@2 rejected ⇒ exact-partition
/// infeasible ⇒ LP may still accept; FF@2.98 rejected ⇒ LP infeasible.
#[test]
fn soundness_chain_edf() {
    let spec = family(0.9);
    for i in 0..40 {
        let Some(inst) = spec.generate(424242, i) else {
            continue;
        };
        let (tasks, platform) = (&inst.tasks, &inst.platform);

        // 1. Acceptance at α = 1 ⇒ zero misses in simulation.
        if let Some(a) = first_fit(tasks, platform, Augmentation::NONE, &EdfAdmission).assignment()
        {
            let report = validate_assignment(tasks, platform, a, Ratio::ONE, SchedPolicy::Edf)
                .expect("simulate");
            assert_eq!(
                report.miss_count, 0,
                "accepted partition missed: instance {i}"
            );
        }

        // 2. Theorem I.1: rejection at α = 2 ⇒ no partitioned schedule.
        if !first_fit(
            tasks,
            platform,
            Augmentation::EDF_VS_PARTITIONED,
            &EdfAdmission,
        )
        .is_feasible()
        {
            if let ExactOutcome::Feasible(_) = exact_partition_edf(tasks, platform, 4_000_000) {
                panic!("Theorem I.1 violated on instance {i}: {tasks}")
            }
        }

        // 3. Theorem I.3: rejection at α = 2.98 ⇒ LP infeasible.
        if !first_fit(tasks, platform, Augmentation::EDF_VS_ANY, &EdfAdmission).is_feasible() {
            assert!(
                !lp_feasible(tasks, platform),
                "Theorem I.3 violated on instance {i}: {tasks}"
            );
        }
    }
}

/// The RMS soundness chain (Theorems I.2/I.4) plus simulator validation.
#[test]
fn soundness_chain_rms() {
    let spec = family(0.6);
    for i in 0..30 {
        let Some(inst) = spec.generate(777, i) else {
            continue;
        };
        let (tasks, platform) = (&inst.tasks, &inst.platform);

        if let Some(a) =
            first_fit(tasks, platform, Augmentation::NONE, &RmsLlAdmission).assignment()
        {
            let report =
                validate_assignment(tasks, platform, a, Ratio::ONE, SchedPolicy::RateMonotonic)
                    .expect("simulate");
            assert_eq!(
                report.miss_count, 0,
                "accepted RMS partition missed: instance {i}"
            );
            // And per machine, exact RTA agrees with acceptance.
            for m in 0..platform.len() {
                let subset = a.taskset_on(m, tasks);
                assert!(
                    rta_schedulable(&subset, platform.machine(m).speed()),
                    "LL-admitted machine fails RTA on instance {i}"
                );
            }
        }

        // Theorem I.4: rejection at α = 3.34 ⇒ LP infeasible.
        if !first_fit(tasks, platform, Augmentation::RMS_VS_ANY, &RmsLlAdmission).is_feasible() {
            assert!(
                !lp_feasible(tasks, platform),
                "Theorem I.4 violated on instance {i}"
            );
        }
    }
}

/// The two independent LP oracles agree on random instances, and solved
/// points satisfy the paper's constraints.
#[test]
fn lp_oracles_agree_end_to_end() {
    for (j, u) in [0.6, 0.9, 1.0, 1.1].into_iter().enumerate() {
        let spec = WorkloadSpec {
            n_tasks: 6,
            ..family(u)
        };
        for i in 0..10 {
            let Some(inst) = spec.generate(31337 + j as u64, i) else {
                continue;
            };
            let closed = lp_feasible(&inst.tasks, &inst.platform);
            let simplex = lp_feasible_simplex(&inst.tasks, &inst.platform);
            // Boundary instances may classify differently within f64
            // tolerance; allow disagreement only when the level margin is
            // tiny.
            if closed != simplex {
                let beta = hetfeas::lp::level_scaling_factor(&inst.tasks, &inst.platform);
                assert!(
                    (beta - 1.0).abs() < 1e-6,
                    "oracles disagree away from the boundary (β = {beta})"
                );
                continue;
            }
            if closed {
                let point = solve_paper_lp(&inst.tasks, &inst.platform).expect("simplex point");
                assert!(point.validate(&inst.tasks, &inst.platform, 1e-6));
            }
        }
    }
}

/// Augmentation monotonicity of the full pipeline: once accepted at α, a
/// set stays accepted at every larger α (checked across the API surface).
#[test]
fn acceptance_monotone_in_alpha() {
    let spec = family(0.95);
    for i in 0..20 {
        let Some(inst) = spec.generate(99, i) else {
            continue;
        };
        let alphas = [1.0, 1.3, 1.7, 2.0, 2.5, 3.0];
        let mut accepted_before = false;
        for &a in &alphas {
            let ok = first_fit(
                &inst.tasks,
                &inst.platform,
                Augmentation::new(a).unwrap(),
                &EdfAdmission,
            )
            .is_feasible();
            assert!(
                !accepted_before || ok,
                "acceptance not monotone at α = {a} on instance {i}"
            );
            accepted_before = accepted_before || ok;
        }
    }
}

/// Determinism: the same seed regenerates byte-identical outcomes through
/// the whole pipeline.
#[test]
fn pipeline_is_deterministic() {
    let spec = family(0.8);
    let run = || {
        let inst = spec.generate(5150, 3).unwrap();
        let out = first_fit(
            &inst.tasks,
            &inst.platform,
            Augmentation::NONE,
            &EdfAdmission,
        );
        format!("{:?}", out)
    };
    assert_eq!(run(), run());
}

/// The facade re-exports compose: build a platform three ways and get the
/// same answer.
#[test]
fn facade_types_interoperate() {
    let t1 = TaskSet::from_pairs([(1, 2), (1, 4)]).unwrap();
    let p_int = Platform::from_int_speeds([1, 2]).unwrap();
    let p_f64 = Platform::from_f64_speeds([1.0, 2.0]).unwrap();
    assert_eq!(p_int, p_f64);
    assert!(first_fit(&t1, &p_int, Augmentation::NONE, &EdfAdmission).is_feasible());
}

/// The two older names `hetfeas::partition` keeps for the benchmark
/// harness answer what the full forms answer, counters included.
#[test]
fn facade_aliases_match_the_full_forms() {
    use hetfeas::obs::MemorySink;
    use hetfeas::partition::{
        bisect_alpha, first_fit_ordered, first_fit_ordered_within_with, min_feasible_alpha_with,
        ScanWorkspace,
    };
    use hetfeas::robust::Gas;
    let tasks = TaskSet::from_pairs([(8, 10), (8, 10), (8, 10), (3, 10)]).unwrap();
    let p = Platform::from_int_speeds([1, 1]).unwrap();
    let (to, mo) = (
        tasks.order_by_decreasing_utilization(),
        p.order_by_increasing_speed(),
    );
    for alpha in [Augmentation::NONE, Augmentation::EDF_VS_PARTITIONED] {
        let (alias_sink, full_sink) = (MemorySink::new(), MemorySink::new());
        let alias = first_fit_ordered_within_with(
            &tasks,
            &p,
            alpha,
            &RmsLlAdmission,
            &to,
            &mo,
            &mut Gas::unlimited(),
            &alias_sink,
        );
        let full = first_fit_ordered(
            &tasks,
            &p,
            alpha,
            &RmsLlAdmission,
            &to,
            &mo,
            &mut ScanWorkspace::new(),
            &mut Gas::unlimited(),
            &full_sink,
        );
        assert_eq!(alias, full);
        assert_eq!(
            alias_sink.snapshot().counters,
            full_sink.snapshot().counters
        );
    }
    let (alias_sink, full_sink) = (MemorySink::new(), MemorySink::new());
    let alias = min_feasible_alpha_with(&tasks, &p, &EdfAdmission, 4.0, 1e-6, &alias_sink);
    let full = bisect_alpha(
        &tasks,
        &p,
        &EdfAdmission,
        4.0,
        1e-6,
        &mut Gas::unlimited(),
        &full_sink,
    );
    assert_eq!(Ok(alias), full);
    assert!(alias.is_some_and(|a| a > 1.0), "{alias:?}");
    assert_eq!(
        alias_sink.snapshot().counters,
        full_sink.snapshot().counters
    );
}
