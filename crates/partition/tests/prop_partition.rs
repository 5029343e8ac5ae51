//! Property tests for the partitioning algorithms — the invariant list of
//! `DESIGN.md` §5.

use hetfeas_lp::lp_feasible;
use hetfeas_model::properties;
use hetfeas_model::rng::{assume, Gen};
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_partition::{
    exact_partition, exact_partition_edf, exact_partition_edf_rational, first_fit,
    min_feasible_alpha, partition_with, semi_partition, EdfAdmission, ExactOutcome, FitStrategy,
    HeuristicConfig, Outcome, RmsLlAdmission,
};
use hetfeas_robust::Gas;

fn menu_task(g: &mut Gen) -> Task {
    Task::implicit(g.range(1u64..=60), g.pick(&[10u64, 20, 25, 40, 50, 100])).unwrap()
}

fn small_set(g: &mut Gen, max: usize) -> TaskSet {
    TaskSet::new(g.vec(0..max, menu_task))
}

fn small_platform(g: &mut Gen) -> Platform {
    Platform::from_int_speeds(g.vec(1..5, |g| g.range(1u64..=6))).unwrap()
}

fn alpha(g: &mut Gen) -> Augmentation {
    Augmentation::new(g.range(10u32..=40) as f64 / 10.0).unwrap()
}

properties! {
    // First-fit soundness: a feasible outcome is complete, validates
    // against the admission test, and assigns every task exactly once.
    fn ff_assignment_is_valid(g) {
        let (ts, p, a) = (small_set(g, 14), small_platform(g), alpha(g));
        match first_fit(&ts, &p, a, &EdfAdmission) {
            Outcome::Feasible(assignment) => {
                assert!(assignment.is_complete());
                assert_eq!(assignment.assigned_count(), ts.len());
                assert!(assignment.validate(&ts, &p, a.factor(), &EdfAdmission));
                // Each task appears exactly once across machines.
                let mut seen = vec![false; ts.len()];
                for m in 0..p.len() {
                    for &t in assignment.tasks_on(m) {
                        assert!(!seen[t], "task {t} assigned twice");
                        seen[t] = true;
                    }
                }
                assert!(seen.iter().all(|&s| s));
            }
            Outcome::Infeasible(w) => {
                assert!(w.failing_task < ts.len());
                assert!(!w.partial.is_complete() || ts.is_empty());
            }
            Outcome::BudgetExhausted { .. } => {
                panic!("unbudgeted first-fit cannot exhaust");
            }
        }
    }

    // FF failure is real: when the witness says τ_n cannot be placed, no
    // machine admits it on top of the partial assignment.
    fn ff_failure_witness_is_tight(g) {
        let (ts, p) = (small_set(g, 14), small_platform(g));
        if let Outcome::Infeasible(w) = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission) {
            let task = &ts[w.failing_task];
            for m in 0..p.len() {
                let load = w.partial.load_on(m, &ts);
                let cap = p.speed_f64(m);
                assert!(
                    load + task.utilization() > cap + 1e-9,
                    "machine {m} could still host the failing task"
                );
            }
        }
    }

    // Monotonicity in α for both admissions.
    fn ff_monotone_in_alpha(g) {
        let (ts, p, a) = (small_set(g, 12), small_platform(g), alpha(g));
        let bigger = Augmentation::new(a.factor() * 1.5).unwrap();
        if first_fit(&ts, &p, a, &EdfAdmission).is_feasible() {
            assert!(first_fit(&ts, &p, bigger, &EdfAdmission).is_feasible());
        }
        if first_fit(&ts, &p, a, &RmsLlAdmission).is_feasible() {
            assert!(first_fit(&ts, &p, bigger, &RmsLlAdmission).is_feasible());
        }
    }

    // Subset closure for EDF admission: accepting a set implies accepting
    // any prefix of its decreasing-utilization order... more strongly, any
    // subset. (Remove a random task.)
    fn ff_edf_accepts_subsets(g) {
        let (ts, p, drop) = (small_set(g, 12), small_platform(g), g.range(0usize..12));
        assume(!ts.is_empty())?;
        if first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission).is_feasible() {
            let drop = drop % ts.len();
            let keep: Vec<usize> = (0..ts.len()).filter(|&i| i != drop).collect();
            let sub = ts.select(&keep);
            assert!(
                first_fit(&sub, &p, Augmentation::NONE, &EdfAdmission).is_feasible(),
                "removing a task broke EDF first-fit acceptance"
            );
        }
        Ok(())
    }

    // FF feasible ⇒ exact partition feasible ⇒ LP feasible (oracle chain).
    fn oracle_dominance_chain(g) {
        let (ts, p) = (small_set(g, 10), small_platform(g));
        let ff = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission).is_feasible();
        let exact = exact_partition_edf(&ts, &p, 2_000_000);
        assume(exact.is_decided())?;
        if ff {
            assert!(exact.is_feasible(), "FF-feasible but exact says infeasible");
        }
        if exact.is_feasible() {
            assert!(lp_feasible(&ts, &p), "partition exists but LP infeasible");
        }
        Ok(())
    }

    // Theorem I.1 on random instances: exact-partition feasible ⇒ FF-EDF
    // accepts at α = 2.
    fn theorem_i1_random(g) {
        let (ts, p) = (small_set(g, 10), small_platform(g));
        if exact_partition_edf(&ts, &p, 2_000_000).is_feasible() {
            assert!(
                first_fit(&ts, &p, Augmentation::EDF_VS_PARTITIONED, &EdfAdmission).is_feasible()
            );
        }
    }

    // Theorem I.3 on random instances: LP feasible ⇒ FF-EDF at α = 2.98.
    fn theorem_i3_random(g) {
        let (ts, p) = (small_set(g, 12), small_platform(g));
        if lp_feasible(&ts, &p) {
            assert!(
                first_fit(&ts, &p, Augmentation::EDF_VS_ANY, &EdfAdmission).is_feasible()
            );
        }
    }

    // Theorem I.4 on random instances: LP feasible ⇒ FF-RMS at α = 3.34.
    fn theorem_i4_random(g) {
        let (ts, p) = (small_set(g, 12), small_platform(g));
        if lp_feasible(&ts, &p) {
            assert!(
                first_fit(&ts, &p, Augmentation::RMS_VS_ANY, &RmsLlAdmission).is_feasible()
            );
        }
    }

    // The exact search with any fit strategy agrees with first-fit on
    // outcomes only in one direction; but every *strategy variant* that
    // succeeds must produce a valid assignment.
    fn variants_produce_valid_assignments(g) {
        let (ts, p) = (small_set(g, 12), small_platform(g));
        for fit in [FitStrategy::FirstFit, FitStrategy::BestFit, FitStrategy::WorstFit] {
            let config = HeuristicConfig { fit, ..HeuristicConfig::PAPER };
            if let Outcome::Feasible(a) =
                partition_with(&ts, &p, Augmentation::NONE, &EdfAdmission, config)
            {
                assert!(a.validate(&ts, &p, 1.0, &EdfAdmission), "{:?}", fit);
            }
        }
        Ok(())
    }

    // Bisection consistency: FF accepts at the returned α* and (when
    // α* > 1) rejects just below it.
    fn min_alpha_is_the_threshold(g) {
        let (ts, p) = (small_set(g, 10), small_platform(g));
        if let Some(a) = min_feasible_alpha(&ts, &p, &EdfAdmission, 8.0, 1e-6) {
            assert!(first_fit(&ts, &p, Augmentation::new(a).unwrap(), &EdfAdmission)
                .is_feasible());
            if a > 1.0 + 1e-5 {
                assert!(!first_fit(
                    &ts,
                    &p,
                    Augmentation::new(a - 1e-4).unwrap(),
                    &EdfAdmission
                )
                .is_feasible());
            }
        }
    }

    // Exact oracle with RMS-LL admission dominates FF with the same
    // admission (it searches all placements).
    fn exact_dominates_ff_for_ll(g) {
        let (ts, p) = (small_set(g, 8), small_platform(g));
        if first_fit(&ts, &p, Augmentation::NONE, &RmsLlAdmission).is_feasible() {
            let exact = exact_partition(
                &ts,
                &p,
                Augmentation::NONE,
                &RmsLlAdmission,
                2_000_000,
            );
            assume(exact.is_decided())?;
            assert!(exact.is_feasible());
        }
        Ok(())
    }

    // The pure-integer exact oracle agrees with the f64 one away from
    // capacity boundaries (at the boundary the rational answer wins by
    // definition — it accepts exactly-full machines the f64 epsilon also
    // accepts, so in practice they coincide).
    fn rational_oracle_matches_f64(g) {
        let (ts, p) = (small_set(g, 9), small_platform(g));
        let rational = exact_partition_edf_rational(&ts, &p, 2_000_000, &mut Gas::unlimited());
        let float = exact_partition_edf(&ts, &p, 2_000_000);
        assume(rational.is_decided() && float.is_decided())?;
        assert_eq!(
            rational.is_feasible(), float.is_feasible(),
            "exact oracles disagree on {} / {}", ts, p
        );
        Ok(())
    }

    // Semi-partitioning sits between pure partitioning and migration:
    // FF-feasible ⇒ semi-feasible (whole placements use the same exact
    // admission), and semi-feasible ⇒ LP-feasible (splitting is restricted
    // migration).
    fn semi_partition_sandwich(g) {
        let (ts, p) = (small_set(g, 10), small_platform(g));
        let ff = first_fit(&ts, &p, Augmentation::NONE, &EdfAdmission).is_feasible();
        let semi = semi_partition(&ts, &p, Augmentation::NONE).is_feasible();
        if ff {
            assert!(semi, "FF accepted but semi rejected: {} on {}", ts, p);
        }
        if semi {
            assert!(lp_feasible(&ts, &p), "semi accepted an LP-infeasible set: {} on {}", ts, p);
        }
    }
}

#[test]
fn regression_exact_outcome_variants() {
    // Pin the ExactOutcome API shape used by the experiments.
    let e = ExactOutcome::Infeasible;
    assert!(e.is_decided() && !e.is_feasible());
}
