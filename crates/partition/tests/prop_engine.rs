//! Property tests for the indexed first-fit engine: byte-identical
//! equivalence with the reference scan (assignments *and* failure
//! witnesses, hence identical tie-breaking), across admissions and α.

use hetfeas_model::properties;
use hetfeas_model::rng::Gen;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_obs::MemorySink;
use hetfeas_partition::{
    first_fit, first_fit_ordered, metrics, min_feasible_alpha, EdfAdmission, FirstFitEngine,
    IndexableAdmission, Outcome, RmsHyperbolicAdmission, RmsLlAdmission, ScanWorkspace,
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

/// The EDF reference scan, counting into `sink`.
fn scan(ts: &TaskSet, p: &Platform, a: Augmentation, sink: &MemorySink) -> Outcome {
    let (to, mo) = (
        ts.order_by_decreasing_utilization(),
        p.order_by_increasing_speed(),
    );
    let (ws, gas) = (&mut ScanWorkspace::new(), &mut Gas::unlimited());
    first_fit_ordered(ts, p, a, &EdfAdmission, &to, &mo, ws, gas, sink)
}

/// The `ff.*` work counters a sink holds: admission checks, placed tasks,
/// machines visited.
fn ff_counts(sink: &MemorySink) -> [u64; 3] {
    [
        metrics::FF_ADMISSION_CHECKS,
        metrics::FF_PLACED,
        metrics::FF_MACHINES_VISITED,
    ]
    .map(|name| sink.counter(name))
}

/// A system built to stress the machine-major run: most utilizations come
/// from a short menu of ratios, each drawn under several `(c, p)` scalings
/// (1/4 = 2/8 = 3/12), so ties are common and go by index; about one
/// task in twenty is heavier than any machine even at α = 4, so some runs
/// fail at the first task; and loads range from a sliver of the platform
/// to several times it, so other runs fail late or not at all.
fn stress_system(g: &mut Gen) -> (TaskSet, Platform) {
    let speeds = g.vec(1..7, |g| g.range(1u64..=6));
    let tasks = g.vec(0..41, |g| {
        let k = g.range(1u64..=3);
        let (c, p) = if g.rng().chance(0.05) {
            (25, 1)
        } else {
            g.pick(&[(1, 8), (1, 4), (3, 8), (1, 2), (3, 4), (1, 1)])
        };
        Task::implicit(c * k, p * k).unwrap()
    });
    (
        TaskSet::new(tasks),
        Platform::from_int_speeds(speeds).unwrap(),
    )
}

/// `FirstFitEngine::run` at a fractional α (steps of 1/97 in [1, 4]) and
/// `FirstFitEngine::min_feasible_alpha` against the reference scan and
/// bisection on a [`stress_system`]: the same outcome, and α* bit for bit.
fn machine_major_matches_the_scan<A: IndexableAdmission + Copy>(adm: A, g: &mut Gen) {
    let (ts, p) = stress_system(g);
    let a = Augmentation::new(1.0 + g.range(0u32..=291) as f64 / 97.0).unwrap();
    let name = adm.name();
    let mut engine = FirstFitEngine::new(adm);
    assert_eq!(
        engine.run(&ts, &p, a, &mut Gas::unlimited(), &()),
        first_fit(&ts, &p, a, &adm),
        "{name} run diverges on {ts} / {p} at {a}"
    );
    let warm = engine
        .min_feasible_alpha(&ts, &p, 8.0, 1e-6, &mut Gas::unlimited(), &())
        .expect("unlimited gas cannot exhaust");
    let cold = min_feasible_alpha(&ts, &p, &adm, 8.0, 1e-6);
    assert_eq!(
        warm.map(f64::to_bits),
        cold.map(f64::to_bits),
        "{name} α*: {warm:?} vs {cold:?} on {ts} / {p}"
    );
}

properties! {
    // Machine-major runs and α-searches on tie-heavy, overloaded and
    // impossible systems, for each indexable admission.
    fn machine_major_matches_the_scan_edf(g) {
        machine_major_matches_the_scan(EdfAdmission, g);
    }

    fn machine_major_matches_the_scan_rms_ll(g) {
        machine_major_matches_the_scan(RmsLlAdmission, g);
    }

    fn machine_major_matches_the_scan_hyperbolic(g) {
        machine_major_matches_the_scan(RmsHyperbolicAdmission, g);
    }

    // The engine is a drop-in replacement: identical Outcome — same
    // Assignment on success, same FailureWitness (failing task, its
    // utilization, the partial assignment) on failure — for EDF.
    fn engine_equals_reference_edf(g) {
        let (ts, p, a) = (small_set(g, 16), small_platform(g), alpha(g));
        let mut engine = FirstFitEngine::new(EdfAdmission);
        assert_eq!(
            engine.run(&ts, &p, a, &mut Gas::unlimited(), &()),
            first_fit(&ts, &p, a, &EdfAdmission),
            "EDF engine/reference diverge on {} / {} at {}", ts, p, a
        );
    }

    // Same for RMS-LL, whose residual depends on the per-machine task
    // count as well as the load.
    fn engine_equals_reference_rms_ll(g) {
        let (ts, p, a) = (small_set(g, 16), small_platform(g), alpha(g));
        let mut engine = FirstFitEngine::new(RmsLlAdmission);
        assert_eq!(
            engine.run(&ts, &p, a, &mut Gas::unlimited(), &()),
            first_fit(&ts, &p, a, &RmsLlAdmission),
            "RMS-LL engine/reference diverge on {} / {} at {}", ts, p, a
        );
    }

    // And for the hyperbolic admission (multiplicative residual).
    fn engine_equals_reference_hyperbolic(g) {
        let (ts, p, a) = (small_set(g, 16), small_platform(g), alpha(g));
        let mut engine = FirstFitEngine::new(RmsHyperbolicAdmission);
        assert_eq!(
            engine.run(&ts, &p, a, &mut Gas::unlimited(), &()),
            first_fit(&ts, &p, a, &RmsHyperbolicAdmission),
            "hyperbolic engine/reference diverge on {} / {} at {}", ts, p, a
        );
    }

    // Workspace reuse must not leak state between instances: running the
    // same instance on a fresh engine and on one warmed by a different
    // instance gives identical outcomes.
    fn engine_reuse_is_stateless(g) {
        let (warmup, ts, wp, p, a) =
            (small_set(g, 16), small_set(g, 16), small_platform(g), small_platform(g), alpha(g));
        let mut fresh = FirstFitEngine::new(EdfAdmission);
        let expected = fresh.run(&ts, &p, a, &mut Gas::unlimited(), &());
        let mut warmed = FirstFitEngine::new(EdfAdmission);
        warmed.run(&warmup, &wp, a, &mut Gas::unlimited(), &());
        assert_eq!(warmed.run(&ts, &p, a, &mut Gas::unlimited(), &()), expected);
    }

    // Differential counter test: the reference scan run against a
    // MemorySink and the indexed engine (whose ff.* counters are derived
    // scan-equivalently from its placements) must report the same
    // admission_checks / placed / machines_visited on the same instance —
    // and, like the unmetered scan, the same outcome.
    fn counters_agree_across_implementations(g) {
        let (ts, p, a) = (small_set(g, 16), small_platform(g), alpha(g));
        let scan_sink = MemorySink::new();
        let ref_out = scan(&ts, &p, a, &scan_sink);
        let ref_stats = ff_counts(&scan_sink);

        let scan_out = first_fit(&ts, &p, a, &EdfAdmission);
        assert_eq!(&scan_out, &ref_out);

        let engine_sink = MemorySink::new();
        let mut engine = FirstFitEngine::new(EdfAdmission);
        let engine_out = engine.run(&ts, &p, a, &mut Gas::unlimited(), &engine_sink);
        assert_eq!(&engine_out, &ref_out);
        assert_eq!(ff_counts(&engine_sink), ref_stats);

        // The engine's own work stays logarithmic: each task it places
        // (a failed run goes on placing the tasks after its failing one)
        // costs at most one gallop plus its first and last probes, and
        // each machine two evaluations to find it full.
        let (n, m) = (ts.len() as u64, p.len() as u64);
        let bits = u64::from(u64::BITS - n.leading_zeros());
        let evals = engine_sink.counter(metrics::ENGINE_ADMISSION_EVALS);
        assert!(
            evals <= n * (2 * bits + 2) + 2 * m,
            "{evals} evaluations for {n} tasks on {m} machines: {} / {} at {}", ts, p, a
        );
    }

    // The engine's α-search agrees with the reference bisection: it probes
    // the same α sequence and each probe's verdict is the scan's. The
    // check below allows 2·tol of slack.
    fn engine_alpha_search_matches_reference(g) {
        let (ts, p) = (small_set(g, 12), small_platform(g));
        let mut engine = FirstFitEngine::new(EdfAdmission);
        let warm = engine
            .min_feasible_alpha(&ts, &p, 8.0, 1e-6, &mut Gas::unlimited(), &())
            .expect("unlimited gas cannot exhaust");
        let cold = min_feasible_alpha(&ts, &p, &EdfAdmission, 8.0, 1e-6);
        match (warm, cold) {
            (Some(w), Some(c)) => assert!(
                (w - c).abs() <= 2e-6,
                "warm α* = {w} vs cold α* = {c} on {} / {}", ts, p
            ),
            (None, None) => {}
            (w, c) => panic!("satisfiability disagrees: {w:?} vs {c:?}"),
        }
        Ok(())
    }
}

#[test]
fn engine_tie_breaking_is_deterministic() {
    // Mirror of `tie_breaking_is_deterministic`: equal utilizations and
    // equal speeds — repeated engine runs (same engine and fresh engines)
    // must produce the identical assignment the reference produces.
    let tasks = TaskSet::from_pairs([(1, 2), (2, 4), (3, 6)]).unwrap();
    let p = Platform::from_int_speeds([1, 1, 1]).unwrap();
    let mut engine = FirstFitEngine::new(EdfAdmission);
    let a1 = engine.run(&tasks, &p, Augmentation::NONE, &mut Gas::unlimited(), &());
    let a2 = engine.run(&tasks, &p, Augmentation::NONE, &mut Gas::unlimited(), &());
    let a3 = FirstFitEngine::new(EdfAdmission).run(
        &tasks,
        &p,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &(),
    );
    let reference = first_fit(&tasks, &p, Augmentation::NONE, &EdfAdmission);
    assert_eq!(a1, a2);
    assert_eq!(a1, a3);
    assert_eq!(a1, reference);
    let a = a1.assignment().unwrap();
    assert_eq!(a.machine_of(0), Some(0));
    assert_eq!(a.machine_of(1), Some(0));
    assert_eq!(a.machine_of(2), Some(1));
}
