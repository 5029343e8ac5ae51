//! Metamorphic properties of the incremental admission engine against its
//! batch ancestor:
//!
//! 1. **Repack equivalence** — after a forced repack, the incremental
//!    assignment over the survivors is byte-identical to a from-scratch
//!    [`first_fit_ordered`] run on the same survivor set (EDF and RMS-LL).
//! 2. **Rollback idempotence** — rolling back to a snapshot restores the
//!    engine's full observable state (assignment, per-machine loads,
//!    canonicality, live ids), and rolling back twice changes nothing;
//!    the restored engine then drains to empty (EDF and RMS-LL).
//! 3. **Canonical appends need no repack** — a stream of decreasing-
//!    utilization adds stays canonical with zero divergence, and its
//!    assignment already matches from-scratch without any repack; an
//!    out-of-order add breaks canonicality even when the two utilizations
//!    differ only beyond `f64` and `i128` cross-product precision.
//! 4. **Repack chains** — a repack merges the tasks admitted since the
//!    previous repack into the FFD order it kept. Over long chains of
//!    adds, removes, repacks, rollbacks and state round-trips, with exact
//!    utilization ties, every repack still equals from-scratch first-fit,
//!    and the engine's state equals a twin's that forgets its order before
//!    each repack and so sorts in full (EDF, RMS-LL and hyperbolic).
//!
//! The instances come from fixed seeds of the shared
//! [`hetfeas_model::rng::Rng`].

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::MemorySink;
use hetfeas_partition::metrics as pm;
use hetfeas_partition::{
    first_fit_ordered, live_state_digest, Assignment, EdfAdmission, IncrementalEngine,
    IndexableAdmission, Outcome, RepackOutcome, RepairPolicy, RmsHyperbolicAdmission,
    RmsLlAdmission, ScanWorkspace, TaskId,
};
use hetfeas_robust::Gas;

/// These properties are about state, not budgets: every op runs on
/// unlimited gas, which cannot exhaust.
const GAS: &str = "unlimited gas cannot exhaust";

/// Dense per-task placement vector for byte-identical comparisons.
fn placements(a: &Assignment, n: usize) -> Vec<Option<usize>> {
    (0..n).map(|i| a.machine_of(i)).collect()
}

fn random_task(rng: &mut Rng) -> Task {
    const PERIODS: [u64; 6] = [10, 20, 25, 40, 50, 100];
    let p = PERIODS[rng.below(PERIODS.len() as u64) as usize];
    Task::implicit(1 + rng.below(p.min(60)), p).expect("valid task")
}

fn random_platform(rng: &mut Rng, max_m: usize) -> Platform {
    let m = 1 + rng.below(max_m as u64) as usize;
    let speeds: Vec<u64> = (0..m).map(|_| 1 + rng.below(6)).collect();
    Platform::from_int_speeds(speeds).expect("valid platform")
}

/// The full observable state of an engine, for equality checks: each live
/// id's placement, the per-machine load bits, canonicality and divergence.
type Observed = (Vec<(u64, Option<usize>)>, Vec<u64>, bool, u64);

fn observe<A: IndexableAdmission>(eng: &IncrementalEngine<A>) -> Observed {
    let ids = eng.live_ids();
    let placements = ids
        .iter()
        .map(|&id| (id.raw(), eng.machine_of(id)))
        .collect();
    // Loads compared bit-exactly: rollback must restore them identically.
    let loads = (0..eng.platform().len())
        .map(|m| eng.load_on(m).to_bits())
        .collect();
    (placements, loads, eng.is_canonical(), eng.divergence())
}

/// Churn an engine with interleaved adds/removes, returning the live ids.
fn churn<A: IndexableAdmission>(
    rng: &mut Rng,
    eng: &mut IncrementalEngine<A>,
    ops: usize,
) -> Vec<TaskId> {
    let mut live: Vec<TaskId> = Vec::new();
    let gas = &mut Gas::unlimited();
    for _ in 0..ops {
        if !live.is_empty() && rng.below(3) == 0 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            assert!(
                eng.remove(victim, gas, &()).expect(GAS).is_some(),
                "live id removes"
            );
        } else if let Some(id) = eng.add(random_task(rng), gas, &()).expect(GAS).id() {
            live.push(id);
        }
    }
    live
}

/// Property 1: post-repack assignment equals from-scratch first-fit on the
/// survivors, including the exact per-machine placement.
fn check_repack_equivalence<A: IndexableAdmission>(admission: A, seed: u64) {
    let mut rng = Rng::new(seed);
    let platform = random_platform(&mut rng, 6);
    let alpha = Augmentation::NONE;
    let mut eng = IncrementalEngine::new(admission, &platform, alpha);
    churn(&mut rng, &mut eng, 60);
    let survivors = eng.live_tasks();
    match eng.repack(&mut Gas::unlimited(), &()).expect(GAS) {
        RepackOutcome::Repacked => {}
        RepackOutcome::Infeasible => return, // nothing to compare against
    }
    assert!(eng.is_canonical());
    assert_eq!(eng.divergence(), 0);
    let task_order = survivors.order_by_decreasing_utilization();
    let machine_order = platform.order_by_increasing_speed();
    let batch = first_fit_ordered(
        &survivors,
        &platform,
        alpha,
        eng.admission(),
        &task_order,
        &machine_order,
        &mut ScanWorkspace::new(),
        &mut Gas::unlimited(),
        &(),
    );
    let Outcome::Feasible(expect) = batch else {
        panic!("repack said feasible but batch disagrees (seed {seed})");
    };
    let got = eng.assignment();
    let n = survivors.len();
    assert_eq!(
        placements(&got, n),
        placements(&expect, n),
        "post-repack placement diverges from first_fit_ordered (seed {seed})"
    );
}

#[test]
fn repack_matches_from_scratch_edf() {
    for seed in 0..40 {
        check_repack_equivalence(EdfAdmission, seed);
    }
}

#[test]
fn repack_matches_from_scratch_rms_ll() {
    for seed in 100..140 {
        check_repack_equivalence(RmsLlAdmission, seed);
    }
}

/// Property 2: rollback restores the observable state the snapshot saw,
/// and a second rollback is a no-op.
fn check_rollback_restores<A: IndexableAdmission>(admission: A, seed: u64) {
    let mut rng = Rng::new(seed);
    let platform = random_platform(&mut rng, 5);
    let mut eng = IncrementalEngine::new(admission, &platform, Augmentation::NONE);
    churn(&mut rng, &mut eng, 30);
    let gas = &mut Gas::unlimited();
    eng.snapshot(gas, &()).expect(GAS);
    let saved = observe(&eng);

    // Speculative phase: more churn, maybe a repack.
    churn(&mut rng, &mut eng, 25);
    if rng.below(2) == 0 {
        let _ = eng.repack(gas, &());
    }

    assert!(eng.rollback(gas, &()).expect(GAS));
    assert_eq!(observe(&eng), saved, "rollback drifted (seed {seed})");
    // Idempotent: rolling back again changes nothing.
    assert!(eng.rollback(gas, &()).expect(GAS));
    assert_eq!(
        observe(&eng),
        saved,
        "second rollback drifted (seed {seed})"
    );

    // The restored engine still behaves like a fresh engine in that
    // canonical state: adds after rollback work.
    let _ = eng.add(random_task(&mut rng), gas, &());

    // And removing every live task drains it to empty, every machine
    // back to zero load.
    for id in eng.live_ids() {
        let removed = eng.remove(id, gas, &()).expect(GAS);
        assert!(removed.is_some(), "live id removes (seed {seed})");
    }
    assert!(eng.is_empty(), "drained engine is empty (seed {seed})");
    assert!(
        (0..eng.platform().len()).all(|m| eng.load_on(m) == 0.0),
        "drained engine holds load (seed {seed})"
    );
}

#[test]
fn rollback_restores_observable_state_edf() {
    for seed in 200..240 {
        check_rollback_restores(EdfAdmission, seed);
    }
}

#[test]
fn rollback_restores_observable_state_rms_ll() {
    for seed in 300..340 {
        check_rollback_restores(RmsLlAdmission, seed);
    }
}

/// Property 3: appending tasks in decreasing-utilization order keeps the
/// engine canonical with zero divergence — no repack ever triggers — and
/// the live assignment equals from-scratch first-fit directly.
#[test]
fn sorted_appends_stay_canonical_and_match_batch() {
    for seed in 400..420u64 {
        let mut rng = Rng::new(seed);
        let platform = random_platform(&mut rng, 6);
        let mut tasks: Vec<Task> = (0..30).map(|_| random_task(&mut rng)).collect();
        tasks.sort_by_key(|t| std::cmp::Reverse(t.utilization_ratio()));
        let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
        for &t in &tasks {
            let _ = eng.add(t, &mut Gas::unlimited(), &());
        }
        assert!(
            eng.is_canonical(),
            "sorted appends lost canonicality (seed {seed})"
        );
        assert_eq!(eng.divergence(), 0);

        let survivors = eng.live_tasks();
        let task_order = survivors.order_by_decreasing_utilization();
        let machine_order = platform.order_by_increasing_speed();
        if let Outcome::Feasible(expect) = first_fit_ordered(
            &survivors,
            &platform,
            Augmentation::NONE,
            &EdfAdmission,
            &task_order,
            &machine_order,
            &mut ScanWorkspace::new(),
            &mut Gas::unlimited(),
            &(),
        ) {
            let n = survivors.len();
            assert_eq!(
                placements(&eng.assignment(), n),
                placements(&expect, n),
                "canonical stream diverges from batch (seed {seed})"
            );
        }
    }
}

/// Regression: the canonical-append frontier compares utilizations
/// exactly. Both tasks have utilization 1.0 in `f64` and rational
/// cross-products that overflow `i128`; the second is strictly heavier, so
/// adding it after the first must break canonicality — batch first-fit
/// would place it first, on the other machine.
#[test]
fn heavier_append_near_u64_max_is_not_canonical() {
    let lighter = Task::implicit(18446744073709551557, 18446744073709551556).expect("valid");
    let heavier = Task::implicit(18446744073709551556, 18446744073709551555).expect("valid");
    let platform = Platform::from_int_speeds([1, 1]).expect("valid platform");
    let mut eng = IncrementalEngine::with_policy(
        EdfAdmission,
        &platform,
        Augmentation::NONE,
        RepairPolicy::never(),
    );
    let gas = &mut Gas::unlimited();
    assert!(eng.add(lighter, gas, &()).expect(GAS).is_admitted());
    assert!(eng.add(heavier, gas, &()).expect(GAS).is_admitted());
    let survivors = eng.live_tasks();
    let batch = first_fit_ordered(
        &survivors,
        &platform,
        Augmentation::NONE,
        &EdfAdmission,
        &survivors.order_by_decreasing_utilization(),
        &platform.order_by_increasing_speed(),
        &mut ScanWorkspace::new(),
        gas,
        &(),
    );
    let Outcome::Feasible(expect) = batch else {
        panic!("two unit tasks fit two unit machines");
    };
    assert_ne!(placements(&eng.assignment(), 2), placements(&expect, 2));
    assert!(!eng.is_canonical(), "out-of-order add kept canonicality");
    assert_eq!(eng.divergence(), 1);
    assert_eq!(eng.repack(gas, &()), Ok(RepackOutcome::Repacked));
    assert_eq!(placements(&eng.assignment(), 2), placements(&expect, 2));
}

/// A task from one of a few equal-utilization families — 1/10 = 2/20 =
/// 3/30 = 5/50, and likewise for 1/4, 3/10, 2/5 and 7/10 — so that exact
/// ties meet in a repack's merge; one in four is an ordinary random task.
fn tied_task(rng: &mut Rng) -> Task {
    const FAMILIES: [(u64, u64); 5] = [(1, 10), (1, 4), (3, 10), (2, 5), (7, 10)];
    const SCALES: [u64; 5] = [1, 2, 3, 5, 10];
    if rng.below(4) == 0 {
        return random_task(rng);
    }
    let (c, p) = FAMILIES[rng.below(FAMILIES.len() as u64) as usize];
    let k = SCALES[rng.below(SCALES.len() as u64) as usize];
    Task::implicit(c * k, p * k).expect("valid task")
}

/// Repacks a sink has counted: `(repacked, came back infeasible)`.
fn repacks(sink: &MemorySink) -> (u64, u64) {
    (
        sink.counter(pm::INCR_REPACKS),
        sink.counter(pm::INCR_REPACK_INFEASIBLE),
    )
}

/// Property 4: `eng` repacks every `repack_after` divergent ops and also
/// on request, keeping its FFD order from one repack to the next; `twin`
/// sees the same ops but never repacks on its own: whenever `eng` repacks,
/// `twin` round-trips its state through `import_state` (which forgets the
/// order) and repacks with a full sort. After every op the two digests
/// agree; after every repack `eng`'s placement is from-scratch first-fit
/// over its live tasks, and its machine states are the ones its resident
/// lists fold to.
fn check_repack_chain<A: IndexableAdmission + Copy>(admission: A, repack_after: u32, seed: u64) {
    let mut rng = Rng::new(seed);
    let platform = random_platform(&mut rng, 6);
    let alpha = Augmentation::NONE;
    let policy = RepairPolicy { repack_after };
    let mut eng = IncrementalEngine::with_policy(admission, &platform, alpha, policy);
    let mut twin =
        IncrementalEngine::with_policy(admission, &platform, alpha, RepairPolicy::never());
    let (sink, gas) = (MemorySink::new(), &mut Gas::unlimited());
    let mut live: Vec<TaskId> = Vec::new();
    let mut held = None;
    for step in 0..300 {
        let before = repacks(&sink);
        match rng.below(100) {
            0..=44 => {
                let task = tied_task(&mut rng);
                let got = eng.add(task, gas, &sink).expect(GAS);
                assert_eq!(twin.add(task, gas, &()).expect(GAS).id(), got.id());
                live.extend(got.id());
            }
            45..=74 if !live.is_empty() => {
                let id = live.swap_remove(rng.below(live.len() as u64) as usize);
                let gone = eng.remove(id, gas, &sink).expect(GAS);
                assert!(gone.is_some(), "live id removes (seed {seed}, step {step})");
                assert_eq!(twin.remove(id, gas, &()).expect(GAS), gone);
            }
            75..=81 => {
                eng.repack(gas, &sink).expect(GAS);
            }
            82..=87 => {
                eng.snapshot(gas, &()).expect(GAS);
                twin.snapshot(gas, &()).expect(GAS);
                held = Some(live.clone());
            }
            88..=92 => {
                if let Some(ids) = &held {
                    assert!(eng.rollback(gas, &()).expect(GAS));
                    assert!(twin.rollback(gas, &()).expect(GAS));
                    live = ids.clone();
                }
            }
            _ => {
                eng.import_state(&eng.export_state())
                    .expect("own state imports");
                twin.import_state(&twin.export_state())
                    .expect("own state imports");
            }
        }
        let what = format!("repack_after {repack_after}, seed {seed}, step {step}");
        let after = repacks(&sink);
        let repacked = after.0 > before.0;
        if after != before {
            twin.import_state(&twin.export_state())
                .expect("own state imports");
            twin.repack(gas, &()).expect(GAS);
        }
        assert_eq!(
            live_state_digest(&eng),
            live_state_digest(&twin),
            "engine and full-sort twin diverge ({what})"
        );
        if after == before {
            continue;
        }
        let survivors = eng.live_tasks();
        let batch = first_fit_ordered(
            &survivors,
            &platform,
            alpha,
            eng.admission(),
            &survivors.order_by_decreasing_utilization(),
            &platform.order_by_increasing_speed(),
            &mut ScanWorkspace::new(),
            &mut Gas::unlimited(),
            &(),
        );
        match batch {
            Outcome::Feasible(expect) if repacked => {
                let n = survivors.len();
                assert_eq!(
                    placements(&eng.assignment(), n),
                    placements(&expect, n),
                    "repack diverges from first_fit_ordered ({what})"
                );
            }
            batch => assert!(
                !batch.is_feasible() && !repacked,
                "repack outcome disagrees with first_fit_ordered ({what})"
            ),
        }
        let mut folded = IncrementalEngine::new(admission, &platform, alpha);
        folded
            .import_state(&eng.export_state())
            .expect("own state imports");
        assert_eq!(
            observe(&folded).1,
            observe(&eng).1,
            "repacked machine states differ from their residents' fold ({what})"
        );
    }
}

fn check_repack_chains<A: IndexableAdmission + Copy>(admission: A, seeds: std::ops::Range<u64>) {
    for seed in seeds {
        for repack_after in [1, 3, 8] {
            check_repack_chain(admission, repack_after, seed);
        }
    }
}

#[test]
fn repack_chains_match_a_full_sort_edf() {
    check_repack_chains(EdfAdmission, 500..512);
}

#[test]
fn repack_chains_match_a_full_sort_rms_ll() {
    check_repack_chains(RmsLlAdmission, 600..612);
}

#[test]
fn repack_chains_match_a_full_sort_hyperbolic() {
    check_repack_chains(RmsHyperbolicAdmission, 700..712);
}
