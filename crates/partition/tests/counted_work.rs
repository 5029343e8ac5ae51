//! Work counts instead of wall clocks: the indexed engines' cost claims,
//! checked through the `ff.*`, `engine.*` and `incr.*` counters so the
//! checks are exact and hold on every host.
//!
//! 1. First-fit: the machine-major run places each task with a few
//!    admission evaluations (`engine.admission_evals`, `O(log n)` by
//!    design), while the reference scan's admission checks per placement
//!    grow like `m`: from m = 64 to m = 4096 the engine's grow by less
//!    than half the scan's factor (n = 4096 EDF tasks at load 0.9).
//! 2. Churn: an incremental remove/re-add costs at least 100× less work
//!    than one from-scratch batch run (n = 4096, m = 1024, load 0.6),
//!    its automatic repacks included.
//! 3. Repack sorting: a repack comparison-sorts only the tasks admitted
//!    since the previous repack (`incr.repack_sorted`), whatever left in
//!    between, and every survivor only when it holds no order (n = 4096,
//!    m = 256).
//! 4. α-search: on a system just over full (n = 4096, m = 512), the
//!    bounds answer at least 12 EDF and 8 RMS-LL bisection probes
//!    without a first-fit run (`alpha.probes_bounded`), and α* stays the
//!    reference bisection's.

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_obs::MemorySink;
use hetfeas_partition::metrics as pm;
use hetfeas_partition::{
    first_fit_ordered, min_feasible_alpha, EdfAdmission, FirstFitEngine, IncrementalEngine,
    IndexableAdmission, RepackOutcome, RepairPolicy, RmsLlAdmission, ScanWorkspace, TaskId,
};
use hetfeas_robust::Gas;
use hetfeas_workload::{discretize_all, uunifast, PeriodMenu, PlatformSpec};

/// `n` implicit-deadline tasks at normalized load `load` on `m` machines
/// with integer speeds 1..=8: UUniFast utilizations clamped to
/// [1e-4, 0.95], periods from the standard menu.
fn system(n: usize, m: usize, load: f64, seed: u64) -> (TaskSet, Platform) {
    let mut rng = Rng::new(seed);
    let platform = PlatformSpec::UniformRandom { m, lo: 1, hi: 8 }
        .generate(&mut rng)
        .expect("m ≥ 1");
    // n tasks capped at 0.95 cannot carry much more than 0.9·n.
    let target = (load * platform.total_speed()).min(0.9 * n as f64);
    let utils: Vec<f64> = uunifast(&mut rng, n, target)
        .into_iter()
        .map(|u| u.clamp(1e-4, 0.95))
        .collect();
    (
        discretize_all(&mut rng, &utils, &PeriodMenu::standard()),
        platform,
    )
}

/// Per-placement work of both first-fit paths on one system: `(engine
/// admission evaluations per placement, scan checks per placement)`.
fn first_fit_work(m: usize, seed: u64) -> (f64, f64) {
    let (tasks, platform) = system(4096, m, 0.9, seed);
    let (to, mo) = (
        tasks.order_by_decreasing_utilization(),
        platform.order_by_increasing_speed(),
    );
    let (none, gas) = (Augmentation::NONE, &mut Gas::unlimited());
    let scan = MemorySink::new();
    let ws = &mut ScanWorkspace::new();
    let reference = first_fit_ordered(
        &tasks,
        &platform,
        none,
        &EdfAdmission,
        &to,
        &mo,
        ws,
        gas,
        &scan,
    );
    let indexed = MemorySink::new();
    let outcome = FirstFitEngine::new(EdfAdmission).run(&tasks, &platform, none, gas, &indexed);
    assert_eq!(outcome, reference, "m = {m}: engine diverged from the scan");
    assert!(reference.is_feasible(), "m = {m}: the system must fit");
    let placed = tasks.len() as f64;
    let evals = indexed.counter(pm::ENGINE_ADMISSION_EVALS) as f64;
    let checks = scan.counter(pm::FF_ADMISSION_CHECKS) as f64;
    (evals / placed, checks / placed)
}

#[test]
fn engine_work_grows_like_log_n_while_the_scan_grows_like_m() {
    // The engine's evaluations per placement at each m: tight bounds on
    // the measured 1.3, 5.3 and 5.5, all far inside the design's
    // 2·log2(n) = 24.
    let cases = [(64usize, 2.0), (1024, 7.0), (4096, 7.0)];
    let work: Vec<(f64, f64)> = cases
        .iter()
        .enumerate()
        .map(|(i, &(m, _))| first_fit_work(m, 45 + i as u64))
        .collect();
    for (&(m, bound), &(engine, scan)) in cases.iter().zip(&work) {
        eprintln!(
            "m = {m:4}: {engine:.1} admission evaluations per placement, \
             {scan:.1} scan checks per placement"
        );
        assert!(
            engine <= bound,
            "m = {m}: {engine:.1} evaluations per placement, want ≤ {bound}"
        );
        // The scan visits a constant share of the machines per task.
        assert!(
            scan >= m as f64 / 8.0,
            "m = {m}: only {scan:.1} scan checks per placement"
        );
    }
    // 64× more machines: the scan's work per placement grows by more than
    // 8×, the engine's by less than half as much. The engine's does grow
    // (about 4× here): each machine costs it at least two evaluations to
    // find the machine full, which 64 tasks per machine amortize at
    // m = 64 and one or two do not at m = 4096.
    let (engine_lo, scan_lo) = work[0];
    let (engine_hi, scan_hi) = work[2];
    let (engine_growth, scan_growth) = (engine_hi / engine_lo, scan_hi / scan_lo);
    assert!(
        scan_growth > 8.0,
        "scan work per placement grew only {scan_growth:.1}× from m = 64 to m = 4096"
    );
    assert!(
        engine_growth < scan_growth / 2.0,
        "engine work per placement grew {engine_growth:.1}× from m = 64 to m = 4096, \
         the scan's {scan_growth:.1}×"
    );
}

/// Indexed work a sink recorded: tree descents, exact re-checks and
/// local-repair re-folds of the incremental engine, plus the batch run's
/// admission evaluations (a from-scratch run, or the automatic repacks
/// inside the incremental engine).
fn indexed_work(sink: &MemorySink) -> u64 {
    [
        pm::INCR_TREE_DESCENTS,
        pm::INCR_EXACT_CHECKS,
        pm::INCR_REPAIR_REFOLDS,
        pm::ENGINE_ADMISSION_EVALS,
    ]
    .iter()
    .map(|name| sink.counter(name))
    .sum()
}

#[test]
fn incremental_churn_costs_a_hundredth_of_a_from_scratch_run() {
    let (tasks, platform) = system(4096, 1024, 0.6, 7);
    let mut eng = IncrementalEngine::new(EdfAdmission, &platform, Augmentation::NONE);
    let mut gas = Gas::unlimited();
    let mut live: Vec<TaskId> = (tasks.iter())
        .filter_map(|&t| eng.add(t, &mut gas, &()).expect("gas").id())
        .collect();

    // 2048 alternating ops: remove a random live task, re-add it.
    let churn = MemorySink::new();
    let mut rng = Rng::new(99);
    let mut spare: Vec<Task> = Vec::new();
    let ops = 2048u64;
    for i in 0..ops {
        if i % 2 == 0 {
            let victim = live.swap_remove(rng.below(live.len() as u64) as usize);
            let task = eng.remove(victim, &mut gas, &churn);
            spare.push(task.expect("live").expect("live id removes"));
        } else {
            let task = spare.pop().expect("a removed task to re-add");
            let added = eng.add(task, &mut gas, &churn).expect("gas");
            live.extend(added.id());
        }
    }
    let incremental = indexed_work(&churn) as f64 / ops as f64;

    let batch = MemorySink::new();
    FirstFitEngine::new(EdfAdmission).run(&tasks, &platform, Augmentation::NONE, &mut gas, &batch);
    let from_scratch = indexed_work(&batch) as f64;
    eprintln!(
        "churn: {incremental:.1} work per op ({} repacks) vs {from_scratch:.0} per \
         from-scratch run: {:.0}×",
        churn.counter(pm::INCR_REPACKS),
        from_scratch / incremental
    );
    assert!(
        from_scratch >= 100.0 * incremental,
        "incremental churn costs {incremental:.1} per op, only {:.1}× below a \
         from-scratch run's {from_scratch:.0}",
        from_scratch / incremental
    );
}

#[test]
fn a_repack_sorts_only_the_tasks_admitted_since_the_last_one() {
    let (tasks, platform) = system(4096 + 512, 256, 0.5, 11);
    let (first, spare) = tasks.as_slice().split_at(4096);
    let mut eng = IncrementalEngine::with_policy(
        EdfAdmission,
        &platform,
        Augmentation::NONE,
        RepairPolicy::never(),
    );
    let (sink, gas) = (MemorySink::new(), &mut Gas::unlimited());
    let mut old: Vec<TaskId> = first
        .iter()
        .map(|&t| eng.add(t, gas, &()).expect("gas").id().expect("admitted"))
        .collect();
    let repack_sorts = |eng: &mut IncrementalEngine<EdfAdmission>| {
        let before = sink.counter(pm::INCR_REPACK_SORTED);
        let out = eng.repack(&mut Gas::unlimited(), &sink).expect("gas");
        assert_eq!(out, RepackOutcome::Repacked);
        sink.counter(pm::INCR_REPACK_SORTED) - before
    };
    assert_eq!(
        repack_sorts(&mut eng),
        4096,
        "the first repack sorts in full"
    );

    // k admissions and r removals of earlier tasks: the repack sorts k.
    let mut rng = Rng::new(5);
    let mut spare = spare.iter();
    for (k, r) in [(256, 256), (1, 0), (0, 300), (97, 3), (0, 0)] {
        for _ in 0..r {
            let victim = old.swap_remove(rng.below(old.len() as u64) as usize);
            eng.remove(victim, gas, &())
                .expect("gas")
                .expect("live id removes");
        }
        let admitted: Vec<TaskId> = spare
            .by_ref()
            .take(k)
            .map(|&t| eng.add(t, gas, &()).expect("gas").id().expect("admitted"))
            .collect();
        let sorted = repack_sorts(&mut eng);
        eprintln!(
            "repack after {k} adds and {r} removes of {}: sorted {sorted}",
            eng.len()
        );
        assert_eq!(sorted, k as u64, "{k} admissions, {r} removals");
        old.extend(admitted);
    }

    // Rollback and an imported state drop the order: a full sort each.
    eng.snapshot(gas, &()).expect("gas");
    eng.add(*spare.next().expect("a spare task"), gas, &())
        .expect("gas");
    assert!(eng.rollback(gas, &()).expect("gas"));
    assert_eq!(repack_sorts(&mut eng), eng.len() as u64, "after a rollback");
    eng.import_state(&eng.export_state())
        .expect("own state imports");
    assert_eq!(repack_sorts(&mut eng), eng.len() as u64, "after an import");
    assert_eq!(repack_sorts(&mut eng), 0, "nothing admitted since");
}

/// n = 4096 tasks on m = 512 machines, 64 of each speed 1..=8, at a
/// normalized load just over 1: one utilization per n-quantile
/// (`x² + 0.05`), shuffled, scaled to 1.002 times the total speed, with
/// periods from a menu; wcets are then nudged up until the load is
/// strictly above 1.
fn just_over_full(seed: u64) -> (TaskSet, Platform) {
    let (n, m) = (4096usize, 512usize);
    let mut rng = Rng::new(seed);
    let speeds: Vec<u64> = (0..m).map(|i| 1 + (i * 8 / m) as u64).collect();
    let total_speed: u64 = speeds.iter().sum();
    let mut weights: Vec<f64> = (0..n)
        .map(|i| {
            let x = (i as f64 + rng.f64()) / n as f64;
            x * x + 0.05
        })
        .collect();
    rng.shuffle(&mut weights);
    let scale = 1.002 * total_speed as f64 / weights.iter().sum::<f64>();
    let periods = [1_000u64, 2_000, 2_500, 4_000, 5_000, 10_000, 20_000];
    let mut pairs: Vec<(u64, u64)> = weights
        .iter()
        .map(|w| {
            let p = *rng.pick(&periods);
            (((w * scale * p as f64).round() as u64).max(1), p)
        })
        .collect();
    let load = |pairs: &[(u64, u64)]| pairs.iter().map(|&(c, p)| c as f64 / p as f64).sum::<f64>();
    let mut i = 0;
    while load(&pairs) <= total_speed as f64 {
        pairs[i % n].0 += 1;
        i += 1;
    }
    (
        TaskSet::from_pairs(pairs).expect("positive wcets and periods"),
        Platform::from_int_speeds(speeds).expect("positive speeds"),
    )
}

/// `hetfeas alpha`'s search (`hi` 64, `tol` 1e-6) on `tasks`: the probes
/// the bounds answered, of all probes, and α*, which must equal the
/// reference bisection's.
fn bounded_probes<A: IndexableAdmission + Copy>(
    admission: A,
    tasks: &TaskSet,
    platform: &Platform,
) -> (u64, u64) {
    let sink = MemorySink::new();
    let found = FirstFitEngine::new(admission)
        .min_feasible_alpha(tasks, platform, 64.0, 1e-6, &mut Gas::unlimited(), &sink)
        .expect("unlimited gas cannot exhaust");
    let reference = min_feasible_alpha(tasks, platform, &admission, 64.0, 1e-6);
    assert_eq!(
        found,
        reference,
        "{}: α* differs from the reference",
        admission.name()
    );
    (
        sink.counter(pm::ALPHA_PROBES_BOUNDED),
        sink.counter(pm::ALPHA_PROBES),
    )
}

#[test]
fn alpha_search_answers_the_far_probes_by_the_bounds() {
    let (tasks, platform) = just_over_full(2026);
    let load = tasks.total_utilization() / platform.total_speed();
    assert!(load > 1.0 && load < 1.01, "normalized load {load}");
    for (name, (bounded, probes), least) in [
        ("EDF", bounded_probes(EdfAdmission, &tasks, &platform), 12),
        (
            "RMS-LL",
            bounded_probes(RmsLlAdmission, &tasks, &platform),
            8,
        ),
    ] {
        eprintln!("{name}: the bounds answered {bounded} of {probes} probes");
        assert!(
            bounded >= least,
            "{name}: the bounds answered only {bounded} of {probes} probes, want ≥ {least}"
        );
    }
}
