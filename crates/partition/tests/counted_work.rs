//! Work counts instead of wall clocks: the indexed engines' cost claims,
//! checked through the `ff.*`, `engine.*` and `incr.*` counters so the
//! checks are exact and hold on every host.
//!
//! 1. First-fit: the indexed engine places each task with `O(log m)`
//!    max-tree work, while the reference scan's admission checks per
//!    placement grow like `m` (n = 4096 EDF tasks at load 0.9).
//! 2. Churn: an incremental remove/re-add costs at least 100× less work
//!    than one from-scratch batch run (n = 4096, m = 1024, load 0.6),
//!    its automatic repacks included.

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task, TaskSet};
use hetfeas_obs::MemorySink;
use hetfeas_partition::metrics as pm;
use hetfeas_partition::{
    first_fit_ordered, EdfAdmission, FirstFitEngine, IncrementalEngine, ScanWorkspace, TaskId,
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

/// Per-placement work of both first-fit paths on one system:
/// `(tree nodes per engine descent, engine nodes per placement, scan
/// checks per placement)`.
fn first_fit_work(m: usize, seed: u64) -> (f64, f64, f64) {
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
    let placed = reference.partial().assigned_count() as f64;
    assert!(placed > 0.0, "m = {m}: nothing placed");
    let nodes = indexed.counter(pm::ENGINE_TREE_NODES) as f64;
    let descents = indexed.counter(pm::ENGINE_TREE_DESCENTS) as f64;
    let checks = scan.counter(pm::FF_ADMISSION_CHECKS) as f64;
    (nodes / descents, nodes / placed, checks / placed)
}

#[test]
fn engine_tree_work_grows_like_log_m_while_the_scan_grows_like_m() {
    let ms = [64usize, 1024, 4096];
    let work: Vec<(f64, f64, f64)> = ms
        .iter()
        .enumerate()
        .map(|(i, &m)| first_fit_work(m, 45 + i as u64))
        .collect();
    for (&m, &(per_descent, per_placement, scan)) in ms.iter().zip(&work) {
        eprintln!(
            "m = {m:4}: {per_placement:.1} tree nodes per placement \
             ({per_descent:.1} per descent), {scan:.1} scan checks per placement"
        );
        // A climb plus a descent reads at most 2·log2(m) heap nodes.
        let log_m = (m as f64).log2();
        assert!(
            per_descent <= 2.0 * log_m,
            "m = {m}: {per_descent:.1} tree nodes per descent exceed 2·log2(m) = {:.0}",
            2.0 * log_m
        );
        // The scan visits a constant share of the machines per task.
        assert!(
            scan >= m as f64 / 8.0,
            "m = {m}: only {scan:.1} scan checks per placement"
        );
    }
    // 64× more machines: the engine's work per placement grows by less
    // than the 2× of log2 m, with headroom for the climb; the scan's by
    // more than 8×.
    let (_, engine_lo, scan_lo) = work[0];
    let (_, engine_hi, scan_hi) = work[2];
    assert!(
        engine_hi < 3.0 * engine_lo,
        "engine work per placement grew {:.1}× from m = 64 to m = 4096",
        engine_hi / engine_lo
    );
    assert!(
        scan_hi > 8.0 * scan_lo,
        "scan work per placement grew only {:.1}× from m = 64 to m = 4096",
        scan_hi / scan_lo
    );
}

/// Indexed work a sink recorded: tree descents, exact re-checks and
/// local-repair re-folds of the incremental engine, plus the batch
/// engine's descents and re-checks (a from-scratch run, or the automatic
/// repacks inside the incremental engine).
fn indexed_work(sink: &MemorySink) -> u64 {
    [
        pm::INCR_TREE_DESCENTS,
        pm::INCR_EXACT_CHECKS,
        pm::INCR_REPAIR_REFOLDS,
        pm::ENGINE_TREE_DESCENTS,
        pm::ENGINE_EXACT_CHECKS,
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
