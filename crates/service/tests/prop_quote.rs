//! The quote board against its oracle.
//!
//! 1. A shed-time α quote read from the board equals the quote of the
//!    scratch-engine probe it replaced ([`quote_alpha`] below): for each
//!    rung at or above α, import the published state into a fresh
//!    `IncrementalEngine`, probe the add, roll back. Engines are driven
//!    through random adds, removes, snapshots, rollbacks, repacks and
//!    compactions; α is drawn both on and off the default ladder; probe
//!    tasks include ones whose load + u lands within a few ulps of the
//!    rung's capacity r·s_j and of its ε-padded admission threshold.
//! 2. The board a shard refreshes incrementally — only the machines each
//!    batch changed — equals a board rebuilt from scratch after every
//!    batch, across automatic repacks, rollbacks, sliced compaction and a
//!    recovery.

use hetfeas_model::properties;
use hetfeas_model::rng::Gen;
use hetfeas_model::{Augmentation, Machine, Platform, Ratio, Task};
use hetfeas_partition::durable::{ChangedMachines, DurableOptions};
use hetfeas_partition::incremental::{AddOutcome, EngineState, IncrementalEngine, RepairPolicy};
use hetfeas_partition::{EdfAdmission, IndexableAdmission, RmsHyperbolicAdmission, RmsLlAdmission};
use hetfeas_robust::journal::{MemStorage, Storage};
use hetfeas_robust::Gas;
use hetfeas_service::{PolicyKind, QuoteBoard, TenantEngine, DEFAULT_ALPHA_RUNGS};

/// The shed-time quote before the quote board: for each rung of `rungs`
/// at or above `current_alpha`, rebuild a scratch engine from the
/// published state, snapshot it, probe the add and roll back. Returns the
/// first (smallest) rung that admits the task.
fn quote_alpha(
    policy: PolicyKind,
    platform: &Platform,
    current_alpha: f64,
    state: &EngineState,
    task: Task,
    rungs: &[f64],
) -> Option<f64> {
    fn probe<A: IndexableAdmission>(
        admission: A,
        platform: &Platform,
        rung: f64,
        state: &EngineState,
        task: Task,
    ) -> bool {
        let Ok(alpha) = Augmentation::new(rung) else {
            return false;
        };
        let mut eng =
            IncrementalEngine::with_policy(admission, platform, alpha, RepairPolicy::never());
        if eng.import_state(state).is_err() {
            return false;
        }
        let gas = &mut Gas::unlimited();
        eng.snapshot(gas, &())
            .expect("unlimited gas cannot exhaust");
        let admitted = matches!(
            eng.add(task, gas, &())
                .expect("unlimited gas cannot exhaust"),
            AddOutcome::Admitted { .. }
        );
        eng.rollback(gas, &())
            .expect("unlimited gas cannot exhaust");
        admitted
    }

    rungs
        .iter()
        .copied()
        .filter(|&r| r >= current_alpha - 1e-9)
        .find(|&r| match policy {
            PolicyKind::Edf => probe(EdfAdmission, platform, r, state, task),
            PolicyKind::RmsLl => probe(RmsLlAdmission, platform, r, state, task),
            PolicyKind::RmsHyp => probe(RmsHyperbolicAdmission, platform, r, state, task),
        })
}

/// Period of the boundary probes: 2^50, so one wcet step moves u by
/// 2^-50 — a few ulps of a capacity between 1 and 64.
const FINE: u64 = 1 << 50;

/// One to six machines with rational speeds n/d, n in 1..=8, d in 1..=3.
fn platform(g: &mut Gen) -> Platform {
    let machines = g.vec(1..7, |g| {
        let (n, d) = (g.range(1i128..=8), g.range(1i128..=3));
        Machine::new(Ratio::new(n, d)).expect("positive speed")
    });
    Platform::new(machines).expect("non-empty platform")
}

/// The tenant's α: a ladder rung, a value between rungs, or one above
/// the top rung (which quotes nothing).
fn alpha(g: &mut Gen) -> f64 {
    if g.rng().chance(0.5) {
        g.pick(&DEFAULT_ALPHA_RUNGS)
    } else {
        g.pick(&[1.1, 1.37, 1.6, 1.9, 2.2, 2.75, 3.5, 4.5])
    }
}

fn light_task(g: &mut Gen) -> Task {
    let period = g.pick(&[10u64, 20, 25, 50, 100]);
    Task::implicit(g.range(1..=period), period).expect("valid task")
}

fn create(
    policy: PolicyKind,
    platform: &Platform,
    alpha: f64,
    opts: DurableOptions,
    store: &MemStorage,
) -> TenantEngine {
    TenantEngine::create(
        policy,
        platform,
        Augmentation::new(alpha).expect("α ≥ 1"),
        opts,
        Box::new(store.clone()),
        &mut Gas::unlimited(),
        &(),
    )
    .expect("create")
}

/// Apply one random journaled op. `ids` is a pool of remove candidates;
/// ids a rollback dropped stay in it and remove as misses.
fn random_op(g: &mut Gen, eng: &mut TenantEngine, ids: &mut Vec<u64>) {
    let mut gas = Gas::unlimited();
    match g.range(0u32..100) {
        0..=54 => {
            if let AddOutcome::Admitted { id, .. } =
                eng.add(light_task(g), &mut gas, &()).expect("add")
            {
                ids.push(id.raw());
            }
        }
        55..=79 => {
            if !ids.is_empty() {
                let i = g.range(0..ids.len());
                let raw = ids.swap_remove(i);
                eng.remove(raw, &mut gas, &()).expect("remove");
            }
        }
        80..=86 => eng.snapshot(&mut gas, &()).map(|_| ()).expect("snapshot"),
        87..=93 => {
            eng.rollback(&mut gas, &()).expect("rollback");
        }
        94..=97 => eng.repack(&mut gas, &()).map(|_| ()).expect("repack"),
        _ => eng.compact(&mut gas, &()).expect("compact"),
    }
}

/// The largest wcet at period [`FINE`] that a machine of augmented speed
/// `speed` admits on top of `residents`, found by bisection on the
/// admission test itself: the edge of its ε-padded threshold.
fn threshold_wcet<A: IndexableAdmission>(
    admission: &A,
    residents: &[Task],
    speed: f64,
) -> Option<u64> {
    let state = admission.fold_state(residents, speed);
    let fits = |w: u64| {
        Task::implicit(w, FINE)
            .ok()
            .and_then(|t| admission.admit(&state, &t, speed))
            .is_some()
    };
    let (mut lo, mut hi) = (1u64, 128 * FINE);
    if !fits(lo) || fits(hi) {
        return None;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fits(mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    Some(lo)
}

/// Probe tasks for one quote check: light and heavy random tasks, tasks
/// whose load + u lands within a few ulps of r·s_j on a random machine,
/// and tasks straddling that machine's ε-padded threshold at rung r.
fn probes<A: IndexableAdmission>(
    g: &mut Gen,
    admission: &A,
    eng: &TenantEngine,
    platform: &Platform,
) -> Vec<Task> {
    let mut out = vec![
        light_task(g),
        Task::implicit(g.range(1u64..=400), 100).expect("valid task"),
    ];
    let mi = g.range(0..platform.len());
    let rung = g.pick(&DEFAULT_ALPHA_RUNGS);
    let speed = Augmentation::new(rung).expect("rung ≥ 1").factor() * platform.speed_f64(mi);
    let mut residents = Vec::new();
    eng.copy_residents(mi, &mut residents);
    let load: f64 = residents.iter().map(Task::utilization).sum();
    // Tasks at period FINE whose wcet lies within a few steps of `w`.
    let mut near = |w: u64, steps: &[i64]| {
        out.extend(steps.iter().filter_map(|&d| {
            w.checked_add_signed(d)
                .filter(|&w| w > 0)
                .and_then(|w| Task::implicit(w, FINE).ok())
        }));
    };
    let gap = speed - load;
    if gap > 0.0 {
        near((gap * FINE as f64).round() as u64, &[-2, -1, 0, 1, 2]);
    }
    if let Some(w) = threshold_wcet(admission, &residents, speed) {
        near(w, &[-1, 0, 1, 2]);
    }
    out
}

/// Property 1 for one policy.
fn board_quotes_match_the_scratch_engine<A: IndexableAdmission>(
    g: &mut Gen,
    policy: PolicyKind,
    admission: A,
) {
    let platform = platform(g);
    let alpha = alpha(g);
    let opts = DurableOptions {
        repack_after: g.range(0u32..=6),
        compact_every: g.range(0u64..=12),
        slice_bytes: g.pick(&[0u64, 64, 4096]),
    };
    let store = MemStorage::new();
    let mut eng = create(policy, &platform, alpha, opts, &store);
    let mut board = QuoteBoard::default();
    let mut ids = Vec::new();
    let ops = g.range(8usize..40);
    for step in 0..ops {
        random_op(g, &mut eng, &mut ids);
        let changed = eng.take_changed();
        board.refresh(&eng, &changed);
        if step % 4 != 3 && step + 1 != ops {
            continue;
        }
        let state = eng.export_state();
        for task in probes(g, &admission, &eng, &platform) {
            let want = quote_alpha(policy, &platform, alpha, &state, task, &DEFAULT_ALPHA_RUNGS);
            let got = board.quote(policy, &platform, alpha, task, &DEFAULT_ALPHA_RUNGS);
            assert_eq!(
                got,
                want,
                "{policy:?} α={alpha} task {}/{} on {platform} after {} ops",
                task.wcet(),
                task.period(),
                step + 1
            );
        }
    }
}

properties! {
    fn edf_board_quotes_match_the_scratch_engine(g) {
        board_quotes_match_the_scratch_engine(g, PolicyKind::Edf, EdfAdmission);
    }

    fn rms_ll_board_quotes_match_the_scratch_engine(g) {
        board_quotes_match_the_scratch_engine(g, PolicyKind::RmsLl, RmsLlAdmission);
    }

    fn rms_hyp_board_quotes_match_the_scratch_engine(g) {
        board_quotes_match_the_scratch_engine(g, PolicyKind::RmsHyp, RmsHyperbolicAdmission);
    }

    // Property 2: batches of ops, each followed by the shard's refresh of
    // only what changed, always leave the board equal to one rebuilt from
    // scratch — across automatic repacks (small `repack_after`),
    // rollbacks, sliced compaction and one recovery mid-run.
    fn incremental_board_equals_a_rebuilt_board(g) {
        let policy = g.pick(&[PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp]);
        let platform = platform(g);
        let alpha = alpha(g);
        let opts = DurableOptions {
            repack_after: g.range(1u32..=4),
            compact_every: g.range(1u64..=8),
            slice_bytes: g.pick(&[0u64, 48, 512]),
        };
        let store = MemStorage::new();
        let mut eng = create(policy, &platform, alpha, opts, &store);
        let mut board = QuoteBoard::default();
        let mut ids = Vec::new();
        let batches = g.range(4usize..24);
        let recover_at = g.range(0..batches);
        for batch in 0..batches {
            if batch == recover_at {
                let (back, _) = TenantEngine::recover(
                    policy,
                    Box::new(store.clone()) as Box<dyn Storage>,
                    &mut Gas::unlimited(),
                    &(),
                )
                .expect("recover");
                eng = back;
                assert_eq!(eng.take_changed(), ChangedMachines::All, "a recovery changes all");
                board.refresh(&eng, &ChangedMachines::All);
            }
            for _ in 0..g.range(1usize..6) {
                random_op(g, &mut eng, &mut ids);
            }
            let changed = eng.take_changed();
            board.refresh(&eng, &changed);
            assert_eq!(
                board,
                QuoteBoard::from_engine(&eng),
                "{policy:?} on {platform}, batch {batch} (changed {changed:?})"
            );
        }
    }
}
