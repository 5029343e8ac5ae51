//! Differential + metamorphic battery for the branch-and-bound exact
//! solver ([`hetfeas_partition::ExactSolver`]).
//!
//! Three independent deciders must agree on every small random instance:
//!
//! * the new B&B solver (LP bounding, dominance, visited filter, FF
//!   incumbent — every one of which is an opportunity for an unsound
//!   prune, which is exactly what this suite hunts);
//! * the original plain DFS ([`exact_partition_dfs`], below), kept
//!   verbatim as the baseline;
//! * brute-force enumeration of all `m^n` assignments (no pruning beyond
//!   admission rejection), the ground truth nothing clever can corrupt.
//!
//! On top of agreement: worker-count determinism (`workers` 1/2/8 return
//! byte-identical outcomes, witness included) and the metamorphic
//! invariances the solver's canonicalization must respect — machine
//! permutation, task permutation, and uniform ×2^k period/WCET scaling.

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, TaskSet, EPS};
use hetfeas_obs::MemorySink;
use hetfeas_partition::metrics as m;
use hetfeas_partition::{
    AdmissionTest, Assignment, BnbAdmission, EdfAdmission, ExactOutcome, ExactSolver,
    RmsLlAdmission,
};
use hetfeas_robust::{FaultKind, FaultPlan, Gas};

/// The plain depth-first search the B&B replaced:
///
/// * tasks are branched in non-increasing utilization order (heaviest
///   first — the strongest decisions at the top of the tree);
/// * machines are scanned slow→fast;
/// * symmetry breaking: among *empty* machines of equal speed only the
///   first is tried;
/// * pruning: if the remaining total utilization exceeds the optimistic
///   residual capacity `Σ_j max(0, s_j − load_j)` the node is cut
///   (valid for every admission test whose per-machine capacity is at most
///   the machine speed, which holds for EDF, RMS-LL, hyperbolic and RTA);
/// * a node budget caps the search, returning [`ExactOutcome::Unknown`]
///   when exhausted.
struct Search<'a, A: AdmissionTest> {
    tasks: &'a TaskSet,
    order: Vec<usize>,
    speeds: Vec<f64>,     // augmented speeds, in machine scan order
    machines: Vec<usize>, // original machine index per scan slot
    admission: &'a A,
    suffix_util: Vec<f64>, // suffix_util[d] = Σ util of order[d..]
    nodes_left: u64,
    gas: &'a mut Gas,
}

impl<A: AdmissionTest> Search<'_, A> {
    fn run(&mut self) -> ExactOutcome {
        let mut states: Vec<A::State> = (0..self.speeds.len())
            .map(|_| self.admission.empty_state())
            .collect();
        let mut assignment = Assignment::new(self.tasks.len(), self.speeds.len());
        match self.dfs(0, &mut states, &mut assignment) {
            Some(true) => ExactOutcome::Feasible(assignment),
            Some(false) => ExactOutcome::Infeasible,
            None => ExactOutcome::Unknown,
        }
    }

    /// Returns `Some(true)` feasible / `Some(false)` infeasible /
    /// `None` budget exhausted.
    fn dfs(
        &mut self,
        depth: usize,
        states: &mut Vec<A::State>,
        assignment: &mut Assignment,
    ) -> Option<bool> {
        if depth == self.order.len() {
            return Some(true);
        }
        if self.nodes_left == 0 || self.gas.tick().is_err() {
            return None;
        }
        self.nodes_left -= 1;

        // Optimistic residual-capacity bound.
        let residual: f64 = states
            .iter()
            .zip(&self.speeds)
            .map(|(st, &s)| (s - self.admission.load(st)).max(0.0))
            .sum();
        if self.suffix_util[depth] > residual + EPS * residual.max(1.0) {
            return Some(false);
        }

        let ti = self.order[depth];
        let task = &self.tasks[ti];
        let mut exhausted = false;
        let mut tried_empty_speed: Vec<f64> = Vec::new();

        for slot in 0..self.speeds.len() {
            let is_empty = self.admission.load(&states[slot]) == 0.0;
            if is_empty {
                // Symmetry: identical empty machines are interchangeable.
                if tried_empty_speed
                    .iter()
                    .any(|&s| (s - self.speeds[slot]).abs() < 1e-12)
                {
                    continue;
                }
                tried_empty_speed.push(self.speeds[slot]);
            }
            let Some(next) = self.admission.admit(&states[slot], task, self.speeds[slot]) else {
                continue;
            };
            let saved = core::mem::replace(&mut states[slot], next);
            assignment.assign(ti, self.machines[slot]);
            match self.dfs(depth + 1, states, assignment) {
                Some(true) => return Some(true),
                Some(false) => {}
                // The budget is gone — trying sibling subtrees would just
                // burn more of it. Abandon the whole search immediately.
                None => {
                    assignment.unassign(ti);
                    states[slot] = saved;
                    exhausted = true;
                    break;
                }
            }
            assignment.unassign(ti);
            states[slot] = saved;
        }
        if exhausted {
            None
        } else {
            Some(false)
        }
    }
}

/// The plain DFS within `node_budget` branch nodes. Only needs
/// [`AdmissionTest`].
fn exact_partition_dfs<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    node_budget: u64,
) -> ExactOutcome {
    exact_partition_dfs_within(
        tasks,
        platform,
        alpha,
        admission,
        node_budget,
        &mut Gas::unlimited(),
    )
}

/// [`exact_partition_dfs`] under an execution budget.
fn exact_partition_dfs_within<A: AdmissionTest>(
    tasks: &TaskSet,
    platform: &Platform,
    alpha: Augmentation,
    admission: &A,
    node_budget: u64,
    gas: &mut Gas,
) -> ExactOutcome {
    let machine_order = platform.order_by_increasing_speed();
    let order = tasks.order_by_decreasing_utilization();
    let mut suffix_util = vec![0.0; order.len() + 1];
    for d in (0..order.len()).rev() {
        suffix_util[d] = suffix_util[d + 1] + tasks[order[d]].utilization();
    }
    let speeds: Vec<f64> = machine_order
        .iter()
        .map(|&m| alpha.factor() * platform.speed_f64(m))
        .collect();
    Search {
        tasks,
        order,
        speeds,
        machines: machine_order,
        admission,
        suffix_util,
        nodes_left: node_budget,
        gas,
    }
    .run()
}

fn ts(pairs: &[(u64, u64)]) -> TaskSet {
    TaskSet::from_pairs(pairs.iter().copied()).unwrap()
}

/// 13 tasks of util 0.334 (max 2 per unit machine) on 6 identical
/// machines: the identical-utilization refutation that blows up the DFS.
fn identical_util_13x6() -> (TaskSet, Platform) {
    (ts(&vec![(334, 1000); 13]), Platform::identical(6).unwrap())
}

/// 17 tasks of util 0.334 (max 2 per unit machine) + 33 light fillers
/// on 8 identical machines: infeasible (17 heavies need 9 machines),
/// but the plain utilization check (7.328 < 8) cannot see it and the
/// old DFS drowns in the 8^17 heavy placements.
fn gate_infeasible_n50_m8() -> (TaskSet, Platform) {
    let mut pairs = vec![(334u64, 1000u64); 17];
    pairs.extend(vec![(5, 100); 33]);
    (ts(&pairs), Platform::identical(8).unwrap())
}

/// 8 × (0.42, 0.30, 0.28) triples on 8 unit machines: Σ = 8.0 exactly,
/// so only the perfect per-machine {0.42, 0.30, 0.28} packing works.
/// First-fit(dec) fails (it pairs the 0.42s), so the verdict and the
/// witness must come out of the search itself.
fn perfect_triples_n24_m8() -> (TaskSet, Platform) {
    let mut pairs = Vec::new();
    for _ in 0..8 {
        pairs.extend([(42u64, 100u64), (30, 100), (28, 100)]);
    }
    (ts(&pairs), Platform::identical(8).unwrap())
}

/// Random instance in the battery's box: n ≤ 10 tasks, m ≤ 4 machines,
/// speeds from {1, 2, 3}, utilizations dense enough that feasible and
/// infeasible verdicts both occur often.
fn instance(rng: &mut Rng, max_n: usize, max_m: usize) -> (Vec<(u64, u64)>, Vec<u64>) {
    const PERIODS: [u64; 4] = [10, 20, 50, 100];
    let n = 1 + rng.below(max_n as u64) as usize;
    let m = 1 + rng.below(max_m as u64) as usize;
    let tasks = (0..n)
        .map(|_| {
            let p = PERIODS[rng.below(PERIODS.len() as u64) as usize];
            // Utilization in (0, 1.2]: heavies that need fast machines
            // included.
            (1 + rng.below(p + p / 5), p)
        })
        .collect();
    let speeds = (0..m).map(|_| 1 + rng.below(3)).collect();
    (tasks, speeds)
}

fn build(tasks: &[(u64, u64)], speeds: &[u64]) -> (TaskSet, Platform) {
    let ts = TaskSet::from_pairs(tasks.iter().copied()).expect("valid tasks");
    let platform = Platform::from_int_speeds(speeds.to_vec()).expect("valid platform");
    (ts, platform)
}

/// Ground truth: enumerate every assignment of tasks (in index order) to
/// machines, folding admission states; feasible iff some complete
/// assignment admits every task. The admission states used here (load,
/// load+count) are order-independent, so index-order folding is exact.
fn brute_force<A: AdmissionTest>(tasks: &TaskSet, platform: &Platform, admission: &A) -> bool {
    fn rec<A: AdmissionTest>(
        tasks: &TaskSet,
        speeds: &[f64],
        admission: &A,
        i: usize,
        states: &mut Vec<A::State>,
    ) -> bool {
        if i == tasks.len() {
            return true;
        }
        for j in 0..speeds.len() {
            if let Some(next) = admission.admit(&states[j], &tasks[i], speeds[j]) {
                let saved = std::mem::replace(&mut states[j], next);
                if rec(tasks, speeds, admission, i + 1, states) {
                    return true;
                }
                states[j] = saved;
            }
        }
        false
    }
    let speeds: Vec<f64> = platform.iter().map(|m| m.speed_f64()).collect();
    let mut states: Vec<A::State> = (0..speeds.len()).map(|_| admission.empty_state()).collect();
    rec(tasks, &speeds, admission, 0, &mut states)
}

fn bnb_verdict<A: BnbAdmission>(tasks: &TaskSet, platform: &Platform, a: &A) -> ExactOutcome {
    ExactSolver::new(tasks, platform, a)
        .node_budget(1 << 22)
        .solve()
}

fn assert_three_way_agreement<A: BnbAdmission>(
    tasks: &TaskSet,
    platform: &Platform,
    a: &A,
    label: &str,
) {
    let brute = brute_force(tasks, platform, a);
    let dfs = exact_partition_dfs(tasks, platform, Augmentation::NONE, a, 1 << 22);
    let bnb = bnb_verdict(tasks, platform, a);
    assert!(
        dfs.is_decided(),
        "{label}: DFS exhausted on a tiny instance"
    );
    assert!(
        bnb.is_decided(),
        "{label}: B&B exhausted on a tiny instance"
    );
    assert_eq!(
        dfs.is_feasible(),
        brute,
        "{label}: DFS disagrees with brute force on {tasks} / {platform}"
    );
    assert_eq!(
        bnb.is_feasible(),
        brute,
        "{label}: B&B disagrees with brute force on {tasks} / {platform}"
    );
    // A feasible witness must actually be a valid partition.
    if let ExactOutcome::Feasible(w) = &bnb {
        assert!(
            w.validate(tasks, platform, 1.0, a),
            "{label}: invalid witness on {tasks} / {platform}"
        );
    }
}

#[test]
fn bnb_dfs_and_brute_force_agree_edf() {
    let mut rng = Rng::new(0xB4B);
    for case in 0..120 {
        // Keep the brute-force side affordable: n ≤ 8 when m = 4.
        let (pairs, speeds) = instance(&mut rng, 8, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        assert_three_way_agreement(&tasks, &platform, &EdfAdmission, &format!("edf/{case}"));
    }
    // And the full n ≤ 10 box against the DFS baseline alone.
    for case in 0..80 {
        let (pairs, speeds) = instance(&mut rng, 10, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        let dfs = exact_partition_dfs(
            &tasks,
            &platform,
            Augmentation::NONE,
            &EdfAdmission,
            1 << 22,
        );
        let bnb = bnb_verdict(&tasks, &platform, &EdfAdmission);
        assert_eq!(
            dfs.is_feasible(),
            bnb.is_feasible(),
            "edf-wide/{case}: {tasks} / {platform}"
        );
    }
}

#[test]
fn bnb_dfs_and_brute_force_agree_rms_ll() {
    let mut rng = Rng::new(0x117);
    for case in 0..120 {
        let (pairs, speeds) = instance(&mut rng, 8, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        assert_three_way_agreement(
            &tasks,
            &platform,
            &RmsLlAdmission,
            &format!("rms-ll/{case}"),
        );
    }
}

#[test]
fn verdict_and_witness_deterministic_across_workers() {
    let mut rng = Rng::new(0xDE7);
    for case in 0..40 {
        let (pairs, speeds) = instance(&mut rng, 10, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        let outcomes: Vec<ExactOutcome> = [1usize, 2, 8]
            .into_iter()
            .map(|w| {
                ExactSolver::new(&tasks, &platform, &EdfAdmission)
                    .workers(w)
                    .node_budget(1 << 22)
                    .solve()
            })
            .collect();
        // Byte-identical outcomes, witness included — not just the verdict.
        assert_eq!(outcomes[0], outcomes[1], "case {case}: workers 1 vs 2");
        assert_eq!(outcomes[0], outcomes[2], "case {case}: workers 1 vs 8");
    }
}

#[test]
fn machine_permutation_invariance() {
    let mut rng = Rng::new(0x3AC);
    for case in 0..60 {
        let (pairs, mut speeds) = instance(&mut rng, 9, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        let base = bnb_verdict(&tasks, &platform, &EdfAdmission);
        rng.shuffle(&mut speeds);
        let (_, permuted) = build(&pairs, &speeds);
        let permuted_out = bnb_verdict(&tasks, &permuted, &EdfAdmission);
        assert_eq!(
            base.is_feasible(),
            permuted_out.is_feasible(),
            "case {case}: permuting machines changed the verdict"
        );
    }
}

#[test]
fn task_permutation_invariance() {
    let mut rng = Rng::new(0x7A5);
    for case in 0..60 {
        let (mut pairs, speeds) = instance(&mut rng, 9, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        let base = bnb_verdict(&tasks, &platform, &RmsLlAdmission);
        rng.shuffle(&mut pairs);
        let (permuted, _) = build(&pairs, &speeds);
        let permuted_out = bnb_verdict(&permuted, &platform, &RmsLlAdmission);
        assert_eq!(
            base.is_feasible(),
            permuted_out.is_feasible(),
            "case {case}: permuting tasks changed the verdict"
        );
    }
}

#[test]
fn power_of_two_scaling_invariance() {
    // (c, p) → (2^k·c, 2^k·p) preserves every utilization exactly (powers
    // of two are exact in f64), so verdicts must not move.
    let mut rng = Rng::new(0x5CA1E);
    for case in 0..40 {
        let (pairs, speeds) = instance(&mut rng, 9, 4);
        let (tasks, platform) = build(&pairs, &speeds);
        let base = bnb_verdict(&tasks, &platform, &EdfAdmission);
        for k in [1u32, 3, 7] {
            let scaled_pairs: Vec<(u64, u64)> =
                pairs.iter().map(|&(c, p)| (c << k, p << k)).collect();
            let (scaled, _) = build(&scaled_pairs, &speeds);
            let scaled_out = bnb_verdict(&scaled, &platform, &EdfAdmission);
            assert_eq!(
                base.is_feasible(),
                scaled_out.is_feasible(),
                "case {case}: ×2^{k} scaling changed the verdict"
            );
        }
    }
}

#[test]
fn dfs_node_blowup_instances_stay_decided_under_bnb() {
    // Identical-utilization refutation instances grow exponentially for
    // the DFS but collapse under the B&B's visited filter: the node
    // budget that strands the DFS is ample for the B&B, while the DFS
    // still refutes them the slow way.
    for (m, extra) in [(4usize, 1u64), (5, 1), (6, 1)] {
        let n = 2 * m as u64 + extra;
        let tasks = TaskSet::from_pairs(vec![(334u64, 1000u64); n as usize]).unwrap();
        let platform = Platform::identical(m).unwrap();
        let bnb = ExactSolver::new(&tasks, &platform, &EdfAdmission)
            .node_budget(100_000)
            .solve();
        assert_eq!(bnb, ExactOutcome::Infeasible, "m={m}");
        let dfs = exact_partition_dfs(
            &tasks,
            &platform,
            Augmentation::NONE,
            &EdfAdmission,
            1 << 22,
        );
        assert_eq!(dfs, ExactOutcome::Infeasible, "m={m}: DFS");
    }
}

/// Periods near `u64::MAX` make the `f64` utilizations of the exact order
/// non-monotone; the B&B must still agree with the DFS wherever both
/// decide.
#[test]
fn huge_period_corpus_agrees_with_dfs() {
    for seed in 1..=8 {
        for case in FaultPlan::new(seed).cases_of(FaultKind::HugePeriods) {
            let out = ExactSolver::new(&case.tasks, &case.platform, &EdfAdmission)
                .node_budget(1 << 16)
                .solve();
            let dfs = exact_partition_dfs(
                &case.tasks,
                &case.platform,
                Augmentation::NONE,
                &EdfAdmission,
                1 << 16,
            );
            if out.is_decided() && dfs.is_decided() {
                assert_eq!(out.is_feasible(), dfs.is_feasible(), "{}", case.name);
            }
        }
    }
}

#[test]
fn agrees_with_old_dfs_on_exhaustive_small_grid() {
    let p1 = Platform::from_int_speeds([1, 2]).unwrap();
    let p2 = Platform::identical(2).unwrap();
    let menu: [(u64, u64); 3] = [(95, 100), (100, 100), (120, 100)];
    for p in [&p1, &p2] {
        for a in menu {
            for b in menu {
                for c in menu {
                    let tasks = ts(&[a, b, c]);
                    let dfs =
                        exact_partition_dfs(&tasks, p, Augmentation::NONE, &EdfAdmission, 1 << 20);
                    let bnb = ExactSolver::new(&tasks, p, &EdfAdmission).solve();
                    assert_eq!(
                        dfs.is_feasible(),
                        bnb.is_feasible(),
                        "verdict mismatch on {a:?} {b:?} {c:?}"
                    );
                    if let ExactOutcome::Feasible(w) = &bnb {
                        assert!(w.validate(&tasks, p, 1.0, &EdfAdmission));
                    }
                }
            }
        }
    }
}

#[test]
fn gate_decides_n50_m8_where_old_dfs_exhausts() {
    let (tasks, p) = gate_infeasible_n50_m8();
    // The old DFS burns its whole 2M-node budget without an answer...
    let dfs = exact_partition_dfs(&tasks, &p, Augmentation::NONE, &EdfAdmission, 2_000_000);
    assert_eq!(dfs, ExactOutcome::Unknown);
    // ...the B&B refutes it well inside the same budget.
    let sink = MemorySink::new();
    let bnb = ExactSolver::new(&tasks, &p, &EdfAdmission)
        .node_budget(2_000_000)
        .solve_with(&mut Gas::unlimited(), &sink);
    assert_eq!(bnb, ExactOutcome::Infeasible);
    assert!(
        sink.counter(m::BNB_NODES) < 200_000,
        "expected collapse via dominance/visited pruning, used {} nodes",
        sink.counter(m::BNB_NODES)
    );
    // The other two instances the B&B decides within the same budget
    // agree with the DFS wherever it reaches a verdict.
    for (name, (tasks, p)) in [
        ("identical-util-13x6", identical_util_13x6()),
        ("feasible-triples-24x8", perfect_triples_n24_m8()),
    ] {
        let bnb = ExactSolver::new(&tasks, &p, &EdfAdmission)
            .node_budget(2_000_000)
            .solve();
        assert!(bnb.is_decided(), "{name}: B&B exhausted 2M nodes");
        let dfs = exact_partition_dfs(&tasks, &p, Augmentation::NONE, &EdfAdmission, 2_000_000);
        if dfs.is_decided() {
            assert_eq!(dfs.is_feasible(), bnb.is_feasible(), "{name}");
        }
    }
}

#[test]
fn rms_ll_solver_agrees_with_dfs() {
    let p = Platform::identical(2).unwrap();
    let menu: [(u64, u64); 3] = [(41, 100), (50, 100), (30, 100)];
    for a in menu {
        for b in menu {
            for c in menu {
                for d in menu {
                    let tasks = ts(&[a, b, c, d]);
                    let dfs = exact_partition_dfs(
                        &tasks,
                        &p,
                        Augmentation::NONE,
                        &RmsLlAdmission,
                        1 << 20,
                    );
                    let bnb = ExactSolver::new(&tasks, &p, &RmsLlAdmission).solve();
                    assert_eq!(dfs.is_feasible(), bnb.is_feasible());
                    if let ExactOutcome::Feasible(w) = &bnb {
                        assert!(w.validate(&tasks, &p, 1.0, &RmsLlAdmission));
                    }
                }
            }
        }
    }
}

#[test]
fn budgeted_dfs_and_bnb_agree_when_both_decide() {
    // Instances the plain DFS decides well inside a 2^20-node budget:
    // the comparison must actually run on each.
    let (small_triples, p3) = {
        let mut pairs = Vec::new();
        for _ in 0..3 {
            pairs.extend([(42u64, 100u64), (30, 100), (28, 100)]);
        }
        (ts(&pairs), Platform::identical(3).unwrap())
    };
    let (heavy_9, p4) = (ts(&[(334, 1000); 9]), Platform::identical(4).unwrap());
    let (mixed, p12) = build(&[(9, 10), (7, 10), (5, 10), (5, 10), (3, 10)], &[1, 2]);
    for (name, tasks, p, feasible) in [
        ("feasible-triples-9x3", &small_triples, &p3, true),
        ("identical-util-9x4", &heavy_9, &p4, false),
        ("mixed-5x2", &mixed, &p12, true),
    ] {
        let bnb = ExactSolver::new(tasks, p, &EdfAdmission).solve_within(&mut Gas::unlimited());
        let dfs = exact_partition_dfs_within(
            tasks,
            p,
            Augmentation::NONE,
            &EdfAdmission,
            1 << 20,
            &mut Gas::unlimited(),
        );
        assert!(dfs.is_decided(), "{name}: DFS undecided within 2^20 nodes");
        assert!(bnb.is_decided(), "{name}: B&B undecided");
        assert_eq!(dfs.is_feasible(), feasible, "{name}: DFS verdict");
        assert_eq!(bnb.is_feasible(), feasible, "{name}: B&B verdict");
        if let ExactOutcome::Feasible(w) = &bnb {
            assert!(w.validate(tasks, p, 1.0, &EdfAdmission), "{name}: witness");
        }
    }

    // The 24x8 triples instance strands a short-budget DFS, which may give
    // up but must never refute the perfect packing; the B&B finds it.
    let (tasks, p) = perfect_triples_n24_m8();
    let dfs = exact_partition_dfs_within(
        &tasks,
        &p,
        Augmentation::NONE,
        &EdfAdmission,
        1 << 12,
        &mut Gas::unlimited(),
    );
    assert!(
        !dfs.is_decided() || dfs.is_feasible(),
        "DFS refuted a feasible instance: {dfs:?}"
    );
    let ExactOutcome::Feasible(w) =
        ExactSolver::new(&tasks, &p, &EdfAdmission).solve_within(&mut Gas::unlimited())
    else {
        panic!("B&B must decide the triples instance feasible");
    };
    assert!(w.validate(&tasks, &p, 1.0, &EdfAdmission));
}
