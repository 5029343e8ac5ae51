//! `hetfeas` — command-line front end for the feasibility tests.
//!
//! ```text
//! hetfeas check    SYSTEM.txt [--policy edf|rms|rms-hyp|rms-rta] [--alpha X] [--exact]
//!                             [--workers N] [--budget-ms N] [--report FILE] [-v]
//! hetfeas alpha    SYSTEM.txt [--policy …] [--budget-ms N] [--report FILE]
//! hetfeas oracles  SYSTEM.txt                                LP / exact-partition ground truth
//! hetfeas simulate SYSTEM.txt [--policy …] [--alpha X] [--jitter F] [--seed N]
//!                             [--budget-ms N] [--report FILE]
//! hetfeas generate --tasks N --machines M --util U [--platform KIND] [--seed N]
//! hetfeas faults   [--seed N] [--budget-ms N] [--report FILE]
//! hetfeas trace synth --out FILE [--seed N] [--ops N] [--instances N] [--machines M]
//!                             [--max-live N] [--adversarial PERMILLE] [--text]
//! hetfeas trace convert IN --out OUT
//! hetfeas ops      --trace TRACE [--mode incremental|from-scratch] [--policy …]
//!                             [--alpha X] [--workers N] [--budget-ms N] [--report FILE] [-v]
//!                             [--journal FILE] [--compact-every N] [--slice-bytes B]
//! hetfeas recover  JOURNAL [--budget-ms N] [--report FILE] [-v]
//! hetfeas serve    [--data-dir DIR] [--socket PATH | --tcp ADDR] [--text] [--workers N]
//!                             [--seed N] [--queue-depth N] [--batch-max N] [--max-restarts N]
//!                             [--max-conns N] [--reply-wait-ms N]
//!                             [--compact-every N] [--report FILE]
//! hetfeas serve --chaos [--net] [--tenants N] [--ops N] [--machines M] [--seed N]
//!                             [--workers N] [--report FILE]
//! hetfeas call     CMDLINE (--socket PATH | --tcp ADDR) [--attempts N] [--budget-ms N]
//!                             [--seed N] [--report FILE]
//! ```
//!
//! System files: `task <wcet> <period> [deadline]` and `machine <speed>`
//! lines (see `hetfeas::model::io`). Exit codes: 0 feasible / clean,
//! 1 infeasible / misses, 2 usage or I/O error (parse errors carry a
//! line/col diagnostic on stderr), 3 undecided within `--budget-ms`,
//! 4 transport failure (`call` could not obtain a definitive reply).
//!
//! `--budget-ms N` bounds every potentially-expensive computation by a
//! wall-clock deadline; a run that would otherwise hang (exponential exact
//! search, astronomical hyperperiod) exits 3 with a sound partial answer
//! instead. `check --exact` runs the graceful-degradation ladder: exact
//! branch-and-bound, then first-fit witness, then the utilization bound —
//! every downgrade is counted under `robust.degraded` in the report.
//! `check --exact --workers N` explores branch-and-bound subtrees on N
//! threads; the verdict (and witness) are identical for every N, only the
//! tree coverage per unit budget changes.
//!
//! `hetfeas serve` runs the supervised multi-tenant admission service:
//! length-prefixed command frames on stdin (or `--socket PATH`), one
//! durable engine + write-ahead journal per tenant under `--data-dir`,
//! each inside a panic-firewalled shard that the supervisor restarts by
//! journal replay (seeded-jitter exponential backoff, capped). A tenant
//! whose journal is corrupt or whose restarts exceed the cap is
//! *quarantined* — it keeps answering with an error, neighbors are
//! untouched, the process never dies. The socket front ends (`--socket`,
//! `--tcp`) accept connections concurrently up to `--max-conns`, shedding
//! excess connections with one `err busy` reply; mutating commands may
//! carry `rid=<u64>` idempotency tokens and `dl=<ms>` deadline budgets
//! (capped by `--reply-wait-ms`). `serve --chaos` runs the built-in
//! seeded fault storm instead and exits 0 only when every surviving
//! tenant's digest matches a fault-free replay and the quarantine set is
//! exactly the poisoned tenants (exit 1 otherwise); `serve --chaos --net`
//! runs the network storm — retrying clients through the seeded
//! fault-injecting TCP proxy — and exits 0 only when every acked op is in
//! the journal exactly once.
//!
//! `hetfeas call` sends one command line to a running server with the
//! full retry discipline (fresh rid, capped-jitter retries under a
//! `--budget-ms` deadline, circuit breaker): exit 0 on `ok`, 1 on a
//! definitive negative reply, 4 when no definitive reply could be
//! obtained (the op may or may not have been applied).
//!
//! `hetfeas faults` runs the built-in adversarial corpus (huge periods,
//! degenerate speeds, zero slack, LP degeneracy, exact-search blowup)
//! through the budgeted pipeline behind a panic firewall — the CI smoke
//! stage asserts `robust.panics` stays zero.
//!
//! `--report FILE` writes a JSON run report (verdict, instance shape,
//! `ff.*`/`alpha.*`/`robust.*` work counters, phase timers — see
//! `hetfeas::partition::metrics`) after the run completes. The report is
//! rendered fully in memory and written only on success, so a run that
//! exits 2 never leaves a partial file behind.
//!
//! `hetfeas ops` replays an op trace (`begin`/`machine`/`add`/`remove`/
//! `query`/`snapshot`/`rollback`/`repack`/`end` lines, see
//! `hetfeas::model::io`, or the binary `.hbt` form) through the online
//! admission engine; `--mode from-scratch` instead re-runs batch first-fit
//! after every mutation, the baseline the incremental engine saves work
//! against. Every op of every engine runs through one protocol
//! (`hetfeas::experiments::InstanceReplayer::apply`). A text trace's
//! independent instances shard across `--workers` threads with live
//! `done/total` progress on stderr; a binary trace (detected by its magic)
//! is pulled one instance at a time, so only the live engine state is ever
//! resident and million-op traces replay in bounded RSS. Exit 3 if the
//! budget ran out; a semantically malformed trace (e.g. an `add` reusing a
//! live id) exits 2. `hetfeas trace synth` deterministically synthesizes
//! op-trace workloads (diurnal arrival waves, churn bursts, heavy-tailed
//! lifetimes, optional adversarial arrivals drawn from the fault corpus)
//! as streaming binary traces; `hetfeas trace convert` round-trips between
//! the text and binary formats.
//!
//! `ops --journal FILE` replays a single-instance trace of either format
//! through the crash-safe durability layer: every op is appended to a
//! length-prefixed, CRC32-checksummed write-ahead journal *before* it is
//! applied, with periodic snapshot compaction (`--compact-every N`
//! records, 0 = never) copied in bounded `--slice-bytes B` slices that
//! interleave with live appends. `hetfeas recover JOURNAL` rebuilds the engine from
//! such a journal — truncating a torn or corrupt tail — and prints the
//! recovered state digest; a journal with no intact config record exits 2,
//! a recovery that exhausts `--budget-ms` exits 3. The
//! `HETFEAS_JOURNAL_CRASH_AT` / `HETFEAS_JOURNAL_TRANSIENT` /
//! `HETFEAS_JOURNAL_SHORT_WRITE_AT` / `HETFEAS_JOURNAL_FAIL_SYNC_AT`
//! environment knobs inject deterministic IO faults into the journaled
//! path (`scripts/crash_smoke.sh` drives them).

use hetfeas::analysis;
use hetfeas::experiments::{
    combine_digests, replay_instance, replay_ops, replay_sharded, replay_stream_with,
    InstanceOutcome, ReplayError, ReplayMode, ReplayStats, Sharding,
};
use hetfeas::lp::{level_scaling_factor, lp_feasible};
use hetfeas::model::{
    is_binary_trace, parse_op_trace, parse_system, read_op_trace_bin, render_op_trace,
    render_system, write_op_trace_bin, Augmentation, OpStream, OpTrace, Platform, Ratio, System,
    TraceEvent, TraceInstance, TraceWriter,
};
use hetfeas::obs::{Json, MemorySink, MetricsSink, RunReport};
use hetfeas::par::{default_workers, Progress};
use hetfeas::partition::{
    bisect_alpha, exact_partition_edf, exact_partition_edf_degraded, exact_partition_rms,
    first_fit_ordered, lp_feasible_degraded, peek_config, recover, with_admission, Assignment,
    DurableEngine, DurableOptions, ExactOutcome, FirstFitEngine, IndexableAdmission, LadderVerdict,
    Outcome, PolicyKind, RecoverError, RmsRtaAdmission, ScanWorkspace,
};
use hetfeas::robust::metrics::{ROBUST_FAULTS_INJECTED, ROBUST_PANICS};
use hetfeas::robust::{
    guard, Budget, FaultFs, FaultPlan, FaultScript, FileStorage, Gas, PanicReport, Storage,
};
use hetfeas::sim::{validate_assignment_within, ReleasePattern, SchedPolicy};
use hetfeas::workload::{
    synth_platform, PeriodMenu, PlatformSpec, Scenario, SynthSpec, TraceSynth, UtilizationSampler,
    WorkloadSpec,
};
use std::process::ExitCode;

/// A `--policy` value: one of the indexable [`PolicyKind`]s, or `None` for
/// exact RTA, which has no indexed form and runs on the reference scan.
/// Only the CLI accepts the `rms`, `rms-hyperbolic` and `rms-rta`
/// spellings.
#[derive(Clone, Copy, PartialEq, Eq)]
struct Policy(Option<PolicyKind>);

impl Default for Policy {
    fn default() -> Self {
        Policy::EDF
    }
}

impl Policy {
    const EDF: Policy = Policy(Some(PolicyKind::Edf));

    fn parse(s: &str) -> Result<Self, String> {
        match s {
            "rms" => Ok(Policy(Some(PolicyKind::RmsLl))),
            "rms-hyperbolic" => Ok(Policy(Some(PolicyKind::RmsHyp))),
            "rms-rta" => Ok(Policy(None)),
            other => PolicyKind::parse(other)
                .map(|p| Policy(Some(p)))
                .map_err(|_| format!("unknown policy {other:?} (edf|rms|rms-hyp|rms-rta)")),
        }
    }

    fn sched(self) -> SchedPolicy {
        match self {
            Policy::EDF => SchedPolicy::Edf,
            _ => SchedPolicy::RateMonotonic,
        }
    }

    fn name(self) -> &'static str {
        match self.0 {
            Some(PolicyKind::Edf) => "EDF",
            Some(PolicyKind::RmsLl) => "RMS (Liu–Layland)",
            Some(PolicyKind::RmsHyp) => "RMS (hyperbolic)",
            None => "RMS (exact RTA)",
        }
    }

    /// Canonical flag spelling, used as the `policy` field of run reports.
    fn key(self) -> &'static str {
        self.0.map_or("rms-rta", PolicyKind::key)
    }
}

/// First-fit under the chosen admission test, metered by `sink` and bounded
/// by `gas`. The indexable admissions run on the indexed engine,
/// exact RTA on the reference scan. Returns [`Outcome::BudgetExhausted`]
/// instead of running long.
fn run_ff_within<S: MetricsSink>(
    sys: &System,
    policy: Policy,
    alpha: Augmentation,
    gas: &mut Gas,
    sink: &S,
) -> Outcome {
    let (tasks, platform) = (&sys.tasks, &sys.platform);
    match policy.0 {
        Some(kind) => with_admission!(kind, adm => {
            FirstFitEngine::new(adm).run(tasks, platform, alpha, gas, sink)
        }),
        None => first_fit_ordered(
            tasks,
            platform,
            alpha,
            &RmsRtaAdmission,
            &tasks.order_by_decreasing_utilization(),
            &platform.order_by_increasing_speed(),
            &mut ScanWorkspace::new(),
            gas,
            sink,
        ),
    }
}

/// Smallest α in `[1, hi]` at which the chosen test accepts the system,
/// metered by `sink` and bounded by `gas` — `Err` means the budget ran out
/// before the search converged. The indexable admissions use the engine's
/// sort-once search, exact RTA the reference bisection.
fn min_alpha_within<S: MetricsSink>(
    sys: &System,
    policy: Policy,
    hi: f64,
    gas: &mut Gas,
    sink: &S,
) -> Result<Option<f64>, hetfeas::robust::Exhaustion> {
    const TOL: f64 = 1e-6;
    let (tasks, platform) = (&sys.tasks, &sys.platform);
    match policy.0 {
        Some(kind) => with_admission!(kind, adm => FirstFitEngine::new(adm)
            .min_feasible_alpha(tasks, platform, hi, TOL, gas, sink)),
        None => bisect_alpha(tasks, platform, &RmsRtaAdmission, hi, TOL, gas, sink),
    }
}

/// The wall-clock gas for this invocation: bounded iff `--budget-ms` was
/// given, unlimited otherwise (legacy behaviour).
fn gas_for(c: &Common) -> Gas {
    match c.budget_ms {
        Some(ms) => Budget::wall_ms(ms).gas(),
        None => Gas::unlimited(),
    }
}

/// Start a run report with the fields every subcommand shares: the input
/// file, policy key, and instance shape.
fn base_report(command: &str, c: &Common, sys: &System) -> RunReport {
    let mut r = RunReport::new("hetfeas", command);
    r.set("input", Json::Str(c.file.clone().unwrap_or_default()))
        .set("policy", Json::Str(c.policy.key().into()))
        .set("n_tasks", Json::UInt(sys.tasks.len() as u64))
        .set("n_machines", Json::UInt(sys.platform.len() as u64))
        .set(
            "total_utilization",
            Json::Float(sys.tasks.total_utilization()),
        )
        .set("total_speed", Json::Float(sys.platform.total_speed()));
    r
}

/// Render and write a finished report. Called only after the run computed a
/// verdict, so error paths never leave a partial file behind.
fn write_report(path: &str, report: &RunReport) -> Result<(), String> {
    std::fs::write(path, report.render()).map_err(|e| format!("write {path}: {e}"))
}

#[derive(Default)]
struct Common {
    file: Option<String>,
    policy: Policy,
    alpha: f64,
    verbose: bool,
    jitter: Option<f64>,
    seed: u64,
    report: Option<String>,
    budget_ms: Option<u64>,
    exact: bool,
    // ops-only
    trace: Option<String>,
    workers: Option<usize>,
    mode: String,
    journal: Option<String>,
    compact_every: Option<u64>,
    slice_bytes: Option<u64>,
    // trace-only
    out: Option<String>,
    instances: Option<usize>,
    max_live: Option<usize>,
    adversarial: Option<u64>,
    // generate-only
    tasks: usize,
    machines: usize,
    util: f64,
    platform: String,
    scenario: Option<String>,
    // serve-only
    data_dir: Option<String>,
    socket: Option<String>,
    tcp: Option<String>,
    text_mode: bool,
    chaos: bool,
    net: bool,
    tenants: usize,
    ops: Option<usize>,
    queue_depth: Option<usize>,
    batch_max: Option<usize>,
    max_restarts: Option<u32>,
    max_conns: Option<usize>,
    reply_wait_ms: Option<u64>,
    // call-only
    attempts: Option<u32>,
}

/// `flag`'s value, parsed.
fn parsed<T: std::str::FromStr>(flag: &str, value: String) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("bad {flag}: {e}"))
}

/// `flag`'s value, parsed and nonzero.
fn positive<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: String,
) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    let n = parsed(flag, value)?;
    if n == T::default() {
        return Err(format!("{flag} must be positive"));
    }
    Ok(n)
}

fn parse_common(args: &[String]) -> Result<Common, String> {
    let mut c = Common {
        alpha: 1.0,
        seed: 1,
        mode: "incremental".into(),
        tasks: 10,
        machines: 4,
        util: 0.7,
        platform: "big-little".into(),
        tenants: 8,
        ..Common::default()
    };
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let flag = a.as_str();
        let mut next = || {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        match flag {
            "--policy" => c.policy = Policy::parse(&next()?)?,
            "--alpha" => c.alpha = parsed(flag, next()?)?,
            "--jitter" => c.jitter = Some(parsed(flag, next()?)?),
            "--seed" => c.seed = parsed(flag, next()?)?,
            "--tasks" => c.tasks = parsed(flag, next()?)?,
            "--machines" => c.machines = parsed(flag, next()?)?,
            "--util" => c.util = parsed(flag, next()?)?,
            "--platform" => c.platform = next()?,
            "--scenario" => c.scenario = Some(next()?),
            "--trace" => c.trace = Some(next()?),
            "--workers" => c.workers = Some(positive(flag, next()?)?),
            "--mode" => c.mode = next()?,
            "--journal" => c.journal = Some(next()?),
            "--compact-every" => c.compact_every = Some(parsed(flag, next()?)?),
            "--slice-bytes" => c.slice_bytes = Some(parsed(flag, next()?)?),
            "--out" => c.out = Some(next()?),
            "--instances" => c.instances = Some(positive(flag, next()?)?),
            "--max-live" => c.max_live = Some(positive(flag, next()?)?),
            "--adversarial" => {
                let n = parsed(flag, next()?)?;
                if n > 1000 {
                    return Err("--adversarial is per-mille (0..=1000)".into());
                }
                c.adversarial = Some(n);
            }
            "--report" => c.report = Some(next()?),
            "--budget-ms" => c.budget_ms = Some(positive(flag, next()?)?),
            "--data-dir" => c.data_dir = Some(next()?),
            "--socket" => c.socket = Some(next()?),
            "--tcp" => c.tcp = Some(next()?),
            "--text" => c.text_mode = true,
            "--chaos" => c.chaos = true,
            "--net" => c.net = true,
            "--max-conns" => c.max_conns = Some(positive(flag, next()?)?),
            "--reply-wait-ms" => c.reply_wait_ms = Some(positive(flag, next()?)?),
            "--attempts" => c.attempts = Some(positive(flag, next()?)?),
            "--tenants" => c.tenants = positive(flag, next()?)?,
            "--ops" => c.ops = Some(parsed(flag, next()?)?),
            "--queue-depth" => c.queue_depth = Some(parsed(flag, next()?)?),
            "--batch-max" => c.batch_max = Some(parsed(flag, next()?)?),
            "--max-restarts" => c.max_restarts = Some(parsed(flag, next()?)?),
            "--exact" => c.exact = true,
            "-v" | "--verbose" => c.verbose = true,
            other if other.starts_with('-') => return Err(format!("unknown flag {other}")),
            path => {
                if c.file.replace(path.to_string()).is_some() {
                    return Err("more than one input file".into());
                }
            }
        }
    }
    Ok(c)
}

fn load(c: &Common) -> Result<System, String> {
    let path = c.file.as_ref().ok_or("missing SYSTEM file argument")?;
    let text = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
    parse_system(&text).map_err(|e| format!("{path}: {e}"))
}

fn cmd_check(c: &Common) -> Result<ExitCode, String> {
    let sys = load(c)?;
    let alpha = Augmentation::new(c.alpha).map_err(|e| e.to_string())?;
    println!(
        "{} tasks (ΣU = {:.3}), {} machines (ΣS = {:.3}), policy {}, α = {}",
        sys.tasks.len(),
        sys.tasks.total_utilization(),
        sys.platform.len(),
        sys.platform.total_speed(),
        c.policy.name(),
        c.alpha
    );
    if c.exact {
        return cmd_check_exact(c, &sys);
    }
    let sink = c.report.as_ref().map(|_| MemorySink::new());
    let mut gas = gas_for(c);
    let outcome = match &sink {
        Some(s) => {
            let _t = s.timer("phase.partition");
            run_ff_within(&sys, c.policy, alpha, &mut gas, s)
        }
        None => run_ff_within(&sys, c.policy, alpha, &mut gas, &()),
    };
    let code = match &outcome {
        Outcome::Feasible(a) => {
            println!("FEASIBLE");
            if c.verbose {
                print_assignment(&sys, a);
            }
            ExitCode::SUCCESS
        }
        Outcome::Infeasible(w) => {
            println!(
                "INFEASIBLE — task {} (utilization {:.3}) fits no machine",
                w.failing_task, w.failing_utilization
            );
            let (bound, name) = match c.policy {
                Policy::EDF => (2.0, "partitioned (Theorem I.1)"),
                _ => (
                    Augmentation::RMS_VS_PARTITIONED.factor(),
                    "partitioned (Theorem I.2)",
                ),
            };
            if c.alpha >= bound {
                println!("⇒ provably infeasible for any {name} scheduler at speed 1");
            }
            ExitCode::from(1)
        }
        Outcome::BudgetExhausted { partial } => {
            println!(
                "UNDECIDED — budget exhausted after placing {} of {} tasks",
                partial.assigned_count(),
                sys.tasks.len()
            );
            ExitCode::from(3)
        }
    };
    if let (Some(path), Some(s)) = (&c.report, &sink) {
        let mut r = base_report("check", c, &sys);
        r.set("alpha", Json::Float(c.alpha));
        match &outcome {
            Outcome::Feasible(_) => {
                r.set("verdict", Json::Str("feasible".into()));
            }
            Outcome::Infeasible(w) => {
                r.set("verdict", Json::Str("infeasible".into()))
                    .set("failing_task", Json::UInt(w.failing_task as u64))
                    .set("failing_utilization", Json::Float(w.failing_utilization));
            }
            Outcome::BudgetExhausted { partial } => {
                r.set("verdict", Json::Str("undecided".into()))
                    .set("tasks_placed", Json::UInt(partial.assigned_count() as u64));
            }
        }
        r.attach_metrics(&s.snapshot());
        write_report(path, &r)?;
    }
    Ok(code)
}

/// One `-v` line per machine: its speed, tasks and load.
fn print_assignment(sys: &System, a: &Assignment) {
    for m in 0..sys.platform.len() {
        println!(
            "  machine {m} (speed {}): tasks {:?}, load {:.3}",
            sys.platform.machine(m).speed(),
            a.tasks_on(m),
            a.load_on(m, &sys.tasks),
        );
    }
}

/// `check --exact`: the graceful-degradation ladder. Exact branch-and-bound
/// first; when the budget runs out, fall back to the first-fit witness, then
/// the utilization bound. Every answer short of "undecided" is sound.
fn cmd_check_exact(c: &Common, sys: &System) -> Result<ExitCode, String> {
    if c.policy != Policy::EDF {
        return Err("--exact currently supports only --policy edf".into());
    }
    // With a wall-clock budget the clock is the limiter; otherwise cap the
    // search by nodes like `oracles` does so an unbudgeted run still ends.
    let node_budget = if c.budget_ms.is_some() {
        u64::MAX
    } else {
        8_000_000
    };
    // Default to a single worker: `check` is often scripted and exact
    // verdicts are worker-count independent anyway, so parallelism is
    // opt-in via --workers.
    let workers = c.workers.unwrap_or(1);
    let mut gas = gas_for(c);
    let sink = MemorySink::new();
    let ladder = {
        let _t = sink.timer("phase.exact_ladder");
        exact_partition_edf_degraded(
            &sys.tasks,
            &sys.platform,
            node_budget,
            workers,
            &mut gas,
            &sink,
        )
    };
    let code = match &ladder.verdict {
        LadderVerdict::Feasible { witness } => {
            println!(
                "FEASIBLE (decided by {}, {} downgrades)",
                ladder.level, ladder.degraded
            );
            if let (true, Some(a)) = (c.verbose, witness) {
                print_assignment(sys, a);
            }
            ExitCode::SUCCESS
        }
        LadderVerdict::Infeasible => {
            println!(
                "INFEASIBLE (decided by {}, {} downgrades)",
                ladder.level, ladder.degraded
            );
            ExitCode::from(1)
        }
        LadderVerdict::Undecided => {
            println!(
                "UNDECIDED within budget (last level tried: {}, {} downgrades) \
                 — rerun with a larger --budget-ms for a definite answer",
                ladder.level, ladder.degraded
            );
            ExitCode::from(3)
        }
    };
    if let Some(path) = &c.report {
        let mut r = base_report("check", c, sys);
        r.set("exact", Json::Bool(true))
            .set("workers", Json::UInt(workers as u64))
            .set("verdict", Json::Str(ladder.verdict.as_str().into()))
            .set("level", Json::Str(ladder.level.into()))
            .set("degraded", Json::UInt(ladder.degraded as u64));
        r.attach_metrics(&sink.snapshot());
        write_report(path, &r)?;
    }
    Ok(code)
}

fn cmd_alpha(c: &Common) -> Result<ExitCode, String> {
    let sys = load(c)?;
    let sink = c.report.as_ref().map(|_| MemorySink::new());
    let lp_phase = sink.as_ref().map(|s| s.timer("phase.lp_bound"));
    let beta = level_scaling_factor(&sys.tasks, &sys.platform);
    drop(lp_phase);
    println!("LP lower bound β (no scheduler can need less): {beta:.4}");
    let mut gas = gas_for(c);
    let searched = match &sink {
        Some(s) => {
            let _t = s.timer("phase.alpha_search");
            min_alpha_within(&sys, c.policy, 64.0, &mut gas, s)
        }
        None => min_alpha_within(&sys, c.policy, 64.0, &mut gas, &()),
    };
    // The report: `lp_beta`, then `fields`, then the verdict.
    let report = |fields: &[(&str, Json)], verdict: &str| -> Result<(), String> {
        if let (Some(path), Some(s)) = (&c.report, &sink) {
            let mut r = base_report("alpha", c, &sys);
            r.set("lp_beta", Json::Float(beta));
            for (k, v) in fields {
                r.set(*k, v.clone());
            }
            r.set("verdict", Json::Str(verdict.into()));
            r.attach_metrics(&s.snapshot());
            write_report(path, &r)?;
        }
        Ok(())
    };
    let star = match searched {
        Ok(star) => star,
        Err(why) => {
            println!("UNDECIDED — α-search budget exhausted ({})", why.as_str());
            report(&[], "undecided")?;
            return Ok(ExitCode::from(3));
        }
    };
    let code = match star {
        Some(a) => {
            println!("first-fit {} needs α* = {a:.4}", c.policy.name());
            // β = 0 only without tasks: there is no ratio to print.
            if beta > 0.0 {
                println!("overhead vs LP bound: {:.3}×", a / beta);
            }
            ExitCode::SUCCESS
        }
        None => {
            println!("first-fit {} infeasible even at α = 64", c.policy.name());
            ExitCode::from(1)
        }
    };
    let verdict = if star.is_some() {
        "feasible"
    } else {
        "infeasible"
    };
    report(
        &[("alpha_star", star.map_or(Json::Null, Json::Float))],
        verdict,
    )?;
    Ok(code)
}

fn cmd_oracles(c: &Common) -> Result<ExitCode, String> {
    let sys = load(c)?;
    println!(
        "LP (migrative adversary): {}",
        if lp_feasible(&sys.tasks, &sys.platform) {
            "feasible"
        } else {
            "infeasible"
        }
    );
    let budget = 8_000_000;
    let fmt = |o: ExactOutcome| match o {
        ExactOutcome::Feasible(_) => "feasible".to_string(),
        ExactOutcome::Infeasible => "infeasible".to_string(),
        ExactOutcome::Unknown => format!("undecided within {budget} nodes"),
    };
    println!(
        "optimal partitioned EDF: {}",
        fmt(exact_partition_edf(&sys.tasks, &sys.platform, budget))
    );
    println!(
        "optimal partitioned RMS (exact RTA): {}",
        fmt(exact_partition_rms(&sys.tasks, &sys.platform, budget / 8))
    );
    // Single-machine quick facts when m = 1.
    if sys.platform.len() == 1 {
        let s = sys.platform.machine(0).speed();
        println!(
            "single machine: EDF {}, RTA {}",
            if analysis::edf_schedulable_exact(&sys.tasks, s) {
                "ok"
            } else {
                "overload"
            },
            if analysis::rta_schedulable(&sys.tasks, s) {
                "ok"
            } else {
                "miss"
            },
        );
    }
    Ok(ExitCode::SUCCESS)
}

fn cmd_simulate(c: &Common) -> Result<ExitCode, String> {
    let sys = load(c)?;
    let alpha = Augmentation::new(c.alpha).map_err(|e| e.to_string())?;
    let sink = c.report.as_ref().map(|_| MemorySink::new());
    // One gas pool for the whole command: partitioning and simulation share
    // the `--budget-ms` allowance.
    let mut gas = gas_for(c);
    let outcome = match &sink {
        Some(s) => {
            let _t = s.timer("phase.partition");
            run_ff_within(&sys, c.policy, alpha, &mut gas, s)
        }
        None => run_ff_within(&sys, c.policy, alpha, &mut gas, &()),
    };
    // The report: `alpha`, then `fields`, then the verdict.
    let report = |fields: &[(&str, Json)], verdict: &str| -> Result<(), String> {
        if let (Some(path), Some(s)) = (&c.report, &sink) {
            let mut r = base_report("simulate", c, &sys);
            r.set("alpha", Json::Float(c.alpha));
            for (k, v) in fields {
                r.set(*k, v.clone());
            }
            r.set("verdict", Json::Str(verdict.into()));
            r.attach_metrics(&s.snapshot());
            write_report(path, &r)?;
        }
        Ok(())
    };
    if let Outcome::BudgetExhausted { partial } = &outcome {
        println!(
            "UNDECIDED — budget exhausted during partitioning ({} of {} tasks placed)",
            partial.assigned_count(),
            sys.tasks.len()
        );
        report(&[], "undecided")?;
        return Ok(ExitCode::from(3));
    }
    let Outcome::Feasible(assignment) = outcome else {
        println!(
            "first-fit rejects this system at α = {} — nothing to simulate",
            c.alpha
        );
        report(&[], "rejected")?;
        return Ok(ExitCode::from(1));
    };
    let alpha_ratio = Ratio::approximate_f64(c.alpha, 1_000_000)
        .ok_or("cannot rationalize --alpha for the exact simulator")?;
    let _sim_phase = sink.as_ref().map(|s| s.timer("phase.simulate"));
    let sim_res = if let Some(j) = c.jitter {
        let horizon = hetfeas::sim::validation_horizon(&sys.tasks)
            .ok_or("hyperperiod too large for simulation")?;
        hetfeas::sim::simulate_partition_within(
            &sys.tasks,
            &sys.platform,
            &assignment,
            alpha_ratio,
            c.policy.sched(),
            ReleasePattern::Sporadic {
                jitter_frac: j,
                seed: c.seed,
            },
            horizon,
            &mut gas,
        )
    } else {
        validate_assignment_within(
            &sys.tasks,
            &sys.platform,
            &assignment,
            alpha_ratio,
            c.policy.sched(),
            &mut gas,
        )
    };
    drop(_sim_phase);
    let sim = match sim_res {
        Ok(inner) => inner.map_err(|e| e.to_string())?,
        Err(why) => {
            // A truncated trace proves nothing — report undecided, not clean.
            println!("UNDECIDED — simulation budget exhausted ({})", why.as_str());
            report(&[], "undecided")?;
            return Ok(ExitCode::from(3));
        }
    };
    // Sporadic runs span the whole set's hyperperiods; periodic validation
    // spans each machine's own (see `validate_assignment`).
    let span = match c.jitter {
        Some(_) => "2 hyperperiods",
        None => "2 hyperperiods per machine",
    };
    println!(
        "simulated {span}: {} jobs, {} misses, {} preemptions, max lateness {:?}",
        sim.jobs_completed, sim.miss_count, sim.preemptions, sim.max_lateness
    );
    if c.verbose {
        for m in &sim.misses {
            println!(
                "  miss: task {} released {} deadline {} completed {}",
                m.task, m.release, m.deadline, m.completion
            );
        }
    }
    let fields = [
        ("jobs_completed", Json::UInt(sim.jobs_completed)),
        ("miss_count", Json::UInt(sim.miss_count)),
        ("preemptions", Json::UInt(sim.preemptions)),
    ];
    let clean = sim.miss_count == 0;
    report(&fields, if clean { "clean" } else { "misses" })?;
    Ok(if clean {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}

fn cmd_generate(c: &Common) -> Result<ExitCode, String> {
    if let Some(name) = &c.scenario {
        let scenario = Scenario::parse(name).ok_or_else(|| {
            format!(
                "unknown --scenario {name:?} (available: {})",
                Scenario::ALL.map(|s| s.name()).join(", ")
            )
        })?;
        let inst = scenario
            .spec()
            .generate(c.seed, 0)
            .ok_or("scenario generator could not satisfy its parameters")?;
        print!("{}", render_system(&inst.tasks, &inst.platform));
        return Ok(ExitCode::SUCCESS);
    }
    let platform = match c.platform.as_str() {
        "identical" => PlatformSpec::Identical { m: c.machines },
        "big-little" => PlatformSpec::BigLittle {
            big: (c.machines / 3).max(1),
            little: c.machines - (c.machines / 3).max(1),
            ratio: 3,
        },
        "geometric" => PlatformSpec::Geometric {
            m: c.machines,
            base: 2,
        },
        "uniform" => PlatformSpec::UniformRandom {
            m: c.machines,
            lo: 1,
            hi: 8,
        },
        other => return Err(format!("unknown --platform {other:?}")),
    };
    let spec = WorkloadSpec {
        n_tasks: c.tasks,
        normalized_utilization: c.util,
        platform,
        sampler: UtilizationSampler::UUniFastCapped,
        periods: PeriodMenu::standard(),
    };
    let inst = spec
        .generate(c.seed, 0)
        .ok_or("generator could not satisfy the parameters (utilization too tight?)")?;
    print!("{}", render_system(&inst.tasks, &inst.platform));
    Ok(ExitCode::SUCCESS)
}

/// Run the adversarial fault corpus through the budgeted pipeline behind
/// the panic firewall. Exit 0 iff no case panicked — the verdicts may well
/// be "undecided"; the point is that every case *terminates and answers*.
fn cmd_faults(c: &Common) -> Result<ExitCode, String> {
    let sink = MemorySink::new();
    let cases = FaultPlan::new(c.seed).cases();
    // Default each case to a short wall clock so the corpus stays a smoke
    // test; --budget-ms overrides per case.
    let per_case_ms = c.budget_ms.unwrap_or(200);
    println!(
        "fault corpus: {} cases, seed {}, {} ms budget per case",
        cases.len(),
        c.seed,
        per_case_ms
    );
    let mut worst = ExitCode::SUCCESS;
    for case in &cases {
        sink.counter_add(ROBUST_FAULTS_INJECTED, 1);
        let verdicts = guard(&sink, || {
            let mut gas = Budget::wall_ms(per_case_ms).gas();
            let exact = exact_partition_edf_degraded(
                &case.tasks,
                &case.platform,
                200_000,
                1,
                &mut gas,
                &sink,
            );
            let mut lp_gas = Budget::wall_ms(per_case_ms).gas();
            let lp = lp_feasible_degraded(&case.tasks, &case.platform, &mut lp_gas, &sink);
            (exact, lp)
        });
        let text = match &verdicts {
            Ok((exact, lp)) => format!(
                "exact: {:10} via {:17}  lp: {:10} via {}",
                exact.verdict.as_str(),
                exact.level,
                lp.verdict.as_str(),
                lp.level
            ),
            Err(p) => format!("{} {}", PanicReport::CELL, p.message),
        };
        println!("  {:22} [{:17}] {}", case.name, case.kind.as_str(), text);
        if verdicts.is_err() {
            worst = ExitCode::from(1);
        }
    }
    let panics = sink.counter(ROBUST_PANICS);
    println!(
        "{} cases injected, {} panics",
        sink.counter(ROBUST_FAULTS_INJECTED),
        panics
    );
    if let Some(path) = &c.report {
        let mut r = RunReport::new("hetfeas", "faults");
        r.set("seed", Json::UInt(c.seed))
            .set("cases", Json::UInt(cases.len() as u64))
            .set("budget_ms_per_case", Json::UInt(per_case_ms))
            .set(
                "verdict",
                Json::Str(if panics == 0 { "clean" } else { "panics" }.into()),
            );
        r.attach_metrics(&sink.snapshot());
        write_report(path, &r)?;
    }
    Ok(worst)
}

/// Open the journal file as a [`Storage`], wrapping it in the deterministic
/// fault-injection layer when any `HETFEAS_JOURNAL_*` knob is set.
fn journal_store(path: &str) -> Box<dyn Storage> {
    let fs = FileStorage::new(path);
    let script = FaultScript::from_env();
    if script.is_noop() {
        Box::new(fs)
    } else {
        Box::new(FaultFs::new(fs, script))
    }
}

/// The durability knobs shared by the journaled replay paths and `serve`:
/// `--compact-every` sets the snapshot-compaction cadence, `--slice-bytes`
/// the per-slice copy budget of the incremental compactor (0 = one
/// stop-the-world slice).
fn durable_opts(c: &Common) -> DurableOptions {
    let mut opts = DurableOptions::default();
    if let Some(n) = c.compact_every {
        opts.compact_every = n;
    }
    if let Some(b) = c.slice_bytes {
        opts.slice_bytes = b;
    }
    opts
}

/// The `journal: …` summary line shared by the journaled replay paths.
fn journal_summary(sink: &MemorySink) -> String {
    use hetfeas::robust::metrics as jm;
    format!(
        "journal: {} appends, {} bytes, {} syncs, {} retries, {} compactions \
         ({} slices, {} bytes reclaimed)",
        sink.counter(jm::JOURNAL_APPENDS),
        sink.counter(jm::JOURNAL_BYTES_WRITTEN),
        sink.counter(jm::JOURNAL_SYNCS),
        sink.counter(jm::JOURNAL_RETRIES),
        sink.counter(jm::JOURNAL_COMPACTIONS),
        sink.counter(jm::JOURNAL_COMPACT_SLICES),
        sink.counter(jm::JOURNAL_BYTES_RECLAIMED),
    )
}

/// Where `ops` reads its instances from: a parsed text trace, whose
/// instances shard across workers, or an HBT1 stream pulled one instance
/// at a time, so only the live engine state and one decode frame are
/// ever resident.
enum OpsInput {
    Text(OpTrace),
    Binary {
        stream: OpStream<std::io::BufReader<std::fs::File>>,
        bytes: u64,
    },
}

impl OpsInput {
    /// Open `path`, telling the formats apart by the HBT1 magic.
    fn open(path: &str) -> Result<OpsInput, String> {
        use std::io::Read as _;
        let read_err = |e: std::io::Error| format!("read {path}: {e}");
        let mut head = Vec::new();
        std::fs::File::open(path)
            .and_then(|f| f.take(8).read_to_end(&mut head))
            .map_err(read_err)?;
        if !is_binary_trace(&head) {
            let text = std::fs::read_to_string(path).map_err(read_err)?;
            let trace = parse_op_trace(&text).map_err(|e| format!("{path}: {e}"))?;
            return Ok(OpsInput::Text(trace));
        }
        let file = std::fs::File::open(path).map_err(read_err)?;
        let bytes = file.metadata().map(|m| m.len()).unwrap_or(0);
        let stream = OpStream::new(std::io::BufReader::with_capacity(1 << 20, file))
            .map_err(|e| format!("{path}: {e}"))?;
        Ok(OpsInput::Binary { stream, bytes })
    }

    /// How many instances the trace at `path` holds. An HBT1 stream is
    /// counted by a decode-only pass over a second reader, so a journaled
    /// run can refuse a multi-instance or damaged trace before it creates
    /// the journal.
    fn instances(&self, path: &str) -> Result<usize, String> {
        let OpsInput::Text(trace) = self else {
            let file = std::fs::File::open(path).map_err(|e| format!("read {path}: {e}"))?;
            let mut stream = OpStream::new(std::io::BufReader::with_capacity(1 << 20, file))
                .map_err(|e| format!("{path}: {e}"))?;
            let mut n = 0;
            while let Some(ev) = stream.next_event().map_err(|e| format!("{path}: {e}"))? {
                n += usize::from(matches!(ev, TraceEvent::Begin { .. }));
            }
            return Ok(n);
        };
        Ok(trace.instances.len())
    }
}

/// Replay every instance of `input` under `adm`: on a [`DurableEngine`]
/// over the `--journal` file, else on a fresh `mode` engine each. Each
/// instance's name and outcome comes back in trace order; an instance
/// that ran out of `--budget-ms` is reported on its own and the replay
/// goes on. A journaled run stops at its first error.
#[allow(clippy::too_many_arguments)]
fn ops_replay<A, S>(
    c: &Common,
    input: &mut OpsInput,
    adm: A,
    mode: ReplayMode,
    alpha: Augmentation,
    workers: usize,
    sink: &S,
) -> Result<Vec<InstanceOutcome>, ReplayError>
where
    A: IndexableAdmission + Copy + Sync,
    S: MetricsSink + Sync,
{
    let mut store = c.journal.as_deref().map(journal_store);
    let mut journaled = |platform: &Platform, gas: &mut Gas| {
        let store = store.take().ok_or_else(|| ReplayError::Trace {
            op_index: 0,
            message: "journaled replay needs a single-instance trace".to_string(),
        })?;
        DurableEngine::create(adm, platform, alpha, durable_opts(c), store, gas, sink)
            .map_err(|e| ReplayError::at(0, e))
    };
    match input {
        OpsInput::Text(trace) if c.journal.is_some() => {
            let mut gas = gas_for(c);
            let inst = &trace.instances[0];
            let eng = journaled(&inst.platform, &mut gas)?;
            let out = replay_ops(eng, inst.ops.iter().copied(), &mut gas, sink)?;
            Ok(vec![(inst.name.clone(), Ok(out))])
        }
        OpsInput::Text(trace) => {
            let progress = Progress::new(trace.instances.len() as u64);
            let sharding = Sharding {
                workers,
                budget_ms: c.budget_ms,
                progress: Some(&progress),
            };
            let results = replay_sharded(trace, adm, alpha, mode, sharding, sink);
            let names = trace.instances.iter().map(|i| i.name.clone());
            Ok(names.zip(results).collect())
        }
        OpsInput::Binary { stream, .. } if c.journal.is_some() => {
            let done = replay_stream_with(stream, c.budget_ms, |platform, ops, gas| {
                replay_ops(journaled(platform, gas)?, ops, gas, sink)
            })?;
            done.into_iter()
                .map(|(name, r)| Ok((name, Ok(r?))))
                .collect()
        }
        OpsInput::Binary { stream, .. } => {
            replay_stream_with(stream, c.budget_ms, |platform, ops, gas| {
                replay_instance(adm, platform, ops, alpha, mode, gas, sink)
            })
        }
    }
}

/// `hetfeas ops`: replay an op trace through the online admission engine,
/// its journaled form, or the from-scratch baseline. Every flag is
/// checked before the trace is read. The trace's format decides only how
/// instances arrive: sharded across `--workers` (text), pulled one at a
/// time (HBT1), or, with `--journal`, as the single instance of either.
fn cmd_ops(c: &Common) -> Result<ExitCode, String> {
    let path = c
        .trace
        .as_ref()
        .or(c.file.as_ref())
        .ok_or("missing --trace FILE")?;
    let policy = c
        .policy
        .0
        .ok_or("--policy rms-rta has no indexed admission; ops supports edf|rms|rms-hyp")?;
    let mode = match c.mode.as_str() {
        "incremental" => ReplayMode::Incremental,
        "from-scratch" => ReplayMode::FromScratch,
        other => {
            return Err(format!(
                "unknown --mode {other:?} (incremental|from-scratch)"
            ))
        }
    };
    let journaled = c.journal.is_some();
    if !journaled && c.compact_every.is_some() {
        return Err("--compact-every requires --journal".into());
    }
    if !journaled && c.slice_bytes.is_some() {
        return Err("--slice-bytes requires --journal".into());
    }
    if journaled && mode != ReplayMode::Incremental {
        return Err("--journal requires --mode incremental".into());
    }
    let alpha = Augmentation::new(c.alpha).map_err(|e| e.to_string())?;
    let mut input = OpsInput::open(path)?;
    let workers = c.workers.unwrap_or_else(|| default_workers(8));
    let (name, mode_name) = (c.policy.name(), mode.as_str());
    let binary = matches!(input, OpsInput::Binary { .. });
    if journaled {
        let n = input.instances(path)?;
        if n != 1 {
            return Err(format!(
                "--journal replays exactly one instance; {path} holds {n}"
            ));
        }
    }
    match &input {
        OpsInput::Text(_) if journaled => {}
        OpsInput::Text(trace) => {
            let ops: usize = trace.instances.iter().map(|i| i.ops.len()).sum();
            let n = trace.instances.len();
            println!(
                "{n} instances ({ops} ops), policy {name}, mode {mode_name}, {workers} workers"
            );
        }
        OpsInput::Binary { bytes, .. } => println!(
            "streaming binary trace {path} ({bytes} bytes), policy {name}, mode {mode_name}"
        ),
    }
    // Metered only when something reads the meters.
    let sink = (c.report.is_some() || journaled).then(MemorySink::new);
    let replayed = match &sink {
        Some(s) => {
            let _t = s.timer("phase.replay");
            with_admission!(policy, adm => ops_replay(c, &mut input, adm, mode, alpha, workers, s))
        }
        None => {
            with_admission!(policy, adm => ops_replay(c, &mut input, adm, mode, alpha, workers, &()))
        }
    };
    let instances = match replayed {
        Ok(instances) => instances,
        Err(ReplayError::Exhausted { op_index, cause }) => {
            println!(
                "UNDECIDED — budget exhausted ({}) at op {op_index}",
                cause.as_str()
            );
            return Ok(ExitCode::from(3));
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    let mut total = ReplayStats::default();
    let mut digests = Vec::new();
    let mut exhausted = 0u64;
    for (name, r) in &instances {
        match r {
            Ok((stats, digest)) => {
                total.merge(stats);
                digests.push(*digest);
                if c.verbose && !journaled {
                    let shown = if binary {
                        format!(", digest {digest:08x}")
                    } else {
                        String::new()
                    };
                    println!(
                        "  {name}: {} ops, {} admitted, {} rejected, {} removed, live {}{shown}",
                        stats.ops, stats.admitted, stats.rejected, stats.removed, stats.final_live
                    );
                }
            }
            Err(ReplayError::Exhausted { op_index, cause }) => {
                exhausted += 1;
                println!(
                    "  {name}: UNDECIDED — budget exhausted ({}) at op {op_index}",
                    cause.as_str()
                );
            }
            Err(e) => return Err(format!("{path}: instance {name:?}: {e}")),
        }
    }
    let n = instances.len();
    let (digest_key, digest) = if journaled {
        let [digest] = digests[..] else {
            return Err(format!(
                "{path}: --journal replays exactly one instance; it holds {n}"
            ));
        };
        let (prefix, via) = match binary {
            true => (format!("{}: ", instances[0].0), "streamed"),
            false => (String::new(), "replayed"),
        };
        println!(
            "{prefix}{} ops journaled+{via}: {} admitted, {} rejected, {} removed, \
             {} repacks, {} snapshots, {} rollbacks, live {}",
            total.ops,
            total.admitted,
            total.rejected,
            total.removed,
            total.repacks,
            total.snapshots,
            total.rollbacks,
            total.final_live
        );
        let s = sink.as_ref().expect("journaled runs are metered");
        println!("{}", journal_summary(s));
        println!("journal digest {digest:08x}");
        ("digest", digest)
    } else {
        let counts = format!(
            "{} ops replayed: {} admitted, {} rejected, {} removed ({} misses), \
             {} queries ({} hits), {} repacks ({} infeasible), {} snapshots, {} rollbacks",
            total.ops,
            total.admitted,
            total.rejected,
            total.removed,
            total.remove_misses,
            total.query_hits + total.query_misses,
            total.query_hits,
            total.repacks,
            total.repacks_infeasible,
            total.snapshots,
            total.rollbacks
        );
        let combined = combine_digests(digests);
        if binary {
            println!("{n} instances streamed, {counts}");
            // An exhausted instance reached no state to digest.
            if exhausted == 0 {
                println!("combined digest {combined:08x}");
            }
        } else {
            println!("{counts}");
        }
        if exhausted > 0 {
            println!("UNDECIDED — {exhausted} of {n} instances exhausted the budget");
        }
        ("combined_digest", combined)
    };
    if let (Some(out), Some(s)) = (&c.report, &sink) {
        let mut r = RunReport::new("hetfeas", "ops");
        r.set("input", Json::Str(path.clone()))
            .set("policy", Json::Str(c.policy.key().into()))
            .set("mode", Json::Str(mode_name.into()));
        if let OpsInput::Binary { bytes, .. } = input {
            r.set("streaming", Json::Bool(true))
                .set("trace_bytes", Json::UInt(bytes));
        }
        if let Some(journal) = &c.journal {
            r.set("journal", Json::Str(journal.clone()));
        }
        let sharded = !(journaled || binary);
        r.set(
            "workers",
            Json::UInt(if sharded { workers as u64 } else { 1 }),
        )
        .set("instances", Json::UInt(n as u64))
        .set("exhausted", Json::UInt(exhausted))
        .set("ops", Json::UInt(total.ops))
        .set("admitted", Json::UInt(total.admitted))
        .set("rejected", Json::UInt(total.rejected))
        .set("removed", Json::UInt(total.removed))
        .set("remove_misses", Json::UInt(total.remove_misses))
        .set("query_hits", Json::UInt(total.query_hits))
        .set("query_misses", Json::UInt(total.query_misses))
        .set("snapshots", Json::UInt(total.snapshots))
        .set("rollbacks", Json::UInt(total.rollbacks))
        .set("repacks", Json::UInt(total.repacks))
        .set("repacks_infeasible", Json::UInt(total.repacks_infeasible))
        .set("final_live", Json::UInt(total.final_live))
        .set(digest_key, Json::Str(format!("{digest:08x}")));
        if journaled {
            use hetfeas::robust::metrics as jm;
            r.set(
                "journal_compact_slices",
                Json::UInt(s.counter(jm::JOURNAL_COMPACT_SLICES)),
            )
            .set(
                "journal_bytes_reclaimed",
                Json::UInt(s.counter(jm::JOURNAL_BYTES_RECLAIMED)),
            );
        }
        let verdict = if exhausted == 0 {
            "replayed"
        } else {
            "undecided"
        };
        r.set("verdict", Json::Str(verdict.into()));
        r.attach_metrics(&s.snapshot());
        write_report(out, &r)?;
    }
    Ok(if exhausted == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(3)
    })
}

/// Rebuild a journaled engine from a (possibly crashed) journal file.
/// Exit 0 on success, 2 when the journal is unrecoverable (no intact
/// config record, wrong format, invalid records), 3 when `--budget-ms`
/// runs out mid-replay.
fn cmd_recover(c: &Common) -> Result<ExitCode, String> {
    let path = c
        .journal
        .as_ref()
        .or(c.file.as_ref())
        .ok_or("missing JOURNAL file argument")?
        .clone();
    let mut probe = FileStorage::new(path.as_str());
    let config = peek_config(&mut probe).map_err(|e| format!("{path}: {e}"))?;
    let mut gas = gas_for(c);
    let sink = MemorySink::new();
    let kind = PolicyKind::parse(&config.policy)
        .map_err(|_| format!("{path}: journal names unknown policy {:?}", config.policy))?;
    let result = with_admission!(kind, adm => {
        recover(adm, journal_store(&path), &mut gas, &sink).map(|(eng, rep)| {
            let e = eng.engine();
            let loads: Vec<f64> = (0..e.platform().len()).map(|m| e.load_on(m)).collect();
            (rep, eng.state_digest(), e.len(), loads)
        })
    });
    let (rep, digest, live, loads) = match result {
        Ok(v) => v,
        Err(RecoverError::Exhausted(x)) => {
            println!("UNDECIDED — recovery budget exhausted ({})", x.as_str());
            return Ok(ExitCode::from(3));
        }
        Err(e) => return Err(format!("{path}: {e}")),
    };
    println!(
        "recovered {} records ({} truncated, {} bytes dropped), policy {}, {} machines",
        rep.records_replayed,
        rep.truncated_records,
        rep.truncated_bytes,
        config.policy,
        config.machines.len()
    );
    println!("{live} live tasks");
    if c.verbose {
        for (m, load) in loads.iter().enumerate() {
            println!("  machine {m}: load {load:.6}");
        }
    }
    println!("state digest {digest:08x}");
    if let Some(out) = &c.report {
        let mut r = RunReport::new("hetfeas", "recover");
        r.set("input", Json::Str(path.clone()))
            .set("policy", Json::Str(config.policy.clone()))
            .set("records_replayed", Json::UInt(rep.records_replayed))
            .set("truncated_records", Json::UInt(rep.truncated_records))
            .set("truncated_bytes", Json::UInt(rep.truncated_bytes))
            .set("live", Json::UInt(live as u64))
            .set("digest", Json::Str(format!("{digest:08x}")))
            .set("verdict", Json::Str("recovered".into()));
        r.attach_metrics(&sink.snapshot());
        write_report(out, &r)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `hetfeas serve`: the supervised multi-tenant admission service.
///
/// Default mode reads length-prefixed command frames from stdin (or a
/// Unix socket with `--socket PATH`) and answers in submission order;
/// `--chaos` instead runs the in-process seeded fault storm and exits 0
/// only if every tenant satisfied the bulkhead/convergence contract.
fn cmd_serve(c: &Common) -> Result<ExitCode, String> {
    use hetfeas::service::{
        chaos::ChaosConfig, netchaos::NetStormConfig, run_net_storm, run_storm, serve_once,
        serve_tcp, serve_unix, ServerConfig, Service, ServiceConfig,
    };

    // Shard panics are contained by the firewall and handled by the
    // supervisor; the default hook would still print a full backtrace
    // per contained panic. One line each is enough for an operator.
    std::panic::set_hook(Box::new(|info| {
        eprintln!("shard panic contained: {info}");
    }));

    if c.chaos && c.net {
        let cfg = NetStormConfig {
            seed: c.seed,
            tenants: c.tenants,
            ops_per_tenant: c.ops.unwrap_or(32),
            machines: c.machines,
            workers: c.workers.unwrap_or(0),
            data_dir: std::path::PathBuf::from(
                c.data_dir
                    .clone()
                    .unwrap_or_else(|| format!("netchaos-{}", std::process::id())),
            ),
            net: hetfeas::service::netchaos::NetChaosConfig {
                seed: c.seed,
                ..Default::default()
            },
        };
        let report = run_net_storm(&cfg).map_err(|e| format!("net storm: {e}"))?;
        for line in report.summary_lines() {
            println!("{line}");
        }
        if let Some(out) = &c.report {
            let mut r = RunReport::new("hetfeas", "serve");
            r.set("mode", Json::Str("netchaos".into()))
                .set("seed", Json::UInt(report.seed))
                .set("tenants", Json::UInt(report.tenants.len() as u64))
                .set("proxied_conns", Json::UInt(report.proxied_conns))
                .set("duplicated", Json::UInt(report.duplicated))
                .set("torn", Json::UInt(report.torn))
                .set("resets", Json::UInt(report.resets))
                .set("dropped_replies", Json::UInt(report.dropped_replies))
                .set("dedup_hits", Json::UInt(report.dedup_hits))
                .set(
                    "ambiguous_tenants",
                    Json::UInt(report.ambiguous_tenants as u64),
                )
                .set(
                    "exactly_once",
                    Json::UInt(
                        report
                            .tenants
                            .iter()
                            .filter(|t| t.exactly_once == Some(true))
                            .count() as u64,
                    ),
                )
                .set(
                    "verdict",
                    Json::Str(if report.ok { "converged" } else { "diverged" }.into()),
                );
            write_report(out, &r)?;
        }
        return Ok(if report.ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    if c.chaos {
        let cfg = ChaosConfig {
            seed: c.seed,
            tenants: c.tenants,
            ops_per_tenant: c.ops.unwrap_or(48),
            machines: c.machines,
            workers: c.workers.unwrap_or(0),
            shed_probe: true,
            ack_wait_ms: c.reply_wait_ms.unwrap_or(30_000),
        };
        let report = run_storm(&cfg);
        for line in report.summary_lines() {
            println!("{line}");
        }
        if let Some(out) = &c.report {
            let mut r = RunReport::new("hetfeas", "serve");
            r.set("mode", Json::Str("chaos".into()))
                .set("seed", Json::UInt(report.seed))
                .set("workers", Json::UInt(report.workers as u64))
                .set("tenants", Json::UInt(report.tenants.len() as u64))
                .set(
                    "quarantined",
                    Json::UInt(report.tenants.iter().filter(|t| t.quarantined).count() as u64),
                )
                .set(
                    "converged",
                    Json::UInt(report.tenants.iter().filter(|t| t.converged).count() as u64),
                )
                .set("shed", Json::UInt(report.shed))
                .set("quotes", Json::UInt(report.quotes))
                .set("journal_retries", Json::UInt(report.journal_retries))
                .set("panics", Json::UInt(report.panics))
                .set("restarts", Json::UInt(report.restarts))
                .set("quarantines", Json::UInt(report.quarantines))
                .set(
                    "verdict",
                    Json::Str(if report.ok { "converged" } else { "diverged" }.into()),
                );
            write_report(out, &r)?;
        }
        return Ok(if report.ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }

    let mut svc_cfg = ServiceConfig {
        seed: c.seed,
        workers: c.workers.unwrap_or(0),
        opts: durable_opts(c),
        ..ServiceConfig::default()
    };
    if let Some(q) = c.queue_depth {
        svc_cfg.queue_depth = q.max(1);
    }
    if let Some(b) = c.batch_max {
        svc_cfg.batch_max = b.max(1);
    }
    if let Some(m) = c.max_restarts {
        svc_cfg.max_restarts = m;
    }
    let server_cfg = ServerConfig {
        data_dir: std::path::PathBuf::from(c.data_dir.as_deref().unwrap_or(".")),
        text: c.text_mode,
        stall_cap_ms: 1_000,
        reply_wait_ms: c.reply_wait_ms.unwrap_or(60_000),
        max_conns: c.max_conns.unwrap_or(64),
    };
    std::fs::create_dir_all(&server_cfg.data_dir)
        .map_err(|e| format!("create --data-dir {}: {e}", server_cfg.data_dir.display()))?;
    let svc = Service::new(svc_cfg);
    let workers = svc.workers();
    // The serve loops consume the service; keep a handle on its metrics
    // sink so the report can still read the final journal counters.
    let svc_sink = svc.sink_handle();
    eprintln!(
        "serving ({} workers, data dir {})",
        workers,
        server_cfg.data_dir.display()
    );
    let served = match (&c.tcp, &c.socket) {
        (Some(_), Some(_)) => {
            return Err("--tcp and --socket are mutually exclusive".into());
        }
        (Some(addr), None) => {
            let listener =
                std::net::TcpListener::bind(addr).map_err(|e| format!("bind --tcp {addr}: {e}"))?;
            eprintln!(
                "listening on tcp {}",
                listener
                    .local_addr()
                    .map_err(|e| format!("local_addr: {e}"))?
            );
            serve_tcp(listener, svc, &server_cfg)
        }
        (None, Some(path)) => serve_unix(std::path::Path::new(path), svc, &server_cfg),
        (None, None) => {
            // `Stdout` (not the lock) because the reply pump thread
            // shares the writer across threads.
            serve_once(std::io::stdin(), std::io::stdout(), svc, &server_cfg)
        }
    }
    .map_err(|e| format!("serve: {e}"))?;
    eprintln!(
        "served {} frames, {} responses over {} connections ({} shed), {} tenants; {}",
        served.frames,
        served.responses,
        served.conns,
        served.conns_shed,
        served.tenants.len(),
        if served.quit { "quit" } else { "eof" }
    );
    for (name, status) in &served.tenants {
        eprintln!(
            "  {name}: state={} restarts={} digest={}",
            status.state.as_str(),
            status.restarts,
            status
                .digest
                .map(|d| format!("{d:08x}"))
                .unwrap_or_else(|| "-".into())
        );
    }
    if let Some(out) = &c.report {
        let mut r = RunReport::new("hetfeas", "serve");
        r.set("mode", Json::Str("stream".into()))
            .set("workers", Json::UInt(workers as u64))
            .set("frames", Json::UInt(served.frames))
            .set("responses", Json::UInt(served.responses))
            .set("conns", Json::UInt(served.conns))
            .set("conns_shed", Json::UInt(served.conns_shed))
            .set("tenants", Json::UInt(served.tenants.len() as u64))
            .set(
                "quarantined",
                Json::UInt(
                    served
                        .tenants
                        .iter()
                        .filter(|(_, s)| s.state.as_str() == "quarantined")
                        .count() as u64,
                ),
            )
            .set("quit", Json::Bool(served.quit))
            .set(
                "journal_compact_slices",
                Json::UInt(svc_sink.counter(hetfeas::robust::metrics::JOURNAL_COMPACT_SLICES)),
            )
            .set(
                "journal_bytes_reclaimed",
                Json::UInt(svc_sink.counter(hetfeas::robust::metrics::JOURNAL_BYTES_RECLAIMED)),
            )
            .set("verdict", Json::Str("served".into()));
        r.attach_metrics(&svc_sink.snapshot());
        write_report(out, &r)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `hetfeas call`: one command line to a running server, with the full
/// client retry discipline (idempotency token, capped-jitter retries
/// under a deadline, circuit breaker).
///
/// Exit 0 on an `ok` reply, 1 on a definitive negative reply (`err` /
/// unretried `shed`), 2 on usage errors, 4 when no definitive reply was
/// obtained — for mutating commands the op may or may not have been
/// applied (rerun with the same journal digest check to resolve).
fn cmd_call(c: &Common) -> Result<ExitCode, String> {
    use hetfeas::service::{Client, ClientConfig, Endpoint, Reply};

    let line = c
        .file
        .as_deref()
        .ok_or("call needs a command line argument, e.g. 'add t 3 10'")?;
    let endpoint = match (&c.tcp, &c.socket) {
        (Some(addr), None) => Endpoint::Tcp(addr.clone()),
        (None, Some(path)) => Endpoint::Unix(std::path::PathBuf::from(path)),
        _ => return Err("call needs exactly one of --tcp ADDR or --socket PATH".into()),
    };
    let mut cfg = ClientConfig::default();
    if let Some(ms) = c.budget_ms {
        cfg.deadline_ms = ms;
    }
    if let Some(n) = c.attempts {
        cfg.max_attempts = n;
    }
    cfg.backoff = hetfeas::robust::Backoff::new(2, 256, c.seed);
    // The rid namespace must differ across `call` invocations — two
    // processes sharing a namespace would have their distinct requests
    // absorbed by the server's idempotency window as retries. Mix the
    // pid and clock in; `--seed` still controls the backoff schedule.
    let rid_seed = c.seed
        ^ u64::from(std::process::id())
        ^ std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.subsec_nanos() as u64 ^ d.as_secs())
            .unwrap_or(0);
    let mut client = Client::new(endpoint, cfg, rid_seed);
    let result = client.call(line);
    let (verdict, code) = match &result {
        Ok(Reply::Ok(body)) => {
            println!("ok {body}");
            ("ok", ExitCode::SUCCESS)
        }
        Ok(Reply::Err { kind, message }) => {
            println!("err {kind}: {message}");
            ("refused", ExitCode::from(1))
        }
        Ok(Reply::Shed(alpha)) => {
            match alpha {
                Some(a) => println!("shed alpha={a:.2}"),
                None => println!("shed alpha=none"),
            }
            ("shed", ExitCode::from(1))
        }
        Err(e) => {
            eprintln!("call failed: {e}");
            ("transport-failure", ExitCode::from(4))
        }
    };
    if let Some(out) = &c.report {
        let sink = client.sink();
        let mut r = RunReport::new("hetfeas", "call");
        r.set("verdict", Json::Str(verdict.into()))
            .set(
                "retries",
                Json::UInt(sink.counter(hetfeas::service::metrics::CLIENT_RETRIES)),
            )
            .set(
                "reconnects",
                Json::UInt(sink.counter(hetfeas::service::metrics::CLIENT_RECONNECTS)),
            )
            .set(
                "breaker_opens",
                Json::UInt(sink.counter(hetfeas::service::metrics::CLIENT_BREAKER_OPENS)),
            );
        r.attach_metrics(&sink.snapshot());
        write_report(out, &r)?;
    }
    Ok(code)
}

/// Build the synthesizer spec from the CLI knobs: seed, scale and the
/// adversarial mix; the shape knobs (waves, bursts, lifetimes) keep their
/// [`SynthSpec`] defaults, which is what the benchmarks pin.
fn synth_spec(c: &Common) -> SynthSpec {
    let mut spec = SynthSpec {
        seed: c.seed,
        instances: c.instances.unwrap_or(1),
        machines: c.machines,
        ..SynthSpec::default()
    };
    if let Some(n) = c.ops {
        spec.ops_per_instance = n as u64;
    }
    if let Some(n) = c.max_live {
        spec.max_live = n;
    }
    if let Some(per_mille) = c.adversarial {
        spec.adversarial_per_mille = per_mille;
        if per_mille > 0 {
            // Seed the adversarial template pool from the fault corpus —
            // the same huge-period / zero-slack / degenerate-speed task
            // sets `hetfeas faults` runs, so synthesized arrivals can hit
            // the admission tests' known weak spots.
            let mut pool = Vec::new();
            for case in FaultPlan::new(c.seed).cases() {
                pool.extend_from_slice(case.tasks.as_slice());
            }
            spec.adversarial = pool;
        }
    }
    spec
}

/// `trace synth`: deterministically synthesize an op-trace workload —
/// diurnal arrival waves, churn bursts, heavy-tailed lifetimes, optional
/// adversarial arrivals — and write it as a streaming binary `.hbt` trace
/// (or text with `--text`). The binary path never materializes the trace,
/// so million-op workloads synthesize in bounded RSS.
fn cmd_trace_synth(c: &Common) -> Result<ExitCode, String> {
    let out_path = c.out.as_ref().ok_or("trace synth needs --out FILE")?;
    let spec = synth_spec(c);
    let mut total_ops = 0u64;
    if c.text_mode {
        let mut instances = Vec::with_capacity(spec.instances);
        for i in 0..spec.instances {
            let platform = synth_platform(&spec, i);
            let mut synth = TraceSynth::new(&spec, i);
            let mut ops = Vec::new();
            while let Some(op) = synth.next_op() {
                ops.push(op);
            }
            total_ops += ops.len() as u64;
            instances.push(TraceInstance {
                name: format!("synth-{i}"),
                platform,
                ops,
            });
        }
        let text = render_op_trace(&OpTrace { instances });
        std::fs::write(out_path, &text).map_err(|e| format!("write {out_path}: {e}"))?;
    } else {
        let file =
            std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
        let buf = std::io::BufWriter::with_capacity(1 << 20, file);
        let mut writer = TraceWriter::new(buf).map_err(|e| format!("write {out_path}: {e}"))?;
        for i in 0..spec.instances {
            let platform = synth_platform(&spec, i);
            writer
                .begin_instance(&format!("synth-{i}"), &platform)
                .map_err(|e| format!("write {out_path}: {e}"))?;
            let mut synth = TraceSynth::new(&spec, i);
            while let Some(op) = synth.next_op() {
                writer
                    .op(&op)
                    .map_err(|e| format!("write {out_path}: {e}"))?;
            }
            writer
                .end_instance()
                .map_err(|e| format!("write {out_path}: {e}"))?;
            total_ops += synth.emitted();
        }
        writer
            .finish()
            .map_err(|e| format!("write {out_path}: {e}"))?;
    }
    let bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "synthesized {} instance{} ({} ops, seed {}, {} machines) → {} ({} bytes, {})",
        spec.instances,
        if spec.instances == 1 { "" } else { "s" },
        total_ops,
        spec.seed,
        spec.machines,
        out_path,
        bytes,
        if c.text_mode { "text" } else { "binary" }
    );
    if let Some(out) = &c.report {
        let mut r = RunReport::new("hetfeas", "trace-synth");
        r.set("output", Json::Str(out_path.clone()))
            .set("seed", Json::UInt(spec.seed))
            .set("instances", Json::UInt(spec.instances as u64))
            .set("machines", Json::UInt(spec.machines as u64))
            .set("max_live", Json::UInt(spec.max_live as u64))
            .set(
                "adversarial_per_mille",
                Json::UInt(spec.adversarial_per_mille),
            )
            .set("ops", Json::UInt(total_ops))
            .set("trace_bytes", Json::UInt(bytes))
            .set(
                "format",
                Json::Str(if c.text_mode { "text" } else { "binary" }.into()),
            )
            .set("verdict", Json::Str("synthesized".into()));
        write_report(out, &r)?;
    }
    Ok(ExitCode::SUCCESS)
}

/// `trace convert`: round-trip between the text and binary trace formats.
/// The direction is sniffed from the input's magic, so
/// `convert a.txt --out a.hbt` and `convert a.hbt --out a.txt` both just
/// work; a binary→text→binary round trip is byte-identical.
fn cmd_trace_convert(c: &Common) -> Result<ExitCode, String> {
    let in_path = c.file.as_ref().ok_or("trace convert needs an input FILE")?;
    let out_path = c.out.as_ref().ok_or("trace convert needs --out FILE")?;
    let bytes = std::fs::read(in_path).map_err(|e| format!("read {in_path}: {e}"))?;
    let (trace, direction) = if is_binary_trace(&bytes) {
        let trace = read_op_trace_bin(&bytes[..]).map_err(|e| format!("{in_path}: {e}"))?;
        let text = render_op_trace(&trace);
        std::fs::write(out_path, &text).map_err(|e| format!("write {out_path}: {e}"))?;
        (trace, "binary → text")
    } else {
        let text =
            String::from_utf8(bytes).map_err(|_| format!("{in_path}: not UTF-8 trace text"))?;
        let trace = parse_op_trace(&text).map_err(|e| format!("{in_path}: {e}"))?;
        let file =
            std::fs::File::create(out_path).map_err(|e| format!("create {out_path}: {e}"))?;
        let buf = std::io::BufWriter::with_capacity(1 << 20, file);
        let mut w =
            write_op_trace_bin(&trace, buf).map_err(|e| format!("write {out_path}: {e}"))?;
        std::io::Write::flush(&mut w).map_err(|e| format!("write {out_path}: {e}"))?;
        (trace, "text → binary")
    };
    let total_ops: usize = trace.instances.iter().map(|i| i.ops.len()).sum();
    let out_bytes = std::fs::metadata(out_path).map(|m| m.len()).unwrap_or(0);
    println!(
        "{direction}: {} instance{} ({} ops) → {} ({} bytes)",
        trace.instances.len(),
        if trace.instances.len() == 1 { "" } else { "s" },
        total_ops,
        out_path,
        out_bytes
    );
    Ok(ExitCode::SUCCESS)
}

const USAGE: &str =
    "usage: hetfeas <check|alpha|oracles|simulate|generate|faults|trace|ops|recover|serve|call> [ARGS]
  check    SYSTEM [--policy edf|rms|rms-hyp|rms-rta] [--alpha X] [--exact] [--workers N]
           [--report FILE] [-v]
  alpha    SYSTEM [--policy …] [--report FILE]
  oracles  SYSTEM
  simulate SYSTEM [--policy …] [--alpha X] [--jitter F] [--seed N] [--report FILE] [-v]
  generate --tasks N --machines M --util U [--platform identical|big-little|geometric|uniform]
           [--scenario automotive|avionics|media|server] [--seed N]
  faults   [--seed N] [--report FILE]
  trace synth --out FILE [--seed N] [--ops N] [--instances N] [--machines M]
           [--max-live N] [--adversarial PERMILLE] [--text] [--report FILE]
           deterministic workload synthesizer (diurnal waves, churn bursts,
           heavy-tailed lifetimes); binary .hbt by default, streamed in bounded RSS
  trace convert IN --out OUT   text <-> binary trace round-trip (format sniffed)
  ops      --trace TRACE [--mode incremental|from-scratch] [--policy edf|rms|rms-hyp]
           [--alpha X] [--workers N] [--report FILE] [-v]
           [--journal FILE [--compact-every N] [--slice-bytes B]]
           text traces shard across workers, binary traces replay as a
           bounded-RSS stream; --journal writes a write-ahead journal (one instance)
  recover  JOURNAL [--report FILE] [-v]   rebuild engine state from a journal
  serve    [--data-dir DIR] [--socket PATH | --tcp ADDR] [--text] [--workers N] [--seed N]
           [--queue-depth N] [--batch-max N] [--max-restarts N] [--compact-every N]
           [--slice-bytes B] [--max-conns N] [--reply-wait-ms N]
           [--report FILE]   supervised multi-tenant admission service (stdin frames,
           Unix socket, or TCP with concurrent connections); tenant crashes are
           bulkheaded, never fatal; requests may carry rid=<u64> idempotency tokens
           and dl=<ms> deadline budgets
  serve --chaos [--tenants N] [--ops N] [--machines M] [--seed N] [--workers N]
           [--report FILE]   seeded fault storm; exit 0 iff every tenant converged
  serve --chaos --net [--tenants N] [--ops N] [--seed N] [--data-dir DIR]
           [--report FILE]   network storm through the seeded chaos proxy; exit 0
           iff every acked op landed in the journal exactly once
  call     CMDLINE (--socket PATH | --tcp ADDR) [--attempts N] [--budget-ms N] [--seed N]
           [--report FILE]   one retrying client call; exit 0 ok, 1 refused,
           4 = no definitive reply (transport failure)
  --budget-ms N bounds the run by wall clock; exit 3 = undecided within budget
  --exact (check) runs exact branch-and-bound with graceful degradation to first-fit /
           utilization bound; --workers N parallelizes the search (same verdict for every N)
  --report FILE writes a JSON run report (verdict + work counters + phase timers)";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = args.split_first() else {
        eprintln!("{USAGE}");
        return ExitCode::from(2);
    };
    // `trace` carries its own subcommand (`synth`/`convert`); split it off
    // before flag parsing so `convert`'s input file stays the positional.
    let (cmd, rest): (String, &[String]) = if cmd == "trace" {
        match rest.split_first() {
            Some((sub, tail)) if sub == "synth" || sub == "convert" => {
                (format!("trace-{sub}"), tail)
            }
            _ => {
                eprintln!("trace needs a subcommand: synth|convert\n{USAGE}");
                return ExitCode::from(2);
            }
        }
    } else {
        (cmd.clone(), rest)
    };
    let common = match parse_common(rest) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "check" => cmd_check(&common),
        "alpha" => cmd_alpha(&common),
        "oracles" => cmd_oracles(&common),
        "simulate" => cmd_simulate(&common),
        "generate" => cmd_generate(&common),
        "faults" => cmd_faults(&common),
        "trace-synth" => cmd_trace_synth(&common),
        "trace-convert" => cmd_trace_convert(&common),
        "ops" => cmd_ops(&common),
        "recover" => cmd_recover(&common),
        "serve" => cmd_serve(&common),
        "call" => cmd_call(&common),
        other => Err(format!("unknown command {other:?}\n{USAGE}")),
    };
    match result {
        Ok(code) => code,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}
