//! Seeded chaos harness: drive a deterministic fault storm through a
//! live [`Service`] and check the bulkhead + convergence contract.
//!
//! The storm opens one shard per tenant, assigns each tenant a fault
//! **role** (cycling through [`Role`]), and interleaves a seeded op mix
//! across all tenants, awaiting every acknowledgement. Roles cover the
//! full failure surface of the service:
//!
//! | role              | fault                                   | expected end state |
//! |-------------------|------------------------------------------|--------------------|
//! | `healthy`         | none                                     | running, converged |
//! | `transient`       | transient append + fsync faults          | running, converged (retries absorb) |
//! | `short-write`     | torn append mid-storm                    | running, converged (1 restart) |
//! | `crash-storage`   | storage dies mid-storm (incl. mid-compaction replace) | running, converged |
//! | `panic-mid`       | injected shard panic mid-storm           | running, converged (1 restart) |
//! | `poison-head`     | config record corrupted, then panic      | quarantined        |
//! | `stuck-storage`   | storage dies instantly, every incarnation | quarantined (restart cap) |
//! | `tiny-recover-gas`| panic + recovery gas too small to replay | quarantined (restart cap) |
//!
//! Convergence is checked two ways after the storm:
//!
//! * **Journal replay** (every surviving tenant): recovering the
//!   tenant's final journal bytes through a fault-free in-process
//!   [`TenantEngine::recover`] must reproduce the live shard's
//!   `state_digest` bit-for-bit.
//! * **Op replay** (tenants whose acks are unambiguous): re-applying
//!   exactly the acked-as-applied ops, in order, through a fault-free
//!   engine over fresh [`MemStorage`] must also reproduce the digest.
//!   The `crash-storage` role is excluded here: a crash budget can fire
//!   inside post-op housekeeping (journal compaction) *after* the op
//!   itself was journaled and applied, so its error acks are honest
//!   ("may or may not be durable") but not a replay script.
//!
//! The bulkhead claim is that the three poisoned roles end — and only
//! they end — in `Quarantined`, while the process and every other shard
//! keep serving. A separate shed probe stalls one healthy shard and
//! overruns its bounded queue to exercise load shedding with α quotes.
//!
//! Everything is driven from one seed: op streams, platforms and restart
//! jitter all derive from it, and fault scripts are count-based (not
//! timing-based), so a storm with the shed probe disabled reproduces
//! identical per-tenant digests run after run.

use crate::engine::TenantEngine;
use crate::metrics;
use crate::shard::{apply_op, Op, Request, Response, ShardState, StorageFactory, TenantSpec};
use crate::supervisor::{Service, ServiceConfig, DEFAULT_ALPHA_RUNGS};
use hetfeas_model::rng::splitmix64;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_partition::durable::DurableOptions;
use hetfeas_partition::PolicyKind;
use hetfeas_robust::journal::{FaultFs, FaultScript, MemStorage, Storage};
use hetfeas_robust::{metrics as robust_metrics, Gas};
use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Duration;

/// Chaos storm parameters.
#[derive(Debug, Clone)]
pub struct ChaosConfig {
    /// Master seed: op streams, platforms and backoff jitter derive
    /// from it.
    pub seed: u64,
    /// Tenant (shard) count; roles cycle through [`Role`].
    pub tenants: usize,
    /// Interleaved ops submitted per tenant.
    pub ops_per_tenant: usize,
    /// Machines per tenant platform (speeds seeded in 1..=3).
    pub machines: usize,
    /// Shard-worker concurrency (`0` = `HETFEAS_WORKERS` / available
    /// parallelism).
    pub workers: usize,
    /// Run the load-shedding probe (stall + queue overrun) after the
    /// storm. Disable for strict cross-run digest determinism.
    pub shed_probe: bool,
    /// Per-ack wait bound (ms) before the storm declares a shard hung —
    /// a liveness backstop, configurable instead of hardcoded.
    pub ack_wait_ms: u64,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xC4A05,
            tenants: 8,
            ops_per_tenant: 48,
            machines: 3,
            workers: 0,
            shed_probe: true,
            ack_wait_ms: 30_000,
        }
    }
}

/// The fault persona a tenant plays during the storm.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// No faults.
    Healthy,
    /// Transient append + fsync faults, absorbed by journal retries.
    Transient,
    /// One torn (short) append mid-storm; restart + recovery truncates.
    ShortWrite,
    /// Storage crash budget fires mid-storm, possibly mid-compaction.
    CrashStorage,
    /// Injected shard panic at the storm midpoint.
    PanicMid,
    /// Config record corrupted at the midpoint, then a panic — recovery
    /// finds an unrecoverable journal and quarantines.
    PoisonHead,
    /// Storage dies within a byte, every incarnation — the boot retry
    /// cap quarantines.
    StuckStorage,
    /// Panic with a recovery gas budget too small to replay the journal
    /// — exhaustion retries hit the cap and quarantine.
    TinyRecoverGas,
}

/// Role assignment order (tenant `i` plays `ROLES[i % 8]`).
pub const ROLES: [Role; 8] = [
    Role::Healthy,
    Role::Transient,
    Role::ShortWrite,
    Role::CrashStorage,
    Role::PanicMid,
    Role::PoisonHead,
    Role::StuckStorage,
    Role::TinyRecoverGas,
];

impl Role {
    /// Stable lowercase name.
    pub fn as_str(self) -> &'static str {
        match self {
            Role::Healthy => "healthy",
            Role::Transient => "transient",
            Role::ShortWrite => "short-write",
            Role::CrashStorage => "crash-storage",
            Role::PanicMid => "panic-mid",
            Role::PoisonHead => "poison-head",
            Role::StuckStorage => "stuck-storage",
            Role::TinyRecoverGas => "tiny-recover-gas",
        }
    }

    /// Whether the bulkhead contract says this role must end quarantined.
    pub fn expect_quarantine(self) -> bool {
        matches!(
            self,
            Role::PoisonHead | Role::StuckStorage | Role::TinyRecoverGas
        )
    }

    /// Whether an `Error` ack from this role proves the op was *not*
    /// applied (see the module docs on crash-during-housekeeping).
    fn unambiguous_acks(self) -> bool {
        !matches!(self, Role::CrashStorage)
    }
}

/// Post-storm verdict for one tenant.
#[derive(Debug, Clone)]
pub struct TenantOutcome {
    /// Tenant name (`t0`, `t1`, …).
    pub name: String,
    /// Fault persona played.
    pub role: Role,
    /// Final shard state string.
    pub state: String,
    /// Whether the shard ended quarantined.
    pub quarantined: bool,
    /// Quarantine reason, when quarantined.
    pub reason: Option<String>,
    /// Restarts the supervisor performed.
    pub restarts: u32,
    /// Live digest answered by the shard after the storm.
    pub live_digest: Option<u32>,
    /// Digest from fault-free recovery of the final journal bytes.
    pub journal_replay_digest: Option<u32>,
    /// Digest from fault-free replay of the acked-applied op stream
    /// (unambiguous-ack roles only).
    pub op_replay_digest: Option<u32>,
    /// Ops acked as applied.
    pub acked_applied: u64,
    /// Ops acked as errors (IO / gas / panic).
    pub errors: u64,
    /// Whether this tenant satisfied its contract (converged, or
    /// quarantined exactly when expected).
    pub converged: bool,
}

/// Aggregate result of one storm.
#[derive(Debug, Clone)]
pub struct ChaosReport {
    /// Seed the storm ran under.
    pub seed: u64,
    /// Effective shard-worker concurrency.
    pub workers: usize,
    /// Per-tenant verdicts.
    pub tenants: Vec<TenantOutcome>,
    /// `service.shed` total.
    pub shed: u64,
    /// `service.quotes` total (sheds that carried an α quote).
    pub quotes: u64,
    /// `journal.retries` total (transient faults absorbed).
    pub journal_retries: u64,
    /// `robust.panics` total (panics the firewall contained).
    pub panics: u64,
    /// `service.restarts` total.
    pub restarts: u64,
    /// `service.quarantines` total.
    pub quarantines: u64,
    /// True when an ack never arrived (a shard wedged) — always a bug.
    pub hung: bool,
    /// The storm verdict: no hang, every tenant converged, and the
    /// quarantine set is exactly the poisoned roles.
    pub ok: bool,
}

impl ChaosReport {
    /// Human-readable summary, one line per tenant plus a header.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "chaos seed={:#x} workers={} shed={} quotes={} retries={} panics={} restarts={} quarantines={} ok={}",
            self.seed,
            self.workers,
            self.shed,
            self.quotes,
            self.journal_retries,
            self.panics,
            self.restarts,
            self.quarantines,
            self.ok
        )];
        for t in &self.tenants {
            out.push(format!(
                "  {} role={} state={} restarts={} applied={} errors={} digest={} journal={} opreplay={} converged={}",
                t.name,
                t.role.as_str(),
                t.state,
                t.restarts,
                t.acked_applied,
                t.errors,
                fmt_digest(t.live_digest),
                fmt_digest(t.journal_replay_digest),
                fmt_digest(t.op_replay_digest),
                t.converged
            ));
        }
        out
    }
}

fn fmt_digest(d: Option<u32>) -> String {
    match d {
        Some(d) => format!("{d:08x}"),
        None => "-".to_string(),
    }
}

/// The storm's splitmix64 chain: each draw re-mixes the last, so the
/// whole storm derives from one seed.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(splitmix64(seed))
    }

    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Seeded op mix: 60% add, 15% remove-a-live-id, the rest snapshot /
/// rollback / repack / compact noise.
fn gen_op(rng: &mut Rng, live: &[u64]) -> Op {
    let roll = rng.below(100);
    if roll < 60 {
        let wcet = 1 + rng.below(9);
        let period = 10 + rng.below(41);
        match Task::implicit(wcet, period) {
            Ok(t) => Op::Add(t),
            Err(_) => Op::Snapshot,
        }
    } else if roll < 75 {
        if live.is_empty() {
            Op::Snapshot
        } else {
            Op::Remove(live[rng.below(live.len() as u64) as usize])
        }
    } else if roll < 83 {
        Op::Snapshot
    } else if roll < 89 {
        Op::Rollback
    } else if roll < 95 {
        Op::Repack
    } else {
        Op::Compact
    }
}

/// Storage factory implementing a role's fault script. Faults are scoped
/// to incarnation 0 (the life the storm starts in) except for
/// `StuckStorage`, which poisons every life — a restart models reopening
/// the same file, and a crashed [`FaultFs`] must not stay dead across it.
fn factory_for(role: Role, underlying: &MemStorage) -> StorageFactory {
    let store = underlying.clone();
    let script: Option<(FaultScript, bool)> = match role {
        Role::Transient => Some((
            FaultScript {
                transient_errors: 3,
                fail_sync_at: Some(2),
                ..FaultScript::default()
            },
            false,
        )),
        Role::ShortWrite => Some((
            FaultScript {
                short_write_at: Some(6),
                ..FaultScript::default()
            },
            false,
        )),
        Role::CrashStorage => Some((
            FaultScript {
                crash_after_bytes: Some(500),
                ..FaultScript::default()
            },
            false,
        )),
        Role::StuckStorage => Some((
            FaultScript {
                crash_after_bytes: Some(1),
                ..FaultScript::default()
            },
            true,
        )),
        _ => None,
    };
    Arc::new(move |incarnation| match &script {
        Some((s, every)) if *every || incarnation == 0 => {
            Box::new(FaultFs::new(store.clone(), *s)) as Box<dyn Storage>
        }
        _ => Box::new(store.clone()) as Box<dyn Storage>,
    })
}

struct Tenant {
    name: String,
    role: Role,
    policy: PolicyKind,
    platform: Platform,
    underlying: MemStorage,
    rng: Rng,
    live: Vec<u64>,
    ref_ops: Vec<Op>,
    acked_applied: u64,
    errors: u64,
    live_digest: Option<u32>,
}

fn await_seq(
    rx: &mpsc::Receiver<(u64, Response)>,
    want: u64,
    hung: &mut bool,
    ack_wait: Duration,
) -> Option<Response> {
    if *hung {
        return None;
    }
    loop {
        match rx.recv_timeout(ack_wait) {
            Ok((s, resp)) if s == want => return Some(resp),
            Ok(_) => continue,
            Err(_) => {
                *hung = true;
                return None;
            }
        }
    }
}

fn record_ack(t: &mut Tenant, op: Op, resp: &Response) {
    if resp.applied() {
        t.ref_ops.push(op);
        t.acked_applied += 1;
        match (op, resp) {
            (Op::Add(_), Response::Admitted { id, .. }) => t.live.push(*id),
            (Op::Remove(raw), Response::Removed { found: true }) => {
                t.live.retain(|&x| x != raw);
            }
            _ => {}
        }
    } else if matches!(resp, Response::Error { .. }) {
        t.errors += 1;
    }
}

/// Fault-free replay of the acked-applied op stream over fresh storage.
/// Shared with the network storm in [`crate::netchaos`].
pub(crate) fn op_replay_digest(
    policy: PolicyKind,
    platform: &Platform,
    opts: DurableOptions,
    ops: &[Op],
) -> Option<u32> {
    let mut gas = Gas::unlimited();
    let mut eng = TenantEngine::create(
        policy,
        platform,
        Augmentation::NONE,
        opts,
        Box::new(MemStorage::new()),
        &mut gas,
        &(),
    )
    .ok()?;
    for &op in ops {
        apply_op(&mut eng, op, None, &mut gas, &()).ok()?;
    }
    Some(eng.state_digest())
}

/// Fault-free recovery of the tenant's final journal bytes. Shared with
/// the network storm in [`crate::netchaos`].
pub(crate) fn journal_replay_digest(policy: PolicyKind, bytes: Vec<u8>) -> Option<u32> {
    if bytes.is_empty() {
        return None;
    }
    TenantEngine::recover(
        policy,
        Box::new(MemStorage::with_bytes(bytes)),
        &mut Gas::unlimited(),
        &(),
    )
    .ok()
    .map(|(e, _)| e.state_digest())
}

/// Run one seeded fault storm; see the module docs for the contract.
pub fn run_storm(cfg: &ChaosConfig) -> ChaosReport {
    let tenant_count = cfg.tenants.max(1);
    let ops_per_tenant = cfg.ops_per_tenant.max(2);
    let opts = DurableOptions {
        // Auto-repack is gas-sensitive; cadence compaction is not. Keep
        // compaction hot (it is a chaos target) and repack explicit.
        repack_after: 0,
        compact_every: 7,
        ..DurableOptions::default()
    };
    let mut svc = Service::new(ServiceConfig {
        queue_depth: 8,
        batch_max: 4,
        workers: cfg.workers,
        max_restarts: 4,
        backoff_base_ms: 1,
        backoff_cap_ms: 8,
        seed: cfg.seed,
        opts,
        op_gas: None,
        recover_gas: None,
        alpha_rungs: DEFAULT_ALPHA_RUNGS.to_vec(),
        dedup_window: 256,
        shutdown_wait_ms: cfg.ack_wait_ms,
    });

    let mut tenants: Vec<Tenant> = Vec::with_capacity(tenant_count);
    for i in 0..tenant_count {
        let role = ROLES[i % ROLES.len()];
        let mut rng = Rng::new(cfg.seed ^ splitmix64(0x07e4_a4e7 + i as u64));
        let speeds: Vec<u64> = (0..cfg.machines.max(1)).map(|_| 1 + rng.below(3)).collect();
        let platform = Platform::from_int_speeds(speeds).expect("seeded speeds are positive");
        let policy = [PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp][i % 3];
        let underlying = MemStorage::new();
        let spec = TenantSpec {
            name: format!("t{i}"),
            policy,
            platform: platform.clone(),
            alpha: Augmentation::NONE,
            factory: factory_for(role, &underlying),
            op_gas: None,
            recover_gas: if role == Role::TinyRecoverGas {
                Some(8)
            } else {
                None
            },
        };
        svc.open_tenant(spec).expect("tenant names are unique");
        tenants.push(Tenant {
            name: format!("t{i}"),
            role,
            policy,
            platform,
            underlying,
            rng,
            live: Vec::new(),
            ref_ops: Vec::new(),
            acked_applied: 0,
            errors: 0,
            live_digest: None,
        });
    }

    let (tx, rx) = mpsc::channel();
    let mut seq: u64 = 0;
    let mut hung = false;
    let ack_wait = Duration::from_millis(cfg.ack_wait_ms.max(1));

    // Interleaved storm, one awaited ack at a time (shedding is probed
    // separately — an awaited storm keeps queues drained, so which ops
    // land is a function of the seed alone, not scheduling).
    'storm: for k in 0..ops_per_tenant {
        for t in tenants.iter_mut() {
            let op = gen_op(&mut t.rng, &t.live);
            seq += 1;
            svc.submit(seq, &t.name, Request::Op(op), &tx);
            match await_seq(&rx, seq, &mut hung, ack_wait) {
                Some(resp) => record_ack(t, op, &resp),
                None => break 'storm,
            }
        }
        // Mid-storm events: panics and head corruption land once half
        // the stream has been journaled, so recovery has real work.
        if k + 1 == ops_per_tenant / 2 {
            for t in tenants.iter_mut() {
                let inject = match t.role {
                    Role::PanicMid | Role::TinyRecoverGas => true,
                    Role::PoisonHead => {
                        // Flip a byte inside the config record (the
                        // journal head): recovery now finds no intact
                        // config and must quarantine, not truncate.
                        let mut bytes = t.underlying.bytes();
                        if bytes.len() > 8 {
                            bytes[8] ^= 0xff;
                            t.underlying.set_bytes(bytes);
                        }
                        true
                    }
                    _ => false,
                };
                if inject {
                    seq += 1;
                    svc.submit(seq, &t.name, Request::InjectPanic, &tx);
                    if await_seq(&rx, seq, &mut hung, ack_wait).is_none() {
                        break 'storm;
                    }
                }
            }
        }
    }

    // Shed probe: stall the healthy shard and overrun its bounded queue.
    if cfg.shed_probe && !hung {
        let name = tenants[0].name.clone();
        seq += 1;
        svc.submit(seq, &name, Request::Stall(60), &tx);
        let stall_seq = seq;
        let mut burst: BTreeMap<u64, Op> = BTreeMap::new();
        for j in 0..24u64 {
            let task = Task::implicit(1, 20 + (j % 20)).expect("probe task");
            let op = Op::Add(task);
            seq += 1;
            burst.insert(seq, op);
            svc.submit(seq, &name, Request::Op(op), &tx);
        }
        let mut acks: BTreeMap<u64, Response> = BTreeMap::new();
        for _ in 0..=burst.len() {
            match rx.recv_timeout(ack_wait) {
                Ok((s, resp)) => {
                    acks.insert(s, resp);
                }
                Err(_) => {
                    hung = true;
                    break;
                }
            }
        }
        acks.remove(&stall_seq);
        // Worker order is queue order, so seq order (BTreeMap iteration)
        // reconstructs the applied subsequence exactly.
        for (s, resp) in &acks {
            if let Some(op) = burst.get(s) {
                record_ack(&mut tenants[0], *op, resp);
            }
        }
    }

    // Final digests from the shards themselves (quarantined shards
    // answer from their last published status).
    for t in tenants.iter_mut() {
        seq += 1;
        svc.submit(seq, &t.name, Request::Digest, &tx);
        if let Some(Response::Digest { digest, state, .. }) =
            await_seq(&rx, seq, &mut hung, ack_wait)
        {
            if state != ShardState::Quarantined {
                t.live_digest = Some(digest);
            }
        }
    }

    let workers = svc.workers();
    let sink = svc.sink();
    let shed = sink.counter(metrics::SERVICE_SHED);
    let quotes = sink.counter(metrics::SERVICE_QUOTES);
    let journal_retries = sink.counter(robust_metrics::JOURNAL_RETRIES);
    let panics = sink.counter(robust_metrics::ROBUST_PANICS);
    let restarts = sink.counter(metrics::SERVICE_RESTARTS);
    let quarantines = sink.counter(metrics::SERVICE_QUARANTINES);
    let finals: BTreeMap<String, _> = svc.shutdown().into_iter().collect();

    let mut outcomes = Vec::with_capacity(tenants.len());
    let mut all_converged = true;
    for t in tenants {
        let status = finals.get(&t.name);
        let state = status.map_or(ShardState::Starting, |s| s.state);
        let quarantined = state == ShardState::Quarantined;
        let journal_digest = if quarantined {
            None
        } else {
            journal_replay_digest(t.policy, t.underlying.bytes())
        };
        let op_digest = if !quarantined && t.role.unambiguous_acks() {
            op_replay_digest(t.policy, &t.platform, opts, &t.ref_ops)
        } else {
            None
        };
        let converged = if t.role.expect_quarantine() {
            quarantined
        } else {
            !quarantined
                && t.live_digest.is_some()
                && journal_digest == t.live_digest
                && (!t.role.unambiguous_acks() || op_digest == t.live_digest)
        };
        all_converged &= converged;
        outcomes.push(TenantOutcome {
            name: t.name,
            role: t.role,
            state: state.as_str().to_string(),
            quarantined,
            reason: status.and_then(|s| s.reason.clone()),
            restarts: status.map_or(0, |s| s.restarts),
            live_digest: t.live_digest,
            journal_replay_digest: journal_digest,
            op_replay_digest: op_digest,
            acked_applied: t.acked_applied,
            errors: t.errors,
            converged,
        });
    }

    let ok = !hung && all_converged;
    ChaosReport {
        seed: cfg.seed,
        workers,
        tenants: outcomes,
        shed,
        quotes,
        journal_retries,
        panics,
        restarts,
        quarantines,
        hung,
        ok,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storm_converges_and_quarantines_only_poisoned_tenants() {
        let cfg = ChaosConfig {
            seed: 7,
            tenants: 8,
            ops_per_tenant: 28,
            machines: 2,
            workers: 2,
            shed_probe: true,
            ack_wait_ms: 30_000,
        };
        let report = run_storm(&cfg);
        for line in report.summary_lines() {
            eprintln!("{line}");
        }
        assert!(!report.hung, "no ack may be lost");
        let quarantined: Vec<&str> = report
            .tenants
            .iter()
            .filter(|t| t.quarantined)
            .map(|t| t.name.as_str())
            .collect();
        assert_eq!(
            quarantined,
            vec!["t5", "t6", "t7"],
            "exactly the poisoned roles quarantine"
        );
        assert!(report.ok, "every tenant must satisfy its contract");
        assert!(report.shed >= 1, "the probe must shed");
        assert!(report.journal_retries >= 3, "transient faults must retry");
        assert!(report.panics >= 2, "injected panics are counted");
        assert!(
            report.restarts >= 3,
            "short-write, crash and panic roles restart"
        );
        assert_eq!(report.quarantines, 3);
        // The healthy tenant's strict op replay ran and matched.
        let healthy = &report.tenants[0];
        assert_eq!(healthy.op_replay_digest, healthy.live_digest);
        assert!(healthy.acked_applied > 0);
    }

    #[test]
    fn storm_without_probe_is_deterministic() {
        let cfg = ChaosConfig {
            seed: 0xD15EA5E,
            tenants: 8,
            ops_per_tenant: 20,
            machines: 2,
            workers: 2,
            shed_probe: false,
            ack_wait_ms: 30_000,
        };
        let a = run_storm(&cfg);
        let b = run_storm(&cfg);
        assert!(a.ok && b.ok);
        let digests = |r: &ChaosReport| {
            r.tenants
                .iter()
                .map(|t| (t.name.clone(), t.live_digest, t.acked_applied, t.errors))
                .collect::<Vec<_>>()
        };
        assert_eq!(digests(&a), digests(&b), "same seed, same end state");
    }
}
