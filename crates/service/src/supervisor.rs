//! The service front end: tenant registry, bounded per-shard queues,
//! load shedding with speculative α quotes, and clean shutdown.
//!
//! [`Service`] owns one supervised shard per tenant (see
//! [`crate::shard`]). Submission never blocks: a request either enqueues
//! onto the tenant's bounded queue, or — queue full — is **shed** with a
//! [`Response::Shed`] carrying a speculative α quote read from the
//! tenant's quote board ([`crate::quote`]): the per-machine residents the
//! shard published after its last batch, re-checked with the tenant's
//! own admission test at each ladder rung. A shed never touches the live
//! engine or its journal. Responses travel back over the caller-supplied
//! channel tagged with the caller's sequence number, so a front end can
//! reorder replies from many shards into submission order.

use crate::metrics;
use crate::shard::{
    self, Envelope, ErrorKind, Gate, Op, Request, Response, ShardCell, ShardConfig, ShardStatus,
    TenantSpec, WorkerCtx,
};
use hetfeas_obs::{MemorySink, MetricsSink};
use hetfeas_par::default_workers;
use hetfeas_partition::durable::DurableOptions;
use hetfeas_partition::PolicyKind;
use std::collections::BTreeMap;
use std::sync::mpsc::{self, Sender, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Hard cap on shard-worker concurrency.
pub const MAX_WORKERS: usize = 64;

/// Default α ladder probed when quoting a shed add.
pub const DEFAULT_ALPHA_RUNGS: [f64; 8] = [1.0, 1.25, 1.5, 1.75, 2.0, 2.5, 3.0, 4.0];

/// Service-wide configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bound on each tenant's request queue (load-shedding threshold).
    pub queue_depth: usize,
    /// Max ops a shard drains per batch.
    pub batch_max: usize,
    /// Shard-worker concurrency cap; `0` honors `HETFEAS_WORKERS` /
    /// available parallelism (capped at [`MAX_WORKERS`]).
    pub workers: usize,
    /// Shard restarts allowed before quarantine.
    pub max_restarts: u32,
    /// Base restart backoff delay (ms).
    pub backoff_base_ms: u64,
    /// Restart backoff cap (ms).
    pub backoff_cap_ms: u64,
    /// Jitter seed for restart schedules.
    pub seed: u64,
    /// Journal options applied to every tenant engine.
    pub opts: DurableOptions,
    /// Default per-op gas (ops); `None` = unlimited.
    pub op_gas: Option<u64>,
    /// Default boot/recovery gas (ops); `None` = unlimited.
    pub recover_gas: Option<u64>,
    /// α ladder for shed-time quotes.
    pub alpha_rungs: Vec<f64>,
    /// Per-tenant request-id dedup window capacity (`0` disables
    /// idempotent-retry dedup).
    pub dedup_window: usize,
    /// How long [`Service::shutdown`] waits for each shard's drain ack
    /// before force-joining (ms). A liveness backstop, not a deadline —
    /// the worker is joined either way.
    pub shutdown_wait_ms: u64,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 64,
            batch_max: 32,
            workers: 0,
            max_restarts: 8,
            backoff_base_ms: 1,
            backoff_cap_ms: 64,
            seed: 0x5eed,
            opts: DurableOptions::default(),
            op_gas: None,
            recover_gas: None,
            alpha_rungs: DEFAULT_ALPHA_RUNGS.to_vec(),
            dedup_window: 256,
            shutdown_wait_ms: 30_000,
        }
    }
}

struct TenantHandle {
    tx: SyncSender<Envelope>,
    cell: Arc<ShardCell>,
    join: Option<JoinHandle<()>>,
    policy: PolicyKind,
    platform: hetfeas_model::Platform,
    alpha: f64,
}

/// The multi-tenant admission service.
pub struct Service {
    cfg: ServiceConfig,
    workers: usize,
    sink: Arc<MemorySink>,
    gate: Arc<Gate>,
    tenants: BTreeMap<String, TenantHandle>,
}

impl Service {
    /// Build a service; resolves the effective worker count from the
    /// config (or `HETFEAS_WORKERS` / available parallelism when 0).
    pub fn new(cfg: ServiceConfig) -> Service {
        let workers = if cfg.workers == 0 {
            default_workers(MAX_WORKERS)
        } else {
            cfg.workers.clamp(1, MAX_WORKERS)
        };
        Service {
            gate: Gate::new(workers),
            workers,
            sink: Arc::new(MemorySink::new()),
            tenants: BTreeMap::new(),
            cfg,
        }
    }

    /// The effective shard-worker concurrency cap (reported in the
    /// server's JSON report).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The metrics sink aggregating `service.*`, `journal.*`,
    /// `recover.*` and `robust.*` counters across all shards.
    pub fn sink(&self) -> &MemorySink {
        &self.sink
    }

    /// A handle to the same sink that outlives the service — the serve
    /// loops consume `self`, and the CLI still wants the final counters
    /// for its JSON report.
    pub fn sink_handle(&self) -> Arc<MemorySink> {
        Arc::clone(&self.sink)
    }

    /// Registered tenant names, sorted.
    pub fn tenant_names(&self) -> Vec<String> {
        self.tenants.keys().cloned().collect()
    }

    /// True when `name` is registered.
    pub fn has_tenant(&self, name: &str) -> bool {
        self.tenants.contains_key(name)
    }

    /// Open (create or recover) a tenant shard. Fails only on duplicate
    /// names — a shard whose journal is corrupt still opens, straight
    /// into `Quarantined` (the bulkhead contract: poison is contained,
    /// never fatal).
    pub fn open_tenant(&mut self, mut spec: TenantSpec) -> Result<(), String> {
        if self.tenants.contains_key(&spec.name) {
            return Err(format!("tenant '{}' already open", spec.name));
        }
        if spec.op_gas.is_none() {
            spec.op_gas = self.cfg.op_gas;
        }
        if spec.recover_gas.is_none() {
            spec.recover_gas = self.cfg.recover_gas;
        }
        let (tx, rx) = mpsc::sync_channel(self.cfg.queue_depth.max(1));
        let cell = ShardCell::new();
        let ctx = WorkerCtx {
            spec: spec.clone(),
            cfg: ShardConfig {
                batch_max: self.cfg.batch_max.max(1),
                max_restarts: self.cfg.max_restarts,
                backoff_base_ms: self.cfg.backoff_base_ms,
                backoff_cap_ms: self.cfg.backoff_cap_ms,
                seed: self.cfg.seed,
                opts: self.cfg.opts,
                dedup_window: self.cfg.dedup_window,
            },
            cell: Arc::clone(&cell),
            sink: Arc::clone(&self.sink),
            gate: Arc::clone(&self.gate),
            rx,
        };
        let join = std::thread::Builder::new()
            .name(format!("shard-{}", spec.name))
            .spawn(move || shard::run(ctx))
            .map_err(|e| format!("spawn shard worker: {e}"))?;
        self.tenants.insert(
            spec.name.clone(),
            TenantHandle {
                tx,
                cell,
                join: Some(join),
                policy: spec.policy,
                platform: spec.platform.clone(),
                alpha: spec.alpha.factor(),
            },
        );
        Ok(())
    }

    /// Submit a request. Never blocks: enqueues, or sheds with a quote,
    /// or answers `unknown-tenant`/`unavailable` immediately. The reply
    /// (tagged `seq`) arrives on `reply`.
    pub fn submit(&self, seq: u64, tenant: &str, req: Request, reply: &Sender<(u64, Response)>) {
        self.submit_tagged(seq, None, tenant, req, reply);
    }

    /// [`Service::submit`] with a client-assigned request id. A rid that
    /// reaches the shard is deduplicated against the tenant's LRU window
    /// — a retried op already acked answers from the cached reply
    /// instead of being applied twice. Sheds and `unknown-tenant`
    /// answers are not recorded: nothing was applied, so the retry must
    /// run for real.
    pub fn submit_tagged(
        &self,
        seq: u64,
        rid: Option<u64>,
        tenant: &str,
        req: Request,
        reply: &Sender<(u64, Response)>,
    ) {
        let Some(handle) = self.tenants.get(tenant) else {
            let _ = reply.send((
                seq,
                Response::Error {
                    kind: ErrorKind::UnknownTenant,
                    message: format!("unknown tenant '{tenant}'"),
                },
            ));
            return;
        };
        let env = Envelope {
            seq,
            rid,
            req,
            reply: reply.clone(),
            extra: Vec::new(),
        };
        match handle.tx.try_send(env) {
            Ok(()) => self.sink.counter_add(metrics::SERVICE_OPS, 1),
            Err(TrySendError::Full(env)) => {
                self.sink.counter_add(metrics::SERVICE_SHED, 1);
                let alpha = if let Request::Op(Op::Add(task)) = env.req {
                    handle.cell.quote(
                        handle.policy,
                        &handle.platform,
                        handle.alpha,
                        task,
                        &self.cfg.alpha_rungs,
                    )
                } else {
                    None
                };
                if alpha.is_some() {
                    self.sink.counter_add(metrics::SERVICE_QUOTES, 1);
                }
                let _ = reply.send((seq, Response::Shed { alpha }));
            }
            Err(TrySendError::Disconnected(_)) => {
                let _ = reply.send((
                    seq,
                    Response::Error {
                        kind: ErrorKind::Unavailable,
                        message: format!("shard worker for '{tenant}' is unavailable"),
                    },
                ));
            }
        }
    }

    /// Published status of one tenant (never touches the worker).
    pub fn status(&self, tenant: &str) -> Option<ShardStatus> {
        self.tenants.get(tenant).map(|h| h.cell.status())
    }

    /// Published status of every tenant, sorted by name.
    pub fn statuses(&self) -> Vec<(String, ShardStatus)> {
        self.tenants
            .iter()
            .map(|(name, h)| (name.clone(), h.cell.status()))
            .collect()
    }

    /// Drain every shard and join its worker. Returns final statuses.
    /// The per-shard drain ack wait is bounded by
    /// [`ServiceConfig::shutdown_wait_ms`] rather than a hardcoded
    /// backstop.
    pub fn shutdown(mut self) -> Vec<(String, ShardStatus)> {
        let ack_wait = Duration::from_millis(self.cfg.shutdown_wait_ms.max(1));
        for handle in self.tenants.values_mut() {
            let (ack_tx, ack_rx) = mpsc::channel();
            let env = Envelope {
                seq: 0,
                rid: None,
                req: Request::Shutdown,
                reply: ack_tx,
                extra: Vec::new(),
            };
            if handle.tx.send(env).is_ok() {
                let _ = ack_rx.recv_timeout(ack_wait);
            }
            if let Some(join) = handle.join.take() {
                let _ = join.join();
            }
        }
        self.tenants
            .iter()
            .map(|(name, h)| (name.clone(), h.cell.status()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::TenantEngine;
    use crate::shard::{ShardState, StorageFactory};
    use hetfeas_model::{Augmentation, Platform, Task};
    use hetfeas_robust::journal::{FaultFs, FaultScript, MemStorage, Storage};
    use hetfeas_robust::metrics as jm;
    use hetfeas_robust::Gas;
    use std::sync::mpsc;

    fn mem_factory(store: &MemStorage) -> StorageFactory {
        let store = store.clone();
        Arc::new(move |_incarnation| Box::new(store.clone()) as Box<dyn Storage>)
    }

    fn spec(name: &str, store: &MemStorage) -> TenantSpec {
        TenantSpec {
            name: name.to_string(),
            policy: PolicyKind::Edf,
            platform: Platform::from_int_speeds([1, 2]).expect("platform"),
            alpha: Augmentation::NONE,
            factory: mem_factory(store),
            op_gas: None,
            recover_gas: None,
        }
    }

    fn await_seq(rx: &mpsc::Receiver<(u64, Response)>, seq: u64) -> Response {
        loop {
            let (s, resp) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("shard replies");
            if s == seq {
                return resp;
            }
        }
    }

    #[test]
    fn open_add_digest_round_trip() {
        let store = MemStorage::new();
        let mut svc = Service::new(ServiceConfig::default());
        assert!(svc.workers() >= 1);
        svc.open_tenant(spec("a", &store)).expect("open");
        assert!(svc.open_tenant(spec("a", &store)).is_err(), "duplicate");
        let (tx, rx) = mpsc::channel();
        let task = Task::implicit(3, 10).expect("task");
        svc.submit(1, "a", Request::Op(Op::Add(task)), &tx);
        assert!(matches!(
            await_seq(&rx, 1),
            Response::Admitted { machine: 0, .. }
        ));
        svc.submit(2, "a", Request::Digest, &tx);
        let Response::Digest {
            digest,
            state,
            live,
        } = await_seq(&rx, 2)
        else {
            panic!("digest response expected");
        };
        assert_eq!(state, crate::shard::ShardState::Running);
        assert_eq!(live, 1);
        assert_ne!(digest, 0);
        svc.submit(3, "missing", Request::Digest, &tx);
        assert!(matches!(
            await_seq(&rx, 3),
            Response::Error {
                kind: ErrorKind::UnknownTenant,
                ..
            }
        ));
        let final_states = svc.shutdown();
        assert_eq!(final_states.len(), 1);
    }

    #[test]
    fn injected_panic_restarts_and_recovers() {
        let store = MemStorage::new();
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(spec("t", &store)).expect("open");
        let (tx, rx) = mpsc::channel();
        let task = Task::implicit(2, 8).expect("task");
        svc.submit(1, "t", Request::Op(Op::Add(task)), &tx);
        let Response::Admitted { .. } = await_seq(&rx, 1) else {
            panic!("admitted expected");
        };
        svc.submit(2, "t", Request::Digest, &tx);
        let Response::Digest { digest: before, .. } = await_seq(&rx, 2) else {
            panic!("digest expected");
        };
        svc.submit(3, "t", Request::InjectPanic, &tx);
        assert!(matches!(
            await_seq(&rx, 3),
            Response::Error {
                kind: ErrorKind::Panic,
                ..
            }
        ));
        // The recovered incarnation must be bit-identical.
        svc.submit(4, "t", Request::Digest, &tx);
        let Response::Digest {
            digest: after,
            state,
            ..
        } = await_seq(&rx, 4)
        else {
            panic!("digest expected");
        };
        assert_eq!(state, crate::shard::ShardState::Running);
        assert_eq!(after, before);
        let status = svc.status("t").expect("status");
        assert_eq!(status.restarts, 1);
        assert_eq!(svc.sink().counter(metrics::SERVICE_RESTARTS), 1);
        svc.shutdown();
    }

    #[test]
    fn retried_rid_applies_once_and_replays_cached_ack() {
        let store = MemStorage::new();
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(spec("t", &store)).expect("open");
        let (tx, rx) = mpsc::channel();
        let task = Task::implicit(3, 10).expect("task");
        svc.submit_tagged(1, Some(77), "t", Request::Op(Op::Add(task)), &tx);
        let first = await_seq(&rx, 1);
        let Response::Admitted { id, machine } = first else {
            panic!("admitted expected");
        };
        // An at-least-once retry of the same rid: identical cached ack,
        // no second application.
        svc.submit_tagged(2, Some(77), "t", Request::Op(Op::Add(task)), &tx);
        assert_eq!(await_seq(&rx, 2), Response::Admitted { id, machine });
        assert_eq!(svc.sink().counter(metrics::SERVICE_DEDUP_HITS), 1);
        svc.submit(3, "t", Request::Digest, &tx);
        let Response::Digest { live, .. } = await_seq(&rx, 3) else {
            panic!("digest expected");
        };
        assert_eq!(live, 1, "retry must not admit a second task");
        // The dedup window survives a panic-restart of the shard.
        svc.submit(4, "t", Request::InjectPanic, &tx);
        await_seq(&rx, 4);
        svc.submit_tagged(5, Some(77), "t", Request::Op(Op::Add(task)), &tx);
        assert_eq!(await_seq(&rx, 5), Response::Admitted { id, machine });
        assert_eq!(svc.sink().counter(metrics::SERVICE_DEDUP_HITS), 2);
        svc.shutdown();
    }

    #[test]
    fn full_queue_sheds_with_alpha_quote() {
        let store = MemStorage::new();
        let cfg = ServiceConfig {
            queue_depth: 2,
            batch_max: 1, // the stall runs alone, before the burst
            workers: 2,
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(cfg);
        svc.open_tenant(spec("t", &store)).expect("open");
        let (tx, rx) = mpsc::channel();
        // Prime one resident so the quote has state to speculate over,
        // and wait for it so the published state includes it.
        svc.submit(
            1,
            "t",
            Request::Op(Op::Add(Task::implicit(2, 10).expect("t"))),
            &tx,
        );
        await_seq(&rx, 1);
        // Stall the worker, then overrun the bounded queue.
        svc.submit(2, "t", Request::Stall(300), &tx);
        let burst = 10u64;
        for i in 0..burst {
            let t = Task::implicit(1, 10).expect("t");
            svc.submit(3 + i, "t", Request::Op(Op::Add(t)), &tx);
        }
        let mut shed = 0;
        let mut quoted = 0;
        for _ in 0..burst + 1 {
            let (_, resp) = rx
                .recv_timeout(Duration::from_secs(10))
                .expect("burst replies");
            if let Response::Shed { alpha } = resp {
                shed += 1;
                if let Some(a) = alpha {
                    assert!(a >= 1.0);
                    quoted += 1;
                }
            }
        }
        assert!(shed >= 1, "bounded queue must shed under a stalled shard");
        assert_eq!(svc.sink().counter(metrics::SERVICE_SHED), shed);
        assert_eq!(svc.sink().counter(metrics::SERVICE_QUOTES), quoted);
        // A tiny 1/10 task over two idle-ish machines quotes at α = 1.
        assert!(quoted >= 1, "adds shed with state available carry quotes");
        svc.shutdown();
    }

    #[test]
    fn queued_adds_drain_in_one_batch() {
        let store = MemStorage::new();
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(spec("t", &store)).expect("open");
        let (tx, rx) = mpsc::channel();
        let before = svc.sink().counter(metrics::SERVICE_BATCHES);
        let syncs_before = svc.sink().counter(jm::JOURNAL_SYNCS);
        // The stall holds the shard while 32 adds queue behind it; the
        // shard must then take them as one batch, not one per request.
        svc.submit(1, "t", Request::Stall(300), &tx);
        let adds = 32u64;
        for seq in 2..2 + adds {
            let task = Task::implicit(1, 100).expect("task");
            svc.submit(seq, "t", Request::Op(Op::Add(task)), &tx);
        }
        assert_eq!(await_seq(&rx, 1), Response::Done);
        for seq in 2..2 + adds {
            let resp = await_seq(&rx, seq);
            assert!(matches!(resp, Response::Admitted { .. }), "{resp:?}");
        }
        let batches = svc.sink().counter(metrics::SERVICE_BATCHES) - before;
        assert!(batches <= 2, "{adds} queued adds took {batches} batches");
        // One barrier per batch, not one per add.
        let syncs = svc.sink().counter(jm::JOURNAL_SYNCS) - syncs_before;
        assert!(syncs <= 2, "{adds} queued adds paid {syncs} syncs");
        assert_eq!(svc.sink().counter(jm::JOURNAL_APPENDS), adds);
        svc.shutdown();
    }

    /// A tenant whose first incarnation's storage follows `script`;
    /// later incarnations reopen the same bytes without faults.
    fn faulty_spec(name: &str, store: &MemStorage, script: FaultScript) -> TenantSpec {
        let store = store.clone();
        TenantSpec {
            factory: Arc::new(move |incarnation| {
                if incarnation == 0 {
                    Box::new(FaultFs::new(store.clone(), script)) as Box<dyn Storage>
                } else {
                    Box::new(store.clone()) as Box<dyn Storage>
                }
            }),
            ..spec(name, &MemStorage::new())
        }
    }

    /// Stall the shard, wait until the stall is a batch of its own, then
    /// queue one add per entry of `rids`, tagged with it: they drain as
    /// exactly one batch. Returns the replies to the adds, in submission
    /// order.
    fn one_batch_of_adds(svc: &Service, first_seq: u64, rids: &[Option<u64>]) -> Vec<Response> {
        let (tx, rx) = mpsc::channel();
        let batches = svc.sink().counter(metrics::SERVICE_BATCHES);
        svc.submit(first_seq, "t", Request::Stall(200), &tx);
        while svc.sink().counter(metrics::SERVICE_BATCHES) == batches {
            std::thread::sleep(Duration::from_millis(1));
        }
        let seqs = first_seq + 1..=first_seq + rids.len() as u64;
        for (seq, &rid) in seqs.clone().zip(rids) {
            let task = Task::implicit(1, 100).expect("task");
            svc.submit_tagged(seq, rid, "t", Request::Op(Op::Add(task)), &tx);
        }
        assert_eq!(await_seq(&rx, first_seq), Response::Done);
        let replies: Vec<Response> = seqs.map(|seq| await_seq(&rx, seq)).collect();
        assert_eq!(
            svc.sink().counter(metrics::SERVICE_BATCHES),
            batches + 2,
            "the stall and the adds are one batch each"
        );
        replies
    }

    #[test]
    fn transient_sync_failure_inside_a_batch_is_retried() {
        let store = MemStorage::new();
        let script = FaultScript {
            fail_sync_at: Some(1),
            ..FaultScript::default()
        };
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(faulty_spec("t", &store, script))
            .expect("open");
        let replies = one_batch_of_adds(&svc, 1, &[None; 8]);
        for resp in &replies {
            assert!(matches!(resp, Response::Admitted { .. }), "{resp:?}");
        }
        assert_eq!(svc.sink().counter(jm::JOURNAL_RETRIES), 1);
        assert_eq!(svc.sink().counter(jm::JOURNAL_SYNCS), 1);
        assert_eq!(svc.status("t").expect("status").restarts, 0);
        svc.shutdown();
    }

    #[test]
    fn hard_sync_failure_fails_the_whole_batch_and_the_shard_recovers() {
        let store = MemStorage::new();
        // Sync 1 is the priming add's barrier; sync 2 is the batch's.
        let script = FaultScript {
            fail_sync_hard_at: Some(2),
            ..FaultScript::default()
        };
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(faulty_spec("t", &store, script))
            .expect("open");
        let (tx, rx) = mpsc::channel();
        let task = Task::implicit(3, 10).expect("task");
        svc.submit_tagged(1, Some(77), "t", Request::Op(Op::Add(task)), &tx);
        let acked = await_seq(&rx, 1);
        assert!(matches!(acked, Response::Admitted { .. }), "{acked:?}");
        svc.submit(2, "t", Request::Digest, &tx);
        let Response::Digest { digest: before, .. } = await_seq(&rx, 2) else {
            panic!("digest expected");
        };
        let durable = store.bytes();

        // The batch also retries the acked rid 77: that outcome is durable
        // already, so its reply does not depend on this batch's barrier.
        let mut rids = [None; 8];
        rids[3] = Some(77);
        let replies = one_batch_of_adds(&svc, 3, &rids);
        for (i, resp) in replies.iter().enumerate() {
            if i == 3 {
                assert_eq!(resp, &acked, "the retried rid keeps its acked reply");
                continue;
            }
            assert!(
                matches!(
                    resp,
                    Response::Error {
                        kind: ErrorKind::Io,
                        ..
                    }
                ),
                "every journaled op of the failed batch answers err io: {resp:?}"
            );
        }
        assert_eq!(store.bytes(), durable, "truncated back to the last barrier");

        // The shard restarted from its journal: the batch is gone, the
        // earlier add is not, and it serves again.
        svc.submit(20, "t", Request::Digest, &tx);
        let Response::Digest {
            digest: after,
            state,
            live,
        } = await_seq(&rx, 20)
        else {
            panic!("digest expected");
        };
        assert_eq!((after, state, live), (before, ShardState::Running, 1));
        assert_eq!(svc.status("t").expect("status").restarts, 1);
        svc.submit_tagged(21, Some(77), "t", Request::Op(Op::Add(task)), &tx);
        assert_eq!(await_seq(&rx, 21), acked, "still a hit after the restart");
        svc.submit(22, "t", Request::Op(Op::Add(task)), &tx);
        assert!(matches!(await_seq(&rx, 22), Response::Admitted { .. }));
        svc.shutdown();
    }

    #[test]
    fn a_compaction_commit_inside_a_failing_batch_keeps_the_replies_it_covered() {
        let store = MemStorage::new();
        // Sync 1 is the priming add's barrier; sync 2 is the batch's. The
        // compaction commit fsyncs its staged file, which the script does
        // not count.
        let script = FaultScript {
            fail_sync_hard_at: Some(2),
            ..FaultScript::default()
        };
        let cfg = ServiceConfig {
            opts: DurableOptions {
                compact_every: 5,
                slice_bytes: 0,
                ..DurableOptions::default()
            },
            ..ServiceConfig::default()
        };
        let mut svc = Service::new(cfg);
        svc.open_tenant(faulty_spec("t", &store, script))
            .expect("open");
        let (tx, rx) = mpsc::channel();
        let task = Task::implicit(1, 100).expect("task");
        svc.submit(1, "t", Request::Op(Op::Add(task)), &tx);
        assert!(matches!(await_seq(&rx, 1), Response::Admitted { .. }));

        // The batch's fourth add is the fifth op: it begins and commits a
        // one-slice compaction, a barrier over the batch so far.
        let replies = one_batch_of_adds(&svc, 2, &[None; 8]);
        assert_eq!(svc.sink().counter(jm::JOURNAL_COMPACTIONS), 1);
        for (i, resp) in replies.iter().enumerate() {
            if i < 4 {
                assert!(matches!(resp, Response::Admitted { .. }), "{i}: {resp:?}");
            } else {
                assert!(
                    matches!(
                        resp,
                        Response::Error {
                            kind: ErrorKind::Io,
                            ..
                        }
                    ),
                    "{i}: {resp:?}"
                );
            }
        }

        // The restarted shard holds the priming add and the four the
        // commit covered, exactly what was acknowledged.
        svc.submit(20, "t", Request::Digest, &tx);
        let Response::Digest { state, live, .. } = await_seq(&rx, 20) else {
            panic!("digest expected");
        };
        assert_eq!((state, live), (ShardState::Running, 5));
        assert_eq!(svc.status("t").expect("status").restarts, 1);
        svc.shutdown();
    }

    #[test]
    fn a_recovered_tenant_keeps_the_configured_slice_budget() {
        // A journal from an earlier process: 40 adds under a config record
        // that compacts every 8 ops.
        let store = MemStorage::new();
        let platform = Platform::from_int_speeds([1, 2]).expect("platform");
        let opts = DurableOptions {
            compact_every: 8,
            slice_bytes: 64,
            ..DurableOptions::default()
        };
        let mut gas = Gas::unlimited();
        let mut eng = TenantEngine::create(
            PolicyKind::Edf,
            &platform,
            Augmentation::NONE,
            opts,
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("create");
        let task = Task::implicit(1, 100).expect("task");
        for _ in 0..40 {
            eng.add(task, &mut gas, &()).expect("add");
        }
        eng.sync(&mut gas, &()).expect("barrier");
        drop(eng);

        // The shard recovers that journal; its compactions copy the image
        // in the service's 64-byte slices, not in one.
        let mut svc = Service::new(ServiceConfig {
            opts,
            ..ServiceConfig::default()
        });
        svc.open_tenant(spec("t", &store)).expect("open");
        let (tx, rx) = mpsc::channel();
        for seq in 1..=24 {
            svc.submit(seq, "t", Request::Op(Op::Add(task)), &tx);
            let resp = await_seq(&rx, seq);
            assert!(matches!(resp, Response::Admitted { .. }), "{resp:?}");
        }
        let compactions = svc.sink().counter(jm::JOURNAL_COMPACTIONS);
        let slices = svc.sink().counter(jm::JOURNAL_COMPACT_SLICES);
        assert!(compactions >= 1, "the journal's cadence compacts");
        assert!(
            slices > compactions,
            "{compactions} compactions took {slices} slices"
        );
        svc.shutdown();
    }

    #[test]
    fn a_retry_answered_from_an_unsynced_record_waits_for_the_open_fsync() {
        // A process killed between a batch's writes and its barrier: the
        // rid-tagged record sits in the store, never fsynced, never acked.
        let store = MemStorage::new();
        let task = Task::implicit(1, 10).expect("task");
        let platform = Platform::from_int_speeds([1, 2]).expect("platform");
        let mut gas = Gas::unlimited();
        let mut eng = TenantEngine::create(
            PolicyKind::Edf,
            &platform,
            Augmentation::NONE,
            DurableOptions::default(),
            Box::new(store.clone()),
            &mut gas,
            &(),
        )
        .expect("create");
        eng.set_rid(42);
        eng.add(task, &mut gas, &()).expect("write, then killed");
        drop(eng);

        // The next process boots over those bytes. Its first open cannot
        // fsync them, so the shard restarts; the retry is answered only
        // after an open whose fsync succeeded.
        let script = FaultScript {
            fail_sync_hard_at: Some(1),
            ..FaultScript::default()
        };
        let mut svc = Service::new(ServiceConfig::default());
        svc.open_tenant(faulty_spec("t", &store, script))
            .expect("open");
        let (tx, rx) = mpsc::channel();
        svc.submit_tagged(1, Some(42), "t", Request::Op(Op::Add(task)), &tx);
        let resp = await_seq(&rx, 1);
        assert!(matches!(resp, Response::Admitted { .. }), "{resp:?}");
        assert_eq!(svc.sink().counter(metrics::SERVICE_DEDUP_HITS), 1);
        assert_eq!(svc.sink().counter(jm::JOURNAL_APPENDS), 0, "not re-applied");
        assert_eq!(
            svc.sink().counter(jm::JOURNAL_SYNCS),
            1,
            "the open's fsync covered the recovered record"
        );
        assert_eq!(svc.status("t").expect("status").restarts, 1);
        svc.shutdown();
    }
}
