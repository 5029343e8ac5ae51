//! Metric names emitted by the admission service.
//!
//! `service.*` counters follow the same conventions as the `journal.*` /
//! `robust.*` families: `&'static str` constants in a dotted namespace,
//! emitted through [`hetfeas_obs::MetricsSink`]. The chaos harness and
//! `scripts/chaos_smoke.sh` assert on these — in particular that
//! `service.quarantines` matches the number of deliberately poisoned
//! tenants and nothing else.

/// Requests accepted into a shard queue (counter).
pub const SERVICE_OPS: &str = "service.ops";
/// Requests rejected by load shedding — bounded queue full (counter).
pub const SERVICE_SHED: &str = "service.shed";
/// Shed rejections that carried a speculative α quote (counter).
pub const SERVICE_QUOTES: &str = "service.quotes";
/// Batches drained by shard workers (counter).
pub const SERVICE_BATCHES: &str = "service.batches";
/// Duplicate idempotent ops merged by per-shard coalescing (counter).
pub const SERVICE_COALESCED: &str = "service.coalesced";
/// Shard incarnation restarts performed by the supervisor (counter).
pub const SERVICE_RESTARTS: &str = "service.restarts";
/// Shards quarantined — corrupt WAL, restart cap, or unrecoverable gas
/// exhaustion (counter).
pub const SERVICE_QUARANTINES: &str = "service.quarantines";
/// Ops acked with an IO / exhaustion / panic error (counter).
pub const SERVICE_OP_ERRORS: &str = "service.op_errors";
/// Retried ops answered from the per-tenant rid dedup window without a
/// second application (counter).
pub const SERVICE_DEDUP_HITS: &str = "service.dedup_hits";
/// Connections accepted by the concurrent front end (counter).
pub const SERVICE_CONNS: &str = "service.conns";
/// Connections shed at accept time — in-flight connection cap reached
/// (counter).
pub const SERVICE_CONN_SHED: &str = "service.conn_shed";
/// Requests that timed out waiting for a shard reply past their
/// per-request deadline budget (counter).
pub const SERVICE_DEADLINE_MISSES: &str = "service.deadline_misses";
/// State digests computed by shard workers — at boot, for `digest`
/// requests and at shutdown, never per batch (counter).
pub const SERVICE_DIGESTS: &str = "service.digests";
/// Quote-board machine entries rewritten after batches: one per machine
/// a batch changed, every machine after a repack, rollback or boot
/// (counter).
pub const SERVICE_QUOTE_REFRESHES: &str = "service.quote_refreshes";

/// Calls issued by [`crate::client::Client`] (counter).
pub const CLIENT_CALLS: &str = "client.calls";
/// Retried attempts after transport errors or sheds (counter).
pub const CLIENT_RETRIES: &str = "client.retries";
/// Reconnects performed after a torn connection (counter).
pub const CLIENT_RECONNECTS: &str = "client.reconnects";
/// Calls abandoned at the per-request deadline (counter).
pub const CLIENT_DEADLINE_EXCEEDED: &str = "client.deadline_exceeded";
/// Retries denied by the retry budget — overload amplification guard
/// (counter).
pub const CLIENT_BUDGET_DENIED: &str = "client.budget_denied";
/// Circuit-breaker transitions into Open (counter).
pub const CLIENT_BREAKER_OPENS: &str = "client.breaker_opens";
/// Calls rejected fast while the breaker is Open (counter).
pub const CLIENT_BREAKER_REJECTS: &str = "client.breaker_rejects";
