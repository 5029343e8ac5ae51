//! `hetfeas-service`: a supervised, multi-tenant admission service over
//! the journaled partitioned-feasibility engines.
//!
//! Each tenant owns a platform and a live [`partition::durable`-backed
//! engine](crate::engine::TenantEngine) and runs inside a **supervised
//! shard** ([`shard`]): a worker thread wrapped in the
//! `robust::firewall` panic guard, restarted by replaying the tenant's
//! write-ahead journal with capped, seeded-jitter backoff
//! (`robust::Backoff`). The **bulkhead** contract is that one tenant's
//! corrupt journal, panic or gas exhaustion quarantines only that
//! tenant: the shard enters a terminal `Quarantined` state that stays
//! queryable and is never fatal to the process.
//!
//! * [`supervisor`] — the [`Service`](supervisor::Service) front end:
//!   tenant registry, bounded per-shard queues, load shedding with
//!   speculative α quotes, clean shutdown.
//! * [`shard`] — the per-tenant worker: supervision state machine,
//!   batching and coalescing, request/response types.
//! * [`engine`] — policy-dispatched wrapper over the durable engine.
//! * [`quote`] — the per-machine quote board shards publish after each
//!   batch, and the shed-time α quote computed from it.
//! * [`frame`] — the length-prefixed wire protocol, its text commands,
//!   and the `rid=`/`dl=` envelope tokens of the retry protocol.
//! * [`server`] — stdin / Unix-socket / TCP front ends for the `serve`
//!   CLI subcommand; the socket front ends accept concurrently.
//! * [`client`] — the retrying client: deadline propagation, retry
//!   budget, per-endpoint circuit breaker.
//! * [`chaos`] — the seeded fault-storm harness asserting the bulkhead
//!   and convergence contracts.
//! * [`netchaos`] — the seeded network-chaos proxy and the end-to-end
//!   exactly-once storm over TCP.
//! * [`metrics`] — the `service.*` and `client.*` counter families.

#![warn(missing_docs)]

pub mod chaos;
pub mod client;
pub mod engine;
pub mod frame;
pub mod metrics;
pub mod netchaos;
pub mod quote;
pub mod server;
pub mod shard;
pub mod supervisor;

pub use chaos::{run_storm, ChaosConfig, ChaosReport};
pub use client::{Client, ClientConfig, ClientError, Endpoint, Reply};
pub use engine::{PolicyKind, TenantEngine};
pub use netchaos::{run_net_storm, NetChaosConfig, NetChaosProxy, NetStormConfig, NetStormReport};
pub use quote::QuoteBoard;
pub use server::{serve_once, serve_tcp, serve_unix, ServeReport, ServerConfig};
pub use shard::{
    ErrorKind, Op, Request, Response, ShardState, ShardStatus, StorageFactory, TenantSpec,
};
pub use supervisor::{Service, ServiceConfig, DEFAULT_ALPHA_RUNGS, MAX_WORKERS};
