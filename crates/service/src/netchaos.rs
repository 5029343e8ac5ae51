//! Seeded network-chaos proxy and the end-to-end exactly-once storm.
//!
//! [`NetChaosProxy`] is an in-process TCP proxy that sits between a
//! retrying [`Client`] and the concurrent [`crate::server`] front end
//! and injects the transport faults real networks produce:
//!
//! * **delay** — a frame is held for a seeded few milliseconds;
//! * **duplicate** — a frame is forwarded twice (the server sees the
//!   same request again; the shard's dedup window must absorb it);
//! * **tear** — the length prefix is forwarded but the payload is cut
//!   mid-frame and the connection reset (the server's framing must
//!   fail that connection only, the client must reconnect and retry);
//! * **reset** — the connection is dropped without forwarding;
//! * **drop-reply** — a server reply is swallowed and the connection
//!   reset (the client retries a request the server *already applied*
//!   — the canonical ack-ambiguity case the rid protocol resolves).
//!
//! The proxy is frame-aware (it parses the same length-prefixed framing
//! as the server) so faults land on protocol boundaries deliberately —
//! a torn frame is torn *mid-payload*, a duplicate is a byte-identical
//! full frame. All fault rolls derive from a seed.
//!
//! [`run_net_storm`] wires the whole stack together — TCP server,
//! proxy, one retrying client per tenant — and checks the end-to-end
//! claim of the retry protocol: **every op the client saw acked was
//! applied exactly once**, verified by replaying the acked op stream
//! through a fault-free engine and comparing digests against fault-free
//! recovery of the tenant's journal bytes. Calls that end without a
//! definitive reply leave the tenant *ambiguous* (the op may or may not
//! be durable — see DESIGN.md §15); ambiguous tenants are excluded from
//! the strict digest assert and reported honestly.

use crate::chaos::{journal_replay_digest, op_replay_digest};
use crate::client::{Client, ClientConfig, ClientError, Endpoint, Reply};
use crate::frame::{read_frame, write_frame};
use crate::metrics;
use crate::server::{serve_tcp, ServerConfig};
use crate::shard::Op;
use crate::supervisor::{Service, ServiceConfig};
use hetfeas_model::rng::splitmix64;
use hetfeas_model::{Platform, Task};
use hetfeas_partition::PolicyKind;
use hetfeas_robust::Backoff;
use std::io::{BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Per-frame fault rates (per mille) for the proxy.
#[derive(Debug, Clone, Copy)]
pub struct NetChaosConfig {
    /// Seed for all fault rolls.
    pub seed: u64,
    /// Request frames delayed (‰).
    pub delay_permille: u16,
    /// Request frames duplicated (‰).
    pub dup_permille: u16,
    /// Request frames torn mid-payload, connection reset (‰).
    pub tear_permille: u16,
    /// Connections reset without forwarding the frame (‰).
    pub reset_permille: u16,
    /// Reply frames swallowed, connection reset (‰).
    pub drop_reply_permille: u16,
    /// Ceiling on injected delays (ms).
    pub max_delay_ms: u64,
}

impl Default for NetChaosConfig {
    fn default() -> Self {
        NetChaosConfig {
            seed: 0x11e7,
            delay_permille: 100,
            dup_permille: 80,
            tear_permille: 40,
            reset_permille: 40,
            drop_reply_permille: 40,
            max_delay_ms: 3,
        }
    }
}

/// What the proxy did, summed over all connections.
#[derive(Debug, Default)]
pub struct ProxyStats {
    /// Connections proxied.
    pub conns: AtomicU64,
    /// Request frames forwarded unharmed.
    pub forwarded: AtomicU64,
    /// Request frames delayed.
    pub delayed: AtomicU64,
    /// Request frames duplicated.
    pub duplicated: AtomicU64,
    /// Request frames torn mid-payload.
    pub torn: AtomicU64,
    /// Connections reset before forwarding.
    pub resets: AtomicU64,
    /// Reply frames swallowed.
    pub dropped_replies: AtomicU64,
}

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }
    fn permille(&mut self) -> u16 {
        (self.next() % 1000) as u16
    }
}

/// A frame-aware fault-injecting TCP proxy in front of one upstream
/// server. Drop it (or call [`NetChaosProxy::stop`]) to shut it down.
pub struct NetChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    stats: Arc<ProxyStats>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl NetChaosProxy {
    /// Start proxying `127.0.0.1:<ephemeral>` → `upstream`.
    pub fn start(upstream: SocketAddr, cfg: NetChaosConfig) -> std::io::Result<NetChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let stats = Arc::new(ProxyStats::default());
        let stop_c = Arc::clone(&stop);
        let stats_c = Arc::clone(&stats);
        let accept_thread = std::thread::Builder::new()
            .name("netchaos-accept".to_string())
            .spawn(move || {
                let mut conn_id = 0u64;
                while !stop_c.load(Ordering::SeqCst) {
                    let Ok((client, _)) = listener.accept() else {
                        break;
                    };
                    if stop_c.load(Ordering::SeqCst) {
                        break;
                    }
                    conn_id += 1;
                    stats_c.conns.fetch_add(1, Ordering::Relaxed);
                    let Ok(server) = TcpStream::connect(upstream) else {
                        let _ = client.shutdown(Shutdown::Both);
                        continue;
                    };
                    // Frame-at-a-time forwarding is interactive; Nagle
                    // would add ~40ms per hop.
                    let _ = client.set_nodelay(true);
                    let _ = server.set_nodelay(true);
                    pump_connection(client, server, cfg, conn_id, &stats_c);
                }
            })?;
        Ok(NetChaosProxy {
            addr,
            stop,
            stats,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Fault counters.
    pub fn stats(&self) -> &ProxyStats {
        &self.stats
    }

    /// Stop accepting; in-flight pump threads die with their
    /// connections.
    pub fn stop(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        let _ = TcpStream::connect(self.addr); // wake the accept loop
        if let Some(t) = self.accept_thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for NetChaosProxy {
    fn drop(&mut self) {
        self.stop();
    }
}

/// Spawn the two pump threads (detached — they exit when either side of
/// the connection dies) for one proxied connection.
fn pump_connection(
    client: TcpStream,
    server: TcpStream,
    cfg: NetChaosConfig,
    conn_id: u64,
    stats: &Arc<ProxyStats>,
) {
    let _ = client.set_nodelay(true);
    let _ = server.set_nodelay(true);
    let (Ok(client_r), Ok(server_r)) = (client.try_clone(), server.try_clone()) else {
        return;
    };
    // Independent per-direction streams from one connection seed.
    let c2s_seed = splitmix64(cfg.seed ^ conn_id.wrapping_mul(0x9e3779b97f4a7c15));
    let s2c_seed = splitmix64(c2s_seed ^ 0x5bd1e995);
    {
        let stats = Arc::clone(stats);
        let client_w = client.try_clone();
        let _ = std::thread::Builder::new()
            .name(format!("netchaos-c2s-{conn_id}"))
            .spawn(move || {
                pump_requests(client_r, server, client_w.ok(), Rng(c2s_seed), cfg, &stats);
            });
    }
    let stats = Arc::clone(stats);
    let _ = std::thread::Builder::new()
        .name(format!("netchaos-s2c-{conn_id}"))
        .spawn(move || {
            pump_replies(server_r, client, Rng(s2c_seed), cfg, &stats);
        });
}

/// client → server direction: per-frame rolls for tear / reset /
/// duplicate / delay.
fn pump_requests(
    client_r: TcpStream,
    mut server_w: TcpStream,
    client_w: Option<TcpStream>,
    mut rng: Rng,
    cfg: NetChaosConfig,
    stats: &ProxyStats,
) {
    let mut reader = BufReader::new(client_r);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            // Client EOF or a torn client: half-close toward the server
            // so its reader drains and exits.
            _ => {
                let _ = server_w.shutdown(Shutdown::Write);
                return;
            }
        };
        let roll = rng.permille();
        let tear_at = cfg.tear_permille;
        let reset_at = tear_at + cfg.reset_permille;
        let dup_at = reset_at + cfg.dup_permille;
        let delay_at = dup_at + cfg.delay_permille;
        if roll < tear_at {
            // Forward the prefix and half the payload, then reset both
            // sides — the server sees a frame that can never complete.
            stats.torn.fetch_add(1, Ordering::Relaxed);
            let len = u32::try_from(frame.len()).unwrap_or(u32::MAX);
            let _ = server_w.write_all(&len.to_le_bytes());
            let _ = server_w.write_all(&frame[..frame.len() / 2]);
            let _ = server_w.flush();
            let _ = server_w.shutdown(Shutdown::Both);
            if let Some(cw) = &client_w {
                let _ = cw.shutdown(Shutdown::Both);
            }
            return;
        } else if roll < reset_at {
            stats.resets.fetch_add(1, Ordering::Relaxed);
            let _ = server_w.shutdown(Shutdown::Both);
            if let Some(cw) = &client_w {
                let _ = cw.shutdown(Shutdown::Both);
            }
            return;
        } else if roll < dup_at {
            stats.duplicated.fetch_add(1, Ordering::Relaxed);
            if write_frame(&mut server_w, &frame).is_err()
                || write_frame(&mut server_w, &frame).is_err()
            {
                return;
            }
        } else {
            if roll < delay_at {
                stats.delayed.fetch_add(1, Ordering::Relaxed);
                std::thread::sleep(Duration::from_millis(
                    1 + rng.next() % cfg.max_delay_ms.max(1),
                ));
            } else {
                stats.forwarded.fetch_add(1, Ordering::Relaxed);
            }
            if write_frame(&mut server_w, &frame).is_err() {
                return;
            }
        }
        let _ = server_w.flush();
    }
}

/// server → client direction: per-frame drop-reply roll (swallow the
/// reply and reset, forcing the client to retry an applied op).
fn pump_replies(
    server_r: TcpStream,
    mut client_w: TcpStream,
    mut rng: Rng,
    cfg: NetChaosConfig,
    stats: &ProxyStats,
) {
    let mut reader = BufReader::new(server_r);
    loop {
        let frame = match read_frame(&mut reader) {
            Ok(Some(f)) => f,
            _ => {
                let _ = client_w.shutdown(Shutdown::Write);
                return;
            }
        };
        if rng.permille() < cfg.drop_reply_permille {
            stats.dropped_replies.fetch_add(1, Ordering::Relaxed);
            let _ = client_w.shutdown(Shutdown::Both);
            return;
        }
        if write_frame(&mut client_w, &frame).is_err() || client_w.flush().is_err() {
            return;
        }
    }
}

/// Network storm parameters.
#[derive(Debug, Clone)]
pub struct NetStormConfig {
    /// Master seed (op mixes, platforms, proxy rolls, client jitter).
    pub seed: u64,
    /// Tenant count — one retrying client (and TCP connection) each.
    pub tenants: usize,
    /// Ops issued per tenant (adds and removes).
    pub ops_per_tenant: usize,
    /// Machines per tenant platform.
    pub machines: usize,
    /// Shard-worker concurrency (0 = auto).
    pub workers: usize,
    /// Proxy fault rates.
    pub net: NetChaosConfig,
    /// Journal directory (one `<tenant>.journal` per tenant). The
    /// caller owns its lifetime.
    pub data_dir: PathBuf,
}

impl Default for NetStormConfig {
    fn default() -> Self {
        NetStormConfig {
            seed: 0x4e7,
            tenants: 4,
            ops_per_tenant: 32,
            machines: 3,
            workers: 0,
            net: NetChaosConfig::default(),
            data_dir: std::env::temp_dir().join("hetfeas-netstorm"),
        }
    }
}

/// Per-tenant verdict of a network storm.
#[derive(Debug, Clone)]
pub struct NetTenantOutcome {
    /// Tenant name.
    pub name: String,
    /// Calls issued (excluding `open`).
    pub calls: u64,
    /// Ops acked as applied.
    pub acked_applied: u64,
    /// Definitive non-applied answers (rejections count as applied).
    pub refused: u64,
    /// Retries the client performed.
    pub retries: u64,
    /// Reconnects the client performed.
    pub reconnects: u64,
    /// True when some call ended without a definitive reply, so the
    /// acked op stream is not a complete replay script.
    pub ambiguous: bool,
    /// Digest of fault-free recovery of the journal bytes.
    pub journal_digest: Option<u32>,
    /// Digest of fault-free replay of the acked op stream, in ack order.
    pub op_replay_digest: Option<u32>,
    /// The exactly-once verdict: every acked op is in the journal
    /// exactly once (digests match). `None` for ambiguous tenants.
    pub exactly_once: Option<bool>,
}

/// Aggregate network-storm report.
#[derive(Debug)]
pub struct NetStormReport {
    /// Seed the storm ran under.
    pub seed: u64,
    /// Per-tenant verdicts.
    pub tenants: Vec<NetTenantOutcome>,
    /// Connections the proxy carried.
    pub proxied_conns: u64,
    /// Request frames duplicated by the proxy.
    pub duplicated: u64,
    /// Request frames torn by the proxy.
    pub torn: u64,
    /// Connections reset by the proxy.
    pub resets: u64,
    /// Reply frames swallowed by the proxy.
    pub dropped_replies: u64,
    /// Dedup-window hits on the server (retries absorbed).
    pub dedup_hits: u64,
    /// Tenants excluded from the strict check.
    pub ambiguous_tenants: usize,
    /// The storm verdict: the server survived, every journal recovered,
    /// and every unambiguous tenant was exactly-once.
    pub ok: bool,
}

impl NetStormReport {
    /// Human-readable summary, one line per tenant plus a header.
    pub fn summary_lines(&self) -> Vec<String> {
        let mut out = vec![format!(
            "netchaos seed={:#x} conns={} dup={} torn={} resets={} dropped_replies={} dedup_hits={} ambiguous={} ok={}",
            self.seed,
            self.proxied_conns,
            self.duplicated,
            self.torn,
            self.resets,
            self.dropped_replies,
            self.dedup_hits,
            self.ambiguous_tenants,
            self.ok
        )];
        for t in &self.tenants {
            out.push(format!(
                "  {} calls={} applied={} refused={} retries={} reconnects={} journal={} opreplay={} exactly_once={}",
                t.name,
                t.calls,
                t.acked_applied,
                t.refused,
                t.retries,
                t.reconnects,
                t.journal_digest.map_or("-".to_string(), |d| format!("{d:08x}")),
                t.op_replay_digest.map_or("-".to_string(), |d| format!("{d:08x}")),
                t.exactly_once.map_or("ambiguous".to_string(), |b| b.to_string()),
            ));
        }
        out
    }
}

struct NetTenant {
    name: String,
    platform: Platform,
    calls: u64,
    acked: Vec<Op>,
    refused: u64,
    retries: u64,
    reconnects: u64,
    ambiguous: bool,
}

/// One client's storm against its tenant, through the proxy.
fn client_storm(
    proxy_addr: SocketAddr,
    seed: u64,
    index: usize,
    ops: usize,
    machines: usize,
) -> NetTenant {
    let name = format!("n{index}");
    let mut rng = Rng(splitmix64(seed ^ (0x7e11 + index as u64)));
    let speeds: Vec<u64> = (0..machines.max(1)).map(|_| 1 + rng.next() % 3).collect();
    let platform = Platform::from_int_speeds(speeds.iter().copied()).expect("positive speeds");
    let cfg = ClientConfig {
        deadline_ms: 20_000,
        max_attempts: 16,
        backoff: Backoff::new(1, 32, seed ^ index as u64),
        retry_budget_cap: 1e6,
        retry_refill: 1.0,
        ..ClientConfig::default()
    };
    let mut client = Client::new(Endpoint::Tcp(proxy_addr.to_string()), cfg, index as u64 + 1);
    let mut t = NetTenant {
        name: name.clone(),
        platform,
        calls: 0,
        acked: Vec::new(),
        refused: 0,
        retries: 0,
        reconnects: 0,
        ambiguous: false,
    };
    let speeds_arg = speeds
        .iter()
        .map(|s| s.to_string())
        .collect::<Vec<_>>()
        .join(",");
    // Open the tenant; a lost ack retried into "already open" is
    // success (the create applied).
    match client.call(&format!("open {name} edf 1.0 {speeds_arg}")) {
        Ok(Reply::Ok(_)) => {}
        Ok(Reply::Err { message, .. }) if message.contains("already open") => {}
        _ => {
            t.ambiguous = true;
            return t;
        }
    }
    let mut live: Vec<u64> = Vec::new();
    for _ in 0..ops {
        let (line, op) = if rng.next() % 100 < 70 || live.is_empty() {
            let wcet = 1 + rng.next() % 9;
            let period = 10 + rng.next() % 41;
            let task = Task::implicit(wcet, period).expect("seeded task bounds");
            (format!("add {name} {wcet} {period}"), Op::Add(task))
        } else {
            let id = live[(rng.next() % live.len() as u64) as usize];
            (format!("remove {name} {id}"), Op::Remove(id))
        };
        t.calls += 1;
        match client.call(&line) {
            Ok(Reply::Ok(body)) => {
                // Every `ok` op outcome (admitted, rejected, removed,
                // miss) was journaled — replay all of them.
                t.acked.push(op);
                if let Some(rest) = body.strip_prefix("admitted id=") {
                    if let Some(id) = rest
                        .split_whitespace()
                        .next()
                        .and_then(|s| s.parse::<u64>().ok())
                    {
                        live.push(id);
                    }
                } else if body.starts_with("removed") {
                    if let Op::Remove(id) = op {
                        live.retain(|&x| x != id);
                    }
                }
            }
            Ok(Reply::Err { kind, .. }) => {
                if kind == "deadline" {
                    // The server may still apply it after answering.
                    t.ambiguous = true;
                } else {
                    t.refused += 1;
                }
            }
            Ok(Reply::Shed(_)) => t.refused += 1,
            // A shed after exhausted retries was definitively refused.
            Err(ClientError::RetriesExhausted(ref msg)) if msg == "shed" => t.refused += 1,
            Err(ClientError::BreakerOpen) => t.refused += 1, // never sent
            Err(_) => t.ambiguous = true,
        }
    }
    t.retries = client.sink().counter(metrics::CLIENT_RETRIES);
    t.reconnects = client.sink().counter(metrics::CLIENT_RECONNECTS);
    t
}

/// Run one seeded network storm; see the module docs for the contract.
pub fn run_net_storm(cfg: &NetStormConfig) -> std::io::Result<NetStormReport> {
    std::fs::create_dir_all(&cfg.data_dir)?;
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let server_addr = listener.local_addr()?;
    let service_cfg = ServiceConfig {
        workers: cfg.workers,
        seed: cfg.seed,
        ..ServiceConfig::default()
    };
    let opts = service_cfg.opts;
    let server_cfg = ServerConfig {
        data_dir: cfg.data_dir.clone(),
        max_conns: 256,
        ..ServerConfig::default()
    };
    let svc = Service::new(service_cfg);
    let sink = svc.sink_handle();
    let server = std::thread::Builder::new()
        .name("netchaos-server".to_string())
        .spawn({
            let server_cfg = server_cfg.clone();
            move || serve_tcp(listener, svc, &server_cfg)
        })?;
    let mut proxy = NetChaosProxy::start(server_addr, cfg.net)?;
    let proxy_addr = proxy.addr();

    let mut handles = Vec::with_capacity(cfg.tenants.max(1));
    for i in 0..cfg.tenants.max(1) {
        let seed = cfg.seed;
        let ops = cfg.ops_per_tenant;
        let machines = cfg.machines;
        handles.push(
            std::thread::Builder::new()
                .name(format!("netchaos-client-{i}"))
                .spawn(move || client_storm(proxy_addr, seed, i, ops, machines))?,
        );
    }
    let tenants: Vec<NetTenant> = handles
        .into_iter()
        .map(|h| h.join().expect("client thread panicked"))
        .collect();

    // Drain the server through a direct (chaos-free) connection.
    {
        let mut conn = TcpStream::connect(server_addr)?;
        write_frame(&mut conn, b"quit")?;
        let _ = conn.flush();
        let mut reader = BufReader::new(conn.try_clone()?);
        let _ = read_frame(&mut reader);
    }
    let report = server
        .join()
        .expect("server thread panicked")
        .expect("serve_tcp failed");
    proxy.stop();
    debug_assert!(report.frames > 0, "the storm must have reached the server");
    let dedup_hits = sink.counter(metrics::SERVICE_DEDUP_HITS);

    let mut outcomes = Vec::with_capacity(tenants.len());
    let mut ambiguous_tenants = 0usize;
    let mut ok = true;
    for t in tenants {
        let bytes =
            std::fs::read(cfg.data_dir.join(format!("{}.journal", t.name))).unwrap_or_default();
        let journal_digest = journal_replay_digest(PolicyKind::Edf, bytes);
        let op_digest = op_replay_digest(PolicyKind::Edf, &t.platform, opts, &t.acked);
        let exactly_once = if t.ambiguous {
            ambiguous_tenants += 1;
            None
        } else {
            let verdict = journal_digest.is_some() && op_digest == journal_digest;
            ok &= verdict;
            Some(verdict)
        };
        if journal_digest.is_none() && !t.ambiguous && t.calls > 0 {
            ok = false;
        }
        outcomes.push(NetTenantOutcome {
            name: t.name,
            calls: t.calls,
            acked_applied: t.acked.len() as u64,
            refused: t.refused,
            retries: t.retries,
            reconnects: t.reconnects,
            ambiguous: t.ambiguous,
            journal_digest,
            op_replay_digest: op_digest,
            exactly_once,
        });
    }
    // A storm where every tenant is ambiguous verified nothing.
    if ambiguous_tenants == outcomes.len() && !outcomes.is_empty() {
        ok = false;
    }
    let stats = proxy.stats();
    Ok(NetStormReport {
        seed: cfg.seed,
        tenants: outcomes,
        proxied_conns: stats.conns.load(Ordering::Relaxed),
        duplicated: stats.duplicated.load(Ordering::Relaxed),
        torn: stats.torn.load(Ordering::Relaxed),
        resets: stats.resets.load(Ordering::Relaxed),
        dropped_replies: stats.dropped_replies.load(Ordering::Relaxed),
        dedup_hits,
        ambiguous_tenants,
        ok,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("hetfeas-netchaos-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir
    }

    #[test]
    fn transparent_proxy_round_trips() {
        // All rates zero: the proxy must be a faithful pipe.
        let dir = temp_dir("pipe");
        let cfg = NetStormConfig {
            seed: 1,
            tenants: 2,
            ops_per_tenant: 12,
            machines: 2,
            workers: 2,
            net: NetChaosConfig {
                seed: 1,
                delay_permille: 0,
                dup_permille: 0,
                tear_permille: 0,
                reset_permille: 0,
                drop_reply_permille: 0,
                max_delay_ms: 0,
            },
            data_dir: dir.clone(),
        };
        let report = run_net_storm(&cfg).expect("storm runs");
        for line in report.summary_lines() {
            eprintln!("{line}");
        }
        assert!(report.ok, "fault-free proxy must converge");
        assert_eq!(report.ambiguous_tenants, 0);
        for t in &report.tenants {
            assert_eq!(t.exactly_once, Some(true), "{}", t.name);
            assert_eq!(t.retries, 0, "{} retried without faults", t.name);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn storm_under_network_chaos_is_exactly_once() {
        let dir = temp_dir("storm");
        let cfg = NetStormConfig {
            seed: 0xBEEF,
            tenants: 4,
            ops_per_tenant: 24,
            machines: 2,
            workers: 2,
            net: NetChaosConfig {
                seed: 0xBEEF,
                ..NetChaosConfig::default()
            },
            data_dir: dir.clone(),
        };
        let report = run_net_storm(&cfg).expect("storm runs");
        for line in report.summary_lines() {
            eprintln!("{line}");
        }
        assert!(report.ok, "every unambiguous tenant must be exactly-once");
        // The proxy must actually have injected faults for the verdict
        // to mean anything.
        assert!(
            report.torn + report.resets + report.dropped_replies >= 1,
            "no connection faults injected"
        );
        assert!(report.duplicated >= 1, "no duplicates injected");
        let strict = report
            .tenants
            .iter()
            .filter(|t| t.exactly_once == Some(true))
            .count();
        assert!(strict >= 1, "at least one tenant must be strictly verified");
        let retries: u64 = report.tenants.iter().map(|t| t.retries).sum();
        assert!(retries >= 1, "chaos must force at least one retry");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
