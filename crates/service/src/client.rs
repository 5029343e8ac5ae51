//! A retrying service client with deadline propagation, a retry
//! budget, and a per-endpoint circuit breaker.
//!
//! The client speaks the framed wire protocol of [`crate::server`] over
//! TCP or a Unix socket and layers the retry discipline a fault-tolerant
//! front end needs:
//!
//! * **Idempotency tokens** — every call gets a fresh `rid=<u64>`;
//!   retries reuse it, and the shard's dedup window turns at-least-once
//!   delivery into exactly-once application. Replies are matched by the
//!   echoed rid, so duplicated or reordered frames (a chaos proxy can
//!   inject both) never confuse the pairing.
//! * **Deadline propagation** — each call runs under one total budget
//!   ([`ClientConfig::deadline_ms`]). The *remaining* budget rides the
//!   wire as `dl=<ms>`, bounds every connect/read timeout, and caps
//!   every backoff sleep, so a call can never outlive its deadline no
//!   matter how many retries it makes.
//! * **Capped-jitter retries** — transport errors and `shed` replies
//!   retry on the workspace [`Backoff`] schedule (deterministic seeded
//!   jitter, same as shard restarts).
//! * **Retry budget** — a token bucket refilled by successes. When the
//!   whole endpoint is struggling, retries draw the bucket down and are
//!   denied once it empties, so retry traffic cannot amplify an
//!   overload (the classic retry-storm failure mode).
//! * **Circuit breaker** — consecutive transport-level failures open
//!   the breaker; calls then fail fast (`BreakerOpen`) for a cooldown,
//!   after which a single half-open probe either closes it or re-opens
//!   it. Server-answered errors (usage, quarantined) are *not* breaker
//!   failures — the endpoint answered.
//!
//! All decisions are observable through `client.*` counters on the
//! client's [`MemorySink`].

use crate::frame::{read_frame, write_frame};
use crate::metrics;
use hetfeas_obs::{MemorySink, MetricsSink};
use hetfeas_robust::Backoff;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Where the server lives.
#[derive(Debug, Clone)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix socket path.
    Unix(PathBuf),
}

/// Circuit-breaker thresholds.
#[derive(Debug, Clone, Copy)]
pub struct BreakerConfig {
    /// Consecutive transport failures that open the breaker.
    pub failures_to_open: u32,
    /// How long an open breaker rejects calls before allowing one
    /// half-open probe (ms).
    pub cooldown_ms: u64,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        BreakerConfig {
            failures_to_open: 5,
            cooldown_ms: 1_000,
        }
    }
}

/// Client knobs.
#[derive(Debug, Clone)]
pub struct ClientConfig {
    /// Total per-call budget (ms); connect, send, reply waits and
    /// backoff sleeps all draw from it.
    pub deadline_ms: u64,
    /// Attempts per call (1 = no retries).
    pub max_attempts: u32,
    /// Backoff schedule between attempts.
    pub backoff: Backoff,
    /// Retry-budget bucket capacity (tokens; one retry costs one).
    pub retry_budget_cap: f64,
    /// Tokens refunded per successful call (≤ cap).
    pub retry_refill: f64,
    /// Circuit-breaker thresholds.
    pub breaker: BreakerConfig,
}

impl Default for ClientConfig {
    fn default() -> Self {
        ClientConfig {
            deadline_ms: 10_000,
            max_attempts: 8,
            backoff: Backoff::new(2, 256, 0xc11e),
            retry_budget_cap: 16.0,
            retry_refill: 0.5,
            breaker: BreakerConfig::default(),
        }
    }
}

/// A parsed server reply (the seq prefix and rid echo stripped).
#[derive(Debug, Clone, PartialEq)]
pub enum Reply {
    /// `ok ...` — the rest of the line.
    Ok(String),
    /// `shed alpha=...` — load-shed, with the α quote when present.
    Shed(Option<f64>),
    /// `err <kind>: <message>` — the server answered with an error.
    Err {
        /// Error kind token (`usage`, `quarantined`, `io`, ...).
        kind: String,
        /// Human-readable detail.
        message: String,
    },
}

/// Why a call failed without a definitive server answer.
#[derive(Debug, Clone, PartialEq)]
pub enum ClientError {
    /// The breaker is open; the call was rejected without touching the
    /// network.
    BreakerOpen,
    /// The per-call deadline expired before a definitive reply.
    DeadlineExceeded,
    /// Retries were denied by the retry budget.
    RetryBudgetExhausted,
    /// Attempts exhausted; the last transport error is attached.
    RetriesExhausted(String),
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::BreakerOpen => write!(f, "circuit breaker open"),
            ClientError::DeadlineExceeded => write!(f, "deadline exceeded"),
            ClientError::RetryBudgetExhausted => write!(f, "retry budget exhausted"),
            ClientError::RetriesExhausted(last) => write!(f, "retries exhausted: {last}"),
        }
    }
}

enum BreakerState {
    Closed { consecutive_failures: u32 },
    Open { since: Instant },
    HalfOpen,
}

enum Conn {
    Tcp(TcpStream, BufReader<TcpStream>),
    Unix(UnixStream, BufReader<UnixStream>),
}

impl Conn {
    fn set_read_timeout(&self, d: Duration) -> io::Result<()> {
        match self {
            Conn::Tcp(w, _) => w.set_read_timeout(Some(d)),
            Conn::Unix(w, _) => w.set_read_timeout(Some(d)),
        }
    }

    fn send(&mut self, payload: &[u8]) -> io::Result<()> {
        match self {
            Conn::Tcp(w, _) => {
                write_frame(w, payload)?;
                w.flush()
            }
            Conn::Unix(w, _) => {
                write_frame(w, payload)?;
                w.flush()
            }
        }
    }

    fn recv(&mut self) -> io::Result<Option<Vec<u8>>> {
        match self {
            Conn::Tcp(_, r) => read_frame(r),
            Conn::Unix(_, r) => read_frame(r),
        }
    }
}

/// A framed protocol client for one endpoint. Not thread-safe — one
/// client per connection-owning thread (the storm harness runs one per
/// tenant).
pub struct Client {
    endpoint: Endpoint,
    cfg: ClientConfig,
    conn: Option<Conn>,
    breaker: BreakerState,
    retry_tokens: f64,
    next_rid: u64,
    sink: Arc<MemorySink>,
}

impl Client {
    /// A client for `endpoint`. `rid_seed` namespaces this client's
    /// request ids so concurrent clients of one tenant never collide in
    /// the shard's dedup window.
    pub fn new(endpoint: Endpoint, cfg: ClientConfig, rid_seed: u64) -> Client {
        let retry_tokens = cfg.retry_budget_cap;
        Client {
            endpoint,
            cfg,
            conn: None,
            breaker: BreakerState::Closed {
                consecutive_failures: 0,
            },
            retry_tokens,
            // Top 16 bits namespace the client, leaving a 48-bit call
            // counter.
            next_rid: (rid_seed & 0xffff) << 48,
            sink: Arc::new(MemorySink::new()),
        }
    }

    /// The `client.*` counter sink.
    pub fn sink(&self) -> &MemorySink {
        &self.sink
    }

    /// A handle to the sink that outlives the client.
    pub fn sink_handle(&self) -> Arc<MemorySink> {
        Arc::clone(&self.sink)
    }

    fn connect(&mut self, remaining: Duration) -> io::Result<Conn> {
        match &self.endpoint {
            Endpoint::Tcp(addr) => {
                use std::net::ToSocketAddrs;
                let sockaddr = addr
                    .to_socket_addrs()?
                    .next()
                    .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "no address"))?;
                let stream =
                    TcpStream::connect_timeout(&sockaddr, remaining.max(Duration::from_millis(1)))?;
                stream.set_nodelay(true)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Conn::Tcp(stream, reader))
            }
            Endpoint::Unix(path) => {
                let stream = UnixStream::connect(path)?;
                let reader = BufReader::new(stream.try_clone()?);
                Ok(Conn::Unix(stream, reader))
            }
        }
    }

    fn breaker_failure(&mut self) {
        match self.breaker {
            BreakerState::Closed {
                consecutive_failures,
            } => {
                let n = consecutive_failures + 1;
                if n >= self.cfg.breaker.failures_to_open {
                    self.sink.counter_add(metrics::CLIENT_BREAKER_OPENS, 1);
                    self.breaker = BreakerState::Open {
                        since: Instant::now(),
                    };
                } else {
                    self.breaker = BreakerState::Closed {
                        consecutive_failures: n,
                    };
                }
            }
            BreakerState::HalfOpen => {
                // The probe failed: straight back to Open.
                self.sink.counter_add(metrics::CLIENT_BREAKER_OPENS, 1);
                self.breaker = BreakerState::Open {
                    since: Instant::now(),
                };
            }
            BreakerState::Open { .. } => {}
        }
    }

    fn breaker_success(&mut self) {
        self.breaker = BreakerState::Closed {
            consecutive_failures: 0,
        };
        self.retry_tokens =
            (self.retry_tokens + self.cfg.retry_refill).min(self.cfg.retry_budget_cap);
    }

    /// True when the breaker currently rejects calls.
    pub fn breaker_open(&self) -> bool {
        matches!(self.breaker, BreakerState::Open { .. })
    }

    /// Issue one command line (no envelope tokens — the client appends
    /// its own `rid=`/`dl=`) and return the server's definitive reply.
    ///
    /// Transport errors and `shed` replies retry with the same rid under
    /// the call's deadline, attempt cap, and retry budget; server-
    /// answered `ok`/`err` replies return immediately. `Err(_)` means no
    /// definitive answer — for mutating commands the op may or may not
    /// have been applied (ack ambiguity; see DESIGN.md §15), and a
    /// *later* call reusing the same client cannot resolve it because
    /// the rid is not reused across [`Client::call`] invocations.
    pub fn call(&mut self, line: &str) -> Result<Reply, ClientError> {
        self.sink.counter_add(metrics::CLIENT_CALLS, 1);
        // Breaker gate.
        if let BreakerState::Open { since } = self.breaker {
            if since.elapsed() < Duration::from_millis(self.cfg.breaker.cooldown_ms) {
                self.sink.counter_add(metrics::CLIENT_BREAKER_REJECTS, 1);
                return Err(ClientError::BreakerOpen);
            }
            self.breaker = BreakerState::HalfOpen;
        }
        let deadline = Instant::now() + Duration::from_millis(self.cfg.deadline_ms.max(1));
        let rid = self.next_rid;
        self.next_rid += 1;
        let mut last_err = String::new();
        for attempt in 0..self.cfg.max_attempts.max(1) {
            let Some(remaining) = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
            else {
                self.sink.counter_add(metrics::CLIENT_DEADLINE_EXCEEDED, 1);
                self.breaker_failure();
                return Err(ClientError::DeadlineExceeded);
            };
            if attempt > 0 {
                // Pay for the retry and sleep the jittered delay, both
                // bounded by what's left of the deadline.
                if self.retry_tokens < 1.0 {
                    self.sink.counter_add(metrics::CLIENT_BUDGET_DENIED, 1);
                    return Err(ClientError::RetryBudgetExhausted);
                }
                self.retry_tokens -= 1.0;
                self.sink.counter_add(metrics::CLIENT_RETRIES, 1);
                let budget_ms = u64::try_from(remaining.as_millis()).unwrap_or(u64::MAX);
                match self
                    .cfg
                    .backoff
                    .delay_within_ms(attempt - 1, budget_ms.saturating_sub(1))
                {
                    Some(ms) => std::thread::sleep(Duration::from_millis(ms)),
                    None => {
                        self.sink.counter_add(metrics::CLIENT_DEADLINE_EXCEEDED, 1);
                        self.breaker_failure();
                        return Err(ClientError::DeadlineExceeded);
                    }
                }
            }
            match self.attempt(line, rid, deadline) {
                Ok(reply) => {
                    match &reply {
                        Reply::Shed(_) => {
                            // The server answered, so the endpoint is
                            // alive (no breaker failure) — but the op
                            // didn't run; retry under the same budget.
                            last_err = "shed".to_string();
                            continue;
                        }
                        Reply::Ok(_) | Reply::Err { .. } => {
                            self.breaker_success();
                            return Ok(reply);
                        }
                    }
                }
                Err(e) => {
                    // Transport-level failure: tear the connection down
                    // and (maybe) retry.
                    self.conn = None;
                    self.breaker_failure();
                    if self.breaker_open() {
                        // Opened mid-call (or a failed half-open
                        // probe): stop burning the budget.
                        return Err(ClientError::RetriesExhausted(e.to_string()));
                    }
                    last_err = e.to_string();
                }
            }
        }
        Err(ClientError::RetriesExhausted(last_err))
    }

    /// One wire attempt: (re)connect, send `line rid=N dl=R`, and read
    /// frames until the reply echoing our rid arrives.
    fn attempt(&mut self, line: &str, rid: u64, deadline: Instant) -> io::Result<Reply> {
        let remaining = deadline
            .checked_duration_since(Instant::now())
            .filter(|d| !d.is_zero())
            .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded"))?;
        if self.conn.is_none() {
            if self.sink.counter(metrics::CLIENT_CALLS) > 1 {
                self.sink.counter_add(metrics::CLIENT_RECONNECTS, 1);
            }
            self.conn = Some(self.connect(remaining)?);
        }
        let conn = self.conn.as_mut().expect("connected above");
        let dl_ms = u64::try_from(remaining.as_millis())
            .unwrap_or(u64::MAX)
            .max(1);
        let payload = format!("{line} rid={rid} dl={dl_ms}");
        conn.send(payload.as_bytes())?;
        let marker = format!(" rid={rid}");
        loop {
            let remaining = deadline
                .checked_duration_since(Instant::now())
                .filter(|d| !d.is_zero())
                .ok_or_else(|| io::Error::new(io::ErrorKind::TimedOut, "deadline exceeded"))?;
            conn.set_read_timeout(remaining)?;
            let frame = conn
                .recv()?
                .ok_or_else(|| io::Error::new(io::ErrorKind::UnexpectedEof, "connection closed"))?;
            let text = String::from_utf8_lossy(&frame).into_owned();
            // Replies for other rids (a proxy-duplicated frame of an
            // earlier call, another interleaved request) are skipped.
            if let Some(stripped) = text.strip_suffix(&marker) {
                return parse_reply(stripped);
            }
            if text.ends_with(&marker) {
                return parse_reply(&text);
            }
        }
    }
}

/// Parse `"<seq> ok ..."` / `"<seq> shed alpha=..."` / `"<seq> err
/// kind: msg"` (rid echo already stripped).
fn parse_reply(line: &str) -> io::Result<Reply> {
    let rest = line
        .split_once(' ')
        .map(|(_seq, rest)| rest)
        .unwrap_or(line);
    if let Some(ok) = rest.strip_prefix("ok ") {
        return Ok(Reply::Ok(ok.to_string()));
    }
    if let Some(shed) = rest.strip_prefix("shed ") {
        let alpha = shed
            .strip_prefix("alpha=")
            .and_then(|a| a.parse::<f64>().ok());
        return Ok(Reply::Shed(alpha));
    }
    if let Some(err) = rest.strip_prefix("err ") {
        let (kind, message) = err.split_once(": ").unwrap_or((err, ""));
        return Ok(Reply::Err {
            kind: kind.to_string(),
            message: message.to_string(),
        });
    }
    Err(io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unparseable reply: {line}"),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::{serve_tcp, ServerConfig};
    use crate::supervisor::{Service, ServiceConfig};
    use std::net::TcpListener;

    fn spawn_server() -> (std::net::SocketAddr, std::thread::JoinHandle<()>) {
        static NEXT: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let dir = std::env::temp_dir().join(format!(
            "hetfeas-client-test-{}-{}",
            std::process::id(),
            NEXT.fetch_add(1, std::sync::atomic::Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&dir).expect("data dir");
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let cfg = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        let handle = std::thread::spawn(move || {
            let _ = serve_tcp(listener, Service::new(ServiceConfig::default()), &cfg);
            let _ = std::fs::remove_dir_all(&dir);
        });
        (addr, handle)
    }

    #[test]
    fn call_round_trip_and_reply_parsing() {
        let (addr, server) = spawn_server();
        let mut client = Client::new(Endpoint::Tcp(addr.to_string()), ClientConfig::default(), 7);
        let opened = client.call("open t edf 1.0 1,2").expect("open");
        assert!(
            matches!(opened, Reply::Ok(ref s) if s.starts_with("opened")),
            "{opened:?}"
        );
        let admitted = client.call("add t 3 10").expect("add");
        assert!(
            matches!(admitted, Reply::Ok(ref s) if s.starts_with("admitted")),
            "{admitted:?}"
        );
        let err = client
            .call("add missing 1 10")
            .expect("unknown tenant answers");
        assert!(
            matches!(err, Reply::Err { ref kind, .. } if kind == "unknown-tenant"),
            "{err:?}"
        );
        assert_eq!(client.sink().counter(metrics::CLIENT_CALLS), 3);
        assert_eq!(client.sink().counter(metrics::CLIENT_RETRIES), 0);
        let bye = client.call("quit").expect("quit");
        assert!(matches!(bye, Reply::Ok(ref s) if s == "bye"), "{bye:?}");
        server.join().expect("server exits");
    }

    #[test]
    fn breaker_opens_fails_fast_and_half_open_recovers() {
        // No server at all: every attempt is a transport failure.
        let cfg = ClientConfig {
            deadline_ms: 500,
            max_attempts: 2,
            breaker: BreakerConfig {
                failures_to_open: 3,
                cooldown_ms: 50,
            },
            ..ClientConfig::default()
        };
        let mut client = Client::new(Endpoint::Tcp("127.0.0.1:1".to_string()), cfg, 1);
        let mut opened = false;
        for _ in 0..4 {
            match client.call("digest t") {
                Err(ClientError::BreakerOpen) => {
                    opened = true;
                    break;
                }
                Err(_) => {
                    if client.breaker_open() {
                        opened = true;
                        break;
                    }
                }
                Ok(r) => panic!("no server, got {r:?}"),
            }
        }
        assert!(opened || client.breaker_open(), "breaker must open");
        // Open: instant rejection without touching the dead endpoint.
        let start = Instant::now();
        assert_eq!(client.call("digest t"), Err(ClientError::BreakerOpen));
        assert!(start.elapsed() < Duration::from_millis(40), "fast fail");
        assert!(client.sink().counter(metrics::CLIENT_BREAKER_REJECTS) >= 1);
        // After the cooldown a real server appears; the half-open probe
        // closes the breaker and calls flow again.
        std::thread::sleep(Duration::from_millis(60));
        let (addr, server) = spawn_server();
        client.endpoint = Endpoint::Tcp(addr.to_string());
        let reply = client.call("open t edf 1.0 1").expect("probe succeeds");
        assert!(matches!(reply, Reply::Ok(_)));
        assert!(!client.breaker_open());
        client.call("quit").expect("quit");
        server.join().expect("server exits");
    }

    #[test]
    fn retry_budget_denies_runaway_retries() {
        let mut cfg = ClientConfig {
            deadline_ms: 10_000,
            max_attempts: 100,
            retry_budget_cap: 3.0,
            retry_refill: 0.0,
            ..ClientConfig::default()
        };
        cfg.breaker.failures_to_open = u32::MAX; // isolate the budget
        let mut client = Client::new(Endpoint::Tcp("127.0.0.1:1".to_string()), cfg, 2);
        assert_eq!(
            client.call("digest t"),
            Err(ClientError::RetryBudgetExhausted)
        );
        assert_eq!(client.sink().counter(metrics::CLIENT_RETRIES), 3);
        assert_eq!(client.sink().counter(metrics::CLIENT_BUDGET_DENIED), 1);
    }

    #[test]
    fn deadline_bounds_the_whole_call() {
        let mut cfg = ClientConfig {
            deadline_ms: 120,
            max_attempts: 1_000,
            ..ClientConfig::default()
        };
        cfg.breaker.failures_to_open = u32::MAX;
        let mut client = Client::new(Endpoint::Tcp("127.0.0.1:1".to_string()), cfg, 3);
        let start = Instant::now();
        let err = client.call("digest t").expect_err("no server");
        assert!(
            matches!(
                err,
                ClientError::DeadlineExceeded | ClientError::RetriesExhausted(_)
            ),
            "{err:?}"
        );
        assert!(
            start.elapsed() < Duration::from_millis(2_000),
            "call must end near its 120 ms deadline, took {:?}",
            start.elapsed()
        );
    }
}
