//! The server front end: framed command streams (stdin, a Unix socket,
//! or TCP) translated into [`Service`] requests.
//!
//! The socket front ends accept **concurrently**: every connection gets
//! its own reader thread with its own sequence space and reorder
//! buffer, all multiplexing onto the shared shard set. Per-connection
//! fault isolation is preserved — a torn frame or IO error kills that
//! connection only, never the server. A bounded global in-flight
//! connection cap sheds excess connections at accept time with a single
//! `err busy` reply, so a connection storm cannot exhaust threads.
//!
//! Within one connection the loop is single-threaded on purpose —
//! shards supply the parallelism. Each incoming frame gets the next
//! connection-local sequence number and is dispatched without blocking
//! (`Service::submit` sheds instead of waiting); replies arrive
//! asynchronously on one channel and a reorder buffer emits them
//! strictly in submission order, so a scripted client can pair request
//! *k* with response line *k* even though eight shards answered out of
//! order.
//!
//! Shutdown is a graceful drain: `quit` (from any connection) stops the
//! accept loop, half-closes every live connection's read side so its
//! reader sees EOF, waits for in-flight replies bounded by each
//! request's deadline budget, joins the connection threads, and only
//! then drains the shards for the final report.
//!
//! Reply waits are deadline-driven: a request carrying a `dl=<ms>`
//! envelope token is answered `err deadline` once its budget expires
//! (the connection stays up); requests without one fall back to
//! [`ServerConfig::reply_wait_ms`], which also caps client-supplied
//! budgets. There is no unconditional 60 s backstop anymore — a
//! short-deadline request cannot be held hostage by a stalled shard.

use crate::frame::{parse_request, read_frame, scavenge_rid, write_frame, Command};
use crate::metrics;
use crate::shard::{Op, Request, Response, ShardStatus, StorageFactory, TenantSpec};
use crate::supervisor::Service;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_obs::MetricsSink;
use hetfeas_robust::journal::{FileStorage, Storage};
use std::collections::{BTreeMap, HashMap};
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError};
use std::sync::{Arc, Mutex, RwLock};
use std::time::{Duration, Instant};

/// Server-level knobs (the service knobs live in
/// [`crate::supervisor::ServiceConfig`]).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Directory holding one `<tenant>.journal` per tenant.
    pub data_dir: PathBuf,
    /// Line-oriented instead of length-prefixed framing (debugging).
    pub text: bool,
    /// Cap on client-requested stall durations (chaos aid), ms.
    pub stall_cap_ms: u64,
    /// Default *and maximum* per-request reply wait (ms). A request's
    /// `dl=<ms>` token is clamped to this; requests without one use it
    /// outright.
    pub reply_wait_ms: u64,
    /// Global cap on concurrently served connections; excess
    /// connections are shed at accept with one `err busy` reply.
    pub max_conns: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            data_dir: PathBuf::from("."),
            text: false,
            stall_cap_ms: 1_000,
            reply_wait_ms: 60_000,
            max_conns: 64,
        }
    }
}

/// What one `serve` session did (feeds the CLI's JSON report).
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Frames read (including malformed ones), summed over connections.
    pub frames: u64,
    /// Responses written, summed over connections.
    pub responses: u64,
    /// Connections accepted and served.
    pub conns: u64,
    /// Connections shed at accept (connection cap reached).
    pub conns_shed: u64,
    /// Whether the session ended with `quit` (vs EOF).
    pub quit: bool,
    /// Final per-tenant statuses.
    pub tenants: Vec<(String, ShardStatus)>,
}

fn render(seq: u64, resp: &Response, rid: Option<u64>) -> String {
    let mut line = match resp {
        Response::Admitted { id, machine } => {
            format!("{seq} ok admitted id={id} machine={machine}")
        }
        Response::Rejected => format!("{seq} ok rejected"),
        Response::Removed { found: true } => format!("{seq} ok removed"),
        Response::Removed { found: false } => format!("{seq} ok miss"),
        Response::Machine(Some(m)) => format!("{seq} ok machine={m}"),
        Response::Machine(None) => format!("{seq} ok miss"),
        Response::Done => format!("{seq} ok done"),
        Response::NoSnapshot => format!("{seq} ok no-snapshot"),
        Response::RepackInfeasible => format!("{seq} ok repack-infeasible"),
        Response::Digest {
            digest,
            state,
            live,
        } => format!(
            "{seq} ok digest={digest:08x} state={} live={live}",
            state.as_str()
        ),
        Response::Shed { alpha: Some(a) } => format!("{seq} shed alpha={a:.2}"),
        Response::Shed { alpha: None } => format!("{seq} shed alpha=none"),
        Response::Quarantined { reason } => format!("{seq} err quarantined: {reason}"),
        Response::Error { kind, message } => format!("{seq} err {}: {message}", kind.as_str()),
        Response::Shutdown => format!("{seq} ok bye"),
    };
    if let Some(rid) = rid {
        line.push_str(&format!(" rid={rid}"));
    }
    line
}

/// `[A-Za-z0-9_-]{1,64}` — tenant names become journal file names.
fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b == b'_' || b == b'-')
}

fn file_factory(path: PathBuf) -> StorageFactory {
    Arc::new(move |_incarnation| Box::new(FileStorage::new(&path)) as Box<dyn Storage>)
}

fn to_request(cmd: &Command, stall_cap_ms: u64) -> Result<(String, Request), String> {
    Ok(match cmd {
        Command::Add {
            tenant,
            wcet,
            period,
            deadline,
        } => {
            let task = match deadline {
                Some(d) => Task::constrained(*wcet, *period, *d),
                None => Task::implicit(*wcet, *period),
            }
            .map_err(|e| format!("bad task: {e:?}"))?;
            (tenant.clone(), Request::Op(Op::Add(task)))
        }
        Command::Remove { tenant, id } => (tenant.clone(), Request::Op(Op::Remove(*id))),
        Command::Query { tenant, id } => (tenant.clone(), Request::Query(*id)),
        Command::Snapshot { tenant } => (tenant.clone(), Request::Op(Op::Snapshot)),
        Command::Rollback { tenant } => (tenant.clone(), Request::Op(Op::Rollback)),
        Command::Repack { tenant } => (tenant.clone(), Request::Op(Op::Repack)),
        Command::Compact { tenant } => (tenant.clone(), Request::Op(Op::Compact)),
        Command::Digest { tenant } => (tenant.clone(), Request::Digest),
        Command::Panic { tenant } => (tenant.clone(), Request::InjectPanic),
        Command::Stall { tenant, ms } => (tenant.clone(), Request::Stall((*ms).min(stall_cap_ms))),
        Command::Open { .. } | Command::Stats | Command::Quit => {
            unreachable!("handled by the serve loop")
        }
    })
}

fn stats_line(seq: u64, svc: &Service) -> String {
    let sink = svc.sink();
    let keys = [
        crate::metrics::SERVICE_OPS,
        crate::metrics::SERVICE_SHED,
        crate::metrics::SERVICE_QUOTES,
        crate::metrics::SERVICE_BATCHES,
        crate::metrics::SERVICE_COALESCED,
        crate::metrics::SERVICE_RESTARTS,
        crate::metrics::SERVICE_QUARANTINES,
        crate::metrics::SERVICE_OP_ERRORS,
        crate::metrics::SERVICE_DEDUP_HITS,
        crate::metrics::SERVICE_CONNS,
        crate::metrics::SERVICE_CONN_SHED,
        crate::metrics::SERVICE_DEADLINE_MISSES,
        hetfeas_robust::metrics::JOURNAL_APPENDS,
        hetfeas_robust::metrics::JOURNAL_SYNCS,
    ];
    let mut line = format!("{seq} ok stats workers={}", svc.workers());
    for key in keys {
        line.push_str(&format!(" {}={}", key, sink.counter(key)));
    }
    line
}

fn open_tenant_line(seq: u64, svc: &mut Service, cfg: &ServerConfig, cmd: &Command) -> String {
    let Command::Open {
        tenant,
        policy,
        alpha,
        speeds,
    } = cmd
    else {
        unreachable!("caller matched Open");
    };
    if !valid_tenant_name(tenant) {
        return format!("{seq} err usage: bad tenant name '{tenant}'");
    }
    let platform = match Platform::from_int_speeds(speeds.iter().copied()) {
        Ok(p) => p,
        Err(e) => return format!("{seq} err usage: bad platform: {e:?}"),
    };
    let alpha = match Augmentation::new(*alpha) {
        Ok(a) => a,
        Err(e) => return format!("{seq} err usage: bad alpha: {e:?}"),
    };
    let spec = TenantSpec {
        name: tenant.clone(),
        policy: *policy,
        platform,
        alpha,
        factory: file_factory(cfg.data_dir.join(format!("{tenant}.journal"))),
        op_gas: None,
        recover_gas: None,
    };
    match svc.open_tenant(spec) {
        Ok(()) => format!(
            "{seq} ok opened policy={} alpha={:.2}",
            policy.key(),
            alpha.factor()
        ),
        Err(e) => format!("{seq} err usage: {e}"),
    }
}

/// State shared by every connection thread of one serve session.
struct Shared {
    /// `None` once shutdown has consumed the service.
    svc: RwLock<Option<Service>>,
    cfg: ServerConfig,
    quit: AtomicBool,
    frames: AtomicU64,
    responses: AtomicU64,
    active: AtomicUsize,
}

impl Shared {
    fn new(svc: Service, cfg: &ServerConfig) -> Shared {
        Shared {
            svc: RwLock::new(Some(svc)),
            cfg: cfg.clone(),
            quit: AtomicBool::new(false),
            frames: AtomicU64::new(0),
            responses: AtomicU64::new(0),
            active: AtomicUsize::new(0),
        }
    }

    fn with_svc<T>(&self, f: impl FnOnce(&Service) -> T) -> Option<T> {
        self.svc
            .read()
            .expect("service lock poisoned")
            .as_ref()
            .map(f)
    }

    fn with_svc_mut<T>(&self, f: impl FnOnce(&mut Service) -> T) -> Option<T> {
        self.svc
            .write()
            .expect("service lock poisoned")
            .as_mut()
            .map(f)
    }
}

/// In-flight reply state for one connection, shared between the frame
/// reader and the reply pump thread. Lines are emitted strictly in seq
/// order; the first writer error latches and silences further output.
struct Flight<W: Write> {
    ready: BTreeMap<u64, String>,
    next_emit: u64,
    /// seq → (reply deadline, rid) for every in-flight shard request.
    outstanding: BTreeMap<u64, (Instant, Option<u64>)>,
    writer: io::BufWriter<W>,
    io_error: Option<io::Error>,
}

impl<W: Write> Flight<W> {
    /// Flush every contiguously-ready line in seq order.
    fn emit(&mut self, shared: &Shared) {
        if self.io_error.is_some() {
            return;
        }
        let mut wrote = false;
        while let Some(line) = self.ready.remove(&self.next_emit) {
            let res = if shared.cfg.text {
                self.writer
                    .write_all(line.as_bytes())
                    .and_then(|()| self.writer.write_all(b"\n"))
            } else {
                write_frame(&mut self.writer, line.as_bytes())
            };
            if let Err(e) = res {
                self.io_error = Some(e);
                return;
            }
            shared.responses.fetch_add(1, Ordering::Relaxed);
            self.next_emit += 1;
            wrote = true;
        }
        if wrote {
            if let Err(e) = self.writer.flush() {
                self.io_error = Some(e);
            }
        }
    }

    /// Answer `err deadline` for every request whose budget has passed.
    fn expire_overdue(&mut self, shared: &Shared, now: Instant) {
        let overdue: Vec<u64> = self
            .outstanding
            .iter()
            .filter(|(_, (dl, _))| *dl <= now)
            .map(|(s, _)| *s)
            .collect();
        for s in overdue {
            let (_, rid) = self.outstanding.remove(&s).expect("seq collected above");
            let mut line = format!("{s} err deadline: reply wait exceeded");
            if let Some(rid) = rid {
                line.push_str(&format!(" rid={rid}"));
            }
            self.ready.insert(s, line);
            shared.with_svc(|svc| svc.sink().counter_add(metrics::SERVICE_DEADLINE_MISSES, 1));
        }
    }

    /// Route one shard reply; late replies for deadline-expired seqs
    /// are dropped — their `err deadline` line was already emitted.
    fn take_reply(&mut self, s: u64, resp: &Response) {
        if let Some((_, rid)) = self.outstanding.remove(&s) {
            self.ready.insert(s, render(s, resp, rid));
        }
    }
}

/// Serve one command stream against the shared service. Returns `true`
/// when the client sent `quit`. Deadline-expired requests are answered
/// `err deadline` in order; the connection survives them.
///
/// A dedicated reply-pump thread drains shard replies while the reader
/// blocks on the socket, so an interactive request/reply client sees
/// its answer without having to send another frame first.
fn stream_loop<R: Read, W: Write + Send>(
    reader: R,
    writer: W,
    shared: &Shared,
) -> io::Result<bool> {
    let cfg = &shared.cfg;
    let mut reader = BufReader::new(reader);
    let (reply_tx, reply_rx) = mpsc::channel::<(u64, Response)>();
    let state = Mutex::new(Flight {
        ready: BTreeMap::new(),
        next_emit: 1,
        outstanding: BTreeMap::new(),
        writer: io::BufWriter::new(writer),
        io_error: None,
    });
    let done = AtomicBool::new(false);
    let max_wait = Duration::from_millis(cfg.reply_wait_ms.max(1));
    let mut seq = 1u64;
    let mut quit = false;
    let mut read_error: Option<io::Error> = None;

    std::thread::scope(|scope| {
        let state = &state;
        let done = &done;
        let pump = scope.spawn(move || {
            let tick = Duration::from_millis(20);
            loop {
                let (drained, earliest) = {
                    let fl = state.lock().expect("flight state poisoned");
                    (
                        fl.io_error.is_some() || (fl.outstanding.is_empty() && fl.ready.is_empty()),
                        fl.outstanding.values().map(|(dl, _)| *dl).min(),
                    )
                };
                if drained && done.load(Ordering::Acquire) {
                    break;
                }
                let now = Instant::now();
                let wait = earliest
                    .map(|dl| dl.saturating_duration_since(now).min(tick))
                    .unwrap_or(tick);
                match reply_rx.recv_timeout(wait) {
                    Ok((s, resp)) => {
                        let mut fl = state.lock().expect("flight state poisoned");
                        fl.take_reply(s, &resp);
                        while let Ok((s, resp)) = reply_rx.try_recv() {
                            fl.take_reply(s, &resp);
                        }
                        fl.expire_overdue(shared, Instant::now());
                        fl.emit(shared);
                    }
                    Err(RecvTimeoutError::Timeout) => {
                        let mut fl = state.lock().expect("flight state poisoned");
                        fl.expire_overdue(shared, Instant::now());
                        fl.emit(shared);
                    }
                    Err(RecvTimeoutError::Disconnected) => {
                        // Every sender is gone; expire stragglers and
                        // sleep until the reader signals `done`.
                        let mut fl = state.lock().expect("flight state poisoned");
                        fl.expire_overdue(shared, Instant::now());
                        fl.emit(shared);
                        drop(fl);
                        std::thread::sleep(wait);
                    }
                }
            }
        });

        loop {
            let payload = if cfg.text {
                let mut line = String::new();
                match reader.read_line(&mut line) {
                    Ok(0) => None,
                    Ok(_) => Some(line.trim_end_matches(['\r', '\n']).as_bytes().to_vec()),
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                }
            } else {
                match read_frame(&mut reader) {
                    Ok(p) => p,
                    Err(e) => {
                        read_error = Some(e);
                        break;
                    }
                }
            };
            let Some(payload) = payload else {
                break; // clean EOF
            };
            shared.frames.fetch_add(1, Ordering::Relaxed);
            let this_seq = seq;
            seq += 1;
            let text = String::from_utf8_lossy(&payload);
            let mut fl = state.lock().expect("flight state poisoned");
            match parse_request(&text) {
                Err(e) => {
                    let mut line = format!("{this_seq} err usage: {e}");
                    if let Some(rid) = scavenge_rid(&text) {
                        line.push_str(&format!(" rid={rid}"));
                    }
                    fl.ready.insert(this_seq, line);
                }
                Ok(pr) => {
                    let rid_suffix = |line: String| match pr.rid {
                        Some(rid) => format!("{line} rid={rid}"),
                        None => line,
                    };
                    match pr.cmd {
                        Command::Quit => {
                            quit = true;
                            fl.ready
                                .insert(this_seq, rid_suffix(format!("{this_seq} ok bye")));
                        }
                        Command::Stats => {
                            let line = shared
                                .with_svc(|svc| stats_line(this_seq, svc))
                                .unwrap_or_else(|| {
                                    format!("{this_seq} err unavailable: service is shut down")
                                });
                            fl.ready.insert(this_seq, rid_suffix(line));
                        }
                        cmd @ Command::Open { .. } => {
                            let line = shared
                                .with_svc_mut(|svc| open_tenant_line(this_seq, svc, cfg, &cmd))
                                .unwrap_or_else(|| {
                                    format!("{this_seq} err unavailable: service is shut down")
                                });
                            fl.ready.insert(this_seq, rid_suffix(line));
                        }
                        ref cmd => match to_request(cmd, cfg.stall_cap_ms) {
                            Ok((tenant, req)) => {
                                let budget = pr
                                    .deadline_ms
                                    .map(|ms| Duration::from_millis(ms).min(max_wait))
                                    .unwrap_or(max_wait);
                                let submitted = shared
                                    .with_svc(|svc| {
                                        svc.submit_tagged(this_seq, pr.rid, &tenant, req, &reply_tx)
                                    })
                                    .is_some();
                                if submitted {
                                    fl.outstanding
                                        .insert(this_seq, (Instant::now() + budget, pr.rid));
                                } else {
                                    fl.ready.insert(
                                        this_seq,
                                        rid_suffix(format!(
                                            "{this_seq} err unavailable: service is shut down"
                                        )),
                                    );
                                }
                            }
                            Err(e) => {
                                fl.ready.insert(
                                    this_seq,
                                    rid_suffix(format!("{this_seq} err usage: {e}")),
                                );
                            }
                        },
                    }
                }
            }
            fl.expire_overdue(shared, Instant::now());
            fl.emit(shared);
            let failed = fl.io_error.is_some();
            drop(fl);
            if quit || failed {
                break;
            }
        }
        // The pump drains in-flight replies, bounded per request by its
        // deadline budget, then exits once everything is flushed.
        done.store(true, Ordering::Release);
        drop(reply_tx);
        pump.join().expect("reply pump thread panicked");
    });

    let fl = state.into_inner().expect("flight state poisoned");
    if let Some(e) = fl.io_error {
        return Err(e);
    }
    if let Some(e) = read_error {
        return Err(e);
    }
    Ok(quit)
}

/// A bidirectional connection stream the concurrent front end can
/// split (reader clone + writer) and half-close for graceful drain.
trait ConnStream: Read + Write + Send + 'static {
    fn clone_conn(&self) -> io::Result<Self>
    where
        Self: Sized;
    fn close_read(&self);
}

impl ConnStream for UnixStream {
    fn clone_conn(&self) -> io::Result<UnixStream> {
        self.try_clone()
    }
    fn close_read(&self) {
        let _ = self.shutdown(Shutdown::Read);
    }
}

impl ConnStream for TcpStream {
    fn clone_conn(&self) -> io::Result<TcpStream> {
        self.try_clone()
    }
    fn close_read(&self) {
        let _ = self.shutdown(Shutdown::Read);
    }
}

/// A listener the concurrent front end can accept from and wake (by
/// connecting to itself) when a connection thread signals shutdown.
trait Acceptor: Send + Sync + 'static {
    /// Stream type produced by [`Acceptor::accept_conn`].
    type Conn: ConnStream;
    fn accept_conn(&self) -> io::Result<Self::Conn>;
    fn wake(&self);
}

struct UnixAcceptor {
    listener: UnixListener,
    path: PathBuf,
}

impl Acceptor for UnixAcceptor {
    type Conn = UnixStream;
    fn accept_conn(&self) -> io::Result<UnixStream> {
        self.listener.accept().map(|(s, _)| s)
    }
    fn wake(&self) {
        let _ = UnixStream::connect(&self.path);
    }
}

struct TcpAcceptor {
    listener: TcpListener,
}

impl Acceptor for TcpAcceptor {
    type Conn = TcpStream;
    fn accept_conn(&self) -> io::Result<TcpStream> {
        let (s, _) = self.listener.accept()?;
        // Interactive request/reply framing: without TCP_NODELAY every
        // small reply stalls ~40ms on Nagle + delayed ACK.
        let _ = s.set_nodelay(true);
        Ok(s)
    }
    fn wake(&self) {
        if let Ok(addr) = self.listener.local_addr() {
            let _ = TcpStream::connect(addr);
        }
    }
}

/// Concurrent accept loop shared by the Unix and TCP front ends.
fn serve_concurrent<A: Acceptor>(
    acceptor: A,
    svc: Service,
    cfg: &ServerConfig,
) -> io::Result<ServeReport> {
    let sink = svc.sink_handle();
    let shared = Arc::new(Shared::new(svc, cfg));
    let acceptor = Arc::new(acceptor);
    // Live connection registry: a clone per connection so the drain can
    // half-close readers that are blocked mid-`read_frame`.
    let live: Arc<Mutex<HashMap<u64, A::Conn>>> = Arc::new(Mutex::new(HashMap::new()));
    let mut threads = Vec::new();
    let mut conns = 0u64;
    let mut conns_shed = 0u64;
    let mut accept_errors = 0u32;

    while !shared.quit.load(Ordering::SeqCst) {
        let mut stream = match acceptor.accept_conn() {
            Ok(s) => {
                accept_errors = 0;
                s
            }
            Err(_) if shared.quit.load(Ordering::SeqCst) => break,
            Err(_) => {
                // Transient accept failures (ECONNABORTED and friends)
                // are retried; a persistently broken listener ends the
                // session instead of spinning.
                accept_errors += 1;
                if accept_errors > 100 {
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
        };
        if shared.quit.load(Ordering::SeqCst) {
            break; // the wake() connection, or a late straggler
        }
        let slot = shared.active.fetch_add(1, Ordering::SeqCst);
        if slot >= cfg.max_conns.max(1) {
            shared.active.fetch_sub(1, Ordering::SeqCst);
            conns_shed += 1;
            sink.counter_add(metrics::SERVICE_CONN_SHED, 1);
            let line = "0 err busy: connection cap reached";
            let _ = if cfg.text {
                stream.write_all(format!("{line}\n").as_bytes())
            } else {
                write_frame(&mut stream, line.as_bytes())
            };
            continue;
        }
        conns += 1;
        sink.counter_add(metrics::SERVICE_CONNS, 1);
        let conn_id = conns;
        if let Ok(clone) = stream.clone_conn() {
            live.lock()
                .expect("conn registry poisoned")
                .insert(conn_id, clone);
        }
        let shared_c = Arc::clone(&shared);
        let live_c = Arc::clone(&live);
        let acceptor_c = Arc::clone(&acceptor);
        let handle = std::thread::Builder::new()
            .name(format!("serve-conn-{conn_id}"))
            .spawn(move || {
                let result = match stream.clone_conn() {
                    Ok(reader) => stream_loop(reader, stream, &shared_c),
                    Err(e) => Err(e),
                };
                live_c
                    .lock()
                    .expect("conn registry poisoned")
                    .remove(&conn_id);
                shared_c.active.fetch_sub(1, Ordering::SeqCst);
                if matches!(result, Ok(true)) {
                    // `quit`: stop accepting and begin the drain.
                    shared_c.quit.store(true, Ordering::SeqCst);
                    acceptor_c.wake();
                }
            })
            .map_err(|e| io::Error::other(format!("spawn connection thread: {e}")))?;
        threads.push(handle);
    }

    // Drain: no new connections; half-close live readers so each
    // connection flushes its in-flight replies and exits.
    for (_, conn) in live.lock().expect("conn registry poisoned").iter() {
        conn.close_read();
    }
    for handle in threads {
        let _ = handle.join();
    }
    let quit = shared.quit.load(Ordering::SeqCst);
    let svc = shared
        .svc
        .write()
        .expect("service lock poisoned")
        .take()
        .expect("service consumed exactly once");
    Ok(ServeReport {
        frames: shared.frames.load(Ordering::Relaxed),
        responses: shared.responses.load(Ordering::Relaxed),
        conns,
        conns_shed,
        quit,
        tenants: svc.shutdown(),
    })
}

/// Serve framed commands from `reader`/`writer` (the stdin front end),
/// shutting the service down at EOF or `quit`.
pub fn serve_once<R: Read, W: Write + Send>(
    reader: R,
    writer: W,
    svc: Service,
    cfg: &ServerConfig,
) -> io::Result<ServeReport> {
    let shared = Shared::new(svc, cfg);
    let quit = stream_loop(reader, writer, &shared)?;
    let svc = shared
        .svc
        .write()
        .expect("service lock poisoned")
        .take()
        .expect("service consumed exactly once");
    Ok(ServeReport {
        frames: shared.frames.load(Ordering::Relaxed),
        responses: shared.responses.load(Ordering::Relaxed),
        conns: 1,
        conns_shed: 0,
        quit,
        tenants: svc.shutdown(),
    })
}

/// Serve connections on a Unix socket concurrently until a client sends
/// `quit`. Tenants persist across connections — that is the long-lived
/// service mode.
pub fn serve_unix(path: &Path, svc: Service, cfg: &ServerConfig) -> io::Result<ServeReport> {
    let _ = std::fs::remove_file(path);
    let listener = UnixListener::bind(path)?;
    let acceptor = UnixAcceptor {
        listener,
        path: path.to_path_buf(),
    };
    let report = serve_concurrent(acceptor, svc, cfg);
    let _ = std::fs::remove_file(path);
    report
}

/// Serve connections on an already-bound TCP listener concurrently
/// until a client sends `quit`. Binding is the caller's job so tests
/// and benches can use an ephemeral `127.0.0.1:0` port.
pub fn serve_tcp(
    listener: TcpListener,
    svc: Service,
    cfg: &ServerConfig,
) -> io::Result<ServeReport> {
    serve_concurrent(TcpAcceptor { listener }, svc, cfg)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::supervisor::ServiceConfig;
    use std::net::TcpListener;

    fn run_session(script: &[&str], cfg: &ServerConfig) -> (ServeReport, Vec<String>) {
        let mut input = Vec::new();
        for line in script {
            write_frame(&mut input, line.as_bytes()).expect("frame");
        }
        let mut output = Vec::new();
        let report = serve_once(
            &input[..],
            &mut output,
            Service::new(ServiceConfig::default()),
            cfg,
        )
        .expect("serve");
        let mut lines = Vec::new();
        let mut r = &output[..];
        while let Some(payload) = read_frame(&mut r).expect("response frame") {
            lines.push(String::from_utf8(payload).expect("utf8"));
        }
        (report, lines)
    }

    #[test]
    fn framed_session_round_trip_in_order() {
        let dir = std::env::temp_dir().join(format!("hetfeas-serve-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("data dir");
        let cfg = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        let (report, lines) = run_session(
            &[
                "open t1 edf 1.0 1,2",
                "add t1 3 10",
                "add t1 100 10",
                "query t1 0",
                "digest t1",
                "stats",
                "bogus command",
                "quit",
            ],
            &cfg,
        );
        assert!(report.quit);
        assert_eq!(report.frames, 8);
        assert_eq!(report.responses, 8);
        assert_eq!(report.conns, 1);
        assert_eq!(lines.len(), 8);
        // Strict submission order.
        for (i, line) in lines.iter().enumerate() {
            assert!(
                line.starts_with(&format!("{} ", i + 1)),
                "line {i} out of order: {line}"
            );
        }
        assert!(lines[0].contains("ok opened policy=edf"), "{}", lines[0]);
        assert!(lines[1].contains("ok admitted id=0"), "{}", lines[1]);
        assert!(lines[2].contains("ok rejected"), "{}", lines[2]);
        assert!(lines[3].contains("ok machine="), "{}", lines[3]);
        assert!(lines[4].contains("ok digest="), "{}", lines[4]);
        assert!(lines[5].contains("service.ops="), "{}", lines[5]);
        assert!(lines[6].contains("err usage"), "{}", lines[6]);
        assert!(lines[7].ends_with("ok bye"), "{}", lines[7]);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn rid_is_echoed_and_deduplicated_within_a_session() {
        let dir =
            std::env::temp_dir().join(format!("hetfeas-serve-rid-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("data dir");
        let cfg = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        let (report, lines) = run_session(
            &[
                "open t1 edf 1.0 1,2",
                "add t1 3 10 rid=5 dl=5000",
                "add t1 3 10 rid=5 dl=5000", // duplicate delivery
                "digest t1",
                "quit",
            ],
            &cfg,
        );
        assert!(report.quit);
        assert!(
            lines[1].contains("ok admitted") && lines[1].ends_with("rid=5"),
            "{}",
            lines[1]
        );
        // The retry is byte-identical bar the seq prefix — same id, same
        // machine, same rid echo — and admits nothing new.
        assert_eq!(
            lines[1].split_once(' ').expect("seq prefix").1,
            lines[2].split_once(' ').expect("seq prefix").1
        );
        assert!(
            lines[3].contains("live=1"),
            "duplicate applied: {}",
            lines[3]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn short_deadline_expires_instead_of_hanging() {
        let dir =
            std::env::temp_dir().join(format!("hetfeas-serve-dl-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("data dir");
        let cfg = ServerConfig {
            data_dir: dir.clone(),
            stall_cap_ms: 2_000,
            ..ServerConfig::default()
        };
        let start = Instant::now();
        let (_, lines) = run_session(
            &[
                "open t1 edf 1.0 1,2",
                "stall t1 1500",
                "add t1 3 10 dl=50",
                "quit",
            ],
            &cfg,
        );
        // The add queues behind a 1.5 s stall but only waits its own
        // 50 ms budget; the stall itself still completes.
        assert!(lines[2].contains("err deadline"), "{}", lines[2]);
        assert!(lines[1].contains("ok done"), "{}", lines[1]);
        assert!(
            start.elapsed() < Duration::from_secs(30),
            "deadline budget must bound the wait"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tenant_names_are_validated() {
        assert!(valid_tenant_name("t-1_ok"));
        assert!(!valid_tenant_name(""));
        assert!(!valid_tenant_name("../escape"));
        assert!(!valid_tenant_name("a b"));
    }

    #[test]
    fn tcp_serves_concurrent_connections() {
        let dir =
            std::env::temp_dir().join(format!("hetfeas-serve-tcp-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("data dir");
        let cfg = ServerConfig {
            data_dir: dir.clone(),
            ..ServerConfig::default()
        };
        let listener = TcpListener::bind("127.0.0.1:0").expect("bind");
        let addr = listener.local_addr().expect("addr");
        let server = std::thread::spawn({
            let cfg = cfg.clone();
            move || serve_tcp(listener, Service::new(ServiceConfig::default()), &cfg)
        });
        // Open the tenant on a first connection, then run two
        // *simultaneously open* connections before either completes.
        let session = |cmds: Vec<String>| -> Vec<String> {
            let mut conn = TcpStream::connect(addr).expect("connect");
            for c in &cmds {
                write_frame(&mut conn, c.as_bytes()).expect("send");
            }
            let _ = conn.shutdown(Shutdown::Write);
            let mut lines = Vec::new();
            let mut reader = BufReader::new(conn);
            while let Some(p) = read_frame(&mut reader).expect("reply") {
                lines.push(String::from_utf8(p).expect("utf8"));
            }
            lines
        };
        let opened = session(vec!["open t edf 1.0 1,2".to_string()]);
        assert!(opened[0].contains("ok opened"), "{:?}", opened);
        let mut a = TcpStream::connect(addr).expect("conn a");
        let mut b = TcpStream::connect(addr).expect("conn b");
        write_frame(&mut a, b"add t 1 10").expect("a send");
        write_frame(&mut b, b"add t 1 12").expect("b send");
        // Both connections get answers while both are open — the accept
        // loop did not serialize them. A serializing loop would leave `b`
        // unanswered; the timeout turns that into a failure, not a hang.
        for conn in [&a, &b] {
            conn.set_read_timeout(Some(Duration::from_secs(10)))
                .expect("read timeout");
        }
        let mut ra = BufReader::new(a.try_clone().expect("clone"));
        let mut rb = BufReader::new(b.try_clone().expect("clone"));
        let la = read_frame(&mut ra).expect("a reply").expect("a line");
        let lb = read_frame(&mut rb).expect("b reply").expect("b line");
        assert!(String::from_utf8_lossy(&la).contains("ok admitted"));
        assert!(String::from_utf8_lossy(&lb).contains("ok admitted"));
        drop((a, b, ra, rb));
        // A pipelined burst of adds, queued behind a stall, shares its
        // barriers: `stats` reads fewer syncs than appends.
        let mut burst = vec!["stall t 200".to_string()];
        burst.extend((0..40).map(|i| format!("add t 1 {}", 100 + i)));
        let replies = session(burst);
        assert_eq!(replies.len(), 41);
        assert!(replies[1..].iter().all(|l| l.contains("ok admitted")));
        let stats = session(vec!["stats".to_string()]);
        let counter = |key: &str| -> u64 {
            let tok = stats[0]
                .split_whitespace()
                .find_map(|t| t.strip_prefix(&format!("{key}=")))
                .unwrap_or_else(|| panic!("stats lacks {key}: {}", stats[0]));
            tok.parse().expect("counter value")
        };
        let (appends, syncs) = (counter("journal.appends"), counter("journal.syncs"));
        assert_eq!(appends, 42, "{}", stats[0]);
        assert!(syncs < appends, "{}", stats[0]);
        let bye = session(vec!["quit".to_string()]);
        assert!(bye[0].ends_with("ok bye"), "{:?}", bye);
        let report = server.join().expect("server thread").expect("serve ok");
        assert!(report.quit);
        assert!(report.conns >= 4);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
