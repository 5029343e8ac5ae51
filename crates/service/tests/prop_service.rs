//! Bulkhead isolation properties for the multi-tenant service.
//!
//! Seeded generators enumerate scenarios and every assertion is exact. The properties under test are the
//! service's isolation contract:
//!
//! 1. Corrupting (bit-flip or truncate) one tenant's journal quarantines
//!    only that tenant — every other shard's state digest is unchanged
//!    and keeps serving ops.
//! 2. An injected shard panic restarts the shard and recovery reproduces
//!    the pre-panic digest bit-for-bit.
//! 3. A tenant whose recovery gas budget cannot replay its journal is
//!    quarantined after the restart cap without affecting its neighbors.
//! 4. The wire-format parsers (binary framing and the text command
//!    grammar with its `rid=`/`dl=` envelope tokens) never panic on
//!    truncated, oversized or bit-flipped input — malformed frames are
//!    per-connection errors, never process faults.
//! 5. At-least-once delivery with client-assigned request ids is
//!    observed exactly once: duplicated submissions ack byte-identically
//!    and the journal replays to the digest of applying each acked op
//!    once — across a panic-restart in the middle.
//! 6. Exactly-once survives a process restart: after the whole service
//!    is dropped and rebuilt over the same storages, every acked rid
//!    retries as a dedup hit with the identical reply — also when a
//!    compaction ran between the acks and the drop.

use hetfeas_model::rng::splitmix64;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_robust::journal::{scan_records, MemStorage, Storage};
use hetfeas_service::frame::{parse_request, read_frame, write_frame, MAX_FRAME_LEN};
use hetfeas_service::shard::{Op, Request, Response};
use hetfeas_service::{PolicyKind, Service, ServiceConfig, ShardState, TenantEngine, TenantSpec};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = splitmix64(self.0);
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

struct Harness {
    svc: Service,
    stores: Vec<MemStorage>,
    names: Vec<String>,
    tx: Sender<(u64, Response)>,
    rx: Receiver<(u64, Response)>,
    seq: u64,
}

impl Harness {
    /// A service with `n` tenants over MemStorage, mixed policies.
    fn new(n: usize, seed: u64, recover_gas: Vec<Option<u64>>) -> Harness {
        let mut svc = Service::new(ServiceConfig {
            seed,
            max_restarts: 3,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..ServiceConfig::default()
        });
        let mut stores = Vec::new();
        let mut names = Vec::new();
        for i in 0..n {
            let store = MemStorage::new();
            let handle = store.clone();
            let name = format!("t{i}");
            svc.open_tenant(TenantSpec {
                name: name.clone(),
                policy: [PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp][i % 3],
                platform: Platform::from_int_speeds([1, 2, 3]).expect("platform"),
                alpha: Augmentation::NONE,
                factory: Arc::new(move |_inc| Box::new(handle.clone()) as Box<dyn Storage>),
                op_gas: None,
                recover_gas: recover_gas.get(i).copied().flatten(),
            })
            .expect("open tenant");
            stores.push(store);
            names.push(name);
        }
        let (tx, rx) = channel();
        Harness {
            svc,
            stores,
            names,
            tx,
            rx,
            seq: 0,
        }
    }

    fn request(&mut self, tenant: usize, req: Request) -> Response {
        self.seq += 1;
        let want = self.seq;
        self.svc.submit(want, &self.names[tenant], req, &self.tx);
        loop {
            let (s, resp) = self
                .rx
                .recv_timeout(Duration::from_secs(30))
                .expect("shard must always answer");
            if s == want {
                return resp;
            }
        }
    }

    /// Seeded op storm against one tenant; returns ids admitted.
    fn storm(&mut self, tenant: usize, rng: &mut Rng, ops: usize) -> Vec<u64> {
        let mut live = Vec::new();
        for _ in 0..ops {
            let roll = rng.below(10);
            let req = if roll < 6 || live.is_empty() {
                let wcet = 1 + rng.below(5);
                let period = 10 + rng.below(30);
                Request::Op(Op::Add(Task::implicit(wcet, period).expect("task")))
            } else if roll < 8 {
                let idx = rng.below(live.len() as u64) as usize;
                Request::Op(Op::Remove(live[idx]))
            } else if roll < 9 {
                Request::Op(Op::Snapshot)
            } else {
                Request::Op(Op::Rollback)
            };
            match (req, self.request(tenant, req)) {
                (Request::Op(Op::Add(_)), Response::Admitted { id, .. }) => live.push(id),
                (Request::Op(Op::Remove(raw)), Response::Removed { found: true }) => {
                    live.retain(|&x| x != raw);
                }
                _ => {}
            }
        }
        live
    }

    fn digest(&mut self, tenant: usize) -> (u32, ShardState, usize) {
        match self.request(tenant, Request::Digest) {
            Response::Digest {
                digest,
                state,
                live,
            } => (digest, state, live),
            other => panic!("digest expected, got {other:?}"),
        }
    }
}

/// Property 1a: a bit-flipped journal head quarantines only its tenant.
#[test]
fn bit_flip_quarantines_only_the_poisoned_tenant() {
    for seed in [1u64, 0xBEEF, 0x5eed_cafe] {
        let mut h = Harness::new(4, seed, vec![]);
        let mut rng = Rng(seed);
        for t in 0..4 {
            h.storm(t, &mut rng, 12);
        }
        let before: Vec<(u32, ShardState, usize)> = (0..4).map(|t| h.digest(t)).collect();
        for (d, s, _) in &before {
            assert_eq!(*s, ShardState::Running);
            assert_ne!(*d, 0);
        }

        // Poison tenant 2's journal head (the config record) and crash
        // the shard so it must attempt recovery.
        let victim = 2;
        let mut bytes = h.stores[victim].bytes();
        assert!(bytes.len() > 8, "journal holds at least the config record");
        bytes[8] ^= 0xff;
        h.stores[victim].set_bytes(bytes);
        let resp = h.request(victim, Request::InjectPanic);
        assert!(matches!(resp, Response::Error { .. }));

        // The victim is quarantined — and still answers.
        let resp = h.request(victim, Request::Op(Op::Snapshot));
        assert!(
            matches!(resp, Response::Quarantined { .. }),
            "seed {seed:#x}: poisoned tenant must be fenced, got {resp:?}"
        );
        let status = h.svc.status(&h.names[victim]).expect("status");
        assert_eq!(status.state, ShardState::Quarantined);
        assert!(status.reason.as_deref().unwrap_or("").contains("corrupt"));

        // Everyone else: digest unchanged, still serving.
        for t in (0..4).filter(|&t| t != victim) {
            let (d, s, live) = h.digest(t);
            assert_eq!(
                s,
                ShardState::Running,
                "seed {seed:#x}: tenant {t} survives"
            );
            assert_eq!(
                (d, live),
                (before[t].0, before[t].2),
                "seed {seed:#x}: tenant {t} digest untouched by the bulkhead"
            );
            let resp = h.request(
                t,
                Request::Op(Op::Add(Task::implicit(1, 40).expect("task"))),
            );
            assert!(
                resp.applied(),
                "seed {seed:#x}: tenant {t} still serves ops"
            );
        }
        h.svc.shutdown();
    }
}

/// Property 1b: truncating a journal below its config record is the same
/// class of poison as a bit flip — quarantine, scoped to the tenant.
#[test]
fn truncation_quarantines_only_the_truncated_tenant() {
    let mut h = Harness::new(3, 0x77, vec![]);
    let mut rng = Rng(0x77);
    for t in 0..3 {
        h.storm(t, &mut rng, 10);
    }
    let before: Vec<(u32, ShardState, usize)> = (0..3).map(|t| h.digest(t)).collect();

    let victim = 1;
    let bytes = h.stores[victim].bytes();
    // Keep 5 bytes: a torn header inside the config record — recovery
    // finds no intact records at all.
    h.stores[victim].set_bytes(bytes[..5.min(bytes.len())].to_vec());
    let _ = h.request(victim, Request::InjectPanic);
    // An awaited op synchronizes with the restart attempt: it must come
    // back fenced, and only then is the published status terminal.
    let resp = h.request(victim, Request::Op(Op::Snapshot));
    assert!(matches!(resp, Response::Quarantined { .. }), "got {resp:?}");
    let status = h.svc.status(&h.names[victim]).expect("status");
    assert_eq!(status.state, ShardState::Quarantined);

    for t in (0..3).filter(|&t| t != victim) {
        let (d, s, live) = h.digest(t);
        assert_eq!(s, ShardState::Running);
        assert_eq!((d, live), (before[t].0, before[t].2));
    }
    h.svc.shutdown();
}

/// Property 2: panic → restart → recovery reproduces the digest, for
/// many seeds and op mixes.
#[test]
fn panic_restart_recovers_bit_identical_state() {
    for seed in [3u64, 0xDEAD, 0xFEED_F00D, 0x1234_5678] {
        let mut h = Harness::new(2, seed, vec![]);
        let mut rng = Rng(seed ^ 0xA5A5);
        h.storm(0, &mut rng, 20);
        let (before, state, live_before) = h.digest(0);
        assert_eq!(state, ShardState::Running);

        let resp = h.request(0, Request::InjectPanic);
        assert!(matches!(
            resp,
            Response::Error {
                kind: hetfeas_service::ErrorKind::Panic,
                ..
            }
        ));
        let (after, state, live_after) = h.digest(0);
        assert_eq!(
            state,
            ShardState::Running,
            "seed {seed:#x}: shard recovered"
        );
        assert_eq!(
            (after, live_after),
            (before, live_before),
            "seed {seed:#x}: recovery must be bit-exact"
        );
        let status = h.svc.status("t0").expect("status");
        assert_eq!(status.restarts, 1);

        // And the shard keeps going: more ops, another panic, still exact.
        h.storm(0, &mut rng, 8);
        let (mid, _, _) = h.digest(0);
        let _ = h.request(0, Request::InjectPanic);
        let (end, state, _) = h.digest(0);
        assert_eq!(state, ShardState::Running);
        assert_eq!(end, mid, "seed {seed:#x}: second recovery bit-exact");
        h.svc.shutdown();
    }
}

/// Property 2b: panics injected into eight shards at once — every policy
/// represented, no reply awaited in between — all recover bit-exactly.
#[test]
fn simultaneous_panics_recover_every_shard_bit_exactly() {
    let tenants = 8;
    let mut h = Harness::new(tenants, 0xbe0c, vec![]);
    let mut rng = Rng(0xbe0c);
    for t in 0..tenants {
        h.storm(t, &mut rng, 24);
    }
    let before: Vec<(u32, ShardState, usize)> = (0..tenants).map(|t| h.digest(t)).collect();

    let first = h.seq + 1;
    for name in &h.names {
        h.seq += 1;
        h.svc.submit(h.seq, name, Request::InjectPanic, &h.tx);
    }
    for _ in 0..tenants {
        let (s, resp) =
            h.rx.recv_timeout(Duration::from_secs(30))
                .expect("every panicked shard answers");
        assert!((first..=h.seq).contains(&s), "unexpected reply {s}");
        assert!(
            matches!(
                resp,
                Response::Error {
                    kind: hetfeas_service::ErrorKind::Panic,
                    ..
                }
            ),
            "{resp:?}"
        );
    }
    for (t, &(digest, _, live)) in before.iter().enumerate() {
        assert_eq!(
            h.digest(t),
            (digest, ShardState::Running, live),
            "tenant {t} recovers to its pre-panic state"
        );
    }
    h.svc.shutdown();
}

/// Property 3: recovery-gas exhaustion trips the restart cap and
/// quarantines — without touching the neighbor shard.
#[test]
fn recovery_gas_exhaustion_quarantines_after_restart_cap() {
    // Tenant 0 gets a recovery budget large enough to boot an empty
    // journal but far too small to replay a populated one.
    let mut h = Harness::new(2, 0x6a5, vec![Some(8), None]);
    let mut rng = Rng(0x6a5);
    h.storm(0, &mut rng, 16);
    h.storm(1, &mut rng, 16);
    let neighbor_before = h.digest(1);

    let _ = h.request(0, Request::InjectPanic);
    // All recovery attempts exhaust; the cap quarantines the tenant.
    let resp = h.request(0, Request::Op(Op::Snapshot));
    assert!(
        matches!(resp, Response::Quarantined { .. }),
        "exhausted recovery must quarantine, got {resp:?}"
    );
    let status = h.svc.status("t0").expect("status");
    assert_eq!(status.state, ShardState::Quarantined);
    assert!(status.restarts >= 3, "the restart cap was exercised");

    let neighbor_after = h.digest(1);
    assert_eq!(neighbor_after, neighbor_before, "neighbor untouched");
    h.svc.shutdown();
}

/// Property 4a: the binary frame reader survives truncation at every
/// byte boundary, rejects oversized length prefixes, and never panics
/// on bit-flipped streams (mirrors the torn-tail battery the binary
/// trace format runs in prop_trace_bin.rs).
#[test]
fn binary_framing_survives_truncation_oversize_and_bit_flips() {
    let commands = [
        "open t edf 1.0 1,2,3",
        "add t 3 10 rid=7 dl=500",
        "remove t 0",
        "digest t",
        "quit",
    ];
    let mut stream = Vec::new();
    for c in &commands {
        write_frame(&mut stream, c.as_bytes()).expect("frame");
    }

    // Truncation at every boundary: some whole frames parse, then a
    // clean EOF (None) or an UnexpectedEof error — never a panic, never
    // a phantom frame.
    for cut in 0..stream.len() {
        let mut r = &stream[..cut];
        let mut frames = 0usize;
        while let Ok(Some(payload)) = read_frame(&mut r) {
            assert!(payload.len() <= MAX_FRAME_LEN as usize);
            frames += 1;
            assert!(frames <= commands.len(), "cut {cut}: phantom frame");
        }
    }

    // Oversized length prefix: rejected as an error before any
    // allocation of the claimed size.
    let mut huge = Vec::new();
    huge.extend_from_slice(&(MAX_FRAME_LEN + 1).to_le_bytes());
    huge.extend_from_slice(&[0u8; 16]);
    let mut r = &huge[..];
    assert!(read_frame(&mut r).is_err(), "oversized frame must error");

    // Seeded bit flips anywhere in the stream: every outcome is a
    // frame, an EOF, or an error — never a panic, never an oversized
    // payload.
    let mut rng = Rng(0xF1_1B5);
    for _ in 0..500 {
        let mut bytes = stream.clone();
        let flips = 1 + rng.below(3);
        for _ in 0..flips {
            let i = rng.below(bytes.len() as u64) as usize;
            bytes[i] ^= 1 << rng.below(8);
        }
        let mut r = &bytes[..];
        let mut frames = 0usize;
        while let Ok(Some(payload)) = read_frame(&mut r) {
            assert!(payload.len() <= MAX_FRAME_LEN as usize);
            frames += 1;
            if frames > commands.len() {
                // A flipped length prefix can re-segment the stream, but
                // it cannot mint more frames than bytes allow.
                assert!(frames <= bytes.len() / 4);
            }
        }
    }
}

/// Property 4b: the text command grammar (envelope tokens included)
/// never panics on mutated input, and the envelope validation rules
/// hold exactly.
#[test]
fn text_parser_never_panics_and_validates_envelopes() {
    let corpus = [
        "open t edf 1.0 1,2,3",
        "add t 3 10",
        "add t 3 10 7",
        "add t 3 10 rid=5 dl=100",
        "remove t 2 rid=9",
        "query t 0",
        "snapshot t",
        "rollback t",
        "repack t dl=50",
        "compact t",
        "digest t",
        "panic t",
        "stall t 40",
        "stats",
        "quit",
    ];
    // Exact validation rules first.
    assert!(
        parse_request("add t 3 10 0").is_err(),
        "deadline 0 rejected"
    );
    assert!(parse_request("add t 3 10 dl=0").is_err(), "dl=0 rejected");
    assert!(
        parse_request("add t 3 10 rid=1 rid=2").is_err(),
        "duplicate rid rejected"
    );
    assert!(
        parse_request("add t 3 10 dl=1 dl=2").is_err(),
        "duplicate dl rejected"
    );
    assert!(
        parse_request("add t 3 10 rid=99999999999999999999").is_err(),
        "overflowing rid rejected"
    );
    let ok = parse_request("add t 3 10 7").expect("constrained deadline accepted");
    assert!(matches!(
        ok.cmd,
        hetfeas_service::frame::Command::Add {
            deadline: Some(7),
            ..
        }
    ));

    // Seeded mutations: flips, truncations, token injection. The parser
    // must return Ok or Err — any panic fails the test by crashing.
    let mut rng = Rng(0x7e_c7);
    for _ in 0..2000 {
        let base = corpus[rng.below(corpus.len() as u64) as usize];
        let mut bytes = base.as_bytes().to_vec();
        match rng.below(4) {
            0 => {
                let i = rng.below(bytes.len() as u64) as usize;
                bytes[i] ^= 1 << rng.below(8);
            }
            1 => {
                bytes.truncate(rng.below(bytes.len() as u64 + 1) as usize);
            }
            2 => {
                let token = [" rid=", " dl=", " rid=0x", " dl=-1", " rid="][rng.below(5) as usize];
                bytes.extend_from_slice(token.as_bytes());
                bytes.extend_from_slice(rng.next().to_string().as_bytes());
            }
            _ => {
                bytes.extend_from_slice(b" \xff\xfe garbage");
            }
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let _ = parse_request(&text);
        let _ = hetfeas_service::frame::scavenge_rid(&text);
    }
}

/// Property 5: duplicated rid-bearing submissions are observed exactly
/// once. Every duplicate ack is identical to the first, the dedup
/// window survives a mid-storm panic-restart, and the final journal
/// replays to the digest of applying each acked op exactly once.
#[test]
fn duplicated_rids_apply_exactly_once_against_the_durable_digest() {
    for seed in [0x11u64, 0xACED, 0x00D0_0D1E] {
        let store = MemStorage::new();
        let handle = store.clone();
        let cfg = ServiceConfig {
            seed,
            backoff_base_ms: 1,
            backoff_cap_ms: 4,
            ..ServiceConfig::default()
        };
        let opts = cfg.opts;
        let mut svc = Service::new(cfg);
        svc.open_tenant(TenantSpec {
            name: "t".into(),
            policy: PolicyKind::Edf,
            platform: Platform::from_int_speeds([1, 2, 3]).expect("platform"),
            alpha: Augmentation::NONE,
            factory: Arc::new(move |_inc| Box::new(handle.clone()) as Box<dyn Storage>),
            op_gas: None,
            recover_gas: None,
        })
        .expect("open tenant");
        let (tx, rx) = channel();
        let mut seq = 0u64;
        let await_seq = |rx: &Receiver<(u64, Response)>, want: u64| -> Response {
            loop {
                let (s, resp) = rx
                    .recv_timeout(Duration::from_secs(30))
                    .expect("shard must answer");
                if s == want {
                    return resp;
                }
            }
        };

        let mut rng = Rng(seed);
        let mut live: Vec<u64> = Vec::new();
        let mut acked: Vec<Op> = Vec::new();
        let ops = 24usize;
        for k in 0..ops {
            let op = if rng.below(10) < 7 || live.is_empty() {
                Op::Add(Task::implicit(1 + rng.below(5), 10 + rng.below(30)).expect("task"))
            } else {
                Op::Remove(live[rng.below(live.len() as u64) as usize])
            };
            let rid = 1000 + k as u64;
            // At-least-once delivery: every op is submitted twice with
            // the same rid before either ack is consumed.
            seq += 1;
            let first_seq = seq;
            svc.submit_tagged(first_seq, Some(rid), "t", Request::Op(op), &tx);
            seq += 1;
            let retry_seq = seq;
            svc.submit_tagged(retry_seq, Some(rid), "t", Request::Op(op), &tx);
            let first = await_seq(&rx, first_seq);
            let retry = await_seq(&rx, retry_seq);
            assert_eq!(
                format!("{first:?}"),
                format!("{retry:?}"),
                "seed {seed:#x} op {k}: duplicate ack must be identical"
            );
            if first.applied() {
                acked.push(op);
                match (&op, &first) {
                    (Op::Add(_), Response::Admitted { id, .. }) => live.push(*id),
                    (Op::Remove(raw), Response::Removed { found: true }) => {
                        live.retain(|x| x != raw);
                    }
                    _ => {}
                }
            }
            // Mid-storm panic: the dedup window must survive the
            // restart (it lives outside the supervision loop).
            if k == ops / 2 {
                seq += 1;
                svc.submit_tagged(seq, None, "t", Request::InjectPanic, &tx);
                let _ = await_seq(&rx, seq);
                // A rid from before the panic still replays its cached
                // ack instead of re-applying.
                seq += 1;
                svc.submit_tagged(seq, Some(1000), "t", Request::Op(acked[0]), &tx);
                let replayed = await_seq(&rx, seq);
                assert!(
                    replayed.applied(),
                    "seed {seed:#x}: cached ack must replay, got {replayed:?}"
                );
            }
        }

        seq += 1;
        svc.submit_tagged(seq, None, "t", Request::Digest, &tx);
        let live_digest = match await_seq(&rx, seq) {
            Response::Digest { digest, .. } => digest,
            other => panic!("digest expected, got {other:?}"),
        };
        svc.shutdown();

        // Exactly-once, checked against durability twice over: the
        // journal bytes recover to the live digest, and so does a
        // fault-free replay applying each acked op exactly once.
        let (recovered, _) = TenantEngine::recover(
            PolicyKind::Edf,
            Box::new(MemStorage::with_bytes(store.bytes())),
            &mut hetfeas_robust::Gas::unlimited(),
            &(),
        )
        .expect("journal recovers");
        assert_eq!(
            recovered.state_digest(),
            live_digest,
            "seed {seed:#x}: journal replay must match live digest"
        );
        let mut gas = hetfeas_robust::Gas::unlimited();
        let mut replay = TenantEngine::create(
            PolicyKind::Edf,
            &Platform::from_int_speeds([1, 2, 3]).expect("platform"),
            Augmentation::NONE,
            opts,
            Box::new(MemStorage::new()),
            &mut gas,
            &(),
        )
        .expect("replay engine");
        for op in &acked {
            match *op {
                Op::Add(t) => {
                    replay.add(t, &mut gas, &()).expect("replay add");
                }
                Op::Remove(raw) => {
                    replay.remove(raw, &mut gas, &()).expect("replay remove");
                }
                _ => unreachable!("storm only adds and removes"),
            }
        }
        assert_eq!(
            replay.state_digest(),
            live_digest,
            "seed {seed:#x}: each acked op applied exactly once"
        );
    }
}

/// One rid-tagged request to tenant `t`, awaited.
fn ask(
    svc: &Service,
    tx: &Sender<(u64, Response)>,
    rx: &Receiver<(u64, Response)>,
    seq: &mut u64,
    rid: Option<u64>,
    req: Request,
) -> Response {
    *seq += 1;
    svc.submit_tagged(*seq, rid, "t", req, tx);
    loop {
        let (s, resp) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("shard must answer");
        if s == *seq {
            return resp;
        }
    }
}

/// Property 6: acked rids stay deduplicated across a process restart.
/// A service over `MemStorage` acks rid-bearing ops — adds, removes of
/// live ids, snapshots, rollbacks to a held snapshot, repacks — and is
/// then dropped whole, with no shutdown, as a kill would leave it. A new
/// service over the same storage must answer every acked rid, retried,
/// as a dedup hit with the identical reply, and keep its digest and live
/// count — also when a compaction ran between the acks and the drop (the
/// request-id log then rides in the compacted journal's `window` record).
#[test]
fn acked_rids_are_dedup_hits_after_a_service_rebuild() {
    let policies = [PolicyKind::Edf, PolicyKind::RmsLl, PolicyKind::RmsHyp];
    for (i, seed) in [0x51u64, 0xFEED, 0x0BAD_CAFE].into_iter().enumerate() {
        for compact in [false, true] {
            let store = MemStorage::new();
            let open = || {
                let mut svc = Service::new(ServiceConfig {
                    seed,
                    backoff_base_ms: 1,
                    backoff_cap_ms: 4,
                    ..ServiceConfig::default()
                });
                let handle = store.clone();
                svc.open_tenant(TenantSpec {
                    name: "t".into(),
                    policy: policies[i],
                    platform: Platform::from_int_speeds([1, 2, 3]).expect("platform"),
                    alpha: Augmentation::NONE,
                    factory: Arc::new(move |_inc| Box::new(handle.clone()) as Box<dyn Storage>),
                    op_gas: None,
                    recover_gas: None,
                })
                .expect("open tenant");
                svc
            };
            let (tx, rx) = channel();
            let mut seq = 0u64;
            let at = format!("seed {seed:#x} compact {compact}");

            let svc = open();
            let mut rng = Rng(seed);
            let (mut live, mut live_snap): (Vec<u64>, Option<Vec<u64>>) = (Vec::new(), None);
            let mut acked: Vec<(u64, Op, Response)> = Vec::new();
            for k in 0..40u64 {
                let roll = rng.below(20);
                let op = if roll < 11 || live.is_empty() {
                    Op::Add(Task::implicit(1 + rng.below(6), 10 + rng.below(30)).expect("task"))
                } else if roll < 15 {
                    Op::Remove(live[rng.below(live.len() as u64) as usize])
                } else if roll < 17 {
                    Op::Snapshot
                } else if roll < 19 && live_snap.is_some() {
                    Op::Rollback
                } else {
                    Op::Repack
                };
                let rid = 5000 + k;
                let resp = ask(&svc, &tx, &rx, &mut seq, Some(rid), Request::Op(op));
                assert!(resp.applied(), "{at} op {k}: {resp:?}");
                match (op, &resp) {
                    (Op::Add(_), Response::Admitted { id, .. }) => live.push(*id),
                    (Op::Remove(raw), Response::Removed { found }) => {
                        assert!(found, "{at} op {k}: removes target live ids");
                        live.retain(|&x| x != raw);
                    }
                    (Op::Snapshot, _) => live_snap = Some(live.clone()),
                    (Op::Rollback, _) => live.clone_from(live_snap.as_ref().expect("held")),
                    _ => {}
                }
                acked.push((rid, op, resp));
            }
            if compact {
                let done = ask(&svc, &tx, &rx, &mut seq, None, Request::Op(Op::Compact));
                assert_eq!(done, Response::Done, "{at}");
                let records = scan_records(&store.bytes()).payloads;
                assert!(
                    records.iter().any(|p| p.starts_with(b"window\n")),
                    "{at}: the compacted journal carries the window"
                );
            }
            let before = ask(&svc, &tx, &rx, &mut seq, None, Request::Digest);
            drop(svc);

            let svc = open();
            for (rid, op, first) in &acked {
                let retry = ask(&svc, &tx, &rx, &mut seq, Some(*rid), Request::Op(*op));
                assert_eq!(&retry, first, "{at}: rid {rid} retried across the rebuild");
            }
            assert_eq!(
                svc.sink()
                    .counter(hetfeas_service::metrics::SERVICE_DEDUP_HITS),
                acked.len() as u64,
                "{at}: every retry is a dedup hit"
            );
            let after = ask(&svc, &tx, &rx, &mut seq, None, Request::Digest);
            assert_eq!(after, before, "{at}: digest and live count unchanged");
            let Response::Digest { live: n, .. } = after else {
                panic!("{at}: digest expected, got {after:?}");
            };
            assert_eq!(n, live.len(), "{at}");
            svc.shutdown();
        }
    }
}
