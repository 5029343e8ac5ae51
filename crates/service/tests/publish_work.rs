//! A shard pays for what a batch changed, not for the tenant's size.
//!
//! One 256-machine tenant is warmed to a few thousand live tasks, then
//! driven by single awaited requests — queries, adds, removes, a
//! snapshot and rollback, and a few `digest` requests. Across that
//! window the shard must compute exactly one state digest per `digest`
//! request (`service.digests`), and rewrite at most one quote-board
//! entry per applied add or remove plus every machine per committed
//! repack or rollback (`service.quote_refreshes`). Publishing the whole
//! tenant after every batch breaks both counts.

use hetfeas_model::rng::Rng;
use hetfeas_model::{Augmentation, Platform, Task};
use hetfeas_partition::metrics as pm;
use hetfeas_robust::journal::{MemStorage, Storage};
use hetfeas_service::metrics::{SERVICE_DIGESTS, SERVICE_QUOTE_REFRESHES};
use hetfeas_service::{Op, PolicyKind, Request, Response, Service, ServiceConfig, TenantSpec};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

const MACHINES: usize = 256;
const WARM_LIVE: usize = 2_500;

struct Driver {
    svc: Service,
    tx: Sender<(u64, Response)>,
    rx: Receiver<(u64, Response)>,
    seq: u64,
}

impl Driver {
    fn send(&mut self, req: Request) -> u64 {
        self.seq += 1;
        self.svc.submit(self.seq, "t", req, &self.tx);
        self.seq
    }

    fn recv(&self, want: u64) -> Response {
        loop {
            let (s, resp) = self
                .rx
                .recv_timeout(Duration::from_secs(60))
                .expect("shard answers");
            if s == want {
                return resp;
            }
        }
    }

    fn call(&mut self, req: Request) -> Response {
        let seq = self.send(req);
        self.recv(seq)
    }

    fn counter(&self, name: &str) -> u64 {
        self.svc.sink().counter(name)
    }
}

fn task(rng: &mut Rng) -> Task {
    let period = 1_000 + rng.below(9_000);
    Task::implicit(period / 20 + rng.below(period / 3), period).expect("valid task")
}

#[test]
fn batches_publish_only_what_they_changed() {
    let mut rng = Rng::new(0x9b0a);
    let speeds: Vec<u64> = (0..MACHINES).map(|_| 1 + rng.below(8)).collect();
    let store = MemStorage::new();
    let handle = store.clone();
    let mut svc = Service::new(ServiceConfig {
        workers: 1,
        ..ServiceConfig::default()
    });
    svc.open_tenant(TenantSpec {
        name: "t".to_string(),
        policy: PolicyKind::Edf,
        platform: Platform::from_int_speeds(speeds).expect("platform"),
        alpha: Augmentation::NONE,
        factory: Arc::new(move |_| Box::new(handle.clone()) as Box<dyn Storage>),
        op_gas: None,
        recover_gas: None,
    })
    .expect("open");
    let (tx, rx) = channel();
    let mut d = Driver {
        svc,
        tx,
        rx,
        seq: 0,
    };

    // Warm up in windows below the queue depth, so nothing is shed.
    let mut live: Vec<u64> = Vec::new();
    while live.len() < WARM_LIVE {
        let seqs: Vec<u64> = (0..32)
            .map(|_| d.send(Request::Op(Op::Add(task(&mut rng)))))
            .collect();
        for seq in seqs {
            match d.recv(seq) {
                Response::Admitted { id, .. } => live.push(id),
                other => panic!("warm-up add refused: {other:?}"),
            }
        }
    }
    // An awaited request starts a new batch only after the previous
    // batch published, so the counters below see all of warm-up.
    assert!(matches!(
        d.call(Request::Query(live[0])),
        Response::Machine(Some(_))
    ));
    let digests_before = d.counter(SERVICE_DIGESTS);
    let refreshes_before = d.counter(SERVICE_QUOTE_REFRESHES);
    let repacks_before = d.counter(pm::INCR_REPACKS);
    let rollbacks_before = d.counter(pm::INCR_ROLLBACKS);

    let (mut applied, mut digest_requests, mut requests) = (0u64, 0u64, 0u64);
    for i in 0..240u64 {
        let req = match i {
            100 => Request::Op(Op::Snapshot),
            180 => Request::Op(Op::Rollback),
            _ if i % 48 == 47 => Request::Digest,
            _ => match rng.below(10) {
                0..=4 => Request::Query(live[rng.below(live.len() as u64) as usize]),
                5..=7 => Request::Op(Op::Add(task(&mut rng))),
                _ => Request::Op(Op::Remove(live[rng.below(live.len() as u64) as usize])),
            },
        };
        requests += 1;
        match (req, d.call(req)) {
            (Request::Digest, Response::Digest { live: n, .. }) => {
                digest_requests += 1;
                assert!(n >= WARM_LIVE / 2, "digest reports {n} live");
            }
            (Request::Op(Op::Add(_)), Response::Admitted { id, .. }) => {
                applied += 1;
                live.push(id);
            }
            (Request::Op(Op::Remove(raw)), Response::Removed { found }) => {
                if found {
                    applied += 1;
                }
                live.retain(|&x| x != raw);
            }
            (Request::Query(_), Response::Machine(_))
            | (Request::Op(Op::Add(_)), Response::Rejected)
            | (Request::Op(Op::Snapshot | Op::Rollback), Response::Done) => {}
            (req, resp) => panic!("{req:?} answered {resp:?}"),
        }
    }
    // Let the last batch publish before reading the counters.
    assert!(matches!(
        d.call(Request::Query(u64::MAX)),
        Response::Machine(None)
    ));
    assert!(requests >= 200 && digest_requests >= 4);

    let digests = d.counter(SERVICE_DIGESTS) - digests_before;
    assert_eq!(
        digests, digest_requests,
        "{digests} digests computed for {digest_requests} digest requests over {requests} batches"
    );
    let whole = (d.counter(pm::INCR_REPACKS) - repacks_before)
        + (d.counter(pm::INCR_ROLLBACKS) - rollbacks_before);
    assert!(whole >= 1, "the window includes a rollback");
    let refreshes = d.counter(SERVICE_QUOTE_REFRESHES) - refreshes_before;
    let bound = applied + MACHINES as u64 * whole;
    assert!(
        refreshes <= bound,
        "{refreshes} board entries rewritten; {applied} applied adds/removes and \
         {whole} repacks/rollbacks allow {bound}"
    );
    assert!(refreshes >= 1, "applied ops refresh the board");
    d.svc.shutdown();
}
