//! Streaming-vs-materialized replay equivalence: the pull-based binary
//! replay path must land on *exactly* the digests and stats of the
//! materialized text-trace path — on every prefix of the op sequence, on
//! multi-instance traces, and through the durable journaled path with
//! incremental compaction slices in flight. Each equivalence runs under
//! every indexable policy, and the from-scratch baseline replays both
//! formats to the same stats.

use hetfeas_experiments::{
    combine_digests, replay_instance, replay_ops, replay_stream, replay_stream_with, ReplayMode,
    ReplayStats,
};
use hetfeas_model::{write_op_trace_bin, Augmentation, OpStream, OpTrace, Platform, TraceInstance};
use hetfeas_partition::{
    with_admission, DurableEngine, DurableOptions, IndexableAdmission, PolicyKind,
};
use hetfeas_robust::journal::MemStorage;
use hetfeas_robust::{FaultPlan, Gas};
use hetfeas_workload::{synth_platform, SynthSpec, TraceSynth};

/// A small but op-diverse synth spec: snapshots, rollbacks and repacks
/// all fire within a few hundred ops.
fn spec(seed: u64, ops: u64) -> SynthSpec {
    SynthSpec {
        seed,
        ops_per_instance: ops,
        instances: 1,
        machines: 4,
        max_live: 64,
        snapshot_every_ops: 60,
        rollback_per_mille: 40,
        repack_every_ops: 150,
        ..SynthSpec::default()
    }
}

fn materialize(spec: &SynthSpec, instance: usize) -> TraceInstance {
    let platform = synth_platform(spec, instance);
    let mut synth = TraceSynth::new(spec, instance);
    let mut ops = Vec::new();
    while let Some(op) = synth.next_op() {
        ops.push(op);
    }
    TraceInstance {
        name: format!("synth-{instance}"),
        platform,
        ops,
    }
}

/// Replay `inst` materialized, in `mode`, with its final digest.
fn replay_materialized<A: IndexableAdmission>(
    adm: A,
    inst: &TraceInstance,
    mode: ReplayMode,
) -> (ReplayStats, u32) {
    replay_instance(
        adm,
        &inst.platform,
        inst.ops.iter().copied(),
        Augmentation::NONE,
        mode,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("materialized replays")
}

fn stream_one<A: IndexableAdmission + Clone>(adm: A, trace: &OpTrace) -> Vec<(String, u32)> {
    let bytes = write_op_trace_bin(trace, Vec::new()).expect("encode");
    let mut stream = OpStream::new(&bytes[..]).expect("header");
    let summaries = replay_stream(
        &mut stream,
        adm,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("stream replays");
    summaries.into_iter().map(|s| (s.name, s.digest)).collect()
}

/// Every prefix of the op sequence digests identically whether the trace
/// is materialized in memory or pulled from the binary stream.
#[test]
fn every_prefix_digests_identically() {
    for policy in PolicyKind::ALL {
        with_admission!(policy, adm => every_prefix_digests_identically_under(adm));
    }
}

fn every_prefix_digests_identically_under<A: IndexableAdmission + Clone>(adm: A) {
    let full = materialize(&spec(11, 240), 0);
    for cut in 0..=full.ops.len() {
        let inst = TraceInstance {
            name: full.name.clone(),
            platform: full.platform.clone(),
            ops: full.ops[..cut].to_vec(),
        };
        let (stats, want) = replay_materialized(adm.clone(), &inst, ReplayMode::Incremental);
        let trace = OpTrace {
            instances: vec![inst],
        };
        let got = stream_one(adm.clone(), &trace);
        assert_eq!(got.len(), 1, "prefix {cut}");
        assert_eq!(got[0].1, want, "prefix {cut}: digest diverged");
        assert_eq!(stats.ops, cut as u64, "prefix {cut}: op count");
    }
}

/// Multi-instance traces: per-instance digests match the materialized
/// replay instance by instance, and the combined digest is a pure
/// function of them.
#[test]
fn multi_instance_stream_matches_materialized() {
    for policy in PolicyKind::ALL {
        with_admission!(policy, adm => multi_instance_stream_matches_materialized_under(adm));
    }
}

fn multi_instance_stream_matches_materialized_under<A: IndexableAdmission + Clone>(adm: A) {
    let mut s = spec(23, 180);
    s.instances = 4;
    // Mix in adversarial arrivals drawn from the fault corpus so the
    // equivalence also holds on huge-period / degenerate tasks.
    s.adversarial_per_mille = 80;
    for case in FaultPlan::new(23).cases() {
        s.adversarial.extend_from_slice(case.tasks.as_slice());
    }
    let instances: Vec<TraceInstance> = (0..s.instances).map(|i| materialize(&s, i)).collect();
    let mut want = Vec::new();
    for inst in &instances {
        let (_, d) = replay_materialized(adm.clone(), inst, ReplayMode::Incremental);
        want.push((inst.name.clone(), d));
    }
    let trace = OpTrace { instances };
    let got = stream_one(adm, &trace);
    assert_eq!(got, want);
    assert_eq!(
        combine_digests(got.iter().map(|(_, d)| *d)),
        combine_digests(want.iter().map(|(_, d)| *d))
    );
}

/// The journaled paths agree too, with incremental compaction slices
/// interleaving mid-replay: tiny `slice_bytes` forces many partial
/// slices, and the final digest still matches the materialized durable
/// replay byte for byte.
#[test]
fn durable_stream_matches_durable_replay_under_sliced_compaction() {
    for policy in PolicyKind::ALL {
        with_admission!(policy, adm => durable_stream_matches_under(adm));
    }
}

fn durable_stream_matches_under<A: IndexableAdmission + Copy>(adm: A) {
    let s = spec(37, 200);
    let inst = materialize(&s, 0);
    let opts = DurableOptions {
        compact_every: 16,
        slice_bytes: 96,
        ..DurableOptions::default()
    };
    let durable = |platform: &Platform, gas: &mut Gas| {
        DurableEngine::create(
            adm,
            platform,
            Augmentation::NONE,
            opts,
            Box::new(MemStorage::new()),
            gas,
            &(),
        )
        .expect("in-memory journal")
    };
    let mut gas = Gas::unlimited();
    let eng = durable(&inst.platform, &mut gas);
    let (want_stats, want_digest) = replay_ops(eng, inst.ops.iter().copied(), &mut gas, &())
        .expect("materialized durable replays");

    let trace = OpTrace {
        instances: vec![inst],
    };
    let bytes = write_op_trace_bin(&trace, Vec::new()).expect("encode");
    let mut stream = OpStream::new(&bytes[..]).expect("header");
    let summaries = replay_stream_with(&mut stream, None, |platform, ops, gas| {
        replay_ops(durable(platform, gas), ops, gas, &())
    })
    .expect("streamed durable replays");
    let [(name, replayed)] = &summaries[..] else {
        panic!("one instance, got {}", summaries.len());
    };
    let (got_stats, got_digest) = replayed.clone().expect("streamed durable replays");
    assert_eq!(name, "synth-0");
    assert_eq!(got_digest, want_digest);
    assert_eq!(got_stats.ops, want_stats.ops);
    assert_eq!(got_stats.admitted, want_stats.admitted);
    assert_eq!(got_stats.rollbacks, want_stats.rollbacks);
}

/// The from-scratch baseline replays a trace's text and HBT1 forms to
/// identical stats, instance by instance.
#[test]
fn from_scratch_stats_match_across_formats() {
    let mut s = spec(41, 160);
    s.instances = 3;
    let trace = OpTrace {
        instances: (0..s.instances).map(|i| materialize(&s, i)).collect(),
    };
    let bytes = write_op_trace_bin(&trace, Vec::new()).expect("encode");
    for policy in PolicyKind::ALL {
        with_admission!(policy, adm => {
            let want: Vec<ReplayStats> = trace
                .instances
                .iter()
                .map(|inst| replay_materialized(adm, inst, ReplayMode::FromScratch).0)
                .collect();
            let mut stream = OpStream::new(&bytes[..]).expect("header");
            let got: Vec<ReplayStats> =
                replay_stream_with(&mut stream, None, |platform, ops, gas| {
                    replay_instance(adm, platform, ops, Augmentation::NONE, ReplayMode::FromScratch, gas, &())
                })
                .expect("stream replays")
                .into_iter()
                .map(|(_, replayed)| replayed.expect("stream replays").0)
                .collect();
            assert_eq!(got, want, "{policy:?}");
            assert!(want.iter().any(|st| st.rollbacks > 0 && st.repacks > 0), "{want:?}");
        });
    }
}
