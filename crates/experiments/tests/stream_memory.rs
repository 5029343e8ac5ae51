//! Bounded-memory streaming replay. This binary holds a single test, so
//! the process's peak RSS (`VmHWM`) belongs to that test alone: a
//! million-op binary trace is written to disk and replayed through the
//! pull-based [`replay_stream`], which keeps only the live engine and one
//! decode frame resident, never the trace.

use hetfeas_experiments::{combine_digests, replay_stream};
use hetfeas_model::{Augmentation, OpStream, TraceWriter};
use hetfeas_partition::EdfAdmission;
use hetfeas_robust::Gas;
use hetfeas_workload::{synth_platform, SynthSpec, TraceSynth};
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};

/// Ceiling on the replay's peak RSS. The streamed replay peaks near
/// 4 MiB; materializing the trace first (`read_op_trace_bin` plus
/// `replay_instance`) peaks above 40 MiB.
const PEAK_RSS_CEILING: u64 = 16 << 20;

/// The process's peak resident set (`VmHWM`) in bytes, when readable.
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let kb = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: u64 = kb.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb * 1024)
}

#[test]
fn million_op_replay_streams_in_bounded_memory() {
    let spec = SynthSpec {
        seed: 42,
        machines: 8,
        ..SynthSpec::default()
    };
    assert_eq!(spec.ops_per_instance, 1 << 20);
    let path =
        std::env::temp_dir().join(format!("hetfeas-stream-memory-{}.hbt", std::process::id()));
    let file = File::create(&path).expect("create trace file");
    let mut writer = TraceWriter::new(BufWriter::new(file)).expect("trace header");
    writer
        .begin_instance("stream", &synth_platform(&spec, 0))
        .expect("begin");
    let mut synth = TraceSynth::new(&spec, 0);
    while let Some(op) = synth.next_op() {
        writer.op(&op).expect("op");
    }
    writer.end_instance().expect("end");
    writer
        .finish()
        .expect("finish")
        .flush()
        .expect("flush trace");

    let file = File::open(&path).expect("open trace");
    let mut stream = OpStream::new(BufReader::new(file)).expect("trace header");
    let summaries = replay_stream(
        &mut stream,
        EdfAdmission,
        Augmentation::NONE,
        &mut Gas::unlimited(),
        &(),
    )
    .expect("streaming replay");
    let _ = std::fs::remove_file(&path);

    let ops: u64 = summaries.iter().map(|s| s.stats.ops).sum();
    assert_eq!(ops, 1 << 20);
    let digest = combine_digests(summaries.iter().map(|s| s.digest));
    assert_eq!(format!("{digest:08x}"), "ea3daf1d");
    match peak_rss_bytes() {
        Some(peak) => assert!(
            peak < PEAK_RSS_CEILING,
            "streaming replay peaked at {:.1} MiB, ceiling {} MiB",
            peak as f64 / (1 << 20) as f64,
            PEAK_RSS_CEILING >> 20
        ),
        None => eprintln!("skipped the peak-RSS check: /proc/self/status is unreadable"),
    }
}
