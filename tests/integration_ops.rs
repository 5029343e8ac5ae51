//! End-to-end tests of the `hetfeas ops` subcommand: op-trace replay
//! through the incremental admission engine and the from-scratch
//! baseline, budget exhaustion (exit 3), and malformed traces (exit 2).

use std::path::PathBuf;
use std::process::{Command, Output};
use std::sync::atomic::{AtomicU64, Ordering};

fn hetfeas(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_hetfeas"))
        .args(args)
        .output()
        .expect("spawn hetfeas")
}

/// Self-cleaning temp file (no external tempfile crate needed).
struct TempFile(PathBuf);

impl TempFile {
    fn to_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(ext: &str) -> TempFile {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    TempFile(std::env::temp_dir().join(format!(
        "hetfeas-ops-test-{}-{}.{ext}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )))
}

fn write_trace(content: &str) -> TempFile {
    let path = temp_path("ops");
    std::fs::write(&path.0, content).expect("write temp trace");
    path
}

/// Two instances exercising every op kind the replay engine supports.
const TRACE: &str = "\
# two machines, adds with churn, speculation, and a repack
begin warm
machine 1
machine 2
add 1 1 2
add 2 1 4
query 1
snapshot
add 3 9 10
rollback
remove 2
remove 9
repack
end

begin tiny
machine 1
add 7 1 5
query 7
query 8
end
";

#[test]
fn ops_replays_a_trace_and_writes_a_report() {
    let trace = write_trace(TRACE);
    let report = temp_path("json");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--workers",
        "2",
        "--report",
        report.to_str(),
        "-v",
    ]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 instances (12 ops)"), "{stdout}");
    assert!(stdout.contains("ops replayed"), "{stdout}");
    let json = std::fs::read_to_string(&report.0).expect("report written");
    assert!(json.contains("\"verdict\": \"replayed\""), "{json}");
    assert!(json.contains("\"mode\": \"incremental\""), "{json}");
    assert!(json.contains("\"instances\": 2"), "{json}");
    assert!(json.contains("\"snapshots\": 1"), "{json}");
    assert!(json.contains("\"rollbacks\": 1"), "{json}");
}

#[test]
fn ops_incremental_and_from_scratch_agree() {
    let trace = write_trace(TRACE);
    let summary = |mode: &str| -> String {
        let out = hetfeas(&["ops", "--trace", trace.to_str(), "--mode", mode]);
        assert!(out.status.success(), "{mode}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        stdout
            .lines()
            .find(|l| l.contains("ops replayed"))
            .expect("summary line")
            .to_string()
    };
    assert_eq!(summary("incremental"), summary("from-scratch"));
}

#[test]
fn ops_tiny_budget_is_undecided_exit_three() {
    // A trace heavy enough that a 1 ms wall budget always exhausts
    // mid-replay: every `repack` is a full batch re-run over 1000 live
    // tasks, and each one polls the clock (tick_n), so the deadline is
    // observed promptly no matter how fast the host is. Both formats give
    // each of the two instances the time left of one run deadline, so
    // each is reported exhausted on its own line.
    let mut heavy = String::new();
    for name in ["heavy-a", "heavy-b"] {
        heavy.push_str(&format!("begin {name}\n"));
        for _ in 0..64 {
            heavy.push_str("machine 1\n");
        }
        for id in 0..1000u32 {
            heavy.push_str(&format!("add {id} 1 1000\n"));
        }
        for _ in 0..500 {
            heavy.push_str("repack\n");
        }
        heavy.push_str("end\n");
    }
    let trace = write_trace(&heavy);
    let bin = temp_path("hbt");
    let out = hetfeas(&["trace", "convert", trace.to_str(), "--out", bin.to_str()]);
    assert!(out.status.success(), "{out:?}");
    for path in [trace.to_str(), bin.to_str()] {
        let out = hetfeas(&["ops", "--trace", path, "--budget-ms", "1"]);
        assert_eq!(out.status.code(), Some(3), "{out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        for name in ["heavy-a", "heavy-b"] {
            let line = format!("\n  {name}: UNDECIDED — budget exhausted (wall-clock) at op ");
            assert_eq!(stdout.matches(&line).count(), 1, "{path}: {stdout}");
        }
        let summary = "\nUNDECIDED — 2 of 2 instances exhausted the budget\n";
        assert!(stdout.contains(summary), "{path}: {stdout}");
        assert_eq!(stdout.matches("UNDECIDED").count(), 3, "{path}: {stdout}");
    }
}

#[test]
fn ops_malformed_trace_exits_two() {
    let trace = write_trace("begin broken\nmachine 1\nadd nonsense\nend\n");
    let out = hetfeas(&["ops", "--trace", trace.to_str()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

fn hetfeas_env(args: &[&str], envs: &[(&str, &str)]) -> Output {
    let mut cmd = Command::new(env!("CARGO_BIN_EXE_hetfeas"));
    cmd.args(args);
    for (k, v) in envs {
        cmd.env(k, v);
    }
    cmd.output().expect("spawn hetfeas")
}

/// Single instance covering every op kind — `--journal` replays exactly
/// one instance.
const SOLO_TRACE: &str = "\
begin solo
machine 1
machine 2
add 1 1 2
add 2 1 4
snapshot
add 3 9 10
rollback
remove 2
repack
end
";

fn digest_line(stdout: &[u8], prefix: &str) -> String {
    let text = String::from_utf8(stdout.to_vec()).unwrap();
    text.lines()
        .find(|l| l.starts_with(prefix))
        .unwrap_or_else(|| panic!("no {prefix:?} line in {text}"))
        .rsplit(' ')
        .next()
        .unwrap()
        .to_string()
}

#[test]
fn journaled_ops_then_recover_round_trips_the_digest() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = digest_line(&out.stdout, "journal digest ");
    let out = hetfeas(&["recover", journal.to_str(), "-v"]);
    assert!(out.status.success(), "{out:?}");
    let recovered = digest_line(&out.stdout, "state digest ");
    assert_eq!(written, recovered, "recovery must be bit-exact");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        stdout.contains("(0 truncated, 0 bytes dropped)"),
        "{stdout}"
    );
}

#[test]
fn injected_crash_exits_two_and_the_journal_recovers() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    // 150 bytes is past the config record (~115 bytes for this platform)
    // but well inside the op stream, so the crash tears a mid-run record.
    let out = hetfeas_env(
        &[
            "ops",
            "--trace",
            trace.to_str(),
            "--journal",
            journal.to_str(),
        ],
        &[("HETFEAS_JOURNAL_CRASH_AT", "150")],
    );
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("injected fault"), "{stderr}");
    // The synced prefix recovers cleanly (exit 0), reporting the torn tail.
    let out = hetfeas(&["recover", journal.to_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("state digest "), "{stdout}");
}

#[test]
fn transient_io_errors_are_retried_to_success() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas_env(
        &[
            "ops",
            "--trace",
            trace.to_str(),
            "--journal",
            journal.to_str(),
        ],
        &[("HETFEAS_JOURNAL_TRANSIENT", "2")],
    );
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("2 retries"), "{stdout}");
}

#[test]
fn recover_on_garbage_or_missing_journal_exits_two() {
    let garbage = temp_path("journal");
    std::fs::write(&garbage.0, b"not a journal at all").unwrap();
    let out = hetfeas(&["recover", garbage.to_str()]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("no intact records"), "{stderr}");
    let out = hetfeas(&["recover", "/nonexistent/hetfeas.journal"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

#[test]
fn journal_flag_validation_exits_two() {
    // Two instances cannot share one journal.
    let trace = write_trace(TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // The from-scratch baseline has no journaled form.
    let solo = write_trace(SOLO_TRACE);
    let out = hetfeas(&[
        "ops",
        "--trace",
        solo.to_str(),
        "--journal",
        journal.to_str(),
        "--mode",
        "from-scratch",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // --compact-every is meaningless without a journal.
    let out = hetfeas(&["ops", "--trace", solo.to_str(), "--compact-every", "4"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    // recover needs a file argument.
    let out = hetfeas(&["recover"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// An HBT1 trace that is not one clean instance is refused before the
/// journal exists: exit 2, nothing on stdout, the reason on stderr, and
/// a file already at the `--journal` path keeps its bytes. Two cases: a
/// two-instance trace, and one whose first instance decodes but whose
/// tail is torn.
#[test]
fn journaled_hbt1_with_two_instances_or_a_torn_tail_is_refused_before_journaling() {
    // A second frame whose header promises 16 payload bytes but holds 3.
    let mut torn = 16u32.to_le_bytes().to_vec();
    torn.extend_from_slice(&[0, 0, 0, 0, 1, 2, 3]);
    for (text, tail, reason) in [
        (TRACE, &[][..], "holds 2"),
        (SOLO_TRACE, &torn[..], "corrupt trace"),
    ] {
        let trace = write_trace(text);
        let bin = temp_path("hbt");
        let out = hetfeas(&["trace", "convert", trace.to_str(), "--out", bin.to_str()]);
        assert!(out.status.success(), "{out:?}");
        let mut bytes = std::fs::read(&bin.0).unwrap();
        bytes.extend_from_slice(tail);
        std::fs::write(&bin.0, bytes).unwrap();
        let journal = temp_path("journal");
        std::fs::write(&journal.0, b"someone else's bytes").unwrap();
        let out = hetfeas(&[
            "ops",
            "--trace",
            bin.to_str(),
            "--journal",
            journal.to_str(),
        ]);
        assert_eq!(out.status.code(), Some(2), "{reason}: {out:?}");
        assert!(out.stdout.is_empty(), "{reason}: {out:?}");
        let stderr = String::from_utf8(out.stderr).unwrap();
        assert!(stderr.contains(reason), "{stderr}");
        assert_eq!(
            std::fs::read(&journal.0).unwrap(),
            b"someone else's bytes",
            "{reason}"
        );
    }
}

#[test]
fn compaction_keeps_the_journal_recoverable() {
    let trace = write_trace(SOLO_TRACE);
    let journal = temp_path("journal");
    let out = hetfeas(&[
        "ops",
        "--trace",
        trace.to_str(),
        "--journal",
        journal.to_str(),
        "--compact-every",
        "3",
    ]);
    assert!(out.status.success(), "{out:?}");
    let written = digest_line(&out.stdout, "journal digest ");
    let stdout = String::from_utf8(out.stdout.clone()).unwrap();
    assert!(!stdout.contains(" 0 compactions"), "{stdout}");
    let out = hetfeas(&["recover", journal.to_str()]);
    assert!(out.status.success(), "{out:?}");
    assert_eq!(digest_line(&out.stdout, "state digest "), written);
}

#[test]
fn ops_rejects_rms_rta_and_bad_mode() {
    let trace = write_trace(TRACE);
    let bin = temp_path("hbt");
    let out = hetfeas(&["trace", "convert", trace.to_str(), "--out", bin.to_str()]);
    assert!(out.status.success(), "{out:?}");
    // Both formats refuse before printing anything, naming the bad flag.
    for path in [trace.to_str(), bin.to_str()] {
        for (flag, value) in [("--policy", "rms-rta"), ("--mode", "sideways")] {
            let out = hetfeas(&["ops", "--trace", path, flag, value]);
            assert_eq!(out.status.code(), Some(2), "{out:?}");
            assert!(out.stdout.is_empty(), "{path} {flag}: {out:?}");
            let stderr = String::from_utf8(out.stderr).unwrap();
            assert!(stderr.contains(flag), "{path} {flag}: {stderr}");
        }
    }
    let out = hetfeas(&["ops"]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
}

/// The from-scratch baseline replays a trace's text and HBT1 forms to the
/// same counts.
#[test]
fn from_scratch_replays_both_formats_alike() {
    let inputs = pin_inputs();
    for (name, txt, bin) in &inputs {
        let run = |path: &str| {
            let out = hetfeas(&["ops", "--trace", path, "--mode", "from-scratch"]);
            assert!(out.status.success(), "{name}: {out:?}");
            String::from_utf8(out.stdout).unwrap()
        };
        let (text_out, bin_out) = (run(txt.to_str()), run(bin.to_str()));
        assert!(bin_out.contains("mode from-scratch"), "{bin_out}");
        assert_eq!(
            replayed_counts(&text_out),
            replayed_counts(&bin_out),
            "{name}"
        );
    }
}

/// One pinned `ops` run: the input (`trace`, `solo` or `synth`) in text
/// or HBT1 form, its flags, the exact stdout, and the report fields
/// (`key=value`, nested keys joined by `.`, timers left out).
/// `{path}` stands for the trace file and `{journal}` for the journal.
struct Pin {
    input: &'static str,
    hbt: bool,
    args: &'static [&'static str],
    stdout: &'static str,
    report: &'static str,
}

/// The three inputs in both formats: `TRACE` and `SOLO_TRACE` (between
/// them every op kind) and a three-instance synthesized trace.
fn pin_inputs() -> Vec<(&'static str, TempFile, TempFile)> {
    let convert = |from: &TempFile, to: &TempFile| {
        let out = hetfeas(&["trace", "convert", from.to_str(), "--out", to.to_str()]);
        assert!(out.status.success(), "{out:?}");
    };
    let mut inputs = Vec::new();
    for (name, text) in [("trace", TRACE), ("solo", SOLO_TRACE)] {
        let (txt, bin) = (write_trace(text), temp_path("hbt"));
        convert(&txt, &bin);
        inputs.push((name, txt, bin));
    }
    let (txt, bin) = (temp_path("ops"), temp_path("hbt"));
    let out = hetfeas(&[
        "trace",
        "synth",
        "--seed",
        "7",
        "--ops",
        "400",
        "--instances",
        "3",
        "--machines",
        "4",
        "--max-live",
        "48",
        "--out",
        bin.to_str(),
    ]);
    assert!(out.status.success(), "{out:?}");
    convert(&bin, &txt);
    inputs.push(("synth", txt, bin));
    inputs
}

fn flatten_report(prefix: &str, v: &hetfeas::obs::Json, out: &mut Vec<String>) {
    match v.as_object() {
        Some(members) => {
            for (k, m) in members {
                flatten_report(&format!("{prefix}{k}."), m, out);
            }
        }
        None => out.push(format!(
            "{}={}",
            prefix.trim_end_matches('.'),
            v.render_compact()
        )),
    }
}

/// The text after `N instances streamed, ` on an HBT1 summary line, so
/// it compares with the text format's summary line.
fn replayed_counts(stdout: &str) -> &str {
    let line = stdout
        .lines()
        .find(|l| l.contains(" ops replayed: "))
        .unwrap_or_else(|| panic!("no summary line in {stdout}"));
    line.split_once("streamed, ").map_or(line, |(_, rest)| rest)
}

#[test]
fn ops_stdout_and_reports_are_pinned() {
    let inputs = pin_inputs();
    let mut seen: Vec<(&str, bool, &[&str], String)> = Vec::new();
    for pin in PINS {
        let (_, txt, bin) = inputs
            .iter()
            .find(|(name, _, _)| *name == pin.input)
            .expect("known input");
        let path = if pin.hbt { bin.to_str() } else { txt.to_str() };
        let journal = temp_path("journal");
        let report = temp_path("json");
        let mut args = vec!["ops", "--trace", path];
        for &a in pin.args {
            args.push(a);
            if a == "--journal" {
                args.push(journal.to_str());
            }
        }
        if !pin.report.is_empty() {
            args.extend(["--report", report.to_str()]);
        }
        let out = hetfeas(&args);
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert_eq!(stdout, pin.stdout.replace("{path}", path), "{args:?}");
        if !pin.report.is_empty() {
            let text = std::fs::read_to_string(&report.0).expect("report written");
            let json = hetfeas::obs::json::parse(&text).expect("report parses");
            let mut got = Vec::new();
            flatten_report("", &json, &mut got);
            for want in pin.report.lines() {
                let want = want
                    .replace("{path}", path)
                    .replace("{journal}", journal.to_str());
                assert!(got.contains(&want), "{args:?}: report lacks {want}\n{text}");
            }
        }
        seen.push((pin.input, pin.hbt, pin.args, stdout));
    }
    // Both formats replay the same ops to the same counts.
    for (input, hbt, args, stdout) in &seen {
        if *hbt || args.contains(&"--journal") {
            continue;
        }
        if let Some((.., bin_out)) = seen
            .iter()
            .find(|(i, h, a, _)| i == input && *h && a == args)
        {
            assert_eq!(
                replayed_counts(stdout),
                replayed_counts(bin_out),
                "{input} {args:?}"
            );
        }
    }
    // The solo instance's streamed digest is what both journals record.
    let solo_hbt = &seen
        .iter()
        .find(|(i, h, a, _)| *i == "solo" && *h && a.contains(&"-v"))
        .expect("solo -v HBT1 run")
        .3;
    let streamed = solo_hbt
        .lines()
        .find_map(|l| l.strip_prefix("  solo: "))
        .and_then(|l| l.rsplit(' ').next())
        .expect("solo digest");
    for (.., stdout) in seen.iter().filter(|(_, _, a, _)| a.contains(&"--journal")) {
        assert_eq!(digest_line(stdout.as_bytes(), "journal digest "), streamed);
    }
}

const PINS: &[Pin] = &[
    Pin {
        input: "trace",
        hbt: false,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"2 instances (12 ops), policy EDF, mode incremental, 2 workers
12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: false,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"2 instances (12 ops), policy RMS (Liu–Layland), mode incremental, 2 workers
12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: false,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"2 instances (12 ops), policy RMS (hyperbolic), mode incremental, 2 workers
12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: false,
        args: &["-v", "--workers", "2"],
        stdout: r#"2 instances (12 ops), policy EDF, mode incremental, 2 workers
  warm: 9 ops, 3 admitted, 0 rejected, 1 removed, live 1
  tiny: 3 ops, 1 admitted, 0 rejected, 0 removed, live 1
12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: r#"tool="hetfeas"
version="0.1.0"
command="ops"
input="{path}"
policy="edf"
mode="incremental"
workers=2
instances=2
exhausted=0
ops=12
admitted=4
rejected=0
removed=1
remove_misses=1
query_hits=2
query_misses=1
snapshots=1
rollbacks=1
repacks=1
repacks_infeasible=0
final_live=2
verdict="replayed"
counters.engine.exact_checks=1
counters.engine.reverify_misses=0
counters.engine.tree_descents=1
counters.engine.tree_nodes=0
counters.ff.admission_checks=1
counters.ff.machines_visited=1
counters.ff.placed=1
counters.ff.workspace_allocs=3
counters.incr.adds=4
counters.incr.exact_checks=4
counters.incr.local_repairs=1
counters.incr.removes=1
counters.incr.repacks=1
counters.incr.repair_refolds=1
counters.incr.reverify_misses=0
counters.incr.rollbacks=1
counters.incr.snapshots=1
counters.incr.tree_descents=4
histograms.ff.checks_per_task.count=1
histograms.ff.checks_per_task.buckets=[[1,1]]
"#,
    },
    Pin {
        input: "trace",
        hbt: true,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (68 bytes), policy EDF, mode incremental
2 instances streamed, 12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest ce8b40c7
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: true,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (68 bytes), policy RMS (Liu–Layland), mode incremental
2 instances streamed, 12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest ce8b40c7
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: true,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (68 bytes), policy RMS (hyperbolic), mode incremental
2 instances streamed, 12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest ce8b40c7
"#,
        report: "",
    },
    Pin {
        input: "trace",
        hbt: true,
        args: &["-v", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (68 bytes), policy EDF, mode incremental
  warm: 9 ops, 3 admitted, 0 rejected, 1 removed, live 1, digest 7a0aa21a
  tiny: 3 ops, 1 admitted, 0 rejected, 0 removed, live 1, digest f99d9534
2 instances streamed, 12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest ce8b40c7
"#,
        report: r#"tool="hetfeas"
version="0.1.0"
command="ops"
input="{path}"
policy="edf"
mode="incremental"
streaming=true
trace_bytes=68
instances=2
ops=12
admitted=4
rejected=0
removed=1
remove_misses=1
query_hits=2
query_misses=1
snapshots=1
rollbacks=1
repacks=1
repacks_infeasible=0
final_live=2
combined_digest="ce8b40c7"
verdict="replayed"
counters.engine.exact_checks=1
counters.engine.reverify_misses=0
counters.engine.tree_descents=1
counters.engine.tree_nodes=0
counters.ff.admission_checks=1
counters.ff.machines_visited=1
counters.ff.placed=1
counters.ff.workspace_allocs=3
counters.incr.adds=4
counters.incr.exact_checks=4
counters.incr.local_repairs=1
counters.incr.removes=1
counters.incr.repacks=1
counters.incr.repair_refolds=1
counters.incr.reverify_misses=0
counters.incr.rollbacks=1
counters.incr.snapshots=1
counters.incr.tree_descents=4
histograms.ff.checks_per_task.count=1
histograms.ff.checks_per_task.buckets=[[1,1]]
"#,
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"1 instances (7 ops), policy EDF, mode incremental, 2 workers
7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"1 instances (7 ops), policy RMS (Liu–Layland), mode incremental, 2 workers
7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"1 instances (7 ops), policy RMS (hyperbolic), mode incremental, 2 workers
7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["-v", "--workers", "2"],
        stdout: r#"1 instances (7 ops), policy EDF, mode incremental, 2 workers
  solo: 7 ops, 3 admitted, 0 rejected, 1 removed, live 1
7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: true,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (45 bytes), policy EDF, mode incremental
1 instances streamed, 7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest 8e239141
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: true,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (45 bytes), policy RMS (Liu–Layland), mode incremental
1 instances streamed, 7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest 8e239141
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: true,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (45 bytes), policy RMS (hyperbolic), mode incremental
1 instances streamed, 7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest 8e239141
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: true,
        args: &["-v", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (45 bytes), policy EDF, mode incremental
  solo: 7 ops, 3 admitted, 0 rejected, 1 removed, live 1, digest 7a0aa21a
1 instances streamed, 7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
combined digest 8e239141
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: false,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"3 instances (1200 ops), policy EDF, mode incremental, 2 workers
1200 ops replayed: 358 admitted, 294 rejected, 290 removed (221 misses), 37 queries (21 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: false,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"3 instances (1200 ops), policy RMS (Liu–Layland), mode incremental, 2 workers
1200 ops replayed: 295 admitted, 357 rejected, 236 removed (275 misses), 37 queries (18 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: false,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"3 instances (1200 ops), policy RMS (hyperbolic), mode incremental, 2 workers
1200 ops replayed: 297 admitted, 355 rejected, 239 removed (272 misses), 37 queries (19 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: false,
        args: &["-v", "--workers", "2"],
        stdout: r#"3 instances (1200 ops), policy EDF, mode incremental, 2 workers
  synth-0: 400 ops, 128 admitted, 91 rejected, 104 removed, live 24
  synth-1: 400 ops, 115 admitted, 99 rejected, 92 removed, live 23
  synth-2: 400 ops, 115 admitted, 104 rejected, 94 removed, live 21
1200 ops replayed: 358 admitted, 294 rejected, 290 removed (221 misses), 37 queries (21 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: true,
        args: &["--policy", "edf", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (5683 bytes), policy EDF, mode incremental
3 instances streamed, 1200 ops replayed: 358 admitted, 294 rejected, 290 removed (221 misses), 37 queries (21 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
combined digest 68dd5aef
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: true,
        args: &["--policy", "rms", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (5683 bytes), policy RMS (Liu–Layland), mode incremental
3 instances streamed, 1200 ops replayed: 295 admitted, 357 rejected, 236 removed (275 misses), 37 queries (18 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
combined digest 18bb7418
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: true,
        args: &["--policy", "rms-hyp", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (5683 bytes), policy RMS (hyperbolic), mode incremental
3 instances streamed, 1200 ops replayed: 297 admitted, 355 rejected, 239 removed (272 misses), 37 queries (19 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
combined digest 5f331e31
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: true,
        args: &["-v", "--workers", "2"],
        stdout: r#"streaming binary trace {path} (5683 bytes), policy EDF, mode incremental
  synth-0: 400 ops, 128 admitted, 91 rejected, 104 removed, live 24, digest 640fe316
  synth-1: 400 ops, 115 admitted, 99 rejected, 92 removed, live 23, digest 370a8178
  synth-2: 400 ops, 115 admitted, 104 rejected, 94 removed, live 21, digest d74a1a48
3 instances streamed, 1200 ops replayed: 358 admitted, 294 rejected, 290 removed (221 misses), 37 queries (21 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
combined digest 68dd5aef
"#,
        report: "",
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["--journal"],
        stdout: r#"7 ops journaled+replayed: 3 admitted, 0 rejected, 1 removed, 1 repacks, 1 snapshots, 1 rollbacks, live 1
journal: 7 appends, 206 bytes, 7 syncs, 0 retries, 0 compactions (0 slices, 0 bytes reclaimed)
journal digest 7a0aa21a
"#,
        report: r#"tool="hetfeas"
version="0.1.0"
command="ops"
input="{path}"
policy="edf"
mode="incremental"
journal="{journal}"
workers=1
ops=7
admitted=3
rejected=0
removed=1
snapshots=1
rollbacks=1
repacks=1
final_live=1
digest="7a0aa21a"
journal_compact_slices=0
journal_bytes_reclaimed=0
verdict="replayed"
counters.engine.exact_checks=1
counters.engine.reverify_misses=0
counters.engine.tree_descents=1
counters.engine.tree_nodes=0
counters.ff.admission_checks=1
counters.ff.machines_visited=1
counters.ff.placed=1
counters.ff.workspace_allocs=3
counters.incr.adds=3
counters.incr.exact_checks=3
counters.incr.local_repairs=1
counters.incr.removes=1
counters.incr.repacks=1
counters.incr.repair_refolds=1
counters.incr.reverify_misses=0
counters.incr.rollbacks=1
counters.incr.snapshots=1
counters.incr.tree_descents=3
counters.journal.appends=7
counters.journal.bytes_written=206
counters.journal.syncs=7
histograms.ff.checks_per_task.count=1
histograms.ff.checks_per_task.buckets=[[1,1]]
"#,
    },
    Pin {
        input: "solo",
        hbt: true,
        args: &["--journal"],
        stdout: r#"streaming binary trace {path} (45 bytes), policy EDF, mode incremental
solo: 7 ops journaled+streamed: 3 admitted, 0 rejected, 1 removed, 1 repacks, 1 snapshots, 1 rollbacks, live 1
journal: 7 appends, 206 bytes, 7 syncs, 0 retries, 0 compactions (0 slices, 0 bytes reclaimed)
journal digest 7a0aa21a
"#,
        report: r#"tool="hetfeas"
version="0.1.0"
command="ops"
input="{path}"
policy="edf"
mode="incremental"
streaming=true
trace_bytes=45
journal="{journal}"
ops=7
admitted=3
rejected=0
removed=1
snapshots=1
rollbacks=1
repacks=1
final_live=1
digest="7a0aa21a"
journal_compact_slices=0
journal_bytes_reclaimed=0
verdict="replayed"
counters.engine.exact_checks=1
counters.engine.reverify_misses=0
counters.engine.tree_descents=1
counters.engine.tree_nodes=0
counters.ff.admission_checks=1
counters.ff.machines_visited=1
counters.ff.placed=1
counters.ff.workspace_allocs=3
counters.incr.adds=3
counters.incr.exact_checks=3
counters.incr.local_repairs=1
counters.incr.removes=1
counters.incr.repacks=1
counters.incr.repair_refolds=1
counters.incr.reverify_misses=0
counters.incr.rollbacks=1
counters.incr.snapshots=1
counters.incr.tree_descents=3
counters.journal.appends=7
counters.journal.bytes_written=206
counters.journal.syncs=7
histograms.ff.checks_per_task.count=1
histograms.ff.checks_per_task.buckets=[[1,1]]
"#,
    },
    Pin {
        input: "trace",
        hbt: false,
        args: &["--mode", "from-scratch", "-v", "--workers", "2"],
        stdout: r#"2 instances (12 ops), policy EDF, mode from-scratch, 2 workers
  warm: 9 ops, 3 admitted, 0 rejected, 1 removed, live 1
  tiny: 3 ops, 1 admitted, 0 rejected, 0 removed, live 1
12 ops replayed: 4 admitted, 0 rejected, 1 removed (1 misses), 3 queries (2 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: r#"tool="hetfeas"
version="0.1.0"
command="ops"
input="{path}"
policy="edf"
mode="from-scratch"
workers=2
instances=2
exhausted=0
ops=12
admitted=4
rejected=0
removed=1
remove_misses=1
query_hits=2
query_misses=1
snapshots=1
rollbacks=1
repacks=1
repacks_infeasible=0
final_live=2
verdict="replayed"
counters.engine.exact_checks=9
counters.engine.reverify_misses=0
counters.engine.tree_descents=9
counters.engine.tree_nodes=0
counters.ff.admission_checks=11
counters.ff.machines_visited=11
counters.ff.placed=9
counters.ff.workspace_allocs=6
histograms.ff.checks_per_task.count=9
histograms.ff.checks_per_task.buckets=[[1,7],[3,2]]
"#,
    },
    Pin {
        input: "solo",
        hbt: false,
        args: &["--mode", "from-scratch", "-v", "--workers", "2"],
        stdout: r#"1 instances (7 ops), policy EDF, mode from-scratch, 2 workers
  solo: 7 ops, 3 admitted, 0 rejected, 1 removed, live 1
7 ops replayed: 3 admitted, 0 rejected, 1 removed (0 misses), 0 queries (0 hits), 1 repacks (0 infeasible), 1 snapshots, 1 rollbacks
"#,
        report: "",
    },
    Pin {
        input: "synth",
        hbt: false,
        args: &["--mode", "from-scratch", "-v", "--workers", "2"],
        stdout: r#"3 instances (1200 ops), policy EDF, mode from-scratch, 2 workers
  synth-0: 400 ops, 125 admitted, 94 rejected, 99 removed, live 26
  synth-1: 400 ops, 111 admitted, 103 rejected, 88 removed, live 23
  synth-2: 400 ops, 112 admitted, 107 rejected, 93 removed, live 19
1200 ops replayed: 348 admitted, 304 rejected, 280 removed (231 misses), 37 queries (21 hits), 0 repacks (0 infeasible), 0 snapshots, 0 rollbacks
"#,
        report: "",
    },
];
