//! End-to-end tests of the `hetfeas` CLI binary.

use hetfeas::model::{parse_system, Augmentation};
use hetfeas::obs::{json, MemorySink};
use hetfeas::partition::{first_fit_ordered, EdfAdmission, ScanWorkspace};
use hetfeas::robust::Gas;
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
struct TempSystem(PathBuf);

impl TempSystem {
    fn to_str(&self) -> &str {
        self.0.to_str().expect("utf-8 temp path")
    }
}

impl Drop for TempSystem {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

fn temp_path(ext: &str) -> TempSystem {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    TempSystem(std::env::temp_dir().join(format!(
        "hetfeas-cli-test-{}-{}.{ext}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    )))
}

fn write_system(content: &str) -> TempSystem {
    let path = temp_path("txt");
    std::fs::write(&path.0, content).expect("write temp system file");
    path
}

const FEASIBLE: &str = "task 9 10\ntask 4 10\ntask 3 10\nmachine 1\nmachine 2\n";
const INFEASIBLE: &str = "task 8 10\ntask 8 10\ntask 8 10\nmachine 1\nmachine 1\n";

#[test]
fn check_feasible_exits_zero() {
    let path = write_system(FEASIBLE);
    let out = hetfeas(&["check", path.to_str(), "-v"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("FEASIBLE"));
    assert!(stdout.contains("machine 0"));
}

#[test]
fn check_infeasible_exits_one_and_cites_theorem_at_alpha_two() {
    // Five 0.9-utilization tasks on two unit machines stay infeasible even
    // at α = 2 (4 fit pairwise, the fifth does not) — so the CLI must cite
    // Theorem I.1's partitioned-infeasibility certificate.
    let path = write_system(
        "task 9 10
task 9 10
task 9 10
task 9 10
task 9 10
machine 1
machine 1
",
    );
    let out = hetfeas(&["check", path.to_str(), "--alpha", "2"]);
    assert_eq!(out.status.code(), Some(1));
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("INFEASIBLE"));
    assert!(stdout.contains("provably infeasible"), "{stdout}");
}

#[test]
fn alpha_reports_bisection_and_lp_bound() {
    let path = write_system(INFEASIBLE);
    let out = hetfeas(&["alpha", path.to_str()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("β"));
    // Known instance: α* = 1.6 (see partition unit tests).
    assert!(stdout.contains("α* = 1.6000"), "{stdout}");
}

#[test]
fn oracles_report_all_three() {
    let path = write_system(FEASIBLE);
    let out = hetfeas(&["oracles", path.to_str()]);
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("LP (migrative adversary): feasible"));
    assert!(stdout.contains("optimal partitioned EDF: feasible"));
    assert!(stdout.contains("optimal partitioned RMS"));
}

#[test]
fn simulate_reports_zero_misses() {
    let path = write_system(FEASIBLE);
    let out = hetfeas(&["simulate", path.to_str()]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("0 misses"), "{stdout}");
}

#[test]
fn generate_then_check_roundtrip() {
    let out = hetfeas(&[
        "generate",
        "--tasks",
        "8",
        "--machines",
        "4",
        "--util",
        "0.6",
        "--seed",
        "5",
    ]);
    assert!(out.status.success());
    let system = String::from_utf8(out.stdout).unwrap();
    assert!(system.lines().filter(|l| l.starts_with("task")).count() == 8);
    assert!(system.lines().filter(|l| l.starts_with("machine")).count() == 4);
    let path = write_system(&system);
    let out = hetfeas(&["check", path.to_str()]);
    assert!(
        out.status.success(),
        "generated 0.6-load system must be feasible"
    );
}

#[test]
fn bad_usage_exits_two() {
    assert_eq!(hetfeas(&[]).status.code(), Some(2));
    assert_eq!(hetfeas(&["frobnicate"]).status.code(), Some(2));
    assert_eq!(
        hetfeas(&["check", "/nonexistent/file.txt"]).status.code(),
        Some(2)
    );
    assert_eq!(hetfeas(&["check", "--alpha"]).status.code(), Some(2));
    let path = write_system("task 1 2\nbogus\nmachine 1\n");
    let out = hetfeas(&["check", path.to_str()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8(out.stderr).unwrap().contains("line 2"));
}

#[test]
fn report_flag_writes_wellformed_json_and_round_trips_counters() {
    let sys = write_system(FEASIBLE);
    let report = temp_path("json");
    let out = hetfeas(&["check", sys.to_str(), "--report", report.to_str()]);
    assert!(
        out.status.success(),
        "exit code must be unchanged by --report: {out:?}"
    );

    let text = std::fs::read_to_string(&report.0).expect("report file written");
    let v = json::parse(&text).expect("report must be well-formed JSON");

    // Stable top-level keys, in render order.
    let keys: Vec<&str> = v
        .as_object()
        .unwrap()
        .iter()
        .map(|(k, _)| k.as_str())
        .collect();
    assert_eq!(
        keys,
        vec![
            "tool",
            "version",
            "command",
            "input",
            "policy",
            "n_tasks",
            "n_machines",
            "total_utilization",
            "total_speed",
            "alpha",
            "verdict",
            "counters",
            "timers",
            "histograms",
        ],
        "top-level report keys changed"
    );
    assert_eq!(v.get("tool").unwrap().as_str(), Some("hetfeas"));
    assert_eq!(v.get("command").unwrap().as_str(), Some("check"));
    assert_eq!(v.get("verdict").unwrap().as_str(), Some("feasible"));
    assert_eq!(v.get("n_tasks").unwrap().as_u64(), Some(3));
    assert_eq!(v.get("n_machines").unwrap().as_u64(), Some(2));

    // Acceptance criterion: the reported admission-check counter equals
    // the instrumented in-process run on the same system.
    let parsed = parse_system(FEASIBLE).unwrap();
    let (tasks, platform) = (&parsed.tasks, &parsed.platform);
    let stats = MemorySink::new();
    first_fit_ordered(
        tasks,
        platform,
        Augmentation::NONE,
        &EdfAdmission,
        &tasks.order_by_decreasing_utilization(),
        &platform.order_by_increasing_speed(),
        &mut ScanWorkspace::new(),
        &mut Gas::unlimited(),
        &stats,
    );
    let counters = v.get("counters").unwrap();
    assert_eq!(
        counters.get("ff.admission_checks").unwrap().as_u64(),
        Some(stats.counter("ff.admission_checks")),
        "reported counters diverge from the instrumented scan"
    );
    assert_eq!(
        counters.get("ff.placed").unwrap().as_u64(),
        Some(stats.counter("ff.placed"))
    );

    // The partition phase timer fired exactly once.
    let timer = v.get("timers").unwrap().get("phase.partition").unwrap();
    assert_eq!(timer.get("count").unwrap().as_u64(), Some(1));
}

#[test]
fn report_flag_keeps_infeasible_exit_code() {
    let sys = write_system(INFEASIBLE);
    let report = temp_path("json");
    let out = hetfeas(&["check", sys.to_str(), "--report", report.to_str()]);
    assert_eq!(out.status.code(), Some(1), "--report must not mask exit 1");
    let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
    assert_eq!(v.get("verdict").unwrap().as_str(), Some("infeasible"));
    assert!(v.get("failing_task").unwrap().as_u64().is_some());
}

#[test]
fn report_flag_works_for_alpha_and_simulate() {
    let sys = write_system(INFEASIBLE);
    let report = temp_path("json");
    let out = hetfeas(&["alpha", sys.to_str(), "--report", report.to_str()]);
    assert!(out.status.success());
    let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
    assert_eq!(v.get("command").unwrap().as_str(), Some("alpha"));
    // Known instance: α* = 1.6 (see `alpha_reports_bisection_and_lp_bound`).
    let star = v.get("alpha_star").unwrap().as_f64().unwrap();
    assert!((star - 1.6).abs() < 1e-3, "alpha_star = {star}");
    assert!(v.get("lp_beta").unwrap().as_f64().is_some());
    let counter = |name: &str| {
        v.get("counters")
            .unwrap()
            .get(name)
            .unwrap_or_else(|| panic!("no counter {name}"))
            .as_u64()
            .unwrap()
    };
    // Three 0.8 tasks on two unit machines: α = 1 fails on the total
    // load and α = 64 fits by the first-fit bound, so both are bounded.
    let (probes, bounded) = (counter("alpha.probes"), counter("alpha.probes_bounded"));
    assert!(probes >= 1);
    assert!(
        (2..probes).contains(&bounded),
        "{bounded} of {probes} probes bounded"
    );

    let sys = write_system(FEASIBLE);
    let report = temp_path("json");
    let out = hetfeas(&["simulate", sys.to_str(), "--report", report.to_str()]);
    assert!(out.status.success());
    let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
    assert_eq!(v.get("command").unwrap().as_str(), Some("simulate"));
    assert_eq!(v.get("verdict").unwrap().as_str(), Some("clean"));
    assert_eq!(v.get("miss_count").unwrap().as_u64(), Some(0));
    assert!(v.get("jobs_completed").unwrap().as_u64().unwrap() > 0);
    let timers = v.get("timers").unwrap();
    assert!(timers.get("phase.partition").is_some());
    assert!(timers.get("phase.simulate").is_some());
}

/// A system with no tasks: `check` prints `ΣU = 0.000`, not `-0.000`,
/// both commands report a `total_utilization` of +0, and `alpha` prints
/// no overhead ratio against an LP bound β of 0.
#[test]
fn a_system_without_tasks_has_a_positive_zero_load_and_no_overhead_ratio() {
    let sys = write_system("machine 1\n");
    for cmd in ["check", "alpha"] {
        let report = temp_path("json");
        let out = hetfeas(&[cmd, sys.to_str(), "--report", report.to_str()]);
        assert!(out.status.success(), "{cmd}: {out:?}");
        let stdout = String::from_utf8(out.stdout).unwrap();
        assert!(!stdout.contains("-0.000"), "{cmd}: {stdout}");
        if cmd == "check" {
            assert!(stdout.contains("(ΣU = 0.000)"), "{stdout}");
        } else {
            assert!(stdout.contains("α* = 1.0000"), "{stdout}");
            assert!(!stdout.contains("overhead"), "{stdout}");
        }
        let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
        let total = v.get("total_utilization").unwrap().as_f64().unwrap();
        assert!(
            total == 0.0 && total.is_sign_positive(),
            "{cmd}: total_utilization {total}"
        );
    }
}

#[test]
fn report_error_paths_exit_two_without_partial_file() {
    // Unreadable input: exit 2, no report file.
    let report = temp_path("json");
    let out = hetfeas(&[
        "check",
        "/nonexistent/file.txt",
        "--report",
        report.to_str(),
    ]);
    assert_eq!(out.status.code(), Some(2));
    assert!(
        !report.0.exists(),
        "error run must not leave a partial report"
    );

    // Empty system file (no machines): parse error, exit 2, no report.
    let sys = write_system("");
    let report = temp_path("json");
    let out = hetfeas(&["check", sys.to_str(), "--report", report.to_str()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!report.0.exists());

    // Invalid system line: same contract.
    let sys = write_system("task 1 2\nbogus\nmachine 1\n");
    let report = temp_path("json");
    let out = hetfeas(&["alpha", sys.to_str(), "--report", report.to_str()]);
    assert_eq!(out.status.code(), Some(2));
    assert!(!report.0.exists());

    // --report with no value is a usage error.
    let sys = write_system(FEASIBLE);
    assert_eq!(
        hetfeas(&["check", sys.to_str(), "--report"]).status.code(),
        Some(2)
    );
}

#[test]
fn policy_flag_selects_admission() {
    // A pair of 0.45-utilization tasks on one machine: EDF ok, RMS-LL not.
    let path = write_system("task 45 100\ntask 45 100\nmachine 1\n");
    assert!(hetfeas(&["check", path.to_str(), "--policy", "edf"])
        .status
        .success());
    assert_eq!(
        hetfeas(&["check", path.to_str(), "--policy", "rms"])
            .status
            .code(),
        Some(1)
    );
    // Exact RTA admission also rejects (0.9 > LL? exact RM: equal periods,
    // R2 = 90 ≤ 100 — actually schedulable!).
    assert!(hetfeas(&["check", path.to_str(), "--policy", "rms-rta"])
        .status
        .success());
}

/// A seeded wide system (n = 300 tasks, m = 150 machines with integer
/// speeds 1..=4) loaded to `load` of the platform's total speed.
fn seeded_system(seed: u64, load: f64) -> String {
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        s ^= s << 13;
        s ^= s >> 7;
        s ^= s << 17;
        s
    };
    let speeds: Vec<u64> = (0..150).map(|_| 1 + next() % 4).collect();
    let per_task = load * speeds.iter().sum::<u64>() as f64 / 300.0;
    let mut text = String::new();
    for _ in 0..300 {
        let p = [100u64, 200, 250, 400, 500, 1000][(next() % 6) as usize];
        // Utilizations spread over (0, 2·per_task), below the top speed.
        let u = (per_task * 2.0 * (next() % 1000 + 1) as f64 / 1001.0).min(3.5);
        text.push_str(&format!("task {} {p}\n", ((u * p as f64) as u64).max(1)));
    }
    for s in speeds {
        text.push_str(&format!("machine {s}\n"));
    }
    text
}

/// `check` and `alpha` answer exactly what the in-process reference
/// first-fit and bisection answer, for every indexable policy, on systems
/// wide enough to span many index blocks.
#[test]
fn check_and_alpha_match_the_reference_on_wide_systems() {
    use hetfeas::partition::{
        first_fit, min_feasible_alpha, AdmissionTest, Outcome, RmsHyperbolicAdmission,
        RmsLlAdmission,
    };
    fn reference<A: AdmissionTest>(text: &str, a: &A) -> (Option<u64>, Option<f64>) {
        let sys = parse_system(text).unwrap();
        let failing = match first_fit(&sys.tasks, &sys.platform, Augmentation::NONE, a) {
            Outcome::Infeasible(w) => Some(w.failing_task as u64),
            _ => None,
        };
        let star = min_feasible_alpha(&sys.tasks, &sys.platform, a, 64.0, 1e-6);
        (failing, star)
    }
    let mut verdicts = [0usize; 2];
    for (seed, load) in [(1u64, 0.8), (2, 0.97), (3, 1.05)] {
        let text = seeded_system(seed, load);
        let sys = write_system(&text);
        for (policy, (failing, star)) in [
            ("edf", reference(&text, &EdfAdmission)),
            ("rms", reference(&text, &RmsLlAdmission)),
            ("rms-hyp", reference(&text, &RmsHyperbolicAdmission)),
        ] {
            let ctx = format!("seed {seed}, load {load}, policy {policy}");
            let report = temp_path("json");
            let out = hetfeas(&[
                "check",
                sys.to_str(),
                "--policy",
                policy,
                "--report",
                report.to_str(),
            ]);
            let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
            let got = v.get("failing_task").and_then(|t| t.as_u64());
            assert_eq!(got, failing, "check failing task ({ctx})");
            assert_eq!(
                out.status.code(),
                Some(i32::from(failing.is_some())),
                "check exit code ({ctx})"
            );
            verdicts[usize::from(failing.is_some())] += 1;

            let report = temp_path("json");
            let out = hetfeas(&[
                "alpha",
                sys.to_str(),
                "--policy",
                policy,
                "--report",
                report.to_str(),
            ]);
            assert_eq!(out.status.code(), Some(i32::from(star.is_none())), "{ctx}");
            let v = json::parse(&std::fs::read_to_string(&report.0).unwrap()).unwrap();
            let got = v.get("alpha_star").and_then(|a| a.as_f64());
            match (got, star) {
                (Some(g), Some(s)) => assert!((g - s).abs() <= 2e-6, "α* {g} vs {s} ({ctx})"),
                (None, None) => {}
                other => panic!("α* satisfiability differs: {other:?} ({ctx})"),
            }
        }
    }
    assert!(
        verdicts[0] > 0 && verdicts[1] > 0,
        "the systems must exercise both verdicts: {verdicts:?}"
    );
}
