//! Plain-text serialization of task systems.
//!
//! A *system file* describes tasks and machines together, one item per
//! line; `#` starts a comment. The format is deliberately trivial so
//! hand-written fixtures, generator output and the `hetfeas` CLI agree:
//!
//! ```text
//! # my system
//! task 3 10          # wcet=3 work units, period=10 ticks
//! task 2 10 5        # optional third field: constrained deadline
//! machine 1          # speed 1
//! machine 5/2        # rational speed 2.5
//! ```
//!
//! The module also defines the *op trace* format consumed by the online
//! admission replay (`hetfeas ops`): streams of add/remove/query/
//! snapshot/rollback/repack operations over independent instances — see
//! [`parse_op_trace`].

pub mod bin;

use crate::error::ModelError;
use crate::machine::{Machine, Platform};
use crate::ratio::Ratio;
use crate::task::Task;
use crate::taskset::TaskSet;
use core::fmt;

/// A parsed system file: tasks plus platform.
#[derive(Debug, Clone, PartialEq)]
pub struct System {
    /// The task set (possibly empty).
    pub tasks: TaskSet,
    /// The platform (must have at least one machine).
    pub platform: Platform,
}

/// Parse errors with line/column information.
#[derive(Debug, Clone, PartialEq)]
pub enum ParseError {
    /// A line could not be interpreted.
    Syntax {
        /// 1-based line number.
        line: usize,
        /// 1-based byte column of the offending token.
        col: usize,
        /// Explanation.
        message: String,
    },
    /// The described objects were invalid (zero period, no machines, …).
    Model(ModelError),
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ParseError::Syntax { line, col, message } => {
                write!(f, "line {line}, col {col}: {message}")
            }
            ParseError::Model(e) => write!(f, "invalid system: {e}"),
        }
    }
}

impl std::error::Error for ParseError {}

impl From<ModelError> for ParseError {
    fn from(e: ModelError) -> Self {
        ParseError::Model(e)
    }
}

fn syntax(line: usize, col: usize, message: impl Into<String>) -> ParseError {
    ParseError::Syntax {
        line,
        col,
        message: message.into(),
    }
}

/// Split the comment-stripped part of a line into whitespace-separated
/// tokens paired with their 1-based byte column in the original line, so
/// diagnostics can point at the offending token. `out` is cleared first;
/// a parser keeps one buffer for all its lines, so a line allocates
/// nothing once the buffer holds its longest line.
fn tokens_with_cols<'a>(content: &'a str, out: &mut Vec<(usize, &'a str)>) {
    out.clear();
    let mut start: Option<usize> = None;
    for (i, ch) in content.char_indices() {
        if ch.is_whitespace() {
            if let Some(s) = start.take() {
                out.push((s + 1, &content[s..i]));
            }
        } else if start.is_none() {
            start = Some(i);
        }
    }
    if let Some(s) = start {
        out.push((s + 1, &content[s..]));
    }
}

fn parse_speed(token: &str, line: usize, col: usize) -> Result<Ratio, ParseError> {
    if let Some((num, den)) = token.split_once('/') {
        let num: i128 = num
            .parse()
            .map_err(|_| syntax(line, col, format!("bad speed numerator {num:?}")))?;
        let den: i128 = den
            .parse()
            .map_err(|_| syntax(line, col, format!("bad speed denominator {den:?}")))?;
        if den == 0 {
            return Err(syntax(line, col, "speed denominator is zero"));
        }
        Ok(Ratio::new(num, den))
    } else {
        let v: i128 = token
            .parse()
            .map_err(|_| syntax(line, col, format!("bad speed {token:?}")))?;
        Ok(Ratio::from_integer(v))
    }
}

/// Parse a system file (see module docs for the format).
///
/// Hardened against hostile input: any malformed text — huge numbers,
/// NUL bytes, truncated lines, pathological whitespace — yields an
/// `Err(ParseError)` carrying the 1-based line and column of the offending
/// token; this function never panics (property-tested in
/// `tests/fuzz_io.rs`).
pub fn parse_system(input: &str) -> Result<System, ParseError> {
    let mut tasks = TaskSet::empty();
    let mut machines: Vec<Machine> = Vec::new();
    let mut toks = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        let content = raw.split('#').next().unwrap_or("");
        tokens_with_cols(content, &mut toks);
        let Some(&(kind_col, kind)) = toks.first() else {
            continue; // blank or comment-only line
        };
        match kind {
            "task" => {
                let nums = &toks[1..];
                if nums.len() != 2 && nums.len() != 3 {
                    return Err(syntax(
                        line_no,
                        kind_col,
                        "task expects: task <wcet> <period> [deadline]",
                    ));
                }
                let parse = |&(col, s): &(usize, &str), what: &str| -> Result<u64, ParseError> {
                    s.parse()
                        .map_err(|_| syntax(line_no, col, format!("bad {what} {s:?}")))
                };
                let wcet = parse(&nums[0], "wcet")?;
                let period = parse(&nums[1], "period")?;
                let task = if nums.len() == 3 {
                    Task::constrained(wcet, period, parse(&nums[2], "deadline")?)?
                } else {
                    Task::implicit(wcet, period)?
                };
                tasks.push(task);
            }
            "machine" => {
                let &(speed_col, speed) = toks
                    .get(1)
                    .ok_or_else(|| syntax(line_no, kind_col, "machine expects: machine <speed>"))?;
                if let Some(&(extra_col, _)) = toks.get(2) {
                    return Err(syntax(
                        line_no,
                        extra_col,
                        "machine takes exactly one field",
                    ));
                }
                machines.push(Machine::new(parse_speed(speed, line_no, speed_col)?)?);
            }
            other => {
                return Err(syntax(
                    line_no,
                    kind_col,
                    format!("unknown directive {other:?} (expected task/machine)"),
                ))
            }
        }
    }
    Ok(System {
        tasks,
        platform: Platform::new(machines)?,
    })
}

/// One operation in an op trace (see [`parse_op_trace`]).
///
/// `Add`/`Remove`/`Query` reference *trace ids* — arbitrary `u64`s chosen
/// by the trace author, scoped to their instance; the replay driver maps
/// them to engine task ids. `Snapshot`/`Rollback` operate a single
/// snapshot slot (a later `snapshot` overwrites it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOp {
    /// Offer `task` for admission under trace id `id`.
    Add {
        /// Trace-scoped id for later `remove`/`query` lines.
        id: u64,
        /// The task to admit.
        task: Task,
    },
    /// Remove the task added under `id`.
    Remove {
        /// Trace id given at its `add`.
        id: u64,
    },
    /// Look up which machine hosts `id`.
    Query {
        /// Trace id given at its `add`.
        id: u64,
    },
    /// Capture the engine state into the instance's snapshot slot.
    Snapshot,
    /// Restore the snapshot slot (parse-rejected before any `snapshot`).
    Rollback,
    /// Force a canonical repack.
    Repack,
}

/// One independent instance of an op trace: a platform plus its operation
/// stream. Instances share nothing — the replay driver shards them across
/// worker threads.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceInstance {
    /// Name from the `begin` line (reporting only).
    pub name: String,
    /// The machines operations run against.
    pub platform: Platform,
    /// Operations in file order.
    pub ops: Vec<TraceOp>,
}

/// A parsed op-trace file: independent instances in file order.
#[derive(Debug, Clone, PartialEq)]
pub struct OpTrace {
    /// The instances (possibly empty).
    pub instances: Vec<TraceInstance>,
}

/// Parse an *op trace* — the input of the `hetfeas ops` subcommand.
///
/// The format extends the system-file conventions (`#` comments, one item
/// per line, whitespace-separated fields). Each instance is bracketed by
/// `begin <name>` / `end`; its `machine` lines must precede its first
/// operation:
///
/// ```text
/// # two independent instances
/// begin web-tier
/// machine 1
/// machine 5/2
/// add 1 3 10          # add <id> <wcet> <period> [deadline]
/// add 2 2 10 5
/// query 1
/// snapshot
/// remove 1
/// rollback            # undo the remove
/// repack
/// end
/// begin batch-tier
/// machine 4
/// add 1 1 8
/// end
/// ```
///
/// Errors carry 1-based line/column like [`parse_system`]; `rollback`
/// before any `snapshot` in the same instance is rejected at parse time.
pub fn parse_op_trace(input: &str) -> Result<OpTrace, ParseError> {
    struct Open {
        name: String,
        machines: Vec<Machine>,
        ops: Vec<TraceOp>,
        has_snapshot: bool,
    }
    let mut instances = Vec::new();
    let mut open: Option<Open> = None;
    let mut last_line = 0usize;
    let mut toks = Vec::new();

    for (idx, raw) in input.lines().enumerate() {
        let line_no = idx + 1;
        last_line = line_no;
        let content = raw.split('#').next().unwrap_or("");
        tokens_with_cols(content, &mut toks);
        let Some(&(kind_col, kind)) = toks.first() else {
            continue;
        };
        let parse_id = |&(col, s): &(usize, &str)| -> Result<u64, ParseError> {
            s.parse()
                .map_err(|_| syntax(line_no, col, format!("bad id {s:?}")))
        };
        let arity = |want: usize, usage: &str| -> Result<(), ParseError> {
            if toks.len() != want + 1 {
                return Err(syntax(
                    line_no,
                    kind_col,
                    format!("{kind} expects: {usage}"),
                ));
            }
            Ok(())
        };
        match (kind, &mut open) {
            ("begin", Some(_)) => {
                return Err(syntax(line_no, kind_col, "begin inside an open instance"));
            }
            ("begin", slot @ None) => {
                arity(1, "begin <name>")?;
                *slot = Some(Open {
                    name: toks[1].1.to_string(),
                    machines: Vec::new(),
                    ops: Vec::new(),
                    has_snapshot: false,
                });
            }
            (_, None) => {
                return Err(syntax(
                    line_no,
                    kind_col,
                    format!("{kind:?} outside begin/end"),
                ));
            }
            ("end", slot @ Some(_)) => {
                arity(0, "end")?;
                let inst = slot.take().expect("matched Some");
                instances.push(TraceInstance {
                    name: inst.name,
                    platform: Platform::new(inst.machines)?,
                    ops: inst.ops,
                });
            }
            ("machine", Some(inst)) => {
                if !inst.ops.is_empty() {
                    return Err(syntax(
                        line_no,
                        kind_col,
                        "machine lines must precede the instance's operations",
                    ));
                }
                let &(speed_col, speed) = toks
                    .get(1)
                    .ok_or_else(|| syntax(line_no, kind_col, "machine expects: machine <speed>"))?;
                if let Some(&(extra_col, _)) = toks.get(2) {
                    return Err(syntax(
                        line_no,
                        extra_col,
                        "machine takes exactly one field",
                    ));
                }
                inst.machines
                    .push(Machine::new(parse_speed(speed, line_no, speed_col)?)?);
            }
            ("add", Some(inst)) => {
                let nums = &toks[1..];
                if nums.len() != 3 && nums.len() != 4 {
                    return Err(syntax(
                        line_no,
                        kind_col,
                        "add expects: add <id> <wcet> <period> [deadline]",
                    ));
                }
                let id = parse_id(&nums[0])?;
                let parse = |&(col, s): &(usize, &str), what: &str| -> Result<u64, ParseError> {
                    s.parse()
                        .map_err(|_| syntax(line_no, col, format!("bad {what} {s:?}")))
                };
                let wcet = parse(&nums[1], "wcet")?;
                let period = parse(&nums[2], "period")?;
                let task = if nums.len() == 4 {
                    Task::constrained(wcet, period, parse(&nums[3], "deadline")?)?
                } else {
                    Task::implicit(wcet, period)?
                };
                inst.ops.push(TraceOp::Add { id, task });
            }
            ("remove", Some(inst)) => {
                arity(1, "remove <id>")?;
                inst.ops.push(TraceOp::Remove {
                    id: parse_id(&toks[1])?,
                });
            }
            ("query", Some(inst)) => {
                arity(1, "query <id>")?;
                inst.ops.push(TraceOp::Query {
                    id: parse_id(&toks[1])?,
                });
            }
            ("snapshot", Some(inst)) => {
                arity(0, "snapshot")?;
                inst.has_snapshot = true;
                inst.ops.push(TraceOp::Snapshot);
            }
            ("rollback", Some(inst)) => {
                arity(0, "rollback")?;
                if !inst.has_snapshot {
                    return Err(syntax(
                        line_no,
                        kind_col,
                        "rollback before any snapshot in this instance",
                    ));
                }
                inst.ops.push(TraceOp::Rollback);
            }
            ("repack", Some(inst)) => {
                arity(0, "repack")?;
                inst.ops.push(TraceOp::Repack);
            }
            (other, Some(_)) => {
                return Err(syntax(
                    line_no,
                    kind_col,
                    format!(
                        "unknown directive {other:?} (expected \
                         machine/add/remove/query/snapshot/rollback/repack/end)"
                    ),
                ));
            }
        }
    }
    if open.is_some() {
        return Err(syntax(last_line, 1, "unterminated instance (missing end)"));
    }
    Ok(OpTrace { instances })
}

/// Render an op trace back to the file format ([`parse_op_trace`]
/// inverse).
pub fn render_op_trace(trace: &OpTrace) -> String {
    use core::fmt::Write as _;
    let mut out = String::new();
    for inst in &trace.instances {
        let _ = writeln!(out, "begin {}", inst.name);
        for m in inst.platform.iter() {
            let s = m.speed();
            if s.is_integer() {
                let _ = writeln!(out, "machine {}", s.numer());
            } else {
                let _ = writeln!(out, "machine {}/{}", s.numer(), s.denom());
            }
        }
        for op in &inst.ops {
            match op {
                TraceOp::Add { id, task } => {
                    if task.is_implicit_deadline() {
                        let _ = writeln!(out, "add {id} {} {}", task.wcet(), task.period());
                    } else {
                        let _ = writeln!(
                            out,
                            "add {id} {} {} {}",
                            task.wcet(),
                            task.period(),
                            task.deadline()
                        );
                    }
                }
                TraceOp::Remove { id } => {
                    let _ = writeln!(out, "remove {id}");
                }
                TraceOp::Query { id } => {
                    let _ = writeln!(out, "query {id}");
                }
                TraceOp::Snapshot => out.push_str("snapshot\n"),
                TraceOp::Rollback => out.push_str("rollback\n"),
                TraceOp::Repack => out.push_str("repack\n"),
            }
        }
        out.push_str("end\n");
    }
    out
}

/// Render a system back to the file format ([`parse_system`] inverse).
pub fn render_system(tasks: &TaskSet, platform: &Platform) -> String {
    let mut out = String::new();
    for t in tasks {
        if t.is_implicit_deadline() {
            out.push_str(&format!("task {} {}\n", t.wcet(), t.period()));
        } else {
            out.push_str(&format!(
                "task {} {} {}\n",
                t.wcet(),
                t.period(),
                t.deadline()
            ));
        }
    }
    for m in platform.iter() {
        let s = m.speed();
        if s.is_integer() {
            out.push_str(&format!("machine {}\n", s.numer()));
        } else {
            out.push_str(&format!("machine {}/{}\n", s.numer(), s.denom()));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
# demo system
task 3 10
task 2 10 5   # constrained
machine 1
machine 5/2
";

    #[test]
    fn parses_sample() {
        let sys = parse_system(SAMPLE).unwrap();
        assert_eq!(sys.tasks.len(), 2);
        assert_eq!(sys.tasks[0], Task::implicit(3, 10).unwrap());
        assert_eq!(sys.tasks[1], Task::constrained(2, 10, 5).unwrap());
        assert_eq!(sys.platform.len(), 2);
        assert_eq!(sys.platform.machine(1).speed(), Ratio::new(5, 2));
    }

    #[test]
    fn roundtrips() {
        let sys = parse_system(SAMPLE).unwrap();
        let rendered = render_system(&sys.tasks, &sys.platform);
        let back = parse_system(&rendered).unwrap();
        assert_eq!(back, sys);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let sys = parse_system("\n  # nothing\n task 1 2 # tail comment\nmachine 1\n").unwrap();
        assert_eq!(sys.tasks.len(), 1);
    }

    #[test]
    fn syntax_errors_carry_line_numbers() {
        let err = parse_system("task 1 2\nbogus 3\nmachine 1").unwrap_err();
        match err {
            ParseError::Syntax { line, col, message } => {
                assert_eq!(line, 2);
                assert_eq!(col, 1);
                assert!(message.contains("bogus"));
            }
            other => panic!("expected syntax error, got {other}"),
        }
        assert!(parse_system("task 1\nmachine 1").is_err()); // arity
        assert!(parse_system("task 1 2\nmachine 1 9").is_err()); // arity
        assert!(parse_system("task x 2\nmachine 1").is_err()); // number
        assert!(parse_system("task 1 2\nmachine 1/0").is_err()); // zero den
    }

    #[test]
    fn columns_point_at_the_offending_token() {
        // "task 1 x" — the bad period starts at byte column 8.
        match parse_system("task 1 x\nmachine 1").unwrap_err() {
            ParseError::Syntax { line, col, .. } => {
                assert_eq!((line, col), (1, 8));
            }
            other => panic!("expected syntax error, got {other}"),
        }
        // Leading whitespace shifts the column.
        match parse_system("   frob\nmachine 1").unwrap_err() {
            ParseError::Syntax { line, col, .. } => {
                assert_eq!((line, col), (1, 4));
            }
            other => panic!("expected syntax error, got {other}"),
        }
        // Extra machine field flagged at its own column.
        match parse_system("machine 1 9").unwrap_err() {
            ParseError::Syntax { col, .. } => assert_eq!(col, 11),
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn a_fifth_token_is_an_arity_error() {
        let err = |input: &str| match parse_system(input).unwrap_err() {
            ParseError::Syntax { line, col, message } => (line, col, message),
            other => panic!("expected syntax error, got {other}"),
        };
        let usage = "task expects: task <wcet> <period> [deadline]".to_string();
        assert_eq!(err("machine 1\ntask 1 2 3 4"), (2, 1, usage.clone()));
        assert_eq!(err("machine 1\ntask 1 2 3 4 5 6 7 8"), (2, 1, usage));
        let extra = "machine takes exactly one field".to_string();
        assert_eq!(err("machine 1 2 3 4"), (1, 11, extra.clone()));
        assert_eq!(err("  machine 1 2 3 4 5 6"), (1, 13, extra));
        // An op trace's longest line has five tokens; a sixth is its error.
        match parse_op_trace("begin a\nmachine 1\nadd 1 2 10 9 7\nend").unwrap_err() {
            ParseError::Syntax { line, col, message } => {
                assert_eq!((line, col), (3, 1));
                assert!(message.contains("add expects"), "{message}");
            }
            other => panic!("expected syntax error, got {other}"),
        }
        let trace = parse_op_trace("begin a\nmachine 1\nadd 1 2 10 9\nend").unwrap();
        assert_eq!(trace.instances[0].ops.len(), 1);
    }

    #[test]
    fn non_ascii_whitespace_separates_tokens() {
        // U+3000 and U+00A0 separate like a space; columns count bytes.
        let sys = parse_system("task\u{3000}3\u{a0}10\nmachine\u{2003}2").unwrap();
        assert_eq!(sys.tasks[0], Task::implicit(3, 10).unwrap());
        assert_eq!(sys.platform.len(), 1);
        match parse_system("task\u{2003}x 10\nmachine 1").unwrap_err() {
            ParseError::Syntax { line, col, .. } => assert_eq!((line, col), (1, 8)),
            other => panic!("expected syntax error, got {other}"),
        }
    }

    #[test]
    fn hostile_inputs_error_instead_of_panicking() {
        // Huge numbers that overflow u64/i128.
        assert!(parse_system("task 99999999999999999999999999 5\nmachine 1").is_err());
        assert!(parse_system("machine 170141183460469231731687303715884105728").is_err());
        // NUL bytes and control characters.
        assert!(parse_system("task\u{0} 1 2\nmachine 1").is_err());
        assert!(parse_system("\u{0}\nmachine 1").is_err());
        // Truncated directives.
        assert!(parse_system("task").is_err());
        assert!(parse_system("machine").is_err());
        // Deep whitespace still parses (whitespace is not hostile per se).
        let sys = parse_system("task\t\t1 \t 2\n\n\n   machine\t3\n").unwrap();
        assert_eq!(sys.tasks.len(), 1);
        assert_eq!(sys.platform.len(), 1);
        // Negative task fields are bad numbers, not panics.
        assert!(parse_system("task -1 2\nmachine 1").is_err());
    }

    #[test]
    fn model_errors_propagate() {
        assert!(matches!(
            parse_system("task 0 5\nmachine 1"),
            Err(ParseError::Model(ModelError::ZeroWcet))
        ));
        assert!(matches!(
            parse_system("task 1 5"),
            Err(ParseError::Model(ModelError::EmptyPlatform))
        ));
        assert!(matches!(
            parse_system("task 1 5\nmachine -2"),
            Err(ParseError::Model(ModelError::NonPositiveSpeed))
        ));
    }

    #[test]
    fn error_display() {
        let e = parse_system("nope").unwrap_err();
        assert!(e.to_string().starts_with("line 1, col 1:"));
        let e = parse_system("task 1 5").unwrap_err();
        assert!(e.to_string().contains("machine"));
    }

    #[test]
    fn empty_taskset_is_fine_with_machines() {
        let sys = parse_system("machine 3\n").unwrap();
        assert!(sys.tasks.is_empty());
        assert_eq!(sys.platform.len(), 1);
    }

    const TRACE: &str = "\
# two instances
begin web-tier
machine 1
machine 5/2
add 1 3 10
add 2 2 10 5   # constrained
query 1
snapshot
remove 1
rollback
repack
end

begin batch-tier
machine 4
add 7 1 8
end
";

    #[test]
    fn parses_op_trace() {
        let trace = parse_op_trace(TRACE).unwrap();
        assert_eq!(trace.instances.len(), 2);
        let a = &trace.instances[0];
        assert_eq!(a.name, "web-tier");
        assert_eq!(a.platform.len(), 2);
        assert_eq!(a.ops.len(), 7);
        assert_eq!(
            a.ops[0],
            TraceOp::Add {
                id: 1,
                task: Task::implicit(3, 10).unwrap()
            }
        );
        assert_eq!(
            a.ops[1],
            TraceOp::Add {
                id: 2,
                task: Task::constrained(2, 10, 5).unwrap()
            }
        );
        assert_eq!(a.ops[2], TraceOp::Query { id: 1 });
        assert_eq!(a.ops[3], TraceOp::Snapshot);
        assert_eq!(a.ops[4], TraceOp::Remove { id: 1 });
        assert_eq!(a.ops[5], TraceOp::Rollback);
        assert_eq!(a.ops[6], TraceOp::Repack);
        assert_eq!(trace.instances[1].name, "batch-tier");
        assert_eq!(trace.instances[1].ops.len(), 1);
    }

    #[test]
    fn op_trace_roundtrips() {
        let trace = parse_op_trace(TRACE).unwrap();
        let rendered = render_op_trace(&trace);
        assert_eq!(parse_op_trace(&rendered).unwrap(), trace);
        // Empty trace renders to nothing and parses back.
        let empty = parse_op_trace("").unwrap();
        assert!(empty.instances.is_empty());
        assert_eq!(render_op_trace(&empty), "");
    }

    #[test]
    fn op_trace_structural_errors() {
        // Ops outside begin/end.
        assert!(parse_op_trace("add 1 1 2").is_err());
        // Nested begin.
        assert!(parse_op_trace("begin a\nbegin b\nend").is_err());
        // Missing end.
        match parse_op_trace("begin a\nmachine 1\nadd 1 1 2").unwrap_err() {
            ParseError::Syntax { line, message, .. } => {
                assert_eq!(line, 3);
                assert!(message.contains("unterminated"));
            }
            other => panic!("expected syntax error, got {other}"),
        }
        // end without begin.
        assert!(parse_op_trace("end").is_err());
        // machine after the first op.
        assert!(parse_op_trace("begin a\nmachine 1\nadd 1 1 2\nmachine 2\nend").is_err());
        // rollback before any snapshot.
        assert!(parse_op_trace("begin a\nmachine 1\nrollback\nend").is_err());
        // begin needs exactly one name token.
        assert!(parse_op_trace("begin\nend").is_err());
        assert!(parse_op_trace("begin a b\nend").is_err());
        // No machines.
        assert!(matches!(
            parse_op_trace("begin a\nend"),
            Err(ParseError::Model(ModelError::EmptyPlatform))
        ));
        // Unknown directive inside an instance.
        assert!(parse_op_trace("begin a\nmachine 1\nfrob\nend").is_err());
    }

    #[test]
    fn op_trace_field_errors_carry_positions() {
        let err = parse_op_trace("begin a\nmachine 1\nadd 1 x 10\nend").unwrap_err();
        match err {
            ParseError::Syntax { line, col, message } => {
                assert_eq!((line, col), (3, 7));
                assert!(message.contains("wcet"));
            }
            other => panic!("expected syntax error, got {other}"),
        }
        assert!(parse_op_trace("begin a\nmachine 1\nadd 1 1\nend").is_err()); // arity
        assert!(parse_op_trace("begin a\nmachine 1\nremove\nend").is_err()); // arity
        assert!(parse_op_trace("begin a\nmachine 1\nsnapshot 3\nend").is_err()); // arity
        assert!(parse_op_trace("begin a\nmachine 1\nadd -1 1 2\nend").is_err()); // bad id
        assert!(parse_op_trace("begin a\nmachine 0\nadd 1 1 2\nend").is_err()); // bad speed
    }
}
