//! Wire protocol: length-prefixed frames carrying UTF-8 text commands.
//!
//! A frame is `u32 LE payload length` followed by the payload. Payloads
//! are single-line text commands (below), so the protocol is trivially
//! scriptable — a shell can emit a frame with `printf` octal escapes and
//! strip responses back to text with `tr`. Responses use the same
//! framing; every response line starts with the request's sequence
//! number so clients can reorder replies from concurrent shards. A
//! plain line-oriented mode (`--text`) exists for debugging; the smoke
//! scripts exercise both.
//!
//! Commands (one per frame):
//!
//! ```text
//! open <tenant> <policy> <alpha> <speed>[,<speed>...]
//! add <tenant> <wcet> <period> [deadline]
//! remove <tenant> <id>
//! query <tenant> <id>
//! snapshot | rollback | repack | compact <tenant>
//! digest <tenant>
//! panic <tenant>          # chaos aid: injected shard panic
//! stall <tenant> <ms>     # chaos aid: hold the shard busy
//! stats
//! quit
//! ```
//!
//! Every command may carry trailing *envelope tokens* in any order:
//!
//! ```text
//! add a 3 10 rid=42 dl=500
//! ```
//!
//! `rid=<u64>` is a client-assigned request id. Mutating commands that
//! carry one are deduplicated by the shard (a per-tenant LRU window of
//! recently acked ids), so an at-least-once retry after a torn
//! connection is *applied* exactly once; the cached reply is re-sent
//! and echoed back with the same `rid=` suffix so clients can match
//! replies across duplicated or reordered frames. `dl=<ms>` is the
//! client's remaining per-request deadline budget; the server bounds
//! its reply wait by it (clamped to `ServerConfig::reply_wait_ms`)
//! instead of holding short-deadline requests hostage to a global
//! liveness backstop.
//!
//! Deadline semantics for `add`: the optional `[deadline]` is the task's
//! *relative* deadline. Absent means implicit (`deadline = period`).
//! `deadline == 0` is rejected at the parser (a zero-length scheduling
//! window is always infeasible and almost always a client bug).
//! Constrained deadlines (`deadline < period`) are accepted and
//! admitted through the same demand-bound machinery as implicit ones;
//! `deadline > period` (arbitrary-deadline) is accepted by the parser
//! and left to the per-policy engine, which may reject it as
//! infeasible for the configured test.

use hetfeas_partition::PolicyKind;
use std::io::{self, Read, Write};

/// Upper bound on a frame payload — a command line, not a bulk upload.
pub const MAX_FRAME_LEN: u32 = 64 * 1024;

/// Write one length-prefixed frame.
pub fn write_frame(w: &mut impl Write, payload: &[u8]) -> io::Result<()> {
    let len = u32::try_from(payload.len())
        .ok()
        .filter(|&l| l <= MAX_FRAME_LEN)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidInput, "frame too long"))?;
    // One write, not two: splitting the 4-byte prefix from the payload
    // sends two small TCP segments, and Nagle holds the second until
    // the peer's delayed ACK (~40ms) when the caller writes straight to
    // a socket.
    let mut buf = Vec::with_capacity(4 + payload.len());
    buf.extend_from_slice(&len.to_le_bytes());
    buf.extend_from_slice(payload);
    w.write_all(&buf)
}

/// Read one frame; `Ok(None)` on clean EOF at a frame boundary.
pub fn read_frame(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len_buf = [0u8; 4];
    let mut filled = 0;
    while filled < 4 {
        match r.read(&mut len_buf[filled..])? {
            0 if filled == 0 => return Ok(None),
            0 => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "torn frame header",
                ))
            }
            n => filled += n,
        }
    }
    let len = u32::from_le_bytes(len_buf);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame length {len} exceeds {MAX_FRAME_LEN}"),
        ));
    }
    let mut payload = vec![0u8; len as usize];
    r.read_exact(&mut payload)?;
    Ok(Some(payload))
}

/// A parsed protocol command.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Open (create or recover) a tenant.
    Open {
        /// Tenant name.
        tenant: String,
        /// Admission policy.
        policy: PolicyKind,
        /// Speed augmentation factor (≥ 1).
        alpha: f64,
        /// Integer machine speeds.
        speeds: Vec<u64>,
    },
    /// Admit a task.
    Add {
        /// Tenant name.
        tenant: String,
        /// Worst-case execution time.
        wcet: u64,
        /// Period.
        period: u64,
        /// Relative deadline (implicit = period when absent).
        deadline: Option<u64>,
    },
    /// Remove by raw id.
    Remove {
        /// Tenant name.
        tenant: String,
        /// Raw task id from an `add` response.
        id: u64,
    },
    /// Which machine hosts an id?
    Query {
        /// Tenant name.
        tenant: String,
        /// Raw task id.
        id: u64,
    },
    /// Snapshot the tenant's engine.
    Snapshot {
        /// Tenant name.
        tenant: String,
    },
    /// Roll the tenant back to its held snapshot.
    Rollback {
        /// Tenant name.
        tenant: String,
    },
    /// Canonical repack.
    Repack {
        /// Tenant name.
        tenant: String,
    },
    /// Compact the tenant's journal.
    Compact {
        /// Tenant name.
        tenant: String,
    },
    /// Exact state digest.
    Digest {
        /// Tenant name.
        tenant: String,
    },
    /// Injected shard panic (chaos aid).
    Panic {
        /// Tenant name.
        tenant: String,
    },
    /// Hold the shard busy (chaos aid).
    Stall {
        /// Tenant name.
        tenant: String,
        /// Sleep duration in ms (capped by the server).
        ms: u64,
    },
    /// Service-wide counters.
    Stats,
    /// Clean shutdown.
    Quit,
}

fn parse_u64(s: &str, what: &str) -> Result<u64, String> {
    s.parse::<u64>().map_err(|_| format!("bad {what} '{s}'"))
}

/// A command plus its transport envelope: the optional client-assigned
/// request id (`rid=`) and remaining deadline budget (`dl=`, in ms).
#[derive(Debug, Clone, PartialEq)]
pub struct ParsedRequest {
    /// The parsed command.
    pub cmd: Command,
    /// Client-assigned idempotency token, if any.
    pub rid: Option<u64>,
    /// Client's remaining per-request deadline budget in ms, if any.
    pub deadline_ms: Option<u64>,
}

/// Parse one request line: a command followed by optional trailing
/// `rid=<u64>` / `dl=<ms>` envelope tokens (either order, at most once
/// each). `dl=0` is rejected — an already-expired budget is a client
/// bug, not a request.
pub fn parse_request(line: &str) -> Result<ParsedRequest, String> {
    let mut words: Vec<&str> = line.split_whitespace().collect();
    let mut rid = None;
    let mut deadline_ms = None;
    while let Some(last) = words.last() {
        if let Some(v) = last.strip_prefix("rid=") {
            if rid.is_some() {
                return Err("duplicate rid= token".to_string());
            }
            rid = Some(parse_u64(v, "rid")?);
        } else if let Some(v) = last.strip_prefix("dl=") {
            if deadline_ms.is_some() {
                return Err("duplicate dl= token".to_string());
            }
            let ms = parse_u64(v, "dl")?;
            if ms == 0 {
                return Err("dl must be ≥ 1 ms".to_string());
            }
            deadline_ms = Some(ms);
        } else {
            break;
        }
        words.pop();
    }
    Ok(ParsedRequest {
        cmd: parse_words(&words)?,
        rid,
        deadline_ms,
    })
}

/// Best-effort rid extraction from a line that may not parse as a
/// command — used by the server to echo `rid=` on usage-error replies
/// so a retrying client can still match them.
pub fn scavenge_rid(line: &str) -> Option<u64> {
    line.split_whitespace()
        .rev()
        .take(2)
        .find_map(|w| w.strip_prefix("rid=").and_then(|v| v.parse().ok()))
}

/// Parse one command line (no envelope tokens).
pub fn parse_command(line: &str) -> Result<Command, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    parse_words(&words)
}

fn parse_words(words: &[&str]) -> Result<Command, String> {
    let verb = *words.first().ok_or("empty command")?;
    let rest: Vec<&str> = words[1..].to_vec();
    let tenant_arg = |idx: usize| -> Result<String, String> {
        rest.get(idx)
            .map(|s| s.to_string())
            .ok_or_else(|| format!("{verb}: missing tenant"))
    };
    match verb {
        "open" => {
            if rest.len() != 4 {
                return Err("open <tenant> <policy> <alpha> <speeds>".to_string());
            }
            let policy = PolicyKind::parse(rest[1])?;
            let alpha = rest[2]
                .parse::<f64>()
                .ok()
                .filter(|a| a.is_finite() && *a >= 1.0)
                .ok_or_else(|| format!("bad alpha '{}' (need finite ≥ 1)", rest[2]))?;
            let speeds = rest[3]
                .split(',')
                .map(|s| parse_u64(s, "speed"))
                .collect::<Result<Vec<u64>, String>>()?;
            if speeds.is_empty() || speeds.contains(&0) {
                return Err("speeds must be positive integers".to_string());
            }
            Ok(Command::Open {
                tenant: rest[0].to_string(),
                policy,
                alpha,
                speeds,
            })
        }
        "add" => {
            if rest.len() < 3 || rest.len() > 4 {
                return Err("add <tenant> <wcet> <period> [deadline]".to_string());
            }
            let deadline = rest.get(3).map(|s| parse_u64(s, "deadline")).transpose()?;
            if deadline == Some(0) {
                return Err(
                    "deadline must be ≥ 1 (omit for implicit deadline = period; \
                     deadline < period means constrained-deadline admission)"
                        .to_string(),
                );
            }
            Ok(Command::Add {
                tenant: rest[0].to_string(),
                wcet: parse_u64(rest[1], "wcet")?,
                period: parse_u64(rest[2], "period")?,
                deadline,
            })
        }
        "remove" | "query" => {
            if rest.len() != 2 {
                return Err(format!("{verb} <tenant> <id>"));
            }
            let tenant = rest[0].to_string();
            let id = parse_u64(rest[1], "id")?;
            Ok(if verb == "remove" {
                Command::Remove { tenant, id }
            } else {
                Command::Query { tenant, id }
            })
        }
        "snapshot" => Ok(Command::Snapshot {
            tenant: tenant_arg(0)?,
        }),
        "rollback" => Ok(Command::Rollback {
            tenant: tenant_arg(0)?,
        }),
        "repack" => Ok(Command::Repack {
            tenant: tenant_arg(0)?,
        }),
        "compact" => Ok(Command::Compact {
            tenant: tenant_arg(0)?,
        }),
        "digest" => Ok(Command::Digest {
            tenant: tenant_arg(0)?,
        }),
        "panic" => Ok(Command::Panic {
            tenant: tenant_arg(0)?,
        }),
        "stall" => {
            if rest.len() != 2 {
                return Err("stall <tenant> <ms>".to_string());
            }
            Ok(Command::Stall {
                tenant: rest[0].to_string(),
                ms: parse_u64(rest[1], "ms")?,
            })
        }
        "stats" => Ok(Command::Stats),
        "quit" => Ok(Command::Quit),
        other => Err(format!("unknown command '{other}'")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_frame(&mut buf, b"add a 3 10").expect("write");
        write_frame(&mut buf, b"").expect("empty frame");
        let mut r = &buf[..];
        assert_eq!(
            read_frame(&mut r).expect("read"),
            Some(b"add a 3 10".to_vec())
        );
        assert_eq!(read_frame(&mut r).expect("read"), Some(Vec::new()));
        assert_eq!(read_frame(&mut r).expect("eof"), None);
    }

    #[test]
    fn torn_header_and_oversize_frames_error() {
        let mut r = &[1u8, 0][..];
        assert!(read_frame(&mut r).is_err(), "torn header");
        let huge = (MAX_FRAME_LEN + 1).to_le_bytes();
        let mut r = &huge[..];
        assert!(read_frame(&mut r).is_err(), "oversize length");
    }

    #[test]
    fn commands_parse() {
        assert_eq!(
            parse_command("open a edf 1.5 1,2,4").expect("open"),
            Command::Open {
                tenant: "a".to_string(),
                policy: PolicyKind::Edf,
                alpha: 1.5,
                speeds: vec![1, 2, 4],
            }
        );
        assert_eq!(
            parse_command("add a 3 10").expect("add"),
            Command::Add {
                tenant: "a".to_string(),
                wcet: 3,
                period: 10,
                deadline: None,
            }
        );
        assert_eq!(
            parse_command("stall a 50").expect("stall"),
            Command::Stall {
                tenant: "a".to_string(),
                ms: 50,
            }
        );
        assert_eq!(parse_command("quit").expect("quit"), Command::Quit);
        assert!(parse_command("add a 3 10 0").is_err(), "zero deadline");
        assert_eq!(
            parse_command("add a 3 10 7").expect("constrained"),
            Command::Add {
                tenant: "a".to_string(),
                wcet: 3,
                period: 10,
                deadline: Some(7),
            }
        );
        assert!(parse_command("open a edf 0.5 1").is_err(), "alpha < 1");
        assert!(
            parse_command("open a rms-rta 1 1").is_err(),
            "no rta engine"
        );
        assert!(parse_command("warp a").is_err(), "unknown verb");
        assert!(parse_command("").is_err(), "empty");
    }

    #[test]
    fn envelope_tokens_parse() {
        let req = parse_request("add a 3 10 rid=42 dl=500").expect("envelope");
        assert_eq!(req.rid, Some(42));
        assert_eq!(req.deadline_ms, Some(500));
        assert_eq!(
            req.cmd,
            Command::Add {
                tenant: "a".to_string(),
                wcet: 3,
                period: 10,
                deadline: None,
            }
        );
        // Either order; bare command still parses.
        let req = parse_request("digest a dl=9 rid=1").expect("reordered");
        assert_eq!((req.rid, req.deadline_ms), (Some(1), Some(9)));
        let req = parse_request("stats").expect("bare");
        assert_eq!((req.rid, req.deadline_ms), (None, None));
        assert!(parse_request("add a 3 10 rid=1 rid=2").is_err(), "dup rid");
        assert!(parse_request("digest a dl=0").is_err(), "expired budget");
        assert!(parse_request("digest a rid=x").is_err(), "bad rid");
        // Envelope tokens are trailing only: elsewhere they are command
        // words and fail the command's own arity check.
        assert!(parse_request("add rid=1 a 3 10").is_err(), "non-trailing");
    }
}
