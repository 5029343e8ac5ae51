//! Compact binary op-trace format (`.hbt`) with streaming readers.
//!
//! The text op-trace format ([`super::parse_op_trace`]) is convenient to
//! write by hand but hopeless at scale: a 10M-op trace is hundreds of
//! megabytes of text and the parser materializes every instance before
//! replay can start. This module defines the binary twin used by
//! `hetfeas trace synth|convert` and `hetfeas ops --trace`:
//!
//! ```text
//! file   := magic version frame*
//! magic  := "HBT1"            (4 bytes)
//! version:= 0x01              (1 byte)
//! frame  := len:u32le crc:u32le payload   (crc32 of payload only)
//! payload:= record+           (records never span frames)
//! record := tag:u8 fields*    (fields are LEB128 varints)
//! ```
//!
//! Record tags:
//!
//! | tag  | record   | fields                                          |
//! |------|----------|--------------------------------------------------|
//! | 0x01 | begin    | name_len, name bytes, m, m × (numer, denom)      |
//! | 0x02 | add      | id, wcet, period, deadline (0 ⇒ implicit)        |
//! | 0x03 | remove   | id                                               |
//! | 0x04 | query    | id                                               |
//! | 0x05 | snapshot | —                                                |
//! | 0x06 | rollback | —                                                |
//! | 0x07 | repack   | —                                                |
//! | 0x08 | end      | —                                                |
//!
//! [`OpStream`] is the pull-based reader: it holds at most one frame in
//! memory (≤ [`MAX_FRAME_LEN`] bytes) regardless of trace length, and it
//! enforces the same structural invariants as the text parser — rollback
//! needs a prior snapshot in the same instance, ops and `end` only inside
//! `begin`/`end`, no nested `begin` — incrementally as records are pulled.
//! Torn or corrupt tails (truncated frame, bad CRC, bogus varint, EOF
//! mid-instance) surface as [`BinTraceError::Corrupt`], never a panic or
//! a silently shortened trace: a trace file is an input, not a journal, so
//! damage is an error rather than a truncation point.

/// CRC32 of `data` (IEEE, as used for frame checksums) — the workspace's
/// one implementation, re-exported here for existing callers.
pub use crate::crc::crc32;
use crate::error::ModelError;
use crate::machine::{Machine, Platform};
use crate::ratio::Ratio;
use crate::task::Task;
use core::fmt;
use std::io::{self, Read, Write};

use super::{OpTrace, TraceInstance, TraceOp};

/// File magic: the first four bytes of every binary trace.
pub const HBT_MAGIC: [u8; 4] = *b"HBT1";
/// Current format version (fifth byte of the header).
pub const HBT_VERSION: u8 = 1;
/// Upper bound on a single frame's payload; readers reject larger frames
/// before allocating, so hostile length prefixes cannot balloon memory.
pub const MAX_FRAME_LEN: usize = 4 << 20;
/// Writers close a frame at the first record boundary past this size.
const FRAME_TARGET: usize = 64 << 10;

const TAG_BEGIN: u8 = 0x01;
const TAG_ADD: u8 = 0x02;
const TAG_REMOVE: u8 = 0x03;
const TAG_QUERY: u8 = 0x04;
const TAG_SNAPSHOT: u8 = 0x05;
const TAG_ROLLBACK: u8 = 0x06;
const TAG_REPACK: u8 = 0x07;
const TAG_END: u8 = 0x08;

/// Errors from reading or writing binary traces.
#[derive(Debug)]
pub enum BinTraceError {
    /// The underlying reader/writer failed.
    Io(io::Error),
    /// The bytes are not a well-formed trace (bad magic, torn frame, CRC
    /// mismatch, bogus varint, structural violation, EOF mid-instance).
    Corrupt {
        /// Absolute byte offset of the frame (or header) being decoded.
        offset: u64,
        /// Explanation.
        message: String,
    },
    /// Decoded values describe invalid model objects (zero period, …).
    Model(ModelError),
}

impl fmt::Display for BinTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BinTraceError::Io(e) => write!(f, "trace io error: {e}"),
            BinTraceError::Corrupt { offset, message } => {
                write!(f, "corrupt trace at byte {offset}: {message}")
            }
            BinTraceError::Model(e) => write!(f, "invalid trace object: {e}"),
        }
    }
}

impl std::error::Error for BinTraceError {}

impl From<io::Error> for BinTraceError {
    fn from(e: io::Error) -> Self {
        BinTraceError::Io(e)
    }
}

impl From<ModelError> for BinTraceError {
    fn from(e: ModelError) -> Self {
        BinTraceError::Model(e)
    }
}

fn corrupt(offset: u64, message: impl Into<String>) -> BinTraceError {
    BinTraceError::Corrupt {
        offset,
        message: message.into(),
    }
}

fn put_varint(buf: &mut Vec<u8>, mut v: u128) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.push(byte);
            return;
        }
        buf.push(byte | 0x80);
    }
}

fn put_varint64(buf: &mut Vec<u8>, v: u64) {
    put_varint(buf, v as u128);
}

/// Decode one LEB128 varint from `buf[*pos..]`, advancing `*pos`.
fn take_varint(buf: &[u8], pos: &mut usize, offset: u64) -> Result<u128, BinTraceError> {
    let mut out: u128 = 0;
    let mut shift = 0u32;
    loop {
        let &byte = buf
            .get(*pos)
            .ok_or_else(|| corrupt(offset, "varint runs past the frame"))?;
        *pos += 1;
        // 19 × 7 = 133 bits: the final byte may only carry the low bits.
        if shift >= 126 && byte > 0x03 {
            return Err(corrupt(offset, "varint overflows u128"));
        }
        out |= u128::from(byte & 0x7F) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

fn take_varint64(buf: &[u8], pos: &mut usize, offset: u64) -> Result<u64, BinTraceError> {
    let v = take_varint(buf, pos, offset)?;
    u64::try_from(v).map_err(|_| corrupt(offset, "varint overflows u64"))
}

fn put_ratio(buf: &mut Vec<u8>, r: Ratio) {
    // Machine speeds are strictly positive and normalized, so both parts
    // fit an unsigned varint.
    put_varint(buf, r.numer() as u128);
    put_varint(buf, r.denom() as u128);
}

fn encode_op(buf: &mut Vec<u8>, op: &TraceOp) {
    match op {
        TraceOp::Add { id, task } => {
            buf.push(TAG_ADD);
            put_varint64(buf, *id);
            put_varint64(buf, task.wcet());
            put_varint64(buf, task.period());
            let d = if task.is_implicit_deadline() {
                0
            } else {
                task.deadline()
            };
            put_varint64(buf, d);
        }
        TraceOp::Remove { id } => {
            buf.push(TAG_REMOVE);
            put_varint64(buf, *id);
        }
        TraceOp::Query { id } => {
            buf.push(TAG_QUERY);
            put_varint64(buf, *id);
        }
        TraceOp::Snapshot => buf.push(TAG_SNAPSHOT),
        TraceOp::Rollback => buf.push(TAG_ROLLBACK),
        TraceOp::Repack => buf.push(TAG_REPACK),
    }
}

/// Streaming writer: records are buffered into CRC-framed batches and
/// flushed at record boundaries, so emitting a million-op trace needs
/// O(frame) memory. Call [`TraceWriter::finish`] to flush the final
/// frame — dropping the writer without it loses buffered records.
pub struct TraceWriter<W: Write> {
    out: W,
    buf: Vec<u8>,
    in_instance: bool,
    has_snapshot: bool,
}

impl<W: Write> TraceWriter<W> {
    /// Write the header and return a writer positioned before the first
    /// instance.
    pub fn new(mut out: W) -> io::Result<Self> {
        out.write_all(&HBT_MAGIC)?;
        out.write_all(&[HBT_VERSION])?;
        Ok(TraceWriter {
            out,
            buf: Vec::with_capacity(FRAME_TARGET + 256),
            in_instance: false,
            has_snapshot: false,
        })
    }

    fn flush_frame(&mut self) -> io::Result<()> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let len = u32::try_from(self.buf.len()).expect("frame below MAX_FRAME_LEN");
        let crc = crc32(&self.buf);
        self.out.write_all(&len.to_le_bytes())?;
        self.out.write_all(&crc.to_le_bytes())?;
        self.out.write_all(&self.buf)?;
        self.buf.clear();
        Ok(())
    }

    fn maybe_flush(&mut self) -> io::Result<()> {
        if self.buf.len() >= FRAME_TARGET {
            self.flush_frame()?;
        }
        Ok(())
    }

    /// Open an instance (the binary twin of `begin <name>` + its
    /// `machine` lines).
    ///
    /// # Panics
    /// If an instance is already open — the writer enforces the same
    /// structure the reader checks, so misuse fails loudly at write time.
    pub fn begin_instance(&mut self, name: &str, platform: &Platform) -> io::Result<()> {
        assert!(!self.in_instance, "begin inside an open instance");
        self.in_instance = true;
        self.has_snapshot = false;
        self.buf.push(TAG_BEGIN);
        put_varint(&mut self.buf, name.len() as u128);
        self.buf.extend_from_slice(name.as_bytes());
        put_varint(&mut self.buf, platform.len() as u128);
        for m in platform.iter() {
            put_ratio(&mut self.buf, m.speed());
        }
        self.maybe_flush()
    }

    /// Append one operation to the open instance.
    ///
    /// # Panics
    /// If no instance is open, or on `Rollback` before any `Snapshot` in
    /// this instance (the text parser rejects the same trace).
    pub fn op(&mut self, op: &TraceOp) -> io::Result<()> {
        assert!(self.in_instance, "op outside begin/end");
        match op {
            TraceOp::Snapshot => self.has_snapshot = true,
            TraceOp::Rollback => {
                assert!(self.has_snapshot, "rollback before any snapshot");
            }
            _ => {}
        }
        encode_op(&mut self.buf, op);
        self.maybe_flush()
    }

    /// Close the open instance.
    ///
    /// # Panics
    /// If no instance is open.
    pub fn end_instance(&mut self) -> io::Result<()> {
        assert!(self.in_instance, "end outside an instance");
        self.in_instance = false;
        self.buf.push(TAG_END);
        self.maybe_flush()
    }

    /// Flush the final frame and return the underlying writer.
    ///
    /// # Panics
    /// If an instance is still open (the trace would be torn by
    /// construction).
    pub fn finish(mut self) -> io::Result<W> {
        assert!(!self.in_instance, "finish with an open instance");
        self.flush_frame()?;
        self.out.flush()?;
        Ok(self.out)
    }
}

/// One event pulled from an [`OpStream`].
#[derive(Debug, Clone, PartialEq)]
pub enum TraceEvent {
    /// An instance opened: its name and platform.
    Begin {
        /// Name from the begin record (reporting only).
        name: String,
        /// The machines its operations run against.
        platform: Platform,
    },
    /// One operation inside the open instance.
    Op(TraceOp),
    /// The open instance closed.
    End,
}

/// Pull-based binary trace reader: holds one frame (≤ [`MAX_FRAME_LEN`])
/// plus decode state, independent of trace length. This is the bounded-RSS
/// half of the streaming replay path.
pub struct OpStream<R: Read> {
    src: R,
    /// Current frame payload and the decode cursor into it.
    frame: Vec<u8>,
    pos: usize,
    /// Absolute offset of the current frame's payload (diagnostics).
    frame_offset: u64,
    /// Absolute offset of the next unread byte in `src`.
    offset: u64,
    in_instance: bool,
    has_snapshot: bool,
    /// Set after an error or clean EOF; further pulls return None/Err.
    done: bool,
}

impl<R: Read> OpStream<R> {
    /// Read and validate the file header.
    pub fn new(mut src: R) -> Result<Self, BinTraceError> {
        let mut header = [0u8; 5];
        read_exact_or(&mut src, &mut header, 0, "truncated header")?;
        if header[..4] != HBT_MAGIC {
            return Err(corrupt(0, "bad magic (not an HBT binary trace)"));
        }
        if header[4] != HBT_VERSION {
            return Err(corrupt(
                4,
                format!("unsupported version {} (expected {HBT_VERSION})", header[4]),
            ));
        }
        Ok(OpStream {
            src,
            frame: Vec::new(),
            pos: 0,
            frame_offset: 5,
            offset: 5,
            in_instance: false,
            has_snapshot: false,
            done: false,
        })
    }

    /// Pull the next frame; `Ok(false)` on clean EOF at a frame boundary.
    fn next_frame(&mut self) -> Result<bool, BinTraceError> {
        let mut head = [0u8; 8];
        match read_header(&mut self.src, &mut head) {
            HeaderRead::Eof => return Ok(false),
            HeaderRead::Torn => {
                return Err(corrupt(self.offset, "torn frame header at end of trace"))
            }
            HeaderRead::Err(e) => return Err(e.into()),
            HeaderRead::Full => {}
        }
        let len = u32::from_le_bytes(head[0..4].try_into().expect("4 bytes")) as usize;
        let crc = u32::from_le_bytes(head[4..8].try_into().expect("4 bytes"));
        if len == 0 || len > MAX_FRAME_LEN {
            return Err(corrupt(self.offset, format!("bad frame length {len}")));
        }
        self.frame.resize(len, 0);
        let payload_offset = self.offset + 8;
        read_exact_or(
            &mut self.src,
            &mut self.frame,
            payload_offset,
            "torn frame payload at end of trace",
        )?;
        if crc32(&self.frame) != crc {
            return Err(corrupt(self.offset, "frame CRC mismatch"));
        }
        self.frame_offset = payload_offset;
        self.offset = payload_offset + len as u64;
        self.pos = 0;
        Ok(true)
    }

    /// Decode the next event, or `Ok(None)` at a clean end of trace.
    ///
    /// After any error the stream is poisoned: further calls return the
    /// terminal state (`None`), so a driver loop cannot spin on damage.
    pub fn next_event(&mut self) -> Result<Option<TraceEvent>, BinTraceError> {
        if self.done {
            return Ok(None);
        }
        match self.next_event_inner() {
            Ok(Some(ev)) => Ok(Some(ev)),
            Ok(None) => {
                self.done = true;
                Ok(None)
            }
            Err(e) => {
                self.done = true;
                Err(e)
            }
        }
    }

    fn next_event_inner(&mut self) -> Result<Option<TraceEvent>, BinTraceError> {
        if self.pos >= self.frame.len() && !self.next_frame()? {
            if self.in_instance {
                return Err(corrupt(self.offset, "trace ends inside an instance"));
            }
            return Ok(None);
        }
        let off = self.frame_offset;
        let buf = std::mem::take(&mut self.frame);
        let result = self.decode_record(&buf, off);
        self.frame = buf;
        result.map(Some)
    }

    fn decode_record(&mut self, buf: &[u8], off: u64) -> Result<TraceEvent, BinTraceError> {
        let pos = &mut self.pos;
        let tag = buf[*pos];
        *pos += 1;
        let structural = |want_open: bool, what: &str| -> Result<(), BinTraceError> {
            if self.in_instance != want_open {
                let msg = if want_open {
                    format!("{what} outside begin/end")
                } else {
                    format!("{what} inside an open instance")
                };
                return Err(corrupt(off, msg));
            }
            Ok(())
        };
        match tag {
            TAG_BEGIN => {
                structural(false, "begin")?;
                let name_len = take_varint(buf, pos, off)? as usize;
                if name_len > buf.len().saturating_sub(*pos) {
                    return Err(corrupt(off, "instance name runs past the frame"));
                }
                let name = std::str::from_utf8(&buf[*pos..*pos + name_len])
                    .map_err(|_| corrupt(off, "instance name is not UTF-8"))?
                    .to_string();
                *pos += name_len;
                let m = take_varint(buf, pos, off)? as usize;
                // Each machine costs ≥ 2 bytes, so m is bounded by the
                // remaining frame — reject before reserving.
                if m > buf.len().saturating_sub(*pos) {
                    return Err(corrupt(off, "machine count runs past the frame"));
                }
                let mut machines = Vec::with_capacity(m);
                for _ in 0..m {
                    let numer = take_ratio_part(buf, pos, off, "speed numerator")?;
                    let denom = take_ratio_part(buf, pos, off, "speed denominator")?;
                    if denom == 0 {
                        return Err(corrupt(off, "speed denominator is zero"));
                    }
                    machines.push(Machine::new(Ratio::new(numer, denom))?);
                }
                self.in_instance = true;
                self.has_snapshot = false;
                Ok(TraceEvent::Begin {
                    name,
                    platform: Platform::new(machines)?,
                })
            }
            TAG_ADD => {
                structural(true, "add")?;
                let id = take_varint64(buf, pos, off)?;
                let wcet = take_varint64(buf, pos, off)?;
                let period = take_varint64(buf, pos, off)?;
                let deadline = take_varint64(buf, pos, off)?;
                let task = if deadline == 0 {
                    Task::implicit(wcet, period)?
                } else {
                    Task::constrained(wcet, period, deadline)?
                };
                Ok(TraceEvent::Op(TraceOp::Add { id, task }))
            }
            TAG_REMOVE => {
                structural(true, "remove")?;
                let id = take_varint64(buf, pos, off)?;
                Ok(TraceEvent::Op(TraceOp::Remove { id }))
            }
            TAG_QUERY => {
                structural(true, "query")?;
                let id = take_varint64(buf, pos, off)?;
                Ok(TraceEvent::Op(TraceOp::Query { id }))
            }
            TAG_SNAPSHOT => {
                structural(true, "snapshot")?;
                self.has_snapshot = true;
                Ok(TraceEvent::Op(TraceOp::Snapshot))
            }
            TAG_ROLLBACK => {
                structural(true, "rollback")?;
                if !self.has_snapshot {
                    return Err(corrupt(off, "rollback before any snapshot"));
                }
                Ok(TraceEvent::Op(TraceOp::Rollback))
            }
            TAG_REPACK => {
                structural(true, "repack")?;
                Ok(TraceEvent::Op(TraceOp::Repack))
            }
            TAG_END => {
                structural(true, "end")?;
                self.in_instance = false;
                Ok(TraceEvent::End)
            }
            other => Err(corrupt(off, format!("unknown record tag {other:#04x}"))),
        }
    }
}

fn take_ratio_part(
    buf: &[u8],
    pos: &mut usize,
    off: u64,
    what: &str,
) -> Result<i128, BinTraceError> {
    let v = take_varint(buf, pos, off)?;
    i128::try_from(v).map_err(|_| corrupt(off, format!("{what} overflows i128")))
}

enum HeaderRead {
    Full,
    Eof,
    Torn,
    Err(io::Error),
}

/// Read an 8-byte frame header, distinguishing clean EOF (no bytes) from
/// a torn one (some bytes).
fn read_header<R: Read>(src: &mut R, head: &mut [u8; 8]) -> HeaderRead {
    let mut got = 0;
    while got < head.len() {
        match src.read(&mut head[got..]) {
            Ok(0) => {
                return if got == 0 {
                    HeaderRead::Eof
                } else {
                    HeaderRead::Torn
                }
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return HeaderRead::Err(e),
        }
    }
    HeaderRead::Full
}

fn read_exact_or<R: Read>(
    src: &mut R,
    buf: &mut [u8],
    offset: u64,
    torn_message: &str,
) -> Result<(), BinTraceError> {
    src.read_exact(buf).map_err(|e| {
        if e.kind() == io::ErrorKind::UnexpectedEof {
            corrupt(offset, torn_message)
        } else {
            BinTraceError::Io(e)
        }
    })
}

/// True if `head` starts with the binary-trace magic — the sniff used by
/// the CLI to pick text vs binary parsing.
pub fn is_binary_trace(head: &[u8]) -> bool {
    head.len() >= 4 && head[..4] == HBT_MAGIC
}

/// Serialize a materialized trace to the binary format.
pub fn write_op_trace_bin<W: Write>(trace: &OpTrace, out: W) -> io::Result<W> {
    let mut w = TraceWriter::new(out)?;
    for inst in &trace.instances {
        w.begin_instance(&inst.name, &inst.platform)?;
        for op in &inst.ops {
            w.op(op)?;
        }
        w.end_instance()?;
    }
    w.finish()
}

/// Materialize a binary trace (the convert path; streaming replay should
/// drive [`OpStream`] directly instead).
pub fn read_op_trace_bin<R: Read>(src: R) -> Result<OpTrace, BinTraceError> {
    let mut stream = OpStream::new(src)?;
    let mut instances = Vec::new();
    let mut open: Option<TraceInstance> = None;
    while let Some(ev) = stream.next_event()? {
        match ev {
            TraceEvent::Begin { name, platform } => {
                open = Some(TraceInstance {
                    name,
                    platform,
                    ops: Vec::new(),
                });
            }
            TraceEvent::Op(op) => {
                open.as_mut()
                    .expect("stream enforces structure")
                    .ops
                    .push(op);
            }
            TraceEvent::End => {
                instances.push(open.take().expect("stream enforces structure"));
            }
        }
    }
    Ok(OpTrace { instances })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::parse_op_trace;

    const TRACE: &str = "\
begin web-tier
machine 1
machine 5/2
add 1 3 10
add 2 2 10 5
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

    fn sample_bytes() -> Vec<u8> {
        let trace = parse_op_trace(TRACE).unwrap();
        write_op_trace_bin(&trace, Vec::new()).unwrap()
    }

    #[test]
    fn roundtrips_through_binary() {
        let trace = parse_op_trace(TRACE).unwrap();
        let bytes = write_op_trace_bin(&trace, Vec::new()).unwrap();
        assert!(is_binary_trace(&bytes));
        let back = read_op_trace_bin(&bytes[..]).unwrap();
        assert_eq!(back, trace);
    }

    #[test]
    fn empty_trace_roundtrips() {
        let bytes = write_op_trace_bin(&OpTrace { instances: vec![] }, Vec::new()).unwrap();
        assert_eq!(bytes.len(), 5); // header only
        let back = read_op_trace_bin(&bytes[..]).unwrap();
        assert!(back.instances.is_empty());
    }

    #[test]
    fn streaming_events_match_materialized_ops() {
        let trace = parse_op_trace(TRACE).unwrap();
        let bytes = sample_bytes();
        let mut stream = OpStream::new(&bytes[..]).unwrap();
        for inst in &trace.instances {
            match stream.next_event().unwrap().unwrap() {
                TraceEvent::Begin { name, platform } => {
                    assert_eq!(name, inst.name);
                    assert_eq!(platform, inst.platform);
                }
                other => panic!("expected begin, got {other:?}"),
            }
            for op in &inst.ops {
                assert_eq!(stream.next_event().unwrap().unwrap(), TraceEvent::Op(*op));
            }
            assert_eq!(stream.next_event().unwrap().unwrap(), TraceEvent::End);
        }
        assert!(stream.next_event().unwrap().is_none());
        // Poisoned-done is sticky.
        assert!(stream.next_event().unwrap().is_none());
    }

    #[test]
    fn bad_magic_and_version_are_corrupt() {
        assert!(matches!(
            OpStream::new(&b"nope"[..]),
            Err(BinTraceError::Corrupt { .. })
        ));
        assert!(matches!(
            OpStream::new(&b"XBT1\x01"[..]),
            Err(BinTraceError::Corrupt { .. })
        ));
        let mut bytes = sample_bytes();
        bytes[4] = 9;
        assert!(matches!(
            OpStream::new(&bytes[..]),
            Err(BinTraceError::Corrupt { offset: 4, .. })
        ));
    }

    fn drain(bytes: &[u8]) -> Result<usize, BinTraceError> {
        let mut stream = OpStream::new(bytes)?;
        let mut n = 0;
        while stream.next_event()?.is_some() {
            n += 1;
        }
        Ok(n)
    }

    #[test]
    fn torn_tails_error_never_truncate() {
        let bytes = sample_bytes();
        // Every strict prefix past the header must fail — a trace is an
        // input file, damage is an error, not a truncation point. (The
        // bare 5-byte header alone is a legitimate empty trace.)
        assert_eq!(drain(&bytes[..5]).unwrap(), 0);
        for cut in 6..bytes.len() {
            assert!(
                drain(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes silently accepted"
            );
        }
        assert_eq!(drain(&bytes).unwrap(), 2 + 7 + 1 + 2);
    }

    #[test]
    fn corrupt_bytes_error_never_panic() {
        let bytes = sample_bytes();
        for i in 0..bytes.len() {
            for bit in [0x01u8, 0x80] {
                let mut dam = bytes.clone();
                dam[i] ^= bit;
                // Any outcome but a panic is acceptable for a flipped
                // payload bit caught by CRC — but damage in the framing
                // or payload must never *extend* the op count.
                if let Ok(n) = drain(&dam) {
                    assert!(n <= 2 + 7 + 1 + 2);
                }
            }
        }
    }

    #[test]
    fn crc_mismatch_is_detected() {
        let mut bytes = sample_bytes();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        match drain(&bytes) {
            Err(BinTraceError::Corrupt { message, .. }) => {
                assert!(message.contains("CRC"), "unexpected message {message:?}");
            }
            other => panic!("expected CRC corrupt error, got {other:?}"),
        }
    }

    #[test]
    fn structural_violations_are_corrupt() {
        // Hand-build a frame with a rollback as the first op.
        let mut payload = Vec::new();
        payload.push(TAG_BEGIN);
        put_varint(&mut payload, 1);
        payload.push(b'a');
        put_varint(&mut payload, 1); // one machine
        put_varint(&mut payload, 1); // speed 1/1
        put_varint(&mut payload, 1);
        payload.push(TAG_ROLLBACK);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&HBT_MAGIC);
        bytes.push(HBT_VERSION);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match drain(&bytes) {
            Err(BinTraceError::Corrupt { message, .. }) => {
                assert!(message.contains("rollback"), "got {message:?}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn ends_inside_instance_is_corrupt() {
        let mut payload = Vec::new();
        payload.push(TAG_BEGIN);
        put_varint(&mut payload, 1);
        payload.push(b'a');
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 1);
        put_varint(&mut payload, 1);
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&HBT_MAGIC);
        bytes.push(HBT_VERSION);
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        match drain(&bytes) {
            Err(BinTraceError::Corrupt { message, .. }) => {
                assert!(message.contains("inside an instance"), "got {message:?}");
            }
            other => panic!("expected corrupt, got {other:?}"),
        }
    }

    #[test]
    fn writer_splits_large_traces_into_frames() {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        let platform = Platform::new(vec![Machine::new(Ratio::from_integer(1)).unwrap()]).unwrap();
        w.begin_instance("big", &platform).unwrap();
        let task = Task::implicit(1, 1_000_000).unwrap();
        for id in 0..100_000u64 {
            w.op(&TraceOp::Add { id, task }).unwrap();
            w.op(&TraceOp::Remove { id }).unwrap();
        }
        w.end_instance().unwrap();
        let bytes = w.finish().unwrap();
        // Must have flushed several frames (not one giant buffer).
        assert!(bytes.len() > 2 * FRAME_TARGET);
        let n = drain(&bytes).unwrap();
        assert_eq!(n, 2 + 200_000);
    }

    #[test]
    fn varint_extremes_roundtrip() {
        let mut buf = Vec::new();
        for v in [0u128, 1, 127, 128, u64::MAX as u128, u128::MAX] {
            buf.clear();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(take_varint(&buf, &mut pos, 0).unwrap(), v);
            assert_eq!(pos, buf.len());
        }
        // An unterminated varint errors.
        let mut pos = 0;
        assert!(take_varint(&[0x80, 0x80], &mut pos, 0).is_err());
        // 20-byte varints overflow u128.
        let mut pos = 0;
        let overlong = [0xFFu8; 19]
            .iter()
            .copied()
            .chain([0x04u8])
            .collect::<Vec<_>>();
        assert!(take_varint(&overlong, &mut pos, 0).is_err());
    }
}
