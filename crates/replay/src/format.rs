//! The `.tntrace` format, version 1.
//!
//! One trace, two interchangeable encodings — a compact little-endian
//! binary layout and a line-oriented text twin — plus [`Trace::load`],
//! which auto-detects either (falling back to the `blkparse` importer
//! for foreign text). The byte-level layout is specified normatively in
//! `docs/TRACE_FORMAT.md`; this module is the reference implementation.
//! Encoding is total (any [`Trace`] serialises); decoding is strict and
//! returns a [`TraceError`] for anything malformed — a corrupt trace
//! must never panic the harness.

use std::fmt;

/// The eight magic bytes opening every binary `.tntrace` file.
pub const MAGIC: [u8; 8] = *b"TNTRACE\0";

/// The format version this crate reads and writes.
pub const FORMAT_VERSION: u16 = 1;

/// Size of the fixed binary header, in bytes.
const HEADER_LEN: usize = 32;

/// Size of one binary event record, in bytes.
const EVENT_LEN: usize = 32;

/// The kind of a recorded event.
///
/// Codes are part of the on-disk format and never reused: block-layer
/// ops live below 16, file-layer (syscall-boundary) ops at 16 and
/// above. Decoders reject unknown codes rather than skipping them.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[repr(u8)]
pub enum Op {
    /// A read command issued to the disk (`arg` = first 1 KB block,
    /// `size` = block count).
    BlockRead = 1,
    /// A write command issued to the disk (`arg` = first 1 KB block,
    /// `size` = block count).
    BlockWrite = 2,
    /// An `open(2)`/`creat(2)` that succeeded (`arg` = path-table
    /// index, `size` = 0).
    FileOpen = 16,
    /// An `unlink(2)` that succeeded (`arg` = path-table index,
    /// `size` = 0).
    FileUnlink = 17,
}

impl Op {
    /// The on-disk opcode.
    pub fn code(self) -> u8 {
        self as u8
    }

    /// Decodes an opcode; `None` for codes this version does not know.
    pub fn from_code(code: u8) -> Option<Op> {
        match code {
            1 => Some(Op::BlockRead),
            2 => Some(Op::BlockWrite),
            16 => Some(Op::FileOpen),
            17 => Some(Op::FileUnlink),
            _ => None,
        }
    }

    /// The text-encoding mnemonic (`br`, `bw`, `open`, `unlink`).
    pub fn mnemonic(self) -> &'static str {
        match self {
            Op::BlockRead => "br",
            Op::BlockWrite => "bw",
            Op::FileOpen => "open",
            Op::FileUnlink => "unlink",
        }
    }

    /// Decodes a text mnemonic.
    pub fn from_mnemonic(s: &str) -> Option<Op> {
        match s {
            "br" => Some(Op::BlockRead),
            "bw" => Some(Op::BlockWrite),
            "open" => Some(Op::FileOpen),
            "unlink" => Some(Op::FileUnlink),
            _ => None,
        }
    }

    /// Whether this is a block-layer op (as opposed to a file-layer
    /// marker).
    pub fn is_block(self) -> bool {
        matches!(self, Op::BlockRead | Op::BlockWrite)
    }
}

/// One recorded event.
///
/// The meaning of `arg` and `size` depends on [`Op`]; see the opcode
/// docs. `t` is the simulated timestamp in cycles of the modelled
/// 100 MHz Pentium, `pid` the simulated process that issued the event
/// (used to group events into per-process streams on replay).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TraceEvent {
    /// Simulated issue time, in cycles.
    pub t: u64,
    /// Simulated pid of the issuing process.
    pub pid: u32,
    /// What happened.
    pub op: Op,
    /// Block address (block ops) or path-table index (file ops).
    pub arg: u64,
    /// Block count (block ops); zero for file ops.
    pub size: u64,
}

/// A decoded trace: the interned path table plus the event sequence in
/// recorded order.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Trace {
    /// Interned paths referenced by file-layer events, ordinal order.
    pub paths: Vec<String>,
    /// Events in the order they were recorded.
    pub events: Vec<TraceEvent>,
}

/// Why a trace failed to decode.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum TraceError {
    /// The input ended before the structure it promised.
    Truncated {
        /// Bytes the header/layout called for.
        need: usize,
        /// Bytes actually present.
        have: usize,
    },
    /// The input is binary-sized but does not open with [`MAGIC`].
    BadMagic,
    /// A version this crate does not read.
    BadVersion(u16),
    /// Header flags bits are set; version 1 defines none.
    BadFlags(u16),
    /// The reserved header word is non-zero.
    BadReserved(u32),
    /// The file is larger than the header accounts for.
    TrailingBytes(usize),
    /// The path table is not a sequence of NUL-terminated UTF-8 strings.
    BadPathTable,
    /// An opcode (or its reserved high bits) this version does not know.
    BadOp {
        /// The raw 32-bit op field.
        code: u32,
        /// Zero-based index of the offending event record.
        at: usize,
    },
    /// A file-layer event referenced a path ordinal past the table.
    BadPathIndex {
        /// The out-of-range ordinal.
        index: u64,
        /// Number of paths the table holds.
        paths: usize,
    },
    /// A text-encoding line failed to parse.
    Text {
        /// One-based line number.
        line: usize,
        /// What was wrong with it.
        msg: String,
    },
    /// The input is neither binary `.tntrace`, text `.tntrace`, nor
    /// recognisable `blkparse` output.
    Unrecognized,
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::Truncated { need, have } => {
                write!(f, "truncated trace: need {need} bytes, have {have}")
            }
            TraceError::BadMagic => write!(f, "not a .tntrace file (bad magic)"),
            TraceError::BadVersion(v) => write!(f, "unsupported .tntrace version {v}"),
            TraceError::BadFlags(x) => write!(f, "unknown header flags {x:#06x}"),
            TraceError::BadReserved(x) => write!(f, "reserved header word is {x:#010x}, not zero"),
            TraceError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last event"),
            TraceError::BadPathTable => write!(f, "malformed path table"),
            TraceError::BadOp { code, at } => write!(f, "unknown op {code:#010x} at event {at}"),
            TraceError::BadPathIndex { index, paths } => {
                write!(f, "path index {index} out of range (table has {paths})")
            }
            TraceError::Text { line, msg } => write!(f, "line {line}: {msg}"),
            TraceError::Unrecognized => write!(f, "unrecognized trace encoding"),
        }
    }
}

impl std::error::Error for TraceError {}

impl Trace {
    /// Number of events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the trace holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The recorded span in cycles: latest minus earliest timestamp
    /// (zero for fewer than two events). Events need not be sorted.
    pub fn span(&self) -> u64 {
        let lo = self.events.iter().map(|e| e.t).min().unwrap_or(0);
        let hi = self.events.iter().map(|e| e.t).max().unwrap_or(0);
        hi - lo
    }

    /// Serialises to the version-1 binary encoding.
    pub fn to_bytes(&self) -> Vec<u8> {
        let path_bytes: usize = self.paths.iter().map(|p| p.len() + 1).sum();
        let mut out = Vec::with_capacity(HEADER_LEN + path_bytes + self.events.len() * EVENT_LEN);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&FORMAT_VERSION.to_le_bytes());
        out.extend_from_slice(&0u16.to_le_bytes()); // flags
        out.extend_from_slice(&(self.events.len() as u64).to_le_bytes());
        out.extend_from_slice(&(path_bytes as u64).to_le_bytes());
        out.extend_from_slice(&0u32.to_le_bytes()); // reserved
        for p in &self.paths {
            out.extend_from_slice(p.as_bytes());
            out.push(0);
        }
        for ev in &self.events {
            out.extend_from_slice(&ev.t.to_le_bytes());
            out.extend_from_slice(&(ev.op.code() as u32).to_le_bytes());
            out.extend_from_slice(&ev.pid.to_le_bytes());
            out.extend_from_slice(&ev.arg.to_le_bytes());
            out.extend_from_slice(&ev.size.to_le_bytes());
        }
        out
    }

    /// Decodes the version-1 binary encoding.
    pub fn from_bytes(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.len() < HEADER_LEN {
            return Err(TraceError::Truncated {
                need: HEADER_LEN,
                have: bytes.len(),
            });
        }
        if bytes[0..8] != MAGIC {
            return Err(TraceError::BadMagic);
        }
        let u16le = |at: usize| u16::from_le_bytes(bytes[at..at + 2].try_into().unwrap());
        let u32le = |at: usize| u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
        let u64le = |b: &[u8], at: usize| u64::from_le_bytes(b[at..at + 8].try_into().unwrap());
        let version = u16le(8);
        if version != FORMAT_VERSION {
            return Err(TraceError::BadVersion(version));
        }
        let flags = u16le(10);
        if flags != 0 {
            return Err(TraceError::BadFlags(flags));
        }
        let count = u64le(bytes, 12) as usize;
        let path_bytes = u64le(bytes, 20) as usize;
        let reserved = u32le(28);
        if reserved != 0 {
            return Err(TraceError::BadReserved(reserved));
        }
        let need = HEADER_LEN
            .checked_add(path_bytes)
            .and_then(|n| count.checked_mul(EVENT_LEN).and_then(|e| n.checked_add(e)))
            .ok_or(TraceError::BadPathTable)?;
        if bytes.len() < need {
            return Err(TraceError::Truncated {
                need,
                have: bytes.len(),
            });
        }
        if bytes.len() > need {
            return Err(TraceError::TrailingBytes(bytes.len() - need));
        }
        let table = &bytes[HEADER_LEN..HEADER_LEN + path_bytes];
        let mut paths = Vec::new();
        if !table.is_empty() {
            if *table.last().unwrap() != 0 {
                return Err(TraceError::BadPathTable);
            }
            for raw in table[..table.len() - 1].split(|&b| b == 0) {
                let s = std::str::from_utf8(raw).map_err(|_| TraceError::BadPathTable)?;
                paths.push(s.to_string());
            }
        }
        let mut events = Vec::with_capacity(count);
        for i in 0..count {
            let at = HEADER_LEN + path_bytes + i * EVENT_LEN;
            let rec = &bytes[at..at + EVENT_LEN];
            let raw_op = u32::from_le_bytes(rec[8..12].try_into().unwrap());
            let op = if raw_op <= u8::MAX as u32 {
                Op::from_code(raw_op as u8)
            } else {
                None
            }
            .ok_or(TraceError::BadOp {
                code: raw_op,
                at: i,
            })?;
            let ev = TraceEvent {
                t: u64le(rec, 0),
                pid: u32::from_le_bytes(rec[12..16].try_into().unwrap()),
                op,
                arg: u64le(rec, 16),
                size: u64le(rec, 24),
            };
            if !op.is_block() && ev.arg >= paths.len() as u64 {
                return Err(TraceError::BadPathIndex {
                    index: ev.arg,
                    paths: paths.len(),
                });
            }
            events.push(ev);
        }
        Ok(Trace { paths, events })
    }

    /// Serialises to the version-1 text encoding.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::from("tntrace v1\n");
        for p in &self.paths {
            let _ = writeln!(out, "path {p}");
        }
        for ev in &self.events {
            let _ = writeln!(
                out,
                "ev {} {} {} {} {}",
                ev.t,
                ev.pid,
                ev.op.mnemonic(),
                ev.arg,
                ev.size
            );
        }
        out
    }

    /// Decodes the version-1 text encoding.
    pub fn from_text(text: &str) -> Result<Trace, TraceError> {
        let mut saw_header = false;
        let mut trace = Trace::default();
        for (i, raw) in text.lines().enumerate() {
            let line = i + 1;
            let s = raw.trim();
            if s.is_empty() || s.starts_with('#') {
                continue;
            }
            if !saw_header {
                if s == "tntrace v1" {
                    saw_header = true;
                    continue;
                }
                return Err(TraceError::Text {
                    line,
                    msg: format!("expected header \"tntrace v1\", got {s:?}"),
                });
            }
            if let Some(p) = s.strip_prefix("path ") {
                trace.paths.push(p.to_string());
                continue;
            }
            if let Some(rest) = s.strip_prefix("ev ") {
                let mut words = rest.split_whitespace();
                let fields: [&str; 5] = std::array::from_fn(|_| words.next().unwrap_or(""));
                // A field is never empty, so the empty ones are missing.
                let count = fields.iter().filter(|f| !f.is_empty()).count() + words.count();
                if count != 5 {
                    return Err(TraceError::Text {
                        line,
                        msg: format!("ev needs 5 fields (t pid op arg size), got {count}"),
                    });
                }
                let num = |f: &str, what: &str| {
                    f.parse::<u64>().map_err(|_| TraceError::Text {
                        line,
                        msg: format!("bad {what} {f:?}"),
                    })
                };
                let op = Op::from_mnemonic(fields[2]).ok_or_else(|| TraceError::Text {
                    line,
                    msg: format!("unknown op {:?}", fields[2]),
                })?;
                trace.events.push(TraceEvent {
                    t: num(fields[0], "timestamp")?,
                    pid: num(fields[1], "pid")? as u32,
                    op,
                    arg: num(fields[3], "arg")?,
                    size: num(fields[4], "size")?,
                });
                continue;
            }
            return Err(TraceError::Text {
                line,
                msg: format!("unknown directive {s:?}"),
            });
        }
        if !saw_header {
            return Err(TraceError::Text {
                line: 1,
                msg: "missing \"tntrace v1\" header".into(),
            });
        }
        for (i, ev) in trace.events.iter().enumerate() {
            if !ev.op.is_block() && ev.arg >= trace.paths.len() as u64 {
                return Err(TraceError::Text {
                    line: 0,
                    msg: format!(
                        "event {i}: path index {} out of range (table has {})",
                        ev.arg,
                        trace.paths.len()
                    ),
                });
            }
        }
        Ok(trace)
    }

    /// Decodes any supported encoding: binary `.tntrace` (by magic),
    /// text `.tntrace` (by header line), or `blkparse` text (fallback
    /// via [`crate::import::from_blkparse`]).
    pub fn load(bytes: &[u8]) -> Result<Trace, TraceError> {
        if bytes.starts_with(&MAGIC) {
            return Trace::from_bytes(bytes);
        }
        let text = std::str::from_utf8(bytes).map_err(|_| {
            // Binary-looking but without our magic: say so rather than
            // reporting a UTF-8 error about a file that was never text.
            if bytes.len() >= MAGIC.len() {
                TraceError::BadMagic
            } else {
                TraceError::Unrecognized
            }
        })?;
        let first = text
            .lines()
            .map(str::trim)
            .find(|l| !l.is_empty() && !l.starts_with('#'));
        match first {
            Some(l) if l.starts_with("tntrace") => Trace::from_text(text),
            Some(_) => crate::import::from_blkparse(text),
            None => Err(TraceError::Unrecognized),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace {
            paths: vec!["/tmp/a".into(), "/var/db/pages".into()],
            events: vec![
                TraceEvent {
                    t: 100,
                    pid: 3,
                    op: Op::FileOpen,
                    arg: 0,
                    size: 0,
                },
                TraceEvent {
                    t: 250,
                    pid: 3,
                    op: Op::BlockWrite,
                    arg: 4096,
                    size: 8,
                },
                TraceEvent {
                    t: 900,
                    pid: 4,
                    op: Op::BlockRead,
                    arg: 12,
                    size: 1,
                },
                TraceEvent {
                    t: 1400,
                    pid: 3,
                    op: Op::FileUnlink,
                    arg: 1,
                    size: 0,
                },
            ],
        }
    }

    #[test]
    fn binary_round_trips() {
        let t = sample();
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
    }

    #[test]
    fn text_round_trips() {
        let t = sample();
        assert_eq!(Trace::from_text(&t.to_text()).unwrap(), t);
    }

    #[test]
    fn load_auto_detects_both_encodings() {
        let t = sample();
        assert_eq!(Trace::load(&t.to_bytes()).unwrap(), t);
        assert_eq!(Trace::load(t.to_text().as_bytes()).unwrap(), t);
    }

    #[test]
    fn empty_trace_is_legal() {
        let t = Trace::default();
        assert_eq!(Trace::from_bytes(&t.to_bytes()).unwrap(), t);
        assert_eq!(Trace::from_text(&t.to_text()).unwrap(), t);
        assert_eq!(t.span(), 0);
    }

    #[test]
    fn truncation_is_a_clean_error() {
        let bytes = sample().to_bytes();
        for cut in [0, 7, 31, bytes.len() - 1] {
            match Trace::from_bytes(&bytes[..cut]) {
                Err(TraceError::Truncated { have, .. }) => assert_eq!(have, cut),
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn corrupt_headers_are_rejected() {
        let good = sample().to_bytes();
        let mut bad = good.clone();
        bad[0] = b'X';
        assert_eq!(Trace::from_bytes(&bad), Err(TraceError::BadMagic));
        let mut bad = good.clone();
        bad[8] = 9;
        assert_eq!(Trace::from_bytes(&bad), Err(TraceError::BadVersion(9)));
        let mut bad = good.clone();
        bad[10] = 1;
        assert_eq!(Trace::from_bytes(&bad), Err(TraceError::BadFlags(1)));
        let mut bad = good.clone();
        bad[28] = 0xff;
        assert_eq!(Trace::from_bytes(&bad), Err(TraceError::BadReserved(0xff)));
        let mut bad = good.clone();
        bad.push(0);
        assert_eq!(Trace::from_bytes(&bad), Err(TraceError::TrailingBytes(1)));
    }

    #[test]
    fn unknown_ops_and_bad_path_indices_are_rejected() {
        let t = sample();
        let mut bytes = t.to_bytes();
        // First event's op field sits right after the path table.
        let table: usize = t.paths.iter().map(|p| p.len() + 1).sum();
        let op_at = 32 + table + 8;
        bytes[op_at] = 0x7f;
        assert_eq!(
            Trace::from_bytes(&bytes),
            Err(TraceError::BadOp { code: 0x7f, at: 0 })
        );
        let mut t2 = t.clone();
        t2.events[0].arg = 99;
        assert_eq!(
            Trace::from_bytes(&t2.to_bytes()),
            Err(TraceError::BadPathIndex {
                index: 99,
                paths: 2
            })
        );
        assert!(matches!(
            Trace::from_text(&t2.to_text()),
            Err(TraceError::Text { .. })
        ));
    }

    #[test]
    fn text_errors_carry_line_numbers() {
        let err = Trace::from_text("tntrace v1\nev 1 2 zz 3 4\n").unwrap_err();
        assert_eq!(
            err,
            TraceError::Text {
                line: 2,
                msg: "unknown op \"zz\"".into()
            }
        );
        for (ev, got) in [("ev 1 2 open", 3), ("ev 1 2 open 3 4 5", 6)] {
            assert_eq!(
                Trace::from_text(&format!("tntrace v1\npath /x\n{ev}\n")).unwrap_err(),
                TraceError::Text {
                    line: 3,
                    msg: format!("ev needs 5 fields (t pid op arg size), got {got}")
                }
            );
        }
        assert_eq!(
            Trace::from_text("tntrace v1\npath /x\nev 1 x open 0 0\n").unwrap_err(),
            TraceError::Text {
                line: 3,
                msg: "bad pid \"x\"".into()
            }
        );
        assert!(matches!(
            Trace::from_text("not a trace\n"),
            Err(TraceError::Text { line: 1, .. })
        ));
        assert!(matches!(
            Trace::from_text("# only comments\n"),
            Err(TraceError::Text { line: 1, .. })
        ));
    }

    #[test]
    fn comments_and_blank_lines_are_ignored() {
        let text = "\n# a recording\ntntrace v1\n\npath /x\n# mid-stream note\nev 5 1 open 0 0\n";
        let t = Trace::from_text(text).unwrap();
        assert_eq!(t.paths, vec!["/x".to_string()]);
        assert_eq!(t.len(), 1);
    }
}
