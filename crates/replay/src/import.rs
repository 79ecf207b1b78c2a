//! Importer for `blkparse`-style text, so measured Linux block traces
//! (blktrace → blkparse) can be replayed through the simulated disk.
//!
//! The standard single-device output line is
//!
//! ```text
//! 8,0    1       42     0.001302512  1234  D   R 2048 + 256 [cc1]
//! ```
//!
//! (device, cpu, sequence, seconds, pid, action, RWBS, start sector,
//! `+`, sector count, program). The importer keeps **D** (dispatch to
//! driver) rows whose RWBS carries `R` or `W` — those are the commands
//! the bus actually saw, matching what our own recorder captures at
//! [`Disk::io`] — and converts 512-byte sectors to the simulation's
//! 1 KB blocks and seconds to cycles of the modelled 100 MHz Pentium.
//! Dumps with no D rows (some tools emit only queue events) fall back
//! to **Q** rows. Every other line — other actions, per-CPU summary
//! blocks, anything unparseable — is skipped, as real `blkparse` output
//! is full of prose; an input yielding no events at all is rejected
//! with [`TraceError::Unrecognized`].
//!
//! [`Disk::io`]: ../../tnt_fs/struct.Disk.html#method.io

use crate::format::{Op, Trace, TraceError, TraceEvent};

/// Cycles per second of the modelled 100 MHz Pentium (kept local: the
/// format crate sits below `tnt-sim`, which owns the canonical
/// `CPU_HZ`; a unit test over there pins the two together).
const CYCLES_PER_SEC: f64 = 100_000_000.0;

/// Parses `blkparse` text into a [`Trace`] of block events.
pub fn from_blkparse(text: &str) -> Result<Trace, TraceError> {
    let mut dispatched = Vec::new();
    let mut queued = Vec::new();
    for line in text.lines() {
        let f: Vec<&str> = line.split_whitespace().collect();
        // dev cpu seq ts pid action rwbs sector + count [prog]
        if f.len() < 10 || !is_dev(f[0]) || f[8] != "+" {
            continue;
        }
        let (Ok(ts), Ok(pid), Ok(sector), Ok(sectors)) = (
            f[3].parse::<f64>(),
            f[4].parse::<u32>(),
            f[7].parse::<u64>(),
            f[9].parse::<u64>(),
        ) else {
            continue;
        };
        let op = if f[6].contains('R') {
            Op::BlockRead
        } else if f[6].contains('W') {
            Op::BlockWrite
        } else {
            continue;
        };
        if sectors == 0 || !ts.is_finite() || ts < 0.0 {
            continue;
        }
        #[expect(
            clippy::disallowed_methods,
            reason = "tnt-sim's exact rounding helper is out of reach: tnt-sim depends on tnt-replay"
        )]
        let ev = TraceEvent {
            t: (ts * CYCLES_PER_SEC).round() as u64,
            pid,
            op,
            arg: sector / 2,
            size: sectors.div_ceil(2),
        };
        match f[5] {
            "D" => dispatched.push(ev),
            "Q" => queued.push(ev),
            _ => {}
        }
    }
    let events = if dispatched.is_empty() {
        queued
    } else {
        dispatched
    };
    if events.is_empty() {
        return Err(TraceError::Unrecognized);
    }
    Ok(Trace {
        paths: Vec::new(),
        events,
    })
}

/// Whether a token looks like blkparse's `maj,min` device field.
fn is_dev(tok: &str) -> bool {
    match tok.split_once(',') {
        Some((maj, min)) => {
            !maj.is_empty()
                && !min.is_empty()
                && maj.bytes().all(|b| b.is_ascii_digit())
                && min.bytes().all(|b| b.is_ascii_digit())
        }
        None => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = "\
8,0    1        1     0.000000000  101  D   R 2048 + 16 [reader]
8,0    1        2     0.000512000  101  Q   R 4096 + 16 [reader]
8,0    0        3     0.001000000  102  D  WS 9000 + 7 [writer]
8,0    0        4     0.002000000  102  C   W 9000 + 7 [writer]
CPU0 (8,0):
 Reads Queued:           2,       16KiB
";

    #[test]
    fn keeps_dispatch_rows_and_converts_units() {
        let t = from_blkparse(SAMPLE).unwrap();
        assert_eq!(t.len(), 2); // the Q and C rows and the summary are dropped
        assert_eq!(
            t.events[0],
            TraceEvent {
                t: 0,
                pid: 101,
                op: Op::BlockRead,
                arg: 1024, // sector 2048 -> 1 KB block 1024
                size: 8,   // 16 sectors -> 8 blocks
            }
        );
        assert_eq!(t.events[1].op, Op::BlockWrite);
        assert_eq!(t.events[1].t, 100_000); // 1 ms at 100 MHz
        assert_eq!(t.events[1].size, 4); // 7 sectors round up to 4 blocks
    }

    #[test]
    fn falls_back_to_queue_rows_when_no_dispatches() {
        let only_q = "8,0 1 1 0.5 7 Q R 100 + 2 [x]\n";
        let t = from_blkparse(only_q).unwrap();
        assert_eq!(t.len(), 1);
        assert_eq!(t.events[0].t, 50_000_000);
        assert_eq!(t.events[0].arg, 50);
    }

    #[test]
    fn junk_is_unrecognized_not_a_panic() {
        assert_eq!(from_blkparse(""), Err(TraceError::Unrecognized));
        assert_eq!(
            from_blkparse("hello world this is not a trace\n"),
            Err(TraceError::Unrecognized)
        );
    }

    #[test]
    fn load_falls_back_to_blkparse() {
        let t = Trace::load(SAMPLE.as_bytes()).unwrap();
        assert_eq!(t.len(), 2);
    }
}
