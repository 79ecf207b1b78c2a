//! Models of the memory routines benchmarked in Section 6 of the paper.
//!
//! The paper's custom benchmarks share one structure: an inner loop that
//! handles 16 bytes per iteration, followed by a byte-at-a-time loop for
//! the remaining 0-15 bytes. The byte loop is far slower per byte, which
//! produces the bandwidth dips at small buffer sizes that Section 6.4
//! explains. The prefetching variants load one word of each destination
//! line before storing to it, converting the Pentium's non-allocating
//! write misses into cache hits.
//!
//! All loop-cost constants are in CPU cycles and are calibrated against
//! the plateaus of Figures 2-8 (see `DESIGN.md`).

use std::cell::RefCell;
use std::ops::ControlFlow;

use crate::memsys::{LineStep, MemSystem, PassDelta, Snapshot, LINE};
use crate::tlb::PAGE_BYTES;
use tnt_sim::trace::{session, Counter};

/// Bytes handled per iteration of the paper's unrolled inner loop.
pub const CHUNK: u64 = 16;

/// Word size of the 32-bit Pentium.
pub const WORD: u64 = 4;

/// Cycles per 16-byte iteration of the custom read loop (four dual-issued
/// loads plus loop control: the paper measures four words every ~50 ns).
pub const READ_ITER_CY: u64 = 5;

/// Cycles per 16-byte iteration of the custom write loop.
pub const WRITE_ITER_CY: u64 = 5;

/// Cycles per 16-byte iteration of the custom copy loop (four loads and
/// four stores cannot pair as well as pure loads).
pub const COPY_ITER_CY: u64 = 9;

/// Cycles per byte of the remainder loop — the source of the dips.
pub const REMAINDER_BYTE_CY: u64 = 4;

/// Which system library supplied `memset`/`memcpy`. The three libcs of
/// 1995 differ only marginally here: none of them prefetch (the paper's
/// central finding), so they differ in call overhead and loop tightness.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LibcVariant {
    /// Linux 1.2.8 + libc 5: slightly tighter hand-written assembly.
    Linux,
    /// FreeBSD 2.0.5R libc.
    FreeBsd,
    /// Solaris 2.4 libc.
    Solaris,
}

impl LibcVariant {
    /// Fixed per-call overhead in cycles.
    pub fn call_overhead_cy(self) -> u64 {
        match self {
            LibcVariant::Linux => 30,
            LibcVariant::FreeBsd => 40,
            LibcVariant::Solaris => 50,
        }
    }

    /// All three variants, in the paper's usual order.
    pub fn all() -> [LibcVariant; 3] {
        [
            LibcVariant::Linux,
            LibcVariant::FreeBsd,
            LibcVariant::Solaris,
        ]
    }
}

/// A memory routine under benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MemRoutine {
    /// Figure 2: custom read loop.
    CustomRead,
    /// Figure 4: custom write loop without prefetch.
    CustomWriteNaive,
    /// Figure 5: custom write loop with software prefetch.
    CustomWritePrefetch,
    /// Figure 7: custom copy loop without prefetch.
    CustomCopyNaive,
    /// Figure 8: custom copy loop with software prefetch.
    CustomCopyPrefetch,
    /// Figure 3: the system library's `memset`.
    LibcMemset(LibcVariant),
    /// Figure 6: the system library's `memcpy`.
    LibcMemcpy(LibcVariant),
}

impl MemRoutine {
    /// Whether the routine moves two buffers (copy) or one.
    pub fn is_copy(self) -> bool {
        matches!(
            self,
            MemRoutine::CustomCopyNaive
                | MemRoutine::CustomCopyPrefetch
                | MemRoutine::LibcMemcpy(_)
        )
    }
}

/// One pass of the routine over a `len`-byte buffer at `src` (and, for
/// copies, a destination at `dst`). Buffers are 32-byte aligned, as the
/// benchmark's allocator guarantees. `bounds` holds what the previous
/// pass left at its first stream-segment boundary, and takes what this
/// one leaves there; the pass stops at that boundary with
/// `Break(Rejoined)` when it rejoins the previous pass (see
/// [`stream_main`]).
pub(crate) fn run_pass(
    mem: &mut MemSystem,
    routine: MemRoutine,
    src: u64,
    dst: u64,
    len: u64,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    debug_assert_eq!(src % 32, 0, "source must be line aligned");
    debug_assert_eq!(dst % 32, 0, "destination must be line aligned");
    bounds.cur.reached = false;
    match routine {
        MemRoutine::CustomRead => custom_read(mem, src, len, bounds),
        MemRoutine::CustomWriteNaive => custom_write(mem, src, len, false, bounds),
        MemRoutine::CustomWritePrefetch => custom_write(mem, src, len, true, bounds),
        MemRoutine::CustomCopyNaive => custom_copy(mem, src, dst, len, false, bounds),
        MemRoutine::CustomCopyPrefetch => custom_copy(mem, src, dst, len, true, bounds),
        MemRoutine::LibcMemset(v) => libc_memset(mem, src, len, v, bounds),
        MemRoutine::LibcMemcpy(v) => libc_memcpy(mem, src, dst, len, v, bounds),
    }
}

/// A pass that stopped at its first stream-segment boundary because the
/// hierarchy's state there equalled the previous pass's state at the
/// same offset: from there on it would replay the previous pass access
/// for access.
pub(crate) struct Rejoined;

/// What one pass left at its first stream-segment boundary.
#[derive(Default)]
struct Boundary {
    /// Whether the pass got there and recorded the fields below.
    reached: bool,
    /// The whole hierarchy's state there.
    state: Snapshot,
    /// The counters there.
    at: PassDelta,
    /// The counters from there to the end of the pass.
    rest: PassDelta,
}

/// The boundary records of two consecutive passes: the one a pass
/// compares with and the one it writes.
#[derive(Default)]
pub(crate) struct Boundaries {
    prev: Boundary,
    cur: Boundary,
}

impl Boundaries {
    /// Closes the pass that wrote `cur` and makes its record the one the
    /// next pass compares with.
    fn end_pass(&mut self, end: &PassDelta) {
        if self.cur.reached {
            self.cur.rest = end.since(&self.cur.at);
        }
        std::mem::swap(&mut self.prev, &mut self.cur);
    }
}

#[cfg(test)]
thread_local! {
    /// Line steps `stream_main` has run on this thread, so tests can pin
    /// what the shortcuts leave to simulate.
    static LINE_STEPS: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Runs `body(mem, off, step)` for every line-aligned `off` in
/// `0, LINE, .. < main`, where `step` says how many of the line's 16-byte
/// chunks lie below `main` and whether the streams starting at `bases`
/// stay on the pages the previous step touched. Two exact shortcuts cut
/// the steps it runs; both rest on the loop body being a pure function
/// of `off` with uniform per-line structure, so the same state at the
/// same point of the stream gives the same future.
///
/// *Rejoining the previous pass.* When the stream runs past the first
/// segment boundary, at `stream_period_bytes()`, the whole hierarchy's
/// state there is compared with the state the previous pass of the same
/// routine and buffer had at that offset (`bounds.prev`). Equal means
/// the rest of this pass replays the rest of that one access for access,
/// so the pass stops there with `Break(Rejoined)` and `measure` accounts
/// for the rest. Otherwise the state and counters there are recorded in
/// `bounds.cur` for the next pass.
///
/// *Periodic segments.* While a routine streams a buffer far larger than
/// the hierarchy, the cache/TLB state is *shift-periodic*: after one full
/// period (the lcm of the set-mapping periods, a power of two for every
/// level), the state is the previous state with every resident tag
/// advanced by one period. When the state at the second boundary matches
/// the first boundary's record shifted by a period, every further period
/// must repeat the second one's hits, misses and cycles. The skipped
/// periods are accounted by multiplying that segment's delta and
/// advancing resident tags with `shift_tags`, bit-identical to simulating
/// every chunk (same guarantee as the pass-level shortcuts in `measure`).
/// Every routine and size of the quick and full grids repeats at the
/// second boundary; a stream that did not would run to its end.
fn stream_main(
    mem: &mut MemSystem,
    main: u64,
    bases: &[u64],
    bounds: &mut Boundaries,
    mut body: impl FnMut(&mut MemSystem, u64, LineStep),
) -> ControlFlow<Rejoined> {
    let mut run_to = |mem: &mut MemSystem, off: &mut u64, end: u64| {
        while *off < end {
            #[cfg(test)]
            LINE_STEPS.set(LINE_STEPS.get() + 1);
            let step = LineStep {
                chunks: (main - *off).min(LINE) / CHUNK,
                same_pages: *off > 0
                    && bases
                        .iter()
                        .all(|b| !(b + *off).is_multiple_of(PAGE_BYTES as u64)),
            };
            body(mem, *off, step);
            *off += LINE;
        }
    };
    let seg = mem.stream_period_bytes();
    let mut off = 0u64;
    if main > seg {
        run_to(mem, &mut off, seg);
        if bounds.prev.reached && mem.matches(&bounds.prev.state, 0) {
            return ControlFlow::Break(Rejoined);
        }
        let cur = &mut bounds.cur;
        mem.save(&mut cur.state, 0, seg);
        cur.at = mem.counters();
        cur.reached = true;
        // Skip only with room for a measured segment and at least one
        // segment to skip after it.
        if main >= 3 * seg {
            run_to(mem, &mut off, 2 * seg);
            if mem.matches(&cur.state, seg) {
                let reps = (main - off) / seg;
                let delta = mem.counters().since(&cur.at);
                mem.skip_stream_segments(reps, &delta, seg);
                off += reps * seg;
            }
        }
    }
    run_to(mem, &mut off, main);
    ControlFlow::Continue(())
}

fn custom_read(
    mem: &mut MemSystem,
    base: u64,
    len: u64,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    let main = len - len % CHUNK;
    stream_main(mem, main, &[base], bounds, |mem, off, step| {
        mem.charge(step.chunks * READ_ITER_CY);
        mem.read_chunks(base + off, step);
    })?;
    remainder_read(mem, base + main, len - main);
    ControlFlow::Continue(())
}

fn custom_write(
    mem: &mut MemSystem,
    base: u64,
    len: u64,
    prefetch: bool,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    let main = len - len % CHUNK;
    stream_main(mem, main, &[base], bounds, |mem, off, step| {
        mem.charge(step.chunks * WRITE_ITER_CY);
        if prefetch {
            mem.prefetch_chunk(base + off, step);
        }
        mem.write_chunks(base + off, step);
    })?;
    remainder_write(mem, base + main, len - main);
    ControlFlow::Continue(())
}

fn custom_copy(
    mem: &mut MemSystem,
    src: u64,
    dst: u64,
    len: u64,
    prefetch: bool,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    let main = len - len % CHUNK;
    stream_main(mem, main, &[src, dst], bounds, |mem, off, step| {
        mem.charge(step.chunks * COPY_ITER_CY);
        if prefetch {
            mem.prefetch_chunk(dst + off, step);
        }
        mem.read_chunks(src + off, step);
        mem.write_chunks(dst + off, step);
    })?;
    // Remainder: read a byte, write a byte.
    let rem_base = main;
    for b in 0..(len - main) {
        mem.charge(2 * REMAINDER_BYTE_CY);
        mem.read_words(src + rem_base + b, 1);
        mem.write_words(dst + rem_base + b, 1);
    }
    ControlFlow::Continue(())
}

fn libc_memset(
    mem: &mut MemSystem,
    base: u64,
    len: u64,
    variant: LibcVariant,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    mem.charge(variant.call_overhead_cy());
    // `rep stosl`-style fill: slightly tighter than the custom loop, and
    // the tail is handled at word speed (no slow byte loop).
    let main = len - len % CHUNK;
    stream_main(mem, main, &[base], bounds, |mem, off, step| {
        mem.charge(step.chunks * 4);
        mem.write_chunks(base + off, step);
    })?;
    let rem = len - main;
    if rem > 0 {
        mem.charge(rem);
        mem.write_words(base + main, rem.div_ceil(WORD) as u32);
    }
    ControlFlow::Continue(())
}

fn libc_memcpy(
    mem: &mut MemSystem,
    src: u64,
    dst: u64,
    len: u64,
    variant: LibcVariant,
    bounds: &mut Boundaries,
) -> ControlFlow<Rejoined> {
    mem.charge(variant.call_overhead_cy());
    let main = len - len % CHUNK;
    stream_main(mem, main, &[src, dst], bounds, |mem, off, step| {
        mem.charge(step.chunks * COPY_ITER_CY);
        mem.read_chunks(src + off, step);
        mem.write_chunks(dst + off, step);
    })?;
    let rem = len - main;
    if rem > 0 {
        mem.charge(2 * rem);
        mem.read_words(src + main, rem.div_ceil(WORD) as u32);
        mem.write_words(dst + main, rem.div_ceil(WORD) as u32);
    }
    ControlFlow::Continue(())
}

fn remainder_read(mem: &mut MemSystem, base: u64, rem: u64) {
    for b in 0..rem {
        mem.charge(REMAINDER_BYTE_CY);
        mem.read_words(base + b, 1);
    }
}

fn remainder_write(mem: &mut MemSystem, base: u64, rem: u64) {
    for b in 0..rem {
        mem.charge(REMAINDER_BYTE_CY);
        mem.write_words(base + b, 1);
    }
}

/// Result of one bandwidth measurement.
#[derive(Clone, Copy, Debug)]
pub struct BandwidthPoint {
    /// Buffer size in bytes.
    pub buf_bytes: u64,
    /// Total bytes transferred (copies count each byte once, matching the
    /// paper: a 160 MB/s copy is "320 MB/s of total bandwidth").
    pub bytes: u64,
    /// Simulated cycles consumed.
    pub cycles: u64,
    /// Bandwidth in 2^20-byte megabytes per second.
    pub mb_per_sec: f64,
}

/// Where the benchmark's buffers live: contiguous, line-aligned, as the
/// original C benchmark's allocator produced.
fn buffer_layout(buf: u64) -> (u64, u64) {
    let src = 0x0010_0000;
    let dst = src + buf.next_multiple_of(32) + 8 * 32;
    (src, dst)
}

/// The buffers `measure` saves states into, kept from sweep to sweep on
/// each thread so that its comparisons allocate nothing once warm.
#[derive(Default)]
struct Scratch {
    /// The state the previous pass left, on the sets the buffers map to.
    last_end: Snapshot,
    bounds: Boundaries,
}

thread_local! {
    static SCRATCH: RefCell<Scratch> = RefCell::default();
}

/// Measures the bandwidth of `routine` on a `buf`-byte buffer, reusing the
/// buffer until at least `total` bytes have been transferred — exactly the
/// methodology of Section 6 (8 MB of traffic per measurement).
pub fn measure(mem: &mut MemSystem, routine: MemRoutine, buf: u64, total: u64) -> BandwidthPoint {
    assert!(buf > 0, "buffer must be non-empty");
    mem.flush();
    mem.reset_cycles();
    let (l1_before, l2_before) = (mem.l1d().stats(), mem.l2().stats());
    let passes = total.div_ceil(buf).max(1);
    SCRATCH.with_borrow_mut(|scratch| run_passes(mem, routine, buf, passes, scratch));
    let bytes = passes * buf;
    let cycles = mem.cycles() + mem.loop_cycles();
    // This crate has no Sim — the bandwidth loops run outside simulated
    // time — so a profiling session sees them only through the counter
    // bank: miss totals per level plus the memory system's stall cycles.
    if session::active() {
        let (l1, l2) = (mem.l1d().stats(), mem.l2().stats());
        let misses = |after: crate::CacheStats, before: crate::CacheStats| {
            (after.read_misses - before.read_misses) + (after.write_misses - before.write_misses)
        };
        session::add_counter(Counter::L1Misses, misses(l1, l1_before));
        session::add_counter(Counter::L2Misses, misses(l2, l2_before));
        session::add_counter(Counter::MemStallCycles, mem.cycles());
    }
    let secs = cycles as f64 / crate::CPU_HZ as f64;
    BandwidthPoint {
        buf_bytes: buf,
        bytes,
        cycles,
        mb_per_sec: bytes as f64 / (1024.0 * 1024.0) / secs,
    }
}

/// Runs `passes` passes of `routine` over the `buf`-byte buffers.
///
/// Every pass runs the same access sequence, so the cache/TLB state
/// converges to a fixed point after a pass or two. Once a pass leaves the
/// state exactly as the previous pass left it, every further pass must
/// repeat the same hits, misses and cycles, so the remaining passes are
/// accounted for by multiplication instead of simulation. Three checks
/// find that pass, all exact, so totals and final state are bit-identical
/// to running every pass:
/// - A pass that rejoins the previous one at its first stream-segment
///   boundary (see [`stream_main`]) would replay the rest of it access for
///   access. Its delta is its own first segment plus the rest of the
///   previous pass, recorded at that pass's boundary, and it ends in the
///   state the previous pass ended in, saved before it and put back.
/// - A pass that counts no fill and no clean-to-dirty transition is a
///   fixed point with no comparison at all: the resident lines and dirty
///   bits are unchanged, and every line it touched was last touched at
///   the same point of the previous pass, so the TLB's and L1's LRU order
///   is too. (L2 sees a different sequence once L1 stops missing, but it
///   is direct mapped, so it has no order.)
/// - Otherwise compare the sets the buffers map to with their state
///   after the previous pass; no pass touches any other set. The first
///   pass is never compared: it fills, so it cannot leave the empty state
///   it started from.
fn run_passes(mem: &mut MemSystem, routine: MemRoutine, buf: u64, passes: u64, s: &mut Scratch) {
    let (src, dst) = buffer_layout(buf);
    // The buffers as one range, which for a copy takes in the 256 bytes
    // between them: no pass changes the sets only those map to.
    let span = if routine.is_copy() {
        dst + buf - src
    } else {
        buf
    };
    s.bounds.prev.reached = false;
    let mut done = 0u64;
    while done < passes {
        let before = mem.counters();
        if done > 0 {
            mem.save(&mut s.last_end, src, span);
        }
        let rejoined = run_pass(mem, routine, src, dst, buf, &mut s.bounds).is_break();
        if rejoined {
            mem.skip_reps(1, &s.bounds.prev.rest);
            mem.restore(&s.last_end);
        }
        done += 1;
        if done == passes {
            break;
        }
        let delta = mem.counters().since(&before);
        if rejoined || delta.changes() == 0 || (done > 1 && mem.matches(&s.last_end, 0)) {
            mem.skip_reps(passes - done, &delta);
            break;
        }
        s.bounds.end_pass(&mem.counters());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::Access;

    const TEST_TOTAL: u64 = 1 << 20; // 1 MB of traffic keeps tests fast.

    /// Every routine kind.
    const ROUTINES: [MemRoutine; 7] = [
        MemRoutine::CustomRead,
        MemRoutine::CustomWriteNaive,
        MemRoutine::CustomWritePrefetch,
        MemRoutine::CustomCopyNaive,
        MemRoutine::CustomCopyPrefetch,
        MemRoutine::LibcMemset(LibcVariant::Linux),
        MemRoutine::LibcMemcpy(LibcVariant::Solaris),
    ];

    fn bw(routine: MemRoutine, buf: u64) -> f64 {
        let mut mem = MemSystem::p54c();
        measure(&mut mem, routine, buf, TEST_TOTAL).mb_per_sec
    }

    #[test]
    fn read_shows_three_plateaus() {
        let l1 = bw(MemRoutine::CustomRead, 4 * 1024);
        let l2 = bw(MemRoutine::CustomRead, 64 * 1024);
        let dram = bw(MemRoutine::CustomRead, 1 << 20);
        assert!(
            l1 > 280.0 && l1 < 340.0,
            "L1 read plateau ~300+ MB/s, got {l1}"
        );
        assert!(
            l2 > 95.0 && l2 < 125.0,
            "L2 read plateau ~110 MB/s, got {l2}"
        );
        assert!(
            dram > 65.0 && dram < 85.0,
            "DRAM read plateau ~75 MB/s, got {dram}"
        );
        assert!(l1 > l2 && l2 > dram);
    }

    #[test]
    fn memset_never_reaches_fifty() {
        for buf in [1024u64, 8 * 1024, 64 * 1024, 1 << 20] {
            for v in LibcVariant::all() {
                let b = bw(MemRoutine::LibcMemset(v), buf);
                assert!(b < 50.0, "memset({v:?}, {buf}) = {b} MB/s, paper says <50");
                assert!(b > 30.0, "memset should still be tens of MB/s, got {b}");
            }
        }
    }

    #[test]
    fn naive_write_resembles_memset() {
        let custom = bw(MemRoutine::CustomWriteNaive, 16 * 1024);
        let libc = bw(MemRoutine::LibcMemset(LibcVariant::Linux), 16 * 1024);
        assert!(
            (custom - libc).abs() / libc < 0.25,
            "custom {custom} vs libc {libc}"
        );
    }

    #[test]
    fn prefetch_write_peaks_near_310() {
        let peak = bw(MemRoutine::CustomWritePrefetch, 4 * 1024);
        assert!(
            peak > 260.0 && peak < 340.0,
            "prefetch write peak ~310, got {peak}"
        );
        let naive = bw(MemRoutine::CustomWriteNaive, 4 * 1024);
        assert!(peak > 5.0 * naive, "prefetch is a dramatic improvement");
    }

    #[test]
    fn prefetch_write_helps_beyond_cache_too() {
        let pf = bw(MemRoutine::CustomWritePrefetch, 1 << 20);
        let naive = bw(MemRoutine::CustomWriteNaive, 1 << 20);
        assert!(
            pf > naive,
            "prefetch {pf} should beat naive {naive} even in DRAM"
        );
    }

    #[test]
    fn copy_matches_paper_shape() {
        let naive = bw(MemRoutine::CustomCopyNaive, 4 * 1024);
        assert!(
            naive > 30.0 && naive < 55.0,
            "naive copy ~40 MB/s, got {naive}"
        );
        let pf = bw(MemRoutine::CustomCopyPrefetch, 4 * 1024);
        assert!(
            pf > 140.0 && pf < 190.0,
            "prefetch copy ~160 MB/s, got {pf}"
        );
        let libc = bw(MemRoutine::LibcMemcpy(LibcVariant::FreeBsd), 4 * 1024);
        assert!(
            (libc - naive).abs() / naive < 0.25,
            "memcpy {libc} resembles naive {naive}"
        );
    }

    #[test]
    fn remainder_loop_causes_dip() {
        // A 527-byte buffer leaves 15 bytes for the slow byte loop.
        let aligned = bw(MemRoutine::CustomRead, 512);
        let ragged = bw(MemRoutine::CustomRead, 527);
        assert!(
            ragged < aligned * 0.9,
            "15 remainder bytes should dip bandwidth: {ragged} vs {aligned}"
        );
        // The dip washes out for large buffers.
        let big_aligned = bw(MemRoutine::CustomRead, 65536);
        let big_ragged = bw(MemRoutine::CustomRead, 65536 + 15);
        assert!((big_ragged - big_aligned).abs() / big_aligned < 0.02);
    }

    #[test]
    fn libc_variants_rank_by_overhead() {
        // Small buffers magnify per-call overhead: Linux < FreeBSD < Solaris.
        let linux = bw(MemRoutine::LibcMemset(LibcVariant::Linux), 256);
        let freebsd = bw(MemRoutine::LibcMemset(LibcVariant::FreeBsd), 256);
        let solaris = bw(MemRoutine::LibcMemset(LibcVariant::Solaris), 256);
        assert!(linux > freebsd && freebsd > solaris);
    }

    #[test]
    fn measure_reports_consistent_fields() {
        let mut mem = MemSystem::p54c();
        let p = measure(&mut mem, MemRoutine::CustomRead, 1000, 10_000);
        assert_eq!(p.buf_bytes, 1000);
        assert_eq!(p.bytes, 10_000);
        assert!(p.cycles > 0);
        let recomputed = p.bytes as f64 / (1024.0 * 1024.0) / (p.cycles as f64 / 1e8);
        assert!((p.mb_per_sec - recomputed).abs() < 1e-9);
    }

    /// A shortcut-free reference for `measure`: every chunk of every pass
    /// is issued in program order through `read_words`/`write_words`
    /// (one `read_word`/`write_word` each plus the per-word drain cost,
    /// so counters follow the model's one-access-per-chunk convention),
    /// with no pass skip, segment skip or line pair.
    fn oracle(routine: MemRoutine, buf: u64, total: u64) -> MemSystem {
        use MemRoutine::*;
        let mut mem = MemSystem::p54c();
        let m = &mut mem;
        let (src, dst) = buffer_layout(buf);
        let main = buf - buf % CHUNK;
        let chunks = (0..main).step_by(CHUNK as usize);
        let tail = buf - main;
        let tail_words = tail.div_ceil(WORD) as u32;
        for _ in 0..total.div_ceil(buf).max(1) {
            match routine {
                CustomRead => {
                    for off in chunks.clone() {
                        m.charge(READ_ITER_CY);
                        m.read_words(src + off, 4);
                    }
                    for b in main..buf {
                        m.charge(REMAINDER_BYTE_CY);
                        m.read_words(src + b, 1);
                    }
                }
                CustomWriteNaive | CustomWritePrefetch => {
                    for off in chunks.clone() {
                        m.charge(WRITE_ITER_CY);
                        if routine == CustomWritePrefetch && off.is_multiple_of(32) {
                            m.prefetch_line(src + off);
                        }
                        m.write_words(src + off, 4);
                    }
                    for b in main..buf {
                        m.charge(REMAINDER_BYTE_CY);
                        m.write_words(src + b, 1);
                    }
                }
                CustomCopyNaive | CustomCopyPrefetch => {
                    for off in chunks.clone() {
                        m.charge(COPY_ITER_CY);
                        if routine == CustomCopyPrefetch && off.is_multiple_of(32) {
                            m.prefetch_line(dst + off);
                        }
                        m.read_words(src + off, 4);
                        m.write_words(dst + off, 4);
                    }
                    for b in main..buf {
                        m.charge(2 * REMAINDER_BYTE_CY);
                        m.read_words(src + b, 1);
                        m.write_words(dst + b, 1);
                    }
                }
                LibcMemset(v) => {
                    m.charge(v.call_overhead_cy());
                    for off in chunks.clone() {
                        m.charge(4);
                        m.write_words(src + off, 4);
                    }
                    if tail > 0 {
                        m.charge(tail);
                        m.write_words(src + main, tail_words);
                    }
                }
                LibcMemcpy(v) => {
                    m.charge(v.call_overhead_cy());
                    for off in chunks.clone() {
                        m.charge(COPY_ITER_CY);
                        m.read_words(src + off, 4);
                        m.write_words(dst + off, 4);
                    }
                    if tail > 0 {
                        m.charge(2 * tail);
                        m.read_words(src + main, tail_words);
                        m.write_words(dst + main, tail_words);
                    }
                }
            }
        }
        mem
    }

    /// Whether two hierarchies are in the same state.
    fn same_state(a: &MemSystem, b: &MemSystem) -> bool {
        let mut snap = Snapshot::default();
        a.save(&mut snap, 0, a.stream_period_bytes());
        b.matches(&snap, 0)
    }

    /// Checks `measure` against [`oracle`] on every routine kind, on
    /// sizes either side of each threshold (the 16-byte chunk, the line,
    /// L1, the TLB's reach, L2 and the first segment boundary, the
    /// 3-period stream skip) and on totals of one pass, two passes and
    /// many.
    fn check_against_oracle(sizes: &[u64]) {
        for &buf in sizes {
            for total in [buf, 2 * buf - 1, (6 * buf).max(64 << 10)] {
                for routine in ROUTINES {
                    let ctx = format!("{routine:?}, {buf} B buffer, {total} B total");
                    let mut mem = MemSystem::p54c();
                    let p = measure(&mut mem, routine, buf, total);
                    let want = oracle(routine, buf, total);
                    assert_eq!(p.cycles, want.cycles() + want.loop_cycles(), "{ctx}");
                    assert_eq!(mem.cycles(), want.cycles(), "{ctx}: stall cycles");
                    assert_eq!(mem.l1d().stats(), want.l1d().stats(), "{ctx}: L1");
                    assert_eq!(mem.l2().stats(), want.l2().stats(), "{ctx}: L2");
                    assert_eq!(mem.dtlb().stats(), want.dtlb().stats(), "{ctx}: TLB");
                    assert!(same_state(&mem, &want), "{ctx}: final state");
                }
            }
        }
    }

    #[test]
    fn small_sweeps_match_the_oracle() {
        check_against_oracle(&[16, 17, 271, 4 << 10, (8 << 10) + 15]);
    }

    #[test]
    fn cache_sized_sweeps_match_the_oracle() {
        check_against_oracle(&[64 << 10, 256 << 10]);
    }

    #[test]
    fn streaming_sweeps_match_the_oracle() {
        check_against_oracle(&[768 << 10, (1 << 20) + 15, 5 << 19]);
    }

    /// 384 KB passes the first segment boundary but is not a whole
    /// number of segments; 512 KB spans two and is too short for a
    /// segment skip, so only the rejoin shortens its passes.
    #[test]
    fn rejoining_sweeps_match_the_oracle() {
        check_against_oracle(&[384 << 10, 512 << 10]);
    }

    /// The line steps `stream_main` runs for a sweep of `buf` bytes over
    /// the quick scale's 2 MB.
    fn line_steps(routine: MemRoutine, buf: u64) -> u64 {
        let before = LINE_STEPS.get();
        measure(&mut MemSystem::p54c(), routine, buf, 2 << 20);
        LINE_STEPS.get() - before
    }

    /// Pins what the shortcuts leave to simulate: a second pass over a
    /// buffer past the first segment boundary stops at that boundary, and
    /// no other sweep pays for it.
    #[test]
    fn line_steps_are_pinned() {
        for routine in ROUTINES {
            // Two passes: the first runs a warm-up and a measured segment
            // and skips two, the second stops after its first segment.
            assert_eq!(line_steps(routine, 1 << 20), 24_576, "{routine:?}, 1 MB");
            // Six passes: the first whole, the second stopped.
            assert_eq!(
                line_steps(routine, 384 << 10),
                20_480,
                "{routine:?}, 384 KB"
            );
            // Eight passes with no boundary inside: two whole ones.
            assert_eq!(
                line_steps(routine, 256 << 10),
                16_384,
                "{routine:?}, 256 KB"
            );
            // One pass: a warm-up and a measured segment.
            assert_eq!(line_steps(routine, 2 << 20), 16_384, "{routine:?}, 2 MB");
        }
    }

    /// The rejoin decision itself. The oracle cannot see a rejoin that
    /// comes too readily, because every routine and size reaches the same
    /// boundary state on its second pass, so a second pass here runs
    /// against records of its boundary state with one thing changed: one
    /// L2 tag, one dirty bit, or the LRU order of one L1 or TLB set. It
    /// must rejoin the unchanged record and none of the others.
    #[test]
    fn a_pass_rejoins_only_the_state_it_reached() {
        let buf = 384 << 10;
        let (src, dst) = buffer_layout(buf);
        let seg = MemSystem::p54c().stream_period_bytes();
        // Pass 1 on a cold system, and its record of the boundary.
        let first_pass = || {
            let mut mem = MemSystem::p54c();
            let mut bounds = Boundaries::default();
            let pass = run_pass(&mut mem, MemRoutine::CustomRead, src, dst, buf, &mut bounds);
            assert!(pass.is_continue() && bounds.cur.reached);
            bounds.end_pass(&mem.counters());
            (mem, bounds)
        };
        let (_, reached) = first_pass();
        type Change = fn(&mut MemSystem, u64);
        let changes: [(&str, Change); 5] = [
            ("nothing", |_, _| {}),
            ("one L2 tag", |m, _| {
                // 64 MB maps to L2 set 0 with a tag no buffer has.
                assert!(!m.levels_mut()[2].read(64 << 20).is_hit());
            }),
            ("one L2 dirty bit", |m, src| {
                // The first segment's last line, clean in L2.
                let last = src + (256 << 10) - 32;
                assert_eq!(m.levels_mut()[2].write(last), Access::Hit);
            }),
            ("one L1 set's order", |m, src| {
                // The older of the two lines in L1 set 0.
                let older = src + (256 << 10) - 8192;
                assert_eq!(m.levels_mut()[1].read(older), Access::Hit);
            }),
            ("one TLB set's order", |m, src| {
                // The buffer's first page is the oldest in TLB set 0.
                assert_eq!(m.levels_mut()[0].read(src), Access::Hit);
            }),
        ];
        for (what, change) in changes {
            let mut at = MemSystem::p54c();
            at.restore(&reached.prev.state);
            change(&mut at, src);
            let (mut mem, mut bounds) = first_pass();
            at.save(&mut bounds.prev.state, 0, seg);
            let pass = run_pass(&mut mem, MemRoutine::CustomRead, src, dst, buf, &mut bounds);
            assert_eq!(pass.is_break(), what == "nothing", "changed {what}");
        }
    }

    #[test]
    fn copy_buffers_do_not_overlap() {
        let (src, dst) = buffer_layout(4096);
        assert!(dst >= src + 4096);
        assert_eq!(src % 32, 0);
        assert_eq!(dst % 32, 0);
    }
}
