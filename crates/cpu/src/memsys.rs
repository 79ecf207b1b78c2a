//! The two-level Pentium memory system and its cycle costs.
//!
//! The model is deliberately coarse: constant per-event costs for line
//! fills, write-buffer drains and writebacks, calibrated so that the
//! steady-state bandwidths match the plateaus of the paper's Figures 2-8
//! (~300 MB/s from L1, ~110 MB/s from L2, ~75 MB/s from DRAM for reads;
//! <50 MB/s for non-allocating writes).

use crate::cache::{Access, Cache, CacheConfig, CacheStats};
use crate::tlb::Tlb;

/// Cycle costs of the memory system events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemTiming {
    /// Filling a 32-byte line into L1 from a hitting L2.
    pub l2_fill: u64,
    /// Filling a 32-byte line into L1+L2 from DRAM.
    pub dram_fill: u64,
    /// One word written through to a line that hits in L2 (L1 missed).
    pub l2_write_word: u64,
    /// One word drained through the write buffers to DRAM.
    pub dram_write_word: u64,
    /// Writing back a dirty L1 victim whose line is present in L2.
    pub writeback_l2: u64,
    /// Writing back a dirty victim all the way to DRAM.
    pub writeback_dram: u64,
}

impl MemTiming {
    /// Calibrated costs for the 100 MHz P54C with the Plato L2.
    pub const fn p54c() -> MemTiming {
        MemTiming {
            l2_fill: 18,
            dram_fill: 31,
            l2_write_word: 2,
            dram_write_word: 7,
            writeback_l2: 10,
            writeback_dram: 16,
        }
    }
}

/// The event costs every [`MemSystem`] charges.
const TIMING: MemTiming = MemTiming::p54c();

/// Line size of both P54C cache levels. The memory routines step their
/// 16-byte chunks in pairs of one line each.
pub(crate) const LINE: u64 = 32;

/// The modelled CPU-side memory system: data TLB, L1 data cache,
/// unified L2, DRAM.
///
/// The geometry and the event costs are the P54C's ([`MemTiming::p54c`]):
/// the routines' shortcuts rely on 32-byte lines, a non-allocating L1
/// and L2, and a direct-mapped L2 (see `measure`).
pub struct MemSystem {
    dtlb: Tlb,
    l1d: Cache,
    l2: Cache,
    cycles: u64,
    loop_cycles: u64,
}

impl MemSystem {
    /// Builds the P54C/Plato memory system.
    pub fn p54c() -> MemSystem {
        MemSystem {
            dtlb: Tlb::p54c_dtlb(),
            l1d: Cache::new(CacheConfig::p54c_l1d()),
            l2: Cache::new(CacheConfig::plato_l2()),
            cycles: 0,
            loop_cycles: 0,
        }
    }

    /// Cycles accumulated by memory-system events: TLB walks, line fills,
    /// write drains and writebacks, i.e. the stalls beyond the cost of
    /// an L1 hit. Loop costs are counted apart, in
    /// [`MemSystem::loop_cycles`].
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Cycles the routine models charged for their own instructions
    /// (loop overhead, remainder loops, call overhead, prefetch loads).
    pub fn loop_cycles(&self) -> u64 {
        self.loop_cycles
    }

    /// Charges extra cycles (used by routine models for loop overhead).
    pub fn charge(&mut self, cycles: u64) {
        self.loop_cycles += cycles;
    }

    /// Resets both cycle counters without touching cache state.
    pub fn reset_cycles(&mut self) {
        self.cycles = 0;
        self.loop_cycles = 0;
    }

    /// The TLB's entry cache, L1 and L2, in that order.
    fn levels(&self) -> [&Cache; 3] {
        [&self.dtlb.entries, &self.l1d, &self.l2]
    }

    /// The TLB's entry cache, L1 and L2, to change.
    pub(crate) fn levels_mut(&mut self) -> [&mut Cache; 3] {
        [&mut self.dtlb.entries, &mut self.l1d, &mut self.l2]
    }

    /// Accounts for `reps` repetitions of a pass or stream segment whose
    /// per-repetition deltas were already measured: cycle and counter
    /// totals advance exactly as if the accesses had run. The caller has
    /// proven that the cache state is a fixed point of the repetition,
    /// or translates it itself ([`MemSystem::skip_stream_segments`]).
    pub(crate) fn skip_reps(&mut self, reps: u64, d: &PassDelta) {
        self.cycles += reps * d.cycles;
        self.loop_cycles += reps * d.loop_cycles;
        for (c, s) in self.levels_mut().into_iter().zip(d.levels) {
            c.add_stats(reps, s);
        }
    }

    /// Copies into `snap` the state of every set that the byte range
    /// `[start, start + len)` maps to, in every level. Accesses confined
    /// to that range change no other set, and once the range spans
    /// [`MemSystem::stream_period_bytes`] it covers every set.
    pub(crate) fn save(&self, snap: &mut Snapshot, start: u64, len: u64) {
        snap.span = (start, len);
        snap.words.clear();
        for c in self.levels() {
            c.save_sets(&mut snap.words, start, len);
        }
    }

    /// Whether every set of `snap`'s range holds what it held when saved,
    /// with every tag `shift` bytes further on (a multiple of
    /// [`MemSystem::stream_period_bytes`]). If so, accesses from here on
    /// behave exactly as the same accesses `shift` bytes lower did from
    /// the snapshot.
    pub(crate) fn matches(&self, snap: &Snapshot, shift: u64) -> bool {
        let (start, len) = snap.span;
        let mut saved = &snap.words[..];
        self.levels()
            .into_iter()
            .all(|c| c.sets_match(&mut saved, start, len, shift))
    }

    /// Puts back the state `snap` saved.
    pub(crate) fn restore(&mut self, snap: &Snapshot) {
        let (start, len) = snap.span;
        let mut saved = &snap.words[..];
        for c in self.levels_mut() {
            c.restore_sets(&mut saved, start, len);
        }
    }

    /// The address period after which the whole hierarchy's set mapping
    /// repeats: shifting every address by a multiple of this moves each
    /// line/translation to the same set with an exactly predictable tag.
    /// All three periods are powers of two, so the lcm is the max.
    pub(crate) fn stream_period_bytes(&self) -> u64 {
        self.levels().iter().fold(0, |p, c| p.max(c.period_bytes()))
    }

    /// Accounts for `reps` more stream segments of `seg` bytes whose
    /// per-segment deltas were already measured, translating the resident
    /// state forward so it is exactly the state full simulation would
    /// have reached at the skipped-to offset.
    pub(crate) fn skip_stream_segments(&mut self, reps: u64, d: &PassDelta, seg: u64) {
        self.skip_reps(reps, d);
        for c in self.levels_mut() {
            c.shift_tags(reps * seg);
        }
    }

    /// Snapshots the counters that [`PassDelta::since`] diffs.
    pub(crate) fn counters(&self) -> PassDelta {
        PassDelta {
            cycles: self.cycles,
            loop_cycles: self.loop_cycles,
            levels: self.levels().map(Cache::stats),
        }
    }

    /// Invalidates both cache levels and the TLB (cold start).
    pub fn flush(&mut self) {
        self.dtlb.flush();
        self.l1d.flush();
        self.l2.flush();
    }

    /// The data TLB (for tests and reports).
    pub fn dtlb(&self) -> &Tlb {
        &self.dtlb
    }

    /// The L1 data cache (for assertions in tests).
    pub fn l1d(&self) -> &Cache {
        &self.l1d
    }

    /// The L2 cache (for assertions in tests).
    pub fn l2(&self) -> &Cache {
        &self.l2
    }

    /// Loads the word at `addr`, charging translation, fill and
    /// writeback costs. Returns the level that serviced the access.
    pub fn read_word(&mut self, addr: u64) -> Level {
        self.cycles += self.dtlb.access(addr);
        self.load(addr)
    }

    /// The cache half of [`MemSystem::read_word`], after translation.
    fn load(&mut self, addr: u64) -> Level {
        match self.l1d.read(addr) {
            Access::Hit => Level::L1,
            Access::Miss { evicted_dirty } => {
                if evicted_dirty {
                    // The victim's line is (almost always) still in L2 in
                    // this mostly-inclusive hierarchy.
                    self.cycles += TIMING.writeback_l2;
                }
                match self.l2.read(addr) {
                    Access::Hit => {
                        self.cycles += TIMING.l2_fill;
                        Level::L2
                    }
                    Access::Miss {
                        evicted_dirty: l2_dirty,
                    } => {
                        if l2_dirty {
                            self.cycles += TIMING.writeback_dram;
                        }
                        self.cycles += TIMING.dram_fill;
                        Level::Dram
                    }
                    Access::MissNoAllocate => unreachable!("reads always allocate"),
                }
            }
            Access::MissNoAllocate => unreachable!("reads always allocate"),
        }
    }

    /// Stores the word at `addr`; returns the level that absorbed it.
    ///
    /// A write that misses both levels does **not** allocate (the Pentium
    /// behaviour at the heart of Section 6) and pays the write-buffer
    /// drain cost to DRAM.
    pub fn write_word(&mut self, addr: u64) -> Level {
        self.cycles += self.dtlb.access(addr);
        self.store(addr)
    }

    /// The cache half of [`MemSystem::write_word`], after translation.
    fn store(&mut self, addr: u64) -> Level {
        match self.l1d.write(addr) {
            Access::Hit => Level::L1,
            Access::MissNoAllocate => match self.l2.write(addr) {
                Access::Hit => {
                    self.cycles += TIMING.l2_write_word;
                    Level::L2
                }
                Access::MissNoAllocate => {
                    self.cycles += TIMING.dram_write_word;
                    Level::Dram
                }
                Access::Miss { .. } => unreachable!("L2 does not write-allocate"),
            },
            Access::Miss { .. } => unreachable!("L1 does not write-allocate"),
        }
    }

    /// Loads `n` consecutive words that all lie within one cache line.
    /// Only the first can miss; the rest hit for free.
    pub fn read_words(&mut self, addr: u64, n: u32) -> Level {
        debug_assert!(same_line(addr, addr + (n.max(1) as u64 - 1) * 4));
        self.read_word(addr)
    }

    /// Stores `n` consecutive words within one cache line, charging the
    /// per-word drain cost for every word when the line is not in L1.
    pub fn write_words(&mut self, addr: u64, n: u32) -> Level {
        debug_assert!(same_line(addr, addr + (n.max(1) as u64 - 1) * 4));
        let level = self.write_word(addr);
        self.drain_words(level, n.saturating_sub(1) as u64);
        level
    }

    /// Charges the per-word cost of `words` stores that land at `level`.
    fn drain_words(&mut self, level: Level, words: u64) {
        match level {
            Level::L1 => {}
            Level::L2 => self.cycles += words * TIMING.l2_write_word,
            Level::Dram => self.cycles += words * TIMING.dram_write_word,
        }
    }

    /// Translates `addr` for a line step: a TLB lookup, or the hit that
    /// lookup must be when the step repeats the previous step's pages.
    fn translate(&mut self, addr: u64, step: LineStep) {
        if step.same_pages {
            self.dtlb.entries.count_read_hit();
        } else {
            self.cycles += self.dtlb.access(addr);
        }
    }

    /// Loads the 16-byte chunk at the line-aligned `addr` and, when
    /// `step` covers the whole line, the chunk after it. The second chunk
    /// is counted as the TLB and L1 hit it must be, without a lookup: the
    /// first chunk left its page and line resident, nothing a routine
    /// does between the two chunks fills, and the LRU bumps it skips
    /// would leave each set in the order the first chunk's accesses left
    /// it.
    pub(crate) fn read_chunks(&mut self, addr: u64, step: LineStep) -> Level {
        debug_assert!(addr.is_multiple_of(LINE) && (1..=2).contains(&step.chunks));
        self.translate(addr, step);
        let level = self.load(addr);
        if step.chunks == 2 {
            self.dtlb.entries.count_read_hit();
            self.l1d.count_read_hit();
        }
        level
    }

    /// Stores the 16-byte chunk at the line-aligned `addr` and, when
    /// `step` covers the whole line, the chunk after it. The second
    /// chunk's stores land where the first chunk's did: a store neither
    /// fills nor evicts, and its page is resident.
    pub(crate) fn write_chunks(&mut self, addr: u64, step: LineStep) -> Level {
        debug_assert!(addr.is_multiple_of(LINE) && (1..=2).contains(&step.chunks));
        self.translate(addr, step);
        let level = self.store(addr);
        if step.chunks == 2 {
            self.dtlb.entries.count_read_hit();
            self.l1d.count_write(level == Level::L1);
            if level != Level::L1 {
                self.l2.count_write(level == Level::L2);
            }
        }
        // Every word after the first costs what the first word did.
        self.drain_words(level, 4 * step.chunks - 1);
        level
    }

    /// [`MemSystem::prefetch_line`] within a line step.
    pub(crate) fn prefetch_chunk(&mut self, addr: u64, step: LineStep) {
        self.loop_cycles += 1;
        self.translate(addr, step);
        self.load(addr);
    }

    /// Software prefetch of the line containing `addr`: implemented by the
    /// paper's trick of loading one word of the destination line so later
    /// stores hit. Charges one loop cycle for the load instruction.
    pub fn prefetch_line(&mut self, addr: u64) {
        self.loop_cycles += 1;
        self.read_word(addr);
    }
}

/// One step of a routine's main loop: the 16-byte chunks of one line.
#[derive(Clone, Copy, Debug)]
pub(crate) struct LineStep {
    /// How many of the line's chunks the loop covers: 1 or 2.
    pub(crate) chunks: u64,
    /// The step touches the pages the previous step of the same pass
    /// touched, in the same order. Every translation then hits, and the
    /// LRU bumps of those lookups would leave each TLB set in the order
    /// the previous step left it, so [`MemSystem::translate`] counts the
    /// hit without a lookup.
    pub(crate) same_pages: bool,
}

/// The saved state of the sets a byte range maps to, in every level
/// (see [`MemSystem::save`]). Saving again reuses its buffer.
#[derive(Default)]
pub(crate) struct Snapshot {
    /// The byte range, as `(start, len)`.
    span: (u64, u64),
    /// Each level's line words for the range, TLB first.
    words: Vec<u64>,
}

/// Per-pass counter totals (or deltas between two snapshots), used by the
/// extrapolating shortcuts in `routines`.
#[derive(Clone, Copy, Debug, Default)]
pub(crate) struct PassDelta {
    /// Memory-event cycles ([`MemSystem::cycles`]).
    pub(crate) cycles: u64,
    /// Loop cycles ([`MemSystem::loop_cycles`]).
    pub(crate) loop_cycles: u64,
    /// TLB, L1 and L2 counters, in that order.
    pub(crate) levels: [CacheStats; 3],
}

impl PassDelta {
    /// The change in every counter since `before`.
    pub(crate) fn since(&self, before: &PassDelta) -> PassDelta {
        PassDelta {
            cycles: self.cycles - before.cycles,
            loop_cycles: self.loop_cycles - before.loop_cycles,
            levels: [0, 1, 2].map(|i| self.levels[i].since(&before.levels[i])),
        }
    }

    /// Fills and clean-to-dirty transitions over every level.
    pub(crate) fn changes(&self) -> u64 {
        self.levels.iter().map(|s| s.changes).sum()
    }
}

/// Which level of the hierarchy serviced an access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Level {
    /// L1 data cache.
    L1,
    /// Unified board-level L2.
    L2,
    /// Main memory (or the write buffers draining into it).
    Dram,
}

fn same_line(a: u64, b: u64) -> bool {
    a / LINE == b / LINE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn l1_hit_is_free() {
        let mut m = MemSystem::p54c();
        m.read_word(0x1000);
        let after_fill = m.cycles();
        // First touch pays the TLB walk plus the DRAM line fill.
        assert_eq!(
            after_fill,
            MemTiming::p54c().dram_fill + crate::tlb::WALK_CY
        );
        m.read_word(0x1004);
        assert_eq!(m.cycles(), after_fill, "same line: free");
    }

    #[test]
    fn l2_fill_cheaper_than_dram() {
        let mut m = MemSystem::p54c();
        // Bring line into both levels, then force it out of L1 only by
        // touching two conflicting lines (L1 is 2-way, sets 128 * 32B).
        m.read_word(0x0);
        m.read_word(128 * 32); // same L1 set, way 2
        m.read_word(2 * 128 * 32); // evicts 0x0 from L1; L2 still has it
        m.reset_cycles();
        m.read_word(0x0);
        assert_eq!(m.cycles(), MemTiming::p54c().l2_fill);
    }

    #[test]
    fn write_miss_goes_to_dram_every_time() {
        let mut m = MemSystem::p54c();
        m.write_word(0x2000);
        m.write_word(0x2000);
        m.write_word(0x2004);
        // One TLB walk (all in one page), three write-buffer drains.
        assert_eq!(
            m.cycles(),
            3 * MemTiming::p54c().dram_write_word + crate::tlb::WALK_CY
        );
        assert!(!m.l1d().probe(0x2000), "no write-allocate");
    }

    #[test]
    fn prefetch_converts_writes_to_hits() {
        let mut m = MemSystem::p54c();
        m.prefetch_line(0x3000);
        m.reset_cycles();
        for w in 0..8 {
            m.write_word(0x3000 + w * 4);
        }
        assert_eq!(m.cycles(), 0, "all eight word stores hit the fetched line");
    }

    #[test]
    fn dirty_writeback_charged_on_eviction() {
        let mut m = MemSystem::p54c();
        m.read_word(0x0);
        m.write_word(0x0); // line now dirty in L1
        m.read_word(128 * 32);
        m.reset_cycles();
        m.read_word(2 * 128 * 32); // evicts dirty 0x0 (new page: walk)
        let t = MemTiming::p54c();
        assert_eq!(
            m.cycles(),
            t.writeback_l2 + t.dram_fill + crate::tlb::WALK_CY
        );
    }

    #[test]
    fn levels_reported() {
        let mut m = MemSystem::p54c();
        assert_eq!(m.read_word(0x0), Level::Dram);
        assert_eq!(m.read_word(0x0), Level::L1);
        m.read_word(128 * 32);
        m.read_word(2 * 128 * 32);
        assert_eq!(
            m.read_word(0x0),
            Level::L2,
            "evicted from L1 but present in L2"
        );
        assert_eq!(m.write_word(0x9000), Level::Dram);
    }

    #[test]
    fn write_words_charges_per_word_drain() {
        let mut m = MemSystem::p54c();
        let t = MemTiming::p54c();
        m.write_words(0x4000, 4);
        assert_eq!(m.cycles(), 4 * t.dram_write_word + crate::tlb::WALK_CY);
        m.reset_cycles();
        m.read_word(0x5000);
        m.reset_cycles();
        m.write_words(0x5000, 4);
        assert_eq!(m.cycles(), 0, "cached line absorbs all four stores");
    }

    #[test]
    fn read_words_single_fill() {
        let mut m = MemSystem::p54c();
        let t = MemTiming::p54c();
        m.read_words(0x6000, 4);
        assert_eq!(m.cycles(), t.dram_fill + crate::tlb::WALK_CY);
        m.read_words(0x6010, 4);
        assert_eq!(
            m.cycles(),
            t.dram_fill + crate::tlb::WALK_CY,
            "second half of the line is free"
        );
    }

    #[test]
    fn footprint_covers_both_ranges_and_nothing_else() {
        // A copy's source (three lines of page 0x100) and, 256 bytes on,
        // its destination (two lines), saved as the one range from the
        // first byte to the last: TLB, L1 and L2 sets nothing else maps
        // to.
        let ranges = [(0x10_0000, 64 + 15), (0x10_0160, 40)];
        let (start, end) = (ranges[0].0, ranges[1].0 + ranges[1].1);
        let mut cold = Snapshot::default();
        MemSystem::p54c().save(&mut cold, start, end - start);
        for (start, len) in ranges {
            for addr in [start, start + len - 1] {
                let mut m = MemSystem::p54c();
                m.read_word(addr);
                assert!(!m.matches(&cold, 0), "{addr:#x} is in the footprint");
                m.restore(&cold);
                assert!(m.matches(&cold, 0), "{addr:#x}: restored");
            }
        }
        // TLB set 5, L1 set 64 and L2 set 704: none the range maps to.
        let mut m = MemSystem::p54c();
        m.read_word(0x10_5800);
        assert!(m.matches(&cold, 0));
    }
}
