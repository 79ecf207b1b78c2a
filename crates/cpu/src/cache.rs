//! Generic set-associative cache model with true LRU replacement.
//!
//! The Pentium P54C property that drives the paper's Section 6 results is
//! the one write policy here: **no write-allocate** means a write miss
//! does not bring the line into the cache, so subsequent writes to the
//! same line keep missing and drain through the write buffer at memory
//! speed. Only a read fills.

use std::ops::Range;

/// Geometry of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
}

impl CacheConfig {
    /// The Pentium P54C 8 KB, 2-way, 32-byte-line L1 data cache.
    pub fn p54c_l1d() -> CacheConfig {
        CacheConfig {
            size: 8 * 1024,
            ways: 2,
            line: 32,
        }
    }

    /// The Intel Plato board's 256 KB direct-mapped pipeline-burst L2.
    pub fn plato_l2() -> CacheConfig {
        CacheConfig {
            size: 256 * 1024,
            ways: 1,
            line: 32,
        }
    }

    /// Number of sets implied by the geometry.
    pub fn sets(&self) -> usize {
        self.size / (self.line * self.ways)
    }
}

/// Outcome of a cache access.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Access {
    /// The line was present.
    Hit,
    /// A read found the line absent and brought it in; `evicted_dirty`
    /// reports whether a dirty victim was written back.
    Miss {
        /// A dirty line was evicted to make room.
        evicted_dirty: bool,
    },
    /// A write found the line absent and, per the no-write-allocate
    /// policy, did NOT bring it in; the data goes straight to the next
    /// level.
    MissNoAllocate,
}

impl Access {
    /// Whether the access hit.
    pub fn is_hit(&self) -> bool {
        matches!(self, Access::Hit)
    }
}

/// The valid bit of a line word (see `Cache::lines`).
const VALID: u64 = 1;
/// The dirty bit of a line word.
const DIRTY: u64 = 2;

/// Hit/miss counters for assertions and diagnostics.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Read hits.
    pub read_hits: u64,
    /// Read misses.
    pub read_misses: u64,
    /// Write hits.
    pub write_hits: u64,
    /// Write misses.
    pub write_misses: u64,
    /// Dirty lines written back on eviction.
    pub writebacks: u64,
    /// Fills plus write hits that turned a clean line dirty: every event
    /// that changes which lines are resident or dirty. A stretch of
    /// accesses that counts none leaves both as it found them.
    pub changes: u64,
}

impl CacheStats {
    /// The change in every counter since `before`.
    pub(crate) fn since(&self, before: &CacheStats) -> CacheStats {
        CacheStats {
            read_hits: self.read_hits - before.read_hits,
            read_misses: self.read_misses - before.read_misses,
            write_hits: self.write_hits - before.write_hits,
            write_misses: self.write_misses - before.write_misses,
            writebacks: self.writebacks - before.writebacks,
            changes: self.changes - before.changes,
        }
    }
}

/// One level of set-associative cache.
///
/// Lines are stored in one flat array (`set * ways + way`) so the per
/// access path — the hottest loop of the memory-bandwidth figures — is a
/// handful of shifts and a short linear scan with no pointer chasing.
/// Each set keeps its ways in recency order, most recently used first,
/// so the valid lines form a prefix and the last way is the victim. Two
/// caches whose words are equal therefore behave identically under
/// identical accesses, which is what the shortcuts in `measure` compare.
pub struct Cache {
    cfg: CacheConfig,
    /// One word per line: `tag << 2 | dirty << 1 | valid`; an invalid
    /// line is 0.
    lines: Vec<u64>,
    ways: usize,
    set_mask: usize,
    tag_shift: u32,
    line_shift: u32,
    stats: CacheStats,
    /// Whether any line was filled since the cache was built or last
    /// flushed. Only a fill makes a line valid, so while this is false
    /// every line is still blank and a flush has nothing to do.
    filled: bool,
}

impl Cache {
    /// Builds an empty (all-invalid) cache.
    ///
    /// # Panics
    ///
    /// Panics if the geometry is inconsistent (size not divisible into
    /// `ways * line`-byte sets, or line size not a power of two).
    pub fn new(cfg: CacheConfig) -> Cache {
        assert!(
            cfg.line.is_power_of_two(),
            "line size must be a power of two"
        );
        assert!(cfg.ways >= 1, "cache needs at least one way");
        assert_eq!(
            cfg.size % (cfg.line * cfg.ways),
            0,
            "size must divide into sets"
        );
        let sets = cfg.sets();
        assert!(sets.is_power_of_two(), "set count must be a power of two");
        Cache {
            cfg,
            lines: vec![0; sets * cfg.ways],
            ways: cfg.ways,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            line_shift: cfg.line.trailing_zeros(),
            stats: CacheStats::default(),
            filled: false,
        }
    }

    /// The configured geometry.
    pub fn config(&self) -> CacheConfig {
        self.cfg
    }

    /// Accumulated hit/miss counters.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Bumps the counters as if `reps` more passes with per-pass delta
    /// `d` had run (steady-state extrapolation in `measure`).
    pub(crate) fn add_stats(&mut self, reps: u64, d: CacheStats) {
        self.stats.read_hits += reps * d.read_hits;
        self.stats.read_misses += reps * d.read_misses;
        self.stats.write_hits += reps * d.write_hits;
        self.stats.write_misses += reps * d.write_misses;
        self.stats.writebacks += reps * d.writebacks;
        self.stats.changes += reps * d.changes;
    }

    /// Counts a read hit on a line the caller knows is resident and
    /// already ordered as the lookup would leave it, without the lookup
    /// (the line-pair step in `routines`).
    pub(crate) fn count_read_hit(&mut self) {
        self.stats.read_hits += 1;
    }

    /// Counts a write that repeats the outcome of the previous write to
    /// the same line: a hit on a line that write already dirtied, or a
    /// non-allocating miss.
    pub(crate) fn count_write(&mut self, hit: bool) {
        if hit {
            self.stats.write_hits += 1;
        } else {
            self.stats.write_misses += 1;
        }
    }

    /// Invalidates every line (e.g. a fresh run on a cold machine).
    pub fn flush(&mut self) {
        if !self.filled {
            return;
        }
        self.lines.fill(0);
        self.filled = false;
    }

    /// The first line index of the set `addr` maps to, and the word a
    /// valid, clean line holding `addr` would have.
    #[inline]
    fn index(&self, addr: u64) -> (usize, u64) {
        let line_addr = addr >> self.line_shift;
        let set = (line_addr as usize) & self.set_mask;
        let tag = line_addr >> self.tag_shift;
        (set * self.ways, tag << 2 | VALID)
    }

    /// The way of the set at `base` that holds the line whose clean
    /// word is `key`, as a line index.
    #[inline]
    fn find(&self, base: usize, key: u64) -> Option<usize> {
        (base..base + self.ways).find(|&i| self.lines[i] & !DIRTY == key)
    }

    /// Marks line `i` of the set at `base` most recently used: moves it
    /// to the front of its set.
    #[inline]
    fn touch(&mut self, base: usize, i: usize) {
        let line = self.lines[i];
        for j in (base..i).rev() {
            self.lines[j + 1] = self.lines[j];
        }
        self.lines[base] = line;
    }

    /// The ranges of `lines` that hold the sets `[start, start + len)`
    /// maps to: from the range's first set up to the last set, then the
    /// sets it wraps round to. Once the range spans a full period they
    /// hold every set once.
    fn runs(&self, start: u64, len: u64) -> [Range<usize>; 2] {
        let sets = self.set_mask + 1;
        let first_line = start >> self.line_shift;
        let lines = ((start + len - 1) >> self.line_shift) - first_line + 1;
        let first = first_line as usize & self.set_mask;
        let end = first + lines.min(sets as u64) as usize;
        [
            first * self.ways..end.min(sets) * self.ways,
            0..end.saturating_sub(sets) * self.ways,
        ]
    }

    /// The tag change of shifting every address by `shift` bytes, in
    /// line-word units (`shift` must be a multiple of
    /// [`Cache::period_bytes`], so set indices are unaffected).
    fn word_delta(&self, shift: u64) -> u64 {
        debug_assert_eq!(shift % self.period_bytes(), 0, "shift must preserve sets");
        (shift >> (self.line_shift + self.tag_shift)) << 2
    }

    /// Appends the words of every set that `[start, start + len)` maps
    /// to. Accesses confined to that range change no other set.
    pub(crate) fn save_sets(&self, out: &mut Vec<u64>, start: u64, len: u64) {
        for run in self.runs(start, len) {
            out.extend_from_slice(&self.lines[run]);
        }
    }

    /// Whether the sets that `[start, start + len)` maps to hold the
    /// words at the front of `saved` (as [`Cache::save_sets`] wrote
    /// them) with every tag advanced by `shift` bytes; moves `saved`
    /// past those words. Equal words mean the two states behave
    /// identically in those sets forever under identical accesses, the
    /// second `shift` bytes further on.
    pub(crate) fn sets_match(&self, saved: &mut &[u64], start: u64, len: u64, shift: u64) -> bool {
        let delta = self.word_delta(shift);
        self.runs(start, len).into_iter().all(|run| {
            let (then, rest) = saved.split_at(run.len());
            *saved = rest;
            let now = &self.lines[run];
            if delta == 0 {
                return now == then;
            }
            now.iter()
                .zip(then)
                .all(|(&n, &t)| n == if t & VALID != 0 { t + delta } else { t })
        })
    }

    /// Writes back the words [`Cache::save_sets`] saved for the sets
    /// that `[start, start + len)` maps to, from the front of `saved`;
    /// moves `saved` past them.
    pub(crate) fn restore_sets(&mut self, saved: &mut &[u64], start: u64, len: u64) {
        for run in self.runs(start, len) {
            let (then, rest) = saved.split_at(run.len());
            *saved = rest;
            self.lines[run].copy_from_slice(then);
        }
        self.filled = true;
    }

    /// The address span of one full trip around the sets (`size / ways`).
    /// Shifting every address by a multiple of this leaves set indices
    /// unchanged and bumps every tag by the same exact amount.
    pub(crate) fn period_bytes(&self) -> u64 {
        1u64 << (self.line_shift + self.tag_shift)
    }

    /// Translates the whole resident state `off` bytes forward: every
    /// valid line's tag advances as if it had been filled from an address
    /// `off` higher. `off` must be a multiple of [`Cache::period_bytes`].
    pub(crate) fn shift_tags(&mut self, off: u64) {
        let delta = self.word_delta(off);
        for l in &mut self.lines {
            if *l & VALID != 0 {
                *l = l.wrapping_add(delta);
            }
        }
    }

    /// Fills the line whose word is `word` into the set at `base` and
    /// returns whether the victim was dirty. The victim is the set's last
    /// way: an invalid one while the set has any, else the least recently
    /// used.
    #[inline]
    fn fill(&mut self, base: usize, word: u64) -> bool {
        let last = base + self.ways - 1;
        let evicted_dirty = self.lines[last] & DIRTY != 0;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        self.stats.changes += 1;
        self.filled = true;
        self.lines[last] = word;
        self.touch(base, last);
        evicted_dirty
    }

    /// Performs a read of the line containing `addr`. A miss allocates.
    #[inline]
    pub fn read(&mut self, addr: u64) -> Access {
        let (base, key) = self.index(addr);
        if let Some(i) = self.find(base, key) {
            self.touch(base, i);
            self.stats.read_hits += 1;
            return Access::Hit;
        }
        self.stats.read_misses += 1;
        let evicted_dirty = self.fill(base, key);
        Access::Miss { evicted_dirty }
    }

    /// Performs a write to the line containing `addr`.
    ///
    /// On a hit the line is marked dirty. A miss returns
    /// [`Access::MissNoAllocate`] and leaves the lines untouched.
    #[inline]
    pub fn write(&mut self, addr: u64) -> Access {
        let (base, key) = self.index(addr);
        if let Some(i) = self.find(base, key) {
            if self.lines[i] & DIRTY == 0 {
                self.lines[i] |= DIRTY;
                self.stats.changes += 1;
            }
            self.touch(base, i);
            self.stats.write_hits += 1;
            return Access::Hit;
        }
        self.stats.write_misses += 1;
        Access::MissNoAllocate
    }

    /// Whether the line containing `addr` is present (no LRU side effect).
    pub fn probe(&self, addr: u64) -> bool {
        let (base, key) = self.index(addr);
        self.find(base, key).is_some()
    }

    /// Number of valid lines currently held; never exceeds capacity.
    pub fn valid_lines(&self) -> usize {
        self.lines.iter().filter(|&&l| l & VALID != 0).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets x 2 ways x 32B lines = 256 bytes.
        Cache::new(CacheConfig {
            size: 256,
            ways: 2,
            line: 32,
        })
    }

    #[test]
    fn geometry() {
        assert_eq!(CacheConfig::p54c_l1d().sets(), 128);
        assert_eq!(CacheConfig::plato_l2().sets(), 8192);
        assert_eq!(tiny().config().sets(), 4);
    }

    #[test]
    fn read_miss_then_hit() {
        let mut c = tiny();
        assert_eq!(
            c.read(0x40),
            Access::Miss {
                evicted_dirty: false
            }
        );
        assert_eq!(c.read(0x40), Access::Hit);
        assert_eq!(c.read(0x5f), Access::Hit, "same 32-byte line");
        assert_eq!(
            c.read(0x60),
            Access::Miss {
                evicted_dirty: false
            },
            "next line"
        );
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = tiny();
        assert_eq!(c.write(0x100), Access::MissNoAllocate);
        assert_eq!(c.write(0x100), Access::MissNoAllocate, "still not cached");
        assert!(!c.probe(0x100));
        // After a read brings the line in, writes hit.
        assert!(!c.read(0x100).is_hit());
        assert_eq!(c.write(0x100), Access::Hit);
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut c = tiny();
        // Set 0 holds lines with addresses k * 4*32 (4 sets) -> 0x0, 0x80...
        c.read(0x000); // way A
        c.read(0x080); // way B (same set: 0x80/32 = 4, 4 % 4 = 0)
        c.read(0x000); // touch A
        c.read(0x100); // evicts B (LRU)
        assert!(c.probe(0x000));
        assert!(!c.probe(0x080));
        assert!(c.probe(0x100));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = tiny();
        c.read(0x000);
        c.write(0x000); // dirty
        c.read(0x080);
        match c.read(0x100) {
            // 0x000 is LRU and dirty.
            Access::Miss { evicted_dirty } => assert!(evicted_dirty),
            other => panic!("expected miss, got {other:?}"),
        }
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut c = tiny();
        for i in 0..1000u64 {
            c.read(i * 32);
        }
        assert!(c.valid_lines() <= 8);
        assert_eq!(c.valid_lines(), 8, "a big scan fills the cache exactly");
    }

    #[test]
    fn encoding_tells_tags_dirt_and_order_apart() {
        let state = |ways: usize, ops: &[(bool, u64)]| {
            let mut c = Cache::new(CacheConfig {
                size: 256,
                ways,
                line: 32,
            });
            for &(write, addr) in ops {
                if write {
                    c.write(addr);
                } else {
                    c.read(addr);
                }
            }
            let mut out = Vec::new();
            c.save_sets(&mut out, 0, 256);
            out
        };
        for ways in [1, 2] {
            // 0x0 and 0x400 share set 0 in both geometries.
            assert_ne!(state(ways, &[(false, 0)]), state(ways, &[(false, 0x400)]));
            assert_ne!(
                state(ways, &[(false, 0)]),
                state(ways, &[(false, 0), (true, 0)]),
                "clean versus dirty"
            );
        }
        assert_ne!(
            state(2, &[(false, 0), (false, 0x80)]),
            state(2, &[(false, 0x80), (false, 0)]),
            "LRU order"
        );
        assert_eq!(
            state(2, &[(false, 0), (false, 0x80), (false, 0)]),
            state(2, &[(false, 0x80), (false, 0)]),
            "only the recency order is kept"
        );
    }

    #[test]
    fn flush_empties() {
        let mut c = tiny();
        c.read(0);
        c.flush();
        assert_eq!(c.valid_lines(), 0);
        assert!(!c.probe(0));
    }

    #[test]
    fn a_used_then_flushed_cache_behaves_like_a_fresh_one() {
        // The flush of a cache nothing was filled into skips its lines;
        // a flush after fills must still leave a cache that no access
        // stream can tell from a freshly built one. Every third line read
        // is written too, so some victims are dirty.
        let stream = |c: &mut Cache| -> Vec<Access> {
            let mut out = Vec::new();
            for i in 0..64u64 {
                let addr = (i * 0x2c) % 0x400;
                out.push(c.read(addr));
                if i % 3 == 0 {
                    out.push(c.write(addr));
                }
            }
            out
        };
        let state = |c: &Cache| {
            let mut out = Vec::new();
            c.save_sets(&mut out, 0, c.period_bytes());
            out
        };
        let mut used = tiny();
        let mut fresh = tiny();
        used.flush(); // nothing filled yet
        let _ = stream(&mut used);
        used.flush();
        let before = used.stats();
        assert_eq!(used.valid_lines(), 0);
        assert_eq!(stream(&mut used), stream(&mut fresh));
        assert_eq!(used.stats().since(&before), fresh.stats());
        assert_eq!(state(&used), state(&fresh));
        assert!(fresh.stats().writebacks > 0);
    }

    #[test]
    fn stats_count() {
        let mut c = tiny();
        c.read(0);
        c.read(0);
        c.write(0);
        c.write(0x4000);
        let s = c.stats();
        assert_eq!(s.read_hits, 1);
        assert_eq!(s.read_misses, 1);
        assert_eq!(s.write_hits, 1);
        assert_eq!(s.write_misses, 1);
    }
}
