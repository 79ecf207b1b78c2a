//! Generic set-associative cache model with true LRU replacement.
//!
//! The Pentium P54C property that drives the paper's Section 6 results is
//! configured here per cache: **write-allocate off** means a write miss
//! does not bring the line into the cache, so subsequent writes to the
//! same line keep missing and drain through the write buffer at memory
//! speed.

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub size: usize,
    /// Associativity (1 = direct mapped).
    pub ways: usize,
    /// Line size in bytes (power of two).
    pub line: usize,
    /// Whether a write miss allocates the line (the Pentium's L1 does not).
    pub write_allocate: bool,
}

impl CacheConfig {
    /// The Pentium P54C 8 KB, 2-way, 32-byte-line L1 data cache.
    pub fn p54c_l1d() -> CacheConfig {
        CacheConfig {
            size: 8 * 1024,
            ways: 2,
            line: 32,
            write_allocate: false,
        }
    }

    /// The Intel Plato board's 256 KB direct-mapped pipeline-burst L2.
    pub fn plato_l2() -> CacheConfig {
        CacheConfig {
            size: 256 * 1024,
            ways: 1,
            line: 32,
            write_allocate: false,
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
    /// The line was absent and (for allocating accesses) has been brought
    /// in; `evicted_dirty` reports whether a dirty victim was written back.
    Miss {
        /// A dirty line was evicted to make room.
        evicted_dirty: bool,
    },
    /// The line was absent and, per the no-write-allocate policy, was NOT
    /// brought in; the data goes straight to the next level.
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

/// The tag of line word `l`, minus `delta`, over its dirty bit: the form
/// in which [`Cache::encode_state_rel`] reports a valid line.
#[inline]
fn packed(l: u64, delta: u64) -> u64 {
    ((l >> 2).wrapping_sub(delta) << 1) | (l & DIRTY) >> 1
}

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
pub struct Cache {
    cfg: CacheConfig,
    /// One word per line: `tag << 2 | dirty << 1 | valid`.
    lines: Vec<u64>,
    /// Per-line LRU stamps, parallel to `lines` (higher = more recently
    /// used). Empty when the cache is direct mapped: one way per set
    /// leaves nothing to order.
    lru: Vec<u64>,
    ways: usize,
    set_mask: usize,
    tag_shift: u32,
    line_shift: u32,
    clock: u64,
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
        let stamps = if cfg.ways > 1 { sets * cfg.ways } else { 0 };
        Cache {
            cfg,
            lines: vec![0; sets * cfg.ways],
            lru: vec![0; stamps],
            ways: cfg.ways,
            set_mask: sets - 1,
            tag_shift: sets.trailing_zeros(),
            line_shift: cfg.line.trailing_zeros(),
            clock: 0,
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

    /// Invalidates every line (e.g. a fresh run on a cold machine). The
    /// LRU stamps stay: a fill stamps its line before any comparison can
    /// read the stamp.
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

    /// Marks line `i` most recently used.
    #[inline]
    fn touch(&mut self, i: usize) {
        if let Some(stamp) = self.lru.get_mut(i) {
            self.clock += 1;
            *stamp = self.clock;
        }
    }

    /// Appends the normalised state of `count` consecutive sets from
    /// `first` (wrapping) to `out`: per set, the valid lines in
    /// most-to-least-recently-used order, each as its tag minus `delta`
    /// and its dirty bit. The absolute LRU clock values and the physical
    /// way an invalid slot occupies cannot affect any future access, so
    /// they are omitted: two caches whose encodings of a set are equal
    /// behave identically in that set forever under identical accesses.
    fn encode_sets(&self, first: usize, count: usize, delta: u64, out: &mut Vec<u64>) {
        if self.ways == 1 {
            for s in first..first + count {
                let l = self.lines[s & self.set_mask];
                out.push(l & VALID);
                if l & VALID != 0 {
                    out.push(packed(l, delta));
                }
            }
            return;
        }
        let mut set: Vec<(u64, u64)> = Vec::with_capacity(self.ways);
        for s in first..first + count {
            let base = (s & self.set_mask) * self.ways;
            set.clear();
            for i in base..base + self.ways {
                let l = self.lines[i];
                if l & VALID != 0 {
                    set.push((self.lru[i], packed(l, delta)));
                }
            }
            set.sort_unstable_by_key(|&(lru, _)| std::cmp::Reverse(lru));
            out.push(set.len() as u64);
            out.extend(set.iter().map(|&(_, packed)| packed));
        }
    }

    /// Appends the whole cache's state to `out`, with every tag expressed
    /// relative to byte offset `off` (which must be a multiple of
    /// [`Cache::period_bytes`], so set indices are unaffected). Two
    /// relative encodings at different offsets are equal exactly when one
    /// state is the other translated by the offset difference — the
    /// invariant behind the streaming extrapolation in `routines`.
    pub(crate) fn encode_state_rel(&self, out: &mut Vec<u64>, off: u64) {
        debug_assert_eq!(off % self.period_bytes(), 0, "offset must preserve sets");
        let delta = off >> (self.line_shift + self.tag_shift);
        self.encode_sets(0, self.set_mask + 1, delta, out);
    }

    /// Appends the state of just the sets that `[start, start + len)`
    /// maps to (every set once the range spans a full period). Accesses
    /// confined to that range cannot change any other set.
    pub(crate) fn encode_range(&self, out: &mut Vec<u64>, start: u64, len: u64) {
        let first = start >> self.line_shift;
        let lines = ((start + len - 1) >> self.line_shift) - first + 1;
        let count = lines.min(self.set_mask as u64 + 1) as usize;
        self.encode_sets(first as usize & self.set_mask, count, 0, out);
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
        debug_assert_eq!(off % self.period_bytes(), 0, "offset must preserve sets");
        let delta = off >> (self.line_shift + self.tag_shift);
        for l in &mut self.lines {
            if *l & VALID != 0 {
                *l = l.wrapping_add(delta << 2);
            }
        }
    }

    /// Fills the line whose word is `word` into the set at `base` and
    /// returns whether the victim was dirty.
    #[inline]
    fn fill(&mut self, base: usize, word: u64) -> bool {
        // Prefer an invalid way, then the least recently used; a
        // direct-mapped set has only its one way.
        let ways = base..base + self.ways;
        let way = match ways.clone().find(|&i| self.lines[i] & VALID == 0) {
            Some(i) => i,
            None => ways.min_by_key(|&i| self.lru.get(i)).unwrap_or(base),
        };
        let evicted_dirty = self.lines[way] & DIRTY != 0;
        if evicted_dirty {
            self.stats.writebacks += 1;
        }
        self.stats.changes += 1;
        self.filled = true;
        self.lines[way] = word;
        self.touch(way);
        evicted_dirty
    }

    /// Performs a read of the line containing `addr`. A miss allocates.
    #[inline]
    pub fn read(&mut self, addr: u64) -> Access {
        let (base, key) = self.index(addr);
        if let Some(i) = self.find(base, key) {
            self.touch(i);
            self.stats.read_hits += 1;
            return Access::Hit;
        }
        self.stats.read_misses += 1;
        let evicted_dirty = self.fill(base, key);
        Access::Miss { evicted_dirty }
    }

    /// Performs a write to the line containing `addr`.
    ///
    /// On a hit the line is marked dirty. On a miss the behaviour depends
    /// on `write_allocate`: the Pentium-style configuration returns
    /// [`Access::MissNoAllocate`] and leaves the cache untouched.
    #[inline]
    pub fn write(&mut self, addr: u64) -> Access {
        let (base, key) = self.index(addr);
        if let Some(i) = self.find(base, key) {
            self.touch(i);
            if self.lines[i] & DIRTY == 0 {
                self.lines[i] |= DIRTY;
                self.stats.changes += 1;
            }
            self.stats.write_hits += 1;
            return Access::Hit;
        }
        self.stats.write_misses += 1;
        if !self.cfg.write_allocate {
            return Access::MissNoAllocate;
        }
        let evicted_dirty = self.fill(base, key | DIRTY);
        Access::Miss { evicted_dirty }
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
            write_allocate: false,
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
    fn write_allocate_variant_allocates() {
        let mut c = Cache::new(CacheConfig {
            size: 256,
            ways: 2,
            line: 32,
            write_allocate: true,
        });
        assert_eq!(
            c.write(0x100),
            Access::Miss {
                evicted_dirty: false
            }
        );
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
                write_allocate: false,
            });
            for &(write, addr) in ops {
                if write {
                    c.write(addr);
                } else {
                    c.read(addr);
                }
            }
            let mut out = Vec::new();
            c.encode_range(&mut out, 0, 256);
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
            "only the order of the LRU stamps is kept"
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
        // stream can tell from a freshly built one.
        let stream = |c: &mut Cache| -> Vec<Access> {
            (0..64u64)
                .map(|i| {
                    let addr = (i * 0x2c) % 0x400;
                    if i % 3 == 0 {
                        c.write(addr)
                    } else {
                        c.read(addr)
                    }
                })
                .collect()
        };
        let state = |c: &Cache| {
            let mut out = Vec::new();
            c.encode_state_rel(&mut out, 0);
            out
        };
        let mut used = Cache::new(CacheConfig {
            write_allocate: true,
            ..tiny().config()
        });
        let mut fresh = Cache::new(used.config());
        used.flush(); // nothing filled yet
        let _ = stream(&mut used);
        used.flush();
        let before = used.stats();
        assert_eq!(used.valid_lines(), 0);
        assert_eq!(stream(&mut used), stream(&mut fresh));
        assert_eq!(used.stats().since(&before), fresh.stats());
        assert_eq!(state(&used), state(&fresh));
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
