//! The unified buffer cache.
//!
//! All three systems trade physical pages between the VM system and the
//! file cache, which is why Figures 9-11 show a cliff near 20 MB on the
//! 32 MB machine: the cache can grow to roughly that size. The cache is
//! an LRU over filesystem blocks with delayed writes: dirty blocks
//! accumulate until a high-water mark, then the writing process flushes
//! them in ascending disk order as clustered sequential transfers (the
//! classic self-throttling write-behind of 1990s kernels).
//!
//! A block is found the way Linux 1.2's `getblk` and 4.4BSD's `bufhash`
//! find one: an index hashed by block address leads straight to the
//! buffer, and the buffers are threaded on one doubly linked LRU list,
//! so a touch, insert, eviction or discard costs a few hash operations.
//! The index is never iterated, so its hash order decides nothing. The
//! dirty set stays ordered, because the flush writes in ascending
//! address order and takes its runs off the front of it.

use std::collections::BTreeSet;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

use parking_lot::Mutex;

use crate::disk::{Disk, IoKind};
use tnt_os::{KEnv, SysResult};
use tnt_sim::trace::{Class, Counter};
use tnt_sim::Cycles;

/// Cache geometry and write-behind policy.
#[derive(Clone, Copy, Debug)]
pub struct CacheParams {
    /// Maximum cache size in bytes (~20 MB on the 32 MB machine).
    pub capacity_bytes: u64,
    /// Cache block size = filesystem block size, in bytes.
    pub block_bytes: u64,
    /// Dirty bytes that trigger a flush by the writing process.
    pub dirty_hiwater_bytes: u64,
    /// Largest contiguous run written per disk command during a flush,
    /// in cache blocks (write clustering quality differs per OS).
    pub write_cluster_blocks: u64,
    /// CPU cost per cache block operation (hash lookup, buffer headers).
    pub per_block_cpu_cy: u64,
}

/// The end of the LRU list. Never a block address: those count 1 KB
/// blocks on a disk far smaller than 2^64 KB.
const NIL: u64 = u64::MAX;

/// A resident block: its neighbours in LRU order and whether it holds
/// a delayed write.
#[derive(Clone, Copy)]
struct Entry {
    older: u64,
    newer: u64,
    dirty: bool,
}

/// Hashes a block address with one multiply. The keys come from the
/// filesystem's own allocator, never from outside the program.
#[derive(Default)]
struct AddrHasher(u64);

impl Hasher for AddrHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("block addresses hash as one u64");
    }

    fn write_u64(&mut self, n: u64) {
        // Buckets come from the low bits, which aligned addresses share:
        // rotate the well-mixed high half of the product down.
        self.0 = n.wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

#[expect(
    clippy::disallowed_types,
    reason = "keyed lookup/insert/remove only, never iterated"
)]
type BlockIndex = std::collections::HashMap<u64, Entry, BuildHasherDefault<AddrHasher>>;

struct CState {
    /// addr (in 1 KB disk blocks, block-aligned) -> entry, linked from
    /// `oldest` to `newest`.
    map: BlockIndex,
    oldest: u64,
    newest: u64,
    dirty: BTreeSet<u64>,
    hits: u64,
    misses: u64,
}

impl CState {
    fn entry_mut(&mut self, addr: u64) -> &mut Entry {
        self.map.get_mut(&addr).expect("neighbour is resident")
    }

    /// Closes the gap `e` leaves in the LRU list.
    fn unlink(&mut self, e: Entry) {
        match e.older {
            NIL => self.oldest = e.newer,
            older => self.entry_mut(older).newer = e.newer,
        }
        match e.newer {
            NIL => self.newest = e.older,
            newer => self.entry_mut(newer).older = e.older,
        }
    }

    /// Caches `addr` as the newest block; a resident block moves there
    /// and takes the new dirty flag.
    fn insert(&mut self, addr: u64, dirty: bool) {
        if self.remove(addr).is_some_and(|old| old.dirty && !dirty) {
            self.dirty.remove(&addr);
        }
        let older = self.newest;
        self.map.insert(
            addr,
            Entry {
                older,
                newer: NIL,
                dirty,
            },
        );
        match older {
            NIL => self.oldest = addr,
            older => self.entry_mut(older).newer = addr,
        }
        self.newest = addr;
        if dirty {
            self.dirty.insert(addr);
        }
    }

    /// Drops a resident block from the index and the list (not from the
    /// dirty set) and returns its entry.
    fn remove(&mut self, addr: u64) -> Option<Entry> {
        let e = self.map.remove(&addr)?;
        self.unlink(e);
        Some(e)
    }
}

/// A write-behind LRU buffer cache in front of one disk.
pub struct BufferCache {
    disk: Arc<Disk>,
    params: CacheParams,
    state: Mutex<CState>,
}

impl BufferCache {
    /// An empty cache over `disk`.
    pub fn new(disk: Arc<Disk>, params: CacheParams) -> BufferCache {
        assert!(params.block_bytes >= 1024 && params.block_bytes.is_multiple_of(1024));
        assert!(params.capacity_bytes >= params.block_bytes);
        BufferCache {
            disk,
            params,
            state: Mutex::new(CState {
                map: BlockIndex::default(),
                oldest: NIL,
                newest: NIL,
                dirty: BTreeSet::new(),
                hits: 0,
                misses: 0,
            }),
        }
    }

    /// The cache parameters.
    pub fn params(&self) -> CacheParams {
        self.params
    }

    fn bs_kb(&self) -> u64 {
        self.params.block_bytes / 1024
    }

    fn capacity_blocks(&self) -> u64 {
        self.params.capacity_bytes / self.params.block_bytes
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.hits, st.misses)
    }

    /// The underlying disk's (reads, writes, blocks moved).
    pub fn disk_stats(&self) -> (u64, u64, u64) {
        self.disk.stats()
    }

    /// The underlying disk, for callers that need its full statistics
    /// surface (the capture/replay equality experiments compare
    /// [`Disk::busy_cycles`] across a record/replay pair).
    pub fn disk(&self) -> &Arc<Disk> {
        &self.disk
    }

    /// Bytes of dirty data currently held.
    pub fn dirty_bytes(&self) -> u64 {
        self.state.lock().dirty.len() as u64 * self.params.block_bytes
    }

    /// Whether the block at `addr` is cached (tests).
    pub fn contains(&self, addr: u64) -> bool {
        self.state.lock().map.contains_key(&addr)
    }

    /// Whether the block at `addr` is dirty (not yet on disk).
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.state.lock().dirty.contains(&addr)
    }

    /// Evicts LRU entries until there is room for `need` more blocks.
    /// Returns the dirty victims that must be written out.
    fn make_room(&self, st: &mut CState, need: u64) -> Vec<u64> {
        let cap = self.capacity_blocks();
        let mut victims = Vec::new();
        while st.map.len() as u64 + need > cap {
            let addr = st.oldest;
            let Some(e) = st.remove(addr) else {
                break;
            };
            if e.dirty {
                st.dirty.remove(&addr);
                victims.push(addr);
            }
        }
        victims
    }

    /// Reads the cache block at `addr` (1 KB-block address, aligned to the
    /// cache block size). On a miss, reads `1 + readahead` consecutive
    /// blocks from disk in one command. Returns whether it hit, or the
    /// disk's error if a miss's transfer failed past the retry budget.
    pub async fn read(&self, env: &KEnv, addr: u64, readahead: u64) -> SysResult<bool> {
        {
            let _s = env.sim.span(Class::FsCpu);
            env.sim.charge(Cycles(self.params.per_block_cpu_cy));
        }
        let bs = self.bs_kb();
        debug_assert_eq!(addr % bs, 0, "unaligned cache read");
        let (hit, write_out) = {
            let mut st = self.state.lock();
            if let Some(&e) = st.map.get(&addr) {
                st.hits += 1;
                st.insert(addr, e.dirty);
                (true, Vec::new())
            } else {
                st.misses += 1;
                let n = 1 + readahead;
                let victims = self.make_room(&mut st, n);
                for i in 0..n {
                    st.insert(addr + i * bs, false);
                }
                (false, victims)
            }
        };
        env.sim.count(
            if hit {
                Counter::CacheHits
            } else {
                Counter::CacheMisses
            },
            1,
        );
        if !hit {
            self.write_runs(env, &write_out).await?;
            self.disk
                .io(env, IoKind::Read, addr, (1 + readahead) * bs)
                .await?;
        }
        Ok(hit)
    }

    /// Writes the cache block at `addr`.
    ///
    /// `sync` forces the block to disk before returning (FFS metadata).
    /// Delayed writes accumulate; once the dirty high-water mark is hit,
    /// the caller flushes down to half the mark, paying the disk time —
    /// this is where sequential-write benchmarks become disk bound.
    ///
    /// Errors surface only from the disk commands a write triggers (sync
    /// writes, evictions, high-water flushes); the block itself is cached
    /// before any of those run.
    pub async fn write(&self, env: &KEnv, addr: u64, sync: bool) -> SysResult<()> {
        {
            let _s = env.sim.span(Class::FsCpu);
            env.sim.charge(Cycles(self.params.per_block_cpu_cy));
        }
        if sync {
            env.sim.count(Counter::SyncMetaWrites, 1);
        }
        let bs = self.bs_kb();
        debug_assert_eq!(addr % bs, 0, "unaligned cache write");
        let write_out = {
            let mut st = self.state.lock();
            let victims = self.make_room(&mut st, 1);
            st.insert(addr, !sync);
            victims
        };
        self.write_runs(env, &write_out).await?;
        if sync {
            return self.disk.io(env, IoKind::Write, addr, bs).await;
        }
        let hiwater_blocks = self.params.dirty_hiwater_bytes / self.params.block_bytes;
        let need_flush = self.state.lock().dirty.len() as u64 > hiwater_blocks;
        if need_flush {
            self.flush_down_to(env, hiwater_blocks / 2).await?;
        }
        Ok(())
    }

    /// Flushes dirty blocks (ascending disk order, clustered) until at
    /// most `target_blocks` remain dirty.
    async fn flush_down_to(&self, env: &KEnv, target_blocks: u64) -> SysResult<()> {
        loop {
            let run = {
                let mut st = self.state.lock();
                if st.dirty.len() as u64 <= target_blocks {
                    return Ok(());
                }
                self.take_run(&mut st)
            };
            match run {
                None => return Ok(()),
                Some((addr, nblocks)) => {
                    self.disk
                        .io(env, IoKind::Write, addr, nblocks * self.bs_kb())
                        .await?;
                }
            }
        }
    }

    /// Removes the first contiguous dirty run (up to the cluster limit)
    /// and marks it clean; returns (start addr, blocks).
    fn take_run(&self, st: &mut CState) -> Option<(u64, u64)> {
        let bs = self.bs_kb();
        let first = st.dirty.pop_first()?;
        let mut n = 1;
        while n < self.params.write_cluster_blocks && st.dirty.first() == Some(&(first + n * bs)) {
            st.dirty.pop_first();
            n += 1;
        }
        for i in 0..n {
            if let Some(e) = st.map.get_mut(&(first + i * bs)) {
                e.dirty = false;
            }
        }
        Some((first, n))
    }

    /// Writes evicted dirty victims back, merging contiguous blocks into
    /// clustered commands (sequential workloads evict in address order,
    /// so this behaves like the elevator it models).
    async fn write_runs(&self, env: &KEnv, victims: &[u64]) -> SysResult<()> {
        if victims.is_empty() {
            return Ok(());
        }
        let bs = self.bs_kb();
        let mut sorted = victims.to_vec();
        sorted.sort_unstable();
        let mut start = sorted[0];
        let mut len = 1u64;
        for &addr in &sorted[1..] {
            if addr == start + len * bs && len < self.params.write_cluster_blocks {
                len += 1;
            } else {
                self.disk.io(env, IoKind::Write, start, len * bs).await?;
                start = addr;
                len = 1;
            }
        }
        self.disk.io(env, IoKind::Write, start, len * bs).await
    }

    /// Writes out every dirty block (the `sync`/fresh-filesystem path).
    pub async fn flush_all(&self, env: &KEnv) -> SysResult<()> {
        self.flush_down_to(env, 0).await
    }

    /// Drops the given blocks without writing them back — the fate of a
    /// deleted file's delayed writes (ext2's asynchronous win: a compiler
    /// temporary can live and die without ever touching the disk).
    pub fn discard(&self, addrs: &[u64]) {
        let mut st = self.state.lock();
        for &addr in addrs {
            if st.remove(addr).is_some() {
                st.dirty.remove(&addr);
            }
        }
    }

    /// Drops every entry without writing (mkfs of a scratch partition).
    pub fn invalidate_all(&self) {
        let mut st = self.state.lock();
        st.map.clear();
        st.oldest = NIL;
        st.newest = NIL;
        st.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use tnt_os::{boot, Os};
    use tnt_sim::replay::{Op, TraceEvent};

    fn params() -> CacheParams {
        CacheParams {
            capacity_bytes: 64 * 1024,
            block_bytes: 8192,
            dirty_hiwater_bytes: 32 * 1024,
            write_cluster_blocks: 8,
            per_block_cpu_cy: 100,
        }
    }

    /// Runs `f` as one user process over a fresh cache with the workload
    /// recorder armed; returns the final clock, the cache and the block
    /// commands the disk saw, in issue order.
    fn run_recorded<Fut>(
        os: Os,
        params: CacheParams,
        f: impl FnOnce(KEnv, Arc<BufferCache>) -> Fut + Send + 'static,
    ) -> (Cycles, Arc<BufferCache>, Vec<TraceEvent>)
    where
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let (sim, kernel) = boot(os, 0);
        sim.recorder().enable();
        let disk = Arc::new(Disk::new(DiskParams::hp3725()));
        let cache = Arc::new(BufferCache::new(disk, params));
        let env = kernel.env().clone();
        let c2 = cache.clone();
        kernel.spawn_user("user", move |_| f(env, c2));
        let t = sim.run().unwrap();
        (t, cache, sim.recorder().take().events)
    }

    fn run_with_cache<Fut>(
        f: impl FnOnce(KEnv, Arc<BufferCache>) -> Fut + Send + 'static,
    ) -> (Cycles, (u64, u64), (u64, u64, u64))
    where
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
        let (t, cache, _) = run_recorded(Os::Linux, params(), f);
        (t, cache.stats(), cache.disk_stats())
    }

    /// 64-bit FNV-1a over little-endian words.
    struct Fnv(u64);

    impl Fnv {
        fn new() -> Fnv {
            Fnv(0xcbf2_9ce4_8422_2325)
        }

        fn word(&mut self, w: u64) {
            for b in w.to_le_bytes() {
                self.0 ^= u64::from(b);
                self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
            }
        }
    }

    fn splitmix(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Drives a seeded stream of `OPS` cache operations over a cache of
    /// 40 `block_bytes` blocks and an address range of 96 blocks, and
    /// folds everything the cache lets an observer see into one digest.
    fn op_stream_digest(os: Os, block_bytes: u64, seed: u64) -> u64 {
        const OPS: u64 = 5_000;
        const SPAN: u64 = 96;
        let p = CacheParams {
            capacity_bytes: 40 * block_bytes,
            block_bytes,
            dirty_hiwater_bytes: 8 * block_bytes,
            write_cluster_blocks: 4,
            per_block_cpu_cy: 100,
        };
        let observed = Arc::new(Mutex::new(Fnv::new()));
        let obs = observed.clone();
        let (t, cache, events) = run_recorded(os, p, move |env, c| async move {
            let bs = block_bytes / 1024;
            let mut rng = seed;
            for i in 0..OPS {
                if i % 100 == 0 {
                    let mut h = obs.lock();
                    for b in 0..SPAN {
                        h.word(u64::from(c.contains(b * bs)) | u64::from(c.is_dirty(b * bs)) << 1);
                    }
                }
                let r = splitmix(&mut rng);
                let addr = (r % SPAN) * bs;
                match (r >> 32) % 1000 {
                    0..=479 => {
                        let hit = c.read(&env, addr, (r >> 48) % 8).await.unwrap();
                        obs.lock().word(u64::from(hit));
                    }
                    480..=699 => c.write(&env, addr, false).await.unwrap(),
                    700..=799 => c.write(&env, addr, true).await.unwrap(),
                    800..=974 => {
                        let n = 1 + (r >> 48) % 6;
                        let set: Vec<u64> =
                            (0..n).map(|_| (splitmix(&mut rng) % SPAN) * bs).collect();
                        c.discard(&set);
                    }
                    975..=994 => c.flush_all(&env).await.unwrap(),
                    _ => c.invalidate_all(),
                }
            }
        });
        let mut h = Fnv(observed.lock().0);
        for e in &events {
            h.word(e.t);
            h.word(u64::from(e.pid));
            h.word(u64::from(e.op.code()));
            h.word(e.arg);
            h.word(e.size);
        }
        let (hits, misses) = cache.stats();
        let (reads, writes, moved) = cache.disk_stats();
        for w in [
            hits,
            misses,
            reads,
            writes,
            moved,
            cache.disk().busy_cycles().0,
            t.0,
        ] {
            h.word(w);
        }
        h.0
    }

    /// Pins everything observable about the cache's replacement and
    /// write-behind order: which blocks are resident and dirty, which
    /// reads hit, and every disk command with its issue time.
    #[test]
    fn op_stream_digest_is_pinned() {
        let linux_1k = op_stream_digest(Os::Linux, 1024, 1996);
        let bsd_8k = op_stream_digest(Os::FreeBsd, 8192, 7);
        assert_eq!(
            (linux_1k, bsd_8k),
            (0xb4e3_ed49_af8d_4da4, 0x2fe5_995f_f2cf_6266)
        );
    }

    /// Addresses among `watched` that each successive read of a fresh
    /// block evicts, in eviction order.
    async fn eviction_order(env: &KEnv, c: &BufferCache, watched: &[u64], fresh: u64) -> Vec<u64> {
        let mut order = Vec::new();
        let mut next = fresh;
        while order.len() < watched.len() {
            c.read(env, next, 0).await.unwrap();
            next += 8;
            for &a in watched {
                if !c.contains(a) && !order.contains(&a) {
                    order.push(a);
                }
            }
        }
        order
    }

    #[test]
    fn discard_then_reinsert_makes_a_block_newest() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in 0..8u64 {
                c.read(&env, i * 8, 0).await.unwrap();
            }
            c.discard(&[0]);
            c.write(&env, 0, false).await.unwrap();
            let watched: Vec<u64> = (0..8).map(|i| i * 8).collect();
            let order = eviction_order(&env, &c, &watched, 800).await;
            assert_eq!(order, [8, 16, 24, 32, 40, 48, 56, 0]);
        });
    }

    #[test]
    fn readahead_relinks_resident_blocks_newest_in_address_order() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in [2u64, 10, 11, 12] {
                c.read(&env, i * 8, 0).await.unwrap();
            }
            // Misses at 0 and brings 0..=3; block 2 was already resident.
            assert!(!c.read(&env, 0, 3).await.unwrap());
            let watched: Vec<u64> = [10u64, 11, 12, 0, 1, 2, 3].map(|i| i * 8).to_vec();
            let order = eviction_order(&env, &c, &watched, 800).await;
            assert_eq!(order, watched);
        });
    }

    #[test]
    fn read_miss_writes_dirty_victims_before_its_read() {
        let (_, _, events) = run_recorded(Os::Linux, params(), |env, c| async move {
            c.write(&env, 0, false).await.unwrap();
            for i in 1..=8u64 {
                c.read(&env, i * 8, 0).await.unwrap();
            }
            assert!(!c.contains(0));
        });
        let tail: Vec<(Op, u64, u64)> = events[events.len() - 2..]
            .iter()
            .map(|e| (e.op, e.arg, e.size))
            .collect();
        assert_eq!(tail, [(Op::BlockWrite, 0, 8), (Op::BlockRead, 64, 8)]);
    }

    #[test]
    fn read_miss_then_hit() {
        let (_, (hits, misses), (reads, _, _)) = run_with_cache(|env, c| async move {
            assert!(!c.read(&env, 0, 0).await.unwrap(), "cold miss");
            assert!(c.read(&env, 0, 0).await.unwrap(), "now cached");
        });
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(reads, 1);
    }

    #[test]
    fn readahead_fills_following_blocks() {
        let (_, (hits, misses), (reads, _, _)) = run_with_cache(|env, c| async move {
            assert!(!c.read(&env, 0, 3).await.unwrap()); // brings 0, 8, 16, 24 (KB)
            assert!(c.read(&env, 8, 0).await.unwrap());
            assert!(c.read(&env, 16, 0).await.unwrap());
            assert!(c.read(&env, 24, 0).await.unwrap());
        });
        assert_eq!((hits, misses), (3, 1));
        assert_eq!(reads, 1, "one clustered disk read");
    }

    #[test]
    fn delayed_write_touches_no_disk() {
        let (_, _, (reads, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, 0, false).await.unwrap();
            c.write(&env, 8, false).await.unwrap();
            assert_eq!(c.dirty_bytes(), 16 * 1024);
        });
        assert_eq!((reads, writes), (0, 0), "delayed writes stay in cache");
    }

    #[test]
    fn sync_write_hits_disk_immediately() {
        let (t, _, (_, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, 700_000 * 8, true).await.unwrap();
        });
        assert_eq!(writes, 1);
        assert!(t.as_millis() > 5.0, "a sync metadata write costs a disk op");
    }

    #[test]
    fn hiwater_flush_clusters_sequential_runs() {
        // Cache hiwater = 4 blocks; writing 6 sequential blocks forces a
        // flush that should need very few disk commands.
        let (_, _, (_, writes, blocks)) = run_with_cache(|env, c| async move {
            for i in 0..6u64 {
                c.write(&env, i * 8, false).await.unwrap();
            }
        });
        assert!(writes <= 2, "clustered flush, got {writes} commands");
        assert!(blocks >= 16, "flushed at least down to half the mark");
    }

    #[test]
    fn eviction_never_exceeds_capacity() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in 0..100u64 {
                c.read(&env, i * 8, 0).await.unwrap();
            }
            // Capacity is 8 blocks of 8 KB.
            let mut resident = 0;
            for i in 0..100u64 {
                if c.contains(i * 8) {
                    resident += 1;
                }
            }
            assert!(resident <= 8);
            assert_eq!(resident, 8, "a scan leaves the cache full");
        });
    }

    #[test]
    fn dirty_eviction_writes_back() {
        let (_, _, (_, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, 0, false).await.unwrap(); // one dirty block
            for i in 1..20u64 {
                c.read(&env, i * 8, 0).await.unwrap(); // push it out
            }
            assert!(!c.contains(0));
        });
        assert!(writes >= 1, "the dirty victim reached the disk");
    }

    #[test]
    fn flush_all_cleans_everything() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in 0..4u64 {
                c.write(&env, i * 8, false).await.unwrap();
            }
            c.flush_all(&env).await.unwrap();
            assert_eq!(c.dirty_bytes(), 0);
        });
    }

    #[test]
    fn invalidate_drops_without_io() {
        let (_, _, (_, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, 0, false).await.unwrap();
            c.invalidate_all();
            assert_eq!(c.dirty_bytes(), 0);
            assert!(!c.contains(0));
        });
        assert_eq!(writes, 0);
    }
}
