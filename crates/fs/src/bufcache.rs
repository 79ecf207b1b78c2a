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
//! A block is found through a two-level table indexed by block number:
//! the top level holds one leaf per 1,024 block numbers, allocated when
//! the first block in its range is cached and freed when the last one
//! leaves, and a leaf's cell holds the block's slot. Linux 1.2's
//! `getblk` and 4.4BSD's `bufhash` hash the address instead; Linux 2.5
//! made this trade when it replaced the global page-cache hash with
//! per-file radix trees. The filesystem's blocks lie in three zones, so
//! the table stays small: a 100 MB ext2 file spreads over 368 leaves, of
//! which the 21 MB cache keeps 78 (312 KB) allocated once the file is
//! written; an FFS or UFS one spreads over 16 and keeps 4.
//! The buffers are slots of one vector, threaded on one doubly linked
//! LRU list by slot number, so a hit costs two loads and relinks without
//! touching the index, and an eviction takes the oldest slot directly.
//! The index is never iterated. The dirty blocks stay in ascending
//! address order, because the flush writes in that order and takes its
//! runs off the front.
//!
//! [`BufferCache::read`] and [`BufferCache::write`] take one file
//! request's blocks, so a request takes the cache lock once, and once
//! more after each disk command one of its blocks causes.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

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

/// The end of the LRU list and of the free list.
const NIL: u32 = u32::MAX;

/// A buffer slot: the block it holds, its neighbours in LRU order and
/// whether it holds a delayed write. A free slot is linked through
/// `newer` on the free list.
#[derive(Clone, Copy)]
struct Buf {
    addr: u64,
    older: u32,
    newer: u32,
    dirty: bool,
}

/// Block numbers per leaf of the block index.
const LEAF: usize = 1024;

/// A leaf of the block index: the slots of `LEAF` consecutive block
/// numbers, `NIL` where no block is resident, and how many are.
struct Leaf {
    slots: [u32; LEAF],
    resident: u32,
}

/// Maps a resident block's address to its slot: a table of leaves
/// indexed by block number, so a lookup is two loads and no hash. A leaf
/// covers `LEAF` consecutive block numbers; the first block inserted in
/// its range allocates it and the last one removed frees it, so the
/// leaves are those of the resident blocks. The filesystem's three zones
/// (data, cylinder groups, inodes) keep the top table to a few thousand
/// entries at most.
struct BlockIndex {
    /// log2 of the block size in 1 KB disk blocks.
    shift: u32,
    /// Leaf `i` covers block numbers `i * LEAF ..`; `None` where none of
    /// them is resident.
    top: Vec<Option<Box<Leaf>>>,
    /// Resident blocks.
    len: u64,
}

impl BlockIndex {
    fn new(block_kb: u64) -> BlockIndex {
        BlockIndex {
            shift: block_kb.trailing_zeros(),
            top: Vec::new(),
            len: 0,
        }
    }

    /// The leaf and cell of block address `addr`.
    fn split(&self, addr: u64) -> (usize, usize) {
        let block = (addr >> self.shift) as usize;
        (block / LEAF, block % LEAF)
    }

    /// The slot of `addr`, if it is resident.
    fn get(&self, addr: u64) -> Option<u32> {
        let (leaf, cell) = self.split(addr);
        match self.top.get(leaf)?.as_ref()?.slots[cell] {
            NIL => None,
            slot => Some(slot),
        }
    }

    /// The slot of `addr` and `false` if it is resident; otherwise
    /// stores `new()` as its slot and returns it with `true`.
    fn get_or_insert_with(&mut self, addr: u64, new: impl FnOnce() -> u32) -> (u32, bool) {
        let (leaf, cell) = self.split(addr);
        if leaf >= self.top.len() {
            self.top.resize_with(leaf + 1, || None);
        }
        let leaf = self.top[leaf].get_or_insert_with(|| {
            Box::new(Leaf {
                slots: [NIL; LEAF],
                resident: 0,
            })
        });
        let cell = &mut leaf.slots[cell];
        if *cell != NIL {
            return (*cell, false);
        }
        *cell = new();
        leaf.resident += 1;
        self.len += 1;
        (*cell, true)
    }

    /// Unmaps `addr`, and frees its leaf if no other block of the leaf is
    /// resident; the slot it had, if it was resident.
    fn remove(&mut self, addr: u64) -> Option<u32> {
        let (i, cell) = self.split(addr);
        let entry = self.top.get_mut(i)?;
        let leaf = entry.as_mut()?;
        let slot = std::mem::replace(&mut leaf.slots[cell], NIL);
        if slot == NIL {
            return None;
        }
        leaf.resident -= 1;
        if leaf.resident == 0 {
            *entry = None;
        }
        self.len -= 1;
        Some(slot)
    }

    /// Unmaps every block and frees every leaf.
    fn clear(&mut self) {
        self.top.clear();
        self.len = 0;
    }
}

struct CState {
    /// addr (in 1 KB disk blocks, block-aligned) -> its slot in `bufs`.
    index: BlockIndex,
    /// Resident slots are linked from `oldest` to `newest`.
    bufs: Vec<Buf>,
    oldest: u32,
    newest: u32,
    /// Head of the free slots.
    free: u32,
    /// Dirty block addresses, ascending. Sequential writes append at the
    /// back and flush runs pop from the front; anything else
    /// binary-searches. A delayed write that takes it past the
    /// high-water mark flushes it down to half, so it stays within the
    /// mark plus one block per writer (8,193 on ext2, 1,025 on FFS/UFS
    /// for one writer), and a middle insert or remove moves about 32 KB
    /// at most.
    dirty: VecDeque<u64>,
    hits: u64,
    misses: u64,
}

impl CState {
    fn buf(&mut self, slot: u32) -> &mut Buf {
        &mut self.bufs[slot as usize]
    }

    /// Closes the gap `slot` leaves in the LRU list.
    fn unlink(&mut self, slot: u32) {
        let Buf { older, newer, .. } = *self.buf(slot);
        match older {
            NIL => self.oldest = newer,
            older => self.buf(older).newer = newer,
        }
        match newer {
            NIL => self.newest = older,
            newer => self.buf(newer).older = older,
        }
    }

    /// Links `slot` in as the newest block.
    fn link_newest(&mut self, slot: u32) {
        let older = self.newest;
        let b = self.buf(slot);
        b.older = older;
        b.newer = NIL;
        match older {
            NIL => self.oldest = slot,
            older => self.buf(older).newer = slot,
        }
        self.newest = slot;
    }

    /// Makes a resident block the newest; whether `addr` was resident.
    fn touch(&mut self, addr: u64) -> bool {
        let Some(slot) = self.index.get(addr) else {
            return false;
        };
        self.unlink(slot);
        self.link_newest(slot);
        true
    }

    /// Makes `addr` the newest block, caching it clean if it was not
    /// resident; returns its slot and whether it is dirty.
    fn make_newest(&mut self, addr: u64) -> (u32, bool) {
        let (bufs, free) = (&mut self.bufs, &mut self.free);
        let (slot, fresh) = self.index.get_or_insert_with(addr, || {
            let buf = Buf {
                addr,
                older: NIL,
                newer: NIL,
                dirty: false,
            };
            match *free {
                NIL => {
                    bufs.push(buf);
                    (bufs.len() - 1) as u32
                }
                slot => {
                    *free = bufs[slot as usize].newer;
                    bufs[slot as usize] = buf;
                    slot
                }
            }
        });
        let dirty = if fresh {
            false
        } else {
            self.unlink(slot);
            self.bufs[slot as usize].dirty
        };
        self.link_newest(slot);
        (slot, dirty)
    }

    /// Caches `addr` as the newest block with the given dirty flag.
    fn insert(&mut self, addr: u64, dirty: bool) {
        let (slot, was_dirty) = self.make_newest(addr);
        self.buf(slot).dirty = dirty;
        match (was_dirty, dirty) {
            (true, false) => self.unmark_dirty(addr),
            (false, true) => match self.dirty.back() {
                Some(&back) if back > addr => {
                    let at = self.dirty.partition_point(|&a| a < addr);
                    self.dirty.insert(at, addr);
                }
                _ => self.dirty.push_back(addr),
            },
            _ => {}
        }
    }

    /// Drops a dirty block's address from the dirty list.
    fn unmark_dirty(&mut self, addr: u64) {
        if self.dirty.front() == Some(&addr) {
            self.dirty.pop_front();
        } else if let Ok(at) = self.dirty.binary_search(&addr) {
            self.dirty.remove(at);
        }
    }

    /// Drops the least recently used block; its address and whether it
    /// held a delayed write.
    fn evict_oldest(&mut self) -> Option<(u64, bool)> {
        let slot = self.oldest;
        if slot == NIL {
            return None;
        }
        let addr = self.buf(slot).addr;
        self.index.remove(addr);
        Some((addr, self.release(slot)))
    }

    /// Frees the slot of a block the index no longer maps, dropping the
    /// block from the LRU list and the dirty set; whether it was dirty.
    fn release(&mut self, slot: u32) -> bool {
        self.unlink(slot);
        self.buf(slot).newer = self.free;
        self.free = slot;
        let Buf { addr, dirty, .. } = *self.buf(slot);
        if dirty {
            self.unmark_dirty(addr);
        }
        dirty
    }
}

/// A write-behind LRU buffer cache in front of one disk.
pub struct BufferCache {
    disk: Arc<Disk>,
    params: CacheParams,
    state: Mutex<CState>,
    /// State-lock acquisitions so far (unit tests only: they pin the
    /// lock traffic of a request).
    #[cfg(test)]
    locks: std::sync::atomic::AtomicU64,
}

impl BufferCache {
    /// An empty cache over `disk`. Panics unless the block size is a
    /// power of two of at least 1 KB and the capacity holds a block.
    pub fn new(disk: Arc<Disk>, params: CacheParams) -> BufferCache {
        assert!(params.block_bytes >= 1024 && params.block_bytes.is_power_of_two());
        assert!(params.capacity_bytes >= params.block_bytes);
        BufferCache {
            disk,
            params,
            state: Mutex::new(CState {
                index: BlockIndex::new(params.block_bytes / 1024),
                bufs: Vec::new(),
                oldest: NIL,
                newest: NIL,
                free: NIL,
                dirty: VecDeque::new(),
                hits: 0,
                misses: 0,
            }),
            #[cfg(test)]
            locks: std::sync::atomic::AtomicU64::new(0),
        }
    }

    /// The one place the cache takes its state lock.
    fn lock(&self) -> MutexGuard<'_, CState> {
        #[cfg(test)]
        self.locks
            .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        self.state.lock()
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
        let st = self.lock();
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
        self.lock().dirty.len() as u64 * self.params.block_bytes
    }

    /// Whether the block at `addr` is cached (tests).
    pub fn contains(&self, addr: u64) -> bool {
        self.lock().index.get(addr).is_some()
    }

    /// The block index's allocated leaves and top-table entries (tests).
    #[cfg(test)]
    pub(crate) fn index_shape(&self) -> (usize, usize) {
        let st = self.lock();
        let leaves = st.index.top.iter().filter(|leaf| leaf.is_some()).count();
        (leaves, st.index.top.len())
    }

    /// Whether the block at `addr` is dirty (not yet on disk).
    pub fn is_dirty(&self, addr: u64) -> bool {
        self.lock().dirty.binary_search(&addr).is_ok()
    }

    /// Evicts LRU entries until there is room for `need` more blocks.
    /// Returns the dirty victims that must be written out.
    fn make_room(&self, st: &mut CState, need: u64) -> Vec<u64> {
        let cap = self.capacity_blocks();
        let mut victims = Vec::new();
        while st.index.len + need > cap {
            let Some((addr, dirty)) = st.evict_oldest() else {
                break;
            };
            if dirty {
                victims.push(addr);
            }
        }
        victims
    }

    /// Reads one request's cache blocks, in order. Each entry is a 1 KB
    /// block address, aligned to the cache block size, and the read-ahead
    /// a miss on it brings: the miss reads `1 + readahead` consecutive
    /// blocks in one disk command. Returns how many blocks hit, or the
    /// disk's error if a miss's transfer failed past the retry budget.
    ///
    /// The whole request takes the cache lock once, plus once more after
    /// each miss; the lock is never held across a disk command.
    pub async fn read(&self, env: &KEnv, blocks: &[(u64, u64)]) -> SysResult<u64> {
        let bs = self.bs_kb();
        let mut hits = 0;
        let mut next = 0;
        while next < blocks.len() {
            let (held_hits, miss) = {
                let mut st = self.lock();
                let mut held_hits = 0;
                let mut miss = None;
                while let Some(&(addr, readahead)) = blocks.get(next) {
                    next += 1;
                    self.charge_block(env);
                    debug_assert_eq!(addr % bs, 0, "unaligned cache read");
                    if st.touch(addr) {
                        held_hits += 1;
                        continue;
                    }
                    let n = 1 + readahead;
                    let victims = self.make_room(&mut st, n);
                    // A resident block of the run keeps its dirty flag: its
                    // cached contents are newer than the disk's.
                    for i in 0..n {
                        st.make_newest(addr + i * bs);
                    }
                    miss = Some((addr, n, victims));
                    break;
                }
                st.hits += held_hits;
                st.misses += u64::from(miss.is_some());
                (held_hits, miss)
            };
            hits += held_hits;
            if held_hits > 0 {
                env.sim.count(Counter::CacheHits, held_hits);
            }
            if let Some((addr, n, victims)) = miss {
                env.sim.count(Counter::CacheMisses, 1);
                self.write_runs(env, &victims).await?;
                self.disk.io(env, IoKind::Read, addr, n * bs).await?;
            }
        }
        Ok(hits)
    }

    /// Writes one request's cache blocks, in order.
    ///
    /// `sync` forces each block to disk before the next is cached (FFS
    /// metadata). Delayed writes accumulate; once a block takes the dirty
    /// count past the high-water mark, the caller flushes down to half
    /// the mark before caching the next block, paying the disk time —
    /// this is where sequential-write benchmarks become disk bound.
    ///
    /// Errors surface only from the disk commands a write triggers (sync
    /// writes, evictions, high-water flushes); each block is cached
    /// before any of its own commands run. The cache lock is taken once
    /// for a run of blocks that needs no disk command.
    pub async fn write(&self, env: &KEnv, addrs: &[u64], sync: bool) -> SysResult<()> {
        let bs = self.bs_kb();
        let hiwater_blocks = self.params.dirty_hiwater_bytes / self.params.block_bytes;
        let mut next = 0;
        // Whether the last block cached is a delayed write whose
        // high-water check is still due: it runs after the block's victims
        // are on disk, at the start of the next lock hold.
        let mut check = false;
        while next < addrs.len() || check {
            let (victims, sync_addr, flush) = {
                let mut st = self.lock();
                loop {
                    if check {
                        check = false;
                        if st.dirty.len() as u64 > hiwater_blocks {
                            break (Vec::new(), None, true);
                        }
                    }
                    let Some(&addr) = addrs.get(next) else {
                        break (Vec::new(), None, false);
                    };
                    next += 1;
                    self.charge_block(env);
                    if sync {
                        env.sim.count(Counter::SyncMetaWrites, 1);
                    }
                    debug_assert_eq!(addr % bs, 0, "unaligned cache write");
                    // Rewriting a resident block does not grow the cache.
                    let victims = match st.index.get(addr) {
                        Some(_) => Vec::new(),
                        None => self.make_room(&mut st, 1),
                    };
                    st.insert(addr, !sync);
                    check = !sync;
                    if sync || !victims.is_empty() {
                        break (victims, sync.then_some(addr), false);
                    }
                }
            };
            self.write_runs(env, &victims).await?;
            if let Some(addr) = sync_addr {
                self.disk.io(env, IoKind::Write, addr, bs).await?;
            }
            if flush {
                self.flush_down_to(env, hiwater_blocks / 2).await?;
            }
        }
        Ok(())
    }

    /// The CPU cost of one cache block operation, as its own span.
    fn charge_block(&self, env: &KEnv) {
        let _s = env.sim.span(Class::FsCpu);
        env.sim.charge(Cycles(self.params.per_block_cpu_cy));
    }

    /// Flushes dirty blocks (ascending disk order, clustered) until at
    /// most `target_blocks` remain dirty.
    async fn flush_down_to(&self, env: &KEnv, target_blocks: u64) -> SysResult<()> {
        loop {
            let run = {
                let mut st = self.lock();
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
        let first = st.dirty.pop_front()?;
        let mut n = 1;
        while n < self.params.write_cluster_blocks && st.dirty.front() == Some(&(first + n * bs)) {
            st.dirty.pop_front();
            n += 1;
        }
        for i in 0..n {
            if let Some(slot) = st.index.get(first + i * bs) {
                st.buf(slot).dirty = false;
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
        let mut st = self.lock();
        for addr in addrs {
            if let Some(slot) = st.index.remove(*addr) {
                st.release(slot);
            }
        }
    }

    /// Drops every entry without writing (mkfs of a scratch partition).
    pub fn invalidate_all(&self) {
        let mut st = self.lock();
        st.index.clear();
        st.bufs.clear();
        st.oldest = NIL;
        st.newest = NIL;
        st.free = NIL;
        st.dirty.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk::DiskParams;
    use std::sync::atomic::Ordering;
    use tnt_os::{boot, boot_cluster_with_faults, Errno, Kernel, Os};
    use tnt_sim::fault::FaultProfile;
    use tnt_sim::replay::{Op, TraceEvent};
    use tnt_sim::Sim;

    fn params() -> CacheParams {
        CacheParams {
            capacity_bytes: 64 * 1024,
            block_bytes: 8192,
            dirty_hiwater_bytes: 32 * 1024,
            write_cluster_blocks: 8,
            per_block_cpu_cy: 100,
        }
    }

    /// Runs `f` as one user process of a booted machine over a fresh
    /// cache with the workload recorder armed; returns the final clock,
    /// the cache and the block commands the disk saw, in issue order.
    fn run_recorded<Fut>(
        (sim, kernel): (Sim, Kernel),
        params: CacheParams,
        f: impl FnOnce(KEnv, Arc<BufferCache>) -> Fut + Send + 'static,
    ) -> (Cycles, Arc<BufferCache>, Vec<TraceEvent>)
    where
        Fut: std::future::Future<Output = ()> + Send + 'static,
    {
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
        let (t, cache, _) = run_recorded(boot(Os::Linux, 0), params(), f);
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
        let (t, cache, events) = run_recorded(boot(os, 0), p, move |env, c| async move {
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
                        let hits = c.read(&env, &[(addr, (r >> 48) % 8)]).await.unwrap();
                        obs.lock().word(hits);
                    }
                    480..=699 => c.write(&env, &[addr], false).await.unwrap(),
                    700..=799 => c.write(&env, &[addr], true).await.unwrap(),
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
            (0xe870_9a72_671a_a4fa, 0x7d18_fecd_f568_3ce9)
        );
    }

    /// The block index answers as a `BTreeMap` does, for 1 KB and 8 KB
    /// blocks, under a seeded stream of inserts, lookups, removals and
    /// clears over addresses at 0, around the first leaf edge, in the
    /// filesystem's three zones and at the disk's last block; and its
    /// allocated leaves are exactly those holding a resident block.
    #[test]
    fn block_index_matches_a_btreemap() {
        use std::collections::btree_map::Entry;
        use std::collections::{BTreeMap, BTreeSet};
        let disk_kb = DiskParams::hp3725().total_blocks;
        for bs in [1, 8] {
            let mut addrs = vec![0, bs, 1023 * bs, 1024 * bs, 1025 * bs, disk_kb - bs];
            for zone in [disk_kb / 8, disk_kb / 4, disk_kb / 8 * 5] {
                addrs.extend((0..4).map(|i| zone + i * bs));
            }
            let mut index = BlockIndex::new(bs);
            let mut model: BTreeMap<u64, u32> = BTreeMap::new();
            let mut rng = bs;
            for op in 0..20_000u32 {
                let r = splitmix(&mut rng);
                let addr = addrs[(r % addrs.len() as u64) as usize];
                match (r >> 32) % 100 {
                    0..=44 => {
                        let want = match model.entry(addr) {
                            Entry::Occupied(e) => (*e.get(), false),
                            Entry::Vacant(e) => (*e.insert(op), true),
                        };
                        assert_eq!(index.get_or_insert_with(addr, || op), want);
                    }
                    45..=98 => assert_eq!(index.remove(addr), model.remove(&addr)),
                    _ => {
                        index.clear();
                        model.clear();
                    }
                }
                assert_eq!(index.len, model.len() as u64, "op {op}");
                for &a in &addrs {
                    assert_eq!(index.get(a), model.get(&a).copied(), "op {op} addr {a}");
                }
                let allocated: BTreeSet<usize> = (0..index.top.len())
                    .filter(|&i| index.top[i].is_some())
                    .collect();
                let holding: BTreeSet<usize> = model.keys().map(|&a| index.split(a).0).collect();
                assert_eq!(allocated, holding, "op {op}: leaves");
            }
        }
    }

    /// Reads `blocks` in calls of at most `per_call` blocks; the hits.
    async fn read_in(
        env: &KEnv,
        c: &BufferCache,
        blocks: &[(u64, u64)],
        per_call: usize,
    ) -> SysResult<u64> {
        let mut hits = 0;
        for part in blocks.chunks(per_call) {
            hits += c.read(env, part).await?;
        }
        Ok(hits)
    }

    /// Writes `addrs` in calls of at most `per_call` blocks.
    async fn write_in(
        env: &KEnv,
        c: &BufferCache,
        addrs: &[u64],
        sync: bool,
        per_call: usize,
    ) -> SysResult<()> {
        for part in addrs.chunks(per_call) {
            c.write(env, part, sync).await?;
        }
        Ok(())
    }

    /// Drives a seeded stream of requests of 1-16 blocks over a cache of
    /// 40 `block_bytes` blocks and an address range of 96: reads with
    /// mixed read-ahead, delayed and sync writes, discards and flushes.
    /// Reads and writes go to the cache in calls of at most `per_call`
    /// blocks. Folds into one digest each request's hits, every block's
    /// residency and dirt after every request, every disk command with
    /// its issue time, the hit and miss counters and the final clock.
    /// The first failed request ends the stream; its errno comes back.
    fn request_stream_digest(
        machine: (Sim, Kernel),
        block_bytes: u64,
        seed: u64,
        per_call: usize,
    ) -> (u64, Option<Errno>) {
        const REQUESTS: u64 = 2_000;
        const SPAN: u64 = 96;
        let p = CacheParams {
            capacity_bytes: 40 * block_bytes,
            block_bytes,
            dirty_hiwater_bytes: 8 * block_bytes,
            write_cluster_blocks: 4,
            per_block_cpu_cy: 100,
        };
        let observed = Arc::new(Mutex::new((Fnv::new(), None)));
        let obs = observed.clone();
        let (t, cache, events) = run_recorded(machine, p, move |env, c| async move {
            let bs = block_bytes / 1024;
            let mut rng = seed;
            let stream = async {
                for _ in 0..REQUESTS {
                    let r = splitmix(&mut rng);
                    // Mostly consecutive blocks, as a file's layout gives.
                    let mut b = r % SPAN;
                    let addrs: Vec<u64> = (0..1 + (r >> 8) % 16)
                        .map(|_| {
                            let a = b * bs;
                            let jump = splitmix(&mut rng);
                            b = if jump.is_multiple_of(4) {
                                (jump >> 8) % SPAN
                            } else {
                                (b + 1) % SPAN
                            };
                            a
                        })
                        .collect();
                    match (r >> 32) % 100 {
                        0..=44 => {
                            let blocks: Vec<(u64, u64)> = addrs
                                .iter()
                                .map(|&a| (a, (splitmix(&mut rng) % 12).saturating_sub(4)))
                                .collect();
                            let hits = read_in(&env, &c, &blocks, per_call).await?;
                            obs.lock().0.word(hits);
                        }
                        45..=69 => write_in(&env, &c, &addrs, false, per_call).await?,
                        70..=79 => write_in(&env, &c, &addrs, true, per_call).await?,
                        80..=94 => c.discard(&addrs),
                        95..=98 => c.flush_all(&env).await?,
                        _ => c.invalidate_all(),
                    }
                    let mut h = obs.lock();
                    for b in 0..SPAN {
                        h.0.word(
                            u64::from(c.contains(b * bs)) | u64::from(c.is_dirty(b * bs)) << 1,
                        );
                    }
                }
                Ok(())
            };
            let outcome: SysResult<()> = stream.await;
            obs.lock().1 = outcome.err();
        });
        let (mut h, errno) = {
            let o = observed.lock();
            (Fnv(o.0 .0), o.1)
        };
        for e in &events {
            h.word(e.t);
            h.word(u64::from(e.op.code()));
            h.word(e.arg);
            h.word(e.size);
        }
        let (hits, misses) = cache.stats();
        for w in [hits, misses, errno.map_or(0, |e| e as u64 + 1), t.0] {
            h.word(w);
        }
        (h.0, errno)
    }

    /// A request does exactly what its blocks do one call at a time:
    /// the same hits, cache states and disk commands at the same times,
    /// and on a disk that fails past its retry budget the same errno
    /// after the same commands.
    #[test]
    fn a_request_equals_its_blocks_one_at_a_time() {
        for (os, block_bytes) in [(Os::Linux, 1024), (Os::FreeBsd, 8192)] {
            let whole = request_stream_digest(boot(os, 0), block_bytes, 26, 16);
            let single = request_stream_digest(boot(os, 0), block_bytes, 26, 1);
            assert_eq!(whole, single, "{os:?}");
            assert_eq!(whole.1, None);
        }
        let failing = FaultProfile {
            disk_transient: 0.3,
            ..FaultProfile::off()
        };
        for fault_seed in 1..=6 {
            let boot = || boot_cluster_with_faults(&[Os::Linux], fault_seed, failing);
            let machine = |(sim, kernels): (Sim, Vec<Kernel>)| (sim, kernels[0].clone());
            let whole = request_stream_digest(machine(boot()), 1024, fault_seed, 16);
            let single = request_stream_digest(machine(boot()), 1024, fault_seed, 1);
            assert_eq!(whole, single, "fault seed {fault_seed}");
            assert_eq!(whole.1, Some(Errno::EIO), "fault seed {fault_seed}");
        }
    }

    /// A request takes the cache lock once while no block of it needs
    /// the disk.
    #[test]
    fn a_request_takes_one_cache_lock() {
        let p = CacheParams {
            capacity_bytes: 32 * 8192,
            dirty_hiwater_bytes: 16 * 8192,
            ..params()
        };
        let (_, _, _) = run_recorded(boot(Os::Linux, 0), p, |env, c| async move {
            let locks = || c.locks.load(Ordering::Relaxed);
            let resident: Vec<(u64, u64)> = (0..8).map(|i| (i * 8, 7 - i)).collect();
            c.read(&env, &resident).await.unwrap();
            let before = locks();
            assert_eq!(c.read(&env, &resident).await.unwrap(), 8);
            let read = locks() - before;
            let fresh: Vec<u64> = (8..16).map(|i| i * 8).collect();
            let before = locks();
            c.write(&env, &fresh, false).await.unwrap();
            let write = locks() - before;
            assert_eq!((read, write), (1, 1));
        });
    }

    /// Addresses among `watched` that each successive read of a fresh
    /// block evicts, in eviction order.
    async fn eviction_order(env: &KEnv, c: &BufferCache, watched: &[u64], fresh: u64) -> Vec<u64> {
        let mut order = Vec::new();
        let mut next = fresh;
        while order.len() < watched.len() {
            c.read(env, &[(next, 0)]).await.unwrap();
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
                c.read(&env, &[(i * 8, 0)]).await.unwrap();
            }
            c.discard(&[0]);
            c.write(&env, &[0], false).await.unwrap();
            let watched: Vec<u64> = (0..8).map(|i| i * 8).collect();
            let order = eviction_order(&env, &c, &watched, 800).await;
            assert_eq!(order, [8, 16, 24, 32, 40, 48, 56, 0]);
        });
    }

    #[test]
    fn readahead_relinks_resident_blocks_newest_in_address_order() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in [2u64, 10, 11, 12] {
                c.read(&env, &[(i * 8, 0)]).await.unwrap();
            }
            // Misses at 0 and brings 0..=3; block 2 was already resident.
            assert_eq!(c.read(&env, &[(0, 3)]).await.unwrap(), 0);
            let watched: Vec<u64> = [10u64, 11, 12, 0, 1, 2, 3].map(|i| i * 8).to_vec();
            let order = eviction_order(&env, &c, &watched, 800).await;
            assert_eq!(order, watched);
        });
    }

    #[test]
    fn readahead_keeps_a_resident_block_dirty() {
        let (_, _, events) = run_recorded(boot(Os::Linux, 0), params(), |env, c| async move {
            c.write(&env, &[16], false).await.unwrap();
            // Misses at 8 and reads 8..=24, over the delayed write at 16.
            assert_eq!(c.read(&env, &[(8, 2)]).await.unwrap(), 0);
            assert!(c.is_dirty(16), "the read-ahead dropped a delayed write");
            c.flush_all(&env).await.unwrap();
        });
        let commands: Vec<(Op, u64, u64)> = events.iter().map(|e| (e.op, e.arg, e.size)).collect();
        assert_eq!(commands, [(Op::BlockRead, 8, 24), (Op::BlockWrite, 16, 8)]);
    }

    #[test]
    fn rewriting_a_resident_block_evicts_nothing() {
        let (_, _, events) = run_recorded(boot(Os::Linux, 0), params(), |env, c| async move {
            c.write(&env, &[0], false).await.unwrap();
            for i in 1..8u64 {
                c.read(&env, &[(i * 8, 0)]).await.unwrap();
            }
            // The cache is full, with the delayed write at 0 oldest.
            c.write(&env, &[56], false).await.unwrap();
            assert!((0..8u64).all(|i| c.contains(i * 8)), "a block was evicted");
            assert!(c.is_dirty(0));
        });
        let writes = events.iter().filter(|e| e.op == Op::BlockWrite).count();
        assert_eq!((events.len(), writes), (7, 0));
    }

    #[test]
    fn read_miss_writes_dirty_victims_before_its_read() {
        let (_, _, events) = run_recorded(boot(Os::Linux, 0), params(), |env, c| async move {
            c.write(&env, &[0], false).await.unwrap();
            for i in 1..=8u64 {
                c.read(&env, &[(i * 8, 0)]).await.unwrap();
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
            assert_eq!(c.read(&env, &[(0, 0)]).await.unwrap(), 0, "cold miss");
            assert_eq!(c.read(&env, &[(0, 0)]).await.unwrap(), 1, "now cached");
        });
        assert_eq!((hits, misses), (1, 1));
        assert_eq!(reads, 1);
    }

    #[test]
    fn readahead_fills_following_blocks() {
        let (_, (hits, misses), (reads, _, _)) = run_with_cache(|env, c| async move {
            assert_eq!(c.read(&env, &[(0, 3)]).await.unwrap(), 0); // brings 0, 8, 16, 24 (KB)
            assert_eq!(c.read(&env, &[(8, 0)]).await.unwrap(), 1);
            assert_eq!(c.read(&env, &[(16, 0)]).await.unwrap(), 1);
            assert_eq!(c.read(&env, &[(24, 0)]).await.unwrap(), 1);
        });
        assert_eq!((hits, misses), (3, 1));
        assert_eq!(reads, 1, "one clustered disk read");
    }

    #[test]
    fn delayed_write_touches_no_disk() {
        let (_, _, (reads, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, &[0], false).await.unwrap();
            c.write(&env, &[8], false).await.unwrap();
            assert_eq!(c.dirty_bytes(), 16 * 1024);
        });
        assert_eq!((reads, writes), (0, 0), "delayed writes stay in cache");
    }

    #[test]
    fn sync_write_hits_disk_immediately() {
        let (t, _, (_, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, &[700_000 * 8], true).await.unwrap();
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
                c.write(&env, &[i * 8], false).await.unwrap();
            }
        });
        assert!(writes <= 2, "clustered flush, got {writes} commands");
        assert!(blocks >= 16, "flushed at least down to half the mark");
    }

    #[test]
    fn eviction_never_exceeds_capacity() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in 0..100u64 {
                c.read(&env, &[(i * 8, 0)]).await.unwrap();
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
            c.write(&env, &[0], false).await.unwrap(); // one dirty block
            for i in 1..20u64 {
                c.read(&env, &[(i * 8, 0)]).await.unwrap(); // push it out
            }
            assert!(!c.contains(0));
        });
        assert!(writes >= 1, "the dirty victim reached the disk");
    }

    #[test]
    fn flush_all_cleans_everything() {
        let (_, _, _) = run_with_cache(|env, c| async move {
            for i in 0..4u64 {
                c.write(&env, &[i * 8], false).await.unwrap();
            }
            c.flush_all(&env).await.unwrap();
            assert_eq!(c.dirty_bytes(), 0);
        });
    }

    #[test]
    fn invalidate_drops_without_io() {
        let (_, _, (_, writes, _)) = run_with_cache(|env, c| async move {
            c.write(&env, &[0], false).await.unwrap();
            c.invalidate_all();
            assert_eq!(c.dirty_bytes(), 0);
            assert!(!c.contains(0));
        });
        assert_eq!(writes, 0);
    }
}
