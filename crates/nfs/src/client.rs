//! The NFS client: a [`Filesystem`] implementation that forwards
//! operations over SunRPC/UDP to a server machine.
//!
//! Because it implements the same VFS trait as the local filesystems,
//! the Modified Andrew Benchmark runs over NFS unchanged — exactly the
//! paper's Section 10 setup.
//!
//! Per-OS client behaviour (the Table 6/7 story):
//!
//! - **transfer size**: the Linux 1.2.8 client moves data in 1 KB RPCs;
//!   FreeBSD and Solaris use 8 KB. Against the Linux server's
//!   asynchronous writes the extra RPCs cost only CPU and wire time, but
//!   against the SunOS server every WRITE RPC pays a disk commit — eight
//!   times as many commits is how the Linux client "performs miserably"
//!   against a SunOS server (115.06 s vs FreeBSD's 67.60 s);
//! - **attribute caching**: the FreeBSD client answers repeated stats
//!   locally; the others go back to the server.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::proto::{Fh, NfsCall, NfsReply, RpcReply, RpcRequest};
use tnt_cpu::copyin_out;
use tnt_net::{Addr, Net, Recv, UdpSocket};
use tnt_os::{
    Errno, FileAttr, Filesystem, FsFuture, KEnv, Kernel, OpenFlags, Os, SysResult, VnodeId,
};
use tnt_sim::trace::{Class, Counter};
use tnt_sim::{Cycles, SimMutex};

/// Per-OS client parameters.
#[derive(Clone, Copy, Debug)]
pub struct NfsClientParams {
    /// READ transfer size.
    pub rsize: u64,
    /// WRITE transfer size.
    pub wsize: u64,
    /// Whether attributes are cached client-side.
    pub attr_cache: bool,
    /// Client CPU per RPC issued.
    pub per_op_cy: u64,
    /// CPU for an operation served entirely from client caches.
    pub cache_hit_cy: u64,
    /// Bytes of file data the client may cache (the 1995 clients shared
    /// a pressured buffer cache; this is deliberately small).
    pub data_cache_bytes: u64,
    /// Issue a commit RPC on last close (Solaris close-to-open write
    /// semantics; expensive against a spec-compliant sync server).
    pub close_commit: bool,
}

impl NfsClientParams {
    /// The client personality of `os`.
    pub fn for_os(os: Os) -> NfsClientParams {
        match os {
            // The 1.2.8 client: 1 KB transfers, no attribute cache.
            Os::Linux => NfsClientParams {
                rsize: 1024,
                wsize: 1024,
                attr_cache: false,
                per_op_cy: 8_000,
                cache_hit_cy: 1_200,
                data_cache_bytes: 256 * 1024,
                close_commit: false,
            },
            Os::FreeBsd => NfsClientParams {
                rsize: 8192,
                wsize: 8192,
                attr_cache: true,
                per_op_cy: 10_000,
                cache_hit_cy: 1_500,
                data_cache_bytes: 512 * 1024,
                close_commit: false,
            },
            Os::Solaris => NfsClientParams {
                rsize: 8192,
                wsize: 8192,
                attr_cache: true,
                per_op_cy: 18_000,
                cache_hit_cy: 2_500,
                data_cache_bytes: 512 * 1024,
                close_commit: true,
            },
            Os::SunOs => NfsClientParams {
                rsize: 8192,
                wsize: 8192,
                attr_cache: true,
                per_op_cy: 10_000,
                cache_hit_cy: 1_500,
                data_cache_bytes: 512 * 1024,
                close_commit: false,
            },
        }
    }
}

/// Initial RPC retransmission timeout (700 ms, the classic default).
const RPC_TIMEOUT: Cycles = Cycles(70_000_000);

/// Cap on the doubling retransmission backoff (60 s, `timeo` ceiling).
/// Without it the doubled timeout grows without bound: six attempts is
/// fine, but any retry-limit bump would have waits measured in minutes.
const RPC_MAX_TIMEOUT: Cycles = Cycles(6_000_000_000);

/// Retransmissions before the client declares a major timeout and gives
/// up with `ETIMEDOUT` (a soft mount's "server not responding").
const RPC_RETRIES: u32 = 5;

/// The next backoff step: doubled, but never past [`RPC_MAX_TIMEOUT`].
fn next_backoff(timeout: Cycles) -> Cycles {
    Cycles(timeout.0.saturating_mul(2).min(RPC_MAX_TIMEOUT.0))
}

struct CState {
    xid: u32,
    root: Fh,
    /// Directory name cache: absolute path -> handle.
    dnlc: BTreeMap<String, Fh>,
    /// Attribute cache.
    attrs: BTreeMap<Fh, FileAttr>,
    /// Highest contiguously cached byte per file (client data cache).
    data_hi: BTreeMap<Fh, u64>,
    /// FIFO of files in the data cache (for budget eviction).
    data_order: Vec<Fh>,
    /// RPCs issued.
    rpcs: u64,
    /// Retransmissions performed (lost request or lost reply).
    retransmits: u64,
    /// RPCs abandoned after the full retry budget (ETIMEDOUT surfaced).
    major_timeouts: u64,
}

/// A mounted NFS filesystem (the client side).
pub struct NfsClient {
    sock: Arc<UdpSocket>,
    server: Addr,
    params: NfsClientParams,
    rpc_lock: SimMutex,
    state: Mutex<CState>,
}

impl NfsClient {
    /// Mounts `server` from `kernel`'s machine (`client_host` on `net`).
    pub fn mount(
        net: &Net,
        kernel: &Kernel,
        client_host: u32,
        server: Addr,
    ) -> SysResult<Arc<NfsClient>> {
        let params = NfsClientParams::for_os(kernel.costs().os);
        let sock = UdpSocket::bind(net, kernel, client_host, 700)?;
        let client = Arc::new(NfsClient {
            sock,
            server,
            params,
            rpc_lock: SimMutex::new(kernel.sim()),
            state: Mutex::new(CState {
                xid: 0,
                root: 0,
                dnlc: BTreeMap::new(),
                attrs: BTreeMap::new(),
                data_hi: BTreeMap::new(),
                data_order: Vec::new(),
                rpcs: 0,
                retransmits: 0,
                major_timeouts: 0,
            }),
        });
        Ok(client)
    }

    /// The client's parameters.
    pub fn params(&self) -> NfsClientParams {
        self.params
    }

    /// Total RPCs issued.
    pub fn rpc_total(&self) -> u64 {
        self.state.lock().rpcs
    }

    /// Retransmissions performed so far (non-zero only on a lossy wire).
    pub fn retransmits(&self) -> u64 {
        self.state.lock().retransmits
    }

    /// RPCs that exhausted their retry budget and surfaced `ETIMEDOUT`.
    pub fn major_timeouts(&self) -> u64 {
        self.state.lock().major_timeouts
    }

    /// Issues one RPC and waits for its reply. Serialised per mount, as
    /// the 1995 single-threaded clients effectively were.
    async fn rpc(&self, env: &KEnv, call: NfsCall, pad: u64) -> SysResult<NfsReply> {
        self.rpc_lock.lock(&env.sim).await;
        let result = self.rpc_locked(env, call, pad).await;
        self.rpc_lock.unlock(&env.sim);
        result
    }

    async fn rpc_locked(&self, env: &KEnv, call: NfsCall, pad: u64) -> SysResult<NfsReply> {
        let xid = {
            let mut st = self.state.lock();
            st.xid += 1;
            st.rpcs += 1;
            st.xid
        };
        env.sim.count(Counter::RpcCalls, 1);
        {
            let _s = env.sim.span(Class::ProtoCpu);
            env.sim.charge(Cycles(self.params.per_op_cy));
        }
        let bytes = RpcRequest { xid, call }.encode();
        // Send, then wait with the classic doubling timeout; a lost
        // request or lost reply is retransmitted with the SAME xid so
        // the server's duplicate-request cache can absorb replays.
        // Everything from first send to matching reply counts as RPC
        // round-trip time in the profile.
        let _rpc = env.sim.span(Class::RpcWait);
        let mut timeout = RPC_TIMEOUT;
        for attempt in 0..=RPC_RETRIES {
            if attempt > 0 {
                self.state.lock().retransmits += 1;
                env.sim.count(Counter::RpcRetransmits, 1);
            }
            self.sock
                .send_padded(self.server, bytes.clone(), pad)
                .await?;
            let deadline = env.sim.now() + timeout;
            loop {
                let left = deadline.saturating_sub(env.sim.now());
                if left == Cycles::ZERO {
                    break;
                }
                match self.sock.recv_timeout(left).await? {
                    Recv::Packet(pkt) => match RpcReply::decode(&pkt.data) {
                        Ok(r) if r.xid == xid => {
                            return match r.reply {
                                NfsReply::Error(e) => Err(e),
                                other => Ok(other),
                            };
                        }
                        _ => continue, // Stale xid or garbage.
                    },
                    Recv::TimedOut => break,
                    Recv::Closed => return Err(Errno::EIO),
                }
            }
            timeout = next_backoff(timeout);
        }
        // Major timeout: the retry budget is spent. Surface ETIMEDOUT —
        // distinct from a transport EIO — and account for it.
        self.state.lock().major_timeouts += 1;
        env.sim.count(Counter::RpcMajorTimeouts, 1);
        Err(Errno::ETIMEDOUT)
    }

    async fn root(&self, env: &KEnv) -> SysResult<Fh> {
        {
            let st = self.state.lock();
            if st.root != 0 {
                return Ok(st.root);
            }
        }
        match self
            .rpc(
                env,
                NfsCall::Lookup {
                    dir: 0,
                    name: String::new(),
                },
                0,
            )
            .await?
        {
            NfsReply::Handle { fh, attr } => {
                let mut st = self.state.lock();
                st.root = fh;
                st.attrs.insert(
                    fh,
                    FileAttr {
                        vnode: fh,
                        size: attr.size,
                        is_dir: attr.is_dir,
                        nlink: attr.nlink,
                    },
                );
                Ok(fh)
            }
            _ => Err(Errno::EIO),
        }
    }

    /// Resolves a path to a handle through the name cache, issuing LOOKUP
    /// RPCs for uncached components.
    async fn fh_for(&self, env: &KEnv, path: &str) -> SysResult<Fh> {
        let mut fh = self.root(env).await?;
        let mut walked = String::new();
        for comp in path.split('/').filter(|c| !c.is_empty()) {
            walked.push('/');
            walked.push_str(comp);
            let cached = self.state.lock().dnlc.get(&walked).copied();
            match cached {
                Some(hit) => {
                    env.sim.charge(Cycles(self.params.cache_hit_cy / 4));
                    fh = hit;
                }
                None => {
                    match self
                        .rpc(
                            env,
                            NfsCall::Lookup {
                                dir: fh,
                                name: comp.to_string(),
                            },
                            0,
                        )
                        .await?
                    {
                        NfsReply::Handle { fh: child, attr } => {
                            let mut st = self.state.lock();
                            st.dnlc.insert(walked.clone(), child);
                            st.attrs.insert(
                                child,
                                FileAttr {
                                    vnode: child,
                                    size: attr.size,
                                    is_dir: attr.is_dir,
                                    nlink: attr.nlink,
                                },
                            );
                            fh = child;
                        }
                        _ => return Err(Errno::EIO),
                    }
                }
            }
        }
        Ok(fh)
    }

    fn split_parent(path: &str) -> SysResult<(&str, &str)> {
        let trimmed = path.trim_end_matches('/');
        let (dir, name) = match trimmed.rfind('/') {
            Some(pos) => (&trimmed[..pos], &trimmed[pos + 1..]),
            None => ("", trimmed),
        };
        if name.is_empty() {
            return Err(Errno::EINVAL);
        }
        Ok((dir, name))
    }

    /// Clears every client-side cache (a fresh mount's view; called by
    /// experiments between setup and measurement).
    pub fn flush_caches(&self) {
        let mut st = self.state.lock();
        st.dnlc.clear();
        st.attrs.clear();
        st.data_hi.clear();
        st.data_order.clear();
    }

    /// Records that `fh` is cached up to `hi` bytes, evicting the oldest
    /// files once the data-cache budget is exceeded.
    fn mark_cached(&self, fh: Fh, hi: u64) {
        let mut st = self.state.lock();
        if !st.data_hi.contains_key(&fh) {
            st.data_order.push(fh);
        }
        st.data_hi.insert(fh, hi);
        let mut total: u64 = st.data_hi.values().sum();
        while total > self.params.data_cache_bytes && st.data_order.len() > 1 {
            let victim = st.data_order.remove(0);
            if victim == fh {
                st.data_order.push(victim);
                continue;
            }
            if let Some(bytes) = st.data_hi.remove(&victim) {
                total -= bytes;
            }
        }
    }

    fn store_attr(&self, fh: Fh, attr: crate::proto::WireAttr) {
        self.state.lock().attrs.insert(
            fh,
            FileAttr {
                vnode: fh,
                size: attr.size,
                is_dir: attr.is_dir,
                nlink: attr.nlink,
            },
        );
    }
}

impl Filesystem for NfsClient {
    fn lookup<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<VnodeId>> {
        Box::pin(self.fh_for(env, path))
    }

    fn open<'a>(
        &'a self,
        env: &'a KEnv,
        path: &'a str,
        flags: OpenFlags,
    ) -> FsFuture<'a, SysResult<VnodeId>> {
        Box::pin(async move {
            if flags.create {
                let (dir, name) = Self::split_parent(path)?;
                let dir_fh = self.fh_for(env, dir).await?;
                let reply = self
                    .rpc(
                        env,
                        NfsCall::Create {
                            dir: dir_fh,
                            name: name.to_string(),
                            exclusive: flags.exclusive,
                        },
                        0,
                    )
                    .await?;
                match reply {
                    NfsReply::Handle { fh, attr } => {
                        let mut st = self.state.lock();
                        st.dnlc
                            .insert(format!("{}/{}", dir.trim_end_matches('/'), name), fh);
                        st.data_hi.remove(&fh);
                        st.data_order.retain(|f| *f != fh);
                        drop(st);
                        self.store_attr(fh, attr);
                        Ok(fh)
                    }
                    _ => Err(Errno::EIO),
                }
            } else {
                let fh = self.fh_for(env, path).await?;
                // Close-to-open consistency: every open revalidates the
                // attributes at the server, whatever the attribute cache says.
                let is_dir = match self.rpc(env, NfsCall::Getattr { fh }, 0).await? {
                    NfsReply::Attr(attr) => {
                        self.store_attr(fh, attr);
                        attr.is_dir
                    }
                    _ => return Err(Errno::EIO),
                };
                if is_dir && flags.write {
                    return Err(Errno::EISDIR);
                }
                if flags.truncate {
                    let (dir, name) = Self::split_parent(path)?;
                    let dir_fh = self.fh_for(env, dir).await?;
                    self.rpc(
                        env,
                        NfsCall::Create {
                            dir: dir_fh,
                            name: name.to_string(),
                            exclusive: false,
                        },
                        0,
                    )
                    .await?;
                    self.state.lock().data_hi.remove(&fh);
                }
                Ok(fh)
            }
        })
    }

    fn read<'a>(
        &'a self,
        env: &'a KEnv,
        vnode: VnodeId,
        off: u64,
        len: u64,
    ) -> FsFuture<'a, SysResult<u64>> {
        Box::pin(async move {
            let attr = self.getattr_cached(env, vnode).await?;
            if attr.is_dir {
                return Err(Errno::EISDIR);
            }
            let size = attr.size;
            if off >= size {
                env.sim.charge(Cycles(self.params.cache_hit_cy));
                return Ok(0);
            }
            let n = len.min(size - off);
            let cached_hi = self.state.lock().data_hi.get(&vnode).copied().unwrap_or(0);
            if off + n <= cached_hi {
                // Served from the client's data cache.
                env.sim
                    .charge(Cycles(self.params.cache_hit_cy) + copyin_out(n));
                return Ok(n);
            }
            let mut done = 0;
            while done < n {
                let chunk = (n - done).min(self.params.rsize);
                match self
                    .rpc(
                        env,
                        NfsCall::Read {
                            fh: vnode,
                            off: off + done,
                            len: chunk,
                        },
                        0,
                    )
                    .await?
                {
                    NfsReply::Data { len: got } => {
                        env.sim.charge(copyin_out(got));
                        done += got;
                        if got < chunk {
                            break;
                        }
                    }
                    _ => return Err(Errno::EIO),
                }
            }
            let hi_now = self.state.lock().data_hi.get(&vnode).copied().unwrap_or(0);
            if off <= hi_now {
                self.mark_cached(vnode, hi_now.max(off + done));
            }
            Ok(done)
        })
    }

    fn write<'a>(
        &'a self,
        env: &'a KEnv,
        vnode: VnodeId,
        off: u64,
        len: u64,
    ) -> FsFuture<'a, SysResult<u64>> {
        Box::pin(async move {
            if self.getattr_cached(env, vnode).await?.is_dir {
                return Err(Errno::EISDIR);
            }
            let mut done = 0;
            while done < len {
                let chunk = (len - done).min(self.params.wsize);
                env.sim.charge(copyin_out(chunk));
                match self
                    .rpc(
                        env,
                        NfsCall::Write {
                            fh: vnode,
                            off: off + done,
                            len: chunk,
                        },
                        chunk,
                    )
                    .await?
                {
                    NfsReply::Wrote { len: wrote } => done += wrote,
                    _ => return Err(Errno::EIO),
                }
            }
            let hi_now = {
                let mut st = self.state.lock();
                if let Some(a) = st.attrs.get_mut(&vnode) {
                    a.size = a.size.max(off + len);
                }
                st.data_hi.get(&vnode).copied().unwrap_or(0)
            };
            if off <= hi_now {
                self.mark_cached(vnode, hi_now.max(off + len));
            }
            Ok(len)
        })
    }

    fn getattr<'a>(&'a self, env: &'a KEnv, vnode: VnodeId) -> FsFuture<'a, SysResult<FileAttr>> {
        Box::pin(self.getattr_cached(env, vnode))
    }

    fn unlink<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>> {
        Box::pin(async move {
            let (dir, name) = Self::split_parent(path)?;
            let dir_fh = self.fh_for(env, dir).await?;
            self.rpc(
                env,
                NfsCall::Remove {
                    dir: dir_fh,
                    name: name.to_string(),
                },
                0,
            )
            .await?;
            let mut st = self.state.lock();
            if let Some(fh) = st
                .dnlc
                .remove(&format!("{}/{}", dir.trim_end_matches('/'), name))
            {
                st.attrs.remove(&fh);
                st.data_hi.remove(&fh);
            }
            Ok(())
        })
    }

    fn mkdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>> {
        Box::pin(async move {
            let (dir, name) = Self::split_parent(path)?;
            let dir_fh = self.fh_for(env, dir).await?;
            match self
                .rpc(
                    env,
                    NfsCall::Mkdir {
                        dir: dir_fh,
                        name: name.to_string(),
                    },
                    0,
                )
                .await?
            {
                NfsReply::Handle { fh, attr } => {
                    self.state
                        .lock()
                        .dnlc
                        .insert(format!("{}/{}", dir.trim_end_matches('/'), name), fh);
                    self.store_attr(fh, attr);
                    Ok(())
                }
                _ => Err(Errno::EIO),
            }
        })
    }

    fn rmdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>> {
        Box::pin(async move {
            let (dir, name) = Self::split_parent(path)?;
            let dir_fh = self.fh_for(env, dir).await?;
            self.rpc(
                env,
                NfsCall::Rmdir {
                    dir: dir_fh,
                    name: name.to_string(),
                },
                0,
            )
            .await?;
            let mut st = self.state.lock();
            if let Some(fh) = st
                .dnlc
                .remove(&format!("{}/{}", dir.trim_end_matches('/'), name))
            {
                st.attrs.remove(&fh);
            }
            Ok(())
        })
    }

    fn readdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<Vec<String>>> {
        Box::pin(async move {
            let fh = self.fh_for(env, path).await?;
            match self.rpc(env, NfsCall::Readdir { dir: fh }, 0).await? {
                NfsReply::Names(names) => Ok(names),
                _ => Err(Errno::EIO),
            }
        })
    }

    fn fsync<'a>(&'a self, _env: &'a KEnv, _vnode: VnodeId) -> FsFuture<'a, SysResult<()>> {
        // NFSv2 writes are write-through from the client's perspective.
        Box::pin(async { Ok(()) })
    }

    fn sync<'a>(&'a self, _env: &'a KEnv) -> FsFuture<'a, ()> {
        Box::pin(async {})
    }

    fn rename<'a>(
        &'a self,
        env: &'a KEnv,
        from: &'a str,
        to: &'a str,
    ) -> FsFuture<'a, SysResult<()>> {
        Box::pin(async move {
            let (from_dir, from_name) = Self::split_parent(from)?;
            let (to_dir, to_name) = Self::split_parent(to)?;
            let from_fh = self.fh_for(env, from_dir).await?;
            let to_fh = self.fh_for(env, to_dir).await?;
            self.rpc(
                env,
                NfsCall::Rename {
                    from_dir: from_fh,
                    from_name: from_name.to_string(),
                    to_dir: to_fh,
                    to_name: to_name.to_string(),
                },
                0,
            )
            .await?;
            let mut st = self.state.lock();
            let from_key = format!("{}/{}", from_dir.trim_end_matches('/'), from_name);
            let to_key = format!("{}/{}", to_dir.trim_end_matches('/'), to_name);
            // The target's old identity (if any) is gone; the source's handle
            // moves to the target name.
            if let Some(clobbered) = st.dnlc.remove(&to_key) {
                st.attrs.remove(&clobbered);
                st.data_hi.remove(&clobbered);
            }
            if let Some(fh) = st.dnlc.remove(&from_key) {
                st.dnlc.insert(to_key, fh);
            }
            Ok(())
        })
    }

    fn release<'a>(&'a self, env: &'a KEnv, vnode: VnodeId) -> FsFuture<'a, ()> {
        Box::pin(async move {
            if self.params.close_commit {
                // Solaris flushes the file's state on close; against a
                // spec-compliant server this commits the inode to disk.
                let _ = self
                    .rpc(
                        env,
                        NfsCall::Write {
                            fh: vnode,
                            off: 0,
                            len: 0,
                        },
                        0,
                    )
                    .await;
            }
        })
    }
}

impl NfsClient {
    async fn getattr_cached(&self, env: &KEnv, vnode: VnodeId) -> SysResult<FileAttr> {
        if self.params.attr_cache {
            if let Some(a) = self.state.lock().attrs.get(&vnode) {
                env.sim.charge(Cycles(self.params.cache_hit_cy));
                return Ok(*a);
            }
        }
        match self.rpc(env, NfsCall::Getattr { fh: vnode }, 0).await? {
            NfsReply::Attr(attr) => {
                let a = FileAttr {
                    vnode,
                    size: attr.size,
                    is_dir: attr.is_dir,
                    nlink: attr.nlink,
                };
                self.state.lock().attrs.insert(vnode, a);
                Ok(a)
            }
            _ => Err(Errno::EIO),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_until_the_cap() {
        let mut t = RPC_TIMEOUT;
        for _ in 0..RPC_RETRIES {
            t = next_backoff(t);
            assert!(t <= RPC_MAX_TIMEOUT, "backoff exceeded the cap: {t:?}");
        }
        // Many more doublings still respect the ceiling (the original
        // code grew without bound here).
        for _ in 0..64 {
            t = next_backoff(t);
        }
        assert_eq!(t, RPC_MAX_TIMEOUT);
    }

    #[test]
    fn backoff_is_monotone_from_the_initial_timeout() {
        assert_eq!(next_backoff(RPC_TIMEOUT), Cycles(RPC_TIMEOUT.0 * 2));
        assert!(next_backoff(RPC_MAX_TIMEOUT) == RPC_MAX_TIMEOUT);
    }
}
