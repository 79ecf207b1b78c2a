//! The NFS server daemon.
//!
//! One `nfsd` process per server machine: it receives RPCs from the UDP
//! model, executes them against the server's local filesystem, and
//! replies. The single policy difference that drives Table 6 vs Table 7
//! is `sync_writes`: the SunOS 4.1.4 server commits every WRITE RPC to
//! disk before replying (as the NFS specification requires), while the
//! Linux 1.2.8 server answers from its buffer cache and trusts its
//! asynchronous update policy.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::proto::{Fh, NfsCall, NfsReply, RpcReply, RpcRequest, WireAttr, NFS_PORT};
use tnt_net::{Addr, Net, UdpSocket};
use tnt_os::{Errno, Filesystem, KEnv, Kernel, OpenFlags, Os, SysResult};
use tnt_sim::trace::Class;
use tnt_sim::Cycles;

/// Server behaviour knobs.
#[derive(Clone, Copy, Debug)]
pub struct NfsServerConfig {
    /// Commit every WRITE RPC to disk before replying (the NFS spec; the
    /// Linux 1.2.8 server ignores it).
    pub sync_writes: bool,
    /// Server CPU per RPC (decode, dispatch, encode).
    pub per_op_cy: u64,
}

impl NfsServerConfig {
    /// The configuration for a server running `os`.
    pub fn for_os(os: Os) -> NfsServerConfig {
        match os {
            Os::Linux => NfsServerConfig {
                sync_writes: false,
                per_op_cy: 18_000,
            },
            Os::SunOs => NfsServerConfig {
                sync_writes: true,
                per_op_cy: 14_000,
            },
            Os::FreeBsd => NfsServerConfig {
                sync_writes: true,
                per_op_cy: 15_000,
            },
            Os::Solaris => NfsServerConfig {
                sync_writes: true,
                per_op_cy: 20_000,
            },
        }
    }
}

/// Statistics the server accumulates, for tests and reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct ServerStats {
    /// RPCs served.
    pub rpcs: u64,
    /// WRITE RPCs served.
    pub writes: u64,
    /// READ RPCs served.
    pub reads: u64,
    /// Retransmissions answered from the duplicate-request cache.
    pub dup_hits: u64,
}

/// Entries kept in the duplicate-request cache.
const DUP_CACHE_ENTRIES: usize = 64;

/// A cached reply for the duplicate-request cache: the encoded bytes and
/// their datagram padding.
type CachedReply = (Vec<u8>, u64);

/// Duplicate-request cache key: (client address, transaction id).
type DupKey = (tnt_net::Addr, u32);

struct ServerState {
    /// fh -> absolute path on the local filesystem.
    paths: BTreeMap<Fh, String>,
    stats: ServerStats,
    /// Replays of retransmitted non-idempotent calls (REMOVE, CREATE)
    /// answer from here instead of re-executing — the classic NFS fix.
    dup_cache: Vec<(DupKey, CachedReply)>,
}

/// A running NFS server (the handle; the daemon is a simulated process).
pub struct NfsServer {
    addr: Addr,
    state: Arc<Mutex<ServerState>>,
}

impl NfsServer {
    /// The address clients mount.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Accumulated statistics.
    pub fn stats(&self) -> ServerStats {
        self.state.lock().stats
    }
}

/// Starts an NFS server on `kernel`'s machine (`host` on `net`), serving
/// its mounted root filesystem.
pub fn serve(
    net: &Net,
    kernel: &Kernel,
    host: u32,
    fs: Arc<dyn Filesystem>,
    config: NfsServerConfig,
) -> SysResult<NfsServer> {
    let sock = UdpSocket::bind(net, kernel, host, NFS_PORT)?;
    let addr = sock.addr();
    let state = Arc::new(Mutex::new(ServerState {
        paths: BTreeMap::new(),
        stats: ServerStats::default(),
        dup_cache: Vec::new(),
    }));
    let st2 = state.clone();
    let env = kernel.env().clone();
    kernel.spawn_user("nfsd", move |_| async move {
        server_loop(&env, &sock, &fs, &st2, config).await;
    });
    Ok(NfsServer { addr, state })
}

async fn server_loop(
    env: &KEnv,
    sock: &UdpSocket,
    fs: &Arc<dyn Filesystem>,
    state: &Arc<Mutex<ServerState>>,
    config: NfsServerConfig,
) {
    // Register the export root.
    let root = match fs.lookup(env, "/").await {
        Ok(v) => v,
        Err(_) => return,
    };
    state.lock().paths.insert(root, String::new());
    loop {
        let pkt = match sock.recv().await {
            Ok(Some(pkt)) => pkt,
            Ok(None) | Err(_) => return,
        };
        // Fault plane: a dropped request vanishes before any processing
        // (an overflowed socket buffer on a busy nfsd). The client's
        // retransmission — same xid — will be served normally.
        if env.sim.faults().rpc_request_drop() {
            continue;
        }
        // Everything between receiving a request and posting its reply is
        // server-side RPC time: decode/dispatch CPU plus the filesystem
        // work (which opens its own nested spans — disk phases and all).
        let _srv = env.sim.span(Class::RpcServer);
        {
            let _s = env.sim.span(Class::ProtoCpu);
            env.sim.charge(Cycles(config.per_op_cy));
        }
        let req = match RpcRequest::decode(&pkt.data) {
            Ok(r) => r,
            Err(_) => continue, // Malformed datagram: drop, like rpcd.
        };
        let shutdown = matches!(req.call, NfsCall::Shutdown);
        // A retransmitted request replays its original reply: without
        // this, a lost REMOVE or MKDIR reply would make the client's
        // retry fail (ENOENT/EEXIST) — the classic NFS duplicate-request
        // problem.
        let replay = {
            let st = state.lock();
            st.dup_cache
                .iter()
                .find(|(k, _)| *k == (pkt.from, req.xid))
                .map(|(_, v)| v.clone())
        };
        if let Some((bytes, pad)) = replay {
            state.lock().stats.dup_hits += 1;
            if !env.sim.faults().rpc_reply_drop() {
                let _ = sock.send_padded(pkt.from, bytes, pad).await;
            }
            continue;
        }
        {
            let mut st = state.lock();
            st.stats.rpcs += 1;
            match req.call {
                NfsCall::Read { .. } => st.stats.reads += 1,
                NfsCall::Write { .. } => st.stats.writes += 1,
                _ => {}
            }
        }
        let (reply, pad) = execute(env, fs, state, root, &req.call, config)
            .await
            .unwrap_or_else(|e| (NfsReply::Error(e), 0));
        let bytes = RpcReply {
            xid: req.xid,
            reply,
        }
        .encode();
        {
            let mut st = state.lock();
            if st.dup_cache.len() == DUP_CACHE_ENTRIES {
                st.dup_cache.remove(0);
            }
            st.dup_cache
                .push(((pkt.from, req.xid), (bytes.clone(), pad)));
        }
        // Fault plane: a dropped reply was still *executed* and cached —
        // the retransmitted request must hit the duplicate-request cache
        // above, or non-idempotent calls (REMOVE, CREATE) would fail on
        // replay. This is the case the cache exists for.
        if !env.sim.faults().rpc_reply_drop() {
            let _ = sock.send_padded(pkt.from, bytes, pad).await;
        }
        if shutdown {
            return;
        }
    }
}

fn wire_attr(a: tnt_os::FileAttr) -> WireAttr {
    WireAttr {
        size: a.size,
        is_dir: a.is_dir,
        nlink: a.nlink,
    }
}

fn child_path(state: &Mutex<ServerState>, dir: Fh, name: &str) -> SysResult<String> {
    let st = state.lock();
    let parent = st.paths.get(&dir).ok_or(Errno::EBADF)?;
    Ok(format!("{parent}/{name}"))
}

/// Executes one call against the exported filesystem; returns the reply
/// and its datagram padding.
async fn execute(
    env: &KEnv,
    fs: &Arc<dyn Filesystem>,
    state: &Arc<Mutex<ServerState>>,
    root: Fh,
    call: &NfsCall,
    config: NfsServerConfig,
) -> SysResult<(NfsReply, u64)> {
    match call {
        NfsCall::Null | NfsCall::Shutdown => Ok((NfsReply::Ok, 0)),
        NfsCall::Getattr { fh } => {
            let attr = fs.getattr(env, *fh).await?;
            Ok((NfsReply::Attr(wire_attr(attr)), 0))
        }
        NfsCall::Lookup { dir, name } => {
            // The mount convention: LOOKUP(0, "") answers the root handle.
            if *dir == 0 && name.is_empty() {
                let attr = fs.getattr(env, root).await?;
                return Ok((
                    NfsReply::Handle {
                        fh: root,
                        attr: wire_attr(attr),
                    },
                    0,
                ));
            }
            let path = child_path(state, *dir, name)?;
            let fh = fs.lookup(env, &path).await?;
            let attr = fs.getattr(env, fh).await?;
            state.lock().paths.insert(fh, path);
            Ok((
                NfsReply::Handle {
                    fh,
                    attr: wire_attr(attr),
                },
                0,
            ))
        }
        NfsCall::Read { fh, off, len } => {
            let n = fs.read(env, *fh, *off, *len).await?;
            Ok((NfsReply::Data { len: n }, n))
        }
        NfsCall::Write { fh, off, len } => {
            let n = fs.write(env, *fh, *off, *len).await?;
            if config.sync_writes {
                fs.fsync(env, *fh).await?;
            }
            Ok((NfsReply::Wrote { len: n }, 0))
        }
        NfsCall::Create {
            dir,
            name,
            exclusive,
        } => {
            let path = child_path(state, *dir, name)?;
            let flags = OpenFlags {
                exclusive: *exclusive,
                ..OpenFlags::creat()
            };
            let fh = fs.open(env, &path, flags).await?;
            let attr = fs.getattr(env, fh).await?;
            state.lock().paths.insert(fh, path);
            Ok((
                NfsReply::Handle {
                    fh,
                    attr: wire_attr(attr),
                },
                0,
            ))
        }
        NfsCall::Remove { dir, name } => {
            let path = child_path(state, *dir, name)?;
            fs.unlink(env, &path).await?;
            Ok((NfsReply::Ok, 0))
        }
        NfsCall::Mkdir { dir, name } => {
            let path = child_path(state, *dir, name)?;
            fs.mkdir(env, &path).await?;
            let fh = fs.lookup(env, &path).await?;
            let attr = fs.getattr(env, fh).await?;
            state.lock().paths.insert(fh, path);
            Ok((
                NfsReply::Handle {
                    fh,
                    attr: wire_attr(attr),
                },
                0,
            ))
        }
        NfsCall::Rmdir { dir, name } => {
            let path = child_path(state, *dir, name)?;
            fs.rmdir(env, &path).await?;
            Ok((NfsReply::Ok, 0))
        }
        NfsCall::Rename {
            from_dir,
            from_name,
            to_dir,
            to_name,
        } => {
            let from = child_path(state, *from_dir, from_name)?;
            let to = child_path(state, *to_dir, to_name)?;
            fs.rename(env, &from, &to).await?;
            // The moved object's handle (if cached) now maps to `to`.
            let mut st = state.lock();
            let moved: Vec<Fh> = st
                .paths
                .iter()
                .filter(|(_, p)| **p == from)
                .map(|(fh, _)| *fh)
                .collect();
            for fh in moved {
                st.paths.insert(fh, to.clone());
            }
            Ok((NfsReply::Ok, 0))
        }
        NfsCall::Readdir { dir } => {
            let path = state.lock().paths.get(dir).cloned().ok_or(Errno::EBADF)?;
            let names = fs
                .readdir(env, if path.is_empty() { "/" } else { &path })
                .await?;
            Ok((NfsReply::Names(names), 0))
        }
    }
}
