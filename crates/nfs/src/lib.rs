#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! NFS over SunRPC/UDP — the Section 10 experiments.
//!
//! The client ([`NfsClient`]) implements the same `Filesystem` trait as
//! the local filesystems, so the Modified Andrew Benchmark runs over NFS
//! unchanged. The server ([`serve`]) is an `nfsd` process on a second
//! simulated machine, reached across the 10 Mb/s Ethernet model.
//!
//! The two mechanisms behind Tables 6 and 7:
//!
//! - server write policy: the SunOS 4.1.4 server commits every WRITE RPC
//!   to disk (per the NFS spec); the Linux 1.2.8 server answers
//!   asynchronously from its cache — which is why every client is faster
//!   against the Linux server;
//! - client transfer size: the Linux client's 1 KB WRITEs are merely
//!   chatty against an async server but catastrophic against a sync one
//!   (eight disk commits where FreeBSD pays one).
//!
//! RPC messages are genuinely XDR-encoded into the UDP payloads, so wire
//! times come from real message sizes.

mod client;
mod proto;
mod server;
mod xdr;

pub use client::{NfsClient, NfsClientParams};
pub use proto::{Fh, NfsCall, NfsReply, RpcReply, RpcRequest, WireAttr, NFS_PORT};
pub use server::{serve, NfsServer, NfsServerConfig, ServerStats};
pub use xdr::{XdrDecoder, XdrEncoder};
