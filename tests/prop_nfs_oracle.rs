//! Oracle equivalence: an arbitrary sequence of filesystem operations
//! must produce *identical observable results* (byte counts, attribute
//! sizes, directory listings, errnos) whether executed on a local
//! filesystem or through the full NFS stack — RPC encoding, UDP, the
//! Ethernet model, the server, and its disk included. Timing differs;
//! semantics must not.

use proptest::prelude::*;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_fs::SimFs;
use tnt_net::Net;
use tnt_nfs::{serve, NfsClient, NfsServerConfig};
use tnt_os::{boot_cluster, Errno, OpenFlags, Os, UProc};

/// A scripted filesystem operation over a tiny name universe.
#[derive(Clone, Debug)]
enum FsOp {
    Create(u8),
    Append(u8, u64),
    ReadAll(u8),
    Stat(u8),
    Unlink(u8),
    Mkdir(u8),
    Rmdir(u8),
    Rename(u8, u8),
    List,
}

fn name(i: u8) -> String {
    format!("/n{}", i % 5)
}

fn op_strategy() -> impl Strategy<Value = FsOp> {
    prop_oneof![
        any::<u8>().prop_map(FsOp::Create),
        (any::<u8>(), 1u64..20_000).prop_map(|(n, sz)| FsOp::Append(n, sz)),
        any::<u8>().prop_map(FsOp::ReadAll),
        any::<u8>().prop_map(FsOp::Stat),
        any::<u8>().prop_map(FsOp::Unlink),
        any::<u8>().prop_map(FsOp::Mkdir),
        any::<u8>().prop_map(FsOp::Rmdir),
        (any::<u8>(), any::<u8>()).prop_map(|(a, b)| FsOp::Rename(a, b)),
        Just(FsOp::List),
    ]
}

/// Observable outcome of one op, as a comparable string.
async fn apply(p: &UProc, op: &FsOp) -> String {
    match op {
        FsOp::Create(n) => match p.creat(&name(*n)).await {
            Ok(fd) => {
                p.close(fd).await.unwrap();
                "created".into()
            }
            Err(e) => format!("err:{e}"),
        },
        FsOp::Append(n, sz) => match p.open(&name(*n), OpenFlags::rdwr()).await {
            Ok(fd) => {
                let size = p.fstat(fd).await.map(|a| a.size).unwrap_or(0);
                p.lseek(fd, size).unwrap();
                let wrote = p.write(fd, *sz).await;
                p.close(fd).await.unwrap();
                format!("wrote:{wrote:?}")
            }
            Err(e) => format!("err:{e}"),
        },
        FsOp::ReadAll(n) => match p.open(&name(*n), OpenFlags::rdonly()).await {
            Ok(fd) => {
                let mut total = 0;
                loop {
                    match p.read(fd, 4096).await {
                        Ok(0) => break,
                        Ok(n) => total += n,
                        Err(e) => {
                            p.close(fd).await.unwrap();
                            return format!("readerr:{e}");
                        }
                    }
                }
                p.close(fd).await.unwrap();
                format!("read:{total}")
            }
            Err(e) => format!("err:{e}"),
        },
        FsOp::Stat(n) => match p.stat(&name(*n)).await {
            Ok(a) => format!("stat:{}:{}", a.size, a.is_dir),
            Err(e) => format!("err:{e}"),
        },
        FsOp::Unlink(n) => format!("{:?}", p.unlink(&name(*n)).await.err()),
        FsOp::Mkdir(n) => format!("{:?}", p.mkdir(&name(*n)).await.err()),
        FsOp::Rmdir(n) => format!("{:?}", p.rmdir(&name(*n)).await.err()),
        FsOp::Rename(a, b) => format!("{:?}", p.rename(&name(*a), &name(*b)).await.err()),
        FsOp::List => match p.readdir("/").await {
            Ok(names) => format!("ls:{}", names.join(",")),
            Err(e) => format!("err:{e}"),
        },
    }
}

fn run_local(os: Os, ops: Vec<FsOp>) -> Vec<String> {
    tnt_core::run_with_fs(os, 1, move |p| async move {
        let mut out = Vec::new();
        for op in &ops {
            out.push(apply(&p, op).await);
        }
        out
    })
}

fn run_nfs(client_os: Os, server_os: Os, ops: Vec<FsOp>) -> Vec<String> {
    let (sim, kernels) = boot_cluster(&[client_os, server_os], 1);
    let net = Net::ethernet_10mbit();
    let ch = net.register_host(&kernels[0]);
    let sh = net.register_host(&kernels[1]);
    let server_fs = SimFs::fresh_for_os(server_os);
    kernels[1].mount(server_fs.clone());
    let server = serve(
        &net,
        &kernels[1],
        sh,
        server_fs,
        NfsServerConfig::for_os(server_os),
    )
    .unwrap();
    let mount = NfsClient::mount(&net, &kernels[0], ch, server.addr()).unwrap();
    kernels[0].mount(mount);
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    kernels[0].spawn_user("oracle", move |p| async move {
        for op in &ops {
            let outcome = apply(&p, op).await;
            o2.lock().push(outcome);
        }
        p.sim().stop();
    });
    let _ = sim.run().unwrap();
    let result = out.lock().clone();
    result
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    #[test]
    fn nfs_observes_exactly_what_local_observes(
        ops in prop::collection::vec(op_strategy(), 1..25),
        client in prop_oneof![Just(Os::Linux), Just(Os::FreeBsd), Just(Os::Solaris)],
        server in prop_oneof![Just(Os::Linux), Just(Os::SunOs)],
    ) {
        let local = run_local(client, ops.clone());
        let remote = run_nfs(client, server, ops.clone());
        prop_assert_eq!(&local, &remote,
            "semantics diverge for {:?} via {:?} server on ops {:?}", client, server, ops);
    }
}

#[test]
fn oracle_smoke_mixed_sequence() {
    // A fixed regression sequence covering every op kind.
    let ops = vec![
        FsOp::Mkdir(0),
        FsOp::Create(1),
        FsOp::Append(1, 9000),
        FsOp::Stat(1),
        FsOp::ReadAll(1),
        FsOp::List,
        FsOp::Create(1), // truncates
        FsOp::Stat(1),
        FsOp::Unlink(1),
        FsOp::Stat(1),
        FsOp::Rmdir(0),
        FsOp::Rmdir(0), // already gone
        FsOp::Create(2),
        FsOp::Rename(2, 4),
        FsOp::Stat(4),
        FsOp::Stat(2),
    ];
    let local = run_local(Os::FreeBsd, ops.clone());
    let remote = run_nfs(Os::FreeBsd, Os::SunOs, ops);
    assert_eq!(local, remote);
    assert!(local.iter().any(|s| s.contains("err:ENOENT")));
}

#[test]
fn oracle_errnos_cross_the_wire() {
    let ops = vec![FsOp::ReadAll(3), FsOp::Rmdir(3), FsOp::Unlink(3)];
    let local = run_local(Os::Linux, ops.clone());
    let remote = run_nfs(Os::Linux, Os::Linux, ops);
    assert_eq!(local, remote);
    assert_eq!(local[0], format!("err:{}", Errno::ENOENT));
}
