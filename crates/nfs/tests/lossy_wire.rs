//! Failure injection: NFS over a lossy Ethernet. Requests and replies
//! vanish (the fault plane's `net_drop`); the client's retransmission
//! (same xid, doubling timeout) and the server's duplicate-request cache
//! must keep the semantics exact.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_fs::SimFs;
use tnt_net::{Net, UdpSocket};
use tnt_nfs::{serve, NfsCall, NfsClient, NfsReply, NfsServerConfig, RpcReply, RpcRequest};
use tnt_os::{boot_cluster_with_faults, Errno, OpenFlags, Os, UProc};
use tnt_sim::fault::FaultProfile;

struct Rig {
    sim: tnt_sim::Sim,
    net: Net,
    client_kernel: tnt_os::Kernel,
    server_kernel: tnt_os::Kernel,
    mount: Arc<NfsClient>,
    server: tnt_nfs::NfsServer,
    client_host: u32,
}

fn rig(loss: f64, seed: u64) -> Rig {
    let faults = FaultProfile {
        net_drop: loss,
        ..FaultProfile::off()
    };
    let (sim, kernels) = boot_cluster_with_faults(&[Os::FreeBsd, Os::SunOs], seed, faults);
    let net = Net::ethernet_10mbit();
    let client_host = net.register_host(&kernels[0]);
    let server_host = net.register_host(&kernels[1]);
    let server_fs = SimFs::fresh_for_os(Os::SunOs);
    kernels[1].mount(server_fs.clone());
    let server = serve(
        &net,
        &kernels[1],
        server_host,
        server_fs,
        NfsServerConfig::for_os(Os::SunOs),
    )
    .unwrap();
    let mount = NfsClient::mount(&net, &kernels[0], client_host, server.addr()).unwrap();
    kernels[0].mount(mount.clone());
    Rig {
        sim,
        net,
        client_kernel: kernels[0].clone(),
        server_kernel: kernels[1].clone(),
        mount,
        server,
        client_host,
    }
}

fn run_client<Fut>(rig: &Rig, f: impl FnOnce(UProc) -> Fut + Send + 'static)
where
    Fut: Future<Output = ()> + Send + 'static,
{
    rig.client_kernel.spawn_user("client", move |p| async move {
        let sim = p.sim().clone();
        f(p).await;
        sim.stop();
    });
    let _ = rig.sim.run().unwrap();
}

#[test]
fn workload_survives_ten_percent_loss() {
    let r = rig(0.10, 42);
    run_client(&r, |p| async move {
        p.mkdir("/d").await.unwrap();
        for i in 0..8 {
            let fd = p.creat(&format!("/d/f{i}")).await.unwrap();
            p.write(fd, 12_000).await.unwrap();
            p.close(fd).await.unwrap();
        }
        for i in 0..8 {
            let fd = p
                .open(&format!("/d/f{i}"), OpenFlags::rdonly())
                .await
                .unwrap();
            let mut total = 0;
            loop {
                let n = p.read(fd, 8192).await.unwrap();
                if n == 0 {
                    break;
                }
                total += n;
            }
            assert_eq!(total, 12_000, "file f{i} intact despite loss");
            p.close(fd).await.unwrap();
        }
        let mut names = p.readdir("/d").await.unwrap();
        names.sort();
        assert_eq!(names.len(), 8);
        for i in 0..8 {
            p.unlink(&format!("/d/f{i}")).await.unwrap();
        }
        p.rmdir("/d").await.unwrap();
        assert_eq!(p.stat("/d").await.err(), Some(Errno::ENOENT));
    });
    assert!(r.net.dropped_frames() > 0, "the wire really was lossy");
    assert!(r.mount.retransmits() > 0, "the client really retransmitted");
}

#[test]
fn lossless_wire_never_retransmits() {
    let r = rig(0.0, 1);
    run_client(&r, |p| async move {
        let fd = p.creat("/f").await.unwrap();
        p.write(fd, 64 * 1024).await.unwrap();
        p.close(fd).await.unwrap();
    });
    assert_eq!(r.net.dropped_frames(), 0);
    assert_eq!(r.mount.retransmits(), 0);
    assert_eq!(r.server.stats().dup_hits, 0);
}

#[test]
fn loss_costs_time_but_not_correctness() {
    let elapsed = |loss: f64| {
        let r = rig(loss, 7);
        let t = Arc::new(Mutex::new(0.0f64));
        let t2 = t.clone();
        run_client(&r, move |p| async move {
            let t0 = p.sim().now();
            let fd = p.creat("/f").await.unwrap();
            p.write(fd, 128 * 1024).await.unwrap();
            p.close(fd).await.unwrap();
            assert_eq!(p.stat("/f").await.unwrap().size, 128 * 1024);
            *t2.lock() = (p.sim().now() - t0).as_secs();
        });
        let v = *t.lock();
        v
    };
    let clean = elapsed(0.0);
    let lossy = elapsed(0.15);
    assert!(
        lossy > clean * 1.5,
        "timeouts cost real time: {lossy:.2}s vs {clean:.2}s"
    );
}

#[test]
fn duplicate_request_cache_replays_nonidempotent_ops() {
    // Drive the server directly with a hand-rolled retransmission of a
    // REMOVE: without the cache, the replay would observe ENOENT.
    let r = rig(0.0, 3);
    let net = r.net.clone();
    let kernel = r.client_kernel.clone();
    let server_addr = r.server.addr();
    let host = r.client_host;
    run_client(&r, move |p| async move {
        // Create a file through the normal mount.
        let fd = p.creat("/victim").await.unwrap();
        p.close(fd).await.unwrap();
        // Speak raw RPC: look the file up, remove it, then replay the
        // identical REMOVE datagram (same xid).
        let sock = &UdpSocket::bind(&net, &kernel, host, 900).unwrap();
        let rpc = move |call: NfsCall, xid: u32| async move {
            let req = RpcRequest { xid, call };
            sock.send_to(server_addr, req.encode()).await.unwrap();
            let pkt = sock.recv().await.unwrap().unwrap();
            RpcReply::decode(&pkt.data).unwrap()
        };
        let root = match rpc(
            NfsCall::Lookup {
                dir: 0,
                name: String::new(),
            },
            1,
        )
        .await
        .reply
        {
            NfsReply::Handle { fh, .. } => fh,
            other => panic!("no root handle: {other:?}"),
        };
        let first = rpc(
            NfsCall::Remove {
                dir: root,
                name: "victim".into(),
            },
            2,
        )
        .await;
        assert_eq!(first.reply, NfsReply::Ok);
        // The "retransmission": byte-identical request, same xid.
        let replay = rpc(
            NfsCall::Remove {
                dir: root,
                name: "victim".into(),
            },
            2,
        )
        .await;
        assert_eq!(
            replay.reply,
            NfsReply::Ok,
            "dup cache must replay Ok, not re-execute to ENOENT"
        );
        // A genuinely new REMOVE (fresh xid) does observe ENOENT.
        let fresh = rpc(
            NfsCall::Remove {
                dir: root,
                name: "victim".into(),
            },
            3,
        )
        .await;
        assert_eq!(fresh.reply, NfsReply::Error(Errno::ENOENT));
    });
    assert_eq!(r.server.stats().dup_hits, 1);
    let _ = r.server_kernel;
}

#[test]
fn oracle_semantics_hold_under_loss() {
    // The same op script on a clean and a lossy wire observes identical
    // results (only the clock differs).
    let script = |p: UProc| async move {
        let mut out = Vec::new();
        out.push(format!("{:?}", p.mkdir("/a").await.err()));
        let fd = p.creat("/a/x").await.unwrap();
        out.push(format!("{:?}", p.write(fd, 30_000).await));
        p.close(fd).await.unwrap();
        out.push(format!("{:?}", p.stat("/a/x").await.map(|a| a.size)));
        out.push(format!("{:?}", p.unlink("/a/x").await.err()));
        out.push(format!("{:?}", p.unlink("/a/x").await.err()));
        out
    };
    let run = |loss: f64| {
        let r = rig(loss, 11);
        let out = Arc::new(Mutex::new(Vec::new()));
        let o2 = out.clone();
        run_client(&r, move |p| async move {
            *o2.lock() = script(p).await;
        });
        let v = out.lock().clone();
        v
    };
    assert_eq!(run(0.0), run(0.12));
}
