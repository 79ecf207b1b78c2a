//! The deterministic fault plane against NFS: seed-driven RPC request
//! and reply loss injected by `FaultProfile`. The client's
//! retransmission machinery and the server's duplicate-request cache
//! must keep semantics exact; total loss must surface as `ETIMEDOUT`
//! after the retries are exhausted, and the whole circus must be
//! byte-deterministic per seed.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_fs::SimFs;
use tnt_net::Net;
use tnt_nfs::{serve, NfsClient, NfsServerConfig};
use tnt_os::{boot_cluster_with_faults, Errno, Kernel, OpenFlags, Os, UProc};
use tnt_sim::fault::FaultProfile;

struct Rig {
    sim: tnt_sim::Sim,
    client_kernel: Kernel,
    mount: Arc<NfsClient>,
    server: tnt_nfs::NfsServer,
}

fn rig(faults: FaultProfile, seed: u64) -> Rig {
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
        client_kernel: kernels[0].clone(),
        mount,
        server,
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

/// A small non-idempotent workload; returns every observable outcome so
/// determinism tests can compare whole runs.
async fn workload(p: &UProc) -> Vec<String> {
    let mut out = Vec::new();
    out.push(format!("{:?}", p.mkdir("/d").await.err()));
    for i in 0..6 {
        let fd = p.creat(&format!("/d/f{i}")).await.unwrap();
        out.push(format!("{:?}", p.write(fd, 20_000).await));
        p.close(fd).await.unwrap();
    }
    for i in 0..6 {
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
        out.push(format!("f{i}={total}"));
        p.close(fd).await.unwrap();
    }
    for i in 0..6 {
        out.push(format!("{:?}", p.unlink(&format!("/d/f{i}")).await.err()));
    }
    out.push(format!("{:?}", p.rmdir("/d").await.err()));
    out.push(format!("{:?}", p.stat("/d").await.err()));
    out
}

#[test]
fn injected_request_loss_retransmits_until_it_lands() {
    // Requests vanish before the server sees them, so the client's
    // timeout/retransmit path carries the whole workload.
    let r = rig(
        FaultProfile {
            rpc_request_drop: 0.25,
            ..FaultProfile::off()
        },
        9,
    );
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    run_client(&r, move |p| async move {
        *o2.lock() = workload(&p).await;
    });
    assert!(
        r.mount.retransmits() > 0,
        "25% request loss must force retransmissions"
    );
    assert_eq!(
        r.mount.major_timeouts(),
        0,
        "loss this light must never exhaust the retries"
    );
    let out = out.lock().clone();
    assert!(out.iter().any(|l| l == "f5=20000"), "data intact: {out:?}");
}

#[test]
fn injected_reply_loss_exercises_the_dup_cache() {
    // The server executes the call but the reply vanishes, so the
    // retransmission is a true duplicate: the cache must replay the
    // recorded reply instead of re-executing non-idempotent ops (a
    // re-executed REMOVE would observe ENOENT, a re-executed CREATE
    // would observe EEXIST).
    let r = rig(
        FaultProfile {
            rpc_reply_drop: 0.25,
            ..FaultProfile::off()
        },
        5,
    );
    let out = Arc::new(Mutex::new(Vec::new()));
    let o2 = out.clone();
    run_client(&r, move |p| async move {
        *o2.lock() = workload(&p).await;
    });
    assert!(r.mount.retransmits() > 0, "lost replies look like timeouts");
    assert!(
        r.server.stats().dup_hits > 0,
        "retransmissions of executed calls must hit the dup cache"
    );
    let out = out.lock().clone();
    // Every unlink and the rmdir succeeded exactly once: None errors.
    assert!(
        out.iter().filter(|l| *l == "None").count() >= 8,
        "non-idempotent ops stayed exactly-once: {out:?}"
    );
    assert_eq!(out.last().map(String::as_str), Some("Some(ENOENT)"));
}

#[test]
fn total_reply_loss_times_out_with_etimedout() {
    // Satellite bugfix regression: retry exhaustion must surface as
    // ETIMEDOUT (not EIO) and be counted as a major timeout.
    let r = rig(
        FaultProfile {
            rpc_reply_drop: 1.0,
            ..FaultProfile::off()
        },
        2,
    );
    let err = Arc::new(Mutex::new(None));
    let e2 = err.clone();
    run_client(&r, move |p| async move {
        *e2.lock() = p.stat("/anything").await.err();
    });
    assert_eq!(*err.lock(), Some(Errno::ETIMEDOUT));
    assert!(
        r.mount.major_timeouts() >= 1,
        "exhaustion must be accounted as a major timeout"
    );
}

#[test]
fn lossy_runs_are_deterministic_per_seed() {
    // Same seed, same profile => identical observable outcomes, clocks
    // and fault counters. Different seed => (almost surely) a different
    // retransmission history, proving the faults really are seeded.
    let run = |seed: u64| {
        let r = rig(FaultProfile::lossy(), seed);
        let out = Arc::new(Mutex::new((Vec::new(), 0.0f64)));
        let o2 = out.clone();
        run_client(&r, move |p| async move {
            let t0 = p.sim().now();
            let script = workload(&p).await;
            *o2.lock() = (script, (p.sim().now() - t0).as_secs());
        });
        let (script, secs) = out.lock().clone();
        (
            script,
            secs,
            r.mount.retransmits(),
            r.server.stats().dup_hits,
        )
    };
    let a = run(13);
    let b = run(13);
    assert_eq!(a, b, "same seed must reproduce the run bit-for-bit");
    let c = run(14);
    assert_eq!(a.0, c.0, "semantics are seed-independent");
    assert!(
        a.1 != c.1 || a.2 != c.2,
        "a different seed should shuffle the fault history"
    );
}
