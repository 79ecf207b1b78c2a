//! End-to-end NFS tests: a client machine and a server machine on the
//! 10 Mb/s Ethernet, exercising the full RPC path down to the server's
//! disk model.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;
use tnt_fs::SimFs;
use tnt_net::Net;
use tnt_nfs::{serve, NfsClient, NfsServerConfig};
use tnt_os::{boot_cluster, Errno, Kernel, OpenFlags, Os, UProc};
use tnt_sim::Cycles;

/// Boots a client/server pair, mounts NFS on the client, runs `f` as a
/// client process, and returns (elapsed, client RPC total).
fn run_nfs<Fut>(
    client_os: Os,
    server_os: Os,
    f: impl FnOnce(UProc) -> Fut + Send + 'static,
) -> (Cycles, u64)
where
    Fut: Future<Output = ()> + Send + 'static,
{
    let (sim, kernels) = boot_cluster(&[client_os, server_os], 0);
    let (client_k, server_k): (&Kernel, &Kernel) = (&kernels[0], &kernels[1]);
    let net = Net::ethernet_10mbit();
    let client_host = net.register_host(client_k);
    let server_host = net.register_host(server_k);

    let server_fs = SimFs::fresh_for_os(server_os);
    server_k.mount(server_fs.clone());
    let server = serve(
        &net,
        server_k,
        server_host,
        server_fs,
        NfsServerConfig::for_os(server_os),
    )
    .unwrap();

    let mount = NfsClient::mount(&net, client_k, client_host, server.addr()).unwrap();
    client_k.mount(mount.clone());

    let elapsed = Arc::new(Mutex::new(Cycles::ZERO));
    let e2 = elapsed.clone();
    client_k.spawn_user("client-bench", move |p| async move {
        let sim = p.sim().clone();
        let t0 = sim.now();
        f(p).await;
        *e2.lock() = sim.now() - t0;
        sim.stop(); // Tears down the nfsd daemon.
    });
    let _ = sim.run().unwrap();
    let t = *elapsed.lock();
    (t, mount.rpc_total())
}

#[test]
fn file_operations_work_over_nfs() {
    let _ = run_nfs(Os::FreeBsd, Os::Linux, |p| async move {
        p.mkdir("/proj").await.unwrap();
        let fd = p.creat("/proj/data").await.unwrap();
        assert_eq!(p.write(fd, 20_000).await.unwrap(), 20_000);
        p.close(fd).await.unwrap();

        let attr = p.stat("/proj/data").await.unwrap();
        assert_eq!(attr.size, 20_000);
        assert!(!attr.is_dir);

        let fd = p.open("/proj/data", OpenFlags::rdonly()).await.unwrap();
        let mut total = 0;
        loop {
            let n = p.read(fd, 8192).await.unwrap();
            if n == 0 {
                break;
            }
            total += n;
        }
        assert_eq!(total, 20_000);
        p.close(fd).await.unwrap();

        assert_eq!(p.readdir("/proj").await.unwrap(), vec!["data"]);
        p.unlink("/proj/data").await.unwrap();
        assert_eq!(p.stat("/proj/data").await.err(), Some(Errno::ENOENT));
        p.rmdir("/proj").await.unwrap();
    });
}

#[test]
fn rename_works_over_nfs() {
    let _ = run_nfs(Os::FreeBsd, Os::Linux, |p| async move {
        p.mkdir("/src").await.unwrap();
        p.mkdir("/dst").await.unwrap();
        let fd = p.creat("/src/lib.o.tmp").await.unwrap();
        p.write(fd, 4000).await.unwrap();
        p.close(fd).await.unwrap();
        p.rename("/src/lib.o.tmp", "/dst/lib.o").await.unwrap();
        assert_eq!(p.stat("/src/lib.o.tmp").await.err(), Some(Errno::ENOENT));
        assert_eq!(p.stat("/dst/lib.o").await.unwrap().size, 4000);
        // The renamed file is still readable through the new name.
        let fd = p.open("/dst/lib.o", OpenFlags::rdonly()).await.unwrap();
        assert_eq!(p.read(fd, 8192).await.unwrap(), 4000);
        p.close(fd).await.unwrap();
    });
}

#[test]
fn nfs_errors_propagate() {
    let _ = run_nfs(Os::Solaris, Os::Linux, |p| async move {
        assert_eq!(
            p.open("/ghost", OpenFlags::rdonly()).await.err(),
            Some(Errno::ENOENT)
        );
        p.mkdir("/d").await.unwrap();
        assert_eq!(p.mkdir("/d").await.err(), Some(Errno::EEXIST));
        let fd = p.creat("/d/f").await.unwrap();
        p.close(fd).await.unwrap();
        assert_eq!(p.rmdir("/d").await.err(), Some(Errno::ENOTEMPTY));
    });
}

#[test]
fn sync_server_writes_cost_disk_time() {
    let workload = |p: UProc| async move {
        let fd = p.creat("/w").await.unwrap();
        for _ in 0..16 {
            p.write(fd, 8192).await.unwrap();
        }
        p.close(fd).await.unwrap();
    };
    let (async_t, _) = run_nfs(Os::FreeBsd, Os::Linux, workload);
    let (sync_t, _) = run_nfs(Os::FreeBsd, Os::SunOs, workload);
    assert!(
        sync_t.as_millis() > async_t.as_millis() * 2.0,
        "sync server {:.1}ms should dwarf async server {:.1}ms",
        sync_t.as_millis(),
        async_t.as_millis()
    );
}

#[test]
fn linux_client_issues_eight_times_the_write_rpcs() {
    let workload = |p: UProc| async move {
        let fd = p.creat("/w").await.unwrap();
        p.write(fd, 64 * 1024).await.unwrap();
        p.close(fd).await.unwrap();
    };
    let (_, freebsd_rpcs) = run_nfs(Os::FreeBsd, Os::Linux, workload);
    let (_, linux_rpcs) = run_nfs(Os::Linux, Os::Linux, workload);
    // 64 KB: FreeBSD needs 8 write RPCs, Linux 64; plus a handful of
    // lookups/creates for both.
    assert!(
        linux_rpcs > freebsd_rpcs + 40,
        "Linux {linux_rpcs} RPCs vs FreeBSD {freebsd_rpcs}"
    );
}

#[test]
fn linux_client_collapses_against_sunos_server() {
    // The Table 7 mechanism in miniature: write 256 KB through each
    // client against the sync SunOS server.
    let workload = |p: UProc| async move {
        let fd = p.creat("/w").await.unwrap();
        p.write(fd, 256 * 1024).await.unwrap();
        p.close(fd).await.unwrap();
    };
    let (freebsd_t, _) = run_nfs(Os::FreeBsd, Os::SunOs, workload);
    let (linux_t, _) = run_nfs(Os::Linux, Os::SunOs, workload);
    assert!(
        linux_t.as_millis() > 3.0 * freebsd_t.as_millis(),
        "Linux {:.0}ms vs FreeBSD {:.0}ms against a sync server",
        linux_t.as_millis(),
        freebsd_t.as_millis()
    );
}

#[test]
fn client_data_cache_avoids_reread_rpcs() {
    let (_, rpcs) = run_nfs(Os::FreeBsd, Os::Linux, |p| async move {
        let fd = p.creat("/f").await.unwrap();
        p.write(fd, 32 * 1024).await.unwrap();
        p.close(fd).await.unwrap();
        // First read pulls the data; the second is served locally.
        for _ in 0..2 {
            let fd = p.open("/f", OpenFlags::rdonly()).await.unwrap();
            while p.read(fd, 8192).await.unwrap() > 0 {}
            p.close(fd).await.unwrap();
        }
    });
    // 4 writes + 4 reads + create + lookups; a second read pass would
    // have added 4 more READ RPCs.
    assert!(
        rpcs < 16,
        "expected the second pass cached, got {rpcs} RPCs"
    );
}

#[test]
fn attribute_cache_behaviour_differs_per_client() {
    let workload = |p: UProc| async move {
        let fd = p.creat("/f").await.unwrap();
        p.close(fd).await.unwrap();
        for _ in 0..50 {
            p.stat("/f").await.unwrap();
        }
    };
    let (_, freebsd_rpcs) = run_nfs(Os::FreeBsd, Os::Linux, workload);
    let (_, linux_rpcs) = run_nfs(Os::Linux, Os::Linux, workload);
    assert!(
        linux_rpcs > freebsd_rpcs + 40,
        "Linux re-fetches attributes ({linux_rpcs} vs {freebsd_rpcs} RPCs)"
    );
}
