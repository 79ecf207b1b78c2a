//! Edge-case integration tests across crates: things no benchmark
//! exercises but a real user of the library will hit.

use std::sync::Arc;

use parking_lot::Mutex;
use tnt_net::{connect, Addr, Net, TcpListener};
use tnt_os::{boot, boot_cluster, Errno, OpenFlags, Os};
use tnt_sim::Cycles;

#[test]
fn rusage_attributes_cpu_to_the_right_process() {
    let (sim, kernel) = boot(Os::Linux, 0);
    let usages = Arc::new(Mutex::new((Cycles::ZERO, Cycles::ZERO)));
    let u2 = usages.clone();
    kernel.spawn_user("parent", move |p| async move {
        let u3 = u2.clone();
        let child = p.fork("burner", move |c| async move {
            c.compute(Cycles(500_000));
            u3.lock().1 = c.rusage_self();
        });
        p.compute(Cycles(10_000));
        p.waitpid(child).await;
        u2.lock().0 = p.rusage_self();
    });
    let _ = sim.run().unwrap();
    let (parent, child) = *usages.lock();
    assert!(child.0 >= 500_000, "child burned its cycles: {child:?}");
    assert!(
        parent.0 >= 10_000 && parent.0 < 200_000,
        "parent did not inherit the child's burn: {parent:?}"
    );
}

#[test]
fn tcp_across_the_wire_pays_ethernet_time() {
    let (sim, kernels) = boot_cluster(&[Os::FreeBsd, Os::FreeBsd], 0);
    let net = Net::ethernet_10mbit();
    let h0 = net.register_host(&kernels[0]);
    let h1 = net.register_host(&kernels[1]);
    let listener = TcpListener::bind(&net, &kernels[1], h1, 80).unwrap();
    kernels[1].spawn_user("server", move |_| async move {
        let conn = listener.accept().await.unwrap();
        while conn.read(65536).await.unwrap() > 0 {}
    });
    let n2 = net.clone();
    let k0 = kernels[0].clone();
    let elapsed = Arc::new(Mutex::new(Cycles::ZERO));
    let e2 = elapsed.clone();
    kernels[0].spawn_user("client", move |p| async move {
        let conn = connect(&n2, &k0, h0, Addr { host: h1, port: 80 }).unwrap();
        let t0 = p.sim().now();
        let total: u64 = 256 * 1024;
        let mut sent = 0;
        while sent < total {
            sent += conn.write(65536.min(total - sent)).await.unwrap();
        }
        conn.close();
        *e2.lock() = p.sim().now() - t0;
        p.sim().stop();
    });
    let _ = sim.run().unwrap();
    // 256 KB over 10 Mb/s is >= ~210 ms of wire time alone.
    let ms = elapsed.lock().as_millis();
    assert!(ms > 200.0, "cross-host TCP is wire-bound: {ms:.0}ms");
}

#[test]
fn tcp_write_after_peer_close_is_epipe() {
    let (sim, kernel) = boot(Os::Linux, 0);
    let net = Net::ethernet_10mbit();
    let host = net.register_host(&kernel);
    let listener = TcpListener::bind(&net, &kernel, host, 81).unwrap();
    let (n2, k2) = (net.clone(), kernel.clone());
    kernel.spawn_user("main", move |p| async move {
        let child = p.fork("closer", move |_| async move {
            let conn = listener.accept().await.unwrap();
            conn.close();
        });
        let conn = connect(&n2, &k2, host, Addr { host, port: 81 }).unwrap();
        p.waitpid(child).await;
        // The peer's close half-closed their send side; OUR writes go to
        // the direction the peer marked fin.
        let r = conn.write(100).await;
        assert_eq!(r.err(), Some(Errno::EPIPE));
    });
    let _ = sim.run().unwrap();
}

#[test]
fn null_device_semantics() {
    // Processes start with no fds; pipe() allocates from 0.
    let (sim, kernel) = boot(Os::FreeBsd, 0);
    kernel.spawn_user("p", |p| async move {
        let (r, w) = p.pipe();
        assert_eq!((r, w), (0, 1), "lowest-first allocation");
        let d = p.dup(r).unwrap();
        assert_eq!(d, 2);
        p.close(r).await.unwrap();
        let (r2, _) = p.pipe();
        assert_eq!(r2, 0, "hole reused");
    });
    let _ = sim.run().unwrap();
}

#[test]
fn lseek_past_eof_reads_zero_and_write_extends() {
    let (sim, kernel) = boot(Os::Linux, 0);
    kernel.mount(tnt_fs::SimFs::fresh_for_os(Os::Linux));
    kernel.spawn_user("p", |p| async move {
        let fd = p.creat("/f").await.unwrap();
        p.write(fd, 1000).await.unwrap();
        p.close(fd).await.unwrap();
        let fd = p.open("/f", OpenFlags::rdwr()).await.unwrap();
        p.lseek(fd, 5_000).unwrap();
        assert_eq!(p.read(fd, 100).await.unwrap(), 0, "read past EOF");
        p.lseek(fd, 5_000).unwrap();
        p.write(fd, 100).await.unwrap();
        p.close(fd).await.unwrap();
        assert_eq!(
            p.stat("/f").await.unwrap().size,
            5_100,
            "write extends the file"
        );
    });
    let _ = sim.run().unwrap();
}

#[test]
fn mount_table_routes_longest_prefix() {
    let (sim, kernel) = boot(Os::Linux, 0);
    kernel.mount(tnt_fs::SimFs::fresh_for_os(Os::Linux));
    let tmp = tnt_fs::SimFs::fresh_for_os(Os::Linux);
    kernel.mount_at("/tmp", tmp);
    kernel.spawn_user("p", |p| async move {
        let fd = p.creat("/tmp/scratch").await.unwrap();
        p.write(fd, 10).await.unwrap();
        p.close(fd).await.unwrap();
        let fd = p.creat("/tmpfile").await.unwrap(); // NOT under /tmp
        p.close(fd).await.unwrap();
        // Root sees /tmpfile but not /tmp/scratch's entry.
        let names = p.readdir("/").await.unwrap();
        assert!(names.contains(&"tmpfile".to_string()));
        assert!(!names.contains(&"scratch".to_string()));
        assert_eq!(p.readdir("/tmp").await.unwrap(), vec!["scratch"]);
    });
    let _ = sim.run().unwrap();
}

#[test]
fn cross_mount_rename_is_rejected() {
    let (sim, kernel) = boot(Os::FreeBsd, 0);
    kernel.mount(tnt_fs::SimFs::fresh_for_os(Os::FreeBsd));
    kernel.mount_at("/tmp", tnt_fs::SimFs::fresh_for_os(Os::FreeBsd));
    kernel.spawn_user("p", |p| async move {
        let fd = p.creat("/file").await.unwrap();
        p.close(fd).await.unwrap();
        assert_eq!(
            p.rename("/file", "/tmp/file").await.err(),
            Some(Errno::EINVAL)
        );
    });
    let _ = sim.run().unwrap();
}

#[test]
fn kernel_stats_count_what_happened() {
    let (sim, kernel) = boot(Os::Solaris, 0);
    let k2 = kernel.clone();
    kernel.spawn_user("p", move |p| async move {
        for _ in 0..10 {
            p.getpid();
        }
        let child = p.fork("c", |c| async move { c.exec() });
        p.waitpid(child).await;
        let stats = k2.stats();
        assert!(
            stats.syscalls >= 12,
            "10 getpids + fork + waitpid: {stats:?}"
        );
        assert_eq!(stats.forks, 1);
        assert_eq!(stats.execs, 1);
    });
    let _ = sim.run().unwrap();
}

#[test]
fn deep_nfs_paths_resolve_through_dnlc() {
    use tnt_nfs::{serve, NfsClient, NfsServerConfig};
    let (sim, kernels) = boot_cluster(&[Os::FreeBsd, Os::Linux], 0);
    let net = Net::ethernet_10mbit();
    let ch = net.register_host(&kernels[0]);
    let sh = net.register_host(&kernels[1]);
    let fs = tnt_fs::SimFs::fresh_for_os(Os::Linux);
    kernels[1].mount(fs.clone());
    let server = serve(
        &net,
        &kernels[1],
        sh,
        fs,
        NfsServerConfig::for_os(Os::Linux),
    )
    .unwrap();
    let mount = NfsClient::mount(&net, &kernels[0], ch, server.addr()).unwrap();
    kernels[0].mount(mount.clone());
    kernels[0].spawn_user("p", move |p| async move {
        p.mkdir("/a").await.unwrap();
        p.mkdir("/a/b").await.unwrap();
        p.mkdir("/a/b/c").await.unwrap();
        let fd = p.creat("/a/b/c/deep").await.unwrap();
        p.write(fd, 123).await.unwrap();
        p.close(fd).await.unwrap();
        let before = mount.rpc_total();
        // Second resolution of the same path: the dnlc absorbs lookups.
        assert_eq!(p.stat("/a/b/c/deep").await.unwrap().size, 123);
        let after = mount.rpc_total();
        assert!(
            after - before <= 2,
            "cached path costs at most a getattr: {} RPCs",
            after - before
        );
        p.sim().stop();
    });
    let _ = sim.run().unwrap();
}
