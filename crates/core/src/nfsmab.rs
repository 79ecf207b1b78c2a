//! MAB across NFS (Tables 6 and 7): the client machine runs the Modified
//! Andrew Benchmark against a server machine over the 10 Mb/s Ethernet.
//!
//! `/tmp` (the compiler's temporaries) stays on the client's local system
//! disk, as it did on `tnt.stanford.edu`; the benchmark tree lives on the
//! NFS mount.

use std::sync::Arc;

use crate::mab::{mab_setup, run_mab, MabReport, MabSpec};
use crate::machine::ResultSlot;
use tnt_fs::{Disk, DiskParams, FsParams, SimFs};
use tnt_net::Net;
use tnt_nfs::{serve, NfsClient, NfsServerConfig};
use tnt_os::{boot_cluster_with_faults, Os};
use tnt_sim::fault::FaultProfile;

/// Runs MAB on `client_os` against an NFS server running `server_os`
/// (Table 6: `Os::Linux` server; Table 7: `Os::SunOs`).
pub fn mab_over_nfs(client_os: Os, server_os: Os, seed: u64) -> MabReport {
    mab_over_nfs_faulty(client_os, server_os, seed, tnt_sim::fault::ambient())
}

/// [`mab_over_nfs`] under an explicit fault profile — the degradation
/// experiment (`x8`) sweeps RPC drop rates through here, bypassing the
/// process-wide ambient profile so its curve is the same whatever
/// `--faults` the rest of the run uses.
pub fn mab_over_nfs_faulty(
    client_os: Os,
    server_os: Os,
    seed: u64,
    faults: FaultProfile,
) -> MabReport {
    let (sim, kernels) = boot_cluster_with_faults(&[client_os, server_os], seed, faults);
    let client_k = kernels[0].clone();
    let server_k = kernels[1].clone();

    let net = Net::ethernet_10mbit();
    let client_host = net.register_host(&client_k);
    let server_host = net.register_host(&server_k);

    // The server exports a fresh filesystem on its own disk.
    let server_fs = SimFs::fresh_for_os(server_os);
    server_k.mount(server_fs.clone());
    let server = serve(
        &net,
        &server_k,
        server_host,
        server_fs,
        NfsServerConfig::for_os(server_os),
    )
    .expect("nfsd start");

    // The client mounts it as root and keeps /tmp local.
    let mount = NfsClient::mount(&net, &client_k, client_host, server.addr()).expect("mount");
    client_k.mount(mount.clone());
    let tmp_disk = Arc::new(Disk::new(DiskParams::quantum2100()));
    client_k.mount_at("/tmp", SimFs::new(tmp_disk, FsParams::for_os(client_os)));

    let slot = ResultSlot::new();
    let s2 = slot.clone();
    client_k.spawn_user("mab-nfs", move |p| async move {
        let spec = MabSpec::standard();
        mab_setup(&p, &spec).await;
        // The paper's pristine tree was installed long before the run;
        // start the measurement from a cold client cache.
        mount.flush_caches();
        s2.put(run_mab(&p, &spec).await);
        p.sim().stop(); // Tears down the nfsd daemon.
    });
    // The report carries its own phase times; the final clock is not needed.
    let _ = sim.run().expect("MAB/NFS simulation failed");
    slot.take().expect("MAB/NFS produced a report")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table6_linux_server_ordering() {
        let freebsd = mab_over_nfs(Os::FreeBsd, Os::Linux, 0).total_s;
        let linux = mab_over_nfs(Os::Linux, Os::Linux, 0).total_s;
        let solaris = mab_over_nfs(Os::Solaris, Os::Linux, 0).total_s;
        assert!(
            freebsd < linux && linux < solaris,
            "Table 6 order FreeBSD < Linux < Solaris: {freebsd:.1} {linux:.1} {solaris:.1}"
        );
        assert!(
            (freebsd - 53.24).abs() < 9.0,
            "FreeBSD ~53s, got {freebsd:.1}"
        );
    }

    #[test]
    fn table7_sunos_server_ordering() {
        let freebsd = mab_over_nfs(Os::FreeBsd, Os::SunOs, 0).total_s;
        let solaris = mab_over_nfs(Os::Solaris, Os::SunOs, 0).total_s;
        let linux = mab_over_nfs(Os::Linux, Os::SunOs, 0).total_s;
        assert!(
            freebsd < solaris && solaris < linux,
            "Table 7 order FreeBSD < Solaris < Linux: {freebsd:.1} {solaris:.1} {linux:.1}"
        );
        assert!(
            linux > 1.4 * freebsd,
            "the Linux client collapses: {linux:.1} vs {freebsd:.1}"
        );
    }

    #[test]
    fn sync_server_is_slower_for_every_client() {
        for client in Os::benchmarked() {
            let t6 = mab_over_nfs(client, Os::Linux, 0).total_s;
            let t7 = mab_over_nfs(client, Os::SunOs, 0).total_s;
            assert!(
                t7 > t6,
                "{client:?}: sync server {t7:.1}s vs async {t6:.1}s"
            );
        }
    }
}
