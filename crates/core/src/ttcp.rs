//! `ttcp` over UDP (Figure 13): bandwidth as a function of packet size,
//! 4 MB transferred per run, over the loopback interface.

use crate::machine::{run_bare, ResultSlot};
use tnt_net::{Net, UdpSocket};
use tnt_os::Os;
use tnt_sim::mbit_per_sec;

/// Bytes moved per run (the paper transfers 4 MB per iteration).
pub const TTCP_TOTAL: u64 = 4 * 1024 * 1024;

/// The packet sizes of the Figure 13 sweep.
pub fn packet_sizes() -> Vec<u64> {
    vec![256, 512, 1024, 2048, 4096, 8192]
}

/// UDP loopback bandwidth in megabits per second at one packet size.
/// The sender and the forked receiver run as engine tasks.
pub fn udp_bandwidth_mbit(os: Os, packet: u64, total: u64, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let kernel = p.kernel().clone();
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let tx = UdpSocket::bind(&net, &kernel, host, 5010).unwrap();
        let rx = UdpSocket::bind(&net, &kernel, host, 5011).unwrap();
        let to = rx.addr();
        let slot: ResultSlot<f64> = ResultSlot::new();
        let s2 = slot.clone();
        let child = p.fork("ttcp-r", move |c| async move {
            let t0 = c.sim().now();
            let mut got = 0;
            while got < total {
                match rx.recv().await.unwrap() {
                    Some(pkt) => got += pkt.len,
                    None => break,
                }
            }
            s2.put(mbit_per_sec(got, c.sim().now() - t0));
        });
        let mut sent = 0;
        while sent < total {
            let n = packet.min(total - sent);
            tx.send_sized(to, n).await.unwrap();
            sent += n;
        }
        p.waitpid(child).await;
        slot.take().expect("receiver measured")
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 1 << 20; // 1 MB keeps debug tests quick.

    #[test]
    fn figure13_peak_ordering() {
        let linux = udp_bandwidth_mbit(Os::Linux, 8192, T, 0);
        let freebsd = udp_bandwidth_mbit(Os::FreeBsd, 8192, T, 0);
        let solaris = udp_bandwidth_mbit(Os::Solaris, 8192, T, 0);
        assert!(
            (freebsd - 48.0).abs() < 7.0,
            "FreeBSD ~48 Mb/s, got {freebsd:.1}"
        );
        assert!(
            (solaris - 32.0).abs() < 5.0,
            "Solaris ~32 Mb/s, got {solaris:.1}"
        );
        assert!((linux - 16.0).abs() < 3.5, "Linux ~16 Mb/s, got {linux:.1}");
        assert!(freebsd > solaris && solaris > linux);
    }

    #[test]
    fn bandwidth_rises_with_packet_size() {
        for os in Os::benchmarked() {
            let small = udp_bandwidth_mbit(os, 512, T / 4, 0);
            let big = udp_bandwidth_mbit(os, 8192, T / 4, 0);
            assert!(big > 1.5 * small, "{os:?}: {small:.1} -> {big:.1} Mb/s");
        }
    }

    #[test]
    fn no_packets_lost_on_loopback() {
        // The backpressure yield keeps the receiver drained.
        let bw = udp_bandwidth_mbit(Os::FreeBsd, 4096, T, 0);
        assert!(bw > 0.0);
    }
}
