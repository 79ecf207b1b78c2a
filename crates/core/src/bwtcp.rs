//! lmbench's `bw_tcp` (Table 5): 3 MB through a loopback TCP connection
//! using a 48 KB buffer.

use crate::machine::run_bare;
use tnt_net::{connect, connect_custom, Addr, Net, NetCosts, TcpCosts, TcpListener};
use tnt_os::Os;
use tnt_sim::mbit_per_sec;

/// Bytes per iteration, as in lmbench.
pub const BW_TCP_TOTAL: u64 = 3 * 1024 * 1024;

/// Write/read buffer size, as in lmbench.
pub const BW_TCP_CHUNK: u64 = 48 * 1024;

/// TCP loopback bandwidth in megabits per second.
pub fn tcp_bandwidth_mbit(os: Os, total: u64, chunk: u64, seed: u64) -> f64 {
    bw_tcp(os, None, total, chunk, seed)
}

/// [`tcp_bandwidth_mbit`] with the send window forced to
/// `window_packets` segments — the `x1` ablation: what Table 5 would
/// look like had Linux 1.2.8 shipped a larger window.
pub fn tcp_bandwidth_with_window(
    os: Os,
    window_packets: u64,
    total: u64,
    chunk: u64,
    seed: u64,
) -> f64 {
    assert!(window_packets >= 1);
    bw_tcp(os, Some(window_packets), total, chunk, seed)
}

/// One `bw_tcp` run: `total` bytes in `chunk`-sized writes to a forked
/// reader over loopback, with the negotiated window unless
/// `window_packets` forces one. Both ends run as engine tasks.
fn bw_tcp(os: Os, window_packets: Option<u64>, total: u64, chunk: u64, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let kernel = p.kernel().clone();
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let listener = TcpListener::bind(&net, &kernel, host, 5001).unwrap();
        let child = p.fork("bw_tcp_srv", move |_| async move {
            let conn = listener.accept().await.unwrap();
            while conn.read(chunk).await.unwrap() > 0 {}
        });
        let to = Addr { host, port: 5001 };
        let conn = match window_packets {
            None => connect(&net, &kernel, host, to),
            Some(w) => {
                let base = NetCosts::for_os(os).tcp;
                let costs = TcpCosts {
                    window: base.mss * w,
                    ..base
                };
                connect_custom(&net, &kernel, host, to, costs)
            }
        }
        .unwrap();
        let t0 = p.sim().now();
        let mut sent = 0;
        while sent < total {
            sent += conn.write(chunk.min(total - sent)).await.unwrap();
        }
        conn.close();
        p.waitpid(child).await;
        mbit_per_sec(total, p.sim().now() - t0)
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    const T: u64 = 1 << 20;

    #[test]
    fn table5_values() {
        let freebsd = tcp_bandwidth_mbit(Os::FreeBsd, T, BW_TCP_CHUNK, 0);
        let solaris = tcp_bandwidth_mbit(Os::Solaris, T, BW_TCP_CHUNK, 0);
        let linux = tcp_bandwidth_mbit(Os::Linux, T, BW_TCP_CHUNK, 0);
        assert!(
            (freebsd - 65.95).abs() < 8.0,
            "FreeBSD ~66 Mb/s, got {freebsd:.1}"
        );
        assert!(
            (solaris - 60.11).abs() < 8.0,
            "Solaris ~60 Mb/s, got {solaris:.1}"
        );
        assert!(
            (linux - 25.03).abs() < 5.0,
            "Linux ~25 Mb/s, got {linux:.1}"
        );
        assert!(freebsd > solaris && solaris > linux);
    }

    #[test]
    fn window_ablation_monotone() {
        // Widening the window lifts Linux TCP toward its per-byte limit.
        let w1 = tcp_bandwidth_with_window(Os::Linux, 1, T, BW_TCP_CHUNK, 0);
        let w4 = tcp_bandwidth_with_window(Os::Linux, 4, T, BW_TCP_CHUNK, 0);
        let w12 = tcp_bandwidth_with_window(Os::Linux, 12, T, BW_TCP_CHUNK, 0);
        assert!(w4 > 1.5 * w1, "4 packets beats 1: {w4:.0} vs {w1:.0}");
        assert!(w12 > w4, "12 beats 4: {w12:.0} vs {w4:.0}");
        let stock = tcp_bandwidth_mbit(Os::Linux, T, BW_TCP_CHUNK, 0);
        assert!(
            (w1 - stock).abs() / stock < 0.05,
            "window=1 IS the stock Linux"
        );
    }

    #[test]
    fn linux_tcp_not_faster_than_a_window_per_roundtrip() {
        // With a one-packet window, bandwidth is bounded by
        // mss / (round trip), whatever the chunk size.
        let with_big_chunks = tcp_bandwidth_mbit(Os::Linux, T, 128 * 1024, 0);
        let with_small_chunks = tcp_bandwidth_mbit(Os::Linux, T, 8 * 1024, 0);
        assert!(
            (with_big_chunks - with_small_chunks).abs() / with_small_chunks < 0.25,
            "chunking barely matters against a one-packet window: {with_big_chunks:.1} vs {with_small_chunks:.1}"
        );
    }
}
