//! Round-trip latency microbenchmarks in the style of the lmbench suite
//! the paper draws from: one-byte ping-pong over each IPC/network path,
//! plus a null RPC against an NFS server. The paper reports bandwidths;
//! these latencies complete the picture (and pin down the per-operation
//! constants the bandwidth calibrations imply).

use std::sync::Arc;

use crate::machine::{run_bare, timed, ResultSlot};
use tnt_fs::SimFs;
use tnt_net::{connect, Addr, Net, Recv, TcpListener, UdpSocket};
use tnt_nfs::{serve, NfsCall, NfsReply, NfsServerConfig};
use tnt_os::{boot_cluster, Os, UProc};
use tnt_sim::Cycles;

/// lmbench `lat_pipe`: one byte bounced between two processes through a
/// pair of pipes. Returns µs per round trip.
pub fn lat_pipe_us(os: Os, round_trips: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let (rd_a, wr_a) = p.pipe(); // parent -> child
        let (rd_b, wr_b) = p.pipe(); // child -> parent
        let child = p.fork("pong", move |c| async move {
            for _ in 0..round_trips {
                if c.read(rd_a, 1).await.unwrap() == 0 {
                    break;
                }
                c.write(wr_b, 1).await.unwrap();
            }
        });
        let t0 = p.sim().now();
        for _ in 0..round_trips {
            p.write(wr_a, 1).await.unwrap();
            p.read(rd_b, 1).await.unwrap();
        }
        let d = p.sim().now() - t0;
        p.waitpid(child).await;
        d.as_micros() / round_trips as f64
    })
}

/// lmbench `lat_udp`: a one-byte datagram ping-pong over loopback.
pub fn lat_udp_us(os: Os, round_trips: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let kernel = p.kernel().clone();
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let ping = UdpSocket::bind(&net, &kernel, host, 9000).unwrap();
        let pong = UdpSocket::bind(&net, &kernel, host, 9001).unwrap();
        let pong_addr = pong.addr();
        let child = p.fork("pong", move |_| async move {
            for _ in 0..round_trips {
                match pong.recv().await.unwrap() {
                    Some(pkt) => {
                        pong.send_to(pkt.from, vec![1]).await.unwrap();
                    }
                    None => break,
                }
            }
        });
        let t0 = p.sim().now();
        for _ in 0..round_trips {
            ping.send_to(pong_addr, vec![0]).await.unwrap();
            ping.recv().await.unwrap().unwrap();
        }
        let d = p.sim().now() - t0;
        p.waitpid(child).await;
        d.as_micros() / round_trips as f64
    })
}

/// lmbench `lat_tcp`: a one-byte ping-pong over a loopback connection.
pub fn lat_tcp_us(os: Os, round_trips: u32, seed: u64) -> f64 {
    run_bare(os, seed, move |p| async move {
        let kernel = p.kernel().clone();
        let net = Net::ethernet_10mbit();
        let host = net.register_host(&kernel);
        let listener = TcpListener::bind(&net, &kernel, host, 9002).unwrap();
        let child = p.fork("pong", move |_| async move {
            let conn = listener.accept().await.unwrap();
            loop {
                if conn.read(1).await.unwrap() == 0 {
                    break;
                }
                conn.write(1).await.unwrap();
            }
        });
        let conn = connect(&net, &kernel, host, Addr { host, port: 9002 }).unwrap();
        let t0 = p.sim().now();
        for _ in 0..round_trips {
            conn.write(1).await.unwrap();
            while conn.read(1).await.unwrap() == 0 {}
        }
        let d = p.sim().now() - t0;
        conn.close();
        p.waitpid(child).await;
        d.as_micros() / round_trips as f64
    })
}

/// lmbench `lat_rpc`-style: NULL RPC round trips from `client_os` to an
/// NFS server over the 10 Mb/s Ethernet. Returns µs per call.
pub fn lat_rpc_us(client_os: Os, server_os: Os, round_trips: u32, seed: u64) -> f64 {
    let (sim, kernels) = boot_cluster(&[client_os, server_os], seed);
    let net = Net::ethernet_10mbit();
    let ch = net.register_host(&kernels[0]);
    let sh = net.register_host(&kernels[1]);
    let fs = SimFs::fresh_for_os(server_os);
    kernels[1].mount(fs.clone());
    let server = serve(
        &net,
        &kernels[1],
        sh,
        fs,
        NfsServerConfig::for_os(server_os),
    )
    .unwrap();
    let server_addr = server.addr();
    let slot: ResultSlot<f64> = ResultSlot::new();
    let s2 = slot.clone();
    let kernel = kernels[0].clone();
    kernels[0].spawn_user("lat_rpc", move |p: UProc| async move {
        let sock = Arc::new(UdpSocket::bind(&net, &kernel, ch, 901).unwrap());
        let (_, d) = timed(&p, async {
            for xid in 1..=round_trips {
                let req = tnt_nfs::RpcRequest {
                    xid,
                    call: NfsCall::Null,
                };
                sock.send_to(server_addr, req.encode()).await.unwrap();
                // A bare recv() would hang forever if the fault plane
                // eats the request or the reply; retransmit with the
                // same xid so the server's dup cache keeps it one call.
                let pkt = loop {
                    match sock.recv_timeout(Cycles::from_millis(700.0)).await.unwrap() {
                        Recv::Packet(pkt) => break pkt,
                        Recv::TimedOut => {
                            sock.send_to(server_addr, req.encode()).await.unwrap();
                        }
                        Recv::Closed => panic!("rpc socket closed mid-benchmark"),
                    }
                };
                let reply = tnt_nfs::RpcReply::decode(&pkt.data).unwrap();
                assert_eq!(reply.reply, NfsReply::Ok);
            }
        })
        .await;
        s2.put(d.as_micros() / round_trips as f64);
        p.sim().stop();
    });
    // The process times its own round trips; the final clock is not needed.
    let _ = sim.run().unwrap();
    slot.take().expect("latency measured")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipe_latency_orders_like_figure_1() {
        // A pipe round trip is two ctx passes, so the ordering follows.
        let l = lat_pipe_us(Os::Linux, 200, 0);
        let f = lat_pipe_us(Os::FreeBsd, 200, 0);
        let s = lat_pipe_us(Os::Solaris, 200, 0);
        assert!(l < f && f < s, "{l:.0} < {f:.0} < {s:.0}");
        assert!((l - 110.0).abs() < 20.0, "Linux ~2x its 55us ctx: {l:.0}");
        assert!(
            (s - 450.0).abs() < 80.0,
            "Solaris ~2x its 220us ctx: {s:.0}"
        );
    }

    #[test]
    fn udp_latency_differs_from_udp_bandwidth() {
        // Figure 13's bandwidth order is FreeBSD > Solaris > Linux, but
        // one-byte latency reorders the laggards: Solaris's heavyweight
        // dispatcher dominates tiny round trips, while Linux's per-byte
        // copy costs vanish. FreeBSD wins both games.
        let l = lat_udp_us(Os::Linux, 100, 0);
        let f = lat_udp_us(Os::FreeBsd, 100, 0);
        let s = lat_udp_us(Os::Solaris, 100, 0);
        assert!(f < l && f < s, "FreeBSD fastest: {f:.0} vs {l:.0}/{s:.0}");
        assert!(
            s > l,
            "Solaris dispatch costs dominate 1-byte RTTs: {s:.0} vs {l:.0}"
        );
    }

    #[test]
    fn tcp_latency_dominated_by_scheduling_not_window() {
        // One-byte ping-pong never fills any window, so even Linux's
        // one-packet window does not matter here.
        let l = lat_tcp_us(Os::Linux, 100, 0);
        let f = lat_tcp_us(Os::FreeBsd, 100, 0);
        assert!(
            l < 1_000.0 && f < 1_000.0,
            "sub-ms round trips: {l:.0}, {f:.0}"
        );
        assert!(f < l, "FreeBSD's stack is leaner: {f:.0} vs {l:.0}");
    }

    #[test]
    fn null_rpc_includes_the_wire() {
        let us = lat_rpc_us(Os::FreeBsd, Os::SunOs, 50, 0);
        // Two small frames on 10 Mb/s Ethernet alone are ~0.2 ms; with
        // both stacks, a null RPC lands in the low milliseconds.
        assert!(us > 300.0 && us < 5_000.0, "null RPC {us:.0}us");
    }

    #[test]
    fn rpc_latency_reflects_client_stack() {
        let linux = lat_rpc_us(Os::Linux, Os::Linux, 50, 0);
        let freebsd = lat_rpc_us(Os::FreeBsd, Os::Linux, 50, 0);
        assert!(
            freebsd < linux,
            "Linux's UDP path is dearer: {freebsd:.0} vs {linux:.0}"
        );
    }
}
