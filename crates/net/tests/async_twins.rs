//! The socket paths as engine tasks, pinned. Each workload ends at the
//! clock, with the per-process CPU and the dispatch count, that the same
//! workload produced as threaded processes calling the former sync
//! socket forms (and, identically, as tasks) — jitter included. A change
//! to how a socket call blocks or wakes moves one of these numbers.

use std::sync::Arc;

use parking_lot::Mutex;
use tnt_net::{connect, Addr, Net, TcpListener, UdpSocket};
use tnt_os::{boot, Os, Pid};
use tnt_sim::{Cycles, Sim};

/// Final clock, dispatches, and each process's CPU (parent first).
type Outcome = (Cycles, u64, Vec<Cycles>);

fn outcome(sim: &Sim, parent: Pid, children: &Mutex<Vec<Pid>>) -> Outcome {
    let end = sim.run().expect("pinned run failed");
    let mut pids = vec![parent];
    pids.extend(children.lock().iter().copied());
    let cpu = pids.iter().map(|p| sim.proc_cpu(*p)).collect();
    (end, sim.dispatch_count(), cpu)
}

/// Bytes the TCP writer sends; Linux's one-segment window makes it wait
/// on every delayed ack.
const TCP_TOTAL: u64 = 40_000;
const TCP_CHUNK: u64 = 6_000;

fn tcp_stream(seed: u64) -> Outcome {
    let (sim, kernel) = boot(Os::Linux, seed);
    let net = Net::ethernet_10mbit();
    let host = net.register_host(&kernel);
    let listener = TcpListener::bind(&net, &kernel, host, 80).unwrap();
    let to = Addr { host, port: 80 };
    let children = Arc::new(Mutex::new(Vec::new()));
    let (k, log) = (kernel.clone(), children.clone());
    let parent = kernel.spawn_user("writer", move |p| async move {
        let child = p.fork("reader", move |_| async move {
            let conn = listener.accept().await.unwrap();
            while conn.read(TCP_CHUNK / 2).await.unwrap() > 0 {}
        });
        log.lock().push(child);
        let conn = connect(&net, &k, host, to).unwrap();
        let mut sent = 0;
        while sent < TCP_TOTAL {
            sent += conn.write(TCP_CHUNK).await.unwrap();
        }
        conn.close();
        p.waitpid(child).await;
    });
    outcome(&sim, parent, &children)
}

const ROUNDS: u32 = 6;
/// Datagrams per ping: 6 x 8 KB passes half of the 64 KB receive
/// buffer, so the sender also takes the loopback backpressure yield.
const BURST: u32 = 6;
const DGRAM: u64 = 8192;

fn udp_ping_pong(seed: u64) -> Outcome {
    let (sim, kernel) = boot(Os::Solaris, seed);
    let net = Net::ethernet_10mbit();
    let host = net.register_host(&kernel);
    let ping = UdpSocket::bind(&net, &kernel, host, 9000).unwrap();
    let pong = UdpSocket::bind(&net, &kernel, host, 9001).unwrap();
    let pong_addr = pong.addr();
    let children = Arc::new(Mutex::new(Vec::new()));
    let log = children.clone();
    let parent = kernel.spawn_user("ping", move |p| async move {
        let child = p.fork("pong", move |_| async move {
            for _ in 0..ROUNDS {
                let mut from = None;
                for _ in 0..BURST {
                    from = Some(pong.recv().await.unwrap().unwrap().from);
                }
                pong.send_to(from.unwrap(), vec![1]).await.unwrap();
            }
        });
        log.lock().push(child);
        for _ in 0..ROUNDS {
            for _ in 0..BURST {
                ping.send_sized(pong_addr, DGRAM).await.unwrap();
            }
            ping.recv().await.unwrap().unwrap();
        }
        p.waitpid(child).await;
    });
    outcome(&sim, parent, &children)
}

#[test]
fn tcp_stream_tasks_match_threaded_processes() {
    let pinned = [
        (0, 1_727_635, 331_141, 383_958),
        (7, 1_730_519, 332_505, 385_506),
        (1996, 1_730_559, 332_516, 385_535),
    ];
    for (seed, end, writer, reader) in pinned {
        assert_eq!(
            tcp_stream(seed),
            (Cycles(end), 57, vec![Cycles(writer), Cycles(reader)]),
            "seed {seed}"
        );
    }
}

#[test]
fn udp_ping_pong_tasks_match_threaded_processes() {
    let pinned = [
        (0, 8_334_660, 4_459_030, 3_519_630),
        (7, 8_410_808, 4_501_596, 3_553_212),
        (1996, 8_411_858, 4_502_160, 3_553_698),
    ];
    for (seed, end, ping, pong) in pinned {
        assert_eq!(
            udp_ping_pong(seed),
            (Cycles(end), 25, vec![Cycles(ping), Cycles(pong)]),
            "seed {seed}"
        );
    }
}
