//! Twin runs of the socket paths. Each workload runs once as threaded
//! processes calling the sync forms and once as engine tasks awaiting
//! the async forms. The sync forms are `Sim::block_on` adapters over the
//! async ones, so both runs must end at the same clock, with the same
//! per-process CPU and the same dispatch count — jitter included.

use std::sync::Arc;

use parking_lot::Mutex;
use tnt_net::{connect, Addr, Net, TcpListener, UdpSocket};
use tnt_os::{boot, Os, Pid};
use tnt_sim::{Cycles, Sim};

/// Final clock, dispatches, and each process's CPU (parent first).
type Outcome = (Cycles, u64, Vec<Cycles>);

fn outcome(sim: &Sim, parent: Pid, children: &Mutex<Vec<Pid>>) -> Outcome {
    let end = sim.run().expect("twin run failed");
    let mut pids = vec![parent];
    pids.extend(children.lock().iter().copied());
    let cpu = pids.iter().map(|p| sim.proc_cpu(*p)).collect();
    (end, sim.dispatch_count(), cpu)
}

/// Bytes the TCP writer sends; Linux's one-segment window makes it wait
/// on every delayed ack.
const TCP_TOTAL: u64 = 40_000;
const TCP_CHUNK: u64 = 6_000;

fn tcp_stream(seed: u64, tasks: bool) -> Outcome {
    let (sim, kernel) = boot(Os::Linux, seed);
    let net = Net::ethernet_10mbit();
    let host = net.register_host(&kernel);
    let listener = TcpListener::bind(&net, &kernel, host, 80).unwrap();
    let to = Addr { host, port: 80 };
    let children = Arc::new(Mutex::new(Vec::new()));
    let (k, log) = (kernel.clone(), children.clone());
    let parent = if tasks {
        kernel.spawn_user_task("writer", move |p| async move {
            let child = p.fork_task("reader", move |_| async move {
                let conn = listener.accept_async().await.unwrap();
                while conn.read_async(TCP_CHUNK / 2).await.unwrap() > 0 {}
            });
            log.lock().push(child);
            let conn = connect(&net, &k, host, to).unwrap();
            let mut sent = 0;
            while sent < TCP_TOTAL {
                sent += conn.write_async(TCP_CHUNK).await.unwrap();
            }
            conn.close();
            p.waitpid_async(child).await;
        })
    } else {
        kernel.spawn_user("writer", move |p| {
            let child = p.fork("reader", move |_| {
                let conn = listener.accept().unwrap();
                while conn.read(TCP_CHUNK / 2).unwrap() > 0 {}
            });
            log.lock().push(child);
            let conn = connect(&net, &k, host, to).unwrap();
            let mut sent = 0;
            while sent < TCP_TOTAL {
                sent += conn.write(TCP_CHUNK).unwrap();
            }
            conn.close();
            p.waitpid(child);
        })
    };
    outcome(&sim, parent, &children)
}

const ROUNDS: u32 = 6;
/// Datagrams per ping: 6 x 8 KB passes half of the 64 KB receive
/// buffer, so the sender also takes the loopback backpressure yield.
const BURST: u32 = 6;
const DGRAM: u64 = 8192;

fn udp_ping_pong(seed: u64, tasks: bool) -> Outcome {
    let (sim, kernel) = boot(Os::Solaris, seed);
    let net = Net::ethernet_10mbit();
    let host = net.register_host(&kernel);
    let ping = UdpSocket::bind(&net, &kernel, host, 9000).unwrap();
    let pong = UdpSocket::bind(&net, &kernel, host, 9001).unwrap();
    let pong_addr = pong.addr();
    let children = Arc::new(Mutex::new(Vec::new()));
    let log = children.clone();
    let parent = if tasks {
        kernel.spawn_user_task("ping", move |p| async move {
            let child = p.fork_task("pong", move |_| async move {
                for _ in 0..ROUNDS {
                    let mut from = None;
                    for _ in 0..BURST {
                        from = Some(pong.recv_async().await.unwrap().unwrap().from);
                    }
                    pong.send_to_async(from.unwrap(), vec![1]).await.unwrap();
                }
            });
            log.lock().push(child);
            for _ in 0..ROUNDS {
                for _ in 0..BURST {
                    ping.send_sized_async(pong_addr, DGRAM).await.unwrap();
                }
                ping.recv_async().await.unwrap().unwrap();
            }
            p.waitpid_async(child).await;
        })
    } else {
        kernel.spawn_user("ping", move |p| {
            let child = p.fork("pong", move |_| {
                for _ in 0..ROUNDS {
                    let mut from = None;
                    for _ in 0..BURST {
                        from = Some(pong.recv().unwrap().unwrap().from);
                    }
                    pong.send_to(from.unwrap(), vec![1]).unwrap();
                }
            });
            log.lock().push(child);
            for _ in 0..ROUNDS {
                for _ in 0..BURST {
                    ping.send_sized(pong_addr, DGRAM).unwrap();
                }
                ping.recv().unwrap().unwrap();
            }
            p.waitpid(child);
        })
    };
    outcome(&sim, parent, &children)
}

#[test]
fn tcp_stream_tasks_match_threaded_processes() {
    for seed in [0, 7, 1996] {
        let threaded = tcp_stream(seed, false);
        assert_eq!(threaded.2.len(), 2);
        assert_eq!(tcp_stream(seed, true), threaded, "seed {seed}");
    }
}

#[test]
fn udp_ping_pong_tasks_match_threaded_processes() {
    for seed in [0, 7, 1996] {
        let threaded = udp_ping_pong(seed, false);
        assert_eq!(threaded.2.len(), 2);
        assert_eq!(udp_ping_pong(seed, true), threaded, "seed {seed}");
    }
}
