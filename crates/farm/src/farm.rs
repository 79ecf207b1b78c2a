//! The farm itself: eight client hosts driving one server host through
//! a switched topology, under an open-loop Poisson arrival process.
//!
//! One simulation = one OS personality at one offered rate. The crowd
//! of per-request clients runs as lite processes (one engine slot, so
//! 10k-request crowds stay cheap); the server is a pool of worker tasks
//! on the second cluster machine, sharing that machine's scheduler
//! personality — Linux's O(n) `schedule()`, the Solaris dispatch table
//! — and one disk. Neither side owns a host thread: the whole farm runs
//! on the thread that calls [`run_farm`].
//!
//! A request's life: sleep until its precomputed arrival instant, charge
//! the client-side send path, transmit through the [`Switch`], land in
//! the server's bounded accept backlog, get served (recv path + service
//! CPU + any synchronous metadata writes + reply path, with the
//! one-packet-window delayed-ack stall where the OS has one), ride the
//! switch back, charge the client-side receive path, record sojourn
//! time. Every loss — fault plane, drop-tail queue, backlog overflow —
//! is healed by the client's exponential-backoff retransmission, up to a
//! try budget; the sojourn clock keeps running from the *first* arrival,
//! which is what makes the tail tell the truth about overload.

use std::collections::BTreeMap;
use std::sync::Arc;

use parking_lot::Mutex;

use tnt_fs::FsParams;
use tnt_net::{Delivery, NetCosts, Switch};
use tnt_os::{boot_cluster, boot_cluster_with_faults, Kernel, Os, OsCosts, UProc};
use tnt_sim::fault::FaultProfile;
use tnt_sim::proc::{block_any, LiteProc, LiteScheduler, ProcCtx, Step, WaitReason, Wake};
use tnt_sim::{Cycles, Sim, WaitId, CPU_HZ};

use crate::hist::LatHist;
use crate::load::poisson_instants;

/// One synchronous FFS metadata write: short seek plus rotation and the
/// transfer, on the server's single disk.
const SYNC_WRITE_CY: u64 = 400_000; // 4 ms at 100 MHz

/// Salt for the arrival-schedule RNG stream (distinct from every fault
/// plane salt, so composing them never correlates the draws).
const ARRIVAL_SALT: u64 = 0xFA12;

/// Client hosts sharing the offered load round-robin; host
/// `CLIENT_HOSTS` is the server.
const CLIENT_HOSTS: usize = 8;
const SERVER_HOST: u32 = CLIENT_HOSTS as u32;
/// Server worker tasks.
const WORKERS: usize = 8;
/// Server accept-backlog bound; overflow drops the request (the
/// client's RTO is the only signal).
const BACKLOG: usize = 64;
/// Access-link speed, bits/second (every host gets one).
const LINK_BPS: f64 = 100e6;
/// Drop-tail queue bound per link direction, frames.
const QUEUE_FRAMES: usize = 64;
/// Total transmission attempts before the client gives up.
const MAX_TRIES: u32 = 4;

/// What the clients ask the server to do.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// TCP request/reply: 512-byte requests, 4 KB replies, 500 ms
    /// initial RTO — where Linux 1.2.8's one-packet send window stalls
    /// a delayed-ack round per window of reply.
    Tcp,
    /// NFS-style write RPC over UDP: 8 KB writes, 128-byte replies,
    /// the NFS client's 700 ms initial RTO, plus the OS's synchronous
    /// metadata writes serialising on the server disk — where FFS's
    /// sync creates invert the TCP ranking.
    Nfs,
}

impl Workload {
    /// Stable label for reports and CSV columns.
    pub fn label(&self) -> &'static str {
        match self {
            Workload::Tcp => "tcp",
            Workload::Nfs => "nfs",
        }
    }

    /// Request payload bytes.
    fn req_bytes(self) -> u64 {
        match self {
            Workload::Tcp => 512,
            Workload::Nfs => 8192,
        }
    }

    /// Reply payload bytes.
    fn reply_bytes(self) -> u64 {
        match self {
            Workload::Tcp => 4096,
            Workload::Nfs => 128,
        }
    }

    /// Application service CPU per request, cycles.
    fn service_cy(self) -> u64 {
        match self {
            Workload::Tcp => 30_000,
            Workload::Nfs => 20_000,
        }
    }

    /// Initial retransmission timeout, cycles (doubles per retry).
    fn rto_cy(self) -> u64 {
        match self {
            Workload::Tcp => 50_000_000, // 500 ms
            Workload::Nfs => 70_000_000, // 700 ms
        }
    }
}

/// One farm run: which OS, which traffic, how much of it. The rig
/// itself (8 client hosts on 100 Mb/s switched links with 64-frame
/// queues, 8 server workers behind a 64-request backlog, 4 tries per
/// request) is fixed.
#[derive(Clone, Debug)]
pub struct FarmConfig {
    /// OS personality of every machine in the farm (homogeneous rig,
    /// like the paper's).
    pub os: Os,
    /// Traffic type.
    pub workload: Workload,
    /// Mean offered rate of the Poisson arrival process,
    /// requests/second.
    pub rps: f64,
    /// Total requests in the run.
    pub requests: usize,
    /// Simulation seed.
    pub seed: u64,
}

impl FarmConfig {
    /// The TCP request/reply rig.
    pub fn tcp(os: Os, rps: f64, requests: usize, seed: u64) -> FarmConfig {
        FarmConfig {
            os,
            workload: Workload::Tcp,
            rps,
            requests,
            seed,
        }
    }

    /// The NFS write-RPC rig, with sync metadata per the OS's FFS.
    pub fn nfs(os: Os, rps: f64, requests: usize, seed: u64) -> FarmConfig {
        FarmConfig {
            workload: Workload::Nfs,
            ..FarmConfig::tcp(os, rps, requests, seed)
        }
    }
}

/// What one farm run measured.
#[derive(Clone, Debug)]
pub struct FarmReport {
    /// Nominal offered rate, requests/second.
    pub offered_rps: f64,
    /// Requests that completed (reply fully received).
    pub completed: u64,
    /// Requests abandoned after the try budget.
    pub failed: u64,
    /// Retransmissions (excluding first attempts).
    pub retries: u64,
    /// Requests dropped at the server's accept backlog.
    pub backlog_drops: u64,
    /// Frames dropped by full switch queues.
    pub queue_drops: u64,
    /// Frames dropped by the fault plane.
    pub fault_drops: u64,
    /// Completions per second of simulated time, measured to the last
    /// completion — the capacity actually achieved at this offered rate.
    pub achieved_rps: f64,
    /// Sojourn-time distribution of completed requests, in cycles.
    pub hist: LatHist,
    /// Simulated duration of the whole run.
    pub elapsed: Cycles,
    /// Lite dispatches spent driving the client crowd.
    pub lite_polls: u64,
}

/// Per-request CPU/IO costs along the path, derived once per run from
/// the OS's calibrated tables.
#[derive(Clone, Copy)]
struct PathCosts {
    client_send: u64,
    client_recv: u64,
    server_recv: u64,
    server_send: u64,
    /// Delayed-ack stall per reply: idle worker time, not CPU.
    stall: u64,
    /// Synchronous metadata-write time per request on the server disk.
    disk: u64,
}

fn path_costs(cfg: &FarmConfig) -> PathCosts {
    let oc = OsCosts::for_os(cfg.os);
    let nc = NetCosts::for_os(cfg.os);
    let base = oc.trap_cy + oc.syscall_overhead_cy;
    let req_bytes = cfg.workload.req_bytes();
    let reply_bytes = cfg.workload.reply_bytes();
    match cfg.workload {
        Workload::Tcp => {
            let t = nc.tcp;
            let req_segs = req_bytes.div_ceil(t.mss).max(1);
            let reply_segs = reply_bytes.div_ceil(t.mss).max(1);
            // One ack round per window of reply: with Linux's window ==
            // mss that is one per segment; the big-window systems see
            // one per reply.
            let windows = reply_bytes.div_ceil(t.window).max(1);
            PathCosts {
                client_send: base
                    + req_segs * t.send_seg_cy
                    + (req_bytes as f64 * t.send_per_byte_cy) as u64,
                client_recv: base
                    + reply_segs * t.recv_seg_cy
                    + (reply_bytes as f64 * t.recv_per_byte_cy) as u64
                    + windows * t.ack_cy,
                server_recv: base
                    + req_segs * t.recv_seg_cy
                    + (req_bytes as f64 * t.recv_per_byte_cy) as u64,
                server_send: base
                    + reply_segs * t.send_seg_cy
                    + (reply_bytes as f64 * t.send_per_byte_cy) as u64
                    + windows * t.ack_cy,
                stall: (windows - 1) * t.ack_delay_cy,
                disk: 0,
            }
        }
        Workload::Nfs => {
            let u = nc.udp;
            let req_frags = req_bytes.div_ceil(u.mtu).max(1);
            let reply_frags = reply_bytes.div_ceil(u.mtu).max(1);
            let sync_writes = u64::from(FsParams::for_os(cfg.os).sync_create);
            PathCosts {
                client_send: base
                    + u.send_fixed_cy
                    + req_frags * u.per_frag_cy
                    + (req_bytes as f64 * u.send_per_byte_cy) as u64,
                client_recv: base
                    + u.recv_fixed_cy
                    + (reply_bytes as f64 * u.recv_per_byte_cy) as u64,
                server_recv: base
                    + u.recv_fixed_cy
                    + (req_bytes as f64 * u.recv_per_byte_cy) as u64,
                server_send: base
                    + u.send_fixed_cy
                    + reply_frags * u.per_frag_cy
                    + (reply_bytes as f64 * u.send_per_byte_cy) as u64,
                stall: 0,
                disk: sync_writes * SYNC_WRITE_CY,
            }
        }
    }
}

/// A request waiting in the server's accept backlog.
struct Req {
    host: u32,
    reply_q: WaitId,
}

/// Mutable farm state: one lock, only ever taken by the process holding
/// the baton, so acquisition order is simulated-time order.
struct ServerState {
    /// Accept backlog keyed by `(available_at, seq)` — workers serve in
    /// arrival order, ties broken by admission order.
    pending: BTreeMap<(u64, u64), Req>,
    seq: u64,
    done: bool,
    total: u64,
    completed: u64,
    failed: u64,
    retries: u64,
    backlog_drops: u64,
    /// Instant of the latest completion (for achieved throughput).
    last_done: u64,
    hist: LatHist,
}

struct Shared {
    work_q: WaitId,
    state: Mutex<ServerState>,
    /// Busy-until of the server's single disk: synchronous metadata
    /// writes from all workers serialise here.
    disk: Mutex<Cycles>,
}

/// Everything a client or worker needs, shared by `Arc`.
struct Env {
    switch: Switch,
    shared: Arc<Shared>,
    costs: PathCosts,
    workload: Workload,
}

enum CState {
    Sleep,
    Send,
    Transmit,
    Await,
    Recv,
}

/// One request's client side, as a lite state machine.
struct Client {
    env: Arc<Env>,
    host: u32,
    arrival: u64,
    reply_q: WaitId,
    tries: u32,
    state: CState,
}

impl Client {
    fn retire(&self, ctx: &ProcCtx, sojourn: Option<u64>) {
        let sim = ctx.sim();
        let now = sim.now().0;
        let mut st = self.env.shared.state.lock();
        match sojourn {
            Some(s) => {
                st.completed += 1;
                st.hist.record(s.max(1));
                st.last_done = st.last_done.max(now);
            }
            None => st.failed += 1,
        }
        let all_done = st.completed + st.failed == st.total;
        if all_done {
            st.done = true;
        }
        drop(st);
        if all_done {
            sim.wakeup_all(self.env.shared.work_q);
        }
    }
}

impl LiteProc<ProcCtx> for Client {
    fn poll(&mut self, ctx: &mut ProcCtx) -> Step {
        loop {
            match self.state {
                CState::Sleep => {
                    // Open loop: the send instant is fixed by the
                    // arrival schedule, whatever the server is doing.
                    self.state = CState::Send;
                    return Step::Block(WaitReason::Until(self.arrival));
                }
                CState::Send => {
                    self.state = CState::Transmit;
                    return Step::Charge(self.env.costs.client_send);
                }
                CState::Transmit => {
                    let sim = ctx.sim();
                    let sent = self.env.switch.send(
                        sim,
                        self.host,
                        SERVER_HOST,
                        self.env.workload.req_bytes(),
                    );
                    if let Delivery::Delivered(at) = sent {
                        let mut st = self.env.shared.state.lock();
                        if st.pending.len() >= BACKLOG {
                            // Overloaded accept queue: silently dropped,
                            // like a SYN that missed the listen backlog.
                            st.backlog_drops += 1;
                        } else {
                            let seq = st.seq;
                            st.seq += 1;
                            st.pending.insert(
                                (at.0, seq),
                                Req {
                                    host: self.host,
                                    reply_q: self.reply_q,
                                },
                            );
                            drop(st);
                            sim.wakeup_one_at(self.env.shared.work_q, at);
                        }
                    }
                    // Whether or not the frame survived, the client can
                    // only wait: reply, or exponential-backoff RTO.
                    self.state = CState::Await;
                    let rto = Cycles(self.env.workload.rto_cy() << self.tries);
                    return block_any(ctx, &[self.reply_q], Some(rto), "farm: reply or rto");
                }
                CState::Await => match ctx.wake() {
                    Wake::Queue(_) => {
                        self.state = CState::Recv;
                        return Step::Charge(self.env.costs.client_recv);
                    }
                    _ => {
                        self.tries += 1;
                        if self.tries >= MAX_TRIES {
                            self.retire(ctx, None);
                            return Step::Done;
                        }
                        self.env.shared.state.lock().retries += 1;
                        self.state = CState::Send;
                    }
                },
                CState::Recv => {
                    let sojourn = ctx.sim().now().0.saturating_sub(self.arrival);
                    self.retire(ctx, Some(sojourn));
                    return Step::Done;
                }
            }
        }
    }
}

/// One server worker: a task on the server machine, so every dispatch
/// pays that machine's scheduler personality.
async fn worker_loop(p: UProc, env: Arc<Env>) {
    let sim = p.sim();
    loop {
        enum Next {
            Serve(Req),
            Park,
            Exit,
        }
        let next = {
            let mut st = env.shared.state.lock();
            if st.done {
                Next::Exit
            } else {
                let now = sim.now().0;
                match st.pending.iter().next().map(|(&k, _)| k) {
                    Some((avail, seq)) if avail <= now => match st.pending.remove(&(avail, seq)) {
                        Some(req) => Next::Serve(req),
                        None => Next::Park,
                    },
                    // Nothing ripe: a `wakeup_one_at` timer is armed for
                    // every queued arrival, so parking is safe.
                    _ => Next::Park,
                }
            }
        };
        match next {
            Next::Exit => break,
            Next::Park => sim.wait_on(env.shared.work_q, "farm: worker idle").await,
            Next::Serve(req) => {
                p.compute(Cycles(env.costs.server_recv));
                p.compute(Cycles(env.workload.service_cy()));
                if env.costs.disk > 0 {
                    // Synchronous metadata: reserve the single disk and
                    // block until our writes have settled.
                    let until = {
                        let mut d = env.shared.disk.lock();
                        let start = sim.now().max(*d);
                        *d = start + Cycles(env.costs.disk);
                        *d
                    };
                    sim.sleep_until(until).await;
                }
                p.compute(Cycles(env.costs.server_send));
                if env.costs.stall > 0 {
                    // One-packet window: the worker sits in the delayed
                    // ack wait; the CPU is free but the worker is not.
                    sim.sleep(Cycles(env.costs.stall)).await;
                }
                match env
                    .switch
                    .send(sim, SERVER_HOST, req.host, env.workload.reply_bytes())
                {
                    Delivery::Delivered(at) => sim.wakeup_one_at(req.reply_q, at),
                    Delivery::Dropped => {} // client RTO heals it
                }
            }
        }
    }
}

/// Runs the farm under the ambient fault profile (whatever the harness
/// armed — `--faults off` draws nothing).
pub fn run_farm(cfg: &FarmConfig) -> FarmReport {
    let (sim, kernels) = boot_cluster(&[cfg.os, cfg.os], cfg.seed);
    run_on(cfg, sim, kernels)
}

/// Runs the farm under an explicit fault profile (degraded-mode
/// capacity curves).
pub fn run_farm_with_faults(cfg: &FarmConfig, profile: FaultProfile) -> FarmReport {
    let (sim, kernels) = boot_cluster_with_faults(&[cfg.os, cfg.os], cfg.seed, profile);
    run_on(cfg, sim, kernels)
}

fn run_on(cfg: &FarmConfig, sim: Sim, kernels: Vec<Kernel>) -> FarmReport {
    assert!(cfg.requests > 0);
    let costs = path_costs(cfg);
    let switch = Switch::new(CLIENT_HOSTS + 1, LINK_BPS, QUEUE_FRAMES);
    let shared = Arc::new(Shared {
        work_q: sim.new_queue(),
        state: Mutex::new(ServerState {
            pending: BTreeMap::new(),
            seq: 0,
            done: false,
            total: cfg.requests as u64,
            completed: 0,
            failed: 0,
            retries: 0,
            backlog_drops: 0,
            last_done: 0,
            hist: LatHist::new(),
        }),
        disk: Mutex::new(Cycles::ZERO),
    });
    let env = Arc::new(Env {
        switch: switch.clone(),
        shared: shared.clone(),
        costs,
        workload: cfg.workload,
    });

    // The client crowd: machine 0's lite scheduler, one state machine
    // per request, round-robin across the client hosts.
    let arrivals = poisson_instants(cfg.rps, cfg.requests, cfg.seed, ARRIVAL_SALT);
    let mut sched = LiteScheduler::new(&sim);
    for (i, at) in arrivals.iter().enumerate() {
        let reply_q = sim.new_queue();
        sched.spawn(
            &format!("rq{i}"),
            Box::new(Client {
                env: env.clone(),
                host: (i % CLIENT_HOSTS) as u32,
                arrival: *at,
                reply_q,
                tries: 0,
                state: CState::Sleep,
            }),
        );
    }
    let handle = sched.start("farm-clients");

    // The server pool: tasks on machine 1.
    for w in 0..WORKERS {
        let env = env.clone();
        kernels[1].spawn_user(format!("worker{w}"), move |p| worker_loop(p, env));
    }

    let elapsed = match sim.run() {
        Ok(e) => e,
        Err(e) => panic!("farm simulation failed: {e}"),
    };
    let stats = handle.stats();
    let st = shared.state.lock();
    let achieved_rps = if st.completed > 0 && st.last_done > 0 {
        st.completed as f64 * CPU_HZ as f64 / st.last_done as f64
    } else {
        0.0
    };
    FarmReport {
        offered_rps: cfg.rps,
        completed: st.completed,
        failed: st.failed,
        retries: st.retries,
        backlog_drops: st.backlog_drops,
        queue_drops: switch.queue_drops(),
        fault_drops: switch.fault_drops(),
        achieved_rps,
        hist: st.hist.clone(),
        elapsed,
        lite_polls: stats.polls,
    }
}
