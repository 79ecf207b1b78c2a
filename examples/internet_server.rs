//! The paper's Internet-server motivation: "context switch time ... is
//! increasingly important for Internet servers that must sometimes
//! service hundreds of simultaneous connections."
//!
//! This example builds the same toy server two ways on each OS:
//!
//! 1. **process-per-connection** — N workers, each blocked on its own
//!    pipe, so the scheduler cycles through many processes: the regime
//!    where Figure 1's scheduler differences decide throughput;
//! 2. **event-driven** — one process multiplexing every connection with
//!    `select(2)`, dodging most context switches.
//!
//! ```text
//! cargo run --release --example internet_server
//! ```
//!
//! A third mode scales past anything one-thread-per-process can host:
//! `crowd [N]` runs N (default 10,000) clients as **lite processes** —
//! cooperative state machines multiplexed inside a single engine slot —
//! against a small pool of worker processes, connected by a
//! `SimChannel`:
//!
//! ```text
//! cargo run --release --example internet_server -- crowd 10000
//! ```

use std::sync::Arc;

use tnt_farm::{run_farm, FarmConfig};
use tnt_os::{boot, Os};
use tnt_sim::proc::{block_on, LiteScheduler, ProcCtx, Step};
use tnt_sim::{Cycles, SimChannel, WaitId};

/// Requests each client issues.
const REQUESTS: u64 = 50;

/// Simulated CPU per request in the worker (parse + respond).
const SERVICE_CY: u64 = 20_000; // 200 µs

fn serve(os: Os, nclients: usize) -> f64 {
    let (sim, kernel) = boot(os, 1);
    kernel.spawn_user("acceptor", move |p| async move {
        let mut children = Vec::new();
        // One worker pair of pipes per connection (request, reply).
        for i in 0..nclients {
            let (req_rd, req_wr) = p.pipe();
            let (rep_rd, rep_wr) = p.pipe();
            // The connection's worker.
            children.push(p.fork(format!("worker{i}"), move |w| async move {
                for _ in 0..REQUESTS {
                    if w.read(req_rd, 128).await.unwrap() == 0 {
                        break;
                    }
                    w.compute(Cycles(SERVICE_CY));
                    w.write(rep_wr, 256).await.unwrap();
                }
            }));
            // The client driving it.
            children.push(p.fork(format!("client{i}"), move |c| async move {
                for _ in 0..REQUESTS {
                    c.write(req_wr, 128).await.unwrap();
                    c.read(rep_rd, 256).await.unwrap();
                }
                c.close(req_wr).await.unwrap();
            }));
        }
        for child in children {
            p.waitpid(child).await;
        }
    });
    let elapsed = sim.run().unwrap().as_secs();
    (nclients as u64 * REQUESTS) as f64 / elapsed
}

/// The event-driven variant: one server process selects over every
/// connection's request pipe.
fn serve_select(os: Os, nclients: usize) -> f64 {
    let (sim, kernel) = boot(os, 1);
    kernel.spawn_user("acceptor", move |p| async move {
        let mut req_rds = Vec::new();
        let mut rep_wrs = Vec::new();
        let mut client_ends = Vec::new();
        let mut children = Vec::new();
        for i in 0..nclients {
            let (req_rd, req_wr) = p.pipe();
            let (rep_rd, rep_wr) = p.pipe();
            req_rds.push(req_rd);
            rep_wrs.push(rep_wr);
            client_ends.push((req_wr, rep_rd));
            children.push(p.fork(format!("client{i}"), move |c| async move {
                for _ in 0..REQUESTS {
                    c.write(req_wr, 128).await.unwrap();
                    c.read(rep_rd, 256).await.unwrap();
                }
                c.close(req_wr).await.unwrap();
            }));
        }
        // Drop the acceptor's copies of the client-side ends BEFORE
        // forking the server, or the server would inherit write ends and
        // never see EOF — the classic fd-leak server bug.
        for (req_wr, rep_rd) in client_ends {
            p.close(req_wr).await.unwrap();
            p.close(rep_rd).await.unwrap();
        }
        // The single event loop.
        children.push(p.fork("event-server", move |srv| async move {
            let mut open = req_rds.len();
            while open > 0 {
                let ready = srv.select_read(&req_rds, None).await.unwrap();
                for fd in ready {
                    let idx = req_rds.iter().position(|r| *r == fd).unwrap();
                    if srv.read(fd, 128).await.unwrap() == 0 {
                        open -= 1;
                        continue;
                    }
                    srv.compute(Cycles(SERVICE_CY));
                    srv.write(rep_wrs[idx], 256).await.unwrap();
                }
            }
        }));
        for child in children {
            p.waitpid(child).await;
        }
    });
    let elapsed = sim.run().unwrap().as_secs();
    (nclients as u64 * REQUESTS) as f64 / elapsed
}

/// Requests each crowd client issues (smaller than [`REQUESTS`]: the
/// crowd is three orders of magnitude wider).
const CROWD_REQUESTS: u64 = 3;

/// Simulated client think time between requests.
const THINK_CY: u64 = 1_000;

/// Worker processes serving the crowd.
const CROWD_WORKERS: usize = 8;

/// The crowd variant: `nclients` lite processes (one engine slot, no
/// host threads) drive requests through a bounded [`SimChannel`] into a
/// pool of worker processes. Returns `(req/s, engine dispatches, lite
/// polls)` — the dispatch numbers are the point: tens of thousands of
/// clients cost the baton engine almost nothing.
fn serve_crowd(os: Os, nclients: usize) -> (f64, u64, u64) {
    let (sim, kernel) = boot(os, 1);
    let s = kernel.sim().clone();
    let requests = Arc::new(SimChannel::<u32>::new(&s, 256));
    // Per-client reply queue: the serving worker rings exactly the
    // client whose request it completed.
    let reply_qs: Arc<Vec<WaitId>> = Arc::new((0..nclients).map(|_| s.new_queue()).collect());

    let total = nclients as u64 * CROWD_REQUESTS;
    for w in 0..CROWD_WORKERS {
        // Split the fixed request volume across the pool.
        let quota =
            total / CROWD_WORKERS as u64 + u64::from((w as u64) < total % CROWD_WORKERS as u64);
        let rx = requests.clone();
        let replies = reply_qs.clone();
        kernel.spawn_user(format!("worker{w}"), move |p| async move {
            for _ in 0..quota {
                let client = rx.recv(p.sim()).await;
                p.compute(Cycles(SERVICE_CY));
                p.sim().wakeup_one(replies[client as usize]);
            }
        });
    }

    let mut sched = LiteScheduler::new(&s);
    for id in 0..nclients as u32 {
        let tx = requests.clone();
        let replies = reply_qs.clone();
        let mut left = CROWD_REQUESTS;
        let mut phase = 0u8;
        sched.spawn(
            &format!("client{id}"),
            Box::new(move |ctx: &mut ProcCtx| match phase {
                // Think, then try to get the request onto the wire.
                0 => {
                    phase = 1;
                    Step::Charge(THINK_CY)
                }
                1 => match tx.try_send(ctx.sim(), id) {
                    Ok(()) => {
                        phase = 2;
                        block_on(replies[id as usize], "await reply")
                    }
                    Err(_) => block_on(tx.write_queue(), "request channel full"),
                },
                // Woken: the reply queue is private, so the wakeup IS
                // the reply.
                _ => {
                    left -= 1;
                    if left == 0 {
                        Step::Done
                    } else {
                        phase = 1;
                        Step::Charge(THINK_CY)
                    }
                }
            }),
        );
    }
    let handle = sched.start("crowd");
    let elapsed = sim.run().unwrap().as_secs();
    (
        total as f64 / elapsed,
        sim.dispatch_count(),
        handle.stats().polls,
    )
}

fn crowd_main(nclients: usize) {
    println!("== {nclients} lite clients vs {CROWD_WORKERS} workers ==\n");
    println!(
        "  {:<12} {:>12} {:>16} {:>12}",
        "OS", "req/s", "engine switches", "lite polls"
    );
    for os in Os::benchmarked() {
        let (rps, dispatches, polls) = serve_crowd(os, nclients);
        println!(
            "  {:<12} {:>11.0}/s {:>16} {:>12}",
            os.label(),
            rps,
            dispatches,
            polls
        );
    }
    println!();
    println!("every client is a cooperative state machine in ONE engine slot:");
    println!(
        "  - {nclients} threaded clients would need ~{} MB of host stacks",
        nclients / 2
    );
    println!("    (512 KB each) and an engine dispatch per client block;");
    println!("  - the lite crowd shares a run queue, so the engine only switches");
    println!("    between the scheduler slot and the worker pool.");

    // The same crowd through the real rig: tnt-farm adds the switched
    // topology, open-loop arrivals and the latency histogram, so the
    // crowd's *tail* becomes visible, not just its throughput.
    let farm_crowd = nclients.min(5_000);
    println!("\n== the same crowd through tnt-farm (open-loop, 600 req/s offered) ==\n");
    println!(
        "  {:<12} {:>9} {:>9} {:>9} {:>9}",
        "OS", "ach rps", "p50 ms", "p99 ms", "p999 ms"
    );
    for os in Os::benchmarked() {
        let r = run_farm(&FarmConfig::tcp(os, 600.0, farm_crowd, 1996));
        println!(
            "  {:<12} {:>9.1} {:>9.2} {:>9.2} {:>9.2}",
            os.label(),
            r.achieved_rps,
            r.hist.p50() as f64 / 100_000.0,
            r.hist.p99() as f64 / 100_000.0,
            r.hist.p999() as f64 / 100_000.0,
        );
    }
    println!("\nthe measured version of this table is harness experiment x10");
    println!("(`reproduce x10`); the full per-OS rate sweep is `reproduce farm`.");
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("crowd") {
        let n = args
            .get(1)
            .map(|raw| raw.parse().expect("crowd size must be a number"))
            .unwrap_or(10_000);
        crowd_main(n);
        return;
    }
    println!("== toy Internet server: requests/second vs concurrent connections ==\n");
    println!("process-per-connection:");
    println!(
        "  {:<12} {:>10} {:>10} {:>10}",
        "OS", "8 conns", "32 conns", "64 conns"
    );
    for os in Os::benchmarked() {
        let r8 = serve(os, 8);
        let r32 = serve(os, 32);
        let r64 = serve(os, 64);
        println!(
            "  {:<12} {:>9.0}/s {:>9.0}/s {:>9.0}/s",
            os.label(),
            r8,
            r32,
            r64
        );
    }
    println!("\nevent-driven (one process + select):");
    println!(
        "  {:<12} {:>10} {:>10} {:>10}",
        "OS", "8 conns", "32 conns", "64 conns"
    );
    for os in Os::benchmarked() {
        let r8 = serve_select(os, 8);
        let r32 = serve_select(os, 32);
        let r64 = serve_select(os, 64);
        println!(
            "  {:<12} {:>9.0}/s {:>9.0}/s {:>9.0}/s",
            os.label(),
            r8,
            r32,
            r64
        );
    }
    println!("\nwhat to look for (Figure 1's fingerprints):");
    println!("  - Linux process-per-connection decays as connections grow: its");
    println!("    scheduler rescans the whole task table on every switch;");
    println!("  - FreeBSD barely moves: constant-time run queues;");
    println!("  - Solaris pays its heavyweight dispatcher everywhere, and falls");
    println!("    further once >32 runnable threads thrash its table;");
    println!("  - the event-driven design softens all three curves by replacing");
    println!("    most context switches with one select(2) loop.");
}
