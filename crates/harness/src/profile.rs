//! Profiled experiment runs (`reproduce --profile`).
//!
//! A profile re-runs **one representative sample** of each leg of an
//! experiment inside a `tnt-trace` session and renders the aggregated
//! cycle breakdown: which subsystem the simulated Pentium spent its time
//! in, per OS personality. This is the reproduction's answer to the
//! paper's "why" questions — Table 5's profile shows Linux's TCP loss is
//! delayed-ACK window stall, Figure 1's shows the O(n) run-queue scan,
//! Figure 12's shows FreeBSD's synchronous metadata writes.

use tnt_core::{
    bonnie, crtdel_ms, ctx_us, mab_local, mab_over_nfs, mab_over_nfs_faulty, mem_bandwidth,
    packet_sizes, pipe_bandwidth_mbit, syscall_us, tcp_bandwidth_mbit, udp_bandwidth_mbit,
    CtxPattern, LibcVariant, MemRoutine, Os,
};
use tnt_sim::fault::FaultProfile;
use tnt_sim::trace::{session, SessionReport};

use crate::scale::Scale;

/// Seed for profiled samples. A profile is one representative run (the
/// first measurement seed), not a sweep: attribution shares are stable
/// across seeds because the jitter scales every cost class together.
const PROFILE_SEED: u64 = 1;

/// Event-ring capacity for profiled runs. Attribution is online, so a
/// ring overflow only truncates the raw event dump; drops are counted
/// and called out in the rendered block, never silent.
pub const PROFILE_RING_CAPACITY: usize = 1 << 20;

/// One profiled sample: its label and aggregated session report.
#[derive(Clone, Debug)]
pub struct ProfiledSample {
    /// Human label ("Linux", "Linux n=96", "FreeBSD client", ...).
    pub label: String,
    /// The trace session aggregated over every sim the sample booted.
    pub report: SessionReport,
}

/// The rendered profile of one experiment: a text block to print under
/// the experiment's table/figure plus folded-stack files to write.
#[derive(Clone, Debug)]
pub struct ProfileOutput {
    /// Experiment id the profile belongs to.
    pub id: String,
    /// Rendered breakdown tables, one per sample.
    pub text: String,
    /// Folded-stack exports: (file name, contents), flame-graph ready.
    pub files: Vec<(String, String)>,
}

/// Experiment ids [`profile_experiment`] understands (t1 is static
/// configuration — there is nothing to trace).
pub fn profile_ids() -> Vec<&'static str> {
    vec![
        "t2", "f1", "f2", "f3", "f4", "f5", "f6", "f7", "f8", "f9", "f10", "f11", "f12", "t3",
        "t4", "f13", "t5", "t6", "t7", "x8",
    ]
}

fn sample(label: &str, f: impl FnOnce()) -> ProfiledSample {
    let ((), report) = session::run(PROFILE_RING_CAPACITY, f);
    ProfiledSample {
        label: label.to_string(),
        report,
    }
}

fn mem_profile_curves(id: &str) -> Option<Vec<(&'static str, MemRoutine)>> {
    let libc = |make: fn(LibcVariant) -> MemRoutine| {
        vec![
            ("Linux libc", make(LibcVariant::Linux)),
            ("FreeBSD libc", make(LibcVariant::FreeBsd)),
            ("Solaris libc", make(LibcVariant::Solaris)),
        ]
    };
    Some(match id {
        "f2" => vec![("custom read", MemRoutine::CustomRead)],
        "f3" => libc(MemRoutine::LibcMemset),
        "f4" => vec![("naive write", MemRoutine::CustomWriteNaive)],
        "f5" => vec![("prefetch write", MemRoutine::CustomWritePrefetch)],
        "f6" => libc(MemRoutine::LibcMemcpy),
        "f7" => vec![("naive copy", MemRoutine::CustomCopyNaive)],
        "f8" => vec![("prefetch copy", MemRoutine::CustomCopyPrefetch)],
        _ => return None,
    })
}

/// Runs one representative sample of each leg of experiment `id` under a
/// trace session. Returns `None` for ids with nothing to profile.
pub fn profile_experiment(id: &str, scale: &Scale) -> Option<Vec<ProfiledSample>> {
    let mut out = Vec::new();
    match id {
        "t2" => {
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    syscall_us(os, scale.syscall_iters, PROFILE_SEED);
                }));
            }
        }
        "f1" => {
            // Profile both ends of the sweep: the scheduler-scan share
            // growing with nprocs IS the figure's story.
            let lo = *scale.ctx_procs.first()?;
            let hi = *scale.ctx_procs.last()?;
            for os in Os::benchmarked() {
                for n in [lo, hi] {
                    out.push(sample(&format!("{} n={n}", os.label()), || {
                        ctx_us(os, n, scale.ctx_switches, CtxPattern::Ring, PROFILE_SEED);
                    }));
                }
            }
        }
        "f2" | "f3" | "f4" | "f5" | "f6" | "f7" | "f8" => {
            // The memory benchmarks run outside simulated time; their
            // profile is the counter bank (miss totals, stall cycles).
            let buf = 64 * 1024;
            for (label, routine) in mem_profile_curves(id)? {
                out.push(sample(label, || {
                    mem_bandwidth(routine, buf, scale.mem_total, PROFILE_SEED);
                }));
            }
        }
        "f9" | "f10" | "f11" => {
            let mb = *scale.bonnie_sizes_mb.first()?;
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    bonnie(os, mb, scale.bonnie_seeks, PROFILE_SEED);
                }));
            }
        }
        "f12" => {
            let size = *scale.crtdel_sizes.first()?;
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    crtdel_ms(os, size, scale.crtdel_iters, PROFILE_SEED);
                }));
            }
        }
        "t3" => {
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    mab_local(os, PROFILE_SEED);
                }));
            }
        }
        "t4" => {
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    pipe_bandwidth_mbit(
                        os,
                        scale.pipe_total,
                        tnt_core::BW_PIPE_CHUNK,
                        PROFILE_SEED,
                    );
                }));
            }
        }
        "f13" => {
            let packet = *packet_sizes().last()?;
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    udp_bandwidth_mbit(os, packet, scale.udp_total, PROFILE_SEED);
                }));
            }
        }
        "t5" => {
            for os in Os::benchmarked() {
                out.push(sample(os.label(), || {
                    tcp_bandwidth_mbit(os, scale.tcp_total, tnt_core::BW_TCP_CHUNK, PROFILE_SEED);
                }));
            }
        }
        "t6" | "t7" => {
            let server = if id == "t6" { Os::Linux } else { Os::SunOs };
            for client in Os::benchmarked() {
                out.push(sample(&format!("{} client", client.label()), || {
                    mab_over_nfs(client, server, PROFILE_SEED);
                }));
            }
        }
        "x8" => {
            // The degraded-but-working regime: the x8 curve's hardest
            // point (5% loss), where RpcRetransmits and the frame-drop
            // counters show up next to the normal RPC traffic.
            let lossy = FaultProfile {
                net_drop: 0.05,
                rpc_request_drop: 0.05,
                rpc_reply_drop: 0.05,
                ..FaultProfile::off()
            };
            out.push(sample("FreeBSD client, 5% RPC loss", move || {
                mab_over_nfs_faulty(Os::FreeBsd, Os::SunOs, PROFILE_SEED, lossy);
            }));
            // Retry exhaustion: every reply is dropped, so the client's
            // first (lazy) root LOOKUP burns all its retries — backoff
            // doubling from 700 ms toward the 60 s cap — and fails with
            // ETIMEDOUT. RpcMajorTimeouts must be visible here: this is
            // the only place the suite exercises a *failed* RPC.
            out.push(sample("retry exhaustion, 100% reply loss", || {
                let dead = FaultProfile {
                    rpc_reply_drop: 1.0,
                    ..FaultProfile::off()
                };
                let (sim, kernels) =
                    tnt_os::boot_cluster_with_faults(&[Os::FreeBsd, Os::SunOs], PROFILE_SEED, dead);
                let client_k = kernels[0].clone();
                let server_k = kernels[1].clone();
                let net = tnt_net::Net::ethernet_10mbit();
                let client_host = net.register_host(&client_k);
                let server_host = net.register_host(&server_k);
                let server_fs = tnt_fs::SimFs::fresh_for_os(Os::SunOs);
                server_k.mount(server_fs.clone());
                let server = tnt_nfs::serve(
                    &net,
                    &server_k,
                    server_host,
                    server_fs,
                    tnt_nfs::NfsServerConfig::for_os(Os::SunOs),
                )
                .expect("nfsd start");
                let mount = tnt_nfs::NfsClient::mount(&net, &client_k, client_host, server.addr())
                    .expect("mount");
                client_k.mount(mount);
                client_k.spawn_user("stat-timeout", |p| async move {
                    // The stat drives the mount's first RPC; with every
                    // reply lost it must come back ETIMEDOUT.
                    let _ = p.stat("/").await;
                    p.sim().stop();
                });
                // The traced session records the sample; the final clock is not needed.
                let _ = sim.run().expect("timeout sim failed");
            }));
        }
        _ => return None,
    }
    Some(out)
}

fn slug(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() {
                c.to_ascii_lowercase()
            } else {
                '-'
            }
        })
        .collect()
}

/// Profiles experiment `id` and renders the result: breakdown tables for
/// printing plus `.folded` flame-graph exports.
pub fn profile_one(id: &str, scale: &Scale) -> Option<ProfileOutput> {
    let samples = profile_experiment(id, scale)?;
    let mut text = String::new();
    let mut files = Vec::new();
    for s in &samples {
        text.push_str(&s.report.render(&s.label));
        let folded = s.report.folded_text();
        if !folded.is_empty() {
            files.push((format!("{id}_{}.folded", slug(&s.label)), folded));
        }
    }
    Some(ProfileOutput {
        id: id.to_string(),
        text,
        files,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_sim::trace::{Class, Counter};

    #[test]
    fn t2_profile_attributes_trap_time() {
        let samples = profile_experiment("t2", &Scale::smoke()).unwrap();
        assert_eq!(samples.len(), 3);
        for s in &samples {
            assert!(s.report.sims > 0, "{}: no sims published", s.label);
            assert!(
                s.report.class_total(Class::TrapEntry) > 0,
                "{}: getpid must spend cycles in trap entry",
                s.label
            );
            assert!(s.report.counter(Counter::Syscalls) > 0);
            assert!(
                s.report.coverage() > 0.9,
                "{}: coverage {:.3}",
                s.label,
                s.report.coverage()
            );
        }
    }

    #[test]
    fn mem_profile_is_counters_only() {
        let samples = profile_experiment("f2", &Scale::smoke()).unwrap();
        let r = &samples[0].report;
        assert_eq!(r.sims, 0, "bandwidth loops boot no sim");
        assert!(r.counter(Counter::L1Misses) > 0);
        assert!(r.counter(Counter::MemStallCycles) > 0);
    }

    #[test]
    fn profile_one_renders_and_exports() {
        let out = profile_one("t4", &Scale::smoke()).unwrap();
        assert!(out.text.contains("profile: Linux"), "{}", out.text);
        assert!(out.text.contains("data copy"), "{}", out.text);
        assert!(!out.files.is_empty());
        assert!(out.files.iter().all(|(name, _)| name.ends_with(".folded")));
    }

    #[test]
    fn x8_profile_surfaces_the_fault_counters() {
        let samples = profile_experiment("x8", &Scale::smoke()).unwrap();
        assert_eq!(samples.len(), 2);
        let lossy = &samples[0].report;
        assert!(
            lossy.counter(Counter::RpcRetransmits) > 0,
            "5% loss must force retransmissions"
        );
        let dead = &samples[1].report;
        assert!(
            dead.counter(Counter::RpcMajorTimeouts) > 0,
            "total reply loss must exhaust the retries"
        );
        // The rendered block only prints non-zero counters, so the
        // major-timeout line must survive into --profile output.
        let text = dead.render("retry exhaustion, 100% reply loss");
        assert!(
            text.contains("rpc major timeouts") || text.contains("RpcMajorTimeouts"),
            "major timeouts missing from render:\n{text}"
        );
    }

    #[test]
    fn unknown_or_static_ids_yield_no_profile() {
        assert!(profile_one("t1", &Scale::smoke()).is_none());
        assert!(profile_one("zzz", &Scale::smoke()).is_none());
    }

    #[test]
    fn profile_ids_all_resolve() {
        // Every advertised id must produce samples (cheap check on the
        // dispatch only: smoke scale keeps this a few seconds).
        for id in ["t2", "f2", "f12"] {
            assert!(profile_ids().contains(&id));
            assert!(profile_experiment(id, &Scale::smoke()).is_some());
        }
    }
}
