//! End-to-end assertions of every headline ordering the paper reports,
//! exercised through the full stack (engine → kernels → fs/net/nfs →
//! benchmark suite).

use tnt_core::{
    bonnie, crtdel_ms, ctx_us, mab_local, mab_over_nfs, mem_bandwidth, pipe_bandwidth_mbit,
    standard_buffer_sizes, syscall_us, tcp_bandwidth_mbit, udp_bandwidth_mbit, CtxPattern,
    LibcVariant, MemRoutine, TOTAL_TRAFFIC,
};
use tnt_os::Os;

const SEED: u64 = 3;

#[test]
fn table2_syscall_ordering() {
    let l = syscall_us(Os::Linux, 5_000, SEED);
    let f = syscall_us(Os::FreeBsd, 5_000, SEED);
    let s = syscall_us(Os::Solaris, 5_000, SEED);
    assert!(l < f && f < s, "Table 2: {l:.2} < {f:.2} < {s:.2}");
    // The Norm. column: Solaris at ~0.66 of Linux.
    assert!((l / s - 0.66).abs() < 0.06);
}

#[test]
fn figure1_contextswitch_story() {
    let switches = 600;
    // Linux wins small, loses big; FreeBSD flat; Solaris always worst.
    let l2 = ctx_us(Os::Linux, 2, switches, CtxPattern::Ring, SEED);
    let f2 = ctx_us(Os::FreeBsd, 2, switches, CtxPattern::Ring, SEED);
    let s2 = ctx_us(Os::Solaris, 2, switches, CtxPattern::Ring, SEED);
    assert!(l2 < f2 && f2 < s2);
    let l48 = ctx_us(Os::Linux, 48, switches, CtxPattern::Ring, SEED);
    let f48 = ctx_us(Os::FreeBsd, 48, switches, CtxPattern::Ring, SEED);
    assert!(
        l48 > f48,
        "Linux linear growth crosses FreeBSD: {l48:.0} vs {f48:.0}"
    );
    let s24 = ctx_us(Os::Solaris, 24, switches, CtxPattern::Ring, SEED);
    let s48 = ctx_us(Os::Solaris, 48, switches, CtxPattern::Ring, SEED);
    assert!(s48 > s24 + 40.0, "Solaris jumps past 32 processes");
}

/// Section 6 at the paper's scale: every curve of Figures 2-8, each
/// simulated once per buffer size of the sweep at 8 MB of traffic.
#[test]
fn section6_memory_story() {
    let sizes = standard_buffer_sizes();
    let curve = |routine| -> Vec<f64> {
        sizes
            .iter()
            .map(|&buf| mem_bandwidth(routine, buf, TOTAL_TRAFFIC, SEED))
            .collect()
    };
    let at = |bw: &[f64], buf: u64| bw[sizes.iter().position(|&s| s == buf).unwrap()];
    let peak = |bw: &[f64]| bw.iter().copied().fold(0.0, f64::max);
    let memsets = LibcVariant::all().map(|v| curve(MemRoutine::LibcMemset(v)));
    let memcpys = LibcVariant::all().map(|v| curve(MemRoutine::LibcMemcpy(v)));

    // Figure 2: the three read plateaus, L1, L2 and DRAM.
    let read = curve(MemRoutine::CustomRead);
    let (l1, l2, dram) = (at(&read, 4096), at(&read, 65536), at(&read, 2 << 20));
    assert!(l1 > 280.0, "L1 ~300+, got {l1:.1}");
    assert!((l2 - 110.0).abs() < 15.0, "L2 ~110, got {l2:.1}");
    assert!((dram - 75.0).abs() < 10.0, "DRAM ~75, got {dram:.1}");

    // Figures 3-4: no write without prefetching reaches 50 MB/s...
    let naive_write = curve(MemRoutine::CustomWriteNaive);
    for bw in memsets.iter().chain([&naive_write]) {
        assert!(peak(bw) < 50.0, "a write peaks at {:.1}", peak(bw));
    }
    // ...Figure 5: prefetching writes reach ~6x that...
    let write_pf = peak(&curve(MemRoutine::CustomWritePrefetch));
    assert!(write_pf > 250.0, "prefetch write peaks at {write_pf:.1}");
    // ...and Figure 8: prefetching copies ~160 MB/s.
    let copy_pf = peak(&curve(MemRoutine::CustomCopyPrefetch));
    assert!(
        copy_pf > 140.0 && copy_pf < 190.0,
        "prefetch copy peaks at {copy_pf:.1}"
    );

    // Figures 6-7: from 4 KB up, every libc memcpy runs within 2% of a
    // naive copy.
    let naive_copy = curve(MemRoutine::CustomCopyNaive);
    for (v, bw) in LibcVariant::all().iter().zip(&memcpys) {
        for (i, &buf) in sizes.iter().enumerate().filter(|&(_, &b)| b >= 4096) {
            let gap = (bw[i] / naive_copy[i] - 1.0).abs();
            assert!(gap < 0.02, "{v:?} memcpy at {buf}: {:.1}% off", gap * 100.0);
        }
    }

    // Figures 3 and 6: the libcs keep one order at every size.
    for (figure, [linux, freebsd, solaris]) in [("memset", &memsets), ("memcpy", &memcpys)] {
        for (i, &buf) in sizes.iter().enumerate() {
            assert!(
                linux[i] > freebsd[i] && freebsd[i] > solaris[i],
                "{figure} at {buf}: {:.3} > {:.3} > {:.3}",
                linux[i],
                freebsd[i],
                solaris[i]
            );
        }
    }
}

#[test]
fn section7_filesystem_story() {
    // crtdel: Linux no disk; Solaris ~half of FreeBSD.
    let l = crtdel_ms(Os::Linux, 1024, 5, SEED);
    let f = crtdel_ms(Os::FreeBsd, 1024, 5, SEED);
    let s = crtdel_ms(Os::Solaris, 1024, 5, SEED);
    assert!(l * 8.0 < s && s < f, "Figure 12: {l:.1} << {s:.1} < {f:.1}");

    // bonnie in cache: FreeBSD reads fastest; Linux writes worst.
    let bl = bonnie(Os::Linux, 4, 30, SEED);
    let bf = bonnie(Os::FreeBsd, 4, 30, SEED);
    let bs = bonnie(Os::Solaris, 4, 30, SEED);
    assert!(bf.read_mb_s > bl.read_mb_s && bf.read_mb_s > bs.read_mb_s);
    assert!(bl.write_mb_s < bf.write_mb_s / 2.0);
    assert!(bl.seeks_per_s > bf.seeks_per_s && bs.seeks_per_s > bf.seeks_per_s);
}

#[test]
fn section9_network_story() {
    // Pipes: Linux > FreeBSD > Solaris (Table 4).
    let pl = pipe_bandwidth_mbit(Os::Linux, 2 << 20, 64 * 1024, SEED);
    let pf = pipe_bandwidth_mbit(Os::FreeBsd, 2 << 20, 64 * 1024, SEED);
    let ps = pipe_bandwidth_mbit(Os::Solaris, 2 << 20, 64 * 1024, SEED);
    assert!(pl > pf && pf > ps, "Table 4: {pl:.0} > {pf:.0} > {ps:.0}");

    // UDP: FreeBSD > Solaris > Linux (Figure 13), inverted from pipes.
    let ul = udp_bandwidth_mbit(Os::Linux, 8192, 1 << 20, SEED);
    let uf = udp_bandwidth_mbit(Os::FreeBsd, 8192, 1 << 20, SEED);
    let us = udp_bandwidth_mbit(Os::Solaris, 8192, 1 << 20, SEED);
    assert!(uf > us && us > ul, "Figure 13: {uf:.0} > {us:.0} > {ul:.0}");

    // TCP: Linux crippled by its one-packet window (Table 5).
    let tl = tcp_bandwidth_mbit(Os::Linux, 1 << 20, 48 * 1024, SEED);
    let tf = tcp_bandwidth_mbit(Os::FreeBsd, 1 << 20, 48 * 1024, SEED);
    assert!(
        tl < tf * 0.55,
        "Table 5: Linux {tl:.0} far below FreeBSD {tf:.0}"
    );
}

#[test]
fn table3_mab_ordering() {
    let l = mab_local(Os::Linux, SEED).total_s;
    let f = mab_local(Os::FreeBsd, SEED).total_s;
    let s = mab_local(Os::Solaris, SEED).total_s;
    assert!(l < f && f < s, "Table 3: {l:.1} < {f:.1} < {s:.1}");
    // Despite the microbenchmark spreads, the totals are "much closer":
    // the worst system is within ~1.4x of the best.
    assert!(s / l < 1.45, "overall MAB spread is modest: {:.2}x", s / l);
}

#[test]
fn tables6_7_nfs_orderings() {
    // Against the async Linux server.
    let f6 = mab_over_nfs(Os::FreeBsd, Os::Linux, SEED).total_s;
    let l6 = mab_over_nfs(Os::Linux, Os::Linux, SEED).total_s;
    let s6 = mab_over_nfs(Os::Solaris, Os::Linux, SEED).total_s;
    assert!(f6 < l6 && l6 < s6, "Table 6: {f6:.1} < {l6:.1} < {s6:.1}");
    // Against the sync SunOS server everything slows, and the order
    // changes: Solaris overtakes Linux.
    let f7 = mab_over_nfs(Os::FreeBsd, Os::SunOs, SEED).total_s;
    let s7 = mab_over_nfs(Os::Solaris, Os::SunOs, SEED).total_s;
    let l7 = mab_over_nfs(Os::Linux, Os::SunOs, SEED).total_s;
    assert!(f7 < s7 && s7 < l7, "Table 7: {f7:.1} < {s7:.1} < {l7:.1}");
    assert!(
        f7 > f6 && s7 > s6 && l7 > l6,
        "sync server slower for every client"
    );
    assert!(l7 / f7 > 1.4, "the Linux client collapse: {:.2}x", l7 / f7);
}

#[test]
fn no_system_dominates() {
    // The Section 12 conclusion: each system wins somewhere.
    let linux_wins = syscall_us(Os::Linux, 2_000, SEED) < syscall_us(Os::FreeBsd, 2_000, SEED);
    let freebsd_wins = tcp_bandwidth_mbit(Os::FreeBsd, 512 * 1024, 48 * 1024, SEED)
        > tcp_bandwidth_mbit(Os::Linux, 512 * 1024, 48 * 1024, SEED);
    let solaris_wins =
        bonnie(Os::Solaris, 40, 10, SEED).read_mb_s > bonnie(Os::FreeBsd, 40, 10, SEED).read_mb_s;
    assert!(linux_wins, "Linux wins system calls");
    assert!(freebsd_wins, "FreeBSD wins networking");
    assert!(solaris_wins, "Solaris wins cold large-file reads");
}
