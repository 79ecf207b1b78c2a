//! SCSI disk models for the two drives of `tnt.stanford.edu`.
//!
//! The paper's only direct disk measurement is that a random 8 KB
//! read-modify-write converges to 14 ms (Figure 11), so the seek curve,
//! rotation and media rate below are calibrated to produce ~14 ms random
//! 8 KB I/O on the HP 3725 benchmark disk. Addresses are in 1 KB blocks.

use parking_lot::Mutex;

use tnt_os::{Errno, KEnv, SysResult};
use tnt_sim::trace::{Class, Counter};
use tnt_sim::Cycles;

/// Transparent retries the driver performs on a transient command fault
/// before surfacing `EIO` to the filesystem (the classic `sd` retry
/// budget). Each retry re-pays the full mechanical service time.
/// Public so the trace replayer (`tnt-harness`) can mirror the driver's
/// retry behaviour when it drives [`Disk::command`] directly.
pub const DISK_RETRIES: u32 = 2;

/// Mechanical and transfer parameters of a drive.
#[derive(Clone, Copy, Debug)]
pub struct DiskParams {
    /// Spindle speed.
    pub rpm: u32,
    /// Single-track (minimum) seek, milliseconds.
    pub min_seek_ms: f64,
    /// Average (third-stroke) seek, milliseconds.
    pub avg_seek_ms: f64,
    /// Full-stroke seek, milliseconds.
    pub max_seek_ms: f64,
    /// Sustained media transfer rate, MB/s.
    pub media_mb_s: f64,
    /// Fixed per-command overhead (controller + SCSI bus), milliseconds.
    pub overhead_ms: f64,
    /// Capacity in 1 KB blocks.
    pub total_blocks: u64,
}

impl DiskParams {
    /// The HP 3725 used as the dedicated benchmark disk.
    pub fn hp3725() -> DiskParams {
        DiskParams {
            rpm: 4500,
            min_seek_ms: 2.5,
            avg_seek_ms: 7.5,
            max_seek_ms: 17.0,
            media_mb_s: 3.5,
            overhead_ms: 1.0,
            total_blocks: 2 * 1024 * 1024, // 2 GB
        }
    }

    /// The Quantum Empire 2100S holding the operating systems.
    pub fn quantum2100() -> DiskParams {
        DiskParams {
            rpm: 5400,
            min_seek_ms: 1.5,
            avg_seek_ms: 9.5,
            max_seek_ms: 19.0,
            media_mb_s: 3.5,
            overhead_ms: 0.7,
            total_blocks: 2 * 1024 * 1024,
        }
    }

    /// Duration of one platter revolution.
    pub fn rotation(&self) -> Cycles {
        Cycles::from_millis(60_000.0 / self.rpm as f64)
    }
}

struct DiskState {
    head: u64,
    reads: u64,
    writes: u64,
    blocks_moved: u64,
    /// Total mechanical service time of every command issued, remap
    /// spikes included — the drive's busy time. Capture-vs-replay
    /// equality is asserted on this total.
    busy: Cycles,
    /// Transient command faults absorbed by driver retries.
    faults: u64,
    /// Sector-remap latency spikes paid.
    remaps: u64,
}

/// A disk drive: computes service times from head movement and transfer
/// size, and remembers head position across requests.
pub struct Disk {
    params: DiskParams,
    state: Mutex<DiskState>,
}

/// Kind of transfer.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IoKind {
    /// Read from media.
    Read,
    /// Write to media.
    Write,
}

impl Disk {
    /// A drive with the head parked at block 0.
    pub fn new(params: DiskParams) -> Disk {
        Disk {
            params,
            state: Mutex::new(DiskState {
                head: 0,
                reads: 0,
                writes: 0,
                blocks_moved: 0,
                busy: Cycles::ZERO,
                faults: 0,
                remaps: 0,
            }),
        }
    }

    /// The drive's parameters.
    pub fn params(&self) -> DiskParams {
        self.params
    }

    /// (reads, writes, blocks transferred) so far — for tests and reports.
    pub fn stats(&self) -> (u64, u64, u64) {
        let st = self.state.lock();
        (st.reads, st.writes, st.blocks_moved)
    }

    /// (transient faults retried, sector remaps paid) so far — nonzero
    /// only when the fault plane is injecting.
    pub fn fault_stats(&self) -> (u64, u64) {
        let st = self.state.lock();
        (st.faults, st.remaps)
    }

    /// Total mechanical service time of every command issued so far
    /// (remap spikes included). A deterministic function of the command
    /// sequence alone, so a faithful replay of a capture reproduces it
    /// exactly — the equality experiments x11/x12 assert.
    pub fn busy_cycles(&self) -> Cycles {
        self.state.lock().busy
    }

    /// Seek time for a head movement of `dist` blocks, using the classic
    /// square-root seek curve anchored at (1, min), (total/3, avg).
    pub fn seek_time(&self, dist: u64) -> Cycles {
        if dist == 0 {
            return Cycles::ZERO;
        }
        let p = &self.params;
        let third = p.total_blocks as f64 / 3.0;
        let b = (p.avg_seek_ms - p.min_seek_ms) / third.sqrt();
        let ms = (p.min_seek_ms + b * (dist as f64).sqrt()).min(p.max_seek_ms);
        Cycles::from_millis(ms)
    }

    /// The three mechanical phases of a request — (command overhead +
    /// seek, rotational delay, media transfer) — without performing it.
    /// Their sum is exactly [`Disk::service_time`].
    pub fn service_phases(&self, from: u64, addr: u64, blocks: u64) -> [Cycles; 3] {
        let p = &self.params;
        let dist = from.abs_diff(addr);
        let seek = Cycles::from_millis(p.overhead_ms) + self.seek_time(dist);
        // A sequential continuation skips the seek but the controller
        // still loses part of a revolution between commands; a random
        // access waits half a revolution on average.
        let rot = if dist == 0 {
            self.params.rotation().scale(0.4)
        } else {
            self.params.rotation().scale(0.5)
        };
        let xfer = Cycles::from_millis(blocks as f64 / 1024.0 / p.media_mb_s * 1_000.0);
        [seek, rot, xfer]
    }

    /// Pure service time of a request, without performing it.
    pub fn service_time(&self, from: u64, addr: u64, blocks: u64) -> Cycles {
        let [seek, rot, xfer] = self.service_phases(from, addr, blocks);
        seek + rot + xfer
    }

    /// Performs a synchronous transfer of `blocks` 1 KB blocks starting at
    /// `addr`: the calling simulated process sleeps for the service time,
    /// phase by phase so the profiler sees where the milliseconds go.
    ///
    /// Under fault injection a command may hit a sector remap (the
    /// service succeeds after extra arm travel plus a lost revolution) or
    /// fail transiently; the driver retries a failed command up to
    /// [`DISK_RETRIES`] times — each retry re-pays full service time —
    /// and surfaces `EIO` only when the budget is spent. With faults off
    /// this is infallible and byte-identical to the faultless model.
    pub async fn io(&self, env: &KEnv, kind: IoKind, addr: u64, blocks: u64) -> SysResult<()> {
        for _attempt in 0..=DISK_RETRIES {
            let phases = self.issue(env, kind, addr, blocks);
            for (class, t) in [Class::DiskSeek, Class::DiskRotation, Class::DiskMedia]
                .into_iter()
                .zip(phases)
            {
                if t > Cycles::ZERO {
                    let _s = env.sim.span(class);
                    env.sim.sleep(t).await;
                }
            }
            if !env.sim.faults().disk_transient() {
                return Ok(());
            }
            // The command failed after the mechanical work; count it and
            // let the retry loop re-issue.
            self.state.lock().faults += 1;
            env.sim.count(Counter::DiskFaults, 1);
        }
        Err(Errno::EIO)
    }

    /// Issues one command **without sleeping**: counts it, captures it
    /// to the workload recorder, moves the head, pays the remap roll,
    /// and returns the mechanical phases plus whether the command
    /// completed (one transient-fault roll, as in [`Disk::io`]). The
    /// caller owes the drive the phase sum of simulated time — the
    /// trace replayer pays it by *returning* `Step::Block` from a lite
    /// process's `poll`, which cannot await [`Disk::io`].
    ///
    /// Statistics ([`Disk::stats`], [`Disk::busy_cycles`],
    /// [`Disk::fault_stats`]) advance exactly as for one [`Disk::io`]
    /// attempt, so a faithful replay of a recorded command sequence
    /// reproduces the recorded totals. The only behavioural difference
    /// from `io` is fault-roll *timing*: `io` rolls the transient fault
    /// after the mechanical sleep, `command` rolls it at issue — both
    /// sides of a capture/replay pair see the same per-command
    /// distributions either way.
    pub fn command(&self, env: &KEnv, kind: IoKind, addr: u64, blocks: u64) -> ([Cycles; 3], bool) {
        let phases = self.issue(env, kind, addr, blocks);
        let ok = !env.sim.faults().disk_transient();
        if !ok {
            self.state.lock().faults += 1;
            env.sim.count(Counter::DiskFaults, 1);
        }
        (phases, ok)
    }

    /// The shared front half of [`Disk::io`] and [`Disk::command`]:
    /// everything a command does besides occupying simulated time and
    /// rolling its transient fault.
    fn issue(&self, env: &KEnv, kind: IoKind, addr: u64, blocks: u64) -> [Cycles; 3] {
        let counter = match kind {
            IoKind::Read => Counter::DiskReads,
            IoKind::Write => Counter::DiskWrites,
        };
        // Each attempt is a command the bus carried, so each counts —
        // and each is what the workload recorder captures: replaying
        // the capture re-issues exactly the commands the bus saw.
        env.sim.count(counter, 1);
        env.sim.record_block(kind == IoKind::Write, addr, blocks);
        // The remap roll draws from the fault plan alone, so rolling it
        // first lets the drive's state take one lock per command.
        let remap = env.sim.faults().disk_remap();
        if remap {
            env.sim.count(Counter::DiskRemaps, 1);
        }
        let mut st = self.state.lock();
        let mut phases = self.service_phases(st.head, addr, blocks);
        st.head = addr + blocks;
        match kind {
            IoKind::Read => st.reads += 1,
            IoKind::Write => st.writes += 1,
        }
        st.blocks_moved += blocks;
        if remap {
            // The drive transparently revectors the sector: extra arm
            // travel to the spare cylinder plus one lost revolution,
            // charged to the seek phase where an observer's timing
            // would see it.
            st.remaps += 1;
            phases[0] =
                phases[0] + self.seek_time(self.params.total_blocks) + self.params.rotation();
        }
        st.busy = st.busy + phases[0] + phases[1] + phases[2];
        phases
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::{boot, Os};

    #[test]
    fn random_8k_io_near_14ms() {
        // Figure 11: the systems converge to ~14 ms per random 8 KB I/O.
        // Bonnie seeks within its (up to 100 MB) file, so the relevant
        // distance is intra-file, not full-disk.
        let d = Disk::new(DiskParams::hp3725());
        let file_blocks = 100 * 1024; // 100 MB in 1 KB blocks
        let t = d.service_time(0, file_blocks / 2, 8);
        let ms = t.as_millis();
        assert!(
            (ms - 14.0).abs() < 2.0,
            "random-in-file 8KB ~14ms, got {ms}"
        );
        // A full third-stroke seek is dearer.
        let far = d.service_time(0, DiskParams::hp3725().total_blocks / 3, 8);
        assert!(far.as_millis() > ms);
    }

    #[test]
    fn sequential_io_is_much_cheaper() {
        let d = Disk::new(DiskParams::hp3725());
        // For small transfers the seek+rotation dominates.
        let seq8 = d.service_time(1000, 1000, 8);
        let rand8 = d.service_time(0, 700_000, 8);
        assert!(seq8.as_millis() < rand8.as_millis() / 2.0);
        let seq = d.service_time(1000, 1000, 64);
        // 64 KB at 3.5 MB/s is ~18.3 ms of transfer plus overhead and the
        // inter-command rotational loss.
        assert!(
            (seq.as_millis() - 24.6).abs() < 1.0,
            "got {}",
            seq.as_millis()
        );
    }

    #[test]
    fn seek_curve_monotone_and_bounded() {
        let d = Disk::new(DiskParams::hp3725());
        let mut last = Cycles::ZERO;
        for dist in [0u64, 1, 100, 10_000, 1_000_000, 2_000_000] {
            let t = d.seek_time(dist);
            assert!(t >= last, "seek time must not decrease with distance");
            assert!(t <= Cycles::from_millis(16.0), "capped at full stroke");
            last = t;
        }
        assert_eq!(d.seek_time(0), Cycles::ZERO);
    }

    #[test]
    fn io_advances_clock_and_head() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let disk = std::sync::Arc::new(Disk::new(DiskParams::hp3725()));
        let d2 = disk.clone();
        let env = kernel.env().clone();
        kernel.spawn_user("io", move |_| async move {
            d2.io(&env, IoKind::Read, 500_000, 8).await.unwrap();
            d2.io(&env, IoKind::Read, 500_008, 8).await.unwrap(); // sequential: cheap
        });
        let elapsed = sim.run().unwrap();
        let (reads, writes, blocks) = disk.stats();
        assert_eq!((reads, writes, blocks), (2, 0, 16));
        let ms = elapsed.as_millis();
        assert!(
            ms > 15.0 && ms < 32.0,
            "one random + one sequential, got {ms}ms"
        );
    }

    #[test]
    fn rotation_from_rpm() {
        let p = DiskParams::hp3725();
        assert!((p.rotation().as_millis() - 13.33).abs() < 0.02);
    }

    fn boot_faulty(profile: tnt_sim::fault::FaultProfile) -> (tnt_sim::Sim, tnt_os::Kernel) {
        let (sim, kernels) = tnt_os::boot_cluster_with_faults(&[Os::Linux], 0, profile);
        (sim, kernels[0].clone())
    }

    #[test]
    fn transient_faults_exhaust_the_retry_budget_to_eio() {
        use tnt_sim::fault::FaultProfile;
        let (sim, kernel) = boot_faulty(FaultProfile {
            disk_transient: 1.0,
            ..FaultProfile::off()
        });
        let disk = std::sync::Arc::new(Disk::new(DiskParams::hp3725()));
        let d2 = disk.clone();
        let env = kernel.env().clone();
        kernel.spawn_user("io", move |_| async move {
            assert_eq!(
                d2.io(&env, IoKind::Write, 0, 8).await.err(),
                Some(Errno::EIO)
            );
        });
        let elapsed = sim.run().unwrap();
        let (faults, _) = disk.fault_stats();
        // Initial command + DISK_RETRIES retries, every one a fault, and
        // every one paid full mechanical service time.
        assert_eq!(faults, 1 + DISK_RETRIES as u64);
        let (_, writes, _) = disk.stats();
        assert_eq!(writes, 1 + DISK_RETRIES as u64);
        let one = Disk::new(DiskParams::hp3725()).service_time(0, 0, 8);
        assert!(
            elapsed.as_millis() >= one.as_millis() * (1 + DISK_RETRIES) as f64,
            "each retry re-pays service time: {}ms",
            elapsed.as_millis()
        );
    }

    #[test]
    fn remaps_cost_time_but_the_command_succeeds() {
        use tnt_sim::fault::FaultProfile;
        let run = |profile: FaultProfile| {
            let (sim, kernel) = boot_faulty(profile);
            let disk = std::sync::Arc::new(Disk::new(DiskParams::hp3725()));
            let d2 = disk.clone();
            let env = kernel.env().clone();
            kernel.spawn_user("io", move |_| async move {
                d2.io(&env, IoKind::Read, 1000, 8).await.unwrap();
            });
            (sim.run().unwrap(), disk.fault_stats())
        };
        let (clean, (f0, r0)) = run(FaultProfile::off());
        assert_eq!((f0, r0), (0, 0));
        let (remapped, (f1, r1)) = run(FaultProfile {
            disk_remap: 1.0,
            ..FaultProfile::off()
        });
        assert_eq!((f1, r1), (0, 1), "one remap, no transient faults");
        // The revector pays a full-stroke seek plus a lost revolution.
        assert!(
            remapped.as_millis() > clean.as_millis() + 20.0,
            "remap spike visible: {} vs {}ms",
            remapped.as_millis(),
            clean.as_millis()
        );
    }
}
