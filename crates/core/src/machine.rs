//! Helpers for booting benchmark machines and extracting results.

use std::future::Future;
use std::sync::Arc;

use parking_lot::Mutex;

use tnt_fs::{Disk, DiskParams, FsParams, SimFs};
use tnt_os::{boot, boot_with, Kernel, Os, OsCosts, UProc};
use tnt_sim::{Cycles, Sim};

/// Runs the future `f` returns as the sole user process on a freshly
/// booted `os` machine and returns its result. The machine has no
/// filesystem mounted. The benchmark and every child it forks run as
/// engine tasks, so passing the baton between them costs no host thread
/// switch.
pub fn run_bare<T, F, Fut>(os: Os, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    run_bare_with(OsCosts::for_os(os), seed, f)
}

/// [`run_bare`] with an explicit cost table (Section 13 projections
/// and ablations).
pub fn run_bare_with<T, F, Fut>(costs: OsCosts, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    let (sim, kernel) = boot_with(costs, seed);
    finish(sim, kernel, f)
}

/// Like [`run_bare`] but with a fresh per-OS filesystem mounted (the
/// paper's re-made benchmark partition on the HP 3725).
pub fn run_with_fs<T, F, Fut>(os: Os, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    let (sim, kernel) = boot(os, seed);
    kernel.mount(SimFs::fresh_for_os(os));
    finish(sim, kernel, f)
}

/// Full custom machine: explicit kernel costs and filesystem personality
/// on a fresh HP 3725.
pub fn run_custom<T, F, Fut>(costs: OsCosts, fs: FsParams, seed: u64, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    let (sim, kernel) = boot_with(costs, seed);
    let disk = Arc::new(Disk::new(DiskParams::hp3725()));
    kernel.mount(SimFs::new(disk, fs));
    finish(sim, kernel, f)
}

/// Spawns `f` as the benchmark process, runs the simulation and returns
/// the benchmark's result.
fn finish<T, F, Fut>(sim: Sim, kernel: Kernel, f: F) -> T
where
    T: Send + 'static,
    F: FnOnce(UProc) -> Fut + Send + 'static,
    Fut: Future<Output = T> + Send + 'static,
{
    let slot = ResultSlot::new();
    let s2 = slot.clone();
    kernel.spawn_user("bench", move |p| async move { s2.put(f(p).await) });
    // The benchmark times its own interval; the final clock is not needed.
    let _ = sim.run().expect("benchmark simulation failed");
    slot.take().expect("benchmark did not produce a result")
}

/// A shared result slot for benchmarks whose measurement lives in a
/// forked process.
pub struct ResultSlot<T>(Arc<Mutex<Option<T>>>);

impl<T> ResultSlot<T> {
    /// An empty slot.
    pub fn new() -> ResultSlot<T> {
        ResultSlot(Arc::new(Mutex::new(None)))
    }

    /// Stores a value.
    pub fn put(&self, v: T) {
        *self.0.lock() = Some(v);
    }

    /// Takes the value out.
    pub fn take(&self) -> Option<T> {
        self.0.lock().take()
    }
}

impl<T> Default for ResultSlot<T> {
    fn default() -> Self {
        ResultSlot::new()
    }
}

impl<T> Clone for ResultSlot<T> {
    fn clone(&self) -> Self {
        ResultSlot(self.0.clone())
    }
}

/// Measures the simulated duration of `f` within a process.
pub async fn timed<T>(p: &UProc, f: impl Future<Output = T>) -> (T, Cycles) {
    let t0 = p.sim().now();
    let r = f.await;
    (r, p.sim().now() - t0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_bare_returns_result() {
        let pid = run_bare(Os::Linux, 0, |p| async move { p.getpid() });
        assert!(pid > 0);
    }

    #[test]
    fn run_with_fs_can_do_file_io() {
        let size = run_with_fs(Os::FreeBsd, 0, |p| async move {
            let fd = p.creat("/x").await.unwrap();
            p.write(fd, 123).await.unwrap();
            p.close(fd).await.unwrap();
            p.stat("/x").await.unwrap().size
        });
        assert_eq!(size, 123);
    }

    #[test]
    fn timed_measures_simulated_cycles() {
        // `compute` charges through the per-run jitter factor, so the
        // measured duration is within a few percent of the request.
        let d = run_bare(Os::Linux, 0, |p| async move {
            let (_, d) = timed(&p, async { p.compute(Cycles(5_000)) }).await;
            d
        });
        let err = (d.0 as f64 - 5_000.0).abs() / 5_000.0;
        assert!(err < 0.05, "5000 cycles +- jitter, got {d:?}");
    }
}
