#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Kernel models of the three operating systems the paper compares.
//!
//! One [`Kernel`] is one machine running Linux 1.2.8, FreeBSD 2.0.5R,
//! Solaris 2.4, or (as an NFS server only) SunOS 4.1.4. The machine's
//! behaviour is the sum of:
//!
//! - a calibrated cost table ([`OsCosts`]) for traps, syscalls, fork/exec
//!   and pipes,
//! - its scheduler, installed as the simulation's run policy
//!   ([`sched`]: Linux's O(n) scan, FreeBSD's constant-time queues,
//!   Solaris's expensive dispatcher with the 32-entry table anomaly),
//! - a shared pipe implementation parameterised per OS, and
//! - whatever [`Filesystem`] the experiment mounts (see `tnt-fs`).
//!
//! Benchmarks are async Rust closures run as simulated processes (engine
//! tasks); they receive a [`UProc`] whose methods are the system calls,
//! async wherever a call can block.
//!
//! # Examples
//!
//! ```
//! use tnt_os::{boot, Os};
//!
//! let (sim, kernel) = boot(Os::Linux, 0);
//! kernel.spawn_user("bench", |p| async move {
//!     for _ in 0..1000 {
//!         p.getpid();
//!     }
//! });
//! let elapsed = sim.run().unwrap();
//! // Table 2: a Linux getpid takes ~2.31 microseconds.
//! assert!((elapsed.as_micros() / 1000.0 - 2.31).abs() < 0.25);
//! ```

mod costs;
mod errno;
mod fdtable;
pub mod future;
mod kernel;
mod pipe;
pub mod sched;
mod vfs;

pub use costs::{DispatchCosts, Os, OsCosts, PipeCosts};
pub use errno::{Errno, SysResult};
pub use fdtable::{Fd, FdTable, File, FileObj};
pub use kernel::{
    boot, boot_cluster, boot_cluster_with_faults, boot_with, Kernel, KernelStats, Pid, UProc,
};
pub use pipe::Pipe;
pub use vfs::{FileAttr, Filesystem, FsFuture, KEnv, OpenFlags, VnodeId};
