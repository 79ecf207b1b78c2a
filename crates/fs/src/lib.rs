#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Storage stack of the reproduction: disk models, the unified buffer
//! cache, and the three filesystem personalities of Section 7.
//!
//! The headline behaviours reproduced here:
//!
//! - ext2's *asynchronous* metadata updates make create/delete workloads
//!   an order of magnitude faster than the FFS family (Figure 12);
//! - the FFS family pays 2-4 synchronous far-seek metadata writes per
//!   create/delete (FreeBSD ~66 ms, Solaris ~34 ms per crtdel iteration);
//! - the unified buffer cache grows to ~20 MB of the 32 MB machine,
//!   producing the cliffs of Figures 9-11;
//! - per-OS read-ahead and write-clustering quality set the large-file
//!   orderings (Solaris best at cold reads, FreeBSD best below its dirty
//!   window, Linux's small blocks and fragmented allocator losing both).
//!
//! # Examples
//!
//! ```
//! use tnt_fs::SimFs;
//! use tnt_os::{boot, Os};
//!
//! let (sim, kernel) = boot(Os::Linux, 0);
//! kernel.mount(SimFs::fresh_for_os(Os::Linux));
//! kernel.spawn_user("hello-fs", |p| async move {
//!     let fd = p.creat("/hello").await.unwrap();
//!     p.write(fd, 4096).await.unwrap();
//!     p.close(fd).await.unwrap();
//!     assert_eq!(p.stat("/hello").await.unwrap().size, 4096);
//! });
//! sim.run().unwrap();
//! ```

mod bufcache;
mod disk;
mod fsimpl;
mod params;

pub use bufcache::{BufferCache, CacheParams};
pub use disk::{Disk, DiskParams, IoKind, DISK_RETRIES};
pub use fsimpl::{CrashReport, SimFs};
pub use params::FsParams;
