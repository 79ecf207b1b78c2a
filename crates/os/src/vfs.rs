//! The VFS boundary between the kernel and a mounted filesystem model.
//!
//! `tnt-fs` implements [`Filesystem`] twice (the asynchronous-metadata
//! ext2 model and the synchronous-metadata FFS model); the kernel only
//! sees this trait. Paths are absolute, `/`-separated, and already
//! resolved relative to the mount point.

use std::future::Future;
use std::pin::Pin;

use crate::costs::OsCosts;
use crate::errno::SysResult;
use tnt_sim::Sim;

/// Kernel execution environment handed to filesystem and network models:
/// the simulation (for charging time and blocking) and the owning
/// machine's cost table.
#[derive(Clone)]
pub struct KEnv {
    /// The simulation engine.
    pub sim: Sim,
    /// Cost personality of the machine this code runs on.
    pub costs: OsCosts,
}

/// Identifier of a file or directory within one mounted filesystem.
pub type VnodeId = u64;

/// Attributes returned by `stat`-family calls.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileAttr {
    /// The vnode this describes.
    pub vnode: VnodeId,
    /// Size in bytes (0 for directories in this model).
    pub size: u64,
    /// Whether this is a directory.
    pub is_dir: bool,
    /// Link count.
    pub nlink: u32,
}

/// `open(2)` flags (the subset the benchmarks use).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpenFlags {
    /// Open for reading.
    pub read: bool,
    /// Open for writing.
    pub write: bool,
    /// Create if absent.
    pub create: bool,
    /// Truncate to zero length.
    pub truncate: bool,
    /// Fail if `create` and the file exists.
    pub exclusive: bool,
}

impl OpenFlags {
    /// `O_RDONLY`.
    pub fn rdonly() -> OpenFlags {
        OpenFlags {
            read: true,
            ..OpenFlags::default()
        }
    }

    /// `O_WRONLY | O_CREAT | O_TRUNC` — the `creat(2)` combination.
    pub fn creat() -> OpenFlags {
        OpenFlags {
            write: true,
            create: true,
            truncate: true,
            ..OpenFlags::default()
        }
    }

    /// `O_RDWR`.
    pub fn rdwr() -> OpenFlags {
        OpenFlags {
            read: true,
            write: true,
            ..OpenFlags::default()
        }
    }
}

/// The future a [`Filesystem`] method returns. Boxed, because the
/// kernel holds filesystems as trait objects.
pub type FsFuture<'a, T> = Pin<Box<dyn Future<Output = T> + Send + 'a>>;

/// A mounted filesystem as seen by the kernel.
///
/// Methods may block the calling simulated process (disk I/O, RPCs) and
/// must charge their CPU and device time through `env`. Implementations
/// model file *sizes*, not contents — the benchmarks only move byte
/// counts.
pub trait Filesystem: Send + Sync {
    /// Resolves a path to a vnode.
    fn lookup<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<VnodeId>>;

    /// Opens (optionally creating/truncating) a file; returns its vnode.
    fn open<'a>(
        &'a self,
        env: &'a KEnv,
        path: &'a str,
        flags: OpenFlags,
    ) -> FsFuture<'a, SysResult<VnodeId>>;

    /// Reads `len` bytes at `off`; returns bytes actually read (short at
    /// end of file).
    fn read<'a>(
        &'a self,
        env: &'a KEnv,
        vnode: VnodeId,
        off: u64,
        len: u64,
    ) -> FsFuture<'a, SysResult<u64>>;

    /// Writes `len` bytes at `off`; returns bytes written.
    fn write<'a>(
        &'a self,
        env: &'a KEnv,
        vnode: VnodeId,
        off: u64,
        len: u64,
    ) -> FsFuture<'a, SysResult<u64>>;

    /// Attributes of a vnode.
    fn getattr<'a>(&'a self, env: &'a KEnv, vnode: VnodeId) -> FsFuture<'a, SysResult<FileAttr>>;

    /// Removes a file (not a directory).
    fn unlink<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>>;

    /// Creates a directory.
    fn mkdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>>;

    /// Removes an empty directory.
    fn rmdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<()>>;

    /// Lists the names in a directory.
    fn readdir<'a>(&'a self, env: &'a KEnv, path: &'a str) -> FsFuture<'a, SysResult<Vec<String>>>;

    /// Flushes a file's dirty data and metadata to disk.
    fn fsync<'a>(&'a self, env: &'a KEnv, vnode: VnodeId) -> FsFuture<'a, SysResult<()>>;

    /// Flushes everything (called between benchmark phases, like the
    /// paper's fresh-filesystem discipline).
    fn sync<'a>(&'a self, env: &'a KEnv) -> FsFuture<'a, ()>;

    /// Called when the last descriptor for `vnode` closes. Default: no
    /// work (the NFS client uses it for close-to-open consistency).
    fn release<'a>(&'a self, env: &'a KEnv, vnode: VnodeId) -> FsFuture<'a, ()> {
        let _ = (env, vnode);
        Box::pin(async {})
    }

    /// Renames `from` to `to` (within this filesystem). An existing
    /// non-directory target is replaced, as POSIX requires.
    fn rename<'a>(
        &'a self,
        env: &'a KEnv,
        from: &'a str,
        to: &'a str,
    ) -> FsFuture<'a, SysResult<()>> {
        let _ = (env, from, to);
        Box::pin(async { Err(crate::errno::Errno::ENOSYS) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_constructors() {
        let c = OpenFlags::creat();
        assert!(c.write && c.create && c.truncate && !c.read && !c.exclusive);
        assert!(OpenFlags::rdonly().read);
        let rw = OpenFlags::rdwr();
        assert!(rw.read && rw.write && !rw.create);
    }
}
