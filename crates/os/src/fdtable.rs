//! Per-process file descriptor tables and open-file objects.
//!
//! As in UNIX, `dup` and `fork` share one open-file entry (and thus one
//! file offset); the entry is destroyed — closing pipe ends, etc. — when
//! its last descriptor reference goes away.

use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;

use crate::errno::{Errno, SysResult};
use crate::pipe::Pipe;
use crate::vfs::{Filesystem, OpenFlags, VnodeId};

/// A file descriptor number.
pub type Fd = u32;

/// What an open file refers to.
pub enum FileObj {
    /// Read end of a pipe.
    PipeRead(Arc<Pipe>),
    /// Write end of a pipe.
    PipeWrite(Arc<Pipe>),
    /// A file on a mounted filesystem.
    Vnode {
        /// The filesystem it lives on.
        fs: Arc<dyn Filesystem>,
        /// The file's vnode.
        vnode: VnodeId,
        /// Flags it was opened with.
        flags: OpenFlags,
    },
    /// `/dev/null`: reads see EOF, writes vanish.
    Null,
}

/// An open-file table entry: the object plus the shared offset.
pub struct File {
    /// What this file refers to.
    pub obj: FileObj,
    /// Relaxed is enough: only the process holding the engine's baton
    /// touches the offset, and the baton passes through the engine lock.
    offset: AtomicU64,
    refs: AtomicU32,
}

impl File {
    /// Wraps an object into a fresh entry with one reference.
    pub fn new(obj: FileObj) -> Arc<File> {
        Arc::new(File {
            obj,
            offset: AtomicU64::new(0),
            refs: AtomicU32::new(1),
        })
    }

    /// Current offset.
    pub fn offset(&self) -> u64 {
        self.offset.load(Ordering::Relaxed)
    }

    /// Sets the offset (lseek).
    pub fn set_offset(&self, off: u64) {
        self.offset.store(off, Ordering::Relaxed);
    }

    /// Adds a descriptor reference (dup/fork).
    pub fn add_ref(&self) {
        self.refs.fetch_add(1, Ordering::Relaxed);
    }

    /// Drops a descriptor reference; returns true when it was the last.
    pub fn drop_ref(&self) -> bool {
        self.refs.fetch_sub(1, Ordering::Relaxed) == 1
    }
}

/// A process's descriptor table. Descriptors are allocated lowest-first,
/// as UNIX requires. A forked table shares its parent's slots until
/// either side installs or removes a descriptor, so an N-process pipe
/// ring holds one copy of its descriptors, not N.
#[derive(Default)]
pub struct FdTable {
    slots: Arc<Vec<Option<Arc<File>>>>,
}

impl FdTable {
    /// An empty table.
    pub fn new() -> FdTable {
        FdTable::default()
    }

    /// Installs a file at the lowest free descriptor.
    pub fn install(&mut self, file: Arc<File>) -> Fd {
        let slots = Arc::make_mut(&mut self.slots);
        for (i, slot) in slots.iter_mut().enumerate() {
            if slot.is_none() {
                *slot = Some(file);
                return i as Fd;
            }
        }
        slots.push(Some(file));
        (slots.len() - 1) as Fd
    }

    /// Looks up a descriptor.
    pub fn get(&self, fd: Fd) -> SysResult<Arc<File>> {
        self.slots
            .get(fd as usize)
            .and_then(|s| s.clone())
            .ok_or(Errno::EBADF)
    }

    /// Removes a descriptor, returning its file.
    pub fn remove(&mut self, fd: Fd) -> SysResult<Arc<File>> {
        let file = self.get(fd)?;
        Arc::make_mut(&mut self.slots)[fd as usize] = None;
        Ok(file)
    }

    /// Takes every open file (process exit), in descriptor order.
    pub fn drain(&mut self) -> impl Iterator<Item = Arc<File>> {
        let slots = std::mem::take(&mut self.slots);
        (0..slots.len()).filter_map(move |i| slots[i].clone())
    }

    /// Clones the table for fork: entries are shared, references bumped.
    pub fn fork_clone(&self) -> FdTable {
        for file in self.slots.iter().flatten() {
            file.add_ref();
        }
        FdTable {
            slots: self.slots.clone(),
        }
    }

    /// Number of open descriptors.
    pub fn open_count(&self) -> usize {
        self.slots.iter().flatten().count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn null_file() -> Arc<File> {
        File::new(FileObj::Null)
    }

    #[test]
    fn lowest_fd_first() {
        let mut t = FdTable::new();
        assert_eq!(t.install(null_file()), 0);
        assert_eq!(t.install(null_file()), 1);
        assert_eq!(t.install(null_file()), 2);
        t.remove(1).unwrap();
        assert_eq!(t.install(null_file()), 1, "reuses the lowest hole");
        assert_eq!(t.install(null_file()), 3);
    }

    #[test]
    fn get_and_remove_errors() {
        let mut t = FdTable::new();
        assert_eq!(t.get(0).err(), Some(Errno::EBADF));
        assert_eq!(t.remove(5).err(), Some(Errno::EBADF));
        let fd = t.install(null_file());
        assert!(t.get(fd).is_ok());
        t.remove(fd).unwrap();
        assert_eq!(t.get(fd).err(), Some(Errno::EBADF));
    }

    #[test]
    fn fork_clone_shares_entries_and_offsets() {
        let mut t = FdTable::new();
        let fd = t.install(null_file());
        let child = t.fork_clone();
        let f1 = t.get(fd).unwrap();
        let f2 = child.get(fd).unwrap();
        f1.set_offset(42);
        assert_eq!(f2.offset(), 42, "offset is shared across fork");
        assert!(!f2.drop_ref(), "two references outstanding");
        assert!(f1.drop_ref(), "now the last one");
    }

    #[test]
    fn forked_tables_change_independently() {
        let mut parent = FdTable::new();
        let fd = parent.install(null_file());
        let mut child = parent.fork_clone();
        child.remove(fd).unwrap();
        assert!(parent.get(fd).is_ok(), "child close leaves the parent's fd");
        assert_eq!(parent.install(null_file()), 1);
        assert_eq!(child.open_count(), 0, "parent open leaves the child");
        assert_eq!(child.drain().count(), 0);
        assert_eq!(parent.drain().count(), 2);
    }

    #[test]
    fn drain_empties() {
        let mut t = FdTable::new();
        t.install(null_file());
        t.install(null_file());
        assert_eq!(t.drain().count(), 2);
        assert_eq!(t.open_count(), 0);
    }
}
