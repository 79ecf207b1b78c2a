//! The kernel object and the user-process syscall layer.
//!
//! One [`Kernel`] is one machine: a cost personality, a scheduler (wired
//! into the shared simulation as its run policy), a process table, and a
//! mounted root filesystem. Simulated user programs receive a [`UProc`]
//! handle whose methods are the system calls; every call charges the trap
//! and handler costs of the machine's [`OsCosts`] table before doing the
//! modelled work.

use std::future::Future;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use std::collections::BTreeMap;

use crate::costs::{Os, OsCosts};
use crate::errno::{Errno, SysResult};
use crate::fdtable::{Fd, FdTable, File, FileObj};
use crate::pipe::Pipe;
use crate::sched::ClusterPolicy;
use crate::vfs::{FileAttr, Filesystem, KEnv, OpenFlags};
use tnt_sim::trace::{Class, Counter, CounterSet};
use tnt_sim::{Cycles, Sim, SimConfig, Tid, WaitId};

/// Process identifier (same space as the engine's [`Tid`]).
pub type Pid = Tid;

struct ProcEntry {
    fds: FdTable,
    exited: bool,
    exit_q: WaitId,
}

/// Kernel event counters — the [Chen 95]-style accounting the paper's
/// Section 13 proposes as future work, available here because the kernel
/// is a simulation rather than a black box.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelStats {
    /// System calls entered (including `getpid`).
    pub syscalls: u64,
    /// `fork` calls.
    pub forks: u64,
    /// `exec` calls.
    pub execs: u64,
}

struct KernelInner {
    env: KEnv,
    tag: u32,
    tasks: Arc<AtomicUsize>,
    procs: Mutex<BTreeMap<Pid, ProcEntry>>,
    /// Per-machine counter bank (the simulation's tracer aggregates the
    /// same counters machine-wide; this one keeps `stats()` per kernel).
    counters: CounterSet,
    /// Mount table: (prefix, filesystem), longest prefix wins.
    mounts: Mutex<Vec<(String, Arc<dyn Filesystem>)>>,
}

/// One simulated machine's kernel. Cheap to clone.
#[derive(Clone)]
pub struct Kernel {
    inner: Arc<KernelInner>,
}

/// Boots a single machine running `os` and returns the simulation plus
/// its kernel. `seed` selects the run (the paper runs everything twenty
/// times with different conditions).
pub fn boot(os: Os, seed: u64) -> (Sim, Kernel) {
    boot_with(OsCosts::for_os(os), seed)
}

/// Boots a machine with an explicit cost table — used for the Section 13
/// "next release" projections and for ablation experiments. The fault
/// profile comes from the process-wide ambient setting (`reproduce
/// --faults`), off by default.
pub fn boot_with(costs: OsCosts, seed: u64) -> (Sim, Kernel) {
    let tasks = Arc::new(AtomicUsize::new(0));
    let sim = Sim::new(
        costs.make_policy(tasks.clone()),
        SimConfig {
            seed,
            jitter: costs.jitter,
            faults: tnt_sim::fault::ambient(),
        },
    );
    let kernel = Kernel::attach(&sim, costs, 0, tasks);
    (sim, kernel)
}

/// Boots several machines into one simulation (e.g. NFS client and
/// server). Machine `i` runs `oses[i]` and its processes must be spawned
/// through its own kernel. Jitter follows the first (client) machine.
/// Faults follow the ambient profile; use [`boot_cluster_with_faults`]
/// for an explicit one.
pub fn boot_cluster(oses: &[Os], seed: u64) -> (Sim, Vec<Kernel>) {
    boot_cluster_with_faults(oses, seed, tnt_sim::fault::ambient())
}

/// [`boot_cluster`] with an explicit fault profile, for degradation
/// sweeps that pin their own injection rates regardless of `--faults`.
pub fn boot_cluster_with_faults(
    oses: &[Os],
    seed: u64,
    faults: tnt_sim::fault::FaultProfile,
) -> (Sim, Vec<Kernel>) {
    assert!(!oses.is_empty());
    let costs: Vec<OsCosts> = oses.iter().map(|o| OsCosts::for_os(*o)).collect();
    let task_counters: Vec<Arc<AtomicUsize>> =
        oses.iter().map(|_| Arc::new(AtomicUsize::new(0))).collect();
    let policies = costs
        .iter()
        .zip(&task_counters)
        .map(|(c, t)| c.make_policy(t.clone()))
        .collect();
    let sim = Sim::new(
        Box::new(ClusterPolicy::new(policies)),
        SimConfig {
            seed,
            jitter: costs[0].jitter,
            faults,
        },
    );
    let kernels = costs
        .into_iter()
        .zip(task_counters)
        .enumerate()
        .map(|(i, (c, t))| Kernel::attach(&sim, c, i as u32, t))
        .collect();
    (sim, kernels)
}

impl Kernel {
    /// Attaches a kernel to an existing simulation. `tag` must match the
    /// machine's index in the simulation's (cluster) run policy.
    pub fn attach(sim: &Sim, costs: OsCosts, tag: u32, tasks: Arc<AtomicUsize>) -> Kernel {
        Kernel {
            inner: Arc::new(KernelInner {
                env: KEnv {
                    sim: sim.clone(),
                    costs,
                },
                tag,
                tasks,
                procs: Mutex::new(BTreeMap::new()),
                counters: CounterSet::new(),
                mounts: Mutex::new(Vec::new()),
            }),
        }
    }

    /// The machine's cost table.
    pub fn costs(&self) -> &OsCosts {
        &self.inner.env.costs
    }

    /// The kernel execution environment (for filesystem/network models).
    pub fn env(&self) -> &KEnv {
        &self.inner.env
    }

    /// The simulation this kernel lives in.
    pub fn sim(&self) -> &Sim {
        &self.inner.env.sim
    }

    /// Mounts `fs` as the root filesystem (replacing any previous root).
    pub fn mount(&self, fs: Arc<dyn Filesystem>) {
        self.mount_at("/", fs);
    }

    /// Mounts `fs` at `prefix` (e.g. `"/tmp"`). The longest matching
    /// prefix wins at lookup, and the prefix is stripped from paths the
    /// filesystem sees.
    pub fn mount_at(&self, prefix: &str, fs: Arc<dyn Filesystem>) {
        let prefix = if prefix == "/" {
            String::new()
        } else {
            prefix.trim_end_matches('/').to_string()
        };
        let mut mounts = self.inner.mounts.lock();
        mounts.retain(|(p, _)| *p != prefix);
        mounts.push((prefix, fs));
        // Longest prefix first.
        mounts.sort_by_key(|(p, _)| std::cmp::Reverse(p.len()));
    }

    /// The mounted root filesystem.
    pub fn root_fs(&self) -> SysResult<Arc<dyn Filesystem>> {
        let mounts = self.inner.mounts.lock();
        mounts
            .iter()
            .find(|(p, _)| p.is_empty())
            .map(|(_, fs)| fs.clone())
            .ok_or(Errno::ENOSYS)
    }

    /// Resolves `path` to its mounted filesystem and the path within it.
    pub fn fs_at(&self, path: &str) -> SysResult<(Arc<dyn Filesystem>, String)> {
        let mounts = self.inner.mounts.lock();
        for (prefix, fs) in mounts.iter() {
            if prefix.is_empty() {
                return Ok((fs.clone(), path.to_string()));
            }
            if let Some(rest) = path.strip_prefix(prefix.as_str()) {
                if rest.is_empty() {
                    return Ok((fs.clone(), "/".to_string()));
                }
                if rest.starts_with('/') {
                    return Ok((fs.clone(), rest.to_string()));
                }
            }
        }
        Err(Errno::ENOSYS)
    }

    /// Kernel event counters accumulated so far.
    pub fn stats(&self) -> KernelStats {
        KernelStats {
            syscalls: self.inner.counters.get(Counter::Syscalls),
            forks: self.inner.counters.get(Counter::Forks),
            execs: self.inner.counters.get(Counter::Execs),
        }
    }

    /// This machine's full counter bank (Chen-style event counts).
    pub fn counters(&self) -> &CounterSet {
        &self.inner.counters
    }

    fn count(&self, c: Counter) {
        self.inner.counters.add(c, 1);
        self.sim().count(c, 1);
    }

    /// Spawns the first process of a program (no fork cost charged; think
    /// of it as already running when the benchmark starts). The program
    /// is a future run as an engine task (see `Sim::spawn_task`).
    pub fn spawn_user<F, Fut>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(UProc) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        let exit_q = self.sim().new_queue();
        self.inner.tasks.fetch_add(1, Ordering::Relaxed);
        let kernel = self.clone();
        // The process entry must exist before the child can run; we create
        // it after spawning, guarded by the fact that the spawned process
        // cannot run until this (currently running) code blocks.
        let tid = self
            .sim()
            .spawn_task_tagged(name, self.inner.tag, move |s| async move {
                let pid = s.current();
                f(UProc {
                    kernel: kernel.clone(),
                    pid,
                })
                .await;
                kernel.on_proc_exit(pid).await;
            });
        self.inner.procs.lock().insert(
            tid,
            ProcEntry {
                fds: FdTable::new(),
                exited: false,
                exit_q,
            },
        );
        tid
    }

    async fn on_proc_exit(&self, pid: Pid) {
        let files = {
            let mut procs = self.inner.procs.lock();
            let entry = procs.get_mut(&pid).expect("exiting process has no entry");
            entry.exited = true;
            entry.fds.drain()
        };
        for file in files {
            self.release_file(file).await;
        }
        self.inner.tasks.fetch_sub(1, Ordering::Relaxed);
        let q = self.inner.procs.lock().get(&pid).map(|e| e.exit_q);
        if let Some(q) = q {
            self.sim().wakeup_all(q);
        }
    }

    async fn release_file(&self, file: Arc<File>) {
        if !file.drop_ref() {
            return;
        }
        match &file.obj {
            FileObj::PipeRead(p) => p.close_reader(self.sim()),
            FileObj::PipeWrite(p) => p.close_writer(self.sim()),
            FileObj::Vnode { fs, vnode, .. } => fs.release(self.env(), *vnode).await,
            FileObj::Null => {}
        }
    }

    fn with_proc<T>(&self, pid: Pid, f: impl FnOnce(&mut ProcEntry) -> T) -> T {
        let mut procs = self.inner.procs.lock();
        f(procs.get_mut(&pid).expect("no process entry"))
    }
}

/// A user process: the syscall interface the benchmarks program against.
/// Every call that can block is async.
pub struct UProc {
    kernel: Kernel,
    pid: Pid,
}

impl UProc {
    /// The owning kernel (machine).
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The simulation.
    pub fn sim(&self) -> &Sim {
        self.kernel.sim()
    }

    /// This process's pid.
    pub fn pid(&self) -> Pid {
        self.pid
    }

    fn env(&self) -> &KEnv {
        self.kernel.env()
    }

    fn charge_trap(&self) {
        self.kernel.count(Counter::Syscalls);
        let c = self.kernel.costs();
        let _t = self.sim().span(Class::TrapEntry);
        self.sim().charge(Cycles(c.trap_cy));
    }

    fn charge_syscall(&self) {
        self.kernel.count(Counter::Syscalls);
        let c = self.kernel.costs();
        let _t = self.sim().span(Class::TrapEntry);
        self.sim().charge(Cycles(c.trap_cy + c.syscall_overhead_cy));
    }

    /// Burns user-level CPU (`cycles` of computation).
    pub fn compute(&self, cycles: Cycles) {
        self.sim().charge(cycles);
    }

    /// `getpid(2)` — the Table 2 microbenchmark operation.
    pub fn getpid(&self) -> u32 {
        self.charge_trap();
        self.pid.0
    }

    /// `getrusage(2)`-style self CPU time: cycles this process has been
    /// charged, including its share of kernel work done on its behalf.
    pub fn rusage_self(&self) -> Cycles {
        self.charge_syscall();
        self.sim().proc_cpu(self.pid)
    }

    /// `fork(2)`, spawn-style: the child runs the future `f` returns,
    /// with its own [`UProc`] (see [`Kernel::spawn_user`]). The child
    /// inherits (shares) the parent's descriptor table entries.
    pub fn fork<F, Fut>(&self, name: impl Into<String>, f: F) -> Pid
    where
        F: FnOnce(UProc) -> Fut + Send + 'static,
        Fut: Future<Output = ()> + Send + 'static,
    {
        self.kernel.count(Counter::Syscalls);
        self.kernel.count(Counter::Forks);
        let c = self.kernel.costs();
        {
            let _t = self.sim().span(Class::TrapEntry);
            self.sim().charge(Cycles(c.trap_cy + c.fork_cy));
        }
        let child_fds = self.kernel.with_proc(self.pid, |e| e.fds.fork_clone());
        let pid = self.kernel.spawn_user(name, f);
        self.kernel.with_proc(pid, |e| e.fds = child_fds);
        pid
    }

    /// `execve(2)` cost model: charges image setup; the caller then runs
    /// the new program's code itself.
    pub fn exec(&self) {
        self.kernel.count(Counter::Syscalls);
        self.kernel.count(Counter::Execs);
        let c = self.kernel.costs();
        let _t = self.sim().span(Class::TrapEntry);
        self.sim().charge(Cycles(c.trap_cy + c.exec_cy));
    }

    /// `waitpid(2)`: blocks until the child exits.
    pub async fn waitpid(&self, child: Pid) {
        self.charge_syscall();
        loop {
            let (exited, q) = {
                let procs = self.kernel.inner.procs.lock();
                match procs.get(&child) {
                    None => return, // already reaped
                    Some(e) => (e.exited, e.exit_q),
                }
            };
            if exited {
                self.kernel.inner.procs.lock().remove(&child);
                return;
            }
            self.sim().wait_on(q, "waitpid").await;
        }
    }

    /// `pipe(2)`: returns (read fd, write fd).
    pub fn pipe(&self) -> (Fd, Fd) {
        self.charge_syscall();
        let pipe = Pipe::new(self.sim(), self.kernel.costs().pipe);
        let rd = File::new(FileObj::PipeRead(pipe.clone()));
        let wr = File::new(FileObj::PipeWrite(pipe));
        self.kernel.with_proc(self.pid, |e| {
            let rfd = e.fds.install(rd);
            let wfd = e.fds.install(wr);
            (rfd, wfd)
        })
    }

    /// `close(2)`. Closing the last descriptor of an NFS file may RPC.
    pub async fn close(&self, fd: Fd) -> SysResult<()> {
        self.charge_syscall();
        let file = self.kernel.with_proc(self.pid, |e| e.fds.remove(fd))?;
        self.kernel.release_file(file).await;
        Ok(())
    }

    /// `dup(2)`.
    pub fn dup(&self, fd: Fd) -> SysResult<Fd> {
        self.charge_syscall();
        self.kernel.with_proc(self.pid, |e| {
            let file = e.fds.get(fd)?;
            file.add_ref();
            Ok(e.fds.install(file))
        })
    }

    fn file(&self, fd: Fd) -> SysResult<Arc<File>> {
        self.kernel.with_proc(self.pid, |e| e.fds.get(fd))
    }

    /// `write(2)` of `len` modelled bytes (content zeros). A pipe write
    /// allocates no byte buffer.
    pub async fn write(&self, fd: Fd, len: u64) -> SysResult<u64> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::PipeWrite(p) => p.write_zeros(self.env(), len).await,
            _ => self.write_file(&file, len).await,
        }
    }

    /// `write(2)` of real bytes (pipes preserve them for the reader).
    pub async fn write_bytes(&self, fd: Fd, data: &[u8]) -> SysResult<u64> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::PipeWrite(p) => p.write(self.env(), data).await,
            _ => self.write_file(&file, data.len() as u64).await,
        }
    }

    /// The non-pipe half of both writes: `len` bytes at the file offset.
    async fn write_file(&self, file: &File, len: u64) -> SysResult<u64> {
        match &file.obj {
            FileObj::Vnode { fs, vnode, flags } => {
                if !flags.write {
                    return Err(Errno::EBADF);
                }
                let off = file.offset();
                let n = fs.write(self.env(), *vnode, off, len).await?;
                file.set_offset(off + n);
                Ok(n)
            }
            FileObj::Null => Ok(len),
            FileObj::PipeRead(_) | FileObj::PipeWrite(_) => Err(Errno::EBADF),
        }
    }

    /// `read(2)` of up to `len` bytes; returns the byte count. A pipe
    /// read allocates no byte buffer.
    pub async fn read(&self, fd: Fd, len: u64) -> SysResult<u64> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::PipeRead(p) => p.read_discard(self.env(), len).await,
            FileObj::Vnode { fs, vnode, flags } => {
                if !flags.read {
                    return Err(Errno::EBADF);
                }
                let off = file.offset();
                let n = fs.read(self.env(), *vnode, off, len).await?;
                file.set_offset(off + n);
                Ok(n)
            }
            FileObj::Null => Ok(0),
            FileObj::PipeWrite(_) => Err(Errno::EBADF),
        }
    }

    /// `read(2)` returning the actual bytes (pipes only carry real data).
    pub async fn read_bytes(&self, fd: Fd, len: u64) -> SysResult<Vec<u8>> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::PipeRead(p) => p.read(self.env(), len).await,
            _ => Err(Errno::EBADF),
        }
    }

    /// `open(2)`.
    pub async fn open(&self, path: &str, flags: OpenFlags) -> SysResult<Fd> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        let vnode = fs.open(self.env(), &rel, flags).await?;
        let file = File::new(FileObj::Vnode { fs, vnode, flags });
        Ok(self.kernel.with_proc(self.pid, |e| e.fds.install(file)))
    }

    /// `creat(2)`.
    pub async fn creat(&self, path: &str) -> SysResult<Fd> {
        self.open(path, OpenFlags::creat()).await
    }

    /// `unlink(2)`.
    pub async fn unlink(&self, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        fs.unlink(self.env(), &rel).await
    }

    /// `mkdir(2)`.
    pub async fn mkdir(&self, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        fs.mkdir(self.env(), &rel).await
    }

    /// `rmdir(2)`.
    pub async fn rmdir(&self, path: &str) -> SysResult<()> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        fs.rmdir(self.env(), &rel).await
    }

    /// `stat(2)`.
    pub async fn stat(&self, path: &str) -> SysResult<FileAttr> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        let vnode = fs.lookup(self.env(), &rel).await?;
        fs.getattr(self.env(), vnode).await
    }

    /// `fstat(2)`.
    pub async fn fstat(&self, fd: Fd) -> SysResult<FileAttr> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::Vnode { fs, vnode, .. } => fs.getattr(self.env(), *vnode).await,
            _ => Err(Errno::EINVAL),
        }
    }

    /// `lseek(2)` to an absolute position.
    pub fn lseek(&self, fd: Fd, pos: u64) -> SysResult<u64> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::Vnode { .. } | FileObj::Null => {
                file.set_offset(pos);
                Ok(pos)
            }
            _ => Err(Errno::EINVAL),
        }
    }

    /// `fsync(2)`.
    pub async fn fsync(&self, fd: Fd) -> SysResult<()> {
        self.charge_syscall();
        let file = self.file(fd)?;
        match &file.obj {
            FileObj::Vnode { fs, vnode, .. } => fs.fsync(self.env(), *vnode).await,
            _ => Err(Errno::EINVAL),
        }
    }

    /// `select(2)` over pipe read ends: blocks until at least one of
    /// `fds` is readable (data buffered or EOF), then returns the ready
    /// subset. `timeout` of `None` blocks indefinitely; on timeout the
    /// result is empty. The single-process Internet servers of Section 5
    /// are built on exactly this call.
    pub async fn select_read(&self, fds: &[Fd], timeout: Option<Cycles>) -> SysResult<Vec<Fd>> {
        self.charge_syscall();
        let mut pipes = Vec::with_capacity(fds.len());
        for &fd in fds {
            let file = self.file(fd)?;
            match &file.obj {
                FileObj::PipeRead(p) => pipes.push((fd, p.clone())),
                _ => return Err(Errno::EINVAL),
            }
        }
        // Poll cost scales with the fd set, as real select(2) does.
        let c = self.kernel.costs();
        self.sim()
            .charge(Cycles(c.syscall_overhead_cy / 4 * fds.len() as u64));
        let deadline = timeout.map(|t| self.sim().now() + t);
        loop {
            let ready: Vec<Fd> = pipes
                .iter()
                .filter(|(_, p)| p.poll_readable())
                .map(|(fd, _)| *fd)
                .collect();
            if !ready.is_empty() {
                return Ok(ready);
            }
            let queues: Vec<_> = pipes.iter().map(|(_, p)| p.read_queue()).collect();
            let left = match deadline {
                None => None,
                Some(d) => {
                    let left = d.saturating_sub(self.sim().now());
                    if left == Cycles::ZERO {
                        return Ok(Vec::new());
                    }
                    Some(left)
                }
            };
            let woken = self.sim().wait_on_any(&queues, left, "select").await;
            if woken.is_none() && deadline.is_some() {
                return Ok(Vec::new());
            }
        }
    }

    /// `rename(2)`. Both paths must live on the same mount (EXDEV-style
    /// cross-mount renames are rejected as EINVAL, as `mv` would fall
    /// back to copying).
    pub async fn rename(&self, from: &str, to: &str) -> SysResult<()> {
        self.charge_syscall();
        let (fs_from, rel_from) = self.kernel.fs_at(from)?;
        let (fs_to, rel_to) = self.kernel.fs_at(to)?;
        if !Arc::ptr_eq(&fs_from, &fs_to) {
            return Err(Errno::EINVAL);
        }
        fs_from.rename(self.env(), &rel_from, &rel_to).await
    }

    /// Reads a directory's names.
    pub async fn readdir(&self, path: &str) -> SysResult<Vec<String>> {
        self.charge_syscall();
        let (fs, rel) = self.kernel.fs_at(path)?;
        fs.readdir(self.env(), &rel).await
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn getpid_costs_match_table2() {
        for (os, expect_us) in [(Os::Linux, 2.31), (Os::FreeBsd, 2.62), (Os::Solaris, 3.52)] {
            let (sim, kernel) = boot(os, 0);
            kernel.spawn_user("getpid-bench", |p| async move {
                for _ in 0..1000 {
                    p.getpid();
                }
            });
            let elapsed = sim.run().unwrap();
            let per_call = elapsed.as_micros() / 1000.0;
            assert!(
                (per_call - expect_us).abs() / expect_us < 0.10,
                "{os:?}: expected ~{expect_us}us per getpid, got {per_call}"
            );
        }
    }

    #[test]
    fn pipe_through_fds() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let total = Arc::new(AtomicU64::new(0));
        let t = total.clone();
        kernel.spawn_user("parent", move |p| async move {
            let (rfd, wfd) = p.pipe();
            let child = p.fork("child", move |c| async move {
                c.close(rfd).await.unwrap();
                c.write_bytes(wfd, b"hello from the child").await.unwrap();
                c.close(wfd).await.unwrap();
            });
            p.close(wfd).await.unwrap();
            let mut got = Vec::new();
            loop {
                let chunk = p.read_bytes(rfd, 7).await.unwrap();
                if chunk.is_empty() {
                    break;
                }
                got.extend(chunk);
            }
            assert_eq!(got, b"hello from the child");
            p.waitpid(child).await;
            t.store(got.len() as u64, Ordering::SeqCst);
        });
        let _ = sim.run().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn task_processes_pipe_through_fds() {
        // `pipe_through_fds` with the length-only read and write.
        let (sim, kernel) = boot(Os::Linux, 0);
        let total = Arc::new(AtomicU64::new(0));
        let t = total.clone();
        kernel.spawn_user("parent", move |p| async move {
            let (rfd, wfd) = p.pipe();
            let child = p.fork("child", move |c| async move {
                c.close(rfd).await.unwrap();
                c.write(wfd, 20).await.unwrap();
                c.close(wfd).await.unwrap();
            });
            p.close(wfd).await.unwrap();
            let mut got = 0;
            loop {
                let n = p.read(rfd, 7).await.unwrap();
                if n == 0 {
                    break;
                }
                got += n;
            }
            p.waitpid(child).await;
            t.store(got, Ordering::SeqCst);
        });
        let _ = sim.run().unwrap();
        assert_eq!(total.load(Ordering::SeqCst), 20);
    }

    #[test]
    fn fork_shares_descriptors_eof_works() {
        // If fork didn't bump pipe references, the parent's close would
        // produce a premature EOF.
        let (sim, kernel) = boot(Os::FreeBsd, 0);
        kernel.spawn_user("parent", move |p| async move {
            let (rfd, wfd) = p.pipe();
            let child = p.fork("child", move |c| async move {
                // Child holds both ends; parent closes its write end first.
                c.compute(Cycles(10_000));
                c.write_bytes(wfd, b"late data").await.unwrap();
                c.close(wfd).await.unwrap();
                c.close(rfd).await.unwrap();
            });
            p.close(wfd).await.unwrap();
            let got = p.read_bytes(rfd, 100).await.unwrap();
            assert_eq!(got, b"late data", "child's write end kept the pipe alive");
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn exit_closes_fds() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("parent", move |p| async move {
            let (rfd, wfd) = p.pipe();
            p.fork("child", move |c| async move {
                c.close(rfd).await.unwrap();
                c.write_bytes(wfd, b"x").await.unwrap();
                // Exits without closing wfd: exit must close it.
            });
            p.close(wfd).await.unwrap();
            assert_eq!(p.read_bytes(rfd, 10).await.unwrap(), b"x");
            assert!(
                p.read_bytes(rfd, 10).await.unwrap().is_empty(),
                "EOF after child exit"
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn waitpid_blocks_until_child_exit() {
        let (sim, kernel) = boot(Os::Solaris, 0);
        let when = Arc::new(AtomicU64::new(0));
        let w = when.clone();
        kernel.spawn_user("parent", move |p| async move {
            let child = p.fork("worker", |c| async move {
                c.compute(Cycles(500_000));
            });
            p.waitpid(child).await;
            w.store(p.sim().now().0, Ordering::SeqCst);
        });
        let _ = sim.run().unwrap();
        assert!(
            when.load(Ordering::SeqCst) >= 500_000,
            "parent waited for child CPU time"
        );
    }

    #[test]
    fn bad_fd_errors() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("p", |p| async move {
            assert_eq!(p.read(42, 1).await.err(), Some(Errno::EBADF));
            assert_eq!(p.close(42).await.err(), Some(Errno::EBADF));
            let (rfd, wfd) = p.pipe();
            assert_eq!(
                p.write(rfd, 1).await.err(),
                Some(Errno::EBADF),
                "write to read end"
            );
            assert_eq!(
                p.read(wfd, 1).await.err(),
                Some(Errno::EBADF),
                "read from write end"
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn open_without_mount_is_enosys() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("p", |p| async move {
            assert_eq!(
                p.open("/x", OpenFlags::rdonly()).await.err(),
                Some(Errno::ENOSYS)
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn dup_shares_offset() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("p", |p| async move {
            let (rfd, wfd) = p.pipe();
            let wfd2 = p.dup(wfd).unwrap();
            p.write_bytes(wfd2, b"via dup").await.unwrap();
            p.close(wfd).await.unwrap();
            // Pipe must still be writable via the dup.
            p.write_bytes(wfd2, b"!").await.unwrap();
            p.close(wfd2).await.unwrap();
            let mut all = Vec::new();
            loop {
                let c = p.read_bytes(rfd, 64).await.unwrap();
                if c.is_empty() {
                    break;
                }
                all.extend(c);
            }
            assert_eq!(all, b"via dup!");
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn select_returns_the_ready_pipe() {
        let (sim, kernel) = boot(Os::FreeBsd, 0);
        kernel.spawn_user("selector", |p| async move {
            let (r1, w1) = p.pipe();
            let (r2, w2) = p.pipe();
            let child = p.fork("writer", move |c| async move {
                c.compute(Cycles(5_000));
                c.write_bytes(w2, b"ready").await.unwrap();
            });
            let ready = p.select_read(&[r1, r2], None).await.unwrap();
            assert_eq!(ready, vec![r2], "only pipe 2 has data");
            assert_eq!(p.read_bytes(r2, 16).await.unwrap(), b"ready");
            p.close(w1).await.unwrap();
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn select_times_out_empty() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("selector", |p| async move {
            let (r1, _w1) = p.pipe();
            let t0 = p.sim().now();
            let ready = p.select_read(&[r1], Some(Cycles(50_000))).await.unwrap();
            assert!(ready.is_empty());
            assert!((p.sim().now() - t0).0 >= 50_000);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn select_sees_eof_as_readable() {
        let (sim, kernel) = boot(Os::Solaris, 0);
        kernel.spawn_user("selector", |p| async move {
            let (rfd, wfd) = p.pipe();
            p.close(wfd).await.unwrap();
            let ready = p.select_read(&[rfd], None).await.unwrap();
            assert_eq!(ready, vec![rfd], "EOF counts as readable");
            assert_eq!(p.read(rfd, 8).await.unwrap(), 0);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn select_rejects_non_pipes() {
        let (sim, kernel) = boot(Os::Linux, 0);
        kernel.spawn_user("selector", |p| async move {
            let (_r, w) = p.pipe();
            assert_eq!(p.select_read(&[w], None).await.err(), Some(Errno::EINVAL));
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn cluster_machines_have_independent_costs() {
        let (sim, kernels) = boot_cluster(&[Os::Linux, Os::Solaris], 0);
        let times = Arc::new(Mutex::new(Vec::new()));
        for (i, k) in kernels.iter().enumerate() {
            let t = times.clone();
            k.spawn_user(format!("m{i}"), move |p| async move {
                let t0 = p.sim().now();
                for _ in 0..100 {
                    p.getpid();
                }
                t.lock().push((p.sim().now() - t0).as_micros());
            });
        }
        let _ = sim.run().unwrap();
        let v = times.lock().clone();
        assert_eq!(v.len(), 2);
        // Machine 0 is Linux (2.31us/call), machine 1 Solaris (3.52).
        assert!(v[0] < v[1], "Linux getpid faster than Solaris: {v:?}");
    }
}
