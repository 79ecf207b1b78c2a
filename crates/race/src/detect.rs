//! The happens-before checker.
//!
//! A TSan-style vector-clock detector specialised for the baton
//! engine's concurrency model. "Threads" here are *simulated tasks*
//! (engine `Tid`s, with task 0 standing in for the host thread), and
//! the happens-before relation contains only the edges the *program*
//! enforces — spawn, `SimMutex` release→acquire, wakeup delivery,
//! timer arm→fire, channel operations. A baton handoff is deliberately
//! **not** an edge: which task runs next is a scheduler choice, and
//! treating it as synchronization would totally order every access and
//! hide every race.
//!
//! Engine-internal shared structures (run queue, timer heap, trace
//! ring, wait queues, per-proc accounts) are accessed through
//! [`Detector::protected_access`]: the engine lock orders those
//! accesses, so two protected accesses never race, but that lock is
//! taken by whichever task holds the baton and so creates no
//! happens-before edge either — were it one, every task that touches
//! the run queue would be ordered after every other, and the baton
//! handoff would be an edge after all. Code that touches the structure
//! *without* the lock discipline (a planted mutant, a future refactor
//! that forgets it) makes a raw access, and a raw access unordered with
//! any other access to its location trips the checker.
//!
//! The detector also records, per `(task, nth-slice-of-task)`, the
//! footprint of locations and sync vars touched — the independence
//! oracle the schedule explorer's sleep sets consume.

use std::collections::BTreeMap;

use crate::clock::VClock;

/// A synchronization variable: something tasks release into and
/// acquire from, carrying a vector clock.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum SyncId {
    /// A `SimMutex`, keyed by its wait queue's raw id.
    Lock(u64),
    /// A `SimChannel`, keyed by its read queue's raw id. Every channel
    /// operation acquires then releases it, so all operations on one
    /// channel are totally ordered — the model of the host mutex that
    /// guards the channel's buffer.
    Channel(u64),
    /// A timer arming, keyed by the engine's timer sequence number:
    /// the armer releases at arm time, the wakee acquires at fire time.
    Timer(u64),
    /// A test-defined sync var.
    Named(&'static str, u64),
}

/// A memory location the checker watches.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum Loc {
    /// The run policy's queue of runnable tasks.
    RunQueue,
    /// The engine's timer heap.
    TimerHeap,
    /// The trace ring / counter plane.
    TraceRing,
    /// One engine wait queue, keyed by raw id.
    WaitQueue(u64),
    /// One task's CPU account, keyed by tid.
    ProcAccount(u32),
    /// A test- or scenario-defined location.
    Named(&'static str, u64),
}

/// Read or write.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Debug)]
pub enum AccessKind {
    /// The access only observes the location.
    Read,
    /// The access mutates the location.
    Write,
}

/// The stack-of-record for one access: enough to point a human at the
/// racing code without host backtraces (which would be
/// schedule-dependent noise).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct AccessInfo {
    /// The accessing task (engine tid; 0 = host).
    pub task: u32,
    /// The pid shown in traces (differs from `task` for lite procs,
    /// which run inside their scheduler's engine slot).
    pub pid: u32,
    /// The engine dispatch count at the access.
    pub dispatch: u64,
    /// A static name for the code site.
    pub site: &'static str,
}

impl std::fmt::Display for AccessInfo {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "task {} (pid {}) at dispatch {} in {}",
            self.task, self.pid, self.dispatch, self.site
        )
    }
}

/// An unordered access pair on one location.
#[derive(Clone, Debug)]
pub struct Race {
    /// The racing location.
    pub loc: Loc,
    /// The earlier-recorded access.
    pub first: AccessInfo,
    /// The access that completed the race.
    pub second: AccessInfo,
}

impl std::fmt::Display for Race {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "data race on {:?}: {} is unordered with {}",
            self.loc, self.first, self.second
        )
    }
}

/// The locations and sync vars one scheduling slice touched — the
/// explorer's independence oracle. Two slices are independent iff
/// their footprints share no sync var and no location that either
/// writes.
#[derive(Clone, Default, PartialEq, Eq, Debug)]
pub struct Footprint {
    /// `(location, wrote)` pairs; a location read and written collapses
    /// to `wrote = true`.
    pub locs: BTreeMap<Loc, bool>,
    /// Sync vars acquired, released, or edged through.
    pub syncs: std::collections::BTreeSet<SyncId>,
}

impl Footprint {
    /// Whether the two footprints conflict (shared sync var, or shared
    /// location with at least one write).
    pub fn conflicts(&self, other: &Footprint) -> bool {
        if self.syncs.intersection(&other.syncs).next().is_some() {
            return true;
        }
        self.locs.iter().any(|(loc, &wrote)| {
            other
                .locs
                .get(loc)
                .is_some_and(|&other_wrote| wrote || other_wrote)
        })
    }
}

/// Where a wakeup's happens-before edge originates.
#[derive(Clone, Copy, Debug)]
pub enum WakeSrc {
    /// A running task delivered the wakeup (`wakeup_one`/`all`, channel
    /// signals, doorbell rings).
    Task(u32),
    /// A timer fired: the edge comes from the arming release into
    /// [`SyncId::Timer`], not from whichever task happened to advance
    /// the clock past the deadline.
    Timer(u64),
}

/// One recorded access: the task, its own clock component at the
/// access, and the stack of record.
type Epoch = (u32, u64, AccessInfo);

#[derive(Clone, Default, Debug)]
struct LocState {
    /// Last raw write.
    write: Option<Epoch>,
    /// Last raw read per task since the last raw write.
    reads: BTreeMap<u32, Epoch>,
    /// Each task's last protected write and last protected read. Only a
    /// raw access is checked against these, so none is ever dropped.
    protected_writes: BTreeMap<u32, Epoch>,
    protected_reads: BTreeMap<u32, Epoch>,
}

/// The epochs of `map` if `wanted`, else none.
fn epochs(map: &BTreeMap<u32, Epoch>, wanted: bool) -> impl Iterator<Item = &Epoch> {
    wanted.then_some(map).into_iter().flat_map(BTreeMap::values)
}

/// The happens-before detector. One per armed simulation; every call
/// happens under the engine's state lock, so the detector is plain
/// mutable state.
#[derive(Default, Debug)]
pub struct Detector {
    clocks: BTreeMap<u32, VClock>,
    syncs: BTreeMap<SyncId, VClock>,
    locs: BTreeMap<Loc, LocState>,
    /// Scheduling-slice counter per task (bumped by `slice_begin`).
    slice_of: BTreeMap<u32, u32>,
    /// Each task's current-slice footprint. Kept per *task* (not per
    /// `(task, slice)`) so the per-access lookup walks a map bounded by
    /// the proc count, not by the run's total dispatch count; finished
    /// slices are flushed to `done_footprints` at the next
    /// `slice_begin`.
    current_footprint: BTreeMap<u32, Footprint>,
    /// Footprints of finished slices, keyed `(task, slice)`.
    done_footprints: Vec<((u32, u32), Footprint)>,
    /// Races found so far (the engine panics on the first when armed,
    /// but tests can run in collect mode).
    races: Vec<Race>,
}

impl Detector {
    /// A fresh detector with the host task (0) registered.
    pub fn new() -> Detector {
        let mut d = Detector::default();
        d.clocks.entry(0).or_default().bump(0);
        d
    }

    fn clock_mut(&mut self, task: u32) -> &mut VClock {
        self.clocks.entry(task).or_default()
    }

    fn footprint_mut(&mut self, task: u32) -> &mut Footprint {
        self.current_footprint.entry(task).or_default()
    }

    /// Registers the spawn edge: everything `parent` did before the
    /// spawn happens-before everything `child` does.
    pub fn task_start(&mut self, child: u32, parent: u32) {
        let parent_clock = self.clock_mut(parent).clone();
        let c = self.clock_mut(child);
        c.join(&parent_clock);
        c.bump(child);
        self.clock_mut(parent).bump(parent);
    }

    /// Registers the join edge: everything `task` ever did
    /// happens-before whatever `into` does next (used when the host
    /// reaps the finished simulation).
    pub fn task_join(&mut self, task: u32, into: u32) {
        let done = self.clock_mut(task).clone();
        self.clock_mut(into).join(&done);
    }

    /// Marks the start of a new scheduling slice for `task` (the engine
    /// calls this at every dispatch of the task).
    pub fn slice_begin(&mut self, task: u32) {
        let slice = self.slice_of.entry(task).or_insert(0);
        if let Some(fp) = self.current_footprint.get_mut(&task) {
            if !(fp.locs.is_empty() && fp.syncs.is_empty()) {
                self.done_footprints
                    .push(((task, *slice), std::mem::take(fp)));
            }
        }
        *slice += 1;
    }

    /// Acquire edge: `task` has now seen everything released into
    /// `sync`.
    pub fn acquire(&mut self, task: u32, sync: SyncId) {
        self.footprint_mut(task).syncs.insert(sync);
        // Disjoint field borrows: `syncs` read, `clocks` written, so no
        // snapshot clone.
        if let Some(sc) = self.syncs.get(&sync) {
            self.clocks.entry(task).or_default().join(sc);
        }
    }

    /// Release edge: `sync` now carries everything `task` has done.
    /// The sync var is joined *before* bumping the task's component so
    /// work done after the release stays unordered with the acquirer.
    pub fn release(&mut self, task: u32, sync: SyncId) {
        self.footprint_mut(task).syncs.insert(sync);
        let c = self.clocks.entry(task).or_default();
        self.syncs.entry(sync).or_default().join(c);
        c.bump(task);
    }

    /// Wakeup-delivery edge into a (blocked, hence clock-stable)
    /// `wakee`. From a task: direct edge. From a timer: acquire of the
    /// arming's [`SyncId::Timer`] clock on the wakee's behalf.
    pub fn wake_edge(&mut self, src: WakeSrc, wakee: u32) {
        match src {
            WakeSrc::Task(waker) => {
                if waker == wakee {
                    return;
                }
                let c = self.clock_mut(waker);
                let snapshot = c.clone();
                c.bump(waker);
                self.clock_mut(wakee).join(&snapshot);
            }
            WakeSrc::Timer(seq) => {
                self.footprint_mut(wakee).syncs.insert(SyncId::Timer(seq));
                if let Some(sc) = self.syncs.get(&SyncId::Timer(seq)) {
                    self.clocks.entry(wakee).or_default().join(sc);
                }
            }
        }
    }

    /// A raw access with no implied synchronization. Returns the race
    /// it completes, if any (also recorded internally): any access to
    /// the location it is unordered with, one of the two a write.
    pub fn access(&mut self, loc: Loc, kind: AccessKind, info: AccessInfo) -> Option<Race> {
        self.record(loc, kind, info, false)
    }

    /// An access under the engine's lock discipline. It joins and
    /// releases no clock, since the engine lock is no happens-before
    /// edge, and it never races another protected access; it races only
    /// an unordered raw access, which only a mutant (or a refactor that
    /// forgot the discipline) can make.
    pub fn protected_access(
        &mut self,
        loc: Loc,
        kind: AccessKind,
        info: AccessInfo,
    ) -> Option<Race> {
        self.record(loc, kind, info, true)
    }

    fn record(
        &mut self,
        loc: Loc,
        kind: AccessKind,
        info: AccessInfo,
        protected: bool,
    ) -> Option<Race> {
        let task = info.task;
        let write = kind == AccessKind::Write;
        {
            let fp = self.footprint_mut(task);
            let wrote = fp.locs.entry(loc).or_insert(false);
            *wrote |= write;
        }
        // Disjoint field borrows (`clocks` then `locs`): the clock is
        // only read here, so no snapshot clone on the access fast path.
        let clock = &*self.clocks.entry(task).or_default();
        let state = self.locs.entry(loc).or_default();
        // The earlier accesses that conflict with this one: writes, and
        // reads too if this is a write; protected ones only if this one
        // is raw.
        let race = state
            .write
            .iter()
            .chain(epochs(&state.reads, write))
            .chain(epochs(&state.protected_writes, !protected))
            .chain(epochs(&state.protected_reads, write && !protected))
            .find(|&&(t, v, _)| t != task && v > clock.get(t))
            .map(|&(_, _, first)| Race {
                loc,
                first,
                second: info,
            });
        let epoch = (task, clock.get(task), info);
        match (protected, kind) {
            (false, AccessKind::Read) => {
                state.reads.insert(task, epoch);
            }
            (false, AccessKind::Write) => {
                state.write = Some(epoch);
                // Every prior raw read either raced (reported) or
                // happens-before this write; only the write epoch needs
                // to survive.
                state.reads.clear();
            }
            (true, AccessKind::Read) => {
                state.protected_reads.insert(task, epoch);
            }
            (true, AccessKind::Write) => {
                state.protected_writes.insert(task, epoch);
            }
        }
        if let Some(r) = race.clone() {
            self.races.push(r);
        }
        race
    }

    /// All races recorded so far.
    pub fn races(&self) -> &[Race] {
        &self.races
    }

    /// Drains the per-slice footprints gathered so far.
    pub fn take_footprints(&mut self) -> Vec<((u32, u32), Footprint)> {
        let mut out = std::mem::take(&mut self.done_footprints);
        for (task, fp) in std::mem::take(&mut self.current_footprint) {
            if !(fp.locs.is_empty() && fp.syncs.is_empty()) {
                let slice = self.slice_of.get(&task).copied().unwrap_or(0);
                out.push(((task, slice), fp));
            }
        }
        out.sort_by_key(|&(key, _)| key);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info(task: u32, site: &'static str) -> AccessInfo {
        AccessInfo {
            task,
            pid: task,
            dispatch: 0,
            site,
        }
    }

    const LOC: Loc = Loc::Named("shared", 1);

    #[test]
    fn unsynchronized_write_write_races() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        assert!(d.access(LOC, AccessKind::Write, info(1, "a")).is_none());
        let race = d.access(LOC, AccessKind::Write, info(2, "b"));
        let race = race.expect("unordered writes race");
        assert_eq!(race.first.task, 1);
        assert_eq!(race.second.task, 2);
        assert_eq!(d.races().len(), 1);
    }

    #[test]
    fn read_write_races_but_read_read_does_not() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        assert!(d.access(LOC, AccessKind::Read, info(1, "r1")).is_none());
        assert!(d.access(LOC, AccessKind::Read, info(2, "r2")).is_none());
        assert!(d.access(LOC, AccessKind::Write, info(2, "w")).is_some());
    }

    #[test]
    fn lock_discipline_orders_accesses() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        let m = SyncId::Lock(7);
        d.acquire(1, m);
        assert!(d.access(LOC, AccessKind::Write, info(1, "a")).is_none());
        d.release(1, m);
        d.acquire(2, m);
        assert!(
            d.access(LOC, AccessKind::Write, info(2, "b")).is_none(),
            "release->acquire orders the writes"
        );
        d.release(2, m);
    }

    #[test]
    fn spawn_edge_orders_parent_setup() {
        let mut d = Detector::new();
        assert!(d.access(LOC, AccessKind::Write, info(0, "setup")).is_none());
        d.task_start(1, 0);
        assert!(
            d.access(LOC, AccessKind::Write, info(1, "child")).is_none(),
            "spawn orders parent writes before the child"
        );
    }

    #[test]
    fn wake_edge_orders_waker_before_wakee() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        assert!(d.access(LOC, AccessKind::Write, info(1, "pre")).is_none());
        d.wake_edge(WakeSrc::Task(1), 2);
        assert!(d.access(LOC, AccessKind::Write, info(2, "post")).is_none());
    }

    #[test]
    fn timer_edge_comes_from_the_armer_not_the_clock_driver() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        d.task_start(3, 0);
        assert!(d.access(LOC, AccessKind::Write, info(1, "arm")).is_none());
        d.release(1, SyncId::Timer(9));
        // Task 3 drives the clock past the deadline; the edge must go
        // armer -> wakee, and no edge must involve task 3.
        d.wake_edge(WakeSrc::Timer(9), 2);
        assert!(d.access(LOC, AccessKind::Write, info(2, "fired")).is_none());
        assert!(
            d.access(LOC, AccessKind::Write, info(3, "driver"))
                .is_some(),
            "the clock-driving task gained no order from the fire"
        );
    }

    #[test]
    fn protected_access_never_races_raw_access_does() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        let ring = Loc::TraceRing;
        assert!(d
            .protected_access(ring, AccessKind::Write, info(1, "charge"))
            .is_none());
        assert!(
            d.protected_access(ring, AccessKind::Write, info(2, "charge"))
                .is_none(),
            "disciplined accesses are ordered by the internal sync var"
        );
        // A mutant skips the discipline: the raw write is unordered
        // with task 2's disciplined write and races immediately.
        let race = d.access(ring, AccessKind::Write, info(1, "mutant"));
        let race = race.expect("raw write races the disciplined one");
        assert_eq!(race.first.site, "charge");
        assert_eq!(race.second.site, "mutant");
    }

    #[test]
    fn protected_accesses_create_no_edge() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        assert!(d.access(LOC, AccessKind::Write, info(1, "w1")).is_none());
        for task in [1, 2] {
            let enqueue = info(task, "enqueue");
            assert!(d
                .protected_access(Loc::RunQueue, AccessKind::Write, enqueue)
                .is_none());
        }
        let race = d.access(LOC, AccessKind::Write, info(2, "w2"));
        let race = race.expect("the run queue orders nothing");
        assert_eq!(race.first.site, "w1");
    }

    #[test]
    fn a_raw_access_meets_every_tasks_protected_access() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        let ring = Loc::TraceRing;
        for task in [1, 2] {
            assert!(d
                .protected_access(ring, AccessKind::Write, info(task, "charge"))
                .is_none());
        }
        // Task 2's own protected write is the latest, but task 1's is
        // still unordered with task 2's raw one.
        let race = d.access(ring, AccessKind::Read, info(2, "mutant"));
        let race = race.expect("raw read races task 1's protected write");
        assert_eq!(race.first.task, 1);
    }

    #[test]
    fn footprints_record_slices_and_conflicts() {
        let mut d = Detector::new();
        d.task_start(1, 0);
        d.task_start(2, 0);
        d.slice_begin(1);
        let _ = d.access(LOC, AccessKind::Write, info(1, "w"));
        d.slice_begin(2);
        let _ = d.access(LOC, AccessKind::Read, info(2, "r"));
        d.slice_begin(2);
        let _ = d.access(Loc::Named("other", 0), AccessKind::Read, info(2, "r2"));
        let fps: BTreeMap<_, _> = d.take_footprints().into_iter().collect();
        let a = &fps[&(1, 1)];
        let b = &fps[&(2, 1)];
        let c = &fps[&(2, 2)];
        assert!(a.conflicts(b), "write vs read of one loc conflicts");
        assert!(!b.conflicts(c), "disjoint reads do not conflict");
        assert!(!a.conflicts(c));
    }
}
