//! The event recorder and online attribution engine.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use parking_lot::Mutex;

use crate::class::{Class, Counter};

/// A cycle-stamped trace event.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Event {
    /// Simulated time (cycles) at which the event was recorded.
    pub t: u64,
    /// Engine tid of the process concerned; `0` is the host thread.
    pub pid: u32,
    /// What happened.
    pub kind: EventKind,
}

/// The event payload.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A process came into existence under this name.
    Spawn(String),
    /// A span of class `Class` opened on `pid`'s stack.
    Enter(Class),
    /// The matching span closed.
    Exit(Class),
    /// The clock advanced by `cy` cycles of CPU work on `pid`.
    Charge {
        /// Cycles charged.
        cy: u64,
    },
    /// The engine spent `cy` cycles picking `pid` to run.
    Dispatch {
        /// Scheduler cost in cycles.
        cy: u64,
    },
    /// The clock jumped `cy` cycles forward to the next timer because no
    /// process was runnable.
    Idle {
        /// Idle cycles skipped.
        cy: u64,
    },
}

impl Event {
    /// Stable one-line rendering, used for byte-identical stream checks.
    pub fn render(&self) -> String {
        match &self.kind {
            EventKind::Spawn(name) => format!("{} p{} spawn {}", self.t, self.pid, name),
            EventKind::Enter(c) => format!("{} p{} enter {}", self.t, self.pid, c.label()),
            EventKind::Exit(c) => format!("{} p{} exit {}", self.t, self.pid, c.label()),
            EventKind::Charge { cy } => format!("{} p{} charge {}", self.t, self.pid, cy),
            EventKind::Dispatch { cy } => format!("{} p{} dispatch {}", self.t, self.pid, cy),
            EventKind::Idle { cy } => format!("{} p{} idle {}", self.t, self.pid, cy),
        }
    }
}

/// A reusable bank of always-on atomic counters.
///
/// The kernel keeps one per machine (so per-kernel stats survive) and the
/// tracer embeds one aggregating across the whole simulation.
#[derive(Debug, Default)]
pub struct CounterSet {
    vals: [AtomicU64; Counter::COUNT],
}

impl CounterSet {
    /// A zeroed counter bank.
    pub fn new() -> CounterSet {
        CounterSet::default()
    }

    /// Adds `n` to `c`.
    #[inline]
    pub fn add(&self, c: Counter, n: u64) {
        self.vals[c as usize].fetch_add(n, Ordering::Relaxed);
    }

    /// Current value of `c`.
    pub fn get(&self, c: Counter) -> u64 {
        self.vals[c as usize].load(Ordering::Relaxed)
    }

    /// Snapshot of every counter, indexed by `Counter as usize`.
    pub fn snapshot(&self) -> [u64; Counter::COUNT] {
        let mut out = [0u64; Counter::COUNT];
        for (i, v) in self.vals.iter().enumerate() {
            out[i] = v.load(Ordering::Relaxed);
        }
        out
    }
}

/// One `(class, pid)` cell of a [`Profile`].
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ProfileRow {
    /// Attribution class.
    pub class: Class,
    /// Process the cycles belong to (0 = host).
    pub pid: u32,
    /// Process name at spawn, if known.
    pub name: String,
    /// Cycles attributed to this cell.
    pub cycles: u64,
}

/// The folded attribution result of one tracer.
#[derive(Clone, Debug, Default)]
pub struct Profile {
    /// Per-`(class, pid)` cycles, ordered by class then pid.
    pub rows: Vec<ProfileRow>,
    /// Total cycles attributed (equals elapsed when instrumentation is
    /// complete: the clock only moves through charge/dispatch/idle).
    pub attributed: u64,
    /// Cycles that landed in [`Class::UnknownIdle`].
    pub unknown_idle: u64,
}

impl Profile {
    /// Total cycles in `class` across all pids.
    pub fn class_total(&self, class: Class) -> u64 {
        self.rows
            .iter()
            .filter(|r| r.class == class)
            .map(|r| r.cycles)
            .sum()
    }

    /// Fraction of `elapsed` that was attributed to a *known* class.
    pub fn coverage(&self, elapsed: u64) -> f64 {
        if elapsed == 0 {
            return 1.0;
        }
        (self.attributed - self.unknown_idle) as f64 / elapsed as f64
    }
}

/// The ring's internal record: a fixed-size `Copy` packing of [`Event`].
/// Spawn names are interned into a side arena at record time, so pushing
/// an event never allocates — the ring is one preallocated slab and every
/// payload is inline.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum PackedKind {
    /// Index into `Inner::name_arena`.
    Spawn(u32),
    Enter(Class),
    Exit(Class),
    Charge(u64),
    Dispatch(u64),
    Idle(u64),
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct Packed {
    t: u64,
    pid: u32,
    kind: PackedKind,
}

/// What the attribution knows about one pid.
#[derive(Default)]
struct PidState {
    /// Spawn-time name, as an arena index.
    name: Option<u32>,
    /// Open span stack.
    stack: Vec<Class>,
}

struct Inner {
    capacity: usize,
    ring: Vec<Packed>,
    dropped: u64,
    /// Interned spawn names; `PackedKind::Spawn` and `PidState::name`
    /// index here.
    name_arena: Vec<String>,
    /// Reverse lookup for interning (BTreeMap: deterministic iteration).
    name_ids: BTreeMap<String, u32>,
    /// Attribution state per pid, indexed by pid. Pids are the engine's
    /// tids and lite pids, handed out 1, 2, 3, …, so index order is pid
    /// order.
    pids: Vec<PidState>,
    /// Attributed cycles per (class, pid).
    cycles: BTreeMap<(Class, u32), u64>,
    /// Folded stacks: "name;span;span cycles".
    folded: BTreeMap<String, u64>,
    attributed: u64,
    unknown_idle: u64,
}

impl Inner {
    fn new(capacity: usize) -> Inner {
        Inner {
            capacity,
            ring: Vec::new(),
            dropped: 0,
            name_arena: Vec::new(),
            name_ids: BTreeMap::new(),
            pids: Vec::new(),
            cycles: BTreeMap::new(),
            folded: BTreeMap::new(),
            attributed: 0,
            unknown_idle: 0,
        }
    }

    fn intern(&mut self, name: &str) -> u32 {
        if let Some(&id) = self.name_ids.get(name) {
            return id;
        }
        let id = self.name_arena.len() as u32;
        self.name_arena.push(name.to_string());
        self.name_ids.insert(name.to_string(), id);
        id
    }

    fn pack(&mut self, ev: &Event) -> Packed {
        let kind = match &ev.kind {
            EventKind::Spawn(name) => PackedKind::Spawn(self.intern(name)),
            EventKind::Enter(c) => PackedKind::Enter(*c),
            EventKind::Exit(c) => PackedKind::Exit(*c),
            EventKind::Charge { cy } => PackedKind::Charge(*cy),
            EventKind::Dispatch { cy } => PackedKind::Dispatch(*cy),
            EventKind::Idle { cy } => PackedKind::Idle(*cy),
        };
        Packed {
            t: ev.t,
            pid: ev.pid,
            kind,
        }
    }

    /// Renders a packed record exactly as [`Event::render`] would have
    /// rendered the original event (byte-identical dumps).
    fn render(&self, p: Packed) -> String {
        match p.kind {
            PackedKind::Spawn(id) => {
                format!("{} p{} spawn {}", p.t, p.pid, self.name_arena[id as usize])
            }
            PackedKind::Enter(c) => format!("{} p{} enter {}", p.t, p.pid, c.label()),
            PackedKind::Exit(c) => format!("{} p{} exit {}", p.t, p.pid, c.label()),
            PackedKind::Charge(cy) => format!("{} p{} charge {}", p.t, p.pid, cy),
            PackedKind::Dispatch(cy) => format!("{} p{} dispatch {}", p.t, p.pid, cy),
            PackedKind::Idle(cy) => format!("{} p{} idle {}", p.t, p.pid, cy),
        }
    }

    /// The state of `pid`, grown on first use.
    fn pid_mut(&mut self, pid: u32) -> &mut PidState {
        let i = pid as usize;
        if i >= self.pids.len() {
            self.pids.resize_with(i + 1, PidState::default);
        }
        &mut self.pids[i]
    }

    fn proc_label(&self, pid: u32) -> String {
        match self.pids.get(pid as usize).and_then(|p| p.name) {
            Some(id) => self.name_arena[id as usize].clone(),
            None if pid == 0 => "host".to_string(),
            None => format!("p{pid}"),
        }
    }

    fn fold_key(&self, pid: u32, extra: Option<Class>) -> String {
        let mut key = self.proc_label(pid);
        let stack = self.pids.get(pid as usize).map_or(&[][..], |p| &p.stack);
        for c in stack {
            key.push(';');
            key.push_str(c.label());
        }
        match extra {
            Some(c) => {
                key.push(';');
                key.push_str(c.label());
            }
            None if stack.is_empty() => {
                key.push(';');
                key.push_str(Class::User.label());
            }
            None => {}
        }
        key
    }

    /// Folds one event into the attribution state.
    fn apply(&mut self, ev: Packed) {
        match ev.kind {
            PackedKind::Spawn(id) => {
                self.pid_mut(ev.pid).name = Some(id);
            }
            PackedKind::Enter(c) => {
                self.pid_mut(ev.pid).stack.push(c);
            }
            PackedKind::Exit(c) => {
                let stack = &mut self.pid_mut(ev.pid).stack;
                // Tolerate interleaved guards: pop through to the match.
                while let Some(top) = stack.pop() {
                    if top == c {
                        break;
                    }
                }
            }
            PackedKind::Charge(cy) => {
                let class = self
                    .pids
                    .get(ev.pid as usize)
                    .and_then(|p| p.stack.last().copied())
                    .unwrap_or(Class::User);
                *self.cycles.entry((class, ev.pid)).or_default() += cy;
                let key = self.fold_key(ev.pid, None);
                *self.folded.entry(key).or_default() += cy;
                self.attributed += cy;
            }
            PackedKind::Dispatch(cy) => {
                *self.cycles.entry((Class::SchedScan, ev.pid)).or_default() += cy;
                let key = format!("{};{}", self.proc_label(ev.pid), Class::SchedScan.label());
                *self.folded.entry(key).or_default() += cy;
                self.attributed += cy;
            }
            PackedKind::Idle(cy) => {
                // Attribute system idle to the best open wait span across
                // all blocked processes (innermost occurrence per stack).
                let mut best: Option<(u8, u32, Class)> = None;
                for (pid, state) in self.pids.iter().enumerate() {
                    let pid = pid as u32;
                    for c in state.stack.iter().rev() {
                        if let Some(p) = c.idle_priority() {
                            if best.is_none_or(|(bp, bpid, _)| p < bp || (p == bp && pid < bpid)) {
                                best = Some((p, pid, *c));
                            }
                            break;
                        }
                    }
                }
                match best {
                    Some((_, pid, class)) => {
                        *self.cycles.entry((class, pid)).or_default() += cy;
                        let key = self.fold_key(pid, None);
                        *self.folded.entry(key).or_default() += cy;
                    }
                    None => {
                        *self.cycles.entry((Class::UnknownIdle, 0)).or_default() += cy;
                        *self
                            .folded
                            .entry(Class::UnknownIdle.label().to_string())
                            .or_default() += cy;
                        self.unknown_idle += cy;
                    }
                }
                self.attributed += cy;
            }
        }
    }
}

/// The per-simulation trace sink: a bounded event ring plus the online
/// attribution state, guarded by the `enabled` flag.
pub struct Tracer {
    enabled: AtomicBool,
    counters: CounterSet,
    inner: Mutex<Inner>,
}

/// Default ring capacity when enabling without an explicit size.
pub const DEFAULT_RING_CAPACITY: usize = 65_536;

impl Default for Tracer {
    fn default() -> Tracer {
        Tracer::new()
    }
}

impl Tracer {
    /// A disabled tracer (counters still work; events are ignored).
    pub fn new() -> Tracer {
        Tracer {
            enabled: AtomicBool::new(false),
            counters: CounterSet::new(),
            inner: Mutex::new(Inner::new(DEFAULT_RING_CAPACITY)),
        }
    }

    /// Starts recording events into a fresh ring of `capacity` events.
    /// Attribution state is reset too; counters are left running. The
    /// whole ring is allocated up front so recording never reallocates
    /// (disabled tracers — the common case — hold no slab at all).
    pub fn enable(&self, capacity: usize) {
        let mut g = self.inner.lock();
        *g = Inner::new(capacity.max(1));
        let cap = g.capacity;
        g.ring.reserve_exact(cap);
        drop(g);
        self.enabled.store(true, Ordering::Release);
    }

    /// Stops recording (the accumulated state stays readable).
    pub fn disable(&self) {
        self.enabled.store(false, Ordering::Release);
    }

    /// Whether events are being recorded. The disabled fast path of
    /// [`Tracer::record`] is exactly this load.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Acquire)
    }

    /// The always-on counter bank.
    pub fn counters(&self) -> &CounterSet {
        &self.counters
    }

    /// Shorthand for `counters().add(c, n)`.
    #[inline]
    pub fn count(&self, c: Counter, n: u64) {
        self.counters.add(c, n);
    }

    /// Records an event: folds it into attribution, then pushes it into
    /// the ring (counting, never silently eating, overflow drops).
    pub fn record(&self, ev: Event) {
        if !self.is_enabled() {
            return;
        }
        let mut g = self.inner.lock();
        let packed = g.pack(&ev);
        g.apply(packed);
        if g.ring.len() >= g.capacity {
            g.dropped += 1;
            self.counters.add(Counter::TraceDrops, 1);
        } else {
            g.ring.push(packed);
        }
    }

    /// Number of events dropped on ring overflow since the last enable.
    pub fn dropped(&self) -> u64 {
        self.inner.lock().dropped
    }

    /// Number of events currently retained in the ring.
    pub fn retained(&self) -> usize {
        self.inner.lock().ring.len()
    }

    /// The retained event stream rendered one event per line, terminated
    /// by a `dropped N` line — stable bytes for determinism checks.
    pub fn dump(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::new();
        for &ev in &g.ring {
            out.push_str(&g.render(ev));
            out.push('\n');
        }
        out.push_str(&format!("dropped {}\n", g.dropped));
        out
    }

    /// The attribution result so far.
    pub fn profile(&self) -> Profile {
        let g = self.inner.lock();
        let rows = g
            .cycles
            .iter()
            .map(|(&(class, pid), &cycles)| ProfileRow {
                class,
                pid,
                name: g.proc_label(pid),
                cycles,
            })
            .collect();
        Profile {
            rows,
            attributed: g.attributed,
            unknown_idle: g.unknown_idle,
        }
    }

    /// Folded stacks ("proc;span;span cycles" per line, key-sorted) for
    /// flame-graph tooling.
    pub fn folded(&self) -> String {
        let g = self.inner.lock();
        let mut out = String::new();
        for (key, cy) in &g.folded {
            out.push_str(&format!("{key} {cy}\n"));
        }
        out
    }

    /// Folded stacks as a map (for merging into a session).
    pub fn folded_map(&self) -> BTreeMap<String, u64> {
        self.inner.lock().folded.clone()
    }

    /// Per-(class, name) cycles for session merging (pids from different
    /// sims collide, names are the stable key).
    pub fn cycles_by_name(&self) -> BTreeMap<(Class, String), u64> {
        let g = self.inner.lock();
        let mut out: BTreeMap<(Class, String), u64> = BTreeMap::new();
        for (&(class, pid), &cy) in &g.cycles {
            *out.entry((class, g.proc_label(pid))).or_default() += cy;
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(t: u64, pid: u32, kind: EventKind) -> Event {
        Event { t, pid, kind }
    }

    #[test]
    fn disabled_tracer_records_nothing_but_counts() {
        let tr = Tracer::new();
        tr.record(ev(0, 1, EventKind::Charge { cy: 100 }));
        tr.count(Counter::Syscalls, 3);
        assert_eq!(tr.retained(), 0);
        assert_eq!(tr.profile().attributed, 0);
        assert_eq!(tr.counters().get(Counter::Syscalls), 3);
    }

    #[test]
    fn charge_attributes_to_innermost_span() {
        let tr = Tracer::new();
        tr.enable(1024);
        tr.record(ev(0, 1, EventKind::Spawn("worker".into())));
        tr.record(ev(0, 1, EventKind::Enter(Class::TrapEntry)));
        tr.record(ev(0, 1, EventKind::Enter(Class::DataCopy)));
        tr.record(ev(5, 1, EventKind::Charge { cy: 5 }));
        tr.record(ev(5, 1, EventKind::Exit(Class::DataCopy)));
        tr.record(ev(9, 1, EventKind::Charge { cy: 4 }));
        tr.record(ev(9, 1, EventKind::Exit(Class::TrapEntry)));
        tr.record(ev(10, 1, EventKind::Charge { cy: 1 }));
        let p = tr.profile();
        assert_eq!(p.class_total(Class::DataCopy), 5);
        assert_eq!(p.class_total(Class::TrapEntry), 4);
        assert_eq!(p.class_total(Class::User), 1);
        assert_eq!(p.attributed, 10);
        let folded = tr.folded();
        assert!(folded.contains("worker;trap entry;data copy 5"), "{folded}");
        assert!(folded.contains("worker;trap entry 4"), "{folded}");
        assert!(folded.contains("worker;user 1"), "{folded}");
    }

    #[test]
    fn idle_prefers_highest_priority_wait_span() {
        let tr = Tracer::new();
        tr.enable(1024);
        tr.record(ev(0, 1, EventKind::Spawn("client".into())));
        tr.record(ev(0, 2, EventKind::Spawn("nfsd".into())));
        // Client parked in a generic receive, server's disk rotating.
        tr.record(ev(0, 1, EventKind::Enter(Class::NetRecvWait)));
        tr.record(ev(0, 2, EventKind::Enter(Class::DiskRotation)));
        tr.record(ev(50, 0, EventKind::Idle { cy: 50 }));
        let p = tr.profile();
        assert_eq!(p.class_total(Class::DiskRotation), 50);
        assert_eq!(p.class_total(Class::NetRecvWait), 0);
        assert_eq!(p.unknown_idle, 0);
    }

    #[test]
    fn idle_with_no_wait_span_is_counted_unknown() {
        let tr = Tracer::new();
        tr.enable(16);
        tr.record(ev(10, 0, EventKind::Idle { cy: 10 }));
        let p = tr.profile();
        assert_eq!(p.unknown_idle, 10);
        assert_eq!(p.class_total(Class::UnknownIdle), 10);
        assert!(p.coverage(10) < 0.01);
    }

    #[test]
    fn ring_overflow_drops_are_counted_and_attribution_survives() {
        let tr = Tracer::new();
        tr.enable(4);
        for i in 0..10u64 {
            tr.record(ev(i, 1, EventKind::Charge { cy: 1 }));
        }
        assert_eq!(tr.retained(), 4);
        assert_eq!(tr.dropped(), 6);
        assert_eq!(tr.counters().get(Counter::TraceDrops), 6);
        // Attribution is online: every charge counted despite the drops.
        assert_eq!(tr.profile().attributed, 10);
        assert!(tr.dump().ends_with("dropped 6\n"));
    }

    #[test]
    fn dispatch_goes_to_sched_scan() {
        let tr = Tracer::new();
        tr.enable(64);
        tr.record(ev(0, 3, EventKind::Dispatch { cy: 7 }));
        assert_eq!(tr.profile().class_total(Class::SchedScan), 7);
    }

    #[test]
    fn dump_is_deterministic_for_identical_event_sequences() {
        let feed = |tr: &Tracer| {
            tr.enable(128);
            tr.record(ev(0, 1, EventKind::Spawn("a".into())));
            tr.record(ev(2, 1, EventKind::Enter(Class::ProtoCpu)));
            tr.record(ev(5, 1, EventKind::Charge { cy: 3 }));
            tr.record(ev(5, 1, EventKind::Exit(Class::ProtoCpu)));
            tr.record(ev(9, 0, EventKind::Idle { cy: 4 }));
            tr.dump()
        };
        let t1 = Tracer::new();
        let t2 = Tracer::new();
        assert_eq!(feed(&t1), feed(&t2));
    }

    #[test]
    fn enable_resets_state() {
        let tr = Tracer::new();
        tr.enable(2);
        tr.record(ev(0, 1, EventKind::Charge { cy: 1 }));
        tr.record(ev(1, 1, EventKind::Charge { cy: 1 }));
        tr.record(ev(2, 1, EventKind::Charge { cy: 1 }));
        assert_eq!(tr.dropped(), 1);
        tr.enable(8);
        assert_eq!(tr.dropped(), 0);
        assert_eq!(tr.retained(), 0);
        assert_eq!(tr.profile().attributed, 0);
    }
}
