#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Cycle-attributed kernel tracing for the `tnt` simulation.
//!
//! This crate sits *below* `tnt-sim` in the dependency graph: it knows
//! nothing about the engine, only about cycle-stamped events. The engine
//! and the kernel/fs/net/nfs models emit three kinds of information:
//!
//! - **Spans** ([`Class`] enter/exit) bracketing where cycles go — trap
//!   entry, scheduler scan, data copies, disk seek/rotation/media phases,
//!   protocol CPU, delayed-ack/window waits, RPC wire+server time;
//! - **Clock advances** (charge / dispatch-cost / idle-jump), each carrying
//!   the cycles by which the simulated clock moved;
//! - **Counters** ([`Counter`]), always-on atomic tallies (syscalls, cache
//!   hits, retransmits, ...) that cost nothing measurable to bump.
//!
//! The [`Tracer`] folds the event stream *online* into a per-`(Class, pid)`
//! cycle breakdown and folded stacks (flame-graph text), so the bounded
//! event ring can overflow — with every drop counted — without corrupting
//! attribution. Because the simulation clock only moves through the three
//! advance paths, attribution is exact: the attributed total equals the
//! elapsed simulated time, cycle for cycle.
//!
//! The [`session`] module aggregates across many short-lived `Sim`
//! instances (every benchmark in the harness boots its own), which is what
//! `reproduce --profile` consumes.
//!
//! Recording is zero-cost when disabled in the only currency the simulator
//! cares about: a disabled (or enabled!) tracer never moves the simulated
//! clock, and the disabled fast path is a single relaxed atomic load.

mod class;
pub mod session;
mod tracer;

pub use class::{Class, Counter};
pub use session::SessionReport;
pub use tracer::{CounterSet, Event, EventKind, Profile, ProfileRow, Tracer};
