#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]

//! Race detection and schedule exploration for the tnt engine.
//!
//! Two engines, one goal: turn "byte-identical on the seeds we tried"
//! into "output invariant under every legal schedule".
//!
//! * [`detect`] — a TSan-style vector-clock **happens-before checker**
//!   over the simulation's own synchronization edges (spawn, `SimMutex`
//!   release→acquire, wakeup delivery, timer arm→fire, channel
//!   operations). Baton handoffs are scheduler choices, not edges, so
//!   accesses ordered only by "who happened to run first" are reported
//!   as races.
//! * [`fn@explore`] — a loom-style **bounded schedule explorer** that
//!   replays a small scenario under every interleaving (with sleep-set
//!   pruning fed by the detector's footprints) and asserts the outcome
//!   never changes and no schedule deadlocks.
//!
//! The crate is dependency-free and knows nothing about `tnt-sim`; the
//! engine depends on it and
//! re-exports it as `tnt_sim::race`. See `DESIGN.md` §14.

pub mod clock;
pub mod detect;
pub mod explore;

pub use clock::VClock;
pub use detect::{AccessInfo, AccessKind, Detector, Footprint, Loc, Race, SyncId, WakeSrc};
pub use explore::{explore, Choice, ExploreReport, Outcome, RunResult};

use std::sync::atomic::{AtomicBool, Ordering};

/// Ambient arming flag, mirroring `tnt_fault::set_ambient`: the
/// `reproduce` binary sets it once (from `--audit`) before building any
/// simulation, and every `Sim::new` thereafter arms its happens-before
/// detector.
static AMBIENT: AtomicBool = AtomicBool::new(false);

/// Arms (or disarms) the ambient happens-before checker for every
/// simulation constructed after this call.
pub fn set_ambient(armed: bool) {
    AMBIENT.store(armed, Ordering::SeqCst);
}

/// Whether the ambient happens-before checker is armed.
pub fn ambient() -> bool {
    AMBIENT.load(Ordering::SeqCst)
}
