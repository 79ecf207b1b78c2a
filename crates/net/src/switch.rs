//! The multi-host switched topology: per-host access links joined by a
//! store-and-forward switch.
//!
//! The flat [`crate::Net`] Ethernet serialises every cross-host frame on
//! one shared wire — faithful to the paper's two-machine NFS rig, but
//! wrong for a server farm, where N clients each own their access link
//! and only contend at the server's port. This module models that shape:
//! every host gets an uplink (host → switch) and a downlink (switch →
//! host), each with its own bandwidth serialisation and a bounded
//! drop-tail queue. A frame from A to B transmits on A's uplink, then on
//! B's downlink; many clients sending at once overrun the server's
//! downlink queue and the tail frames are dropped, exactly the loss mode
//! an overloaded 1995 server showed.
//!
//! The switch composes with the fault plane: with `--faults lossy`
//! armed, each frame also rolls the plane's salted `net_drop` stream, so
//! degraded-mode capacity curves stay deterministic per seed.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::net::ETHER_FRAMING;
use tnt_sim::{Cycles, Sim};

/// Frame payload bytes (Ethernet MTU); larger sends are fragmented.
pub const SWITCH_MTU: u64 = 1500;

/// One direction of one host's access link.
struct Link {
    bps: f64,
    busy_until: Cycles,
    /// Completion instants of frames accepted but not yet transmitted —
    /// monotone, pruned lazily; its length is the drop-tail occupancy.
    backlog: VecDeque<Cycles>,
    cap: usize,
    dropped: u64,
}

impl Link {
    fn new(bps: f64, cap: usize) -> Link {
        Link {
            bps,
            busy_until: Cycles::ZERO,
            backlog: VecDeque::new(),
            cap,
            dropped: 0,
        }
    }

    /// Admits one frame arriving at instant `at`: serialises it after
    /// the link's current backlog and returns its completion instant, or
    /// `None` (drop-tail) if the queue is full at `at`.
    fn admit(&mut self, at: Cycles, bytes: u64) -> Option<Cycles> {
        while self.backlog.front().is_some_and(|&done| done <= at) {
            self.backlog.pop_front();
        }
        if self.backlog.len() >= self.cap {
            self.dropped += 1;
            return None;
        }
        let start = at.max(self.busy_until);
        let tx_secs = (bytes + ETHER_FRAMING) as f64 * 8.0 / self.bps;
        let done = start + Cycles::from_secs(tx_secs);
        self.busy_until = done;
        self.backlog.push_back(done);
        Some(done)
    }
}

/// Outcome of a [`Switch::send`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Delivery {
    /// Every frame got through; the payload is complete at the
    /// destination host at this instant.
    Delivered(Cycles),
    /// At least one frame was dropped — by a full drop-tail queue or the
    /// fault plane. Nothing arrives; the sender's timeout is the only
    /// signal, as on a real wire.
    Dropped,
}

struct SwitchState {
    up: Vec<Link>,
    down: Vec<Link>,
    fault_drops: u64,
}

/// A store-and-forward switch joining `hosts` access links.
///
/// Host ids are the farm's own logical numbering (0-based, assigned by
/// the caller); they are unrelated to [`crate::Net::register_host`] ids.
/// All state sits behind one mutex, and the baton engine runs one
/// process at a time, so admissions happen in simulated-time order and
/// same-seed runs are byte-identical.
#[derive(Clone)]
pub struct Switch {
    inner: Arc<Mutex<SwitchState>>,
}

impl Switch {
    /// A switch with `hosts` access links of `bps` bits/second each and
    /// `queue_frames` frames of drop-tail buffering per link direction.
    pub fn new(hosts: usize, bps: f64, queue_frames: usize) -> Switch {
        assert!(hosts > 0 && bps > 0.0 && queue_frames > 0);
        Switch {
            inner: Arc::new(Mutex::new(SwitchState {
                up: (0..hosts).map(|_| Link::new(bps, queue_frames)).collect(),
                down: (0..hosts).map(|_| Link::new(bps, queue_frames)).collect(),
                fault_drops: 0,
            })),
        }
    }

    /// Sends `bytes` of payload from host `from` to host `to`,
    /// fragmenting at [`SWITCH_MTU`]. Each frame serialises on the
    /// sender's uplink and then the receiver's downlink; a full queue or
    /// a fault-plane loss drops the whole send. Same-host sends are
    /// loopback: delivered now, no wire.
    pub fn send(&self, sim: &Sim, from: u32, to: u32, bytes: u64) -> Delivery {
        let now = sim.now();
        if from == to {
            return Delivery::Delivered(now);
        }
        let mut st = self.inner.lock();
        let mut arrival = now;
        let mut left = bytes.max(1);
        while left > 0 {
            let frame = left.min(SWITCH_MTU);
            left -= frame;
            // Fault plane first: its salted stream draws nothing when the
            // profile is off, keeping off-runs byte-identical.
            if sim.faults().net_drop() {
                st.fault_drops += 1;
                return Delivery::Dropped;
            }
            let Some(at_switch) = st.up[from as usize].admit(now, frame) else {
                return Delivery::Dropped;
            };
            let Some(at_host) = st.down[to as usize].admit(at_switch, frame) else {
                return Delivery::Dropped;
            };
            arrival = arrival.max(at_host);
        }
        Delivery::Delivered(arrival)
    }

    /// Frames dropped by full drop-tail queues so far, both directions.
    pub fn queue_drops(&self) -> u64 {
        let st = self.inner.lock();
        st.up.iter().chain(st.down.iter()).map(|l| l.dropped).sum()
    }

    /// Frames dropped by the fault plane so far.
    pub fn fault_drops(&self) -> u64 {
        self.inner.lock().fault_drops
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::{boot, boot_cluster_with_faults, Os};
    use tnt_sim::fault::FaultProfile;

    /// 10 Mb/s wire time for one MTU payload, in cycles.
    fn frame_cy() -> u64 {
        Cycles::from_secs((SWITCH_MTU + ETHER_FRAMING) as f64 * 8.0 / 10e6).0
    }

    #[test]
    fn frames_serialise_per_link() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let sw = Switch::new(3, 10e6, 64);
        kernel.spawn_user("t", move |p| async move {
            let s = p.sim();
            let f = frame_cy();
            let t0 = s.now().0; // boot charges land before we run
                                // Two sends from host 0: back to back on 0's uplink.
            let a = sw.send(s, 0, 2, SWITCH_MTU);
            let b = sw.send(s, 0, 2, SWITCH_MTU);
            assert_eq!(a, Delivery::Delivered(Cycles(t0 + 2 * f)));
            assert_eq!(b, Delivery::Delivered(Cycles(t0 + 3 * f)));
            // A send from host 1 rides its own idle uplink but queues
            // behind both on host 2's downlink.
            let c = sw.send(s, 1, 2, SWITCH_MTU);
            assert_eq!(c, Delivery::Delivered(Cycles(t0 + 4 * f)));
            // The reverse direction is independent of all of the above.
            let d = sw.send(s, 2, 0, SWITCH_MTU);
            assert_eq!(d, Delivery::Delivered(Cycles(t0 + 2 * f)));
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn loopback_is_immediate_and_free() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let sw = Switch::new(2, 10e6, 4);
        kernel.spawn_user("t", move |p| async move {
            let s = p.sim();
            for _ in 0..100 {
                assert_eq!(sw.send(s, 1, 1, 64 * 1024), Delivery::Delivered(s.now()));
            }
            // The wire never saw any of it.
            let t0 = s.now().0;
            assert_eq!(
                sw.send(s, 0, 1, SWITCH_MTU),
                Delivery::Delivered(Cycles(t0 + 2 * frame_cy()))
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn full_queues_drop_the_tail() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let sw = Switch::new(4, 10e6, 2);
        let sw2 = sw.clone();
        kernel.spawn_user("t", move |p| async move {
            let s = p.sim();
            // Three clients flood host 3's downlink (cap 2 per link
            // direction): uplinks hold 2 frames each, the downlink
            // overflows.
            let mut delivered = 0;
            let mut dropped = 0;
            for from in 0..3u32 {
                for _ in 0..2 {
                    match sw2.send(s, from, 3, SWITCH_MTU) {
                        Delivery::Delivered(_) => delivered += 1,
                        Delivery::Dropped => dropped += 1,
                    }
                }
            }
            assert_eq!(delivered + dropped, 6);
            assert!(dropped > 0, "overload must overflow the drop-tail queue");
            assert_eq!(sw2.queue_drops(), dropped);
        });
        let _ = sim.run().unwrap();
        assert_eq!(sw.fault_drops(), 0);
    }

    #[test]
    fn queues_drain_with_time() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let sw = Switch::new(2, 10e6, 2);
        kernel.spawn_user("t", move |p| async move {
            let s = p.sim();
            let t0 = s.now().0;
            assert_eq!(
                sw.send(s, 0, 1, SWITCH_MTU),
                Delivery::Delivered(Cycles(t0 + 2 * frame_cy()))
            );
            assert_eq!(
                sw.send(s, 0, 1, SWITCH_MTU),
                Delivery::Delivered(Cycles(t0 + 3 * frame_cy()))
            );
            assert_eq!(
                sw.send(s, 0, 1, SWITCH_MTU),
                Delivery::Dropped,
                "uplink full"
            );
            // Once the backlog transmits, the link accepts again.
            s.sleep(Cycles(4 * frame_cy())).await;
            assert!(matches!(
                sw.send(s, 0, 1, SWITCH_MTU),
                Delivery::Delivered(_)
            ));
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn multi_frame_sends_fragment_at_the_mtu() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let sw = Switch::new(2, 10e6, 64);
        kernel.spawn_user("t", move |p| async move {
            let s = p.sim();
            // 4000 bytes = 2 full frames + 1 of 1000 bytes. Store and
            // forward: the downlink re-serialises every fragment, so the
            // tail fragment arrives after three full-frame times (the
            // downlink is still moving fragment 2 when it shows up) plus
            // its own transmission.
            let full_secs = (1500.0 + 38.0) * 8.0 / 10e6;
            let last_secs = (1000.0 + 38.0) * 8.0 / 10e6;
            let want = s.now() + Cycles::from_secs(3.0 * full_secs) + Cycles::from_secs(last_secs);
            match sw.send(s, 0, 1, 4000) {
                Delivery::Delivered(at) => {
                    let got = at.0 as i64;
                    assert!((got - want.0 as i64).abs() <= 2, "{got} vs {}", want.0);
                }
                Delivery::Dropped => panic!("nothing should drop"),
            }
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn fault_plane_losses_are_counted_and_deterministic() {
        let run = || {
            let profile = FaultProfile {
                net_drop: 0.2,
                ..FaultProfile::off()
            };
            let (sim, kernels) = boot_cluster_with_faults(&[Os::Linux], 7, profile);
            let sw = Switch::new(2, 10e6, 64);
            let sw2 = sw.clone();
            kernels[0].spawn_user("t", move |p| async move {
                let s = p.sim();
                for _ in 0..200 {
                    let _ = sw2.send(s, 0, 1, SWITCH_MTU);
                    s.sleep(Cycles(frame_cy())).await;
                }
            });
            let _ = sim.run().unwrap();
            sw.fault_drops()
        };
        let (a, b) = (run(), run());
        assert_eq!(a, b, "same-seed loss pattern must repeat");
        assert!(a > 10 && a < 90, "0.2 loss over 200 frames, got {a}");
    }
}
