//! The network fabric: host registry, the loopback path and the shared
//! 10 Mb/s Ethernet.
//!
//! The paper runs pipe/UDP/TCP benchmarks over the loopback interface to
//! measure protocol-stack efficiency without wire effects, and the NFS
//! experiments over a real 10 Mb/s Ethernet (3Com 3c509). Both paths are
//! modelled here: loopback delivery is immediate (cost lives in the
//! protocol stacks); Ethernet transmissions serialise on the shared wire
//! at 10 Mb/s plus framing overhead.

#[expect(
    clippy::disallowed_types,
    reason = "port bindings are keyed lookup/insert/remove only, never iterated"
)]
use std::collections::HashMap;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::costs::NetCosts;
use tnt_os::{KEnv, Kernel};
use tnt_sim::Cycles;

/// A network endpoint address: (host id, port).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Addr {
    /// Host id returned by [`Net::register_host`].
    pub host: u32,
    /// Port number.
    pub port: u16,
}

/// Transport protocol, used to key port bindings.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Proto {
    /// User datagrams.
    Udp,
    /// Byte streams.
    Tcp,
}

/// Bytes of Ethernet framing per packet (header + CRC + preamble + gap).
pub const ETHER_FRAMING: u64 = 38;

pub(crate) struct HostEntry {
    pub costs: NetCosts,
}

struct Ether {
    /// Wire speed in bits per second (0 = no wire, loopback only).
    bps: f64,
    busy_until: Cycles,
    /// Frames dropped by the wire so far.
    dropped: u64,
}

/// Key of a port binding: (host, port, protocol).
type BindKey = (u32, u16, Proto);

pub(crate) struct NetInner {
    pub hosts: Mutex<Vec<HostEntry>>,
    ether: Mutex<Ether>,
    #[expect(
        clippy::disallowed_types,
        reason = "keyed lookup only; results never depend on map order"
    )]
    pub bindings: Mutex<HashMap<BindKey, Arc<dyn PortSink>>>,
}

/// Something bound to a port that accepts incoming packets. Implemented
/// by the UDP socket core and the TCP listener/connection demultiplexers.
pub(crate) trait PortSink: Send + Sync {
    /// Delivers a packet; returns the receiver's buffered byte count
    /// after delivery, or `None` if the packet had to be dropped.
    fn deliver(&self, pkt: crate::udp::Packet) -> Option<u64>;

    /// Concrete-type access for the TCP connect path.
    fn as_any(&self) -> &dyn std::any::Any;
}

/// A simulated network connecting one or more hosts.
#[derive(Clone)]
pub struct Net {
    pub(crate) inner: Arc<NetInner>,
}

impl Net {
    /// A network whose cross-host wire is a 10 Mb/s Ethernet.
    pub fn ethernet_10mbit() -> Net {
        Net::with_wire(10_000_000.0)
    }

    /// A network with a custom wire speed (bits/second); loopback traffic
    /// never touches the wire.
    pub fn with_wire(bps: f64) -> Net {
        Net {
            inner: Arc::new(NetInner {
                hosts: Mutex::new(Vec::new()),
                ether: Mutex::new(Ether {
                    bps,
                    busy_until: Cycles::ZERO,
                    dropped: 0,
                }),
                #[expect(clippy::disallowed_types, reason = "see NetInner::bindings")]
                bindings: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Frames the lossy wire has dropped so far.
    pub fn dropped_frames(&self) -> u64 {
        self.inner.ether.lock().dropped
    }

    /// Rolls the fault plane's `net_drop` for one cross-host frame (true
    /// = lost; loopback traffic is never lost). The roll draws from the
    /// fault plane's own salted stream, so it never perturbs the
    /// simulation RNG, and with faults off it draws nothing at all.
    pub(crate) fn frame_lost(&self, env: &KEnv, from: u32, to: u32) -> bool {
        if from == to || !env.sim.faults().net_drop() {
            return false;
        }
        self.inner.ether.lock().dropped += 1;
        true
    }

    /// Registers a machine on this network and returns its host id.
    pub fn register_host(&self, kernel: &Kernel) -> u32 {
        let mut hosts = self.inner.hosts.lock();
        hosts.push(HostEntry {
            costs: NetCosts::for_os(kernel.costs().os),
        });
        (hosts.len() - 1) as u32
    }

    pub(crate) fn host_costs(&self, host: u32) -> NetCosts {
        self.inner.hosts.lock()[host as usize].costs
    }

    /// Reserves wire time for a cross-host frame of `bytes` payload and
    /// returns its arrival instant. Loopback (same host) returns `now`.
    pub(crate) fn transit(&self, env: &KEnv, from: u32, to: u32, bytes: u64) -> Cycles {
        let now = env.sim.now();
        if from == to {
            return now;
        }
        let mut ether = self.inner.ether.lock();
        let start = now.max(ether.busy_until);
        let tx_secs = (bytes + ETHER_FRAMING) as f64 * 8.0 / ether.bps;
        ether.busy_until = start + Cycles::from_secs(tx_secs);
        ether.busy_until
    }

    /// Wire time of one maximum-size frame (MTU payload plus framing) —
    /// the unit of fault-injected delivery delay. Zero on a wireless
    /// (loopback-only) network.
    pub(crate) fn max_frame_time(&self) -> Cycles {
        let bps = self.inner.ether.lock().bps;
        if bps <= 0.0 {
            return Cycles::ZERO;
        }
        Cycles::from_secs((1500 + ETHER_FRAMING) as f64 * 8.0 / bps)
    }

    pub(crate) fn bind(
        &self,
        addr: Addr,
        proto: Proto,
        sink: Arc<dyn PortSink>,
    ) -> Result<(), tnt_os::Errno> {
        let mut b = self.inner.bindings.lock();
        if b.contains_key(&(addr.host, addr.port, proto)) {
            return Err(tnt_os::Errno::EADDRINUSE);
        }
        b.insert((addr.host, addr.port, proto), sink);
        Ok(())
    }

    pub(crate) fn unbind(&self, addr: Addr, proto: Proto) {
        self.inner
            .bindings
            .lock()
            .remove(&(addr.host, addr.port, proto));
    }

    pub(crate) fn sink_for(&self, addr: Addr, proto: Proto) -> Option<Arc<dyn PortSink>> {
        self.inner
            .bindings
            .lock()
            .get(&(addr.host, addr.port, proto))
            .cloned()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::{boot, Os};

    #[test]
    fn loopback_transit_is_immediate() {
        let (sim, kernel) = boot(Os::Linux, 0);
        let net = Net::ethernet_10mbit();
        net.register_host(&kernel);
        let env = kernel.env().clone();
        let n2 = net.clone();
        kernel.spawn_user("t", move |p| async move {
            let arrival = n2.transit(&env, 0, 0, 1500);
            assert_eq!(arrival, p.sim().now());
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn ethernet_serialises_frames() {
        let (sim, kernels) = tnt_os::boot_cluster(&[Os::Linux, Os::SunOs], 0);
        let net = Net::ethernet_10mbit();
        net.register_host(&kernels[0]);
        net.register_host(&kernels[1]);
        let env = kernels[0].env().clone();
        let n2 = net.clone();
        kernels[0].spawn_user("t", move |p| async move {
            let a1 = n2.transit(&env, 0, 1, 1500);
            let a2 = n2.transit(&env, 0, 1, 1500);
            // 1538 bytes at 10 Mb/s is ~1.23 ms per frame, back to back.
            let per_frame_us = 1538.0 * 8.0 / 10.0; // = 1230.4 us
            assert!((a1 - p.sim().now()).as_micros() - per_frame_us < 1.0);
            assert!(((a2 - a1).as_micros() - per_frame_us).abs() < 1.0);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn host_registration_and_costs() {
        let (_sim, kernels) = tnt_os::boot_cluster(&[Os::FreeBsd, Os::SunOs], 0);
        let net = Net::ethernet_10mbit();
        assert_eq!(net.register_host(&kernels[0]), 0);
        assert_eq!(net.register_host(&kernels[1]), 1);
        assert_eq!(net.host_costs(0).tcp.mss, 1460);
    }
}
