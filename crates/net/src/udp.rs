//! UDP sockets with per-OS protocol costs (Figure 13).
//!
//! Datagrams carry real bytes (the NFS layer XDR-encodes its RPCs into
//! them). Loopback delivery is immediate; a sender that runs far ahead of
//! the receiver yields the CPU once the destination socket buffer is half
//! full, modelling the timeslice preemption that interleaves `ttcp`'s
//! sender and receiver on a single CPU. A full socket buffer drops
//! packets, as real UDP does.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::costs::NetCosts;
use crate::net::{Addr, Net, PortSink, Proto};
use tnt_os::{KEnv, Kernel, SysResult};
use tnt_sim::trace::{Class, Counter};
use tnt_sim::{round_u64, Cycles, Sim, WaitId};

/// Outcome of a timed receive.
pub enum Recv {
    /// A datagram arrived.
    Packet(Packet),
    /// The deadline passed first.
    TimedOut,
    /// The socket is closed and drained.
    Closed,
}

/// A datagram in flight or queued at a socket.
pub struct Packet {
    /// Sender address.
    pub from: Addr,
    /// Payload size in bytes (may exceed `data.len()` for sized-only
    /// traffic such as `ttcp`'s zero-filled packets).
    pub len: u64,
    /// Instant the last fragment arrives (wire time on Ethernet).
    pub available_at: Cycles,
    /// Payload bytes (empty for sized-only traffic).
    pub data: Vec<u8>,
}

struct SockQ {
    packets: VecDeque<Packet>,
    buffered: u64,
    drops: u64,
    closed: bool,
}

pub(crate) struct SockCore {
    q: Mutex<SockQ>,
    rcv_wait: WaitId,
    rcvbuf: u64,
    sim: Sim,
}

impl PortSink for SockCore {
    fn deliver(&self, pkt: Packet) -> Option<u64> {
        let buffered = {
            let mut q = self.q.lock();
            if q.closed || q.buffered + pkt.len > self.rcvbuf {
                q.drops += 1;
                None
            } else {
                q.buffered += pkt.len;
                q.packets.push_back(pkt);
                Some(q.buffered)
            }
        };
        if buffered.is_some() {
            self.sim.wakeup_one(self.rcv_wait);
        }
        buffered
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A bound UDP socket.
pub struct UdpSocket {
    net: Net,
    addr: Addr,
    env: KEnv,
    costs: NetCosts,
    core: Arc<SockCore>,
}

impl UdpSocket {
    /// Binds a socket on `kernel`'s machine (`host` is that machine's id
    /// on `net`) at `port`.
    pub fn bind(net: &Net, kernel: &Kernel, host: u32, port: u16) -> SysResult<Arc<UdpSocket>> {
        let env = kernel.env().clone();
        let costs = NetCosts::for_os(kernel.costs().os);
        let core = Arc::new(SockCore {
            q: Mutex::new(SockQ {
                packets: VecDeque::new(),
                buffered: 0,
                drops: 0,
                closed: false,
            }),
            rcv_wait: env.sim.new_queue(),
            rcvbuf: costs.udp.rcvbuf,
            sim: env.sim.clone(),
        });
        let addr = Addr { host, port };
        net.bind(addr, Proto::Udp, core.clone())?;
        Ok(Arc::new(UdpSocket {
            net: net.clone(),
            addr,
            env,
            costs,
            core,
        }))
    }

    /// The socket's own address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Packets dropped at this socket for lack of buffer space.
    pub fn drops(&self) -> u64 {
        self.core.q.lock().drops
    }

    fn charge_syscall(&self) {
        let c = &self.env.costs;
        let _t = self.env.sim.span(Class::TrapEntry);
        self.env
            .sim
            .charge(Cycles(c.trap_cy + c.syscall_overhead_cy));
    }

    /// Sends a datagram carrying `data` to `to`.
    pub async fn send_to(&self, to: Addr, data: Vec<u8>) -> SysResult<u64> {
        self.send_padded(to, data, 0).await
    }

    /// Sends a zero-filled datagram of `len` bytes (bulk benchmarks).
    pub async fn send_sized(&self, to: Addr, len: u64) -> SysResult<u64> {
        self.send_padded(to, Vec::new(), len).await
    }

    /// Sends `data` plus `pad` extra payload bytes that are modelled but
    /// not materialised (an NFS write RPC: small header, large payload).
    /// The body of every send form; only the loopback backpressure yield
    /// suspends it.
    pub async fn send_padded(&self, to: Addr, data: Vec<u8>, pad: u64) -> SysResult<u64> {
        let len = data.len() as u64 + pad;
        self.charge_syscall();
        let u = &self.costs.udp;
        let frags = len.div_ceil(u.mtu).max(1);
        self.env.sim.count(Counter::UdpDatagrams, 1);
        {
            let _s = self.env.sim.span(Class::ProtoCpu);
            self.env.sim.charge(Cycles(
                u.send_fixed_cy
                    + u.per_frag_cy * frags
                    + round_u64(u.send_per_byte_cy * len as f64),
            ));
        }
        // Failure injection: a lost frame still consumed wire time.
        let mut available_at = self.net.transit(&self.env, self.addr.host, to.host, len);
        if self.net.frame_lost(&self.env, self.addr.host, to.host) {
            return Ok(len);
        }
        let cross_host = to.host != self.addr.host;
        if cross_host && self.env.sim.faults().net_delay() {
            // Fault plane: the frame queues behind a burst of alien
            // traffic and arrives about one maximum frame time late.
            self.env.sim.count(Counter::NetLateFrames, 1);
            available_at += self.net.max_frame_time();
        }
        // Fault plane: link-layer duplication — the same datagram crosses
        // the wire twice and the receiver sees both copies (the RPC layer
        // must tolerate this; the server's duplicate-request cache does).
        let duplicate = cross_host && self.env.sim.faults().net_dup();
        let dup_data = if duplicate { data.clone() } else { Vec::new() };
        let buffered = match self.net.sink_for(to, Proto::Udp) {
            // No listener: the packet vanishes, as UDP packets do.
            None => return Ok(len),
            Some(sink) => sink.deliver(Packet {
                from: self.addr,
                len,
                available_at,
                data,
            }),
        };
        if duplicate {
            self.env.sim.count(Counter::NetDupFrames, 1);
            let dup_at = self.net.transit(&self.env, self.addr.host, to.host, len);
            if let Some(sink) = self.net.sink_for(to, Proto::Udp) {
                let _ = sink.deliver(Packet {
                    from: self.addr,
                    len,
                    available_at: dup_at,
                    data: dup_data,
                });
            }
        }
        if let Some(buffered) = buffered {
            // Loopback backpressure: once the peer's buffer is half full,
            // yield so the receiver's timeslice can drain it (models the
            // scheduler preemption that interleaves ttcp's processes).
            if to.host == self.addr.host && buffered > u.rcvbuf / 2 {
                self.env.sim.yield_now().await;
            }
        }
        Ok(len)
    }

    /// Receives one datagram, blocking until one is available. Returns
    /// `None` once the socket is closed and drained.
    pub async fn recv(&self) -> SysResult<Option<Packet>> {
        match self.recv_inner(None).await? {
            Recv::Packet(p) => Ok(Some(p)),
            Recv::Closed => Ok(None),
            Recv::TimedOut => unreachable!("no timeout was set"),
        }
    }

    /// Like [`UdpSocket::recv`] with a deadline — the RPC retransmission
    /// primitive.
    pub async fn recv_timeout(&self, timeout: tnt_sim::Cycles) -> SysResult<Recv> {
        self.recv_inner(Some(timeout)).await
    }

    /// The body of every receive form; `timeout` bounds the wait.
    async fn recv_inner(&self, timeout: Option<tnt_sim::Cycles>) -> SysResult<Recv> {
        self.charge_syscall();
        let deadline = timeout.map(|t| self.env.sim.now() + t);
        loop {
            enum StepOutcome {
                Got(Packet),
                Closed,
                WaitUntil(Cycles),
                Wait,
            }
            let step = {
                let mut q = self.core.q.lock();
                match q.packets.front() {
                    Some(pkt) if pkt.available_at > self.env.sim.now() => {
                        StepOutcome::WaitUntil(pkt.available_at)
                    }
                    Some(_) => {
                        let pkt = q.packets.pop_front().expect("front checked");
                        q.buffered -= pkt.len;
                        StepOutcome::Got(pkt)
                    }
                    None if q.closed => StepOutcome::Closed,
                    None => StepOutcome::Wait,
                }
            };
            match step {
                StepOutcome::Got(pkt) => {
                    let u = &self.costs.udp;
                    let _s = self.env.sim.span(Class::ProtoCpu);
                    self.env.sim.charge(Cycles(
                        u.recv_fixed_cy + round_u64(u.recv_per_byte_cy * pkt.len as f64),
                    ));
                    return Ok(Recv::Packet(pkt));
                }
                StepOutcome::Closed => return Ok(Recv::Closed),
                StepOutcome::WaitUntil(at) => {
                    let _w = self.env.sim.span(Class::WireTransit);
                    match deadline {
                        Some(d) if d < at => {
                            if self.env.sim.now() < d {
                                self.env.sim.sleep_until(d).await;
                            }
                            return Ok(Recv::TimedOut);
                        }
                        _ => self.env.sim.sleep_until(at).await,
                    }
                }
                StepOutcome::Wait => {
                    let _w = self.env.sim.span(Class::NetRecvWait);
                    match deadline {
                        Some(d) => {
                            let left = d.saturating_sub(self.env.sim.now());
                            if left == Cycles::ZERO
                                || !self
                                    .env
                                    .sim
                                    .wait_on_timeout(self.core.rcv_wait, left, "udp recv (timed)")
                                    .await
                            {
                                return Ok(Recv::TimedOut);
                            }
                        }
                        None => self.env.sim.wait_on(self.core.rcv_wait, "udp recv").await,
                    }
                }
            }
        }
    }

    /// Closes the socket: wakes blocked receivers, unbinds the port.
    pub fn close(&self) {
        {
            let mut q = self.core.q.lock();
            q.closed = true;
        }
        self.env.sim.wakeup_all(self.core.rcv_wait);
        self.net.unbind(self.addr, Proto::Udp);
    }
}

impl Drop for UdpSocket {
    fn drop(&mut self) {
        self.net.unbind(self.addr, Proto::Udp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::{boot, Errno, Os};

    fn setup(os: Os) -> (tnt_sim::Sim, Kernel, Net) {
        let (sim, kernel) = boot(os, 0);
        let net = Net::ethernet_10mbit();
        net.register_host(&kernel);
        (sim, kernel, net)
    }

    #[test]
    fn datagrams_round_trip_with_data() {
        let (sim, kernel, net) = setup(Os::FreeBsd);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("pair", move |p| async move {
            let a = UdpSocket::bind(&n2, &k2, 0, 1000).unwrap();
            let b = UdpSocket::bind(&n2, &k2, 0, 2000).unwrap();
            let b2 = b.clone();
            p.fork("receiver", move |_| async move {
                let pkt = b2.recv().await.unwrap().unwrap();
                assert_eq!(pkt.data, b"ping");
                assert_eq!(pkt.from.port, 1000);
            });
            a.send_to(
                Addr {
                    host: 0,
                    port: 2000,
                },
                b"ping".to_vec(),
            )
            .await
            .unwrap();
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn packets_preserve_order() {
        let (sim, kernel, net) = setup(Os::Linux);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("pair", move |p| async move {
            let tx = UdpSocket::bind(&n2, &k2, 0, 1).unwrap();
            let rx = UdpSocket::bind(&n2, &k2, 0, 2).unwrap();
            for i in 0..10u8 {
                tx.send_to(Addr { host: 0, port: 2 }, vec![i])
                    .await
                    .unwrap();
            }
            for i in 0..10u8 {
                let pkt = rx.recv().await.unwrap().unwrap();
                assert_eq!(pkt.data, vec![i]);
            }
            let _ = p;
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn overflow_drops_packets() {
        let (sim, kernel, net) = setup(Os::FreeBsd);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("flood", move |_| async move {
            let tx = UdpSocket::bind(&n2, &k2, 0, 1).unwrap();
            let rx = UdpSocket::bind(&n2, &k2, 0, 2).unwrap();
            // No receiver process: 9 x 8 KB overflows the 64 KB buffer.
            for _ in 0..9 {
                tx.send_sized(Addr { host: 0, port: 2 }, 8192)
                    .await
                    .unwrap();
            }
            assert_eq!(rx.drops(), 1);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn send_to_unbound_port_vanishes() {
        let (sim, kernel, net) = setup(Os::Solaris);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("lost", move |_| async move {
            let tx = UdpSocket::bind(&n2, &k2, 0, 1).unwrap();
            assert_eq!(
                tx.send_sized(Addr { host: 0, port: 99 }, 100)
                    .await
                    .unwrap(),
                100
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn double_bind_is_eaddrinuse() {
        let (sim, kernel, net) = setup(Os::Linux);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("bind2", move |_| async move {
            let _a = UdpSocket::bind(&n2, &k2, 0, 7).unwrap();
            assert_eq!(
                UdpSocket::bind(&n2, &k2, 0, 7).err(),
                Some(Errno::EADDRINUSE)
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn close_unblocks_receiver() {
        let (sim, kernel, net) = setup(Os::FreeBsd);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("main", move |p| async move {
            let rx = UdpSocket::bind(&n2, &k2, 0, 5).unwrap();
            let rx2 = rx.clone();
            let child = p.fork("receiver", move |_| async move {
                assert!(rx2.recv().await.unwrap().is_none(), "close delivers EOF");
            });
            p.compute(Cycles(10_000));
            rx.close();
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn cross_host_packets_pay_wire_time() {
        let (sim, kernels) = tnt_os::boot_cluster(&[Os::FreeBsd, Os::SunOs], 0);
        let net = Net::ethernet_10mbit();
        net.register_host(&kernels[0]);
        net.register_host(&kernels[1]);
        // Bind both endpoints before either process runs so the client's
        // first send cannot race the server's bind.
        let rx = UdpSocket::bind(&net, &kernels[1], 1, 2049).unwrap();
        let tx = UdpSocket::bind(&net, &kernels[0], 0, 1000).unwrap();
        let done = Arc::new(Mutex::new(0.0f64));
        let d2 = done.clone();
        kernels[1].spawn_user("server", move |p| async move {
            let pkt = rx.recv().await.unwrap().unwrap();
            assert_eq!(pkt.len, 8192);
            *d2.lock() = p.sim().now().as_millis();
        });
        kernels[0].spawn_user("client", move |_| async move {
            tx.send_sized(
                Addr {
                    host: 1,
                    port: 2049,
                },
                8192,
            )
            .await
            .unwrap();
        });
        let _ = sim.run().unwrap();
        // 8 KB at 10 Mb/s is ~6.6 ms of wire time.
        let ms = *done.lock();
        assert!(ms > 6.0, "cross-host packet had to cross the wire: {ms}ms");
    }
}
