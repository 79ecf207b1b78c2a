//! TCP streams with per-OS window behaviour (Table 5).
//!
//! The implementation models what matters for loopback bandwidth: data
//! moves in MSS-sized segments against a fixed window of unacknowledged
//! bytes. The receiver acknowledges as it consumes, releasing the window.
//! Linux 1.2.8's window is a single packet (Section 9.3), so its sender
//! stalls for a full scheduling round trip per segment — the 0.38x of
//! Table 5. FreeBSD and Solaris stream against multi-segment windows and
//! are limited by per-byte protocol cost instead.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::costs::TcpCosts;
use crate::net::{Addr, Net, PortSink, Proto};
use crate::udp::Packet;
use tnt_os::{Errno, KEnv, Kernel, SysResult};
use tnt_sim::trace::{Class, Counter};
use tnt_sim::{round_u64, Cycles, Sim, WaitId};

struct Seg {
    len: u64,
    available_at: Cycles,
}

/// Retransmission timeout charged when the fault plane drops a cross-host
/// segment: the era's BSD timers fired at 500 ms granularity.
const TCP_RTO: Cycles = Cycles(50_000_000);

struct DirState {
    segs: VecDeque<Seg>,
    /// Bytes sent and not yet consumed+acked.
    inflight: u64,
    /// Sender finished (EOF for the reader).
    fin: bool,
    /// Receiver is gone (`close(2)`): further sends get EPIPE/RST.
    receiver_gone: bool,
}

/// One direction of a connection: a windowed byte conduit.
struct TcpDir {
    state: Mutex<DirState>,
    window: u64,
    rd_wait: WaitId,
    wr_wait: WaitId,
}

impl TcpDir {
    fn new(sim: &Sim, window: u64) -> Arc<TcpDir> {
        Arc::new(TcpDir {
            state: Mutex::new(DirState {
                segs: VecDeque::new(),
                inflight: 0,
                fin: false,
                receiver_gone: false,
            }),
            window,
            rd_wait: sim.new_queue(),
            wr_wait: sim.new_queue(),
        })
    }
}

/// One end of an established TCP connection.
pub struct TcpStream {
    net: Net,
    env: KEnv,
    costs: TcpCosts,
    local_host: u32,
    peer_host: u32,
    tx: Arc<TcpDir>,
    rx: Arc<TcpDir>,
}

impl TcpStream {
    fn charge_syscall(&self) {
        let c = &self.env.costs;
        let _t = self.env.sim.span(Class::TrapEntry);
        self.env
            .sim
            .charge(Cycles(c.trap_cy + c.syscall_overhead_cy));
    }

    /// Writes `len` bytes to the stream, blocking on the send window.
    pub async fn write(&self, len: u64) -> SysResult<u64> {
        self.charge_syscall();
        let mut sent = 0;
        while sent < len {
            let chunk = (len - sent).min(self.costs.mss);
            loop {
                let fits = {
                    let mut st = self.tx.state.lock();
                    if st.fin || st.receiver_gone {
                        return Err(Errno::EPIPE);
                    }
                    if st.inflight + chunk <= self.tx.window {
                        st.inflight += chunk;
                        true
                    } else {
                        false
                    }
                };
                if fits {
                    let mut available_at =
                        self.net
                            .transit(&self.env, self.local_host, self.peer_host, chunk);
                    if self.local_host != self.peer_host && self.env.sim.faults().net_drop() {
                        // Fault plane: the segment was lost on the wire.
                        // TCP is reliable, so the loss surfaces as latency:
                        // the sender idles one RTO, then the segment
                        // crosses the (re-reserved) wire again.
                        self.env.sim.count(Counter::TcpRetransmits, 1);
                        {
                            let _w = self.env.sim.span(Class::AckWindowWait);
                            self.env.sim.sleep(TCP_RTO).await;
                        }
                        available_at =
                            self.net
                                .transit(&self.env, self.local_host, self.peer_host, chunk);
                    }
                    self.tx.state.lock().segs.push_back(Seg {
                        len: chunk,
                        available_at,
                    });
                    break;
                }
                // A window-limited sender sits here until the receiver's
                // (possibly delayed) acknowledgment arrives — the stall
                // the T5 profile attributes Linux's 0.38x to.
                let _w = self.env.sim.span(Class::AckWindowWait);
                self.env
                    .sim
                    .wait_on(self.tx.wr_wait, "tcp send window")
                    .await;
            }
            self.env.sim.count(Counter::TcpSegments, 1);
            {
                let _s = self.env.sim.span(Class::ProtoCpu);
                self.env.sim.charge(Cycles(
                    self.costs.send_seg_cy + round_u64(self.costs.send_per_byte_cy * chunk as f64),
                ));
            }
            self.env.sim.wakeup_one(self.tx.rd_wait);
            sent += chunk;
        }
        Ok(sent)
    }

    /// Reads up to `max` bytes; returns 0 at end of stream. Consuming
    /// data acknowledges it and reopens the peer's send window.
    pub async fn read(&self, max: u64) -> SysResult<u64> {
        self.charge_syscall();
        loop {
            enum StepOutcome {
                Got { bytes: u64, nsegs: u64 },
                Eof,
                WaitUntil(Cycles),
                Wait,
            }
            let step = {
                let mut st = self.rx.state.lock();
                match st.segs.front() {
                    Some(seg) if seg.available_at > self.env.sim.now() => {
                        StepOutcome::WaitUntil(seg.available_at)
                    }
                    Some(_) => {
                        let mut bytes = 0;
                        let mut nsegs = 0;
                        let now = self.env.sim.now();
                        while bytes < max {
                            match st.segs.front_mut() {
                                Some(seg) if seg.available_at <= now => {
                                    let take = seg.len.min(max - bytes);
                                    seg.len -= take;
                                    bytes += take;
                                    nsegs += 1;
                                    if seg.len == 0 {
                                        st.segs.pop_front();
                                    }
                                }
                                _ => break,
                            }
                        }
                        st.inflight -= bytes;
                        StepOutcome::Got { bytes, nsegs }
                    }
                    None if st.fin => StepOutcome::Eof,
                    None => StepOutcome::Wait,
                }
            };
            match step {
                StepOutcome::Got { bytes, nsegs } => {
                    // Receive-path processing plus the acknowledgment that
                    // reopens the peer's window. A delayed ack (Linux
                    // 1.2.8's coarse generation) holds a window-limited
                    // sender idle for `ack_delay_cy`.
                    {
                        let _s = self.env.sim.span(Class::ProtoCpu);
                        self.env.sim.charge(Cycles(
                            self.costs.recv_seg_cy * nsegs
                                + self.costs.ack_cy * nsegs
                                + round_u64(self.costs.recv_per_byte_cy * bytes as f64),
                        ));
                    }
                    if self.costs.ack_delay_cy == 0 {
                        self.env.sim.wakeup_one(self.rx.wr_wait);
                    } else {
                        self.env.sim.count(Counter::DelayedAcks, 1);
                        let at = self.env.sim.now() + Cycles(self.costs.ack_delay_cy);
                        self.env.sim.wakeup_one_at(self.rx.wr_wait, at);
                    }
                    return Ok(bytes);
                }
                StepOutcome::Eof => return Ok(0),
                StepOutcome::WaitUntil(at) => {
                    let _w = self.env.sim.span(Class::WireTransit);
                    self.env.sim.sleep_until(at).await;
                }
                StepOutcome::Wait => {
                    let _w = self.env.sim.span(Class::NetRecvWait);
                    self.env.sim.wait_on(self.rx.rd_wait, "tcp recv").await;
                }
            }
        }
    }

    /// `close(2)`: finishes our sending direction (EOF for the peer's
    /// reads) and abandons our receiving direction (the peer's later
    /// writes fail with `EPIPE`, as a reset would cause).
    pub fn close(&self) {
        self.tx.state.lock().fin = true;
        self.env.sim.wakeup_all(self.tx.rd_wait);
        self.rx.state.lock().receiver_gone = true;
        // Unblock a peer stuck on our (now meaningless) window.
        self.env.sim.wakeup_all(self.rx.wr_wait);
    }
}

struct PendingConn {
    a2b: Arc<TcpDir>,
    b2a: Arc<TcpDir>,
    from_host: u32,
}

struct ListenQ {
    pending: Mutex<VecDeque<PendingConn>>,
    wait: WaitId,
    sim: Sim,
}

impl PortSink for ListenQ {
    fn deliver(&self, _pkt: Packet) -> Option<u64> {
        // TCP connections arrive through `push_pending`, not raw packets.
        None
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

/// A listening TCP socket.
pub struct TcpListener {
    net: Net,
    env: KEnv,
    costs: TcpCosts,
    addr: Addr,
    q: Arc<ListenQ>,
}

impl TcpListener {
    /// Binds a listener at `port` on `kernel`'s machine.
    pub fn bind(net: &Net, kernel: &Kernel, host: u32, port: u16) -> SysResult<Arc<TcpListener>> {
        let env = kernel.env().clone();
        let costs = crate::costs::NetCosts::for_os(kernel.costs().os).tcp;
        let q = Arc::new(ListenQ {
            pending: Mutex::new(VecDeque::new()),
            wait: env.sim.new_queue(),
            sim: env.sim.clone(),
        });
        let addr = Addr { host, port };
        net.bind(addr, Proto::Tcp, q.clone())?;
        Ok(Arc::new(TcpListener {
            net: net.clone(),
            env,
            costs,
            addr,
            q,
        }))
    }

    /// The listener's address.
    pub fn addr(&self) -> Addr {
        self.addr
    }

    /// Accepts one connection, blocking until a peer connects.
    pub async fn accept(&self) -> SysResult<TcpStream> {
        let c = &self.env.costs;
        {
            let _t = self.env.sim.span(Class::TrapEntry);
            self.env
                .sim
                .charge(Cycles(c.trap_cy + c.syscall_overhead_cy));
        }
        loop {
            let conn = self.q.pending.lock().pop_front();
            match conn {
                Some(conn) => {
                    let _s = self.env.sim.span(Class::ProtoCpu);
                    self.env.sim.charge(Cycles(self.costs.connect_cy / 2));
                    return Ok(TcpStream {
                        net: self.net.clone(),
                        env: self.env.clone(),
                        costs: self.costs,
                        local_host: self.addr.host,
                        peer_host: conn.from_host,
                        tx: conn.b2a,
                        rx: conn.a2b,
                    });
                }
                None => {
                    let _w = self.env.sim.span(Class::NetRecvWait);
                    self.env.sim.wait_on(self.q.wait, "tcp accept").await;
                }
            }
        }
    }
}

impl Drop for TcpListener {
    fn drop(&mut self) {
        self.net.unbind(self.addr, Proto::Tcp);
    }
}

/// Connects from `kernel`'s machine to a listening socket at `to`.
///
/// The effective window is the smaller of the two ends' windows, as TCP
/// negotiates.
pub fn connect(net: &Net, kernel: &Kernel, local_host: u32, to: Addr) -> SysResult<TcpStream> {
    let my = crate::costs::NetCosts::for_os(kernel.costs().os).tcp;
    let peer = net.host_costs(to.host).tcp;
    let costs = TcpCosts {
        window: my.window.min(peer.window),
        mss: my.mss.min(peer.mss),
        ..my
    };
    connect_custom(net, kernel, local_host, to, costs)
}

/// [`connect`] with an explicit cost table — the window-size ablation of
/// experiment `x1` uses this to show how Linux 1.2.8's one-packet window
/// caps Table 5.
pub fn connect_custom(
    net: &Net,
    kernel: &Kernel,
    local_host: u32,
    to: Addr,
    costs: TcpCosts,
) -> SysResult<TcpStream> {
    let env = kernel.env().clone();
    let window = costs.window;
    let sink = net.sink_for(to, Proto::Tcp).ok_or(Errno::ECONNREFUSED)?;
    // Downcast via a second registry would be heavyweight; instead the
    // listener is reached through its queue, held in the bindings map.
    // We rebuild the Arc<ListenQ> by trait-object identity: the sink IS
    // the ListenQ (the only Tcp sinks are listeners).
    let a2b = TcpDir::new(&env.sim, window);
    let b2a = TcpDir::new(&env.sim, window);
    {
        let _t = env.sim.span(Class::TrapEntry);
        env.sim
            .charge(Cycles(env.costs.trap_cy + env.costs.syscall_overhead_cy));
    }
    {
        let _s = env.sim.span(Class::ProtoCpu);
        env.sim.charge(Cycles(costs.connect_cy / 2));
    }
    // The handshake crosses the wire twice.
    let _ = net.transit(&env, local_host, to.host, 64);
    let _ = net.transit(&env, local_host, to.host, 64);
    push_pending(
        &sink,
        PendingConn {
            a2b: a2b.clone(),
            b2a: b2a.clone(),
            from_host: local_host,
        },
    );
    Ok(TcpStream {
        net: net.clone(),
        env,
        costs,
        local_host,
        peer_host: to.host,
        tx: a2b,
        rx: b2a,
    })
}

/// Hands the new connection to the listener behind the `PortSink` trait
/// object. `ListenQ` is the only implementor ever bound under
/// `Proto::Tcp` (this module owns both bind sites), so the downcast
/// cannot fail.
fn push_pending(sink: &Arc<dyn PortSink>, conn: PendingConn) {
    let q = sink
        .as_any()
        .downcast_ref::<ListenQ>()
        .expect("TCP sink is always a ListenQ");
    q.pending.lock().push_back(conn);
    q.sim.wakeup_one(q.wait);
}

#[cfg(test)]
mod tests {
    use super::*;
    use tnt_os::{boot, Os};

    fn setup(os: Os) -> (tnt_sim::Sim, Kernel, Net) {
        let (sim, kernel) = boot(os, 0);
        let net = Net::ethernet_10mbit();
        net.register_host(&kernel);
        (sim, kernel, net)
    }

    /// Runs bw_tcp-shaped traffic: `total` bytes in `chunk`-sized writes
    /// over loopback; returns Mb/s.
    fn loopback_bw(os: Os, total: u64, chunk: u64) -> f64 {
        let (sim, kernel, net) = setup(os);
        let n2 = net.clone();
        let k2 = kernel.clone();
        let result = Arc::new(Mutex::new(0.0f64));
        let r2 = result.clone();
        kernel.spawn_user("bw_tcp", move |p| async move {
            let listener = TcpListener::bind(&n2, &k2, 0, 5001).unwrap();
            let child = p.fork("server", move |_| async move {
                let conn = listener.accept().await.unwrap();
                while conn.read(chunk).await.unwrap() > 0 {}
            });
            let conn = connect(
                &n2,
                &k2,
                0,
                Addr {
                    host: 0,
                    port: 5001,
                },
            )
            .unwrap();
            let t0 = p.sim().now();
            let mut sent = 0;
            while sent < total {
                sent += conn.write(chunk.min(total - sent)).await.unwrap();
            }
            conn.close();
            p.waitpid(child).await;
            let elapsed = p.sim().now() - t0;
            *r2.lock() = tnt_sim::mbit_per_sec(total, elapsed);
        });
        let _ = sim.run().unwrap();
        let v = *result.lock();
        v
    }

    #[test]
    fn stream_delivers_all_bytes() {
        let (sim, kernel, net) = setup(Os::FreeBsd);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("pair", move |p| async move {
            let listener = TcpListener::bind(&n2, &k2, 0, 80).unwrap();
            let total = Arc::new(Mutex::new(0u64));
            let t2 = total.clone();
            let child = p.fork("server", move |_| async move {
                let conn = listener.accept().await.unwrap();
                loop {
                    let n = conn.read(4096).await.unwrap();
                    if n == 0 {
                        break;
                    }
                    *t2.lock() += n;
                }
            });
            let conn = connect(&n2, &k2, 0, Addr { host: 0, port: 80 }).unwrap();
            conn.write(100_000).await.unwrap();
            conn.close();
            p.waitpid(child).await;
            assert_eq!(*total.lock(), 100_000);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn connect_to_nothing_is_refused() {
        let (sim, kernel, net) = setup(Os::Linux);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("c", move |_| async move {
            let r = connect(
                &n2,
                &k2,
                0,
                Addr {
                    host: 0,
                    port: 9999,
                },
            );
            assert!(matches!(r.err(), Some(Errno::ECONNREFUSED)));
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn write_blocks_on_window_until_reader_drains() {
        let (sim, kernel, net) = setup(Os::Linux);
        let n2 = net.clone();
        let k2 = kernel.clone();
        kernel.spawn_user("pair", move |p| async move {
            let listener = TcpListener::bind(&n2, &k2, 0, 80).unwrap();
            let child = p.fork("server", move |c| async move {
                let conn = listener.accept().await.unwrap();
                c.compute(Cycles(1_000_000)); // 10 ms before reading
                while conn.read(65536).await.unwrap() > 0 {}
            });
            let conn = connect(&n2, &k2, 0, Addr { host: 0, port: 80 }).unwrap();
            let t0 = p.sim().now();
            conn.write(10_000).await.unwrap(); // Far beyond the 1988-byte window.
            assert!(
                (p.sim().now() - t0).as_millis() >= 10.0,
                "sender had to wait for the slow reader's window"
            );
            conn.close();
            p.waitpid(child).await;
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn table5_bandwidth_shape() {
        // bw_tcp: 3 MB in 48 KB chunks over loopback.
        let linux = loopback_bw(Os::Linux, 3 << 20, 48 * 1024);
        let freebsd = loopback_bw(Os::FreeBsd, 3 << 20, 48 * 1024);
        let solaris = loopback_bw(Os::Solaris, 3 << 20, 48 * 1024);
        assert!(
            (freebsd - 65.95).abs() < 10.0,
            "FreeBSD ~66 Mb/s, got {freebsd}"
        );
        assert!(
            (solaris - 60.11).abs() < 10.0,
            "Solaris ~60 Mb/s, got {solaris}"
        );
        assert!((linux - 25.03).abs() < 6.0, "Linux ~25 Mb/s, got {linux}");
        assert!(freebsd > solaris && solaris > linux);
        let norm = linux / freebsd;
        assert!(
            (norm - 0.38).abs() < 0.12,
            "Linux ~0.38x of FreeBSD, got {norm}"
        );
    }
}
