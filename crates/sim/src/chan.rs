//! A bounded FIFO channel usable from every process model.
//!
//! Tasks await [`SimChannel::send`] / [`SimChannel::recv`] (a threaded
//! process runs them through `Sim::block_on`); lite processes use the
//! non-blocking [`SimChannel::try_send`] and block by returning
//! `Step::Block` on [`SimChannel::write_queue`] (see
//! [`crate::lite::block_on`]). Wakeups cross the model boundary
//! transparently: a lite client's `try_send` wakes a server blocked in
//! `recv`, and a server's `send` rings the lite scheduler's doorbell.

use std::collections::VecDeque;

use parking_lot::Mutex;

use crate::engine::{Sim, WaitId};

/// A bounded multi-producer multi-consumer FIFO of `T`.
pub struct SimChannel<T> {
    buf: Mutex<VecDeque<T>>,
    cap: usize,
    rd_q: WaitId,
    wr_q: WaitId,
}

impl<T> SimChannel<T> {
    /// Creates a channel holding at most `cap` items (`cap >= 1`).
    pub fn new(sim: &Sim, cap: usize) -> SimChannel<T> {
        assert!(cap >= 1, "channel capacity must be at least 1");
        SimChannel {
            buf: Mutex::new(VecDeque::new()),
            cap,
            rd_q: sim.new_queue(),
            wr_q: sim.new_queue(),
        }
    }

    /// Sends `v`, blocking the calling process while the channel is
    /// full.
    pub async fn send(&self, sim: &Sim, v: T) {
        loop {
            // Processes are atomic between blocking calls, so this
            // check-then-wait cannot lose a wakeup.
            if self.buf.lock().len() < self.cap {
                break;
            }
            sim.wait_on(self.wr_q, "chan send").await;
        }
        self.buf.lock().push_back(v);
        // One happens-before edge per successful op: the channel's own
        // buffer lock totally orders them, so the detector sees every
        // datum transfer (send -> recv) and every capacity handoff
        // (recv -> unblocked send).
        sim.race_channel_op(self.rd_q.raw());
        sim.wakeup_one(self.rd_q);
    }

    /// Receives the oldest item, blocking the calling process while the
    /// channel is empty.
    pub async fn recv(&self, sim: &Sim) -> T {
        loop {
            let v = self.buf.lock().pop_front();
            if let Some(v) = v {
                sim.race_channel_op(self.rd_q.raw());
                sim.wakeup_one(self.wr_q);
                return v;
            }
            sim.wait_on(self.rd_q, "chan recv").await;
        }
    }

    /// Non-blocking send: `Err(v)` gives the item back if the channel is
    /// full (block on [`SimChannel::write_queue`] and retry).
    pub fn try_send(&self, sim: &Sim, v: T) -> Result<(), T> {
        {
            let mut buf = self.buf.lock();
            if buf.len() >= self.cap {
                return Err(v);
            }
            buf.push_back(v);
        }
        sim.race_channel_op(self.rd_q.raw());
        sim.wakeup_one(self.rd_q);
        Ok(())
    }

    /// The queue signalled when an item arrives.
    pub fn read_queue(&self) -> WaitId {
        self.rd_q
    }

    /// The queue signalled when space frees up.
    pub fn write_queue(&self) -> WaitId {
        self.wr_q
    }

    /// Number of buffered items.
    pub fn len(&self) -> usize {
        self.buf.lock().len()
    }

    /// Whether the channel is empty.
    pub fn is_empty(&self) -> bool {
        self.buf.lock().is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SimConfig;
    use crate::lite::{block_on, LiteScheduler, ProcCtx};
    use crate::policy::FifoPolicy;
    use crate::time::Cycles;
    use std::sync::Arc;
    use tnt_proc::Step;

    fn sim() -> Sim {
        Sim::new(Box::new(FifoPolicy::new()), SimConfig::default())
    }

    #[test]
    fn send_recv_respects_capacity() {
        let s = sim();
        let ch = Arc::new(SimChannel::new(&s, 2));
        let tx = ch.clone();
        s.spawn_task("producer", move |s| async move {
            for i in 0..10u32 {
                tx.send(&s, i).await;
                assert!(tx.len() <= 2, "send overfilled the channel");
                s.advance(Cycles(10));
            }
        });
        let rx = ch.clone();
        s.spawn_task("consumer", move |s| async move {
            for i in 0..10u32 {
                assert_eq!(rx.recv(&s).await, i);
                s.advance(Cycles(25));
            }
        });
        let _ = s.run().unwrap();
        assert!(ch.is_empty());
    }

    #[test]
    fn lite_client_talks_to_task_server() {
        // A lite client sends requests through the channel to a server
        // task and waits for per-request completion — the crowd-scale
        // pattern used by the internet-server example.
        let s = sim();
        let ch = Arc::new(SimChannel::new(&s, 4));
        let done_q = s.new_queue();
        let served = Arc::new(Mutex::new(Vec::new()));

        let rx = ch.clone();
        let log = served.clone();
        s.spawn_task("server", move |s| async move {
            for _ in 0..3 {
                let req: u32 = rx.recv(&s).await;
                s.advance(Cycles(100));
                log.lock().push(req);
                s.wakeup_all(done_q);
            }
        });

        let mut sched = LiteScheduler::new(&s);
        for i in 0..3u32 {
            let tx = ch.clone();
            let mut state = 0u8;
            sched.spawn(
                &format!("client{i}"),
                Box::new(move |ctx: &mut ProcCtx| match state {
                    0 => match tx.try_send(ctx.sim(), i) {
                        Ok(()) => {
                            state = 1;
                            block_on(done_q, "await reply")
                        }
                        Err(_) => block_on(tx.write_queue(), "chan full"),
                    },
                    _ => Step::Done,
                }),
            );
        }
        sched.start("clients");
        let _ = s.run().unwrap();
        assert_eq!(&*served.lock(), &[0, 1, 2]);
    }
}
