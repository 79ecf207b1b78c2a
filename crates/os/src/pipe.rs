//! The pipe models: one shared implementation whose costs are
//! parameterised per OS (Section 5's `ctx` and Table 4's `bw_pipe` both
//! run through this code).
//!
//! Linux pipes are a page-sized ring buffer; FreeBSD 2.0.5 pipes are
//! socketpairs moving mbuf clusters; Solaris pipes sit on STREAMS with
//! per-message block allocation. All of that is expressed through
//! [`PipeCosts`](crate::costs::PipeCosts): buffer capacity, per-operation
//! entry cost, per-segment handling cost and per-byte inefficiency.

use std::collections::vec_deque::Drain;
use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;

use crate::costs::PipeCosts;
use crate::errno::{Errno, SysResult};
use crate::vfs::KEnv;
use tnt_sim::trace::Class;
use tnt_sim::{round_u64, Cycles, Sim, WaitId};

struct PipeState {
    buf: VecDeque<u8>,
    readers: u32,
    writers: u32,
}

/// A unidirectional byte pipe with per-OS cost behaviour.
pub struct Pipe {
    state: Mutex<PipeState>,
    costs: PipeCosts,
    rd_q: WaitId,
    wr_q: WaitId,
}

impl Pipe {
    /// Creates a pipe with one reader and one writer reference.
    pub fn new(sim: &Sim, costs: PipeCosts) -> Arc<Pipe> {
        Arc::new(Pipe {
            state: Mutex::new(PipeState {
                buf: VecDeque::new(),
                readers: 1,
                writers: 1,
            }),
            costs,
            rd_q: sim.new_queue(),
            wr_q: sim.new_queue(),
        })
    }

    fn seg_cost(&self, bytes: u64) -> Cycles {
        let frac = bytes as f64 / self.costs.seg_unit as f64;
        Cycles(round_u64(self.costs.per_seg_cy as f64 * frac))
    }

    fn copy_cost(&self, bytes: u64) -> Cycles {
        tnt_cpu::copyin_out(bytes) + Cycles(round_u64(self.costs.per_byte_extra * bytes as f64))
    }

    /// Writes all of `data`, blocking as the buffer fills and the reader
    /// drains it. Returns bytes written, or `EPIPE` once no reader exists.
    pub async fn write(&self, env: &KEnv, data: &[u8]) -> SysResult<u64> {
        self.push(env, data.len(), |buf, at, n| buf.extend(&data[at..at + n]))
            .await
    }

    /// [`Pipe::write`] of `len` zero bytes, for callers that only count
    /// bytes; no source buffer is allocated.
    pub async fn write_zeros(&self, env: &KEnv, len: u64) -> SysResult<u64> {
        self.push(env, len as usize, |buf, _, n| buf.resize(buf.len() + n, 0))
            .await
    }

    /// Moves `len` bytes into the buffer as space frees up; `fill`
    /// appends the `n` bytes that start `at` bytes into the write.
    async fn push(
        &self,
        env: &KEnv,
        len: usize,
        mut fill: impl FnMut(&mut VecDeque<u8>, usize, usize),
    ) -> SysResult<u64> {
        {
            let _s = env.sim.span(Class::ProtoCpu);
            env.sim.charge(Cycles(self.costs.write_op_cy));
        }
        let mut written = 0usize;
        while written < len {
            let moved = {
                let mut st = self.state.lock();
                if st.readers == 0 {
                    return Err(Errno::EPIPE);
                }
                let space = self.costs.capacity as usize - st.buf.len();
                let n = space.min(len - written);
                fill(&mut st.buf, written, n);
                n
            };
            if moved == 0 {
                let _w = env.sim.span(Class::PipeWait);
                env.sim.wait_on(self.wr_q, "pipe full").await;
                continue;
            }
            self.charge_transfer(env, moved as u64);
            env.sim.wakeup_one(self.rd_q);
            written += moved;
        }
        Ok(written as u64)
    }

    /// Reads up to `len` bytes, blocking while the pipe is empty and a
    /// writer remains; returns an empty vector at end of file.
    pub async fn read(&self, env: &KEnv, len: u64) -> SysResult<Vec<u8>> {
        let mut out = Vec::new();
        self.pull(env, len, |bytes| out.extend(bytes)).await?;
        Ok(out)
    }

    /// [`Pipe::read`] that drops the bytes and returns how many it read.
    pub async fn read_discard(&self, env: &KEnv, len: u64) -> SysResult<u64> {
        self.pull(env, len, |bytes| drop(bytes)).await
    }

    /// Takes up to `len` buffered bytes through `take` once any are
    /// there; returns how many, or 0 at end of file.
    async fn pull(
        &self,
        env: &KEnv,
        len: u64,
        mut take: impl FnMut(Drain<'_, u8>),
    ) -> SysResult<u64> {
        {
            let _s = env.sim.span(Class::ProtoCpu);
            env.sim.charge(Cycles(self.costs.read_op_cy));
        }
        if len == 0 {
            return Ok(0);
        }
        loop {
            let n = {
                let mut st = self.state.lock();
                if st.buf.is_empty() && st.writers == 0 {
                    return Ok(0); // EOF
                }
                let n = (len as usize).min(st.buf.len());
                take(st.buf.drain(..n));
                n as u64
            };
            if n == 0 {
                let _w = env.sim.span(Class::PipeWait);
                env.sim.wait_on(self.rd_q, "pipe empty").await;
                continue;
            }
            self.charge_transfer(env, n);
            env.sim.wakeup_one(self.wr_q);
            return Ok(n);
        }
    }

    /// The copy and per-segment costs of moving `bytes` either way.
    fn charge_transfer(&self, env: &KEnv, bytes: u64) {
        {
            let _s = env.sim.span(Class::DataCopy);
            env.sim.charge(self.copy_cost(bytes));
        }
        let _s = env.sim.span(Class::ProtoCpu);
        env.sim.charge(self.seg_cost(bytes));
    }

    /// Drops a reader reference; when the last reader goes, blocked
    /// writers are woken to observe `EPIPE`.
    pub fn close_reader(&self, sim: &Sim) {
        let none_left = {
            let mut st = self.state.lock();
            st.readers -= 1;
            st.readers == 0
        };
        if none_left {
            sim.wakeup_all(self.wr_q);
        }
    }

    /// Drops a writer reference; when the last writer goes, blocked
    /// readers are woken to observe end of file.
    pub fn close_writer(&self, sim: &Sim) {
        let none_left = {
            let mut st = self.state.lock();
            st.writers -= 1;
            st.writers == 0
        };
        if none_left {
            sim.wakeup_all(self.rd_q);
        }
    }

    /// Whether a read would not block: data buffered, or EOF pending.
    pub fn poll_readable(&self) -> bool {
        let st = self.state.lock();
        !st.buf.is_empty() || st.writers == 0
    }

    /// The wait queue readers (and selectors) sleep on.
    pub fn read_queue(&self) -> WaitId {
        self.rd_q
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::costs::{Os, OsCosts};
    use tnt_sim::{FifoPolicy, SimConfig};

    fn setup(os: Os) -> (Sim, KEnv) {
        let sim = Sim::new(Box::new(FifoPolicy::new()), SimConfig::default());
        let env = KEnv {
            sim: sim.clone(),
            costs: OsCosts::for_os(os),
        };
        (sim, env)
    }

    #[test]
    fn bytes_round_trip_in_order() {
        let (sim, env) = setup(Os::Linux);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        let p2 = pipe.clone();
        let e2 = env.clone();
        sim.spawn_task("writer", move |_| async move {
            let data: Vec<u8> = (0..200u8).collect();
            assert_eq!(p2.write(&e2, &data).await.unwrap(), 200);
            p2.close_writer(&e2.sim);
        });
        let p3 = pipe.clone();
        sim.spawn_task("reader", move |_| async move {
            let mut got = Vec::new();
            loop {
                let chunk = p3.read(&env, 64).await.unwrap();
                if chunk.is_empty() {
                    break;
                }
                got.extend(chunk);
            }
            assert_eq!(got, (0..200u8).collect::<Vec<u8>>());
            p3.close_reader(&env.sim);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn writer_blocks_when_full() {
        let (sim, env) = setup(Os::Linux);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        let cap = env.costs.pipe.capacity as usize;
        let p2 = pipe.clone();
        let e2 = env.clone();
        sim.spawn_task("writer", move |_| async move {
            // Write 3x the capacity; must block and resume as drained.
            let data = vec![7u8; 3 * cap];
            assert_eq!(p2.write(&e2, &data).await.unwrap() as usize, 3 * cap);
            p2.close_writer(&e2.sim);
        });
        let p3 = pipe.clone();
        sim.spawn_task("reader", move |_| async move {
            let mut total = 0;
            loop {
                let chunk = p3.read(&env, u64::MAX >> 1).await.unwrap();
                if chunk.is_empty() {
                    break;
                }
                assert!(chunk.len() <= cap, "never more than the buffer");
                total += chunk.len();
            }
            assert_eq!(total, 3 * cap);
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn read_from_closed_pipe_is_eof() {
        let (sim, env) = setup(Os::FreeBsd);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        let p2 = pipe.clone();
        sim.spawn_task("solo", move |_| async move {
            p2.write(&env, b"bye").await.unwrap();
            p2.close_writer(&env.sim);
            assert_eq!(p2.read(&env, 10).await.unwrap(), b"bye");
            assert!(
                p2.read(&env, 10).await.unwrap().is_empty(),
                "EOF after writer closed"
            );
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn write_to_readerless_pipe_is_epipe() {
        let (sim, env) = setup(Os::Solaris);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        let p2 = pipe.clone();
        sim.spawn_task("solo", move |_| async move {
            p2.close_reader(&env.sim);
            assert_eq!(p2.write(&env, b"x").await, Err(Errno::EPIPE));
        });
        let _ = sim.run().unwrap();
    }

    #[test]
    fn epipe_wakes_blocked_writer() {
        let (sim, env) = setup(Os::Linux);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        let cap = env.costs.pipe.capacity as usize;
        let p2 = pipe.clone();
        let e2 = env.clone();
        sim.spawn_task("writer", move |_| async move {
            let r = p2.write(&e2, &vec![0u8; 2 * cap]).await;
            assert_eq!(r, Err(Errno::EPIPE), "woken by reader close");
        });
        let p3 = pipe.clone();
        sim.spawn_task("closer", move |_| async move {
            p3.close_reader(&env.sim);
        });
        let _ = sim.run().unwrap();
    }

    /// One process writes one byte and reads it back.
    fn one_byte_roundtrip(os: Os) -> Cycles {
        let (sim, env) = setup(os);
        let pipe = Pipe::new(&sim, env.costs.pipe);
        sim.spawn_task("self", move |_| async move {
            pipe.write(&env, &[1]).await.unwrap();
            pipe.read(&env, 1).await.unwrap();
        });
        sim.run().unwrap()
    }

    #[test]
    fn solaris_one_byte_roundtrip_costs_80us() {
        // Section 5 calibration: write one byte, read it back, same
        // process, Solaris: ~80us of pipe overhead (excluding traps).
        let us = one_byte_roundtrip(Os::Solaris).as_micros();
        assert!(
            us > 70.0 && us < 90.0,
            "Solaris 1-byte roundtrip ~80us, got {us}"
        );
    }

    #[test]
    fn linux_pipe_much_cheaper_than_solaris() {
        let linux = one_byte_roundtrip(Os::Linux);
        let solaris = one_byte_roundtrip(Os::Solaris);
        assert!(
            solaris.0 > 5 * linux.0,
            "STREAMS pipes are several times dearer"
        );
    }
}
