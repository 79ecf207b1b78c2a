#![warn(missing_docs)]
// Exact float comparison is a tolerance bug in experiment code; tests
// may compare values they constructed exactly.
#![cfg_attr(not(test), warn(clippy::float_cmp))]

//! The paper's benchmark suite, assembled on top of the machine, kernel,
//! storage and network models.
//!
//! One function per experiment family, each returning the quantity the
//! paper plots or tabulates:
//!
//! | Paper result | Entry point |
//! |---|---|
//! | Table 2 (system call) | [`syscall_us`] |
//! | Figure 1 (context switch) | [`ctx_us`] |
//! | Figures 2-8 (memory) | [`mem_bandwidth`] |
//! | Figures 9-11 (bonnie) | [`bonnie`] |
//! | Figure 12 (crtdel) | [`crtdel_ms`] |
//! | Table 3 (MAB local) | [`mab_local`] |
//! | Table 4 (pipes) | [`pipe_bandwidth_mbit`] |
//! | Figure 13 (UDP) | [`udp_bandwidth_mbit`] |
//! | Table 5 (TCP) | [`tcp_bandwidth_mbit`] |
//! | Tables 6-7 (MAB over NFS) | [`mab_over_nfs`] |
//!
//! Every function takes a `seed`; the harness runs each experiment
//! twenty times with different seeds and reports mean, standard
//! deviation, and the paper's normalised column.
//!
//! # Examples
//!
//! ```
//! use tnt_os::Os;
//!
//! // Table 2: Linux getpid ~2.31 microseconds.
//! let us = tnt_core::syscall_us(Os::Linux, 1000, 0);
//! assert!((us - 2.31).abs() < 0.25);
//! ```

mod bonnie;
mod bwpipe;
mod bwtcp;
mod crtdel;
mod ctx;
mod getpid;
mod latency;
mod mab;
mod machine;
mod membench;
mod multiuser;
mod nfsmab;
mod procbench;
mod ttcp;

pub use bonnie::{bonnie, BonnieResult, BONNIE_BLOCK};
pub use bwpipe::{pipe_bandwidth_mbit, BW_PIPE_CHUNK, BW_PIPE_TOTAL};
pub use bwtcp::{tcp_bandwidth_mbit, tcp_bandwidth_with_window, BW_TCP_CHUNK, BW_TCP_TOTAL};
pub use crtdel::{crtdel_ms, crtdel_ms_with, crtdel_once};
pub use ctx::{ctx_us, ctx_us_with, CtxPattern};
pub use getpid::syscall_us;
pub use latency::{lat_pipe_us, lat_rpc_us, lat_tcp_us, lat_udp_us};
pub use mab::{mab_local, mab_setup, run_mab, MabFile, MabReport, MabSpec, COMPILE_CY_PER_BYTE};
pub use machine::{run_bare, run_bare_with, run_custom, run_with_fs, timed, ResultSlot};
pub use membench::{mem_bandwidth, standard_buffer_sizes, TOTAL_TRAFFIC};
pub use multiuser::{
    pipe_rtt_us_multiuser, pipe_rtt_us_singleuser, run_multiuser, syscall_us_multiuser,
};
pub use nfsmab::{mab_over_nfs, mab_over_nfs_faulty};
pub use procbench::{fork_exec_us, fork_exit_us};
pub use ttcp::{packet_sizes, udp_bandwidth_mbit, TTCP_TOTAL};

// Re-export the vocabulary types callers need.
pub use tnt_cpu::{LibcVariant, MemRoutine};
pub use tnt_os::Os;
