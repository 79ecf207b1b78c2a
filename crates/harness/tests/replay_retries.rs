//! The trace replayer retries a transiently failed disk command exactly
//! as the driver does: `Disk::io` issues `1 + DISK_RETRIES` commands
//! before it surfaces `EIO`, and so must the replayer. This file holds
//! one test on its own because the ambient fault profile it sets is
//! process-wide.

use tnt_fs::DISK_RETRIES;
use tnt_harness::{replay_trace, ReplayOptions};
use tnt_os::Os;
use tnt_sim::fault::{set_ambient, FaultProfile};
use tnt_sim::replay::{Op, Trace, TraceEvent};

#[test]
fn a_dead_disk_gets_the_drivers_retry_budget() {
    let trace = Trace {
        paths: Vec::new(),
        events: vec![TraceEvent {
            t: 0,
            pid: 1,
            op: Op::BlockWrite,
            arg: 1_000,
            size: 8,
        }],
    };
    set_ambient(FaultProfile {
        disk_transient: 1.0,
        ..FaultProfile::off()
    });
    let report = replay_trace(&trace, Os::Linux, 1, ReplayOptions::asap());
    set_ambient(FaultProfile::off());
    let budget = 1 + u64::from(DISK_RETRIES);
    assert_eq!(
        (report.commands, report.faults, report.eio),
        (budget, budget, 1)
    );
}
