//! Attribution classes and always-on counters.

/// Where a span of cycles belongs in the cost breakdown.
///
/// Classes split into **CPU classes** (time the processor was busy inside
/// the span) and **wait classes** (time the whole system sat idle while
/// some process was parked inside the span). [`Class::idle_priority`]
/// distinguishes them: idle clock jumps are attributed to the open wait
/// span with the best (lowest) priority across all blocked processes, so
/// e.g. a disk platter rotating beats a server merely waiting for its next
/// request.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Class {
    /// User-mode computation (charges outside any span).
    User,
    /// Trap/syscall entry-exit overhead.
    TrapEntry,
    /// Scheduler run-queue scan + dispatch cost.
    SchedScan,
    /// Kernel data copies (copyin/copyout, pipe buffers).
    DataCopy,
    /// Cache-miss stalls in the modelled memory system.
    CacheStall,
    /// Buffer-cache bookkeeping CPU in the filesystem.
    FsCpu,
    /// Disk arm seek (plus command overhead).
    DiskSeek,
    /// Disk rotational latency.
    DiskRotation,
    /// Disk media transfer.
    DiskMedia,
    /// Network/IPC protocol CPU (segment and datagram processing).
    ProtoCpu,
    /// Sender stalled on the TCP send window — for Linux 1.2.8 this is
    /// dominated by the receiver's delayed ACK.
    AckWindowWait,
    /// Data in flight on the (simulated) wire.
    WireTransit,
    /// Blocked in a socket or pipe receive with nothing arrived yet.
    NetRecvWait,
    /// NFS client blocked awaiting an RPC reply.
    RpcWait,
    /// NFS server CPU handling a request.
    RpcServer,
    /// Blocked on a full/empty pipe.
    PipeWait,
    /// Idle cycles no open wait span claims (attribution gap).
    UnknownIdle,
}

impl Class {
    /// Every class, in display order.
    pub const ALL: [Class; 17] = [
        Class::User,
        Class::TrapEntry,
        Class::SchedScan,
        Class::DataCopy,
        Class::CacheStall,
        Class::FsCpu,
        Class::DiskSeek,
        Class::DiskRotation,
        Class::DiskMedia,
        Class::ProtoCpu,
        Class::AckWindowWait,
        Class::WireTransit,
        Class::NetRecvWait,
        Class::RpcWait,
        Class::RpcServer,
        Class::PipeWait,
        Class::UnknownIdle,
    ];

    /// Short stable label (used in folded stacks and tables).
    pub fn label(self) -> &'static str {
        match self {
            Class::User => "user",
            Class::TrapEntry => "trap entry",
            Class::SchedScan => "sched scan",
            Class::DataCopy => "data copy",
            Class::CacheStall => "cache stall",
            Class::FsCpu => "fs cpu",
            Class::DiskSeek => "disk seek",
            Class::DiskRotation => "disk rotation",
            Class::DiskMedia => "disk media",
            Class::ProtoCpu => "protocol cpu",
            Class::AckWindowWait => "ack/window wait",
            Class::WireTransit => "wire transit",
            Class::NetRecvWait => "net recv wait",
            Class::RpcWait => "rpc wait",
            Class::RpcServer => "rpc server",
            Class::PipeWait => "pipe wait",
            Class::UnknownIdle => "(unattributed idle)",
        }
    }

    /// For wait classes, the priority used when attributing an idle clock
    /// jump (lower wins). CPU classes return `None`.
    pub fn idle_priority(self) -> Option<u8> {
        match self {
            Class::DiskSeek => Some(0),
            Class::DiskRotation => Some(1),
            Class::DiskMedia => Some(2),
            Class::AckWindowWait => Some(3),
            Class::WireTransit => Some(4),
            Class::RpcWait => Some(5),
            Class::PipeWait => Some(6),
            Class::NetRecvWait => Some(7),
            _ => None,
        }
    }
}

impl std::fmt::Display for Class {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.pad(self.label())
    }
}

/// Always-on atomic tallies. Unlike spans these are never dropped by the
/// ring and cost one relaxed atomic add each.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
#[repr(u8)]
pub enum Counter {
    /// System calls entered.
    Syscalls,
    /// `fork()` calls.
    Forks,
    /// `exec()` calls.
    Execs,
    /// Engine dispatches (context switches).
    Dispatches,
    /// Buffer-cache hits.
    CacheHits,
    /// Buffer-cache misses.
    CacheMisses,
    /// Disk read commands issued.
    DiskReads,
    /// Disk write commands issued.
    DiskWrites,
    /// Synchronous metadata writes (the FFS create/unlink tax).
    SyncMetaWrites,
    /// Transient disk command failures injected by the fault plane.
    DiskFaults,
    /// Sector-remap latency spikes injected by the fault plane.
    DiskRemaps,
    /// TCP segments carried.
    TcpSegments,
    /// TCP segments retransmitted after a (injected) wire loss.
    TcpRetransmits,
    /// Delayed ACKs scheduled (Linux 1.2.8's one-packet window stall).
    DelayedAcks,
    /// UDP datagrams carried.
    UdpDatagrams,
    /// Frames the fault plane duplicated in flight.
    NetDupFrames,
    /// Frames the fault plane delivered late.
    NetLateFrames,
    /// NFS RPCs issued by clients.
    RpcCalls,
    /// NFS RPC retransmissions.
    RpcRetransmits,
    /// NFS RPC major timeouts (retry limit exhausted; ETIMEDOUT).
    RpcMajorTimeouts,
    /// L1 cache misses in the memory-system model.
    L1Misses,
    /// L2 cache misses in the memory-system model.
    L2Misses,
    /// Cycles the memory-system model spent beyond the L1-hit cost.
    MemStallCycles,
    /// Events dropped by a full trace ring (overflow accounting).
    TraceDrops,
    /// Lite-process polls dispatched by cooperative schedulers (the
    /// crowd-scale analogue of `Dispatches`).
    LiteDispatches,
    /// Dispatches that woke a threaded process's host thread other than
    /// the dispatcher's own: each one is a host context switch.
    HostHandoffs,
}

impl Counter {
    /// Number of counters (array sizing).
    pub const COUNT: usize = 26;

    /// Every counter, in display order.
    pub const ALL: [Counter; Counter::COUNT] = [
        Counter::Syscalls,
        Counter::Forks,
        Counter::Execs,
        Counter::Dispatches,
        Counter::CacheHits,
        Counter::CacheMisses,
        Counter::DiskReads,
        Counter::DiskWrites,
        Counter::SyncMetaWrites,
        Counter::DiskFaults,
        Counter::DiskRemaps,
        Counter::TcpSegments,
        Counter::TcpRetransmits,
        Counter::DelayedAcks,
        Counter::UdpDatagrams,
        Counter::NetDupFrames,
        Counter::NetLateFrames,
        Counter::RpcCalls,
        Counter::RpcRetransmits,
        Counter::RpcMajorTimeouts,
        Counter::L1Misses,
        Counter::L2Misses,
        Counter::MemStallCycles,
        Counter::TraceDrops,
        Counter::LiteDispatches,
        Counter::HostHandoffs,
    ];

    /// Short stable label for table footers.
    pub fn label(self) -> &'static str {
        match self {
            Counter::Syscalls => "syscalls",
            Counter::Forks => "forks",
            Counter::Execs => "execs",
            Counter::Dispatches => "dispatches",
            Counter::CacheHits => "bufcache hits",
            Counter::CacheMisses => "bufcache misses",
            Counter::DiskReads => "disk reads",
            Counter::DiskWrites => "disk writes",
            Counter::SyncMetaWrites => "sync meta writes",
            Counter::DiskFaults => "disk faults",
            Counter::DiskRemaps => "disk remaps",
            Counter::TcpSegments => "tcp segments",
            Counter::TcpRetransmits => "tcp retransmits",
            Counter::DelayedAcks => "delayed acks",
            Counter::UdpDatagrams => "udp datagrams",
            Counter::NetDupFrames => "net dup frames",
            Counter::NetLateFrames => "net late frames",
            Counter::RpcCalls => "rpc calls",
            Counter::RpcRetransmits => "rpc retransmits",
            Counter::RpcMajorTimeouts => "rpc major timeouts",
            Counter::L1Misses => "l1 misses",
            Counter::L2Misses => "l2 misses",
            Counter::MemStallCycles => "mem stall cycles",
            Counter::TraceDrops => "trace drops",
            Counter::LiteDispatches => "lite dispatches",
            Counter::HostHandoffs => "host handoffs",
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_lists_are_complete_and_unique() {
        let mut classes: Vec<Class> = Class::ALL.to_vec();
        classes.dedup();
        assert_eq!(classes.len(), Class::ALL.len());
        let mut counters: Vec<Counter> = Counter::ALL.to_vec();
        counters.dedup();
        assert_eq!(counters.len(), Counter::COUNT);
        assert_eq!(
            Counter::ALL.iter().map(|c| *c as usize).max().unwrap() + 1,
            Counter::COUNT
        );
    }

    #[test]
    fn wait_priorities_only_on_wait_classes() {
        for c in Class::ALL {
            let is_wait = c.idle_priority().is_some();
            match c {
                Class::DiskSeek
                | Class::DiskRotation
                | Class::DiskMedia
                | Class::AckWindowWait
                | Class::WireTransit
                | Class::NetRecvWait
                | Class::RpcWait
                | Class::PipeWait => assert!(is_wait, "{c:?} should be a wait class"),
                _ => assert!(!is_wait, "{c:?} should not be a wait class"),
            }
        }
    }
}
