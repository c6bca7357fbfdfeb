//! Zero-cost simulation trace layer.
//!
//! The simulator is generic over a [`TraceSink`]; every interesting
//! event in a transaction's life calls [`TraceSink::record`]. The
//! default sink is [`NoopTrace`], whose `record` is an empty
//! `#[inline(always)]` body — monomorphization erases the calls
//! entirely, so the default inner loop compiles to the same code as one
//! with no trace calls at all (the benchmark's interleaved untraced
//! `wall_s` bound is what would catch it if it stopped). The working
//! sink, [`CountingSink`], keeps per-kind totals and never allocates.

/// One typed simulator event. Times are simulation seconds;
/// transaction ids are the simulator's `TxnId` values (ordered by
/// admission).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TraceEvent {
    /// A transaction entered the DBMS (admission past the MPL gate).
    Admission {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A lock request blocked; the transaction joined a lock queue.
    LockWait {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A blocked transaction was granted its lock.
    LockGrant {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
        /// Seconds it spent blocked in the lock queue.
        waited: f64,
    },
    /// A transaction was aborted as a deadlock victim.
    DeadlockAbort {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A transaction was preempted by the POW lock-priority policy.
    PowPreempt {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A disk I/O was issued (data disk read or write-back).
    DiskIo {
        /// Data-disk index.
        disk: u32,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A log force hardened a batch of commit records.
    GroupCommit {
        /// Commit records hardened by this force.
        batch: u32,
        /// Simulation time, seconds.
        t: f64,
    },
    /// A transaction committed.
    Commit {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// Chaos: a lock-holding transaction was stalled mid-step (the
    /// injected analogue of a client holding a lock across a pause).
    ChaosStall {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
        /// Injected stall length, seconds.
        secs: f64,
    },
    /// Chaos: the disk-latency spike toggled on or off.
    ChaosDiskSpike {
        /// Simulation time, seconds.
        t: f64,
        /// True when the spike became active, false when it lifted.
        active: bool,
    },
    /// Chaos: a client abort storm killed a blocked transaction.
    ChaosAbort {
        /// Transaction id.
        txn: u64,
        /// Simulation time, seconds.
        t: f64,
    },
    /// Chaos: the MMPP arrival burst toggled between its phases.
    ChaosBurst {
        /// Simulation time, seconds.
        t: f64,
        /// Think-time divisor now in force (>1 during the ON phase).
        factor: f64,
    },
    /// The MPL controller discarded a low-load observation window — a
    /// run of these under steady traffic means the controller is frozen.
    ControllerDiscard {
        /// Simulation time, seconds.
        t: f64,
        /// Throughput of the discarded window, txns/second.
        throughput: f64,
    },
}

impl TraceEvent {
    /// Dense kind index, usable as an array key (see
    /// [`CountingSink::by_kind`]).
    pub fn kind(&self) -> usize {
        match self {
            TraceEvent::Admission { .. } => 0,
            TraceEvent::LockWait { .. } => 1,
            TraceEvent::LockGrant { .. } => 2,
            TraceEvent::DeadlockAbort { .. } => 3,
            TraceEvent::PowPreempt { .. } => 4,
            TraceEvent::DiskIo { .. } => 5,
            TraceEvent::GroupCommit { .. } => 6,
            TraceEvent::Commit { .. } => 7,
            TraceEvent::ChaosStall { .. } => 8,
            TraceEvent::ChaosDiskSpike { .. } => 9,
            TraceEvent::ChaosAbort { .. } => 10,
            TraceEvent::ChaosBurst { .. } => 11,
            TraceEvent::ControllerDiscard { .. } => 12,
        }
    }

    /// Number of distinct event kinds.
    pub const KINDS: usize = 13;

    /// Stable short name of a kind index.
    pub fn kind_name(kind: usize) -> &'static str {
        [
            "admission",
            "lock_wait",
            "lock_grant",
            "deadlock_abort",
            "pow_preempt",
            "disk_io",
            "group_commit",
            "commit",
            "chaos_stall",
            "chaos_disk_spike",
            "chaos_abort",
            "chaos_burst",
            "controller_discard",
        ][kind]
    }
}

/// Receives simulator trace events. Implementations must not assume
/// any ordering beyond simulation-time order of the emitting sim.
pub trait TraceSink {
    /// Observe one event.
    fn record(&mut self, ev: TraceEvent);
}

/// The default sink: does nothing, compiles to nothing.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NoopTrace;

impl TraceSink for NoopTrace {
    #[inline(always)]
    fn record(&mut self, _ev: TraceEvent) {}
}

/// Counts events, total and per kind — the cheapest working sink, used
/// by the on/off invariance tests and by perfbench's traced `highpop`
/// run, whose lock-block, deadlock-abort and commit counts CI pins and
/// whose traced ÷ untraced wall (`obs.trace_overhead.highpop`) CI bounds
/// at 1.25.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CountingSink {
    /// Total events recorded.
    pub total: u64,
    /// Events per [`TraceEvent::kind`] index.
    pub by_kind: [u64; TraceEvent::KINDS],
}

impl TraceSink for CountingSink {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        self.total += 1;
        self.by_kind[ev.kind()] += 1;
    }
}

/// Forwarding impl so a sink can be borrowed into a sim.
impl<T: TraceSink + ?Sized> TraceSink for &mut T {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        (**self).record(ev);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counting_sink_counts_by_kind() {
        let mut s = CountingSink::default();
        s.record(TraceEvent::Admission { txn: 1, t: 0.0 });
        s.record(TraceEvent::Commit { txn: 1, t: 1.0 });
        s.record(TraceEvent::Commit { txn: 2, t: 2.0 });
        assert_eq!(s.total, 3);
        assert_eq!(
            s.by_kind[TraceEvent::Admission { txn: 0, t: 0.0 }.kind()],
            1
        );
        assert_eq!(s.by_kind[TraceEvent::Commit { txn: 0, t: 0.0 }.kind()], 2);
        assert_eq!(TraceEvent::kind_name(7), "commit");
        assert_eq!(TraceEvent::KINDS, 13);
        assert_eq!(TraceEvent::kind_name(12), "controller_discard");
    }
}
