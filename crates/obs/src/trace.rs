//! Zero-cost simulation trace layer.
//!
//! The simulator is generic over a [`TraceSink`]; every interesting
//! event in a transaction's life calls [`TraceSink::record`]. The
//! default sink is [`NoopTrace`], whose `record` is an empty
//! `#[inline(always)]` body — monomorphization erases the calls
//! entirely, so the traced and untraced inner loops compile to the
//! same code and the events/s regression gate stays untouched. The
//! working sinks are allocation-free after construction: a
//! [`CountingSink`] of per-kind totals and a fixed-capacity
//! [`RingRecorder`] that overwrites its oldest entry when full.

/// One typed simulator event. Times are simulation seconds;
/// transaction ids are the simulator's monotone `TxnId` values.
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
/// by the overhead benchmark and the on/off invariance tests.
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

/// Fixed-capacity ring buffer of the most recent events. The buffer is
/// fully allocated up front and never grows, so attaching it to a
/// steady-state simulation keeps the loop allocation-free.
#[derive(Debug, Clone)]
pub struct RingRecorder {
    buf: Vec<TraceEvent>,
    next: usize,
    recorded: u64,
}

impl RingRecorder {
    /// A recorder holding the most recent `capacity` events
    /// (`capacity` is raised to 1 if 0 is passed).
    pub fn new(capacity: usize) -> RingRecorder {
        RingRecorder {
            buf: Vec::with_capacity(capacity.max(1)),
            next: 0,
            recorded: 0,
        }
    }

    /// Maximum events retained.
    pub fn capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Events currently retained (≤ capacity).
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Total events ever recorded (including overwritten ones).
    pub fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events ever recorded minus events retained — how many were
    /// overwritten by newer ones.
    pub fn dropped(&self) -> u64 {
        self.recorded - self.len() as u64
    }

    /// Retained events, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &TraceEvent> {
        let split = if self.buf.len() < self.buf.capacity() {
            0
        } else {
            self.next
        };
        self.buf[split..].iter().chain(self.buf[..split].iter())
    }
}

impl TraceSink for RingRecorder {
    #[inline]
    fn record(&mut self, ev: TraceEvent) {
        if self.buf.len() < self.buf.capacity() {
            self.buf.push(ev);
        } else {
            self.buf[self.next] = ev;
            self.next = (self.next + 1) % self.buf.len();
        }
        self.recorded += 1;
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

    fn ev(t: f64) -> TraceEvent {
        TraceEvent::Commit { txn: t as u64, t }
    }

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

    #[test]
    fn ring_recorder_overwrites_oldest_without_growing() {
        let mut r = RingRecorder::new(4);
        let cap = r.capacity();
        for i in 0..10 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.capacity(), cap, "ring must never grow");
        assert_eq!(r.len(), 4);
        assert_eq!(r.recorded(), 10);
        assert_eq!(r.dropped(), 6);
        let kept: Vec<f64> = r
            .iter()
            .map(|e| match e {
                TraceEvent::Commit { t, .. } => *t,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(kept, vec![6.0, 7.0, 8.0, 9.0], "oldest-first, newest kept");
    }

    #[test]
    fn ring_recorder_partial_fill_iterates_in_order() {
        let mut r = RingRecorder::new(8);
        for i in 0..3 {
            r.record(ev(i as f64));
        }
        assert_eq!(r.len(), 3);
        assert_eq!(r.dropped(), 0);
        assert_eq!(r.iter().count(), 3);
    }
}
