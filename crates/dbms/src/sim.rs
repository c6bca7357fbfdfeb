//! The DBMS event loop and per-transaction state machine.
//!
//! [`DbmsSim`] owns the event queue, the CPU bank, the data and log disks,
//! the buffer pool and the lock manager, and walks each admitted
//! transaction through its steps:
//!
//! ```text
//! for each step:  [lock?] → [page probes → disk reads on miss] → [CPU burst]
//! then:           log write (commit force) → release locks → Completion
//! ```
//!
//! Blocked lock requests trigger deadlock detection (youngest victim is
//! aborted and restarted after an exponential backoff) and, under the
//! Preempt-on-Wait policy, preemption of blocked low-priority holders.
//!
//! The simulator knows nothing about MPLs or external queues: admission
//! control lives entirely in `xsched-core`, mirroring the paper's
//! external-scheduling architecture. The driver interleaves with the
//! simulator through [`DbmsSim::schedule_external`] tokens and
//! [`DbmsSim::step`].

use crate::bufferpool::BufferPool;
use crate::config::{
    DbmsConfig, DeadlockStrategy, HardwareConfig, IsolationLevel, LockPriorityPolicy,
};
use crate::cpu::CpuBank;
use crate::disk::{Disk, IoRequest};
use crate::fault::{FaultSpec, Toggler};
use crate::lock::{Grant, LockManager, RequestOutcome};
use crate::metrics::{Completion, DbmsMetrics};
use crate::slab::{Slab, SlotRef};
use crate::txn::{LockMode, PageId, Priority, TxnBody, TxnId};
use std::collections::VecDeque;
use xsched_obs::{NoopTrace, TraceEvent, TraceSink};
use xsched_sim::{EventQueue, FxHashMap, SimRng, SimTime};

/// Mean of the exponential backoff before an aborted transaction is
/// restarted, seconds.
const RESTART_BACKOFF: f64 = 0.010;

/// Upper bound on restarts per transaction before it is force-completed
/// without its locks (guards against livelock). The guard is reached in
/// the paper's operating range: it fires once in `figures --quick fig12`,
/// whose output therefore includes one lock-free transaction.
const MAX_RESTARTS: u32 = 50;

/// What a call to [`DbmsSim::step`] processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StepOutcome {
    /// An internal DBMS event was processed.
    Advanced,
    /// An external token scheduled by the driver fired.
    External(u64),
    /// No events pending.
    Idle,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    /// Blocked in a lock queue.
    AcquiringLock,
    /// Waiting for a data-disk read.
    ReadingPage,
    /// Runnable on the CPU bank.
    OnCpu,
    /// Waiting for the commit log force.
    WritingLog,
    /// Aborted; waiting out the restart backoff.
    BackingOff,
    /// In the per-step non-resource delay (client round trip).
    InStepDelay,
}

#[derive(Debug)]
struct TxnState {
    /// Public identity (monotone admission order; the deadlock detector's
    /// age). The slab slot is the *storage* identity and is recycled.
    id: TxnId,
    body: TxnBody,
    external_arrival: f64,
    admitted: f64,
    step: usize,
    page: usize,
    lock_acquired: bool,
    delay_done: bool,
    /// Chaos: the stall injector already rolled the dice for this step's
    /// lock (one draw per acquisition, not per resume).
    stalled: bool,
    pending_cpu_extra: f64,
    phase: Phase,
    restarts: u32,
    lock_wait: f64,
    block_start: f64,
    /// Bumped on every block; lock-timeout events carry the value they
    /// were armed with so stale timers are ignored.
    block_seq: u64,
}

/// Events carry the dense [`SlotRef`] where the handler only needs the
/// transaction's state (dispatch is then a bounds check plus a generation
/// compare — no hashing). `CpuDone` keeps the [`TxnId`] because the CPU
/// bank is keyed by it; `DiskDone` resolves through the id index because
/// the request may belong to the ownerless write-back sentinel.
#[derive(Debug, Clone, Copy)]
enum Ev {
    CpuDone {
        epoch: u64,
        txn: TxnId,
    },
    DiskDone {
        disk: usize,
    },
    LogDone,
    Restart {
        txn: SlotRef,
    },
    DelayDone {
        txn: SlotRef,
    },
    LockTimeout {
        txn: SlotRef,
        block_seq: u64,
    },
    External {
        token: u64,
    },
    /// Chaos: one tick of the client abort storm (self-rescheduling
    /// Poisson stream; only ever scheduled when the storm is enabled).
    ChaosAbort,
}

/// Slab of pending event payloads, addressed by `u32` handles.
///
/// The event heap stores only `(time, seq, handle)` — 24 bytes per entry
/// instead of the 40 a `Scheduled<Ev>` costs with the enum inline — so a
/// `sift_down` touches nearly twice as many entries per cache line. The
/// payloads live here, written once at schedule time and read once at
/// dispatch; the free list recycles slots LIFO, so the arena's footprint
/// is bounded by the maximum number of *concurrently pending* events and
/// the hot slots stay hot.
#[derive(Debug, Default)]
struct EventArena {
    slots: Vec<Ev>,
    free: Vec<u32>,
}

impl EventArena {
    fn with_capacity(cap: usize) -> EventArena {
        EventArena {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
        }
    }

    /// Park a payload, returning its handle.
    #[inline]
    fn insert(&mut self, ev: Ev) -> u32 {
        match self.free.pop() {
            Some(h) => {
                self.slots[h as usize] = ev;
                h
            }
            None => {
                let h = u32::try_from(self.slots.len()).expect("more than 2^32 pending events");
                self.slots.push(ev);
                h
            }
        }
    }

    /// Read a payload back and retire its handle.
    #[inline]
    fn take(&mut self, h: u32) -> Ev {
        self.free.push(h);
        self.slots[h as usize]
    }
}

/// The simulated DBMS.
///
/// Generic over a [`TraceSink`] observing the transaction life cycle
/// (admissions, lock waits/grants, aborts, I/O, commits). The default
/// [`NoopTrace`] sink has an empty `#[inline(always)]` `record`, so the
/// untraced simulator monomorphizes to exactly the pre-tracing code —
/// tracing is a zero-cost abstraction when disabled. Sinks are
/// observational by contract: no sink may change simulation results.
pub struct DbmsSim<T: TraceSink = NoopTrace> {
    hw: HardwareConfig,
    cfg: DbmsConfig,
    /// Future-event list over arena handles; payloads live in `arena`.
    events: EventQueue<u32>,
    /// Pending event payloads, addressed by the handles in `events`.
    arena: EventArena,
    cpu: CpuBank,
    disks: Vec<Disk>,
    log: Disk,
    /// Commit records accumulated while the log is busy (group commit).
    log_batch: Vec<TxnId>,
    /// Transactions hardened by the force write currently in flight.
    log_current: Vec<TxnId>,
    pool: BufferPool,
    locks: LockManager,
    /// Dense per-transaction state; slots recycle as transactions commit.
    states: Slab<TxnState>,
    /// TxnId → slot, for the subsystems that speak [`TxnId`] (lock grants,
    /// deadlock victims, disk completions). Fx-hashed: ids are dense
    /// integers.
    index: FxHashMap<TxnId, SlotRef>,
    runnable: VecDeque<SlotRef>,
    completions: Vec<Completion>,
    /// Scratch for lock release/abort grant lists (reused every event).
    grant_scratch: Vec<Grant>,
    /// Scratch for POW victim lists (reused every preemption check).
    victim_scratch: Vec<TxnId>,
    rng: SimRng,
    next_id: u64,
    /// Events processed by [`DbmsSim::step`] (the benchmark harness
    /// reports raw events/second from this).
    events_processed: u64,
    metrics: DbmsMetrics,
    /// Fault-injection layer; `None` (the default) is the byte-identical
    /// no-chaos path.
    chaos: Option<ChaosState>,
    trace: T,
}

/// Live state of the fault injectors (see [`crate::fault`]). Each
/// injector draws from its own derived stream so enabling one never
/// shifts another's (or the simulator's) randomness.
#[derive(Debug)]
struct ChaosState {
    spec: FaultSpec,
    /// Injectors stay dormant before this simulated time.
    onset: f64,
    stall_rng: SimRng,
    abort_rng: SimRng,
    spike: Option<Toggler>,
}

/// Capacities of the simulator's reusable hot-loop buffers.
///
/// The allocation-discipline tests run a workload to steady state, snap
/// these, run the same load again, and assert nothing grew — the
/// machine-checked form of "the inner loop allocates only at warm-up".
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapacityStats {
    /// Event-heap capacity.
    pub events: usize,
    /// Allocated transaction slots (live + free).
    pub txn_slots: usize,
    /// Id-index capacity (lower bound, as reported by the map).
    pub txn_index: usize,
    /// Runnable-queue capacity.
    pub runnable: usize,
    /// Completion-buffer capacity.
    pub completions: usize,
    /// Grant-scratch capacity.
    pub grant_scratch: usize,
    /// POW victim-scratch capacity.
    pub victim_scratch: usize,
    /// Group-commit accumulation buffer capacity.
    pub log_batch: usize,
    /// In-flight force buffer capacity.
    pub log_current: usize,
    /// Event-payload arena capacity (slots live + free).
    pub event_arena: usize,
}

impl DbmsSim {
    /// A fresh simulator. `seed` controls every stochastic choice
    /// (I/O service times, restart backoffs). Tracing is off: the
    /// [`NoopTrace`] sink compiles every trace call away.
    pub fn new(hw: HardwareConfig, cfg: DbmsConfig, seed: u64) -> DbmsSim {
        DbmsSim::with_trace(hw, cfg, seed, NoopTrace)
    }
}

impl<T: TraceSink> DbmsSim<T> {
    /// A fresh simulator whose life-cycle events are observed by
    /// `trace`. Sinks are strictly observational: for any sink the
    /// simulation results are bit-identical to the untraced build
    /// (pinned by the `tracing_is_observational` test and the core
    /// crate's invariance property).
    pub fn with_trace(hw: HardwareConfig, cfg: DbmsConfig, seed: u64, trace: T) -> DbmsSim<T> {
        assert!(
            (0.0..=1.0).contains(&cfg.writeback_fraction),
            "writeback_fraction {} outside [0, 1]",
            cfg.writeback_fraction
        );
        let cpu = CpuBank::new(hw.cpus, cfg.cpu_policy);
        let disks = (0..hw.data_disks).map(|_| Disk::new()).collect();
        let pool = BufferPool::new(hw.bufferpool_pages);
        let locks = LockManager::new(cfg.lock_policy);
        DbmsSim {
            metrics: DbmsMetrics {
                disk_busy: vec![0.0; hw.data_disks as usize],
                ..Default::default()
            },
            hw,
            cfg,
            // Pre-sized: long runs keep thousands of events in flight and
            // must not re-grow the heap mid-measurement.
            events: EventQueue::with_capacity(1024),
            arena: EventArena::with_capacity(1024),
            cpu,
            disks,
            log: Disk::new(),
            log_batch: Vec::new(),
            log_current: Vec::new(),
            pool,
            locks,
            states: Slab::with_capacity(64),
            index: FxHashMap::default(),
            runnable: VecDeque::with_capacity(64),
            completions: Vec::new(),
            grant_scratch: Vec::new(),
            victim_scratch: Vec::new(),
            rng: SimRng::derive(seed, "dbms"),
            next_id: 0,
            events_processed: 0,
            chaos: None,
            trace,
        }
    }

    /// Attach the service-side fault layer. Injectors stay dormant until
    /// `onset` simulated seconds; their RNG streams derive from `seed`
    /// independently of the simulator's own stream, so a [`FaultSpec`]
    /// with every injector disabled (see [`FaultSpec::is_noop`]) leaves
    /// the simulation byte-identical to one built without this call.
    pub fn with_chaos(mut self, spec: FaultSpec, onset: f64, seed: u64) -> DbmsSim<T> {
        let spike = spec.disk_spike.map(|s| {
            Toggler::new(
                SimRng::derive(seed, "chaos/disk"),
                s.mean_on,
                s.mean_off,
                onset,
            )
        });
        let mut ch = ChaosState {
            spec,
            onset,
            stall_rng: SimRng::derive(seed, "chaos/stall"),
            abort_rng: SimRng::derive(seed, "chaos/abort"),
            spike,
        };
        if spec.abort_rate > 0.0 {
            let t = onset + ch.abort_rng.exp(1.0 / spec.abort_rate);
            let h = self.arena.insert(Ev::ChaosAbort);
            self.events.schedule(SimTime::from_secs_f64(t), h);
        }
        self.chaos = Some(ch);
        self
    }

    /// The attached trace sink.
    pub fn trace(&self) -> &T {
        &self.trace
    }

    /// Mutable access to the trace sink, so the driver can thread its
    /// own typed events (arrival bursts, controller discards) through
    /// the same stream the simulator emits into.
    pub fn trace_mut(&mut self) -> &mut T {
        &mut self.trace
    }

    /// Consume the simulator and hand back its trace sink.
    pub fn into_trace(self) -> T {
        self.trace
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.events.now().as_secs_f64()
    }

    /// Number of transactions currently inside the DBMS (running, blocked,
    /// or backing off before a restart).
    pub fn in_flight(&self) -> usize {
        self.states.len()
    }

    /// Admit a transaction *now*. The caller (the external scheduler) is
    /// responsible for enforcing any MPL.
    pub fn submit(&mut self, body: TxnBody, external_arrival: f64) -> TxnId {
        let id = TxnId(self.next_id);
        self.next_id += 1;
        let now = self.now();
        let r = self.states.insert(TxnState {
            id,
            body,
            external_arrival,
            admitted: now,
            step: 0,
            page: 0,
            lock_acquired: false,
            delay_done: false,
            stalled: false,
            pending_cpu_extra: 0.0,
            phase: Phase::OnCpu, // placeholder until advance() decides
            restarts: 0,
            lock_wait: 0.0,
            block_start: 0.0,
            block_seq: 0,
        });
        self.index.insert(id, r);
        self.runnable.push_back(r);
        self.trace
            .record(TraceEvent::Admission { txn: id.0, t: now });
        self.pump();
        id
    }

    /// Schedule an opaque driver token to fire at `time`; [`DbmsSim::step`]
    /// returns it as [`StepOutcome::External`]. This is how arrival
    /// processes and controller timers share the simulation clock.
    pub fn schedule_external(&mut self, time: SimTime, token: u64) {
        // Drivers compute arrival times in f64 seconds (`now() + delay`);
        // the f64→nanosecond round-trip can land a few ticks before `now`
        // (the f64 representation error at the simulator's time scales is
        // well under a nanosecond, plus the truncating conversion). Clamp
        // only that conversion noise; a genuinely past time is a driver
        // bug and must still trip the event queue's debug assertion.
        const CONVERSION_SLACK_NANOS: u64 = 16;
        let now = self.events.now();
        let time = if time < now && now.as_nanos() - time.as_nanos() <= CONVERSION_SLACK_NANOS {
            now
        } else {
            time
        };
        let h = self.arena.insert(Ev::External { token });
        self.events.schedule(time, h);
    }

    /// Park `ev` in the arena and schedule its handle `delay` seconds out.
    #[inline]
    fn enqueue_in(&mut self, delay: f64, ev: Ev) {
        let h = self.arena.insert(ev);
        self.events.schedule_in(delay, h);
    }

    /// Process one event. Returns [`StepOutcome::Idle`] when no events
    /// remain (the driver then either schedules more arrivals or stops).
    /// A driver timer comes back as [`StepOutcome::External`] without a
    /// pump: the driver reacts first.
    pub fn step(&mut self) -> StepOutcome {
        let Some((_, h)) = self.events.pop() else {
            // Every transaction inside is running, backing off, stalled,
            // or blocked behind one that is — and each of those has a
            // pending event (deadlock detection breaks every cycle as it
            // closes; a lock timeout is itself an event). An empty queue
            // with work still inside is therefore a simulator bug: report
            // it.
            let n = self.states.len();
            assert!(
                self.states.is_empty(),
                "DbmsSim stalled: {n} transactions in flight with no pending events"
            );
            return StepOutcome::Idle;
        };
        self.events_processed += 1;
        match self.arena.take(h) {
            Ev::External { token } => return StepOutcome::External(token),
            Ev::CpuDone { epoch, txn } => self.on_cpu_done(epoch, txn),
            Ev::DiskDone { disk } => self.on_disk_done(disk),
            Ev::LogDone => self.on_log_done(),
            Ev::Restart { txn } => self.on_restart(txn),
            Ev::DelayDone { txn } => self.on_delay_done(txn),
            Ev::LockTimeout { txn, block_seq } => self.on_lock_timeout(txn, block_seq),
            Ev::ChaosAbort => self.on_chaos_abort(),
        }
        self.pump();
        StepOutcome::Advanced
    }

    /// Take all completions recorded since the last call.
    ///
    /// Convenience form that hands over the internal buffer; the driver's
    /// hot loop uses [`DbmsSim::drain_completions_into`] instead, which
    /// recycles a caller-owned buffer and keeps the steady state
    /// allocation-free.
    pub fn drain_completions(&mut self) -> Vec<Completion> {
        std::mem::take(&mut self.completions)
    }

    /// Swap all completions recorded since the last call into `out`
    /// (cleared first). The caller's buffer becomes the simulator's next
    /// accumulation buffer, so two buffers ping-pong and neither ever
    /// reallocates once warm.
    pub fn drain_completions_into(&mut self, out: &mut Vec<Completion>) {
        out.clear();
        std::mem::swap(&mut self.completions, out);
    }

    /// Capacities of the reusable hot-loop buffers (see [`CapacityStats`]).
    pub fn capacity_stats(&self) -> CapacityStats {
        CapacityStats {
            events: self.events.capacity(),
            txn_slots: self.states.capacity(),
            txn_index: self.index.capacity(),
            runnable: self.runnable.capacity(),
            completions: self.completions.capacity(),
            grant_scratch: self.grant_scratch.capacity(),
            victim_scratch: self.victim_scratch.capacity(),
            log_batch: self.log_batch.capacity(),
            log_current: self.log_current.capacity(),
            event_arena: self.arena.slots.capacity(),
        }
    }

    /// Aggregate metrics up to the current simulated time.
    pub fn metrics(&mut self) -> DbmsMetrics {
        let now = self.now();
        let mut m = self.metrics.clone();
        m.cpu_busy = self.cpu.busy_time(now);
        for (i, d) in self.disks.iter_mut().enumerate() {
            m.disk_busy[i] = d.busy_time(now);
        }
        m.log_busy = self.log.busy_time(now);
        m.bp_hits = self.pool.hits();
        m.bp_misses = self.pool.misses();
        m.elapsed = now;
        m
    }

    /// Direct access to the lock manager (used by tests and invariants).
    pub fn lock_manager(&self) -> &LockManager {
        &self.locks
    }

    /// Total events processed by [`DbmsSim::step`] so far.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Pre-populate the buffer pool (typically with the hottest pages, i.e.
    /// the lowest Zipf ranks) so short runs don't spend their measurement
    /// window warming a cold cache. Does not count as hits or misses.
    pub fn warm_bufferpool(&mut self, pages: impl IntoIterator<Item = PageId>) {
        for p in pages {
            self.pool.insert(p);
        }
    }

    /// Hardware configuration the simulator runs.
    pub fn hardware(&self) -> &HardwareConfig {
        &self.hw
    }

    // ------------------------------------------------------------------
    // Event handlers
    // ------------------------------------------------------------------

    fn on_cpu_done(&mut self, epoch: u64, txn: TxnId) {
        if !self.cpu.is_current(epoch) {
            return; // stale completion; a newer event is queued
        }
        let now = self.now();
        self.cpu.complete(now, txn);
        self.resched_cpu();
        let r = *self.index.get(&txn).expect("cpu done for unknown txn");
        let st = self.states.get_mut(r).expect("cpu done for stale slot");
        debug_assert_eq!(st.phase, Phase::OnCpu);
        st.step += 1;
        st.page = 0;
        st.lock_acquired = false;
        st.delay_done = false;
        st.stalled = false;
        self.runnable.push_back(r);
    }

    fn on_disk_done(&mut self, disk: usize) {
        let now = self.now();
        let (done, next) = self.disks[disk].complete(now);
        if let Some((_, delay)) = next {
            self.enqueue_in(delay, Ev::DiskDone { disk });
        }
        if done.txn == Self::WRITEBACK {
            return; // background flush; nobody is waiting
        }
        let r = *self.index.get(&done.txn).expect("io for unknown txn");
        let st = self.states.get_mut(r).expect("io for stale slot");
        debug_assert_eq!(st.phase, Phase::ReadingPage);
        let page = st.body.steps[st.step].pages[st.page];
        self.pool.insert(page);
        st.page += 1;
        self.runnable.push_back(r);
    }

    fn on_log_done(&mut self) {
        let now = self.now();
        if self.cfg.group_commit {
            let (_, next) = self.log.complete(now);
            debug_assert!(next.is_none(), "group commit never queues in the disk");
            let mut hardened = std::mem::take(&mut self.log_current);
            self.trace.record(TraceEvent::GroupCommit {
                batch: hardened.len() as u32,
                t: now,
            });
            // Start one force for everything that accumulated meanwhile.
            if !self.log_batch.is_empty() {
                self.metrics.group_commits += 1;
                let leader = self.log_batch[0];
                let service = self.rng.exp(self.hw.log_write_time);
                let delay = self
                    .log
                    .submit(
                        now,
                        IoRequest {
                            txn: leader,
                            service,
                        },
                    )
                    .expect("log just became idle");
                std::mem::swap(&mut self.log_batch, &mut self.log_current);
                self.enqueue_in(delay, Ev::LogDone);
            }
            for &txn in hardened.iter() {
                self.commit(txn);
            }
            // Recycle the drained force buffer: it becomes the next
            // accumulation batch (a force is in flight) or the next force
            // buffer (log went idle) — either way the vectors ping-pong
            // without reallocating.
            hardened.clear();
            if self.log.is_busy() {
                self.log_batch = hardened;
            } else {
                self.log_current = hardened;
            }
        } else {
            let (done, next) = self.log.complete(now);
            if let Some((_, delay)) = next {
                self.enqueue_in(delay, Ev::LogDone);
            }
            self.commit(done.txn);
        }
    }

    fn on_delay_done(&mut self, txn: SlotRef) {
        let st = self.states.get_mut(txn).expect("delay for unknown txn");
        debug_assert_eq!(st.phase, Phase::InStepDelay);
        st.delay_done = true;
        self.runnable.push_back(txn);
    }

    fn on_lock_timeout(&mut self, txn: SlotRef, block_seq: u64) {
        let Some(st) = self.states.get(txn) else {
            return; // committed meanwhile (slot generation moved on)
        };
        if st.phase != Phase::AcquiringLock || st.block_seq != block_seq {
            return; // the request this timer was armed for was granted
        }
        let id = st.id;
        self.metrics.timeout_aborts += 1;
        // The Timeout strategy's lock-timeout abort is its form of
        // deadlock resolution, so it shares the trace kind.
        let t = self.now();
        self.trace
            .record(TraceEvent::DeadlockAbort { txn: id.0, t });
        self.abort_txn(id);
        self.pump();
    }

    fn on_restart(&mut self, txn: SlotRef) {
        let st = self.states.get_mut(txn).expect("restart for unknown txn");
        debug_assert_eq!(st.phase, Phase::BackingOff);
        self.runnable.push_back(txn);
    }

    /// One tick of the client abort storm: kill the youngest transaction
    /// currently blocked in a lock queue (a client giving up on a stuck
    /// request), then schedule the next tick of the Poisson stream.
    fn on_chaos_abort(&mut self) {
        let now = self.now();
        let delay = {
            let ch = self.chaos.as_mut().expect("storm tick without chaos");
            ch.abort_rng.exp(1.0 / ch.spec.abort_rate)
        };
        self.enqueue_in(delay, Ev::ChaosAbort);
        let victim = self
            .states
            .iter()
            .filter(|(_, st)| st.phase == Phase::AcquiringLock)
            .map(|(_, st)| st.id)
            .max();
        if let Some(v) = victim {
            self.trace
                .record(TraceEvent::ChaosAbort { txn: v.0, t: now });
            self.abort_txn(v);
        }
    }

    /// Current data-disk service multiplier under the spike injector
    /// (1.0 when chaos is off or the spike is dormant). Polling emits a
    /// [`TraceEvent::ChaosDiskSpike`] per phase flip; the flip schedule
    /// itself is consultation-independent (see [`Toggler`]). Takes the
    /// fields it needs instead of `&mut self` so callers may hold a
    /// `states` borrow.
    fn chaos_disk_factor(chaos: &mut Option<ChaosState>, trace: &mut T, now: f64) -> f64 {
        let Some(ch) = chaos.as_mut() else {
            return 1.0;
        };
        let Some(tog) = ch.spike.as_mut() else {
            return 1.0;
        };
        while let Some((t, active)) = tog.poll(now) {
            trace.record(TraceEvent::ChaosDiskSpike { t, active });
        }
        if tog.is_active() {
            ch.spec.disk_spike.map_or(1.0, |s| s.factor)
        } else {
            1.0
        }
    }

    /// Roll the stall injector for a just-acquired step lock: `Some(len)`
    /// when the holder should freeze. One uniform draw per acquisition
    /// while enabled and past onset; zero draws otherwise.
    fn stall_draw(chaos: &mut Option<ChaosState>, now: f64) -> Option<f64> {
        let ch = chaos.as_mut()?;
        let sp = ch.spec.stall?;
        if now < ch.onset || sp.p_per_lock <= 0.0 {
            return None;
        }
        ch.stall_rng
            .chance(sp.p_per_lock)
            .then(|| ch.stall_rng.exp(sp.mean_secs))
    }

    // ------------------------------------------------------------------
    // Transaction state machine
    // ------------------------------------------------------------------

    /// Drain the runnable queue, advancing each transaction to its next
    /// blocking point. Grants and aborts push more work onto the queue, so
    /// this loop (not recursion) handles arbitrarily long cascades.
    fn pump(&mut self) {
        while let Some(r) = self.runnable.pop_front() {
            if self.states.get(r).is_some() {
                self.advance(r);
            }
        }
    }

    /// The effective lock of a step under the configured isolation level:
    /// Uncommitted Read skips shared locks entirely.
    fn effective_lock(
        &self,
        step_lock: Option<(crate::txn::ItemId, LockMode)>,
    ) -> Option<(crate::txn::ItemId, LockMode)> {
        match (self.cfg.isolation, step_lock) {
            (IsolationLevel::UncommittedRead, Some((_, LockMode::Shared))) => None,
            (_, l) => l,
        }
    }

    fn advance(&mut self, r: SlotRef) {
        let now = self.now();
        loop {
            let st = self.states.get_mut(r).expect("advancing unknown txn");
            let txn = st.id;
            if st.step >= st.body.steps.len() {
                // Commit: force the log. Under group commit, records that
                // arrive while a force is in flight are hardened together
                // by the next force.
                st.phase = Phase::WritingLog;
                if self.cfg.group_commit {
                    if self.log.is_busy() {
                        self.log_batch.push(txn);
                    } else {
                        let service = self.rng.exp(self.hw.log_write_time);
                        let delay = self
                            .log
                            .submit(now, IoRequest { txn, service })
                            .expect("idle log must start immediately");
                        debug_assert!(self.log_current.is_empty());
                        self.log_current.push(txn);
                        self.enqueue_in(delay, Ev::LogDone);
                    }
                } else {
                    let service = self.rng.exp(self.hw.log_write_time);
                    if let Some(delay) = self.log.submit(now, IoRequest { txn, service }) {
                        self.enqueue_in(delay, Ev::LogDone);
                    }
                }
                return;
            }
            if !st.delay_done && self.hw.step_delay > 0.0 {
                st.phase = Phase::InStepDelay;
                let d = self.rng.exp(self.hw.step_delay);
                self.enqueue_in(d, Ev::DelayDone { txn: r });
                return;
            }
            st.delay_done = true;
            let step_lock = st.body.steps[st.step].lock;
            let lock_needed = self.effective_lock(step_lock);
            let st = self.states.get_mut(r).expect("advancing unknown txn");
            if !st.lock_acquired {
                if let Some((item, mode)) = lock_needed {
                    let prio = st.body.priority;
                    match self.locks.request(txn, prio, item, mode) {
                        RequestOutcome::Granted => {
                            self.states.get_mut(r).unwrap().lock_acquired = true;
                        }
                        RequestOutcome::Blocked => {
                            let st = self.states.get_mut(r).unwrap();
                            st.phase = Phase::AcquiringLock;
                            st.block_start = now;
                            st.block_seq += 1;
                            let seq = st.block_seq;
                            self.trace
                                .record(TraceEvent::LockWait { txn: txn.0, t: now });
                            self.handle_block(txn, r, item, prio, seq);
                            return;
                        }
                    }
                } else {
                    st.lock_acquired = true;
                }
            }
            // Chaos: a freshly secured step lock may stall its holder. The
            // dice roll happens once per acquisition (`stalled` latches it),
            // never on the resume pass after the stall elapses.
            if self.chaos.is_some() && lock_needed.is_some() {
                let st = self.states.get_mut(r).expect("advancing unknown txn");
                if !st.stalled {
                    st.stalled = true;
                    if let Some(secs) = Self::stall_draw(&mut self.chaos, now) {
                        let st = self.states.get_mut(r).unwrap();
                        st.phase = Phase::InStepDelay;
                        self.enqueue_in(secs, Ev::DelayDone { txn: r });
                        self.trace.record(TraceEvent::ChaosStall {
                            txn: txn.0,
                            t: now,
                            secs,
                        });
                        return;
                    }
                }
            }
            // Page accesses.
            let st = self.states.get_mut(r).expect("advancing unknown txn");
            let step = &st.body.steps[st.step];
            while st.page < step.pages.len() {
                let pg = step.pages[st.page];
                if self.pool.probe(pg) {
                    st.pending_cpu_extra += self.cfg.hit_cpu_time;
                    st.page += 1;
                } else {
                    st.phase = Phase::ReadingPage;
                    let disk = Self::disk_of(pg, self.disks.len());
                    let factor = Self::chaos_disk_factor(&mut self.chaos, &mut self.trace, now);
                    let service = self.rng.exp(self.hw.disk_read_time) * factor;
                    if let Some(delay) = self.disks[disk].submit(now, IoRequest { txn, service }) {
                        self.enqueue_in(delay, Ev::DiskDone { disk });
                    }
                    self.trace.record(TraceEvent::DiskIo {
                        disk: disk as u32,
                        t: now,
                    });
                    return;
                }
            }
            // CPU burst.
            let work = step.cpu + st.pending_cpu_extra;
            st.pending_cpu_extra = 0.0;
            if work > 0.0 {
                st.phase = Phase::OnCpu;
                let prio = st.body.priority;
                self.cpu.add(now, txn, work, prio);
                self.resched_cpu();
                return;
            }
            st.step += 1;
            st.page = 0;
            st.lock_acquired = false;
            st.delay_done = false;
            st.stalled = false;
        }
    }

    fn disk_of(page: PageId, n_disks: usize) -> usize {
        (page.0 % n_disks as u64) as usize
    }

    /// Re-schedule the CPU bank's next completion under the current epoch.
    fn resched_cpu(&mut self) {
        let now = self.now();
        if let Some((dt, txn)) = self.cpu.next_completion(now) {
            let epoch = self.cpu.epoch();
            self.enqueue_in(dt, Ev::CpuDone { epoch, txn });
        }
    }

    /// A lock request just blocked: run deadlock detection and, for
    /// high-priority requesters under POW, preempt blocked low-priority
    /// holders.
    fn handle_block(
        &mut self,
        txn: TxnId,
        r: SlotRef,
        item: crate::txn::ItemId,
        prio: Priority,
        seq: u64,
    ) {
        match self.cfg.deadlock {
            DeadlockStrategy::Detection => {
                // A single block can close more than one cycle; abort
                // victims until no cycle through this transaction remains.
                // (Aborting a victim may grant `txn` its lock, at which
                // point the detector finds nothing and the loop ends.)
                while let Some(victim) = self.locks.find_deadlock_victim(txn) {
                    self.metrics.deadlock_aborts += 1;
                    let t = self.now();
                    self.trace
                        .record(TraceEvent::DeadlockAbort { txn: victim.0, t });
                    self.abort_txn(victim);
                }
            }
            DeadlockStrategy::Timeout { timeout } => {
                self.enqueue_in(
                    timeout,
                    Ev::LockTimeout {
                        txn: r,
                        block_seq: seq,
                    },
                );
            }
        }
        if self.cfg.lock_policy == LockPriorityPolicy::PreemptOnWait
            && prio == Priority::High
            && self.states.get(r).map(|s| s.phase) == Some(Phase::AcquiringLock)
        {
            let mut victims = std::mem::take(&mut self.victim_scratch);
            victims.clear();
            {
                let states = &self.states;
                let index = &self.index;
                self.locks.pow_victims_into(item, &mut victims, |t| {
                    index
                        .get(&t)
                        .and_then(|&r| states.get(r))
                        .map(|s| s.body.priority)
                });
            }
            for v in victims.drain(..) {
                // An earlier victim's abort may have granted this one the
                // lock it was waiting for — it is no longer a *blocked*
                // holder, so POW has no claim on it. (Aborting it anyway,
                // as the pre-slab code did, restarted a transaction that
                // was already back on the runnable queue and corrupted
                // its event flow.)
                if self.locks.waiting_for(v).is_none() {
                    continue;
                }
                self.metrics.pow_aborts += 1;
                let t = self.now();
                self.trace.record(TraceEvent::PowPreempt { txn: v.0, t });
                self.abort_txn(v);
            }
            self.victim_scratch = victims;
        }
    }

    /// Abort a *blocked* transaction: release its locks (resuming any
    /// waiters they unblock), reset its program counter, and schedule its
    /// restart after an exponential backoff.
    fn abort_txn(&mut self, victim: TxnId) {
        let now = self.now();
        self.metrics.aborts += 1;
        let r = *self.index.get(&victim).expect("aborting unknown txn");
        {
            let st = self.states.get(r).expect("aborting stale slot");
            debug_assert_eq!(
                st.phase,
                Phase::AcquiringLock,
                "victims are blocked by construction"
            );
        }
        let mut grants = std::mem::take(&mut self.grant_scratch);
        grants.clear();
        self.locks.abort_into(victim, &mut grants);
        self.resume_grants(&grants, now);
        grants.clear();
        self.grant_scratch = grants;
        let backoff = self.rng.exp(RESTART_BACKOFF);
        let st = self.states.get_mut(r).unwrap();
        st.restarts += 1;
        st.step = 0;
        st.page = 0;
        st.lock_acquired = false;
        st.delay_done = false;
        st.stalled = false;
        st.pending_cpu_extra = 0.0;
        if st.restarts > MAX_RESTARTS {
            // Livelock guard: give up on 2PL for this transaction and let
            // it run lock-free. Rare, but reached in the paper's range
            // (once in `figures --quick fig12`).
            st.phase = Phase::OnCpu;
            st.body.steps.iter_mut().for_each(|s| s.lock = None);
            self.runnable.push_back(r);
            return;
        }
        st.phase = Phase::BackingOff;
        self.enqueue_in(backoff, Ev::Restart { txn: r });
    }

    fn resume_grants(&mut self, grants: &[Grant], now: f64) {
        for g in grants {
            let r = *self.index.get(&g.txn).expect("grant for unknown txn");
            let st = self.states.get_mut(r).expect("grant for stale slot");
            debug_assert_eq!(st.phase, Phase::AcquiringLock);
            let waited = now - st.block_start;
            st.lock_wait += waited;
            st.lock_acquired = true;
            self.runnable.push_back(r);
            self.trace.record(TraceEvent::LockGrant {
                txn: g.txn.0,
                t: now,
                waited,
            });
        }
    }

    /// Sentinel owner for asynchronous dirty-page write-backs.
    const WRITEBACK: TxnId = TxnId(u64::MAX);

    fn commit(&mut self, txn: TxnId) {
        let now = self.now();
        let mut grants = std::mem::take(&mut self.grant_scratch);
        grants.clear();
        self.locks.release_all_into(txn, &mut grants);
        self.resume_grants(&grants, now);
        grants.clear();
        self.grant_scratch = grants;
        let r = self.index.remove(&txn).expect("committing unknown txn");
        let st = self.states.remove(r).expect("committing stale slot");
        if self.cfg.writeback_fraction > 0.0 {
            // Flush a fraction of the touched pages back to the data
            // disks; the transaction does not wait for these.
            let frac = self.cfg.writeback_fraction;
            let factor = Self::chaos_disk_factor(&mut self.chaos, &mut self.trace, now);
            for pg in st.body.steps.iter().flat_map(|s| s.pages.iter().copied()) {
                if self.rng.chance(frac) {
                    let disk = Self::disk_of(pg, self.disks.len());
                    let service = self.rng.exp(self.hw.disk_read_time) * factor;
                    let req = IoRequest {
                        txn: Self::WRITEBACK,
                        service,
                    };
                    if let Some(delay) = self.disks[disk].submit(now, req) {
                        self.enqueue_in(delay, Ev::DiskDone { disk });
                    }
                    self.metrics.writebacks += 1;
                    self.trace.record(TraceEvent::DiskIo {
                        disk: disk as u32,
                        t: now,
                    });
                }
            }
        }
        self.metrics.commits += 1;
        self.trace.record(TraceEvent::Commit { txn: txn.0, t: now });
        self.completions.push(Completion {
            txn_type: st.body.txn_type,
            priority: st.body.priority,
            external_arrival: st.external_arrival,
            admitted: st.admitted,
            completed: now,
            restarts: st.restarts,
            lock_wait: st.lock_wait,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::CpuPolicy;
    use crate::txn::{ItemId, Step};
    use proptest::prelude::*;

    fn run_to_idle<T: TraceSink>(sim: &mut DbmsSim<T>) {
        while sim.step() != StepOutcome::Idle {}
    }

    fn cpu_only_txn(cpu: f64) -> TxnBody {
        TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step::compute(cpu)],
        }
    }

    fn sim(hw: HardwareConfig, cfg: DbmsConfig) -> DbmsSim {
        DbmsSim::new(hw, cfg, 42)
    }

    #[test]
    fn single_cpu_transaction_completes() {
        let mut s = sim(HardwareConfig::default(), DbmsConfig::default());
        s.submit(cpu_only_txn(0.010), 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 1);
        // Response = cpu burst + one log write (stochastic), so > 10 ms.
        assert!(done[0].response_time() >= 0.010);
        assert_eq!(s.in_flight(), 0);
    }

    #[test]
    fn page_misses_go_to_disk_then_hit() {
        let hw = HardwareConfig::default();
        let body = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: None,
                pages: vec![PageId(7), PageId(7)],
                cpu: 0.001,
            }],
        };
        let mut s = sim(hw, DbmsConfig::default());
        s.submit(body.clone(), 0.0);
        run_to_idle(&mut s);
        let m = s.metrics();
        assert_eq!(m.bp_misses, 1, "first access misses");
        assert_eq!(m.bp_hits, 1, "second access hits");
        // Second transaction touching the same page: all hits.
        s.submit(body, s.now());
        run_to_idle(&mut s);
        let m = s.metrics();
        assert_eq!(m.bp_misses, 1);
        assert_eq!(m.bp_hits, 3);
    }

    #[test]
    fn conflicting_writers_serialize() {
        let mk = || TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(1), LockMode::Exclusive)),
                pages: vec![],
                cpu: 0.010,
            }],
        };
        let mut s = sim(HardwareConfig::default(), DbmsConfig::default());
        s.submit(mk(), 0.0);
        s.submit(mk(), 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 2);
        let mut times: Vec<f64> = done.iter().map(|c| c.completed).collect();
        times.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // Serialized on the lock: second commit at least one burst later.
        assert!(times[1] - times[0] >= 0.010 - 1e-9);
        let second = done
            .iter()
            .max_by(|a, b| a.completed.partial_cmp(&b.completed).unwrap())
            .unwrap();
        assert!(second.lock_wait > 0.0, "second writer must have waited");
    }

    #[test]
    fn readers_run_concurrently_under_rr() {
        let mk = || TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(1), LockMode::Shared)),
                pages: vec![],
                cpu: 0.010,
            }],
        };
        let hw = HardwareConfig::default().with_cpus(2);
        let mut s = sim(hw, DbmsConfig::default());
        s.submit(mk(), 0.0);
        s.submit(mk(), 0.0);
        run_to_idle(&mut s);
        for c in s.drain_completions() {
            assert_eq!(c.lock_wait, 0.0, "shared locks should not block");
        }
    }

    #[test]
    fn deadlock_is_broken_and_both_commit() {
        // T1: X(1) then X(2); T2: X(2) then X(1) — classic deadlock.
        let t1 = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![
                Step {
                    lock: Some((ItemId(1), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.005,
                },
                Step {
                    lock: Some((ItemId(2), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.005,
                },
            ],
        };
        let mut t2 = t1.clone();
        t2.steps.swap(0, 1);
        let hw = HardwareConfig::default().with_cpus(2);
        let mut s = sim(hw, DbmsConfig::default());
        s.submit(t1, 0.0);
        s.submit(t2, 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 2, "both must eventually commit");
        let m = s.metrics();
        assert!(m.deadlock_aborts >= 1, "a deadlock must have been detected");
        assert!(done.iter().any(|c| c.restarts > 0));
        s.lock_manager().check_invariants();
    }

    #[test]
    fn uncommitted_read_skips_shared_locks() {
        let mk = |mode| TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(1), mode)),
                pages: vec![],
                cpu: 0.010,
            }],
        };
        let cfg = DbmsConfig::default().with_isolation(IsolationLevel::UncommittedRead);
        let mut s = sim(HardwareConfig::default(), cfg);
        // A writer holds X(1); a reader under UR sails through.
        s.submit(mk(LockMode::Exclusive), 0.0);
        s.submit(mk(LockMode::Shared), 0.0);
        run_to_idle(&mut s);
        for c in s.drain_completions() {
            assert_eq!(c.lock_wait, 0.0, "UR reads never wait");
        }
    }

    #[test]
    fn pow_preempts_blocked_low_holder() {
        // Low L1 holds item 1, then blocks on item 2 (held by low L2).
        // High H blocks on item 1 → POW aborts L1 → H proceeds.
        let l1 = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![
                Step {
                    lock: Some((ItemId(1), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.001,
                },
                Step {
                    lock: Some((ItemId(2), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.050,
                },
            ],
        };
        let l2 = TxnBody {
            txn_type: 1,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(2), LockMode::Exclusive)),
                pages: vec![],
                cpu: 0.100,
            }],
        };
        let h = TxnBody {
            txn_type: 2,
            priority: Priority::High,
            steps: vec![Step {
                lock: Some((ItemId(1), LockMode::Exclusive)),
                pages: vec![],
                cpu: 0.001,
            }],
        };
        let cfg = DbmsConfig {
            lock_policy: LockPriorityPolicy::PreemptOnWait,
            ..Default::default()
        };
        let hw = HardwareConfig::default().with_cpus(2);
        let mut s = sim(hw, cfg);
        s.submit(l2, 0.0); // grabs item 2 first
        s.submit(l1, 0.0); // grabs item 1, then blocks on item 2
        while s.lock_manager().waiting_count() == 0 {
            assert_ne!(s.step(), StepOutcome::Idle, "L1 never blocked");
        }
        s.submit(h, 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 3);
        let m = s.metrics();
        assert!(m.pow_aborts >= 1, "POW must have preempted L1");
        let high = done.iter().find(|c| c.priority == Priority::High).unwrap();
        let l1c = done.iter().find(|c| c.txn_type == 0).unwrap();
        assert!(high.completed < l1c.completed, "high finishes before L1");
    }

    #[test]
    fn external_tokens_interleave_with_events() {
        let mut s = sim(HardwareConfig::default(), DbmsConfig::default());
        s.schedule_external(SimTime::from_secs_f64(0.5), 99);
        s.submit(cpu_only_txn(0.1), 0.0);
        let mut saw_token_at = None;
        loop {
            match s.step() {
                StepOutcome::External(tok) => {
                    saw_token_at = Some((tok, s.now()));
                }
                StepOutcome::Idle => break,
                StepOutcome::Advanced => {}
            }
        }
        let (tok, at) = saw_token_at.expect("token fired");
        assert_eq!(tok, 99);
        assert!((at - 0.5).abs() < 1e-9);
    }

    #[test]
    fn uncommitted_read_still_enforces_write_locks() {
        // UR drops S locks but writers must still serialize on X.
        let mk = || TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(1), LockMode::Exclusive)),
                pages: vec![],
                cpu: 0.010,
            }],
        };
        let cfg = DbmsConfig::default().with_isolation(IsolationLevel::UncommittedRead);
        let hw = HardwareConfig::default().with_cpus(2);
        let mut s = sim(hw, cfg);
        s.submit(mk(), 0.0);
        s.submit(mk(), 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        let second = done
            .iter()
            .max_by(|a, b| a.completed.partial_cmp(&b.completed).unwrap())
            .unwrap();
        assert!(second.lock_wait > 0.0, "X-X conflict must block under UR");
    }

    #[test]
    fn cpu_priority_mode_speeds_up_high_class_end_to_end() {
        let mk = |prio| TxnBody {
            txn_type: 0,
            priority: prio,
            steps: vec![Step::compute(0.050)],
        };
        let cfg = DbmsConfig {
            cpu_policy: CpuPolicy::PrioritizeHigh,
            ..Default::default()
        };
        let mut s = DbmsSim::new(HardwareConfig::default(), cfg, 7);
        // 8 low-priority hogs plus one high-priority txn, all at t=0.
        for _ in 0..8 {
            s.submit(mk(Priority::Low), 0.0);
        }
        s.submit(mk(Priority::High), 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        let high = done.iter().find(|c| c.priority == Priority::High).unwrap();
        let low_best = done
            .iter()
            .filter(|c| c.priority == Priority::Low)
            .map(|c| c.response_time())
            .fold(f64::INFINITY, f64::min);
        assert!(
            high.response_time() < 0.5 * low_best,
            "high {} vs best low {low_best}",
            high.response_time()
        );
    }

    #[test]
    fn group_commit_batches_concurrent_commits() {
        // Many tiny transactions commit in a burst: with group commit the
        // log performs far fewer forces and throughput is higher.
        let run = |group: bool| -> (f64, u64) {
            let cfg = DbmsConfig {
                group_commit: group,
                ..Default::default()
            };
            let hw = HardwareConfig {
                log_write_time: 0.005,
                step_delay: 0.0,
                ..Default::default()
            };
            let mut s = DbmsSim::new(hw, cfg, 1);
            for _ in 0..50 {
                s.submit(cpu_only_txn(0.0001), 0.0);
            }
            run_to_idle(&mut s);
            let done = s.drain_completions();
            assert_eq!(done.len(), 50);
            let finish = done.iter().map(|c| c.completed).fold(0.0, f64::max);
            (finish, s.metrics().group_commits)
        };
        let (t_single, g_single) = run(false);
        let (t_group, g_group) = run(true);
        assert_eq!(g_single, 0);
        assert!(g_group > 0, "group commits must have happened");
        assert!(
            t_group < 0.5 * t_single,
            "group commit should finish the burst much faster: {t_group} vs {t_single}"
        );
    }

    #[test]
    fn lock_timeout_strategy_breaks_deadlock() {
        let t1 = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![
                Step {
                    lock: Some((ItemId(1), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.005,
                },
                Step {
                    lock: Some((ItemId(2), LockMode::Exclusive)),
                    pages: vec![],
                    cpu: 0.005,
                },
            ],
        };
        let mut t2 = t1.clone();
        t2.steps.swap(0, 1);
        let cfg = DbmsConfig {
            deadlock: DeadlockStrategy::Timeout { timeout: 0.05 },
            ..Default::default()
        };
        let hw = HardwareConfig::default().with_cpus(2);
        let mut s = DbmsSim::new(hw, cfg, 42);
        s.submit(t1, 0.0);
        s.submit(t2, 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 2, "both must commit eventually");
        let m = s.metrics();
        assert!(m.timeout_aborts >= 1, "a timeout must have fired");
        assert_eq!(m.deadlock_aborts, 0, "no graph detection under Timeout");
    }

    #[test]
    fn stale_lock_timeouts_are_ignored() {
        // A request that is granted before its timer fires must not abort.
        let writer = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(1), LockMode::Exclusive)),
                pages: vec![],
                cpu: 0.010,
            }],
        };
        let cfg = DbmsConfig {
            deadlock: DeadlockStrategy::Timeout { timeout: 10.0 },
            ..Default::default()
        };
        let mut s = DbmsSim::new(HardwareConfig::default(), cfg, 42);
        s.submit(writer.clone(), 0.0);
        s.submit(writer, 0.0); // waits ~13 ms, well under the timeout
        run_to_idle(&mut s);
        assert_eq!(s.drain_completions().len(), 2);
        assert_eq!(s.metrics().timeout_aborts, 0);
    }

    #[test]
    fn writeback_loads_disks_without_blocking_commits() {
        let body = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: None,
                pages: vec![PageId(1), PageId(2), PageId(3), PageId(4)],
                cpu: 0.001,
            }],
        };
        let run = |frac: f64| -> (f64, u64, f64) {
            let cfg = DbmsConfig {
                writeback_fraction: frac,
                ..Default::default()
            };
            let mut s = DbmsSim::new(HardwareConfig::default(), cfg, 3);
            for _ in 0..20 {
                s.submit(body.clone(), 0.0);
            }
            run_to_idle(&mut s);
            let done = s.drain_completions();
            let mean_rt = done.iter().map(|c| c.response_time()).sum::<f64>() / done.len() as f64;
            let m = s.metrics();
            (mean_rt, m.writebacks, m.disk_busy[0])
        };
        let (rt0, wb0, busy0) = run(0.0);
        let (rt1, wb1, busy1) = run(1.0);
        assert_eq!(wb0, 0);
        assert_eq!(wb1, 20 * 4, "every touched page flushed");
        assert!(busy1 > 1.5 * busy0, "write-backs occupy the disk");
        // Reads queue behind write-backs, so commits slow somewhat — but
        // not by the full write-back service time per page.
        assert!(
            rt1 < 3.0 * rt0,
            "write-back must stay asynchronous: {rt0} vs {rt1}"
        );
    }

    /// Regression: when POW computes several victims and the first abort
    /// *grants* a later victim the lock it was blocked on, that victim is
    /// no longer a blocked holder and must be spared. (The pre-slab code
    /// aborted it anyway, leaving a restarted transaction with a stale
    /// backoff timer — a latent state corruption that surfaced as
    /// double commits under fig12's preemption-heavy runs.)
    #[test]
    fn pow_spares_victims_granted_by_an_earlier_abort() {
        let i = ItemId(1); // shared by both low holders; wanted by high
        let k = ItemId(2); // held by A, wanted by B
        let l = ItemId(3); // held by C, wanted by A
        let step = |lock, cpu| Step {
            lock: Some(lock),
            pages: vec![],
            cpu,
        };
        let c = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![step((l, LockMode::Exclusive), 0.200)],
        };
        // A's early steps are tiny and B's first burst is long, so A is
        // certain to acquire k before B asks for it.
        let a = TxnBody {
            txn_type: 1,
            priority: Priority::Low,
            steps: vec![
                step((i, LockMode::Shared), 0.0001),
                step((k, LockMode::Exclusive), 0.0001),
                step((l, LockMode::Exclusive), 0.001),
            ],
        };
        let b = TxnBody {
            txn_type: 2,
            priority: Priority::Low,
            steps: vec![
                step((i, LockMode::Shared), 0.050),
                step((k, LockMode::Exclusive), 0.001),
            ],
        };
        let h = TxnBody {
            txn_type: 3,
            priority: Priority::High,
            steps: vec![step((i, LockMode::Exclusive), 0.001)],
        };
        let cfg = DbmsConfig {
            lock_policy: LockPriorityPolicy::PreemptOnWait,
            ..Default::default()
        };
        let hw = HardwareConfig::default().with_cpus(4);
        let mut s = DbmsSim::new(hw, cfg, 5);
        s.submit(c, 0.0);
        s.submit(a, 0.0);
        s.submit(b, 0.0);
        // Run until A (blocked on l) and B (blocked on k) both wait.
        while s.lock_manager().waiting_count() < 2 {
            assert_ne!(s.step(), StepOutcome::Idle, "A and B never both blocked");
        }
        // High-priority H blocks on i → POW victim sweep [A, B]; aborting
        // A releases k, granting B — B must be spared.
        s.submit(h, 0.0);
        run_to_idle(&mut s);
        let done = s.drain_completions();
        assert_eq!(done.len(), 4, "all four must commit");
        let m = s.metrics();
        assert_eq!(m.pow_aborts, 1, "only the still-blocked holder aborted");
        let aborted: Vec<u32> = done
            .iter()
            .filter(|c| c.restarts > 0)
            .map(|c| c.txn_type)
            .collect();
        assert_eq!(aborted, vec![1], "A restarted, B spared");
        s.lock_manager().check_invariants();
    }

    /// Allocation discipline: run a contended closed loop to steady
    /// state, snapshot every reusable buffer's capacity, run the same
    /// load again, and require zero growth — the hot loop must only
    /// allocate while warming up.
    #[test]
    fn steady_state_causes_no_buffer_growth() {
        let mut s = DbmsSim::new(HardwareConfig::default(), DbmsConfig::default(), 11);
        let mut rng = SimRng::derive(11, "wl");
        let submit = |s: &mut DbmsSim, rng: &mut SimRng| {
            let body = TxnBody {
                txn_type: 0,
                priority: if rng.chance(0.1) {
                    Priority::High
                } else {
                    Priority::Low
                },
                steps: vec![Step {
                    lock: Some((ItemId(rng.index_u64(5)), LockMode::Exclusive)),
                    pages: vec![PageId(rng.index_u64(200))],
                    cpu: 0.0005 + rng.uniform() * 0.001,
                }],
            };
            s.submit(body, s.now());
        };
        for _ in 0..8 {
            submit(&mut s, &mut rng);
        }
        const HALF: u64 = 1_000;
        let mut done = 0u64;
        let mut buf = Vec::new();
        let mut warm_caps = None;
        while done < 2 * HALF {
            if s.step() == StepOutcome::Idle {
                break;
            }
            s.drain_completions_into(&mut buf);
            for _ in buf.drain(..) {
                done += 1;
                submit(&mut s, &mut rng);
            }
            if done >= HALF && warm_caps.is_none() {
                warm_caps = Some(s.capacity_stats());
            }
        }
        assert_eq!(done, 2 * HALF, "workload must keep the sim busy");
        let warm = warm_caps.expect("first half completed");
        assert_eq!(
            s.capacity_stats(),
            warm,
            "second {HALF} transactions grew a hot-loop buffer"
        );
    }

    #[test]
    fn drain_into_swaps_buffers_without_losing_completions() {
        let mut s = sim(HardwareConfig::default(), DbmsConfig::default());
        s.submit(cpu_only_txn(0.010), 0.0);
        run_to_idle(&mut s);
        let mut buf = vec![Completion {
            txn_type: 99,
            priority: Priority::Low,
            external_arrival: 0.0,
            admitted: 0.0,
            completed: 0.0,
            restarts: 0,
            lock_wait: 0.0,
        }];
        s.drain_completions_into(&mut buf);
        assert_eq!(buf.len(), 1, "stale contents cleared, one completion");
        assert_eq!(buf[0].txn_type, 0);
        s.drain_completions_into(&mut buf);
        assert!(buf.is_empty(), "nothing new since the last drain");
    }

    /// The contract the whole observability layer rests on: attaching
    /// any trace sink changes *nothing* about the simulation — same
    /// completions to the bit, same metrics — and the ring recorder
    /// never grows past its pre-allocated capacity.
    #[test]
    fn tracing_is_observational() {
        use xsched_obs::{CountingSink, RingRecorder};

        fn run<T: TraceSink>(trace: T) -> (Vec<(u64, u64)>, String, T) {
            let mut s =
                DbmsSim::with_trace(HardwareConfig::default(), DbmsConfig::default(), 11, trace);
            let mut rng = SimRng::derive(11, "wl");
            for k in 0..60u64 {
                let body = TxnBody {
                    txn_type: 0,
                    priority: if rng.chance(0.1) {
                        Priority::High
                    } else {
                        Priority::Low
                    },
                    steps: vec![Step {
                        lock: Some((ItemId(k % 4), LockMode::Exclusive)),
                        pages: vec![PageId(rng.index_u64(100))],
                        cpu: 0.0005 + rng.uniform() * 0.001,
                    }],
                };
                s.submit(body, 0.0);
            }
            run_to_idle(&mut s);
            let m = format!("{:?}", s.metrics());
            let done = s
                .drain_completions()
                .iter()
                .map(|c| (c.completed.to_bits(), c.lock_wait.to_bits()))
                .collect();
            (done, m, s.into_trace())
        }

        let (base_done, base_metrics, _) = run(NoopTrace);
        assert_eq!(base_done.len(), 60);

        let (count_done, count_metrics, sink) = run(CountingSink::default());
        assert_eq!(base_done, count_done, "counting sink altered results");
        assert_eq!(base_metrics, count_metrics);
        assert!(sink.total > 0);
        let commits = sink.by_kind[TraceEvent::Commit { txn: 0, t: 0.0 }.kind()];
        assert_eq!(commits, 60, "one commit event per completion");
        let admissions = sink.by_kind[TraceEvent::Admission { txn: 0, t: 0.0 }.kind()];
        assert_eq!(admissions, 60);
        let waits = sink.by_kind[TraceEvent::LockWait { txn: 0, t: 0.0 }.kind()];
        assert!(waits > 0, "contended workload must block sometimes");

        let cap = RingRecorder::new(32).capacity();
        let (ring_done, ring_metrics, ring) = run(RingRecorder::new(32));
        assert_eq!(base_done, ring_done, "ring recorder altered results");
        assert_eq!(base_metrics, ring_metrics);
        assert_eq!(ring.capacity(), cap, "ring recorder must never grow");
        assert_eq!(ring.recorded(), sink.total, "sinks see the same stream");
    }

    #[test]
    fn deterministic_for_same_seed() {
        let mk_run = |seed: u64| {
            let mut s = DbmsSim::new(HardwareConfig::default(), DbmsConfig::default(), seed);
            let mut rng = SimRng::derive(seed, "wl");
            for k in 0..50u64 {
                let body = TxnBody {
                    txn_type: 0,
                    priority: Priority::Low,
                    steps: vec![Step {
                        lock: Some((ItemId(k % 5), LockMode::Exclusive)),
                        pages: vec![PageId(rng.index_u64(1000))],
                        cpu: 0.001 + rng.uniform() * 0.002,
                    }],
                };
                s.submit(body, 0.0);
            }
            run_to_idle(&mut s);
            s.drain_completions()
                .iter()
                .map(|c| (c.completed * 1e9) as u64)
                .collect::<Vec<_>>()
        };
        assert_eq!(mk_run(7), mk_run(7));
        assert_ne!(mk_run(7), mk_run(8));
    }

    #[test]
    fn throughput_saturates_with_concurrency_on_one_disk() {
        // An IO-bound stream: with 8 concurrent txns a single disk is the
        // bottleneck, so doubling concurrency beyond that cannot double
        // throughput.
        let tput = |n: usize| {
            let hw = HardwareConfig {
                bufferpool_pages: 1, // force misses
                ..Default::default()
            };
            let mut s = DbmsSim::new(hw, DbmsConfig::default(), 1);
            let mut next_page = 0u64;
            let submit = |s: &mut DbmsSim, next_page: &mut u64| {
                let pages: Vec<PageId> = (0..4)
                    .map(|_| {
                        *next_page += 1;
                        PageId(*next_page * 7919)
                    })
                    .collect();
                s.submit(
                    TxnBody {
                        txn_type: 0,
                        priority: Priority::Low,
                        steps: vec![Step {
                            lock: None,
                            pages,
                            cpu: 0.010,
                        }],
                    },
                    s.now(),
                );
            };
            for _ in 0..n {
                submit(&mut s, &mut next_page);
            }
            let mut done = 0u64;
            while done < 400 {
                if s.step() == StepOutcome::Idle {
                    break;
                }
                for _ in s.drain_completions() {
                    done += 1;
                    submit(&mut s, &mut next_page);
                }
            }
            done as f64 / s.now()
        };
        let x1 = tput(1);
        let x4 = tput(4);
        let x16 = tput(16);
        assert!(x4 > 1.3 * x1, "some overlap gain: {x1} -> {x4}");
        assert!(
            x16 < 1.3 * x4,
            "saturated disk cannot keep scaling: {x4} -> {x16}"
        );
    }

    /// Contended burst under an optional fault layer. Runs to completion
    /// by transaction count (not to idle: the abort-storm tick
    /// self-reschedules forever) and returns completion bits + the event
    /// counts the injectors emitted.
    fn chaos_run(
        spec: Option<crate::fault::FaultSpec>,
        seed: u64,
    ) -> (Vec<(u64, u64)>, xsched_obs::CountingSink) {
        let mut s = DbmsSim::with_trace(
            HardwareConfig::default(),
            DbmsConfig::default(),
            seed,
            xsched_obs::CountingSink::default(),
        );
        if let Some(sp) = spec {
            s = s.with_chaos(sp, 0.0, seed);
        }
        let mut rng = SimRng::derive(seed, "wl");
        for k in 0..60u64 {
            let body = TxnBody {
                txn_type: 0,
                priority: Priority::Low,
                steps: vec![Step {
                    lock: Some((ItemId(k % 4), LockMode::Exclusive)),
                    pages: vec![PageId(rng.index_u64(100))],
                    cpu: 0.0005 + rng.uniform() * 0.001,
                }],
            };
            s.submit(body, 0.0);
        }
        let mut guard = 0u64;
        while s.in_flight() > 0 && s.step() != StepOutcome::Idle {
            guard += 1;
            assert!(guard < 10_000_000, "chaos run failed to finish");
        }
        let done = s
            .drain_completions()
            .iter()
            .map(|c| (c.completed.to_bits(), c.lock_wait.to_bits()))
            .collect();
        (done, s.into_trace())
    }

    /// The rate-0 identity the whole chaos axis rests on: attaching a
    /// fault layer with every injector disabled leaves completions and
    /// the trace stream byte-identical to a sim built without chaos.
    #[test]
    fn disabled_chaos_is_byte_identical() {
        let (base, base_sink) = chaos_run(None, 11);
        assert_eq!(base.len(), 60);
        let (noop, noop_sink) = chaos_run(Some(FaultSpec::default()), 11);
        assert_eq!(base, noop, "no-op fault layer altered results");
        assert_eq!(base_sink, noop_sink, "no-op fault layer altered trace");
    }

    #[test]
    fn chaos_is_bit_reproducible_in_seed_and_spec() {
        use crate::fault::{SpikeSpec, StallSpec};
        let spec = FaultSpec {
            stall: Some(StallSpec {
                p_per_lock: 0.5,
                mean_secs: 0.010,
            }),
            disk_spike: Some(SpikeSpec {
                mean_on: 0.050,
                mean_off: 0.050,
                factor: 8.0,
            }),
            abort_rate: 50.0,
        };
        let (a, sink_a) = chaos_run(Some(spec), 11);
        let (b, sink_b) = chaos_run(Some(spec), 11);
        assert_eq!(a, b, "same (seed, spec) must be bit-identical");
        assert_eq!(sink_a, sink_b);
        let (c, _) = chaos_run(Some(spec), 12);
        assert_ne!(a, c, "different seed must perturb the run");
    }

    #[test]
    fn stall_injector_freezes_lock_holders() {
        use crate::fault::StallSpec;
        let spec = FaultSpec {
            stall: Some(StallSpec {
                p_per_lock: 1.0,
                mean_secs: 0.050,
            }),
            ..Default::default()
        };
        let (base, _) = chaos_run(None, 11);
        let (stalled, sink) = chaos_run(Some(spec), 11);
        let kind = TraceEvent::ChaosStall {
            txn: 0,
            t: 0.0,
            secs: 0.0,
        }
        .kind();
        assert!(sink.by_kind[kind] >= 60, "every acquisition must stall");
        let makespan = |v: &Vec<(u64, u64)>| {
            v.iter()
                .map(|(c, _)| f64::from_bits(*c))
                .fold(0.0, f64::max)
        };
        assert!(
            makespan(&stalled) > 2.0 * makespan(&base),
            "stalls must stretch the contended burst: {} vs {}",
            makespan(&base),
            makespan(&stalled)
        );
    }

    #[test]
    fn abort_storm_kills_blocked_transactions() {
        let spec = FaultSpec {
            abort_rate: 500.0,
            ..Default::default()
        };
        let (done, sink) = chaos_run(Some(spec), 11);
        assert_eq!(done.len(), 60, "storm victims must restart and commit");
        let kind = TraceEvent::ChaosAbort { txn: 0, t: 0.0 }.kind();
        assert!(
            sink.by_kind[kind] > 0,
            "a 500/s storm over a contended burst must kill someone"
        );
    }

    #[test]
    fn disk_spike_inflates_read_latency() {
        use crate::fault::SpikeSpec;
        let run = |spec: Option<FaultSpec>| {
            let hw = HardwareConfig {
                bufferpool_pages: 1, // force every read to disk
                ..Default::default()
            };
            let mut s = DbmsSim::with_trace(
                hw,
                DbmsConfig::default(),
                9,
                xsched_obs::CountingSink::default(),
            );
            if let Some(sp) = spec {
                s = s.with_chaos(sp, 0.0, 9);
            }
            for k in 0..40u64 {
                s.submit(
                    TxnBody {
                        txn_type: 0,
                        priority: Priority::Low,
                        steps: vec![Step {
                            lock: None,
                            pages: vec![PageId(k * 7919 + 1)],
                            cpu: 0.001,
                        }],
                    },
                    0.0,
                );
            }
            run_to_idle(&mut s);
            let done = s.drain_completions();
            assert_eq!(done.len(), 40);
            let makespan = done.iter().map(|c| c.completed).fold(0.0, f64::max);
            (makespan, s.into_trace())
        };
        let (base, _) = run(None);
        let spec = FaultSpec {
            disk_spike: Some(SpikeSpec {
                mean_on: 1_000.0, // pinned ON for the whole run
                mean_off: 0.001,
                factor: 10.0,
            }),
            ..Default::default()
        };
        let (spiked, sink) = run(Some(spec));
        let kind = TraceEvent::ChaosDiskSpike {
            t: 0.0,
            active: false,
        }
        .kind();
        assert!(sink.by_kind[kind] >= 1, "the spike must have toggled on");
        assert!(
            spiked > 2.0 * base,
            "reads under a 10x spike must crawl: {base} vs {spiked}"
        );
    }

    proptest! {
        // Each case brute-forces the whole waits-for graph after every
        // lock-changing step, at a cost quadratic in queue length; 12
        // cases keep a debug run under about 5 s.
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// High-MPL stress of the single deadlock path: 64–512
        /// transactions admitted at once onto 2–16 items, under every lock
        /// queue discipline and both isolation levels, with mixed
        /// priorities and repeated items (so S→X upgrades happen). After
        /// every step the lock table is consistent and the waits-for graph
        /// has no cycle; the run drains with nothing left in flight (a
        /// stall would trip the empty-queue assertion inside `step`).
        #[test]
        fn high_mpl_drains_with_an_acyclic_waits_for_graph(
            n in 64u64..513,
            items in 2u64..17,
            policy in 0u8..3,
            uncommitted in any::<bool>(),
            seed in any::<u64>(),
        ) {
            let policy = [
                LockPriorityPolicy::None,
                LockPriorityPolicy::PriorityQueue,
                LockPriorityPolicy::PreemptOnWait,
            ][policy as usize];
            let isolation = if uncommitted {
                IsolationLevel::UncommittedRead
            } else {
                IsolationLevel::RepeatableRead
            };
            let cfg = DbmsConfig {
                lock_policy: policy,
                isolation,
                ..Default::default()
            };
            let mut s = DbmsSim::new(HardwareConfig::default().with_cpus(2), cfg, seed);
            let mut rng = SimRng::derive(seed, "wl");
            for _ in 0..n {
                // One or two lock steps; the second revisits the first
                // item half the time (an upgrade when it asks S then X).
                let first = ItemId(rng.index_u64(items));
                let mut steps = Vec::new();
                for k in 0..1 + rng.index(2) {
                    let item = if k == 0 || rng.chance(0.5) {
                        first
                    } else {
                        ItemId(rng.index_u64(items))
                    };
                    let mode = if rng.chance(0.5) {
                        LockMode::Exclusive
                    } else {
                        LockMode::Shared
                    };
                    steps.push(Step {
                        lock: Some((item, mode)),
                        pages: vec![],
                        cpu: 0.0002 + rng.uniform() * 0.001,
                    });
                }
                let priority = if rng.chance(0.3) {
                    Priority::High
                } else {
                    Priority::Low
                };
                s.submit(
                    TxnBody {
                        txn_type: 0,
                        priority,
                        steps,
                    },
                    0.0,
                );
            }
            // Only a lock request (granted or blocked) or a promotion can
            // add a waits-for edge; any other step only removes edges,
            // which cannot close a cycle, so the last verdict still holds.
            let mut checked = None;
            while s.step() != StepOutcome::Idle {
                let locks = s.lock_manager();
                locks.check_invariants();
                let version = Some((locks.grant_count(), locks.block_count()));
                if version != checked {
                    checked = version;
                    locks.check_acyclic();
                }
            }
            prop_assert_eq!(s.in_flight(), 0);
            prop_assert_eq!(s.drain_completions().len() as u64, n);
        }
    }
}
