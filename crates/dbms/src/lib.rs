#![warn(missing_docs)]
//! A discrete-event-simulated transactional DBMS.
//!
//! This crate stands in for the paper's IBM DB2 / Shore / PostgreSQL
//! backends. It models exactly the resources whose queueing behaviour
//! drives the paper's results:
//!
//! * a bank of CPUs shared processor-sharing style ([`cpu`]), with an
//!   optional preemptive two-priority mode (the "renice" internal
//!   prioritization of §5.2),
//! * FCFS data disks plus a dedicated log disk ([`disk`]),
//! * an LRU buffer pool deciding which page accesses become disk reads
//!   ([`bufferpool`]),
//! * a strict two-phase-locking lock manager with shared/exclusive modes,
//!   Repeatable Read and Uncommitted Read isolation, waits-for deadlock
//!   detection with youngest-victim abort/restart, and the
//!   Preempt-on-Wait (POW) priority policy of McWherter et al. ([`lock`]),
//! * a per-transaction state machine walking lock → page access → CPU
//!   burst steps to a logged commit ([`sim`]).
//!
//! The simulator is single-threaded and fully deterministic for a given
//! seed. External scheduling (the MPL gate, queue policies, controller)
//! deliberately lives *outside* this crate, in `xsched-core` — mirroring
//! the paper's architectural point that the external scheduler needs no
//! access to DBMS internals.

pub mod bufferpool;
pub mod config;
pub mod cpu;
pub mod disk;
pub mod fault;
pub mod lock;
pub mod metrics;
pub mod sim;
pub mod txn;

pub use config::{
    CpuPolicy, DbmsConfig, DeadlockStrategy, HardwareConfig, IsolationLevel, LockPriorityPolicy,
};
pub use fault::{FaultSpec, SpikeSpec, StallSpec, Toggler};
pub use metrics::{Completion, DbmsMetrics};
pub use sim::{CapacityStats, DbmsSim, StepOutcome};
pub use txn::{ItemId, LockMode, PageId, Priority, Step, TxnBody, TxnId};
pub use xsched_obs::{CountingSink, NoopTrace, TraceEvent, TraceSink};
