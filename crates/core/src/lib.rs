#![warn(missing_docs)]
//! External transaction scheduling with an automatically tuned MPL.
//!
//! This crate is the paper's primary contribution (Schroeder et al., ICDE
//! 2006): keep most transactions in an *external* queue the application
//! controls, admit at most MPL of them into the DBMS, and tune that MPL to
//! the lowest value that does not hurt throughput or overall mean response
//! time.
//!
//! * [`policy`] — ordering disciplines for the external queue (FIFO,
//!   two-class priority as in §5.1, and SJF extensions);
//! * [`gate`] — the MPL counting gate, safe under live resizing;
//! * [`scheduler`] — [`ExternalScheduler`], the queue + gate composition
//!   every application-facing API goes through;
//! * [`controller`] — the feedback controller of §4.3: observation windows
//!   gated on sample count and confidence-interval width, ±1 reactions
//!   with hysteresis, and a queueing-theoretic jump start
//!   (`xsched-queueing`);
//! * [`driver`] — the experiment driver marrying a workload generator, the
//!   external scheduler and the simulated DBMS; implements every
//!   experiment shape the paper reports (throughput curves, open-system
//!   response times, priority differentiation, controller convergence);
//! * [`scenario`] — serializable, self-contained experiment descriptions:
//!   a [`Scenario`] is one cell of a figure (setup × execution shape ×
//!   run configuration), pure in `(scenario, seed)`;
//! * [`sweep`] — [`SweepPlan`] (scenarios × replication seeds) and the
//!   [`SweepExecutor`]: one execution core that expands tasks into work
//!   units (sub-runs included), claims them in task order across worker
//!   threads, runs each panic-isolated under the fault policy, and hands
//!   finished cells in task order to a sink — batch assembly, the
//!   streaming fold, and the coordinator worker's per-lease call are
//!   each just a sink. Bit-identical to serial execution, feeding
//!   Student-t confidence intervals from replications;
//! * [`cache`] — the plan-level [`MeasurementCache`] memoizing capacity
//!   (reference) runs so open-load grids measure each `(setup, seed)`
//!   capacity exactly once;
//! * [`shard`] — [`ShardResult`] and its bit-exact merge/codec, so a
//!   sweep's flat task grid can be split across processes or hosts and
//!   reassembled identically to an unsharded run;
//! * [`observe`] — [`SweepObs`], the shared observability sink (metrics
//!   registry, controller telemetry series, per-cell [`CellTiming`]s)
//!   behind `figures --metrics`; strictly observational, never changes a
//!   result byte;
//! * [`fault`] — the sweep's failure handling: typed
//!   [`TaskError`]/[`TaskOutcome`] and the [`FaultPolicy`] (panic
//!   isolation, an optional watchdog deadline, keep-going degradation);
//!   every unit runs once, since a pure task that failed would fail the
//!   same way again;
//! * [`journal`] — the kill-safe [`CheckpointJournal`]: completed task
//!   outcomes fsync'd through the shard codec, with truncation-tolerant
//!   [`JournalReplay`] so `--resume` skips finished work and merges
//!   byte-identical to an uninterrupted run;
//! * [`coord`] — the cross-host work-stealing layer: a [`Coordinator`]
//!   handing out task leases over a line-based wire protocol, worker
//!   clients with heartbeats and deterministic reconnect backoff, lease
//!   expiry + reassignment for dead workers, and journal-backed
//!   coordinator crash recovery — all under the invariant that a
//!   coordinated sweep merges byte-identical to a direct run.

pub mod cache;
pub mod controller;
pub mod coord;
pub mod driver;
pub mod fault;
pub mod gate;
pub mod journal;
pub mod observe;
pub mod policy;
pub mod scenario;
pub mod scheduler;
pub mod shard;
pub mod sweep;

pub use cache::{MeasurementCache, MeasurementKey, MeasurementKind};
pub use controller::{ControllerConfig, Decision, MplController, Reference, Targets};
pub use coord::{
    call, run_worker, serve_line, CoordConfig, CoordServer, Coordinator, LocalTransport, Request,
    Response, TcpTransport, Transport, WorkerConfig, WorkerError, WorkerSummary,
};
pub use driver::{
    combine_subruns, ChaosOutcome, ControllerOutcome, Driver, PolicyKind, PriorityOutcome,
    RunConfig, RunResult,
};
pub use fault::{relock, FaultPolicy, TaskError, TaskOutcome};
pub use gate::MplGate;
pub use journal::{CheckpointJournal, JournalReplay};
pub use observe::{CellTiming, SweepObs};
pub use policy::{Fifo, PriorityFifo, QueuePolicy, QueuedTxn, Sjf, WeightedFair};
pub use scenario::{
    ArrivalSpec, ExecSpec, MplSpec, Scenario, ScenarioOutcome, UnitCost, UnitOutcome,
};
pub use scheduler::ExternalScheduler;
pub use shard::{DecodeError, ShardResult};
pub use sweep::{FoldStats, ScenarioResult, SweepExecutor, SweepPlan};
