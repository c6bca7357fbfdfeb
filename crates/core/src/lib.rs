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
//!   response times, priority differentiation, controller convergence)
//!   through one controller [`Driver::session`], which a chaos spec turns
//!   into a robustness session;
//! * [`scenario`] — self-contained experiment descriptions:
//!   a [`Scenario`] is one cell of a figure (setup × execution shape ×
//!   run configuration), pure in `(scenario, seed)`;
//! * [`sweep`] — [`SweepPlan`] (scenarios × replication seeds) and the
//!   [`SweepExecutor`]: one execution core that claims tasks in task
//!   order across worker threads, runs each once under `catch_unwind`,
//!   and hands finished cells in task order to a sink — batch assembly
//!   and the coordinator worker's per-lease call are each just a sink,
//!   and the same in-order step records per-cell timings. A panicking
//!   cell aborts the sweep once every earlier cell is delivered.
//!   Bit-identical to serial execution, feeding Student-t confidence
//!   intervals from replications;
//! * [`cache`] — the plan-level [`MeasurementCache`] memoizing capacity
//!   (reference) runs so open-load grids measure each `(setup, seed)`
//!   capacity exactly once;
//! * [`wire`] — the bit-exact text codec a coordinator worker's
//!   `record` frames carry outcomes in, also the canonical
//!   key for bitwise outcome comparison in tests;
//! * [`observe`] — [`SweepObs`], the shared observability sink (metrics
//!   registry, controller telemetry series, per-cell [`CellTiming`]s)
//!   behind `figures --metrics`; strictly observational, never changes a
//!   result byte;
//! * [`fault`] — the sweep's one failure rule: a panicking cell fails the
//!   run with `sweep task N failed: panicked: …`, since a pure task that
//!   failed would fail the same way again; [`relock`] keeps the caught
//!   panic from poisoning shared bookkeeping until it is re-raised, and
//!   no task can hang, so none runs under a watchdog;
//! * [`coord`] — the cross-host work-stealing layer: a [`Coordinator`]
//!   handing out task leases over a line-based wire protocol, worker
//!   clients with heartbeats and deterministic reconnect backoff, and
//!   lease expiry + reassignment for dead workers — all under the
//!   invariant that a coordinated sweep assembles byte-identical to a
//!   direct run. A killed run is simply run again: every cell is pure in
//!   `(scenario, seed)`.

pub mod cache;
pub mod controller;
pub mod coord;
pub mod driver;
pub mod fault;
pub mod gate;
pub mod observe;
pub mod policy;
pub mod scenario;
pub mod scheduler;
pub mod sweep;
pub mod wire;

pub use cache::{MeasurementCache, MeasurementKey};
pub use controller::{Decision, MplController, Reference, Targets};
pub use coord::{
    call, run_worker, serve_line, CoordConfig, CoordServer, Coordinator, LocalTransport, Request,
    Response, TcpTransport, Transport, WorkerConfig, WorkerError, WorkerSummary,
};
pub use driver::{ControllerOutcome, Driver, PolicyKind, PriorityOutcome, RunConfig, RunResult};
pub use fault::relock;
pub use gate::MplGate;
pub use observe::{CellTiming, SweepObs};
pub use policy::{Fifo, PriorityFifo, QueuePolicy, QueuedTxn, Sjf};
pub use scenario::{ArrivalSpec, ExecSpec, MplSpec, Scenario, ScenarioOutcome, UnitCost};
pub use scheduler::ExternalScheduler;
pub use sweep::{ScenarioResult, SweepExecutor, SweepPlan};
pub use wire::DecodeError;
