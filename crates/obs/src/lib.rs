#![warn(missing_docs)]
//! Observability layer for the `extsched` workspace.
//!
//! The paper's premise is that an external scheduler steers a DBMS from
//! coarse *observations* alone — which makes the quality of this
//! repository's own observables part of the product. This crate is the
//! unified layer the rest of the workspace threads through:
//!
//! * [`MetricsRegistry`] — named counters, gauges, and log-bucketed
//!   histograms with a deterministic, versioned JSON snapshot
//!   (`xsched-metrics-v1`). Self-contained, like the other vendored
//!   stand-ins: the build environment has no crates.io access.
//! * [`LogHistogram`] — merge-friendly histogram with deterministic
//!   p50/p95/p99 readout; bucketing is pure integer math over the
//!   sample's IEEE bit pattern, and merging is associative,
//!   commutative bucket-count addition.
//! * [`TraceSink`] — the zero-cost simulation trace abstraction. The
//!   simulator is generic over its sink; the default [`NoopTrace`]
//!   monomorphizes to nothing, so tracing costs exactly zero when
//!   disabled. [`CountingSink`] is the allocation-free working sink.
//! * [`ControllerSeries`] — per-reaction MPL-setpoint / queue-length /
//!   latency-percentile telemetry of the adaptive controller, with a
//!   bit-stable text encoding for golden snapshots.
//!
//! Everything here is observational by contract: enabling any sink or
//! registry must never change simulation results. The determinism
//! suites in the consuming crates pin that property byte-for-byte.

pub mod hist;
pub mod registry;
pub mod series;
pub mod trace;

pub use hist::LogHistogram;
pub use registry::MetricsRegistry;
pub use series::{ControllerSeries, ControllerTick, CONTROLLER_SERIES_SCHEMA};
pub use trace::{CountingSink, NoopTrace, TraceEvent, TraceSink};
