#![warn(missing_docs)]
//! Discrete-event simulation kernel for the `extsched` workspace.
//!
//! This crate provides the deterministic foundation every other crate in the
//! workspace builds on:
//!
//! * [`time::SimTime`] — an integer-nanosecond simulation clock with total
//!   ordering (no floating-point heap-ordering hazards),
//! * [`engine::EventQueue`] — a deterministic future-event list with stable
//!   tie-breaking,
//! * [`rng::SimRng`] — seeded, stream-splittable random number generation,
//! * [`dist::Dist`] — the service-time / think-time distributions used by the
//!   paper (exponential, 2-phase hyperexponential, bounded Pareto, ...), each
//!   with analytically known mean and squared coefficient of variation,
//! * [`zipf::Zipf`] — skewed access to pages and lock items,
//! * [`stats`] — running moments, squared coefficient of variation,
//!   confidence intervals and percentile estimation used by the controller's
//!   observation phase and by the experiment harness.

pub mod dist;
pub mod engine;
pub mod fx;
pub mod rng;
pub mod stats;
pub mod time;
pub mod zipf;

pub use dist::Dist;
pub use engine::EventQueue;
pub use fx::{FxBuildHasher, FxHashMap, FxHashSet, FxHasher, StableFp};
pub use rng::SimRng;
pub use stats::{BatchMeans, ConfidenceInterval, Replications, SampleSet, Welford};
pub use time::SimTime;
