#![warn(missing_docs)]
//! Benchmark harness regenerating every table and figure of the paper.
//!
//! [`experiments`] holds one function per table/figure; each builds a
//! `SweepPlan` of scenario literals, executes it on all cores, and renders
//! a plain-text report through the shared [`table`] pivot builder (the
//! same rows/series the paper plots, with 95% confidence intervals when
//! replications are configured) so the `figures` binary can print them
//! and the integration tests can assert on the underlying numbers.
//! [`fmt`] has the low-level text-table formatters, [`cli`] the argument
//! parser for the `figures` binary.
//!
//! Run `cargo run --release -p xsched-bench --bin figures -- all` to
//! regenerate everything (takes a few minutes), or name individual
//! experiments (`fig2`, `fig7`, `fig11`, ...). `--quick` shortens runs,
//! `--replications 5` adds error bars, `--threads N` caps the worker
//! pool, and `--serve addr` / `--worker addr` split a sweep across
//! processes or hosts through a lease-based coordinator whose tables are
//! byte-identical to a direct run (see [`experiments::SweepMode`]).

pub mod cli;
pub mod experiments;
pub mod fmt;
pub mod table;

pub use experiments::*;
