//! Self-contained experiment descriptions.
//!
//! A [`Scenario`] is everything one experiment cell needs: a Table-2
//! [`Setup`], an execution shape ([`ExecSpec`]: a fixed-MPL run, a
//! priority experiment at a throughput-loss budget, or a live controller
//! session), and a [`RunConfig`]. Scenarios are *pure*: running one is a
//! deterministic function of `(scenario, seed)` with no shared state,
//! which is what lets the sweep executor fan replications across OS
//! threads while promising bit-identical results to serial execution.
//!
//! The run-shape used to be baked into ad-hoc driver call sites; with it
//! reified here, a new experiment is one struct literal instead of a new
//! sweep function.

use crate::cache::MeasurementCache;
use crate::controller::Targets;
use crate::driver::{
    ChaosOutcome, ControllerOutcome, Driver, PolicyKind, PriorityOutcome, RunConfig, RunResult,
};
use crate::observe::SweepObs;
use serde::Serialize;
use std::sync::Arc;
use xsched_sim::SimRng;
use xsched_workload::{ArrivalProcess, ChaosSpec, Setup};

/// How a run's MPL is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum MplSpec {
    /// A fixed limit.
    Fixed(u32),
    /// Limit = client population — the paper's MPL-less "original system".
    Unlimited,
    /// The lowest MPL whose throughput stays within the given relative
    /// loss of the MPL-less reference (resolved per scenario by paired
    /// search, exactly as Fig. 11 tunes per-setup MPLs).
    AtLoss(f64),
}

impl MplSpec {
    fn resolve(self, driver: &Driver) -> u32 {
        match self {
            MplSpec::Fixed(m) => m,
            MplSpec::Unlimited => driver.setup().clients,
            MplSpec::AtLoss(loss) => driver.find_mpl_for_loss(loss).0,
        }
    }
}

/// The arrival process, possibly relative to measured capacity.
#[derive(Debug, Clone, Copy, PartialEq, Serialize)]
pub enum ArrivalSpec {
    /// Saturated closed system (zero think time) over the setup's clients.
    Saturated,
    /// Closed system with exponential think time (mean seconds).
    ClosedThink(f64),
    /// Open Poisson arrivals at an absolute rate (txns/second).
    OpenRate(f64),
    /// Open Poisson arrivals at `load` × the setup's measured MPL-less
    /// capacity. The capacity run shares the scenario's seed, so
    /// resolution stays deterministic and paired.
    OpenLoad(f64),
}

impl ArrivalSpec {
    fn resolve(self, driver: &Driver) -> ArrivalProcess {
        match self {
            ArrivalSpec::Saturated => driver.saturated(),
            ArrivalSpec::ClosedThink(mean) => ArrivalProcess::closed(driver.setup().clients, mean),
            ArrivalSpec::OpenRate(rate) => ArrivalProcess::open(rate),
            ArrivalSpec::OpenLoad(load) => {
                ArrivalProcess::open(load * driver.reference().throughput)
            }
        }
    }
}

/// What a scenario executes and measures.
#[derive(Debug, Clone, Serialize)]
pub enum ExecSpec {
    /// One measured run.
    Run {
        /// MPL selection.
        mpl: MplSpec,
        /// External queue discipline.
        policy: PolicyKind,
        /// Arrival process.
        arrivals: ArrivalSpec,
    },
    /// Fig. 11's experiment: tune the MPL for a throughput-loss budget,
    /// run two-class priority, compare against the MPL-less baseline.
    PriorityAtLoss {
        /// Relative throughput-loss budget (e.g. 0.05).
        loss: f64,
    },
    /// A live controller session (§4.3). `start = None` uses the
    /// queueing-model jump-start; `Some(m)` cold-starts at `m`.
    Controller {
        /// DBA targets for the session.
        targets: Targets,
        /// Optional explicit starting MPL.
        start: Option<u32>,
    },
    /// A chaos robustness session: a controller session whose workload is
    /// perturbed at `chaos.onset` by the spec's fault and traffic-shape
    /// injectors, measuring reaction time and overshoot.
    Chaos {
        /// The fault / traffic-shape layer and session length.
        chaos: ChaosSpec,
        /// DBA targets for the session.
        targets: Targets,
        /// Optional explicit starting MPL.
        start: Option<u32>,
    },
}

/// A complete description of one experiment cell.
///
/// `row`/`col` place the scenario in a report table (rows are curves or
/// setups, columns are grid points like `"MPL 5"`; single-column tables
/// leave `col` empty). They carry no execution semantics.
#[derive(Debug, Clone, Serialize)]
pub struct Scenario {
    /// Row label in report tables.
    pub row: String,
    /// Column label in grid tables (empty for row-per-scenario tables).
    pub col: String,
    /// The Table-2 setup (possibly mutated — see `Setup::map_cfg`).
    pub setup: Setup,
    /// What to execute and measure.
    pub exec: ExecSpec,
    /// Run length and bookkeeping. The seed field is overridden per
    /// replication by the sweep executor.
    pub rc: RunConfig,
}

impl Scenario {
    /// A fixed-MPL saturated FIFO run — the throughput-curve cell shape.
    pub fn tput(row: impl Into<String>, setup: Setup, mpl: u32, rc: RunConfig) -> Scenario {
        Scenario {
            row: row.into(),
            col: format!("MPL {mpl}"),
            setup,
            exec: ExecSpec::Run {
                mpl: MplSpec::Fixed(mpl),
                policy: PolicyKind::Fifo,
                arrivals: ArrivalSpec::Saturated,
            },
            rc,
        }
    }

    /// Execute this scenario under `seed`. Pure: identical `(self, seed)`
    /// always produce an identical outcome, bit for bit.
    pub fn run(&self, seed: u64) -> ScenarioOutcome {
        self.run_cached(seed, None)
    }

    /// Execute this scenario under `seed`, serving capacity (reference)
    /// measurements through `cache` when one is supplied. The sweep
    /// executor shares one cache across a whole plan so open-load grids
    /// measure each `(setup, run config, seed)` capacity exactly once.
    /// Purity is preserved: cached and uncached runs are bit-identical.
    pub fn run_cached(&self, seed: u64, cache: Option<&Arc<MeasurementCache>>) -> ScenarioOutcome {
        self.run_observed(seed, cache, None)
    }

    /// Execute this scenario under `seed`, optionally recording telemetry
    /// into a shared [`SweepObs`]. With `obs` attached, controller cells
    /// additionally capture their per-reaction time series (keyed by this
    /// cell's label and seed). The outcome is bit-identical with or
    /// without `obs` — observability never changes a result.
    pub fn run_observed(
        &self,
        seed: u64,
        cache: Option<&Arc<MeasurementCache>>,
        obs: Option<&SweepObs>,
    ) -> ScenarioOutcome {
        self.run_timed(seed, cache, obs).0
    }

    /// [`Scenario::run_observed`] plus the cell's cost telemetry
    /// ([`UnitCost`]): the wall-clock seconds spent *computing* reference
    /// (capacity) runs along the way — zero when every reference lookup
    /// hit the cache — and the deterministic simulator event counts. The
    /// sweep executor separates reference cost from the cell's own so
    /// timing telemetry bills capacity runs to a distinct `ref/` bucket.
    pub fn run_timed(
        &self,
        seed: u64,
        cache: Option<&Arc<MeasurementCache>>,
        obs: Option<&SweepObs>,
    ) -> (ScenarioOutcome, UnitCost) {
        let rc = RunConfig {
            seed,
            ..self.rc.clone()
        };
        let mut driver = Driver::new(self.setup.clone()).with_config(rc);
        if let Some(cache) = cache {
            driver = driver.with_cache(Arc::clone(cache));
        }
        let outcome = match &self.exec {
            ExecSpec::Run {
                mpl,
                policy,
                arrivals,
            } => {
                let arr = arrivals.resolve(&driver);
                let m = mpl.resolve(&driver);
                ScenarioOutcome::Run(driver.run(m, *policy, &arr))
            }
            ExecSpec::PriorityAtLoss { loss } => {
                ScenarioOutcome::Priority(driver.priority_experiment(*loss))
            }
            ExecSpec::Controller { targets, start } => match obs {
                Some(obs) => {
                    let (out, series) = driver.run_controller_with_series(*targets, *start);
                    obs.add_controller_series(self.cell_label(seed), series);
                    ScenarioOutcome::Controller(out)
                }
                None => {
                    ScenarioOutcome::Controller(driver.run_controller_with_start(*targets, *start))
                }
            },
            ExecSpec::Chaos {
                chaos,
                targets,
                start,
            } => match obs {
                Some(obs) => {
                    let (out, series) = driver.run_chaos_with_series(chaos, *targets, *start);
                    obs.add_controller_series(self.cell_label(seed), series);
                    ScenarioOutcome::Chaos(out)
                }
                None => ScenarioOutcome::Chaos(driver.run_chaos(chaos, *targets, *start)),
            },
        };
        (outcome, UnitCost::from_drivers(&[&driver]))
    }

    /// Number of sub-runs the sweep executor splits this cell into: the
    /// configured `rc.subruns` for plain fixed-MPL (or MPL-less) runs, 1
    /// for everything else. `AtLoss`, priority, and controller cells are
    /// multi-phase searches, not one steady-state measurement — splitting
    /// them would re-run the search per sub-run.
    pub fn subrun_count(&self) -> u32 {
        match &self.exec {
            ExecSpec::Run {
                mpl: MplSpec::Fixed(_) | MplSpec::Unlimited,
                ..
            } => self.rc.subruns.max(1),
            _ => 1,
        }
    }

    /// Execute sub-run `k` of `of` for this cell (only valid for the
    /// shapes [`Scenario::subrun_count`] splits). Returns the sub-run's
    /// result plus cost telemetry (see [`Scenario::run_timed`]).
    ///
    /// The split discipline: arrival/MPL specs resolve against the
    /// *parent* seed (so an open-load cell's capacity reference is the
    /// same cached measurement sub-runs share with the unsplit cell), and
    /// each sub-run then simulates `⌈measured/of⌉` transactions — with
    /// its own full warmup — under a seed drawn from the xoshiro256++
    /// stream `derive(seed, "subrun/k/of")`. Sub-runs are therefore
    /// mutually independent and independent of the parent stream, and the
    /// whole expansion is a pure function of `(scenario, seed)` — claim
    /// order on the worker pool cannot change a byte.
    pub fn run_subrun(
        &self,
        seed: u64,
        k: u32,
        of: u32,
        cache: Option<&Arc<MeasurementCache>>,
    ) -> (RunResult, UnitCost) {
        let ExecSpec::Run {
            mpl,
            policy,
            arrivals,
        } = &self.exec
        else {
            panic!("run_subrun on a non-splittable execution shape");
        };
        let rc = RunConfig {
            seed,
            ..self.rc.clone()
        };
        let mut parent = Driver::new(self.setup.clone()).with_config(rc);
        if let Some(cache) = cache {
            parent = parent.with_cache(Arc::clone(cache));
        }
        let arr = arrivals.resolve(&parent);
        let m = mpl.resolve(&parent);
        let sub_seed = SimRng::derive(seed, &format!("subrun/{k}/{of}")).next_u64();
        let sub_rc = RunConfig {
            seed: sub_seed,
            measured_txns: self.rc.measured_txns.div_ceil(u64::from(of.max(1))),
            subruns: 1,
            ..self.rc.clone()
        };
        let mut sub = Driver::new(self.setup.clone()).with_config(sub_rc);
        if let Some(cache) = cache {
            sub = sub.with_cache(Arc::clone(cache));
        }
        let result = sub.run(m, *policy, &arr);
        (result, UnitCost::from_drivers(&[&parent, &sub]))
    }

    /// Execute one work *unit* of this cell: the whole scenario when it
    /// does not split (`of <= 1`), or sub-run `k` of `of` when it does.
    /// This is the single dispatch point the sweep executor's guarded
    /// path runs under `catch_unwind` and the watchdog — one function
    /// owning "run exactly this unit" keeps that path shape-agnostic. Returns the unit's outcome plus cost telemetry
    /// (see [`Scenario::run_timed`]).
    pub fn run_unit(
        &self,
        seed: u64,
        k: u32,
        of: u32,
        cache: Option<&Arc<MeasurementCache>>,
        obs: Option<&SweepObs>,
    ) -> (UnitOutcome, UnitCost) {
        if of <= 1 {
            let (outcome, cost) = self.run_timed(seed, cache, obs);
            (UnitOutcome::Whole(outcome), cost)
        } else {
            let (result, cost) = self.run_subrun(seed, k, of, cache);
            (UnitOutcome::Part(result), cost)
        }
    }

    /// This cell's label in telemetry documents: row, column (when the
    /// table has one), and the replication seed.
    pub fn cell_label(&self, seed: u64) -> String {
        if self.col.is_empty() {
            format!("{} [seed {seed}]", self.row)
        } else {
            format!("{} / {} [seed {seed}]", self.row, self.col)
        }
    }
}

/// What one executed work unit produced: a whole cell's outcome, or one
/// sub-run's slice of a split cell (see [`Scenario::run_unit`]).
#[derive(Debug, Clone)]
pub enum UnitOutcome {
    /// The unit was the entire cell.
    Whole(ScenarioOutcome),
    /// The unit was one sub-run of a split cell.
    Part(RunResult),
}

/// Observational cost telemetry of one executed unit. `ref_secs` is
/// host- and cache-dependent wall clock; the event counts are
/// deterministic in the runs the unit performed (which runs those are —
/// i.e. whether a reference computed or hit the cache — still depends on
/// claim order, which is why the sweep layer reports the cache-stable
/// `events - ref_events` difference per cell). Never part of a result.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct UnitCost {
    /// Wall-clock seconds spent computing reference (capacity) runs.
    pub ref_secs: f64,
    /// Total simulator events processed by the unit.
    pub events: u64,
    /// The share of `events` spent computing reference runs.
    pub ref_events: u64,
}

impl UnitCost {
    /// Sum the cost telemetry of the drivers a unit executed through.
    fn from_drivers(drivers: &[&Driver]) -> UnitCost {
        let mut cost = UnitCost::default();
        for d in drivers {
            cost.ref_secs += d.reference_compute_secs();
            cost.events += d.events_processed();
            cost.ref_events += d.reference_compute_events();
        }
        cost
    }
}

/// The measured outcome of one scenario replication.
#[derive(Debug, Clone, Serialize)]
pub enum ScenarioOutcome {
    /// A plain measured run.
    Run(RunResult),
    /// A Fig.-11-style priority experiment.
    Priority(PriorityOutcome),
    /// A controller session.
    Controller(ControllerOutcome),
    /// A chaos robustness session.
    Chaos(ChaosOutcome),
}

impl ScenarioOutcome {
    /// The run result, if this outcome is a plain run.
    pub fn as_run(&self) -> Option<&RunResult> {
        match self {
            ScenarioOutcome::Run(r) => Some(r),
            _ => None,
        }
    }

    /// The priority outcome, if this is a priority experiment.
    pub fn as_priority(&self) -> Option<&PriorityOutcome> {
        match self {
            ScenarioOutcome::Priority(p) => Some(p),
            _ => None,
        }
    }

    /// The controller outcome, if this is a controller session.
    pub fn as_controller(&self) -> Option<&ControllerOutcome> {
        match self {
            ScenarioOutcome::Controller(c) => Some(c),
            _ => None,
        }
    }

    /// The chaos outcome, if this is a chaos robustness session.
    pub fn as_chaos(&self) -> Option<&ChaosOutcome> {
        match self {
            ScenarioOutcome::Chaos(c) => Some(c),
            _ => None,
        }
    }

    /// Every scalar this outcome reports, as `(metric name, value)` pairs
    /// — the feed for the replication aggregator. Names are shared across
    /// outcome kinds where the quantity is the same (`throughput`,
    /// `mean_rt`, `rt_high`, ...), so one table column definition works
    /// for mixed rows (e.g. Fig. 12's internal vs external schemes).
    pub fn metrics(&self) -> Vec<(&'static str, f64)> {
        match self {
            ScenarioOutcome::Run(r) => vec![
                ("mpl", f64::from(r.mpl)),
                ("throughput", r.throughput),
                ("mean_rt", r.mean_rt),
                ("rt_high", r.rt_high),
                ("rt_low", r.rt_low),
                ("p95_rt", r.p95_rt),
                ("c2_rt", r.c2_rt),
                ("mean_external_wait", r.mean_external_wait),
                ("mean_lock_wait", r.mean_lock_wait),
                // Companion to `mean_rt`: the per-run batch-means CI
                // half-width, so `Replications::summary("mean_rt", ..)`
                // can print both CI flavors.
                ("mean_rt_bm_hw", r.rt_bm_half_width),
                ("aborts_per_txn", r.aborts_per_txn),
                ("log_util", r.metrics.log_utilization()),
                ("disk_util", r.metrics.disk_utilization()),
                ("hit_ratio", r.metrics.hit_ratio()),
                ("rt_p95", r.rt_p95),
                ("rt_p99", r.rt_p99),
            ],
            ScenarioOutcome::Priority(p) => vec![
                ("mpl", f64::from(p.mpl)),
                ("throughput", p.achieved_tput),
                ("mean_rt", p.rt_overall),
                ("rt_high", p.rt_high),
                ("rt_low", p.rt_low),
                ("rt_noprio", p.rt_noprio),
                ("reference_tput", p.reference_tput),
                ("differentiation", p.differentiation()),
                ("low_penalty", p.low_penalty()),
            ],
            ScenarioOutcome::Controller(c) => vec![
                ("final_mpl", f64::from(c.final_mpl)),
                ("iterations", f64::from(c.iterations)),
                ("jumpstart_mpl", f64::from(c.jumpstart_mpl)),
                ("reference_tput", c.reference_tput),
                ("reference_rt", c.reference_rt),
                ("converged", if c.converged { 1.0 } else { 0.0 }),
            ],
            ScenarioOutcome::Chaos(c) => vec![
                ("final_mpl", f64::from(c.final_mpl)),
                ("peak_mpl", f64::from(c.peak_mpl)),
                ("overshoot", f64::from(c.overshoot)),
                ("reaction_windows", f64::from(c.reaction_windows)),
                ("post_onset_windows", f64::from(c.post_onset_windows)),
                ("iterations", f64::from(c.iterations)),
                ("discarded_windows", f64::from(c.discarded_windows)),
                ("reference_tput", c.reference_tput),
                ("converged", if c.converged { 1.0 } else { 0.0 }),
            ],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsched_workload::setup;

    #[test]
    fn scenario_run_matches_direct_driver_call() {
        let rc = RunConfig::quick();
        let sc = Scenario::tput("s1", setup(1), 5, rc.clone());
        let out = sc.run(rc.seed);
        let direct = Driver::new(setup(1)).with_config(rc).run(
            5,
            PolicyKind::Fifo,
            &ArrivalProcess::saturated(100),
        );
        let run = out.as_run().expect("plain run");
        assert_eq!(run.throughput.to_bits(), direct.throughput.to_bits());
        assert_eq!(run.mean_rt.to_bits(), direct.mean_rt.to_bits());
    }

    #[test]
    fn at_loss_mpl_matches_find_mpl_for_loss() {
        let rc = RunConfig::quick();
        let sc = Scenario {
            row: "x".into(),
            col: String::new(),
            setup: setup(1),
            exec: ExecSpec::Run {
                mpl: MplSpec::AtLoss(0.20),
                policy: PolicyKind::Fifo,
                arrivals: ArrivalSpec::Saturated,
            },
            rc: rc.clone(),
        };
        let out = sc.run(rc.seed);
        let want = Driver::new(setup(1))
            .with_config(rc)
            .find_mpl_for_loss(0.20)
            .0;
        assert_eq!(out.as_run().unwrap().mpl, want);
    }

    #[test]
    fn chaos_scenario_reports_reaction_metrics() {
        let rc = RunConfig::quick();
        let sc = Scenario {
            row: "chaos".into(),
            col: String::new(),
            setup: setup(1),
            exec: ExecSpec::Chaos {
                chaos: ChaosSpec::quiet(2.0, 1_500),
                targets: Targets::twenty_percent(),
                start: None,
            },
            rc: rc.clone(),
        };
        assert_eq!(sc.subrun_count(), 1, "chaos cells never split");
        let out = sc.run(rc.seed);
        let chaos = out.as_chaos().expect("chaos outcome");
        assert!(chaos.post_onset_windows > 0);
        for key in [
            "reaction_windows",
            "overshoot",
            "peak_mpl",
            "final_mpl",
            "discarded_windows",
            "converged",
        ] {
            assert!(
                out.metrics().iter().any(|(k, _)| *k == key),
                "chaos outcome lacks {key}"
            );
        }
    }

    #[test]
    fn outcome_metrics_share_names_across_kinds() {
        let rc = RunConfig::quick();
        let run = Scenario::tput("s1", setup(1), 5, rc.clone()).run(rc.seed);
        let prio = Scenario {
            row: "p".into(),
            col: String::new(),
            setup: setup(1),
            exec: ExecSpec::PriorityAtLoss { loss: 0.20 },
            rc: rc.clone(),
        }
        .run(rc.seed);
        for key in ["mpl", "throughput", "mean_rt", "rt_high", "rt_low"] {
            assert!(
                run.metrics().iter().any(|(k, _)| *k == key),
                "run lacks {key}"
            );
            assert!(
                prio.metrics().iter().any(|(k, _)| *k == key),
                "prio lacks {key}"
            );
        }
    }
}
