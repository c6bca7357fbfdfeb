//! Cross-cutting sweep observability.
//!
//! A [`SweepObs`] is the shared sink one `figures` invocation records
//! into: a [`MetricsRegistry`] of counters, gauges and histograms
//! (per-worker task counts, cache hits/misses, summed cell seconds,
//! straggler watermarks) plus every captured controller telemetry
//! series, keyed by experiment cell. [`SweepObs::snapshot`] renders all
//! of it, together with the run's per-cell [`CellTiming`]s, as one
//! `xsched-metrics-v1` JSON document.
//!
//! Observability is strictly observational: nothing recorded here feeds
//! back into scheduling or result values — tables render byte-identically
//! with or without a `SweepObs` attached (pinned by the golden tests and
//! the CI on/off byte-diff).

use crate::fault::relock;
use crate::scenario::{ArrivalSpec, ExecSpec, MplSpec, Scenario};
use std::sync::Mutex;
use xsched_obs::{ControllerSeries, MetricsRegistry};

/// One executed cell's timing telemetry: which bucket it fell in, the
/// measured wall-clock seconds, and the deterministic simulator event
/// count.
#[derive(Debug, Clone, PartialEq)]
pub struct CellTiming {
    /// `{exec}/{arrivals}/{workload}/c{cpus}d{disks}/{mpl}` for a cell's
    /// own work, or
    /// `ref/capacity/{workload}/c{cpus}d{disks}/mref` for the reference
    /// (capacity) run a cell paid for.
    pub bucket: String,
    /// Measured wall-clock seconds.
    pub secs: f64,
    /// Simulator events processed — identical on every host for the same
    /// `(scenario, seed)`, unlike `secs`.
    pub events: u64,
}

impl CellTiming {
    /// The bucket of a scenario's own work: execution shape × arrival
    /// class × workload × hardware × MPL class.
    pub(crate) fn bucket(scenario: &Scenario) -> String {
        let exec = match &scenario.exec {
            ExecSpec::Run { .. } => "run",
            ExecSpec::PriorityAtLoss { .. } => "priority",
            ExecSpec::Controller { chaos: None, .. } => "controller",
            ExecSpec::Controller { chaos: Some(_), .. } => "chaos",
        };
        let arrivals = match &scenario.exec {
            ExecSpec::Run { arrivals, .. } => match arrivals {
                ArrivalSpec::Saturated => "saturated",
                ArrivalSpec::OpenLoad(_) => "open_load",
            },
            // Priority and controller cells drive their own arrival
            // shapes internally.
            _ => "internal",
        };
        let mpl = match &scenario.exec {
            ExecSpec::Run { mpl, .. } => match mpl {
                MplSpec::Fixed(m) => format!("m{m}"),
                MplSpec::Unlimited => "munl".to_string(),
            },
            _ => "m-".to_string(),
        };
        format!(
            "{exec}/{arrivals}/{}/c{}d{}/{mpl}",
            scenario.setup.workload.name, scenario.setup.hw.cpus, scenario.setup.hw.data_disks
        )
    }

    /// Split one executed cell's telemetry: the cell's own cost (`secs`
    /// minus the reference seconds, and `events` already net of
    /// reference events, as the sweep executor passes them) in the
    /// scenario's bucket, plus — when the cell paid for a capacity
    /// run — a separate `ref/` cell carrying exactly the reference
    /// seconds and events.
    pub fn split(
        scenario: &Scenario,
        secs: f64,
        ref_secs: f64,
        events: u64,
        ref_events: u64,
    ) -> Vec<CellTiming> {
        let mut cells = vec![CellTiming {
            bucket: CellTiming::bucket(scenario),
            secs: (secs - ref_secs).max(0.0),
            events,
        }];
        if ref_secs > 0.0 {
            cells.push(CellTiming {
                bucket: format!(
                    "ref/capacity/{}/c{}d{}/mref",
                    scenario.setup.workload.name,
                    scenario.setup.hw.cpus,
                    scenario.setup.hw.data_disks
                ),
                secs: ref_secs,
                events: ref_events,
            });
        }
        cells
    }

    /// This cell as a single JSON object literal.
    fn encode(&self) -> String {
        format!(
            "{{\"bucket\": \"{}\", \"secs\": {:.6}, \"events\": {}}}",
            json_escape(&self.bucket),
            self.secs,
            self.events
        )
    }
}

/// Shared observability sink for a sweep (or a whole figures run).
///
/// Thread-safe by interior locking, so one instance can be handed (via
/// `Arc`) to every sweep worker. Wall-clock-derived metrics (task
/// seconds, stragglers) are inherently machine-dependent; the controller
/// series and everything derived from simulation state are deterministic
/// in `(scenario, seed)`.
pub struct SweepObs {
    registry: MetricsRegistry,
    series: Mutex<Vec<(String, ControllerSeries)>>,
}

impl SweepObs {
    /// An empty sink.
    pub fn new() -> SweepObs {
        SweepObs {
            registry: MetricsRegistry::new(),
            series: Mutex::new(Vec::new()),
        }
    }

    /// The metrics registry executors and binaries record into.
    pub fn registry(&self) -> &MetricsRegistry {
        &self.registry
    }

    /// Store the telemetry series of one controller session, keyed by its
    /// experiment-cell label (row/column/seed).
    pub fn add_controller_series(&self, label: impl Into<String>, series: ControllerSeries) {
        relock(&self.series).push((label.into(), series));
    }

    /// All captured controller series, sorted by cell label so the order
    /// is independent of worker scheduling.
    pub fn controller_series(&self) -> Vec<(String, ControllerSeries)> {
        let mut all = relock(&self.series).clone();
        all.sort_by(|a, b| a.0.cmp(&b.0));
        all
    }

    /// Render registry, per-cell timings, and controller series as one
    /// JSON document.
    pub fn snapshot(&self, timings: &[CellTiming]) -> String {
        let mut out = String::from("{\n    \"schema\": \"xsched-metrics-v1\",\n");
        out.push_str("    \"metrics\": [\n");
        let entries = self.registry.encode_entries();
        for (i, e) in entries.iter().enumerate() {
            out.push_str("        ");
            out.push_str(e);
            if i + 1 < entries.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ],\n");
        out.push_str("    \"timings\": [\n");
        for (i, c) in timings.iter().enumerate() {
            out.push_str("        ");
            out.push_str(&c.encode());
            if i + 1 < timings.len() {
                out.push(',');
            }
            out.push('\n');
        }
        out.push_str("    ],\n");
        out.push_str("    \"controller_series\": {\n");
        let series = self.controller_series();
        for (i, (label, s)) in series.iter().enumerate() {
            out.push_str(&format!(
                "        \"{}\": {}{}\n",
                json_escape(label),
                s.encode_json(),
                if i + 1 < series.len() { "," } else { "" },
            ));
        }
        out.push_str("    }\n}\n");
        out
    }
}

impl Default for SweepObs {
    fn default() -> Self {
        SweepObs::new()
    }
}

impl std::fmt::Debug for SweepObs {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SweepObs").finish_non_exhaustive()
    }
}

/// Minimal JSON string escaping for cell labels (quotes, backslashes,
/// control characters).
fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{PolicyKind, RunConfig};
    use xsched_obs::{ControllerSeries, ControllerTick};
    use xsched_workload::setup;

    fn sample_obs() -> SweepObs {
        let obs = SweepObs::new();
        obs.registry().counter_add("sweep.tasks_done", 9);
        obs.registry().gauge_set("sweep.shard0.actual_secs", 120.5);
        obs.registry().hist_record("sweep.task_secs", 0.25);
        let mut s = ControllerSeries::with_capacity(2);
        s.push(ControllerTick {
            t: 12.0,
            mpl: 7,
            queue_len: 30,
            throughput: 55.0,
            rt_p50: 0.1,
            rt_p95: 0.4,
            rt_p99: 0.9,
        });
        obs.add_controller_series("3 [seed 42]", s);
        obs
    }

    fn run_scenario(id: u32, arrivals: ArrivalSpec) -> Scenario {
        Scenario {
            row: "r".into(),
            col: "c".into(),
            setup: setup(id),
            exec: ExecSpec::Run {
                mpl: MplSpec::Fixed(5),
                policy: PolicyKind::Fifo,
                arrivals,
            },
            rc: RunConfig::quick(),
        }
    }

    #[test]
    fn snapshot_embeds_a_parseable_timings_section() {
        let cells = vec![
            CellTiming {
                bucket: "w/c1d1/run".into(),
                secs: 0.5,
                events: 120_000,
            },
            CellTiming {
                bucket: "w/c1d1/controller".into(),
                secs: 2.25,
                events: 0,
            },
        ];
        let snap = sample_obs().snapshot(&cells);
        // One JSON object per cell, one cell per line, in order.
        let section: Vec<&str> = snap
            .lines()
            .skip_while(|l| !l.contains("\"timings\": ["))
            .skip(1)
            .take_while(|l| !l.trim_start().starts_with(']'))
            .map(str::trim)
            .collect();
        assert_eq!(
            section,
            [
                "{\"bucket\": \"w/c1d1/run\", \"secs\": 0.500000, \"events\": 120000},",
                "{\"bucket\": \"w/c1d1/controller\", \"secs\": 2.250000, \"events\": 0}",
            ]
        );
        // And carries the metric entries and the controller series.
        assert!(snap.contains("\"sweep.tasks_done\""), "{snap}");
        assert!(
            snap.contains("\"3 [seed 42]\": [{\"t\": 12.000000"),
            "{snap}"
        );
    }

    #[test]
    fn buckets_separate_exec_arrival_and_workload() {
        let a = run_scenario(1, ArrivalSpec::Saturated);
        let b = run_scenario(1, ArrivalSpec::OpenLoad(0.7));
        let c = run_scenario(3, ArrivalSpec::Saturated);
        let keys: Vec<String> = [&a, &b, &c].iter().map(|s| CellTiming::bucket(s)).collect();
        assert_ne!(keys[0], keys[1]);
        assert_ne!(keys[0], keys[2]);
        assert!(keys[0].starts_with("run/saturated/"));
    }

    /// A cell that paid for a capacity run splits into its own cost and a
    /// `ref/` cell carrying exactly the reference seconds and events; a
    /// cache-hitting cell stays whole.
    #[test]
    fn reference_runs_split_into_their_own_ref_cell() {
        let open = run_scenario(1, ArrivalSpec::OpenLoad(0.9));
        let paid = CellTiming::split(&open, 0.6, 0.5, 1_000, 4_000);
        assert_eq!(paid.len(), 2);
        assert_eq!(paid[0].bucket, CellTiming::bucket(&open));
        assert!((paid[0].secs - 0.1).abs() < 1e-12);
        assert_eq!(paid[0].events, 1_000);
        assert!(paid[1].bucket.starts_with("ref/capacity/"));
        assert_eq!(paid[1].bucket.split('/').count(), 5);
        assert_eq!((paid[1].secs, paid[1].events), (0.5, 4_000));
        let hit = CellTiming::split(&open, 0.1, 0.0, 1_000, 0);
        assert_eq!(hit.len(), 1);
        assert_eq!((hit[0].secs, hit[0].events), (0.1, 1_000));
    }

    #[test]
    fn snapshot_is_deterministic_for_identical_state() {
        let a = sample_obs().snapshot(&[]);
        let b = sample_obs().snapshot(&[]);
        assert_eq!(a, b);
        // Series order is label-sorted, not insertion-sorted.
        let obs = SweepObs::new();
        obs.add_controller_series("b", ControllerSeries::default());
        obs.add_controller_series("a", ControllerSeries::default());
        let labels: Vec<String> = obs
            .controller_series()
            .into_iter()
            .map(|(l, _)| l)
            .collect();
        assert_eq!(labels, ["a", "b"]);
    }
}
