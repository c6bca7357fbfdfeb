//! The traced run: spans around each public call into a layer, and the
//! per-layer metrics derived from them. Every traced run emits every
//! per-layer metric, so it visits every layer, in a fixed order.

use crate::check::Checker;
use crate::host::{median, quantile, ProbeChild};
use crate::spans::Tracer;
use crate::work::{self, HP_CLIENTS, HP_SETUPS, LEASED_REPORTS};
use std::collections::BTreeMap;
use std::path::Path;
use xsched_bench::{quick_rc_heavy, tput_scenarios};
use xsched_core::{Driver, MplController, RunConfig, Targets};
use xsched_queueing::{FlexServer, H2};
use xsched_workload::setup;

/// Metric name → (value, unit).
pub type Metrics = BTreeMap<String, (f64, &'static str)>;

/// Controller sessions timed layer by layer (the jump-start-bound one).
pub const SESSION_IDS: [u32; 1] = [3];
/// QBD solve MPLs on setup 3's H2 fit.
pub const QBD_MPLS: [u32; 4] = [10, 30, 50, 65];
/// `highpop` trace-event kinds reported per point: (metric, kind index).
pub const HP_KINDS: [(&str, usize); 3] = [("lock_block", 1), ("deadlock_abort", 3), ("commit", 7)];

/// Every per-layer metric the traced run prints, with its unit.
pub fn per_layer_names() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &'static str)> = Vec::new();
    for id in SESSION_IDS {
        v.push((format!("queueing.jumpstart_s.s{id}"), "s"));
    }
    for m in QBD_MPLS {
        v.push((format!("queueing.qbd_solve_s.m{m}"), "s"));
        v.push((format!("queueing.qbd_r_iters.m{m}"), "count"));
    }
    for id in SESSION_IDS {
        v.push((format!("driver.reference_s.s{id}"), "s"));
        v.push((format!("driver.session_s.s{id}"), "s"));
    }
    for id in work::CONTROLLER_IDS {
        v.push((format!("controller.iterations.s{id}"), "count"));
    }
    for id in HP_SETUPS {
        for c in HP_CLIENTS {
            v.push((format!("dbms.events_per_s.s{id}.c{c}"), "1/s"));
            for (kind, _) in HP_KINDS {
                v.push((format!("dbms.{kind}.s{id}.c{c}"), "count"));
            }
        }
    }
    for (name, unit) in [
        ("sweep.cells", "count"),
        ("sweep.cell_s.p50", "s"),
        ("sweep.cell_s.p90", "s"),
        ("sweep.overhead_s", "s"),
        ("sweep.ref_s", "s"),
        ("cache.hits", "count"),
        ("cache.misses", "count"),
        ("sweep.thread_speedup.rt_open", "ratio"),
        ("coord.leases_granted", "count"),
        ("coord.leases_expired", "count"),
        ("coord.tasks_reassigned", "count"),
        ("coord.worker_reconnects", "count"),
        ("coord.idle_s", "s"),
        ("coord.worker_busy_frac", "ratio"),
        ("obs.trace_overhead.highpop", "ratio"),
        ("host.probe_s", "s"),
    ] {
        v.push((name.to_string(), unit));
    }
    v
}

/// Shared state of one traced run.
pub struct Tour<'a> {
    pub seed: u64,
    pub figures: &'a Path,
    pub out: &'a Path,
    pub checker: &'a mut Checker,
    pub tracer: Tracer,
    pub metrics: Metrics,
}

impl Tour<'_> {
    fn put(&mut self, name: String, value: f64) {
        let unit = per_layer_names()
            .into_iter()
            .find(|(n, _)| *n == name)
            .map(|(_, u)| u)
            .unwrap_or_else(|| panic!("undeclared per-layer metric {name}"));
        self.metrics.insert(name, (value, unit));
    }

    /// Visit every layer, probing the host before and after each.
    pub fn run(&mut self) {
        let mut probe = ProbeChild::spawn();
        let mut probes = vec![probe.sample()];
        let layers = [
            (
                "layer.queueing+controller",
                Self::controller as fn(&mut Self),
            ),
            ("layer.dbms", Self::dbms),
            ("layer.sweep+cache", Self::sweep),
            ("layer.coord", Self::coord),
        ];
        for (name, visit) in layers {
            let span = self.tracer.open(name);
            visit(self);
            self.tracer.close(span);
            probes.push(probe.sample());
        }
        let probe_s = median(&probes);
        self.put("host.probe_s".into(), probe_s);
    }

    /// Run length a controller cell of setup `id` uses: the report's own
    /// per-setup scaling, read back from a public scenario builder.
    fn controller_rc(&self, id: u32) -> RunConfig {
        let rc = tput_scenarios(&[("", id)], &[1], &quick_rc_heavy())[0]
            .rc
            .clone();
        RunConfig {
            seed: self.seed,
            ..rc
        }
    }

    /// Analytic + driver/controller layers: reference run, jump-start and
    /// session timed apart for the jump-start-bound setups, QBD solves at
    /// rising MPL, iteration counts of every controller session.
    fn controller(&mut self) {
        let targets = Targets::five_percent();
        let mut h2_s3 = None;
        for id in work::CONTROLLER_IDS {
            let seed = self.seed;
            let driver = Driver::new(setup(id))
                .with_config(self.controller_rc(id))
                .with_cache(xsched_core::MeasurementCache::shared());
            let session = self.tracer.open(&format!("controller.session.s{id}"));
            let (reference, ref_s) = self
                .tracer
                .timed(&format!("driver.reference.s{id}"), || driver.reference());
            // The jump-start's inputs, derived as the session derives them.
            let s = driver.setup();
            let utils = reference.utilizations(s.hw.cpus);
            let io_cost = s.hw.disk_read_time * (1.0 - reference.metrics.hit_ratio());
            let (dmean, dc2) = s.workload.intrinsic_demand_stats(io_cost);
            let max_mpl = s.clients;
            let (jump, jump_s) = self.tracer.timed(&format!("queueing.jumpstart.s{id}"), || {
                MplController::jumpstart(&utils, targets, dmean, dc2, reference.throughput, max_mpl)
            });
            if id == 3 {
                let rho = (reference.throughput * dmean).min(0.95);
                h2_s3 = Some((H2::fit(dmean, dc2.max(1.0)), rho / dmean));
            }
            // The session re-derives the jump-start; both must agree.
            let tracer = &mut self.tracer;
            let checked = self.checker.guard(&format!("session.s{id}"), seed, || {
                let (outcome, secs) = tracer.timed(&format!("driver.run_controller.s{id}"), || {
                    driver.run_controller(targets)
                });
                assert_eq!(outcome.jumpstart_mpl, jump, "jump-start drifted");
                (outcome.iterations, secs)
            });
            self.tracer.close(session);
            let Some((iterations, secs)) = checked else {
                continue;
            };
            self.put(format!("controller.iterations.s{id}"), iterations as f64);
            if SESSION_IDS.contains(&id) {
                self.put(format!("queueing.jumpstart_s.s{id}"), jump_s);
                self.put(format!("driver.reference_s.s{id}"), ref_s);
                // The session's own reference lookup hits the cache, so
                // what remains beside the jump-start is the simulation.
                self.put(format!("driver.session_s.s{id}"), secs - jump_s);
            }
        }
        let (h2, lambda) = h2_s3.expect("setup 3 is a controller setup");
        for m in QBD_MPLS {
            let (sol, secs) = self.tracer.timed(&format!("queueing.qbd_solve.m{m}"), || {
                FlexServer::new(lambda, h2, m).solve()
            });
            self.put(format!("queueing.qbd_solve_s.m{m}"), secs);
            self.put(
                format!("queueing.qbd_r_iters.m{m}"),
                sol.r_iterations as f64,
            );
        }
    }

    /// DBMS layer: every `highpop` point untraced, then with a counting
    /// sink (the pair gives the tracing overhead).
    fn dbms(&mut self) {
        let (mut plain_s, mut traced_s) = (0.0, 0.0);
        for id in HP_SETUPS {
            for c in HP_CLIENTS {
                let seed = self.seed;
                let name = work::hp_unit_name(id, c);
                let tracer = &mut self.tracer;
                let mut secs = 0.0;
                let plain = self.checker.run(&name, seed, || {
                    let (out, s) = tracer.timed(&format!("dbms.run.s{id}.c{c}"), || {
                        work::hp_unit(id, c, seed)
                    });
                    secs = s;
                    out
                });
                let mut sink = None;
                let traced = self.checker.run(&name, seed, || {
                    let ((out, k), s) = tracer
                        .timed(&format!("dbms.run_traced.s{id}.c{c}"), || {
                            work::hp_traced(id, c, seed)
                        });
                    traced_s += s;
                    sink = Some(k);
                    out
                });
                let (Some((_, events)), Some(_), Some(sink)) = (plain, traced, sink) else {
                    continue;
                };
                plain_s += secs;
                self.put(
                    format!("dbms.events_per_s.s{id}.c{c}"),
                    events as f64 / secs,
                );
                for (kind, k) in HP_KINDS {
                    self.put(format!("dbms.{kind}.s{id}.c{c}"), sink.by_kind[k] as f64);
                }
            }
        }
        self.put("obs.trace_overhead.highpop".into(), traced_s / plain_s);
    }

    /// Sweep executor + measurement cache: the leased reports in-process on
    /// one thread, and rt_open again on two.
    fn sweep(&mut self) {
        let seed = self.seed;
        let (mut wall, mut cells, mut hits, mut misses) = (0.0, Vec::new(), 0.0, 0.0);
        let mut rt_open_t1 = f64::NAN;
        for name in LEASED_REPORTS {
            let tracer = &mut self.tracer;
            let mut telemetry = None;
            let mut secs = 0.0;
            let ok = self.checker.run(name, seed, || {
                let ((out, t, _), s) = tracer.timed(&format!("sweep.report.{name}.t1"), || {
                    work::report_unit(name, seed, 1)
                });
                telemetry = Some(t);
                secs = s;
                out
            });
            let (Some(_), Some(t)) = (ok, telemetry) else {
                continue;
            };
            wall += secs;
            if name == "rt_open" {
                rt_open_t1 = secs;
            }
            hits += t.obs.registry().counter("sweep.cache_hits") as f64;
            misses += t.obs.registry().counter("sweep.cache_misses") as f64;
            cells.extend(t.cells);
        }
        let tracer = &mut self.tracer;
        let mut rt_open_t2 = f64::NAN;
        self.checker.run("rt_open", seed, || {
            let ((out, _, _), secs) = tracer.timed("sweep.report.rt_open.t2", || {
                work::report_unit("rt_open", seed, 2)
            });
            rt_open_t2 = secs;
            out
        });
        let run_secs: Vec<f64> = cells
            .iter()
            .filter(|c| !c.bucket.starts_with("ref/"))
            .map(|c| c.secs)
            .collect();
        let ref_s: f64 = cells
            .iter()
            .filter(|c| c.bucket.starts_with("ref/"))
            .map(|c| c.secs)
            .sum();
        let cell_sum: f64 = cells.iter().map(|c| c.secs).sum();
        self.put("sweep.cells".into(), run_secs.len() as f64);
        self.put("sweep.cell_s.p50".into(), quantile(&run_secs, 0.5));
        self.put("sweep.cell_s.p90".into(), quantile(&run_secs, 0.9));
        self.put("sweep.overhead_s".into(), wall - cell_sum);
        self.put("sweep.ref_s".into(), ref_s);
        self.put("cache.hits".into(), hits);
        self.put("cache.misses".into(), misses);
        self.put(
            "sweep.thread_speedup.rt_open".into(),
            rt_open_t1 / rt_open_t2,
        );
    }

    /// Coordinator + wire codec: the leased reports through `--serve` and
    /// one two-thread `--worker`, with both sides' metrics snapshots.
    fn coord(&mut self) {
        let seed = self.seed;
        let cm = self.out.join("coord-metrics.json");
        let wm = self.out.join("worker-metrics.json");
        let figures = self.figures;
        let tracer = &mut self.tracer;
        let mut done = None;
        self.checker.run(work::LEASED_UNIT, seed, || {
            let session = tracer.open("coord.leased_sweep");
            let coord = tracer
                .timed("coord.bind", || work::spawn_coordinator(figures, Some(&cm)))
                .0;
            let (run, wall) = tracer.timed("coord.serve_and_work", || {
                work::leased_unit(figures, coord, Some(&wm))
            });
            tracer.close(session);
            let read = |p: &Path| std::fs::read_to_string(p).unwrap_or_default();
            let (coord_snap, worker_snap) = (read(&cm), read(&wm));
            for counter in ["coord.leases_expired", "coord.tasks_reassigned"] {
                let n = work::snapshot_value(&coord_snap, counter);
                assert_eq!(n, 0.0, "{counter} must stay 0 in a fault-free leased run");
            }
            let output = run.output;
            done = Some((run, wall, coord_snap, worker_snap));
            output
        });
        let Some((run, wall, coord_snap, worker_snap)) = done else {
            return;
        };
        for counter in [
            "coord.leases_granted",
            "coord.leases_expired",
            "coord.tasks_reassigned",
        ] {
            self.put(counter.into(), work::snapshot_value(&coord_snap, counter));
        }
        let reconnects =
            work::snapshot_value(&coord_snap, "coord.worker_reconnects").max(run.reconnects as f64);
        self.put("coord.worker_reconnects".into(), reconnects);
        // Σ cell seconds the worker spent executing leased tasks.
        let busy = work::snapshot_value(&worker_snap, "sweep.shard0.actual_secs");
        self.put("coord.idle_s".into(), wall - busy);
        self.put("coord.worker_busy_frac".into(), busy / (wall * 2.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn per_layer_names_are_unique() {
        let names = per_layer_names();
        let mut sorted: Vec<&String> = names.iter().map(|(n, _)| n).collect();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), names.len());
    }
}
