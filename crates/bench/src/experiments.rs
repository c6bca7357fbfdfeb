//! One function per table/figure of Schroeder et al. (ICDE 2006).
//!
//! Every simulation-backed experiment builds a [`SweepPlan`] — a list of
//! [`Scenario`] literals — and renders it with the shared [`pivot_table`]
//! builder, so all figures share one execution path: multi-core fan-out
//! over `(scenario, seed)` tasks and 95% confidence intervals whenever
//! more than one replication seed is configured (see [`SweepOpts`]).
//! Analytic experiments (Figs. 7, 9, 10) take no configuration — they are
//! exact.

use crate::fmt::{f0, f1, f2, f3, ms, table};
use crate::table::{pivot_table, Col};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xsched_core::{
    run_worker, ArrivalSpec, CellTiming, CoordConfig, CoordServer, Coordinator, ExecSpec,
    MeasurementCache, MplSpec, PolicyKind, RunConfig, Scenario, ScenarioResult, SweepExecutor,
    SweepObs, SweepPlan, Targets, Transport, WorkerConfig, WorkerError,
};
use xsched_dbms::{CpuPolicy, FaultSpec, LockPriorityPolicy, SpikeSpec, StallSpec};
use xsched_queueing::{flex::FlexServer, mg1, recommend, ClosedNetwork, ThroughputModel, H2};
use xsched_sim::Dist;
use xsched_workload::{
    labeled_setups, setup, setup_ids, setups, trace, workloads, BurstSpec, ChaosSpec, FlashSpec,
    Setup,
};

/// The MPL grid used by the throughput figures.
pub const MPL_GRID: [u32; 10] = [1, 2, 3, 5, 7, 10, 15, 20, 30, 40];

/// The `figures --quick` run length. One definition shared by the binary
/// and the golden determinism tests, so the snapshots pin the CLI's
/// actual output.
pub fn quick_rc() -> RunConfig {
    RunConfig {
        warmup_txns: 100,
        measured_txns: 800,
        ..Default::default()
    }
}

/// Full-length run configuration of the `figures` binary.
pub fn full_rc() -> RunConfig {
    RunConfig {
        warmup_txns: 500,
        measured_txns: 4_000,
        ..Default::default()
    }
}

/// `--quick` configuration for experiments that run many inner
/// simulations per scenario (controller sessions, MPL searches).
pub fn quick_rc_heavy() -> RunConfig {
    RunConfig {
        warmup_txns: 100,
        measured_txns: 600,
        ..Default::default()
    }
}

/// Full-length configuration for the heavy (multi-simulation) experiments.
pub fn full_rc_heavy() -> RunConfig {
    RunConfig {
        warmup_txns: 300,
        measured_txns: 2_000,
        ..Default::default()
    }
}

/// How a report's sweep executes: in full in this process, or
/// coordinated across processes or hosts (serving task leases, or
/// working a coordinator's queue).
#[derive(Clone, Default)]
pub enum SweepMode {
    /// Run every task in this process (the default).
    #[default]
    Run,
    /// Serve each sweep as a task-queue coordinator: hand out leases to
    /// `--worker` clients over TCP, record their outcomes in memory,
    /// reassign expired leases, and return the assembled results —
    /// byte-identical to a direct run.
    Serve {
        /// The bound TCP listener, shared across the run's sweeps.
        server: Arc<CoordServer>,
        /// Sweep epoch counter; each executed sweep takes the next one,
        /// so coordinator and workers (running the same experiment
        /// flags) stay aligned sweep for sweep.
        epoch: Arc<AtomicU64>,
        /// Lease duration granted per claim, seconds.
        lease_secs: f64,
        /// Seconds to keep answering after a sweep completes, so slow
        /// workers can still poll their `done`.
        linger_secs: f64,
    },
    /// Work a coordinator's queue: claim task leases over `transport`,
    /// execute them through the normal executor, stream outcomes back.
    /// Returns empty results (the coordinator renders the tables) —
    /// unless the coordinator is unreachable from the start, in which
    /// case the sweep degrades to a full local run and `degraded` is
    /// raised so the caller knows the results are real.
    Worker {
        /// Round-trip channel to the coordinator.
        transport: Arc<dyn Transport>,
        /// Sweep epoch counter mirroring the coordinator's.
        epoch: Arc<AtomicU64>,
        /// Worker identity and retry/heartbeat tuning.
        config: Arc<WorkerConfig>,
        /// Set when any sweep fell back to local execution.
        degraded: Arc<AtomicBool>,
    },
}

impl std::fmt::Debug for SweepMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SweepMode::Run => f.debug_struct("Run").finish(),
            SweepMode::Serve {
                epoch, lease_secs, ..
            } => f
                .debug_struct("Serve")
                .field("epoch", epoch)
                .field("lease_secs", lease_secs)
                .finish_non_exhaustive(),
            SweepMode::Worker { epoch, config, .. } => f
                .debug_struct("Worker")
                .field("epoch", epoch)
                .field("config", config)
                .finish_non_exhaustive(),
        }
    }
}

/// How a report executes its sweep: replication seeds, worker threads,
/// the execution mode (direct or coordinated), and
/// optional per-cell timing telemetry.
#[derive(Debug, Clone, Default)]
pub struct SweepOpts {
    /// Replication seeds; every scenario runs once per seed and cells
    /// print `mean ±hw` when there are at least two. **Empty** (the
    /// default) runs each scenario once under the caller's
    /// `RunConfig::seed`, so reports stay faithful to a custom seed.
    pub seeds: Vec<u64>,
    /// Worker threads (`0` = one per available core).
    pub threads: usize,
    /// Direct or coordinated execution.
    pub mode: SweepMode,
    /// When set, per-cell telemetry from every cell this process executes
    /// is appended here ([`CellTiming`]: bucket, seconds, simulator
    /// events), a coordinator worker's leases included — the `timings`
    /// section of `figures --metrics`.
    pub timings: Option<Arc<Mutex<Vec<CellTiming>>>>,
    /// When set, every executed sweep records execution telemetry
    /// (worker progress, cache hits/misses, task-time histogram,
    /// controller series) into this shared sink — the feed for
    /// `figures --metrics`. Observational only: result bytes never
    /// change.
    pub obs: Option<Arc<SweepObs>>,
    /// Print a per-task completion ticker to stderr while sweeps run.
    pub progress: bool,
    /// Degrade failed tasks to marked failed cells and keep sweeping.
    /// Off (the default) fails fast. Every task runs once, panic-isolated,
    /// either way.
    pub keep_going: bool,
}

impl SweepOpts {
    /// Execute `scenarios` under these options.
    pub fn run(&self, scenarios: Vec<Scenario>) -> Vec<ScenarioResult> {
        let plan = SweepPlan::new(scenarios).with_seeds(self.seeds.clone());
        let mut executor = SweepExecutor::parallel(self.threads)
            .with_progress(self.progress)
            .with_keep_going(self.keep_going);
        if let Some(obs) = &self.obs {
            executor = executor.with_obs(Arc::clone(obs));
        }
        if let Some(timings) = &self.timings {
            executor = executor.with_timings(Arc::clone(timings));
        }
        match &self.mode {
            SweepMode::Run => executor.run(&plan),
            SweepMode::Serve {
                server,
                epoch,
                lease_secs,
                linger_secs,
            } => {
                let ep = epoch.fetch_add(1, Ordering::SeqCst);
                let mut coord = Coordinator::new(
                    ep,
                    &plan,
                    CoordConfig {
                        lease_secs: *lease_secs,
                    },
                );
                if let Some(obs) = &self.obs {
                    coord = coord.with_obs(Arc::clone(obs));
                }
                eprintln!(
                    "[coord] sweep {ep}: serving {} task(s), lease {lease_secs}s",
                    coord.remaining()
                );
                server
                    .serve_sweep(&mut coord, *linger_secs)
                    .unwrap_or_else(|e| panic!("coordinator server failed: {e}"));
                // The coordinator refuses to finish below full coverage,
                // so this can only panic on a genuine bug.
                coord.into_results(&plan)
            }
            SweepMode::Worker {
                transport,
                epoch,
                config,
                degraded,
            } => {
                let ep = epoch.fetch_add(1, Ordering::SeqCst);
                // One shared measurement cache across the per-task
                // executor calls, so this worker pays for each capacity
                // reference at most once per sweep.
                let executor = executor.with_cache(MeasurementCache::shared());
                match run_worker(&plan, ep, &executor, transport.as_ref(), config) {
                    Ok(summary) => {
                        eprintln!(
                            "[worker {}] sweep {ep}: executed {} task(s), {} reconnect(s)",
                            config.id, summary.tasks_executed, summary.reconnects
                        );
                        // The coordinator holds the outcomes and renders
                        // the tables; this side returns one empty result
                        // per scenario, since reports index into them.
                        plan.scenarios
                            .iter()
                            .map(|scenario| ScenarioResult {
                                scenario: scenario.clone(),
                                outcomes: Vec::new(),
                                failures: Vec::new(),
                                reps: Default::default(),
                            })
                            .collect()
                    }
                    Err(WorkerError::Unreachable(e)) => {
                        degraded.store(true, Ordering::SeqCst);
                        eprintln!(
                            "[worker {}] sweep {ep}: coordinator unreachable ({e}); \
                             degrading to a local run",
                            config.id
                        );
                        executor.run(&plan)
                    }
                    Err(e) => panic!("worker {} failed on sweep {ep}: {e}", config.id),
                }
            }
        }
    }
}

/// Heavy-tailed (C² ≈ 15) workloads need much longer measurement windows:
/// with completion-count windows the rare huge transactions accumulate
/// past the window's end and measured throughput is biased upward. Scale
/// the run length for the browsing setups so references are unbiased.
fn rc_for(id: u32, rc: &RunConfig) -> RunConfig {
    if setup(id).workload.name.contains("browsing") || setup(id).workload.name.contains("ordering")
    {
        RunConfig {
            warmup_txns: rc.warmup_txns * 3,
            measured_txns: rc.measured_txns * 5,
            min_warmup_time: 400.0,
            ..rc.clone()
        }
    } else {
        rc.clone()
    }
}

/// Table 1: the six workload definitions with their derived statistics.
pub fn table1_report() -> String {
    let rows: Vec<Vec<String>> = workloads()
        .iter()
        .map(|w| {
            let (mean_cached, c2_cached) = w.intrinsic_demand_stats(0.0);
            let (mean_io, _) = w.intrinsic_demand_stats(0.005);
            vec![
                w.name.to_string(),
                w.db_pages.to_string(),
                w.hot_items.to_string(),
                f1(w.mean_pages()),
                ms(w.mean_cpu()),
                ms(mean_cached),
                ms(mean_io),
                f1(c2_cached),
            ]
        })
        .collect();
    format!(
        "Table 1 — workloads (derived statistics)\n{}",
        table(
            &[
                "workload",
                "db pages",
                "hot items",
                "pages/txn",
                "cpu ms",
                "demand ms (cached)",
                "demand ms (uncached)",
                "C2",
            ],
            &rows,
        )
    )
}

/// Table 2: the 17 setups.
pub fn table2_report() -> String {
    let rows: Vec<Vec<String>> = setups()
        .iter()
        .map(|s| {
            vec![
                s.id.to_string(),
                s.workload.name.to_string(),
                s.hw.cpus.to_string(),
                s.hw.data_disks.to_string(),
                format!("{:?}", s.cfg.isolation),
                s.hw.bufferpool_pages.to_string(),
                s.clients.to_string(),
            ]
        })
        .collect();
    format!(
        "Table 2 — setups\n{}",
        table(
            &[
                "setup",
                "workload",
                "CPUs",
                "disks",
                "isolation",
                "pool pages",
                "clients"
            ],
            &rows,
        )
    )
}

/// Throughput-vs-MPL table for a set of setups (the engine behind
/// Figs. 2–5). Returns `(report, curves)` where `curves[i][j]` is the mean
/// throughput of setup `i` at `grid[j]`.
pub fn throughput_curves(
    labels: &[(&str, u32)],
    grid: &[u32],
    rc: &RunConfig,
    opts: &SweepOpts,
) -> (String, Vec<Vec<f64>>) {
    let results = opts.run(tput_scenarios(labels, grid, rc));

    let cols: Vec<Col> = grid
        .iter()
        .map(|m| Col::new(format!("MPL {m}"), "throughput", format!("MPL {m}"), f1))
        .collect();
    let report = pivot_table("curve", &results, &cols);

    // Result order is plan order: row-major over labels × grid.
    let curves = results
        .chunks(grid.len())
        .map(|row| row.iter().map(|r| r.mean("throughput")).collect())
        .collect();
    (report, curves)
}

/// The `(curve label, setup id)` rows of Fig. 2 — a deliberately
/// heterogeneous grid: the browsing setups run 5× the transactions of the
/// inventory ones: heavy-tailed setups scale their run length.
pub const FIG2_LABELS: [(&str, u32); 4] = [
    ("W_CPU-inventory 1 CPU", 1),
    ("W_CPU-inventory 2 CPUs", 2),
    ("W_CPU-browsing 1 CPU", 3),
    ("W_CPU-browsing 2 CPUs", 4),
];

/// Scenario grid of a throughput-vs-MPL figure: labeled setups × MPL
/// grid, with per-setup run-length scaling (heavy-tailed setups run
/// longer).
pub fn tput_scenarios(labels: &[(&str, u32)], grid: &[u32], rc: &RunConfig) -> Vec<Scenario> {
    labeled_setups(labels)
        .into_iter()
        .flat_map(|(label, s)| {
            let rc = rc_for(s.id, rc);
            grid.iter()
                .map(|&m| {
                    Scenario::tput(
                        format!("{label} (setup {})", s.id),
                        s.clone(),
                        m,
                        rc.clone(),
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Fig. 2: throughput vs. MPL for the CPU-bound workloads, 1 vs 2 CPUs.
pub fn fig2_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let (t, _) = throughput_curves(&FIG2_LABELS, &MPL_GRID, rc, opts);
    format!("Fig. 2 — effect of MPL on throughput, CPU-bound workloads\n{t}")
}

/// Fig. 3: throughput vs. MPL for the I/O-bound workloads, 1–4 disks.
pub fn fig3_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let (t, _) = throughput_curves(
        &[
            ("W_IO-inventory 1 disk", 5),
            ("W_IO-inventory 2 disks", 6),
            ("W_IO-inventory 3 disks", 7),
            ("W_IO-inventory 4 disks", 8),
            ("W_IO-browsing 1 disk", 9),
            ("W_IO-browsing 4 disks", 10),
        ],
        &MPL_GRID,
        rc,
        opts,
    );
    format!("Fig. 3 — effect of MPL on throughput, I/O-bound workloads\n{t}")
}

/// Fig. 4: throughput vs. MPL for the balanced CPU+I/O workload.
pub fn fig4_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let (t, _) = throughput_curves(
        &[
            ("W_CPU+IO-inventory 1 disk 1 CPU", 11),
            ("W_CPU+IO-inventory 4 disks 2 CPUs", 12),
        ],
        &MPL_GRID,
        rc,
        opts,
    );
    format!("Fig. 4 — effect of MPL on throughput, balanced workload\n{t}")
}

/// Fig. 5: throughput vs. MPL under heavy (RR) vs light (UR) locking.
pub fn fig5_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let (t, _) = throughput_curves(
        &[
            ("W_CPU-inventory RR", 1),
            ("W_CPU-inventory UR", 17),
            ("W_CPU-ordering 2cpu RR", 15),
            ("W_CPU-ordering 2cpu UR", 16),
        ],
        &[1, 2, 5, 10, 20, 40, 70, 100],
        rc,
        opts,
    );
    format!("Fig. 5 — effect of MPL on throughput under heavy locking (RR) vs light (UR)\n{t}")
}

/// §3.2: squared coefficients of variation of the intrinsic demands —
/// TPC-C ≈ 1–1.5, commercial traces ≈ 2, TPC-W ≈ 15.
pub fn c2_report() -> String {
    let mut rows = Vec::new();
    for w in workloads() {
        let io_cost = if w.name.contains("IO") { 0.005 } else { 0.0 };
        let (mean, c2) = w.intrinsic_demand_stats(io_cost);
        rows.push(vec![w.name.to_string(), ms(mean), f1(c2)]);
    }
    for w in [trace::retailer(), trace::auction()] {
        let (mean, c2) = w.intrinsic_demand_stats(0.0);
        rows.push(vec![w.name.to_string(), ms(mean), f1(c2)]);
    }
    format!(
        "§3.2 — demand variability (paper: TPC-C 1.0–1.5, traces ≈ 2, TPC-W ≈ 15)\n{}",
        table(&["workload", "mean demand ms", "C2"], &rows)
    )
}

/// The MPL grid of the open-system response-time experiment.
const RT_OPEN_MPLS: [u32; 6] = [2, 4, 8, 15, 30, 100];

/// The scenario grid behind [`rt_open_report`]: (workload × load × MPL)
/// open-load cells, the second workload 5× the run length of the first.
pub fn rt_open_scenarios(rc: &RunConfig) -> Vec<Scenario> {
    let mut scenarios = Vec::new();
    for (label, id) in [
        ("W_CPU-inventory (C2~1)", 1u32),
        ("W_CPU-browsing (C2~15)", 3),
    ] {
        let rc = rc_for(id, rc);
        for load in [0.7, 0.9] {
            for &m in &RT_OPEN_MPLS {
                scenarios.push(Scenario {
                    row: format!("{label} load {load}"),
                    col: format!("MPL {m}"),
                    setup: setup(id),
                    exec: ExecSpec::Run {
                        mpl: MplSpec::Fixed(m),
                        policy: PolicyKind::Fifo,
                        arrivals: ArrivalSpec::OpenLoad(load),
                    },
                    rc: rc.clone(),
                });
            }
        }
    }
    scenarios
}

/// §3.2 (open system): mean response time vs. MPL at fixed load for a
/// low-variability (TPC-C) and a high-variability (TPC-W) workload.
pub fn rt_open_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let results = opts.run(rt_open_scenarios(rc));
    let cols: Vec<Col> = RT_OPEN_MPLS
        .iter()
        .map(|m| Col::new(format!("MPL {m}"), "mean_rt", format!("MPL {m} (ms)"), ms))
        .collect();
    format!(
        "§3.2 — open system (Poisson) mean response time vs MPL\n{}",
        pivot_table("workload", &results, &cols)
    )
}

/// Fig. 7: analytic throughput vs. MPL for 1–16 balanced disks, plus the
/// minimum MPLs for 80% and 95% of maximum throughput (the circles and
/// squares, which fall on straight lines).
pub fn fig7_report() -> String {
    let disk_counts = [1usize, 2, 3, 4, 8, 16];
    let mpls = [1u32, 2, 5, 10, 20, 40, 70, 100];
    let mut rows = Vec::new();
    for &d in &disk_counts {
        // Unit total demand, evenly striped: max throughput = d jobs/s.
        let net = ClosedNetwork::balanced(d, 1.0);
        let mut row = vec![format!("{d} disks")];
        for &m in &mpls {
            row.push(f2(net.throughput(m)));
        }
        // The paper's circles/squares use the *observed* maximum — the
        // throughput at the full client population (100) — as the 100%
        // mark; report those alongside the asymptotic-bound variant.
        let x100 = net.throughput(100);
        let against_observed = |frac: f64| -> u32 {
            (1..=100u32)
                .find(|&n| net.throughput(n) >= frac * x100)
                .unwrap_or(100)
        };
        row.push(against_observed(0.80).to_string());
        row.push(against_observed(0.95).to_string());
        let model = ThroughputModel::balanced(d);
        row.push(recommend::min_mpl_for_throughput(&model, 0.95).to_string());
        rows.push(row);
    }
    let mut headers: Vec<String> = vec!["model".to_string()];
    headers.extend(mpls.iter().map(|m| format!("X(MPL {m})")));
    headers.push("MPL@80% of X(100)".into());
    headers.push("MPL@95% of X(100)".into());
    headers.push("MPL@95% of bound".into());
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    format!(
        "Fig. 7 — MVA analysis: throughput vs MPL by #disks (80%/95% loci are linear in #disks)\n{}",
        table(&headers_ref, &rows)
    )
}

/// Fig. 9: the continuous-time Markov chain of the flexible multiserver
/// queue with MPL = 2 — printed as its QBD generator blocks (the paper
/// draws the same transitions as a state diagram). Entries are rates; row
/// = source phase count `j` (in-service jobs in phase 1), column = target.
pub fn fig9_report() -> String {
    let h2 = H2::fit(1.0, 5.0);
    let fs = FlexServer::new(0.7, h2, 2);
    let (a0, a1, a2) = fs.repeating_blocks();
    let fmt_block = |name: &str, m: &xsched_queueing::Mat| -> String {
        let mut rows = Vec::new();
        for i in 0..m.rows() {
            let mut row = vec![format!("j={i}")];
            for j in 0..m.cols() {
                row.push(format!("{:+.3}", m[(i, j)]));
            }
            rows.push(row);
        }
        let mut headers = vec![name.to_string()];
        headers.extend((0..m.cols()).map(|j| format!("→ j={j}")));
        let hr: Vec<&str> = headers.iter().map(String::as_str).collect();
        table(&hr, &rows)
    };
    format!(
        "Fig. 9 — CTMC of the flexible multiserver queue (MPL = 2, H2 with C²=5, λ=0.7)\n\
         repeating QBD blocks for levels n ≥ 3 (λ = arrival, μ1 = {:.3}, μ2 = {:.3}, p = {:.3}):\n\n\
         {}\n{}\n{}\n\
         A0 = arrivals (level up), A1 = local (diagonal), A2 = departures with\n\
         head-of-line backfill (level down) — exactly the transition structure\n\
         the paper's Fig. 9 draws state by state.\n",
        h2.mu1,
        h2.mu2,
        h2.p,
        fmt_block("A0 (n -> n+1)", &a0),
        fmt_block("A1 (local)", &a1),
        fmt_block("A2 (n -> n-1)", &a2),
    )
}

/// Fig. 10: flexible-multiserver mean response time vs. MPL for
/// C² ∈ {{2, 5, 10, 15}} at loads 0.7 and 0.9, with the PS asymptote.
pub fn fig10_report() -> String {
    let mean_size = 0.1; // 100 ms mean service requirement
    let mpls = [1u32, 2, 5, 10, 15, 20, 25, 30, 35];
    let mut out = String::new();
    for load in [0.7, 0.9] {
        let lambda = load / mean_size;
        let ps = mg1::mg1_ps_response_time(lambda, mean_size);
        let mut rows = Vec::new();
        for c2 in [2.0, 5.0, 10.0, 15.0] {
            let h2 = H2::fit(mean_size, c2);
            let mut row = vec![format!("C2={c2}")];
            for &m in &mpls {
                let t = FlexServer::new(lambda, h2, m).mean_response_time();
                row.push(ms(t));
            }
            rows.push(row);
        }
        let mut ps_row = vec!["PS".to_string()];
        ps_row.extend(std::iter::repeat_n(ms(ps), mpls.len()));
        rows.push(ps_row);
        let mut headers: Vec<String> = vec!["job sizes".to_string()];
        headers.extend(mpls.iter().map(|m| format!("MPL {m} (ms)")));
        let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
        out.push_str(&format!(
            "Fig. 10 — CTMC evaluation, load {load}: mean response time (ms) vs MPL\n{}\n",
            table(&headers_ref, &rows)
        ));
    }
    out
}

/// One controller-session scenario (§4.3) on setup `id`.
fn controller_scenario(
    row: impl Into<String>,
    col: impl Into<String>,
    id: u32,
    start: Option<u32>,
    rc: &RunConfig,
) -> Scenario {
    Scenario {
        row: row.into(),
        col: col.into(),
        setup: setup(id),
        exec: ExecSpec::Controller {
            targets: Targets::five_percent(),
            start,
            chaos: None,
        },
        rc: rc_for(id, rc),
    }
}

/// §4.3: controller sessions on a set of setups — jump-start value, final
/// MPL, iterations to convergence (paper: < 10 everywhere).
pub fn controller_report(rc: &RunConfig, ids: &[u32], opts: &SweepOpts) -> String {
    let scenarios: Vec<Scenario> = ids
        .iter()
        .map(|&id| controller_scenario(id.to_string(), "", id, None, rc))
        .collect();
    let results = opts.run(scenarios);
    format!(
        "§4.3 — controller convergence (5% targets)\n{}",
        pivot_table(
            "setup",
            &results,
            &[
                Col::metric("jumpstart_mpl", "jumpstart", f0),
                Col::metric("final_mpl", "final MPL", f0),
                Col::metric("iterations", "iterations", f1),
                Col::metric("converged", "converged (frac)", f2),
                Col::metric("reference_tput", "ref tput", f1),
            ],
        )
    )
}

/// Jump-start ablation: iterations to convergence starting from the
/// queueing-model value vs. cold-starting at MPL 1.
pub fn controller_ablation_report(rc: &RunConfig, ids: &[u32], opts: &SweepOpts) -> String {
    let scenarios: Vec<Scenario> = ids
        .iter()
        .flat_map(|&id| {
            [
                controller_scenario(id.to_string(), "jump", id, None, rc),
                controller_scenario(id.to_string(), "cold", id, Some(1), rc),
            ]
        })
        .collect();
    let results = opts.run(scenarios);
    format!(
        "Ablation — controller iterations: queueing jump-start vs cold start at MPL 1\n{}",
        pivot_table(
            "setup",
            &results,
            &[
                Col::new("jump", "jumpstart_mpl", "jumpstart MPL", f0),
                Col::new("jump", "iterations", "iters (jumpstart)", f1),
                Col::new("cold", "iterations", "iters (cold)", f1),
            ],
        )
    )
}

/// The chaos robustness rows: one `(label, spec)` per fault / traffic
/// shape. Shared by the report and the golden series snapshot so both
/// pin exactly the same sessions. All injectors wake at `onset`; the
/// traffic-side rows override think time so the closed population has
/// headroom to burst (a zero-think saturated system cannot arrive
/// faster).
pub fn chaos_specs(rc: &RunConfig) -> Vec<(&'static str, ChaosSpec)> {
    // Setup 1 runs ~150 txns/s, so the quick 8× session spans ~30
    // simulated seconds; the controller settles well inside 10 s, which
    // leaves a 15 s onset with a healthy post-onset observation span.
    let onset = 15.0;
    let session_txns = rc.measured_txns * 8;
    let base = ChaosSpec::quiet(onset, session_txns);
    vec![
        (
            "stall",
            ChaosSpec {
                faults: FaultSpec {
                    stall: Some(StallSpec {
                        p_per_lock: 0.02,
                        mean_secs: 2.0,
                    }),
                    ..Default::default()
                },
                ..base.clone()
            },
        ),
        (
            "disk_spike",
            ChaosSpec {
                faults: FaultSpec {
                    disk_spike: Some(SpikeSpec {
                        mean_on: 5.0,
                        mean_off: 10.0,
                        factor: 8.0,
                    }),
                    ..Default::default()
                },
                ..base.clone()
            },
        ),
        (
            "abort_storm",
            ChaosSpec {
                faults: FaultSpec {
                    abort_rate: 5.0,
                    ..Default::default()
                },
                ..base.clone()
            },
        ),
        (
            "burst",
            ChaosSpec {
                burst: Some(BurstSpec {
                    mean_on: 5.0,
                    mean_off: 5.0,
                    factor: 4.0,
                }),
                think: Some(Dist::exp(0.2)),
                ..base.clone()
            },
        ),
        (
            "flash_crowd",
            ChaosSpec {
                flash: Some(FlashSpec {
                    surge_mult: 8.0,
                    ramp_secs: 20.0,
                }),
                think: Some(Dist::exp(0.5)),
                ..base
            },
        ),
    ]
}

/// Robustness suite: controller sessions on setup 1 perturbed by each
/// chaos injector at its onset — reaction time (windows until the
/// controller re-settles), overshoot (peak MPL excursion past the new
/// fixed point), and the discarded-window count per fault type.
pub fn chaos_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let scenarios: Vec<Scenario> = chaos_specs(rc)
        .into_iter()
        .map(|(label, chaos)| Scenario {
            row: label.to_string(),
            col: String::new(),
            setup: setup(1),
            exec: ExecSpec::Controller {
                targets: Targets::twenty_percent(),
                start: None,
                chaos: Some(chaos),
            },
            rc: rc.clone(),
        })
        .collect();
    let results = opts.run(scenarios);
    format!(
        "Robustness — controller under chaos (setup 1, 20% targets, onset 15 s)\n{}",
        pivot_table(
            "fault",
            &results,
            &[
                Col::metric("reaction_windows", "reaction (win)", f1),
                Col::metric("post_onset_windows", "post-onset win", f1),
                Col::metric("overshoot", "overshoot", f1),
                Col::metric("peak_mpl", "peak MPL", f1),
                Col::metric("final_mpl", "final MPL", f1),
                Col::metric("discarded_windows", "discarded", f1),
                Col::metric("converged", "converged (frac)", f2),
            ],
        )
    )
}

/// Fig. 11: external prioritization across all 17 setups at a given
/// throughput-loss budget (0.05 for the top plot, 0.20 for the bottom).
pub fn fig11_report(rc: &RunConfig, loss: f64, opts: &SweepOpts) -> String {
    let scenarios: Vec<Scenario> = setup_ids()
        .map(|id| Scenario {
            row: id.to_string(),
            col: String::new(),
            setup: setup(id),
            exec: ExecSpec::PriorityAtLoss { loss },
            rc: rc_for(id, rc),
        })
        .collect();
    let results = opts.run(scenarios);

    let diffs: Vec<f64> = results.iter().map(|r| r.mean("differentiation")).collect();
    let penalties: Vec<f64> = results.iter().map(|r| r.mean("low_penalty")).collect();
    let gmean = |v: &[f64]| -> f64 {
        (v.iter().map(|x| x.max(1e-9).ln()).sum::<f64>() / v.len() as f64).exp()
    };
    format!(
        "Fig. 11 — external prioritization, {}% throughput-loss budget\n{}\nmean differentiation (geo): {:.1}x   mean low-priority penalty: {:.2}x\n",
        (loss * 100.0) as u32,
        pivot_table(
            "setup",
            &results,
            &[
                Col::metric("mpl", "MPL", f0),
                Col::metric("rt_high", "high RT s", f2),
                Col::metric("rt_low", "low RT s", f2),
                Col::metric("rt_noprio", "no-prio RT s", f2),
                Col::metric("mean_rt", "overall RT s", f2),
                Col::metric("differentiation", "low/high", f1),
                Col::metric("low_penalty", "low/noprio", f2),
            ],
        ),
        gmean(&diffs),
        penalties.iter().sum::<f64>() / penalties.len() as f64,
    )
}

/// One internal-vs-external comparison row set (Figs. 12–13 bars): the
/// DBMS-internal policy with no external limit, then external two-class
/// priority at three throughput-loss budgets.
fn internal_vs_external(
    internal_setup: Setup,
    internal_label: &str,
    rc: &RunConfig,
    opts: &SweepOpts,
) -> String {
    let id = internal_setup.id;
    let rc = rc_for(id, rc);
    let mut scenarios = vec![Scenario {
        row: internal_label.to_string(),
        col: String::new(),
        setup: internal_setup,
        exec: ExecSpec::Run {
            mpl: MplSpec::Unlimited,
            policy: PolicyKind::Fifo,
            arrivals: ArrivalSpec::Saturated,
        },
        rc: rc.clone(),
    }];
    // Resolve each loss budget's MPL once (deterministic in (setup, rc))
    // rather than per replication: repeating the search per seed would
    // cost ~10 extra simulations per cell and could average runs resolved
    // to different MPLs into one row.
    let tuner = xsched_core::Driver::new(setup(id)).with_config(rc.clone());
    scenarios.extend(
        [("ext95", 0.05), ("ext80", 0.20), ("ext100", 0.01)].map(|(label, loss)| Scenario {
            row: label.to_string(),
            col: String::new(),
            setup: setup(id),
            exec: ExecSpec::Run {
                mpl: MplSpec::Fixed(tuner.find_mpl_for_loss(loss).0),
                policy: PolicyKind::Priority,
                arrivals: ArrivalSpec::Saturated,
            },
            rc: rc.clone(),
        }),
    );
    let results = opts.run(scenarios);
    pivot_table(
        "scheme",
        &results,
        &[
            Col::metric("mpl", "MPL", f0),
            Col::metric("rt_high", "high RT s", f2),
            Col::metric("rt_low", "low RT s", f2),
            Col::metric("mean_rt", "mean RT s", f2),
            Col::metric("throughput", "tput", f1),
        ],
    )
}

/// Fig. 12: internal lock-queue prioritization (POW) vs external
/// scheduling on the lock-bound setup 1.
pub fn fig12_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let t = internal_vs_external(
        setup(1).map_cfg(|c| c.lock_policy = LockPriorityPolicy::PreemptOnWait),
        "internal (POW locks)",
        rc,
        opts,
    );
    format!("Fig. 12 — internal (POW) vs external prioritization, setup 1 (lock-bound)\n{t}")
}

/// Fig. 13: internal CPU prioritization (renice) vs external scheduling on
/// the CPU-bound setup 3.
pub fn fig13_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    let t = internal_vs_external(
        setup(3).map_cfg(|c| c.cpu_policy = CpuPolicy::PrioritizeHigh),
        "internal (CPU prio)",
        rc,
        opts,
    );
    format!("Fig. 13 — internal (CPU) vs external prioritization, setup 3 (CPU-bound)\n{t}")
}

/// Ablation: external queue policies at the 5%-loss MPL — FIFO vs
/// two-class priority vs SJF (mean and per-class response times).
pub fn policy_ablation_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    // The MPL search is deterministic in (setup, rc), so resolve it once
    // and pin the scenarios to the result instead of paying the
    // exponential+binary search in every policy × replication cell.
    let (mpl, _) = xsched_core::Driver::new(setup(1))
        .with_config(rc.clone())
        .find_mpl_for_loss(0.05);
    let scenarios: Vec<Scenario> = [
        ("FIFO", PolicyKind::Fifo),
        ("Priority", PolicyKind::Priority),
        ("SJF", PolicyKind::Sjf),
    ]
    .map(|(label, kind)| Scenario {
        row: label.to_string(),
        col: String::new(),
        setup: setup(1),
        exec: ExecSpec::Run {
            mpl: MplSpec::Fixed(mpl),
            policy: kind,
            arrivals: ArrivalSpec::Saturated,
        },
        rc: rc.clone(),
    })
    .into();
    let results = opts.run(scenarios);
    format!(
        "Ablation — external queue policies at the 5%-loss MPL ({mpl}) on setup 1\n{}",
        pivot_table(
            "policy",
            &results,
            &[
                Col::metric("mean_rt", "mean RT s", f2),
                Col::metric("rt_high", "high RT s", f2),
                Col::metric("rt_low", "low RT s", f2),
                Col::metric("p95_rt", "p95 RT s", f2),
                Col::metric("throughput", "tput", f1),
            ],
        )
    )
}

/// Ablation over the DBMS substrate features: group commit, asynchronous
/// dirty-page write-back, and deadlock timeout vs detection — all on the
/// lock-bound setup 1 at a fixed moderate MPL.
pub fn dbms_ablation_report(rc: &RunConfig, opts: &SweepOpts) -> String {
    use xsched_dbms::DeadlockStrategy;
    let mpl = 10;
    let variants: Vec<(&str, Setup)> = vec![
        ("baseline", setup(1)),
        ("group commit", setup(1).map_cfg(|c| c.group_commit = true)),
        (
            // 5% of touched pages ≈ 0.7 disk utilization at this
            // throughput; higher fractions would saturate the single
            // data disk with background writes.
            "writeback 5%",
            setup(1).map_cfg(|c| c.writeback_fraction = 0.05),
        ),
        (
            "lock timeout 0.5s",
            setup(1).map_cfg(|c| c.deadlock = DeadlockStrategy::Timeout { timeout: 0.5 }),
        ),
    ];
    let scenarios: Vec<Scenario> = variants
        .into_iter()
        .map(|(label, st)| Scenario {
            row: label.to_string(),
            col: String::new(),
            setup: st,
            exec: ExecSpec::Run {
                mpl: MplSpec::Fixed(mpl),
                policy: PolicyKind::Fifo,
                arrivals: ArrivalSpec::Saturated,
            },
            rc: rc.clone(),
        })
        .collect();
    let results = opts.run(scenarios);
    format!(
        "Ablation — DBMS substrate features (setup 1, MPL {mpl})\n{}",
        pivot_table(
            "variant",
            &results,
            &[
                Col::metric("throughput", "tput", f1),
                Col::metric("mean_rt", "mean RT s", f2),
                Col::metric("aborts_per_txn", "aborts/txn", f3),
                Col::metric("log_util", "log util", f2),
                Col::metric("disk_util", "disk util", f2),
            ],
        )
    )
}

/// QBD-vs-truncated-chain cross-check (accuracy of the matrix-geometric
/// solver against an exact finite solve).
pub fn qbd_crosscheck_report() -> String {
    let mut rows = Vec::new();
    for (c2, rho, mpl) in [(2.0, 0.7, 5u32), (15.0, 0.7, 10), (15.0, 0.9, 30)] {
        let h2 = H2::fit(0.1, c2);
        let lambda = rho / 0.1;
        let fs = FlexServer::new(lambda, h2, mpl);
        let qbd = fs.solve();
        let tr = xsched_queueing::ctmc::solve_truncated(&fs, 2_000);
        rows.push(vec![
            format!("C2={c2} rho={rho} MPL={mpl}"),
            ms(qbd.mean_response_time),
            ms(tr.mean_response_time),
            format!(
                "{:.2e}",
                (qbd.mean_response_time - tr.mean_response_time).abs() / tr.mean_response_time
            ),
            qbd.r_iterations.to_string(),
        ]);
    }
    format!(
        "Cross-check — matrix-geometric vs truncated chain\n{}",
        table(
            &["case", "QBD ms", "truncated ms", "rel err", "R iters"],
            &rows,
        )
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn static_reports_render() {
        for r in [
            table1_report(),
            table2_report(),
            c2_report(),
            fig7_report(),
            fig10_report(),
            qbd_crosscheck_report(),
        ] {
            assert!(r.lines().count() >= 4, "report too short:\n{r}");
        }
    }

    #[test]
    fn fig7_loci_are_linear_in_disks() {
        // Closed-form: min MPL for fraction f with K balanced stations is
        // ceil(f (K-1)/(1-f)) — check the computed squares follow it.
        for d in [2usize, 4, 8, 16] {
            let model = ThroughputModel::balanced(d);
            let m95 = recommend::min_mpl_for_throughput(&model, 0.95);
            let want = ((0.95 * (d as f64 - 1.0)) / 0.05).ceil() as u32;
            assert_eq!(m95, want, "{d} disks");
        }
    }

    #[test]
    fn fig10_high_c2_curves_decay_toward_ps() {
        let h2 = H2::fit(0.1, 15.0);
        let lambda = 7.0;
        let ps = mg1::mg1_ps_response_time(lambda, 0.1);
        let t1 = FlexServer::new(lambda, h2, 1).mean_response_time();
        let t35 = FlexServer::new(lambda, h2, 35).mean_response_time();
        assert!(t1 > 3.0 * ps, "FIFO-like end is far above PS");
        assert!((t35 - ps) / ps < 0.10, "MPL 35 is near PS");
    }

    #[test]
    fn quick_sim_reports_render() {
        let rc = RunConfig {
            warmup_txns: 50,
            measured_txns: 300,
            ..Default::default()
        };
        let opts = SweepOpts::default();
        let (r, curves) = throughput_curves(&[("s1", 1)], &[1, 5], &rc, &opts);
        assert!(r.contains("MPL"));
        assert_eq!(curves.len(), 1);
        assert_eq!(curves[0].len(), 2);
        assert!(curves[0][1] > curves[0][0], "MPL 5 beats MPL 1");
    }

    #[test]
    fn replicated_sweep_reports_confidence_intervals() {
        let rc = RunConfig {
            warmup_txns: 30,
            measured_txns: 150,
            ..Default::default()
        };
        let opts = SweepOpts {
            seeds: vec![42, 43, 44],
            threads: 0,
            ..Default::default()
        };
        let (r, _) = throughput_curves(&[("s1", 1)], &[5], &rc, &opts);
        assert!(r.contains('±'), "replicated table must carry CIs:\n{r}");
    }

    /// The quick Fig. 2 sweep with every cell failing for real (a
    /// high-priority fraction of 2.0 trips the workload generator's
    /// assert): keep-going renders `FAILED` in every cell and counts one
    /// failure per task; the default fail-fast policy aborts with the
    /// typed message of the first task.
    #[test]
    fn fig2_failed_cells_render_failed_or_abort_by_policy() {
        let rc = RunConfig {
            high_fraction: 2.0,
            ..quick_rc()
        };
        let obs = Arc::new(SweepObs::new());
        let keep_going = SweepOpts {
            obs: Some(Arc::clone(&obs)),
            keep_going: true,
            ..Default::default()
        };
        let report = fig2_report(&rc, &keep_going);
        let rows: Vec<&str> = report.lines().skip(3).collect();
        assert_eq!(rows.len(), FIG2_LABELS.len(), "{report}");
        for row in rows {
            assert_eq!(row.matches("FAILED").count(), MPL_GRID.len(), "{report}");
        }
        let tasks = (FIG2_LABELS.len() * MPL_GRID.len()) as u64;
        assert_eq!(obs.registry().counter("sweep.task_failures"), tasks);

        let result = std::panic::catch_unwind(|| fig2_report(&rc, &SweepOpts::default()));
        let msg = *result
            .expect_err("fail-fast aborts")
            .downcast::<String>()
            .unwrap();
        assert!(msg.starts_with("sweep task 0 failed: panicked:"), "{msg}");
    }
}
