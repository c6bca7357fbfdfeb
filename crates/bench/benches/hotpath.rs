//! Hot-path baseline benchmark: `figures --quick`-scale sweeps through
//! the sweep executor, each timed once after a warm-up call, plus a
//! raw simulator events/second measurement — written out as
//! machine-readable `BENCH_hotpath.json` so
//! CI can archive the repo's perf trajectory run over run (and fail on
//! events/sec regressions against the committed baseline).
//!
//! ```text
//! cargo bench -p xsched-bench --bench hotpath
//! BENCH_JSON_PATH=/tmp/b.json cargo bench -p xsched-bench --bench hotpath
//! ```
//!
//! The JSON carries one entry per figure (wall seconds of the timed
//! sweep, as both mean and min of its single iteration), an `events`
//! block with the raw event-loop rate, a `dispatch` block with the batched-dispatch ceiling (pop_run_into + arena
//! handles, no DBMS model), a `saturation_grid` block streaming a
//! 120-cell open-load grid through `run_fold` with its peak-RSS
//! high-water mark, a `queue` array with heap-only push/pop rates at
//! 1M and 10M pending events, and an `analytic` block timing the
//! queueing models behind the controller's jump-start (one QBD solve at
//! MPL 10/30/92 with its reduction steps, and the whole jump-start
//! search on setup 3's inputs). Figures run through the same
//! `SweepOpts`/`SweepExecutor` path the `figures` binary uses, so these
//! numbers track exactly what an operator waits on.

use std::hint::black_box;
use std::io::Write as _;
use std::time::Instant;
use xsched_bench::{fig2_report, quick_rc, quick_rc_heavy, rt_open_report, SweepOpts};
use xsched_core::{
    ArrivalSpec, ExecSpec, MeasurementCache, MplController, MplSpec, PolicyKind, RunConfig,
    Scenario, ScenarioOutcome, SweepExecutor, SweepPlan, Targets, TaskOutcome,
};
use xsched_dbms::{CountingSink, DbmsSim, NoopTrace, StepOutcome, TraceSink};
use xsched_queueing::{FlexServer, H2};
use xsched_sim::{EventQueue, SimTime};
use xsched_workload::{setup, TxnGen};

/// Raw event-loop rate: a saturated closed system on setup 1 driven
/// straight against the simulator (no external scheduler), measured over
/// a fixed number of processed events. Generic over the trace sink so
/// the same loop measures both the disabled path (`NoopTrace`, which
/// must compile away) and an attached `CountingSink`.
fn measure_events_per_sec<T: TraceSink>(trace: T) -> (u64, f64, T) {
    const TARGET_EVENTS: u64 = 400_000;
    const CLIENTS: usize = 16;
    let s = setup(1);
    let mut sim = DbmsSim::with_trace(s.hw.clone(), s.cfg.clone(), 7, trace);
    let mut gen = TxnGen::new(s.workload.clone(), 7);
    for _ in 0..CLIENTS {
        let body = gen.next();
        sim.submit(body, 0.0);
    }
    let mut completions = Vec::new();
    let t0 = Instant::now();
    while sim.events_processed() < TARGET_EVENTS {
        if sim.step() == StepOutcome::Idle {
            unreachable!("closed loop keeps the simulator busy");
        }
        sim.drain_completions_into(&mut completions);
        for _ in completions.drain(..) {
            let now = sim.now();
            let body = gen.next();
            sim.submit(body, now);
        }
    }
    let events = sim.events_processed();
    (events, t0.elapsed().as_secs_f64(), sim.into_trace())
}

/// One arena slot of the batched-dispatch loop: the payload lives here,
/// the heap carries only a `u32` handle — the layout the DBMS simulator's
/// event arena uses, reduced to its essentials.
struct Slot {
    kind: u32,
    data: u64,
}

/// Raw batched-dispatch ceiling: an `EventQueue<u32>` over an arena of
/// `RESIDENT` payload slots, timestamps quantized to a tick grid so
/// maximal same-time runs drain through [`EventQueue::pop_run_into`] and
/// dispatch through one tight match loop. This is the upper bound the
/// batching + arena redesign buys before any DBMS model cost — the
/// number the "events barrier" CI gate tracks alongside the full
/// simulator rate. Returns `(events, wall seconds, runs drained)`.
fn measure_batched_dispatch() -> (u64, f64, u64) {
    const TARGET_EVENTS: u64 = 10_000_000;
    const RESIDENT: usize = 256;
    const TICK: u64 = 1_000; // nanos between adjacent grid points
    const LCG_MUL: u64 = 6364136223846793005;
    const LCG_ADD: u64 = 1442695040888963407;

    let mut q: EventQueue<u32> = EventQueue::with_capacity(RESIDENT + 8);
    let mut arena: Vec<Slot> = Vec::with_capacity(RESIDENT);
    let mut state: u64 = 0x9e3779b97f4a7c15;
    for i in 0..RESIDENT {
        state = state.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
        arena.push(Slot {
            kind: (state >> 60) as u32 & 3,
            data: state,
        });
        q.schedule(
            SimTime::from_nanos(TICK * (1 + (state >> 32) % 4)),
            i as u32,
        );
    }
    let mut batch: Vec<u32> = Vec::with_capacity(RESIDENT);
    let mut processed: u64 = 0;
    let mut runs: u64 = 0;
    let mut checksum: u64 = 0;
    let t0 = Instant::now();
    while processed < TARGET_EVENTS {
        let Some(now) = q.pop_run_into(&mut batch) else {
            unreachable!("every dispatched event reschedules its slot");
        };
        let base = now.as_nanos();
        for &h in &batch {
            let p = &mut arena[h as usize];
            checksum = checksum.wrapping_add(match p.kind {
                0 => p.data,
                1 => p.data.rotate_left(7),
                2 => p.data ^ base,
                _ => p.data.wrapping_mul(3),
            });
            // Reschedule in place: same handle, successor payload, 1–4
            // ticks out — the grid keeps same-time runs long.
            p.data = p.data.wrapping_mul(LCG_MUL).wrapping_add(LCG_ADD);
            p.kind = (p.data >> 60) as u32 & 3;
            q.schedule(
                SimTime::from_nanos(base + TICK * (1 + (p.data >> 32) % 4)),
                h,
            );
        }
        processed += batch.len() as u64;
        runs += 1;
    }
    black_box(checksum);
    (processed, t0.elapsed().as_secs_f64(), runs)
}

/// Heap-only push/pop rates at a given resident population: fill the
/// queue with `pending` events at pseudo-random future timestamps, then
/// drain it dry. Isolates the 4-ary heap from everything else — at 10M
/// pending this resident set (~240 MB) dwarfs any cache level, so run it
/// *after* the RSS ceiling has been read.
fn measure_queue(pending: u64) -> (f64, f64) {
    let mut q: EventQueue<u32> = EventQueue::with_capacity(pending as usize);
    let mut state: u64 = 0x243f6a8885a308d3;
    let t0 = Instant::now();
    for i in 0..pending {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        q.schedule(SimTime::from_nanos(1 + (state >> 16)), i as u32);
    }
    let push_secs = t0.elapsed().as_secs_f64();
    let t0 = Instant::now();
    let mut drained: u64 = 0;
    while let Some((_, e)) = q.pop() {
        black_box(e);
        drained += 1;
    }
    let pop_secs = t0.elapsed().as_secs_f64();
    assert_eq!(drained, pending);
    (
        pending as f64 / push_secs.max(1e-9),
        pending as f64 / pop_secs.max(1e-9),
    )
}

/// Peak resident set of this process so far, from `/proc/self/status`
/// `VmHWM` (Linux only; `None` elsewhere keeps the bench portable).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line
        .trim_start_matches("VmHWM:")
        .trim()
        .trim_end_matches("kB")
        .trim()
        .parse()
        .ok()?;
    Some(kb * 1024)
}

/// The 100×-scale streaming case: a saturation grid of open-load cells
/// spanning offered loads from 5% to 124% of capacity, folded through
/// [`SweepExecutor::run_fold`] so memory stays O(cells in flight) instead
/// of O(grid). The fold keeps only scalar aggregates; `peak_parked` is
/// the largest out-of-order window the streaming consumer ever held.
struct GridStats {
    cells: usize,
    wall_secs: f64,
    peak_parked: usize,
    max_mean_rt: f64,
    total_commits: u64,
}

fn measure_saturation_grid() -> GridStats {
    const LOADS: usize = 120;
    let rc = RunConfig {
        warmup_txns: 10,
        measured_txns: 60,
        ..Default::default()
    };
    let scenarios: Vec<Scenario> = (0..LOADS)
        .map(|i| {
            let load = 0.05 + i as f64 * 0.01;
            Scenario {
                row: "saturation".to_string(),
                col: format!("load {load:.2}"),
                setup: setup(1),
                exec: ExecSpec::Run {
                    mpl: MplSpec::Fixed(8),
                    policy: PolicyKind::Fifo,
                    arrivals: ArrivalSpec::OpenLoad(load),
                },
                rc: rc.clone(),
            }
        })
        .collect();
    let plan = SweepPlan::new(scenarios);
    let executor = SweepExecutor::parallel(0).with_cache(MeasurementCache::shared());
    let t0 = Instant::now();
    let (acc, stats) = executor.run_fold(&plan, (0usize, 0.0f64, 0u64), |acc, _, outcome| {
        let TaskOutcome::Ok(ScenarioOutcome::Run(r)) = outcome else {
            unreachable!("the grid is all plain runs with no fault policy");
        };
        (acc.0 + 1, acc.1.max(r.mean_rt), acc.2 + r.metrics.commits)
    });
    GridStats {
        cells: acc.0,
        wall_secs: t0.elapsed().as_secs_f64(),
        peak_parked: stats.peak_parked,
        max_mean_rt: acc.1,
        total_commits: acc.2,
    }
}

/// Setup 3's analytic jump-start inputs in its `--quick` controller
/// session: the reference run's resource utilizations and throughput,
/// and the demand mean and C². Pinned (as in `MplController`'s tests) so
/// the analytic layer is timed without a simulation.
const S3_UTILS: [f64; 3] = [0.9999999914224076, 0.0, 0.057289583136172356];
const S3_DEMAND_MEAN: f64 = 0.052000000000000005;
const S3_DEMAND_C2: f64 = 15.076035502958574;
const S3_REFERENCE_TPUT: f64 = 17.462467694606186;

/// One timed `FlexServer` solve.
struct QbdPoint {
    mpl: u32,
    secs: f64,
    steps: u32,
}

/// The analytic layer behind every jump-start: one QBD solve at MPL
/// 10, 30 and 92 on setup 3's job-size fit and load (capped at 0.95, as
/// the jump-start caps it), then the whole jump-start search on setup
/// 3's inputs. Returns the solves and `(search seconds, jump-start MPL)`.
fn measure_analytic() -> (Vec<QbdPoint>, f64, u32) {
    let rho = (S3_REFERENCE_TPUT * S3_DEMAND_MEAN).min(0.95);
    let h2 = H2::fit(S3_DEMAND_MEAN, S3_DEMAND_C2);
    let lambda = rho / S3_DEMAND_MEAN;
    let points = [10, 30, 92]
        .into_iter()
        .map(|mpl| {
            let t0 = Instant::now();
            let sol = black_box(FlexServer::new(lambda, h2, mpl).solve());
            QbdPoint {
                mpl,
                secs: t0.elapsed().as_secs_f64(),
                steps: sol.r_iterations,
            }
        })
        .collect();
    let t0 = Instant::now();
    let jump = MplController::jumpstart(
        &S3_UTILS,
        Targets::five_percent(),
        S3_DEMAND_MEAN,
        S3_DEMAND_C2,
        S3_REFERENCE_TPUT,
        100,
    );
    (points, t0.elapsed().as_secs_f64(), jump)
}

/// Wall-clock of one full figure sweep.
struct FigureTiming {
    name: &'static str,
    secs: f64,
}

/// One warm-up call, then one timed call. A quick sweep takes seconds,
/// so a single timed run is the sample (`"iters": 1` in the JSON).
fn time_figure(name: &'static str, f: impl Fn() -> usize) -> FigureTiming {
    black_box(f());
    let t0 = Instant::now();
    black_box(f());
    let secs = t0.elapsed().as_secs_f64();
    println!("{name:<40} {secs:.3} s");
    FigureTiming { name, secs }
}

fn figure_benches() -> Vec<FigureTiming> {
    // threads: 0 = one worker per core, exactly like the figures binary.
    let opts = SweepOpts {
        threads: 0,
        ..Default::default()
    };
    vec![
        time_figure("fig2_quick", || fig2_report(&quick_rc(), &opts).len()),
        time_figure("rt_open_quick", || {
            rt_open_report(&quick_rc_heavy(), &opts).len()
        }),
    ]
}

fn main() {
    let figures = figure_benches();
    let (events, wall, _) = measure_events_per_sec(NoopTrace);
    let events_per_sec = events as f64 / wall;
    println!(
        "{:<40} {events} events in {wall:.3} s  ({:.0} events/s)",
        "raw_sim/events", events_per_sec
    );
    // The same loop with a CountingSink attached: the gap between the
    // two rates is the real cost of enabling tracing, and CI gates only
    // the disabled-path rate (the sink-attached rate is informational).
    let (traced_events, traced_wall, sink) = measure_events_per_sec(CountingSink::default());
    let traced_events_per_sec = traced_events as f64 / traced_wall;
    println!(
        "{:<40} {traced_events} events in {traced_wall:.3} s  ({:.0} events/s, {} trace records)",
        "raw_sim/events_traced", traced_events_per_sec, sink.total
    );

    // The batched-dispatch ceiling: pop_run_into + arena handles + one
    // match loop, no DBMS model — what the hot-path redesign buys at the
    // dispatch layer itself.
    let (disp_events, disp_wall, disp_runs) = measure_batched_dispatch();
    let disp_rate = disp_events as f64 / disp_wall;
    let disp_run_len = disp_events as f64 / disp_runs as f64;
    println!(
        "{:<40} {disp_events} events in {disp_wall:.3} s  ({disp_rate:.0} events/s, mean run {disp_run_len:.1})",
        "raw_sim/batched_dispatch"
    );

    // The streaming saturation grid, then its memory high-water mark —
    // read *before* the queue micro-benches allocate their 10M-event
    // resident set, so the ceiling reflects the streaming executor.
    let grid = measure_saturation_grid();
    let grid_rss = peak_rss_bytes();
    println!(
        "{:<40} {} cells in {:.2} s  (peak parked {}, peak RSS {} MB)",
        "saturation_grid/stream",
        grid.cells,
        grid.wall_secs,
        grid.peak_parked,
        grid_rss.map_or(0, |b| b >> 20),
    );

    // Heap-only push/pop rates, last: the 10M-pending resident set
    // (~240 MB) must not pollute the saturation grid's RSS ceiling.
    let queue_sizes: [u64; 2] = [1_000_000, 10_000_000];
    let queue_rates: Vec<(u64, f64, f64)> = queue_sizes
        .iter()
        .map(|&n| {
            let (push, pop) = measure_queue(n);
            println!(
                "{:<40} {n} pending: push {push:.0}/s  pop {pop:.0}/s",
                "event_queue/push_pop"
            );
            (n, push, pop)
        })
        .collect();

    let (qbd, jump_secs, jump_mpl) = measure_analytic();
    for p in &qbd {
        println!(
            "{:<40} MPL {}: {:.4} s, {} reduction steps",
            "analytic/qbd_solve", p.mpl, p.secs, p.steps
        );
    }
    println!(
        "{:<40} setup 3: MPL {jump_mpl} in {jump_secs:.4} s",
        "analytic/jumpstart"
    );

    let mut json = String::new();
    json.push_str("{\n  \"schema\": \"xsched-hotpath-v2\",\n  \"figures\": [\n");
    for (i, f) in figures.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"name\": \"{}\", \"wall_secs_mean\": {:.6}, \"wall_secs_min\": {:.6}, \"iters\": 1}}{}\n",
            f.name,
            f.secs,
            f.secs,
            if i + 1 < figures.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n");
    json.push_str(&format!(
        "  \"events\": {{\"count\": {events}, \"wall_secs\": {wall:.6}, \"events_per_sec\": {events_per_sec:.1}, \"traced_events_per_sec\": {traced_events_per_sec:.1}, \"trace_records\": {}}},\n",
        sink.total
    ));
    // NOTE: the CI gate greps the *first* "events_per_sec" in this file —
    // the full-simulator rate above. The dispatch block deliberately
    // names its rate differently.
    json.push_str(&format!(
        "  \"dispatch\": {{\"count\": {disp_events}, \"wall_secs\": {disp_wall:.6}, \"dispatch_events_per_sec\": {disp_rate:.1}, \"mean_run_len\": {disp_run_len:.2}}},\n",
    ));
    json.push_str(&format!(
        "  \"saturation_grid\": {{\"cells\": {}, \"wall_secs\": {:.6}, \"peak_parked\": {}, \"peak_rss_bytes\": {}, \"max_mean_rt\": {:.6}, \"total_commits\": {}}},\n",
        grid.cells,
        grid.wall_secs,
        grid.peak_parked,
        grid_rss.map_or(0, |b| b),
        grid.max_mean_rt,
        grid.total_commits,
    ));
    json.push_str("  \"queue\": [\n");
    for (i, (n, push, pop)) in queue_rates.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"pending\": {n}, \"push_per_sec\": {push:.1}, \"pop_per_sec\": {pop:.1}}}{}\n",
            if i + 1 < queue_rates.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"analytic\": {\"qbd\": [\n");
    for (i, p) in qbd.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"mpl\": {}, \"solve_secs\": {:.6}, \"reduction_steps\": {}}}{}\n",
            p.mpl,
            p.secs,
            p.steps,
            if i + 1 < qbd.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ], \"jumpstart_s3\": {{\"secs\": {jump_secs:.6}, \"mpl\": {jump_mpl}}}}}\n}}\n"
    ));

    // Default to the workspace root (cargo runs benches with the package
    // directory as cwd), where the committed baseline lives.
    let path = std::env::var("BENCH_JSON_PATH").unwrap_or_else(|_| {
        concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json").into()
    });
    let mut f = std::fs::File::create(&path)
        .unwrap_or_else(|e| panic!("cannot create bench baseline {path}: {e}"));
    f.write_all(json.as_bytes()).expect("write bench baseline");
    println!("wrote {path}");
}
