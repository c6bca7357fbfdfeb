//! Sweep planning and parallel execution.
//!
//! A [`SweepPlan`] is a list of [`Scenario`]s crossed with replication
//! seeds; the [`SweepExecutor`] fans the resulting `(scenario, seed)`
//! tasks across OS threads. Because every task is a pure function of its
//! inputs (see [`Scenario::run`]) and results are delivered by task
//! index, the output is **bit-identical** regardless of thread count or
//! scheduling order — parallelism buys wall-clock time, never changes a
//! number. Replications of one scenario are aggregated into a
//! [`Replications`] accumulator so reports can print Student-t confidence
//! intervals next to every mean.
//!
//! Every entry point — batch [`SweepExecutor::run`], streaming
//! [`SweepExecutor::run_fold`], and the coordinator worker's per-lease
//! `SweepExecutor::run_task` — is a thin caller of one private core.
//! The core claims tasks in task order from one atomic counter, runs
//! each once inline under `catch_unwind`, and hands every finished cell
//! to a sink on the calling thread, in task order. That in-order sink is
//! also where every entry point's per-cell [`CellTiming`]s are recorded
//! (see [`SweepExecutor::with_timings`]).

use crate::cache::MeasurementCache;
use crate::fault::{classify_panic, relock, TaskError, TaskOutcome};
use crate::observe::{CellTiming, SweepObs};
use crate::scenario::{Scenario, ScenarioOutcome, UnitCost};
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::Instant;
use xsched_sim::{ConfidenceInterval, Replications};

/// Scenarios × replication seeds: the unit of execution.
#[derive(Debug, Clone)]
pub struct SweepPlan {
    /// The experiment cells.
    pub scenarios: Vec<Scenario>,
    /// Explicit replication seeds: every scenario runs once per seed, and
    /// sharing the list across scenarios keeps cross-scenario comparisons
    /// paired (common random numbers). **Empty** means each scenario runs
    /// once with its own configured `rc.seed`.
    pub seeds: Vec<u64>,
}

impl SweepPlan {
    /// A plan running each scenario once, with each scenario's own
    /// configured seed.
    pub fn new(scenarios: Vec<Scenario>) -> SweepPlan {
        SweepPlan {
            scenarios,
            seeds: Vec::new(),
        }
    }

    /// Replace the seed list (empty = revert to per-scenario seeds).
    pub fn with_seeds(mut self, seeds: Vec<u64>) -> SweepPlan {
        self.seeds = seeds;
        self
    }

    /// `n` replications seeded `base, base+1, ...` — distinct consecutive
    /// seeds are independent because every consumer stream hashes
    /// `(seed, label)` through SplitMix64.
    pub fn replicated(self, n: usize, base: u64) -> SweepPlan {
        assert!(n > 0, "a sweep needs at least one replication");
        let seeds = (0..n as u64).map(|i| base.wrapping_add(i)).collect();
        self.with_seeds(seeds)
    }

    /// The `(scenario index, seed)` tasks this plan expands to, in the
    /// canonical order every executor and the coordinator use: row-major
    /// over scenarios × seeds. Task *index* in this list is the unit of
    /// leasing and result placement.
    pub fn tasks(&self) -> Vec<(usize, u64)> {
        if self.seeds.is_empty() {
            self.scenarios
                .iter()
                .enumerate()
                .map(|(si, s)| (si, s.rc.seed))
                .collect()
        } else {
            self.scenarios
                .iter()
                .enumerate()
                .flat_map(|(si, _)| self.seeds.iter().map(move |&seed| (si, seed)))
                .collect()
        }
    }

    /// Number of `(scenario, seed)` tasks this plan expands to — by
    /// definition `tasks().len()`, so the empty-seeds rule lives in one
    /// place.
    pub fn task_count(&self) -> usize {
        self.tasks().len()
    }

    /// Order-sensitive fingerprint of everything execution depends on
    /// (scenarios and seed list). The coordinator handshake compares it,
    /// so a worker that built a different plan is refused.
    ///
    /// The hash covers the Debug rendering, which is platform-independent
    /// but only guaranteed stable for binaries built by the *same Rust
    /// toolchain* — build the coordinator and worker binaries from the
    /// same commit and toolchain (a mismatch fails safe: the handshake
    /// refuses).
    pub fn fingerprint(&self) -> u64 {
        // FNV-1a over the Debug rendering: every field of every scenario
        // participates, and the rendering is stable across platforms.
        let text = format!("{:?}|{:?}", self.scenarios, self.seeds);
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in text.as_bytes() {
            h ^= u64::from(*b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        h
    }

    /// True when the plan has no scenarios.
    pub fn is_empty(&self) -> bool {
        self.scenarios.is_empty()
    }
}

/// All replications of one scenario, plus aggregate statistics.
#[derive(Debug, Clone)]
pub struct ScenarioResult {
    /// The scenario that produced these outcomes.
    pub scenario: Scenario,
    /// One outcome per *successful* plan seed, in seed order. Without
    /// fault tolerance engaged this is every seed.
    pub outcomes: Vec<ScenarioOutcome>,
    /// Failures of replications that failed under keep-going mode, in
    /// seed order. Empty on fail-fast runs (those abort instead).
    pub failures: Vec<TaskError>,
    /// Per-metric aggregates over the successful replications.
    pub reps: Replications,
}

impl ScenarioResult {
    /// The first replication's outcome (the representative run when the
    /// caller only wants point values).
    pub fn first(&self) -> &ScenarioOutcome {
        &self.outcomes[0]
    }

    /// Mean of a named metric over replications.
    pub fn mean(&self, metric: &str) -> f64 {
        self.reps.mean(metric)
    }

    /// 95% Student-t confidence interval for a named metric.
    pub fn ci95(&self, metric: &str) -> ConfidenceInterval {
        self.reps.ci(metric, 0.95)
    }
}

/// Fans a [`SweepPlan`]'s tasks across OS threads.
#[derive(Debug, Clone)]
pub struct SweepExecutor {
    threads: usize,
    cache: Option<Arc<MeasurementCache>>,
    obs: Option<Arc<SweepObs>>,
    progress: bool,
    keep_going: bool,
    timings: Option<Arc<Mutex<Vec<CellTiming>>>>,
}

impl SweepExecutor {
    /// Run everything on the calling thread, in plan order.
    pub fn serial() -> SweepExecutor {
        SweepExecutor {
            threads: 1,
            cache: None,
            obs: None,
            progress: false,
            keep_going: false,
            timings: None,
        }
    }

    /// Use `threads` workers; `0` means one per available core.
    pub fn parallel(threads: usize) -> SweepExecutor {
        let threads = if threads == 0 {
            std::thread::available_parallelism().map_or(1, usize::from)
        } else {
            threads
        };
        SweepExecutor {
            threads,
            ..SweepExecutor::serial()
        }
    }

    /// Share (and expose) the measurement cache across runs instead of
    /// creating a fresh one per [`SweepExecutor::run`] — for inspecting
    /// hit/miss counters or amortizing capacity runs across sweeps of the
    /// same setups.
    pub fn with_cache(mut self, cache: Arc<MeasurementCache>) -> SweepExecutor {
        self.cache = Some(cache);
        self
    }

    /// Record execution telemetry (task counts per worker, cache
    /// hits/misses, summed cell seconds, per-task seconds, controller
    /// series) into a shared [`SweepObs`]. Observational only: result
    /// bytes never change.
    pub fn with_obs(mut self, obs: Arc<SweepObs>) -> SweepExecutor {
        self.obs = Some(obs);
        self
    }

    /// Print a per-task completion ticker to stderr while the sweep runs
    /// (stdout — the tables — is untouched).
    pub fn with_progress(mut self, progress: bool) -> SweepExecutor {
        self.progress = progress;
        self
    }

    /// Degrade failed tasks to marked [`TaskOutcome::Failed`] cells and
    /// keep sweeping. Off (the default) = fail fast: the first failed
    /// task aborts the sweep with a typed panic. Every task runs once,
    /// panic-isolated, either way.
    pub fn with_keep_going(mut self, keep_going: bool) -> SweepExecutor {
        self.keep_going = keep_going;
        self
    }

    /// Append every executed cell's [`CellTiming`]s to `sink`, in task
    /// order, from every entry point (a coordinator worker's leases
    /// included). Observational only: result bytes never change.
    pub fn with_timings(mut self, sink: Arc<Mutex<Vec<CellTiming>>>) -> SweepExecutor {
        self.timings = Some(sink);
        self
    }

    /// Worker count this executor will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute every task of the plan and aggregate replications per
    /// scenario through the same `assemble` step the coordinator uses,
    /// so a direct and a coordinated sweep cannot drift apart. The
    /// result is bit-identical at every thread count (pinned by the
    /// property tests in `tests/props.rs`).
    pub fn run(&self, plan: &SweepPlan) -> Vec<ScenarioResult> {
        let tasks: Vec<usize> = (0..plan.task_count()).collect();
        let mut entries = Vec::with_capacity(tasks.len());
        let mut failures = Vec::new();
        self.execute(plan, &tasks, |t, cell| match cell.outcome {
            TaskOutcome::Ok(outcome) => entries.push((t, outcome)),
            TaskOutcome::Failed(failure) => failures.push((t, failure)),
        });
        assemble(plan, entries, failures)
    }

    /// Execute the single task `task` of `plan` — the coordinator
    /// worker's per-lease call. Same core, same guarded path and same
    /// telemetry as a direct run, so a coordinated sweep's outcomes
    /// are bit-identical to a direct one. Under fail-fast a failed task
    /// re-raises here; under keep-going it comes back as
    /// [`TaskOutcome::Failed`].
    pub(crate) fn run_task(&self, plan: &SweepPlan, task: usize) -> TaskOutcome {
        let mut outcome = None;
        self.execute(plan, &[task], |_, cell| outcome = Some(cell.outcome));
        outcome.expect("the execution core delivers every task it is given")
    }

    /// Execute the plan **streamingly**: fold every task's outcome into an
    /// accumulator instead of materializing the whole result grid. Memory
    /// stays O(cells in flight) — finished cells that arrive ahead of the
    /// in-order cursor are parked briefly and folded as the cursor
    /// reaches them, so the fold sees task indices `0, 1, 2, …` **always
    /// in task order**, whatever the thread count. With the same plan the
    /// folded values are bit-identical to pulling outcomes out of
    /// [`SweepExecutor::run`]; only the peak-memory profile differs.
    /// Returns the final accumulator plus [`FoldStats`] recording the
    /// parked-cell high-water mark.
    ///
    /// Fault tolerance applies per task exactly as in
    /// [`SweepExecutor::run`] (the fold sees [`TaskOutcome::Failed`]
    /// cells under keep-going mode; fail-fast re-raises on the calling
    /// thread).
    pub fn run_fold<A>(
        &self,
        plan: &SweepPlan,
        init: A,
        mut fold: impl FnMut(A, usize, TaskOutcome) -> A,
    ) -> (A, FoldStats) {
        let tasks: Vec<usize> = (0..plan.task_count()).collect();
        // `Option` dance: the sink threads the accumulator through `fold`
        // by value.
        let mut acc = Some(init);
        let peak_parked = self.execute(plan, &tasks, |t, cell| {
            let a = acc.take().expect("accumulator present");
            acc = Some(fold(a, t, cell.outcome));
        });
        (
            acc.expect("the sink leaves the accumulator in place"),
            FoldStats {
                tasks: tasks.len(),
                peak_parked,
            },
        )
    }

    /// The execution core behind every entry point. Runs the global task
    /// indices `mine` (in order) and hands each finished cell to `sink`
    /// on the calling thread, strictly in the order of `mine`. Returns the
    /// largest number of finished cells ever parked ahead of the cursor.
    ///
    /// Tasks are claimed in task order from one atomic counter by
    /// `threads` workers: the calling thread plus `threads − 1` scoped
    /// helpers. Each claimed task is one whole run, and a run is a pure
    /// function of `(scenario, seed)`, so worker scheduling cannot change
    /// a result byte.
    ///
    /// A fail-fast failure stops further claims and re-raises as a typed
    /// `sweep task {t} failed: …` panic on the calling thread once the
    /// cursor reaches it; every earlier cell is still delivered first.
    fn execute(
        &self,
        plan: &SweepPlan,
        mine: &[usize],
        mut sink: impl FnMut(usize, Cell),
    ) -> usize {
        let tasks = plan.tasks();
        let cache = self.cache.clone().unwrap_or_else(MeasurementCache::shared);
        let obs = self.obs.as_deref();
        let parked: Mutex<BTreeMap<usize, Cell>> = Mutex::new(BTreeMap::new());
        let ready = Condvar::new();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let hits_before = cache.hits();
        let misses_before = cache.misses();

        // Claim and run the next task as `worker` and park its cell. False
        // once nothing is left to claim.
        let work = |worker: usize| -> bool {
            if abort.load(Ordering::Relaxed) {
                return false;
            }
            let pos = next.fetch_add(1, Ordering::Relaxed);
            let Some(&t) = mine.get(pos) else {
                return false;
            };
            let (si, seed) = tasks[t];
            let started = Instant::now();
            let result = catch_unwind(AssertUnwindSafe(|| {
                plan.scenarios[si].run_timed(seed, Some(&cache), obs)
            }))
            .map_err(classify_panic);
            let secs = started.elapsed().as_secs_f64();
            let (outcome, cost) = match result {
                Ok((outcome, cost)) => (TaskOutcome::Ok(outcome), cost),
                Err(error) => {
                    // Fail fast: stop claiming once a task fails.
                    if !self.keep_going {
                        abort.store(true, Ordering::Relaxed);
                    }
                    (TaskOutcome::Failed(error), UnitCost::default())
                }
            };
            let cell = Cell {
                outcome,
                secs,
                cost,
                worker,
            };
            relock(&parked).insert(pos, cell);
            ready.notify_all();
            true
        };

        let helpers = self.threads.min(mine.len()).saturating_sub(1);
        let live = AtomicUsize::new(helpers);
        let mut peak = 0usize;
        let mut actual_secs = 0.0;
        std::thread::scope(|scope| {
            for worker in 1..=helpers {
                let (work, exit) = (&work, WorkerExit(&live, &parked, &ready));
                scope.spawn(move || {
                    let _exit = exit;
                    while work(worker) {}
                });
            }
            // The calling thread is worker 0 and the in-order consumer:
            // deliver the cursor's cell when it is parked, otherwise run
            // the next task, otherwise wait for a helper to finish one.
            for (pos, &t) in mine.iter().enumerate() {
                let cell = loop {
                    {
                        let mut guard = relock(&parked);
                        if let Some(cell) = guard.remove(&pos) {
                            peak = peak.max(guard.len() + 1);
                            break cell;
                        }
                    }
                    if work(0) {
                        continue;
                    }
                    let mut guard = relock(&parked);
                    while !guard.contains_key(&pos) && live.load(Ordering::SeqCst) > 0 {
                        guard = ready.wait(guard).unwrap_or_else(PoisonError::into_inner);
                    }
                    if !guard.contains_key(&pos) {
                        // Every helper is gone and the cell never landed:
                        // one died outside the guarded run, and the
                        // scope re-raises its panic on return.
                        return;
                    }
                };
                if let (false, Some(error)) = (self.keep_going, cell.outcome.as_failed()) {
                    abort.store(true, Ordering::Relaxed);
                    panic!("sweep task {t} failed: {error}");
                }
                if let Some(obs) = obs {
                    let r = obs.registry();
                    if cell.outcome.as_failed().is_some() {
                        r.counter_add("sweep.task_failures", 1);
                    }
                    // Telemetry counts cells, credited to the worker that
                    // ran the cell, so the counters sum to the task count.
                    r.counter_add("sweep.tasks_done", 1);
                    r.counter_add(&format!("sweep.worker{}.tasks", cell.worker), 1);
                    r.hist_record("sweep.task_secs", cell.secs);
                    r.gauge_max("sweep.task_max_secs", cell.secs);
                }
                if self.progress {
                    eprintln!(
                        "[sweep] {}/{} tasks done (last {:.2}s on worker {})",
                        pos + 1,
                        mine.len(),
                        cell.secs,
                        cell.worker
                    );
                }
                if let Some(timings) = &self.timings {
                    // Per-cell events are charged net of the shared
                    // reference run so the signal is stable under cache
                    // claim order.
                    let cost = cell.cost;
                    relock(timings).extend(CellTiming::split(
                        &plan.scenarios[tasks[t].0],
                        cell.secs,
                        cost.ref_secs,
                        cost.events.saturating_sub(cost.ref_events),
                        cost.ref_events,
                    ));
                }
                actual_secs += cell.secs;
                sink(t, cell);
            }
        });

        if let Some(obs) = obs {
            let r = obs.registry();
            r.counter_add("sweep.cache_hits", cache.hits() - hits_before);
            r.counter_add("sweep.cache_misses", cache.misses() - misses_before);
            // Fixed name: perfbench/harness/src/tour.rs reads it for `coord.idle_s`.
            r.gauge_add("sweep.shard0.actual_secs", actual_secs);
        }
        peak
    }
}

/// Execution statistics from [`SweepExecutor::run_fold`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FoldStats {
    /// Tasks executed (= the plan's task count).
    pub tasks: usize,
    /// Largest number of finished outcomes ever parked waiting for the
    /// in-order fold cursor — the streaming executor's actual memory
    /// high-water mark, bounded by the out-of-order window rather than
    /// the grid size.
    pub peak_parked: usize,
}

/// One finished cell, as the execution core hands it to a sink.
struct Cell {
    outcome: TaskOutcome,
    /// Wall-clock seconds of the cell's run.
    secs: f64,
    cost: UnitCost,
    /// The worker that ran the cell (0 = calling thread).
    worker: usize,
}

/// Held by each helper worker: however the worker exits — normally or by
/// unwinding — it leaves the live count and wakes the consumer, so a
/// consumer waiting on a cell that will never land cannot hang.
struct WorkerExit<'a>(
    &'a AtomicUsize,
    &'a Mutex<BTreeMap<usize, Cell>>,
    &'a Condvar,
);

impl Drop for WorkerExit<'_> {
    fn drop(&mut self) {
        // Decrement under the lock the consumer checks before waiting, so
        // the wake-up cannot slip between its check and its wait.
        let guard = relock(self.1);
        self.0.fetch_sub(1, Ordering::SeqCst);
        drop(guard);
        self.2.notify_all();
    }
}

/// Aggregate task-indexed outcomes into per-scenario results.
///
/// Entries and failures must be unique per index and are consumed in
/// task order so replication order always matches seed order.
pub(crate) fn assemble(
    plan: &SweepPlan,
    mut entries: Vec<(usize, ScenarioOutcome)>,
    mut failed: Vec<(usize, TaskError)>,
) -> Vec<ScenarioResult> {
    let tasks = plan.tasks();
    entries.sort_by_key(|(t, _)| *t);
    failed.sort_by_key(|(t, _)| *t);
    let mut outcomes: Vec<Vec<ScenarioOutcome>> =
        plan.scenarios.iter().map(|_| Vec::new()).collect();
    let mut failures: Vec<Vec<TaskError>> = plan.scenarios.iter().map(|_| Vec::new()).collect();
    for (t, outcome) in entries {
        outcomes[tasks[t].0].push(outcome);
    }
    for (t, failure) in failed {
        failures[tasks[t].0].push(failure);
    }
    plan.scenarios
        .iter()
        .zip(outcomes.into_iter().zip(failures))
        .map(|(scenario, (outcomes, failures))| {
            let mut reps = Replications::new();
            for o in &outcomes {
                for (k, v) in o.metrics() {
                    reps.push(k, v);
                }
            }
            ScenarioResult {
                scenario: scenario.clone(),
                outcomes,
                failures,
                reps,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{PolicyKind, RunConfig};
    use crate::scenario::{ArrivalSpec, ExecSpec, MplSpec};
    use crate::wire::encode_outcome;
    use xsched_workload::setup;

    fn quick_plan() -> SweepPlan {
        let rc = RunConfig {
            warmup_txns: 50,
            measured_txns: 250,
            ..Default::default()
        };
        let scenarios = [1u32, 3, 7]
            .iter()
            .map(|&m| Scenario::tput("s1", setup(1), m, rc.clone()))
            .collect();
        SweepPlan::new(scenarios).replicated(3, 42)
    }

    /// Every outcome of a result set, encoded, in task order.
    fn encoded(results: &[ScenarioResult]) -> Vec<String> {
        results
            .iter()
            .flat_map(|r| r.outcomes.iter().map(encode_outcome))
            .collect()
    }

    /// The determinism regression test: parallel execution must be
    /// bit-identical to serial for the same `(scenario, seed)` grid.
    #[test]
    fn parallel_sweep_is_bit_identical_to_serial() {
        let plan = quick_plan();
        let serial = SweepExecutor::serial().run(&plan);
        let parallel = SweepExecutor::parallel(4).run(&plan);
        assert_eq!(serial.len(), parallel.len());
        for (s, p) in serial.iter().zip(&parallel) {
            assert_eq!(s.outcomes.len(), p.outcomes.len());
            for (a, b) in s.outcomes.iter().zip(&p.outcomes) {
                let (a, b) = (a.as_run().unwrap(), b.as_run().unwrap());
                assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
                assert_eq!(a.mean_rt.to_bits(), b.mean_rt.to_bits());
                assert_eq!(a.p95_rt.to_bits(), b.p95_rt.to_bits());
                assert_eq!(a.mean_lock_wait.to_bits(), b.mean_lock_wait.to_bits());
            }
            assert_eq!(
                s.mean("throughput").to_bits(),
                p.mean("throughput").to_bits()
            );
        }
    }

    /// The acceptance check for the plan-level capacity cache: an
    /// OpenLoad grid with S setups × L loads × R seeds performs exactly
    /// S×R capacity measurements — every additional load cell is a cache
    /// hit — and the cached results are bit-identical to uncached runs.
    /// The per-cell `(bucket, events)` timing rows (summed into a
    /// simulated-events rate by the benchmark harness) are the same at
    /// every thread count, with one `ref/` row per capacity measurement.
    #[test]
    fn open_load_grid_measures_capacity_once_per_setup_and_seed() {
        let rc = RunConfig {
            warmup_txns: 20,
            measured_txns: 100,
            ..Default::default()
        };
        let setups = [1u32, 2]; // S = 2
        let loads = [0.5, 0.7, 0.9]; // L = 3
        let scenarios: Vec<Scenario> = setups
            .iter()
            .flat_map(|&id| {
                let rc = rc.clone();
                loads.iter().map(move |&load| Scenario {
                    row: format!("setup {id}"),
                    col: format!("load {load}"),
                    setup: setup(id),
                    exec: ExecSpec::Run {
                        mpl: MplSpec::Fixed(5),
                        policy: PolicyKind::Fifo,
                        arrivals: ArrivalSpec::OpenLoad(load),
                    },
                    rc: rc.clone(),
                })
            })
            .collect();
        let plan = SweepPlan::new(scenarios).replicated(2, 42); // R = 2

        let mut rows_by_threads = Vec::new();
        let mut cached = Vec::new();
        for threads in [1, 4] {
            let cache = MeasurementCache::shared();
            let timings = Arc::new(Mutex::new(Vec::new()));
            cached = SweepExecutor::parallel(threads)
                .with_cache(Arc::clone(&cache))
                .with_timings(Arc::clone(&timings))
                .run(&plan);
            assert_eq!(cache.misses(), 4, "exactly S×R capacity measurements");
            assert_eq!(cache.hits(), 8, "the other S×(L−1)×R lookups are hits");
            let mut rows: Vec<(String, u64)> = relock(&timings)
                .iter()
                .map(|c| (c.bucket.clone(), c.events))
                .collect();
            rows.sort_unstable();
            let refs = rows.iter().filter(|(b, _)| b.starts_with("ref/")).count();
            assert_eq!(refs as u64, cache.misses(), "{threads} thread(s)");
            assert_eq!(rows.len() - refs, plan.task_count());
            rows_by_threads.push(rows);
        }
        assert_eq!(rows_by_threads[0], rows_by_threads[1]);

        // Bit-identical to the uncached path, outcome field by field.
        for (si, result) in cached.iter().enumerate() {
            for (seed, outcome) in plan.seeds.iter().zip(&result.outcomes) {
                let uncached = plan.scenarios[si].run(*seed);
                assert_eq!(encode_outcome(outcome), encode_outcome(&uncached));
            }
        }
    }

    #[test]
    fn task_count_always_matches_tasks_len() {
        // The empty-seeds rule is derived, not duplicated: pin the
        // equality on the edge cases.
        let rc = RunConfig::quick();
        let scenario = Scenario::tput("s1", setup(1), 5, rc);
        for (scenarios, seeds) in [
            (vec![], vec![]),                      // empty plan
            (vec![], vec![1, 2, 3]),               // seeds but nothing to run
            (vec![scenario.clone()], vec![]),      // per-scenario seeds
            (vec![scenario.clone()], vec![7]),     // one seed
            (vec![scenario; 3], vec![1, 2, 3, 4]), // full grid
        ] {
            let plan = SweepPlan::new(scenarios).with_seeds(seeds);
            assert_eq!(plan.task_count(), plan.tasks().len());
        }
    }

    /// Attaching a [`SweepObs`] must not change a result byte, and the
    /// execution telemetry it records must add up: every task counted
    /// and timed, cache traffic attributed, controller cells leaving a
    /// telemetry series keyed by their label.
    #[test]
    fn observed_sweep_is_bit_identical_and_accounts_for_every_task() {
        use crate::controller::Targets;
        let mut plan = quick_plan();
        plan.scenarios.push(Scenario {
            row: "ctl".into(),
            col: String::new(),
            setup: setup(1),
            exec: ExecSpec::Controller {
                targets: Targets::twenty_percent(),
                start: None,
            },
            rc: RunConfig::quick(),
        });
        let plain = SweepExecutor::parallel(4).run(&plan);
        let obs = Arc::new(SweepObs::new());
        let observed = SweepExecutor::parallel(4)
            .with_obs(Arc::clone(&obs))
            .run(&plan);
        for (a, b) in plain.iter().zip(&observed) {
            for (x, y) in a.outcomes.iter().zip(&b.outcomes) {
                assert_eq!(encode_outcome(x), encode_outcome(y));
            }
        }
        let r = obs.registry();
        assert_eq!(r.counter("sweep.tasks_done"), plan.task_count() as u64);
        let per_worker: u64 = (0..64)
            .map(|w| r.counter(&format!("sweep.worker{w}.tasks")))
            .sum();
        assert_eq!(per_worker, plan.task_count() as u64);
        let hist = r.hist("sweep.task_secs").expect("every task timed");
        assert_eq!(hist.count(), plan.task_count() as u64);
        assert!(r.gauge("sweep.shard0.actual_secs").unwrap_or(0.0) > 0.0);
        // One series per controller cell × seed, labeled by the cell.
        let series = obs.controller_series();
        assert_eq!(series.len(), plan.seeds.len());
        assert!(series
            .iter()
            .all(|(l, s)| l.starts_with("ctl") && !s.is_empty()));
    }

    #[test]
    fn replications_produce_finite_confidence_intervals() {
        let results = SweepExecutor::parallel(0).run(&quick_plan());
        for r in &results {
            assert_eq!(r.outcomes.len(), 3);
            let ci = r.ci95("throughput");
            assert!(ci.mean > 0.0);
            assert!(ci.half_width.is_finite(), "3 reps give a finite t CI");
        }
    }

    #[test]
    fn plan_expansion_counts_tasks() {
        let plan = quick_plan();
        assert_eq!(plan.task_count(), 9);
        assert!(!plan.is_empty());
        assert_eq!(plan.seeds, vec![42, 43, 44]);
    }

    #[test]
    fn empty_seed_list_uses_each_scenarios_own_seed() {
        let mut plan = quick_plan().with_seeds(vec![]);
        plan.scenarios[1].rc.seed = 7;
        assert_eq!(plan.task_count(), 3);
        let results = SweepExecutor::serial().run(&plan);
        // Scenario 1 ran under its own configured seed, not scenario 0's.
        let own = plan.scenarios[1].run(7);
        assert_eq!(
            results[1].first().as_run().unwrap().throughput.to_bits(),
            own.as_run().unwrap().throughput.to_bits()
        );
        // And differently-seeded scenarios really saw different streams.
        let other = plan.scenarios[1].run(plan.scenarios[0].rc.seed);
        assert_ne!(
            results[1].first().as_run().unwrap().throughput.to_bits(),
            other.as_run().unwrap().throughput.to_bits()
        );
    }

    /// The streaming executor folds every outcome exactly once, strictly
    /// in task order, and the folded stream is bit-identical to the
    /// batch path at any thread count. `peak_parked` bounds the
    /// out-of-order window: at least 1, never more than the plan.
    #[test]
    fn run_fold_streams_in_task_order_and_matches_the_batch_run() {
        let plan = quick_plan();
        let expected = encoded(&SweepExecutor::serial().run(&plan));
        for exec in [SweepExecutor::serial(), SweepExecutor::parallel(4)] {
            let (folded, stats) = exec.run_fold(&plan, Vec::new(), |mut acc: Vec<String>, t, o| {
                assert_eq!(acc.len(), t, "outcomes fold strictly in task order");
                acc.push(encode_outcome(o.as_ok().expect("no faults engaged")));
                acc
            });
            assert_eq!(stats.tasks, plan.task_count());
            assert!(stats.peak_parked >= 1 && stats.peak_parked <= plan.task_count());
            assert_eq!(folded, expected);
        }
    }

    /// `quick_plan` with every replication of its middle scenario
    /// failing for real: a high-priority fraction of 2.0 trips the
    /// workload generator's assert, on every thread count.
    fn mixed_plan() -> SweepPlan {
        let mut plan = quick_plan();
        plan.scenarios[1].rc.high_fraction = 2.0;
        plan
    }

    /// The panic a `high_fraction = 2.0` cell fails with.
    fn bad_fraction() -> TaskError {
        TaskError("assertion failed: (0.0..=1.0).contains(&f)".into())
    }

    /// A plan whose every task fails must not abort a keep-going sweep:
    /// every cell degrades to a marked failure, and the failures survive
    /// the assemble path.
    #[test]
    fn keep_going_sweep_survives_total_failure() {
        let mut plan = quick_plan();
        for s in &mut plan.scenarios {
            s.rc.high_fraction = 2.0;
        }
        let exec = SweepExecutor::parallel(4).with_keep_going(true);
        let obs = Arc::new(SweepObs::new());
        let results = exec.with_obs(Arc::clone(&obs)).run(&plan);
        let total: usize = results.iter().map(|r| r.failures.len()).sum();
        assert_eq!(total, plan.task_count());
        assert!(results.iter().all(|r| r.outcomes.is_empty()));
        for r in &results {
            assert!(r.failures.iter().all(|e| *e == bad_fraction()));
        }
        let reg = obs.registry();
        assert_eq!(reg.counter("sweep.task_failures"), plan.task_count() as u64);
    }

    /// The cells beside a failing one are bit-identical to the same cells
    /// of a fault-free run, and the failures themselves are the same at
    /// every thread count.
    #[test]
    fn surviving_cells_beside_failed_cells_match_the_fault_free_run_bitwise() {
        let baseline = encoded(&SweepExecutor::serial().run(&quick_plan()));
        let plan = mixed_plan();
        // Every cell in task order: its encoded outcome, or its failure.
        let cells = |exec: SweepExecutor| {
            exec.with_keep_going(true)
                .run_fold(&plan, Vec::new(), |mut acc, _, o| {
                    acc.push(match o {
                        TaskOutcome::Ok(o) => Ok(encode_outcome(&o)),
                        TaskOutcome::Failed(e) => Err(e),
                    });
                    acc
                })
                .0
        };
        let serial = cells(SweepExecutor::serial());
        let failed: Vec<usize> = (0..serial.len()).filter(|&t| serial[t].is_err()).collect();
        assert_eq!(failed, [3, 4, 5], "scenario 1's three replications");
        for (t, cell) in serial.iter().enumerate() {
            match cell {
                Ok(o) => assert_eq!(o, &baseline[t], "task {t}"),
                Err(e) => assert_eq!(*e, bad_fraction()),
            }
        }
        assert_eq!(serial, cells(SweepExecutor::parallel(4)));
    }

    /// Fail-fast (the default) still aborts: a failing cell without
    /// keep-going panics out of the sweep instead of degrading.
    #[test]
    fn fail_fast_policy_aborts_the_sweep_on_task_failure() {
        let plan = mixed_plan();
        for exec in [SweepExecutor::serial(), SweepExecutor::parallel(4)] {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec.run(&plan)));
            let msg = *result
                .expect_err("fail-fast aborts")
                .downcast::<String>()
                .unwrap();
            // The cursor reaches the first failed task after delivering
            // every earlier cell.
            assert!(msg.starts_with("sweep task 3 failed: panicked: "), "{msg}");
            assert!(msg.contains("(0.0..=1.0).contains(&f)"), "{msg}");
        }
    }

    /// A fold whose first cell panics under the default fail-fast policy
    /// must re-raise the typed failure on the calling thread, not leave
    /// the in-order consumer waiting for a cell that never lands. Run on
    /// a helper thread so a regression fails the test instead of hanging
    /// it.
    #[test]
    fn run_fold_reraises_a_failed_first_cell_instead_of_hanging() {
        let rc = RunConfig {
            warmup_txns: 10,
            measured_txns: 30,
            ..Default::default()
        };
        let mut broken = Scenario::tput("s1", setup(1), 2, rc.clone());
        broken.rc.high_fraction = 2.0;
        let plan = SweepPlan::new(vec![broken, Scenario::tput("s1", setup(1), 2, rc)]);
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                SweepExecutor::parallel(2).run_fold(&plan, 0usize, |n, _, _| n + 1)
            }));
            let _ = tx.send(result.map_err(|e| e.downcast::<String>().map(|m| *m)));
        });
        let result = rx
            .recv_timeout(std::time::Duration::from_secs(60))
            .expect("run_fold returns within 60 s");
        let msg = result
            .expect_err("the failed first cell aborts the fold")
            .expect("the panic carries a message");
        assert!(msg.contains("sweep task 0 failed: "), "{msg}");
        assert!(msg.contains("(0.0..=1.0).contains(&f)"), "{msg}");
    }

    /// run_fold under keep-going: failed tasks arrive at the fold as
    /// `TaskOutcome::Failed`, still strictly in task order, and the
    /// successful outcomes match the fault-free stream.
    #[test]
    fn run_fold_keep_going_folds_failures_in_order() {
        let expected = encoded(&SweepExecutor::serial().run(&quick_plan()));
        let plan = mixed_plan();
        let mut streams = Vec::new();
        for exec in [SweepExecutor::serial(), SweepExecutor::parallel(4)] {
            let (folded, stats) = exec.with_keep_going(true).run_fold(
                &plan,
                Vec::new(),
                |mut acc: Vec<(usize, Option<String>)>, t, o| {
                    assert_eq!(acc.len(), t, "failures fold in task order too");
                    acc.push((t, o.as_ok().map(encode_outcome)));
                    acc
                },
            );
            assert_eq!(stats.tasks, plan.task_count());
            let failed: Vec<usize> = folded
                .iter()
                .filter(|(_, o)| o.is_none())
                .map(|(t, _)| *t)
                .collect();
            assert_eq!(failed, [3, 4, 5]);
            for (t, o) in &folded {
                if let Some(o) = o {
                    assert_eq!(o, &expected[*t], "surviving task {t}");
                }
            }
            streams.push(folded);
        }
        assert_eq!(streams[0], streams[1], "serial ≡ parallel, byte for byte");
    }
}
