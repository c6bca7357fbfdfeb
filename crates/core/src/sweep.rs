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
//! Every entry point — batch [`SweepExecutor::run`] /
//! [`SweepExecutor::run_shard`], streaming [`SweepExecutor::run_fold`],
//! and the coordinator worker's per-lease `SweepExecutor::run_task` —
//! is a thin caller of one private core. The core expands tasks into work
//! units (sub-runs included), claims units in task order from one atomic
//! counter, runs each once under the guarded path, and hands every
//! finished cell to a sink on the calling thread, in task order.

use crate::cache::MeasurementCache;
use crate::driver::combine_subruns;
use crate::fault::{classify_panic, relock, FaultPolicy, TaskError, TaskOutcome};
use crate::journal::{CheckpointJournal, JournalReplay};
use crate::observe::SweepObs;
use crate::scenario::{Scenario, ScenarioOutcome, UnitCost, UnitOutcome};
use crate::shard::ShardResult;
use serde::Serialize;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};
use xsched_obs::TraceEvent;
use xsched_sim::{ConfidenceInterval, Replications};

/// Scenarios × replication seeds: the unit of execution.
#[derive(Debug, Clone, Serialize)]
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
    /// canonical order every executor and shard uses: row-major over
    /// scenarios × seeds. Task *index* in this list is the unit of
    /// sharding and result placement.
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

    /// The task indices shard `index` of `of` executes: the strided slice
    /// `index, index + of, index + 2·of, …`, which balances load when
    /// neighbouring grid cells have similar cost.
    pub fn shard(&self, index: usize, of: usize) -> Vec<usize> {
        assert!(of > 0, "a sweep splits into at least one shard");
        assert!(index < of, "shard index {index} out of range for {of}");
        (index..self.task_count()).step_by(of).collect()
    }

    /// Order-sensitive fingerprint of everything execution depends on
    /// (scenarios and seed list). Shard payloads carry it so a merge can
    /// refuse results produced from a different plan.
    ///
    /// The hash covers the Debug rendering, which is platform-independent
    /// but only guaranteed stable for binaries built by the *same Rust
    /// toolchain* — build the shard and merge binaries from the same
    /// commit and toolchain (a mismatch fails safe: the merge refuses).
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
    faults: FaultPolicy,
    journal: Option<Arc<CheckpointJournal>>,
    resume: Option<Arc<JournalReplay>>,
}

impl SweepExecutor {
    /// Run everything on the calling thread, in plan order.
    pub fn serial() -> SweepExecutor {
        SweepExecutor {
            threads: 1,
            cache: None,
            obs: None,
            progress: false,
            faults: FaultPolicy::default(),
            journal: None,
            resume: None,
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
    /// hits/misses, per-shard seconds, per-task seconds, controller
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

    /// Set the fault policy: an optional watchdog deadline and/or
    /// keep-going degradation (see [`FaultPolicy`]). Every unit runs
    /// once, panic-isolated, whatever the policy; the default policy
    /// fails fast.
    pub fn with_faults(mut self, faults: FaultPolicy) -> SweepExecutor {
        self.faults = faults;
        self
    }

    /// Durably record every completed task outcome into `journal` (one
    /// fsync'd append per task) so a killed sweep can resume. The
    /// executor writes the plan's header itself at the start of each
    /// [`SweepExecutor::run_shard`].
    pub fn with_journal(mut self, journal: Arc<CheckpointJournal>) -> SweepExecutor {
        self.journal = Some(journal);
        self
    }

    /// Skip tasks whose outcome `replay` already holds (matched by plan
    /// fingerprint + task index), splicing the journaled outcomes into
    /// their slots — the merge is byte-identical to an uninterrupted run
    /// because journaled outcomes travel through the same bit-exact
    /// codec as shard payloads. Resumed tasks contribute no timing
    /// telemetry (they cost no wall-clock this run).
    pub fn with_resume(mut self, replay: Arc<JournalReplay>) -> SweepExecutor {
        self.resume = Some(replay);
        self
    }

    /// Worker count this executor will use.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Execute the plan and aggregate replications per scenario.
    ///
    /// Implemented as the degenerate sharded run (one shard covering
    /// everything) aggregated through the same `assemble` path a merge
    /// uses, so sharded and unsharded execution cannot drift apart (the
    /// property tests in `tests/props.rs` additionally pin
    /// `merge(shards) ≡ run` bitwise).
    pub fn run(&self, plan: &SweepPlan) -> Vec<ScenarioResult> {
        let full = self.run_shard(plan, 0, 1);
        assemble(plan, full.entries, full.failures)
    }

    /// Execute shard `index` of `of` — the strided slice
    /// [`SweepPlan::shard`] — and return its task-indexed outcomes plus
    /// per-task wall-clock timings.
    ///
    /// Shards are independent: split a plan across processes or hosts,
    /// ship each [`ShardResult`] back (see [`ShardResult::encode`]), and
    /// [`ShardResult::merge`] reassembles the full sweep bit-identically
    /// to an unsharded run.
    ///
    /// Resume splices journaled outcomes (successes *and* failures —
    /// delete the journal to re-run failed cells) in place of running
    /// their tasks; resumed cells cost no wall-clock here, so they
    /// contribute no timing telemetry. Every executed cell is journaled
    /// as it is delivered.
    pub fn run_shard(&self, plan: &SweepPlan, index: usize, of: usize) -> ShardResult {
        let fp = plan.fingerprint();
        let mut outcomes: BTreeMap<usize, TaskOutcome> = BTreeMap::new();
        let mut pending = plan.shard(index, of);
        if let Some(replay) = &self.resume {
            pending.retain(|&t| match replay.outcome(fp, t) {
                Some(outcome) => {
                    outcomes.insert(t, outcome.clone());
                    false
                }
                None => true,
            });
            let skipped = outcomes.len();
            if skipped > 0 {
                eprintln!(
                    "[sweep] resume: skipped {skipped}/{} journaled tasks (shard {index}/{of})",
                    skipped + pending.len()
                );
                if let Some(obs) = &self.obs {
                    obs.registry()
                        .counter_add("sweep.tasks_resumed", skipped as u64);
                }
            }
        }
        if let Some(journal) = &self.journal {
            journal
                .begin_sweep(fp, plan.task_count())
                .expect("checkpoint journal write failed");
        }
        let mut shard = ShardResult {
            shard: index,
            of,
            plan_fingerprint: fp,
            task_count: plan.task_count(),
            entries: Vec::new(),
            failures: Vec::new(),
            timings: Vec::new(),
            ref_timings: Vec::new(),
            events: Vec::new(),
            ref_events: Vec::new(),
        };
        self.execute(plan, &pending, (index, of), |t, cell| {
            if let Some(journal) = &self.journal {
                journal
                    .record(t, &cell.outcome)
                    .expect("checkpoint journal write failed");
            }
            let cost = cell.cost;
            shard.timings.push((t, cell.secs));
            if cost.ref_secs > 0.0 {
                shard.ref_timings.push((t, cost.ref_secs));
            }
            // Per-cell events are charged net of the shared reference
            // run so the signal is stable under cache claim order.
            if cost.events > 0 {
                shard
                    .events
                    .push((t, cost.events.saturating_sub(cost.ref_events)));
            }
            if cost.ref_events > 0 {
                shard.ref_events.push((t, cost.ref_events));
            }
            outcomes.insert(t, cell.outcome);
        });
        for (t, outcome) in outcomes {
            match outcome {
                TaskOutcome::Ok(outcome) => shard.entries.push((t, outcome)),
                TaskOutcome::Failed(failure) => shard.failures.push((t, failure)),
            }
        }
        shard
    }

    /// Execute the single task `task` of `plan` — the coordinator
    /// worker's per-lease call. Same core, same guarded path and same
    /// telemetry as a one-task shard, so a coordinated sweep's outcomes
    /// are bit-identical to a direct one. Under fail-fast a failed task
    /// re-raises here; under keep-going it comes back as
    /// [`TaskOutcome::Failed`].
    pub(crate) fn run_task(&self, plan: &SweepPlan, task: usize) -> TaskOutcome {
        let mut outcome = None;
        self.execute(plan, &[task], (0, 1), |_, cell| {
            outcome = Some(cell.outcome)
        });
        outcome.expect("the execution core delivers every task it is given")
    }

    /// Execute the plan **streamingly**: fold every task's outcome into an
    /// accumulator instead of materializing the whole result grid. Memory
    /// stays O(cells in flight) — finished cells that arrive ahead of the
    /// in-order cursor are parked briefly and folded as the cursor
    /// reaches them, so the fold sees task indices `0, 1, 2, …` **always
    /// in task order**, whatever the thread count. With the same plan the
    /// folded values are bit-identical to pulling outcomes out of
    /// [`SweepExecutor::run`] (sub-run cells included); only the
    /// peak-memory profile differs. Returns the final accumulator plus
    /// [`FoldStats`] recording the parked-cell high-water mark.
    ///
    /// Fault tolerance applies per task exactly as in
    /// [`SweepExecutor::run_shard`] (the fold sees [`TaskOutcome::Failed`]
    /// cells under keep-going mode; fail-fast re-raises on the calling
    /// thread). The checkpoint journal is *not* consulted or written
    /// here — folds are streaming by nature; use the batch executor for
    /// resumable sweeps.
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
        let peak_parked = self.execute(plan, &tasks, (0, 1), |t, cell| {
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
    /// Each task expands into [`Scenario::subrun_count`] units — one long
    /// steady-state measurement can occupy several workers at once — and
    /// units are claimed in task order from one atomic counter by
    /// `threads` workers: the calling thread plus `threads − 1` scoped
    /// helpers. A cell is finished when its last unit lands;
    /// [`combine_subruns`] folds sub-run parts in k order, so worker
    /// scheduling cannot change a result byte.
    ///
    /// A fail-fast failure stops further claims and re-raises as a typed
    /// `sweep task {t} failed: …` panic on the calling thread once the
    /// cursor reaches it; every earlier cell is still delivered first.
    /// `(index, of)` only labels progress lines and the per-shard gauge.
    fn execute(
        &self,
        plan: &SweepPlan,
        mine: &[usize],
        (index, of): (usize, usize),
        mut sink: impl FnMut(usize, Cell),
    ) -> usize {
        let tasks = plan.tasks();
        let cache = self.cache.clone().unwrap_or_else(MeasurementCache::shared);
        let obs = self.obs.as_deref();
        let subs: Vec<u32> = mine
            .iter()
            .map(|&t| plan.scenarios[tasks[t].0].subrun_count())
            .collect();
        let units: Vec<(usize, u32)> = subs
            .iter()
            .enumerate()
            .flat_map(|(pos, &n)| (0..n).map(move |k| (pos, k)))
            .collect();
        let accs: Vec<Mutex<SubAcc>> = subs.iter().map(|&n| Mutex::new(SubAcc::new(n))).collect();
        let parked: Mutex<BTreeMap<usize, Cell>> = Mutex::new(BTreeMap::new());
        let ready = Condvar::new();
        let next = AtomicUsize::new(0);
        let abort = AtomicBool::new(false);
        let hits_before = cache.hits();
        let misses_before = cache.misses();

        // Claim and run the next unit as `worker`, parking its cell if the
        // unit finished it. False once nothing is left to claim.
        let work = |worker: usize| -> bool {
            if abort.load(Ordering::Relaxed) {
                return false;
            }
            let Some(&(pos, k)) = units.get(next.fetch_add(1, Ordering::Relaxed)) else {
                return false;
            };
            let t = mine[pos];
            let (si, seed) = tasks[t];
            let started = Instant::now();
            let result = self.run_unit_guarded(&plan.scenarios[si], seed, k, subs[pos], &cache);
            let secs = started.elapsed().as_secs_f64();
            let finished = match result {
                // Fail fast: park the failure at once and stop claiming —
                // the cell's remaining units may never run.
                Err(error) if !self.faults.keep_going => {
                    abort.store(true, Ordering::Relaxed);
                    Some((TaskOutcome::Failed(error), secs, UnitCost::default()))
                }
                result => relock(&accs[pos]).land(k, result, secs),
            };
            if let Some((outcome, secs, cost)) = finished {
                relock(&parked).entry(pos).or_insert(Cell {
                    outcome,
                    secs,
                    cost,
                    worker,
                });
                ready.notify_all();
            }
            true
        };

        let helpers = self.threads.min(units.len()).saturating_sub(1);
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
            // the next unit, otherwise wait for a helper to finish one.
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
                if let (false, Some(error)) = (self.faults.keep_going, cell.outcome.as_failed()) {
                    abort.store(true, Ordering::Relaxed);
                    panic!("sweep task {t} failed: {error}");
                }
                if let Some(obs) = obs {
                    let r = obs.registry();
                    if cell.outcome.as_failed().is_some() {
                        r.counter_add("sweep.task_failures", 1);
                        obs.record_task_event(TraceEvent::TaskFailed { task: t as u64 });
                    }
                    // Telemetry counts *cells* (the plan's task unit),
                    // credited to the worker that finished the cell, so
                    // the counters sum to the task count whatever the
                    // sub-run fan-out.
                    r.counter_add("sweep.tasks_done", 1);
                    r.counter_add(&format!("sweep.worker{}.tasks", cell.worker), 1);
                    r.hist_record("sweep.task_secs", cell.secs);
                    r.gauge_max("sweep.task_max_secs", cell.secs);
                }
                if self.progress {
                    eprintln!(
                        "[sweep] shard {index}/{of}: {}/{} tasks done \
                         (last {:.2}s on worker {})",
                        pos + 1,
                        mine.len(),
                        cell.secs,
                        cell.worker
                    );
                }
                actual_secs += cell.secs;
                sink(t, cell);
            }
        });

        if let Some(obs) = obs {
            let r = obs.registry();
            r.counter_add("sweep.cache_hits", cache.hits() - hits_before);
            r.counter_add("sweep.cache_misses", cache.misses() - misses_before);
            // Measured seconds, cumulative per shard index across the
            // invocation's sweeps.
            r.gauge_add(&format!("sweep.shard{index}.actual_secs"), actual_secs);
        }
        peak
    }

    /// Run one task unit once, panic-isolated, optionally under the
    /// watchdog deadline. Returns the unit's outcome plus its
    /// [`UnitCost`], or the error that failed it. Without a deadline the
    /// unit runs inline under `catch_unwind`; with one it runs on a
    /// detached monitor-pattern thread — if the deadline passes, the
    /// runaway thread is abandoned (its eventual result discarded) and
    /// the unit scores [`TaskError::Timeout`].
    fn run_unit_guarded(
        &self,
        scenario: &Scenario,
        seed: u64,
        k: u32,
        of: u32,
        cache: &Arc<MeasurementCache>,
    ) -> Result<(UnitOutcome, UnitCost), TaskError> {
        let Some(limit) = self.faults.task_timeout_secs else {
            return catch_unwind(AssertUnwindSafe(|| {
                scenario.run_unit(seed, k, of, Some(cache), self.obs.as_deref())
            }))
            .map_err(classify_panic);
        };
        let scenario = scenario.clone();
        let cache = Arc::clone(cache);
        let obs = self.obs.clone();
        let (tx, rx) = std::sync::mpsc::channel();
        // Detached on purpose: joining a runaway thread would defeat the
        // deadline. An abandoned unit keeps its CPU until it finishes, but
        // its result is discarded and its panic (if any) is caught here,
        // not propagated.
        std::thread::spawn(move || {
            let result = catch_unwind(AssertUnwindSafe(|| {
                scenario.run_unit(seed, k, of, Some(&cache), obs.as_deref())
            }));
            let _ = tx.send(result);
        });
        match rx.recv_timeout(Duration::from_secs_f64(limit)) {
            Ok(result) => result.map_err(classify_panic),
            Err(_) => {
                if let Some(obs) = &self.obs {
                    obs.registry().counter_add("sweep.task_timeouts", 1);
                }
                Err(TaskError::Timeout(limit))
            }
        }
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
    /// Wall-clock seconds of the cell's units, summed.
    secs: f64,
    cost: UnitCost,
    /// The worker that finished the cell's last unit (0 = calling thread).
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

/// Accumulates a cell's unit results until the last one lands.
#[derive(Debug)]
struct SubAcc {
    parts: Vec<Option<Result<UnitOutcome, TaskError>>>,
    secs: f64,
    cost: UnitCost,
    done: usize,
}

impl SubAcc {
    fn new(units: u32) -> SubAcc {
        SubAcc {
            parts: vec![None; units as usize],
            secs: 0.0,
            cost: UnitCost::default(),
            done: 0,
        }
    }

    /// Record unit `k`'s result. Once every unit has landed, returns the
    /// cell's outcome with its summed seconds and cost: the whole outcome
    /// of an unsplit cell, the k-ordered [`combine_subruns`] of a split
    /// one, or — if any unit failed — the lowest-k failure, which is
    /// deterministic in the unit grid rather than in worker scheduling.
    fn land(
        &mut self,
        k: u32,
        result: Result<(UnitOutcome, UnitCost), TaskError>,
        secs: f64,
    ) -> Option<(TaskOutcome, f64, UnitCost)> {
        self.secs += secs;
        let part = result.map(|(unit, cost)| {
            self.cost.ref_secs += cost.ref_secs;
            self.cost.events += cost.events;
            self.cost.ref_events += cost.ref_events;
            unit
        });
        self.parts[k as usize] = Some(part);
        self.done += 1;
        if self.done < self.parts.len() {
            return None;
        }
        let mut runs = Vec::with_capacity(self.parts.len());
        let mut outcome = None;
        for part in std::mem::take(&mut self.parts) {
            match part.expect("every unit lands before the cell completes") {
                Err(error) => {
                    outcome = Some(TaskOutcome::Failed(error));
                    break;
                }
                Ok(UnitOutcome::Whole(whole)) => outcome = Some(TaskOutcome::Ok(whole)),
                Ok(UnitOutcome::Part(run)) => runs.push(run),
            }
        }
        let outcome = outcome
            .unwrap_or_else(|| TaskOutcome::Ok(ScenarioOutcome::Run(combine_subruns(&runs))));
        Some((outcome, self.secs, self.cost))
    }
}

/// Aggregate task-indexed outcomes into per-scenario results.
///
/// Tolerates missing task indices (a partial shard aggregates whatever it
/// has); entries and failures must be unique per index and are consumed
/// in task order so replication order always matches seed order.
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
    use crate::shard::encode_outcome;
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

    /// The acceptance criterion for the plan-level capacity cache: an
    /// OpenLoad grid with S setups × L loads × R seeds performs exactly
    /// S×R capacity measurements — every additional load cell is a cache
    /// hit — and the cached results are bit-identical to uncached runs.
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

        let cache = MeasurementCache::shared();
        let cached = SweepExecutor::parallel(4)
            .with_cache(Arc::clone(&cache))
            .run(&plan);
        assert_eq!(cache.misses(), 4, "exactly S×R capacity measurements");
        assert_eq!(cache.hits(), 8, "the other S×(L−1)×R lookups are hits");

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

    #[test]
    fn strided_shards_partition_the_task_list() {
        let plan = quick_plan(); // 9 tasks
        for n in 1..=5 {
            let mut all: Vec<usize> = (0..n).flat_map(|i| plan.shard(i, n)).collect();
            all.sort_unstable();
            assert_eq!(all, (0..plan.task_count()).collect::<Vec<_>>(), "n={n}");
        }
        assert!(plan.shard(3, 4).iter().all(|t| t % 4 == 3));
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

    /// Sub-run expansion is invisible to determinism: a plan whose cells
    /// split into K sub-runs produces bit-identical outcomes at every
    /// thread count, each cell equal to the hand-rolled expansion
    /// (`run_subrun` × K combined in k order) — worker claim order can
    /// move sub-runs between threads but never changes a byte.
    #[test]
    fn subrun_cells_are_bit_identical_across_thread_counts_and_match_the_manual_combine() {
        let rc = RunConfig {
            warmup_txns: 30,
            measured_txns: 240,
            subruns: 3,
            ..Default::default()
        };
        let scenarios = vec![
            Scenario::tput("s1", setup(1), 2, rc.clone()),
            Scenario::tput("s2", setup(2), 6, rc),
        ];
        let plan = SweepPlan::new(scenarios).replicated(2, 42);
        let serial = SweepExecutor::serial().run(&plan);
        for threads in [2usize, 4] {
            let wide = SweepExecutor::parallel(threads).run(&plan);
            for (s, p) in serial.iter().zip(&wide) {
                for (a, b) in s.outcomes.iter().zip(&p.outcomes) {
                    assert_eq!(encode_outcome(a), encode_outcome(b));
                }
            }
        }
        // The executor's combined cell is exactly the manual expansion.
        let parts: Vec<_> = (0..3)
            .map(|k| plan.scenarios[0].run_subrun(42, k, 3, None).0)
            .collect();
        let manual = ScenarioOutcome::Run(crate::driver::combine_subruns(&parts));
        assert_eq!(
            encode_outcome(&serial[0].outcomes[0]),
            encode_outcome(&manual)
        );
        // And the split changes the estimator relative to an unsplit run
        // — the golden-pinned default path really is `subruns: 1`.
        let unsplit = plan.scenarios[0].run(42);
        assert_ne!(
            encode_outcome(&serial[0].outcomes[0]),
            encode_outcome(&unsplit)
        );
    }

    /// The streaming executor folds every outcome exactly once, strictly
    /// in task order, and the folded stream is bit-identical to the
    /// batch path at any thread count. `peak_parked` bounds the
    /// out-of-order window: at least 1, never more than the plan.
    #[test]
    fn run_fold_streams_in_task_order_and_matches_the_batch_run() {
        let mut split = quick_plan();
        for s in &mut split.scenarios {
            s.rc.subruns = 3;
        }
        for plan in [quick_plan(), split] {
            let reference = SweepExecutor::serial().run_shard(&plan, 0, 1);
            let expected: Vec<String> = reference
                .entries
                .iter()
                .map(|(_, o)| encode_outcome(o))
                .collect();
            for exec in [SweepExecutor::serial(), SweepExecutor::parallel(4)] {
                let (folded, stats) =
                    exec.run_fold(&plan, Vec::new(), |mut acc: Vec<String>, t, o| {
                        assert_eq!(acc.len(), t, "outcomes fold strictly in task order");
                        acc.push(encode_outcome(o.as_ok().expect("no faults engaged")));
                        acc
                    });
                assert_eq!(stats.tasks, plan.task_count());
                assert!(stats.peak_parked >= 1 && stats.peak_parked <= plan.task_count());
                assert_eq!(folded, expected);
            }
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
        TaskError::Panic("assertion failed: (0.0..=1.0).contains(&f)".into())
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
        let exec = SweepExecutor::parallel(4).with_faults(FaultPolicy {
            keep_going: true,
            ..Default::default()
        });
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
        assert_eq!(obs.task_events().len(), plan.task_count());
    }

    /// The cells beside a failing one are bit-identical to the same cells
    /// of a fault-free run, and the failures themselves are the same at
    /// every thread count.
    #[test]
    fn surviving_cells_beside_failed_cells_match_the_fault_free_run_bitwise() {
        let baseline = SweepExecutor::serial().run_shard(&quick_plan(), 0, 1);
        let by_task: std::collections::HashMap<usize, String> = baseline
            .entries
            .iter()
            .map(|(t, o)| (*t, encode_outcome(o)))
            .collect();
        let plan = mixed_plan();
        let policy = FaultPolicy {
            keep_going: true,
            ..Default::default()
        };
        let render = |s: &ShardResult| -> Vec<(usize, String)> {
            s.entries
                .iter()
                .map(|(t, o)| (*t, encode_outcome(o)))
                .collect()
        };
        let serial = SweepExecutor::serial()
            .with_faults(policy.clone())
            .run_shard(&plan, 0, 1);
        let failed: Vec<usize> = serial.failures.iter().map(|(t, _)| *t).collect();
        assert_eq!(failed, [3, 4, 5], "scenario 1's three replications");
        assert!(serial.failures.iter().all(|(_, e)| *e == bad_fraction()));
        assert_eq!(serial.entries.len(), 6);
        for (t, o) in &serial.entries {
            assert_eq!(encode_outcome(o), by_task[t], "task {t}");
        }
        let wide = SweepExecutor::parallel(4)
            .with_faults(policy)
            .run_shard(&plan, 0, 1);
        assert_eq!(serial.failures, wide.failures);
        assert_eq!(render(&serial), render(&wide));
    }

    /// The watchdog scores a cell that outlives its deadline as a
    /// timeout: a real 20k-transaction cell under a 1 ms deadline fails by
    /// `TaskError::Timeout` without hanging the sweep.
    #[test]
    fn watchdog_times_out_stalled_tasks() {
        let rc = RunConfig {
            warmup_txns: 1_000,
            measured_txns: 20_000,
            ..Default::default()
        };
        let plan = SweepPlan::new(vec![Scenario::tput("s1", setup(1), 3, rc)]);
        let obs = Arc::new(SweepObs::new());
        let results = SweepExecutor::serial()
            .with_faults(FaultPolicy {
                keep_going: true,
                task_timeout_secs: Some(0.001),
            })
            .with_obs(Arc::clone(&obs))
            .run(&plan);
        assert_eq!(results[0].failures, [TaskError::Timeout(0.001)]);
        assert_eq!(obs.registry().counter("sweep.task_timeouts"), 1);
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
            .recv_timeout(Duration::from_secs(60))
            .expect("run_fold returns within 60 s");
        let msg = result
            .expect_err("the failed first cell aborts the fold")
            .expect("the panic carries a message");
        assert!(msg.contains("sweep task 0 failed: "), "{msg}");
        assert!(msg.contains("(0.0..=1.0).contains(&f)"), "{msg}");
    }

    /// Checkpoint/resume round trip: journal a full run, then resume from
    /// the journal — every task is skipped, the merged shard is
    /// bit-identical, and resumed cells contribute no timing lines.
    #[test]
    fn journaled_sweep_resumes_bit_identically_and_skips_timings() {
        let plan = quick_plan();
        let dir = std::env::temp_dir();
        let path = dir.join(format!("xsched-sweep-journal-{}.log", std::process::id()));
        let direct = SweepExecutor::serial().run_shard(&plan, 0, 1);
        // An executed shard times every task it ran.
        assert_eq!(direct.timings.len(), direct.entries.len());
        assert!(direct.timings.iter().all(|&(_, secs)| secs >= 0.0));
        let journal = Arc::new(crate::journal::CheckpointJournal::create(&path).unwrap());
        let journaled = SweepExecutor::parallel(2)
            .with_journal(Arc::clone(&journal))
            .run_shard(&plan, 0, 1);
        for ((t, a), (u, b)) in direct.entries.iter().zip(&journaled.entries) {
            assert_eq!(t, u);
            assert_eq!(encode_outcome(a), encode_outcome(b));
        }
        let replay = Arc::new(crate::journal::JournalReplay::load(&path).unwrap());
        let obs = Arc::new(SweepObs::new());
        let resumed = SweepExecutor::parallel(2)
            .with_resume(replay)
            .with_obs(Arc::clone(&obs))
            .run_shard(&plan, 0, 1);
        std::fs::remove_file(&path).ok();
        // Entries identical; no wall-clock was spent, so no timing lines
        // and no executed-task telemetry.
        assert_eq!(resumed.entries.len(), direct.entries.len());
        for ((t, a), (u, b)) in direct.entries.iter().zip(&resumed.entries) {
            assert_eq!(t, u);
            assert_eq!(encode_outcome(a), encode_outcome(b));
        }
        assert!(resumed.timings.is_empty());
        let reg = obs.registry();
        assert_eq!(reg.counter("sweep.tasks_resumed"), plan.task_count() as u64);
        assert_eq!(reg.counter("sweep.tasks_done"), 0);
        // And the assembled tables match bitwise.
        let a = assemble(&plan, direct.entries, direct.failures);
        let b = assemble(&plan, resumed.entries, resumed.failures);
        for (x, y) in a.iter().zip(&b) {
            for (o, p) in x.outcomes.iter().zip(&y.outcomes) {
                assert_eq!(encode_outcome(o), encode_outcome(p));
            }
        }
    }

    /// A split cell's units can land in any order; the cell's failure is
    /// the lowest-k one, whatever order the units landed in, and its
    /// seconds and cost still add up over every unit.
    #[test]
    fn sub_acc_keeps_the_lowest_k_failure_whatever_the_landing_order() {
        let rc = RunConfig {
            warmup_txns: 10,
            measured_txns: 60,
            subruns: 3,
            ..Default::default()
        };
        let part = Scenario::tput("s1", setup(1), 2, rc)
            .run_subrun(42, 0, 3, None)
            .0;
        let cost = UnitCost {
            ref_secs: 0.5,
            events: 100,
            ref_events: 40,
        };
        let fail = |k: u32| TaskError::Panic(format!("unit {k}"));
        let mut acc = SubAcc::new(3);
        assert!(acc.land(2, Err(fail(2)), 0.25).is_none());
        assert!(acc.land(1, Err(fail(1)), 0.25).is_none());
        let (outcome, secs, total) = acc
            .land(0, Ok((UnitOutcome::Part(part), cost)), 0.5)
            .expect("the last unit finishes the cell");
        assert_eq!(outcome.as_failed(), Some(&fail(1)));
        assert_eq!(secs, 1.0);
        assert_eq!(
            (total.ref_secs, total.events, total.ref_events),
            (0.5, 100, 40)
        );
    }

    /// run_fold under keep-going: failed tasks arrive at the fold as
    /// `TaskOutcome::Failed`, still strictly in task order, and the
    /// successful outcomes match the fault-free stream.
    #[test]
    fn run_fold_keep_going_folds_failures_in_order() {
        let policy = FaultPolicy {
            keep_going: true,
            ..Default::default()
        };
        let reference = SweepExecutor::serial().run_shard(&quick_plan(), 0, 1);
        let expected: Vec<String> = reference
            .entries
            .iter()
            .map(|(_, o)| encode_outcome(o))
            .collect();
        let plan = mixed_plan();
        let mut streams = Vec::new();
        for exec in [SweepExecutor::serial(), SweepExecutor::parallel(4)] {
            let (folded, stats) = exec.with_faults(policy.clone()).run_fold(
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
