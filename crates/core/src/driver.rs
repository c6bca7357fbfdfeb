//! Experiment driver: workload + external scheduler + simulated DBMS.
//!
//! One [`Driver`] binds a Table-2 [`Setup`] to a run configuration and can
//! reproduce each experiment shape in the paper:
//!
//! * [`Driver::throughput_curve`] — throughput vs. MPL under the saturated
//!   closed system (Figs. 2–5),
//! * [`Driver::run`] with [`ArrivalProcess::Open`] — open-system response
//!   times at fixed load (§3.2),
//! * [`Driver::find_mpl_for_loss`] — the lowest MPL within a throughput
//!   budget (the per-setup tuning behind Fig. 11),
//! * [`Driver::priority_experiment`] — high/low/no-priority mean response
//!   times (Figs. 11–13's external bars),
//! * [`Driver::session`] — a live controller session: calibration,
//!   queueing jump-start, observation/reaction until convergence (§4.3);
//!   with a [`ChaosSpec`], the same session with fault and traffic
//!   injectors woken at an onset, run out to a fixed budget
//!   ([`Driver::run_controller`] is the plain session's shorthand).
//!
//! Paired seeds: every run of a driver uses the same workload stream, so
//! comparisons across MPLs or policies are common-random-number paired.

use crate::cache::{MeasurementCache, MeasurementKey};
use crate::controller::{Decision, IterationRecord, MplController, Reference, Targets};
use crate::policy::{Fifo, PriorityFifo, QueuePolicy, QueuedTxn, Sjf};
use crate::scheduler::ExternalScheduler;
use std::sync::Arc;
use xsched_dbms::txn::{PageId, Priority};
use xsched_dbms::{Completion, DbmsMetrics, DbmsSim, StepOutcome, Toggler};
use xsched_obs::{
    ControllerSeries, ControllerTick, LogHistogram, NoopTrace, TraceEvent, TraceSink,
};
use xsched_sim::{BatchMeans, SampleSet, SimRng, SimTime, Welford};
use xsched_workload::{ArrivalProcess, ChaosSpec, FlashSpec, Setup, TxnGen};

/// Length and bookkeeping of one simulation run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Completions discarded before measurement starts.
    pub warmup_txns: u64,
    /// Completions measured after warm-up.
    pub measured_txns: u64,
    /// Master seed (workload stream, service times, backoffs).
    pub seed: u64,
    /// Measurement additionally waits until this much simulated time has
    /// passed (heavy-tailed workloads need the in-flight population of
    /// huge transactions to reach steady state, which takes far longer
    /// than `warmup_txns` completions).
    pub min_warmup_time: f64,
    /// Fraction of transactions tagged high-priority (paper: 10%).
    pub high_fraction: f64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            warmup_txns: 300,
            measured_txns: 2_000,
            seed: 42,
            min_warmup_time: 0.0,
            high_fraction: 0.10,
        }
    }
}

impl RunConfig {
    /// A shorter configuration for quick tests.
    pub fn quick() -> RunConfig {
        RunConfig {
            warmup_txns: 100,
            measured_txns: 600,
            ..Default::default()
        }
    }
}

/// Hard wall on simulated seconds per run (guards pathological configs).
const MAX_SIM_TIME: f64 = 50_000.0;

/// External queue discipline selector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// FIFO (no differentiation).
    Fifo,
    /// Two-class strict priority (§5.1).
    Priority,
    /// Shortest-job-first on estimated demand (extension).
    Sjf,
}

/// Completions per batch for the per-run batch-means response-time CI —
/// the controller's observation windows close at about this many
/// transactions (paper §4.3), so single-run CIs are computed at the same
/// scale the controller reacts on.
pub const BM_BATCH_TXNS: u64 = 100;

/// Measured outcome of one run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// MPL the run was executed with.
    pub mpl: u32,
    /// Throughput over the measurement window, txns/second.
    pub throughput: f64,
    /// Overall mean response time (external wait + DBMS time), seconds.
    pub mean_rt: f64,
    /// Mean response time of high-priority completions (0 if none).
    pub rt_high: f64,
    /// Mean response time of low-priority completions (0 if none).
    pub rt_low: f64,
    /// Measured high-priority completions.
    pub count_high: u64,
    /// Measured low-priority completions.
    pub count_low: u64,
    /// 95th percentile of overall response time, seconds.
    pub p95_rt: f64,
    /// Histogram-derived 95th percentile of overall response time,
    /// seconds. Computed from the mergeable log-bucketed histogram
    /// (`xsched-obs`), so it is quantized to bucket midpoints; the
    /// sample-exact `p95_rt` is unchanged and remains the figures'
    /// column.
    pub rt_p95: f64,
    /// Histogram-derived 99th percentile of overall response time,
    /// seconds (same quantization as `rt_p95`).
    pub rt_p99: f64,
    /// Squared coefficient of variation of response times.
    pub c2_rt: f64,
    /// 95% batch-means half-width of `mean_rt` over this *single* run
    /// (batches of [`BM_BATCH_TXNS`] completions, the controller's window
    /// scale) — infinite when the run is too short for two batches.
    pub rt_bm_half_width: f64,
    /// Mean time spent waiting in the external queue, seconds.
    pub mean_external_wait: f64,
    /// Mean time spent blocked in lock queues inside the DBMS, seconds.
    pub mean_lock_wait: f64,
    /// Abort events per measured completion.
    pub aborts_per_txn: f64,
    /// Resource-level metrics over the whole run.
    pub metrics: DbmsMetrics,
}

impl RunResult {
    /// Per-resource utilizations (CPU bank, then each data disk, then the
    /// log disk) — the inputs the controller's jump-start model wants.
    pub fn utilizations(&self, cpus: u32) -> Vec<f64> {
        let mut u = vec![self.metrics.cpu_utilization(cpus)];
        for d in &self.metrics.disk_busy {
            u.push(if self.metrics.elapsed > 0.0 {
                d / self.metrics.elapsed
            } else {
                0.0
            });
        }
        u.push(self.metrics.log_utilization());
        u
    }
}

/// High/low/no-priority comparison (one cluster of bars in Fig. 11).
#[derive(Debug, Clone)]
pub struct PriorityOutcome {
    /// Setup id the experiment ran on.
    pub setup_id: u32,
    /// MPL chosen for the run (from the throughput-loss budget).
    pub mpl: u32,
    /// Mean response time of high-priority transactions, seconds.
    pub rt_high: f64,
    /// Mean response time of low-priority transactions, seconds.
    pub rt_low: f64,
    /// Mean response time with no prioritization and no MPL, seconds.
    pub rt_noprio: f64,
    /// Overall mean response time under prioritization, seconds.
    pub rt_overall: f64,
    /// Reference (MPL-less) throughput, txns/second.
    pub reference_tput: f64,
    /// Throughput achieved under the chosen MPL, txns/second.
    pub achieved_tput: f64,
}

impl PriorityOutcome {
    /// Differentiation factor between the classes (paper: ≈ 12× at 5%
    /// loss, ≈ 16–18× at 20%).
    pub fn differentiation(&self) -> f64 {
        if self.rt_high == 0.0 {
            0.0
        } else {
            self.rt_low / self.rt_high
        }
    }

    /// Low-priority penalty relative to no prioritization (paper: ≈ 1.16
    /// at 5% loss, ≈ 1.37 at 20%).
    pub fn low_penalty(&self) -> f64 {
        if self.rt_noprio == 0.0 {
            0.0
        } else {
            self.rt_low / self.rt_noprio
        }
    }
}

/// Result of a live controller session, with or without chaos (see
/// [`Driver::session`]).
///
/// A chaos session converges the controller on the healthy system, lets
/// the spec's injectors fire at the onset instant, and keeps observing
/// until the session's transaction budget runs out. The reaction and
/// overshoot fields quantify how the §4.3 feedback loop rides out the
/// regime change; a plain session has no onset, so they read
/// `peak_mpl = final_mpl` and zero.
#[derive(Debug, Clone)]
pub struct ControllerOutcome {
    /// MPL setpoint in force when the session ended.
    pub final_mpl: u32,
    /// Observation/reaction iterations used (paper: < 10).
    pub iterations: u32,
    /// Jump-start value the queueing models supplied.
    pub jumpstart_mpl: u32,
    /// Reference performance from the calibration run.
    pub reference_tput: f64,
    /// Reference mean response time, seconds.
    pub reference_rt: f64,
    /// Whether the controller ended the session converged.
    pub converged: bool,
    /// Observation windows thrown away because their throughput fell
    /// below the controller's low-load floor — a long run of these under
    /// steady traffic means the controller is frozen (a stalled DBMS),
    /// not collecting.
    pub discarded_windows: u32,
    /// Highest setpoint in force in any post-onset window (at least
    /// `final_mpl`).
    pub peak_mpl: u32,
    /// Peak post-onset excursion past the new fixed point:
    /// `peak_mpl − final_mpl`.
    pub overshoot: u32,
    /// Observation windows after onset until the controller entered the
    /// converged stretch it then *stayed* in — its reaction time in
    /// windows. `1` when the fault never dislodged it (the first
    /// post-onset window re-affirmed convergence); equal to
    /// `post_onset_windows` (censored) when it never re-settled; `0` when
    /// no window closed after the onset.
    pub reaction_windows: u32,
    /// Observation windows closed after the onset instant.
    pub post_onset_windows: u32,
    /// Per-window history (MPL in force, throughput, response time,
    /// verdict).
    pub trace: Vec<IterationRecord>,
}

/// Per-session accumulators behind a [`ControllerOutcome`]'s chaos
/// fields, filled by
/// `run_inner` as controller windows close. Zero when no chaos spec is
/// attached.
#[derive(Debug, Clone, Copy, Default)]
struct ChaosWindowStats {
    post_onset_windows: u32,
    /// First post-onset window index (1-based) of the convergence
    /// stretch the controller is still in; reset whenever it unconverges.
    reaction_candidate: Option<u32>,
    peak_mpl: u32,
}

/// Client-side chaos in force during a run: the MMPP burst modulator
/// and the flash-crowd ramp, both dividing arrival delays. Built only
/// for chaos sessions with a traffic-side injector enabled; every other
/// path computes delays exactly as before (byte-identity).
struct TrafficShaper {
    burst: Option<(Toggler, f64)>,
    flash: Option<FlashSpec>,
    onset: f64,
}

impl TrafficShaper {
    fn new(spec: &ChaosSpec, seed: u64) -> Option<TrafficShaper> {
        if spec.burst.is_none() && spec.flash.is_none() {
            return None;
        }
        let burst = spec.burst.map(|b| {
            let rng = SimRng::derive(seed, "chaos/burst");
            (
                Toggler::new(rng, b.mean_on, b.mean_off, spec.onset),
                b.factor,
            )
        });
        Some(TrafficShaper {
            burst,
            flash: spec.flash,
            onset: spec.onset,
        })
    }

    /// Divisor applied to the next arrival delay (≥ 1 for the specs the
    /// experiments use). Polling the burst modulator emits one
    /// [`TraceEvent::ChaosBurst`] per phase flip; its flip schedule is
    /// consultation-independent, so lazy polling keeps bit-determinism.
    fn divisor<T: TraceSink>(&mut self, now: f64, trace: &mut T) -> f64 {
        let mut div = 1.0;
        if let Some((tog, factor)) = self.burst.as_mut() {
            while let Some((t, active)) = tog.poll(now) {
                trace.record(TraceEvent::ChaosBurst {
                    t,
                    factor: if active { *factor } else { 1.0 },
                });
            }
            if tog.is_active() {
                div *= *factor;
            }
        }
        if let Some(f) = self.flash {
            if now >= self.onset {
                let ramp = if f.ramp_secs <= 0.0 {
                    1.0
                } else {
                    ((now - self.onset) / f.ramp_secs).min(1.0)
                };
                div *= 1.0 + (f.surge_mult - 1.0) * ramp;
            }
        }
        div
    }
}

/// Binds a setup to a run configuration; all experiments hang off this.
pub struct Driver {
    setup: Setup,
    rc: RunConfig,
    cache: Option<Arc<MeasurementCache>>,
    /// Wall-clock seconds this driver spent *computing* reference
    /// (capacity) runs — cache hits cost nothing. Observational: feeds
    /// the `ref/`-bucket timing telemetry, never a result.
    ref_secs: std::cell::Cell<f64>,
    /// Simulator events processed across every run this driver executed —
    /// a deterministic cost signal (pure in the inputs, unlike wall
    /// clock). Observational: feeds the per-cell timing telemetry, never
    /// a result.
    events: std::cell::Cell<u64>,
    /// The share of `events` spent computing reference runs (cache hits
    /// cost nothing), split out for the same reason as `ref_secs`.
    ref_events: std::cell::Cell<u64>,
}

impl Driver {
    /// Driver with the default run configuration.
    pub fn new(setup: Setup) -> Driver {
        Driver {
            setup,
            rc: RunConfig::default(),
            cache: None,
            ref_secs: std::cell::Cell::new(0.0),
            events: std::cell::Cell::new(0),
            ref_events: std::cell::Cell::new(0),
        }
    }

    /// Override the run configuration.
    pub fn with_config(mut self, rc: RunConfig) -> Driver {
        self.rc = rc;
        self
    }

    /// Serve [`Driver::reference`] through a shared measurement cache.
    /// Cached results are bit-identical to uncached ones (a reference run
    /// is a pure function of the cache key), so this only changes
    /// wall-clock time.
    pub fn with_cache(mut self, cache: Arc<MeasurementCache>) -> Driver {
        self.cache = Some(cache);
        self
    }

    /// The bound setup.
    pub fn setup(&self) -> &Setup {
        &self.setup
    }

    fn make_policy(&self, kind: PolicyKind) -> Box<dyn QueuePolicy> {
        match kind {
            PolicyKind::Fifo => Box::new(Fifo::new()),
            PolicyKind::Priority => Box::new(PriorityFifo::new()),
            PolicyKind::Sjf => Box::new(Sjf::new(self.setup.hw.disk_read_time)),
        }
    }

    /// Execute one run at the given MPL, policy and arrival process.
    pub fn run(&self, mpl: u32, kind: PolicyKind, arrivals: &ArrivalProcess) -> RunResult {
        self.run_inner(mpl, kind, arrivals, None, None, None, NoopTrace)
            .0
    }

    /// Execute one run with a trace sink attached to the simulator,
    /// returning the sink alongside the result. Tracing is strictly
    /// observational: the [`RunResult`] is bit-identical to the one
    /// [`Driver::run`] produces for the same arguments.
    pub fn run_traced<T: TraceSink>(
        &self,
        mpl: u32,
        kind: PolicyKind,
        arrivals: &ArrivalProcess,
        trace: T,
    ) -> (RunResult, T) {
        let (result, _, trace, _) = self.run_inner(mpl, kind, arrivals, None, None, None, trace);
        (result, trace)
    }

    /// The saturated closed system of the throughput experiments.
    pub fn saturated(&self) -> ArrivalProcess {
        ArrivalProcess::saturated(self.setup.clients)
    }

    /// Run without an effective MPL (limit = client population): the
    /// paper's "original system" baseline.
    ///
    /// When a [`MeasurementCache`] is attached ([`Driver::with_cache`])
    /// this measurement is memoized under the full
    /// `(setup, run config, seed)` fingerprint — the sweep layer attaches
    /// one cache per sweep, so open-load grids resolve each setup's
    /// capacity once per seed instead of once per cell.
    pub fn reference(&self) -> RunResult {
        let measure = || {
            let started = std::time::Instant::now();
            let events_before = self.events.get();
            let r = self.run(self.setup.clients, PolicyKind::Fifo, &self.saturated());
            self.ref_secs
                .set(self.ref_secs.get() + started.elapsed().as_secs_f64());
            self.ref_events
                .set(self.ref_events.get() + (self.events.get() - events_before));
            r
        };
        match &self.cache {
            Some(cache) => {
                // Typed key: the setup's structural fingerprint plus every
                // run-config field (seed included) verbatim. Unlike the
                // Debug-formatted string this replaced, the constructor
                // fails to compile if a config field is added without
                // joining the key, so distinct configurations cannot
                // silently alias.
                let key = MeasurementKey::reference(&self.setup, &self.rc);
                (*cache.get_or_measure(key, measure)).clone()
            }
            None => measure(),
        }
    }

    /// Wall-clock seconds this driver spent computing (not cache-serving)
    /// reference runs so far — the timing telemetry uses this to bill
    /// capacity measurements to a `ref/` bucket instead of inflating the
    /// cell that happened to miss the cache.
    pub fn reference_compute_secs(&self) -> f64 {
        self.ref_secs.get()
    }

    /// Simulator events processed by every run this driver executed so
    /// far. Deterministic in the runs performed — the host-independent
    /// analogue of wall-clock seconds.
    pub fn events_processed(&self) -> u64 {
        self.events.get()
    }

    /// The share of [`Driver::events_processed`] spent *computing*
    /// reference runs (cache hits cost nothing) — split out so capacity
    /// events bill to a `ref/` bucket exactly like reference seconds.
    pub fn reference_compute_events(&self) -> u64 {
        self.ref_events.get()
    }

    /// Throughput (and everything else) at each MPL in `mpls`, saturated
    /// closed system, FIFO queue — one curve of Figs. 2–5.
    pub fn throughput_curve(&self, mpls: &[u32]) -> Vec<RunResult> {
        mpls.iter()
            .map(|&m| self.run(m, PolicyKind::Fifo, &self.saturated()))
            .collect()
    }

    /// Lowest MPL whose throughput is within `loss` of the MPL-less
    /// reference. Returns `(mpl, reference_run)`. Exponential then binary
    /// search over the (noisily) monotone throughput curve; all runs share
    /// the seed, so comparisons are paired.
    pub fn find_mpl_for_loss(&self, loss: f64) -> (u32, RunResult) {
        let reference = self.reference();
        let target = (1.0 - loss) * reference.throughput;
        let arr = self.saturated();
        let feasible =
            |mpl: u32| -> bool { self.run(mpl, PolicyKind::Fifo, &arr).throughput >= target };
        let cap = self.setup.clients;
        // Exponential probe upward.
        let mut hi = 1u32;
        while hi < cap && !feasible(hi) {
            hi = (hi * 2).min(cap);
        }
        if hi <= 1 {
            return (1, reference);
        }
        let mut lo = hi / 2; // known infeasible (or 0)
                             // Binary search the boundary in (lo, hi].
        while hi - lo > 1 {
            let mid = lo + (hi - lo) / 2;
            if feasible(mid) {
                hi = mid;
            } else {
                lo = mid;
            }
        }
        (hi, reference)
    }

    /// The Fig. 11 experiment on this setup: choose the MPL for the given
    /// throughput-loss budget, run two-class priority scheduling, and
    /// compare with the no-priority MPL-less baseline.
    pub fn priority_experiment(&self, loss: f64) -> PriorityOutcome {
        let (mpl, reference) = self.find_mpl_for_loss(loss);
        let arr = self.saturated();
        let prio = self.run(mpl, PolicyKind::Priority, &arr);
        PriorityOutcome {
            setup_id: self.setup.id,
            mpl,
            rt_high: prio.rt_high,
            rt_low: prio.rt_low,
            rt_noprio: reference.mean_rt,
            rt_overall: prio.mean_rt,
            reference_tput: reference.throughput,
            achieved_tput: prio.throughput,
        }
    }

    /// A live controller session (§4.3): calibrate against the MPL-less
    /// system, jump-start from the queueing models, then observe/react
    /// until convergence.
    pub fn run_controller(&self, targets: Targets) -> ControllerOutcome {
        self.session(targets, None, None, None)
    }

    /// A controller session: calibrate against the MPL-less system,
    /// start at `start` (`None` = the queueing jump-start), then
    /// observe/react.
    ///
    /// With `chaos`, the spec's injectors wake at `spec.onset`, its think
    /// time (if any) replaces the saturated population's, and the session
    /// runs out `spec.session_txns` measured completions instead of
    /// stopping at convergence, so post-onset behaviour stays visible.
    ///
    /// With `series`, every controller decision appends a telemetry tick:
    /// the MPL setpoint left in force, the external queue length, and the
    /// throughput and response-time percentiles of the window that just
    /// closed. The outcome is bit-identical with or without it.
    pub fn session(
        &self,
        targets: Targets,
        start: Option<u32>,
        chaos: Option<&ChaosSpec>,
        series: Option<&mut ControllerSeries>,
    ) -> ControllerOutcome {
        let reference = self.reference();
        let utils = reference.utilizations(self.setup.hw.cpus);
        // Demand statistics for the response-time model: analytic mix C²,
        // with the effective page cost discounted by the observed hit
        // ratio.
        let io_cost = self.setup.hw.disk_read_time * (1.0 - reference.metrics.hit_ratio());
        let (dmean, dc2) = self.setup.workload.intrinsic_demand_stats(io_cost);
        let max_mpl = self.setup.clients;
        let jump =
            MplController::jumpstart(&utils, targets, dmean, dc2, reference.throughput, max_mpl);
        let reference_ctl = Reference {
            throughput: reference.throughput,
            mean_rt: reference.mean_rt,
        };
        let controller = MplController::new(targets, max_mpl, reference_ctl, start.unwrap_or(jump));
        // Traffic-side chaos needs think-time headroom to act on: a
        // saturated (zero-think) closed population cannot burst, so chaos
        // rows may override the think distribution.
        let arrivals = match chaos.and_then(|ch| ch.think.as_ref()) {
            Some(think) => ArrivalProcess::Closed {
                clients: self.setup.clients,
                think: think.clone(),
            },
            None => self.saturated(),
        };
        let (_, ctl, _, stats) = self.run_inner(
            controller.mpl(),
            PolicyKind::Fifo,
            &arrivals,
            chaos,
            Some(controller),
            series,
            NoopTrace,
        );
        let ctl = ctl.expect("controller returned");
        let final_mpl = ctl.mpl();
        let peak_mpl = stats.peak_mpl.max(final_mpl);
        let reaction_windows = match stats.reaction_candidate {
            Some(w) => w,
            // No window closed after the onset (always so without chaos).
            None if ctl.is_converged() => 0,
            // Never re-settled: censor at the post-onset window count.
            None => stats.post_onset_windows,
        };
        ControllerOutcome {
            final_mpl,
            iterations: ctl.iterations(),
            jumpstart_mpl: jump,
            reference_tput: reference.throughput,
            reference_rt: reference.mean_rt,
            converged: ctl.is_converged(),
            discarded_windows: ctl.discarded_windows(),
            peak_mpl,
            overshoot: peak_mpl - final_mpl,
            reaction_windows,
            post_onset_windows: stats.post_onset_windows,
            trace: ctl.trace().to_vec(),
        }
    }

    // ------------------------------------------------------------------

    #[allow(clippy::too_many_arguments)]
    fn run_inner<T: TraceSink>(
        &self,
        mpl: u32,
        kind: PolicyKind,
        arrivals: &ArrivalProcess,
        chaos: Option<&ChaosSpec>,
        mut controller: Option<MplController>,
        mut series: Option<&mut ControllerSeries>,
        trace: T,
    ) -> (RunResult, Option<MplController>, T, ChaosWindowStats) {
        // Closes one controller observation window into a telemetry tick
        // and resets the window accumulators. The next window is anchored
        // at *this* close instant (mirroring the controller's own window
        // spans), so idle time after a reaction counts against the next
        // window's throughput instead of silently vanishing.
        fn close_tick(
            series: &mut ControllerSeries,
            win_hist: &mut LogHistogram,
            win_count: &mut u64,
            win_start: &mut f64,
            now: f64,
            mpl: u32,
            queue_len: u64,
        ) {
            let span = (now - *win_start).max(1e-9);
            series.push(ControllerTick {
                t: now,
                mpl,
                queue_len,
                throughput: *win_count as f64 / span,
                rt_p50: win_hist.quantile(0.50),
                rt_p95: win_hist.quantile(0.95),
                rt_p99: win_hist.quantile(0.99),
            });
            *win_hist = LogHistogram::new();
            *win_count = 0;
            *win_start = now;
        }

        let rc = &self.rc;
        let setup = &self.setup;
        let mut sim = DbmsSim::with_trace(setup.hw.clone(), setup.cfg.clone(), rc.seed, trace);
        // Service-side faults attach only when an injector is enabled, so
        // a quiet chaos spec leaves the simulator byte-identical to a
        // non-chaos run (each injector is additionally self-gating).
        if let Some(ch) = chaos {
            if !ch.faults.is_noop() {
                sim = sim.with_chaos(ch.faults, ch.onset, rc.seed);
            }
        }
        let mut shaper = chaos.and_then(|ch| TrafficShaper::new(ch, rc.seed));
        // Pre-populate the buffer pool with the hottest pages: Zipf
        // favours low page ids, so the first `n` pages are the
        // steady-state-hot set.
        let n = setup.hw.bufferpool_pages.min(setup.workload.db_pages);
        sim.warm_bufferpool((0..n).rev().map(PageId));
        let mut gen =
            TxnGen::new(setup.workload.clone(), rc.seed).with_high_fraction(rc.high_fraction);
        let mut sched = ExternalScheduler::new(self.make_policy(kind), mpl);
        let mut arr_rng = SimRng::derive(rc.seed, "arrivals");

        // Seed the arrival process.
        match arrivals {
            ArrivalProcess::Closed { clients, .. } => {
                for _ in 0..*clients {
                    let mut d = arrivals.next_delay(&mut arr_rng);
                    if let Some(sh) = shaper.as_mut() {
                        d /= sh.divisor(0.0, sim.trace_mut());
                    }
                    sim.schedule_external(SimTime::from_secs_f64(d), 0);
                }
            }
            ArrivalProcess::Open { .. } => {
                let mut d = arrivals.next_delay(&mut arr_rng);
                if let Some(sh) = shaper.as_mut() {
                    d /= sh.divisor(0.0, sim.trace_mut());
                }
                sim.schedule_external(SimTime::from_secs_f64(d), 0);
            }
        }

        // When a controller drives the run, keep running until it
        // converges (or a generous completion budget runs out). Chaos
        // sessions instead run out their explicit budget: convergence
        // must not end them, or the post-onset behaviour would vanish.
        let measured_budget = match (chaos, controller.is_some()) {
            (Some(ch), _) => ch.session_txns,
            (None, true) => 100 * 1_000,
            (None, false) => rc.measured_txns,
        };

        let mut completed: u64 = 0;
        let mut measuring = false;
        let mut meas_start_t = 0.0;
        let mut meas_end_t = 0.0;
        let mut rt_all = Welford::new();
        let mut rt_bm = BatchMeans::new(BM_BATCH_TXNS);
        let mut rt_hi = Welford::new();
        let mut rt_lo = Welford::new();
        let mut ext_wait = Welford::new();
        let mut lock_wait = Welford::new();
        let mut samples = SampleSet::new();
        let mut rt_hist = LogHistogram::new();
        // Per-observation-window accumulators for the controller
        // telemetry series (only touched when `series` is attached).
        let mut win_hist = LogHistogram::new();
        let mut win_count: u64 = 0;
        let mut win_start = 0.0f64;
        let mut win_started = false;
        let mut chaos_stats = ChaosWindowStats::default();
        let mut aborts_at_meas_start = 0u64;
        // Ping-pong buffer for completions: `drain_completions_into` swaps
        // it with the simulator's accumulation buffer, so the steady-state
        // loop never allocates.
        let mut completions: Vec<Completion> = Vec::new();

        'outer: loop {
            match sim.step() {
                StepOutcome::Idle => break,
                StepOutcome::External(_) => {
                    let body = gen.next();
                    let now = sim.now();
                    sched.enqueue(QueuedTxn { body, arrival: now });
                    while let Some(q) = sched.dispatch() {
                        sim.submit(q.body, q.arrival);
                    }
                    if let ArrivalProcess::Open { .. } = arrivals {
                        let mut d = arrivals.next_delay(&mut arr_rng);
                        if let Some(sh) = shaper.as_mut() {
                            d /= sh.divisor(sim.now(), sim.trace_mut());
                        }
                        sim.schedule_external(SimTime::from_secs_f64(sim.now() + d), 0);
                    }
                }
                StepOutcome::Advanced => {
                    sim.drain_completions_into(&mut completions);
                    if completions.is_empty() {
                        continue;
                    }
                    for c in completions.drain(..) {
                        completed += 1;
                        sched.complete();
                        if arrivals.is_closed() {
                            let mut d = arrivals.next_delay(&mut arr_rng);
                            if let Some(sh) = shaper.as_mut() {
                                d /= sh.divisor(sim.now(), sim.trace_mut());
                            }
                            sim.schedule_external(SimTime::from_secs_f64(sim.now() + d), 0);
                        }
                        if !measuring
                            && completed >= rc.warmup_txns
                            && c.completed >= rc.min_warmup_time
                        {
                            measuring = true;
                            meas_start_t = c.completed;
                            aborts_at_meas_start = sim.metrics().aborts;
                        } else if measuring {
                            let rt = c.response_time();
                            rt_all.push(rt);
                            rt_bm.push(rt);
                            samples.push(rt);
                            rt_hist.record(rt);
                            ext_wait.push(c.external_wait());
                            lock_wait.push(c.lock_wait);
                            match c.priority {
                                Priority::High => rt_hi.push(rt),
                                Priority::Low => rt_lo.push(rt),
                            }
                            meas_end_t = c.completed;
                            if let Some(ctl) = controller.as_mut() {
                                ctl.observe(c.completed, rt);
                                // The very first window starts at the
                                // first observed completion (like the
                                // controller's); every later one at the
                                // previous decision's close.
                                if !win_started {
                                    win_started = true;
                                    win_start = c.completed;
                                }
                                win_count += 1;
                                if series.is_some() {
                                    win_hist.record(rt);
                                }
                                if let Some(d) = ctl.react(c.completed) {
                                    match d {
                                        Decision::SetMpl(m) | Decision::Converged(m) => {
                                            sched.set_mpl(m);
                                        }
                                        Decision::Discarded => {
                                            // Starved window thrown away:
                                            // the setpoint stands, but the
                                            // event is visible in the trace
                                            // instead of masquerading as
                                            // "still collecting".
                                            let span = (c.completed - win_start).max(1e-9);
                                            sim.trace_mut().record(TraceEvent::ControllerDiscard {
                                                t: c.completed,
                                                throughput: win_count as f64 / span,
                                            });
                                        }
                                    }
                                    if let Some(s) = series.as_deref_mut() {
                                        close_tick(
                                            s,
                                            &mut win_hist,
                                            &mut win_count,
                                            &mut win_start,
                                            c.completed,
                                            sched.mpl(),
                                            sched.queue_len() as u64,
                                        );
                                    } else {
                                        win_count = 0;
                                        win_start = c.completed;
                                    }
                                    if let Some(ch) = chaos {
                                        if c.completed >= ch.onset {
                                            chaos_stats.post_onset_windows += 1;
                                            chaos_stats.peak_mpl =
                                                chaos_stats.peak_mpl.max(sched.mpl());
                                            if ctl.is_converged() {
                                                chaos_stats
                                                    .reaction_candidate
                                                    .get_or_insert(chaos_stats.post_onset_windows);
                                            } else {
                                                chaos_stats.reaction_candidate = None;
                                            }
                                        }
                                    }
                                    if matches!(d, Decision::Converged(_)) && chaos.is_none() {
                                        break 'outer;
                                    }
                                }
                            }
                        }
                        if rt_all.count() >= measured_budget {
                            break 'outer;
                        }
                    }
                    while let Some(q) = sched.dispatch() {
                        sim.submit(q.body, q.arrival);
                    }
                }
            }
            if sim.now() > MAX_SIM_TIME {
                break;
            }
        }

        self.events.set(self.events.get() + sim.events_processed());
        let metrics = sim.metrics();
        let span = (meas_end_t - meas_start_t).max(1e-9);
        let measured = rt_all.count();
        let result = RunResult {
            mpl,
            throughput: measured as f64 / span,
            mean_rt: rt_all.mean(),
            rt_high: rt_hi.mean(),
            rt_low: rt_lo.mean(),
            count_high: rt_hi.count(),
            count_low: rt_lo.count(),
            p95_rt: samples.percentile(0.95),
            rt_p95: rt_hist.quantile(0.95),
            rt_p99: rt_hist.quantile(0.99),
            c2_rt: rt_all.c2(),
            rt_bm_half_width: rt_bm.ci(0.95).half_width,
            mean_external_wait: ext_wait.mean(),
            mean_lock_wait: lock_wait.mean(),
            aborts_per_txn: if measured == 0 {
                0.0
            } else {
                (metrics.aborts.saturating_sub(aborts_at_meas_start)) as f64 / measured as f64
            },
            metrics,
        };
        (result, controller, sim.into_trace(), chaos_stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsched_workload::setup;

    fn quick_driver(id: u32) -> Driver {
        Driver::new(setup(id)).with_config(RunConfig::quick())
    }

    #[test]
    fn cpu_bound_throughput_rises_then_flattens() {
        let d = quick_driver(1);
        let curve = d.throughput_curve(&[1, 2, 5, 20]);
        let x1 = curve[0].throughput;
        let x5 = curve[2].throughput;
        let x20 = curve[3].throughput;
        assert!(
            x5 > 1.5 * x1,
            "MPL 5 should beat MPL 1 clearly: {x1} vs {x5}"
        );
        assert!(
            (x20 - x5).abs() / x5 < 0.25,
            "MPL 20 is near the plateau: {x5} vs {x20}"
        );
    }

    #[test]
    fn two_cpus_need_higher_mpl_and_give_more_throughput() {
        let one = quick_driver(1).run(20, PolicyKind::Fifo, &ArrivalProcess::saturated(100));
        let two = quick_driver(2).run(20, PolicyKind::Fifo, &ArrivalProcess::saturated(100));
        assert!(
            two.throughput > 1.4 * one.throughput,
            "2 CPUs: {} vs {}",
            two.throughput,
            one.throughput
        );
    }

    #[test]
    fn priority_policy_differentiates() {
        let d = quick_driver(1);
        let r = d.run(3, PolicyKind::Priority, &d.saturated());
        assert!(r.count_high > 0 && r.count_low > 0);
        assert!(
            r.rt_low > 3.0 * r.rt_high,
            "low {} vs high {}",
            r.rt_low,
            r.rt_high
        );
    }

    #[test]
    fn find_mpl_for_loss_returns_feasible_boundary() {
        let d = quick_driver(1);
        let (mpl, reference) = d.find_mpl_for_loss(0.20);
        assert!((1..100).contains(&mpl));
        let at = d.run(mpl, PolicyKind::Fifo, &d.saturated()).throughput;
        assert!(
            at >= 0.78 * reference.throughput,
            "{at} vs {}",
            reference.throughput
        );
    }

    #[test]
    fn controller_converges_quickly() {
        let d = quick_driver(1);
        let out = d.run_controller(Targets::twenty_percent());
        assert!(out.converged, "controller failed to converge: {out:?}");
        assert!(
            out.iterations < 10,
            "paper bound: {} iterations",
            out.iterations
        );
        assert!(out.final_mpl >= 1);
    }

    #[test]
    fn open_system_response_time_flattens_with_mpl() {
        // §3.2: open system, load 0.7 — response time insensitive to the
        // MPL above a small threshold for TPC-C.
        let d = quick_driver(1);
        let capacity = d.reference().throughput;
        let arr = ArrivalProcess::open(0.7 * capacity);
        let r4 = d.run(4, PolicyKind::Fifo, &arr);
        let r30 = d.run(30, PolicyKind::Fifo, &arr);
        assert!(
            r4.mean_rt < 2.0 * r30.mean_rt,
            "TPC-C at load 0.7 barely cares about MPL>=4: {} vs {}",
            r4.mean_rt,
            r30.mean_rt
        );
    }

    #[test]
    fn paired_seeds_make_runs_reproducible() {
        let d = quick_driver(1);
        let a = d.run(5, PolicyKind::Fifo, &d.saturated());
        let b = d.run(5, PolicyKind::Fifo, &d.saturated());
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!(a.mean_rt.to_bits(), b.mean_rt.to_bits());
    }

    #[test]
    fn histogram_percentiles_track_sample_percentile() {
        let d = quick_driver(1);
        let r = d.run(5, PolicyKind::Fifo, &d.saturated());
        // Log-bucket quantization is < 1/32 of a binade, so the histogram
        // p95 must land within a few percent of the sample-exact one, and
        // the tail ordering must hold.
        assert!(r.rt_p95 > 0.0 && r.p95_rt > 0.0);
        assert!(
            (r.rt_p95 - r.p95_rt).abs() / r.p95_rt < 0.05,
            "hist p95 {} vs sample p95 {}",
            r.rt_p95,
            r.p95_rt
        );
        assert!(r.rt_p99 >= r.rt_p95);
    }

    #[test]
    fn tracing_never_changes_run_results() {
        let d = quick_driver(1);
        let arr = d.saturated();
        let plain = d.run(4, PolicyKind::Priority, &arr);
        let (traced, sink) = d.run_traced(
            4,
            PolicyKind::Priority,
            &arr,
            xsched_dbms::CountingSink::default(),
        );
        assert!(sink.total > 0, "a saturated run must emit trace events");
        assert_eq!(format!("{plain:?}"), format!("{traced:?}"));
        assert_eq!(plain.throughput.to_bits(), traced.throughput.to_bits());
        assert_eq!(plain.rt_p99.to_bits(), traced.rt_p99.to_bits());
    }

    /// A session that captures its telemetry series.
    fn session_with_series(
        d: &Driver,
        targets: Targets,
        chaos: Option<&ChaosSpec>,
    ) -> (ControllerOutcome, ControllerSeries) {
        let mut series = ControllerSeries::default();
        let out = d.session(targets, None, chaos, Some(&mut series));
        (out, series)
    }

    #[test]
    fn controller_series_is_deterministic_and_matches_outcome() {
        let d = quick_driver(1);
        let targets = Targets::twenty_percent();
        let (out_a, series_a) = session_with_series(&d, targets, None);
        let (out_b, series_b) = session_with_series(&d, targets, None);
        assert_eq!(series_a.encode_text(), series_b.encode_text());
        assert!(!series_a.is_empty(), "a converging session emits ticks");
        // The series must not perturb the session itself.
        let plain = d.session(targets, None, None, None);
        assert_eq!(format!("{plain:?}"), format!("{out_a:?}"));
        assert_eq!(format!("{out_a:?}"), format!("{out_b:?}"));
        // `run_controller` is the plain session.
        assert_eq!(
            format!("{:?}", d.run_controller(targets)),
            format!("{plain:?}")
        );
        // The last tick carries the setpoint the session settled on.
        let last = series_a.ticks.last().unwrap();
        assert_eq!(last.mpl, out_a.final_mpl);
        // No onset: the chaos fields read their no-fault values.
        assert_eq!(plain.peak_mpl, plain.final_mpl);
        assert_eq!(
            (
                plain.overshoot,
                plain.reaction_windows,
                plain.post_onset_windows
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn quiet_chaos_extends_the_controller_session() {
        // A chaos session with every injector disabled replays the plain
        // controller session tick for tick — the only difference is that
        // it keeps observing past convergence instead of breaking. The
        // plain session's series must therefore be a bit-exact prefix of
        // the quiet chaos one.
        let d = quick_driver(1);
        let targets = Targets::twenty_percent();
        let (ctl_out, ctl_series) = session_with_series(&d, targets, None);
        let spec = ChaosSpec::quiet(5.0, 20_000);
        let (chaos_out, chaos_series) = session_with_series(&d, targets, Some(&spec));
        let n = ctl_series.ticks.len();
        assert!(chaos_series.ticks.len() >= n, "chaos session ended early");
        assert_eq!(
            &chaos_series.ticks[..n],
            &ctl_series.ticks[..],
            "quiet chaos diverged from the plain controller session"
        );
        assert_eq!(
            chaos_out.reference_tput.to_bits(),
            ctl_out.reference_tput.to_bits()
        );
        assert!(chaos_out.post_onset_windows > 0);
        assert!(chaos_out.reaction_windows <= chaos_out.post_onset_windows.max(1));
    }

    #[test]
    fn chaos_session_is_bit_reproducible() {
        let d = quick_driver(1);
        let spec = ChaosSpec {
            faults: xsched_dbms::FaultSpec {
                stall: Some(xsched_dbms::StallSpec {
                    p_per_lock: 0.05,
                    mean_secs: 1.0,
                }),
                disk_spike: Some(xsched_dbms::SpikeSpec {
                    mean_on: 4.0,
                    mean_off: 8.0,
                    factor: 6.0,
                }),
                abort_rate: 0.0,
            },
            ..ChaosSpec::quiet(20.0, 6_000)
        };
        let targets = Targets::twenty_percent();
        let (out_a, series_a) = session_with_series(&d, targets, Some(&spec));
        let (out_b, series_b) = session_with_series(&d, targets, Some(&spec));
        assert_eq!(format!("{out_a:?}"), format!("{out_b:?}"));
        assert_eq!(series_a.encode_text(), series_b.encode_text());
        // The series-less call must agree with the instrumented one.
        let plain = d.session(targets, None, Some(&spec), None);
        assert_eq!(format!("{plain:?}"), format!("{out_a:?}"));
        assert!(out_a.post_onset_windows > 0, "{out_a:?}");
        assert_eq!(out_a.overshoot, out_a.peak_mpl - out_a.final_mpl);
        assert!(out_a.reaction_windows <= out_a.post_onset_windows.max(1));
    }
}
