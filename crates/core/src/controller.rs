//! The feedback MPL controller of §4.3.
//!
//! The controller alternates *observation* and *reaction* phases.
//! An observation window only closes once it (a) contains enough
//! transactions (the paper finds ≈ 100 suffice) and (b) estimates the mean
//! response time tightly enough (confidence-interval gate) — and windows
//! with unrepresentatively low load are discarded rather than reacted to.
//! The reaction compares the window against DBA-specified [`Targets`]
//! ("throughput should not drop by more than 5%"), keeping convergence
//! fast by *jump-starting* from the queueing models of `xsched-queueing`
//! ([`MplController::jumpstart`]). Probing is geometric — consecutive
//! feasible windows double the downward step, consecutive infeasible ones
//! double the upward step — and once the lowest feasible MPL is bracketed
//! the search bisects the bracket, so convergence takes O(log) windows
//! even when the jump-start misses: under 10 iterations on all 17 setups,
//! matching the paper's report.

use xsched_queueing::{recommend, ThroughputModel, H2};
use xsched_sim::Welford;

/// DBA-specified tolerance for running below the unthrottled system.
#[derive(Debug, Clone, Copy)]
pub struct Targets {
    /// Maximum acceptable relative throughput loss (e.g. 0.05).
    pub max_tput_loss: f64,
    /// Maximum acceptable relative increase in overall mean response time.
    pub max_rt_increase: f64,
}

impl Targets {
    /// The paper's headline setting: at most 5% loss on both metrics.
    pub fn five_percent() -> Targets {
        Targets {
            max_tput_loss: 0.05,
            max_rt_increase: 0.05,
        }
    }

    /// The paper's aggressive setting: 20% loss for stronger
    /// prioritization differentiation.
    pub fn twenty_percent() -> Targets {
        Targets {
            max_tput_loss: 0.20,
            max_rt_increase: 0.20,
        }
    }
}

/// Minimum transactions per observation window (paper: ≈ 100).
const MIN_WINDOW_TXNS: u64 = 100;
/// Confidence level of the response-time CI gate.
const CI_LEVEL: f64 = 0.95;
/// A window closes once its CI's relative half-width drops below this…
const MAX_CI_REL_WIDTH: f64 = 0.25;
/// …or once this many transactions have been observed regardless.
const MAX_WINDOW_TXNS: u64 = 1000;
/// Lower bound of the MPL search.
const MIN_MPL: u32 = 1;
/// Base reaction step (grows geometrically on consecutive
/// same-direction reactions, resets on reversal).
const STEP: u32 = 1;
/// Windows whose throughput is below this fraction of the reference are
/// considered unrepresentative and discarded.
const MIN_LOAD_FRACTION: f64 = 0.2;

/// Performance of the unthrottled system (measured in a calibration run or
/// supplied by the DBA).
#[derive(Debug, Clone, Copy)]
pub struct Reference {
    /// Throughput without an MPL, txns/second.
    pub throughput: f64,
    /// Overall mean response time without an MPL, seconds.
    pub mean_rt: f64,
}

/// One closed observation window and the verdict on it.
#[derive(Debug, Clone, Copy)]
pub struct IterationRecord {
    /// MPL in force during the window.
    pub mpl: u32,
    /// Window throughput, txns/second.
    pub throughput: f64,
    /// Window mean response time, seconds.
    pub mean_rt: f64,
    /// Whether the window met both targets.
    pub feasible: bool,
}

/// What the controller wants done after a window closes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Change the MPL and keep observing.
    SetMpl(u32),
    /// The search has settled; the MPL is the lowest feasible found.
    Converged(u32),
    /// The window's load was unrepresentatively low; it was dropped
    /// without a reaction. A run of these under steady traffic means the
    /// controller is frozen (e.g. a lock-holder stall upstream), which is
    /// why the discard is reported rather than swallowed.
    Discarded,
}

#[derive(Debug, Default)]
struct Window {
    rt: Welford,
    start: f64,
    started: bool,
}

/// Feedback controller for the multi-programming limit.
#[derive(Debug)]
pub struct MplController {
    targets: Targets,
    /// Upper bound of the MPL search.
    max_mpl: u32,
    reference: Reference,
    mpl: u32,
    window: Window,
    highest_infeasible: u32,
    best_feasible: Option<u32>,
    down_streak: u32,
    up_streak: u32,
    converged: bool,
    discarded: u32,
    trace: Vec<IterationRecord>,
}

/// The flexible-multiserver model behind the jump-start's response-time
/// bound: the H2 job-size fit and the arrival rate λ. The model needs a
/// stable open system, so the load is capped at 0.95 and a saturated
/// closed-system measurement still yields a usable bound.
fn response_time_model(demand_mean: f64, demand_c2: f64, arrival_rate: f64) -> (H2, f64) {
    let rho = (arrival_rate * demand_mean).min(0.95);
    let h2 = H2::fit(demand_mean, demand_c2.max(1.0));
    (h2, rho / demand_mean)
}

impl MplController {
    /// A controller for `targets` searching MPLs up to `max_mpl`, starting
    /// at `initial_mpl` (ideally from [`MplController::jumpstart`]).
    pub fn new(
        targets: Targets,
        max_mpl: u32,
        reference: Reference,
        initial_mpl: u32,
    ) -> MplController {
        let mpl = initial_mpl.clamp(MIN_MPL, max_mpl);
        MplController {
            targets,
            max_mpl,
            reference,
            mpl,
            window: Window::default(),
            highest_infeasible: 0,
            best_feasible: None,
            down_streak: 0,
            up_streak: 0,
            converged: false,
            discarded: 0,
            // Pre-sized past the paper's <10-iteration bound so sessions
            // (and their telemetry) never grow this buffer mid-run.
            trace: Vec::with_capacity(32),
        }
    }

    /// The queueing-theoretic starting value (§4.1 + §4.2): the larger of
    /// the MVA throughput bound (from observed resource utilizations) and
    /// the flexible-multiserver response-time bound (from the demand
    /// mean/C² and the arrival rate).
    pub fn jumpstart(
        utilizations: &[f64],
        targets: Targets,
        demand_mean: f64,
        demand_c2: f64,
        arrival_rate: f64,
        max_mpl: u32,
    ) -> u32 {
        let model = ThroughputModel::from_utilizations(utilizations);
        let tput_mpl = recommend::min_mpl_for_throughput(&model, 1.0 - targets.max_tput_loss);
        let (h2, lambda) = response_time_model(demand_mean, demand_c2, arrival_rate);
        let rt_mpl =
            recommend::min_mpl_for_response_time(h2, lambda, targets.max_rt_increase, max_mpl);
        tput_mpl.max(rt_mpl).min(max_mpl)
    }

    /// Current MPL the system should run with.
    pub fn mpl(&self) -> u32 {
        self.mpl
    }

    /// True once the search has settled.
    pub fn is_converged(&self) -> bool {
        self.converged
    }

    /// Number of closed observation windows so far.
    pub fn iterations(&self) -> u32 {
        self.trace.len() as u32
    }

    /// Full per-window history.
    pub fn trace(&self) -> &[IterationRecord] {
        &self.trace
    }

    /// Number of observation windows dropped by the low-load gate.
    pub fn discarded_windows(&self) -> u32 {
        self.discarded
    }

    /// The current search bracket `(highest_infeasible, best_feasible)`.
    pub fn bracket(&self) -> (u32, Option<u32>) {
        (self.highest_infeasible, self.best_feasible)
    }

    /// Record one completed transaction (`rt` = end-to-end response time).
    pub fn observe(&mut self, now: f64, rt: f64) {
        if !self.window.started {
            self.window.started = true;
            self.window.start = now;
        }
        self.window.rt.push(rt);
    }

    /// After recording completions, ask whether the window closed and what
    /// to do. Returns `None` while the window is still collecting.
    pub fn react(&mut self, now: f64) -> Option<Decision> {
        let n = self.window.rt.count();
        if n < MIN_WINDOW_TXNS {
            return None;
        }
        let ci_ok = self
            .window
            .rt
            .confidence_interval(CI_LEVEL)
            .relative_half_width()
            <= MAX_CI_REL_WIDTH;
        if !ci_ok && n < MAX_WINDOW_TXNS {
            return None;
        }
        // Window closes.
        let span = (now - self.window.start).max(1e-9);
        let tput = n as f64 / span;
        let rt = self.window.rt.mean();
        // The next window spans from *this* close instant, not from its
        // own first completion — otherwise idle time (a stall, an arrival
        // lull) between windows is excluded from the span and throughput
        // is overstated, masking infeasibility.
        self.window = Window {
            rt: Welford::default(),
            start: now,
            started: true,
        };

        if tput < MIN_LOAD_FRACTION * self.reference.throughput {
            // Unrepresentative (idle) period: discard without reacting —
            // but say so, and count it, so a stall-induced string of
            // discards is distinguishable from "still collecting".
            self.discarded += 1;
            return Some(Decision::Discarded);
        }

        let tput_bad = tput < (1.0 - self.targets.max_tput_loss) * self.reference.throughput;
        let rt_bad = rt > (1.0 + self.targets.max_rt_increase) * self.reference.mean_rt;
        let feasible = !tput_bad && !rt_bad;
        self.trace.push(IterationRecord {
            mpl: self.mpl,
            throughput: tput,
            mean_rt: rt,
            feasible,
        });

        let step = STEP;
        if feasible {
            self.up_streak = 0;
            self.best_feasible = Some(self.best_feasible.map_or(self.mpl, |b| b.min(self.mpl)));
            if self.converged {
                return Some(Decision::Converged(self.mpl));
            }
            if self.mpl <= MIN_MPL || self.mpl <= self.highest_infeasible + step {
                self.converged = true;
                return Some(Decision::Converged(self.mpl));
            }
            // Probe down, doubling the step on consecutive feasible
            // windows (capped) but never below the known-infeasible floor.
            let step_eff = step << self.down_streak.min(3);
            self.down_streak += 1;
            let next = self
                .mpl
                .saturating_sub(step_eff)
                .max(self.highest_infeasible + step)
                .max(MIN_MPL);
            if next == self.mpl {
                self.converged = true;
                return Some(Decision::Converged(self.mpl));
            }
            self.mpl = next;
            return Some(Decision::SetMpl(next));
        }

        // Infeasible. If convergence just broke, the bracket describes the
        // *pre-drift* workload — keeping it would let the bisection clamp
        // the MPL inside a range the new workload invalidates. Drop it and
        // search fresh from the current setpoint.
        if self.converged {
            self.converged = false;
            self.highest_infeasible = 0;
            self.best_feasible = None;
            self.up_streak = 0;
            self.down_streak = 0;
        }
        // Congestion signature: response time over target while throughput
        // is *comfortably* healthy (within half the loss budget of the
        // reference). Merely being inside the budget is not enough — in a
        // closed system rt ≈ population/throughput, so a marginally starved
        // window shows high rt with tput just above the loss line, and
        // stepping down there would starve it further.
        let congested =
            rt_bad && tput >= (1.0 - 0.5 * self.targets.max_tput_loss) * self.reference.throughput;
        if congested && self.mpl > MIN_MPL {
            // A congestion down-step must not land on or below the
            // starvation floor: there the two signals contradict —
            // starved one step below, rt marginally over here while
            // throughput holds — so no strictly feasible MPL exists in
            // between. Settle at the congestion boundary (the least-bad
            // fixed point) rather than ping-ponging across it.
            if self.mpl <= self.highest_infeasible + step {
                self.converged = true;
                return Some(Decision::Converged(self.mpl));
            }
            // The MPL is too *high* (queueing delay), not too low — step
            // down without raising the infeasibility floor, which
            // describes starvation, not congestion.
            self.up_streak = 0;
            self.down_streak = 0;
            // This window refutes feasibility at (and, rt being monotone
            // in MPL, above) the current setpoint.
            self.best_feasible = self.best_feasible.filter(|b| *b < self.mpl);
            let next = self.mpl.saturating_sub(step).max(MIN_MPL);
            self.mpl = next;
            return Some(Decision::SetMpl(next));
        }
        // Throughput starved: never go below this again.
        self.down_streak = 0;
        self.highest_infeasible = self.highest_infeasible.max(self.mpl);
        if let Some(best) = self.best_feasible.filter(|b| *b > self.mpl) {
            // The boundary is bracketed in (highest_infeasible, best].
            if best - self.highest_infeasible <= step {
                self.mpl = best;
                self.converged = true;
                return Some(Decision::Converged(best));
            }
            let mid = ((self.highest_infeasible + best) / 2).max(self.highest_infeasible + step);
            self.mpl = mid;
            return Some(Decision::SetMpl(mid));
        }
        // Nothing feasible seen yet: climb, doubling on consecutive
        // failures.
        let step_eff = step << self.up_streak.min(3);
        self.up_streak += 1;
        let next = (self.mpl + step_eff).min(self.max_mpl);
        if next == self.mpl {
            // Pinned at the ceiling: best effort.
            self.converged = true;
            return Some(Decision::Converged(self.mpl));
        }
        self.mpl = next;
        Some(Decision::SetMpl(next))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference() -> Reference {
        Reference {
            throughput: 100.0,
            mean_rt: 1.0,
        }
    }

    /// A 5%-target controller searching MPLs up to 200.
    fn new_controller(initial_mpl: u32) -> MplController {
        MplController::new(Targets::five_percent(), 200, reference(), initial_mpl)
    }

    /// Feed a synthetic window: `n` completions with the given mean rt,
    /// spanning enough simulated time to produce throughput `tput`.
    fn feed_window(
        c: &mut MplController,
        start: f64,
        n: u32,
        tput: f64,
        rt: f64,
    ) -> (f64, Option<Decision>) {
        let span = n as f64 / tput;
        for i in 0..n {
            let t = start + span * (i + 1) as f64 / n as f64;
            // tiny deterministic jitter so the CI is finite but tight
            let jitter = 1.0 + 0.01 * ((i % 7) as f64 - 3.0) / 3.0;
            c.observe(t, rt * jitter);
        }
        let end = start + span;
        let d = c.react(end);
        (end, d)
    }

    #[test]
    fn no_reaction_before_window_fills() {
        let mut c = new_controller(10);
        for i in 0..50 {
            c.observe(i as f64 * 0.01, 1.0);
        }
        assert_eq!(c.react(0.5), None);
    }

    #[test]
    fn probes_down_while_feasible_then_converges() {
        let mut c = new_controller(4);
        // MPL 4 and 3 feasible; 2 infeasible; expect convergence at 3.
        let mut t = 0.0;
        let feasibility = |mpl: u32| mpl >= 3;
        let mut decisions = Vec::new();
        for _ in 0..10 {
            let (tput, rt) = if feasibility(c.mpl()) {
                (100.0, 1.0)
            } else {
                (85.0, 1.3)
            };
            let (end, d) = feed_window(&mut c, t, 120, tput, rt);
            t = end;
            if let Some(d) = d {
                decisions.push(d);
                if matches!(d, Decision::Converged(_)) {
                    break;
                }
            }
        }
        assert!(
            matches!(decisions.last(), Some(Decision::Converged(3))),
            "decisions: {decisions:?}"
        );
        assert!(c.iterations() <= 5, "took {} iterations", c.iterations());
    }

    #[test]
    fn climbs_up_when_starting_infeasible() {
        let mut c = new_controller(1);
        let mut t = 0.0;
        let mut last = None;
        for _ in 0..15 {
            let (tput, rt) = if c.mpl() >= 5 {
                (99.0, 1.0)
            } else {
                (80.0, 1.5)
            };
            let (end, d) = feed_window(&mut c, t, 120, tput, rt);
            t = end;
            last = d.or(last);
            if matches!(d, Some(Decision::Converged(_))) {
                break;
            }
        }
        assert_eq!(last, Some(Decision::Converged(5)));
        assert!(c.iterations() < 10, "paper bound: <10 iterations");
    }

    #[test]
    fn jumpstart_makes_convergence_fast() {
        // Starting at the analytic value (here 5) converges in ≤ 3 windows
        // vs starting cold at 1.
        let run = |start: u32| {
            let mut c = new_controller(start);
            let mut t = 0.0;
            for _ in 0..20 {
                let (tput, rt) = if c.mpl() >= 5 {
                    (99.0, 1.0)
                } else {
                    (80.0, 1.5)
                };
                let (end, d) = feed_window(&mut c, t, 120, tput, rt);
                t = end;
                if matches!(d, Some(Decision::Converged(_))) {
                    break;
                }
            }
            assert!(c.is_converged());
            c.iterations()
        };
        assert!(run(5) <= 3);
        assert!(run(5) < run(1));
    }

    #[test]
    fn low_load_windows_are_discarded() {
        let mut c = new_controller(10);
        // Throughput 10 << 0.2 × 100 → window discarded, MPL unchanged —
        // but the discard is *reported*, not silently swallowed.
        let (_, d) = feed_window(&mut c, 0.0, 120, 10.0, 1.0);
        assert_eq!(d, Some(Decision::Discarded));
        assert_eq!(c.mpl(), 10);
        assert_eq!(c.iterations(), 0);
        assert_eq!(c.discarded_windows(), 1);
    }

    #[test]
    fn idle_gap_before_window_counts_against_its_span() {
        // Regression: `Window.start` used to be the first-completion time,
        // so idle time after the previous reaction (a stall, a lull) was
        // excluded from the span and window throughput overstated.
        let mut c = new_controller(10);
        // Window 1 closes at t = 1.2 (throughput 100, feasible → probes).
        let (e, d) = feed_window(&mut c, 0.0, 120, 100.0, 1.0);
        assert!(matches!(d, Some(Decision::SetMpl(_))));
        // 10 s stall, then 120 fast completions in 1.2 s. Anchored at the
        // previous close the span is 11.2 s → throughput ≈ 10.7 < 20%
        // of reference → the window must be discarded. The pre-fix code
        // anchored at the first completion, saw throughput 100, and
        // reacted to an idle window as if it were a healthy one.
        let mpl_before = c.mpl();
        let (_, d) = feed_window(&mut c, e + 10.0, 120, 100.0, 1.0);
        assert_eq!(d, Some(Decision::Discarded));
        assert_eq!(c.mpl(), mpl_before);
        assert_eq!(c.discarded_windows(), 1);
    }

    #[test]
    fn bracket_resets_when_the_frontier_drifts_up() {
        // Converge at 3 (feasible ≥ 3), then drift the feasible frontier
        // up to 10. The stale bracket (highest_infeasible = 2,
        // best_feasible = 3) describes the old workload; on the first
        // post-drift infeasible window it must be dropped wholesale.
        let mut c = new_controller(3);
        let mut t = 0.0;
        let mut frontier = 3u32;
        loop {
            let (tput, rt) = if c.mpl() >= frontier {
                (100.0, 1.0)
            } else {
                (80.0, 1.4)
            };
            let (e, d) = feed_window(&mut c, t, 120, tput, rt);
            t = e;
            if matches!(d, Some(Decision::Converged(_))) {
                break;
            }
        }
        assert_eq!(c.mpl(), 3);
        // Drift: 3 is now throughput-starved.
        frontier = 10;
        let (e, d) = feed_window(&mut c, t, 120, 80.0, 1.4);
        t = e;
        assert!(matches!(d, Some(Decision::SetMpl(_))));
        // Regression pin: the pre-fix code kept best_feasible = Some(3)
        // from before the drift; the fix starts a fresh bracket with only
        // this window's evidence in it.
        assert_eq!(c.bracket(), (3, None));
        // And the search re-converges at the new frontier.
        for _ in 0..20 {
            let (tput, rt) = if c.mpl() >= frontier {
                (100.0, 1.0)
            } else {
                (80.0, 1.4)
            };
            let (e, d) = feed_window(&mut c, t, 120, tput, rt);
            t = e;
            if matches!(d, Some(Decision::Converged(_))) {
                break;
            }
        }
        assert!(c.is_converged());
        assert_eq!(c.mpl(), 10);
    }

    #[test]
    fn bracket_resets_when_the_frontier_drifts_down() {
        // Converge at 8 (feasible ≥ 8 pre-drift), then drift so that the
        // response-time target fails everywhere above 4 while throughput
        // stays healthy down to 3. The controller must walk *down* to the
        // new fixed point; the pre-fix code treated every infeasible
        // window as "MPL too low", kept highest_infeasible = 7 from the
        // stale bracket, and climbed to the max_mpl ceiling instead.
        let mut c = new_controller(8);
        let mut t = 0.0;
        loop {
            let (tput, rt) = if c.mpl() >= 8 {
                (100.0, 1.0)
            } else {
                (80.0, 1.4)
            };
            let (e, d) = feed_window(&mut c, t, 120, tput, rt);
            t = e;
            if matches!(d, Some(Decision::Converged(_))) {
                break;
            }
        }
        assert_eq!(c.mpl(), 8);
        // Post-drift regime: throughput fine at MPL ≥ 3, response time
        // within target only at MPL ≤ 4.
        let post_drift = |mpl: u32| -> (f64, f64) {
            let tput = if mpl >= 3 { 100.0 } else { 80.0 };
            let rt = if mpl <= 4 { 1.0 } else { 1.5 };
            (tput, rt)
        };
        let mut last = None;
        for _ in 0..30 {
            let (tput, rt) = post_drift(c.mpl());
            let (e, d) = feed_window(&mut c, t, 120, tput, rt);
            t = e;
            if let Some(d) = d {
                last = Some(d);
                if matches!(d, Decision::Converged(_)) {
                    break;
                }
            }
        }
        assert_eq!(
            last,
            Some(Decision::Converged(3)),
            "must settle at the new frontier"
        );
        assert_eq!(c.mpl(), 3);
    }

    #[test]
    fn reconverges_after_drift() {
        let mut c = new_controller(3);
        let mut t = 0.0;
        // Feasible at 3 and 2 is infeasible → converges at 3.
        let (e, _) = feed_window(&mut c, t, 120, 100.0, 1.0);
        t = e;
        let (e, _) = feed_window(&mut c, t, 120, 80.0, 1.4); // mpl 2 fails
        t = e;
        let (e, d) = feed_window(&mut c, t, 120, 100.0, 1.0);
        t = e;
        assert_eq!(d, Some(Decision::Converged(3)));
        // Workload drifts: 3 no longer feasible → controller resumes.
        let (_, d) = feed_window(&mut c, t, 120, 80.0, 1.6);
        assert_eq!(d, Some(Decision::SetMpl(4)));
        assert!(!c.is_converged());
    }

    #[test]
    fn respects_max_mpl_ceiling() {
        let mut c = MplController::new(Targets::five_percent(), 4, reference(), 4);
        // Nothing is ever feasible; must converge (best effort) at the cap.
        let mut t = 0.0;
        let mut last = None;
        for _ in 0..6 {
            let (end, d) = feed_window(&mut c, t, 120, 50.0, 3.0);
            t = end;
            last = d.or(last);
        }
        assert_eq!(last, Some(Decision::Converged(4)));
    }

    #[test]
    fn jumpstart_combines_models() {
        // Four busy disks + modest C²: the throughput bound dominates.
        let j = MplController::jumpstart(
            &[0.9, 0.9, 0.9, 0.9],
            Targets::five_percent(),
            0.1,
            1.0,
            8.0,
            100,
        );
        assert!(
            j >= 10,
            "4 balanced resources at 95% need ~3/0.05 ≈ 57? got {j}"
        );
        // One resource + huge C²: the response-time bound dominates.
        let j2 = MplController::jumpstart(&[0.9], Targets::five_percent(), 0.1, 15.0, 7.0, 100);
        assert!(j2 >= 5, "C2=15 needs a two-digit MPL, got {j2}");
    }

    /// The jump-start's analytic inputs in a quick controller session:
    /// the reference run's utilizations and throughput, demand mean/C².
    struct JumpstartCase {
        setup: u32,
        utils: &'static [f64],
        mean: f64,
        c2: f64,
        tput: f64,
        /// The jump-start they give.
        want: u32,
    }

    /// The setups whose jump-start is set by the response-time model.
    const HIGH_C2_JUMPSTARTS: [JumpstartCase; 7] = [
        JumpstartCase {
            setup: 3,
            utils: &[0.9999999914224076, 0.0, 0.057289583136172356],
            mean: 0.052000000000000005,
            c2: 15.076035502958574,
            tput: 17.462467694606186,
            want: 50,
        },
        JumpstartCase {
            setup: 4,
            utils: &[0.9999999881949007, 0.0, 0.11504701126032614],
            mean: 0.052000000000000005,
            c2: 15.076035502958574,
            tput: 38.75665248751392,
            want: 95,
        },
        JumpstartCase {
            setup: 9,
            utils: &[
                0.18019759177594896,
                0.9999999960479479,
                0.012108295871435575,
            ],
            mean: 0.33715059026778,
            c2: 13.371672819034693,
            tput: 3.5673041181684595,
            want: 92,
        },
        JumpstartCase {
            setup: 10,
            utils: &[
                0.7103004631876818,
                0.9720916436690078,
                0.9685565020685872,
                0.9742163534361739,
                0.9671922928096707,
                0.043813784557557786,
            ],
            mean: 0.3375300694838607,
            c2: 13.371478373492597,
            tput: 13.575008647995576,
            want: 92,
        },
        JumpstartCase {
            setup: 14,
            utils: &[0.9999999912825499, 0.0, 0.05600027969687028],
            mean: 0.054000000000000006,
            c2: 3.8045267489711927,
            tput: 18.44685537448503,
            want: 65,
        },
        JumpstartCase {
            setup: 15,
            utils: &[0.999816029814307, 0.0, 0.08422133160038302],
            mean: 0.054000000000000006,
            c2: 3.8045267489711927,
            tput: 27.998850434249075,
            want: 65,
        },
        JumpstartCase {
            setup: 16,
            utils: &[0.9999999881655449, 0.0, 0.1124065614809007],
            mean: 0.054000000000000006,
            c2: 3.8045267489711927,
            tput: 39.352062369808685,
            want: 65,
        },
    ];

    #[test]
    fn jumpstart_pins_high_c2_setups() {
        // The response-time search that sets these jump-starts, pinned
        // without a simulation.
        for c in &HIGH_C2_JUMPSTARTS {
            let got = MplController::jumpstart(
                c.utils,
                Targets::five_percent(),
                c.mean,
                c.c2,
                c.tput,
                100,
            );
            assert_eq!(got, c.want, "setup {}", c.setup);
        }
    }

    #[test]
    fn jumpstart_solves_at_most_twice_above_half_the_answer() {
        // A QBD solve costs O(MPL³): the model-guided search spends two
        // solves near the answer on setups 3 and 4, where gallop-then-
        // bisect spent seven above half of it.
        for c in &HIGH_C2_JUMPSTARTS[..2] {
            let (h2, lambda) = response_time_model(c.mean, c.c2, c.tput);
            let ps = xsched_queueing::mg1::mg1_ps_response_time(lambda, h2.mean());
            let slack = Targets::five_percent().max_rt_increase;
            let mut solves = Vec::new();
            let got = recommend::search_min_mpl(100, ps, slack, |mpl| {
                solves.push(mpl);
                xsched_queueing::FlexServer::new(lambda, h2, mpl).mean_response_time()
            });
            assert_eq!(got, c.want, "setup {}", c.setup);
            let high = solves.iter().filter(|&&m| 2 * m > got).count();
            assert!(high <= 2, "setup {}: solves {solves:?}", c.setup);
        }
    }

    #[test]
    fn trace_records_every_window() {
        let mut c = new_controller(2);
        let (_, _) = feed_window(&mut c, 0.0, 150, 100.0, 1.0);
        assert_eq!(c.trace().len(), 1);
        let r = c.trace()[0];
        assert_eq!(r.mpl, 2);
        assert!(r.feasible);
        assert!((r.throughput - 100.0).abs() < 5.0);
    }
}
