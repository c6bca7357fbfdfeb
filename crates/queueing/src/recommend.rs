//! MPL recommendation — the queueing-theoretic "jump start" of §4.3.
//!
//! The controller needs a good initial MPL. Two bounds are combined:
//!
//! * [`min_mpl_for_throughput`] — lowest population at which the closed
//!   resource model ([`crate::mva`]) reaches a target fraction of its
//!   asymptotic maximum throughput (the squares/circles of Fig. 7);
//! * [`min_mpl_for_response_time`] — lowest MPL at which the flexible
//!   multiserver queue ([`crate::flex`]) is within a given slack of the
//!   pure-PS mean response time (the flattening points of Fig. 10).
//!   Each probe is a QBD solve whose cost grows with the MPL, so
//!   [`search_min_mpl`] models the curve's geometric flattening to probe
//!   next to the answer instead of past it: five solves on the
//!   heavy-tailed setups, two of them near the answer.
//!
//! The recommended starting MPL is the maximum of the two: it must be high
//! enough for *both* throughput and response time.

use crate::flex::FlexServer;
use crate::h2::H2;
use crate::mg1;
use crate::mva::ClosedNetwork;

/// The paper's throughput model: one exponential station per utilized
/// hardware resource, service rates proportional to the utilizations
/// observed in the MPL-unlimited system (§4.1).
#[derive(Debug, Clone)]
pub struct ThroughputModel {
    network: ClosedNetwork,
}

impl ThroughputModel {
    /// Build from per-resource utilizations of the unlimited system.
    ///
    /// Only relative values matter; resources with (near-)zero utilization
    /// are dropped — they never constrain the MPL.
    pub fn from_utilizations(utilizations: &[f64]) -> ThroughputModel {
        let demands: Vec<f64> = utilizations.iter().copied().filter(|u| *u > 1e-6).collect();
        assert!(
            !demands.is_empty(),
            "at least one resource must be utilized"
        );
        ThroughputModel {
            network: ClosedNetwork::new(demands),
        }
    }

    /// The worst-case balanced model used for the Fig. 7 analysis:
    /// `resources` equally utilized stations.
    pub fn balanced(resources: usize) -> ThroughputModel {
        ThroughputModel {
            network: ClosedNetwork::balanced(resources, 1.0),
        }
    }

    /// The underlying closed network.
    pub fn network(&self) -> &ClosedNetwork {
        &self.network
    }
}

/// Lowest MPL whose predicted throughput is at least `fraction` of the
/// maximum (e.g. `fraction = 0.95` for a 5% loss budget).
pub fn min_mpl_for_throughput(model: &ThroughputModel, fraction: f64) -> u32 {
    assert!((0.0..1.0).contains(&fraction), "fraction must be in [0, 1)");
    let series = model.network.solve_series(100_000.min(guess_cap(model)));
    let xmax = model.network.max_throughput();
    for s in &series {
        if s.throughput >= fraction * xmax {
            return s.population;
        }
    }
    series.last().map(|s| s.population).unwrap_or(1)
}

fn guess_cap(model: &ThroughputModel) -> u32 {
    // The MPL for 99.9% of max throughput is O(K / (1 - fraction)); a cap of
    // 1000·K is far beyond anything the controller will use.
    (model.network.demands().len() as u32)
        .saturating_mul(1000)
        .max(1000)
}

/// Lowest MPL at which the flexible multiserver queue's mean response time
/// is within `slack` (e.g. 0.05 for 5%) of the pure-PS response time, given
/// job-size mean/C² and the arrival rate.
///
/// Returns `max_mpl` if even that does not reach the target (callers treat
/// that as "effectively unlimited"). The search is [`search_min_mpl`].
pub fn min_mpl_for_response_time(job_size: H2, lambda: f64, slack: f64, max_mpl: u32) -> u32 {
    let ps = mg1::mg1_ps_response_time(lambda, job_size.mean());
    search_min_mpl(max_mpl, ps, slack, |mpl| {
        FlexServer::new(lambda, job_size, mpl).mean_response_time()
    })
}

/// Lowest `mpl` in `1..=max_mpl` with `response_time(mpl) <= ps·(1+slack)`,
/// for a response-time curve that is nonincreasing in the MPL; `max_mpl`
/// if none is, and 0 if `max_mpl` is 0.
///
/// In [`min_mpl_for_response_time`] a probe is a QBD solve that costs
/// O(MPL³), so the search spends its probes near the answer rather than
/// past it. It keeps a bracket: `miss`,
/// the largest MPL known to miss (0 = none), and `hit`, the smallest known
/// to meet the target. The next probe is chosen as follows:
///
/// * gallop 1, 2, 4 while nothing meets the target, so setups that need a
///   small MPL stop after a solve or two;
/// * then fit the log-excess `ln(E[T]/PS − 1)` linearly in the MPL through
///   the last two probes and probe the ceiling of its crossing with
///   `ln(slack)`, clamped into the open bracket (so a crossing at or
///   past `hit` probes `hit − 1`). The excess over PS decays about
///   geometrically as the curve flattens (Fig. 10), so on the
///   heavy-tailed setups two such probes land on the answer and the MPL
///   below it;
/// * where the model is undefined (an excess ≤ 0, slack 0, a slope that
///   does not fall, NaN) or after two model probes, gallop on (doubling,
///   capped at `max_mpl`) while nothing meets the target, and bisect once
///   something does.
///
/// Every probe lies strictly inside the bracket, so the search ends, and
/// for a nonincreasing curve it returns what a linear scan returns.
pub fn search_min_mpl(
    max_mpl: u32,
    ps: f64,
    slack: f64,
    mut response_time: impl FnMut(u32) -> f64,
) -> u32 {
    assert!(slack >= 0.0);
    let target = ps * (1.0 + slack);
    let goal = slack.ln();
    let mut miss = 0;
    let mut hit: Option<u32> = None;
    // The last two probes as `(mpl, log-excess)`, newest last.
    let mut last: [(u32, f64); 2] = [(0, f64::NAN); 2];
    let mut probes = 0;
    let mut model_probes = 0;
    while hit.map_or(miss < max_mpl, |h| h - miss > 1) {
        // The first three probes gallop unless one of them meets.
        let guided = hit.is_some() || probes >= 3;
        let mpl = match (crossing(last, goal), hit) {
            (Some(x), _) if guided && model_probes < 2 => {
                model_probes += 1;
                let top = hit.map_or(max_mpl, |h| h - 1);
                // `x` is finite; the clamp keeps it inside the bracket.
                x.ceil().clamp(f64::from(miss + 1), f64::from(top)) as u32
            }
            (_, Some(h)) => miss + (h - miss) / 2,
            (_, None) => miss.saturating_mul(2).clamp(1, max_mpl),
        };
        let t = response_time(mpl);
        probes += 1;
        last = [last[1], (mpl, (t / ps - 1.0).ln())];
        if t <= target {
            hit = Some(mpl);
        } else {
            miss = mpl;
        }
    }
    hit.unwrap_or(max_mpl)
}

/// Where the line through two `(mpl, log-excess)` points reaches `goal`,
/// if both points are finite and the line falls towards it.
fn crossing([(a, ea), (b, eb)]: [(u32, f64); 2], goal: f64) -> Option<f64> {
    let slope = (eb - ea) / (f64::from(b) - f64::from(a));
    let x = f64::from(b) + (goal - eb) / slope;
    (ea.is_finite() && eb.is_finite() && slope < 0.0 && x.is_finite()).then_some(x)
}

/// Combined jump-start: the MPL must satisfy both the throughput and the
/// response-time constraint, so take the maximum of the two bounds.
pub fn jumpstart_mpl(
    model: &ThroughputModel,
    tput_fraction: f64,
    job_size: H2,
    lambda: f64,
    rt_slack: f64,
    max_mpl: u32,
) -> u32 {
    let a = min_mpl_for_throughput(model, tput_fraction);
    let b = min_mpl_for_response_time(job_size, lambda, rt_slack, max_mpl);
    a.max(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The linear scan the galloping search replaced, verbatim: the
    /// oracle for [`min_mpl_for_response_time`].
    fn reference_min_mpl(job_size: H2, lambda: f64, slack: f64, max_mpl: u32) -> u32 {
        assert!(slack >= 0.0);
        let ps = mg1::mg1_ps_response_time(lambda, job_size.mean());
        let target = ps * (1.0 + slack);
        // E[T](mpl) is monotone nonincreasing in MPL for H2 job sizes, so a
        // linear scan with early exit is both simple and robust.
        for mpl in 1..=max_mpl {
            let t = FlexServer::new(lambda, job_size, mpl).mean_response_time();
            if t <= target {
                return mpl;
            }
        }
        max_mpl
    }

    /// The galloping search the model-guided search replaced, verbatim:
    /// the second oracle, and the only one at the degenerate corner where
    /// rounding makes the predicate non-monotone.
    fn galloping_min_mpl(job_size: H2, lambda: f64, slack: f64, max_mpl: u32) -> u32 {
        assert!(slack >= 0.0);
        let ps = mg1::mg1_ps_response_time(lambda, job_size.mean());
        let target = ps * (1.0 + slack);
        if max_mpl == 0 {
            return 0;
        }
        let meets =
            |mpl: u32| FlexServer::new(lambda, job_size, mpl).mean_response_time() <= target;
        // E[T](mpl) is monotone nonincreasing in MPL for H2 job sizes, so
        // gallop up from MPL 1 (1, 2, 4, …, capped at `max_mpl`) to bracket
        // the first MPL that meets the target, then bisect the bracket. A
        // solve costs O(MPL³) or more, so probing from the low end keeps
        // setups that need a small MPL down to a few cheap solves.
        // `miss` never meets the target (0 = nothing probed yet); `hit` does.
        let mut miss = 0;
        let mut hit = 1;
        while !meets(hit) {
            if hit == max_mpl {
                return max_mpl;
            }
            miss = hit;
            hit = hit.saturating_mul(2).min(max_mpl);
        }
        while hit - miss > 1 {
            let mid = miss + (hit - miss) / 2;
            if meets(mid) {
                hit = mid;
            } else {
                miss = mid;
            }
        }
        hit
    }

    #[test]
    fn search_matches_linear_scan_and_galloping_search() {
        for c2 in [1.0, 1.29, 2.0, 3.8, 5.0, 13.37, 15.0, 20.0] {
            let h2 = H2::fit(0.1, c2);
            for rho in [0.3, 0.5, 0.7, 0.8, 0.9, 0.95] {
                let lambda = rho / 0.1;
                for slack in [0.0, 0.05, 0.2] {
                    for max_mpl in [0, 1, 7, 40] {
                        let got = min_mpl_for_response_time(h2, lambda, slack, max_mpl);
                        let case = format!("C2={c2} rho={rho} slack={slack} max_mpl={max_mpl}");
                        assert_eq!(got, galloping_min_mpl(h2, lambda, slack, max_mpl), "{case}");
                        // See `degenerate_corner_follows_the_galloping_search`.
                        if !(c2 == 1.0 && slack == 0.0) {
                            assert_eq!(
                                got,
                                reference_min_mpl(h2, lambda, slack, max_mpl),
                                "{case}"
                            );
                        }
                    }
                }
            }
        }
    }

    /// At C² = 1 the flexible multiserver queue is M/M/1 for every MPL, so
    /// E[T] equals PS analytically and, at slack 0, rounding alone decides
    /// the predicate: it is not monotone, and which MPL comes back depends
    /// on which MPLs are probed. At slack 0 the model is undefined, so the
    /// search probes exactly what the galloping search probes.
    #[test]
    fn degenerate_corner_follows_the_galloping_search() {
        let (h2, lambda) = (H2::fit(0.1, 1.0), 8.0);
        assert_eq!(reference_min_mpl(h2, lambda, 0.0, 40), 35);
        for (max_mpl, want) in [(40, 40), (100, 100)] {
            assert_eq!(galloping_min_mpl(h2, lambda, 0.0, max_mpl), want);
            assert_eq!(min_mpl_for_response_time(h2, lambda, 0.0, max_mpl), want);
        }
    }

    /// The search on a synthetic curve: `(result, MPLs probed)`.
    fn probed(curve: impl Fn(u32) -> f64, slack: f64, max_mpl: u32) -> (u32, Vec<u32>) {
        let mut seen = Vec::new();
        let got = search_min_mpl(max_mpl, 1.0, slack, |mpl| {
            seen.push(mpl);
            curve(mpl)
        });
        (got, seen)
    }

    #[test]
    fn search_falls_back_where_the_model_fits_badly() {
        // A step (the log-excess is flat on 1, 2, 4, so the model is
        // undefined), a power law (the model undershoots twice) and a
        // plateau that reaches PS exactly (an excess of 0).
        let step = |m: u32| if m < 37 { 1.5 } else { 1.01 };
        let power = |m: u32| 1.0 + 1.0 / f64::from(m);
        let plateau = |m: u32| {
            if m < 23 {
                3.0 - f64::from(m) / 12.0
            } else {
                1.0
            }
        };
        for (name, curve) in [
            ("step", &step as &dyn Fn(u32) -> f64),
            ("power", &power),
            ("plateau", &plateau),
        ] {
            for slack in [0.0, 0.02, 0.05, 0.2] {
                for max_mpl in 0..=120 {
                    let want = (1..=max_mpl)
                        .find(|&m| curve(m) <= 1.0 + slack)
                        .unwrap_or(max_mpl);
                    let (got, seen) = probed(curve, slack, max_mpl);
                    let case = format!("{name} slack={slack} max_mpl={max_mpl}: {seen:?}");
                    assert_eq!(got, want, "{case}");
                    let mut distinct = seen.clone();
                    distinct.sort_unstable();
                    distinct.dedup();
                    assert_eq!(distinct.len(), seen.len(), "{case}");
                }
            }
        }
        // The flat step gallops to 64; the model's probes at 51 and 39 are
        // interleaved with bisection wherever two probes share an excess.
        assert_eq!(
            probed(step, 0.05, 100),
            (37, vec![1, 2, 4, 8, 16, 32, 64, 51, 41, 36, 39, 37])
        );
        // 1/m ≤ 0.05 from MPL 20: the model undershoots at 9 and 14, then
        // the search gallops and bisects.
        assert_eq!(
            probed(power, 0.05, 100),
            (20, vec![1, 2, 4, 9, 14, 28, 21, 17, 19, 20])
        );
        // The model overshoots to 78, whose excess of 0 leaves it
        // undefined: bisection from there on.
        assert_eq!(
            probed(plateau, 0.05, 100),
            (23, vec![1, 2, 4, 78, 41, 22, 31, 26, 24, 23])
        );
    }

    #[test]
    fn single_resource_needs_mpl_one() {
        let m = ThroughputModel::from_utilizations(&[0.9]);
        assert_eq!(min_mpl_for_throughput(&m, 0.95), 1);
    }

    #[test]
    fn fig7_mpl_grows_linearly_with_disks() {
        // The circles (80%) and squares (95%) of Fig. 7 fall on straight
        // lines in the number of disks.
        let mpl80: Vec<u32> = [1usize, 2, 3, 4, 8, 16]
            .iter()
            .map(|&d| min_mpl_for_throughput(&ThroughputModel::balanced(d), 0.80))
            .collect();
        let mpl95: Vec<u32> = [1usize, 2, 3, 4, 8, 16]
            .iter()
            .map(|&d| min_mpl_for_throughput(&ThroughputModel::balanced(d), 0.95))
            .collect();
        // Monotone growth.
        assert!(mpl80.windows(2).all(|w| w[0] <= w[1]), "{mpl80:?}");
        assert!(mpl95.windows(2).all(|w| w[0] <= w[1]), "{mpl95:?}");
        // Exact linearity: for K balanced stations X(n)/Xmax = n/(n+K−1),
        // so the minimum n for fraction f is ceil(f(K−1)/(1−f)) — linear
        // in K. Check the computed points against it.
        for (&d, &got) in [1usize, 2, 3, 4, 8, 16].iter().zip(&mpl95) {
            let k = d as f64;
            let want = (0.95 * (k - 1.0) / 0.05).ceil().max(1.0) as u32;
            assert_eq!(got, want, "95% point for {d} disks");
        }
        // 95% needs more than 80%.
        for (a, b) in mpl80.iter().zip(&mpl95) {
            assert!(a <= b);
        }
    }

    #[test]
    fn zero_utilization_resources_are_ignored() {
        let a = ThroughputModel::from_utilizations(&[0.5, 0.0, 0.0]);
        let b = ThroughputModel::from_utilizations(&[0.5]);
        assert_eq!(
            min_mpl_for_throughput(&a, 0.95),
            min_mpl_for_throughput(&b, 0.95)
        );
    }

    #[test]
    fn low_c2_needs_small_mpl_high_c2_needs_large() {
        // §4.2's summary: C² ≈ 1 ⇒ MPL ≈ 1–5 suffices; C² ≈ 15 at load 0.9
        // needs ~30.
        let lambda_07 = 7.0;
        let lambda_09 = 9.0;
        let lo = H2::fit(0.1, 1.0);
        let hi = H2::fit(0.1, 15.0);
        let m_lo = min_mpl_for_response_time(lo, lambda_07, 0.05, 100);
        let m_hi_07 = min_mpl_for_response_time(hi, lambda_07, 0.05, 100);
        let m_hi_09 = min_mpl_for_response_time(hi, lambda_09, 0.05, 100);
        assert!(m_lo <= 2, "exponential workload: {m_lo}");
        assert!(m_hi_07 >= 5, "C2=15 at 0.7: {m_hi_07}");
        assert!(
            m_hi_09 > m_hi_07,
            "load 0.9 needs more: {m_hi_09} vs {m_hi_07}"
        );
    }

    #[test]
    fn jumpstart_takes_the_max() {
        let model = ThroughputModel::balanced(4);
        let h2 = H2::fit(0.1, 15.0);
        let j = jumpstart_mpl(&model, 0.95, h2, 7.0, 0.05, 100);
        assert!(j >= min_mpl_for_throughput(&model, 0.95));
        assert!(j >= min_mpl_for_response_time(h2, 7.0, 0.05, 100));
    }

    #[test]
    fn max_mpl_is_a_hard_cap() {
        let h2 = H2::fit(0.1, 15.0);
        assert_eq!(min_mpl_for_response_time(h2, 9.5, 0.0, 7), 7);
    }
}
