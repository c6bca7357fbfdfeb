//! Exact Mean Value Analysis of closed product-form networks.
//!
//! The paper's throughput model (§4.1, Fig. 6) represents the DBMS
//! internals as a closed network with one exponential station per hardware
//! resource (CPU, each disk), service rates proportional to the resource's
//! utilization in the MPL-unlimited system, and the MPL as the fixed
//! customer population. Only *relative* throughput matters, so the absolute
//! demand scale is irrelevant — exactly the observation that makes the
//! simple model sufficient.
//!
//! The classic MVA recursion (Reiser & Lavenberg) gives exact results for
//! load-independent FCFS/PS stations plus an optional delay (think-time)
//! station:
//!
//! ```text
//! R_k(n) = D_k · (1 + Q_k(n-1))
//! X(n)   = n / (Z + Σ_k R_k(n))
//! Q_k(n) = X(n) · R_k(n)
//! ```

/// A closed single-class queueing network.
#[derive(Debug, Clone)]
pub struct ClosedNetwork {
    /// Per-station total service demand of one job (visit ratio × mean
    /// service time), in seconds.
    demands: Vec<f64>,
    /// Think time at the delay station (0 for a pure queueing network).
    think_time: f64,
}

/// Solved performance metrics at a given population.
#[derive(Debug, Clone)]
pub struct MvaSolution {
    /// Population the network was solved for.
    pub population: u32,
    /// System throughput X(n) in jobs/second.
    pub throughput: f64,
    /// Mean response time per job across all queueing stations (excludes
    /// think time), R(n) in seconds.
    pub response_time: f64,
    /// Mean number of jobs at each queueing station.
    pub queue_lengths: Vec<f64>,
    /// Utilization of each station, X(n) · D_k.
    pub utilizations: Vec<f64>,
}

impl ClosedNetwork {
    /// Network of queueing stations with the given per-job demands
    /// (seconds), no think time.
    pub fn new(demands: Vec<f64>) -> ClosedNetwork {
        assert!(!demands.is_empty(), "need at least one station");
        assert!(
            demands.iter().all(|d| *d >= 0.0),
            "demands must be nonnegative"
        );
        assert!(
            demands.iter().any(|d| *d > 0.0),
            "at least one demand must be positive"
        );
        ClosedNetwork {
            demands,
            think_time: 0.0,
        }
    }

    /// Add a delay (infinite-server) station with the given think time.
    pub fn with_think_time(mut self, z: f64) -> ClosedNetwork {
        assert!(z >= 0.0);
        self.think_time = z;
        self
    }

    /// A balanced network: `stations` equal stations sharing `total_demand`
    /// seconds of per-job demand (the "evenly striped disks" worst case of
    /// §4.1).
    pub fn balanced(stations: usize, total_demand: f64) -> ClosedNetwork {
        assert!(stations > 0);
        ClosedNetwork::new(vec![total_demand / stations as f64; stations])
    }

    /// Station demands.
    pub fn demands(&self) -> &[f64] {
        &self.demands
    }

    /// Asymptotic maximum throughput `1 / max_k D_k` (jobs/second).
    pub fn max_throughput(&self) -> f64 {
        let dmax = self.demands.iter().cloned().fold(0.0, f64::max);
        1.0 / dmax
    }

    /// Solve for population `n` (exact MVA; O(n·K)).
    pub fn solve(&self, n: u32) -> MvaSolution {
        self.solve_series(n)
            .pop()
            .expect("solve_series returns n entries for n >= 1")
    }

    /// Solve for every population `1..=n` in one recursion pass.
    pub fn solve_series(&self, n: u32) -> Vec<MvaSolution> {
        assert!(n >= 1, "population must be at least 1");
        let k = self.demands.len();
        let mut q = vec![0.0; k];
        let mut out = Vec::with_capacity(n as usize);
        for pop in 1..=n {
            let mut r = vec![0.0; k];
            let mut rtot = 0.0;
            for i in 0..k {
                r[i] = self.demands[i] * (1.0 + q[i]);
                rtot += r[i];
            }
            let x = pop as f64 / (self.think_time + rtot);
            for i in 0..k {
                q[i] = x * r[i];
            }
            out.push(MvaSolution {
                population: pop,
                throughput: x,
                response_time: rtot,
                queue_lengths: q.clone(),
                utilizations: self.demands.iter().map(|d| x * d).collect(),
            });
        }
        out
    }

    /// Throughput at population `n` (convenience).
    pub fn throughput(&self, n: u32) -> f64 {
        self.solve(n).throughput
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_station_saturates_immediately() {
        // One queueing station, no think time: X(n) = 1/D for every n >= 1.
        let net = ClosedNetwork::new(vec![0.25]);
        for n in 1..=10 {
            assert!((net.throughput(n) - 4.0).abs() < 1e-12);
        }
    }

    #[test]
    fn balanced_network_closed_form() {
        // K equal stations with demand D each: X(n) = n / (D (n + K - 1)).
        let d = 0.2;
        let k = 4;
        let net = ClosedNetwork::new(vec![d; k]);
        for n in 1..=20u32 {
            let want = n as f64 / (d * (n as f64 + k as f64 - 1.0));
            let got = net.throughput(n);
            assert!((got - want).abs() < 1e-10, "n={n}: got {got} want {want}");
        }
    }

    #[test]
    fn queue_lengths_sum_to_population() {
        let net = ClosedNetwork::new(vec![0.1, 0.3, 0.05]);
        for n in [1u32, 5, 17] {
            let sol = net.solve(n);
            let total: f64 = sol.queue_lengths.iter().sum();
            assert!(
                (total - n as f64).abs() < 1e-9,
                "population {n}: ΣQ = {total}"
            );
        }
    }

    #[test]
    fn think_time_conservation_includes_delay_station() {
        let net = ClosedNetwork::new(vec![0.1, 0.1]).with_think_time(1.0);
        let sol = net.solve(8);
        let queued: f64 = sol.queue_lengths.iter().sum();
        let thinking = sol.throughput * 1.0; // Little's law at the delay station
        assert!(((queued + thinking) - 8.0).abs() < 1e-9);
    }

    #[test]
    fn throughput_monotone_and_bounded() {
        let net = ClosedNetwork::new(vec![0.05, 0.2, 0.1]);
        let series = net.solve_series(50);
        let xmax = net.max_throughput();
        let mut prev = 0.0;
        for s in &series {
            assert!(s.throughput >= prev - 1e-12, "throughput must not decrease");
            assert!(s.throughput <= xmax + 1e-9, "throughput exceeds bound");
            prev = s.throughput;
        }
        // With a long series the bottleneck bound is approached.
        assert!(series.last().unwrap().throughput > 0.97 * xmax);
    }

    #[test]
    fn utilization_of_bottleneck_tends_to_one() {
        let net = ClosedNetwork::new(vec![0.3, 0.1]);
        let sol = net.solve(40);
        assert!(sol.utilizations[0] > 0.97);
        assert!(sol.utilizations[0] <= 1.0 + 1e-9);
        assert!(sol.utilizations[1] < 0.5);
    }

    #[test]
    fn response_time_grows_with_population() {
        let net = ClosedNetwork::balanced(4, 1.0);
        let r1 = net.solve(1).response_time;
        let r20 = net.solve(20).response_time;
        assert!((r1 - 1.0).abs() < 1e-12, "no queueing with one job");
        assert!(r20 > 4.0, "heavy queueing with 20 jobs: {r20}");
    }

    #[test]
    fn more_disks_need_higher_population_for_same_fraction() {
        // The Fig. 7 trend: the MPL needed for 95% of max throughput grows
        // with the number of (balanced) disks.
        let need = |disks: usize| {
            let net = ClosedNetwork::balanced(disks, 1.0);
            let xmax = net.max_throughput();
            net.solve_series(400)
                .iter()
                .find(|s| s.throughput >= 0.95 * xmax)
                .unwrap()
                .population
        };
        let n1 = need(1);
        let n4 = need(4);
        let n8 = need(8);
        assert!(n1 < n4 && n4 < n8, "{n1} {n4} {n8}");
    }

    #[test]
    #[should_panic(expected = "at least one demand")]
    fn all_zero_demands_rejected() {
        ClosedNetwork::new(vec![0.0, 0.0]);
    }
}
