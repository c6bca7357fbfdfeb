//! Arrival models.
//!
//! The paper's main experiments run a *closed* system with 100 clients
//! (submit → wait for completion → think → submit again); §3.2 switches to
//! an *open* system with Poisson arrivals to study response time at fixed
//! load. Both are captured here and interpreted by the experiment driver
//! in `xsched-core`.

use xsched_sim::{Dist, SimRng};

/// How transactions arrive at the external queue.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalProcess {
    /// A fixed population of clients, each cycling submit → think. With
    /// zero think time the external queue is kept saturated — the "high
    /// offered load" regime the paper's throughput plots assume.
    Closed {
        /// Number of clients (the paper uses 100 everywhere).
        clients: u32,
        /// Think-time distribution between completion and next submit.
        think: Dist,
    },
    /// Poisson arrivals at a constant rate, independent of completions.
    Open {
        /// Arrival rate in transactions/second.
        rate: f64,
    },
}

impl ArrivalProcess {
    /// The saturated closed system used by the throughput experiments.
    pub fn saturated(clients: u32) -> ArrivalProcess {
        ArrivalProcess::Closed {
            clients,
            think: Dist::constant(0.0),
        }
    }

    /// Open Poisson arrivals.
    pub fn open(rate: f64) -> ArrivalProcess {
        assert!(rate > 0.0);
        ArrivalProcess::Open { rate }
    }

    /// True for the closed variants.
    pub fn is_closed(&self) -> bool {
        matches!(self, ArrivalProcess::Closed { .. })
    }

    /// Sample the delay before a client's next submission (closed: think
    /// time; open: exponential interarrival).
    pub fn next_delay(&self, rng: &mut SimRng) -> f64 {
        match self {
            ArrivalProcess::Closed { think, .. } => think.sample(rng),
            ArrivalProcess::Open { rate } => rng.exp(1.0 / rate),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn saturated_has_zero_think() {
        let a = ArrivalProcess::saturated(100);
        let mut rng = SimRng::seed_from_u64(1);
        assert!(a.is_closed());
        assert_eq!(a.next_delay(&mut rng), 0.0);
    }

    #[test]
    fn open_interarrivals_have_requested_rate() {
        let a = ArrivalProcess::open(50.0);
        assert!(!a.is_closed());
        let mut rng = SimRng::seed_from_u64(2);
        let n = 100_000;
        let total: f64 = (0..n).map(|_| a.next_delay(&mut rng)).sum();
        let rate = n as f64 / total;
        assert!((rate - 50.0).abs() < 1.0, "rate {rate}");
    }

    #[test]
    fn closed_think_time_mean() {
        let a = ArrivalProcess::Closed {
            clients: 10,
            think: Dist::exp(0.5),
        };
        let mut rng = SimRng::seed_from_u64(3);
        let n = 100_000;
        let m: f64 = (0..n).map(|_| a.next_delay(&mut rng)).sum::<f64>() / n as f64;
        assert!((m - 0.5).abs() < 0.01, "mean think {m}");
    }

    #[test]
    #[should_panic]
    fn open_rejects_zero_rate() {
        ArrivalProcess::open(0.0);
    }
}
