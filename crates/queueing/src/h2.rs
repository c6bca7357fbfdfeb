//! Two-phase hyperexponential (H2) job-size distributions.
//!
//! The paper models transaction service requirements with an H2 so that the
//! squared coefficient of variation C² can be dialled arbitrarily (§4.2).
//! This mirrors `xsched_sim::Dist::HyperExp2` but is expressed in *rates*
//! (μ1, μ2), which is the natural parameterization for generator matrices.

/// H2(p, μ1, μ2): with probability `p` the job is Exp(μ1), else Exp(μ2).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct H2 {
    /// Probability of the first phase.
    pub p: f64,
    /// Rate of the first exponential phase.
    pub mu1: f64,
    /// Rate of the second exponential phase.
    pub mu2: f64,
}

impl H2 {
    /// Balanced-means fit matching `mean` and `c2` (requires `c2 ≥ 1`).
    ///
    /// For `c2 == 1` the two phases coincide and the distribution is
    /// exponential — every formula below degenerates correctly.
    pub fn fit(mean: f64, c2: f64) -> H2 {
        assert!(mean > 0.0, "mean must be positive");
        assert!(c2 >= 1.0, "H2 requires c2 >= 1, got {c2}");
        if (c2 - 1.0).abs() < 1e-12 {
            return H2 {
                p: 1.0,
                mu1: 1.0 / mean,
                mu2: 1.0 / mean,
            };
        }
        let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
        H2 {
            p,
            mu1: 2.0 * p / mean,
            mu2: 2.0 * (1.0 - p) / mean,
        }
    }

    /// An exponential distribution viewed as a degenerate H2.
    pub fn exponential(mean: f64) -> H2 {
        H2::fit(mean, 1.0)
    }

    /// Mean job size `E[S]` = p/μ1 + (1-p)/μ2.
    pub fn mean(&self) -> f64 {
        self.p / self.mu1 + (1.0 - self.p) / self.mu2
    }

    /// Second moment `E[S²]` = 2p/μ1² + 2(1-p)/μ2².
    pub fn second_moment(&self) -> f64 {
        2.0 * self.p / (self.mu1 * self.mu1) + 2.0 * (1.0 - self.p) / (self.mu2 * self.mu2)
    }

    /// Squared coefficient of variation.
    pub fn c2(&self) -> f64 {
        let m = self.mean();
        self.second_moment() / (m * m) - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fit_recovers_moments() {
        for &c2 in &[1.0, 2.0, 5.0, 10.0, 15.0] {
            for &mean in &[0.03, 1.0, 20.0] {
                let h = H2::fit(mean, c2);
                assert!((h.mean() - mean).abs() < 1e-9 * mean, "mean for c2={c2}");
                assert!((h.c2() - c2).abs() < 1e-9, "c2: want {c2} got {}", h.c2());
                assert!(h.p > 0.0 && h.p <= 1.0);
                assert!(h.mu1 > 0.0 && h.mu2 > 0.0);
            }
        }
    }

    #[test]
    fn exponential_degenerate() {
        let h = H2::exponential(0.5);
        assert!((h.mean() - 0.5).abs() < 1e-12);
        assert!((h.c2() - 1.0).abs() < 1e-12);
        assert_eq!(h.mu1, h.mu2);
    }

    #[test]
    fn first_phase_is_the_fast_one() {
        let h = H2::fit(1.0, 10.0);
        // Balanced-means puts the high-probability phase on the small jobs.
        assert!(h.p > 0.5);
        assert!(h.mu1 > h.mu2);
    }

    #[test]
    #[should_panic(expected = "c2 >= 1")]
    fn rejects_low_variability() {
        H2::fit(1.0, 0.3);
    }
}
