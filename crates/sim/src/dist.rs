//! Service-time and think-time distributions.
//!
//! The paper's analysis hinges on the squared coefficient of variation
//! (C² = Var/Mean²) of transaction service demands, so every variant here
//! exposes its analytic [`mean`](Dist::mean) and [`c2`](Dist::c2) and the
//! unit tests check sampled moments against them.
//!
//! The 2-phase hyperexponential ([`Dist::HyperExp2`]) is the paper's
//! workhorse for modelling high-variability (C² up to 15) TPC-W-like
//! demands; [`Dist::fit_h2`] reproduces the standard balanced-means fit
//! used to parameterize the CTMC of Section 4.2.

use crate::rng::SimRng;

/// A nonnegative continuous distribution with known first two moments.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Always `value`. C² = 0.
    Deterministic {
        /// The constant value returned by every sample.
        value: f64,
    },
    /// Exponential with the given mean. C² = 1.
    Exponential {
        /// Mean of the distribution (1/rate).
        mean: f64,
    },
    /// Two-phase hyperexponential: with probability `p` the sample is
    /// Exp(1/`mean1`), otherwise Exp(1/`mean2`). C² ≥ 1.
    HyperExp2 {
        /// Probability of drawing from the first phase.
        p: f64,
        /// Mean of the first exponential phase.
        mean1: f64,
        /// Mean of the second exponential phase.
        mean2: f64,
    },
    /// Sum of `k` iid exponentials, total mean `mean`. C² = 1/k < 1.
    Erlang {
        /// Number of exponential stages (≥ 1).
        k: u32,
        /// Mean of the whole sum.
        mean: f64,
    },
    /// Uniform on `[lo, hi]`.
    Uniform {
        /// Lower bound.
        lo: f64,
        /// Upper bound.
        hi: f64,
    },
    /// Pareto with shape `alpha` truncated to `[lo, hi]`, sampled by
    /// inverse transform on the truncated CDF. Used for heavy-tailed
    /// "browsing" interactions.
    BoundedPareto {
        /// Scale / lower cutoff (> 0).
        lo: f64,
        /// Upper cutoff (> `lo`).
        hi: f64,
        /// Tail index (> 0, ≠ 1, ≠ 2 for the moment formulas).
        alpha: f64,
    },
}

impl Dist {
    /// Write a structural fingerprint (variant tag + parameter bit
    /// patterns) — used by measurement-cache keys to identify workload
    /// configurations without `Debug` formatting.
    pub fn fingerprint_into(&self, fp: &mut crate::StableFp) {
        match *self {
            Dist::Deterministic { value } => {
                fp.write_u64(0);
                fp.write_f64(value);
            }
            Dist::Exponential { mean } => {
                fp.write_u64(1);
                fp.write_f64(mean);
            }
            Dist::HyperExp2 { p, mean1, mean2 } => {
                fp.write_u64(2);
                fp.write_f64(p);
                fp.write_f64(mean1);
                fp.write_f64(mean2);
            }
            Dist::Erlang { k, mean } => {
                fp.write_u64(3);
                fp.write_u32(k);
                fp.write_f64(mean);
            }
            Dist::Uniform { lo, hi } => {
                fp.write_u64(4);
                fp.write_f64(lo);
                fp.write_f64(hi);
            }
            Dist::BoundedPareto { lo, hi, alpha } => {
                fp.write_u64(5);
                fp.write_f64(lo);
                fp.write_f64(hi);
                fp.write_f64(alpha);
            }
        }
    }

    /// Convenience constructor for [`Dist::Deterministic`].
    pub fn constant(value: f64) -> Dist {
        Dist::Deterministic { value }
    }

    /// Convenience constructor for [`Dist::Exponential`].
    pub fn exp(mean: f64) -> Dist {
        Dist::Exponential { mean }
    }

    /// Fit a 2-phase hyperexponential with *balanced means*
    /// (`p·mean1 = (1-p)·mean2`) matching the requested `mean` and `c2`.
    ///
    /// Requires `c2 >= 1`; `c2 == 1` degenerates to the exponential.
    /// This is the fit the paper uses to drive the flexible-multiserver
    /// CTMC with C² ∈ {2, 5, 10, 15}.
    pub fn fit_h2(mean: f64, c2: f64) -> Dist {
        assert!(mean > 0.0, "mean must be positive");
        assert!(c2 >= 1.0, "H2 requires C^2 >= 1, got {c2}");
        if (c2 - 1.0).abs() < 1e-12 {
            return Dist::Exponential { mean };
        }
        // Balanced-means fit (e.g. Allen, "Probability, Statistics and
        // Queueing Theory"): p = (1 + sqrt((c2-1)/(c2+1))) / 2,
        // mean1 = mean/(2p), mean2 = mean/(2(1-p)).
        let p = 0.5 * (1.0 + ((c2 - 1.0) / (c2 + 1.0)).sqrt());
        let mean1 = mean / (2.0 * p);
        let mean2 = mean / (2.0 * (1.0 - p));
        Dist::HyperExp2 { p, mean1, mean2 }
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut SimRng) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Exponential { mean } => rng.exp(mean),
            Dist::HyperExp2 { p, mean1, mean2 } => {
                if rng.chance(p) {
                    rng.exp(mean1)
                } else {
                    rng.exp(mean2)
                }
            }
            Dist::Erlang { k, mean } => {
                let stage_mean = mean / k as f64;
                (0..k).map(|_| rng.exp(stage_mean)).sum()
            }
            Dist::Uniform { lo, hi } => rng.uniform_range(lo, hi),
            Dist::BoundedPareto { lo, hi, alpha } => {
                // Inverse transform of the truncated Pareto CDF.
                let u = rng.uniform();
                let la = lo.powf(alpha);
                let ha = hi.powf(alpha);
                let x = (1.0 - u * (1.0 - la / ha)) / la;
                x.powf(-1.0 / alpha)
            }
        }
    }

    /// Analytic mean.
    pub fn mean(&self) -> f64 {
        match *self {
            Dist::Deterministic { value } => value,
            Dist::Exponential { mean } => mean,
            Dist::HyperExp2 { p, mean1, mean2 } => p * mean1 + (1.0 - p) * mean2,
            Dist::Erlang { mean, .. } => mean,
            Dist::Uniform { lo, hi } => 0.5 * (lo + hi),
            Dist::BoundedPareto { lo, hi, alpha } => {
                // E[X] for Pareto(alpha, lo) truncated at hi, alpha != 1.
                let la = lo.powf(alpha);
                let ha = hi.powf(alpha);
                let norm = 1.0 - la / ha;
                (alpha * la / (alpha - 1.0)) * (lo.powf(1.0 - alpha) - hi.powf(1.0 - alpha)) / norm
            }
        }
    }

    /// Analytic second moment `E[X²]`.
    pub fn second_moment(&self) -> f64 {
        match *self {
            Dist::Deterministic { value } => value * value,
            Dist::Exponential { mean } => 2.0 * mean * mean,
            Dist::HyperExp2 { p, mean1, mean2 } => {
                2.0 * (p * mean1 * mean1 + (1.0 - p) * mean2 * mean2)
            }
            Dist::Erlang { k, mean } => {
                let k = k as f64;
                mean * mean * (k + 1.0) / k
            }
            Dist::Uniform { lo, hi } => (hi * hi + hi * lo + lo * lo) / 3.0,
            Dist::BoundedPareto { lo, hi, alpha } => {
                let la = lo.powf(alpha);
                let ha = hi.powf(alpha);
                let norm = 1.0 - la / ha;
                (alpha * la / (alpha - 2.0)) * (lo.powf(2.0 - alpha) - hi.powf(2.0 - alpha)) / norm
            }
        }
    }

    /// Analytic variance.
    pub fn variance(&self) -> f64 {
        let m = self.mean();
        (self.second_moment() - m * m).max(0.0)
    }

    /// Squared coefficient of variation C² = Var / Mean².
    pub fn c2(&self) -> f64 {
        let m = self.mean();
        if m == 0.0 {
            0.0
        } else {
            self.variance() / (m * m)
        }
    }

    /// A copy of this distribution rescaled to the given mean, preserving
    /// its shape (and therefore its C²).
    pub fn with_mean(&self, new_mean: f64) -> Dist {
        let scale = new_mean / self.mean();
        match *self {
            Dist::Deterministic { value } => Dist::Deterministic {
                value: value * scale,
            },
            Dist::Exponential { mean } => Dist::Exponential { mean: mean * scale },
            Dist::HyperExp2 { p, mean1, mean2 } => Dist::HyperExp2 {
                p,
                mean1: mean1 * scale,
                mean2: mean2 * scale,
            },
            Dist::Erlang { k, mean } => Dist::Erlang {
                k,
                mean: mean * scale,
            },
            Dist::Uniform { lo, hi } => Dist::Uniform {
                lo: lo * scale,
                hi: hi * scale,
            },
            Dist::BoundedPareto { lo, hi, alpha } => Dist::BoundedPareto {
                lo: lo * scale,
                hi: hi * scale,
                alpha,
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check_moments(d: &Dist, seed: u64, n: usize, tol_mean: f64, tol_c2: f64) {
        let mut rng = SimRng::seed_from_u64(seed);
        let mut sum = 0.0;
        let mut sumsq = 0.0;
        for _ in 0..n {
            let x = d.sample(&mut rng);
            assert!(x >= 0.0, "negative sample from {d:?}");
            sum += x;
            sumsq += x * x;
        }
        let m = sum / n as f64;
        let m2 = sumsq / n as f64;
        let c2 = (m2 - m * m) / (m * m);
        assert!(
            (m - d.mean()).abs() / d.mean() < tol_mean,
            "{d:?}: sample mean {m} vs analytic {}",
            d.mean()
        );
        assert!(
            (c2 - d.c2()).abs() < tol_c2 * d.c2().max(0.05),
            "{d:?}: sample c2 {c2} vs analytic {}",
            d.c2()
        );
    }

    #[test]
    fn deterministic() {
        let d = Dist::constant(4.0);
        assert_eq!(d.mean(), 4.0);
        assert_eq!(d.c2(), 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        assert_eq!(d.sample(&mut rng), 4.0);
    }

    #[test]
    fn exponential_moments() {
        let d = Dist::exp(0.5);
        assert_eq!(d.c2(), 1.0);
        check_moments(&d, 2, 300_000, 0.01, 0.05);
    }

    #[test]
    fn erlang_moments() {
        let d = Dist::Erlang { k: 4, mean: 2.0 };
        assert!((d.c2() - 0.25).abs() < 1e-12);
        check_moments(&d, 3, 200_000, 0.01, 0.05);
    }

    #[test]
    fn uniform_moments() {
        let d = Dist::Uniform { lo: 1.0, hi: 3.0 };
        assert!((d.mean() - 2.0).abs() < 1e-12);
        check_moments(&d, 4, 200_000, 0.01, 0.05);
    }

    #[test]
    fn h2_fit_matches_target_c2() {
        for &c2 in &[1.0, 2.0, 5.0, 10.0, 15.0, 25.0] {
            let d = Dist::fit_h2(0.2, c2);
            assert!(
                (d.mean() - 0.2).abs() < 1e-12,
                "mean off for c2={c2}: {}",
                d.mean()
            );
            assert!(
                (d.c2() - c2).abs() < 1e-9,
                "c2 off: want {c2} got {}",
                d.c2()
            );
        }
    }

    #[test]
    fn h2_sampled_moments() {
        let d = Dist::fit_h2(1.0, 10.0);
        check_moments(&d, 5, 2_000_000, 0.02, 0.10);
    }

    #[test]
    fn bounded_pareto_moments() {
        let d = Dist::BoundedPareto {
            lo: 0.1,
            hi: 100.0,
            alpha: 1.5,
        };
        check_moments(&d, 6, 2_000_000, 0.03, 0.25);
    }

    #[test]
    fn with_mean_preserves_c2() {
        let d = Dist::fit_h2(1.0, 15.0);
        let d2 = d.with_mean(0.01);
        assert!((d2.mean() - 0.01).abs() < 1e-12);
        assert!((d2.c2() - 15.0).abs() < 1e-9);
        let p = Dist::BoundedPareto {
            lo: 0.1,
            hi: 10.0,
            alpha: 1.3,
        };
        let p2 = p.with_mean(5.0 * p.mean());
        assert!((p2.c2() - p.c2()).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "H2 requires")]
    fn h2_rejects_low_c2() {
        Dist::fit_h2(1.0, 0.5);
    }
}
