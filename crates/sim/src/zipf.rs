//! Zipf-distributed integer sampling.
//!
//! Database page and lock-item accesses are skewed: a small set of hot rows
//! (warehouse rows in TPC-C, best-seller items in TPC-W) receives most of
//! the traffic. We model that with a Zipf(θ) law over `n` items. θ = 0 is
//! uniform; larger θ concentrates mass on low-numbered items.
//!
//! Sampling uses a precomputed CDF for small `n`, and the
//! rejection-inversion-free two-segment approximation ("hot set + uniform
//! tail") for large `n` where materializing the CDF would be wasteful.
//! The approximation keeps the head of the distribution exact (first
//! `HOT_EXACT` items) which is what matters for lock contention.
//!
//! A head draw is the first CDF entry not below the target — what a
//! binary search (`partition_point(|c| c < target)`) returns — found in
//! O(1) expected steps by an indexed search (Chen & Asau): a guide table
//! of `K + 1` entries, `K` a power of two at least the head length,
//! holds `guide[j] = partition_point(|c| c < j/K)`, and a draw scans
//! forward from `guide[⌊target·K⌋]`. This is exact, not an
//! approximation: multiplying by a power of two and dividing a small
//! integer by a power of two are exact in binary floating point, so
//! `j = ⌊target·K⌋` satisfies `j/K ≤ target` exactly; the CDF is
//! nondecreasing, so every entry below `j/K` is below the target and the
//! binary search's answer is at or after `guide[j]`; and the forward scan
//! stops at the first entry not below the target, which is that answer.
//! With `K ≥` the head length, a draw scans about one entry on average.

use crate::rng::SimRng;

const HOT_EXACT: usize = 4096;

/// A Zipf(θ) sampler over `{0, 1, ..., n-1}`.
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    /// Exact CDF over the hot head (and the whole domain when n is small).
    head_cdf: Vec<f64>,
    /// `guide[j]` is the first head index whose CDF entry is at least
    /// `j / (guide.len() - 1)`; `guide.len() - 1` is a power of two.
    guide: Vec<u32>,
    /// Probability mass of the head.
    head_mass: f64,
    /// Inverse of the tail's continuous CDF, with every term that does not
    /// depend on the draw precomputed (`None` when the head is the whole
    /// domain).
    tail: Option<Tail>,
}

/// Solves `∫_a^x t^-θ dt = v · ∫_a^b t^-θ dt` for `x` on the tail `[a, b]`.
/// The draw-independent powers are evaluated once, in [`Tail::new`]; a
/// draw then costs one `powf`, and the same libm calls on the same inputs
/// give the same bits as evaluating the whole formula per draw.
#[derive(Debug, Clone, Copy)]
enum Tail {
    /// θ = 1: `a · (b/a)^v`.
    Log { a: f64, ratio: f64 },
    /// θ ≠ 1: `(a^(1-θ) + v · (b^(1-θ) - a^(1-θ)))^(1/(1-θ))`.
    Pow { ia: f64, span: f64, exp: f64 },
}

impl Tail {
    fn new(a: f64, b: f64, theta: f64) -> Tail {
        if (theta - 1.0).abs() < 1e-12 {
            Tail::Log { a, ratio: b / a }
        } else {
            let ia = a.powf(1.0 - theta);
            let ib = b.powf(1.0 - theta);
            Tail::Pow {
                ia,
                span: ib - ia,
                exp: 1.0 / (1.0 - theta),
            }
        }
    }

    #[inline]
    fn invert(self, v: f64) -> f64 {
        match self {
            Tail::Log { a, ratio } => a * ratio.powf(v),
            Tail::Pow { ia, span, exp } => (ia + v * span).powf(exp),
        }
    }
}

impl Zipf {
    /// Build a sampler over `n` items with skew `theta >= 0`.
    pub fn new(n: u64, theta: f64) -> Zipf {
        assert!(n > 0, "Zipf domain must be nonempty");
        assert!(theta >= 0.0, "skew must be nonnegative");
        let head_len = (n as usize).min(HOT_EXACT);
        // Unnormalized weights 1/(i+1)^theta for the head.
        let mut head: Vec<f64> = (0..head_len)
            .map(|i| 1.0 / ((i + 1) as f64).powf(theta))
            .collect();
        // Total mass: exact head + integral approximation of the tail
        // sum_{i=head_len+1..n} i^-theta ~ integral.
        let head_sum: f64 = head.iter().sum();
        let (a, b) = (head_len as f64 + 0.5, n as f64 + 0.5);
        let (tail_sum, tail) = if (n as usize) > head_len {
            (integral_pow(a, b, theta), Some(Tail::new(a, b, theta)))
        } else {
            (0.0, None)
        };
        let total = head_sum + tail_sum;
        let mut acc = 0.0;
        for w in head.iter_mut() {
            acc += *w / total;
            *w = acc;
        }
        let k = head.len().next_power_of_two();
        let mut guide = Vec::with_capacity(k + 1);
        let mut idx = 0;
        for j in 0..=k {
            let edge = j as f64 / k as f64;
            while idx < head.len() && head[idx] < edge {
                idx += 1;
            }
            guide.push(idx as u32);
        }
        Zipf {
            n,
            guide,
            head_cdf: head,
            head_mass: head_sum / total,
            tail,
        }
    }

    /// Number of items in the domain.
    pub fn domain(&self) -> u64 {
        self.n
    }

    /// Draw one item index in `[0, n)`.
    pub fn sample(&self, rng: &mut SimRng) -> u64 {
        let u = rng.uniform();
        match self.tail {
            Some(tail) if u >= self.head_mass => {
                // Tail: invert the continuous approximation of the CDF.
                let v = (u - self.head_mass) / (1.0 - self.head_mass);
                let x = tail.invert(v);
                // `x` is at least the head length + ½ > 0, where the cast's
                // truncation is `floor` without its library call.
                (x as u64).clamp(self.head_cdf.len() as u64, self.n - 1)
            }
            _ => {
                let target = u.min(*self.head_cdf.last().unwrap());
                let idx = self.head_index(target);
                debug_assert_eq!(idx, self.head_cdf.partition_point(|&c| c < target));
                (idx as u64).min(self.n - 1)
            }
        }
    }

    /// The first head index whose CDF entry is not below `target`
    /// (`target ≥ 0`): the guide table's bucket, then a forward scan.
    #[inline]
    fn head_index(&self, target: f64) -> usize {
        let k = self.guide.len() - 1;
        // Exact: `k` is a power of two. The cast floors, and saturates a
        // target of 1 or more into the last bucket.
        let j = ((target * k as f64) as usize).min(k);
        let mut idx = self.guide[j] as usize;
        while idx < self.head_cdf.len() && self.head_cdf[idx] < target {
            idx += 1;
        }
        idx
    }
}

/// ∫_a^b x^-theta dx.
fn integral_pow(a: f64, b: f64, theta: f64) -> f64 {
    if (theta - 1.0).abs() < 1e-12 {
        (b / a).ln()
    } else {
        (b.powf(1.0 - theta) - a.powf(1.0 - theta)) / (1.0 - theta)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Solve for x in [a,b] with ∫_a^x = v · ∫_a^b, every term per call.
    fn invert_integral_pow(a: f64, b: f64, theta: f64, v: f64) -> f64 {
        if (theta - 1.0).abs() < 1e-12 {
            a * (b / a).powf(v)
        } else {
            let ia = a.powf(1.0 - theta);
            let ib = b.powf(1.0 - theta);
            (ia + v * (ib - ia)).powf(1.0 / (1.0 - theta))
        }
    }

    /// The sampler with the tail inversion evaluated per draw and the
    /// head searched by bisection.
    fn reference_sample(z: &Zipf, theta: f64, rng: &mut SimRng) -> u64 {
        let u = rng.uniform();
        if u < z.head_mass || z.head_cdf.len() == z.n as usize {
            let target = u.min(*z.head_cdf.last().unwrap());
            let idx = z.head_cdf.partition_point(|&c| c < target);
            (idx as u64).min(z.n - 1)
        } else {
            let h = z.head_cdf.len() as f64 + 0.5;
            let nn = z.n as f64 + 0.5;
            let v = (u - z.head_mass) / (1.0 - z.head_mass);
            let x = invert_integral_pow(h, nn, theta, v);
            (x.floor() as u64).clamp(z.head_cdf.len() as u64, z.n - 1)
        }
    }

    #[test]
    fn precomputed_tail_matches_the_per_draw_formula() {
        // The workloads' (db_pages, page_theta) pairs, plus an all-head
        // domain and a uniform one; head draws check the guide table.
        let pairs = [
            (40_000, 1.0),
            (600_000, 0.6),
            (100_000, 1.0),
            (30_000, 0.9),
            (200_000, 0.5),
            (50_000, 0.9),
            (1_000, 0.9),
            (1_000_000, 0.0),
        ];
        for (n, theta) in pairs {
            let z = Zipf::new(n, theta);
            let mut fast = SimRng::seed_from_u64(n);
            let mut slow = fast.clone();
            let mut tail_draws = 0;
            for _ in 0..100_000 {
                let x = z.sample(&mut fast);
                assert_eq!(
                    x,
                    reference_sample(&z, theta, &mut slow),
                    "n {n}, θ {theta}"
                );
                tail_draws += usize::from(x >= HOT_EXACT as u64);
            }
            assert_eq!(tail_draws > 0, n > HOT_EXACT as u64, "n {n}, θ {theta}");
            if let Some(tail) = z.tail {
                let (a, b) = (HOT_EXACT as f64 + 0.5, n as f64 + 0.5);
                for k in 0..=1000 {
                    let v = k as f64 / 1000.0;
                    let want = invert_integral_pow(a, b, theta, v);
                    assert_eq!(tail.invert(v).to_bits(), want.to_bits(), "n {n}, v {v}");
                }
            }
        }
    }

    /// The guide-table search returns the binary search's index at the
    /// targets where an off-by-one would show: every bucket edge `j/K`,
    /// the double just below each, zero, the double just below the head
    /// mass, and the last CDF entry (the clamp of an all-head draw).
    #[test]
    fn guide_table_matches_the_binary_search_at_every_edge() {
        let pairs = [
            (40_000, 1.0),
            (600_000, 0.6),
            (100_000, 1.0),
            (30_000, 0.9),
            (200_000, 0.5),
            (50_000, 0.9),
            (1_000, 0.9),
            (4_096, 1.0),
            (1, 0.9),
            (64, 0.0), // every CDF entry is a bucket edge
            (100, 0.0),
            (1_000_000, 0.0),
        ];
        let below = |x: f64| f64::from_bits(x.to_bits() - 1);
        for (n, theta) in pairs {
            let z = Zipf::new(n, theta);
            let k = z.guide.len() - 1;
            assert!(k.is_power_of_two() && k >= z.head_cdf.len(), "n {n}");
            let last = *z.head_cdf.last().unwrap();
            let mut targets = vec![0.0, below(z.head_mass), z.head_mass, last, below(last)];
            for j in 1..=k {
                let edge = j as f64 / k as f64;
                targets.extend([edge, below(edge)]);
            }
            for t in targets {
                let want = z.head_cdf.partition_point(|&c| c < t);
                assert_eq!(z.head_index(t), want, "n {n}, θ {theta}, target {t:e}");
            }
        }
    }

    #[test]
    fn uniform_when_theta_zero() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SimRng::seed_from_u64(1);
        let n = 200_000;
        let mut counts = vec![0u32; 100];
        for _ in 0..n {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        for (i, c) in counts.iter().enumerate() {
            let f = *c as f64 / n as f64;
            assert!((f - 0.01).abs() < 0.004, "item {i}: freq {f}");
        }
    }

    #[test]
    fn skew_concentrates_on_head() {
        let z = Zipf::new(10_000, 0.99);
        let mut rng = SimRng::seed_from_u64(2);
        let n = 100_000;
        let hot = (0..n).filter(|_| z.sample(&mut rng) < 100).count();
        // With theta ~1, the top 1% of items should get a large share.
        let frac = hot as f64 / n as f64;
        assert!(frac > 0.4, "hot fraction {frac}");
    }

    #[test]
    fn all_samples_in_domain() {
        for &(n, theta) in &[(1u64, 0.9), (5, 0.5), (100_000, 1.2), (10_000_000, 0.8)] {
            let z = Zipf::new(n, theta);
            let mut rng = SimRng::seed_from_u64(3);
            for _ in 0..5_000 {
                let s = z.sample(&mut rng);
                assert!(s < n, "sample {s} out of domain {n}");
            }
        }
    }

    #[test]
    fn head_frequencies_match_zipf_law() {
        let n = 1_000_000u64;
        let theta = 1.0;
        let z = Zipf::new(n, theta);
        let mut rng = SimRng::seed_from_u64(4);
        let draws = 400_000;
        let mut c0 = 0u32;
        let mut c1 = 0u32;
        for _ in 0..draws {
            match z.sample(&mut rng) {
                0 => c0 += 1,
                1 => c1 += 1,
                _ => {}
            }
        }
        // item 0 should be drawn about twice as often as item 1.
        let ratio = c0 as f64 / c1 as f64;
        assert!((ratio - 2.0).abs() < 0.3, "ratio {ratio}");
    }

    #[test]
    fn large_domain_tail_is_reachable() {
        let n = 50_000_000u64;
        let z = Zipf::new(n, 0.5);
        let mut rng = SimRng::seed_from_u64(5);
        let mut saw_tail = false;
        for _ in 0..20_000 {
            if z.sample(&mut rng) > n / 2 {
                saw_tail = true;
                break;
            }
        }
        assert!(saw_tail, "low-skew Zipf never reached the tail");
    }
}
