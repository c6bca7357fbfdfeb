//! Online and batch statistics.
//!
//! The controller's observation phase (paper §4.3) needs mean response time
//! and throughput estimates *with confidence intervals* so it only reacts
//! to stable measurements; the workload characterization (§3.2) needs the
//! squared coefficient of variation C². Both live here.

/// Welford's online algorithm for running mean/variance, plus C².
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one observation.
    #[inline]
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Sample standard deviation.
    pub fn std_dev(&self) -> f64 {
        self.variance().sqrt()
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

    /// Merge another accumulator into this one (parallel Welford).
    pub fn merge(&mut self, other: &Welford) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n1 = self.n as f64;
        let n2 = other.n as f64;
        let d = other.mean - self.mean;
        let n = n1 + n2;
        self.mean += d * n2 / n;
        self.m2 += other.m2 + d * d * n1 * n2 / n;
        self.n += other.n;
    }

    /// Two-sided confidence interval for the mean at the given level
    /// (`0.95` or `0.99`), using a Student-t critical value.
    pub fn confidence_interval(&self, level: f64) -> ConfidenceInterval {
        let half = if self.n < 2 {
            f64::INFINITY
        } else {
            t_critical(self.n - 1, level) * self.std_dev() / (self.n as f64).sqrt()
        };
        ConfidenceInterval {
            mean: self.mean(),
            half_width: half,
            level,
        }
    }
}

/// A symmetric confidence interval around a sample mean.
#[derive(Debug, Clone, Copy)]
pub struct ConfidenceInterval {
    /// Point estimate.
    pub mean: f64,
    /// Half-width of the interval (`mean ± half_width`).
    pub half_width: f64,
    /// Confidence level the interval was built for.
    pub level: f64,
}

impl ConfidenceInterval {
    /// Relative half-width `half_width / mean`; infinite when the mean is 0.
    pub fn relative_half_width(&self) -> f64 {
        if self.mean == 0.0 {
            f64::INFINITY
        } else {
            (self.half_width / self.mean).abs()
        }
    }
}

/// Two-sided Student-t critical value for `df` degrees of freedom.
///
/// Table-interpolated for the levels the controller uses (0.90/0.95/0.99);
/// falls back to the normal quantile for large `df`, which is exact in the
/// limit and within 1% for df ≥ 30.
fn t_critical(df: u64, level: f64) -> f64 {
    // Rows: df 1..=30 selected; columns for levels.
    const DF: [u64; 12] = [1, 2, 3, 4, 5, 6, 8, 10, 15, 20, 25, 30];
    const T90: [f64; 12] = [
        6.314, 2.920, 2.353, 2.132, 2.015, 1.943, 1.860, 1.812, 1.753, 1.725, 1.708, 1.697,
    ];
    const T95: [f64; 12] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.306, 2.228, 2.131, 2.086, 2.060, 2.042,
    ];
    const T99: [f64; 12] = [
        63.657, 9.925, 5.841, 4.604, 4.032, 3.707, 3.355, 3.169, 2.947, 2.845, 2.787, 2.750,
    ];
    let (table, z) = if level >= 0.985 {
        (&T99, 2.576)
    } else if level >= 0.925 {
        (&T95, 1.960)
    } else {
        (&T90, 1.645)
    };
    if df > 30 {
        return z;
    }
    // Find bracketing rows and interpolate linearly in 1/df.
    let mut i = 0;
    while i + 1 < DF.len() && DF[i + 1] <= df {
        i += 1;
    }
    if DF[i] == df || i + 1 == DF.len() {
        return table[i];
    }
    let (d0, d1) = (DF[i] as f64, DF[i + 1] as f64);
    let w = (1.0 / df as f64 - 1.0 / d1) / (1.0 / d0 - 1.0 / d1);
    table[i + 1] + w * (table[i] - table[i + 1])
}

/// Replication statistics: one [`Welford`] accumulator per named metric,
/// fed by repeated runs of the same experiment under different seeds.
///
/// The sweep executor pushes every scalar a run reports (throughput, mean
/// response time, ...) once per replication; figure tables then render
/// `mean ± half-width` cells from [`Replications::ci`]. Keys keep
/// insertion order so reports are deterministic, and lookups are linear —
/// a run reports tens of metrics, not thousands.
#[derive(Debug, Clone, Default)]
pub struct Replications {
    metrics: Vec<(String, Welford)>,
}

impl Replications {
    /// An empty aggregator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one replication's value for `key`.
    pub fn push(&mut self, key: &str, value: f64) {
        match self.metrics.iter_mut().find(|(k, _)| k == key) {
            Some((_, w)) => w.push(value),
            None => {
                let mut w = Welford::new();
                w.push(value);
                self.metrics.push((key.to_string(), w));
            }
        }
    }

    /// The accumulator for `key`, if any replication reported it.
    pub fn get(&self, key: &str) -> Option<&Welford> {
        self.metrics.iter().find(|(k, _)| k == key).map(|(_, w)| w)
    }

    /// Mean of `key` over replications (0 when unreported).
    pub fn mean(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, Welford::mean)
    }

    /// Unbiased variance of `key` over replications (0 when unreported).
    pub fn variance(&self, key: &str) -> f64 {
        self.get(key).map_or(0.0, Welford::variance)
    }

    /// Student-t confidence interval for the mean of `key`. With a single
    /// replication the half-width is infinite — the caller should print
    /// the point estimate alone.
    pub fn ci(&self, key: &str, level: f64) -> ConfidenceInterval {
        match self.get(key) {
            Some(w) => w.confidence_interval(level),
            None => ConfidenceInterval {
                mean: 0.0,
                half_width: f64::INFINITY,
                level,
            },
        }
    }

    /// Number of replications recorded for `key`.
    pub fn count(&self, key: &str) -> u64 {
        self.get(key).map_or(0, Welford::count)
    }

    /// Metric names in insertion order.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.metrics.iter().map(|(k, _)| k.as_str())
    }

    /// Render both CI flavors for `key`: the cross-replication Student-t
    /// interval, and — when the runs reported a companion
    /// `<key>_bm_hw` metric (the per-run batch-means half-width, see
    /// [`BatchMeans`]) — the mean per-run interval next to it. The two
    /// answer different questions: the replication CI bounds seed-to-seed
    /// variability, the batch-means CI bounds within-run estimation error
    /// of a single long run.
    pub fn summary(&self, key: &str, level: f64) -> String {
        let ci = self.ci(key, level);
        let pct = (level * 100.0).round() as u32;
        let mut out = if ci.half_width.is_finite() {
            format!(
                "{} = {:.6} ±{:.6} ({}% CI, {} reps)",
                key,
                ci.mean,
                ci.half_width,
                pct,
                self.count(key)
            )
        } else {
            format!("{} = {:.6} ({} rep)", key, ci.mean, self.count(key))
        };
        let bm = self.mean(&format!("{key}_bm_hw"));
        if bm.is_finite() && bm > 0.0 {
            out.push_str(&format!(" [per-run batch-means ±{bm:.6}]"));
        }
        out
    }
}

/// Batch-means confidence intervals for a *single* long run.
///
/// Consecutive observations of a steady-state simulation are
/// autocorrelated, so a naive Welford CI over them is too narrow. The
/// classic fix — and what the controller's observation windows already do
/// implicitly — is to group consecutive observations into fixed-size
/// batches and treat the batch means as (approximately) independent
/// samples. This accumulator does exactly that: `push` observations in
/// arrival order, and [`BatchMeans::ci`] returns a Student-t interval over
/// the completed batch means. A trailing partial batch is ignored.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current: Welford,
    batches: Welford,
}

impl BatchMeans {
    /// An accumulator grouping observations into batches of `batch_size`
    /// (must be nonzero).
    pub fn new(batch_size: u64) -> BatchMeans {
        assert!(batch_size > 0, "batch size must be nonzero");
        BatchMeans {
            batch_size,
            current: Welford::new(),
            batches: Welford::new(),
        }
    }

    /// Add one observation, in arrival order.
    pub fn push(&mut self, x: f64) {
        self.current.push(x);
        if self.current.count() == self.batch_size {
            self.batches.push(self.current.mean());
            self.current = Welford::new();
        }
    }

    /// Number of completed batches.
    pub fn batches(&self) -> u64 {
        self.batches.count()
    }

    /// Mean over the completed batches (0 when none completed).
    pub fn mean(&self) -> f64 {
        self.batches.mean()
    }

    /// Student-t confidence interval over the completed batch means.
    /// Infinite half-width with fewer than two completed batches.
    pub fn ci(&self, level: f64) -> ConfidenceInterval {
        self.batches.confidence_interval(level)
    }
}

/// A batch of samples supporting percentile queries.
///
/// Stores the raw values; fine for the experiment scales in this workspace
/// (at most a few million samples per run).
#[derive(Debug, Clone, Default)]
pub struct SampleSet {
    values: Vec<f64>,
    sorted: bool,
}

impl SampleSet {
    /// An empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.values.push(x);
        self.sorted = false;
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// True if no samples have been recorded.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest-rank on the sorted data.
    pub fn percentile(&mut self, q: f64) -> f64 {
        if self.values.is_empty() {
            return 0.0;
        }
        if !self.sorted {
            self.values
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
            self.sorted = true;
        }
        let idx = ((self.values.len() as f64 - 1.0) * q.clamp(0.0, 1.0)).round() as usize;
        self.values[idx]
    }

    /// Maximum sample (0 when empty).
    pub fn max(&self) -> f64 {
        self.values.iter().cloned().fold(0.0, f64::max)
    }

    /// Squared coefficient of variation of the samples.
    pub fn c2(&self) -> f64 {
        let n = self.values.len();
        if n < 2 {
            return 0.0;
        }
        let m = self.mean();
        let var = self.values.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (n - 1) as f64;
        if m == 0.0 {
            0.0
        } else {
            var / (m * m)
        }
    }
}

/// Time-weighted average of a piecewise-constant signal, e.g. resource
/// utilization or queue length over simulated time.
#[derive(Debug, Clone, Default)]
pub struct TimeWeighted {
    last_t: f64,
    last_v: f64,
    area: f64,
    span: f64,
    started: bool,
}

impl TimeWeighted {
    /// An empty accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record that the signal changed to `value` at time `t` (seconds).
    pub fn update(&mut self, t: f64, value: f64) {
        if self.started {
            let dt = (t - self.last_t).max(0.0);
            self.area += self.last_v * dt;
            self.span += dt;
        }
        self.last_t = t;
        self.last_v = value;
        self.started = true;
    }

    /// Close the window at time `t` and return the time average so far.
    pub fn finish(&mut self, t: f64) -> f64 {
        self.update(t, self.last_v);
        self.average()
    }

    /// Time average over the observed span (0 if the span is empty).
    pub fn average(&self) -> f64 {
        if self.span == 0.0 {
            0.0
        } else {
            self.area / self.span
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_batch() {
        let xs = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let mut w = Welford::new();
        for &x in &xs {
            w.push(x);
        }
        assert_eq!(w.count(), 8);
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // batch unbiased variance = 32/7
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn welford_merge_equals_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin() + 2.0).collect();
        let mut all = Welford::new();
        for &x in &xs {
            all.push(x);
        }
        let mut a = Welford::new();
        let mut b = Welford::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - all.mean()).abs() < 1e-10);
        assert!((a.variance() - all.variance()).abs() < 1e-10);
    }

    #[test]
    fn c2_of_exponential_samples_near_one() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(1);
        let mut w = Welford::new();
        for _ in 0..300_000 {
            w.push(rng.exp(3.0));
        }
        assert!((w.c2() - 1.0).abs() < 0.03, "c2 {}", w.c2());
    }

    #[test]
    fn confidence_interval_shrinks_with_n() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(2);
        let mut w = Welford::new();
        for _ in 0..20 {
            w.push(rng.uniform());
        }
        let wide = w.confidence_interval(0.95).half_width;
        for _ in 0..2000 {
            w.push(rng.uniform());
        }
        let narrow = w.confidence_interval(0.95).half_width;
        assert!(narrow < wide / 5.0, "wide {wide} narrow {narrow}");
    }

    #[test]
    fn t_critical_reference_values() {
        assert!((t_critical(1, 0.95) - 12.706).abs() < 1e-3);
        assert!((t_critical(10, 0.95) - 2.228).abs() < 1e-3);
        assert!((t_critical(1000, 0.95) - 1.960).abs() < 1e-3);
        assert!((t_critical(5, 0.99) - 4.032).abs() < 1e-3);
        assert!((t_critical(30, 0.90) - 1.697).abs() < 1e-3);
        // interpolated row: df=12 should be between df=10 and df=15 values
        let t12 = t_critical(12, 0.95);
        assert!(t12 < 2.228 && t12 > 2.131, "t12 {t12}");
    }

    #[test]
    fn empty_welford_ci_is_infinite() {
        let w = Welford::new();
        assert!(w.confidence_interval(0.95).half_width.is_infinite());
        assert_eq!(
            w.confidence_interval(0.95).relative_half_width(),
            f64::INFINITY
        );
    }

    #[test]
    fn replications_aggregate_named_metrics() {
        let mut r = Replications::new();
        for seed in 0..5 {
            r.push("throughput", 100.0 + seed as f64);
            r.push("mean_rt", 0.5);
        }
        assert_eq!(r.count("throughput"), 5);
        assert!((r.mean("throughput") - 102.0).abs() < 1e-12);
        assert!((r.variance("throughput") - 2.5).abs() < 1e-12);
        // Constant metric: zero-width interval.
        let ci = r.ci("mean_rt", 0.95);
        assert!((ci.mean - 0.5).abs() < 1e-12 && ci.half_width < 1e-12);
        // t-based CI for the varying metric: ±(2.776 · s/√5) at df=4.
        let ci = r.ci("throughput", 0.95);
        let want = 2.776 * (2.5f64).sqrt() / 5f64.sqrt();
        assert!((ci.half_width - want).abs() < 1e-3, "hw {}", ci.half_width);
        // Unreported keys degrade gracefully.
        assert_eq!(r.count("nope"), 0);
        assert!(r.ci("nope", 0.95).half_width.is_infinite());
        assert_eq!(r.keys().collect::<Vec<_>>(), ["throughput", "mean_rt"]);
    }

    #[test]
    fn single_replication_ci_is_infinite() {
        let mut r = Replications::new();
        r.push("x", 1.0);
        assert!(r.ci("x", 0.95).half_width.is_infinite());
    }

    #[test]
    fn batch_means_needs_two_batches_for_a_finite_ci() {
        let mut bm = BatchMeans::new(10);
        for i in 0..19 {
            bm.push(i as f64);
        }
        // One completed batch + a partial one: no interval yet.
        assert_eq!(bm.batches(), 1);
        assert!(bm.ci(0.95).half_width.is_infinite());
        bm.push(19.0);
        assert_eq!(bm.batches(), 2);
        assert!(bm.ci(0.95).half_width.is_finite());
    }

    /// The satellite requirement: on an M/M/1-style run (autocorrelated
    /// response times from one long simulated sample path) the batch-means
    /// window CI must bracket the known analytic mean 1/(μ − λ).
    #[test]
    fn batch_means_ci_brackets_mm1_analytic_mean() {
        use crate::rng::SimRng;
        let (lambda, mu) = (0.8, 1.0);
        let analytic = 1.0 / (mu - lambda); // M/M/1 mean response time = 5.0
        let mut rng = SimRng::seed_from_u64(7);
        // Lindley recursion: W_{k+1} = max(0, W_k + S_k − A_{k+1});
        // response time = wait + own service.
        let mut bm = BatchMeans::new(2_000);
        let mut w = 0.0f64;
        for _ in 0..400_000 {
            let s = rng.exp(1.0 / mu);
            bm.push(w + s);
            let a = rng.exp(1.0 / lambda);
            w = (w + s - a).max(0.0);
        }
        let ci = bm.ci(0.95);
        assert!(bm.batches() >= 100);
        assert!(
            (ci.mean - analytic).abs() <= ci.half_width,
            "CI {:.3} ±{:.3} must bracket analytic {analytic}",
            ci.mean,
            ci.half_width
        );
        // And the interval is informative, not vacuous.
        assert!(ci.half_width < 0.5 * analytic, "hw {}", ci.half_width);
    }

    #[test]
    fn batch_means_on_iid_samples_matches_plain_welford_mean() {
        use crate::rng::SimRng;
        let mut rng = SimRng::seed_from_u64(3);
        let mut bm = BatchMeans::new(100);
        let mut w = Welford::new();
        for _ in 0..50_000 {
            let x = rng.exp(0.5);
            bm.push(x);
            w.push(x);
        }
        assert!((bm.mean() - w.mean()).abs() < 1e-12);
    }

    #[test]
    fn replications_summary_prints_both_ci_flavors() {
        let mut r = Replications::new();
        for seed in 0..4 {
            r.push("mean_rt", 0.5 + 0.01 * seed as f64);
            r.push("mean_rt_bm_hw", 0.02);
        }
        let s = r.summary("mean_rt", 0.95);
        assert!(s.contains('±'), "cross-replication CI missing: {s}");
        assert!(s.contains("batch-means"), "per-run CI flavor missing: {s}");
        assert!(s.contains("4 reps"), "rep count missing: {s}");
        // Without the companion metric only one flavor appears.
        let mut lone = Replications::new();
        lone.push("throughput", 100.0);
        lone.push("throughput", 101.0);
        let s = lone.summary("throughput", 0.95);
        assert!(s.contains('±') && !s.contains("batch-means"), "{s}");
    }

    #[test]
    fn percentiles() {
        let mut s = SampleSet::new();
        for i in 1..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.0), 1.0);
        assert_eq!(s.percentile(1.0), 100.0);
        assert!((s.percentile(0.5) - 50.0).abs() <= 1.0);
        assert!((s.percentile(0.95) - 95.0).abs() <= 1.0);
        assert_eq!(s.max(), 100.0);
    }

    #[test]
    fn sampleset_c2() {
        let mut s = SampleSet::new();
        for &x in &[1.0, 1.0, 1.0, 1.0] {
            s.push(x);
        }
        assert_eq!(s.c2(), 0.0);
    }

    #[test]
    fn time_weighted_average() {
        let mut tw = TimeWeighted::new();
        tw.update(0.0, 1.0); // value 1 on [0, 2)
        tw.update(2.0, 3.0); // value 3 on [2, 4)
        let avg = tw.finish(4.0);
        assert!((avg - 2.0).abs() < 1e-12, "avg {avg}");
    }

    #[test]
    fn time_weighted_empty_is_zero() {
        let tw = TimeWeighted::new();
        assert_eq!(tw.average(), 0.0);
    }
}
