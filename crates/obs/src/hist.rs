//! Deterministic log-bucketed histogram.
//!
//! Buckets are derived from the IEEE-754 bit pattern of the sample —
//! the exponent selects a binade and the top [`SUB_BITS`] mantissa bits
//! split it into [`SUB_BUCKETS`] log-linear sub-buckets — so bucketing
//! is pure integer math: no float comparisons, no platform-dependent
//! rounding, and a relative quantization error bounded by one
//! sub-bucket (≈ 2.2% at 32 sub-buckets per binade). Counts live in a
//! `BTreeMap`, which makes readout order, quantile selection, and the
//! encoded state deterministic, and makes [`LogHistogram::merge`] a
//! plain bucket-count addition — associative and commutative by
//! construction (a property test pins this).

use std::collections::BTreeMap;

/// Mantissa bits used for sub-bucketing within one binade.
pub const SUB_BITS: u32 = 5;
/// Sub-buckets per power of two (`2^SUB_BITS`).
pub const SUB_BUCKETS: u32 = 1 << SUB_BITS;

/// A merge-friendly histogram over non-negative `f64` samples with
/// deterministic p50/p95/p99 readout.
///
/// Zero, negative, and NaN samples land in the reserved bucket 0 (their
/// representative value is 0.0); `+inf` is clamped to `f64::MAX`.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LogHistogram {
    /// Sparse bucket counts, keyed by bucket index.
    buckets: BTreeMap<u32, u64>,
    /// Total number of recorded samples.
    count: u64,
}

impl LogHistogram {
    /// An empty histogram.
    pub fn new() -> LogHistogram {
        LogHistogram::default()
    }

    /// Bucket index of a sample: `1 + (exponent << SUB_BITS | top
    /// mantissa bits)` for finite positive values, 0 for everything
    /// that is not one.
    pub fn bucket_index(v: f64) -> u32 {
        if v <= 0.0 || v.is_nan() {
            return 0;
        }
        let v = v.min(f64::MAX);
        let bits = v.to_bits(); // sign bit is 0: v > 0
        let exp = (bits >> 52) as u32; // 11 bits
        let sub = ((bits >> (52 - SUB_BITS)) & u64::from(SUB_BUCKETS - 1)) as u32;
        1 + (exp << SUB_BITS | sub)
    }

    /// Representative value of a bucket: the arithmetic midpoint of its
    /// bounds (0.0 for the reserved bucket 0). Reconstructed from the
    /// index by pure bit assembly, so it is identical on every platform.
    pub fn bucket_value(index: u32) -> f64 {
        if index == 0 {
            return 0.0;
        }
        let key = u64::from(index - 1);
        let lo_bits = key << (52 - SUB_BITS);
        let lo = f64::from_bits(lo_bits);
        let hi = f64::from_bits(lo_bits + (1u64 << (52 - SUB_BITS)));
        if !hi.is_finite() {
            return lo.min(f64::MAX);
        }
        lo + (hi - lo) / 2.0
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: f64) {
        *self.buckets.entry(Self::bucket_index(v)).or_insert(0) += 1;
        self.count += 1;
    }

    /// Total number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// True if nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Fold another histogram into this one. Pure bucket-count
    /// addition: associative, commutative, and identity-preserving, so
    /// per-shard histograms merge to the same state in any order.
    pub fn merge(&mut self, other: &LogHistogram) {
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        self.count += other.count;
    }

    /// Deterministic nearest-rank quantile: the representative value of
    /// the bucket holding the `ceil(q·count)`-th smallest sample.
    /// Returns 0.0 for an empty histogram; `q` is clamped to `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let q = q.clamp(0.0, 1.0);
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                return Self::bucket_value(k);
            }
        }
        unreachable!("cumulative bucket counts must reach the total");
    }

    /// Exact bucket state as a compact `index:count;…` string (empty
    /// string for an empty histogram) — the canonical wire/snapshot
    /// form; byte-identical iff the histograms are equal.
    pub fn encode_buckets(&self) -> String {
        let mut out = String::new();
        for (i, (&k, &n)) in self.buckets.iter().enumerate() {
            if i > 0 {
                out.push(';');
            }
            out.push_str(&format!("{k}:{n}"));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn buckets_are_log_spaced_and_deterministic() {
        // Same binade, far-apart values → different buckets; a value and
        // a copy → same bucket.
        assert_eq!(
            LogHistogram::bucket_index(1.0),
            LogHistogram::bucket_index(1.0)
        );
        assert_ne!(
            LogHistogram::bucket_index(1.0),
            LogHistogram::bucket_index(1.9)
        );
        assert_ne!(
            LogHistogram::bucket_index(1.0),
            LogHistogram::bucket_index(2.0)
        );
        // Degenerate inputs all collapse into bucket 0.
        for v in [0.0, -1.0, f64::NAN, f64::NEG_INFINITY] {
            assert_eq!(LogHistogram::bucket_index(v), 0, "{v}");
        }
        // +inf clamps to the MAX bucket rather than producing NaN math.
        let inf = LogHistogram::bucket_index(f64::INFINITY);
        assert_eq!(inf, LogHistogram::bucket_index(f64::MAX));
        assert!(LogHistogram::bucket_value(inf).is_finite());
    }

    #[test]
    fn representative_is_within_one_sub_bucket() {
        for &v in &[1e-9, 0.001, 0.1, 1.0, 3.7, 42.0, 1e6, 1e300] {
            let rep = LogHistogram::bucket_value(LogHistogram::bucket_index(v));
            let rel = (rep - v).abs() / v;
            assert!(rel < 1.0 / SUB_BUCKETS as f64, "{v} -> {rep} ({rel})");
        }
    }

    #[test]
    fn quantiles_walk_the_cumulative_distribution() {
        let mut h = LogHistogram::new();
        for i in 1..=1000 {
            h.record(i as f64);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile(0.50);
        let p95 = h.quantile(0.95);
        let p99 = h.quantile(0.99);
        assert!(p50 < p95 && p95 < p99);
        assert!((p50 - 500.0).abs() / 500.0 < 0.05, "p50 {p50}");
        assert!((p95 - 950.0).abs() / 950.0 < 0.05, "p95 {p95}");
        assert!((p99 - 990.0).abs() / 990.0 < 0.05, "p99 {p99}");
        assert_eq!(LogHistogram::new().quantile(0.95), 0.0);
    }

    #[test]
    fn merge_equals_recording_everything_in_one() {
        let vals: Vec<f64> = (0..500).map(|i| 0.01 * (i as f64 + 1.0)).collect();
        let mut whole = LogHistogram::new();
        let (mut a, mut b) = (LogHistogram::new(), LogHistogram::new());
        for (i, &v) in vals.iter().enumerate() {
            whole.record(v);
            if i % 2 == 0 {
                a.record(v)
            } else {
                b.record(v)
            }
        }
        let mut merged = LogHistogram::new();
        merged.merge(&b);
        merged.merge(&a);
        assert_eq!(merged, whole);
        assert_eq!(merged.encode_buckets(), whole.encode_buckets());
    }

    #[test]
    fn encode_buckets_is_exact_state() {
        let mut h = LogHistogram::new();
        h.record(1.0);
        h.record(1.0);
        h.record(-3.0);
        let enc = h.encode_buckets();
        assert!(enc.starts_with("0:1;"), "{enc}");
        assert!(enc.ends_with(":2"), "{enc}");
        assert!(LogHistogram::new().encode_buckets().is_empty());
    }
}
