//! Named-metric registry: counters, gauges, and log-bucketed histograms
//! with a deterministic, versioned snapshot encoding.
//!
//! Storage is `BTreeMap`-keyed, so the snapshot renders metrics in name
//! order regardless of registration or update order — identical metric
//! state always produces byte-identical snapshot text (a property test
//! pins this). The registry is internally locked and shared by `&self`,
//! so sweep workers on many threads can feed one instance; it is meant
//! for the orchestration layer (sweep executor, figures CLI), not the
//! simulator inner loop, which uses the allocation-free
//! [`TraceSink`](crate::TraceSink) path instead.
//!
//! The snapshot follows the workspace's hand-rolled line-oriented JSON
//! idiom (the workspace has no serialization library): schema string
//! `xsched-metrics-v1`, one object literal per metric. Gauges carry
//! both a human-readable decimal and the exact IEEE bit pattern;
//! histograms carry their exact bucket state alongside the p50/p95/p99
//! readout, so no precision is lost to formatting.

use crate::hist::LogHistogram;
use std::collections::BTreeMap;
use std::sync::Mutex;

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, f64>,
    hists: BTreeMap<String, LogHistogram>,
}

/// A thread-safe registry of named counters, gauges, and histograms.
#[derive(Debug, Default)]
pub struct MetricsRegistry {
    inner: Mutex<RegistryInner>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    /// Add `n` to the named counter (created at zero on first use).
    pub fn counter_add(&self, name: &str, n: u64) {
        let mut g = self.inner.lock().unwrap();
        *g.counters.entry(name.to_string()).or_insert(0) += n;
    }

    /// Current value of a counter (0 if never touched).
    pub fn counter(&self, name: &str) -> u64 {
        self.inner
            .lock()
            .unwrap()
            .counters
            .get(name)
            .copied()
            .unwrap_or(0)
    }

    /// Set the named gauge.
    pub fn gauge_set(&self, name: &str, v: f64) {
        self.inner
            .lock()
            .unwrap()
            .gauges
            .insert(name.to_string(), v);
    }

    /// Add `v` to the named gauge (created at zero on first use).
    pub fn gauge_add(&self, name: &str, v: f64) {
        let mut g = self.inner.lock().unwrap();
        *g.gauges.entry(name.to_string()).or_insert(0.0) += v;
    }

    /// Raise the named gauge to `v` if `v` is larger (straggler /
    /// high-watermark tracking).
    pub fn gauge_max(&self, name: &str, v: f64) {
        let mut g = self.inner.lock().unwrap();
        let e = g.gauges.entry(name.to_string()).or_insert(f64::MIN);
        if v > *e {
            *e = v;
        }
    }

    /// Current value of a gauge (`None` if never set).
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.inner.lock().unwrap().gauges.get(name).copied()
    }

    /// Record one sample into the named histogram.
    pub fn hist_record(&self, name: &str, v: f64) {
        let mut g = self.inner.lock().unwrap();
        g.hists.entry(name.to_string()).or_default().record(v);
    }

    /// A clone of the named histogram (`None` if never touched).
    pub fn hist(&self, name: &str) -> Option<LogHistogram> {
        self.inner.lock().unwrap().hists.get(name).cloned()
    }

    /// One JSON object literal per metric, sorted by kind then name —
    /// the building blocks callers embed in larger snapshot documents.
    pub fn encode_entries(&self) -> Vec<String> {
        let g = self.inner.lock().unwrap();
        let mut out = Vec::with_capacity(g.counters.len() + g.gauges.len() + g.hists.len());
        for (name, v) in &g.counters {
            out.push(format!(
                "{{\"name\": \"{}\", \"kind\": \"counter\", \"value\": {v}}}",
                json_safe(name)
            ));
        }
        for (name, v) in &g.gauges {
            out.push(format!(
                "{{\"name\": \"{}\", \"kind\": \"gauge\", \"value\": {v:.6}, \"bits\": \"{:016x}\"}}",
                json_safe(name),
                v.to_bits()
            ));
        }
        for (name, h) in &g.hists {
            out.push(format!(
                "{{\"name\": \"{}\", \"kind\": \"histogram\", \"count\": {}, \"p50\": {:.9}, \"p95\": {:.9}, \"p99\": {:.9}, \"buckets\": \"{}\"}}",
                json_safe(name),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.95),
                h.quantile(0.99),
                h.encode_buckets()
            ));
        }
        out
    }

    /// The standalone `xsched-metrics-v1` snapshot document.
    pub fn snapshot(&self) -> String {
        let entries = self.encode_entries();
        let mut out = String::from("{\n  \"schema\": \"xsched-metrics-v1\",\n  \"metrics\": [\n");
        for (i, e) in entries.iter().enumerate() {
            out.push_str("    ");
            out.push_str(e);
            out.push_str(if i + 1 < entries.len() { ",\n" } else { "\n" });
        }
        out.push_str("  ]\n}\n");
        out
    }
}

/// Metric names are generated from identifiers; strip anything that
/// would need JSON escaping rather than growing an escaper.
fn json_safe(name: &str) -> String {
    name.chars()
        .filter(|c| c.is_ascii() && *c != '"' && *c != '\\')
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_gauges_and_histograms_round_through() {
        let r = MetricsRegistry::new();
        r.counter_add("tasks", 2);
        r.counter_add("tasks", 3);
        assert_eq!(r.counter("tasks"), 5);
        assert_eq!(r.counter("never"), 0);

        r.gauge_set("load", 0.5);
        r.gauge_add("load", 0.25);
        assert_eq!(r.gauge("load"), Some(0.75));
        r.gauge_max("peak", 1.0);
        r.gauge_max("peak", 0.5);
        assert_eq!(r.gauge("peak"), Some(1.0));

        for v in [0.1, 0.2, 0.4] {
            r.hist_record("rt", v);
        }
        assert_eq!(r.hist("rt").unwrap().count(), 3);
    }

    #[test]
    fn snapshot_is_name_ordered_and_update_order_independent() {
        let a = {
            let r = MetricsRegistry::new();
            r.counter_add("b_counter", 7);
            r.counter_add("a_counter", 1);
            r.gauge_set("z_gauge", 2.5);
            r.hist_record("m_hist", 0.125);
            r.snapshot()
        };
        let b = {
            let r = MetricsRegistry::new();
            r.hist_record("m_hist", 0.125);
            r.gauge_set("z_gauge", 2.5);
            r.counter_add("a_counter", 1);
            r.counter_add("b_counter", 7);
            r.snapshot()
        };
        assert_eq!(a, b, "snapshot must not depend on update order");
        assert!(a.contains("xsched-metrics-v1"));
        let ai = a.find("a_counter").unwrap();
        let bi = a.find("b_counter").unwrap();
        assert!(ai < bi, "entries sorted by name");
    }

    #[test]
    fn snapshot_carries_exact_bits() {
        let r = MetricsRegistry::new();
        r.gauge_set("g", 0.1 + 0.2);
        let snap = r.snapshot();
        assert!(
            snap.contains(&format!("{:016x}", (0.1f64 + 0.2).to_bits())),
            "{snap}"
        );
    }
}
