//! Parametric transaction templates and the workload generator.
//!
//! A [`TxnTemplate`] describes one transaction *type* statistically: how
//! many steps it runs, the CPU burst distribution per step, how many pages
//! each step touches, and its locking behaviour. A [`WorkloadSpec`] is a
//! weighted mix of templates over a database of a given size;
//! [`TxnGen`] samples concrete `TxnBody` programs from it.
//!
//! The *intrinsic demand* of a transaction — total CPU plus uncached I/O
//! time — is the quantity whose squared coefficient of variation the paper
//! identifies as the key factor for the response-time-safe MPL (§3.2); the
//! spec exposes both analytic ([`WorkloadSpec::intrinsic_demand_stats`])
//! and sampled views of it.

use xsched_dbms::txn::{ItemId, LockMode, PageId, Priority, Step, TxnBody};
use xsched_sim::zipf::Zipf;
use xsched_sim::{Dist, SimRng};

/// Locking behaviour of a template.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LockProfile {
    /// Probability that a step takes a lock.
    pub lock_prob: f64,
    /// Probability that a taken lock targets the hot item set (e.g. the
    /// warehouse/district rows of TPC-C).
    pub hot_prob: f64,
    /// Probability that a taken lock is exclusive.
    pub write_prob: f64,
    /// Place hot locks in the final quarter of the transaction (real
    /// systems update their hottest rows just before commit, which keeps
    /// hold times short). When false, hot locks sit wherever they were
    /// drawn, giving long holds — the TPC-C NewOrder district pattern.
    pub late_hot: bool,
    /// Probability that a hot exclusive lock is preceded by a shared
    /// acquisition of the same item earlier in the transaction (the
    /// read-then-update pattern). Under Repeatable Read this creates
    /// upgrade deadlocks between concurrent updaters of the same hot row;
    /// under Uncommitted Read the shared half is skipped and the hazard
    /// disappears — the paper's Fig. 5 contrast.
    pub upgrade_prob: f64,
}

impl LockProfile {
    /// A template that never locks (e.g. pure read under UR assumptions).
    pub const NONE: LockProfile = LockProfile {
        lock_prob: 0.0,
        hot_prob: 0.0,
        write_prob: 0.0,
        late_hot: false,
        upgrade_prob: 0.0,
    };

    /// Read-mostly profile: shared locks on regular items.
    pub fn read_mostly(lock_prob: f64) -> LockProfile {
        LockProfile {
            lock_prob,
            hot_prob: 0.0,
            write_prob: 0.0,
            late_hot: false,
            upgrade_prob: 0.0,
        }
    }
}

/// One transaction type.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnTemplate {
    /// Human-readable name ("NewOrder", "BestSeller", ...).
    pub name: &'static str,
    /// Mix weight (need not be normalized across the spec).
    pub weight: f64,
    /// Number of steps.
    pub steps: u32,
    /// CPU demand per step, seconds.
    pub cpu_per_step: Dist,
    /// Pages touched per step.
    pub pages_per_step: u32,
    /// Locking behaviour.
    pub locks: LockProfile,
}

impl TxnTemplate {
    /// Analytic mean of this template's intrinsic demand given the uncached
    /// cost of one page access.
    pub fn intrinsic_mean(&self, io_cost: f64) -> f64 {
        self.steps as f64 * (self.cpu_per_step.mean() + self.pages_per_step as f64 * io_cost)
    }

    /// Analytic variance of the intrinsic demand (steps are iid; the page
    /// count is deterministic so only CPU contributes).
    pub fn intrinsic_variance(&self) -> f64 {
        self.steps as f64 * self.cpu_per_step.variance()
    }
}

/// A complete workload: template mix plus database geometry.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Workload name as used in Table 1 (e.g. "W_CPU-inventory").
    pub name: &'static str,
    /// The transaction mix.
    pub templates: Vec<TxnTemplate>,
    /// Number of distinct pages in the database.
    pub db_pages: u64,
    /// Zipf skew of page accesses.
    pub page_theta: f64,
    /// Size of the hot lockable item set (warehouse/district rows).
    pub hot_items: u64,
    /// Size of the regular lockable item space (customer/order rows).
    pub item_space: u64,
}

impl TxnTemplate {
    /// Write a structural fingerprint of the template (name, weight,
    /// shape, lock profile). Exhaustive destructuring (no `..`): adding
    /// a field without fingerprinting it is a compile error.
    pub fn fingerprint_into(&self, fp: &mut xsched_sim::StableFp) {
        let TxnTemplate {
            name,
            weight,
            steps,
            ref cpu_per_step,
            pages_per_step,
            locks:
                LockProfile {
                    lock_prob,
                    hot_prob,
                    write_prob,
                    late_hot,
                    upgrade_prob,
                },
        } = *self;
        fp.write_str(name);
        fp.write_f64(weight);
        fp.write_u32(steps);
        cpu_per_step.fingerprint_into(fp);
        fp.write_u32(pages_per_step);
        fp.write_f64(lock_prob);
        fp.write_f64(hot_prob);
        fp.write_f64(write_prob);
        fp.write_bool(late_hot);
        fp.write_f64(upgrade_prob);
    }
}

impl WorkloadSpec {
    /// Write a structural fingerprint of the whole workload — every
    /// template plus the database geometry. Measurement-cache keys use
    /// this instead of `Debug` output, which could alias if it ever
    /// elided or reformatted a field; the exhaustive destructuring makes
    /// adding a field without fingerprinting it a compile error.
    pub fn fingerprint_into(&self, fp: &mut xsched_sim::StableFp) {
        let WorkloadSpec {
            name,
            ref templates,
            db_pages,
            page_theta,
            hot_items,
            item_space,
        } = *self;
        fp.write_str(name);
        fp.write_u64(templates.len() as u64);
        for t in templates {
            t.fingerprint_into(fp);
        }
        fp.write_u64(db_pages);
        fp.write_f64(page_theta);
        fp.write_u64(hot_items);
        fp.write_u64(item_space);
    }

    /// Mixture mean and squared coefficient of variation of the intrinsic
    /// per-transaction demand, given the uncached page cost.
    ///
    /// This is the C² the paper reports in §3.2 (TPC-C ≈ 1–1.5,
    /// TPC-W ≈ 15, commercial traces ≈ 2).
    pub fn intrinsic_demand_stats(&self, io_cost: f64) -> (f64, f64) {
        let wsum: f64 = self.templates.iter().map(|t| t.weight).sum();
        let mean: f64 = self
            .templates
            .iter()
            .map(|t| t.weight / wsum * t.intrinsic_mean(io_cost))
            .sum();
        let second: f64 = self
            .templates
            .iter()
            .map(|t| {
                let m = t.intrinsic_mean(io_cost);
                t.weight / wsum * (t.intrinsic_variance() + m * m)
            })
            .sum();
        let var = (second - mean * mean).max(0.0);
        (mean, var / (mean * mean))
    }

    /// Mean number of page accesses per transaction.
    pub fn mean_pages(&self) -> f64 {
        let wsum: f64 = self.templates.iter().map(|t| t.weight).sum();
        self.templates
            .iter()
            .map(|t| t.weight / wsum * (t.steps * t.pages_per_step) as f64)
            .sum()
    }

    /// Mean pure-CPU demand per transaction, seconds.
    pub fn mean_cpu(&self) -> f64 {
        let wsum: f64 = self.templates.iter().map(|t| t.weight).sum();
        self.templates
            .iter()
            .map(|t| t.weight / wsum * t.steps as f64 * t.cpu_per_step.mean())
            .sum()
    }
}

/// Samples concrete transaction bodies from a [`WorkloadSpec`].
pub struct TxnGen {
    spec: WorkloadSpec,
    weights: Vec<f64>,
    page_zipf: Zipf,
    rng: SimRng,
    /// Fraction of transactions tagged high priority (paper: 10%).
    high_fraction: f64,
}

impl TxnGen {
    /// A generator with its own random stream derived from `seed`.
    pub fn new(spec: WorkloadSpec, seed: u64) -> TxnGen {
        let weights = spec.templates.iter().map(|t| t.weight).collect();
        let page_zipf = Zipf::new(spec.db_pages, spec.page_theta);
        TxnGen {
            spec,
            weights,
            page_zipf,
            rng: SimRng::derive(seed, "txngen"),
            high_fraction: 0.10,
        }
    }

    /// Change the high-priority fraction (default 10%, as in §5.1).
    pub fn with_high_fraction(mut self, f: f64) -> TxnGen {
        assert!((0.0..=1.0).contains(&f));
        self.high_fraction = f;
        self
    }

    /// The spec this generator samples from.
    pub fn spec(&self) -> &WorkloadSpec {
        &self.spec
    }

    /// Draw the scheduling class for the next transaction.
    pub fn next_priority(&mut self) -> Priority {
        if self.rng.chance(self.high_fraction) {
            Priority::High
        } else {
            Priority::Low
        }
    }

    /// Generate one transaction body of a random type with the given
    /// priority class.
    pub fn next_body(&mut self, priority: Priority) -> TxnBody {
        let ti = self.rng.weighted_index(&self.weights);
        let tmpl = self.spec.templates[ti].clone();
        let mut steps = Vec::with_capacity(tmpl.steps as usize);
        for _ in 0..tmpl.steps {
            let lock = if self.rng.chance(tmpl.locks.lock_prob) {
                let item = if self.rng.chance(tmpl.locks.hot_prob) {
                    ItemId(self.rng.index_u64(self.spec.hot_items.max(1)))
                } else {
                    // Regular items live above the hot range.
                    ItemId(self.spec.hot_items + self.rng.index_u64(self.spec.item_space.max(1)))
                };
                let mode = if self.rng.chance(tmpl.locks.write_prob) {
                    LockMode::Exclusive
                } else {
                    LockMode::Shared
                };
                Some((item, mode))
            } else {
                None
            };
            let pages = (0..tmpl.pages_per_step)
                .map(|_| PageId(self.page_zipf.sample(&mut self.rng)))
                .collect();
            let cpu = tmpl.cpu_per_step.sample(&mut self.rng);
            steps.push(Step { lock, pages, cpu });
        }
        if tmpl.locks.late_hot {
            // Stable-partition the lock assignments so hot items are
            // acquired last (shortest possible 2PL hold times).
            let locks: Vec<_> = steps.iter().map(|s| s.lock).collect();
            let (cold, hot): (Vec<_>, Vec<_>) = locks
                .into_iter()
                .partition(|l| !matches!(l, Some((item, _)) if item.0 < self.spec.hot_items));
            for (s, l) in steps.iter_mut().zip(cold.into_iter().chain(hot)) {
                s.lock = l;
            }
        }
        // Acquire hot items in ascending id order — the canonical
        // deadlock-avoidance discipline every serious TPC-C
        // implementation applies to its warehouse/district updates.
        let mut hot_positions: Vec<usize> = Vec::new();
        let mut hot_locks: Vec<(ItemId, LockMode)> = Vec::new();
        for (i, st) in steps.iter().enumerate() {
            if let Some((item, mode)) = st.lock {
                if item.0 < self.spec.hot_items {
                    hot_positions.push(i);
                    hot_locks.push((item, mode));
                }
            }
        }
        if hot_locks.len() > 1 {
            hot_locks.sort_by_key(|(item, _)| item.0);
            for (pos, lock) in hot_positions.into_iter().zip(hot_locks) {
                steps[pos].lock = Some(lock);
            }
        }
        if tmpl.locks.upgrade_prob > 0.0 {
            // Read-then-update: prepend a shared acquisition of the same
            // hot item ahead of (some) hot exclusive locks.
            for j in 0..steps.len() {
                let Some((item, LockMode::Exclusive)) = steps[j].lock else {
                    continue;
                };
                if item.0 < self.spec.hot_items && self.rng.chance(tmpl.locks.upgrade_prob) {
                    if let Some(i) = (0..j).find(|&i| steps[i].lock.is_none()) {
                        steps[i].lock = Some((item, LockMode::Shared));
                    }
                }
            }
        }
        // Normalize repeated requests: drop any lock whose item was
        // already requested earlier in an equal-or-stronger mode (the lock
        // manager would treat them as no-op re-grants anyway). X after S
        // on the same item survives — that is the upgrade.
        let mut seen: Vec<(ItemId, LockMode)> = Vec::new();
        for st in steps.iter_mut() {
            let Some((item, mode)) = st.lock else {
                continue;
            };
            match seen.iter_mut().find(|(i, _)| *i == item) {
                Some((_, held)) => {
                    if *held == LockMode::Exclusive || mode == *held {
                        st.lock = None;
                    } else {
                        *held = LockMode::Exclusive; // S -> X upgrade kept
                    }
                }
                None => seen.push((item, mode)),
            }
        }
        TxnBody {
            txn_type: ti as u32,
            priority,
            steps,
        }
    }

    /// Generate a body with a freshly drawn priority class.
    #[allow(clippy::should_implement_trait)] // not an Iterator: infinite, fallible-free stream
    pub fn next(&mut self) -> TxnBody {
        let p = self.next_priority();
        self.next_body(p)
    }

    /// Sample the intrinsic demand (CPU + uncached I/O) of one transaction
    /// without building the body — used for C² measurements.
    pub fn sample_intrinsic_demand(&mut self, io_cost: f64) -> f64 {
        let ti = self.rng.weighted_index(&self.weights);
        let tmpl = &self.spec.templates[ti];
        let cpu: f64 = (0..tmpl.steps)
            .map(|_| tmpl.cpu_per_step.sample(&mut self.rng))
            .sum();
        cpu + (tmpl.steps * tmpl.pages_per_step) as f64 * io_cost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec() -> WorkloadSpec {
        WorkloadSpec {
            name: "test",
            templates: vec![
                TxnTemplate {
                    name: "short",
                    weight: 0.9,
                    steps: 2,
                    cpu_per_step: Dist::exp(0.001),
                    pages_per_step: 1,
                    locks: LockProfile {
                        lock_prob: 1.0,
                        hot_prob: 0.5,
                        write_prob: 0.5,
                        late_hot: false,
                        upgrade_prob: 0.0,
                    },
                },
                TxnTemplate {
                    name: "long",
                    weight: 0.1,
                    steps: 10,
                    cpu_per_step: Dist::exp(0.005),
                    pages_per_step: 3,
                    locks: LockProfile::NONE,
                },
            ],
            db_pages: 1000,
            page_theta: 0.5,
            hot_items: 10,
            item_space: 100_000,
        }
    }

    #[test]
    fn bodies_match_template_shape() {
        let mut g = TxnGen::new(tiny_spec(), 1);
        for _ in 0..100 {
            let b = g.next_body(Priority::Low);
            let t = &g.spec().templates[b.txn_type as usize];
            assert_eq!(b.steps.len(), t.steps as usize);
            for s in &b.steps {
                assert_eq!(s.pages.len(), t.pages_per_step as usize);
                assert!(s.cpu >= 0.0);
                if t.locks.lock_prob == 0.0 {
                    assert!(s.lock.is_none());
                }
            }
        }
    }

    #[test]
    fn mix_respects_weights() {
        let mut g = TxnGen::new(tiny_spec(), 2);
        let n = 20_000;
        let long = (0..n)
            .filter(|_| g.next_body(Priority::Low).txn_type == 1)
            .count();
        let frac = long as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "long fraction {frac}");
    }

    #[test]
    fn hot_items_come_from_hot_range() {
        let mut g = TxnGen::new(tiny_spec(), 3);
        let mut saw_hot = false;
        let mut saw_regular = false;
        for _ in 0..500 {
            let b = g.next_body(Priority::Low);
            for s in &b.steps {
                if let Some((item, _)) = s.lock {
                    if item.0 < 10 {
                        saw_hot = true;
                    } else {
                        saw_regular = true;
                        assert!(item.0 >= 10, "regular items above hot range");
                    }
                }
            }
        }
        assert!(saw_hot && saw_regular);
    }

    #[test]
    fn analytic_stats_match_samples() {
        let spec = tiny_spec();
        let io = 0.005;
        let (mean, c2) = spec.intrinsic_demand_stats(io);
        let mut g = TxnGen::new(spec, 4);
        let n = 200_000;
        let mut w = xsched_sim::Welford::new();
        for _ in 0..n {
            w.push(g.sample_intrinsic_demand(io));
        }
        assert!(
            (w.mean() - mean).abs() / mean < 0.02,
            "mean: sampled {} analytic {mean}",
            w.mean()
        );
        assert!(
            (w.c2() - c2).abs() / c2 < 0.08,
            "c2: sampled {} analytic {c2}",
            w.c2()
        );
    }

    #[test]
    fn priority_fraction_default_ten_percent() {
        let mut g = TxnGen::new(tiny_spec(), 5);
        let n = 50_000;
        let high = (0..n)
            .filter(|_| g.next_priority() == Priority::High)
            .count();
        let frac = high as f64 / n as f64;
        assert!((frac - 0.10).abs() < 0.01, "high fraction {frac}");
    }

    #[test]
    fn deterministic_generation() {
        let a: Vec<u32> = {
            let mut g = TxnGen::new(tiny_spec(), 9);
            (0..50).map(|_| g.next().txn_type).collect()
        };
        let b: Vec<u32> = {
            let mut g = TxnGen::new(tiny_spec(), 9);
            (0..50).map(|_| g.next().txn_type).collect()
        };
        assert_eq!(a, b);
    }

    #[test]
    fn mean_helpers() {
        let spec = tiny_spec();
        // mean pages = 0.9*2 + 0.1*30 = 4.8
        assert!((spec.mean_pages() - 4.8).abs() < 1e-12);
        // mean cpu = 0.9*0.002 + 0.1*0.05 = 0.0068
        assert!((spec.mean_cpu() - 0.0068).abs() < 1e-12);
    }
}
