//! Processor-sharing CPU bank.
//!
//! `c` CPUs serve `n` runnable transactions: each job receives service rate
//! `min(1, c/n)` (a single job cannot run on two CPUs at once — the second
//! of the paper's two deliberate model pessimisms). Under
//! [`CpuPolicy::PrioritizeHigh`] the high-priority jobs are served first:
//! with `h` high jobs each gets `min(1, c/h)`, and low jobs share whatever
//! capacity remains — a preemptive-priority generalization of PS modelling
//! the paper's `renice` experiment.
//!
//! Because remaining work drains at a state-dependent rate, completion
//! events cannot be scheduled once and forgotten. The bank keeps an epoch
//! counter: every membership change bumps the epoch and re-schedules the
//! next completion; stale events are recognized and dropped by the caller
//! via [`CpuBank::is_current`].
//!
//! # Cost and exactness
//!
//! Every event advances all runnable jobs, which is one light pass over
//! `n` remaining works; asking for the next completion is O(1) outside
//! near-ties. The bank produces the exact bits of a plain per-job loop
//! (fold the busy rate job by job, divide each job's remaining work by
//! its rate, keep the smallest quotient with a 1e-15 tie window broken
//! towards the smaller [`TxnId`]):
//!
//! * **Advancing** subtracts one product `rate · dt` per class (the same
//!   product for every job of the class) in a branch-free loop over the
//!   remaining-work column. The busy rate is the in-order sum of the
//!   per-job rates. Under [`CpuPolicy::Fair`], and under
//!   [`CpuPolicy::PrioritizeHigh`] when one class is empty, every job runs
//!   at `min(1, c/n)`, so that sum is the fold of `n` copies of one rate:
//!   a function of `n` alone, computed once per `n` and memoized. Only a
//!   mixed-class priority bank folds job by job, because there the order
//!   of the two rates changes the bits.
//! * **Each class stays in order.** Per class the bank keeps its jobs'
//!   positions sorted by remaining work, largest first. Advancing maps
//!   every remaining work of a class through the same `fl(x − d)` clamped
//!   at 0, which is monotone in `x`, so it never reorders a class: only
//!   [`CpuBank::add`] (a binary search and an insert) and
//!   [`CpuBank::complete`] (a removal, usually of the last entry, and a
//!   renumbering of the positions after the completed job) touch the
//!   order.
//! * **The next completion** reads the last two entries of each class's
//!   order and needs no per-job division. `fl(x / r)` is monotone in `x`
//!   for `r > 0`, so the job with the smallest remaining work `m1` of a
//!   class has the smallest quotient `t1 = m1 / r`, and every other job of
//!   the class has a quotient of at least `t2 = m2 / r`, where `m2` is the
//!   second-smallest remaining work counted with multiplicity. When both
//!   classes run at one rate the two orders' tails are merged; otherwise,
//!   across classes, `t2` is the smaller of the winner's `t2` and the
//!   other class's `t1`. If `t1 < t2 - 1e-15` and `t2 - t1 > 1e-15` (the
//!   tie test's own float operations; either can fail while the other
//!   holds, because the subtractions round), the job beats every job
//!   scanned before it and ties with none after it, so the sequential
//!   scan ends on it: the bank returns `(t1, job)` from two divisions.
//!   Near-ties fall back to the sequential scan itself.
//! * **Completing** reuses the position the last
//!   [`CpuBank::next_completion`] picked when the id there matches (ids
//!   are unique, so no search is needed).
//!
//! The differential tests drive this bank and the original per-job bank
//! (kept under `cfg(test)` as the oracle) in lockstep and compare every
//! result bit for bit.

use crate::config::CpuPolicy;
use crate::txn::{Priority, TxnId};

#[cfg(test)]
mod oracle;

/// The shared CPU bank.
///
/// The runnable set is a struct of arrays in arrival order — remaining
/// work, id and class per job — so every pass, and with it every
/// floating-point fold, runs in a deterministic order. A running count of
/// high-priority jobs keeps the two-class rate computation O(1), and a
/// per-class order by remaining work keeps the next completion O(1).
#[derive(Debug)]
pub struct CpuBank {
    cpus: f64,
    policy: CpuPolicy,
    /// Remaining work per runnable job, in arrival order.
    remaining: Vec<f64>,
    /// Id of each job, parallel to `remaining`.
    txns: Vec<TxnId>,
    /// Class of each job, parallel to `remaining`.
    classes: Vec<Priority>,
    /// Per class, indexed by `Priority as usize` (Low, High): the
    /// positions of its jobs, sorted by remaining work, largest first.
    /// (`u32`, so renumbering after a completion vectorizes.)
    order: [Vec<u32>; 2],
    high_jobs: usize,
    last_sync: f64,
    epoch: u64,
    /// Integral of busy capacity (0..=cpus) over time, for utilization.
    busy_area: f64,
    /// `busy_folds[n]`: the busy rate of `n` jobs sharing one rate (the
    /// in-order sum of `n` copies of it); NaN until first needed.
    busy_folds: Vec<f64>,
    /// Position of the job the last next-completion query picked; a hint
    /// that completing checks against the job's id before using it.
    picked: usize,
}

/// The two smallest remaining works of one class, counted with
/// multiplicity, and the position of the smaller.
#[derive(Clone, Copy)]
struct TwoSmallest {
    m1: f64,
    m2: f64,
    at: usize,
}

impl TwoSmallest {
    const NONE: TwoSmallest = TwoSmallest {
        m1: f64::INFINITY,
        m2: f64::INFINITY,
        at: usize::MAX,
    };

    #[inline]
    fn push(&mut self, at: usize, x: f64) {
        if x < self.m2 {
            if x < self.m1 {
                self.m2 = self.m1;
                self.m1 = x;
                self.at = at;
            } else {
                self.m2 = x;
            }
        }
    }
}

impl CpuBank {
    /// A bank of `cpus` processors under the given policy.
    pub fn new(cpus: u32, policy: CpuPolicy) -> CpuBank {
        assert!(cpus >= 1);
        CpuBank {
            cpus: cpus as f64,
            policy,
            remaining: Vec::new(),
            txns: Vec::new(),
            classes: Vec::new(),
            order: [Vec::new(), Vec::new()],
            high_jobs: 0,
            last_sync: 0.0,
            epoch: 0,
            busy_area: 0.0,
            busy_folds: Vec::new(),
            picked: 0,
        }
    }

    /// Number of runnable jobs.
    pub fn len(&self) -> usize {
        self.remaining.len()
    }

    /// True if no job is runnable.
    pub fn is_empty(&self) -> bool {
        self.remaining.is_empty()
    }

    /// Current epoch; completion events carry the epoch they were
    /// scheduled under.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// True if `epoch` matches the bank's current epoch (the event is not
    /// stale).
    pub fn is_current(&self, epoch: u64) -> bool {
        self.epoch == epoch
    }

    /// Service rate currently granted to a job of class `prio`.
    fn rate_for(&self, prio: Priority) -> f64 {
        let n = self.remaining.len() as f64;
        if n == 0.0 {
            return 0.0;
        }
        match self.policy {
            CpuPolicy::Fair => (self.cpus / n).min(1.0),
            CpuPolicy::PrioritizeHigh => {
                let h = self.high_jobs as f64;
                let high_rate = if h > 0.0 {
                    (self.cpus / h).min(1.0)
                } else {
                    0.0
                };
                match prio {
                    Priority::High => high_rate,
                    Priority::Low => {
                        let leftover = (self.cpus - h * high_rate).max(0.0);
                        let l = n - h;
                        if l > 0.0 {
                            (leftover / l).min(1.0)
                        } else {
                            0.0
                        }
                    }
                }
            }
        }
    }

    /// True when both classes are runnable under the priority policy, so
    /// jobs run at two different rates.
    fn mixed(&self) -> bool {
        self.policy == CpuPolicy::PrioritizeHigh
            && self.high_jobs > 0
            && self.high_jobs < self.remaining.len()
    }

    /// The rate every job runs at when the bank is not [`Self::mixed`]:
    /// `min(1, c/n)`, whichever class is present.
    fn uniform_rate(&self) -> f64 {
        if self.high_jobs > 0 {
            self.rate_for(Priority::High)
        } else {
            self.rate_for(Priority::Low)
        }
    }

    /// Advance all remaining-work counters to time `now` (seconds).
    fn sync(&mut self, now: f64) {
        let dt = now - self.last_sync;
        debug_assert!(dt >= -1e-9, "time went backwards in CpuBank");
        if dt > 0.0 {
            let busy = if self.mixed() {
                let (rate_high, rate_low) =
                    (self.rate_for(Priority::High), self.rate_for(Priority::Low));
                let (done_high, done_low) = (rate_high * dt, rate_low * dt);
                let mut busy = 0.0;
                for (rem, &class) in self.remaining.iter_mut().zip(&self.classes) {
                    let (r, done) = match class {
                        Priority::High => (rate_high, done_high),
                        Priority::Low => (rate_low, done_low),
                    };
                    *rem = (*rem - done).max(0.0);
                    busy += r;
                }
                busy
            } else {
                let r = self.uniform_rate();
                let done = r * dt;
                for rem in self.remaining.iter_mut() {
                    *rem = (*rem - done).max(0.0);
                }
                let n = self.remaining.len();
                if self.busy_folds.len() <= n {
                    self.busy_folds.resize(n + 1, f64::NAN);
                }
                let fold = &mut self.busy_folds[n];
                if fold.is_nan() {
                    *fold = (0..n).fold(0.0, |busy, _| busy + r);
                }
                *fold
            };
            self.busy_area += busy.min(self.cpus) * dt;
        }
        self.last_sync = now;
    }

    /// Add `work` seconds of CPU demand for `txn` at time `now`. Returns
    /// the new epoch.
    pub fn add(&mut self, now: f64, txn: TxnId, work: f64, priority: Priority) -> u64 {
        self.sync(now);
        debug_assert!(!self.txns.contains(&txn), "txn {txn:?} already on CPU");
        let work = work.max(0.0);
        let remaining = &self.remaining;
        let order = &mut self.order[priority as usize];
        let at = order.partition_point(|&p| remaining[p as usize] >= work);
        order.insert(at, remaining.len() as u32);
        self.remaining.push(work);
        self.txns.push(txn);
        self.classes.push(priority);
        if priority == Priority::High {
            self.high_jobs += 1;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Time until the next job completes at current rates, and that job's
    /// id. `None` if the bank is idle (or all runnable jobs are starved,
    /// which cannot happen with `cpus ≥ 1`).
    pub fn next_completion(&mut self, now: f64) -> Option<(f64, TxnId)> {
        self.sync(now);
        let (t, pos) = self.clear_winner().or_else(|| self.scan_winner())?;
        self.picked = pos;
        Some((t, self.txns[pos]))
    }

    /// The two smallest remaining works among `classes`, read from the
    /// last two entries of each class's order.
    fn least(&self, classes: &[Priority]) -> TwoSmallest {
        let mut least = TwoSmallest::NONE;
        for &class in classes {
            for &at in self.order[class as usize].iter().rev().take(2) {
                least.push(at as usize, self.remaining[at as usize]);
            }
        }
        least
    }

    /// The fast path without per-job division (see the module docs): the
    /// time and position of the job with the smallest completion time, if
    /// it leads every other job by more than the tie window.
    fn clear_winner(&self) -> Option<(f64, usize)> {
        let (t1, t2, at) = if self.mixed() {
            let [low, high] = [Priority::Low, Priority::High].map(|class| {
                let (r, m) = (self.rate_for(class), self.least(&[class]));
                (r > 0.0).then(|| (m.m1 / r, m.m2 / r, m.at))
            });
            match (high, low) {
                (Some(h), Some(l)) if h.0 < l.0 => (h.0, h.1.min(l.0), h.2),
                (Some(h), Some(l)) => (l.0, l.1.min(h.0), l.2),
                (Some(c), None) | (None, Some(c)) => c,
                (None, None) => return None,
            }
        } else {
            let r = self.uniform_rate();
            if r <= 0.0 {
                return None;
            }
            let least = self.least(&[Priority::Low, Priority::High]);
            (least.m1 / r, least.m2 / r, least.at)
        };
        (t1 < t2 - 1e-15 && t2 - t1 > 1e-15).then_some((t1, at))
    }

    /// The sequential scan the fast path stands in for: each job's
    /// completion time in arrival order, keeping the smallest, with a
    /// deterministic tie-break on [`TxnId`] within 1e-15.
    fn scan_winner(&self) -> Option<(f64, usize)> {
        let rate_high = self.rate_for(Priority::High);
        let rate_low = self.rate_for(Priority::Low);
        let mut best: Option<(f64, TxnId, usize)> = None;
        let jobs = self.remaining.iter().zip(&self.txns).zip(&self.classes);
        for (pos, ((&remaining, &txn), &class)) in jobs.enumerate() {
            let r = match class {
                Priority::High => rate_high,
                Priority::Low => rate_low,
            };
            if r <= 0.0 {
                continue;
            }
            let t = remaining / r;
            let better = match best {
                None => true,
                Some((bt, bid, _)) => t < bt - 1e-15 || ((t - bt).abs() <= 1e-15 && txn < bid),
            };
            if better {
                best = Some((t, txn, pos));
            }
        }
        best.map(|(t, _, pos)| (t, pos))
    }

    /// Complete and remove the given job at `now`; asserts it had (almost)
    /// no work left. Returns the new epoch.
    pub fn complete(&mut self, now: f64, txn: TxnId) -> u64 {
        self.sync(now);
        let pos = match self.txns.get(self.picked) {
            Some(&t) if t == txn => self.picked,
            _ => self
                .txns
                .iter()
                .position(|&t| t == txn)
                .expect("completing unknown CPU job"),
        };
        let remaining = self.remaining.remove(pos);
        self.txns.remove(pos);
        let class = self.classes.remove(pos);
        if class == Priority::High {
            self.high_jobs -= 1;
        }
        // Usually the class's last entry: the job with the least work.
        let pos = pos as u32;
        let order = &mut self.order[class as usize];
        let at = order
            .iter()
            .rposition(|&p| p == pos)
            .expect("job missing from its class order");
        order.remove(at);
        for order in &mut self.order {
            for p in order.iter_mut() {
                *p -= (*p > pos) as u32;
            }
        }
        debug_assert!(remaining < 1e-6, "completed job had {remaining} s left");
        self.epoch += 1;
        self.epoch
    }

    /// CPU-seconds of capacity consumed so far (for utilization:
    /// `busy_time / (cpus · elapsed)`).
    pub fn busy_time(&mut self, now: f64) -> f64 {
        self.sync(now);
        self.busy_area
    }

    /// Total capacity of the bank (number of CPUs).
    pub fn capacity(&self) -> f64 {
        self.cpus
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn id(n: u64) -> TxnId {
        TxnId(n)
    }

    #[test]
    fn single_job_runs_at_full_speed() {
        let mut bank = CpuBank::new(1, CpuPolicy::Fair);
        bank.add(0.0, id(1), 2.0, Priority::Low);
        let (t, who) = bank.next_completion(0.0).unwrap();
        assert_eq!(who, id(1));
        assert!((t - 2.0).abs() < 1e-12);
    }

    #[test]
    fn two_jobs_share_one_cpu() {
        let mut bank = CpuBank::new(1, CpuPolicy::Fair);
        bank.add(0.0, id(1), 1.0, Priority::Low);
        bank.add(0.0, id(2), 1.0, Priority::Low);
        let (t, _) = bank.next_completion(0.0).unwrap();
        assert!((t - 2.0).abs() < 1e-12, "each runs at rate 1/2: {t}");
    }

    #[test]
    fn two_jobs_two_cpus_run_at_full_speed() {
        let mut bank = CpuBank::new(2, CpuPolicy::Fair);
        bank.add(0.0, id(1), 1.0, Priority::Low);
        bank.add(0.0, id(2), 3.0, Priority::Low);
        let (t, who) = bank.next_completion(0.0).unwrap();
        assert_eq!(who, id(1));
        assert!((t - 1.0).abs() < 1e-12);
    }

    #[test]
    fn one_job_cannot_use_two_cpus() {
        let mut bank = CpuBank::new(2, CpuPolicy::Fair);
        bank.add(0.0, id(1), 1.0, Priority::Low);
        let (t, _) = bank.next_completion(0.0).unwrap();
        assert!((t - 1.0).abs() < 1e-12, "rate capped at 1: {t}");
    }

    #[test]
    fn progress_is_tracked_across_membership_changes() {
        let mut bank = CpuBank::new(1, CpuPolicy::Fair);
        bank.add(0.0, id(1), 1.0, Priority::Low);
        // At t=0.5, half done; a second job arrives.
        bank.add(0.5, id(2), 1.0, Priority::Low);
        // Job 1 has 0.5 left at rate 0.5 → completes at t=1.5.
        let (t, who) = bank.next_completion(0.5).unwrap();
        assert_eq!(who, id(1));
        assert!((t - 1.0).abs() < 1e-12, "dt until completion {t}");
        bank.complete(1.5, id(1));
        // Job 2: consumed 0.5 while sharing; 0.5 left at full rate.
        let (t2, who2) = bank.next_completion(1.5).unwrap();
        assert_eq!(who2, id(2));
        assert!((t2 - 0.5).abs() < 1e-12);
    }

    #[test]
    fn priority_mode_starves_low_when_saturated() {
        let mut bank = CpuBank::new(1, CpuPolicy::PrioritizeHigh);
        bank.add(0.0, id(1), 1.0, Priority::High);
        bank.add(0.0, id(2), 1.0, Priority::Low);
        // High runs at 1, low at 0 → next completion is high at t=1.
        let (t, who) = bank.next_completion(0.0).unwrap();
        assert_eq!(who, id(1));
        assert!((t - 1.0).abs() < 1e-12);
        bank.complete(1.0, id(1));
        // Low job made no progress; now runs alone.
        let (t2, _) = bank.next_completion(1.0).unwrap();
        assert!((t2 - 1.0).abs() < 1e-12, "low made progress while starved");
    }

    #[test]
    fn priority_mode_shares_leftover_with_low() {
        let mut bank = CpuBank::new(2, CpuPolicy::PrioritizeHigh);
        bank.add(0.0, id(1), 1.0, Priority::High);
        bank.add(0.0, id(2), 1.0, Priority::Low);
        bank.add(0.0, id(3), 1.0, Priority::Low);
        // High gets rate 1; the second CPU is split between the two lows.
        let (t, who) = bank.next_completion(0.0).unwrap();
        assert_eq!(who, id(1));
        assert!((t - 1.0).abs() < 1e-12);
        bank.complete(1.0, id(1));
        // Lows each did 0.5 of work; now share 2 CPUs at rate 1 each.
        let (t2, _) = bank.next_completion(1.0).unwrap();
        assert!((t2 - 0.5).abs() < 1e-12, "t2 {t2}");
    }

    #[test]
    fn epochs_invalidate_on_change() {
        let mut bank = CpuBank::new(1, CpuPolicy::Fair);
        let e1 = bank.add(0.0, id(1), 1.0, Priority::Low);
        assert!(bank.is_current(e1));
        let e2 = bank.add(0.1, id(2), 1.0, Priority::Low);
        assert!(!bank.is_current(e1));
        assert!(bank.is_current(e2));
    }

    #[test]
    fn utilization_accounting() {
        let mut bank = CpuBank::new(2, CpuPolicy::Fair);
        bank.add(0.0, id(1), 1.0, Priority::Low);
        bank.complete(1.0, id(1));
        // One CPU busy for 1s out of 2 CPUs × 2s.
        let busy = bank.busy_time(2.0);
        assert!((busy - 1.0).abs() < 1e-12);
        assert_eq!(bank.capacity(), 2.0);
    }

    /// The live bank and the oracle driven in lockstep; every call
    /// compares results, epochs and sizes bit for bit.
    struct Twin {
        bank: CpuBank,
        oracle: oracle::CpuBank,
    }

    fn bits(next: Option<(f64, TxnId)>) -> Option<(u64, TxnId)> {
        next.map(|(t, txn)| (t.to_bits(), txn))
    }

    impl Twin {
        fn new(cpus: u32, policy: CpuPolicy) -> Twin {
            Twin {
                bank: CpuBank::new(cpus, policy),
                oracle: oracle::CpuBank::new(cpus, policy),
            }
        }

        fn check(&self) {
            assert_eq!(self.bank.epoch(), self.oracle.epoch());
            assert_eq!(self.bank.len(), self.oracle.len());
            assert_eq!(self.bank.is_empty(), self.oracle.is_empty());
            assert!(self.oracle.is_current(self.bank.epoch()));
            assert_eq!(self.bank.capacity(), self.oracle.capacity());
            // Each class order lists exactly that class's positions, the
            // least remaining work last.
            let bank = &self.bank;
            let mut seen = vec![false; bank.len()];
            for class in [Priority::Low, Priority::High] {
                let order = &bank.order[class as usize];
                for w in order.windows(2) {
                    assert!(
                        bank.remaining[w[0] as usize] >= bank.remaining[w[1] as usize],
                        "{class:?} out of order"
                    );
                }
                for &p in order {
                    let p = p as usize;
                    assert_eq!(bank.classes[p], class);
                    assert!(
                        !std::mem::replace(&mut seen[p], true),
                        "position {p} listed twice"
                    );
                }
            }
            assert!(
                seen.iter().all(|&s| s),
                "a job missing from the class orders"
            );
        }

        fn add(&mut self, now: f64, txn: TxnId, work: f64, prio: Priority) {
            let epoch = self.bank.add(now, txn, work, prio);
            assert_eq!(epoch, self.oracle.add(now, txn, work, prio));
            self.check();
        }

        fn next(&mut self, now: f64) -> Option<(f64, TxnId)> {
            let next = self.bank.next_completion(now);
            assert_eq!(
                bits(next),
                bits(self.oracle.next_completion(now)),
                "at {now}"
            );
            self.check();
            next
        }

        fn complete(&mut self, now: f64, txn: TxnId) {
            let epoch = self.bank.complete(now, txn);
            assert_eq!(epoch, self.oracle.complete(now, txn));
            self.check();
        }

        fn busy(&mut self, now: f64) {
            let busy = self.bank.busy_time(now).to_bits();
            assert_eq!(busy, self.oracle.busy_time(now).to_bits(), "busy at {now}");
        }

        /// Complete jobs in order until the bank is idle.
        fn drain(&mut self, mut now: f64) -> f64 {
            while let Some((dt, txn)) = self.next(now) {
                now += dt;
                self.complete(now, txn);
            }
            self.busy(now);
            now
        }

        /// True if the next completion needs the sequential scan.
        fn needs_scan(&mut self, now: f64) -> bool {
            self.bank.sync(now);
            self.bank.clear_winner().is_none() && !self.bank.is_empty()
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random add/complete/next-completion/busy-time sequences
        /// under both policies, with both classes mixed in, give the
        /// oracle's exact bits. Works come from a small pool (zero, equal
        /// values, a few ulps apart) and time often stands still, so ties
        /// and near-ties within the 1e-15 window are common, and the scan
        /// they fall back to completes jobs from inside the class orders.
        /// Adds outnumber completions, so banks grow to hundreds of jobs.
        #[test]
        fn bank_matches_the_oracle_bit_for_bit(
            ops in proptest::collection::vec((0u8..10, any::<u64>(), 0u8..8, any::<bool>()), 1..1000),
            cpus in 1u32..=4,
            prioritize in any::<bool>(),
        ) {
            let policy = if prioritize { CpuPolicy::PrioritizeHigh } else { CpuPolicy::Fair };
            let mut twin = Twin::new(cpus, policy);
            let mut live: Vec<TxnId> = Vec::new();
            let mut now = 0.0;
            let mut last_work = 0.5f64;
            for &(op, sel, pick, high) in &ops {
                let unit = (sel >> 11) as f64 / (1u64 << 53) as f64;
                now += match (sel >> 8) % 4 {
                    0 => 0.0,
                    1 => 1e-16,
                    2 => 0.01 * unit,
                    _ => 0.3 * unit,
                };
                match op {
                    0..=4 => {
                        let txn = id(sel % 4096);
                        if live.contains(&txn) {
                            continue;
                        }
                        let work = match pick {
                            0 => 0.0,
                            1 => 0.5,
                            2 => 1.0 / 3.0,
                            3 => 0.1,
                            4 => f64::from_bits(last_work.to_bits() + sel % 4),
                            _ => 2.0 * unit,
                        };
                        last_work = work;
                        let prio = if high { Priority::High } else { Priority::Low };
                        twin.add(now, txn, work, prio);
                        live.push(txn);
                    }
                    5 | 6 => {
                        if let Some((dt, txn)) = twin.next(now) {
                            now += dt;
                            twin.complete(now, txn);
                            live.retain(|&t| t != txn);
                        }
                    }
                    7 => twin.busy(now),
                    _ => {
                        twin.next(now);
                    }
                }
            }
            twin.drain(now);
        }
    }

    #[test]
    fn equal_works_fall_back_to_the_scan() {
        let mut twin = Twin::new(1, CpuPolicy::Fair);
        twin.add(0.0, id(5), 1.0, Priority::Low);
        twin.add(0.0, id(3), 1.0, Priority::Low);
        twin.add(0.0, id(9), 1.0, Priority::Low);
        assert!(twin.needs_scan(0.0));
        // The tie goes to the smallest id, not the first arrival.
        assert_eq!(twin.next(0.0).map(|(_, t)| t), Some(id(3)));
        twin.drain(0.0);
    }

    #[test]
    fn works_inside_the_tie_window_fall_back_to_the_scan() {
        let mut twin = Twin::new(2, CpuPolicy::Fair);
        // Two ulps apart: distinct works whose times differ by < 1e-15.
        let later = f64::from_bits(1.0f64.to_bits() + 2);
        twin.add(0.0, id(7), 1.0, Priority::Low);
        twin.add(0.0, id(2), later, Priority::Low);
        assert!(twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0).map(|(_, t)| t), Some(id(2)));
        // A chain of near-ties, each inside the window of its neighbour
        // but not of both: the answer depends on the scan's order.
        for (k, txn) in [(5u64, 8u64), (10, 1), (15, 4)] {
            twin.add(
                0.0,
                id(txn),
                f64::from_bits(1.0f64.to_bits() + k),
                Priority::Low,
            );
        }
        assert!(twin.needs_scan(0.0));
        twin.drain(0.0);
    }

    #[test]
    fn a_lead_lost_to_rounding_keeps_the_first_job() {
        // Two CPUs, two jobs: rate 1, so each time is the work itself.
        // 1.5 - 1e-15 rounds down to exactly `earlier`, so `earlier` does
        // not beat the first job by the window even though they are five
        // ulps (1.1e-15) apart, and the scan keeps the first job.
        let mut twin = Twin::new(2, CpuPolicy::Fair);
        let earlier = f64::from_bits(1.5f64.to_bits() - 5);
        assert_eq!(1.5 - 1e-15, earlier);
        twin.add(0.0, id(1), 1.5, Priority::Low);
        twin.add(0.0, id(2), earlier, Priority::Low);
        assert!(twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0), Some((1.5, id(1))));
        twin.drain(0.0);
    }

    #[test]
    fn a_difference_rounding_onto_the_window_is_a_tie() {
        // Times near 1e-15, where `later - first` is inexact: it lies
        // above the window but rounds onto it, while `first` still beats
        // `later - 1e-15`. The scan treats the pair as a tie and keeps
        // the smaller id.
        let mut twin = Twin::new(2, CpuPolicy::Fair);
        let first = f64::from_bits(2f64.powi(-52).to_bits() + 3);
        let later = (first + 2f64.powi(-104)) + 1e-15;
        assert!(first < later - 1e-15 && later - first == 1e-15);
        twin.add(0.0, id(9), first, Priority::Low);
        twin.add(0.0, id(1), later, Priority::Low);
        assert!(twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0).map(|(_, t)| t), Some(id(1)));
        twin.drain(0.0);
    }

    #[test]
    fn zero_work_jobs_tie_at_time_zero() {
        let mut twin = Twin::new(3, CpuPolicy::Fair);
        twin.add(0.0, id(4), 0.2, Priority::Low);
        twin.add(0.1, id(6), 0.0, Priority::Low);
        twin.add(0.1, id(2), 0.0, Priority::Low);
        assert!(twin.needs_scan(0.1));
        assert_eq!(twin.next(0.1), Some((0.0, id(2))));
        twin.drain(0.1);
    }

    #[test]
    fn classes_tying_across_rates_fall_back_to_the_scan() {
        let mut twin = Twin::new(2, CpuPolicy::PrioritizeHigh);
        // High runs at 1, the two lows share the second CPU at 1/2, so
        // work 1 (high) and 1/2 (low) both finish at t = 1.
        twin.add(0.0, id(9), 1.0, Priority::High);
        twin.add(0.0, id(3), 0.5, Priority::Low);
        twin.add(0.0, id(8), 2.0, Priority::Low);
        assert!(twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0).map(|(_, t)| t), Some(id(3)));
        twin.busy(0.5);
        twin.drain(0.5);
    }

    #[test]
    fn a_near_tie_across_classes_falls_back_to_the_scan() {
        let mut twin = Twin::new(2, CpuPolicy::PrioritizeHigh);
        // The high job finishes at 1; the low one two ulps later, inside
        // the window, and its smaller id takes the tie.
        twin.add(0.0, id(9), 1.0, Priority::High);
        twin.add(
            0.0,
            id(3),
            f64::from_bits(0.5f64.to_bits() + 2),
            Priority::Low,
        );
        twin.add(0.0, id(8), 2.0, Priority::Low);
        assert!(twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0).map(|(_, t)| t), Some(id(3)));
        twin.drain(0.0);
    }

    #[test]
    fn starved_low_class_is_skipped() {
        let mut twin = Twin::new(1, CpuPolicy::PrioritizeHigh);
        twin.add(0.0, id(1), 0.1, Priority::Low);
        twin.add(0.0, id(2), 3.0, Priority::High);
        twin.add(0.0, id(3), 2.0, Priority::High);
        // Both highs run at 1/2; the low is starved despite its tiny work.
        assert!(!twin.needs_scan(0.0));
        assert_eq!(twin.next(0.0), Some((4.0, id(3))));
        twin.drain(0.0);
    }

    #[test]
    fn thousand_jobs_drain_in_lockstep() {
        for policy in [CpuPolicy::Fair, CpuPolicy::PrioritizeHigh] {
            let mut twin = Twin::new(4, policy);
            let mut now = 0.0;
            for k in 0..1024u64 {
                // Distinct, scrambled works; one job in eight is high.
                let work = ((k * 7919) % 1024) as f64 * 1e-3 + 1e-4;
                let prio = if k % 8 == 0 {
                    Priority::High
                } else {
                    Priority::Low
                };
                twin.add(now, id(k), work, prio);
                now += 1e-5;
            }
            twin.busy(now);
            twin.drain(now);
        }
    }
}
