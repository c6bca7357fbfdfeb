//! The processor-sharing bank as it stood before the struct-of-arrays
//! rewrite, kept verbatim as the test oracle: the differential tests in
//! [`super`] drive it and the live bank in lockstep and compare every
//! returned value, epoch and busy time bit for bit.

use crate::config::CpuPolicy;
use crate::txn::{Priority, TxnId};

#[derive(Debug, Clone)]
struct CpuJob {
    txn: TxnId,
    remaining: f64,
    priority: Priority,
}

/// The shared CPU bank.
///
/// The runnable set is a dense vector in arrival order (its size is
/// bounded by the MPL, so linear scans beat hashing and every iteration
/// — including the floating-point busy-time accumulation — runs in a
/// deterministic order). A running count of high-priority jobs keeps the
/// two-class rate computation O(1).
#[derive(Debug)]
pub struct CpuBank {
    cpus: f64,
    policy: CpuPolicy,
    jobs: Vec<CpuJob>,
    high_jobs: usize,
    last_sync: f64,
    epoch: u64,
    /// Integral of busy capacity (0..=cpus) over time, for utilization.
    busy_area: f64,
}

impl CpuBank {
    /// A bank of `cpus` processors under the given policy.
    pub fn new(cpus: u32, policy: CpuPolicy) -> CpuBank {
        assert!(cpus >= 1);
        CpuBank {
            cpus: cpus as f64,
            policy,
            jobs: Vec::new(),
            high_jobs: 0,
            last_sync: 0.0,
            epoch: 0,
            busy_area: 0.0,
        }
    }

    /// Number of runnable jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// True if no job is runnable.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
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
        let n = self.jobs.len() as f64;
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

    /// Advance all remaining-work counters to time `now` (seconds).
    fn sync(&mut self, now: f64) {
        let dt = now - self.last_sync;
        debug_assert!(dt >= -1e-9, "time went backwards in CpuBank");
        if dt > 0.0 {
            let mut busy = 0.0;
            // Precompute class rates once; they're uniform within a class.
            let rate_high = self.rate_for(Priority::High);
            let rate_low = self.rate_for(Priority::Low);
            for job in self.jobs.iter_mut() {
                let r = match job.priority {
                    Priority::High => rate_high,
                    Priority::Low => rate_low,
                };
                job.remaining = (job.remaining - r * dt).max(0.0);
                busy += r;
            }
            self.busy_area += busy.min(self.cpus) * dt;
        }
        self.last_sync = now;
    }

    /// Add `work` seconds of CPU demand for `txn` at time `now`. Returns
    /// the new epoch.
    pub fn add(&mut self, now: f64, txn: TxnId, work: f64, priority: Priority) -> u64 {
        self.sync(now);
        debug_assert!(
            !self.jobs.iter().any(|j| j.txn == txn),
            "txn {txn:?} already on CPU"
        );
        self.jobs.push(CpuJob {
            txn,
            remaining: work.max(0.0),
            priority,
        });
        if priority == Priority::High {
            self.high_jobs += 1;
        }
        self.epoch += 1;
        self.epoch
    }

    /// Remove a job regardless of progress (abort path). Returns the new
    /// epoch if the job was present.
    pub fn remove(&mut self, now: f64, txn: TxnId) -> Option<u64> {
        self.sync(now);
        if let Some(pos) = self.jobs.iter().position(|j| j.txn == txn) {
            let job = self.jobs.remove(pos);
            if job.priority == Priority::High {
                self.high_jobs -= 1;
            }
            self.epoch += 1;
            Some(self.epoch)
        } else {
            None
        }
    }

    /// Time until the next job completes at current rates, and that job's
    /// id. `None` if the bank is idle (or all runnable jobs are starved,
    /// which cannot happen with `cpus ≥ 1`).
    pub fn next_completion(&mut self, now: f64) -> Option<(f64, TxnId)> {
        self.sync(now);
        let rate_high = self.rate_for(Priority::High);
        let rate_low = self.rate_for(Priority::Low);
        let mut best: Option<(f64, TxnId)> = None;
        for job in &self.jobs {
            let r = match job.priority {
                Priority::High => rate_high,
                Priority::Low => rate_low,
            };
            if r <= 0.0 {
                continue;
            }
            let t = job.remaining / r;
            // Deterministic tie-break on TxnId.
            let better = match best {
                None => true,
                Some((bt, bid)) => t < bt - 1e-15 || ((t - bt).abs() <= 1e-15 && job.txn < bid),
            };
            if better {
                best = Some((t, job.txn));
            }
        }
        best
    }

    /// Complete and remove the given job at `now`; asserts it had (almost)
    /// no work left. Returns the new epoch.
    pub fn complete(&mut self, now: f64, txn: TxnId) -> u64 {
        self.sync(now);
        let pos = self
            .jobs
            .iter()
            .position(|j| j.txn == txn)
            .expect("completing unknown CPU job");
        let job = self.jobs.remove(pos);
        if job.priority == Priority::High {
            self.high_jobs -= 1;
        }
        debug_assert!(
            job.remaining < 1e-6,
            "completed job had {} s left",
            job.remaining
        );
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
