//! Per-transaction completion records and aggregate DBMS metrics.

use crate::txn::Priority;

/// Emitted once per committed transaction; the external scheduler's
/// observation phase is built on these.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Completion {
    /// Workload-defined transaction type.
    pub txn_type: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// Time the transaction arrived at the *external* queue, seconds.
    pub external_arrival: f64,
    /// Time it was admitted into the DBMS, seconds.
    pub admitted: f64,
    /// Commit time, seconds.
    pub completed: f64,
    /// Number of abort/restart cycles it went through.
    pub restarts: u32,
    /// Total time spent blocked in lock queues, seconds.
    pub lock_wait: f64,
}

impl Completion {
    /// End-to-end response time including external queueing (the paper's
    /// response-time metric).
    pub fn response_time(&self) -> f64 {
        self.completed - self.external_arrival
    }

    /// Time spent inside the DBMS only.
    pub fn service_time(&self) -> f64 {
        self.completed - self.admitted
    }

    /// Time spent waiting in the external queue.
    pub fn external_wait(&self) -> f64 {
        self.admitted - self.external_arrival
    }
}

/// Aggregate counters kept by the simulator.
#[derive(Debug, Clone, Default)]
pub struct DbmsMetrics {
    /// Committed transactions.
    pub commits: u64,
    /// Abort events (deadlock victims + POW preemptions).
    pub aborts: u64,
    /// Aborts caused by deadlock resolution.
    pub deadlock_aborts: u64,
    /// Aborts caused by POW preemption.
    pub pow_aborts: u64,
    /// Aborts caused by lock-wait timeouts.
    pub timeout_aborts: u64,
    /// Forces that hardened more than one commit record (group commit).
    pub group_commits: u64,
    /// Asynchronous dirty-page write-backs issued.
    pub writebacks: u64,
    /// Buffer pool hits / misses.
    pub bp_hits: u64,
    /// Buffer pool misses (each cost a disk read).
    pub bp_misses: u64,
    /// CPU busy time (CPU-seconds).
    pub cpu_busy: f64,
    /// Per-data-disk busy time, seconds.
    pub disk_busy: Vec<f64>,
    /// Log disk busy time, seconds.
    pub log_busy: f64,
    /// Wall-clock span the metrics cover, seconds.
    pub elapsed: f64,
}

impl DbmsMetrics {
    /// CPU utilization in `[0, 1]` given the number of CPUs.
    pub fn cpu_utilization(&self, cpus: u32) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.cpu_busy / (cpus as f64 * self.elapsed)
        }
    }

    /// Mean data-disk utilization in `[0, 1]`.
    pub fn disk_utilization(&self) -> f64 {
        if self.elapsed == 0.0 || self.disk_busy.is_empty() {
            0.0
        } else {
            self.disk_busy.iter().sum::<f64>() / (self.disk_busy.len() as f64 * self.elapsed)
        }
    }

    /// Log-disk utilization in `[0, 1]`.
    pub fn log_utilization(&self) -> f64 {
        if self.elapsed == 0.0 {
            0.0
        } else {
            self.log_busy / self.elapsed
        }
    }

    /// Buffer pool hit ratio.
    pub fn hit_ratio(&self) -> f64 {
        let total = self.bp_hits + self.bp_misses;
        if total == 0 {
            0.0
        } else {
            self.bp_hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completion_decomposition() {
        let c = Completion {
            txn_type: 0,
            priority: Priority::Low,
            external_arrival: 1.0,
            admitted: 1.5,
            completed: 3.0,
            restarts: 0,
            lock_wait: 0.2,
        };
        assert!((c.response_time() - 2.0).abs() < 1e-12);
        assert!((c.external_wait() - 0.5).abs() < 1e-12);
        assert!((c.service_time() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn utilizations() {
        let m = DbmsMetrics {
            cpu_busy: 5.0,
            disk_busy: vec![2.0, 4.0],
            log_busy: 1.0,
            elapsed: 10.0,
            ..Default::default()
        };
        assert!((m.cpu_utilization(1) - 0.5).abs() < 1e-12);
        assert!((m.disk_utilization() - 0.3).abs() < 1e-12);
        assert!((m.log_utilization() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn empty_metrics_are_zero() {
        let m = DbmsMetrics::default();
        assert_eq!(m.cpu_utilization(2), 0.0);
        assert_eq!(m.disk_utilization(), 0.0);
        assert_eq!(m.hit_ratio(), 0.0);
    }
}
