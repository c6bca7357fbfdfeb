//! Transaction identity and structure.
//!
//! A transaction body is a straight-line program of [`Step`]s. Each step
//! optionally acquires one lock, then touches a set of pages (buffer pool
//! probes that may become disk reads), then burns a CPU burst. Commit
//! forces one log write and releases all locks (strict 2PL).

/// Identifier of an admitted transaction instance, unique per simulation
/// and the simulator's only handle on it. The simulator puts the
/// admission ordinal in the high bits and the transaction's state slot
/// in the low 20, so ids order by admission: the age for deadlock victim
/// selection (larger id = younger). Every other component treats the
/// value as opaque.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TxnId(pub u64);

/// Identifier of a database page (buffer pool / disk granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PageId(pub u64);

/// Identifier of a lockable item (row / table granularity).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ItemId(pub u64);

/// Lock mode of a request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LockMode {
    /// Shared (read) lock — compatible with other shared locks.
    Shared,
    /// Exclusive (write) lock — compatible with nothing.
    Exclusive,
}

impl LockMode {
    /// Lock compatibility matrix of strict 2PL.
    pub fn compatible_with(self, other: LockMode) -> bool {
        matches!((self, other), (LockMode::Shared, LockMode::Shared))
    }
}

/// Scheduling class of a transaction (the paper uses two: 10% "big
/// spenders" are high priority, the rest low).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Priority {
    /// Low-priority class (ordinary shoppers).
    Low,
    /// High-priority class (revenue-carrying transactions).
    High,
}

/// One step of a transaction body.
#[derive(Debug, Clone, PartialEq)]
pub struct Step {
    /// Lock acquired at the start of the step, if any. Under Uncommitted
    /// Read isolation, `Shared` requests are skipped entirely.
    pub lock: Option<(ItemId, LockMode)>,
    /// Pages touched during the step; each is a buffer-pool probe that
    /// costs `hit_cpu_time` on a hit or one disk read on a miss.
    pub pages: Vec<PageId>,
    /// Pure CPU demand of the step, seconds.
    pub cpu: f64,
}

impl Step {
    /// A compute-only step.
    pub fn compute(cpu: f64) -> Step {
        Step {
            lock: None,
            pages: Vec::new(),
            cpu,
        }
    }
}

/// A complete transaction body as submitted by the external scheduler.
#[derive(Debug, Clone, PartialEq)]
pub struct TxnBody {
    /// Workload-defined transaction type index (e.g. NewOrder = 0); only
    /// used for reporting.
    pub txn_type: u32,
    /// Scheduling class.
    pub priority: Priority,
    /// The program.
    pub steps: Vec<Step>,
}

impl TxnBody {
    /// Total pure CPU demand across steps (excludes buffer-hit costs).
    pub fn total_cpu(&self) -> f64 {
        self.steps.iter().map(|s| s.cpu).sum()
    }

    /// Total number of page accesses.
    pub fn total_pages(&self) -> usize {
        self.steps.iter().map(|s| s.pages.len()).sum()
    }

    /// Number of lock requests (before isolation-level filtering).
    pub fn total_locks(&self) -> usize {
        self.steps.iter().filter(|s| s.lock.is_some()).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compatibility_matrix() {
        use LockMode::*;
        assert!(Shared.compatible_with(Shared));
        assert!(!Shared.compatible_with(Exclusive));
        assert!(!Exclusive.compatible_with(Shared));
        assert!(!Exclusive.compatible_with(Exclusive));
    }

    #[test]
    fn body_totals() {
        let body = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![
                Step {
                    lock: Some((ItemId(1), LockMode::Shared)),
                    pages: vec![PageId(1), PageId(2)],
                    cpu: 0.001,
                },
                Step::compute(0.002),
                Step {
                    lock: Some((ItemId(2), LockMode::Exclusive)),
                    pages: vec![PageId(3)],
                    cpu: 0.003,
                },
            ],
        };
        assert!((body.total_cpu() - 0.006).abs() < 1e-12);
        assert_eq!(body.total_pages(), 3);
        assert_eq!(body.total_locks(), 2);
    }

    #[test]
    fn priority_orders_low_below_high() {
        assert!(Priority::Low < Priority::High);
    }
}
