//! Hardware and DBMS configuration.
//!
//! These structs correspond to the knobs varied across the paper's 17
//! setups (Table 2): number of CPUs, number of data disks, memory/buffer
//! pool size, and isolation level — plus the internal prioritization
//! switches used in §5.2.

/// Physical resources of the simulated database server.
#[derive(Debug, Clone, PartialEq)]
pub struct HardwareConfig {
    /// Number of CPUs (1 or 2 in the paper).
    pub cpus: u32,
    /// Number of data disks the database is striped over (1–6 in the
    /// paper; one further disk is always dedicated to the log).
    pub data_disks: u32,
    /// Buffer pool capacity in pages. Together with the workload's
    /// database size this determines the hit ratio — the paper varies it
    /// between 100 MB and 1 GB (Table 1).
    pub bufferpool_pages: u64,
    /// Mean service time of one data-disk read, seconds.
    pub disk_read_time: f64,
    /// Mean service time of one log write (commit force), seconds.
    pub log_write_time: f64,
    /// Mean non-resource delay per step, seconds: client↔server round
    /// trips and per-statement protocol work that occupy the transaction
    /// (and its MPL slot, and its locks) without using CPU or disk. This
    /// is why even a pure-CPU workload needs an MPL of ~5 rather than ~1
    /// to saturate one CPU (Fig. 2).
    pub step_delay: f64,
}

impl Default for HardwareConfig {
    fn default() -> Self {
        HardwareConfig {
            cpus: 1,
            data_disks: 1,
            bufferpool_pages: 50_000,
            disk_read_time: 0.005,
            log_write_time: 0.003,
            step_delay: 0.0006,
        }
    }
}

impl HardwareConfig {
    /// Write a structural fingerprint of every field (floats as IEEE bit
    /// patterns) — the measurement-cache key's view of this config. The
    /// exhaustive destructuring (no `..`) makes adding a field without
    /// fingerprinting it a compile error.
    pub fn fingerprint_into(&self, fp: &mut xsched_sim::StableFp) {
        let HardwareConfig {
            cpus,
            data_disks,
            bufferpool_pages,
            disk_read_time,
            log_write_time,
            step_delay,
        } = *self;
        fp.write_u32(cpus);
        fp.write_u32(data_disks);
        fp.write_u64(bufferpool_pages);
        fp.write_f64(disk_read_time);
        fp.write_f64(log_write_time);
        fp.write_f64(step_delay);
    }

    /// Builder-style setter for the CPU count.
    pub fn with_cpus(mut self, cpus: u32) -> Self {
        self.cpus = cpus;
        self
    }

    /// Builder-style setter for the data-disk count.
    pub fn with_data_disks(mut self, disks: u32) -> Self {
        self.data_disks = disks;
        self
    }

    /// Builder-style setter for the buffer-pool capacity.
    pub fn with_bufferpool_pages(mut self, pages: u64) -> Self {
        self.bufferpool_pages = pages;
        self
    }
}

/// Isolation level, controlling how much locking transactions perform.
///
/// The paper contrasts DB2's default Repeatable Read (RR) with Uncommitted
/// Read (UR) to create different levels of lock contention (setups 13–17).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IsolationLevel {
    /// Repeatable Read: shared locks on reads and exclusive locks on
    /// writes, all held until commit (strict 2PL).
    RepeatableRead,
    /// Uncommitted Read: no shared locks at all; only writes take
    /// (exclusive) locks.
    UncommittedRead,
}

/// How the lock manager orders waiters (internal prioritization, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockPriorityPolicy {
    /// Plain FIFO lock queues — no internal lock prioritization.
    None,
    /// High-priority requests enqueue ahead of waiting low-priority
    /// requests (non-preemptive priority queues).
    PriorityQueue,
    /// Preempt-on-Wait (McWherter et al., cited by the paper): like
    /// [`LockPriorityPolicy::PriorityQueue`], and additionally a blocked
    /// high-priority request aborts any low-priority lock *holder* that is
    /// itself waiting at some other lock queue.
    PreemptOnWait,
}

/// How the CPU bank shares cycles (internal prioritization, §5.2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CpuPolicy {
    /// Egalitarian processor sharing across all runnable transactions.
    Fair,
    /// Preemptive two-level priority: high-priority transactions share the
    /// CPUs first; low-priority ones get the leftover capacity (the
    /// paper's `renice -20` / `+20` experiment).
    PrioritizeHigh,
}

/// How blocked-forever situations are resolved.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DeadlockStrategy {
    /// Waits-for graph cycle detection at block time, youngest victim
    /// aborted (the default, what DB2 and Shore do).
    Detection,
    /// No graph maintenance: a blocked request that has waited longer than
    /// the timeout is aborted (the cheap alternative several systems use;
    /// trades detection cost for false positives under load).
    Timeout {
        /// Seconds a lock request may wait before its transaction aborts.
        timeout: f64,
    },
}

/// Software configuration of the simulated DBMS.
#[derive(Debug, Clone, PartialEq)]
pub struct DbmsConfig {
    /// Isolation level for all transactions.
    pub isolation: IsolationLevel,
    /// Lock-queue priority policy.
    pub lock_policy: LockPriorityPolicy,
    /// CPU scheduling policy.
    pub cpu_policy: CpuPolicy,
    /// Extra CPU time consumed per buffer-pool *hit* page access, seconds
    /// (a memory hit still costs cycles).
    pub hit_cpu_time: f64,
    /// Mean of the exponential backoff before an aborted transaction is
    /// restarted, seconds.
    pub restart_backoff: f64,
    /// Upper bound on restarts per transaction before it is force-completed
    /// without its locks (guards against livelock). The guard is reached in
    /// the paper's operating range: it fires once in `figures --quick
    /// fig12`, whose output therefore includes one lock-free transaction.
    pub max_restarts: u32,
    /// Deadlock resolution strategy.
    pub deadlock: DeadlockStrategy,
    /// Group commit: while the log disk is busy, arriving commit records
    /// accumulate and are hardened by a single force write. Off by default
    /// (per-commit forces, as calibrated against the paper's setups).
    pub group_commit: bool,
    /// Fraction of a committed transaction's touched pages written back to
    /// the data disks asynchronously after commit (dirty-page flushing).
    /// The transaction does not wait for these writes, but they occupy
    /// the disks. 0.0 disables write-back.
    pub writeback_fraction: f64,
}

impl Default for DbmsConfig {
    fn default() -> Self {
        DbmsConfig {
            isolation: IsolationLevel::RepeatableRead,
            lock_policy: LockPriorityPolicy::None,
            cpu_policy: CpuPolicy::Fair,
            hit_cpu_time: 20e-6,
            restart_backoff: 0.010,
            max_restarts: 50,
            deadlock: DeadlockStrategy::Detection,
            group_commit: false,
            writeback_fraction: 0.0,
        }
    }
}

impl DbmsConfig {
    /// Write a structural fingerprint of every field — the
    /// measurement-cache key's view of this config. The exhaustive
    /// destructuring (no `..`) makes adding a field without
    /// fingerprinting it a compile error.
    pub fn fingerprint_into(&self, fp: &mut xsched_sim::StableFp) {
        let DbmsConfig {
            isolation,
            lock_policy,
            cpu_policy,
            hit_cpu_time,
            restart_backoff,
            max_restarts,
            deadlock,
            group_commit,
            writeback_fraction,
        } = *self;
        fp.write_u64(match isolation {
            IsolationLevel::RepeatableRead => 0,
            IsolationLevel::UncommittedRead => 1,
        });
        fp.write_u64(match lock_policy {
            LockPriorityPolicy::None => 0,
            LockPriorityPolicy::PriorityQueue => 1,
            LockPriorityPolicy::PreemptOnWait => 2,
        });
        fp.write_u64(match cpu_policy {
            CpuPolicy::Fair => 0,
            CpuPolicy::PrioritizeHigh => 1,
        });
        fp.write_f64(hit_cpu_time);
        fp.write_f64(restart_backoff);
        fp.write_u32(max_restarts);
        match deadlock {
            DeadlockStrategy::Detection => fp.write_u64(0),
            DeadlockStrategy::Timeout { timeout } => {
                fp.write_u64(1);
                fp.write_f64(timeout);
            }
        }
        fp.write_bool(group_commit);
        fp.write_f64(writeback_fraction);
    }

    /// Builder-style setter for the isolation level.
    pub fn with_isolation(mut self, iso: IsolationLevel) -> Self {
        self.isolation = iso;
        self
    }

    /// Builder-style setter for the lock priority policy.
    pub fn with_lock_policy(mut self, p: LockPriorityPolicy) -> Self {
        self.lock_policy = p;
        self
    }

    /// Builder-style setter for the CPU policy.
    pub fn with_cpu_policy(mut self, p: CpuPolicy) -> Self {
        self.cpu_policy = p;
        self
    }

    /// Builder-style setter for the deadlock strategy.
    pub fn with_deadlock(mut self, d: DeadlockStrategy) -> Self {
        self.deadlock = d;
        self
    }

    /// Builder-style setter for group commit.
    pub fn with_group_commit(mut self, on: bool) -> Self {
        self.group_commit = on;
        self
    }

    /// Builder-style setter for asynchronous dirty-page write-back.
    pub fn with_writeback_fraction(mut self, f: f64) -> Self {
        assert!((0.0..=1.0).contains(&f));
        self.writeback_fraction = f;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_single_resource_rr_fair() {
        let hw = HardwareConfig::default();
        assert_eq!(hw.cpus, 1);
        assert_eq!(hw.data_disks, 1);
        let db = DbmsConfig::default();
        assert_eq!(db.isolation, IsolationLevel::RepeatableRead);
        assert_eq!(db.lock_policy, LockPriorityPolicy::None);
        assert_eq!(db.cpu_policy, CpuPolicy::Fair);
    }

    #[test]
    fn builders_chain() {
        let hw = HardwareConfig::default()
            .with_cpus(2)
            .with_data_disks(4)
            .with_bufferpool_pages(123);
        assert_eq!((hw.cpus, hw.data_disks, hw.bufferpool_pages), (2, 4, 123));
        let db = DbmsConfig::default()
            .with_isolation(IsolationLevel::UncommittedRead)
            .with_lock_policy(LockPriorityPolicy::PreemptOnWait)
            .with_cpu_policy(CpuPolicy::PrioritizeHigh);
        assert_eq!(db.isolation, IsolationLevel::UncommittedRead);
        assert_eq!(db.lock_policy, LockPriorityPolicy::PreemptOnWait);
        assert_eq!(db.cpu_policy, CpuPolicy::PrioritizeHigh);
    }
}
