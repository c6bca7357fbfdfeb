//! External-queue ordering disciplines.
//!
//! The external scheduler's power comes from being able to reorder the
//! external queue arbitrarily (§1). The paper's prioritization experiment
//! uses strict two-class priority with FIFO within a class ([`PriorityFifo`],
//! §5.1); [`Fifo`] is the neutral baseline; [`Sjf`] is a
//! shortest-job-first extension exercising the "custom-tailored policy"
//! flexibility the paper advertises (it assumes the application can
//! estimate transaction demands, e.g. from query plans).

use std::collections::VecDeque;
use xsched_dbms::txn::{Priority, TxnBody};

/// A transaction waiting in the external queue.
#[derive(Debug, Clone)]
pub struct QueuedTxn {
    /// The transaction program.
    pub body: TxnBody,
    /// Time it arrived at the external queue, seconds.
    pub arrival: f64,
}

/// An ordering discipline for the external queue.
pub trait QueuePolicy {
    /// Add a transaction to the queue.
    fn push(&mut self, txn: QueuedTxn);
    /// Remove the next transaction to admit, if any.
    fn pop(&mut self) -> Option<QueuedTxn>;
    /// Number of queued transactions.
    fn len(&self) -> usize;
    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl QueuePolicy for Box<dyn QueuePolicy> {
    fn push(&mut self, txn: QueuedTxn) {
        (**self).push(txn)
    }
    fn pop(&mut self) -> Option<QueuedTxn> {
        (**self).pop()
    }
    fn len(&self) -> usize {
        (**self).len()
    }
}

/// First-in-first-out: the no-differentiation baseline.
#[derive(Debug, Default)]
pub struct Fifo {
    q: VecDeque<QueuedTxn>,
}

impl Fifo {
    /// An empty FIFO queue.
    pub fn new() -> Fifo {
        Fifo::default()
    }
}

impl QueuePolicy for Fifo {
    fn push(&mut self, txn: QueuedTxn) {
        self.q.push_back(txn);
    }
    fn pop(&mut self) -> Option<QueuedTxn> {
        self.q.pop_front()
    }
    fn len(&self) -> usize {
        self.q.len()
    }
}

/// Strict two-class priority, FIFO within each class: "high-priority
/// transactions are given first priority, and low-priority transactions
/// are only chosen if there are no more high-priority transactions" (§5.1).
#[derive(Debug, Default)]
pub struct PriorityFifo {
    high: VecDeque<QueuedTxn>,
    low: VecDeque<QueuedTxn>,
}

impl PriorityFifo {
    /// An empty two-class queue.
    pub fn new() -> PriorityFifo {
        PriorityFifo::default()
    }

    /// Number of queued high-priority transactions.
    pub fn high_len(&self) -> usize {
        self.high.len()
    }
}

impl QueuePolicy for PriorityFifo {
    fn push(&mut self, txn: QueuedTxn) {
        match txn.body.priority {
            Priority::High => self.high.push_back(txn),
            Priority::Low => self.low.push_back(txn),
        }
    }
    fn pop(&mut self) -> Option<QueuedTxn> {
        self.high.pop_front().or_else(|| self.low.pop_front())
    }
    fn len(&self) -> usize {
        self.high.len() + self.low.len()
    }
}

/// Shortest-job-first on estimated intrinsic demand (CPU plus uncached
/// I/O time). Ties break FIFO. An *extension* beyond the paper's
/// experiments, enabled by the same external mechanism.
#[derive(Debug)]
pub struct Sjf {
    io_cost: f64,
    // (key, seq) kept sorted ascending; pop from the front. A Vec with
    // binary-search insert beats a BinaryHeap at the queue lengths seen
    // here and keeps iteration deterministic.
    q: Vec<(f64, u64, QueuedTxn)>,
    seq: u64,
}

impl Sjf {
    /// `io_cost` is the assumed time of one uncached page access, used to
    /// convert page counts into seconds when estimating demands.
    pub fn new(io_cost: f64) -> Sjf {
        Sjf {
            io_cost,
            q: Vec::new(),
            seq: 0,
        }
    }

    fn demand(&self, body: &TxnBody) -> f64 {
        body.total_cpu() + body.total_pages() as f64 * self.io_cost
    }
}

impl QueuePolicy for Sjf {
    fn push(&mut self, txn: QueuedTxn) {
        let key = self.demand(&txn.body);
        let seq = self.seq;
        self.seq += 1;
        let pos = self
            .q
            .partition_point(|(k, s, _)| *k < key || (*k == key && *s < seq));
        self.q.insert(pos, (key, seq, txn));
    }
    fn pop(&mut self) -> Option<QueuedTxn> {
        if self.q.is_empty() {
            None
        } else {
            Some(self.q.remove(0).2)
        }
    }
    fn len(&self) -> usize {
        self.q.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use xsched_dbms::txn::Step;

    fn txn(priority: Priority, cpu: f64, arrival: f64) -> QueuedTxn {
        QueuedTxn {
            body: TxnBody {
                txn_type: 0,
                priority,
                steps: vec![Step::compute(cpu)],
            },
            arrival,
        }
    }

    #[test]
    fn fifo_preserves_order() {
        let mut q = Fifo::new();
        for i in 0..5 {
            q.push(txn(Priority::Low, 0.001, i as f64));
        }
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|t| t.arrival)).collect();
        assert_eq!(order, vec![0.0, 1.0, 2.0, 3.0, 4.0]);
        assert!(q.is_empty());
    }

    #[test]
    fn priority_fifo_serves_high_first() {
        let mut q = PriorityFifo::new();
        q.push(txn(Priority::Low, 0.001, 0.0));
        q.push(txn(Priority::High, 0.001, 1.0));
        q.push(txn(Priority::Low, 0.001, 2.0));
        q.push(txn(Priority::High, 0.001, 3.0));
        assert_eq!(q.len(), 4);
        assert_eq!(q.high_len(), 2);
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|t| t.arrival)).collect();
        assert_eq!(order, vec![1.0, 3.0, 0.0, 2.0], "high FIFO then low FIFO");
    }

    #[test]
    fn sjf_orders_by_demand() {
        let mut q = Sjf::new(0.005);
        q.push(txn(Priority::Low, 0.030, 0.0));
        q.push(txn(Priority::Low, 0.010, 1.0));
        q.push(txn(Priority::Low, 0.020, 2.0));
        let order: Vec<f64> = std::iter::from_fn(|| q.pop().map(|t| t.arrival)).collect();
        assert_eq!(order, vec![1.0, 2.0, 0.0]);
    }

    #[test]
    fn sjf_counts_io_in_demand() {
        let mut q = Sjf::new(0.005);
        // 1 ms CPU + 10 pages = 51 ms estimated; vs 30 ms pure CPU.
        let mut io_heavy = txn(Priority::Low, 0.001, 0.0);
        io_heavy.body.steps[0].pages = (0..10).map(xsched_dbms::txn::PageId).collect();
        q.push(io_heavy);
        q.push(txn(Priority::Low, 0.030, 1.0));
        assert_eq!(q.pop().unwrap().arrival, 1.0, "pure-CPU txn is shorter");
    }

    #[test]
    fn sjf_ties_break_fifo() {
        let mut q = Sjf::new(0.0);
        q.push(txn(Priority::Low, 0.010, 0.0));
        q.push(txn(Priority::Low, 0.010, 1.0));
        assert_eq!(q.pop().unwrap().arrival, 0.0);
        assert_eq!(q.pop().unwrap().arrival, 1.0);
    }

    #[test]
    fn empty_pops_none() {
        assert!(Fifo::new().pop().is_none());
        assert!(PriorityFifo::new().pop().is_none());
        assert!(Sjf::new(0.0).pop().is_none());
    }
}
