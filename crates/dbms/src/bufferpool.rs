//! LRU buffer pool.
//!
//! The pool decides which page accesses are memory hits (CPU-only cost)
//! and which become disk reads. Capacity in pages vs. the workload's
//! database size reproduces the paper's memory-pressure dimension (Table 1
//! varies the buffer pool between 100 MB and 3 GB to turn the same
//! benchmark into a CPU-bound or an I/O-bound workload).
//!
//! Implementation: an intrusive doubly-linked LRU list over slots, O(1)
//! probe and insert — the standard design, sized for tens of millions of
//! probes per experiment. What differs is how a page finds its slot.
//! Page ids are Zipf ranks (the workload draws rank `r` with weight
//! `(r+1)^-θ`), and the driver warms the pool with exactly the ids
//! `0..min(capacity, db_pages)`, so the ids below `capacity` are the
//! hottest ones. They find their slot through a direct index, a zeroed
//! `Vec<u32>` of `slot + 1` (0 = absent) that costs one load and no
//! hashing. The ids at or above `capacity` go through an Fx-hashed map,
//! which starts empty and grows only with the cold pages resident.
//!
//! Which side serves a probe depends on how much of the Zipf mass lies
//! below `capacity`. Counted over one unthrottled run of each Table-2
//! setup (seed 42, 300 warm-up and 2,000 measured transactions):
//! - a CPU-bound pool holds the whole database (setups 1–4 and 13–17),
//!   so every probe is direct and the map stays empty;
//! - the CPU+IO pool (setups 11–12: 40k of 100k pages, θ = 1) hashes
//!   7.6% of its probes;
//! - an I/O-bound pool (10k pages) still hashes most of them: 81% for
//!   `W_IO-inventory` (600k pages, θ = 0.6, setups 5–8) and 78% for
//!   `W_IO-browsing` (200k pages, θ = 0.5, setups 9–10), since the head
//!   of so flat a Zipf carries only about a fifth of the mass.
//!
//! The LRU order, the victim of every eviction and the hit/miss counts do
//! not depend on where a slot is looked up, so they are exactly those of
//! a single map.

use crate::txn::PageId;
use xsched_sim::FxHashMap;

#[cfg(test)]
mod oracle;

const NIL: u32 = u32::MAX;

/// Ids below this many are indexed directly even when the capacity is
/// larger, so an absurd capacity cannot demand an absurd index.
const DIRECT_MAX: usize = 1 << 22;

#[derive(Debug, Clone, Copy)]
struct Node {
    page: PageId,
    prev: u32,
    next: u32,
}

/// A fixed-capacity LRU cache of pages.
#[derive(Debug)]
pub struct BufferPool {
    capacity: usize,
    /// `slot + 1` of each resident page whose id is below `direct.len()`,
    /// 0 for an absent one.
    direct: Vec<u32>,
    /// Slots of the resident pages whose ids are at or above `direct.len()`.
    cold: FxHashMap<PageId, u32>,
    /// One slot per resident page; a full pool reuses the victim's slot.
    nodes: Vec<Node>,
    head: u32, // most recently used
    tail: u32, // least recently used
    hits: u64,
    misses: u64,
}

impl BufferPool {
    /// A pool holding at most `capacity` pages (`capacity ≥ 1`).
    pub fn new(capacity: u64) -> BufferPool {
        let capacity = capacity.max(1) as usize;
        BufferPool {
            capacity,
            direct: vec![0; capacity.min(DIRECT_MAX)],
            cold: FxHashMap::default(),
            nodes: Vec::with_capacity(capacity.min(DIRECT_MAX)),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// The slot holding `page`, if it is resident.
    #[inline]
    fn slot(&self, page: PageId) -> Option<u32> {
        if page.0 < self.direct.len() as u64 {
            self.direct[page.0 as usize].checked_sub(1)
        } else {
            self.cold.get(&page).copied()
        }
    }

    /// Record `page` as held in `slot`, or as absent for `None`.
    #[inline]
    fn set_slot(&mut self, page: PageId, slot: Option<u32>) {
        if page.0 < self.direct.len() as u64 {
            self.direct[page.0 as usize] = slot.map_or(0, |s| s + 1);
        } else if let Some(s) = slot {
            self.cold.insert(page, s);
        } else {
            self.cold.remove(&page);
        }
    }

    /// Probe for `page`. On a hit the page is moved to the MRU position
    /// and `true` is returned; on a miss `false` is returned and the caller
    /// is expected to perform the disk read and then [`BufferPool::insert`]
    /// the page.
    pub fn probe(&mut self, page: PageId) -> bool {
        if let Some(idx) = self.slot(page) {
            self.hits += 1;
            self.move_to_front(idx);
            true
        } else {
            self.misses += 1;
            false
        }
    }

    /// Insert `page` at the MRU position, evicting the LRU page if full.
    /// Returns the evicted page, if any. Inserting a resident page just
    /// refreshes its position.
    pub fn insert(&mut self, page: PageId) -> Option<PageId> {
        if let Some(idx) = self.slot(page) {
            self.move_to_front(idx);
            return None;
        }
        let (idx, evicted) = if self.nodes.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            let victim = self.nodes[tail as usize].page;
            self.unlink(tail);
            self.set_slot(victim, None);
            self.nodes[tail as usize].page = page;
            (tail, Some(victim))
        } else {
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            ((self.nodes.len() - 1) as u32, None)
        };
        self.set_slot(page, Some(idx));
        self.push_front(idx);
        evicted
    }

    fn unlink(&mut self, idx: u32) {
        let (prev, next) = {
            let n = &self.nodes[idx as usize];
            (n.prev, n.next)
        };
        if prev != NIL {
            self.nodes[prev as usize].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next as usize].prev = prev;
        } else {
            self.tail = prev;
        }
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = NIL;
    }

    fn push_front(&mut self, idx: u32) {
        self.nodes[idx as usize].prev = NIL;
        self.nodes[idx as usize].next = self.head;
        if self.head != NIL {
            self.nodes[self.head as usize].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }

    fn move_to_front(&mut self, idx: u32) {
        if self.head == idx {
            return;
        }
        self.unlink(idx);
        self.push_front(idx);
    }

    /// Number of resident pages.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if no pages are resident.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Capacity in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hit ratio so far (0 when unprobed).
    pub fn hit_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn p(n: u64) -> PageId {
        PageId(n)
    }

    #[test]
    fn miss_then_hit() {
        let mut bp = BufferPool::new(10);
        assert!(!bp.probe(p(1)));
        bp.insert(p(1));
        assert!(bp.probe(p(1)));
        assert_eq!(bp.hits(), 1);
        assert_eq!(bp.misses(), 1);
        assert!((bp.hit_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn lru_eviction_order() {
        let mut bp = BufferPool::new(3);
        bp.insert(p(1));
        bp.insert(p(2));
        bp.insert(p(3));
        // Touch 1 so 2 becomes LRU.
        assert!(bp.probe(p(1)));
        let evicted = bp.insert(p(4));
        assert_eq!(evicted, Some(p(2)));
        assert!(bp.probe(p(1)));
        assert!(!bp.probe(p(2)));
        assert!(bp.probe(p(3)));
        assert!(bp.probe(p(4)));
    }

    #[test]
    fn capacity_never_exceeded() {
        let mut bp = BufferPool::new(5);
        for i in 0..100 {
            bp.insert(p(i));
            assert!(bp.len() <= 5);
        }
        assert_eq!(bp.len(), 5);
        // The five most recent pages are resident.
        for i in 95..100 {
            assert!(bp.probe(p(i)), "page {i} missing");
        }
    }

    #[test]
    fn reinsert_refreshes_without_eviction() {
        let mut bp = BufferPool::new(2);
        bp.insert(p(1));
        bp.insert(p(2));
        assert_eq!(bp.insert(p(1)), None); // refresh, no eviction
        assert_eq!(bp.insert(p(3)), Some(p(2))); // 2 was LRU after refresh
    }

    #[test]
    fn working_set_within_capacity_hits_forever() {
        let mut bp = BufferPool::new(64);
        // Warm up.
        for i in 0..64 {
            bp.probe(p(i));
            bp.insert(p(i));
        }
        let misses_before = bp.misses();
        for round in 0..10 {
            for i in 0..64 {
                assert!(bp.probe(p(i)), "round {round} page {i}");
            }
        }
        assert_eq!(bp.misses(), misses_before);
    }

    #[test]
    fn capacity_one() {
        let mut bp = BufferPool::new(1);
        bp.insert(p(1));
        assert_eq!(bp.insert(p(2)), Some(p(1)));
        assert!(bp.probe(p(2)));
        assert!(!bp.probe(p(1)));
    }

    /// The live pool and the oracle driven in lockstep; every call
    /// asserts that both return the same value and agree on the length
    /// and the hit/miss counts afterwards.
    struct Twin {
        pool: BufferPool,
        oracle: oracle::BufferPool,
    }

    impl Twin {
        fn new(capacity: u64) -> Twin {
            Twin {
                pool: BufferPool::new(capacity),
                oracle: oracle::BufferPool::new(capacity),
            }
        }

        fn check(&self) {
            assert_eq!(self.pool.len(), self.oracle.len());
            assert_eq!(self.pool.is_empty(), self.oracle.len() == 0);
            assert_eq!(self.pool.hits(), self.oracle.hits());
            assert_eq!(self.pool.misses(), self.oracle.misses());
        }

        fn probe(&mut self, page: PageId) -> bool {
            let hit = self.pool.probe(page);
            assert_eq!(hit, self.oracle.probe(page), "probe {page:?}");
            self.check();
            hit
        }

        fn insert(&mut self, page: PageId) {
            let evicted = self.pool.insert(page);
            assert_eq!(evicted, self.oracle.insert(page), "insert {page:?}");
            self.check();
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random warm-ups, probes, inserts and the simulator's
        /// probe-then-insert-on-miss, over ids on both sides of the
        /// capacity (so evictions move slots between the direct index
        /// and the cold map), give the oracle's results at every step.
        #[test]
        fn pool_matches_the_oracle(
            ops in proptest::collection::vec((0u8..8, any::<u64>()), 1..600),
            capacity in 1u64..=64,
        ) {
            let mut twin = Twin::new(capacity);
            for &(op, sel) in &ops {
                // Mostly ids below 3× the capacity, now and then a far one.
                let page = if sel % 16 == 0 { sel >> 4 } else { (sel >> 4) % (3 * capacity) };
                match op {
                    0 => {
                        // Warm-up as the driver does it: hottest id last.
                        for id in (0..page % (2 * capacity)).rev() {
                            twin.insert(p(id));
                        }
                    }
                    1 | 2 => {
                        twin.probe(p(page));
                    }
                    3 => twin.insert(p(page)),
                    _ => {
                        if !twin.probe(p(page)) {
                            twin.insert(p(page));
                        }
                    }
                }
            }
        }
    }
}
