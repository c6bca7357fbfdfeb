//! The buffer pool as it stood before the direct page index, kept
//! verbatim (less the accessors no test calls) as the test oracle: the
//! differential tests in [`super`] drive it and the live pool in lockstep
//! and compare every probe, eviction, length and hit/miss count.

use crate::txn::PageId;
use xsched_sim::FxHashMap;

const NIL: u32 = u32::MAX;

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
    map: FxHashMap<PageId, u32>,
    nodes: Vec<Node>,
    free: Vec<u32>,
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
            map: FxHashMap::with_capacity_and_hasher(capacity.min(1 << 22), Default::default()),
            nodes: Vec::with_capacity(capacity.min(1 << 22)),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Probe for `page`. On a hit the page is moved to the MRU position
    /// and `true` is returned; on a miss `false` is returned and the caller
    /// is expected to perform the disk read and then [`BufferPool::insert`]
    /// the page.
    pub fn probe(&mut self, page: PageId) -> bool {
        if let Some(&idx) = self.map.get(&page) {
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
        if let Some(&idx) = self.map.get(&page) {
            self.move_to_front(idx);
            return None;
        }
        let evicted = if self.map.len() >= self.capacity {
            let tail = self.tail;
            debug_assert_ne!(tail, NIL);
            let victim = self.nodes[tail as usize].page;
            self.unlink(tail);
            self.map.remove(&victim);
            self.free.push(tail);
            Some(victim)
        } else {
            None
        };
        let idx = if let Some(idx) = self.free.pop() {
            self.nodes[idx as usize] = Node {
                page,
                prev: NIL,
                next: NIL,
            };
            idx
        } else {
            self.nodes.push(Node {
                page,
                prev: NIL,
                next: NIL,
            });
            (self.nodes.len() - 1) as u32
        };
        self.map.insert(page, idx);
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
        self.map.len()
    }

    /// Hit count so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Miss count so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }
}
