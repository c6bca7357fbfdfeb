//! Deterministic future-event list.
//!
//! The queue is a 4-ary implicit min-heap keyed on `(time, seq)` where
//! `seq` is a monotonically increasing insertion counter. Ties in
//! simulated time are therefore broken by insertion order, which makes
//! every run fully deterministic for a given RNG seed — a property the
//! integration tests rely on. Because `(time, seq)` is a *strict* total
//! order (seq is unique), the pop sequence is the same for any correct
//! heap arity; switching from the standard binary heap changed no
//! observable behavior, only cache traffic.
//!
//! Why 4-ary: the event loop is pop-heavy (every pop sifts down the full
//! depth), and a branching factor of 4 halves the tree depth while the
//! four children of node `i` — slots `4i+1..4i+4` — share one or two
//! cache lines, so the wider child scan costs less than the extra levels
//! it removes. Insertions sift *up* through parent links `(i-1)/4` and
//! get strictly cheaper with the shallower tree.
//!
//! Cancellation is handled with *generation tokens* rather than heap
//! surgery: callers that need to invalidate a previously scheduled event
//! (e.g. a processor-sharing completion that is obsoleted by a new arrival)
//! store an epoch counter in the event payload and ignore stale pops. See
//! `xsched_dbms::cpu` for the idiom.

use crate::time::SimTime;

/// Branching factor of the implicit heap.
const ARITY: usize = 4;

struct Scheduled<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// Strict earliest-first ordering key: `(time, insertion order)`.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// A future-event list ordered by `(time, insertion order)`.
///
/// ```
/// use xsched_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs_f64(2.0), "later");
/// q.schedule(SimTime::from_secs_f64(1.0), "sooner");
/// let (t, e) = q.pop().unwrap();
/// assert_eq!(e, "sooner");
/// assert_eq!(t, SimTime::from_secs_f64(1.0));
/// ```
pub struct EventQueue<E> {
    /// Implicit 4-ary min-heap on `(time, seq)`.
    heap: Vec<Scheduled<E>>,
    seq: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// An empty queue with room for `cap` pending events before the heap
    /// reallocates — long simulations pre-size this once instead of
    /// re-growing mid-run.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Number of pending events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.heap.capacity()
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event (zero before the first pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Schedule `event` at absolute time `time`.
    ///
    /// Scheduling in the past is a model bug; debug builds assert, release
    /// builds clamp to `now` so long experiments degrade gracefully instead
    /// of travelling backwards.
    pub fn schedule(&mut self, time: SimTime, event: E) {
        debug_assert!(
            time >= self.now,
            "scheduled event in the past: {time} < now {}",
            self.now
        );
        let time = time.max(self.now);
        self.heap.push(Scheduled {
            time,
            seq: self.seq,
            event,
        });
        self.seq += 1;
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `event` `delay_secs` seconds from now.
    pub fn schedule_in(&mut self, delay_secs: f64, event: E) {
        let t = self
            .now
            .saturating_add(crate::time::SimDuration::from_secs_f64(delay_secs));
        self.schedule(t, event);
    }

    /// Remove and return the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let last = self.heap.pop()?;
        let s = if self.heap.is_empty() {
            last
        } else {
            let root = std::mem::replace(&mut self.heap[0], last);
            self.sift_down(0);
            root
        };
        debug_assert!(s.time >= self.now);
        self.now = s.time;
        Some((s.time, s.event))
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Drop all pending events without touching the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Restore the heap property upward from `i` (after a push).
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / ARITY;
            if self.heap[i].key() < self.heap[parent].key() {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    /// Restore the heap property downward from `i` (after a pop).
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = ARITY * i + 1;
            if first_child >= len {
                return;
            }
            // Smallest of the (up to) four children; (time, seq) is a
            // strict total order, so the minimum is unique.
            let mut min = first_child;
            let mut min_key = self.heap[min].key();
            for c in first_child + 1..(first_child + ARITY).min(len) {
                let k = self.heap[c].key();
                if k < min_key {
                    min = c;
                    min_key = k;
                }
            }
            if min_key < self.heap[i].key() {
                self.heap.swap(i, min);
                i = min;
            } else {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(30), 3);
        q.schedule(SimTime::from_nanos(10), 1);
        q.schedule(SimTime::from_nanos(20), 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_nanos(42));
    }

    #[test]
    fn schedule_in_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs_f64(1.0), "a");
        q.pop();
        q.schedule_in(0.5, "b");
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_secs_f64(1.5));
    }

    #[test]
    fn len_and_clear() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(1), ());
        q.schedule(SimTime::from_nanos(2), ());
        assert_eq!(q.len(), 2);
        assert!(!q.is_empty());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn with_capacity_preallocates() {
        let q: EventQueue<()> = EventQueue::with_capacity(4096);
        assert!(q.capacity() >= 4096);
        assert!(q.is_empty());
    }

    /// One million scheduled events with heavy time ties pop in the same
    /// order on every run, and the pre-sized heap never re-grows.
    #[test]
    fn million_events_pop_deterministically() {
        const N: u64 = 1_000_000;
        let run = || -> (u64, usize) {
            let mut q = EventQueue::with_capacity(N as usize);
            let mut rng = crate::SimRng::derive(7, "heap");
            for i in 0..N {
                // ~16 events per distinct nanosecond: ties everywhere.
                let t = SimTime::from_nanos(rng.index_u64(N / 16));
                q.schedule(t.max(q.now()), i);
            }
            let cap = q.capacity();
            let mut checksum = 0u64;
            let mut last = SimTime::ZERO;
            let mut popped = 0u64;
            while let Some((t, e)) = q.pop() {
                assert!(t >= last, "heap order violated");
                last = t;
                checksum = checksum.rotate_left(7).wrapping_add(e ^ t.as_nanos());
                popped += 1;
            }
            assert_eq!(popped, N);
            (checksum, cap)
        };
        let (c1, cap1) = run();
        let (c2, _) = run();
        assert_eq!(c1, c2, "same schedule must drain identically");
        assert!(cap1 >= N as usize, "pre-sized heap must not shrink");
    }

    /// Interleaved schedule/pop drains in strict `(time, seq)` order —
    /// exercises sift-down across every child-count shape of the 4-ary
    /// tree (0–4 children, partial last node).
    #[test]
    fn interleaved_operations_pop_in_total_order() {
        let mut q = EventQueue::new();
        let mut rng = crate::SimRng::derive(11, "dheap");
        let mut popped: Vec<(SimTime, u64)> = Vec::new();
        let mut scheduled = 0u64;
        for round in 0..1_000 {
            for _ in 0..(round % 7) + 1 {
                let t = q
                    .now()
                    .saturating_add(crate::time::SimDuration::from_nanos(rng.index_u64(50)));
                q.schedule(t, scheduled);
                scheduled += 1;
            }
            for _ in 0..(round % 5) {
                if let Some((t, e)) = q.pop() {
                    popped.push((t, e));
                }
            }
        }
        while let Some((t, e)) = q.pop() {
            popped.push((t, e));
        }
        assert_eq!(popped.len() as u64, scheduled);
        for w in popped.windows(2) {
            assert!(w[0].0 <= w[1].0, "time order violated");
        }
    }

    #[cfg(not(debug_assertions))]
    #[test]
    fn past_schedule_clamps_in_release() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_nanos(100), ());
        q.pop();
        q.schedule(SimTime::from_nanos(10), ());
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_nanos(100));
    }
}
