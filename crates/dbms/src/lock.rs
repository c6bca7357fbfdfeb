//! Strict two-phase-locking lock manager.
//!
//! Shared/exclusive item locks with FIFO wait queues, in-place upgrades,
//! waits-for deadlock detection with youngest-victim selection, and the two
//! internal prioritization policies of §5.2:
//!
//! * [`LockPriorityPolicy::PriorityQueue`] — high-priority requests queue
//!   ahead of (and may bypass) waiting low-priority requests;
//! * [`LockPriorityPolicy::PreemptOnWait`] (POW, McWherter et al. 2005) —
//!   additionally, a blocked high-priority request preempts low-priority
//!   lock *holders* that are themselves waiting at another lock queue.
//!
//! The manager provides mechanisms only (request / release / abort /
//! victim selection); `crate::sim` sequences them, so the same machinery
//! serves plain 2PL and both internal prioritization modes.
//!
//! Under [`DeadlockStrategy::Detection`] the detector is the only
//! deadlock-resolution path; no stall sweep backs it up. The simulator
//! searches from every transaction that blocks, and every new waits-for
//! edge touches such a transaction: a fresh waiter's or upgrader's edges
//! start at it, the edges from low-priority waiters a priority insert
//! overtakes end at it, and a queue-bypass grant's edges end at a running
//! transaction, which waits for nothing until it blocks in turn. So every
//! cycle closes through a transaction the detector starts from.
//!
//! [`DeadlockStrategy::Detection`]: crate::config::DeadlockStrategy::Detection

use crate::config::LockPriorityPolicy;
use crate::txn::{ItemId, LockMode, Priority, TxnId};
use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use xsched_sim::FxHashMap;

/// Result of a lock request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RequestOutcome {
    /// The lock was granted (or was already held in a sufficient mode).
    Granted,
    /// The request was enqueued; the transaction must wait.
    Blocked,
}

/// A waiter that just received its lock during a release/abort.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// The transaction whose request was granted.
    pub txn: TxnId,
    /// The item it was waiting for.
    pub item: ItemId,
}

#[derive(Debug, Clone, Copy)]
struct Waiter {
    txn: TxnId,
    mode: LockMode,
    priority: Priority,
    /// True if the waiter already holds the lock in `Shared` mode and is
    /// waiting to upgrade to `Exclusive`.
    upgrade: bool,
}

#[derive(Debug, Default)]
struct LockState {
    holders: Vec<(TxnId, LockMode)>,
    queue: VecDeque<Waiter>,
    /// Deadlock-walk record, valid only while `walk` equals the walk
    /// counter: in that walk every holder and the first `covered` waiters
    /// are already visited, so a later waiter reads only the rest of the
    /// queue ahead of it. See [`LockManager::find_deadlock_victim`].
    walk: u64,
    covered: usize,
}

impl LockState {
    fn holds(&self, txn: TxnId) -> Option<LockMode> {
        self.holders
            .iter()
            .find(|(t, _)| *t == txn)
            .map(|(_, m)| *m)
    }

    fn compatible_with_holders(&self, txn: TxnId, mode: LockMode) -> bool {
        self.holders
            .iter()
            .all(|(t, m)| *t == txn || mode.compatible_with(*m))
    }
}

/// The lock manager.
///
/// All three tables use the Fx integer hash (ids are dense and never
/// attacker-controlled), and the per-item / per-transaction vectors are
/// recycled through free pools so steady-state request/release traffic
/// allocates nothing.
#[derive(Debug)]
pub struct LockManager {
    policy: LockPriorityPolicy,
    table: FxHashMap<ItemId, LockState>,
    /// Items currently held (in any mode) per transaction.
    held: FxHashMap<TxnId, Vec<ItemId>>,
    /// The single item each blocked transaction waits for.
    waiting: FxHashMap<TxnId, ItemId>,
    /// Recycled `LockState`s (their holder/queue buffers keep their
    /// capacity across items).
    state_pool: Vec<LockState>,
    /// Recycled per-transaction held-item vectors.
    items_pool: Vec<Vec<ItemId>>,
    /// The deadlock walk's parent map and stack, cleared and reused by
    /// every [`LockManager::find_deadlock_victim`] call. The map also
    /// holds each reached waiter's position in its wait queue, once read.
    dfs_parent: FxHashMap<TxnId, (TxnId, Option<u32>)>,
    dfs_stack: Vec<TxnId>,
    /// Deadlock walks so far; stamps each item's covered-prefix record.
    walks: u64,
    /// Queue entries the deadlock walks have read (a deterministic cost
    /// count for tests).
    #[cfg(test)]
    queue_reads: u64,
    grants: u64,
    blocks: u64,
}

impl LockManager {
    /// An empty lock table under the given priority policy.
    pub fn new(policy: LockPriorityPolicy) -> LockManager {
        LockManager {
            policy,
            table: FxHashMap::default(),
            held: FxHashMap::default(),
            waiting: FxHashMap::default(),
            state_pool: Vec::new(),
            items_pool: Vec::new(),
            dfs_parent: FxHashMap::default(),
            dfs_stack: Vec::new(),
            walks: 0,
            #[cfg(test)]
            queue_reads: 0,
            grants: 0,
            blocks: 0,
        }
    }

    /// The active priority policy.
    pub fn policy(&self) -> LockPriorityPolicy {
        self.policy
    }

    /// Request `item` in `mode` for `txn`. On [`RequestOutcome::Blocked`]
    /// the transaction is enqueued and must not proceed until a
    /// [`Grant`] names it.
    pub fn request(
        &mut self,
        txn: TxnId,
        priority: Priority,
        item: ItemId,
        mode: LockMode,
    ) -> RequestOutcome {
        debug_assert!(
            !self.waiting.contains_key(&txn),
            "txn {txn:?} requested a lock while already waiting"
        );
        let state = self
            .table
            .entry(item)
            .or_insert_with(|| self.state_pool.pop().unwrap_or_default());

        if let Some(held_mode) = state.holds(txn) {
            match (held_mode, mode) {
                // Already sufficient.
                (LockMode::Exclusive, _) | (LockMode::Shared, LockMode::Shared) => {
                    self.grants += 1;
                    return RequestOutcome::Granted;
                }
                // Upgrade S → X.
                (LockMode::Shared, LockMode::Exclusive) => {
                    if state.holders.len() == 1 {
                        state.holders[0].1 = LockMode::Exclusive;
                        self.grants += 1;
                        return RequestOutcome::Granted;
                    }
                    // Upgrades wait at the very front: they cannot be
                    // granted until the co-holders release, and nothing
                    // behind them may be granted first.
                    state.queue.push_front(Waiter {
                        txn,
                        mode,
                        priority,
                        upgrade: true,
                    });
                    self.waiting.insert(txn, item);
                    self.blocks += 1;
                    return RequestOutcome::Blocked;
                }
            }
        }

        let bypass_ok = match self.policy {
            LockPriorityPolicy::None => state.queue.is_empty(),
            // A high-priority request may overtake low-priority waiters.
            _ => {
                state.queue.is_empty()
                    || (priority == Priority::High
                        && state.queue.iter().all(|w| w.priority == Priority::Low))
            }
        };
        if bypass_ok && state.compatible_with_holders(txn, mode) {
            state.holders.push((txn, mode));
            self.held
                .entry(txn)
                .or_insert_with(|| self.items_pool.pop().unwrap_or_default())
                .push(item);
            self.grants += 1;
            return RequestOutcome::Granted;
        }

        // Enqueue according to policy.
        let waiter = Waiter {
            txn,
            mode,
            priority,
            upgrade: false,
        };
        match self.policy {
            LockPriorityPolicy::None => state.queue.push_back(waiter),
            LockPriorityPolicy::PriorityQueue | LockPriorityPolicy::PreemptOnWait => {
                if priority == Priority::High {
                    // Behind other high-priority waiters and any upgrade,
                    // ahead of low-priority waiters.
                    let pos = state
                        .queue
                        .iter()
                        .position(|w| w.priority == Priority::Low && !w.upgrade)
                        .unwrap_or(state.queue.len());
                    state.queue.insert(pos, waiter);
                } else {
                    state.queue.push_back(waiter);
                }
            }
        }
        self.waiting.insert(txn, item);
        self.blocks += 1;
        RequestOutcome::Blocked
    }

    /// Release every lock held by `txn` (commit path), appending promoted
    /// waiters to `grants` — the allocation-free form the simulator's hot
    /// loop uses with a per-sim scratch buffer.
    pub fn release_all_into(&mut self, txn: TxnId, grants: &mut Vec<Grant>) {
        debug_assert!(
            !self.waiting.contains_key(&txn),
            "committing txn {txn:?} cannot be waiting"
        );
        let before = grants.len();
        self.release_held(txn, grants);
        self.grants += (grants.len() - before) as u64;
    }

    /// Abort path: remove `txn` from any wait queue and release all its
    /// locks, appending the waiters that became grantable to `grants`.
    pub fn abort_into(&mut self, txn: TxnId, grants: &mut Vec<Grant>) {
        let before = grants.len();
        if let Some(item) = self.waiting.remove(&txn) {
            if let Some(state) = self.table.get_mut(&item) {
                state.queue.retain(|w| w.txn != txn);
                // Removing a queued X may unblock compatible waiters behind it.
                Self::promote(
                    &mut self.waiting,
                    &mut self.held,
                    &mut self.items_pool,
                    state,
                    item,
                    grants,
                );
            }
        }
        self.release_held(txn, grants);
        self.grants += (grants.len() - before) as u64;
    }

    /// Drop `txn` from the holders of every item it holds, promoting
    /// waiters into `grants` and recycling the states left empty.
    fn release_held(&mut self, txn: TxnId, grants: &mut Vec<Grant>) {
        let mut items = self.held.remove(&txn).unwrap_or_default();
        for item in items.drain(..) {
            if let Some(state) = self.table.get_mut(&item) {
                state.holders.retain(|(t, _)| *t != txn);
                Self::promote(
                    &mut self.waiting,
                    &mut self.held,
                    &mut self.items_pool,
                    state,
                    item,
                    grants,
                );
                if state.holders.is_empty() && state.queue.is_empty() {
                    self.recycle(item);
                }
            }
        }
        self.items_pool.push(items);
    }

    /// Drop the (empty) lock state for `item`, keeping its buffers for
    /// the next contended item.
    fn recycle(&mut self, item: ItemId) {
        if let Some(state) = self.table.remove(&item) {
            debug_assert!(state.holders.is_empty() && state.queue.is_empty());
            self.state_pool.push(state);
        }
    }

    /// Grant queue heads while possible (static method to appease the
    /// borrow checker when called with `table` already borrowed).
    fn promote(
        waiting: &mut FxHashMap<TxnId, ItemId>,
        held: &mut FxHashMap<TxnId, Vec<ItemId>>,
        items_pool: &mut Vec<Vec<ItemId>>,
        state: &mut LockState,
        item: ItemId,
        grants: &mut Vec<Grant>,
    ) {
        while let Some(head) = state.queue.front().copied() {
            let grantable = if head.upgrade {
                // Upgrade requires being the sole holder.
                state.holders.len() == 1 && state.holders[0].0 == head.txn
            } else {
                state.compatible_with_holders(head.txn, head.mode)
            };
            if !grantable {
                break;
            }
            state.queue.pop_front();
            if head.upgrade {
                state.holders[0].1 = LockMode::Exclusive;
            } else {
                state.holders.push((head.txn, head.mode));
                held.entry(head.txn)
                    .or_insert_with(|| items_pool.pop().unwrap_or_default())
                    .push(item);
            }
            waiting.remove(&head.txn);
            grants.push(Grant {
                txn: head.txn,
                item,
            });
        }
    }

    /// The item `txn` is blocked on, if any.
    pub fn waiting_for(&self, txn: TxnId) -> Option<ItemId> {
        self.waiting.get(&txn).copied()
    }

    /// The waits-for edges out of `txn`, in the order that decides the
    /// deadlock victim: the holders of the item it waits for (other than
    /// itself, which an upgrader is), then the waiters queued ahead of it
    /// (they will hold the lock before `txn` can). Empty when `txn` is not
    /// blocked. [`LockManager::find_deadlock_victim`] reads a suffix of
    /// this list (the rest is known to be visited); the reference walk and
    /// [`LockManager::check_acyclic`] read all of it.
    #[cfg(test)]
    fn blockers(&self, txn: TxnId) -> impl Iterator<Item = TxnId> + '_ {
        let (holders, queue) = match self.waiting.get(&txn).and_then(|i| self.table.get(i)) {
            Some(state) => (&state.holders[..], state.queue.iter()),
            None => (&[][..], Default::default()),
        };
        let holders = holders.iter().map(|&(t, _)| t).filter(move |&t| t != txn);
        holders.chain(queue.map(|w| w.txn).take_while(move |&t| t != txn))
    }

    /// Detect a deadlock cycle reachable from `txn` (which must be
    /// blocked) and pick the youngest member (largest [`TxnId`]) as victim.
    ///
    /// A LIFO depth-first walk over the waits-for edges (`blockers`, in
    /// order): a cycle exists iff `txn` is reachable from one of its
    /// blockers, and the victim is the youngest transaction on the parent
    /// chain of the first cycle the walk closes. A parent map doubles as
    /// the visited set; it and the stack are reused across calls, so
    /// steady-state detection allocates nothing.
    ///
    /// The walk reads each wait queue about twice, not once per waiter
    /// expanded, and still makes exactly the pushes of an edge-by-edge
    /// walk. Once a waiter of item I other than `txn` has been expanded
    /// without closing a cycle, every holder of I and every waiter up to
    /// it are in the parent map, and none is `txn` (reading `txn` closes
    /// the cycle). Reading them again pushes nothing and closes nothing,
    /// so a later waiter of I skips that covered prefix and reads only the
    /// waiters between it and itself, in order. `txn` never covers its
    /// own queue: it is not in the parent map, and as an upgrader it also
    /// holds its item, so the next waiter of that item must still read it
    /// and close the cycle. Per walk that is at most two reads of each
    /// holder list and of each queue entry, plus one map lookup per node.
    pub fn find_deadlock_victim(&mut self, txn: TxnId) -> Option<TxnId> {
        let mut parent = std::mem::take(&mut self.dfs_parent);
        let mut stack = std::mem::take(&mut self.dfs_stack);
        parent.clear();
        stack.clear();
        self.walks += 1;
        let walk = self.walks;
        stack.push(txn);
        let victim = 'walk: {
            while let Some(node) = stack.pop() {
                // A running transaction waits for nothing.
                let Some(state) = self.waiting.get(&node).and_then(|i| self.table.get_mut(i))
                else {
                    continue;
                };
                let covered = if state.walk == walk { state.covered } else { 0 };
                if covered == 0 {
                    for &(b, _) in state.holders.iter().filter(|&&(b, _)| b != node) {
                        if b == txn {
                            break 'walk Some(youngest_on_chain(&parent, node, txn));
                        }
                        if let Entry::Vacant(e) = parent.entry(b) {
                            e.insert((node, None));
                            stack.push(b);
                        }
                    }
                }
                // Read the waiters from the covered prefix up to `node`,
                // whose position is known if the walk has read its entry.
                let known = if node == txn { None } else { parent[&node].1 };
                let end = known.map_or(state.queue.len(), |p| p as usize);
                let mut at = covered.min(end);
                for w in state.queue.range(at..end) {
                    let b = w.txn;
                    if b == node {
                        break;
                    }
                    #[cfg(test)]
                    {
                        self.queue_reads += 1;
                    }
                    if b == txn {
                        break 'walk Some(youngest_on_chain(&parent, node, txn));
                    }
                    match parent.entry(b) {
                        Entry::Vacant(e) => {
                            e.insert((node, Some(at as u32)));
                            stack.push(b);
                        }
                        Entry::Occupied(mut e) => e.get_mut().1 = Some(at as u32),
                    }
                    at += 1;
                }
                debug_assert_eq!(state.queue.get(at).map(|w| w.txn), Some(node));
                if node != txn {
                    state.walk = walk;
                    state.covered = covered.max(at + 1);
                }
            }
            None
        };
        self.dfs_parent = parent;
        self.dfs_stack = stack;
        victim
    }

    /// POW: append to `out` the low-priority holders of `item` that are
    /// themselves blocked at some other lock queue — the victims a blocked
    /// high-priority request is entitled to preempt. `priority_of`
    /// resolves a holder's class (the simulator answers from its
    /// transaction state table). Holders appear in grant order, which is
    /// deterministic.
    pub fn pow_victims_into(
        &self,
        item: ItemId,
        out: &mut Vec<TxnId>,
        priority_of: impl Fn(TxnId) -> Option<Priority>,
    ) {
        let Some(state) = self.table.get(&item) else {
            return;
        };
        out.extend(
            state
                .holders
                .iter()
                .map(|(t, _)| *t)
                .filter(|t| priority_of(*t) == Some(Priority::Low) && self.waiting.contains_key(t)),
        );
    }

    /// Total granted requests.
    pub fn grant_count(&self) -> u64 {
        self.grants
    }

    /// Total requests that had to wait.
    pub fn block_count(&self) -> u64 {
        self.blocks
    }

    /// Number of transactions currently blocked.
    pub fn waiting_count(&self) -> usize {
        self.waiting.len()
    }

    /// Consistency check used by tests: at most one exclusive holder per
    /// item, no shared/exclusive mixing, and every queued waiter recorded
    /// as waiting for that item.
    pub fn check_invariants(&self) {
        for (item, state) in &self.table {
            let x_holders = state
                .holders
                .iter()
                .filter(|(_, m)| *m == LockMode::Exclusive)
                .count();
            if x_holders > 0 {
                assert_eq!(
                    state.holders.len(),
                    1,
                    "item {item:?}: exclusive lock shared"
                );
            }
            for w in &state.queue {
                assert!(
                    self.waiting.get(&w.txn) == Some(item),
                    "queued txn {:?} missing from waiting map",
                    w.txn
                );
            }
        }
    }

    /// Test oracle for [`DeadlockStrategy::Detection`]: walk the whole
    /// waits-for graph given by [`LockManager::blockers`] from every
    /// blocked transaction and assert it has no cycle (a three-colour DFS:
    /// reaching a transaction still on the walk's own path closes a
    /// cycle). Kept out of [`LockManager::check_invariants`] because the
    /// lock manager alone resolves nothing: bare request/abort traffic
    /// may leave cycles for the caller to break.
    ///
    /// [`DeadlockStrategy::Detection`]: crate::config::DeadlockStrategy::Detection
    #[cfg(test)]
    pub(crate) fn check_acyclic(&self) {
        const ON_WALK: u8 = 1;
        const DONE: u8 = 2;
        // Colours keyed by transaction id, since a simulator's ids are
        // sparse; an absent id is not yet reached.
        let mut colour: FxHashMap<TxnId, u8> = FxHashMap::default();
        let mut stack = Vec::new();
        for &root in self.waiting.keys() {
            if colour.contains_key(&root) {
                continue;
            }
            colour.insert(root, ON_WALK);
            stack.push((root, self.blockers(root)));
            while let Some((node, edges)) = stack.last_mut() {
                if let Some(b) = edges.next() {
                    match colour.get(&b) {
                        Some(&ON_WALK) => panic!("waits-for cycle through {b:?} and {node:?}"),
                        Some(_) => {}
                        None => {
                            colour.insert(b, ON_WALK);
                            stack.push((b, self.blockers(b)));
                        }
                    }
                } else {
                    colour.insert(*node, DONE);
                    stack.pop();
                }
            }
        }
    }
}

/// The youngest transaction on the walk's parent chain from `node` back
/// to `root`: the victim of the cycle that the edge `node → root` closes.
fn youngest_on_chain(
    parent: &FxHashMap<TxnId, (TxnId, Option<u32>)>,
    node: TxnId,
    root: TxnId,
) -> TxnId {
    let (mut victim, mut cur) = (node, node);
    while cur != root {
        cur = parent[&cur].0;
        victim = victim.max(cur);
    }
    victim
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn t(n: u64) -> TxnId {
        TxnId(n)
    }
    fn i(n: u64) -> ItemId {
        ItemId(n)
    }
    const LO: Priority = Priority::Low;
    const HI: Priority = Priority::High;

    #[test]
    fn shared_locks_coexist() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Shared),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), LO, i(1), LockMode::Shared),
            RequestOutcome::Granted
        );
        lm.check_invariants();
    }

    #[test]
    fn exclusive_blocks_everyone() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Granted
        );
        assert_eq!(
            lm.request(t(2), LO, i(1), LockMode::Shared),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(3), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.waiting_count(), 2);
        lm.check_invariants();
        let mut grants = Vec::new();
        lm.release_all_into(t(1), &mut grants);
        // FIFO: t2 (shared) is granted; t3 (exclusive) still waits.
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(2),
                item: i(1)
            }]
        );
        let mut grants = Vec::new();
        lm.release_all_into(t(2), &mut grants);
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                item: i(1)
            }]
        );
        lm.check_invariants();
    }

    #[test]
    fn batched_shared_grants_on_release() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(3), LO, i(1), LockMode::Shared);
        let mut grants = Vec::new();
        lm.release_all_into(t(1), &mut grants);
        assert_eq!(grants.len(), 2, "both shared waiters granted together");
    }

    #[test]
    fn fifo_prevents_shared_overtaking_exclusive() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive); // waits
                                                                 // A later shared request must not leapfrog the queued X.
        assert_eq!(
            lm.request(t(3), LO, i(1), LockMode::Shared),
            RequestOutcome::Blocked
        );
        lm.check_invariants();
    }

    #[test]
    fn reentrant_and_upgrade() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Shared);
        // Re-request in same mode: no-op grant.
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Shared),
            RequestOutcome::Granted
        );
        // Sole holder upgrades in place.
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Granted
        );
        // X holder re-requesting S is a no-op.
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Shared),
            RequestOutcome::Granted
        );
        lm.check_invariants();
    }

    #[test]
    fn contended_upgrade_waits_then_wins() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(2), LO, i(1), LockMode::Shared);
        assert_eq!(
            lm.request(t(1), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        let mut grants = Vec::new();
        lm.release_all_into(t(2), &mut grants);
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(1),
                item: i(1)
            }]
        );
        // t1 now holds X.
        assert_eq!(
            lm.request(t(3), LO, i(1), LockMode::Shared),
            RequestOutcome::Blocked
        );
        lm.check_invariants();
    }

    #[test]
    fn deadlock_detected_and_youngest_chosen() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(2), LockMode::Exclusive);
        assert_eq!(
            lm.request(t(1), LO, i(2), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(2), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        let victim = lm.find_deadlock_victim(t(2)).expect("cycle exists");
        assert_eq!(victim, t(2), "youngest (largest id) in cycle");
        let mut grants = Vec::new();
        lm.abort_into(victim, &mut grants);
        // Aborting t2 releases i2 → t1 gets it.
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(1),
                item: i(2)
            }]
        );
        assert!(lm.find_deadlock_victim(t(1)).is_none());
        lm.check_invariants();
    }

    #[test]
    fn three_party_deadlock() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        for n in 1..=3 {
            let _ = lm.request(t(n), LO, i(n), LockMode::Exclusive);
        }
        assert_eq!(
            lm.request(t(1), LO, i(2), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(2), LO, i(3), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(3), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        let victim = lm.find_deadlock_victim(t(3)).expect("3-cycle");
        assert_eq!(victim, t(3));
    }

    #[test]
    fn no_false_deadlocks() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive);
        assert!(lm.find_deadlock_victim(t(2)).is_none());
    }

    #[test]
    fn priority_queue_inserts_high_ahead_of_low() {
        let mut lm = LockManager::new(LockPriorityPolicy::PriorityQueue);
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(3), HI, i(1), LockMode::Exclusive);
        let mut grants = Vec::new();
        lm.release_all_into(t(1), &mut grants);
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                item: i(1)
            }],
            "high first"
        );
    }

    #[test]
    fn high_priority_bypasses_low_waiters() {
        let mut lm = LockManager::new(LockPriorityPolicy::PriorityQueue);
        let _ = lm.request(t(1), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive); // waits
                                                                 // A high-priority S request may bypass the queued low X.
        assert_eq!(
            lm.request(t(3), HI, i(1), LockMode::Shared),
            RequestOutcome::Granted
        );
        // Under the None policy this would have blocked (see the
        // fifo_prevents_shared_overtaking_exclusive test).
        lm.check_invariants();
    }

    #[test]
    fn pow_victims_are_blocked_low_holders() {
        let mut lm = LockManager::new(LockPriorityPolicy::PreemptOnWait);
        let mut prios = std::collections::HashMap::new();
        prios.insert(t(1), LO);
        prios.insert(t(2), LO);
        prios.insert(t(3), HI);
        let prio_of = |t: TxnId| prios.get(&t).copied();
        // t1 holds i1 and waits for i2 (held by t2).
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(2), LockMode::Exclusive);
        assert_eq!(
            lm.request(t(1), LO, i(2), LockMode::Shared),
            RequestOutcome::Blocked
        );
        // High-priority t3 blocks on i1 whose holder t1 is waiting → victim.
        assert_eq!(
            lm.request(t(3), HI, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        let mut victims = Vec::new();
        lm.pow_victims_into(i(1), &mut victims, prio_of);
        assert_eq!(victims, vec![t(1)]);
        // t2 holds i2 but is running (not waiting) → not a victim.
        victims.clear();
        lm.pow_victims_into(i(2), &mut victims, prio_of);
        assert!(victims.is_empty());
        let mut grants = Vec::new();
        lm.abort_into(t(1), &mut grants);
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                item: i(1)
            }]
        );
        lm.check_invariants();
    }

    #[test]
    fn abort_of_waiter_unblocks_queue_behind_it() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive); // waits
        let _ = lm.request(t(3), LO, i(1), LockMode::Shared); // waits behind X
        let mut grants = Vec::new();
        lm.abort_into(t(2), &mut grants);
        assert_eq!(
            grants,
            vec![Grant {
                txn: t(3),
                item: i(1)
            }]
        );
        lm.check_invariants();
    }

    #[test]
    fn stats_count_grants_and_blocks() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(1), LO, i(1), LockMode::Exclusive);
        let _ = lm.request(t(2), LO, i(1), LockMode::Exclusive);
        assert_eq!(lm.grant_count(), 1);
        assert_eq!(lm.block_count(), 1);
        lm.release_all_into(t(1), &mut Vec::new());
        assert_eq!(lm.grant_count(), 2);
    }

    /// The original path-cloning DFS, kept verbatim as the victim oracle
    /// for [`LockManager::find_deadlock_victim`].
    fn reference_victim(lm: &LockManager, txn: TxnId) -> Option<TxnId> {
        let mut stack: Vec<(TxnId, Vec<TxnId>)> = vec![(txn, vec![txn])];
        let mut visited: Vec<TxnId> = Vec::new();
        while let Some((node, path)) = stack.pop() {
            for b in lm.blockers(node) {
                if b == txn {
                    // `path` plus the closing edge is the cycle.
                    return path.iter().max().copied();
                }
                if !visited.contains(&b) {
                    visited.push(b);
                    let mut p = path.clone();
                    p.push(b);
                    stack.push((b, p));
                }
            }
        }
        None
    }

    /// Drive random lock traffic under all three queue disciplines and
    /// check, after every operation, that the detector picks exactly the
    /// reference victim for every waiting transaction. Each op is
    /// `(selector, item, mode, high, action)`: a new transaction (20%) or
    /// a live one (65%, possibly re-requesting an item it holds) asks for
    /// a lock, exclusive one time in four; a running transaction commits
    /// (10%); any transaction aborts (5%).
    fn detector_matches_reference_on(ops: &[(u64, u64, u8, bool, u8)]) {
        for policy in [
            LockPriorityPolicy::None,
            LockPriorityPolicy::PriorityQueue,
            LockPriorityPolicy::PreemptOnWait,
        ] {
            let mut lm = LockManager::new(policy);
            let mut live: Vec<(TxnId, Priority)> = Vec::new();
            let mut next = 0u64;
            for &(sel, item, mode, high, action) in ops {
                let pick = (sel as usize) % live.len().max(1);
                match action {
                    0..=16 => {
                        let (t, prio) = if live.is_empty() || action < 4 {
                            let prio = if high { Priority::High } else { Priority::Low };
                            next += 1;
                            live.push((TxnId(next), prio));
                            (TxnId(next), prio)
                        } else {
                            live[pick]
                        };
                        if lm.waiting_for(t).is_none() {
                            let mode = if mode == 0 {
                                LockMode::Exclusive
                            } else {
                                LockMode::Shared
                            };
                            let _ = lm.request(t, prio, ItemId(item), mode);
                        }
                    }
                    17 | 18 => {
                        let running = live.iter().position(|&(t, _)| lm.waiting_for(t).is_none());
                        if let Some(pos) = running {
                            lm.release_all_into(live.swap_remove(pos).0, &mut Vec::new());
                        }
                    }
                    _ => {
                        if !live.is_empty() {
                            lm.abort_into(live.swap_remove(pick).0, &mut Vec::new());
                        }
                    }
                }
                lm.check_invariants();
                for &(t, _) in &live {
                    if lm.waiting_for(t).is_some() {
                        assert_eq!(
                            lm.find_deadlock_victim(t),
                            reference_victim(&lm, t),
                            "{:?}: victim for {:?}",
                            policy,
                            t
                        );
                    }
                }
            }
        }
    }

    proptest! {
        /// The detector picks exactly the reference victim with S/X
        /// modes, S→X upgrades and both priorities over five items.
        /// Requests dominate and nothing resolves deadlocks, so live
        /// transactions pile up shared holds and overlapping cycles — the
        /// graphs in which walk order decides the victim.
        #[test]
        fn detector_matches_reference_victim(
            ops in proptest::collection::vec(
                (any::<u64>(), 0u64..5, 0u8..4, any::<bool>(), 0u8..20),
                1..160,
            ),
        ) {
            detector_matches_reference_on(&ops);
        }

        /// The same over one or two items and longer histories: queues
        /// grow long, and one walk expands many waiters of the same
        /// queue, so covered prefixes are extended and skipped many times.
        #[test]
        fn detector_matches_reference_victim_on_long_queues(
            ops in proptest::collection::vec(
                (any::<u64>(), 0u64..2, 0u8..4, any::<bool>(), 0u8..20),
                1..400,
            ),
        ) {
            detector_matches_reference_on(&ops);
        }
    }

    /// One exclusive holder and 1,000 queued waiters, no cycle. Reading
    /// every waiter's whole prefix would take about 1000²/2 queue reads;
    /// the walk reads each entry at most twice (once for the root, once
    /// for the first other waiter it expands).
    #[test]
    fn a_long_queue_is_read_in_linear_time() {
        const K: u64 = 1000;
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(0), LO, i(1), LockMode::Exclusive);
        for n in 1..=K {
            assert_eq!(
                lm.request(t(n), LO, i(1), LockMode::Exclusive),
                RequestOutcome::Blocked
            );
        }
        assert_eq!(lm.find_deadlock_victim(t(K)), None);
        assert_eq!(reference_victim(&lm, t(K)), None);
        assert!(lm.queue_reads < 2 * K, "{} queue reads", lm.queue_reads);
    }

    /// Walk order decides the victim when several cycles pass through the
    /// blocked transaction: the LIFO DFS explores the *last* blocker
    /// first, so the cycle through t3 (victim t5) wins over the one
    /// through t9, even though t9 is the youngest transaction involved.
    #[test]
    fn victim_comes_from_the_first_cycle_the_walk_closes() {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let _ = lm.request(t(5), LO, i(2), LockMode::Exclusive);
        let _ = lm.request(t(9), LO, i(1), LockMode::Shared);
        let _ = lm.request(t(3), LO, i(1), LockMode::Shared);
        assert_eq!(
            lm.request(t(9), LO, i(2), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(3), LO, i(2), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(
            lm.request(t(5), LO, i(1), LockMode::Exclusive),
            RequestOutcome::Blocked
        );
        assert_eq!(lm.blockers(t(5)).collect::<Vec<_>>(), vec![t(9), t(3)]);
        assert_eq!(lm.find_deadlock_victim(t(5)), Some(t(5)));
        assert_eq!(reference_victim(&lm, t(5)), Some(t(5)));
    }
}
