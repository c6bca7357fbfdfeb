//! Cross-crate property-based tests (proptest) on the system's invariants.

use extsched::core::{ExternalScheduler, Fifo, MplGate, QueuedTxn};
use extsched::dbms::lock::LockManager;
use extsched::dbms::txn::{ItemId, LockMode, Priority, Step, TxnBody, TxnId};
use extsched::dbms::LockPriorityPolicy;
use extsched::queueing::{ClosedNetwork, FlexServer, H2};
use proptest::prelude::*;

fn txn(prio: Priority) -> QueuedTxn {
    QueuedTxn {
        body: TxnBody {
            txn_type: 0,
            priority: prio,
            steps: vec![Step::compute(0.001)],
        },
        arrival: 0.0,
    }
}

proptest! {
    /// The gate only admits below the current limit, so occupancy can
    /// never exceed the largest limit that was ever in force (shrinking
    /// the MPL leaves the excess to drain, it never evicts).
    #[test]
    fn gate_never_exceeds_largest_limit(ops in proptest::collection::vec(0u8..3, 1..200), mpl in 1u32..20) {
        let mut g = MplGate::new(mpl);
        let mut limit = mpl;
        let mut max_limit = mpl;
        for op in ops {
            match op {
                0 => {
                    let before = g.in_flight();
                    if g.try_acquire() {
                        prop_assert!(before < g.mpl(), "admitted at/above the limit");
                    }
                }
                1 => { if g.in_flight() > 0 { g.release(); } }
                _ => { limit = (limit % 20) + 1; g.set_mpl(limit); max_limit = max_limit.max(limit); }
            }
            prop_assert!(g.in_flight() <= max_limit);
        }
    }

    /// The scheduler's in-flight count tracks dispatches minus completes
    /// and never exceeds the current MPL at dispatch time.
    #[test]
    fn scheduler_respects_mpl(ops in proptest::collection::vec(0u8..3, 1..300), mpl in 1u32..10) {
        let mut s = ExternalScheduler::new(Fifo::new(), mpl);
        let mut dispatched_minus_completed: i64 = 0;
        for op in ops {
            match op {
                0 => s.enqueue(txn(Priority::Low)),
                1 => {
                    if s.dispatch().is_some() {
                        dispatched_minus_completed += 1;
                        prop_assert!(s.in_flight() <= mpl);
                    }
                }
                _ => {
                    if dispatched_minus_completed > 0 {
                        s.complete();
                        dispatched_minus_completed -= 1;
                    }
                }
            }
            prop_assert_eq!(s.in_flight() as i64, dispatched_minus_completed);
        }
    }

    /// Lock manager safety under arbitrary request/release/abort traffic:
    /// never two exclusive holders, never S+X mixing, bookkeeping coherent.
    #[test]
    fn lock_manager_safety(
        ops in proptest::collection::vec((0u64..12, 0u64..6, any::<bool>(), 0u8..4), 1..400),
    ) {
        let mut lm = LockManager::new(LockPriorityPolicy::None);
        let mut live: Vec<TxnId> = Vec::new();
        let mut next = 0u64;
        for (t_sel, item, exclusive, action) in ops {
            match action {
                // start or pick a txn and request a lock
                0 | 1 => {
                    let t = if live.is_empty() || action == 0 {
                        let t = TxnId(next);
                        next += 1;
                        live.push(t);
                        t
                    } else {
                        live[(t_sel as usize) % live.len()]
                    };
                    // Only request if not already waiting.
                    if lm.waiting_for(t).is_none() {
                        let mode = if exclusive { LockMode::Exclusive } else { LockMode::Shared };
                        let _ = lm.request(t, Priority::Low, ItemId(item), mode);
                    }
                }
                // commit a non-waiting txn
                2 => {
                    if let Some(pos) = live.iter().position(|t| lm.waiting_for(*t).is_none()) {
                        let t = live.swap_remove(pos);
                        lm.release_all_into(t, &mut Vec::new());
                    }
                }
                // abort any txn
                _ => {
                    if !live.is_empty() {
                        let t = live.swap_remove((t_sel as usize) % live.len());
                        lm.abort_into(t, &mut Vec::new());
                    }
                }
            }
            lm.check_invariants();
        }
    }

    /// MVA conservation: queue lengths sum to the population; throughput
    /// is monotone in population and bounded by the bottleneck.
    #[test]
    fn mva_conservation_and_bounds(
        demands in proptest::collection::vec(0.001f64..1.0, 1..8),
        n in 1u32..60,
    ) {
        let net = ClosedNetwork::new(demands);
        let series = net.solve_series(n);
        let mut prev = 0.0;
        for s in &series {
            let total: f64 = s.queue_lengths.iter().sum();
            prop_assert!((total - s.population as f64).abs() < 1e-6);
            prop_assert!(s.throughput >= prev - 1e-9);
            prop_assert!(s.throughput <= net.max_throughput() * (1.0 + 1e-9));
            prev = s.throughput;
        }
    }

    /// Flexible multiserver queue: E[T] is at least the PS lower bound and
    /// at most the M/G/1-FIFO value; waiting mass is nonnegative.
    #[test]
    fn flex_server_is_between_ps_and_fifo(
        c2 in 1.0f64..12.0,
        rho in 0.2f64..0.85,
        mpl in 1u32..12,
    ) {
        let mean = 0.1;
        let h2 = H2::fit(mean, c2);
        let lambda = rho / mean;
        let sol = FlexServer::new(lambda, h2, mpl).solve();
        let ps = extsched::queueing::mg1::mg1_ps_response_time(lambda, mean);
        let fifo = extsched::queueing::mg1::mg1_fifo_response_time_h2(lambda, &h2);
        prop_assert!(sol.mean_response_time >= ps * (1.0 - 1e-6),
            "below PS: {} < {}", sol.mean_response_time, ps);
        prop_assert!(sol.mean_response_time <= fifo * (1.0 + 1e-6),
            "above FIFO: {} > {}", sol.mean_response_time, fifo);
        prop_assert!(sol.mean_waiting >= -1e-9);
        prop_assert!(sol.p_empty > 0.0 && sol.p_empty < 1.0);
    }

    /// H2 fitting always reproduces the requested moments.
    #[test]
    fn h2_fit_roundtrip(mean in 0.001f64..100.0, c2 in 1.0f64..50.0) {
        let h2 = H2::fit(mean, c2);
        prop_assert!((h2.mean() - mean).abs() / mean < 1e-9);
        prop_assert!((h2.c2() - c2).abs() / c2 < 1e-9);
    }
}
