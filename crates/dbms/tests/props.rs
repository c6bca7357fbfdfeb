//! Property-based tests for the DBMS substrate components.

use proptest::prelude::*;
use xsched_dbms::bufferpool::BufferPool;
use xsched_dbms::cpu::CpuBank;
use xsched_dbms::txn::{ItemId, LockMode, PageId, Priority, Step, TxnBody, TxnId};
use xsched_dbms::{
    CountingSink, CpuPolicy, DbmsConfig, DbmsSim, FaultSpec, HardwareConfig, SpikeSpec, StallSpec,
    StepOutcome,
};
use xsched_sim::SimRng;

/// A small lock-contending workload driven to completion under an
/// optional fault layer; returns every completion timestamp bit pattern
/// plus the per-kind trace event counts.
fn chaos_fingerprint(spec: Option<FaultSpec>, seed: u64) -> (Vec<u64>, CountingSink) {
    let mut sim = DbmsSim::with_trace(
        HardwareConfig::default(),
        DbmsConfig::default(),
        seed,
        CountingSink::default(),
    );
    if let Some(sp) = spec {
        sim = sim.with_chaos(sp, 0.0, seed);
    }
    let mut rng = SimRng::derive(seed, "wl");
    for k in 0..40u64 {
        let body = TxnBody {
            txn_type: 0,
            priority: Priority::Low,
            steps: vec![Step {
                lock: Some((ItemId(k % 4), LockMode::Exclusive)),
                pages: vec![PageId(rng.index_u64(64))],
                cpu: 0.0005 + rng.uniform() * 0.001,
            }],
        };
        sim.submit(body, 0.0);
    }
    let mut guard = 0u64;
    while sim.in_flight() > 0 && sim.step() != StepOutcome::Idle {
        guard += 1;
        assert!(guard < 10_000_000, "chaos run failed to finish");
    }
    let mut done = Vec::new();
    sim.drain_completions_into(&mut done);
    let done = done.iter().map(|c| c.completed.to_bits()).collect();
    (done, sim.into_trace())
}

proptest! {
    /// LRU capacity is never exceeded; a re-probed page is always resident
    /// immediately after insertion.
    #[test]
    fn bufferpool_capacity_and_residency(
        cap in 1u64..64,
        pages in proptest::collection::vec(0u64..200, 1..400),
    ) {
        let mut bp = BufferPool::new(cap);
        for &p in &pages {
            let page = PageId(p);
            if !bp.probe(page) {
                bp.insert(page);
            }
            prop_assert!(bp.len() as u64 <= cap);
            prop_assert!(bp.probe(page), "freshly inserted page must be resident");
        }
        prop_assert_eq!(bp.hits() + bp.misses(), 2 * pages.len() as u64);
    }

    /// The most recently touched `cap` distinct pages are exactly the
    /// resident set (LRU correctness against a brute-force model).
    #[test]
    fn bufferpool_matches_reference_lru(
        cap in 1usize..16,
        pages in proptest::collection::vec(0u64..40, 1..200),
    ) {
        let mut bp = BufferPool::new(cap as u64);
        let mut model: Vec<u64> = Vec::new(); // front = MRU
        for &p in &pages {
            if bp.probe(PageId(p)) {
                let pos = model.iter().position(|&x| x == p).expect("model out of sync");
                model.remove(pos);
                model.insert(0, p);
            } else {
                bp.insert(PageId(p));
                model.insert(0, p);
                if model.len() > cap {
                    model.pop();
                }
            }
            prop_assert_eq!(bp.len(), model.len());
        }
        // Every model-resident page must hit (probe also reorders both,
        // consistently, so check via fresh membership comparison).
        for &p in &model.clone() {
            prop_assert!(bp.probe(PageId(p)), "page {p} missing from pool");
        }
    }

    /// CPU bank work conservation: total busy time equals total work
    /// completed, and no job finishes before its work could possibly be
    /// done (elapsed ≥ work at rate ≤ 1).
    #[test]
    fn cpu_bank_conserves_work(
        works in proptest::collection::vec(0.001f64..0.1, 1..20),
        cpus in 1u32..4,
    ) {
        let mut bank = CpuBank::new(cpus, CpuPolicy::Fair);
        let mut t = 0.0;
        for (i, &w) in works.iter().enumerate() {
            bank.add(t, TxnId(i as u64), w, Priority::Low);
        }
        let mut finished = 0;
        let start = t;
        while let Some((dt, who)) = bank.next_completion(t) {
            t += dt;
            bank.complete(t, who);
            finished += 1;
        }
        prop_assert_eq!(finished, works.len());
        let total_work: f64 = works.iter().sum();
        let busy = bank.busy_time(t);
        prop_assert!((busy - total_work).abs() < 1e-6,
            "busy {busy} vs work {total_work}");
        // Makespan ≥ max individual work and ≥ total/cpus.
        let span = t - start;
        let min_span = works.iter().cloned().fold(0.0, f64::max)
            .max(total_work / cpus as f64);
        prop_assert!(span >= min_span - 1e-9);
    }

    /// End-to-end: any batch of lock-free transactions commits exactly
    /// once, and completion timestamps are nondecreasing in drain order.
    #[test]
    fn simulator_commits_everything(
        cpu_bursts in proptest::collection::vec(0.0001f64..0.01, 1..40),
        seed in any::<u64>(),
    ) {
        let mut sim = DbmsSim::new(HardwareConfig::default(), DbmsConfig::default(), seed);
        for (i, &c) in cpu_bursts.iter().enumerate() {
            sim.submit(
                TxnBody {
                    txn_type: i as u32,
                    priority: Priority::Low,
                    steps: vec![Step::compute(c)],
                },
                0.0,
            );
        }
        let mut seen = vec![false; cpu_bursts.len()];
        while sim.step() != StepOutcome::Idle {}
        let mut done = Vec::new();
        sim.drain_completions_into(&mut done);
        for c in done {
            let idx = c.txn_type as usize;
            prop_assert!(!seen[idx], "duplicate completion for {idx}");
            seen[idx] = true;
            prop_assert!(c.completed >= c.admitted);
            prop_assert!(c.admitted >= c.external_arrival);
        }
        prop_assert!(seen.iter().all(|s| *s), "some txn never committed");
        prop_assert_eq!(sim.in_flight(), 0);
    }

    /// Every fault injector, at any rate, is bit-reproducible in
    /// `(seed, spec)`: two runs of the same chaos case agree on every
    /// completion timestamp bit and every trace event count.
    #[test]
    fn fault_injectors_are_bit_reproducible(
        seed in any::<u64>(),
        stall_p in 0.0f64..1.0,
        stall_mean in 0.0001f64..0.05,
        spike_on in 0.001f64..0.5,
        spike_off in 0.001f64..0.5,
        spike_factor in 1.0f64..20.0,
        abort_rate in 0.0f64..200.0,
        enables in 0u8..8,
    ) {
        let spec = FaultSpec {
            stall: (enables & 1 != 0).then_some(StallSpec {
                p_per_lock: stall_p,
                mean_secs: stall_mean,
            }),
            disk_spike: (enables & 2 != 0).then_some(SpikeSpec {
                mean_on: spike_on,
                mean_off: spike_off,
                factor: spike_factor,
            }),
            abort_rate: if enables & 4 != 0 { abort_rate } else { 0.0 },
        };
        let a = chaos_fingerprint(Some(spec), seed);
        let b = chaos_fingerprint(Some(spec), seed);
        prop_assert_eq!(a.0, b.0, "completion bits diverged");
        prop_assert_eq!(a.1, b.1, "trace event counts diverged");
    }

    /// The rate-0 identity, quantified over seeds: a fault layer whose
    /// every injector is disabled (including one carrying a zero-rate
    /// stall) is byte-identical to a sim built without chaos at all.
    #[test]
    fn zero_rate_chaos_is_byte_identical(seed in any::<u64>()) {
        let (base, base_trace) = chaos_fingerprint(None, seed);
        prop_assert_eq!(base.len(), 40);
        let (dflt, dflt_trace) = chaos_fingerprint(Some(FaultSpec::default()), seed);
        prop_assert_eq!(&base, &dflt, "default fault layer altered results");
        prop_assert_eq!(&base_trace, &dflt_trace, "default fault layer altered trace");
        let zero_rate = FaultSpec {
            stall: Some(StallSpec { p_per_lock: 0.0, mean_secs: 1.0 }),
            disk_spike: None,
            abort_rate: 0.0,
        };
        let (zr, zr_trace) = chaos_fingerprint(Some(zero_rate), seed);
        prop_assert_eq!(&base, &zr, "zero-rate stall altered results");
        prop_assert_eq!(&base_trace, &zr_trace, "zero-rate stall altered trace");
    }
}
