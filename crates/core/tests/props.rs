//! Property tests for the sweep determinism invariants.
//!
//! The sweep layer's contract is that *how* a plan executes — cached or
//! uncached, any thread count, in-process or over the coordinator's wire —
//! never changes a number. These properties drive random small plans
//! through every execution path and compare outcomes **bit for bit** on
//! every field, using the wire codec's canonical encoding (which covers
//! each outcome field exactly) as the comparison key.

use proptest::prelude::*;
use xsched_core::wire::{decode_outcome, encode_outcome};
use xsched_core::{
    ArrivalSpec, ExecSpec, MeasurementCache, MplSpec, PolicyKind, RunConfig, Scenario,
    ScenarioResult, SweepExecutor, SweepPlan,
};
use xsched_workload::setup;

/// Build a small random plan from raw draws. Arrival shapes cover the
/// cache-relevant OpenLoad resolution as well as the saturated closed
/// system.
fn plan_from(setups: &[u8], mpls: &[u8], arrivals: &[u8], reps: u8, seed_base: u64) -> SweepPlan {
    let rc = RunConfig {
        warmup_txns: 10,
        measured_txns: 60,
        ..Default::default()
    };
    let scenarios: Vec<Scenario> = setups
        .iter()
        .zip(mpls)
        .zip(arrivals)
        .enumerate()
        .map(|(i, ((&s, &m), &a))| {
            let setup_id = [1u32, 2, 5][usize::from(s) % 3];
            let arrivals = match a % 2 {
                0 => ArrivalSpec::Saturated,
                _ => ArrivalSpec::OpenLoad(0.5 + 0.1 * f64::from(a % 4)),
            };
            Scenario {
                row: format!("row {i}"),
                col: format!("cell {i}"),
                setup: setup(setup_id),
                exec: ExecSpec::Run {
                    mpl: MplSpec::Fixed(u32::from(m % 8) + 1),
                    policy: PolicyKind::Fifo,
                    arrivals,
                },
                rc: rc.clone(),
            }
        })
        .collect();
    SweepPlan::new(scenarios).replicated(usize::from(reps % 2) + 1, seed_base)
}

/// Canonical bitwise key of a result set: every outcome of every scenario
/// in replication order, plus the aggregate means the tables print.
fn bits(results: &[ScenarioResult]) -> Vec<String> {
    results
        .iter()
        .flat_map(|r| {
            r.outcomes
                .iter()
                .map(encode_outcome)
                .chain(std::iter::once(format!(
                    "tput={:016x} rt={:016x}",
                    r.mean("throughput").to_bits(),
                    r.mean("mean_rt").to_bits()
                )))
        })
        .collect()
}

proptest! {
    /// Cached execution (the executor's default) is bit-identical to the
    /// cache-free path, for any small plan.
    #[test]
    fn cached_equals_uncached(
        setups in collection::vec(any::<u8>(), 1..3),
        mpls in collection::vec(any::<u8>(), 3..4),
        arrivals in collection::vec(any::<u8>(), 3..4),
        reps in any::<u8>(),
        seed_base in 0u64..1_000_000,
    ) {
        let plan = plan_from(&setups, &mpls, &arrivals, reps, seed_base);
        let cache = MeasurementCache::shared();
        let cached = SweepExecutor::parallel(2)
            .with_cache(cache.clone())
            .run(&plan);
        // Uncached reference: every task through Scenario::run directly.
        let mut entries = Vec::new();
        for (t, (si, seed)) in plan.tasks().into_iter().enumerate() {
            entries.push((t, plan.scenarios[si].run(seed)));
        }
        let uncached: Vec<String> = entries
            .iter()
            .map(|(_, o)| encode_outcome(o))
            .collect();
        let cached_outcomes: Vec<String> = cached
            .iter()
            .flat_map(|r| r.outcomes.iter().map(encode_outcome))
            .collect();
        prop_assert_eq!(cached_outcomes, uncached);
        // The cache only ever *saves* measurements: misses count distinct
        // (setup, rc, seed) capacity keys, never more than one per task.
        prop_assert!(cache.misses() as usize <= plan.task_count());
    }

    /// A parallel run is bit-identical to the serial one at any thread
    /// count — including aggregate statistics.
    #[test]
    fn parallel_run_is_bit_identical_to_serial(
        setups in collection::vec(any::<u8>(), 1..3),
        mpls in collection::vec(any::<u8>(), 3..4),
        arrivals in collection::vec(any::<u8>(), 3..4),
        reps in any::<u8>(),
        seed_base in 0u64..1_000_000,
        threads in 2usize..5,
    ) {
        let plan = plan_from(&setups, &mpls, &arrivals, reps, seed_base);
        let serial = SweepExecutor::serial().run(&plan);
        let parallel = SweepExecutor::parallel(threads).run(&plan);
        prop_assert_eq!(bits(&serial), bits(&parallel));
    }

    /// Every outcome survives the coordinator's wire codec exactly, so a
    /// worker's `record` frame carries the same bits the worker computed.
    #[test]
    fn outcomes_survive_the_wire(
        setups in collection::vec(any::<u8>(), 1..3),
        mpls in collection::vec(any::<u8>(), 3..4),
        arrivals in collection::vec(any::<u8>(), 3..4),
        reps in any::<u8>(),
        seed_base in 0u64..1_000_000,
    ) {
        let plan = plan_from(&setups, &mpls, &arrivals, reps, seed_base);
        for result in SweepExecutor::serial().run(&plan) {
            for outcome in &result.outcomes {
                let line = encode_outcome(outcome);
                let back = decode_outcome(&line).unwrap();
                prop_assert_eq!(encode_outcome(&back), line);
            }
        }
    }
}
