//! Property tests for the sweep determinism invariants.
//!
//! The sweep layer's contract is that *how* a plan executes — cached or
//! uncached, one shard or many, any thread count — never changes a number.
//! These properties drive random small plans through every execution path
//! and compare outcomes **bit for bit** on every field, using the shard
//! codec's canonical encoding (which covers each outcome field exactly)
//! as the comparison key.

use proptest::prelude::*;
use xsched_core::shard::encode_outcome;
use xsched_core::{
    ArrivalSpec, ExecSpec, MeasurementCache, MplSpec, PolicyKind, RunConfig, Scenario,
    ScenarioResult, ShardResult, SweepExecutor, SweepPlan,
};
use xsched_workload::setup;

/// Build a small random plan from raw draws. Arrival shapes cover the
/// cache-relevant OpenLoad resolution as well as plain closed systems.
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
            let arrivals = match a % 3 {
                0 => ArrivalSpec::Saturated,
                1 => ArrivalSpec::OpenLoad(0.5 + 0.1 * f64::from(a % 4)),
                _ => ArrivalSpec::ClosedThink(0.05),
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

    /// Any shard partition, merged, is bit-identical to the unsharded
    /// run — including aggregate statistics.
    #[test]
    fn any_shard_partition_merges_to_the_unsharded_run(
        setups in collection::vec(any::<u8>(), 1..3),
        mpls in collection::vec(any::<u8>(), 3..4),
        arrivals in collection::vec(any::<u8>(), 3..4),
        reps in any::<u8>(),
        seed_base in 0u64..1_000_000,
        nshards in 1usize..5,
        threads in 1usize..4,
    ) {
        let plan = plan_from(&setups, &mpls, &arrivals, reps, seed_base);
        let direct = SweepExecutor::parallel(threads).run(&plan);
        let shards: Vec<ShardResult> = (0..nshards)
            .map(|i| SweepExecutor::parallel(threads).run_shard(&plan, i, nshards))
            .collect();
        let merged = ShardResult::merge(&plan, &shards).unwrap();
        prop_assert_eq!(bits(&direct), bits(&merged));
    }

    /// The wire format round-trips every shard payload exactly, so
    /// cross-process merges see the same bits as in-process ones.
    #[test]
    fn shard_payloads_survive_the_wire(
        setups in collection::vec(any::<u8>(), 1..3),
        mpls in collection::vec(any::<u8>(), 3..4),
        arrivals in collection::vec(any::<u8>(), 3..4),
        seed_base in 0u64..1_000_000,
        nshards in 1usize..4,
    ) {
        let plan = plan_from(&setups, &mpls, &arrivals, 0, seed_base);
        let direct = SweepExecutor::serial().run(&plan);
        let decoded: Vec<ShardResult> = (0..nshards)
            .map(|i| {
                let s = SweepExecutor::serial().run_shard(&plan, i, nshards);
                ShardResult::decode(&s.encode()).unwrap()
            })
            .collect();
        let merged = ShardResult::merge(&plan, &decoded).unwrap();
        prop_assert_eq!(bits(&direct), bits(&merged));
    }
}
