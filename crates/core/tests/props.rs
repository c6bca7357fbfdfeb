//! Property tests for the sweep determinism invariants.
//!
//! The sweep layer's contract is that *how* a plan executes — cached or
//! uncached, one shard or many, any thread count — never changes a number.
//! These properties drive random small plans through every execution path
//! and compare outcomes **bit for bit** on every field, using the shard
//! codec's canonical encoding (which covers each outcome field exactly)
//! as the comparison key.

use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};
use xsched_core::shard::encode_outcome;
use xsched_core::{
    combine_subruns, ArrivalSpec, CheckpointJournal, ExecSpec, JournalReplay, MeasurementCache,
    MplSpec, PolicyKind, RunConfig, RunResult, Scenario, ScenarioOutcome, ScenarioResult,
    ShardResult, SweepExecutor, SweepPlan,
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

/// The fixed plan the kill-point property resumes: 3 scenarios × 2
/// replication seeds = 6 journaled tasks.
fn kill_plan() -> SweepPlan {
    plan_from(&[0, 1, 2], &[2, 5, 7], &[0, 1, 2], 1, 777_001)
}

/// Baseline for the kill-point property, computed once: the complete
/// checkpoint journal of a full run of [`kill_plan`], plus the bitwise
/// key of the uninterrupted (journal-free) run. Each proptest case then
/// only pays for the *resumed* sweep.
fn kill_baseline() -> &'static (String, Vec<String>) {
    static BASELINE: OnceLock<(String, Vec<String>)> = OnceLock::new();
    BASELINE.get_or_init(|| {
        let plan = kill_plan();
        let direct = SweepExecutor::serial().run(&plan);
        let path =
            std::env::temp_dir().join(format!("xsched-props-journal-{}.log", std::process::id()));
        let journal = Arc::new(CheckpointJournal::create(&path).unwrap());
        SweepExecutor::parallel(2)
            .with_journal(Arc::clone(&journal))
            .run(&plan);
        drop(journal);
        let text = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        assert!(text.is_ascii(), "journal records are ASCII by construction");
        (text, bits(&direct))
    })
}

/// Unique-per-case scratch file suffix (proptest may repeat draws).
static KILL_FILE_SEQ: AtomicUsize = AtomicUsize::new(0);

proptest! {
    /// Kill-safety: truncating the checkpoint journal at *any* byte —
    /// every possible SIGKILL point, including mid-record — and resuming
    /// from the remains merges bit-identical to an uninterrupted run.
    #[test]
    fn any_kill_point_in_the_journal_resumes_bit_identically(cut in 0usize..100_000) {
        let (text, direct_bits) = kill_baseline();
        let cut = cut % (text.len() + 1);
        let seq = KILL_FILE_SEQ.fetch_add(1, Ordering::Relaxed);
        let path = std::env::temp_dir().join(format!(
            "xsched-props-kill-{}-{seq}.log",
            std::process::id()
        ));
        std::fs::write(&path, &text.as_bytes()[..cut]).unwrap();
        let replay = Arc::new(JournalReplay::load(&path).unwrap());
        let journal = Arc::new(CheckpointJournal::append(&path).unwrap());
        let resumed = SweepExecutor::parallel(2)
            .with_resume(replay)
            .with_journal(journal)
            .run(&kill_plan());
        std::fs::remove_file(&path).ok();
        prop_assert!(resumed.iter().all(|r| r.failures.is_empty()));
        prop_assert_eq!(&bits(&resumed), direct_bits);
    }

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

    /// Splitting one steady-state cell into K independently-seeded
    /// batch-means sub-runs and combining them yields a confidence
    /// interval that brackets the single whole-run mean, and conserves
    /// the counting statistics exactly. The test RNG is deterministic
    /// (name-seeded), so every case is a pinned regression rather than a
    /// random draw; the bracket uses the Student-t half-width widened 3×
    /// with a 25%-of-mean floor, so it trips on structural errors in the
    /// combine (wrong scale, wrong weighting, dropped parts) and not on
    /// the expected ~5% miss rate of a literal 95% interval.
    #[test]
    fn subrun_split_cis_bracket_the_single_run_mean(
        k in 2u32..6,
        mpl in 1u32..9,
        arrival in 0u8..3,
        seed in 0u64..1_000_000,
    ) {
        // Only cells with a steady state are quantified over: closed
        // shapes (saturated, think-time) are always stationary, and open
        // load is paired with an unlimited MPL so the offered 60% of
        // capacity is actually servable. Open load *behind a tight fixed
        // MPL* can be unstable — the queue and mean RT then grow with run
        // length by design, so a shorter sub-run measures a genuinely
        // different transient and no split estimator can bracket it.
        let (arrivals, mpl_spec) = match arrival {
            0 => (ArrivalSpec::Saturated, MplSpec::Fixed(mpl)),
            1 => (ArrivalSpec::OpenLoad(0.6), MplSpec::Unlimited),
            _ => (ArrivalSpec::ClosedThink(0.05), MplSpec::Fixed(mpl)),
        };
        let scenario = Scenario {
            row: "subrun".to_string(),
            col: "bracket".to_string(),
            setup: setup(1),
            exec: ExecSpec::Run {
                mpl: mpl_spec,
                policy: PolicyKind::Fifo,
                arrivals,
            },
            // Warmup must outlast the closed system's queue ramp: all
            // 100 clients arrive at t = 0, so under a tight MPL the
            // external wait climbs for ~clients completions before the
            // stationary backlog forms. Each sub-run re-warms in full.
            rc: RunConfig {
                warmup_txns: 150,
                measured_txns: 400,
                subruns: k,
                ..Default::default()
            },
        };
        // The whole-cell reference: pre-split semantics (Scenario::run
        // never splits; only the sweep executor expands sub-runs).
        let ScenarioOutcome::Run(single) = scenario.run(seed) else {
            panic!("a Run scenario yields a Run outcome");
        };
        // The same expansion the executor performs, combined in k order.
        let parts: Vec<RunResult> = (0..k)
            .map(|i| scenario.run_subrun(seed, i, k, None).0)
            .collect();
        let combined = combine_subruns(&parts);

        // Counting statistics are conserved exactly: each sub-run
        // measures ⌈measured/K⌉ completions, and the combine sums.
        let per_sub = 400u64.div_ceil(u64::from(k));
        prop_assert_eq!(
            combined.count_high + combined.count_low,
            per_sub * u64::from(k)
        );
        prop_assert_eq!(
            combined.metrics.commits,
            parts.iter().map(|p| p.metrics.commits).sum::<u64>()
        );

        // The bracket. K−1 degrees of freedom makes the t half-width
        // wide already; 3× covers far beyond 99.9%.
        let hw = combined.rt_bm_half_width;
        prop_assert!(hw.is_finite() && hw > 0.0, "half-width {hw} for k={k}");
        let band = (3.0 * hw).max(0.25 * single.mean_rt);
        prop_assert!(
            (combined.mean_rt - single.mean_rt).abs() <= band,
            "combined {} vs single {} exceeds band {} (hw {hw}, k={k}, mpl={mpl}, seed={seed})",
            combined.mean_rt,
            single.mean_rt,
            band
        );
        // Throughput agrees to the same coarse tolerance.
        prop_assert!(single.throughput > 0.0);
        let rel = (combined.throughput - single.throughput).abs() / single.throughput;
        prop_assert!(rel < 0.25, "throughput off by {rel} (k={k}, mpl={mpl})");
    }
}
