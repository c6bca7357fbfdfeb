//! Plan-level memoization of capacity (reference) measurements.
//!
//! The open-system figures resolve [`ArrivalSpec::OpenLoad`], and the
//! priority and controller cells calibrate, against the setup's MPL-less
//! *reference* run — a full simulation that, without caching, re-executes
//! for every grid cell and every replication seed even though it only
//! depends on `(setup, run config, seed)`. A [`MeasurementCache`] shared across a
//! sweep memoizes those runs, so an S-setup × L-load × R-seed grid
//! performs exactly S×R capacity measurements instead of S×L×R.
//!
//! Correctness: a reference run is a pure function of its key (see
//! [`Scenario::run`]), so serving a memoized result is bit-identical to
//! recomputing it — the cache changes wall-clock time, never a number.
//! Each key's first caller computes under a per-key lock; concurrent
//! requests for the same key wait and then share the result, which keeps
//! the hit/miss counters deterministic regardless of thread count.
//!
//! [`ArrivalSpec::OpenLoad`]: crate::scenario::ArrivalSpec::OpenLoad
//! [`Scenario::run`]: crate::scenario::Scenario::run

use crate::driver::{RunConfig, RunResult};
use crate::fault::relock;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use xsched_workload::Setup;

type Slot = Arc<Mutex<Option<Arc<RunResult>>>>;

/// Typed memoization key of a reference (capacity) measurement: setup
/// id, structural setup fingerprint, and every run-config field verbatim
/// (floats as IEEE bit patterns).
///
/// This replaces the original `format!("reference|{:?}|{:?}", ...)`
/// string key, which silently aliased whenever two configurations shared
/// a `Debug` rendering — a hazard every time a field is added without
/// showing up in `Debug`, or two floats print identically. Here the
/// compiler enforces coverage: a new `RunConfig` field breaks this
/// constructor until it is added to the key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct MeasurementKey {
    setup_id: u32,
    /// 128-bit structural fingerprint of the full setup (workload,
    /// hardware, DBMS config) — distinguishes `map_cfg` variants sharing
    /// an id.
    setup_fp: (u64, u64),
    warmup_txns: u64,
    measured_txns: u64,
    seed: u64,
    min_warmup_time: u64,
    high_fraction: u64,
}

impl MeasurementKey {
    /// The key of a [`Driver::reference`](crate::Driver::reference)
    /// (capacity) measurement under `setup` and `rc`.
    pub fn reference(setup: &Setup, rc: &RunConfig) -> MeasurementKey {
        // Exhaustive destructuring (no `..`): adding a `RunConfig` field
        // fails to compile here until it joins the key.
        let RunConfig {
            warmup_txns,
            measured_txns,
            seed,
            min_warmup_time,
            high_fraction,
        } = *rc;
        MeasurementKey {
            setup_id: setup.id,
            setup_fp: setup.stable_fingerprint(),
            warmup_txns,
            measured_txns,
            seed,
            min_warmup_time: min_warmup_time.to_bits(),
            high_fraction: high_fraction.to_bits(),
        }
    }
}

/// Memoizes reference/capacity runs keyed by [`MeasurementKey`] —
/// `(setup fingerprint, run config, seed)`.
#[derive(Debug, Default)]
pub struct MeasurementCache {
    slots: Mutex<HashMap<MeasurementKey, Slot>>,
    hits: AtomicU64,
    misses: AtomicU64,
}

impl MeasurementCache {
    /// An empty cache.
    pub fn new() -> MeasurementCache {
        MeasurementCache::default()
    }

    /// An empty cache behind the `Arc` every consumer wants.
    pub fn shared() -> Arc<MeasurementCache> {
        Arc::new(MeasurementCache::new())
    }

    /// Return the memoized result for `key`, or run `measure` to produce
    /// (and remember) it.
    ///
    /// The computation happens under a per-key lock: exactly one caller
    /// measures, concurrent callers for the same key block and then share
    /// the result, and callers for *different* keys proceed in parallel.
    ///
    /// Poisoning: a sweep task that panics inside `measure` poisons the
    /// slot lock the measure ran under. The panic aborts the sweep, but
    /// only once the in-order consumer reaches that task; until then a
    /// worker already waiting on the same key must not turn the poison
    /// into a second, different panic. So the poison is recovered, not
    /// cascaded — the slot value is only written *after* `measure`
    /// returns, so a poisoned slot still holds `None` (or a fully-written
    /// earlier result) and the next caller simply measures again, and
    /// the sweep fails with the lowest failed task's own message.
    pub fn get_or_measure(
        &self,
        key: MeasurementKey,
        measure: impl FnOnce() -> RunResult,
    ) -> Arc<RunResult> {
        let slot = {
            let mut slots = relock(&self.slots);
            slots.entry(key).or_default().clone()
        };
        let mut guard = relock(&slot);
        if let Some(cached) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Arc::clone(cached);
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let result = Arc::new(measure());
        *guard = Some(Arc::clone(&result));
        result
    }

    /// Lookups served from memory.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookups that ran the measurement (= number of distinct keys).
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of memoized measurements.
    pub fn len(&self) -> usize {
        relock(&self.slots).len()
    }

    /// True when nothing has been memoized yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::{Driver, RunConfig};
    use xsched_workload::setup;

    fn quick_rc(seed: u64) -> RunConfig {
        RunConfig {
            warmup_txns: 20,
            measured_txns: 100,
            seed,
            ..Default::default()
        }
    }

    fn quick_result(seed: u64) -> RunResult {
        Driver::new(setup(1)).with_config(quick_rc(seed)).run(
            3,
            crate::driver::PolicyKind::Fifo,
            &xsched_workload::ArrivalProcess::saturated(100),
        )
    }

    fn key(seed: u64) -> MeasurementKey {
        MeasurementKey::reference(&setup(1), &quick_rc(seed))
    }

    #[test]
    fn second_lookup_is_a_hit_and_shares_bits() {
        let cache = MeasurementCache::new();
        let a = cache.get_or_measure(key(1), || quick_result(1));
        let b = cache.get_or_measure(key(1), || panic!("must not re-measure"));
        assert_eq!(a.throughput.to_bits(), b.throughput.to_bits());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_measure_independently() {
        let cache = MeasurementCache::new();
        cache.get_or_measure(key(1), || quick_result(1));
        cache.get_or_measure(key(2), || quick_result(2));
        assert_eq!((cache.hits(), cache.misses()), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_same_key_measures_exactly_once() {
        let cache = MeasurementCache::shared();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let cache = Arc::clone(&cache);
                scope.spawn(move || {
                    cache.get_or_measure(key(7), || quick_result(7));
                });
            }
        });
        assert_eq!(cache.misses(), 1, "per-key lock serializes the measure");
        assert_eq!(cache.hits(), 7);
    }

    /// A panic inside `measure` (caught by the sweep's panic isolation)
    /// poisons the slot lock; the next caller for that key must measure
    /// cleanly instead of cascading the panic.
    #[test]
    fn poisoned_slot_recovers_on_the_next_lookup() {
        let cache = MeasurementCache::new();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            cache.get_or_measure(key(3), || panic!("task died mid-measure"));
        }));
        assert!(caught.is_err());
        let result = cache.get_or_measure(key(3), || quick_result(3));
        let again = cache.get_or_measure(key(3), || panic!("must not re-measure"));
        assert_eq!(result.throughput.to_bits(), again.throughput.to_bits());
        // The dead attempt and the recovery attempt each count a miss.
        assert_eq!((cache.hits(), cache.misses()), (1, 2));
    }

    #[test]
    fn key_covers_every_identifying_field() {
        let rc = quick_rc(1);
        let base = MeasurementKey::reference(&setup(1), &rc);
        // Different setup id.
        assert_ne!(base, MeasurementKey::reference(&setup(2), &rc));
        // Same id, mutated DBMS config (the `map_cfg` idiom) — this is
        // exactly the aliasing class a partial key would miss.
        let variant = setup(1).map_cfg(|c| c.group_commit = true);
        assert_ne!(base, MeasurementKey::reference(&variant, &rc));
        // Every run-config field participates.
        for mutated in [
            RunConfig {
                warmup_txns: 21,
                ..rc.clone()
            },
            RunConfig {
                measured_txns: 101,
                ..rc.clone()
            },
            RunConfig {
                seed: 2,
                ..rc.clone()
            },
            RunConfig {
                min_warmup_time: 1.0,
                ..rc.clone()
            },
            RunConfig {
                high_fraction: 0.25,
                ..rc.clone()
            },
        ] {
            assert_ne!(base, MeasurementKey::reference(&setup(1), &mutated));
        }
    }
}
