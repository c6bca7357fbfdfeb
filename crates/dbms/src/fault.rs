//! Rate-parameterized fault injection for the simulated DBMS.
//!
//! A [`FaultSpec`] describes service-side chaos — lock-holder stalls,
//! disk-latency spikes, client-abort storms — as a handful of rates and
//! means. Each enabled injector draws from its own derived RNG stream
//! (`chaos/stall`, `chaos/disk`, `chaos/abort`), so:
//!
//! * every injector is bit-reproducible in `(seed, spec)`, and
//! * a spec with every injector disabled consumes **zero** chaos draws
//!   and schedules **zero** extra events, leaving the simulation
//!   byte-identical to one built without chaos at all.
//!
//! Traffic-side chaos (arrival bursts, flash crowds, think-time
//! overrides) lives in `xsched-workload`; the two meet in the
//! experiment driver.

use xsched_sim::SimRng;

/// Lock-holder stall injector: with probability `p_per_lock`, a
/// transaction that just secured its step lock freezes for an
/// exponential pause *while holding the lock* — the injected analogue
/// of a client pausing mid-transaction or a VM hiccup.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StallSpec {
    /// Probability that a freshly acquired lock stalls its holder.
    pub p_per_lock: f64,
    /// Mean stall length, seconds (exponential).
    pub mean_secs: f64,
}

/// Disk-latency spike injector: an ON/OFF modulation of data-disk
/// service times (both demand reads and background write-backs),
/// multiplying every service draw by `factor` while ON.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpikeSpec {
    /// Mean length of the degraded (ON) phase, seconds.
    pub mean_on: f64,
    /// Mean length of the healthy (OFF) phase, seconds.
    pub mean_off: f64,
    /// Service-time multiplier while the spike is active (> 1).
    pub factor: f64,
}

/// The service-side fault layer attached to a [`crate::DbmsSim`] via
/// [`crate::DbmsSim::with_chaos`]. The default value disables every
/// injector and is behaviourally (and byte-wise) a no-op.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct FaultSpec {
    /// Lock-holder stalls, or `None` to disable.
    pub stall: Option<StallSpec>,
    /// Disk-latency spikes, or `None` to disable.
    pub disk_spike: Option<SpikeSpec>,
    /// Poisson rate (events/second) of the client abort storm; each
    /// event kills the youngest lock-blocked transaction, mirroring a
    /// client cancelling a request stuck behind a lock. `0` disables.
    pub abort_rate: f64,
}

impl FaultSpec {
    /// True when every injector is disabled — the byte-identity case.
    pub fn is_noop(&self) -> bool {
        self.stall.is_none() && self.disk_spike.is_none() && self.abort_rate <= 0.0
    }
}

/// A deterministic two-state (OFF/ON) modulator: phase lengths are
/// exponential draws from the toggler's private RNG stream, so the flip
/// schedule is a pure function of the stream — independent of when (or
/// whether) the state is consulted. Used for the disk-spike injector
/// here and the MMPP arrival burst in the driver.
#[derive(Debug)]
pub struct Toggler {
    rng: SimRng,
    mean_on: f64,
    mean_off: f64,
    next_flip: f64,
    active: bool,
}

impl Toggler {
    /// A toggler starting OFF at `start`; the first ON phase begins an
    /// exponential (`mean_off`) draw later.
    pub fn new(mut rng: SimRng, mean_on: f64, mean_off: f64, start: f64) -> Toggler {
        let first = rng.exp(mean_off);
        Toggler {
            rng,
            mean_on,
            mean_off,
            next_flip: start + first,
            active: false,
        }
    }

    /// Advance past the next flip at or before `now`, returning it as
    /// `(flip_time, new_active)`. Call in a loop until `None`; the state
    /// is then current as of `now`.
    pub fn poll(&mut self, now: f64) -> Option<(f64, bool)> {
        if self.next_flip > now {
            return None;
        }
        let t = self.next_flip;
        self.active = !self.active;
        let mean = if self.active {
            self.mean_on
        } else {
            self.mean_off
        };
        self.next_flip = t + self.rng.exp(mean);
        Some((t, self.active))
    }

    /// Whether the ON phase is in force (as of the last `poll`).
    pub fn is_active(&self) -> bool {
        self.active
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_spec_is_noop() {
        assert!(FaultSpec::default().is_noop());
        let s = FaultSpec {
            abort_rate: 2.0,
            ..Default::default()
        };
        assert!(!s.is_noop());
    }

    #[test]
    fn toggler_flip_schedule_is_consultation_independent() {
        // Poll sparsely vs densely: the flip times must be identical,
        // because the schedule is a pure function of the RNG stream.
        let flips = |probe_times: &[f64]| -> Vec<(u64, bool)> {
            let mut t = Toggler::new(SimRng::derive(7, "chaos/disk"), 2.0, 5.0, 1.0);
            let mut out = Vec::new();
            for &now in probe_times {
                while let Some((ft, act)) = t.poll(now) {
                    out.push((ft.to_bits(), act));
                }
            }
            out
        };
        let sparse = flips(&[100.0]);
        let dense: Vec<f64> = (0..1000).map(|i| i as f64 * 0.1).collect();
        assert_eq!(sparse, flips(&dense));
        assert!(!sparse.is_empty(), "100 s must contain flips");
        assert!(sparse[0].1, "first flip turns the spike ON");
        assert!(sparse[0].0 >= 1.0f64.to_bits(), "no flips before start");
    }

    #[test]
    fn toggler_alternates_phases() {
        let mut t = Toggler::new(SimRng::derive(3, "x"), 1.0, 1.0, 0.0);
        let mut expect = true;
        let mut n = 0;
        while let Some((_, act)) = t.poll(50.0) {
            assert_eq!(act, expect);
            expect = !expect;
            n += 1;
        }
        assert!(n >= 10, "50 s of mean-1 phases must flip many times");
    }
}
