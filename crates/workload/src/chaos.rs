//! Traffic-shape chaos: the client-side half of the chaos scenario axis.
//!
//! A [`ChaosSpec`] bundles everything a robustness experiment perturbs:
//!
//! * **bursty arrivals** ([`BurstSpec`]) — a two-phase MMPP: think times
//!   are divided by `factor` while the burst phase is ON, modulated by a
//!   deterministic exponential ON/OFF schedule,
//! * **flash crowds** ([`FlashSpec`]) — a one-shot ramp that multiplies
//!   arrival intensity up to `surge_mult` over `ramp_secs` after onset,
//! * **think-time override** — replaces the scenario's think-time
//!   distribution so arrival-side chaos has headroom to act on (a
//!   saturated closed system with zero think time cannot burst),
//! * **service-side faults** ([`FaultSpec`]) — lock-holder stalls,
//!   disk-latency spikes and client-abort storms, injected inside the
//!   simulated DBMS (see `xsched_dbms::fault`).
//!
//! Every injector is rate-parameterized and draws from its own derived
//! RNG stream, so a chaos run is bit-reproducible in `(seed, spec)` and
//! a spec with every knob disabled is byte-identical to no chaos at all.

use xsched_dbms::FaultSpec;
use xsched_sim::Dist;

/// MMPP arrival burst: while ON, client think times are divided by
/// `factor` (the population submits `factor`× faster), producing the
/// bursty offered-load swings the controller must ride out.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurstSpec {
    /// Mean length of the bursting (ON) phase, seconds.
    pub mean_on: f64,
    /// Mean length of the calm (OFF) phase, seconds.
    pub mean_off: f64,
    /// Think-time divisor while ON (> 1).
    pub factor: f64,
}

/// Flash crowd: starting at the chaos onset, arrival intensity ramps
/// linearly from 1× to `surge_mult`× over `ramp_secs`, then holds — the
/// canonical overload transient of §1 (a site suddenly popular).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashSpec {
    /// Peak arrival-intensity multiplier once the ramp completes (> 1).
    pub surge_mult: f64,
    /// Seconds the linear ramp takes to reach the peak.
    pub ramp_secs: f64,
}

/// One chaos scenario: which injectors run, when they wake up, and how
/// long the observation session lasts.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosSpec {
    /// Simulated seconds before any injector activates. The controller
    /// converges on the healthy system first; reaction time and
    /// overshoot are measured from this instant.
    pub onset: f64,
    /// Measured-transaction budget of the chaos session (the controller
    /// session's usual convergence break is disabled so post-onset
    /// behaviour stays observable).
    pub session_txns: u64,
    /// Bursty MMPP arrivals, or `None` to disable.
    pub burst: Option<BurstSpec>,
    /// Flash-crowd ramp, or `None` to disable.
    pub flash: Option<FlashSpec>,
    /// Think-time override for the closed population, or `None` to keep
    /// the scenario's own arrival process.
    pub think: Option<Dist>,
    /// Service-side fault layer (stalls, disk spikes, abort storms).
    pub faults: FaultSpec,
}

impl ChaosSpec {
    /// A quiet baseline: no injectors, default onset/budget. Useful as a
    /// `..` base and as the byte-identity reference in tests.
    pub fn quiet(onset: f64, session_txns: u64) -> ChaosSpec {
        ChaosSpec {
            onset,
            session_txns,
            burst: None,
            flash: None,
            think: None,
            faults: FaultSpec::default(),
        }
    }

    /// True when every traffic- and service-side injector is disabled.
    pub fn is_noop(&self) -> bool {
        self.burst.is_none() && self.flash.is_none() && self.faults.is_noop()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_spec_is_noop() {
        assert!(ChaosSpec::quiet(40.0, 5000).is_noop());
        let s = ChaosSpec {
            burst: Some(BurstSpec {
                mean_on: 5.0,
                mean_off: 5.0,
                factor: 4.0,
            }),
            ..ChaosSpec::quiet(40.0, 5000)
        };
        assert!(!s.is_noop());
    }

    #[test]
    fn think_override_alone_is_still_noop() {
        // Overriding think time changes the scenario, not the chaos: a
        // spec whose only knob is `think` injects nothing.
        let s = ChaosSpec {
            think: Some(Dist::exp(0.5)),
            ..ChaosSpec::quiet(10.0, 1000)
        };
        assert!(s.is_noop());
    }
}
