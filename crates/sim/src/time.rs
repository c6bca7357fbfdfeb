//! Simulation clock.
//!
//! Simulated time is stored as an integer number of nanoseconds. Integer time
//! gives a total order (safe to use as a heap key), makes runs bit-for-bit
//! reproducible across platforms, and is immune to the accumulation drift
//! that plagues `f64` clocks over long runs. Model code works in `f64`
//! seconds (service demands are natural in seconds) and converts at the
//! boundary.

use std::fmt;
use std::ops::{Add, AddAssign, Sub};

/// A point in simulated time, in nanoseconds since the start of the run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimTime(u64);

/// Nanoseconds per second, as used by all conversions in this module.
pub const NANOS_PER_SEC: u64 = 1_000_000_000;

impl SimTime {
    /// The origin of simulated time.
    pub const ZERO: SimTime = SimTime(0);
    /// The largest representable instant; used as an "infinitely far" sentinel.
    pub const MAX: SimTime = SimTime(u64::MAX);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimTime(nanos)
    }

    /// Construct from (possibly fractional) seconds. Negative and NaN inputs
    /// clamp to zero; overflow clamps to [`SimTime::MAX`].
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        // Deliberate negated comparison: NaN must also take this branch.
        #[allow(clippy::neg_cmp_op_on_partial_ord)]
        if !(secs > 0.0) {
            return SimTime(0);
        }
        let nanos = secs * NANOS_PER_SEC as f64;
        if nanos >= u64::MAX as f64 {
            SimTime::MAX
        } else {
            SimTime(nanos as u64)
        }
    }

    /// Raw nanoseconds since the start of the run.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Seconds since the start of the run.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }

    /// `self + dur` saturating at [`SimTime::MAX`].
    #[inline]
    pub fn saturating_add(self, dur: SimDuration) -> SimTime {
        SimTime(self.0.saturating_add(dur.0))
    }

    /// Elapsed duration since `earlier`; zero if `earlier` is in the future.
    #[inline]
    pub fn since(self, earlier: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(earlier.0))
    }
}

impl Add<SimDuration> for SimTime {
    type Output = SimTime;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimTime {
        SimTime(self.0 + rhs.0)
    }
}

impl AddAssign<SimDuration> for SimTime {
    #[inline]
    fn add_assign(&mut self, rhs: SimDuration) {
        self.0 += rhs.0;
    }
}

impl Sub<SimTime> for SimTime {
    type Output = SimDuration;
    #[inline]
    fn sub(self, rhs: SimTime) -> SimDuration {
        SimDuration(self.0.saturating_sub(rhs.0))
    }
}

impl fmt::Display for SimTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// A span of simulated time, in nanoseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SimDuration(u64);

impl SimDuration {
    /// The zero-length duration.
    pub const ZERO: SimDuration = SimDuration(0);

    /// Construct from raw nanoseconds.
    #[inline]
    pub const fn from_nanos(nanos: u64) -> Self {
        SimDuration(nanos)
    }

    /// Construct from (possibly fractional) seconds; negative/NaN clamp to 0.
    #[inline]
    pub fn from_secs_f64(secs: f64) -> Self {
        SimDuration(SimTime::from_secs_f64(secs).as_nanos())
    }

    /// Raw nanoseconds.
    #[inline]
    pub const fn as_nanos(self) -> u64 {
        self.0
    }

    /// Duration in seconds.
    #[inline]
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / NANOS_PER_SEC as f64
    }
}

impl Add for SimDuration {
    type Output = SimDuration;
    #[inline]
    fn add(self, rhs: SimDuration) -> SimDuration {
        SimDuration(self.0 + rhs.0)
    }
}

impl fmt::Display for SimDuration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_seconds() {
        let t = SimTime::from_secs_f64(1.25);
        assert_eq!(t.as_nanos(), 1_250_000_000);
        assert!((t.as_secs_f64() - 1.25).abs() < 1e-12);
    }

    #[test]
    fn negative_and_nan_clamp_to_zero() {
        assert_eq!(SimTime::from_secs_f64(-3.0), SimTime::ZERO);
        assert_eq!(SimTime::from_secs_f64(f64::NAN), SimTime::ZERO);
        assert_eq!(SimDuration::from_secs_f64(-1.0), SimDuration::ZERO);
    }

    #[test]
    fn overflow_clamps_to_max() {
        assert_eq!(SimTime::from_secs_f64(1e30), SimTime::MAX);
    }

    #[test]
    fn arithmetic() {
        let t = SimTime::from_secs_f64(2.0);
        let d = SimDuration::from_secs_f64(0.5);
        assert_eq!((t + d).as_secs_f64(), 2.5);
        assert_eq!(((t + d) - t).as_nanos(), d.as_nanos());
        // subtracting a later time saturates rather than panicking
        assert_eq!((t - (t + d)).as_nanos(), 0);
    }

    #[test]
    fn ordering_is_total() {
        let a = SimTime::from_nanos(1);
        let b = SimTime::from_nanos(2);
        assert!(a < b);
        assert!(SimTime::ZERO < a);
        assert!(b < SimTime::MAX);
    }

    #[test]
    fn since_is_saturating() {
        let a = SimTime::from_nanos(5);
        let b = SimTime::from_nanos(9);
        assert_eq!(b.since(a).as_nanos(), 4);
        assert_eq!(a.since(b).as_nanos(), 0);
    }

    #[test]
    fn display_formats_in_seconds() {
        assert_eq!(format!("{}", SimTime::from_secs_f64(0.5)), "0.500000s");
        assert_eq!(format!("{}", SimDuration::from_secs_f64(1.5)), "1.500000s");
    }
}
