#![warn(missing_docs)]
//! Offline mini property-testing harness with a `proptest`-shaped API.
//!
//! The workspace builds without crates.io access, so this crate implements
//! the subset of `proptest` the test suites use:
//!
//! * the [`proptest!`] macro (`fn name(x in strategy, ...) { body }`),
//! * range strategies (`0u64..1_000_000`, `1u32..=17`, `-1e3f64..1e3`),
//! * [`prelude::any`] for `u64`/`u32`/`u8`/`bool`/`f64`,
//! * [`collection::vec`],
//! * `prop_assert!` / `prop_assert_eq!` / `prop_assert_ne!`.
//!
//! Differences from the real crate: the case count is [`CASES`] unless a
//! block opens with `#![proptest_config(ProptestConfig::with_cases(n))]`
//! (no `PROPTEST_CASES`), no shrinking (failures report the case seed so a
//! failing case replays deterministically), and strategies are sampled
//! uniformly. Case generation is fully deterministic: the RNG is seeded
//! from the property's name, so runs are reproducible across machines.

use std::ops::{Range, RangeInclusive};

/// Number of random cases each `proptest!` property runs by default.
pub const CASES: u32 = 48;

/// Per-block configuration: `#![proptest_config(ProptestConfig::with_cases(n))]`
/// as the first line of a `proptest!` block runs each of its properties
/// `n` times instead of [`CASES`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProptestConfig {
    /// Number of random cases per property.
    pub cases: u32,
}

impl ProptestConfig {
    /// A configuration running `cases` cases per property.
    pub fn with_cases(cases: u32) -> ProptestConfig {
        ProptestConfig { cases }
    }
}

impl Default for ProptestConfig {
    fn default() -> ProptestConfig {
        ProptestConfig { cases: CASES }
    }
}

/// Deterministic SplitMix64 generator used to drive strategies.
#[derive(Debug, Clone)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seed a stream; the `proptest!` macro derives one per (test, case).
    pub fn new(seed: u64) -> TestRng {
        TestRng { state: seed }
    }

    /// Seed derived from a test name and case number.
    pub fn for_case(name: &str, case: u32) -> TestRng {
        let mut state = 0x9E37_79B9_7F4A_7C15u64 ^ u64::from(case);
        for b in name.as_bytes() {
            state = state
                .wrapping_mul(0xBF58_476D_1CE4_E5B9)
                .wrapping_add(u64::from(*b));
        }
        let mut rng = TestRng { state };
        rng.next_u64(); // mix
        TestRng {
            state: rng.next_u64(),
        }
    }

    /// Next raw 64-bit value.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)` with 53 bits of precision.
    pub fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform integer in `[0, n)`; `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        debug_assert!(n > 0);
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u64
    }
}

/// A source of random values of one type — the mini `Strategy` trait.
pub trait Strategy {
    /// The value type this strategy produces.
    type Value;
    /// Sample one value.
    fn generate(&self, rng: &mut TestRng) -> Self::Value;
}

macro_rules! int_range_strategy {
    ($($t:ty),*) => {$(
        impl Strategy for Range<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                assert!(self.start < self.end, "empty strategy range");
                let span = (self.end as u64).wrapping_sub(self.start as u64);
                self.start.wrapping_add(rng.below(span) as $t)
            }
        }
        impl Strategy for RangeInclusive<$t> {
            type Value = $t;
            fn generate(&self, rng: &mut TestRng) -> $t {
                let (lo, hi) = (*self.start(), *self.end());
                assert!(lo <= hi, "empty strategy range");
                let span = (hi as u64).wrapping_sub(lo as u64).wrapping_add(1);
                if span == 0 {
                    // Full-domain u64 range.
                    rng.next_u64() as $t
                } else {
                    lo.wrapping_add(rng.below(span) as $t)
                }
            }
        }
    )*};
}

int_range_strategy!(u8, u16, u32, u64, usize);

impl Strategy for Range<f64> {
    type Value = f64;
    fn generate(&self, rng: &mut TestRng) -> f64 {
        self.start + (self.end - self.start) * rng.unit_f64()
    }
}

macro_rules! tuple_strategy {
    ($($s:ident/$idx:tt),+) => {
        impl<$($s: Strategy),+> Strategy for ($($s,)+) {
            type Value = ($($s::Value,)+);
            fn generate(&self, rng: &mut TestRng) -> Self::Value {
                ($(self.$idx.generate(rng),)+)
            }
        }
    };
}

tuple_strategy!(A / 0, B / 1);
tuple_strategy!(A / 0, B / 1, C / 2);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3);
tuple_strategy!(A / 0, B / 1, C / 2, D / 3, E / 4);

/// Strategy produced by [`prelude::any`].
#[derive(Debug, Clone, Copy)]
pub struct Any<T>(std::marker::PhantomData<T>);

impl<T> Default for Any<T> {
    fn default() -> Any<T> {
        Any(std::marker::PhantomData)
    }
}

/// Types [`prelude::any`] can produce (whole-domain uniform sampling).
pub trait ArbitraryValue {
    /// Sample a value from the type's full domain.
    fn arbitrary(rng: &mut TestRng) -> Self;
}

impl ArbitraryValue for u64 {
    fn arbitrary(rng: &mut TestRng) -> u64 {
        rng.next_u64()
    }
}

impl ArbitraryValue for u32 {
    fn arbitrary(rng: &mut TestRng) -> u32 {
        rng.next_u64() as u32
    }
}

impl ArbitraryValue for u8 {
    fn arbitrary(rng: &mut TestRng) -> u8 {
        rng.next_u64() as u8
    }
}

impl ArbitraryValue for bool {
    fn arbitrary(rng: &mut TestRng) -> bool {
        rng.next_u64() & 1 == 1
    }
}

impl ArbitraryValue for f64 {
    fn arbitrary(rng: &mut TestRng) -> f64 {
        // Finite values only: uniform over a wide symmetric interval.
        (rng.unit_f64() - 0.5) * 2e9
    }
}

impl<T: ArbitraryValue> Strategy for Any<T> {
    type Value = T;
    fn generate(&self, rng: &mut TestRng) -> T {
        T::arbitrary(rng)
    }
}

/// Collection strategies.
pub mod collection {
    use super::{Strategy, TestRng};
    use std::ops::Range;

    /// Strategy for `Vec`s with lengths drawn from `len` and elements from
    /// `element`.
    #[derive(Debug, Clone)]
    pub struct VecStrategy<S> {
        element: S,
        len: Range<usize>,
    }

    /// A `Vec` strategy: `vec(0u8..3, 1..200)`.
    pub fn vec<S: Strategy>(element: S, len: Range<usize>) -> VecStrategy<S> {
        assert!(len.start < len.end, "empty vec length range");
        VecStrategy { element, len }
    }

    impl<S: Strategy> Strategy for VecStrategy<S> {
        type Value = Vec<S::Value>;
        fn generate(&self, rng: &mut TestRng) -> Vec<S::Value> {
            let n = self.len.generate(rng);
            (0..n).map(|_| self.element.generate(rng)).collect()
        }
    }
}

/// The usual glob-import surface: `use proptest::prelude::*;`.
pub mod prelude {
    pub use crate::{collection, Any, ArbitraryValue, ProptestConfig, Strategy, TestRng};
    pub use crate::{prop_assert, prop_assert_eq, prop_assert_ne, proptest};

    /// Whole-domain strategy for `T`: `any::<u64>()`.
    pub fn any<T: ArbitraryValue>() -> Any<T> {
        Any::default()
    }
}

/// Assert inside a `proptest!` body (no shrinking; panics like `assert!`).
#[macro_export]
macro_rules! prop_assert {
    ($($tt:tt)*) => { assert!($($tt)*) };
}

/// Equality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_eq {
    ($($tt:tt)*) => { assert_eq!($($tt)*) };
}

/// Inequality assert inside a `proptest!` body.
#[macro_export]
macro_rules! prop_assert_ne {
    ($($tt:tt)*) => { assert_ne!($($tt)*) };
}

/// Define property tests: each `fn name(x in strategy, ...) { body }`
/// becomes a `#[test]` running [`CASES`] deterministic random cases (or
/// the count of a leading `#![proptest_config(..)]`).
#[macro_export]
macro_rules! proptest {
    (#![proptest_config($config:expr)] $($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {$(
        $crate::proptest!(@case ($config) $(#[$attr])* fn $name($($arg in $strat),+) $body);
    )+};
    ($($(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+ $(,)?) $body:block)+) => {$(
        $crate::proptest!(@case ($crate::ProptestConfig::default()) $(#[$attr])* fn $name($($arg in $strat),+) $body);
    )+};
    (@case ($config:expr) $(#[$attr:meta])* fn $name:ident($($arg:ident in $strat:expr),+) $body:block) => {
        $(#[$attr])*
        fn $name() {
            let config: $crate::ProptestConfig = $config;
            let cases = config.cases;
            for case in 0..cases {
                let mut rng = $crate::TestRng::for_case(stringify!($name), case);
                $(let $arg = $crate::Strategy::generate(&($strat), &mut rng);)+
                // A panicking case reports which deterministic case failed.
                let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| $body));
                if let Err(e) = result {
                    eprintln!(
                        "proptest case {case} of {cases} failed for {}",
                        stringify!($name),
                    );
                    std::panic::resume_unwind(e);
                }
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    proptest! {
        #[test]
        fn ranges_in_bounds(x in 3u32..10, y in 1u64..=4, f in -2.0f64..2.0) {
            prop_assert!((3..10).contains(&x));
            prop_assert!((1..=4).contains(&y));
            prop_assert!((-2.0..2.0).contains(&f));
        }

        #[test]
        fn vec_lengths_respected(v in collection::vec(0u8..3, 1..20)) {
            prop_assert!(!v.is_empty() && v.len() < 20);
            prop_assert!(v.iter().all(|&b| b < 3));
        }
    }

    #[test]
    fn config_sets_the_case_count() {
        thread_local!(static RUNS: std::cell::Cell<u32> = const { std::cell::Cell::new(0) });
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(5))]
            fn five_cases(x in 0u32..10) {
                prop_assert!(x < 10);
                RUNS.with(|r| r.set(r.get() + 1));
            }
        }
        five_cases();
        assert_eq!(RUNS.with(|r| r.get()), 5);
    }

    #[test]
    fn deterministic_across_runs() {
        let mut a = TestRng::for_case("t", 1);
        let mut b = TestRng::for_case("t", 1);
        assert_eq!(a.next_u64(), b.next_u64());
        let mut c = TestRng::for_case("t", 2);
        assert_ne!(a.next_u64(), c.next_u64());
    }
}
