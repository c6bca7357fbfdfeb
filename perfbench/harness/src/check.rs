//! Output checking: every timed unit's output is hashed and compared with
//! a digest pinned in `perfbench/digests.txt`, so a change that moves any
//! simulated statistic, jump-start MPL or controller iteration count
//! counts as a failed unit. Event counts are not checked: a change that
//! renders the same tables with fewer simulated events passes.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// FNV-1a, 64-bit: stable across hosts and toolchains.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What one unit produced: a digest of its output and, when the harness
/// can count them from outside, the simulator events it processed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Output {
    pub digest: u64,
    pub events: Option<u64>,
}

/// Pinned `(digest, events)` per `(unit, simulation seed)`.
#[derive(Debug, Default)]
pub struct Pins {
    map: BTreeMap<(String, u64), (u64, u64)>,
}

impl Pins {
    /// Parse `unit sim_seed digest_hex events` lines; `#` starts a comment.
    pub fn parse(text: &str) -> Result<Pins, String> {
        let mut map = BTreeMap::new();
        for (n, line) in text.lines().enumerate() {
            let line = line.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            let bad = || format!("digests line {}: expected `unit seed digest events`", n + 1);
            if f.len() != 4 {
                return Err(bad());
            }
            let seed = f[1].parse().map_err(|_| bad())?;
            let digest = u64::from_str_radix(f[2], 16).map_err(|_| bad())?;
            let events = f[3].parse().map_err(|_| bad())?;
            map.insert((f[0].to_string(), seed), (digest, events));
        }
        Ok(Pins { map })
    }

    pub fn get(&self, unit: &str, seed: u64) -> Option<(u64, u64)> {
        self.map.get(&(unit.to_string(), seed)).copied()
    }

    pub fn insert(&mut self, unit: &str, seed: u64, digest: u64, events: u64) {
        self.map.insert((unit.to_string(), seed), (digest, events));
    }

    pub fn render(&self) -> String {
        self.map
            .iter()
            .map(|((unit, seed), (d, e))| format!("{unit} {seed} {d:016x} {e}\n"))
            .collect()
    }
}

/// Units attempted and failed in one run.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// Runs units under panic isolation and checks them against the pins.
pub struct Checker {
    pub pins: Pins,
    pub tally: Tally,
}

impl Checker {
    /// Run `unit` (seeded with `seed`), counting it as attempted; it fails
    /// if it panics or its output digest differs from the pin. Returns the
    /// output and the event count to bill it with (measured, else the
    /// pinned count) when it passed.
    pub fn run(
        &mut self,
        unit: &str,
        seed: u64,
        f: impl FnOnce() -> Output,
    ) -> Option<(Output, u64)> {
        let out = self.guard(unit, seed, f)?;
        match self.pins.get(unit, seed) {
            Some((digest, pinned_events)) if digest == out.digest => {
                Some((out, out.events.unwrap_or(pinned_events)))
            }
            pinned => {
                eprintln!(
                    "[perfbench] unit {unit} (seed {seed}) output {:016x} differs from pin {pinned:?}",
                    out.digest
                );
                self.tally.failed += 1;
                None
            }
        }
    }

    /// Run `unit` under panic isolation only, counting it as attempted
    /// and, if it panics, as failed.
    pub fn guard<R>(&mut self, unit: &str, seed: u64, f: impl FnOnce() -> R) -> Option<R> {
        self.tally.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(r) => Some(r),
            Err(payload) => {
                let msg = payload
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                eprintln!("[perfbench] unit {unit} (seed {seed}) panicked: {msg}");
                self.tally.failed += 1;
                None
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn checker() -> Checker {
        Checker {
            pins: Pins::parse("# unit seed digest events\nu 7 00000000000000ff 12\n").unwrap(),
            tally: Tally::default(),
        }
    }

    #[test]
    fn matching_output_passes() {
        let mut c = checker();
        let out = c.run("u", 7, || Output {
            digest: 0xff,
            events: Some(12),
        });
        assert_eq!(out.map(|(_, e)| e), Some(12));
        assert_eq!((c.tally.attempted, c.tally.failed), (1, 0));
    }

    #[test]
    fn a_panicking_unit_counts_as_failed() {
        let mut c = checker();
        assert!(c.run("u", 7, || panic!("injected")).is_none());
        assert_eq!((c.tally.attempted, c.tally.failed), (1, 1));
    }

    #[test]
    fn only_the_digest_decides_and_measured_events_are_billed() {
        let mut c = checker();
        let ok = Output {
            digest: 0xff,
            events: Some(12),
        };
        assert!(c.run("u", 7, || Output { digest: 0xfe, ..ok }).is_none());
        assert!(c.run("u", 8, || ok).is_none());
        let fewer = c.run("u", 7, || Output {
            events: Some(9),
            ..ok
        });
        assert_eq!(fewer.map(|(_, e)| e), Some(9));
        let unmeasured = c.run("u", 7, || Output { events: None, ..ok });
        assert_eq!(unmeasured.map(|(_, e)| e), Some(12));
        assert_eq!((c.tally.attempted, c.tally.failed), (4, 2));
    }

    #[test]
    fn pins_round_trip() {
        let p = Pins::parse("a 1 0000000000000abc 5\n").unwrap();
        assert_eq!(
            Pins::parse(&p.render()).unwrap().get("a", 1),
            Some((0xabc, 5))
        );
        assert!(Pins::parse("a 1 zz 5\n").is_err());
    }
}
