//! The coordinator's wire codec for task results.
//!
//! A worker reports each finished task in one `record` frame (see
//! [`crate::coord::Request::Record`]); the frame's payload is
//! [`encode_outcome`]: single-line, whitespace-separated text that
//! round-trips every field exactly (floats travel as their IEEE bit
//! patterns), so a coordinated sweep assembles tables byte-identical to a
//! direct run. A cell that panics is never recorded: the worker's run
//! aborts instead. [`encode_outcome`] is also the canonical key for
//! bitwise outcome comparison in tests: two outcomes are identical iff
//! their encodings are equal.

use crate::controller::IterationRecord;
use crate::driver::{ControllerOutcome, PriorityOutcome, RunResult};
use crate::scenario::ScenarioOutcome;
use std::fmt;
use xsched_dbms::DbmsMetrics;

/// A typed decode failure: which line of the input was malformed, the
/// offending text, and what went wrong.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number within the decoded text.
    pub line: usize,
    /// The offending line, truncated for display.
    pub context: String,
    /// What was wrong with it.
    pub msg: String,
}

impl DecodeError {
    pub(crate) fn at(line: usize, context: &str, msg: impl Into<String>) -> DecodeError {
        let mut context = context.to_string();
        if context.len() > 96 {
            // Cut on a char boundary: a byte cut inside a multi-byte
            // character would panic on any non-ASCII garbage line.
            context.truncate(context.floor_char_boundary(93));
            context.push_str("...");
        }
        DecodeError {
            line,
            context,
            msg: msg.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "line {}: {} (`{}`)", self.line, self.msg, self.context)
    }
}

impl std::error::Error for DecodeError {}

// ---------------------------------------------------------------------------
// Outcome codec. Fields travel positionally in declaration order; floats as
// 16-hex-digit IEEE bit patterns so every value round-trips exactly. The
// round-trip property test in `tests/props.rs` locks encoder and decoder
// together.

fn fh(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

struct Tokens<'a>(std::str::SplitWhitespace<'a>);

impl Tokens<'_> {
    fn next(&mut self) -> Result<&str, String> {
        self.0.next().ok_or_else(|| "truncated outcome".to_string())
    }
    fn f64(&mut self) -> Result<f64, String> {
        let tok = self.next()?;
        u64::from_str_radix(tok, 16)
            .map(f64::from_bits)
            .map_err(|e| format!("bad float bits `{tok}`: {e}"))
    }
    fn int<T: std::str::FromStr>(&mut self) -> Result<T, String>
    where
        T::Err: std::fmt::Display,
    {
        let tok = self.next()?;
        tok.parse().map_err(|e| format!("bad integer `{tok}`: {e}"))
    }
    fn bool(&mut self) -> Result<bool, String> {
        Ok(self.int::<u8>()? != 0)
    }
}

/// Encode one outcome as a single line of text, covering **every** field
/// bit-exactly. Also the canonical form for bitwise outcome comparison in
/// tests: two outcomes are identical iff their encodings are equal.
pub fn encode_outcome(outcome: &ScenarioOutcome) -> String {
    match outcome {
        ScenarioOutcome::Run(r) => {
            let disks = if r.metrics.disk_busy.is_empty() {
                "-".to_string()
            } else {
                r.metrics
                    .disk_busy
                    .iter()
                    .map(|&d| fh(d))
                    .collect::<Vec<_>>()
                    .join(",")
            };
            let m = &r.metrics;
            format!(
                "R {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {} {}",
                r.mpl,
                fh(r.throughput),
                fh(r.mean_rt),
                fh(r.rt_high),
                fh(r.rt_low),
                r.count_high,
                r.count_low,
                fh(r.p95_rt),
                fh(r.c2_rt),
                fh(r.rt_bm_half_width),
                fh(r.mean_external_wait),
                fh(r.mean_lock_wait),
                fh(r.aborts_per_txn),
                m.commits,
                m.aborts,
                m.deadlock_aborts,
                m.pow_aborts,
                m.timeout_aborts,
                m.group_commits,
                m.writebacks,
                m.bp_hits,
                m.bp_misses,
                fh(m.cpu_busy),
                disks,
                fh(m.log_busy),
                fh(m.elapsed),
                fh(r.rt_p95),
                fh(r.rt_p99),
            )
        }
        ScenarioOutcome::Priority(p) => format!(
            "P {} {} {} {} {} {} {} {}",
            p.setup_id,
            p.mpl,
            fh(p.rt_high),
            fh(p.rt_low),
            fh(p.rt_noprio),
            fh(p.rt_overall),
            fh(p.reference_tput),
            fh(p.achieved_tput),
        ),
        ScenarioOutcome::Controller(c) => {
            let trace = if c.trace.is_empty() {
                "-".to_string()
            } else {
                c.trace
                    .iter()
                    .map(|w| {
                        format!(
                            "{}:{}:{}:{}",
                            w.mpl,
                            fh(w.throughput),
                            fh(w.mean_rt),
                            u8::from(w.feasible)
                        )
                    })
                    .collect::<Vec<_>>()
                    .join(";")
            };
            format!(
                "C {} {} {} {} {} {} {} {} {} {} {} {}",
                c.final_mpl,
                c.iterations,
                c.jumpstart_mpl,
                fh(c.reference_tput),
                fh(c.reference_rt),
                u8::from(c.converged),
                c.discarded_windows,
                c.peak_mpl,
                c.overshoot,
                c.reaction_windows,
                c.post_onset_windows,
                trace,
            )
        }
    }
}

/// Decode one line produced by [`encode_outcome`].
pub fn decode_outcome(line: &str) -> Result<ScenarioOutcome, String> {
    let mut t = Tokens(line.split_whitespace());
    match t.next()? {
        "R" => {
            let mpl = t.int()?;
            let throughput = t.f64()?;
            let mean_rt = t.f64()?;
            let rt_high = t.f64()?;
            let rt_low = t.f64()?;
            let count_high = t.int()?;
            let count_low = t.int()?;
            let p95_rt = t.f64()?;
            let c2_rt = t.f64()?;
            let rt_bm_half_width = t.f64()?;
            let mean_external_wait = t.f64()?;
            let mean_lock_wait = t.f64()?;
            let aborts_per_txn = t.f64()?;
            let commits = t.int()?;
            let aborts = t.int()?;
            let deadlock_aborts = t.int()?;
            let pow_aborts = t.int()?;
            let timeout_aborts = t.int()?;
            let group_commits = t.int()?;
            let writebacks = t.int()?;
            let bp_hits = t.int()?;
            let bp_misses = t.int()?;
            let cpu_busy = t.f64()?;
            let disks_tok = t.next()?.to_string();
            let disk_busy = if disks_tok == "-" {
                Vec::new()
            } else {
                disks_tok
                    .split(',')
                    .map(|d| {
                        u64::from_str_radix(d, 16)
                            .map(f64::from_bits)
                            .map_err(|e| format!("bad disk busy `{d}`: {e}"))
                    })
                    .collect::<Result<_, _>>()?
            };
            let log_busy = t.f64()?;
            let elapsed = t.f64()?;
            // The histogram percentiles travel after the metrics block:
            // they were appended to the line format, keeping older
            // offsets stable for eyeballing diffs.
            let rt_p95 = t.f64()?;
            let rt_p99 = t.f64()?;
            Ok(ScenarioOutcome::Run(RunResult {
                mpl,
                throughput,
                mean_rt,
                rt_high,
                rt_low,
                count_high,
                count_low,
                p95_rt,
                rt_p95,
                rt_p99,
                c2_rt,
                rt_bm_half_width,
                mean_external_wait,
                mean_lock_wait,
                aborts_per_txn,
                metrics: DbmsMetrics {
                    commits,
                    aborts,
                    deadlock_aborts,
                    pow_aborts,
                    timeout_aborts,
                    group_commits,
                    writebacks,
                    bp_hits,
                    bp_misses,
                    cpu_busy,
                    disk_busy,
                    log_busy,
                    elapsed,
                },
            }))
        }
        "P" => Ok(ScenarioOutcome::Priority(PriorityOutcome {
            setup_id: t.int()?,
            mpl: t.int()?,
            rt_high: t.f64()?,
            rt_low: t.f64()?,
            rt_noprio: t.f64()?,
            rt_overall: t.f64()?,
            reference_tput: t.f64()?,
            achieved_tput: t.f64()?,
        })),
        "C" => {
            let final_mpl = t.int()?;
            let iterations = t.int()?;
            let jumpstart_mpl = t.int()?;
            let reference_tput = t.f64()?;
            let reference_rt = t.f64()?;
            let converged = t.bool()?;
            let discarded_windows = t.int()?;
            let peak_mpl = t.int()?;
            let overshoot = t.int()?;
            let reaction_windows = t.int()?;
            let post_onset_windows = t.int()?;
            let trace_tok = t.next()?;
            let trace = if trace_tok == "-" {
                Vec::new()
            } else {
                trace_tok
                    .split(';')
                    .map(|w| -> Result<IterationRecord, String> {
                        let parts: Vec<&str> = w.split(':').collect();
                        let [mpl, tput, rt, feas] = parts[..] else {
                            return Err(format!("malformed trace window `{w}`"));
                        };
                        let bits = |s: &str| {
                            u64::from_str_radix(s, 16)
                                .map(f64::from_bits)
                                .map_err(|e| format!("bad trace float `{s}`: {e}"))
                        };
                        Ok(IterationRecord {
                            mpl: mpl.parse().map_err(|e| format!("bad trace mpl: {e}"))?,
                            throughput: bits(tput)?,
                            mean_rt: bits(rt)?,
                            feasible: feas == "1",
                        })
                    })
                    .collect::<Result<_, _>>()?
            };
            Ok(ScenarioOutcome::Controller(ControllerOutcome {
                final_mpl,
                iterations,
                jumpstart_mpl,
                reference_tput,
                reference_rt,
                converged,
                discarded_windows,
                peak_mpl,
                overshoot,
                reaction_windows,
                post_onset_windows,
                trace,
            }))
        }
        other => Err(format!("unknown outcome kind `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::controller::Targets;
    use crate::driver::{Driver, RunConfig};
    use crate::scenario::Scenario;
    use xsched_workload::{setup, ChaosSpec};

    fn round_trips(out: &ScenarioOutcome) {
        let line = encode_outcome(out);
        assert!(line.starts_with("C "), "{line}");
        let back = decode_outcome(&line).unwrap();
        assert_eq!(encode_outcome(&back), line);
        assert_eq!(format!("{back:?}"), format!("{out:?}"));
    }

    #[test]
    fn plain_session_outcome_round_trips_through_the_codec() {
        let d = Driver::new(setup(1)).with_config(RunConfig::quick());
        let plain = d.session(Targets::twenty_percent(), None, None, None);
        assert!(!plain.trace.is_empty());
        round_trips(&ScenarioOutcome::Controller(plain));
    }

    #[test]
    fn chaos_outcome_round_trips_through_the_codec() {
        let d = Driver::new(setup(1)).with_config(RunConfig::quick());
        let spec = ChaosSpec::quiet(2.0, 1_500);
        let chaos = d.session(Targets::twenty_percent(), None, Some(&spec), None);
        assert!(chaos.post_onset_windows > 0);
        round_trips(&ScenarioOutcome::Controller(chaos));
        // Every chaos field nonzero and distinct, so a swapped pair shows.
        round_trips(&ScenarioOutcome::Controller(ControllerOutcome {
            final_mpl: 7,
            iterations: 45,
            jumpstart_mpl: 9,
            reference_tput: 1234.5678,
            reference_rt: 0.25,
            converged: true,
            discarded_windows: 6,
            peak_mpl: 19,
            overshoot: 12,
            reaction_windows: 23,
            post_onset_windows: 31,
            trace: Vec::new(),
        }));
    }

    #[test]
    fn long_non_ascii_context_is_cut_on_a_char_boundary() {
        // `hello ` is 6 bytes and each `é` is 2, so byte 93 falls inside
        // a character.
        let line = format!("hello {}", "é".repeat(60));
        let err = DecodeError::at(1, &line, "bad frame");
        assert_eq!(err.context, format!("hello {}...", "é".repeat(43)));
    }

    #[test]
    fn special_floats_round_trip_exactly() {
        // Short runs leave rt_bm_half_width infinite and some Welford
        // fields NaN; the codec must carry them bit for bit.
        let rc = RunConfig {
            warmup_txns: 20,
            measured_txns: 120,
            ..Default::default()
        };
        let mut r = match Scenario::tput("s1", setup(1), 1, rc).run(1) {
            ScenarioOutcome::Run(r) => r,
            _ => unreachable!(),
        };
        r.rt_bm_half_width = f64::INFINITY;
        r.c2_rt = f64::NAN;
        let line = encode_outcome(&ScenarioOutcome::Run(r.clone()));
        let back = decode_outcome(&line).unwrap();
        assert_eq!(line, encode_outcome(&back));
    }
}
