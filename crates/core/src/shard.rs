//! Sharded sweep execution: slot-indexed partial results and their
//! bit-exact merge.
//!
//! A [`SweepPlan`] expands to a flat task list (see [`SweepPlan::tasks`]);
//! shard `i` of `n` executes the strided slice `i, i+n, i+2n, …` and
//! produces a [`ShardResult`] — outcomes tagged with their *global* task
//! index. [`ShardResult::merge`] validates that a set of shards exactly
//! partitions the plan and reassembles the full sweep; because every task
//! is a pure function of `(scenario, seed)` and slots are indexed by task
//! id, the merged results are **bit-identical** to an unsharded run.
//!
//! For crossing process or host boundaries, [`ShardResult::encode`] and
//! [`ShardResult::decode`] provide a plain-text wire format that
//! round-trips every outcome field exactly (floats travel as their IEEE
//! bit patterns), so a sweep split with `figures --shard i/n` and
//! reassembled with `figures --merge` prints byte-identical tables.

use crate::controller::IterationRecord;
use crate::driver::{ChaosOutcome, ControllerOutcome, PriorityOutcome, RunResult};
use crate::fault::TaskError;
use crate::scenario::ScenarioOutcome;
use crate::sweep::{assemble, ScenarioResult, SweepPlan};
use serde::Serialize;
use std::fmt;
use xsched_dbms::DbmsMetrics;

/// A typed decode failure: which line of the payload was malformed, the
/// offending text, and what went wrong — so a bad byte in a multi-payload
/// stream (or a checkpoint journal) is locatable instead of a bare
/// `format!` string that lost its position.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    /// 1-based line number within the decoded text (0 when the failure
    /// has no line, e.g. an empty payload).
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
            context.truncate(93);
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
        if self.line == 0 {
            write!(f, "{}", self.msg)
        } else {
            write!(f, "line {}: {} (`{}`)", self.line, self.msg, self.context)
        }
    }
}

impl std::error::Error for DecodeError {}

/// The slot-indexed outcomes of one shard of a sweep.
#[derive(Debug, Clone, Serialize)]
pub struct ShardResult {
    /// Which shard this is (0-based).
    pub shard: usize,
    /// Total number of shards the plan was split into.
    pub of: usize,
    /// [`SweepPlan::fingerprint`] of the plan that produced this shard;
    /// merging refuses shards from a different plan.
    pub plan_fingerprint: u64,
    /// Task count of the *full* plan (not just this shard).
    pub task_count: usize,
    /// `(global task index, outcome)` pairs for this shard's slice.
    pub entries: Vec<(usize, ScenarioOutcome)>,
    /// `(global task index, error)` pairs for tasks this shard ran but
    /// could not complete under `--keep-going`: the cell is *covered*
    /// (merge treats it like an entry for partition accounting) but
    /// carries a typed [`TaskError`] instead of an outcome. Empty on
    /// every fail-fast run.
    pub failures: Vec<(usize, TaskError)>,
    /// `(global task index, wall-clock seconds)` telemetry for the tasks
    /// this shard executed. Observational only: it rides the wire format
    /// as an optional trailing section and never participates in merge
    /// validation or result assembly, so runs with different timings
    /// still merge to byte-identical tables. Empty for decoded payloads
    /// that carried no timings.
    pub timings: Vec<(usize, f64)>,
    /// `(global task index, seconds spent *computing* reference runs)`
    /// for the tasks whose execution paid for a capacity measurement —
    /// sparse: cells served from the measurement cache contribute
    /// nothing. Like [`ShardResult::timings`], purely observational
    /// (timing telemetry bills these to a `ref/` bucket) and an optional
    /// trailing wire section older payloads lack.
    pub ref_timings: Vec<(usize, f64)>,
    /// `(global task index, simulation events processed)` for the tasks
    /// this shard executed, *net of* any reference-run events (those are
    /// reported separately below). Unlike wall-clock [`ShardResult::timings`]
    /// this signal is deterministic in `(scenario, seed)`. Observational
    /// only; an optional trailing wire section older payloads lack.
    pub events: Vec<(usize, u64)>,
    /// `(global task index, simulation events spent computing reference
    /// runs)` — the event-currency counterpart of
    /// [`ShardResult::ref_timings`]: sparse, deterministic, observational.
    pub ref_events: Vec<(usize, u64)>,
}

impl ShardResult {
    /// Reassemble the full sweep from shards of `plan`.
    ///
    /// Validates that every shard was produced from this exact plan (by
    /// fingerprint and task count) and that the shards cover every task
    /// index exactly once; any gap, duplicate, or mismatch is an error.
    /// The assembled [`ScenarioResult`]s are bit-identical to
    /// [`SweepExecutor::run`](crate::SweepExecutor::run) on the same plan.
    pub fn merge<'a>(
        plan: &SweepPlan,
        shards: impl IntoIterator<Item = &'a ShardResult>,
    ) -> Result<Vec<ScenarioResult>, String> {
        let fp = plan.fingerprint();
        let task_count = plan.task_count();
        let mut entries: Vec<(usize, ScenarioOutcome)> = Vec::with_capacity(task_count);
        let mut failures: Vec<(usize, TaskError)> = Vec::new();
        let mut seen = vec![false; task_count];
        for shard in shards {
            if shard.plan_fingerprint != fp {
                return Err(format!(
                    "shard {}/{} was produced from a different plan \
                     (fingerprint {:016x}, want {:016x})",
                    shard.shard, shard.of, shard.plan_fingerprint, fp
                ));
            }
            if shard.task_count != task_count {
                return Err(format!(
                    "shard {}/{} covers a {}-task plan, want {task_count}",
                    shard.shard, shard.of, shard.task_count
                ));
            }
            // A failed task still *covers* its index: the shard ran it
            // and is reporting a typed failure, so partition accounting
            // treats entries and failures identically.
            let mut claim = |t: usize| -> Result<(), String> {
                if t >= task_count {
                    return Err(format!("task index {t} out of range for {task_count}"));
                }
                if seen[t] {
                    return Err(format!("task {t} appears in more than one shard"));
                }
                seen[t] = true;
                Ok(())
            };
            for (t, outcome) in &shard.entries {
                claim(*t)?;
                entries.push((*t, outcome.clone()));
            }
            for (t, failure) in &shard.failures {
                claim(*t)?;
                failures.push((*t, failure.clone()));
            }
        }
        if let Some(missing) = seen.iter().position(|covered| !covered) {
            return Err(format!(
                "incomplete partition: task {missing} is covered by no shard"
            ));
        }
        Ok(assemble(plan, entries, failures))
    }

    /// Aggregate just this shard's slice of `plan` (cells the shard did
    /// not execute simply have no replications). Useful for previewing a
    /// shard's share; the real tables come from [`ShardResult::merge`].
    pub fn partial_results(&self, plan: &SweepPlan) -> Vec<ScenarioResult> {
        assemble(plan, self.entries.clone(), self.failures.clone())
    }

    /// Serialize to the plain-text wire format (one header line, one line
    /// per task). Floats are written as IEEE-754 bit patterns, so
    /// `decode(encode(x))` reproduces every field of every outcome
    /// bit for bit. Per-task timings follow the entries as `timing`
    /// lines — an optional section older payloads simply lack.
    pub fn encode(&self) -> String {
        let mut out = format!(
            "xsched-shard v1 plan={:016x} tasks={} shard={} of={} entries={}\n",
            self.plan_fingerprint,
            self.task_count,
            self.shard,
            self.of,
            self.entries.len()
        );
        for (t, outcome) in &self.entries {
            out.push_str(&format!("{t} {}\n", encode_outcome(outcome)));
        }
        for (t, failure) in &self.failures {
            out.push_str(&format!("failed {t} {}\n", encode_failure(failure)));
        }
        for (t, secs) in &self.timings {
            out.push_str(&format!("timing {t} {}\n", fh(*secs)));
        }
        for (t, secs) in &self.ref_timings {
            out.push_str(&format!("reftiming {t} {}\n", fh(*secs)));
        }
        for (t, n) in &self.events {
            out.push_str(&format!("events {t} {n}\n"));
        }
        for (t, n) in &self.ref_events {
            out.push_str(&format!("refevents {t} {n}\n"));
        }
        out
    }

    /// Parse one payload produced by [`ShardResult::encode`]. Errors
    /// carry the 1-based line number and the offending line.
    pub fn decode(text: &str) -> Result<ShardResult, DecodeError> {
        let lines: Vec<(usize, &str)> = text
            .lines()
            .enumerate()
            .map(|(i, l)| (i + 1, l))
            .filter(|(_, l)| !l.trim().is_empty())
            .collect();
        Self::decode_lines(&lines)
    }

    /// Decode from pre-filtered `(original line number, line)` pairs —
    /// the shared core of [`ShardResult::decode`] and [`decode_payloads`]
    /// that lets errors report positions in the *original* stream even
    /// after comment/blank stripping and payload splitting.
    fn decode_lines(lines: &[(usize, &str)]) -> Result<ShardResult, DecodeError> {
        let &(header_no, header) = lines
            .first()
            .ok_or_else(|| DecodeError::at(0, "", "empty shard payload"))?;
        let herr = |msg: String| DecodeError::at(header_no, header, msg);
        let mut fields = header.split_whitespace();
        if (fields.next(), fields.next()) != (Some("xsched-shard"), Some("v1")) {
            return Err(herr(format!("not a v1 shard payload: `{header}`")));
        }
        let mut get = |name: &str| -> Result<String, String> {
            let tok = fields
                .next()
                .ok_or_else(|| format!("header missing `{name}`"))?;
            tok.strip_prefix(&format!("{name}="))
                .map(str::to_string)
                .ok_or_else(|| format!("expected `{name}=…`, got `{tok}`"))
        };
        let plan_fingerprint = u64::from_str_radix(&get("plan").map_err(&herr)?, 16)
            .map_err(|e| herr(format!("bad plan fingerprint: {e}")))?;
        let parse = |s: String| s.parse::<usize>().map_err(|e| format!("bad header: {e}"));
        let task_count = parse(get("tasks").map_err(&herr)?).map_err(&herr)?;
        let shard = parse(get("shard").map_err(&herr)?).map_err(&herr)?;
        let of = parse(get("of").map_err(&herr)?).map_err(&herr)?;
        let entries_len = parse(get("entries").map_err(&herr)?).map_err(&herr)?;

        let mut entries = Vec::with_capacity(entries_len);
        let mut failures = Vec::new();
        let mut timings = Vec::new();
        let mut ref_timings = Vec::new();
        let mut events = Vec::new();
        let mut ref_events = Vec::new();
        let parse_events = |rest: &str| -> Result<(usize, u64), String> {
            let (idx, count) = rest
                .split_once(' ')
                .ok_or_else(|| "malformed events line".to_string())?;
            let t: usize = idx.parse().map_err(|e| format!("bad events index: {e}"))?;
            let n: u64 = count
                .parse()
                .map_err(|e| format!("bad event count `{count}`: {e}"))?;
            Ok((t, n))
        };
        let parse_timing = |rest: &str| -> Result<(usize, f64), String> {
            let (idx, bits) = rest
                .split_once(' ')
                .ok_or_else(|| "malformed timing line".to_string())?;
            let t: usize = idx.parse().map_err(|e| format!("bad timing index: {e}"))?;
            let secs = u64::from_str_radix(bits, 16)
                .map(f64::from_bits)
                .map_err(|e| format!("bad timing bits `{bits}`: {e}"))?;
            Ok((t, secs))
        };
        for &(no, line) in &lines[1..] {
            let fail = |msg: String| DecodeError::at(no, line, msg);
            if let Some(rest) = line.strip_prefix("timing ") {
                timings.push(parse_timing(rest).map_err(&fail)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("reftiming ") {
                ref_timings.push(parse_timing(rest).map_err(&fail)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("events ") {
                events.push(parse_events(rest).map_err(&fail)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("refevents ") {
                ref_events.push(parse_events(rest).map_err(&fail)?);
                continue;
            }
            if let Some(rest) = line.strip_prefix("failed ") {
                let (idx, spec) = rest
                    .split_once(' ')
                    .ok_or_else(|| fail("malformed failed line".to_string()))?;
                let t: usize = idx
                    .parse()
                    .map_err(|e| fail(format!("bad task index: {e}")))?;
                failures.push((t, decode_failure(spec).map_err(&fail)?));
                continue;
            }
            let (idx, rest) = line
                .split_once(' ')
                .ok_or_else(|| fail("malformed entry line".to_string()))?;
            let t: usize = idx
                .parse()
                .map_err(|e| fail(format!("bad task index: {e}")))?;
            entries.push((t, decode_outcome(rest).map_err(&fail)?));
        }
        if entries.len() != entries_len {
            return Err(herr(format!(
                "payload advertises {entries_len} entries but carries {}",
                entries.len()
            )));
        }
        Ok(ShardResult {
            shard,
            of,
            plan_fingerprint,
            task_count,
            entries,
            failures,
            timings,
            ref_timings,
            events,
            ref_events,
        })
    }
}

/// Split a text stream into individual shard payloads (a file may carry
/// several, e.g. one per experiment); `#`-prefixed lines are comments.
/// Decode errors report line numbers relative to the original stream.
pub fn decode_payloads(text: &str) -> Result<Vec<ShardResult>, DecodeError> {
    let mut payloads = Vec::new();
    let mut current: Vec<(usize, &str)> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.starts_with('#') || line.trim().is_empty() {
            continue;
        }
        if line.starts_with("xsched-shard ") && !current.is_empty() {
            payloads.push(ShardResult::decode_lines(&current)?);
            current.clear();
        }
        current.push((i + 1, line));
    }
    if !current.is_empty() {
        payloads.push(ShardResult::decode_lines(&current)?);
    }
    Ok(payloads)
}

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
                "C {} {} {} {} {} {} {} {}",
                c.final_mpl,
                c.iterations,
                c.jumpstart_mpl,
                fh(c.reference_tput),
                fh(c.reference_rt),
                u8::from(c.converged),
                c.discarded_windows,
                trace,
            )
        }
        ScenarioOutcome::Chaos(c) => format!(
            "X {} {} {} {} {} {} {} {} {}",
            c.final_mpl,
            c.peak_mpl,
            c.overshoot,
            c.reaction_windows,
            c.post_onset_windows,
            u8::from(c.converged),
            c.iterations,
            c.discarded_windows,
            fh(c.reference_tput),
        ),
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
                trace,
            }))
        }
        "X" => Ok(ScenarioOutcome::Chaos(ChaosOutcome {
            final_mpl: t.int()?,
            peak_mpl: t.int()?,
            overshoot: t.int()?,
            reaction_windows: t.int()?,
            post_onset_windows: t.int()?,
            converged: t.bool()?,
            iterations: t.int()?,
            discarded_windows: t.int()?,
            reference_tput: t.f64()?,
        })),
        other => Err(format!("unknown outcome kind `{other}`")),
    }
}

/// Encode a [`TaskError`] as wire tokens: `<kind> <detail>`. Panic
/// messages are percent-escaped into a single token so arbitrary text
/// (spaces, newlines, non-ASCII) survives the line-based format; timeout
/// deadlines travel as IEEE bits like every other float.
pub fn encode_failure(e: &TaskError) -> String {
    match e {
        TaskError::Panic(msg) => format!("panic {}", esc(msg)),
        TaskError::Timeout(limit) => format!("timeout {}", fh(*limit)),
    }
}

/// Decode the tokens produced by [`encode_failure`].
pub fn decode_failure(s: &str) -> Result<TaskError, String> {
    let mut t = Tokens(s.split_whitespace());
    let kind = t.next()?.to_string();
    let detail = t.next()?.to_string();
    match kind.as_str() {
        "panic" => Ok(TaskError::Panic(unesc(&detail)?)),
        "timeout" => u64::from_str_radix(&detail, 16)
            .map(|bits| TaskError::Timeout(f64::from_bits(bits)))
            .map_err(|e| format!("bad timeout bits `{detail}`: {e}")),
        other => Err(format!("unknown failure kind `{other}`")),
    }
}

/// Percent-escape arbitrary text into one whitespace-free token. The
/// empty string encodes as a lone `%` (never produced otherwise, since a
/// real escape is always `%` + two hex digits).
fn esc(s: &str) -> String {
    if s.is_empty() {
        return "%".to_string();
    }
    let mut out = String::with_capacity(s.len());
    for b in s.bytes() {
        if b.is_ascii_alphanumeric() || matches!(b, b'.' | b'_' | b'-' | b':' | b'/') {
            out.push(b as char);
        } else {
            out.push_str(&format!("%{b:02x}"));
        }
    }
    out
}

/// Invert [`esc`].
fn unesc(s: &str) -> Result<String, String> {
    if s == "%" {
        return Ok(String::new());
    }
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = s
                .get(i + 1..i + 3)
                .ok_or_else(|| format!("truncated escape in `{s}`"))?;
            out.push(u8::from_str_radix(hex, 16).map_err(|e| format!("bad escape `%{hex}`: {e}"))?);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|e| format!("escaped text is not UTF-8: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::driver::RunConfig;
    use crate::scenario::Scenario;
    use crate::sweep::SweepExecutor;
    use xsched_workload::setup;

    fn tiny_plan() -> SweepPlan {
        let rc = RunConfig {
            warmup_txns: 20,
            measured_txns: 120,
            ..Default::default()
        };
        let scenarios = [1u32, 4, 9]
            .iter()
            .map(|&m| Scenario::tput("s1", setup(1), m, rc.clone()))
            .collect();
        SweepPlan::new(scenarios).replicated(2, 42)
    }

    fn outcome_bits(results: &[ScenarioResult]) -> Vec<String> {
        results
            .iter()
            .flat_map(|r| r.outcomes.iter().map(encode_outcome))
            .collect()
    }

    #[test]
    fn sharded_run_merges_bit_identical_to_unsharded() {
        let plan = tiny_plan();
        let direct = SweepExecutor::parallel(3).run(&plan);
        for n in [1usize, 2, 3, 4] {
            let shards: Vec<ShardResult> = (0..n)
                .map(|i| SweepExecutor::serial().run_shard(&plan, i, n))
                .collect();
            let merged = ShardResult::merge(&plan, &shards).unwrap();
            assert_eq!(outcome_bits(&direct), outcome_bits(&merged), "n={n}");
        }
    }

    #[test]
    fn encode_decode_round_trips_payloads() {
        let plan = tiny_plan();
        let mut shard = SweepExecutor::serial().run_shard(&plan, 1, 2);
        // Saturated cells never pay for a reference run, so inject a
        // reference timing (and its event-currency twin) to exercise the
        // sparse `reftiming`/`refevents` sections.
        shard.ref_timings.push((3, 0.125));
        shard.ref_events.push((3, 777));
        let decoded = ShardResult::decode(&shard.encode()).unwrap();
        assert_eq!(decoded.shard, 1);
        assert_eq!(decoded.of, 2);
        assert_eq!(decoded.plan_fingerprint, plan.fingerprint());
        assert_eq!(decoded.task_count, plan.task_count());
        assert_eq!(decoded.entries.len(), shard.entries.len());
        for ((ta, a), (tb, b)) in shard.entries.iter().zip(&decoded.entries) {
            assert_eq!(ta, tb);
            assert_eq!(encode_outcome(a), encode_outcome(b));
        }
        // The timing telemetry rides along bit-exactly, one line per
        // executed task.
        assert_eq!(decoded.timings.len(), shard.entries.len());
        for ((ta, a), (tb, b)) in shard.timings.iter().zip(&decoded.timings) {
            assert_eq!(ta, tb);
            assert_eq!(a.to_bits(), b.to_bits());
        }
        assert_eq!(decoded.ref_timings, vec![(3, 0.125)]);
        // The deterministic event counts ride along exactly, one per
        // executed task, plus the injected sparse reference entry.
        assert_eq!(decoded.events, shard.events);
        assert_eq!(decoded.events.len(), shard.entries.len());
        assert!(decoded.events.iter().all(|&(_, n)| n > 0));
        assert_eq!(decoded.ref_events, vec![(3, 777)]);
    }

    #[test]
    fn chaos_outcome_round_trips_through_the_codec() {
        let out = ScenarioOutcome::Chaos(ChaosOutcome {
            final_mpl: 7,
            peak_mpl: 19,
            overshoot: 12,
            reaction_windows: 23,
            post_onset_windows: 31,
            converged: true,
            iterations: 45,
            discarded_windows: 6,
            reference_tput: 1234.5678,
        });
        let line = encode_outcome(&out);
        assert!(line.starts_with("X "), "{line}");
        let back = decode_outcome(&line).unwrap();
        assert_eq!(encode_outcome(&back), line);
        let chaos = back.as_chaos().expect("chaos outcome");
        assert_eq!(chaos.peak_mpl, 19);
        assert_eq!(chaos.reference_tput.to_bits(), 1234.5678f64.to_bits());
    }

    #[test]
    fn payloads_without_timings_still_decode() {
        let plan = tiny_plan();
        let shard = SweepExecutor::serial().run_shard(&plan, 0, 2);
        let stripped: String = shard
            .encode()
            .lines()
            .filter(|l| !l.starts_with("timing "))
            .map(|l| format!("{l}\n"))
            .collect();
        let decoded = ShardResult::decode(&stripped).unwrap();
        assert_eq!(decoded.entries.len(), shard.entries.len());
        assert!(decoded.timings.is_empty());
        // And the timing section never affects the merge.
        let other = SweepExecutor::serial().run_shard(&plan, 1, 2);
        let merged = ShardResult::merge(&plan, [&decoded, &other]).unwrap();
        assert_eq!(merged.len(), plan.scenarios.len());
    }

    #[test]
    fn merge_rejects_bad_partitions() {
        let plan = tiny_plan();
        let s0 = SweepExecutor::serial().run_shard(&plan, 0, 2);
        let s1 = SweepExecutor::serial().run_shard(&plan, 1, 2);
        // Missing shard → incomplete partition.
        let err = ShardResult::merge(&plan, [&s0]).unwrap_err();
        assert!(err.contains("incomplete"), "{err}");
        // Duplicate shard → overlap.
        let err = ShardResult::merge(&plan, [&s0, &s0, &s1]).unwrap_err();
        assert!(err.contains("more than one shard"), "{err}");
        // Different plan → fingerprint mismatch.
        let other = SweepPlan::new(plan.scenarios.clone()).replicated(2, 99);
        let err = ShardResult::merge(&other, [&s0, &s1]).unwrap_err();
        assert!(err.contains("different plan"), "{err}");
        // The right partition still works after all that.
        assert_eq!(
            ShardResult::merge(&plan, [&s1, &s0]).unwrap().len(),
            plan.scenarios.len()
        );
    }

    #[test]
    fn decode_payloads_splits_concatenated_streams() {
        let plan = tiny_plan();
        let s0 = SweepExecutor::serial().run_shard(&plan, 0, 2);
        let s1 = SweepExecutor::serial().run_shard(&plan, 1, 2);
        let stream = format!(
            "# experiment demo\n{}\n# next\n{}",
            s0.encode(),
            s1.encode()
        );
        let decoded = decode_payloads(&stream).unwrap();
        assert_eq!(decoded.len(), 2);
        let merged = ShardResult::merge(&plan, &decoded).unwrap();
        let direct = SweepExecutor::serial().run(&plan);
        assert_eq!(outcome_bits(&direct), outcome_bits(&merged));
    }

    #[test]
    fn failures_round_trip_through_the_codec() {
        let cases = [
            TaskError::Panic("index out of bounds: the len is 3".to_string()),
            TaskError::Panic(String::new()),
            TaskError::Panic("smörgåsbord\n% weird %%".to_string()),
            TaskError::Timeout(1.5),
        ];
        for f in &cases {
            let spec = encode_failure(f);
            assert!(
                spec.split_whitespace().count() == 2,
                "failure must encode as exactly two tokens: `{spec}`"
            );
            assert_eq!(&decode_failure(&spec).unwrap(), f, "{spec}");
        }
    }

    #[test]
    fn shard_with_failures_round_trips_and_merges() {
        let plan = tiny_plan();
        let mut s0 = SweepExecutor::serial().run_shard(&plan, 0, 2);
        let mut s1 = SweepExecutor::serial().run_shard(&plan, 1, 2);
        // Move one of s1's tasks into the failed set, as a keep-going
        // run with a panicking cell would report it.
        let (t, _) = s1.entries.pop().unwrap();
        s1.failures
            .push((t, TaskError::Panic("boom at task".to_string())));
        let decoded = ShardResult::decode(&s1.encode()).unwrap();
        assert_eq!(decoded.failures, s1.failures);
        assert_eq!(decoded.entries.len(), s1.entries.len());
        // A failed task covers its index: the merge accepts the
        // partition and surfaces the failure on the right cell.
        let merged = ShardResult::merge(&plan, [&s0, &decoded]).unwrap();
        let failed: Vec<&TaskError> = merged.iter().flat_map(|r| r.failures.iter()).collect();
        assert_eq!(failed, [&TaskError::Panic("boom at task".to_string())]);
        // But a task reported as BOTH an outcome and a failure is a
        // duplicate, same as appearing in two shards.
        s0.failures.push((s0.entries[0].0, TaskError::Timeout(0.5)));
        let err = ShardResult::merge(&plan, [&s0, &s1]).unwrap_err();
        assert!(err.contains("more than one shard"), "{err}");
    }

    #[test]
    fn decode_errors_carry_line_numbers_and_context() {
        let plan = tiny_plan();
        let shard = SweepExecutor::serial().run_shard(&plan, 0, 1);
        let good = shard.encode();

        // Corrupt one entry line: the error names that exact line.
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
        lines[2] = "4 R not-hex-bits".to_string();
        let err = ShardResult::decode(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, 3);
        assert!(err.context.starts_with("4 R not-hex"), "{err}");
        assert!(err.to_string().contains("line 3"), "{err}");

        // A failure line in the old `<attempts> <kind> <detail>` format
        // is a typed error on its line, not a panic.
        let mut lines: Vec<String> = good.lines().map(str::to_string).collect();
        lines.insert(2, "failed 0 2 panic boom".to_string());
        let err = ShardResult::decode(&lines.join("\n")).unwrap_err();
        assert_eq!(err.line, 3);
        assert_eq!(err.context, "failed 0 2 panic boom");
        assert!(err.msg.contains("unknown failure kind `2`"), "{err}");

        // Header errors point at line 1.
        let err = ShardResult::decode("xsched-shard v1 plan=zzzz tasks=1 shard=0 of=1 entries=0")
            .unwrap_err();
        assert_eq!(err.line, 1);

        // Empty payloads have no line to blame.
        let err = ShardResult::decode("").unwrap_err();
        assert_eq!(err.line, 0);
        assert_eq!(err.to_string(), "empty shard payload");

        // In a multi-payload stream with comments and blanks, the line
        // number is absolute within the original stream.
        let s1 = SweepExecutor::serial().run_shard(&plan, 1, 2).encode();
        let mut s0 = SweepExecutor::serial().run_shard(&plan, 0, 2).encode();
        s0.push_str("garbage-entry-line\n");
        let stream = format!("# comment\n\n{s1}\n# between\n{s0}");
        let err = decode_payloads(&stream).unwrap_err();
        let expected_line = stream
            .lines()
            .position(|l| l == "garbage-entry-line")
            .unwrap()
            + 1;
        assert_eq!(err.line, expected_line, "{err}");
        assert_eq!(err.context, "garbage-entry-line");
    }

    #[test]
    fn special_floats_round_trip_exactly() {
        // Short runs leave rt_bm_half_width infinite and some Welford
        // fields NaN; the codec must carry them bit for bit.
        let mut r = match tiny_plan().scenarios[0].run(1) {
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
