//! Argument parsing for the `figures` binary.
//!
//! A small hand-rolled parser (the build environment has no crates.io
//! access, so `clap` cannot be vendored) covering exactly the surface the
//! binary needs: `--quick`, `--seeds`, `--replications`, `--threads`,
//! `--shard`, `--merge`, `--metrics`, `--progress`, `--subruns`,
//! `--keep-going`, `--task-timeout`, `--checkpoint`, `--resume`,
//! `--serve`, `--worker`, `--lease`, `--list`, `--help`, and positional
//! experiment names. Parsing is pure
//! and errors are **typed** ([`ArgError`]) so the binary can render a
//! clean one-liner and the unit tests can assert on the exact failure,
//! not a string.

use std::fmt;

/// A user-input problem with the argument vector. Every variant renders a
/// one-line message through `Display`; the binary prints it with usage and
/// exits 2.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ArgError {
    /// A flag that needs a value was last on the line.
    MissingValue(String),
    /// A value failed to parse; `want` says what shape was expected.
    InvalidValue {
        /// The flag the value belonged to.
        flag: String,
        /// The offending value as typed.
        value: String,
        /// Human description of the expected shape.
        want: &'static str,
    },
    /// `--shard i/n` with `i` or `n` outside `1 ≤ i ≤ n` — rejected here
    /// with a typed error instead of whatever a downstream assert would
    /// have produced.
    ShardOutOfRange {
        /// 1-based shard index as given.
        index: usize,
        /// Total shard count as given.
        of: usize,
    },
    /// An option the parser does not know.
    UnknownOption(String),
    /// Two flags that cannot be combined.
    Conflict(&'static str),
}

impl fmt::Display for ArgError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ArgError::MissingValue(flag) => write!(f, "{flag} needs a value"),
            ArgError::InvalidValue { flag, value, want } => {
                write!(f, "invalid value `{value}` for {flag} (want {want})")
            }
            ArgError::ShardOutOfRange { index, of } => write!(
                f,
                "shard index out of range in `{index}/{of}` (want 1 ≤ i ≤ n, n ≥ 1)"
            ),
            ArgError::UnknownOption(opt) => write!(f, "unknown option `{opt}` (see --help)"),
            ArgError::Conflict(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line for the `figures` binary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FiguresArgs {
    /// Experiment names to run (empty = caller's default set).
    pub experiments: Vec<String>,
    /// Shorter runs for smoke-testing.
    pub quick: bool,
    /// Replication seeds (empty = each figure's configured seed).
    pub seeds: Vec<u64>,
    /// Worker threads; `0` = one per core.
    pub threads: usize,
    /// Run only shard `i` of `n` of every sweep (1-based `i`), printing
    /// encoded shard payloads instead of tables.
    pub shard: Option<(usize, usize)>,
    /// Write the full observability snapshot (metrics registry, timings,
    /// controller telemetry series) to this JSON file after the run.
    pub metrics_out: Option<String>,
    /// Print a per-task progress ticker to stderr while sweeps run.
    pub progress: bool,
    /// Split each splittable cell's measurement into this many
    /// independently-seeded sub-runs combined by batch means (`0` or `1`
    /// = off, the golden-pinned default). Changes result values (they
    /// become replication means), so every shard of one sweep — and its
    /// merge — must use the same value.
    pub subruns: u32,
    /// Degrade failed sweep tasks to marked `FAILED` cells and keep
    /// sweeping instead of aborting on the first failure.
    pub keep_going: bool,
    /// Per-task watchdog deadline in seconds; a task running past it is
    /// abandoned and scored a timeout.
    pub task_timeout: Option<f64>,
    /// Checkpoint journal path: every completed task outcome is appended
    /// (fsync'd) so a killed run can `--resume`.
    pub checkpoint: Option<String>,
    /// Resume from the `--checkpoint` journal, skipping journaled tasks.
    pub resume: bool,
    /// Shard payload files to merge instead of simulating.
    pub merge: Vec<String>,
    /// Serve every sweep as a task-queue coordinator on this TCP address
    /// (`host:port`): workers claim task leases, this process records
    /// their outcomes and prints the merged tables.
    pub serve: Option<String>,
    /// Run as a worker client of the coordinator at this TCP address:
    /// claim task leases, execute, stream outcomes back. Prints no
    /// tables (the coordinator does).
    pub worker: Option<String>,
    /// Coordinator lease duration in seconds (`None` = the default 10):
    /// a worker that neither records nor heartbeats within the window
    /// loses the task to reassignment.
    pub lease: Option<f64>,
    /// Print the experiment list and exit.
    pub list: bool,
    /// Print usage and exit.
    pub help: bool,
}

/// Usage text for `--help`.
pub const USAGE: &str = "\
figures — regenerate the paper's tables and figures

USAGE:
    figures [OPTIONS] [EXPERIMENT]...

ARGS:
    [EXPERIMENT]...      experiment names (`all` or empty = everything);
                         use --list to enumerate

OPTIONS:
    -q, --quick              shorter runs (smoke-test scale)
    -s, --seeds LIST         comma-separated replication seeds
                             [default: each figure's configured seed (42)]
    -r, --replications N     run N replications seeded base, base+1, ...
                             (base = first --seeds value, or 42); tables
                             then print mean ±95% CI half-width per cell
    -t, --threads N          worker threads, 0 = one per core [default: 0]
        --shard I/N          run only the I-th of N task slices (I is
                             1-based) and print encoded shard payloads to
                             stdout instead of tables; redirect each
                             shard's stdout to a file
        --metrics FILE       after the run, write the full observability
                             snapshot as JSON: metrics registry (worker/
                             shard progress, cache hits/misses, task-time
                             histogram), per-cell wall-clock and event
                             timings, and every controller session's MPL/
                             queue/latency time series
        --progress           print a per-task completion ticker to stderr
                             while sweeps run (stdout stays table-only)
        --subruns K          split each fixed-MPL cell's measurement into
                             K independently-seeded sub-runs executed in
                             parallel and combined by batch means —
                             intra-cell parallelism for long cells. Cell
                             values become K-replication means, so tables
                             differ from an unsplit run (CIs shrink);
                             every shard of one sweep and its merge must
                             use the same K [default: off]
        --keep-going         degrade failed sweep tasks (panics, watchdog
                             timeouts) to marked FAILED cells and keep
                             sweeping; failed cells render as FAILED in
                             the tables and carry typed failure records
                             through shard payloads and merges;
                             without it the first failed task aborts the
                             run
        --task-timeout SECS  per-task watchdog deadline: a task still
                             running after SECS wall-clock seconds is
                             abandoned and scored a timeout (a FAILED
                             cell under --keep-going, else an abort)
        --checkpoint FILE    append every completed task outcome to FILE
                             (fsync'd per task, kill-safe) so an
                             interrupted run can --resume; without
                             --resume the file is truncated first
        --resume             skip tasks already recorded in --checkpoint
                             (requires it); the finished tables are
                             byte-identical to an uninterrupted run.
                             Journaled failures replay as failures —
                             delete the journal to re-run them
        --merge FILES        comma-separated shard payload files; merge
                             them (running no sweep tasks) and print the
                             tables, byte-identical to an unsharded run
                             under the same flags; repeatable. Reports
                             that resolve MPLs while building their plan
                             (fig11-13, ablation_policy) repeat that
                             deterministic search locally
        --serve ADDR         coordinate every sweep over TCP at ADDR
                             (host:port): hand out task leases to
                             --worker clients, record their outcomes
                             (checkpointed under --checkpoint, resumable
                             with --resume), and print merged tables
                             byte-identical to a direct run. Dead
                             workers are detected by lease expiry and
                             their tasks reassigned
        --worker ADDR        run as a worker of the coordinator at ADDR:
                             claim task leases, execute, heartbeat,
                             stream outcomes back; reconnect with
                             deterministic backoff on transport faults.
                             Prints no tables. If the coordinator is
                             unreachable from the start, degrades to a
                             plain local run. Must be launched with the
                             same experiment flags as the coordinator
        --lease SECS         coordinator lease duration [default: 10]:
                             a worker silent for SECS loses its task to
                             reassignment (requires --serve)
    -l, --list               list experiment names and exit
    -h, --help               print this help and exit

Sharded sweeps: run each `--shard i/N` (same flags otherwise) on any
mix of processes or hosts, collect the outputs, then `--merge` them:

    figures --quick --shard 1/2 fig3 > s1.txt
    figures --quick --shard 2/2 fig3 > s2.txt
    figures --quick --merge s1.txt,s2.txt fig3

Coordinated sweeps (work-stealing across hosts; kill a worker mid-run
and its leased tasks are reassigned — the tables do not change a byte):

    figures --quick --serve 0.0.0.0:7070 fig3        # prints the tables
    figures --quick --worker hostA:7070 fig3         # any number of these
";

fn parse_shard(v: &str) -> Result<(usize, usize), ArgError> {
    let invalid = || ArgError::InvalidValue {
        flag: "--shard".into(),
        value: v.to_string(),
        want: "I/N, e.g. `2/8` (1-based)",
    };
    let (i, n) = v.split_once('/').ok_or_else(invalid)?;
    let i: usize = i.trim().parse().map_err(|_| invalid())?;
    let n: usize = n.trim().parse().map_err(|_| invalid())?;
    if i == 0 || n == 0 || i > n {
        return Err(ArgError::ShardOutOfRange { index: i, of: n });
    }
    Ok((i, n))
}

fn parse_u64_list(flag: &str, v: &str) -> Result<Vec<u64>, ArgError> {
    let seeds: Result<Vec<u64>, _> = v.split(',').map(|s| s.trim().parse::<u64>()).collect();
    match seeds {
        Ok(s) if !s.is_empty() => Ok(s),
        _ => Err(ArgError::InvalidValue {
            flag: flag.to_string(),
            value: v.to_string(),
            want: "a comma-separated seed list, e.g. `42,43,44`",
        }),
    }
}

/// Parse the argument vector (without the program name).
pub fn parse_args<S: AsRef<str>>(args: &[S]) -> Result<FiguresArgs, ArgError> {
    let mut out = FiguresArgs::default();
    let mut replications: Option<usize> = None;
    let mut subruns: Option<u32> = None;
    let mut it = args.iter().map(AsRef::as_ref);
    while let Some(arg) = it.next() {
        let mut value_for = |flag: &str| {
            it.next()
                .map(str::to_string)
                .ok_or_else(|| ArgError::MissingValue(flag.to_string()))
        };
        match arg {
            "-q" | "--quick" => out.quick = true,
            "-l" | "--list" => out.list = true,
            "-h" | "--help" => out.help = true,
            "-s" | "--seeds" => out.seeds = parse_u64_list(arg, &value_for(arg)?)?,
            "-r" | "--replications" => {
                let v = value_for(arg)?;
                let n: usize = v.parse().map_err(|_| ArgError::InvalidValue {
                    flag: arg.to_string(),
                    value: v.clone(),
                    want: "a replication count ≥ 1",
                })?;
                if n == 0 {
                    return Err(ArgError::InvalidValue {
                        flag: arg.to_string(),
                        value: v,
                        want: "a replication count ≥ 1",
                    });
                }
                replications = Some(n);
            }
            "-t" | "--threads" => {
                let v = value_for(arg)?;
                out.threads = v.parse().map_err(|_| ArgError::InvalidValue {
                    flag: arg.to_string(),
                    value: v,
                    want: "a thread count (0 = one per core)",
                })?;
            }
            "--shard" => out.shard = Some(parse_shard(&value_for(arg)?)?),
            "--metrics" => out.metrics_out = Some(value_for(arg)?),
            "--progress" => out.progress = true,
            "--subruns" => {
                let v = value_for(arg)?;
                let n: u32 = v.parse().map_err(|_| ArgError::InvalidValue {
                    flag: arg.to_string(),
                    value: v.clone(),
                    want: "a sub-run count ≥ 2",
                })?;
                if n < 2 {
                    return Err(ArgError::InvalidValue {
                        flag: arg.to_string(),
                        value: v,
                        want: "a sub-run count ≥ 2",
                    });
                }
                subruns = Some(n);
            }
            "--keep-going" => out.keep_going = true,
            "--task-timeout" => {
                let v = value_for(arg)?;
                let secs: f64 = v.parse().unwrap_or(f64::NAN);
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(ArgError::InvalidValue {
                        flag: arg.to_string(),
                        value: v,
                        want: "a positive deadline in seconds",
                    });
                }
                out.task_timeout = Some(secs);
            }
            "--checkpoint" => out.checkpoint = Some(value_for(arg)?),
            "--resume" => out.resume = true,
            "--merge" => out
                .merge
                .extend(value_for(arg)?.split(',').map(|p| p.trim().to_string())),
            "--serve" => out.serve = Some(value_for(arg)?),
            "--worker" => out.worker = Some(value_for(arg)?),
            "--lease" => {
                let v = value_for(arg)?;
                let secs: f64 = v.parse().unwrap_or(f64::NAN);
                if !(secs > 0.0 && secs.is_finite()) {
                    return Err(ArgError::InvalidValue {
                        flag: arg.to_string(),
                        value: v,
                        want: "a positive lease duration in seconds",
                    });
                }
                out.lease = Some(secs);
            }
            other if other.starts_with('-') => {
                return Err(ArgError::UnknownOption(other.to_string()));
            }
            name => out.experiments.push(name.to_string()),
        }
    }
    if let Some(n) = replications {
        let base = out.seeds.first().copied().unwrap_or(42);
        out.seeds = (0..n as u64).map(|i| base.wrapping_add(i)).collect();
    }
    if out.shard.is_some() && !out.merge.is_empty() {
        return Err(ArgError::Conflict(
            "--shard and --merge are mutually exclusive",
        ));
    }
    if out.resume && out.checkpoint.is_none() {
        return Err(ArgError::Conflict(
            "--resume requires --checkpoint (the journal to resume from)",
        ));
    }
    if out.serve.is_some() && out.worker.is_some() {
        return Err(ArgError::Conflict(
            "--serve and --worker are mutually exclusive (one process is one side)",
        ));
    }
    if (out.serve.is_some() || out.worker.is_some()) && out.shard.is_some() {
        return Err(ArgError::Conflict(
            "--serve/--worker and --shard are mutually exclusive (the coordinator replaces static sharding)",
        ));
    }
    if (out.serve.is_some() || out.worker.is_some()) && !out.merge.is_empty() {
        return Err(ArgError::Conflict(
            "--serve/--worker and --merge are mutually exclusive",
        ));
    }
    if out.lease.is_some() && out.serve.is_none() {
        return Err(ArgError::Conflict(
            "--lease requires --serve (the coordinator owns the leases)",
        ));
    }
    if out.worker.is_some() && out.checkpoint.is_some() {
        return Err(ArgError::Conflict(
            "--checkpoint/--resume run on the coordinator, not with --worker",
        ));
    }
    out.subruns = subruns.unwrap_or(0);
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults() {
        let a = parse_args::<&str>(&[]).unwrap();
        assert_eq!(a, FiguresArgs::default());
    }

    #[test]
    fn flags_and_positionals() {
        let a = parse_args(&["--quick", "fig2", "fig7", "--threads", "3"]).unwrap();
        assert!(a.quick);
        assert_eq!(a.threads, 3);
        assert_eq!(a.experiments, ["fig2", "fig7"]);
    }

    #[test]
    fn explicit_seed_list() {
        let a = parse_args(&["--seeds", "7,8,9"]).unwrap();
        assert_eq!(a.seeds, [7, 8, 9]);
    }

    #[test]
    fn replications_expand_from_base_seed() {
        let a = parse_args(&["--seeds", "100", "--replications", "4"]).unwrap();
        assert_eq!(a.seeds, [100, 101, 102, 103]);
        // Order independence: -r before -s expands the same way.
        let b = parse_args(&["-r", "4", "-s", "100"]).unwrap();
        assert_eq!(b.seeds, a.seeds);
        // No --seeds: replications expand from the default base 42.
        let c = parse_args(&["-r", "3"]).unwrap();
        assert_eq!(c.seeds, [42, 43, 44]);
    }

    #[test]
    fn errors_are_typed() {
        assert_eq!(
            parse_args(&["--seeds"]).unwrap_err(),
            ArgError::MissingValue("--seeds".into())
        );
        assert!(matches!(
            parse_args(&["--seeds", "x"]).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
        assert!(matches!(
            parse_args(&["--replications", "0"]).unwrap_err(),
            ArgError::InvalidValue { .. }
        ));
        assert_eq!(
            parse_args(&["--bogus"]).unwrap_err(),
            ArgError::UnknownOption("--bogus".into())
        );
        // Every variant renders a one-line message.
        for args in [
            vec!["--seeds"],
            vec!["--seeds", "x"],
            vec!["--bogus"],
            vec!["--shard", "0/4"],
            vec!["--shard", "1/2", "--merge", "a"],
        ] {
            let msg = parse_args(&args).unwrap_err().to_string();
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg}");
        }
    }

    #[test]
    fn shard_spec_parses_one_based() {
        let a = parse_args(&["--shard", "2/8", "fig3"]).unwrap();
        assert_eq!(a.shard, Some((2, 8)));
        assert_eq!(parse_args(&["--shard", "8/8"]).unwrap().shard, Some((8, 8)));
    }

    /// The satellite contract: out-of-range shard indices (i = 0, i > n,
    /// n = 0) are rejected *here*, with a typed error carrying the
    /// offending values, never reaching the executor's asserts.
    #[test]
    fn shard_out_of_range_is_a_typed_error() {
        assert_eq!(
            parse_args(&["--shard", "0/8"]).unwrap_err(),
            ArgError::ShardOutOfRange { index: 0, of: 8 }
        );
        assert_eq!(
            parse_args(&["--shard", "9/8"]).unwrap_err(),
            ArgError::ShardOutOfRange { index: 9, of: 8 }
        );
        assert_eq!(
            parse_args(&["--shard", "1/0"]).unwrap_err(),
            ArgError::ShardOutOfRange { index: 1, of: 0 }
        );
        for malformed in ["2", "a/b", "", "1/2/3", "-1/2"] {
            assert!(
                matches!(
                    parse_args(&["--shard", malformed]).unwrap_err(),
                    ArgError::InvalidValue { .. }
                ),
                "`{malformed}`"
            );
        }
    }

    /// Shard balancing, cost calibration, timing dumps, explicit
    /// defaults, task retries and fault injection are not options: each
    /// is a typed unknown-option error.
    #[test]
    fn removed_flags_are_unknown_options() {
        for args in [
            vec!["--balance", "cost"],
            vec!["--calibrate", "x"],
            vec!["--timings", "x"],
            vec!["--no-subruns"],
            vec!["--fail-fast"],
            vec!["--retry", "2"],
            vec!["--inject-panics", "0.3"],
            vec!["--inject-stalls", "0.1"],
            vec!["--wire-faults", "1234"],
        ] {
            assert_eq!(
                parse_args(&args).unwrap_err(),
                ArgError::UnknownOption(args[0].into()),
                "{args:?}"
            );
        }
    }

    #[test]
    fn metrics_and_progress_parse() {
        let a = parse_args(&["--metrics", "m.json", "--progress", "fig2"]).unwrap();
        assert_eq!(a.metrics_out.as_deref(), Some("m.json"));
        assert!(a.progress);
        assert_eq!(a.experiments, ["fig2"]);
        let b = parse_args::<&str>(&[]).unwrap();
        assert_eq!(b.metrics_out, None);
        assert!(!b.progress);
        assert_eq!(
            parse_args(&["--metrics"]).unwrap_err(),
            ArgError::MissingValue("--metrics".into())
        );
    }

    #[test]
    fn subruns_parse() {
        // Off by default.
        assert_eq!(parse_args::<&str>(&[]).unwrap().subruns, 0);
        assert_eq!(parse_args(&["--subruns", "4"]).unwrap().subruns, 4);
        for bad in ["0", "1", "x", "-2"] {
            assert!(
                matches!(
                    parse_args(&["--subruns", bad]).unwrap_err(),
                    ArgError::InvalidValue { .. }
                ),
                "`{bad}`"
            );
        }
    }

    #[test]
    fn merge_files_accumulate_across_flags_and_commas() {
        let a = parse_args(&["--merge", "a.txt,b.txt", "--merge", "c.txt"]).unwrap();
        assert_eq!(a.merge, ["a.txt", "b.txt", "c.txt"]);
    }

    #[test]
    fn shard_and_merge_are_mutually_exclusive() {
        assert_eq!(
            parse_args(&["--shard", "1/2", "--merge", "a.txt"]).unwrap_err(),
            ArgError::Conflict("--shard and --merge are mutually exclusive")
        );
    }

    #[test]
    fn fault_tolerance_flags_parse() {
        let a = parse_args(&["--keep-going", "--task-timeout", "1.5", "fig2"]).unwrap();
        assert!(a.keep_going);
        assert_eq!(a.task_timeout, Some(1.5));
        // Defaults: everything off.
        let d = parse_args::<&str>(&[]).unwrap();
        assert!(!d.keep_going && !d.resume);
        assert_eq!((d.task_timeout, d.checkpoint), (None, None));
        // Bad values are typed.
        for bad in [
            vec!["--task-timeout", "0"],
            vec!["--task-timeout", "-1"],
            vec!["--task-timeout", "nope"],
        ] {
            assert!(
                matches!(parse_args(&bad).unwrap_err(), ArgError::InvalidValue { .. }),
                "{bad:?}"
            );
        }
    }

    /// `--resume` without `--checkpoint` is a typed conflict.
    #[test]
    fn fault_tolerance_conflicts_are_typed() {
        assert_eq!(
            parse_args(&["--resume"]).unwrap_err(),
            ArgError::Conflict("--resume requires --checkpoint (the journal to resume from)")
        );
        // With the journal named, --resume is fine.
        let a = parse_args(&["--checkpoint", "j.log", "--resume"]).unwrap();
        assert_eq!(a.checkpoint.as_deref(), Some("j.log"));
        assert!(a.resume);
    }

    #[test]
    fn short_flags() {
        let a = parse_args(&["-q", "-l", "-h", "-t", "2"]).unwrap();
        assert!(a.quick && a.list && a.help);
        assert_eq!(a.threads, 2);
    }

    #[test]
    fn coordinator_flags_parse() {
        let a = parse_args(&["--serve", "0.0.0.0:7070", "--lease", "2.5", "fig3"]).unwrap();
        assert_eq!(a.serve.as_deref(), Some("0.0.0.0:7070"));
        assert_eq!(a.lease, Some(2.5));
        let b = parse_args(&["--worker", "host:7070"]).unwrap();
        assert_eq!(b.worker.as_deref(), Some("host:7070"));
        // Defaults: neither role, lease unset (the binary applies 10 s).
        let d = parse_args::<&str>(&[]).unwrap();
        assert_eq!((d.serve, d.worker, d.lease), (None, None, None));
        // Bad values are typed.
        for bad in [
            vec!["--lease", "0"],
            vec!["--lease", "-1"],
            vec!["--lease", "x"],
        ] {
            assert!(
                matches!(parse_args(&bad).unwrap_err(), ArgError::InvalidValue { .. }),
                "{bad:?}"
            );
        }
        assert_eq!(
            parse_args(&["--serve"]).unwrap_err(),
            ArgError::MissingValue("--serve".into())
        );
    }

    /// The coordinated-mode contract: role, sharding, and journal flags
    /// that cannot be combined are typed conflicts, and dependent flags
    /// name their prerequisite.
    #[test]
    fn coordinator_conflicts_are_typed() {
        for (args, needle) in [
            (
                vec!["--serve", "a:1", "--worker", "b:1"],
                "--serve and --worker",
            ),
            (vec!["--serve", "a:1", "--shard", "1/2"], "--shard"),
            (vec!["--worker", "a:1", "--shard", "1/2"], "--shard"),
            (vec!["--serve", "a:1", "--merge", "s.txt"], "--merge"),
            (vec!["--lease", "5"], "--lease requires --serve"),
            (
                vec!["--worker", "a:1", "--lease", "5"],
                "--lease requires --serve",
            ),
            (
                vec!["--worker", "a:1", "--checkpoint", "j.log"],
                "--checkpoint/--resume run on the coordinator",
            ),
        ] {
            match parse_args(&args).unwrap_err() {
                ArgError::Conflict(msg) => assert!(msg.contains(needle), "{args:?}: {msg}"),
                other => panic!("{args:?}: expected conflict, got {other:?}"),
            }
        }
        // The journal flags are fine on the coordinator side.
        let a = parse_args(&["--serve", "a:1", "--checkpoint", "j.log", "--resume"]).unwrap();
        assert!(a.resume && a.serve.is_some());
    }
}
