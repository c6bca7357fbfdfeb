//! Argument parsing for the `figures` binary.
//!
//! A small hand-rolled parser (the build environment has no crates.io
//! access, so `clap` cannot be vendored) covering exactly the surface the
//! binary needs: `--quick`, `--seeds`, `--replications`, `--threads`,
//! `--shard`, `--merge`, `--metrics`, `--progress`, `--keep-going`,
//! `--serve`, `--worker`, `--lease`, `--list`, `--help`, and positional
//! experiment names. A killed run is simply run again: every cell is
//! pure in `(scenario, seed)` and the whole quick study takes well under
//! a minute. No cell can hang (a stalled simulator or a non-converging
//! solve panics, and every run loop ends at a completion budget), so
//! there is no per-task deadline either. Parsing is pure and
//! errors are **typed** ([`ArgError`]) so the binary can render a clean
//! one-liner and the unit tests can assert on the exact failure, not a
//! string.

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
    /// Degrade failed sweep tasks to marked `FAILED` cells and keep
    /// sweeping instead of aborting on the first failure.
    pub keep_going: bool,
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
        --keep-going         degrade failed (panicked) sweep tasks to
                             marked FAILED cells and keep sweeping;
                             failed cells render as FAILED in the tables
                             and carry typed failure records through
                             shard payloads and merges; without it the
                             first failed task aborts the run
        --merge FILES        comma-separated shard payload files; merge
                             them (running no sweep tasks) and print the
                             tables, byte-identical to an unsharded run
                             under the same flags; repeatable. Reports
                             that resolve MPLs while building their plan
                             (fig11-13, ablation_policy) repeat that
                             deterministic search locally
        --serve ADDR         coordinate every sweep over TCP at ADDR
                             (host:port): hand out task leases to
                             --worker clients, record their outcomes in
                             memory, and print merged tables
                             byte-identical to a direct run. Dead
                             workers are detected by lease expiry and
                             their tasks reassigned; a restarted
                             coordinator serves every sweep from the
                             start, and every worker must be restarted
                             with it (a surviving worker stops with
                             `protocol error: unexpected record
                             response: Wait`)
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
            "--keep-going" => out.keep_going = true,
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
    /// defaults, task retries, fault injection, checkpoint/resume,
    /// sub-run splitting and the per-task watchdog are not options: each
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
            vec!["--checkpoint", "j.log"],
            vec!["--resume"],
            vec!["--subruns", "3"],
            vec!["--task-timeout", "5"],
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
        let a = parse_args(&["--keep-going", "fig2"]).unwrap();
        assert!(a.keep_going);
        assert_eq!(a.experiments, ["fig2"]);
        // Default: off.
        assert!(!parse_args::<&str>(&[]).unwrap().keep_going);
    }

    /// `--keep-going` conflicts with no execution mode, and it does not
    /// mask the typed conflicts between the modes themselves.
    #[test]
    fn fault_tolerance_conflicts_are_typed() {
        for mode in [
            vec!["--serve", "a:1"],
            vec!["--worker", "a:1"],
            vec!["--shard", "1/2"],
            vec!["--merge", "s.txt"],
        ] {
            let mut args = vec!["--keep-going"];
            args.extend(&mode);
            assert!(parse_args(&args).unwrap().keep_going, "{args:?}");
        }
        assert_eq!(
            parse_args(&["--keep-going", "--shard", "1/2", "--merge", "a"]).unwrap_err(),
            ArgError::Conflict("--shard and --merge are mutually exclusive")
        );
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

    /// The coordinated-mode contract: role and sharding flags that
    /// cannot be combined are typed conflicts, and dependent flags name
    /// their prerequisite.
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
        ] {
            match parse_args(&args).unwrap_err() {
                ArgError::Conflict(msg) => assert!(msg.contains(needle), "{args:?}: {msg}"),
                other => panic!("{args:?}: expected conflict, got {other:?}"),
            }
        }
    }

    /// `--help` and the parser cannot drift apart: every long option
    /// (with a valid value and any prerequisite) parses and is listed
    /// in USAGE, and USAGE's OPTIONS section names no other `--flag`.
    #[test]
    fn usage_lists_exactly_the_parsed_options() {
        let options: [&[&str]; 14] = [
            &["--quick"],
            &["--seeds", "7,8"],
            &["--replications", "2"],
            &["--threads", "2"],
            &["--shard", "1/2"],
            &["--metrics", "m.json"],
            &["--progress"],
            &["--keep-going"],
            &["--merge", "s.txt"],
            &["--serve", "a:1"],
            &["--worker", "a:1"],
            &["--lease", "5", "--serve", "a:1"],
            &["--list"],
            &["--help"],
        ];
        for args in options {
            assert!(parse_args(args).is_ok(), "{args:?}");
        }
        let section = USAGE
            .split_once("OPTIONS:\n")
            .and_then(|(_, rest)| rest.split("\n\n").next())
            .expect("USAGE has an OPTIONS section");
        let mut listed: Vec<&str> = section
            .split(|c: char| !(c.is_ascii_alphanumeric() || c == '-'))
            .filter(|w| w.starts_with("--"))
            .collect();
        listed.sort_unstable();
        listed.dedup();
        let mut parsed: Vec<&str> = options.iter().map(|a| a[0]).collect();
        parsed.sort_unstable();
        assert_eq!(listed, parsed);
    }
}
