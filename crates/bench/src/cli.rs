//! Argument parsing for the `figures` binary.
//!
//! A small hand-rolled parser (the build environment has no crates.io
//! access, so `clap` cannot be vendored) covering exactly the surface the
//! binary needs: `--quick`, `--seeds`, `--replications`, `--threads`,
//! `--metrics`, `--progress`, `--keep-going`, `--serve`, `--worker`,
//! `--lease`, `--list`, `--help`, and positional experiment names, each
//! checked against [`EXPERIMENTS`] before anything runs. One sweep is
//! split across processes or hosts one way: a `--serve` coordinator and
//! its `--worker`s. A killed run is simply run again: every cell is
//! pure in `(scenario, seed)` and the whole quick study takes well under
//! a minute. No cell can hang (a stalled simulator or a non-converging
//! solve panics, and every run loop ends at a completion budget), so
//! there is no per-task deadline either. Parsing is pure and
//! errors are **typed** ([`ArgError`]) so the binary can render a clean
//! one-liner and the unit tests can assert on the exact failure, not a
//! string.

use std::fmt;

/// Every experiment `figures` can run, in the order `all` runs them.
pub const EXPERIMENTS: &[&str] = &[
    "table1",
    "table2",
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "c2",
    "rt_open",
    "fig7",
    "fig9",
    "fig10",
    "controller",
    "chaos",
    "ablation_jumpstart",
    "fig11a",
    "fig11b",
    "fig12",
    "fig13",
    "ablation_policy",
    "ablation_dbms",
    "crosscheck",
];

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
    /// An option the parser does not know.
    UnknownOption(String),
    /// An experiment name not in [`EXPERIMENTS`] (nor `all`).
    UnknownExperiment(String),
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
            ArgError::UnknownOption(opt) => write!(f, "unknown option `{opt}` (see --help)"),
            ArgError::UnknownExperiment(name) => {
                write!(f, "unknown experiment `{name}` (see --list)")
            }
            ArgError::Conflict(msg) => write!(f, "{msg}"),
        }
    }
}

impl std::error::Error for ArgError {}

/// Parsed command line for the `figures` binary.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FiguresArgs {
    /// Experiment names to run, each in [`EXPERIMENTS`] or `all` (empty
    /// = caller's default set).
    pub experiments: Vec<String>,
    /// Shorter runs for smoke-testing.
    pub quick: bool,
    /// Replication seeds (empty = each figure's configured seed).
    pub seeds: Vec<u64>,
    /// Worker threads; `0` = one per core.
    pub threads: usize,
    /// Write the full observability snapshot (metrics registry, timings,
    /// controller telemetry series) to this JSON file after the run.
    pub metrics_out: Option<String>,
    /// Print a per-task progress ticker to stderr while sweeps run.
    pub progress: bool,
    /// Degrade failed sweep tasks to marked `FAILED` cells and keep
    /// sweeping instead of aborting on the first failure.
    pub keep_going: bool,
    /// Serve every sweep as a task-queue coordinator on this TCP address
    /// (`host:port`): workers claim task leases, this process records
    /// their outcomes and prints the tables.
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
        --metrics FILE       after the run, write the full observability
                             snapshot as JSON: metrics registry (worker
                             progress, cache hits/misses, task-time
                             histogram), per-cell wall-clock and event
                             timings, and every controller session's MPL/
                             queue/latency time series
        --progress           print a per-task completion ticker to stderr
                             while sweeps run (stdout stays table-only)
        --keep-going         degrade failed (panicked) sweep tasks to
                             marked FAILED cells and keep sweeping;
                             failed cells render as FAILED in the tables;
                             without it the first failed task aborts the
                             run
        --serve ADDR         coordinate every sweep over TCP at ADDR
                             (host:port): hand out task leases to
                             --worker clients, record their outcomes in
                             memory, and print the tables
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

Coordinated sweeps (work-stealing across hosts; kill a worker mid-run
and its leased tasks are reassigned — the tables do not change a byte):

    figures --quick --serve 0.0.0.0:7070 fig3        # prints the tables
    figures --quick --worker hostA:7070 fig3         # any number of these
";

fn parse_u64_list(flag: &str, v: &str) -> Result<Vec<u64>, ArgError> {
    let invalid = |want| ArgError::InvalidValue {
        flag: flag.to_string(),
        value: v.to_string(),
        want,
    };
    let seeds: Vec<u64> = v
        .split(',')
        .map(|s| s.trim().parse::<u64>())
        .collect::<Result<_, _>>()
        .map_err(|_| invalid("a comma-separated seed list, e.g. `42,43,44`"))?;
    // A repeated seed reruns the same replication bit for bit, and
    // counting it twice would shrink the confidence interval for free.
    let mut seen = std::collections::HashSet::new();
    if !seeds.iter().all(|s| seen.insert(s)) {
        return Err(invalid("distinct seeds"));
    }
    Ok(seeds)
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
            "--metrics" => out.metrics_out = Some(value_for(arg)?),
            "--progress" => out.progress = true,
            "--keep-going" => out.keep_going = true,
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
            name if name == "all" || EXPERIMENTS.contains(&name) => {
                out.experiments.push(name.to_string());
            }
            name => return Err(ArgError::UnknownExperiment(name.to_string())),
        }
    }
    if let Some(n) = replications {
        let base = out.seeds.first().copied().unwrap_or(42);
        out.seeds = (0..n as u64).map(|i| base.wrapping_add(i)).collect();
    }
    if out.serve.is_some() && out.worker.is_some() {
        return Err(ArgError::Conflict(
            "--serve and --worker are mutually exclusive (one process is one side)",
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
            parse_args(&["--seeds", "42,42"]).unwrap_err(),
            ArgError::InvalidValue {
                flag: "--seeds".into(),
                value: "42,42".into(),
                want: "distinct seeds",
            }
        );
        assert_eq!(
            parse_args(&["--bogus"]).unwrap_err(),
            ArgError::UnknownOption("--bogus".into())
        );
        // Every variant renders a one-line message.
        for args in [
            vec!["--seeds"],
            vec!["--seeds", "x"],
            vec!["--seeds", "42,42"],
            vec!["--bogus"],
            vec!["bogus"],
            vec!["--serve", "a:1", "--worker", "b:1"],
        ] {
            let msg = parse_args(&args).unwrap_err().to_string();
            assert!(!msg.is_empty() && !msg.contains('\n'), "{msg}");
        }
    }

    /// Experiment names are checked against [`EXPERIMENTS`] while
    /// parsing, so a typo anywhere on the line fails before the first
    /// experiment runs; `all` is the one name outside the list.
    #[test]
    fn unknown_experiments_are_rejected_before_anything_runs() {
        assert_eq!(
            parse_args(&["table1", "bogus"]).unwrap_err(),
            ArgError::UnknownExperiment("bogus".into())
        );
        assert_eq!(
            parse_args(&["all", "fig2x"]).unwrap_err(),
            ArgError::UnknownExperiment("fig2x".into())
        );
        let every: Vec<&str> = EXPERIMENTS.iter().copied().chain(["all"]).collect();
        assert_eq!(parse_args(&every).unwrap().experiments, every);
    }

    /// Shard balancing, cost calibration, timing dumps, explicit
    /// defaults, task retries, fault injection, checkpoint/resume,
    /// sub-run splitting, the per-task watchdog and static sharding are
    /// not options: each is a typed unknown-option error.
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
            vec!["--shard", "1/2"],
            vec!["--merge", "s.txt"],
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
        for mode in [vec!["--serve", "a:1"], vec!["--worker", "a:1"]] {
            let mut args = vec!["--keep-going"];
            args.extend(&mode);
            assert!(parse_args(&args).unwrap().keep_going, "{args:?}");
        }
        assert_eq!(
            parse_args(&["--keep-going", "--serve", "a:1", "--worker", "b:1"]).unwrap_err(),
            ArgError::Conflict(
                "--serve and --worker are mutually exclusive (one process is one side)"
            )
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

    /// The coordinated-mode contract: role flags that cannot be combined
    /// are typed conflicts, and dependent flags name their prerequisite.
    #[test]
    fn coordinator_conflicts_are_typed() {
        for (args, needle) in [
            (
                vec!["--serve", "a:1", "--worker", "b:1"],
                "--serve and --worker",
            ),
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
        let options: [&[&str]; 12] = [
            &["--quick"],
            &["--seeds", "7,8"],
            &["--replications", "2"],
            &["--threads", "2"],
            &["--metrics", "m.json"],
            &["--progress"],
            &["--keep-going"],
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
