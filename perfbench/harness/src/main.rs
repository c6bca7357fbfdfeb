//! Benchmark harness for the extsched workspace.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!           --figures <path to figures> --out <dir> --digests <file>
//!           [--units <unit,unit,...>]   # run only these of the workload's units
//! perfbench --pin --figures <path> --out <dir>      # print fresh digests
//! ```
//!
//! Runs one workload from a single process, times every call into the
//! program from outside, checks each unit's output against the pinned
//! digests, and prints one JSON result line last. `--trace 1` runs the
//! traced layer tour instead (see `tour.rs`) and writes its spans to the
//! output directory. `--setup` stops a run where its first unit would
//! start; the set-up measurement times such cold processes. `--probe`
//! serves host probe runs, one per line read on stdin (see `host.rs`).
//!
//! Every time in the result line is in reference seconds: host seconds
//! rescaled by the host probes run between the units of the same pass
//! (`host::speed_scale`), so a host that runs slower for a while does not
//! read as a slower program. The log keeps the host times.

mod check;
mod host;
mod spans;
mod tour;
mod work;

use check::{Checker, Pins, Tally};
use host::{cpu_seconds, median, peak_rss_mb, speed_scale, ProbeChild};
use spans::Tracer;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;
use tour::{Metrics, Tour};
use work::{HP_CLIENTS, HP_SETUPS, LEASED_REPORTS, SIM_SEED};

/// The benchmark's workloads.
pub const WORKLOADS: [&str; 4] = [
    "controller_jumpstart",
    "sweep_quick",
    "highpop",
    "sweep_leased",
];

/// End-to-end metrics every untraced run prints, with their units.
pub const END_TO_END: [(&str, &str); 5] = [
    ("wall_s", "s"),
    ("cpu_s", "s"),
    ("sim_events_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Cold set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 15;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    figures: PathBuf,
    out: PathBuf,
    digests: PathBuf,
    units: Option<Vec<String>>,
    pin: bool,
    setup: bool,
    probe: bool,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        figures: PathBuf::new(),
        out: PathBuf::from("."),
        digests: PathBuf::new(),
        units: None,
        pin: false,
        setup: false,
        probe: false,
    };
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--pin" => {
                args.pin = true;
                continue;
            }
            "--setup" => {
                args.setup = true;
                continue;
            }
            "--probe" => {
                args.probe = true;
                continue;
            }
            _ => {}
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--figures" => args.figures = value.into(),
            "--out" => args.out = value.into(),
            "--digests" => args.digests = value.into(),
            "--units" => args.units = Some(value.split(',').map(String::from).collect()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if !args.pin && !args.probe && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("--workload must be one of {WORKLOADS:?}"));
    }
    Ok(args)
}

/// One timed pass over a workload's units.
struct Pass {
    /// Σ unit seconds on this host.
    wall: f64,
    /// Host CPU seconds of the pass.
    cpu: f64,
    events: u64,
    /// Reference seconds per host second during the pass.
    scale: f64,
}

/// Everything an untraced run measured.
struct Measured {
    /// Cold set-ups, host seconds each.
    setups: Vec<f64>,
    /// Reference seconds per host second during the set-ups.
    setup_scale: f64,
    passes: Vec<Pass>,
    /// Every host probe, in order: one before the set-ups, one after
    /// them (also the first of the first pass), then those after each unit.
    probes: Vec<f64>,
    /// `VmHWM` of the program: the coordinator or worker of a leased run,
    /// whichever is larger; for an in-process workload, this process.
    rss_mb: f64,
}

/// A workload's units in the order `--seed` gives them (Fisher–Yates
/// driven by splitmix64). Only the order depends on the seed, so every
/// run does the same work.
fn units(workload: &str, seed: u64) -> Vec<String> {
    let mut units: Vec<String> = match workload {
        "controller_jumpstart" => work::CONTROLLER_IDS
            .iter()
            .map(|id| format!("controller.s{id}"))
            .collect(),
        "sweep_quick" => work::QUICK_REPORTS.iter().map(|s| s.to_string()).collect(),
        "highpop" => HP_SETUPS
            .iter()
            .flat_map(|&id| HP_CLIENTS.iter().map(move |&c| work::hp_unit_name(id, c)))
            .collect(),
        _ => vec![work::LEASED_UNIT.to_string()],
    };
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..units.len()).rev() {
        units.swap(i, (next() % (i as u64 + 1)) as usize);
    }
    units
}

/// Run one in-process unit by name.
fn run_unit(name: &str) -> check::Output {
    match name.strip_prefix("hp.s") {
        Some(point) => {
            let (id, c) = point.split_once(".c").expect("hp.s<id>.c<clients>");
            work::hp_unit(id.parse().unwrap(), c.parse().unwrap(), SIM_SEED)
        }
        None => work::report_unit(name, SIM_SEED, 1).0,
    }
}

/// Cold set-ups, seconds each. A set-up is what a run pays before its
/// first unit starts, measured in fresh processes: for `sweep_leased`,
/// spawning a coordinator, its bind, spawning a worker, and the worker's
/// first lease; for an in-process workload, this harness started with
/// `--setup`, which stops where the first unit would start.
fn cold_setups(args: &Args) -> Vec<f64> {
    let exe = std::env::current_exe().expect("own executable path");
    (0..SETUP_REPS)
        .map(|_| {
            if args.workload == "sweep_leased" {
                return work::leased_setup(&args.figures);
            }
            let (status, secs) = work::time(|| {
                Command::new(&exe)
                    .args(["--setup", "--workload", &args.workload])
                    .arg("--digests")
                    .arg(&args.digests)
                    .stdin(Stdio::null())
                    .stdout(Stdio::null())
                    .status()
                    .expect("set-up process starts")
            });
            assert!(status.success(), "set-up process failed: {status}");
            secs
        })
        .collect()
}

/// Untraced run: repeat whole passes over `units` while the next one
/// still fits in `seconds` (at least one), probing the host before the
/// set-ups, after them and after every unit. A pass is rescaled by the
/// median of its own probes and the one before its first unit.
fn measure(args: &Args, units: &[String], checker: &mut Checker) -> Measured {
    let mut probe = ProbeChild::spawn();
    let before = probe.sample();
    let setups = cold_setups(args);
    let after = probe.sample();
    let mut m = Measured {
        setups,
        setup_scale: speed_scale(&[before, after]),
        passes: Vec::new(),
        probes: vec![before, after],
        rss_mb: 0.0,
    };
    let started = Instant::now();
    loop {
        let first_probe = m.probes.len() - 1;
        let cpu0 = cpu_seconds();
        let (mut wall, mut events) = (0.0, 0);
        for name in units {
            let (r, secs) = if name == work::LEASED_UNIT {
                // The timed unit starts when the worker is launched
                // against a coordinator that is already listening.
                let coord = work::spawn_coordinator(&args.figures, None);
                work::time(|| {
                    checker.run(name, SIM_SEED, || {
                        let run = work::leased_unit(&args.figures, coord, None);
                        m.rss_mb = m.rss_mb.max(run.peak_rss_mb);
                        run.output
                    })
                })
            } else {
                work::time(|| checker.run(name, SIM_SEED, || run_unit(name)))
            };
            // One probe per started 2 s of the unit (1 to 5), so the
            // pass's median probe weighs its long units as they last.
            let n = (secs / 2.0).ceil().clamp(1.0, 5.0) as usize;
            m.probes.extend((0..n).map(|_| probe.sample()));
            eprintln!(
                "[perfbench] {name}: {secs:.3}s, probes {:?}",
                &m.probes[m.probes.len() - n..]
            );
            wall += secs;
            events += r.map_or(0, |(_, e)| e);
        }
        let cpu = cpu_seconds() - cpu0;
        let scale = speed_scale(&m.probes[first_probe..]);
        m.passes.push(Pass {
            wall,
            cpu,
            events,
            scale,
        });
        if started.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    if args.workload != "sweep_leased" {
        m.rss_mb = peak_rss_mb("self").unwrap_or(0.0);
    }
    m
}

/// The end-to-end metrics of an untraced run, times in reference seconds:
/// medians over passes and over set-ups.
fn end_to_end(m: &Measured) -> Metrics {
    let walls: Vec<f64> = m.passes.iter().map(|p| p.wall * p.scale).collect();
    let cpus: Vec<f64> = m.passes.iter().map(|p| p.cpu * p.scale).collect();
    let rates: Vec<f64> = m
        .passes
        .iter()
        .map(|p| p.events as f64 / (p.wall * p.scale))
        .collect();
    let values = [
        median(&walls),
        median(&cpus),
        median(&rates),
        median(&m.setups) * m.setup_scale,
        m.rss_mb,
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name.to_string(), (v, unit)))
        .collect()
}

/// The result line: `correct`, `attempted`, `failed`, `metrics`.
fn result_json(tally: Tally, metrics: &Metrics) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, (v, unit))| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0 && tally.attempted > 0 && metrics.values().all(|(v, _)| v.is_finite()),
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

/// Header of `digests.txt`, as pin mode writes it.
const PINS_HEADER: &str = "\
# Pinned outputs of every benchmark unit: unit, simulation seed, FNV-1a
# digest of the output, simulator events. Only the digest is checked; the
# events bill the leased unit, whose worker reports none. Every unit runs
# under simulation seed 42; the harness --seed only orders the units, so
# these pins hold for every harness seed. The leased unit's pin is the
# direct run's text of its reports. Regenerate (only for a change meant to alter outputs) with
#   .bench_build/release/perfbench --pin > perfbench/digests.txt
";

/// Pin mode: run every unit and print the digest lines. The leased unit's
/// pin is the direct run's text of its reports, so the coordinator must
/// reproduce the direct tables byte for byte.
fn pin() {
    let mut pins = Pins::default();
    let mut texts = std::collections::BTreeMap::new();
    for name in WORKLOADS.iter().flat_map(|w| units(w, 0)) {
        if name == work::LEASED_UNIT {
            continue;
        }
        let (out, secs) = if name.starts_with("hp.") {
            work::time(|| run_unit(&name))
        } else {
            let ((out, _, text), secs) = work::time(|| work::report_unit(&name, SIM_SEED, 1));
            texts.insert(name.clone(), (text, out.events.unwrap()));
            (out, secs)
        };
        pins.insert(&name, SIM_SEED, out.digest, out.events.unwrap());
        eprintln!("[pin] {name}: {secs:.3}s");
    }
    let (text, events) = LEASED_REPORTS.iter().fold((String::new(), 0), |(t, e), r| {
        let (rt, re) = &texts[*r];
        (t + rt, e + re)
    });
    pins.insert(
        work::LEASED_UNIT,
        SIM_SEED,
        check::fnv1a(text.as_bytes()),
        events,
    );
    print!("{PINS_HEADER}{}", pins.render());
}

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&raw).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    if args.pin {
        pin();
        return;
    }
    if args.probe {
        host::serve_probes();
        return;
    }
    let text = std::fs::read_to_string(&args.digests).unwrap_or_else(|e| {
        eprintln!("error: cannot read digests {}: {e}", args.digests.display());
        std::process::exit(2);
    });
    let pins = Pins::parse(&text).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        std::process::exit(2);
    });
    let mut checker = Checker {
        pins,
        tally: Tally::default(),
    };
    let mut units = units(&args.workload, args.seed);
    if let Some(only) = &args.units {
        if let Some(bad) = only.iter().find(|u| !units.contains(u)) {
            eprintln!("error: {bad} is not a unit of {}", args.workload);
            std::process::exit(2);
        }
        units.retain(|u| only.contains(u));
    }
    if args.setup {
        // Where the first unit would start: the end of a cold set-up.
        return;
    }
    let metrics = if args.trace {
        let mut tour = Tour {
            seed: SIM_SEED,
            figures: &args.figures,
            out: &args.out,
            checker: &mut checker,
            tracer: Tracer::new(),
            metrics: Metrics::new(),
        };
        tour.run();
        let spans_path = args
            .out
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        if let Err(e) = std::fs::write(&spans_path, tour.tracer.to_jsonl()) {
            eprintln!("error: cannot write {}: {e}", spans_path.display());
            std::process::exit(1);
        }
        eprintln!(
            "[perfbench] wrote {} spans to {}",
            tour.tracer.spans().len(),
            spans_path.display()
        );
        tour.metrics
    } else {
        eprintln!("[perfbench] units in order: {units:?}");
        let m = measure(&args, &units, &mut checker);
        eprintln!(
            "[perfbench] {} passes, host walls {:?}, scales {:?}, setups {:?}, setup scale {}, probes {:?}",
            m.passes.len(),
            m.passes.iter().map(|p| p.wall).collect::<Vec<_>>(),
            m.passes.iter().map(|p| p.scale).collect::<Vec<_>>(),
            m.setups,
            m.setup_scale,
            m.probes
        );
        end_to_end(&m)
    };
    println!("{}", result_json(checker.tally, &metrics));
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `name` fields of one top-level array of `BENCHMARK.json`.
    fn declared(section: &str) -> Vec<String> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json");
        let start = text
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &text[start..];
        let body = &body[..body.find(']').unwrap()];
        body.split("\"name\"")
            .skip(1)
            .map(|s| s.split('"').nth(1).unwrap().to_string())
            .collect()
    }

    fn valid_name(n: &str) -> bool {
        !n.is_empty()
            && n.len() <= 64
            && n.chars().next().unwrap().is_ascii_alphanumeric()
            && n.chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn every_name_is_well_formed_and_used_once() {
        let mut all = Vec::new();
        for section in ["workloads", "end_to_end", "per_layer"] {
            all.extend(declared(section));
        }
        assert!(all.iter().all(|n| valid_name(n)), "{all:?}");
        let mut sorted = all.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), all.len());
    }

    #[test]
    fn declared_metrics_match_what_the_harness_prints() {
        assert_eq!(declared("workloads"), WORKLOADS);
        let e2e: Vec<String> = END_TO_END.iter().map(|(n, _)| n.to_string()).collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<String> = tour::per_layer_names()
            .into_iter()
            .map(|(n, _)| n)
            .collect();
        assert_eq!(declared("per_layer"), layers);
    }

    #[test]
    fn end_to_end_takes_rescaled_medians_over_passes_and_set_ups() {
        // Host seconds at half the reference speed count half.
        let pass = |secs: f64, events| Pass {
            wall: secs,
            cpu: secs,
            events,
            scale: 0.5,
        };
        let m = Measured {
            setups: vec![0.2, 0.1, 0.3],
            setup_scale: 2.0,
            passes: vec![pass(4.0, 1000), pass(8.0, 1000), pass(2.0, 1000)],
            probes: vec![0.1; 5],
            rss_mb: 12.5,
        };
        let metrics = end_to_end(&m);
        let names: Vec<&str> = metrics.keys().map(String::as_str).collect();
        let mut want: Vec<&str> = END_TO_END.iter().map(|(n, _)| *n).collect();
        want.sort();
        assert_eq!(names, want);
        assert_eq!(metrics["wall_s"].0, 2.0);
        assert_eq!(metrics["cpu_s"].0, 2.0);
        assert_eq!(metrics["sim_events_per_s"].0, 500.0);
        assert_eq!(metrics["setup_s"].0, 0.4);
        assert_eq!(metrics["peak_rss_mb"].0, 12.5);
    }

    #[test]
    fn result_line_reports_failures_as_incorrect() {
        let mut m = Metrics::new();
        m.insert("wall_s".into(), (1.5, "s"));
        let ok = result_json(
            Tally {
                attempted: 3,
                failed: 0,
            },
            &m,
        );
        assert_eq!(
            ok,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"wall_s\": {\"value\": 1.5, \"unit\": \"s\"}}}"
        );
        assert!(result_json(
            Tally {
                attempted: 3,
                failed: 1
            },
            &m
        )
        .starts_with("{\"correct\": false"));
    }

    #[test]
    fn digest_check_trips_on_output_from_another_seed() {
        let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../digests.txt"))
            .expect("digests.txt");
        let mut checker = Checker {
            pins: Pins::parse(&text).unwrap(),
            tally: Tally::default(),
        };
        let unit = work::hp_unit_name(1, 16);
        let (a, b) = (SIM_SEED, SIM_SEED + 1);
        assert!(checker.run(&unit, a, || work::hp_unit(1, 16, a)).is_some());
        // Seed b's output checked against seed a's pin: a perturbed output.
        assert!(checker.run(&unit, a, || work::hp_unit(1, 16, b)).is_none());
        assert_eq!((checker.tally.attempted, checker.tally.failed), (2, 1));
    }

    #[test]
    fn args_parse_and_reject_unknown_workloads() {
        let raw: Vec<String> =
            "--workload highpop --setup --seed 7 --seconds 12 --trace 1 --units hp.s1.c16,hp.s3.c16"
                .split(' ')
                .map(String::from)
                .collect();
        let a = parse_args(&raw).unwrap();
        assert_eq!((a.seed, a.seconds, a.trace, a.setup), (7, 12.0, true, true));
        assert_eq!(a.units.unwrap(), ["hp.s1.c16", "hp.s3.c16"]);
        let bad: Vec<String> = ["--workload", "nope"].map(String::from).to_vec();
        assert!(parse_args(&bad).is_err());
    }
}
