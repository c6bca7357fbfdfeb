//! Regenerate the paper's tables and figures through the sweep layer.
//!
//! ```text
//! cargo run --release -p xsched-bench --bin figures -- all
//! cargo run --release -p xsched-bench --bin figures -- fig2 fig7
//! cargo run --release -p xsched-bench --bin figures -- --quick all
//! cargo run --release -p xsched-bench --bin figures -- --replications 5 fig2
//! cargo run --release -p xsched-bench --bin figures -- --seeds 7,8,9 --threads 4 fig11a
//! ```
//!
//! With more than one replication seed every table cell prints
//! `mean ±95% CI half-width` over the replications; sweeps always fan out
//! across the worker pool (`--threads`, default one per core).
//!
//! Sweeps can additionally be split **across processes or hosts**: each
//! `--shard i/n` invocation simulates only its strided slice of every
//! task grid and prints encoded shard payloads, and `--merge f1,f2,…`
//! reassembles them into tables byte-identical to an unsharded run:
//!
//! ```text
//! figures --quick --shard 1/2 fig3 > s1.txt   # host A
//! figures --quick --shard 2/2 fig3 > s2.txt   # host B
//! figures --quick --merge s1.txt,s2.txt fig3  # anywhere
//! ```
//!
//! Or **coordinated** (work-stealing with lease-based fault recovery):
//! one `--serve host:port` process hands out task leases and prints the
//! merged tables; any number of `--worker host:port` processes (same
//! experiment flags) claim, execute, and stream outcomes back. Kill a
//! worker mid-sweep and its leases expire and reassign — the tables do
//! not change a byte:
//!
//! ```text
//! figures --quick --serve 0.0.0.0:7070 fig3   # prints the tables
//! figures --quick --worker hostA:7070 fig3    # as many as you like
//! ```

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;
use xsched_bench::cli::{parse_args, USAGE};
use xsched_bench::*;
use xsched_core::shard::decode_payloads;
use xsched_core::{
    CheckpointJournal, CoordServer, FaultPolicy, JournalReplay, SweepObs, TcpTransport,
    WorkerConfig,
};

const EXPERIMENTS: &[&str] = &[
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

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n\n{USAGE}");
            std::process::exit(2);
        }
    };
    if args.help {
        print!("{USAGE}");
        return;
    }
    if args.list {
        for name in EXPERIMENTS {
            println!("{name}");
        }
        return;
    }
    let names: Vec<&str> =
        if args.experiments.is_empty() || args.experiments.iter().any(|n| n == "all") {
            EXPERIMENTS.to_vec()
        } else {
            args.experiments.iter().map(String::as_str).collect()
        };

    // The shard sink collects encoded payloads; in shard mode they are
    // what goes to stdout (tables are suppressed until the merge).
    let sink = Arc::new(Mutex::new(Vec::new()));
    // Raised by worker mode when the coordinator was unreachable and a
    // sweep fell back to local execution — then this process owns real
    // results and must print them.
    let degraded = Arc::new(AtomicBool::new(false));
    let mode = if let Some(addr) = &args.serve {
        let server = CoordServer::bind(addr).unwrap_or_else(|e| {
            eprintln!("error: cannot bind coordinator address `{addr}`: {e}");
            std::process::exit(2);
        });
        let bound = server
            .local_addr()
            .map(|a| a.to_string())
            .unwrap_or_else(|_| addr.clone());
        eprintln!("[coordinator listening on {bound}]");
        SweepMode::Serve {
            server: Arc::new(server),
            epoch: Arc::new(AtomicU64::new(0)),
            lease_secs: args.lease.unwrap_or(10.0),
            linger_secs: 1.0,
        }
    } else if let Some(addr) = &args.worker {
        SweepMode::Worker {
            transport: Arc::new(TcpTransport::new(addr, Duration::from_secs(5))),
            epoch: Arc::new(AtomicU64::new(0)),
            config: Arc::new(WorkerConfig::new(&format!("w{}", std::process::id()))),
            degraded: Arc::clone(&degraded),
        }
    } else if let Some((i, n)) = args.shard {
        SweepMode::Shard {
            index: i - 1, // CLI is 1-based, the executor 0-based
            of: n,
            sink: Arc::clone(&sink),
        }
    } else if !args.merge.is_empty() {
        let mut pool = Vec::new();
        for path in &args.merge {
            let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
                eprintln!("error: cannot read shard file `{path}`: {e}");
                std::process::exit(2);
            });
            pool.extend(decode_payloads(&text).unwrap_or_else(|e| {
                eprintln!("error: bad shard payload in `{path}`: {e}");
                std::process::exit(2);
            }));
        }
        SweepMode::Merge {
            pool: Arc::new(pool),
        }
    } else {
        SweepMode::Run
    };
    // The metrics snapshot carries the per-cell timings section.
    let timings_sink = args
        .metrics_out
        .is_some()
        .then(|| Arc::new(Mutex::new(Vec::new())));
    let obs = args.metrics_out.as_ref().map(|_| Arc::new(SweepObs::new()));
    // Every task runs once, panic-isolated; these flags add keep-going
    // degradation and a watchdog.
    let faults = FaultPolicy {
        keep_going: args.keep_going,
        task_timeout_secs: args.task_timeout,
    };
    // `--resume` replays the journal then appends new completions to it;
    // `--checkpoint` alone starts a fresh journal (truncating any old one).
    let resume = args
        .resume
        .then_some(args.checkpoint.as_ref())
        .flatten()
        .map(|path| {
            let replay = JournalReplay::load(path).unwrap_or_else(|e| {
                eprintln!("error: bad checkpoint journal `{path}`: {e}");
                std::process::exit(2);
            });
            if replay.dropped_partial() > 0 {
                eprintln!(
                    "[checkpoint `{path}`: dropped {} partial trailing record(s) from an interrupted write]",
                    replay.dropped_partial()
                );
            }
            Arc::new(replay)
        });
    let journal = args.checkpoint.as_ref().map(|path| {
        let journal = if args.resume {
            CheckpointJournal::append(path)
        } else {
            CheckpointJournal::create(path)
        };
        Arc::new(journal.unwrap_or_else(|e| {
            eprintln!("error: cannot open checkpoint journal `{path}`: {e}");
            std::process::exit(2);
        }))
    });
    let opts = SweepOpts {
        seeds: args.seeds.clone(),
        threads: args.threads,
        mode,
        timings: timings_sink.clone(),
        obs: obs.clone(),
        progress: args.progress,
        subruns: args.subruns,
        faults,
        journal,
        resume,
    };
    let rc = if args.quick { quick_rc() } else { full_rc() };
    // Controller sessions and MPL searches run many inner sims per
    // scenario; use a lighter config for them unless asked for full
    // length.
    let rc_heavy = if args.quick {
        quick_rc_heavy()
    } else {
        full_rc_heavy()
    };

    // In merge mode a shard-payload mismatch surfaces as a panic from
    // `SweepOpts::run`; turn it into the same clean one-line error + exit 2
    // every other user-input failure uses (and silence the panic hook so
    // no backtrace noise precedes it).
    if !args.merge.is_empty() {
        std::panic::set_hook(Box::new(|_| {}));
    }

    for name in names {
        let started = std::time::Instant::now();
        let build_report = || match name {
            "table1" => table1_report(),
            "table2" => table2_report(),
            "fig2" => fig2_report(&rc, &opts),
            "fig3" => fig3_report(&rc, &opts),
            "fig4" => fig4_report(&rc, &opts),
            "fig5" => fig5_report(&rc, &opts),
            "c2" => c2_report(),
            "rt_open" => rt_open_report(&rc_heavy, &opts),
            "fig7" => fig7_report(),
            "fig9" => fig9_report(),
            "fig10" => fig10_report(),
            "controller" => controller_report(
                &rc_heavy,
                &xsched_workload::setup_ids().collect::<Vec<_>>(),
                &opts,
            ),
            "chaos" => chaos_report(&rc_heavy, &opts),
            "ablation_jumpstart" => controller_ablation_report(&rc_heavy, &[1, 3, 5, 11], &opts),
            "fig11a" => fig11_report(&rc_heavy, 0.05, &opts),
            "fig11b" => fig11_report(&rc_heavy, 0.20, &opts),
            "fig12" => fig12_report(&rc_heavy, &opts),
            "fig13" => fig13_report(&rc_heavy, &opts),
            "ablation_policy" => policy_ablation_report(&rc_heavy, &opts),
            "ablation_dbms" => dbms_ablation_report(&rc_heavy, &opts),
            "crosscheck" => qbd_crosscheck_report(),
            other => {
                eprintln!("unknown experiment `{other}`; known: {EXPERIMENTS:?}");
                std::process::exit(2);
            }
        };
        let report = if args.merge.is_empty() {
            build_report()
        } else {
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(build_report)) {
                Ok(report) => report,
                Err(payload) => {
                    // Only typed shard-validation failures are user-input
                    // errors; anything else is a genuine bug and must not
                    // masquerade as one.
                    if let Some(MergeError(msg)) = payload.downcast_ref::<MergeError>() {
                        eprintln!("error: {msg}");
                        std::process::exit(2);
                    }
                    let msg = payload
                        .downcast_ref::<String>()
                        .cloned()
                        .or_else(|| payload.downcast_ref::<&str>().map(|s| s.to_string()))
                        .unwrap_or_else(|| "unknown panic".to_string());
                    eprintln!("internal error (not a shard-file problem): {msg}");
                    std::process::exit(101);
                }
            }
        };
        if args.shard.is_some() {
            // Shard mode: stdout carries the machine-readable payloads
            // (one per sweep this experiment executed); the rendered
            // table fragments are partial and stay unprinted. An empty
            // sink means the experiment ran no sweep (analytic/static) —
            // it renders at merge time.
            let payloads: Vec<String> = sink.lock().unwrap().drain(..).collect();
            if payloads.is_empty() {
                eprintln!("[{name} ran no sweep; it renders at merge time]");
            }
            for payload in payloads {
                println!("# experiment {name}");
                print!("{payload}");
            }
        } else if args.worker.is_some() && !degraded.load(Ordering::SeqCst) {
            // Worker mode: the coordinator holds the merged outcomes and
            // prints the tables; this side's partial renderings stay
            // unprinted. (A degraded worker ran the sweep itself and
            // prints normally.)
            eprintln!("[{name}: tables render on the coordinator]");
        } else {
            println!("{report}");
        }
        let elapsed = started.elapsed().as_secs_f64();
        if let Some(obs) = &obs {
            obs.registry()
                .gauge_add(&format!("figures.{name}.secs"), elapsed);
        }
        eprintln!("[{name} took {elapsed:.1}s]\n");
    }

    // The full observability snapshot: metrics registry + per-cell
    // timings + controller series.
    if let (Some(path), Some(obs)) = (&args.metrics_out, &obs) {
        let cells = timings_sink
            .as_ref()
            .map(|s| s.lock().unwrap().clone())
            .unwrap_or_default();
        if let Err(e) = std::fs::write(path, obs.snapshot(&cells)) {
            eprintln!("error: cannot write metrics file `{path}`: {e}");
            std::process::exit(2);
        }
        eprintln!(
            "[wrote metrics snapshot ({} cells, {} controller series) to {path}]",
            cells.len(),
            obs.controller_series().len()
        );
    }
}
