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
//! across the worker pool (`--threads`, default one per core). Every cell
//! is pure in `(scenario, seed)`, so a cell that panics is a bug that
//! comes back on every run: it fails the run with `sweep task N failed:
//! panicked: …`, after every earlier cell of its sweep has finished.
//!
//! Sweeps can additionally be split **across processes or hosts**, by
//! coordination (work-stealing with lease-based fault recovery): one
//! `--serve host:port` process hands out task leases and prints the
//! tables; any number of `--worker host:port` processes (same
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
use xsched_bench::cli::{parse_args, EXPERIMENTS, USAGE};
use xsched_bench::*;
use xsched_core::{CoordServer, SweepObs, TcpTransport, WorkerConfig};

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
    } else {
        SweepMode::Run
    };
    // The metrics snapshot carries the per-cell timings section.
    let timings_sink = args
        .metrics_out
        .is_some()
        .then(|| Arc::new(Mutex::new(Vec::new())));
    let obs = args.metrics_out.as_ref().map(|_| Arc::new(SweepObs::new()));
    let opts = SweepOpts {
        seeds: args.seeds.clone(),
        threads: args.threads,
        mode,
        timings: timings_sink.clone(),
        obs: obs.clone(),
        progress: args.progress,
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

    for name in names {
        let started = std::time::Instant::now();
        let report = match name {
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
            other => unreachable!("parse_args rejects unknown experiment `{other}`"),
        };
        if args.worker.is_some() && !degraded.load(Ordering::SeqCst) {
            // Worker mode: the coordinator holds the outcomes and prints
            // the tables; this side's empty renderings stay unprinted. (A
            // degraded worker ran the sweep itself and prints normally.)
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
