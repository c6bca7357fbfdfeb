//! The units each workload is made of, driven only through the public
//! API: `xsched_bench::*_report` + `SweepOpts`, `Driver`,
//! `MplController::jumpstart`, `FlexServer::solve`, `CountingSink`, and
//! the `figures --serve/--worker` binary.

use crate::check::{fnv1a, Output};
use crate::host;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use xsched_bench::{
    controller_report, fig11_report, fig2_report, fig3_report, quick_rc, quick_rc_heavy,
    rt_open_report, SweepOpts,
};
use xsched_core::{CellTiming, Driver, PolicyKind, RunConfig, RunResult, SweepObs};
use xsched_obs::CountingSink;
use xsched_workload::setup;

/// Simulation seed of every unit. Fixed, so every run does identical
/// work and `digests.txt` pins it; the harness seed orders the units.
pub const SIM_SEED: u64 = 42;

/// Controller sessions of `controller_jumpstart`: the jump-start-bound
/// setup 3 (C² ≈ 15, jump-start MPL ≈ 50) and the cheap low-C² setups.
pub const CONTROLLER_IDS: [u32; 5] = [3, 1, 5, 11, 17];

/// Sweep reports of `sweep_quick`, rendered as `figures --quick -t 1`
/// does.
pub const QUICK_REPORTS: [&str; 4] = ["fig2", "fig3", "rt_open", "fig11a"];

/// Reports `sweep_leased` routes through the coordinator.
pub const LEASED_REPORTS: [&str; 2] = ["fig2", "rt_open"];

/// `highpop` grid: setups × client populations.
pub const HP_SETUPS: [u32; 3] = [1, 3, 8];
pub const HP_CLIENTS: [u32; 3] = [16, 256, 1024];

/// Render one report in-process, exactly as `figures` prints it;
/// `controller.s<id>` is the controller report of one setup.
pub fn report(name: &str, opts: &SweepOpts) -> String {
    if let Some(id) = name.strip_prefix("controller.s") {
        let id: u32 = id.parse().expect("controller unit names a setup");
        return format!("{}\n", controller_report(&quick_rc_heavy(), &[id], opts));
    }
    let text = match name {
        "fig2" => fig2_report(&quick_rc(), opts),
        "fig3" => fig3_report(&quick_rc(), opts),
        "rt_open" => rt_open_report(&quick_rc_heavy(), opts),
        "fig11a" => fig11_report(&quick_rc_heavy(), 0.05, opts),
        other => panic!("unknown report {other}"),
    };
    format!("{text}\n")
}

/// What an in-process sweep left behind besides its tables.
pub struct SweepTelemetry {
    pub cells: Vec<CellTiming>,
    pub obs: Arc<SweepObs>,
}

/// Run one report on `threads` workers under replication seed `seed`,
/// with per-cell timings and sweep telemetry attached. Also returns the
/// rendered text.
pub fn report_unit(name: &str, seed: u64, threads: usize) -> (Output, SweepTelemetry, String) {
    let timings = Arc::new(Mutex::new(Vec::new()));
    let obs = Arc::new(SweepObs::new());
    let opts = SweepOpts {
        seeds: vec![seed],
        threads,
        timings: Some(Arc::clone(&timings)),
        obs: Some(Arc::clone(&obs)),
        ..Default::default()
    };
    let text = report(name, &opts);
    let cells = std::mem::take(&mut *timings.lock().expect("no sweep worker panicked"));
    let events = cells.iter().map(|c| c.events).sum();
    let out = Output {
        digest: fnv1a(text.as_bytes()),
        events: Some(events),
    };
    (out, SweepTelemetry { cells, obs }, text)
}

/// Run length of each `highpop` point: a fixed transaction count.
pub fn hp_rc(seed: u64) -> RunConfig {
    RunConfig {
        warmup_txns: 200,
        measured_txns: 1_000,
        seed,
        ..Default::default()
    }
}

/// Driver for one `highpop` point: setup `id` with `clients` saturated
/// zero-think clients and no effective MPL.
pub fn hp_driver(id: u32, clients: u32, seed: u64) -> Driver {
    let mut s = setup(id);
    s.clients = clients;
    Driver::new(s).with_config(hp_rc(seed))
}

/// Digest of every float a `highpop` point reports, bit for bit.
pub fn run_digest(r: &RunResult) -> u64 {
    let m = &r.metrics;
    let mut bits: Vec<u64> = [
        r.throughput,
        r.mean_rt,
        r.rt_high,
        r.rt_low,
        r.p95_rt,
        r.rt_p95,
        r.rt_p99,
        r.c2_rt,
        r.mean_external_wait,
        r.mean_lock_wait,
        r.aborts_per_txn,
        m.elapsed,
        m.hit_ratio(),
    ]
    .iter()
    .map(|x| x.to_bits())
    .collect();
    bits.extend([r.mpl as u64, r.count_high, r.count_low]);
    bits.extend(m.disk_busy.iter().map(|x| x.to_bits()));
    let bytes: Vec<u8> = bits.iter().flat_map(|b| b.to_le_bytes()).collect();
    fnv1a(&bytes)
}

pub fn hp_unit_name(id: u32, clients: u32) -> String {
    format!("hp.s{id}.c{clients}")
}

/// One untraced `highpop` point.
pub fn hp_unit(id: u32, clients: u32, seed: u64) -> Output {
    let d = hp_driver(id, clients, seed);
    let r = d.run(clients, PolicyKind::Fifo, &d.saturated());
    Output {
        digest: run_digest(&r),
        events: Some(d.events_processed()),
    }
}

/// One `highpop` point with a counting trace sink attached.
pub fn hp_traced(id: u32, clients: u32, seed: u64) -> (Output, CountingSink) {
    let d = hp_driver(id, clients, seed);
    let (r, sink) = d.run_traced(
        clients,
        PolicyKind::Fifo,
        &d.saturated(),
        CountingSink::default(),
    );
    let out = Output {
        digest: run_digest(&r),
        events: Some(d.events_processed()),
    };
    (out, sink)
}

/// A child process that is killed and reaped when dropped, so no path —
/// a panic included — leaves it running.
pub struct Reaped(pub Child);

impl Drop for Reaped {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// A `figures` coordinator that is bound and listening.
pub struct Coordinator {
    child: Reaped,
    addr: String,
    stderr: BufReader<ChildStderr>,
}

/// The shared `figures` flags of a leased run.
fn leased_flags() -> Vec<String> {
    let mut flags = vec![
        "--quick".to_string(),
        "--seeds".into(),
        SIM_SEED.to_string(),
    ];
    flags.extend(LEASED_REPORTS.iter().map(|s| s.to_string()));
    flags
}

/// Unit name of the leased run.
pub const LEASED_UNIT: &str = "leased.fig2.rt_open";

/// Spawn `figures --serve 127.0.0.1:0` and wait until it has bound. Drop
/// the result to stop it.
pub fn spawn_coordinator(figures: &Path, metrics: Option<&Path>) -> Coordinator {
    let mut cmd = Command::new(figures);
    cmd.args(["--serve", "127.0.0.1:0"]);
    if let Some(m) = metrics {
        cmd.arg("--metrics").arg(m);
    }
    let mut child = Reaped(
        cmd.args(leased_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start {}: {e}", figures.display())),
    );
    let mut stderr = BufReader::new(child.0.stderr.take().expect("piped stderr"));
    let mut line = String::new();
    loop {
        line.clear();
        if stderr.read_line(&mut line).unwrap_or(0) == 0 {
            panic!("coordinator exited before listening");
        }
        if let Some(addr) = line.trim().strip_prefix("[coordinator listening on ") {
            let addr = addr.trim_end_matches(']').to_string();
            return Coordinator {
                child,
                addr,
                stderr,
            };
        }
    }
}

/// How long a cold leased set-up may take before it counts as hung.
const SETUP_DEADLINE: Duration = Duration::from_secs(30);

/// One cold set-up of a leased run, seconds: spawn a coordinator, wait
/// for its bind, spawn a `--threads 2` worker, and wait until the
/// coordinator grants the worker its first lease. The worker talks to the
/// coordinator through a relay here, which forwards each one-request
/// connection and watches the replies for that lease. Both processes are
/// stopped afterwards.
pub fn leased_setup(figures: &Path) -> f64 {
    let started = Instant::now();
    let coord = spawn_coordinator(figures, None);
    let relay = TcpListener::bind("127.0.0.1:0").expect("relay binds");
    relay.set_nonblocking(true).expect("non-blocking relay");
    let relay_addr = relay.local_addr().expect("relay address").to_string();
    let mut worker = Reaped(
        Command::new(figures)
            .args(["--worker", &relay_addr, "--threads", "2"])
            .args(leased_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start worker: {e}")),
    );
    loop {
        let (mut conn, _) = match relay.accept() {
            Ok(c) => c,
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                let exited = worker.0.try_wait().expect("worker status is readable");
                assert!(exited.is_none(), "worker exited before its first lease");
                assert!(
                    started.elapsed() < SETUP_DEADLINE,
                    "no lease within {SETUP_DEADLINE:?}"
                );
                std::thread::sleep(Duration::from_millis(1));
                continue;
            }
            Err(e) => panic!("relay accept: {e}"),
        };
        let reply = relay_call(&mut conn, &coord.addr).expect("relay forwards a request");
        if reply.starts_with("lease ") {
            let secs = started.elapsed().as_secs_f64();
            drop(worker);
            drop(coord);
            return secs;
        }
        let _ = conn.write_all(reply.as_bytes());
    }
}

/// Forward one request (the worker sends a line, then shuts its write
/// side) to the coordinator and return the reply.
fn relay_call(conn: &mut TcpStream, coord: &str) -> std::io::Result<String> {
    conn.set_nonblocking(false)?;
    conn.set_read_timeout(Some(SETUP_DEADLINE))?;
    let mut request = String::new();
    conn.read_to_string(&mut request)?;
    let mut up = TcpStream::connect(coord)?;
    up.set_read_timeout(Some(SETUP_DEADLINE))?;
    up.write_all(request.as_bytes())?;
    up.shutdown(Shutdown::Write)?;
    let mut reply = String::new();
    up.read_to_string(&mut reply)?;
    Ok(reply)
}

/// Outcome of one leased sweep.
pub struct LeasedRun {
    pub output: Output,
    pub peak_rss_mb: f64,
    pub reconnects: u64,
}

/// How long the coordinator may outlive the worker: it lingers 1 s after
/// each sweep, then prints its tables and exits.
const COORD_GRACE: Duration = Duration::from_secs(10);

/// Run the leased reports: one `--worker --threads 2` against a bound
/// coordinator. The coordinator's tables are the checked output; its
/// events are billed from the pins (the cells are those of the direct
/// run, so the count is exact when the digest matches).
pub fn leased_unit(figures: &Path, coord: Coordinator, worker_metrics: Option<&Path>) -> LeasedRun {
    let Coordinator {
        child: mut coord,
        addr,
        stderr: coord_err,
    } = coord;
    let mut cmd = Command::new(figures);
    cmd.args(["--worker", &addr, "--threads", "2"]);
    if let Some(m) = worker_metrics {
        cmd.arg("--metrics").arg(m);
    }
    let mut worker = Reaped(
        cmd.args(leased_flags())
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .unwrap_or_else(|e| panic!("cannot start worker: {e}")),
    );
    let drain = |mut r: Box<dyn Read + Send>| {
        std::thread::spawn(move || {
            let mut s = String::new();
            let _ = r.read_to_string(&mut s);
            s
        })
    };
    let coord_out = drain(Box::new(coord.0.stdout.take().expect("piped stdout")));
    let coord_err = drain(Box::new(coord_err));
    let worker_err = drain(Box::new(worker.0.stderr.take().expect("piped stderr")));
    let pids = [coord.0.id().to_string(), worker.0.id().to_string()];
    let mut peak = 0f64;
    let mut statuses = [None, None];
    let mut worker_done: Option<Instant> = None;
    while statuses.iter().any(Option::is_none) {
        for (i, child) in [&mut coord, &mut worker].into_iter().enumerate() {
            if statuses[i].is_none() {
                if let Some(rss) = host::peak_rss_mb(&pids[i]) {
                    peak = peak.max(rss);
                }
                statuses[i] = child.0.try_wait().expect("child status is readable");
            }
        }
        if statuses[1].is_some() && statuses[0].is_none() {
            // A worker that stopped early leaves the coordinator serving
            // forever; stop it once the grace period has passed.
            if worker_done.get_or_insert_with(Instant::now).elapsed() > COORD_GRACE {
                let _ = coord.0.kill();
            }
        }
        std::thread::sleep(Duration::from_millis(20));
    }
    let tables = coord_out.join().unwrap_or_default();
    let coord_err = coord_err.join().unwrap_or_default();
    let worker_err = worker_err.join().unwrap_or_default();
    for (who, status, err) in [
        ("coordinator", statuses[0], &coord_err),
        ("worker", statuses[1], &worker_err),
    ] {
        if !status.is_some_and(|s| s.success()) {
            panic!("{who} failed ({status:?}): {err}");
        }
    }
    if worker_err.contains("degrading to a local run") {
        panic!("worker could not reach the coordinator: {worker_err}");
    }
    // "[worker wN] sweep K: executed T task(s), R reconnect(s)"
    let reconnects = worker_err
        .lines()
        .filter_map(|l| {
            l.split(", ")
                .nth(1)?
                .strip_suffix(" reconnect(s)")?
                .parse::<u64>()
                .ok()
        })
        .sum();
    LeasedRun {
        output: Output {
            digest: fnv1a(tables.as_bytes()),
            events: None,
        },
        peak_rss_mb: peak,
        reconnects,
    }
}

/// Read a numeric metric from a `figures --metrics` snapshot (0 when the
/// counter never fired and so was never registered).
pub fn snapshot_value(snapshot: &str, name: &str) -> f64 {
    let key = format!("\"name\": \"{name}\"");
    snapshot
        .lines()
        .find(|l| l.contains(&key))
        .and_then(|l| l.split("\"value\": ").nth(1))
        .and_then(|v| v.split([',', '}']).next())
        .and_then(|v| v.trim().parse().ok())
        .unwrap_or(0.0)
}

/// Wall-clock seconds of `f`.
pub fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let started = Instant::now();
    let r = f();
    (r, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_values_parse() {
        let snap = "  {\"name\": \"coord.leases_granted\", \"kind\": \"counter\", \"value\": 64},\n  {\"name\": \"x\", \"kind\": \"gauge\", \"value\": 1.5, \"bits\": \"3ff8\"}\n";
        assert_eq!(snapshot_value(snap, "coord.leases_granted"), 64.0);
        assert_eq!(snapshot_value(snap, "x"), 1.5);
        assert_eq!(snapshot_value(snap, "coord.leases_expired"), 0.0);
    }

    #[test]
    fn highpop_points_are_deterministic_and_tracing_is_invisible() {
        let a = hp_unit(1, 16, 42);
        assert_eq!(a, hp_unit(1, 16, 42));
        let (traced, sink) = hp_traced(1, 16, 42);
        assert_eq!(a, traced);
        assert!(sink.by_kind[7] > 0, "commits are traced");
        assert_ne!(a.digest, hp_unit(1, 16, 43).digest);
    }
}
