//! Host-side measurements: CPU time and peak RSS from `/proc`, and the
//! host probe that calibrates every reported time against the host's
//! speed at the moment it was measured.

use crate::work::Reaped;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::io::{BufRead, BufReader, Write};
use std::process::{ChildStdin, ChildStdout, Command, Stdio};
use std::time::Instant;

/// Linux reports `/proc/<pid>/stat` CPU times in clock ticks; every
/// mainstream kernel configuration uses 100 per second.
const CLOCK_TICKS_PER_SEC: f64 = 100.0;

/// User + system CPU seconds of this process plus every child it has
/// already waited for.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // The command name (field 2) may contain spaces; fields after the
    // closing parenthesis are positional: state is field 3, so utime (14),
    // stime (15), cutime (16), cstime (17) sit at offsets 11..=14.
    let rest = stat.rfind(')').map(|i| &stat[i + 1..]).unwrap_or("");
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks: u64 = (11..=14)
        .filter_map(|i| fields.get(i).and_then(|f| f.parse::<u64>().ok()))
        .sum();
    ticks as f64 / CLOCK_TICKS_PER_SEC
}

/// Peak resident set (`VmHWM`) of a process in MiB; `None` once the
/// process is gone.
pub fn peak_rss_mb(pid: &str) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// A fixed closed-loop event kernel shaped like the simulator: a heap of
/// pending client events, a hashed lock table and a 4 MiB flat table
/// addressed at random. It is the benchmark's own frozen code, so its time
/// tracks how fast the host runs simulator-like work at the moment it runs,
/// whatever the program under test does. Every run does identical work.
pub struct Probe {
    heap: BinaryHeap<Reverse<(u64, u32)>>,
    locks: HashMap<u32, u32>,
    table: Vec<u32>,
    held: Vec<Vec<u32>>,
}

const PROBE_CLIENTS: u32 = 2048;
/// 1 Mi `u32` slots = 4 MiB.
const PROBE_SLOTS: u64 = 1 << 20;
/// Distinct lock keys (the hashed table stays around 1 MiB).
const PROBE_KEYS: u64 = 32_768;
/// Events per probe run (about 50 ms on the reference host).
const PROBE_EVENTS: u64 = 250_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

impl Probe {
    pub fn new() -> Probe {
        let mut probe = Probe {
            heap: BinaryHeap::new(),
            locks: HashMap::new(),
            table: vec![0; PROBE_SLOTS as usize],
            held: vec![Vec::new(); PROBE_CLIENTS as usize],
        };
        // Fault every page in and size every container once.
        probe.run();
        probe
    }

    /// One timed run, seconds. Each client holds up to 6 locks and table
    /// slots; one event in eight commits and releases them all. The run
    /// ends by releasing everything, so the next run starts from the same
    /// state.
    pub fn run(&mut self) -> f64 {
        // Touch the table first, so a probe right after a cache-hungry
        // unit does not pay for that unit's evictions.
        let touched: u32 = self.table.iter().step_by(16).fold(0, |a, &v| a ^ v);
        std::hint::black_box(touched);
        let started = Instant::now();
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for c in 0..PROBE_CLIENTS {
            self.heap.push(Reverse((xorshift(&mut x) % 1000, c)));
        }
        let mut commits = 0u64;
        for _ in 0..PROBE_EVENTS {
            let Reverse((t, c)) = self.heap.pop().expect("every client has an event");
            let r = xorshift(&mut x);
            let held = &mut self.held[c as usize];
            if r % 8 == 0 || held.len() >= 6 {
                for slot in held.drain(..) {
                    self.table[slot as usize] = 0;
                    self.locks.remove(&(slot % PROBE_KEYS as u32));
                }
                commits += 1;
            } else {
                let slot = ((r >> 8) % PROBE_SLOTS) as u32;
                let key = slot % PROBE_KEYS as u32;
                if self.table[slot as usize] == 0 && !self.locks.contains_key(&key) {
                    self.table[slot as usize] = c + 1;
                    self.locks.insert(key, c);
                    held.push(slot);
                }
            }
            self.heap.push(Reverse((t + 1 + (r >> 40) % 500, c)));
        }
        for held in &mut self.held {
            for slot in held.drain(..) {
                self.table[slot as usize] = 0;
            }
        }
        self.locks.clear();
        self.heap.clear();
        std::hint::black_box(commits);
        started.elapsed().as_secs_f64()
    }
}

/// Serve probe runs: one run per line read on stdin, its seconds printed
/// on stdout. This is the `--probe` mode of the harness.
pub fn serve_probes() {
    let mut probe = Probe::new();
    let mut out = std::io::stdout();
    for line in std::io::stdin().lock().lines() {
        if line.is_err() {
            break;
        }
        if writeln!(out, "{}", probe.run())
            .and_then(|_| out.flush())
            .is_err()
        {
            break;
        }
    }
}

/// The host probe in a process of its own (this executable with
/// `--probe`), kept warm for a whole run and asked for one run at a time,
/// so it never runs beside a timed unit and its memory never counts
/// toward this process's peak RSS. Dropping it stops the process.
pub struct ProbeChild {
    child: Reaped,
    stdin: ChildStdin,
    stdout: BufReader<ChildStdout>,
}

impl ProbeChild {
    pub fn spawn() -> ProbeChild {
        let exe = std::env::current_exe().expect("own executable path");
        let mut child = Reaped(
            Command::new(exe)
                .arg("--probe")
                .stdin(Stdio::piped())
                .stdout(Stdio::piped())
                .stderr(Stdio::inherit())
                .spawn()
                .expect("probe process starts"),
        );
        let stdin = child.0.stdin.take().expect("piped stdin");
        let stdout = BufReader::new(child.0.stdout.take().expect("piped stdout"));
        ProbeChild {
            child,
            stdin,
            stdout,
        }
    }

    /// Seconds of one probe run.
    pub fn sample(&mut self) -> f64 {
        let mut line = String::new();
        let answered = writeln!(self.stdin, "run")
            .and_then(|_| self.stdin.flush())
            .and_then(|_| self.stdout.read_line(&mut line));
        match answered {
            Ok(n) if n > 0 => line.trim().parse().expect("probe prints its seconds"),
            _ => panic!("probe process {} stopped answering", self.child.0.id()),
        }
    }
}

/// Probe seconds of the reference host (the median of `Probe::run` on a
/// shared 2-vCPU Intel Xeon at 2.0 GHz). Every time the benchmark reports
/// is rescaled to that host's speed; see [`speed_scale`].
pub const REF_PROBE_S: f64 = 0.050;

/// Reference seconds per host second for a stretch of work, judged by
/// the probes run right before, between and right after its parts. A
/// host that runs slower for a while slows the probes alike, so work times
/// this factor keeps the program's own cost; the median keeps one odd
/// probe from deciding.
pub fn speed_scale(probes: &[f64]) -> f64 {
    REF_PROBE_S / median(probes)
}

/// Median of a sample (0 for an empty one).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Nearest-rank-interpolated quantile `q` of a sample (0 when empty).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[1.0, 2.0, 3.0, 4.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.9), 4.6);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn probe_runs_repeat_the_same_work() {
        let mut p = Probe::new();
        p.run();
        assert!(p.table.iter().all(|&v| v == 0) && p.locks.is_empty());
        assert!(p.run() > 0.0);
    }

    #[test]
    fn speed_scale_follows_the_median_probe() {
        assert_eq!(speed_scale(&[REF_PROBE_S]), 1.0);
        assert_eq!(speed_scale(&[REF_PROBE_S * 2.0, 9.0, REF_PROBE_S]), 0.5);
    }

    #[test]
    fn process_counters_are_readable() {
        assert!(cpu_seconds() >= 0.0);
        assert!(peak_rss_mb("self").unwrap() > 0.0);
        assert!(peak_rss_mb("0").is_none());
    }
}
