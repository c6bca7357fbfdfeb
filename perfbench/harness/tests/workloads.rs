//! Every workload's untraced path, end to end through the binary on a
//! reduced unit list (`--units`, `--seconds 0`): each run sets up, checks
//! its unit against the pins, and prints every declared end-to-end metric.
//!
//! The leased workload needs `figures` built into the same target
//! directory, as `perfbench/run.py` does.

use std::path::{Path, PathBuf};
use std::process::Command;

const PERFBENCH: &str = env!("CARGO_BIN_EXE_perfbench");
const BENCH_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/..");

/// The end-to-end metric names `BENCHMARK.json` declares.
fn declared_end_to_end() -> Vec<String> {
    let text =
        std::fs::read_to_string(format!("{BENCH_DIR}/../BENCHMARK.json")).expect("BENCHMARK.json");
    let body = &text[text.find("\"end_to_end\"").expect("end_to_end section")..];
    body[..body.find(']').unwrap()]
        .split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

fn figures() -> PathBuf {
    let f = Path::new(PERFBENCH).with_file_name("figures");
    assert!(
        f.exists(),
        "{} is missing: build it into the same target directory \
         (cargo build --release -p xsched-bench --bin figures)",
        f.display()
    );
    f
}

/// The result line of one untraced run of `unit` alone.
fn run_one(workload: &str, unit: &str) -> String {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR"));
    let output = Command::new(PERFBENCH)
        .args(["--workload", workload, "--seed", "5", "--seconds", "0"])
        .args(["--trace", "0", "--units", unit])
        .arg("--figures")
        .arg(figures())
        .arg("--out")
        .arg(out)
        .arg("--digests")
        .arg(format!("{BENCH_DIR}/digests.txt"))
        .output()
        .expect("perfbench runs");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert!(output.status.success(), "{workload}: {stderr}");
    let stdout = String::from_utf8(output.stdout).unwrap();
    stdout.lines().last().unwrap_or_default().to_string()
}

#[test]
fn every_workload_emits_every_end_to_end_metric() {
    let metrics = declared_end_to_end();
    for (workload, unit) in [
        ("controller_jumpstart", "controller.s1"),
        ("sweep_quick", "fig2"),
        ("highpop", "hp.s8.c16"),
        ("sweep_leased", "leased.fig2.rt_open"),
    ] {
        let line = run_one(workload, unit);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0,"),
            "{workload}: {line}"
        );
        for name in &metrics {
            let key = format!("\"{name}\": {{\"value\": ");
            let value: f64 = line
                .split_once(&key)
                .and_then(|(_, rest)| rest.split(',').next())
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("{workload} lacks {name}: {line}"));
            assert!(value > 0.0, "{workload}: {name} = {value}");
        }
    }
}

#[test]
fn units_outside_the_workload_are_refused() {
    let status = Command::new(PERFBENCH)
        .args(["--workload", "highpop", "--units", "fig2", "--setup"])
        .arg("--digests")
        .arg(format!("{BENCH_DIR}/digests.txt"))
        .output()
        .expect("perfbench runs")
        .status;
    assert_eq!(status.code(), Some(2));
}
