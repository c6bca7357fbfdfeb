#!/usr/bin/env python3
"""Repository benchmark: build the program and the harness from source, run
one workload, and print the harness's JSON result as the last line.

    python3 perfbench/run.py --workload highpop --seed 3 --seconds 25 --trace 0

Run it from the repository root. Builds go to $CARGO_TARGET_DIR (default
`.bench_build`); run artefacts (manifest, spans, metrics snapshots) go to
`perfbench/out/`. See perfbench/README.md for the workloads and metrics.
"""

import argparse
import hashlib
import json
import os
import signal
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["controller_jumpstart", "sweep_quick", "highpop", "sweep_leased"]
# The harness must finish well inside the 180 s a run may take.
RUN_TIMEOUT_S = 170


def fail(msg):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def cargo_build(env, args):
    cmd = ["cargo", "build", "--release", "--offline", "--quiet"] + args
    r = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if r.returncode != 0:
        fail(f"build failed: {' '.join(cmd)}")


def command_output(cmd):
    try:
        r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return r.stdout.strip() if r.returncode == 0 else "unknown"


def source_digest():
    """SHA-256 over the program's sources, for checkouts without git."""
    h = hashlib.sha256()
    for top in ["Cargo.toml", "Cargo.lock", "src", "crates"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, _, fs in os.walk(path) for f in fs
        )
        for f in sorted(files):
            h.update(os.path.relpath(f, ROOT).encode())
            with open(f, "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "Cargo.toml")) or not os.path.isdir(
        os.path.join(ROOT, "crates", "bench")
    ):
        fail(f"{ROOT} holds no extsched sources to build")
    env = dict(os.environ)
    target = env.get("CARGO_TARGET_DIR") or ".bench_build"
    target = os.path.join(ROOT, target)
    env["CARGO_TARGET_DIR"] = target
    cargo_build(env, ["-p", "xsched-bench", "--bin", "figures"])
    cargo_build(env, ["--manifest-path", os.path.join("perfbench", "harness", "Cargo.toml")])

    out = os.path.join(HERE, "out")
    os.makedirs(out, exist_ok=True)
    manifest = {
        "nproc": os.cpu_count(),
        "git_rev": command_output(["git", "rev-parse", "HEAD"]),
        "source_sha256": source_digest(),
        "rustc": command_output(["rustc", "--version"]),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }
    with open(os.path.join(out, f"manifest-{args.workload}-seed{args.seed}.json"), "w") as f:
        json.dump(manifest, f, indent=1)
    print("# manifest " + json.dumps(manifest), flush=True)

    release = os.path.join(target, "release")
    cmd = [
        os.path.join(release, "perfbench"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--figures", os.path.join(release, "figures"),
        "--out", out,
        "--digests", os.path.join(HERE, "digests.txt"),
    ]
    # Own process group, so a timeout also stops the `figures` processes
    # the harness starts.
    proc = subprocess.Popen(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        start_new_session=True,
    )
    try:
        stdout, stderr = proc.communicate(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        fail(f"harness exceeded {RUN_TIMEOUT_S} s")
    # The harness log (per-unit and per-pass times, probes) stays beside
    # the manifest.
    sys.stderr.write(stderr)
    with open(os.path.join(out, f"log-{args.workload}-seed{args.seed}-trace{args.trace}.txt"), "w") as f:
        f.write(stderr)
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail(f"harness exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        fail("harness printed a malformed result")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
