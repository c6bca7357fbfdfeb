#!/usr/bin/env python3
"""Steadiness check: run the benchmark on several seeds per workload (the
workloads in turn for each seed) and report, per end-to-end metric, the
median, the quartiles and the spread (inter-quartile distance as a share of
the median) against its bound.

    python3 perfbench/steady.py --runs 10 [--first-seed 100] [--workloads highpop ...]

Run from the repository root. Each run's JSON result is appended to
perfbench/out/steady-<label>.jsonl (label defaults to the first seed), so
two sets can be compared afterwards with --compare A B. Beside the
end-to-end metrics it reports, from each run's log, host.probe_s (median
probe) and host.wall_s (median pass in host seconds, before rescaling).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def load_benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def summary(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3, (q3 - q1) / q2 if q2 else float("inf")


def run_host_times(workload, seed):
    """From a run's log: the median of its host probes and the median host
    seconds of its passes (before rescaling), keyed as steady.py reports
    them."""
    path = os.path.join(HERE, "out", f"log-{workload}-seed{seed}-trace0.txt")
    try:
        with open(path) as f:
            line = next(l for l in f if " passes, host walls [" in l)
    except (OSError, StopIteration):
        return {}
    probes = json.loads(line[line.index("probes [") + len("probes "):].strip())
    walls = line[line.index("host walls [") + len("host walls "):]
    walls = json.loads(walls[:walls.index("]") + 1])
    return {"host.probe_s": statistics.median(probes), "host.wall_s": statistics.median(walls)}


def run_set(bench, workloads, runs, first_seed, label):
    path = os.path.join(HERE, "out", f"steady-{label}.jsonl")
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "a") as log:
        # Seed by seed, every workload in turn: a slow drift of the host's
        # speed then falls on every workload alike.
        for seed in range(first_seed, first_seed + runs):
            for w in workloads:
                cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload", w,
                       "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"]
                r = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
                last = r.stdout.strip().splitlines()[-1] if r.stdout.strip() else "{}"
                result = json.loads(last) if r.returncode == 0 else {"error": r.returncode}
                rec = {"workload": w, "seed": seed, "result": result, "host": run_host_times(w, seed)}
                log.write(json.dumps(rec) + "\n")
                log.flush()
                print(w, seed, json.dumps(result)[:160], flush=True)
    return path


def read_set(path):
    by = {}
    with open(path) as f:
        for line in f:
            rec = json.loads(line)
            res = rec["result"]
            if "metrics" not in res:
                continue
            values = {name: m["value"] for name, m in res["metrics"].items()}
            values.update(rec.get("host", {}))
            for name, v in values.items():
                by.setdefault(rec["workload"], {}).setdefault(name, []).append(v)
    return by


def report(bench, by):
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    for w, metrics in by.items():
        print(f"\n{w}")
        for name, values in metrics.items():
            if len(values) < 2:
                continue
            q1, q2, q3, spread = summary(values)
            bound = bounds.get(name)  # host times have none
            flag = ("" if bound is None else "ok" if spread < bound / 3
                    else "WITHIN" if spread <= bound else "WIDE")
            print(f"  {name:18s} n={len(values):2d} median={q2:.6g} q1={q1:.6g} q3={q3:.6g} "
                  f"spread={spread:.4f} bound={bound} {flag}")


def compare(bench, a, b):
    bounds = {m["name"]: (m["bound"], m["better"]) for m in bench["end_to_end"]}
    sa, sb = read_set(a), read_set(b)
    for w in sa:
        for name in sa[w]:
            if name not in bounds:
                continue
            ma, mb = statistics.median(sa[w][name]), statistics.median(sb.get(w, {}).get(name, [float("nan")]))
            bound, better = bounds[name]
            worse = (mb - ma) / ma if better == "lower" else (ma - mb) / ma
            print(f"{w:22s} {name:18s} first={ma:.6g} second={mb:.6g} worse_by={worse:+.4f} bound={bound} "
                  f"{'ok' if worse <= bound else 'FAIL'}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=100)
    ap.add_argument("--workloads", nargs="*")
    ap.add_argument("--label")
    ap.add_argument("--compare", nargs=2, metavar=("FIRST", "SECOND"))
    ap.add_argument("--summarize", metavar="SET")
    args = ap.parse_args()
    bench = load_benchmark()
    if args.compare:
        compare(bench, *args.compare)
        return
    if args.summarize:
        report(bench, read_set(args.summarize))
        return
    workloads = args.workloads or [w["name"] for w in bench["workloads"]]
    path = run_set(bench, workloads, args.runs, args.first_seed, args.label or str(args.first_seed))
    report(bench, read_set(path))


if __name__ == "__main__":
    main()
