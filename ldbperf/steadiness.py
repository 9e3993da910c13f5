#!/usr/bin/env python3
"""Steadiness report: run the benchmark on several seeds and show, per
workload and metric, the median, quartiles, spreads and run count.

    python3 ldbperf/steadiness.py --workloads tenant_tcp,fleet_triage,bigunit_cli \
        --seeds 1-10 --seconds 30 [--trace 0] [--out runs.json]

Run from the root of a checkout. The interquartile spread (Q3-Q1)/median
is what BENCHMARK.json's bounds are judged against; an end-to-end metric
is flagged when its spread is not within a third of its bound, or when
its range (max-min)/median does not repeat within a tenth.
"""
import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds(spec):
    out = []
    for part in spec.split(","):
        if "-" in part:
            lo, hi = part.split("-")
            out.extend(range(int(lo), int(hi) + 1))
        else:
            out.append(int(part))
    return out


def run_one(workload, seed, seconds, trace):
    cmd = ["bash", "ldbperf/run.sh", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    t = time.monotonic()
    p = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
    wall = time.monotonic() - t
    lines = p.stdout.strip().splitlines()
    for line in lines:
        if line.startswith("# FAIL"):
            print(f"{workload} seed {seed}: {line[2:]}", file=sys.stderr)
    if p.returncode != 0 or not lines:
        sys.exit(f"{' '.join(cmd)} failed ({p.returncode}):\n{p.stderr[-2000:]}")
    return json.loads(lines[-1]), wall


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workloads", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int, default=None)
    ap.add_argument("--trace", type=int, default=0)
    ap.add_argument("--out")
    a = ap.parse_args()
    bench = json.load(open("BENCHMARK.json"))
    seconds = a.seconds or bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    runs = {}
    bad = 0
    for w in a.workloads.split(","):
        runs[w] = []
        for s in seeds(a.seeds):
            r, wall = run_one(w, s, seconds, a.trace)
            runs[w].append({"seed": s, "wall_s": wall, "result": r})
            ok = r["correct"] and r["failed"] == 0
            bad += not ok
            print(f"{w} seed {s}: {wall:.1f}s correct={r['correct']} "
                  f"failed={r['failed']}/{r['attempted']}", file=sys.stderr)
    if a.out:
        json.dump(runs, open(a.out, "w"), indent=1)
    print(f"{'workload':<13} {'metric':<40} {'median':>12} {'q1':>12} {'q3':>12} "
          f"{'iqr/med':>8} {'rng/med':>8} {'bound':>6} {'runs':>4}  flag")
    listed = [m["name"] for m in bench["per_layer" if a.trace else "end_to_end"]]
    for w, rs in runs.items():
        names = list(rs[0]["result"]["metrics"])
        if names != listed:
            sys.exit(f"{w}: metrics {names} do not match BENCHMARK.json's {listed}")
        for name in names:
            vals = [r["result"]["metrics"][name]["value"] for r in rs]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
            iqr = (q3 - q1) / med if med else 0.0
            rng = (max(vals) - min(vals)) / med if med else 0.0
            bound = bounds.get(name)
            flag = ""
            if bound is not None:
                if name != "setup_s" and iqr > bound / 3:
                    flag += " SPREAD>bound/3"
                if rng > 0.1:
                    flag += " RANGE>0.1"
            b = f"{bound:.2f}" if bound is not None else "-"
            print(f"{w:<13} {name:<40} {med:>12.4f} {q1:>12.4f} {q3:>12.4f} "
                  f"{iqr:>8.4f} {rng:>8.4f} {b:>6} {len(vals):>4} {flag}")
    if bad:
        sys.exit(f"{bad} run(s) failed their output checks")


if __name__ == "__main__":
    main()
