#!/usr/bin/env python3
"""Steadiness check of the repo benchmark.

    python3 perfbench/steadiness.py [--runs 10] [--workloads a,b] [--seed0 1]

Run from the repository root. Runs every workload `--runs` times (seeds
seed0, seed0+1, ...), alternating the workload order from one round to the
next, and prints for each end-to-end metric the median, the first and third
quartiles (statistics.quantiles(values, n=4)) and the quartile spread as a
share of the median, next to the metric's bound in BENCHMARK.json, and the
values in run order (a slow spell of the host shows as a run of low
values). A spread above its bound is marked; setup_s is exempt from the
spread rule (only its median is compared between commits). Also reports whether every run was
correct and the share of failed operations per workload.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(command, workload, seed, seconds, trace=0):
    proc = subprocess.run(
        command + ["--workload", workload, "--seed", str(seed),
                   "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
    try:
        return json.loads(lines[-1])  # an incorrect run still reports
    except (IndexError, ValueError):
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}, "
                         "no result")


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default="")
    parser.add_argument("--seed0", type=int, default=1)
    args = parser.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    workloads = [w["name"] for w in bench["workloads"]]
    if args.workloads:
        workloads = [w for w in args.workloads.split(",") if w]
    values = {w: {m["name"]: [] for m in bench["end_to_end"]}
              for w in workloads}
    shares = {w: [] for w in workloads}
    correct = {w: True for w in workloads}

    for i in range(args.runs):
        order = workloads if i % 2 == 0 else list(reversed(workloads))
        for w in order:
            res = run_once(bench["command"], w, args.seed0 + i,
                           bench["run_seconds"])
            correct[w] = correct[w] and res["correct"]
            shares[w].append(res["failed"] / res["attempted"])
            for name, metric in res["metrics"].items():
                values[w][name].append(metric["value"])
        print(f"round {i + 1}/{args.runs} done", file=sys.stderr)

    ok = True
    for w in workloads:
        print(f"{w}: correct={correct[w]} failed share="
              f"{sorted(set(shares[w]))}")
        for m in bench["end_to_end"]:
            v = values[w][m["name"]]
            q1, q2, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / q2 if q2 else float("inf")
            exempt = m["name"] == "setup_s"
            mark = ""
            if spread > m["bound"] and not exempt:
                mark, ok = "  OVER BOUND", False
            elif spread > m["bound"] / 3 and not exempt:
                mark = "  (above a third of bound)"
            print(f"  {m['name']:<14} median {q2:12.5g} {m['unit']:<4} "
                  f"q1 {q1:12.5g} q3 {q3:12.5g} spread {spread:6.3f} "
                  f"bound {m['bound']:.2f}{mark}")
            print("    in run order: " + " ".join(f"{x:.5g}" for x in v))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
