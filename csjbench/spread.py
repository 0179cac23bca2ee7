#!/usr/bin/env python3
"""Run-to-run spread of the benchmark, for its steadiness record.

Runs csjbench/run.py once per (workload, seed) from the root of a source
checkout and prints, per workload and metric, the median, the quartiles
(statistics.quantiles with n=4) and the interquartile spread as a share of
the median, next to the metric's bound from BENCHMARK.json:

    python3 csjbench/spread.py --seeds 1-10 --trace 0 \
        --workloads large_prescreen_read,small_hot_open --json spread.json

A spread is flagged when it exceeds a third of the bound (setup_s is
reported but not held to its bound, as the run-to-run gate exempts it).
With --trace 1 the per-layer metrics are summarized instead (no bounds).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time


def seeds_of(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    start = time.monotonic()
    run = subprocess.run(
        [sys.executable, "csjbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True)
    wall = time.monotonic() - start
    lines = run.stdout.strip().split("\n")
    if run.returncode != 0 or len(lines) < 2:
        return None, None, wall
    return json.loads(lines[-2])["detail"], json.loads(lines[-1]), wall


def summarize(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3, (q3 - q1) / median if median else float("inf")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, default=0)
    parser.add_argument("--json", default="")
    args = parser.parse_args()

    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    record = {}
    ok = True
    for workload in args.workloads.split(","):
        runs = []
        for seed in seeds_of(args.seeds):
            detail, result, wall = run_once(workload, seed, spec["run_seconds"],
                                            args.trace)
            if result is None or not result["correct"]:
                print("%s seed %d: FAILED run" % (workload, seed))
                ok = False
                continue
            runs.append({"seed": seed, "wall_s": wall, "detail": detail,
                         "metrics": {k: v["value"] for k, v in
                                     result["metrics"].items()}})
            print("%s seed %d: %.1f s" % (workload, seed, wall), flush=True)
        record[workload] = runs
        if len(runs) < 2:
            continue
        print("\n%s (%d runs, wall median %.1f s)" % (
            workload, len(runs), statistics.median(r["wall_s"] for r in runs)))
        names = sorted(runs[0]["metrics"])
        for name in names:
            median, q1, q3, spread = summarize(
                [r["metrics"][name] for r in runs])
            bound = bounds.get(name) if args.trace == 0 else None
            flag = ""
            if bound is not None and name != "setup_s" and spread > bound / 3:
                flag = "  <-- above bound/3"
                ok = False
            print("  %-40s median %-12.6g q1 %-12.6g q3 %-12.6g spread %.4f%s"
                  % (name, median, q1, q3, spread,
                     "" if bound is None else " (bound %.2f)%s" % (bound, flag)))
        for key in ("lateness_p50_ms", "lateness_p99_ms", "topk_samples",
                    "upsert_samples", "write_lateness_p99_ms"):
            values = [r["detail"][key] for r in runs if key in r["detail"]]
            if len(values) >= 2:
                median, q1, q3, _ = summarize(values)
                print("  detail %-33s median %-12.6g q1 %-12.6g q3 %.6g"
                      % (key, median, q1, q3))
    if args.json:
        with open(args.json, "w") as handle:
            json.dump(record, handle, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
