#!/usr/bin/env python3
"""The benchmark's own tests, at tiny sizes (about a minute in all).

Run from the root of a source checkout:

    python3 csjbench/smoke_test.py

For every workload it checks that
  * an untraced run passes its correctness gates and prints exactly the
    end-to-end metrics of BENCHMARK.json, each with its declared unit;
  * a traced run does the same for the per-layer metrics;
  * a run told to corrupt one checked response fails its gate: a nonzero
    exit, "correct": false, and failed_ops_frac above zero.
It also checks that a directory holding only BENCHMARK.json and the
benchmark's files (no program sources) makes the benchmark exit nonzero
without printing a result.
"""

import json
import math
import os
import shutil
import subprocess
import sys

WORKLOADS = ("large_prescreen_read", "small_hot_open", "churn_durable")


def run(workload, trace, extra=(), cwd="."):
    command = [sys.executable, "csjbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace),
               "--smoke", "1", *extra]
    proc = subprocess.run(command, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, text=True, timeout=300)
    lines = proc.stdout.strip().split("\n") if proc.stdout.strip() else []
    return proc.returncode, lines, proc.stderr


def check_metrics(result, declared, label, failures):
    metrics = result["metrics"]
    if set(metrics) != set(declared):
        failures.append("%s: metrics %s, expected %s" % (
            label, sorted(set(metrics) ^ set(declared)), "the declared set"))
    for name, value in metrics.items():
        if name in declared and value.get("unit") != declared[name]:
            failures.append("%s: %s has unit %r, declared %r" % (
                label, name, value.get("unit"), declared[name]))
        number = value.get("value")
        if not isinstance(number, (int, float)) or not math.isfinite(number):
            failures.append("%s: %s is not a finite number" % (label, name))


def main():
    with open("BENCHMARK.json") as handle:
        spec = json.load(handle)
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    failures = []

    for workload in WORKLOADS:
        for trace, declared in ((0, end_to_end), (1, per_layer)):
            label = "%s trace=%d" % (workload, trace)
            code, lines, stderr = run(workload, trace)
            if code != 0 or not lines:
                failures.append("%s: exit %d\n%s" % (label, code, stderr[-2000:]))
                continue
            result = json.loads(lines[-1])
            if not result["correct"] or result["failed"] != 0:
                failures.append("%s: gates failed" % label)
            check_metrics(result, declared, label, failures)
            print("ok  %s (%d metrics)" % (label, len(result["metrics"])))

        label = "%s corrupt" % workload
        code, lines, _ = run(workload, 0, ("--corrupt", "0"))
        if code == 0 or len(lines) < 2:
            failures.append("%s: a corrupted response passed (exit %d)" %
                            (label, code))
        else:
            detail = json.loads(lines[-2])["detail"]
            result = json.loads(lines[-1])
            if result["correct"] or result["failed"] < 1 or \
                    detail["failed_ops_frac"] <= 0:
                failures.append("%s: the gate did not count the corruption" %
                                label)
            else:
                print("ok  %s (failed %d of %d)" % (
                    label, result["failed"], result["attempted"]))

    # Only BENCHMARK.json and the benchmark's own files: no program to build.
    bare = os.path.join(".bench_out", "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("csjbench", os.path.join(bare, "csjbench"))
    code, lines, _ = run(WORKLOADS[0], 0, cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    if code == 0 or lines:
        failures.append("bare directory: exit %d, %d stdout lines" %
                        (code, len(lines)))
    else:
        print("ok  bare directory exits %d without a result" % code)

    for failure in failures:
        print("FAIL " + failure)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
