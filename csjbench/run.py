#!/usr/bin/env python3
"""Builds the csjoin benchmark program from source and runs one workload.

Run from the root of a source checkout:

    python3 csjbench/run.py --workload large_prescreen_read --seed 1 \
        --seconds 20 --trace 0

The program is configured and compiled into $CARGO_TARGET_DIR (default
.bench_build) on first use; later runs only re-link what changed. The
program's output is passed through; its last line is the JSON result
({"correct", "attempted", "failed", "metrics"}). Scratch stores and trace
files go to .bench_out. The exit status is the program's: 0 only when every
correctness gate passed.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

WORKLOADS = ("large_prescreen_read", "small_hot_open", "churn_durable")
RUN_TIMEOUT_S = 175


def log(message):
    print(message, file=sys.stderr, flush=True)


def source_stamp(root):
    """The git commit when there is one, else a digest of the sources."""
    try:
        sha = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
            text=True, check=True).stdout.strip()
        if sha:
            return sha
    except (OSError, subprocess.CalledProcessError):
        pass
    digest = hashlib.sha1()
    for top in ("src", "csjbench"):
        for directory, dirs, files in sorted(os.walk(os.path.join(root, top))):
            dirs.sort()
            for name in sorted(files):
                path = os.path.join(directory, name)
                digest.update(os.path.relpath(path, root).encode())
                with open(path, "rb") as handle:
                    digest.update(handle.read())
    return "src-" + digest.hexdigest()[:12]


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        configure = ["cmake", "-S", os.path.join(root, "csjbench"), "-B",
                     build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(configure, stdout=sys.stderr).returncode != 0:
            return None
    compile_ = ["cmake", "--build", build_dir, "--target", "csjbench", "-j",
                str(min(4, os.cpu_count() or 1))]
    if subprocess.run(compile_, stdout=sys.stderr).returncode != 0:
        return None
    return os.path.join(build_dir, "csjbench")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", type=int, choices=(0, 1), default=0,
                        help="tiny sizes, for the benchmark's own tests")
    parser.add_argument("--corrupt", type=int, default=-1,
                        help="damage the n-th checked response (tests)")
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        log("csjbench: run from the root of a csjoin checkout (no src/)")
        return 2
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(root, build_dir)
    if binary is None:
        log("csjbench: build failed")
        return 3

    env = dict(os.environ, CSJBENCH_GIT_SHA=source_stamp(root))
    command = [binary, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", os.path.join(root, ".bench_out")]
    if args.smoke:
        command += ["--smoke", "1"]
    if args.corrupt >= 0:
        command += ["--corrupt", str(args.corrupt)]
    try:
        run = subprocess.run(command, stdout=subprocess.PIPE, text=True,
                             env=env, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("csjbench: run exceeded %d s" % RUN_TIMEOUT_S)
        return 4

    lines = run.stdout.rstrip("\n").split("\n")
    try:
        result = json.loads(lines[-1])
        if set(result) != {"correct", "attempted", "failed", "metrics"}:
            raise ValueError("unexpected keys")
    except ValueError as error:
        log("csjbench: no result line (%s); exit status %d" %
            (error, run.returncode))
        return run.returncode or 5
    sys.stdout.write(run.stdout)
    sys.stdout.flush()
    return run.returncode


if __name__ == "__main__":
    sys.exit(main())
