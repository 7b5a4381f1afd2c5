#!/usr/bin/env python3
"""Builds and runs the partdb benchmark (see README.md in this directory).

Run from the repository root:

    python3 bench_partdb/run.py --workload kv_mem --seed 1 --seconds 10 --trace 0

The binary is built (Release) into $CARGO_TARGET_DIR, or .bench_build when
that is unset. Each run writes its full result to <build>/results/ (the
input of compare.py) and, with --trace 1, its spans next to it. The last
line of stdout is the run's JSON summary; the exit code is non-zero when the
build fails or a correctness check does.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("kv_mem", "kv_log", "tpcc_durable", "kv_net")
RUN_TIMEOUT_S = 175


def build(build_dir):
    """Configures (once) and builds the benchmark; build output goes to stderr."""
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", build_dir, "--target", "partdb_bench",
           "-j", str(os.cpu_count() or 1)]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()

    if not os.path.exists(os.path.join(HERE, "..", "src", "db", "database.h")):
        print("bench_partdb: partdb sources (src/) not found next to bench_partdb/",
              file=sys.stderr)
        return 2
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    work_dir = os.path.join(build_dir, "work", str(os.getpid()))
    if not build(build_dir):
        print("bench_partdb: build failed", file=sys.stderr)
        return 2

    results = os.path.join(build_dir, "results")
    os.makedirs(results, exist_ok=True)
    stem = os.path.join(results, f"{args.workload}-seed{args.seed}-trace{args.trace}")
    cmd = [os.path.join(build_dir, "partdb_bench"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--json", stem + ".json",
           "--work_dir", work_dir]
    if args.trace:
        cmd += ["--trace_out", stem + ".trace.json"]
    sys.stdout.flush()
    try:
        return subprocess.run(cmd, timeout=RUN_TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench_partdb: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 3
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
