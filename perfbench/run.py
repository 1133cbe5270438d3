#!/usr/bin/env python3
"""Build and run the simulator benchmark for one workload.

    python3 perfbench/run.py --workload detailed-spec --seed 1 \
        --seconds 20 --trace 0

Run from the root of a source checkout. The first run configures and
builds the simulator libraries and the benchmark driver from the
checkout's own sources into $CARGO_TARGET_DIR (default `.bench_build`);
later runs rebuild only what changed. The driver's output is passed
through; its last line is the JSON result. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys

WORKLOADS = ("detailed-spec", "sampled-trace", "paper-grid")
BUILD_JOBS = "2"


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_quiet(cmd, cwd):
    """Run a build step; on failure show its output and stop."""
    proc = subprocess.run(cmd, cwd=cwd, stdout=subprocess.PIPE,
                          stderr=subprocess.STDOUT, text=True)
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout[-4000:])
        fail(f"'{' '.join(cmd)}' exited with {proc.returncode}")


def build(root, build_dir):
    if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
        run_quiet(["cmake", "-S", os.path.join(root, "perfbench"),
                   "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
                  root)
    run_quiet(["cmake", "--build", build_dir, "-j", BUILD_JOBS,
               "--target", "perfbench_driver", "perfbench_selftest"], root)
    run_quiet([os.path.join(build_dir, "perfbench_selftest")], root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "sim", "system.hh")):
        fail("run from the root of an spburst source checkout "
             "(src/sim/system.hh not found)")
    build_dir = os.path.join(
        root, os.environ.get("CARGO_TARGET_DIR") or ".bench_build",
        "perfbench")
    build(root, build_dir)
    workdir = os.path.join(build_dir, "work")
    os.makedirs(workdir, exist_ok=True)

    proc = subprocess.run(
        [os.path.join(build_dir, "perfbench_driver"),
         "--workload", args.workload, "--seed", str(args.seed),
         "--seconds", str(args.seconds), "--trace", str(args.trace),
         "--workdir", workdir],
        cwd=root, stdout=subprocess.PIPE, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stdout.write(proc.stdout)
        fail(f"driver exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if sorted(result) != ["attempted", "correct", "failed", "metrics"]:
        fail("driver printed no result line")
    sys.stdout.write(proc.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
