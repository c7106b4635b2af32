#!/usr/bin/env python3
"""Builds the benchmark driver from this checkout's sources and runs one workload.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload mcu-sweep --seed 2014 --seconds 30 --trace 0

Workloads: mcu-sweep, big-flow, daemon-mix (see perfbench/README.md). The
driver's human-readable lines go to stdout, and its last stdout line is the
JSON result {correct, attempted, failed, metrics}. Build output goes to
stderr. The build tree, span files, digest lists of each run and the daemon's
store directories live under .bench_build/ in the checkout.

Exits non-zero, without printing a result, when the build or the run fails
(for example in a directory that holds only the benchmark, without ../src).
"""

import argparse
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD_DIR = os.path.join(BUILD_ROOT, "perfbench")
# Relative to ROOT (the driver's working directory), which keeps the daemon's
# socket path short enough for sun_path whatever the checkout's location.
WORK_DIR = os.path.join(".bench_build", "work")
DRIVER = os.path.join(BUILD_DIR, "perfbench_driver")
WORKLOADS = ("mcu-sweep", "big-flow", "daemon-mix")

# A run ends within 180 s; the first one in a checkout also builds.
BUILD_TIMEOUT_S = 840
RUN_TIMEOUT_S = 170


def build():
    jobs = str(max(1, min(os.cpu_count() or 1, 4)))
    steps = []
    if not os.path.exists(DRIVER):
        steps.append(["cmake", "-S", HERE, "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench_driver", "-j", jobs])
    for step in steps:
        done = subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=BUILD_TIMEOUT_S, check=False)
        if done.returncode != 0:
            return False
    return os.path.exists(DRIVER)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    if not build():
        print("perfbench: build failed", file=sys.stderr)
        return 1
    os.makedirs(os.path.join(ROOT, WORK_DIR), exist_ok=True)
    command = [DRIVER, "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", WORK_DIR,
               "--digest-dir", os.path.join("perfbench", "digests")]
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              timeout=RUN_TIMEOUT_S, check=False, text=True)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the driver before raising.
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 1
    if done.returncode != 0:
        sys.stderr.write(done.stdout)
        print("perfbench: driver exited with %d" % done.returncode,
              file=sys.stderr)
        return 1
    sys.stdout.write(done.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
