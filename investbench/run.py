#!/usr/bin/env python3
"""Builds the investigation benchmark from source and runs one workload.

Run from the root of a source checkout:

    python3 investbench/run.py --workload hunt-hot --seed 1 --seconds 10 --trace 0

The build goes to .bench_build/investbench (configured on first use, then
rebuilt incrementally). Every run first executes the benchmark's arithmetic
self-tests. The last line of standard output is the benchmark's JSON
result; build output and progress go to standard error. The exit code is
non-zero when the build, the self-tests or any correctness check fails.
"""

import argparse
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "investbench")
WORKLOADS = ("hunt-hot", "hunt-cold", "ingest-hunt")
# A run must end within 180 s; the build of a fresh checkout is separate.
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds; returns True on success."""
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", "4",
                  "--target", "investbench", "investbench_selftest"])
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr,
                          cwd=ROOT).returncode != 0:
            return False
    return True


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not build():
        print("investbench: build failed", file=sys.stderr)
        return 1
    if subprocess.run([os.path.join(BUILD, "investbench_selftest")],
                      stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
        print("investbench: self-tests failed", file=sys.stderr)
        return 1

    # The benchmark writes its run-health line and spans next to its work
    # directory, in .bench_build/work, which outlives the run.
    work = os.path.join(BUILD_ROOT, "work",
                        "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    command = [os.path.join(BUILD, "investbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--work-dir", work]
    try:
        proc = subprocess.run(command, stdout=subprocess.PIPE,
                              stderr=sys.stderr, cwd=ROOT, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills and reaps the child before raising.
        print("investbench: run timed out", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        # Relay what the run printed (a failed check still reports its
        # result line) and fail.
        sys.stdout.write(proc.stdout)
        return proc.returncode or 1
    print(lines[-1])
    return 0


if __name__ == "__main__":
    sys.exit(main())
