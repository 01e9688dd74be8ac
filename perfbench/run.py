#!/usr/bin/env python3
"""Builds the keq benchmark from source and runs one workload.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The benchmark is a CMake package of its own (perfbench/CMakeLists.txt)
that compiles the library sources under src/; it is configured and built
into .bench_build/ on first use and brought up to date on every run.
Build output goes to stderr, so the last line of stdout is always the
benchmark's JSON result. Extra arguments (e.g. --input-seed N) are passed
to the benchmark binary unchanged.
"""

import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD_DIR = ".bench_build"
RUN_TIMEOUT_S = 170


def build():
    """Configures (once) and builds the benchmark; returns success."""
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.exists(os.path.join(ROOT, BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target", "keq_perfbench",
                  "-j", jobs])
    for step in steps:
        done = subprocess.run(step, cwd=ROOT, stdout=sys.stderr,
                              stderr=sys.stderr)
        if done.returncode != 0:
            print("perfbench: build step failed: " + " ".join(step),
                  file=sys.stderr)
            return False
    return True


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args, rest = parser.parse_known_args()
    if not build():
        return 2

    command = [os.path.join(BUILD_DIR, "keq_perfbench"),
               "--workload", args.workload, "--seconds", repr(args.seconds),
               "--trace", str(args.trace), "--workdir", BUILD_DIR] + rest
    try:
        done = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded %d s" % RUN_TIMEOUT_S, file=sys.stderr)
        return 3
    sys.stdout.write(done.stdout)
    if done.returncode == 0 and not done.stdout.strip():
        return 2
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
