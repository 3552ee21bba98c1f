#!/usr/bin/env python3
"""Build and run the host-speed benchmark.

    python3 perfbench/run.py --workload jbb|srv|mc --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds perfbench/ (and the simulator
sources under src/ it compiles) into .bench_build/perfbench/build, then
runs the driver, whose last stdout line is the result JSON.  Exits
non-zero, without a result, when the sources or golden CSVs are missing or
the build fails; non-zero with a result when a correctness check failed.
"""
import argparse
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build", "perfbench", "build")
OUT = os.path.join(ROOT, ".bench_build", "perfbench", "out")
BINARY = os.path.join(BUILD, "perfbench")
REQUIRED = ["src/sim/engine.h", "fig4_specjbb.csv", "fig5_srv.csv"]
BUILD_JOBS = "4"
DRIVER_TIMEOUT_S = 170


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(1)


def run_quiet(cmd, timeout):
    """Runs a build step with its output on stderr (stdout carries only the result)."""
    try:
        return subprocess.run(cmd, cwd=ROOT, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout).returncode
    except subprocess.TimeoutExpired:
        return -1


def build():
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        if run_quiet(["cmake", "-S", os.path.join(ROOT, "perfbench"), "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"], 300) != 0:
            fail("cmake configure failed")
    if run_quiet(["cmake", "--build", BUILD, "-j", BUILD_JOBS], 840) != 0:
        fail("build failed")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=["jbb", "srv", "mc"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=[0, 1])
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")

    missing = [p for p in REQUIRED if not os.path.exists(os.path.join(ROOT, p))]
    if missing:
        fail("not a checkout of the repository (missing %s)" % ", ".join(missing))
    build()

    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--root", ROOT, "--out", OUT]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("driver exceeded %d s" % DRIVER_TIMEOUT_S)
    sys.exit(proc.returncode)


if __name__ == "__main__":
    main()
