#!/usr/bin/env python3
"""Build and run the luqr end-to-end benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the repository root. The harness (perfbench/luqr_perfbench.cpp)
is built from source with CMake into .bench_build/perfbench on first use;
later runs only re-check the build. Build output goes to stderr, so the
last line of stdout is the harness's JSON result. Span files of traced runs
land in .bench_build/traces. The exit code is the harness's: nonzero when
any operation failed, when the build fails, or when the library sources
are missing.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = ROOT / "perfbench"
BUILD_DIR = ROOT / ".bench_build" / "perfbench"
TRACE_DIR = ROOT / ".bench_build" / "traces"
BINARY = BUILD_DIR / "luqr_perfbench"
WORKLOADS = ("hybrid-default", "lu-fine", "serve-requests", "serve-batch")
HARNESS_TIMEOUT_S = 170


def build():
    """Configure (once) and build the harness; return False on failure."""
    if not (ROOT / "src" / "api" / "solver.hpp").is_file():
        print("perfbench: library sources (src/) not found next to perfbench/",
              file=sys.stderr)
        return False
    steps = []
    if not (BUILD_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(BUILD_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(BUILD_DIR), "--target",
                  "luqr_perfbench", "-j", "4"])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            print("perfbench: build step failed: " + " ".join(cmd),
                  file=sys.stderr)
            return False
    return BINARY.is_file()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not build():
        return 2
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    cmd = [str(BINARY), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--trace-dir", str(TRACE_DIR)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=HARNESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        # subprocess.run kills the child and waits for it before raising.
        print("perfbench: harness exceeded %d s" % HARNESS_TIMEOUT_S,
              file=sys.stderr)
        return 3
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
