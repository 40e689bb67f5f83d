#!/usr/bin/env python3
"""Build perfbench from source, then run one workload.

Usage, from the repository root:

    python3 perfbench/run.py --workload city|metro --seed N \
        --seconds S --trace 0|1

The Release build goes to $CARGO_TARGET_DIR when set, else .bench_build.
Build output goes to stderr. Standard output is the benchmark binary's: its
comment lines, then one JSON result as the last line. The exit code is the
binary's (1 on a fingerprint mismatch); a failed build exits 1 and prints
no result.
"""

import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
RUN_TIMEOUT_S = 170


def build(build_dir):
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")) or not (
        os.path.exists(os.path.join(build_dir, "build.ninja"))
        or os.path.exists(os.path.join(build_dir, "Makefile"))
    ):
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        subprocess.run(
            ["cmake", "-S", HERE, "-B", build_dir,
             "-DCMAKE_BUILD_TYPE=Release", *generator],
            stdout=sys.stderr, check=True)
    subprocess.run(
        ["cmake", "--build", build_dir, "--target", "perfbench",
         "-j", str(os.cpu_count() or 1)],
        stdout=sys.stderr, check=True)
    return os.path.join(build_dir, "perfbench")


def main():
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    try:
        binary = build(build_dir)
    except (OSError, subprocess.CalledProcessError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 1
    refs = os.path.join(HERE, "reference.txt")
    try:
        done = subprocess.run([binary, *sys.argv[1:], "--refs", refs],
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: run exceeded {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
