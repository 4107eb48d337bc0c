#!/usr/bin/env python3
"""Builds the perfbench binary from source and runs one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. The first run configures and builds
perfbench/ (which compiles ../src) into .bench_build/perfbench; later runs
only rebuild what changed. Build output goes to stderr, so the last line
of stdout is the benchmark's JSON result. With --trace 1 the span file is
written to .bench_out/<workload>.spans.json. See perfbench/README.md.
"""

import argparse
import fcntl
import os
import shutil
import subprocess
import sys

WORKLOADS = ("compile-sweep", "cached-sweep", "execute-scaled")
BUILD_JOBS = 3


def fail(msg):
    print("perfbench/run.py: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root, build_dir):
    """Configures (once) and builds the binary; returns its path."""
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        fail("no compiler sources at %s/src; run from a full checkout" % root)
    if shutil.which("cmake") is None:
        fail("cmake not found")
    os.makedirs(build_dir, exist_ok=True)
    # Serialise concurrent first runs on one build tree.
    with open(os.path.join(build_dir, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not os.path.isfile(os.path.join(build_dir, "CMakeCache.txt")):
            cmd = ["cmake", "-S", os.path.join(root, "perfbench"),
                   "-B", build_dir, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
            if shutil.which("ninja"):
                cmd += ["-G", "Ninja"]
            if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
                fail("configure failed")
        cmd = ["cmake", "--build", build_dir, "--target", "perfbench",
               "-j", str(BUILD_JOBS)]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            fail("build failed")
    return os.path.join(build_dir, "perfbench")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = ap.parse_args()
    if args.seed < 0 or not 1 <= args.seconds <= 120:
        fail("--seed must be >= 0 and --seconds in 1..120")

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    exe = build(root, os.path.join(root, ".bench_build", "perfbench"))

    cmd = [exe, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    if args.trace:
        out_dir = os.path.join(root, ".bench_out")
        os.makedirs(out_dir, exist_ok=True)
        cmd += ["--span-file",
                os.path.join(out_dir, args.workload + ".spans.json")]
    sys.stdout.flush()
    sys.exit(subprocess.run(cmd, cwd=root).returncode)


if __name__ == "__main__":
    main()
