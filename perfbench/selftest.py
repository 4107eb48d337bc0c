#!/usr/bin/env python3
"""Seed self-test for the perfbench benchmark.

    python3 perfbench/selftest.py [--seed N]

Runs every workload twice with the same seed, untraced and traced, for one
second each, and asserts that every exact metric (static and dynamic check
counts, audit findings, StatRegistry work deltas, cache lookups and hit
ratios) is bit-identical between the two runs, and that every run is
correct. Exits 1 on any difference.
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("compile-sweep", "cached-sweep", "execute-scaled")

# Metrics that are counts of work, not times: they depend only on the seed.
EXACT_PREFIXES = (
    "static_checks_residual", "dyn_checks_eliminated_pct.", "audit.findings",
    "work.", "cache.frontend_", "cache.analysis_", "cache.bytes",
    "lang.source_bytes", "frontend.naive_checks", "opt.residual_checks",
    "interp.dyn_instrs.", "interp.dyn_checks.",
)


def run(workload, seed, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=20261016)
    seed = ap.parse_args().seed
    problems = []
    for workload in WORKLOADS:
        for trace in (0, 1):
            first, second = run(workload, seed, trace), run(workload, seed, trace)
            exact = sorted(k for k in first["metrics"]
                           if k.startswith(EXACT_PREFIXES))
            for result in (first, second):
                if not result["correct"] or result["failed"]:
                    problems.append("%s trace=%d: run not correct"
                                    % (workload, trace))
            for k in exact:
                a = first["metrics"][k]["value"]
                b = second["metrics"].get(k, {}).get("value")
                if a != b:
                    problems.append("%s trace=%d: %s %r != %r"
                                    % (workload, trace, k, a, b))
            print("%s trace=%d: %d exact metrics compared"
                  % (workload, trace, len(exact)))
    for p in problems:
        print("MISMATCH " + p)
    print("selftest: %s" % ("FAIL" if problems else "ok"))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
