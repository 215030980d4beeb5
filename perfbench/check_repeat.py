"""Exact-count check: traced counters must repeat for a fixed seed.

    python3 perfbench/check_repeat.py [--seed N] [--seconds S] [workload ...]

Runs each workload's traced benchmark twice with the same seed and
requires every per-layer metric whose unit is a count or bytes (every
*.calls, cache hit/miss, key-scan, span and export-byte counter) to
read exactly the same.  Timings on a shared host vary from run to run;
these counters are the per-layer numbers that do not.  Exits 1 on any
difference.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("graph", "lookup", "atlas")
EXACT_UNITS = ("count", "bytes")


def traced_metrics(workload, seed, seconds) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT,
                          timeout=300)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run failed (exit {proc.returncode})"
                         f"\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("workloads", nargs="*", default=list(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=1)
    args = ap.parse_args(argv)
    bad = 0
    for workload in args.workloads:
        first = traced_metrics(workload, args.seed, args.seconds)
        second = traced_metrics(workload, args.seed, args.seconds)
        exact = sorted(k for k, v in first.items()
                       if v["unit"] in EXACT_UNITS)
        diffs = [(k, first[k]["value"], second[k]["value"]) for k in exact
                 if first[k]["value"] != second[k]["value"]]
        for k, a, b in diffs:
            print(f"{workload}: {k} differs: {a} vs {b}")
        bad += len(diffs)
        print(f"{workload}: {len(exact) - len(diffs)}/{len(exact)} "
              f"counters repeat exactly")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
