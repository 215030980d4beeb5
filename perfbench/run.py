"""Benchmark entry point for richelot: runs one workload, prints one JSON line.

    python3 perfbench/run.py --workload graph|lookup|atlas --seed N \
        --seconds S --trace 0|1

Every sample runs in a fresh interpreter (perfbench/child.py), one at a
time.  graph and atlas samples are cold processes: the lru_caches and
_KEY_CACHE in genus2 are process-global, so a second build in the same
process would measure a different program.  lookup samples are warm by
design: each builds its reference graph during set-up, then times
queries.

--trace 0 prints the end-to-end metrics of BENCHMARK.json (medians over
the run's samples).  --trace 1 runs one traced sample of fixed size,
then untraced samples for the rest of the time, and prints the
per-layer metrics of the traced sample plus the tracing overhead
(traced minus untraced median, per end-to-end metric).

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
A failed check makes the run exit 1; a missing src/ or child crash
exits 2 without a result line.  Raw samples and metadata are written
to perfbench/results/.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"

WORKLOADS = ("graph", "lookup", "atlas")
MIN_SAMPLES = 3          # samples per untraced run, even past --seconds
CHILD_TIMEOUT_S = 150
RUN_CAP_S = 165          # no sample is planned to end after this


class BenchError(RuntimeError):
    """The benchmark could not run (no result line is printed)."""


def spawn(workload, seed, sample, trace, extra=(), spans_out=None):
    """Run one child sample to completion and return its JSON result."""
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", workload,
           "--seed", str(seed), "--sample", str(sample),
           "--trace", str(trace), *extra]
    if spans_out:
        cmd += ["--spans-out", str(spans_out)]
    env = dict(os.environ)
    env["RICHELOT_SEED"] = f"{seed}.{sample}"
    t0 = time.monotonic()
    cmd += ["--t0", repr(t0)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, env=env,
                              cwd=ROOT, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"sample {sample} of {workload} timed out") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"sample {sample} of {workload} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["wall_s"] = time.monotonic() - t0
    return out


def untraced_samples(workload, seed, seconds, minimum=MIN_SAMPLES):
    """Samples until the next one would overrun the run's time."""
    start = time.monotonic()
    samples = []
    while True:
        now = time.monotonic() - start
        if len(samples) >= minimum:
            est = statistics.median(s["wall_s"] for s in samples)
            if now + est > min(seconds, RUN_CAP_S):
                break
        samples.append(spawn(workload, seed, len(samples), 0))
    return samples


def e2e(samples, workload, raw=False) -> dict:
    """End-to-end metrics of a list of samples (scaled or raw times)."""
    med = statistics.median

    def get(s, key):
        return s["raw"][key] if raw else s[key]

    m = {"setup_s": med(get(s, "setup_s") for s in samples),
         "peak_rss_mb": med(s["rss_mb"] for s in samples)}
    if workload == "lookup":
        lat = [x for s in samples for x in get(s, "latencies_ms")]
        m["primary_ms"] = med(lat)
        m["secondary_ms"] = statistics.quantiles(lat, n=10)[-1]
    elif workload == "atlas":
        m["primary_ms"] = med(get(s, "primary_ms") for s in samples)
        m["secondary_ms"] = med(x for s in samples
                                for x in get(s, "case_ms"))
    else:
        m["primary_ms"] = med(get(s, "primary_ms") for s in samples)
        m["secondary_ms"] = med(get(s, "secondary_ms") for s in samples)
    return m


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def src_lines() -> int:
    return sum(len(p.read_text().splitlines())
               for p in sorted((SRC / "richelot").glob("*.py")))


def run(args) -> int:
    if not (SRC / "richelot" / "__init__.py").is_file():
        raise BenchError(f"no richelot sources under {SRC}")
    spec = load_spec()
    # Byte-compile once so no timed child pays for it.
    compileall.compile_dir(str(SRC), quiet=2)
    RESULTS.mkdir(exist_ok=True)
    start = time.monotonic()
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_out = RESULTS / f"{tag}-spans.json"

    traced = None
    if args.trace:
        traced = spawn(args.workload, args.seed, 0, 1,
                       spans_out=spans_out)
        rest = args.seconds - (time.monotonic() - start)
        samples = untraced_samples(args.workload, args.seed, rest,
                                   minimum=1)
    else:
        samples = untraced_samples(args.workload, args.seed, args.seconds)

    everything = samples + ([traced] if traced else [])
    attempted = sum(s["checks"]["attempted"] for s in everything)
    failed = sum(s["checks"]["failed"] for s in everything)
    failures = [f for s in everything for f in s["checks"]["failures"]]
    untraced = e2e(samples, args.workload)
    untraced_raw = e2e(samples, args.workload, raw=True)
    # A traced sample runs without speed probes: compare raw times.
    traced_raw = e2e([traced], args.workload, raw=True) if traced else None

    if args.trace:
        metrics = dict(traced["layers"])
        metrics["fail_ratio"] = failed / attempted
        for name in untraced_raw:
            metrics[f"trace.overhead.{name}"] = (traced_raw[name]
                                                 - untraced_raw[name])
        unreached = traced["unreached"]
        expected = spec["per_layer"]
    else:
        metrics = untraced
        unreached = []
        expected = spec["end_to_end"]

    units = {m["name"]: m["unit"] for m in expected}
    if set(units) != set(metrics):
        raise BenchError("metrics do not match BENCHMARK.json: "
                         f"missing {sorted(set(units) - set(metrics))}, "
                         f"extra {sorted(set(metrics) - set(units))}")
    correct = failed == 0 and not unreached
    meta = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "nproc": os.cpu_count(),
        "src_lines": src_lines(),
        "samples": len(samples),
        "queries": sum(s["meta"].get("queries", 0) for s in samples),
        "sample_meta": samples[0]["meta"],
        "untraced": untraced,
        "untraced_raw": untraced_raw,
        "traced_raw": traced_raw,
        "probe_ms": statistics.median(s["probe_ms"] for s in samples),
        "layer_calls": traced["layer_calls"] if traced else None,
        "unreached_layers": unreached,
        "failures": failures[:10],
        "elapsed_s": time.monotonic() - start,
    }
    with open(RESULTS / f"{tag}.json", "w") as fh:
        json.dump({"meta": meta, "samples": samples, "traced": traced},
                  fh, indent=1)
    print(json.dumps({"meta": meta}))
    for f in failures[:10]:
        print(f"FAILED: {f}", file=sys.stderr)
    if unreached:
        print(f"FAILED: traced sample made no calls into {unreached}",
              file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]}
                          for k in sorted(metrics)}}
    print(json.dumps(result))
    return 0 if correct else 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")
    try:
        return run(args)
    except (BenchError, OSError, ValueError) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
