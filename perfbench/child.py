"""One benchmark sample, run in a fresh interpreter by run.py.

    python3 perfbench/child.py --workload graph --seed 1 --sample 0 \
        --trace 0 --t0 <parent time.monotonic() at spawn>

Prints one JSON line: the sample's timings (scaled to reference host
speed, see speed.py, and raw), peak RSS, the correctness checks it made
and, when traced, its per-layer metrics.  A traced sample runs without
speed probes, so its spans hold only richelot work, and reports raw
times.  Exit code 0 means the sample ran; failed checks are reported,
not raised.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(HERE))

from speed import SpeedClock  # noqa: E402

# One cold p = 41 build + validate takes about 5 s on a 2-core host, so a
# 30 s run holds five or more cold samples (p = 53 would hold two).
GRAPH_PRIME = 41
LOOKUP_PRIME = 41
# Every atlas case, Type II included, needs 5 | p^2 - 1: both primes
# satisfy it, so no case is skipped.
ATLAS_PRIMES = (101, 109)
LOOKUP_QUERIES = 150   # queries generated and sent by each lookup sample
LOOKUP_TRACED = 100    # leading queries that a traced lookup sample sends


class Checks:
    """Correctness checks made by one sample."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def add(self, ok: bool, detail: str):
        self.attempted += 1
        if not ok:
            self.failures.append(detail)

    def as_dict(self) -> dict:
        return {"attempted": self.attempted,
                "failed": len(self.failures),
                "failures": self.failures[:5]}


class Timer:
    """Timed intervals of one sample, scaled once the sample ends."""

    def __init__(self, t0: float, clock):
        self.t0 = t0              # parent's time.monotonic() at spawn
        self.clock = clock        # SpeedClock, or None when traced
        self.setup = None
        self.intervals = {}

    def setup_done(self):
        """Mark the first timed call: set-up runs from spawn to here."""
        now = time.perf_counter()
        self.setup = (now - (time.monotonic() - self.t0), now)

    def add(self, name: str, start: float):
        """Record the interval [start, now] under name."""
        self.intervals.setdefault(name, []).append(
            (start, time.perf_counter()))

    def results(self):
        """{name: [(scaled, raw) seconds]} including "setup"."""
        if self.clock:
            self.clock.stop()
        out = {}
        for name, spans in [("setup", [self.setup])] + list(
                self.intervals.items()):
            out[name] = [self.clock.scaled(a, b) if self.clock
                         else (b - a, b - a) for a, b in spans]
        return out


def import_richelot():
    """Import richelot from this checkout's src/, never from elsewhere.

    The package __init__ does not import atlas; importing it here puts
    every layer module in sys.modules before the tracer patches them.
    """
    sys.path.insert(0, str(SRC))
    import richelot
    if Path(richelot.__file__).resolve().parent != SRC / "richelot":
        raise ImportError(f"richelot imported from {richelot.__file__}")
    import richelot.atlas  # noqa: F401


# ---------------------------------------------------------------------------
# graph: cold build -> compare -> export -> validate


def run_graph(args, timer, tracer):
    from richelot import census, field, graph
    p = GRAPH_PRIME
    ctx = field.make_field(p)
    timer.setup_done()
    t = time.perf_counter()
    g = graph.build_graph(ctx)
    timer.add("build", t)
    expected = census.expected_counts(p)
    report = census.compare(g, expected)
    text = graph.export(g, "json")
    t = time.perf_counter()
    val = graph.validate(g)
    timer.add("validate", t)
    if tracer:
        tracer.finish()

    checks = Checks()
    for rtype, exp, obs in report.rows:
        checks.add(exp == obs, f"census {rtype}: expected {exp}, got {obs}")
    checks.add(len(g.vertices) == expected.total(),
               f"{len(g.vertices)} vertices, census total "
               f"{expected.total()}")
    for key, v in g.vertices.items():
        w = sum(e.weight for e in v.edges)
        checks.add(w == 15, f"out-weight {w} at {key.as_string()}")
    for name, ok, detail in val.checks:
        checks.add(ok, f"validate {name}: {detail}")
    checks.add(json.loads(text)["p"] == p, "export names the wrong prime")
    return checks, {"prime": p, "vertices": len(g.vertices),
                    "edges": len(g.edges), "export_bytes": len(text)}


# ---------------------------------------------------------------------------
# lookup: warm process, one client, fresh random models of graph vertices


def _random_model(rep, rng, ctx):
    """A random isomorphic model of a vertex representative."""
    from richelot.elliptic import EllipticCurveE2
    from richelot.genus2 import Genus2Curve, transform_curve
    from richelot.gluing import ProductSurface
    p = ctx.p

    def element():
        return ctx.element(rng.randrange(p), rng.randrange(p))

    if isinstance(rep, Genus2Curve):
        while True:
            a, b, c, d = element(), element(), element(), element()
            if not (a * d - b * c).is_zero():
                return transform_curve(rep, a, b, c, d)

    def model(E):
        u = element()
        while u.is_zero():
            u = element()
        u, t = u * u, element()
        roots = [u * r + t for r in E.roots()]
        rng.shuffle(roots)
        return EllipticCurveE2(*roots)

    E1, E2 = model(rep.E1), model(rep.E2)
    if rng.random() < 0.5:
        E1, E2 = E2, E1
    return ProductSurface(E1, E2)


def _answer(edges):
    return sorted((e.weight, e.target) for e in edges)


def run_lookup(args, timer, tracer):
    from richelot import field, graph
    p = LOOKUP_PRIME
    ctx = field.make_field(p)
    g = graph.build_graph(ctx)
    keys = list(g.vertices)
    rng = random.Random(f"lookup|{args.seed}|{args.sample}")
    queries = []
    for _ in range(LOOKUP_QUERIES):
        key = keys[rng.randrange(len(keys))]
        queries.append((key, _random_model(g.vertex(key).representative,
                                           rng, ctx)))
    if tracer:
        queries = queries[:LOOKUP_TRACED]
        tracer.install()
    checks = Checks()
    kinds = {"jacobian": 0, "product": 0}
    timer.setup_done()
    for key, rep in queries:
        t = time.perf_counter()
        try:
            got = _answer(graph.neighbourhood(rep))
        except ValueError as exc:
            got = f"{type(exc).__name__}: {exc}"
        timer.add("query", t)
        kinds[key.kind] += 1
        checks.add(got == _answer(g.vertex(key).edges),
                   f"neighbourhood of {key.as_string()} model {rep!r}")
    if tracer:
        tracer.finish()
    return checks, {"prime": p, "vertices": len(g.vertices),
                    "edges": len(g.edges), "queries": len(queries),
                    "queries_by_kind": kinds}


# ---------------------------------------------------------------------------
# atlas: cold process, every case at each prime


def run_atlas(args, timer, tracer):
    from richelot import atlas, field
    ctxs = [field.make_field(p) for p in ATLAS_PRIMES]
    checks = Checks()
    timer.setup_done()
    for ctx in ctxs:
        for case in atlas.ALL_CASES:
            t = time.perf_counter()
            try:
                rep = atlas.verify_case(case, ctx)
                ok, detail = rep.ok, rep.summary()
            except atlas.AtlasError as exc:
                ok, detail = False, f"case {case} at p={ctx.p}: {exc}"
            timer.add("case", t)
            checks.add(ok, detail)
    if tracer:
        tracer.finish()
    return checks, {"primes": list(ATLAS_PRIMES),
                    "cases": len(atlas.ALL_CASES),
                    "richelot_seed": os.environ.get("RICHELOT_SEED")}


WORKLOADS = {"graph": run_graph, "lookup": run_lookup, "atlas": run_atlas}

# Layers each workload must reach; a traced sample with zero calls into
# one of them means a wrapper missed a binding.
REACHED = {
    "graph": ("field", "poly", "elliptic", "genus2", "isogeny", "gluing",
              "graph", "census"),
    "lookup": ("field", "poly", "elliptic", "genus2", "isogeny", "gluing",
               "graph"),
    "atlas": ("field", "poly", "elliptic", "genus2", "isogeny", "gluing",
              "graph", "atlas"),
}


def summarize(workload, timed, which) -> dict:
    """The sample's end-to-end values; which = 0 scaled, 1 raw."""
    ms = {name: [v[which] * 1e3 for v in vals]
          for name, vals in timed.items()}
    out = {"setup_s": ms["setup"][0] / 1e3}
    if workload == "graph":
        out["primary_ms"] = ms["build"][0]
        out["secondary_ms"] = ms["validate"][0]
    elif workload == "lookup":
        out["latencies_ms"] = ms["query"]
    else:
        out["primary_ms"] = sum(ms["case"])
        out["case_ms"] = ms["case"]
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--sample", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--t0", type=float, required=True)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    clock = None if args.trace else SpeedClock()
    import_richelot()
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        if args.workload != "lookup":   # lookup traces queries only
            tracer.install()
    timer = Timer(args.t0, clock)
    checks, meta = WORKLOADS[args.workload](args, timer, tracer)
    timed = timer.results()
    out = summarize(args.workload, timed, 0)
    out["raw"] = summarize(args.workload, timed, 1)
    out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    out["checks"] = checks.as_dict()
    out["meta"] = meta
    if clock:
        out["probe_ms"] = statistics.median(d for _, d in clock.probes) * 1e3
    if tracer:
        out["layers"] = tracer.summarize()
        out["layer_calls"] = tracer.layer_calls()
        out["unreached"] = [layer for layer in REACHED[args.workload]
                            if out["layer_calls"][layer] == 0]
        if args.spans_out:
            tracer.dump(args.spans_out)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
