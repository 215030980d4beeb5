"""In-memory span tracer that instruments richelot from outside.

Every layer function is replaced, in every ``richelot.*`` namespace
that binds it, by a wrapper that records a span (name, start, end,
parent, raised) or, for the GF(p^2) primitives that run millions of
times per graph, only bumps a counter.  Nothing under ``src/`` is
edited: ``from .genus2 import canonical_key`` in ``graph.py`` binds the
same function object as ``genus2.canonical_key``, so the installer
replaces every module attribute that *is* the original object.

Spans stay in memory until the sample ends; ``summarize`` then turns
them into per-layer metrics and ``dump`` writes them out.
"""

from __future__ import annotations

import json
import sys
import time

SPAN = "span"
COUNT = "count"

# (span or counter name, module, attribute path, mode).  The layer of a
# name is the part before the first dot; it matches the module name.
# field.mul and field.inverse run ~3.4M and ~0.2M times in one p = 41
# graph build: they are counted, not spanned, so field.self_s is the
# self time of the exponentiation-based operations (pow, sqrt,
# is_square) only.
LAYER_FUNCTIONS = (
    ("field.mul", "richelot.field", "FieldElement.__mul__", COUNT),
    ("field.inverse", "richelot.field", "FieldElement.inverse", COUNT),
    ("field.sqrt", "richelot.field", "FieldElement.sqrt", SPAN),
    ("field.sqrt", "richelot.field", "ExtElement.sqrt", SPAN),
    ("field.pow", "richelot.field", "FieldElement.__pow__", SPAN),
    ("field.pow", "richelot.field", "ExtElement.__pow__", SPAN),
    ("field.is_square", "richelot.field", "FieldElement.is_square", SPAN),
    ("field.is_square", "richelot.field", "ExtElement.is_square", SPAN),
    ("poly.factor", "richelot.poly", "factor_quadratic_pieces", SPAN),
    ("poly.roots", "richelot.poly", "roots", SPAN),
    ("poly.squarefree", "richelot.poly", "is_squarefree", SPAN),
    ("poly.powmod", "richelot.poly", "Poly.powmod", SPAN),
    ("poly.gcd", "richelot.poly", "Poly.gcd", SPAN),
    ("elliptic.iso", "richelot.elliptic", "isomorphisms_with_torsion", SPAN),
    ("elliptic.j", "richelot.elliptic", "j_invariant", SPAN),
    ("elliptic.two_isogeny", "richelot.elliptic", "two_isogeny", SPAN),
    ("elliptic.curve_from_j", "richelot.elliptic", "curve_from_j", SPAN),
    ("elliptic.seed", "richelot.elliptic", "find_supersingular_seed", SPAN),
    ("genus2.canonical_key", "richelot.genus2", "canonical_key", SPAN),
    ("genus2.clebsch", "richelot.genus2", "clebsch_invariants", SPAN),
    ("genus2.splittings", "richelot.genus2", "splittings", SPAN),
    ("genus2.weierstrass", "richelot.genus2", "weierstrass_points", SPAN),
    ("genus2.ra_search", "richelot.genus2", "reduced_automorphisms", SPAN),
    ("genus2.moebius", "richelot.genus2", "moebius_stabilizing", SPAN),
    ("genus2.orbits", "richelot.genus2", "moebius_orbits_on_splittings",
     SPAN),
    ("genus2.pairing", "richelot.genus2", "splitting_pairing", SPAN),
    ("genus2.classify", "richelot.genus2", "ra_type_from_clebsch", SPAN),
    ("isogeny.delta", "richelot.isogeny", "delta", SPAN),
    ("isogeny.richelot", "richelot.isogeny", "richelot_generic", SPAN),
    ("isogeny.split", "richelot.isogeny", "split_degenerate", SPAN),
    ("gluing.kernel_orbits", "richelot.gluing", "kernel_orbits", SPAN),
    ("gluing.quotient_product", "richelot.gluing", "quotient_product", SPAN),
    ("gluing.quotient_diagonal", "richelot.gluing", "quotient_diagonal",
     SPAN),
    ("gluing.classify", "richelot.gluing", "ra_type_product_vertex", SPAN),
    ("graph.build", "richelot.graph", "build_graph", SPAN),
    ("graph.neighbourhood", "richelot.graph", "neighbourhood", SPAN),
    ("graph.dual_edge", "richelot.graph", "dual_edge", SPAN),
    ("graph.validate", "richelot.graph", "validate", SPAN),
    ("graph.export", "richelot.graph", "export", SPAN),
    ("census.expected", "richelot.census", "expected_counts", SPAN),
    ("census.compare", "richelot.census", "compare", SPAN),
    ("atlas.verify_case", "richelot.atlas", "verify_case", SPAN),
    ("atlas.normal_form", "richelot.atlas", "normal_form", SPAN),
)

LAYERS = ("field", "poly", "elliptic", "genus2", "isogeny", "gluing",
          "graph", "census", "atlas")

# lru_cache'd genus2 functions whose cache_info() is read around the
# traced region.
CACHED = (("genus2.clebsch", "clebsch_invariants"),
          ("genus2.splittings", "splittings"),
          ("genus2.weierstrass", "weierstrass_points"),
          ("genus2.ra_search", "reduced_automorphisms"))

DUAL_KINDS = ("jac", "glue", "split", "prod", "induced")


class Tracer:
    """Spans and counters of one traced sample, kept in memory."""

    def __init__(self):
        self.names = []
        self._name_index = {}
        self.spans = []    # (name index, start ns, end ns, parent, raised)
        self._stack = []
        self.counters = {}     # name -> one-element list
        self.bindings = {}     # name -> namespaces patched
        self.factor_inputs = set()
        self.key_results = set()
        self.export_bytes = 0
        self._cache_before = {}
        self._cache_after = {}
        self._key_cache_before = 0
        self._key_cache_after = 0

    def _index(self, name: str) -> int:
        idx = self._name_index.get(name)
        if idx is None:
            idx = self._name_index[name] = len(self.names)
            self.names.append(name)
        return idx

    def span(self, name, fn, name_of=None, observe=None):
        """Wrap fn so each call records one span.

        name_of(args) may refine the span name per call; observe(args,
        result) runs after the span closes, outside its timing.
        """
        spans, stack, clock = self.spans, self._stack, time.perf_counter_ns
        static = self._index(name)
        index = self._index

        def traced(*args, **kwargs):
            nm = static if name_of is None else index(name_of(args))
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            raised = True
            start = clock()
            try:
                out = fn(*args, **kwargs)
                raised = False
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (nm, start, end, parent, raised)
            if observe is not None:
                observe(args, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def counter(self, name, fn):
        """Wrap fn so each call bumps a counter (no span)."""
        cell = self.counters.setdefault(name, [0])

        def counted(*args):
            cell[0] += 1
            return fn(*args)

        counted.__wrapped__ = fn
        return counted

    # -- installation ----------------------------------------------------

    def install(self):
        """Replace every layer function in every richelot namespace."""
        from richelot import genus2
        observers = {
            "poly.factor": self._observe_factor,
            "genus2.canonical_key": self._observe_key,
            "graph.export": self._observe_export,
        }
        namespaces = [m for n, m in sorted(sys.modules.items())
                      if n == "richelot" or n.startswith("richelot.")]
        for name, modname, path, mode in LAYER_FUNCTIONS:
            owner = sys.modules[modname]
            if "." in path:
                clsname, attr = path.split(".")
                cls = getattr(owner, clsname)
                orig = cls.__dict__[attr]
                wrapped = self._wrap(name, orig, mode, observers)
                targets = [cls]
            else:
                orig = getattr(owner, path)
                wrapped = self._wrap(name, orig, mode, observers)
                targets = namespaces
            patched = self.bindings.setdefault(name, [])
            for ns in targets:
                for key, value in list(vars(ns).items()):
                    if value is orig:
                        setattr(ns, key, wrapped)
                        patched.append(f"{getattr(ns, '__name__', ns)}"
                                       f".{key}")
        for name, attr in CACHED:
            self._cache_before[name] = _cache_counts(genus2, attr)
        self._key_cache_before = len(genus2._KEY_CACHE)

    def _wrap(self, name, orig, mode, observers):
        if mode == COUNT:
            return self.counter(name, orig)
        name_of = _dual_edge_name if name == "graph.dual_edge" else None
        return self.span(name, orig, name_of=name_of,
                         observe=observers.get(name))

    def finish(self):
        """Read cache counters at the end of the traced region."""
        from richelot import genus2
        for name, attr in CACHED:
            self._cache_after[name] = _cache_counts(genus2, attr)
        self._key_cache_after = len(genus2._KEY_CACHE)

    def _observe_factor(self, args, _out):
        f = args[0]
        self.factor_inputs.add((f.ctx.p, f.key()))

    def _observe_key(self, _args, out):
        self.key_results.add(out)

    def _observe_export(self, _args, out):
        self.export_bytes += len(out.encode())

    # -- results -----------------------------------------------------------

    def summarize(self) -> dict:
        """Per-layer metrics from the recorded spans and counters."""
        names, spans = self.names, self.spans
        n = len(spans)
        child_ns = [0] * n
        for nm, start, end, parent, _ in spans:
            if parent >= 0:
                child_ns[parent] += end - start
        calls = {}
        incl_ns = {}
        layer_self_ns = dict.fromkeys(LAYERS, 0)
        for i, (nm, start, end, parent, _) in enumerate(spans):
            name = names[nm]
            calls[name] = calls.get(name, 0) + 1
            layer_self_ns[name.split(".")[0]] += end - start - child_ns[i]
            if not self._inside_same(i, nm):
                incl_ns[name] = incl_ns.get(name, 0) + end - start
        for name, cell in self.counters.items():
            calls[name] = cell[0]

        def c(name):
            return calls.get(name, 0)

        def s(name):
            return incl_ns.get(name, 0) / 1e9

        def ratio(num, den):
            return num / den if den else 0.0

        m = {}
        m["field.mul.calls"] = c("field.mul")
        m["field.inverse.calls"] = c("field.inverse")
        m["field.sqrt.calls"] = c("field.sqrt")
        m["field.sqrt.s"] = s("field.sqrt")
        m["field.pow.calls"] = c("field.pow")
        m["poly.factor.calls"] = c("poly.factor")
        m["poly.factor.s"] = s("poly.factor")
        m["poly.factor.per_curve"] = ratio(c("poly.factor"),
                                           len(self.factor_inputs))
        m["poly.roots.calls"] = c("poly.roots")
        m["poly.roots.s"] = s("poly.roots")
        m["poly.powmod.calls"] = c("poly.powmod")
        m["elliptic.iso.calls"] = c("elliptic.iso")
        m["elliptic.iso.s"] = s("elliptic.iso")
        m["elliptic.j.calls"] = c("elliptic.j")
        m["genus2.canonical_key.calls"] = c("genus2.canonical_key")
        m["genus2.canonical_key.s"] = s("genus2.canonical_key")
        m["genus2.canonical_key.useful_ratio"] = ratio(
            len(self.key_results), c("genus2.canonical_key"))
        m["genus2.canonical_key.scans"] = (self._key_cache_after
                                           - self._key_cache_before)
        for name, _ in CACHED:
            hits = self._cache_after[name][0] - self._cache_before[name][0]
            misses = (self._cache_after[name][1]
                      - self._cache_before[name][1])
            m[f"{name}.calls"] = c(name)
            m[f"{name}.s"] = s(name)
            m[f"{name}.hits"] = hits
            m[f"{name}.misses"] = misses
            m[f"{name}.hit_ratio"] = ratio(hits, hits + misses)
        m["genus2.moebius.calls"] = c("genus2.moebius")
        m["genus2.moebius.s"] = s("genus2.moebius")
        m["genus2.orbits.s"] = s("genus2.orbits")
        m["genus2.pairing.calls"] = c("genus2.pairing")
        m["genus2.pairing.s"] = s("genus2.pairing")
        for name in ("isogeny.richelot", "isogeny.split",
                     "gluing.kernel_orbits", "gluing.quotient_product",
                     "gluing.quotient_diagonal"):
            m[f"{name}.calls"] = c(name)
            m[f"{name}.s"] = s(name)
        kinds = [f"graph.dual_edge.{k}" for k in DUAL_KINDS]
        m["graph.dual_edge.calls"] = sum(c(k) for k in kinds)
        m["graph.dual_edge.s"] = sum(s(k) for k in kinds)
        for k in kinds:
            m[f"{k}.s"] = s(k)
        m["graph.dual_split.useful_ratio"] = self._dual_split_ratio()
        m["graph.build.s"] = s("graph.build")
        m["graph.validate.s"] = s("graph.validate")
        m["graph.neighbourhood.calls"] = c("graph.neighbourhood")
        m["graph.neighbourhood.s"] = s("graph.neighbourhood")
        m["graph.export.s"] = s("graph.export")
        m["graph.export.bytes"] = self.export_bytes
        m["census.compare.s"] = s("census.compare")
        m["atlas.verify_case.calls"] = c("atlas.verify_case")
        m["atlas.verify_case.s"] = s("atlas.verify_case")
        m["atlas.normal_form.calls"] = c("atlas.normal_form")
        m["atlas.attempt_ratio"] = ratio(c("atlas.normal_form"),
                                         c("atlas.verify_case"))
        for layer in LAYERS:
            m[f"{layer}.self_s"] = layer_self_ns[layer] / 1e9
        m["trace.spans"] = n
        return m

    def layer_calls(self) -> dict:
        """Calls recorded per layer, spans and counters together."""
        out = dict.fromkeys(LAYERS, 0)
        for nm, *_ in self.spans:
            out[self.names[nm].split(".")[0]] += 1
        for name, cell in self.counters.items():
            out[name.split(".")[0]] += cell[0]
        return out

    def _inside_same(self, i: int, nm: int) -> bool:
        """True if span i has an ancestor of the same name (its time is
        already inside that ancestor's inclusive time)."""
        spans = self.spans
        parent = spans[i][3]
        while parent >= 0:
            if spans[parent][0] == nm:
                return True
            parent = spans[parent][3]
        return False

    def _dual_split_ratio(self) -> float:
        """Split duals resolved per quotient_diagonal attempt made
        inside the split branch of dual_edge."""
        split = self._name_index.get("graph.dual_edge.split")
        diag = self._name_index.get("gluing.quotient_diagonal")
        if split is None or diag is None:
            return 0.0
        spans = self.spans
        resolved = sum(1 for sp in spans if sp[0] == split and not sp[4])
        attempts = 0
        for nm, _, _, parent, _ in spans:
            if nm != diag:
                continue
            while parent >= 0:
                if spans[parent][0] == split:
                    attempts += 1
                    break
                parent = spans[parent][3]
        return resolved / attempts if attempts else 0.0

    def dump(self, path):
        """Write the spans, times relative to the first span, as JSON."""
        base = self.spans[0][1] if self.spans else 0
        doc = {"names": self.names,
               "fields": ["name", "start_ns", "end_ns", "parent", "raised"],
               "spans": [[nm, a - base, b - base, parent, int(raised)]
                         for nm, a, b, parent, raised in self.spans],
               "counters": {k: v[0] for k, v in self.counters.items()},
               "bindings": self.bindings}
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def _cache_counts(module, attr):
    info = getattr(module, attr).__wrapped__.cache_info()
    return info.hits, info.misses


def _dual_edge_name(args) -> str:
    return f"graph.dual_edge.{args[1].hint[0]}"
