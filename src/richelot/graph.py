"""The weighted (2,2)-isogeny multigraph over GF(p^2).

Vertices are isomorphism classes of principally polarized abelian
surfaces: Jacobians keyed by their canonical Clebsch tuple, elliptic
products keyed by the unordered pair of j-invariants.  Edges are
reduced-automorphism orbits of kernels, weighted by orbit size;
orbits with equal endpoints are kept separate, as in the source
tables.  Each edge records the quotient it computed and the dual
kernel on that quotient.  build_graph runs a breadth-first closure from
a supersingular product seed; validate checks 15-regularity, the ratio
principle, dual involutivity (transporting each recorded dual kernel
onto the target's representative), and classifier agreement.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field

from .census import expected_counts
from .elliptic import EllipticCurveE2, j_invariant, find_supersingular_seed
from .field import FieldCtx
from .genus2 import (Genus2Curve, JACOBIAN_ORDER_TO_TYPE, RA_ORDER,
                     QuadraticSplitting, canonical_key, clebsch_invariants,
                     matching_index, moebius_frames,
                     moebius_orbits_on_splittings, moebius_stabilizing,
                     point_splittings, ra_type_from_clebsch,
                     splitting_points, splitting_root_pairs,
                     weierstrass_points)
from .gluing import (ProductKernel, ProductQuotient, ProductSurface,
                     kernel_index, kernel_maps, kernel_orbits,
                     product_kernels, quotient_diagonal, quotient_product,
                     ra_order_product, ra_type_product_vertex)
from .isogeny import delta, richelot_generic, split_degenerate


class GraphError(ValueError):
    """Inconsistent graph state; indicates a bug, not a valid input."""


@dataclass(frozen=True, order=True)
class VertexKey:
    """Canonical identifier of a PPAS isomorphism class."""

    kind: str  # "jacobian" | "product"
    data: tuple

    @classmethod
    def jacobian(cls, curve: Genus2Curve) -> "VertexKey":
        return cls("jacobian", canonical_key(clebsch_invariants(curve)))

    @classmethod
    def product(cls, j1, j2) -> "VertexKey":
        return cls("product", tuple(sorted([j1.key(), j2.key()])))

    @classmethod
    def of_surface(cls, S: ProductSurface) -> "VertexKey":
        return cls.product(j_invariant(S.E1), j_invariant(S.E2))

    @classmethod
    def of(cls, rep) -> "VertexKey":
        if isinstance(rep, Genus2Curve):
            return cls.jacobian(rep)
        if isinstance(rep, ProductSurface):
            return cls.of_surface(rep)
        raise GraphError(f"unsupported representative {rep!r}")

    def as_string(self) -> str:
        tag = "jac" if self.kind == "jacobian" else "prod"
        coords = ";".join(f"{a}.{b}" for a, b in self.data)
        return f"{tag}:{coords}"

    def short_hash(self) -> str:
        return hashlib.sha256(self.as_string().encode()).hexdigest()[:8]


@dataclass
class OrbitEdge:
    """One reduced-automorphism orbit of kernels out of a vertex.

    hint is (kind, codomain, dual): the quotient by kernel_rep as
    computed (Genus2Curve | ProductSurface) and the dual kernel on it
    (a QuadraticSplitting or a product kernel's label).
    kind ("jac", "glue", "split", "prod", "induced") names the step
    that built the edge; it is informational only.  kernels labels the
    orbit's kernels, kernel_rep's first, by small ints: a Jacobian's by
    the genus2.MATCHINGS index of their matching of its sorted points,
    a product's by their index in gluing.product_kernels().
    """

    source: VertexKey
    target: VertexKey
    weight: int
    kernel_rep: object  # QuadraticSplitting | ProductKernel
    is_loop: bool
    hint: tuple = field(repr=False, default=())
    kernels: tuple = field(repr=False, default=())

    def sort_key(self):
        return (self.source, self.target, self.weight, str(self.kernel_rep))


@dataclass
class Vertex:
    """A graph vertex; Jacobians also hold their Weierstrass points.

    A Jacobian's points are its sorted Weierstrass points, frames their
    moebius_frames, and ra_maps its RA maps as index maps of the points,
    read off the frames once: reduced_automorphisms of the
    representative.  edges are the orbit edges out of the vertex;
    kernel_to_edge is the 15-tuple of their edges by kernel label
    (OrbitEdge.kernels), for dual_edge to look duals up in.  build_graph
    fills in both when it expands the vertex.
    """

    key: VertexKey
    representative: object  # Genus2Curve | ProductSurface
    ra_type: str
    ra_order: int
    points: tuple = field(default=None, repr=False)
    frames: dict = field(default=None, repr=False)
    ra_maps: list = field(default=None, repr=False)
    edges: list = field(default_factory=list)
    kernel_to_edge: tuple = ()


@dataclass
class Graph:
    p: int
    vertices: dict  # VertexKey -> Vertex (insertion = discovery order)
    edges: list     # all OrbitEdges

    def vertex(self, key: VertexKey) -> Vertex:
        return self.vertices[key]


def ra_type_of(rep) -> str:
    """RA type of a vertex representative (Genus2Curve or
    ProductSurface)."""
    if isinstance(rep, Genus2Curve):
        return ra_type_from_clebsch(clebsch_invariants(rep))
    return ra_type_product_vertex(j_invariant(rep.E1), j_invariant(rep.E2))


def _make_vertex(key: VertexKey, rep, dual=None) -> Vertex:
    """The vertex record of rep.  A Jacobian's points are the block roots
    of dual: the splitting on the edge that reached it, or the one given
    to neighbourhood.  Only seeds and bare curves are factored."""
    ra_type = ra_type_of(rep)
    if key.kind != "jacobian":
        return Vertex(key=key, representative=rep, ra_type=ra_type,
                      ra_order=ra_order_product(ra_type))
    pts = splitting_points(dual) if dual else weierstrass_points(rep)
    frames = moebius_frames(rep.ctx, pts)
    maps = moebius_stabilizing(rep.ctx, pts, frames)
    return Vertex(key=key, representative=rep, ra_type=ra_type,
                  ra_order=len(maps), points=pts, frames=frames,
                  ra_maps=maps)


def neighbourhood(rep) -> list:
    """Orbit edges out of a vertex representative.

    rep is a Genus2Curve, a ProductSurface, or a QuadraticSplitting
    standing for the Jacobian of its curve(), whose Weierstrass points
    are read off its blocks; only a bare curve is factored.
    For Jacobians: the reduced automorphisms permute the 15 rational
    splittings; one Richelot or splitting step per orbit.  For
    products: the torsion action groups the 15 product/diagonal
    kernels; one Velu or gluing step per orbit.
    """
    dual = None
    if isinstance(rep, QuadraticSplitting):
        rep, dual = rep.curve(), rep
    return _expand(_make_vertex(VertexKey.of(rep), rep, dual))


def _expand(v: Vertex):
    """The orbit edges out of v."""
    if v.key.kind == "jacobian":
        return _expand_jacobian(v)
    return _expand_product(v)


def _orbit_edges(src: VertexKey, orbits, kernels, labels, step):
    """One edge per orbit, built by step(kernel) -> (target, hint) on
    the orbit's first kernel; it carries labels[i] for each kernels[i]
    in the orbit."""
    edges = []
    for orbit in orbits:
        k = kernels[orbit[0]]
        tgt, hint = step(k)
        edges.append(OrbitEdge(
            source=src, target=tgt, weight=len(orbit), kernel_rep=k,
            is_loop=(src == tgt), hint=hint,
            kernels=tuple(labels[i] for i in orbit)))
    return edges


def _expand_jacobian(v: Vertex):
    f = v.representative.f
    spls, labels = zip(*point_splittings(f.ctx, (), v.points, f.leading()))
    orbits = moebius_orbits_on_splittings(labels, v.ra_maps)
    return _orbit_edges(v.key, orbits, spls, labels, _jacobian_step)


def _jacobian_step(spl):
    d = delta(spl)
    if not d.is_zero():
        cod = richelot_generic(spl, d)
        return VertexKey.jacobian(cod.curve), ("jac", cod.curve, cod.dual)
    sp = split_degenerate(spl, d)
    S = ProductSurface(sp.E, sp.E2)
    # the i <-> i matching generates the dual kernel
    return VertexKey.of_surface(S), (
        "split", S, kernel_index(ProductKernel.diagonal((1, 2, 3))))


def _expand_product(v: Vertex):
    S, src = v.representative, v.key

    def step(k):
        if k.kind == "product":
            q = quotient_product(S, k)
            # both Velu codomains carry the dual point as their first
            # root, so the dual kernel is K(1,1)
            return (VertexKey.of_surface(q.surface),
                    ("prod", q.surface,
                     kernel_index(ProductKernel.product(1, 1))))
        res = quotient_diagonal(S, k)
        if isinstance(res, ProductQuotient):
            # isomorphism-induced: the quotient is S again, and its
            # identification maps the kernel onto itself (self-dual)
            return src, ("induced", S, kernel_index(k))
        return VertexKey.jacobian(res.curve), ("glue", res.curve, res.dual)

    return _orbit_edges(src, kernel_orbits(S), product_kernels(), range(15),
                        step)


def build_graph(ctx: FieldCtx, seed=None) -> Graph:
    """Breadth-first closure of the superspecial (2,2)-graph.

    The default seed is E x E for the deterministic supersingular
    curve of find_supersingular_seed; any superspecial vertex
    representative may be passed instead (the closure is the same:
    the superspecial graph is connected).  Raises GraphError once it
    holds more vertices than the census counts.
    """
    if seed is None:
        E = find_supersingular_seed(ctx)
        seed = ProductSurface(E, E)
    if isinstance(seed, EllipticCurveE2):
        seed = ProductSurface(seed, seed)
    key = VertexKey.of(seed)
    g = Graph(p=ctx.p, vertices={}, edges=[])
    bound = expected_counts(ctx.p).total()
    g.vertices[key] = _make_vertex(key, seed)
    queue = [key]
    qpos = 0
    while qpos < len(queue):
        cur = queue[qpos]
        qpos += 1
        v = g.vertices[cur]
        v.edges = _expand(v)
        edge_of = {k: e for e in v.edges for k in e.kernels}
        v.kernel_to_edge = tuple(edge_of[k] for k in range(15))
        g.edges.extend(v.edges)
        fresh = []
        for e in v.edges:
            if e.target not in g.vertices:
                g.vertices[e.target] = _make_vertex(e.target, e.hint[1],
                                                    e.hint[2])
                fresh.append(e.target)
        if len(g.vertices) > bound:
            raise GraphError(f"{len(g.vertices)} vertices found at p = "
                             f"{ctx.p}, but the census counts {bound}")
        queue.extend(sorted(set(fresh)))
    return g


# ---------------------------------------------------------------------------
# Dual edges


def _transport_pairing(target: Vertex, spl) -> int:
    """The kernel label on the Jacobian vertex target of a splitting of
    an edge's codomain, isomorphic to target's representative.

    Any Moebius map carrying the codomain's Weierstrass set onto the
    representative's will do: two differ by an automorphism, which keeps
    the image in its orbit.  The codomain's points are the roots of
    spl's blocks, listed pair by pair, and the first index map that
    moebius_stabilizing reads off the target's frames moves the pairs.
    """
    pairs = splitting_root_pairs(spl)
    maps = moebius_stabilizing(spl.ctx, sum(pairs, ()), target.frames)
    if not maps:
        raise GraphError("no Moebius map between isomorphic models")
    m = maps[0]
    return matching_index(zip(m[0::2], m[1::2]))


def dual_edge(g: Graph, e: OrbitEdge) -> OrbitEdge:
    """The orbit edge at e.target containing the dual kernel of e.

    The dual kernel recorded on e's codomain is moved onto the target's
    representative by an isomorphism and looked up there: a Jacobian's
    by _transport_pairing, a product's label by the first kernel_maps
    label map.  Any isomorphism will do: two differ by an automorphism
    of the target, which keeps the kernel inside its orbit.  Every step
    records its dual, as every step stays in GF(p^2).
    """
    tgt = g.vertex(e.target)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    _, codomain, dual = e.hint
    if isinstance(codomain, Genus2Curve):
        kernel = _transport_pairing(tgt, dual)
    else:
        kmap = next(kernel_maps(codomain, tgt.representative), None)
        if kmap is None:
            raise GraphError("codomain factors do not match target product")
        kernel = kmap[dual]
    return tgt.kernel_to_edge[kernel]


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    checks: list  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.checks)

    def summary(self) -> str:
        lines = []
        for name, okay, detail in self.checks:
            status = "PASS" if okay else "FAIL"
            lines.append(f"[{status}] {name}: {detail}")
        return "\n".join(lines)


def validate(g: Graph) -> ValidationReport:
    """Structural validators: regularity, ratio principle, duals,
    classifier agreement.  Failures are report entries, not raises."""
    checks = []

    bad = []
    for key, v in g.vertices.items():
        wsum = sum(e.weight for e in v.edges)
        if wsum != 15:
            bad.append((key.as_string(), wsum))
    checks.append(("15-regularity",
                   not bad,
                   f"{len(g.vertices)} vertices all have out-weight 15"
                   if not bad else f"violations: {bad}"))

    ratio_bad = []
    involution_bad = []
    dual_err = []
    duals = {}
    for e in g.edges:
        try:
            duals[id(e)] = dual_edge(g, e)
        except GraphError as exc:
            dual_err.append((e.sort_key(), str(exc)))
    for e in g.edges:
        d = duals.get(id(e))
        if d is None:
            continue
        lhs = g.vertex(e.source).ra_order * d.weight
        rhs = g.vertex(e.target).ra_order * e.weight
        if lhs != rhs:
            ratio_bad.append((e.sort_key(), lhs, rhs))
        if duals.get(id(d)) is not e:
            involution_bad.append(e.sort_key())
    checks.append(("dual-edges well-defined", not dual_err,
                   f"{len(g.edges)} edges" if not dual_err
                   else f"failures: {dual_err[:3]}"))
    checks.append(("ratio principle", not ratio_bad,
                   "exact on every edge" if not ratio_bad
                   else f"violations: {ratio_bad[:3]}"))
    checks.append(("dual involution", not involution_bad,
                   "dual(dual(e)) = e" if not involution_bad
                   else f"violations: {involution_bad[:3]}"))

    cls_bad = []
    for key, v in g.vertices.items():
        if key.kind != "jacobian":
            continue
        # ra_type came from the Clebsch classifier, ra_order from the
        # Moebius search; agreement means they name the same type
        t_from_order = JACOBIAN_ORDER_TO_TYPE.get(v.ra_order)
        if v.ra_type != t_from_order or RA_ORDER[v.ra_type] != v.ra_order:
            cls_bad.append((key.as_string(), v.ra_type, v.ra_order))
    checks.append(("classifier agreement", not cls_bad,
                   "Clebsch and Moebius classifiers agree at every "
                   "Jacobian vertex" if not cls_bad
                   else f"violations: {cls_bad[:3]}"))
    return ValidationReport(checks)


# ---------------------------------------------------------------------------
# Export


def export(g: Graph, fmt: str) -> str:
    """Serialize the graph; byte-stable for a fixed graph."""
    if fmt == "json":
        return _export_json(g)
    if fmt == "dot":
        return _export_dot(g)
    raise GraphError(f"unknown export format {fmt!r}")


def _sorted_vertex_rows(g: Graph):
    rows = []
    for key, v in g.vertices.items():
        rows.append({"key": key.as_string(), "kind": key.kind,
                     "ra_type": v.ra_type, "ra_order": v.ra_order})
    rows.sort(key=lambda r: r["key"])
    return rows


def _sorted_edge_rows(g: Graph):
    rows = []
    for e in g.edges:
        rows.append({"src": e.source.as_string(),
                     "dst": e.target.as_string(),
                     "weight": e.weight, "loop": e.is_loop})
    rows.sort(key=lambda r: (r["src"], r["dst"], r["weight"]))
    return rows


def _export_json(g: Graph) -> str:
    doc = {"p": g.p, "vertices": _sorted_vertex_rows(g),
           "edges": _sorted_edge_rows(g)}
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _export_dot(g: Graph) -> str:
    lines = [f'digraph richelot_{g.p} {{']
    names = {}
    for key in sorted(g.vertices):
        v = g.vertices[key]
        name = f'v{key.short_hash()}'
        names[key] = name
        lines.append(f'  {name} [label="{v.ra_type}/{key.short_hash()}"];')
    for e in sorted(g.edges, key=OrbitEdge.sort_key):
        lines.append(f'  {names[e.source]} -> {names[e.target]} '
                     f'[label="{e.weight}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
