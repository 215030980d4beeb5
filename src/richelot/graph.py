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
onto the target's representative), classifier agreement, the mass
formula and the Frobenius mirror: sigma(a + b*i) = a - b*i maps the
graph onto itself, as steps have GF(p) coefficients and keys are
Galois-stable, so _expand derives each edge whose sigma-image it knows.
Each isogeny A -> B has a dual B -> A, so build_graph also derives the
orbit at B that holds the dual of an edge from an expanded A: every
edge is stepped at most once.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial

from .census import expected_counts
from .elliptic import EllipticCurveE2, j_invariant, find_supersingular_seed
from .field import FieldCtx, FieldElement
from .genus2 import (INF, Genus2Curve, JACOBIAN_ORDER_TO_TYPE, RA_ORDER,
                     QuadraticSplitting, canonical_key, clebsch_invariants,
                     matching_action, matching_index, moebius_frames,
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

    def conjugate(self, p: int) -> "VertexKey":
        """The key of the class's Frobenius image; a pair is re-sorted."""
        data = tuple((a, -b % p) for a, b in self.data)
        return VertexKey(self.kind, data if self.kind == "jacobian"
                         else tuple(sorted(data)))

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
    (a QuadraticSplitting or a product kernel's label).  An edge derived
    from its Frobenius partner e has hint sigma(e.hint), the quotient by
    another kernel of its orbit, whose dual lies in the same orbit.
    kind ("jac", "glue", "split", "prod", "induced") names the step
    that built the edge, and "dual" an edge derived from the edge e it
    is dual to: its hint is e's source's representative, a model of the
    quotient, and e's kernel_rep (or, at a product, its label) on it.
    kind is informational only.  kernels labels the orbit's kernels,
    kernel_rep's first, by small ints: a Jacobian's by the
    genus2.MATCHINGS index of their matching of its sorted points, a
    product's by their index in gluing.product_kernels().
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
    maps = list(moebius_stabilizing(rep.ctx, pts, frames))
    return Vertex(key=key, representative=rep, ra_type=ra_type,
                  ra_order=len(maps), points=pts, frames=frames,
                  ra_maps=maps)


def neighbourhood(rep) -> list:
    """Orbit edges out of a vertex representative.

    rep is a Genus2Curve, a ProductSurface, or a QuadraticSplitting
    standing for the Jacobian of its curve(), whose Weierstrass points
    are read off its blocks; only a bare curve is factored.
    For Jacobians: the reduced automorphisms permute the 15 rational
    splittings; for products: the torsion action groups the 15
    product/diagonal kernels.  One edge per orbit (_expand); when sigma
    fixes the vertex, half its sigma-paired orbits are derived.
    """
    dual = None
    if isinstance(rep, QuadraticSplitting):
        rep, dual = rep.curve(), rep
    return _expand(_make_vertex(VertexKey.of(rep), rep, dual))


def _expand(v: Vertex, vertices=None, incoming=()) -> list:
    """The orbit edges out of v, one per RA orbit of its 15 kernels.

    An orbit holding the dual (_dual_label) of an edge e in incoming,
    which runs into v from the expanded vertex s, takes target s and
    hint ("dual", s's representative, e's kernel on it).  Else an orbit
    holding the Frobenius images (_frobenius_labels) of the kernels of a
    known edge e takes target sigma(e.target) and hint sigma(e.hint);
    every other orbit steps on its first kernel.  Known edges are those
    of sigma(v), if expanded (in vertices), when no dual is read, or, if
    sigma fixes v, v's earlier orbits.  Raises GraphError if an orbit
    holds two duals, maps from two edges, or names a target other than
    its partner's image, or if sigma moves a self-paired orbit's target.
    """
    if v.key.kind == "jacobian":
        f = v.representative.f
        reps, labels = zip(*point_splittings(f.ctx, (), v.points, f.leading()))
        orbits = moebius_orbits_on_splittings(labels, v.ra_maps)
        step = _jacobian_step
    else:
        reps, labels = product_kernels(), range(15)
        orbits = kernel_orbits(v.representative)
        step = partial(_product_step, v)
    p = v.representative.ctx.p
    u = (vertices or {v.key: v}).get(v.key.conjugate(p))
    act = u and (u is v or u.edges) and _frobenius_labels(u, v)
    # at a sigma-fixed vertex u is v, whose edges are not yet made
    known = {act[k]: e for e in u.edges for k in e.kernels} if act else {}
    duals = [] if known else [(_dual_label(v, d.hint), d) for d in incoming]
    edges = []
    for orbit in orbits:
        ks = tuple(labels[i] for i in orbit)
        e = known.get(ks[0])
        if any(known.get(k) is not e for k in ks):
            raise GraphError(f"orbit {ks} at {v.key.as_string()} maps "
                             "from two Frobenius partner edges")
        held = [d for k, d in duals if k in ks]
        if len(held) > 1:
            raise GraphError(f"orbit {ks} at {v.key.as_string()} holds "
                             f"the duals of {len(held)} edges")
        if held:
            d, s = held[0], vertices[held[0].source]
            tgt, hint = s.key, ("dual", s.representative,
                                d.kernel_rep if s.points else d.kernels[0])
            if e is not None and e.target.conjugate(p) != tgt:
                raise GraphError(f"orbit {ks} at {v.key.as_string()} is "
                                 f"dual to an edge from {tgt.as_string()}"
                                 ", not its Frobenius partner's image")
        else:
            tgt, hint = step(reps[orbit[0]]) if e is None else (
                e.target.conjugate(p), _conjugate_hint(e.hint))
        edges.append(OrbitEdge(
            source=v.key, target=tgt, weight=len(orbit),
            kernel_rep=reps[orbit[0]], is_loop=(v.key == tgt),
            hint=hint, kernels=ks))
        if u is v and e is None:
            if act[ks[0]] in ks and tgt.conjugate(p) != tgt:
                raise GraphError(f"sigma moves {tgt.as_string()}, the "
                                 f"target of self-paired orbit {ks}")
            known.update((act[k], edges[-1]) for k in ks)
    return edges


def _conjugate(x):
    """sigma of a point (INF is fixed), a splitting or a product."""
    if isinstance(x, QuadraticSplitting):
        p = x.ctx.p
        return QuadraticSplitting.make(
            [tuple((a, -b % p) for a, b in g) for g in x.blocks],
            _conjugate(x.scale))
    if isinstance(x, ProductSurface):
        return ProductSurface(*(EllipticCurveE2(*map(_conjugate, E.roots()))
                                for E in (x.E1, x.E2)))
    return x if x is INF else FieldElement(x.ctx, x.a, -x.b % x.ctx.p)


def _conjugate_hint(hint):
    """sigma of a hint; a codomain curve's coefficients are conjugated."""
    kind, codomain, dual = hint
    if isinstance(codomain, Genus2Curve):
        return kind, codomain.conjugate(), _conjugate(dual)
    return kind, _conjugate(codomain), dual


def _frobenius_labels(u: Vertex, v: Vertex) -> tuple:
    """act: act[l] is the label at v of sigma(kernel l of u), for u of
    class sigma(v), by the first isomorphism from sigma(u) onto v."""
    if u.points is None:
        return _first_map(_conjugate(u.representative), v)
    return matching_action(tuple(_first_map(
        [_conjugate(x) for x in u.points], v)))


def _first_map(src, v: Vertex):
    """The first isomorphism onto v's representative: from the points
    src of a model, as an index map (moebius_stabilizing on v's frames),
    or from the product src, as a kernel_maps label map."""
    if v.points is None:
        m = next(kernel_maps(src, v.representative), None)
    else:
        m = next(iter(moebius_stabilizing(v.representative.ctx, src,
                                          v.frames)), None)
    if m is None:
        raise GraphError(f"no isomorphism onto {v.key.as_string()}: the "
                         "models do not match")
    return m


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


def _product_step(v: Vertex, k):
    S = v.representative
    if k.kind == "product":
        q = quotient_product(S, k)
        # both Velu codomains carry the dual point as their first root,
        # so the dual kernel is K(1,1)
        dual = kernel_index(ProductKernel.product(1, 1))
        return VertexKey.of_surface(q.surface), ("prod", q.surface, dual)
    res = quotient_diagonal(S, k)
    if isinstance(res, ProductQuotient):
        # isomorphism-induced: the quotient is S again, and its
        # identification maps the kernel onto itself (self-dual)
        return v.key, ("induced", S, kernel_index(k))
    return VertexKey.jacobian(res.curve), ("glue", res.curve, res.dual)


def build_graph(ctx: FieldCtx, seed=None) -> Graph:
    """Breadth-first closure of the superspecial (2,2)-graph.

    The default seed is E x E for the deterministic supersingular
    curve of find_supersingular_seed; any superspecial vertex
    representative may be passed instead (the closure is the same:
    the superspecial graph is connected).  A vertex's expansion derives
    the dual orbit of each edge into it from an expanded vertex
    (_expand), so no derived orbit discovers a vertex.  Raises
    GraphError once it holds more vertices than the census counts.
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
    incoming = {}  # key -> the edges into it from expanded vertices
    while qpos < len(queue):
        cur = queue[qpos]
        qpos += 1
        v = g.vertices[cur]
        v.edges = _expand(v, g.vertices, incoming.pop(cur, ()))
        edge_of = {k: e for e in v.edges for k in e.kernels}
        v.kernel_to_edge = tuple(edge_of[k] for k in range(15))
        g.edges.extend(v.edges)
        fresh = []
        for e in v.edges:
            if e.target not in g.vertices:
                g.vertices[e.target] = _make_vertex(e.target, e.hint[1],
                                                    e.hint[2])
                fresh.append(e.target)
            if not (e.is_loop or g.vertices[e.target].edges):
                incoming.setdefault(e.target, []).append(e)
        if len(g.vertices) > bound:
            raise GraphError(f"{len(g.vertices)} vertices found at p = "
                             f"{ctx.p}, but the census counts {bound}")
        queue.extend(sorted(set(fresh)))
    return g


# ---------------------------------------------------------------------------
# Dual edges


def _transport_pairing(target: Vertex, spl) -> int:
    """The kernel label on the Jacobian vertex target of a splitting of
    an edge's codomain, moved by _first_map from the int-pair roots of
    spl's blocks, listed pair by pair.  Any Moebius map will do: two differ by
    an automorphism, which keeps the image in its orbit."""
    roots = splitting_root_pairs(spl, lambda ctx, a, b: (a, b))
    m = _first_map(sum(roots, ()), target)
    return matching_index(zip(m[0::2], m[1::2]))


def _dual_label(tgt: Vertex, hint) -> int:
    """The label at the vertex tgt of the dual kernel in hint, of an
    edge into tgt.  The dual kernel recorded on the edge's codomain is
    moved onto tgt's representative by an isomorphism: a Jacobian's by
    _transport_pairing, a product's label by the first kernel_maps label
    map.  Any isomorphism will do: two differ by an automorphism of tgt,
    which keeps the kernel inside its orbit.  Every step records its
    dual, as every step stays in GF(p^2)."""
    _, codomain, dual = hint
    if isinstance(codomain, Genus2Curve):
        return _transport_pairing(tgt, dual)
    return _first_map(codomain, tgt)[dual]


def dual_edge(g: Graph, e: OrbitEdge) -> OrbitEdge:
    """The orbit edge at e.target containing the dual kernel of e: the
    edge of its _dual_label."""
    tgt = g.vertex(e.target)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    return tgt.kernel_to_edge[_dual_label(tgt, e.hint)]


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
    classifier agreement, the Frobenius mirror (dictionary lookups only)
    and the mass formula.  Failures are report entries, not raises."""
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

    # plain tuples of key data (4 pairs at a Jacobian, 2 at a product)
    conj = {key.data: key.conjugate(g.p).data for key in g.vertices}
    out = {key.data: sorted((e.weight, e.target.data) for e in v.edges)
           for key, v in g.vertices.items()}
    first = next((key.as_string() for key in g.vertices
                  if out.get(conj[key.data]) != sorted(
                      (w, conj.get(t, ())) for w, t in out[key.data])), None)
    checks.append(("Frobenius mirror", first is None, "sigma maps each "
                   "vertex's (weight, target)s onto its conjugate's"
                   if first is None else f"first violation at {first}"))
    mass = sum(Fraction(1, 2 * v.ra_order) for v in g.vertices.values())
    want = Fraction((g.p - 1) * (g.p * g.p + 1), 5760)
    checks.append(("mass formula", mass == want, f"sum of 1/(2 #RA) is "
                   f"{mass}, (p - 1)(p^2 + 1)/5760 is {want}"))
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
