"""The weighted (2,2)-isogeny multigraph over GF(p^2).

Vertices are isomorphism classes of principally polarized abelian
surfaces: Jacobians keyed by their canonical Clebsch tuple, elliptic
products keyed by the unordered pair of j-invariants.  Edges are
reduced-automorphism orbits of kernels, weighted by orbit size; orbits
with equal endpoints are kept separate, as in the source tables.
build_graph runs a breadth-first closure from a supersingular product
seed, and records each edge's dual kernel as a label on the target's
representative, moved there once; validate checks 15-regularity, the
ratio principle and dual involutivity on those labels, classifier
agreement, the mass formula and the Frobenius mirror:
sigma(a + b*i) = a - b*i maps the graph onto itself, as steps have GF(p)
coefficients and keys are Galois-stable, so _expand derives each edge
whose sigma-image it knows, its labels moved by each vertex's sigma,
made once: the identity but at a sigma-fixed vertex, as the later vertex
of a sigma-swapped pair is built as the earlier's conjugate.
Each isogeny A -> B has a dual B -> A, so build_graph also derives the
orbit at B that holds the dual of an edge from an expanded A: every edge
is stepped at most once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import partial
from typing import NamedTuple

from .census import expected_counts
from .elliptic import EllipticCurveE2, j_invariant, find_supersingular_seed
from .field import FieldCtx, FieldElement
from .genus2 import (Genus2Curve, JACOBIAN_ORDER_TO_TYPE, RA_ORDER,
                     QuadraticSplitting, canonical_key_pairs, clebsch_pairs,
                     matching_action, moebius_frames,
                     moebius_orbits_on_splittings, moebius_stabilizing,
                     point_splittings, ra_type_from_clebsch_pairs,
                     splitting_root_pairs, weierstrass_points)
from .gluing import (ProductKernel, ProductSurface, kernel_index,
                     kernel_maps, kernel_orbits, product_kernels,
                     quotient_diagonal, quotient_product,
                     ra_order_product, ra_type_product_vertex)
from .isogeny import delta, richelot_generic, split_degenerate


class GraphError(ValueError):
    """Inconsistent graph state; indicates a bug, not a valid input."""


class VertexKey(NamedTuple):
    """Canonical identifier of a PPAS isomorphism class: (kind, data),
    data a tuple of (a, b) pairs; it hashes, compares and sorts as that."""

    kind: str  # "jacobian" | "product"
    data: tuple

    @classmethod
    def jacobian(cls, C: Genus2Curve) -> "VertexKey":
        """The Clebsch key of the curve C, read off its sextic's pairs."""
        return cls("jacobian", canonical_key_pairs(
            C.ctx, clebsch_pairs(C.ctx, C.sextic)))

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

    def sha256(self) -> str:
        import hashlib  # here, so that only a DOT export loads it
        return hashlib.sha256(self.as_string().encode()).hexdigest()


@dataclass(slots=True)
class OrbitEdge:
    """One reduced-automorphism orbit of kernels out of a vertex.

    hint is (kind, codomain, dual): in a built graph, the target's
    representative and the dual kernel's label there.  As _expand makes
    it, the quotient by the first kernel as computed (a Jacobian step's
    Genus2Curve holds its sextic's pairs, with no Poly made), and the
    dual on it: a label or a splitting.  An edge derived from its
    Frobenius partner e has hint (e's kind, None, e), and build_graph
    reads its dual off e's label.
    kind ("jac", "glue", "split", "prod", "induced") names the step that
    built the edge, and "dual" an edge derived from the edge e it is
    dual to: its hint is e's source's representative and e's first
    kernel label there.  kind is informational only.  kernels labels
    the orbit's kernels, the stepped one first, by small ints, which
    rebuild them: at a Jacobian the genus2.MATCHINGS index of their
    matching of its points, at a product the index in product_kernels().
    A built edge holds its vertices' own key objects, and the edges of
    one labelling share one kernels tuple."""

    source: VertexKey
    target: VertexKey
    weight: int
    is_loop: bool
    hint: tuple = field(repr=False, default=())
    kernels: tuple = field(repr=False, default=())

    def sort_key(self):
        return (self.source, self.target, self.weight, self.kernels)


@dataclass(slots=True)
class Vertex:
    """A graph vertex; Jacobians also hold their Weierstrass points.

    A Jacobian's points are its Weierstrass points, (a, b) int pairs or
    INF: the roots of the step dual that reached it, pair by pair, so
    that dual is kernel 0 (a seed's are sorted), and ra_maps its RA maps
    as index maps of the points, read off their frame table
    (moebius_frames), which only the build keeps, while moves may read
    it.  A mirror has its partner's RA maps and, at a Jacobian, its
    points conjugated in their order: moves onto it go through the
    partner.  sigma[l] is the label of the Frobenius image of kernel l:
    the identity, but at a sigma-fixed vertex.  edges are the orbit
    edges out of the vertex; kernel_to_edge is the 15-tuple of their
    edges by kernel label (OrbitEdge.kernels), for dual_edge to look
    duals up in.  build_graph fills in both when it expands it.
    """

    key: VertexKey
    representative: object  # Genus2Curve | ProductSurface
    ra_type: str
    ra_order: int
    points: tuple = field(default=None, repr=False)
    ra_maps: list = field(default=None, repr=False)
    sigma: tuple = field(default=tuple(range(15)), repr=False)
    partner: Vertex = field(default=None, repr=False, compare=False)
    edges: list = field(default_factory=list)
    kernel_to_edge: tuple = ()


@dataclass
class Graph:
    p: int
    vertices: dict  # VertexKey -> Vertex (insertion = discovery order)
    edges: list     # all OrbitEdges

    def vertex(self, key: VertexKey) -> Vertex:
        return self.vertices[key]


def ra_type_of(key: VertexKey, ctx: FieldCtx) -> str:
    """RA type of the class of key, over ctx: Bolza's rows on a
    Jacobian's canonical Clebsch tuple, which has the type of every
    model's Clebsch point (ra_type_from_clebsch_pairs), or a product's
    j-pair (ra_type_product_vertex)."""
    if key.kind == "jacobian":
        return ra_type_from_clebsch_pairs(ctx, key.data)
    return ra_type_product_vertex(*(FieldElement(ctx, *x) for x in key.data))


def _make_vertex(key: VertexKey, rep, frames, pts=None, partner=None):
    """The vertex record of rep.  A Jacobian's points are pts, if given:
    the roots of the dual splitting on the edge that reached it, pair
    by pair, or those of the splitting given to neighbourhood, sorted.
    Only seeds and bare curves are factored.  The RA type is read off
    key (ra_type_of).  A Jacobian builds its frame table once (15
    inverses), files it as frames[key] and reads its RA maps and their
    base frame off it.  A mirror takes its partner's RA type, order and
    maps, and a Jacobian partner's points, conjugated in order.  If
    sigma fixes key, sigma is the _first_map of sigma(pts or rep) onto
    rep, or GraphError raised."""
    p = rep.ctx.p
    if partner:
        return Vertex(key=key, representative=rep, ra_type=partner.ra_type,
                      ra_order=partner.ra_order, ra_maps=partner.ra_maps,
                      points=partner.points and _conjugate(partner.points, p),
                      partner=partner)
    ra_type = ra_type_of(key, rep.ctx)
    if key.kind != "jacobian":
        v = Vertex(key=key, representative=rep, ra_type=ra_type,
                   ra_order=ra_order_product(ra_type))
    else:
        pts = pts or weierstrass_points(rep)
        index = frames[key] = moebius_frames(rep.ctx, pts)
        maps = list(moebius_stabilizing(rep.ctx, index, index))
        v = Vertex(key=key, representative=rep, ra_type=ra_type,
                   ra_order=len(maps), points=pts, ra_maps=maps)
    if key.conjugate(p) == key:
        v.sigma = _first_map(_conjugate(pts or rep, p), v, frames)
    return v


def neighbourhood(rep) -> list:
    """Orbit edges out of a vertex representative.

    rep is a Genus2Curve, a ProductSurface, or a QuadraticSplitting
    standing for the Jacobian of its curve(), whose Weierstrass points
    are read off its blocks, sorted; only a bare curve is factored.
    For Jacobians: the reduced automorphisms permute the 15 rational
    splittings; for products: the torsion action groups the 15
    product/diagonal kernels.  One edge per orbit (_expand), its hint as
    _expand made it: a Jacobian codomain is a curve on its sextic's
    pairs, its Poly f made on first read.  When sigma fixes the vertex,
    half its sigma-paired orbits are derived, their hints (kind, None,
    the partner edge).
    """
    pts = None
    if isinstance(rep, QuadraticSplitting):
        pts = sorted(sum(splitting_root_pairs(rep), ()))
        rep = rep.curve()
    return _expand(_make_vertex(VertexKey.of(rep), rep, {}, pts))


def _expand(v: Vertex, vertices=None, incoming=()) -> list:
    """The orbit edges out of v, one per RA orbit of its 15 kernels.

    An orbit holding the dual of an edge e in incoming, which runs into
    v from the expanded vertex s, read as the label e.hint[2], takes
    target s and hint ("dual", s's representative, e's first label).
    Else an orbit holding the Frobenius images of the kernels of a
    known edge e takes target sigma(e.target) and hint (e's kind, None,
    e); every other orbit steps on its first kernel.  Known edges are
    those of sigma(v), if expanded (in vertices), when no dual is read,
    or, if sigma fixes v, v's earlier orbits; either way their labels
    are moved by v.sigma.  Raises GraphError if an orbit holds two
    duals, maps from two edges, or names a target other than its
    partner's image, or if sigma moves a self-paired orbit's target.
    """
    if v.key.kind == "jacobian":
        C = v.representative
        reps, labels = zip(*point_splittings(C.ctx, (), v.points, C.leading))
        orbits = moebius_orbits_on_splittings(labels, v.ra_maps)
        step = _jacobian_step
    else:
        reps, labels = product_kernels(), range(15)
        orbits = kernel_orbits(v.representative)
        step = partial(_product_step, v)
    p, vertices = v.representative.ctx.p, vertices or {v.key: v}
    u = vertices.get(v.key.conjugate(p))
    # at a sigma-fixed vertex u is v, whose edges are not yet made
    act = (u is v or u and u.edges) and v.sigma
    known = {act[k]: e for e in u.edges for k in e.kernels} if act else {}
    duals = () if known else incoming
    edges = []
    for orbit in orbits:
        ks = tuple(labels[i] for i in orbit)
        e = known.get(ks[0])
        if any(known.get(k) is not e for k in ks):
            raise GraphError(f"orbit {ks} at {v.key.as_string()} maps "
                             "from two Frobenius partner edges")
        held = [d for d in duals if d.hint[2] in ks]
        if len(held) > 1:
            raise GraphError(f"orbit {ks} at {v.key.as_string()} holds "
                             f"the duals of {len(held)} edges")
        if held:
            d, s = held[0], vertices[held[0].source]
            tgt, hint = s.key, ("dual", s.representative, d.kernels[0])
            if e is not None and e.target.conjugate(p) != tgt:
                raise GraphError(f"orbit {ks} at {v.key.as_string()} is "
                                 f"dual to an edge from {tgt.as_string()}"
                                 ", not its Frobenius partner's image")
        else:
            tgt, hint = step(reps[orbit[0]]) if e is None else (
                e.target.conjugate(p), (e.hint[0], None, e))
        edges.append(OrbitEdge(
            source=v.key, target=tgt, weight=len(orbit),
            is_loop=(v.key == tgt), hint=hint, kernels=ks))
        if u is v and e is None:
            if act[ks[0]] in ks and tgt.conjugate(p) != tgt:
                raise GraphError(f"sigma moves {tgt.as_string()}, the "
                                 f"target of self-paired orbit {ks}")
            known.update((act[k], edges[-1]) for k in ks)
    return edges


def _conjugate(x, p):
    """sigma over GF(p^2) of a point list (INF fixed), curve or product."""
    if isinstance(x, list):
        return [pt and (pt[0], -pt[1] % p) for pt in x]
    if isinstance(x, Genus2Curve):
        return x.conjugate()
    return ProductSurface(*(EllipticCurveE2(*(
        FieldElement(r.ctx, r.a, -r.b % p) for r in E.roots()))
        for E in (x.E1, x.E2)))


def _first_map(src, v: Vertex, frames: dict):
    """The first isomorphism onto v's representative as a label map m,
    kernel l of src going to m[l]: from the points src of a model, the
    matching_action of the first moebius_stabilizing map on v's table
    in frames, or from the product src, the first kernel_maps map.  Any
    one will do: two differ by an automorphism of v, which keeps each
    orbit.  Onto a mirror it is the map of sigma(src) onto the partner,
    on the partner's table; GraphError if the table is gone."""
    w = v.partner or v
    src = src if w is v else _conjugate(src, w.representative.ctx.p)
    if v.points is None:
        m = next(kernel_maps(src, w.representative), None)
    elif w.key not in frames:
        raise GraphError(f"no frame table to move onto {v.key.as_string()}")
    else:
        m = next(iter(moebius_stabilizing(w.representative.ctx, src,
                                          frames[w.key])), None)
        m = m and matching_action(tuple(m))
    if m is None:
        raise GraphError(f"no isomorphism onto {v.key.as_string()}: the "
                         "models do not match")
    return m


def _jacobian_step(spl):
    d = delta(spl)
    if not d.is_zero():
        C, dual = richelot_generic(spl, d)
        return VertexKey.jacobian(C), ("jac", C, dual)
    S = ProductSurface(*split_degenerate(spl, d))
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
        return VertexKey.of_surface(q), ("prod", q, dual)
    res = quotient_diagonal(S, k)
    if res is S:
        # isomorphism-induced: the quotient is S again, and its
        # identification maps the kernel onto itself (self-dual)
        return v.key, ("induced", S, kernel_index(k))
    return VertexKey.jacobian(res[0]), ("glue", *res)


def build_graph(ctx: FieldCtx, seed=None) -> Graph:
    """Breadth-first closure of the superspecial (2,2)-graph.

    The default seed is E x E for the deterministic supersingular
    curve of find_supersingular_seed; any superspecial vertex
    representative may be passed instead (the closure is the same:
    the superspecial graph is connected).  A vertex's expansion derives
    the dual orbit of each edge into it from an expanded vertex
    (_expand), so no derived orbit discovers a vertex.  A vertex whose
    conjugate w is built is built as sigma(w), with w's RA type, its
    points w's conjugated in their order, so sigma keeps labels; it
    shares w's RA maps, and moves onto it go through w.  Each dual is
    labelled on its target once, as its edge is recorded.  A step's
    dual is kernel 0 over its roots, pair by pair, so a Jacobian built
    from the step takes those roots as its points, and the step's
    codomain curve, on its sextic's pairs, as its representative, with
    no Poly made but for a glued curve's gcd test; onto another model
    the label map m of _first_map from them, or from the product, moves
    dual l to m[l].  A dual derived from a Frobenius partner is its
    label, moved by the target's sigma.  Moves read frame tables local
    to the build, each dropped once its vertex and that vertex's
    conjugate are expanded: every later edge into either is a dual or
    derived from a Frobenius partner.  Raises GraphError, naming the
    edge, if a dual or a new vertex's Frobenius map finds no isomorphism
    (as on a codomain that is no model of its target) or no frame
    table, or once the graph holds more vertices than the census counts."""
    if seed is None:
        E = find_supersingular_seed(ctx)
        seed = ProductSurface(E, E)
    key = VertexKey.of(seed)
    g = Graph(p=ctx.p, vertices={}, edges=[])
    bound = expected_counts(ctx.p).total()
    frames = {}  # key -> the frame table of a Jacobian not yet released
    g.vertices[key] = _make_vertex(key, seed, frames)
    queue = [key]  # the loop below reads what it appends
    incoming = {}  # key -> the edges into it from expanded vertices
    labellings = {}  # kernels tuple -> the one its edges share
    for cur in queue:
        v = g.vertices[cur]
        v.edges = _expand(v, g.vertices, incoming.pop(cur, ()))
        edge_of = {k: e for e in v.edges for k in e.kernels}
        v.kernel_to_edge = tuple(edge_of[k] for k in range(15))
        g.edges.extend(v.edges)
        fresh = []
        for e in v.edges:
            e.kernels = labellings.setdefault(e.kernels, e.kernels)
            kind, rep, dual = e.hint
            tgt = g.vertices.get(e.target)
            pts = None
            try:
                if isinstance(dual, QuadraticSplitting):  # kernel 0 of pts
                    pts = list(sum(splitting_root_pairs(dual), ()))
                    dual = 0
                if tgt is None:  # sigma(w), if built, keeps w's labels
                    w = g.vertices.get(e.target.conjugate(ctx.p))
                    tgt = g.vertices[e.target] = _make_vertex(
                        e.target,
                        _conjugate(w.representative, ctx.p) if w else rep,
                        frames, pts, w)
                    fresh.append(e.target)
                if isinstance(dual, OrbitEdge):  # the Frobenius partner
                    dual = tgt.sigma[dual.hint[2]]
                elif rep is not tgt.representative:  # another model
                    dual = _first_map(pts or rep, tgt, frames)[dual]
            except GraphError as exc:
                raise GraphError(f"edge {e.source.as_string()} -> "
                                 f"{e.target.as_string()} of kernels "
                                 f"{e.kernels}: {exc}") from None
            e.target, e.hint = tgt.key, (kind, tgt.representative, dual)
            if not (e.is_loop or tgt.edges):
                incoming.setdefault(e.target, []).append(e)
        c = g.vertices.get(cur.conjugate(ctx.p))
        if c and c.edges:  # both expanded: no move reads their tables
            frames.pop(cur, None)
            frames.pop(c.key, None)
        if len(g.vertices) > bound:
            raise GraphError(f"{len(g.vertices)} vertices found at p = "
                             f"{ctx.p}, but the census counts {bound}")
        queue.extend(sorted(fresh))
    return g


# ---------------------------------------------------------------------------
# Dual edges


def dual_edge(g: Graph, e: OrbitEdge) -> OrbitEdge:
    """The orbit edge at e.target containing the dual kernel of e: the
    edge of the label build_graph recorded in e's hint."""
    tgt = g.vertices.get(e.target)
    if tgt is None:
        raise GraphError("target vertex not in the graph")
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    return tgt.kernel_to_edge[e.hint[2]]


# ---------------------------------------------------------------------------
# Validation


@dataclass
class ValidationReport:
    checks: list  # (name, ok, detail)

    @property
    def ok(self) -> bool:
        return all(okay for _, okay, _ in self.checks)

    def summary(self) -> str:
        return "\n".join(f"[{'PASS' if okay else 'FAIL'}] {name}: {detail}"
                         for name, okay, detail in self.checks)


def validate(g: Graph) -> ValidationReport:
    """Structural validators: regularity, ratio principle, duals (the
    recorded labels, with no isomorphism), classifier agreement, the
    Frobenius mirror (dictionary lookups only) and the mass formula.
    Failures are report entries, not raises."""
    checks = []

    wsums = {key: sum(e.weight for e in v.edges)
             for key, v in g.vertices.items()}
    bad = [(key.as_string(), w) for key, w in wsums.items() if w != 15]
    checks.append(("15-regularity",
                   not bad,
                   f"{len(g.vertices)} vertices all have out-weight 15"
                   if not bad else f"violations: {bad}"))

    ratio_bad, involution_bad, dual_err, duals = [], [], [], {}
    for e in g.edges:
        try:
            duals[id(e)] = dual_edge(g, e)
        except GraphError as exc:
            dual_err.append((e.sort_key(), str(exc)))
    for e in g.edges:
        d, src = duals.get(id(e)), g.vertices.get(e.source)
        if d is None or src is None:  # a missing source fails d's dual
            continue
        lhs = src.ra_order * d.weight
        rhs = g.vertices[e.target].ra_order * e.weight
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

    ids = {key: i for i, key in enumerate(g.vertices)}  # keys off g next
    out = [sorted((e.weight, ids.setdefault(e.target, len(ids)))
                  for e in v.edges) for v in g.vertices.values()]
    n, p = len(out), g.p
    conj = [ids.setdefault(key.conjugate(p), len(ids)) for key in g.vertices]
    first = next((key.as_string() for key, c, o in zip(g.vertices, conj, out)
                  if (out[c] if c < n else None) != sorted(
                      (w, conj[t] if t < n else -1) for w, t in o)), None)
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
    return "".join(export_rows(g, fmt))


def export_rows(g: Graph, fmt: str):
    """export(g, fmt) one vertex or edge row at a time, to write out."""
    if fmt == "json":
        return _export_json(g)
    if fmt == "dot":
        return _export_dot(g)
    raise GraphError(f"unknown export format {fmt!r}")


def _export_json(g: Graph):
    """The sorted rows in turn, as json.dumps(indent=2, sort_keys=True)
    lays them out: keys, kinds and RA types need no escaping."""
    name = {key: key.as_string() for key in g.vertices}
    edges = sorted((name[e.source], name[e.target], e.weight,
                    "true" if e.is_loop else "false") for e in g.edges)
    edges = (f'    {{\n      "dst": "{dst}",\n      "loop": {loop},\n      '
             f'"src": "{src}",\n      "weight": {weight}\n    }}'
             for src, dst, weight, loop in edges)
    vertices = (f'    {{\n      "key": "{name[key]}",\n      "kind": '
                f'"{key.kind}",\n      "ra_order": {v.ra_order},\n      '
                f'"ra_type": "{v.ra_type}"\n    }}'
                for key, v in sorted(g.vertices.items(),
                                     key=lambda kv: name[kv[0]]))
    for head, rows in (('{\n  "edges": ', edges),
                       (f',\n  "p": {g.p},\n  "vertices": ', vertices)):
        yield head
        sep = "["  # a list as json.dumps lays it out, [] if empty
        for row in rows:
            yield f"{sep}\n{row}"
            sep = ","
        yield "[]" if sep == "[" else "\n  ]"
    yield "\n}\n"


def _export_dot(g: Graph):
    """Node names are v and the shortest sha256 prefix of at least 8
    digits that tells every two vertices of g apart."""
    yield f'digraph richelot_{g.p} {{\n'
    digests, n = {key: key.sha256() for key in g.vertices}, 8
    while len({d[:n] for d in digests.values()}) < len(digests):
        n += 1
    for key in sorted(g.vertices):
        yield (f'  v{digests[key][:n]} [label="'
               f'{g.vertices[key].ra_type}/{digests[key][:n]}"];\n')
    for e in sorted(g.edges, key=OrbitEdge.sort_key):
        yield (f'  v{digests[e.source][:n]} -> '
               f'v{digests[e.target][:n]} [label="{e.weight}"];\n')
    yield "}\n"
