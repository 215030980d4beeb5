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

from .elliptic import (EllipticCurveE2, isomorphisms_with_torsion,
                       j_invariant, find_supersingular_seed)
from .field import FieldCtx
from .genus2 import (Genus2Curve, JACOBIAN_ORDER_TO_TYPE, RA_ORDER,
                     canonical_key, clebsch_invariants,
                     moebius_orbits_on_splittings, moebius_stabilizing,
                     point_key, ra_type_from_clebsch, reduced_automorphisms,
                     splitting_pairing, splitting_points, splittings,
                     weierstrass_points)
from .gluing import (ProductKernel, ProductQuotient, ProductSurface,
                     TorsionActionGenerator, kernel_orbits, quotient_diagonal,
                     quotient_product, ra_order_product,
                     ra_type_product_vertex)
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
    (QuadraticSplitting | ProductKernel, or None when it is unknown).
    kind ("jac", "glue", "split", "prod", "induced") names the step
    that built the edge; it is informational only.
    """

    source: VertexKey
    target: VertexKey
    weight: int
    kernel_rep: object  # QuadraticSplitting | ProductKernel
    is_loop: bool
    hint: tuple = field(repr=False, default=())

    def sort_key(self):
        return (self.source, self.target, self.weight, str(self.kernel_rep))


@dataclass
class Vertex:
    key: VertexKey
    representative: object  # Genus2Curve | ProductSurface
    ra_type: str
    ra_order: int
    # populated when the vertex is expanded; kernels are keyed by
    # their Weierstrass pairing (Jacobians) or ProductKernel.key()
    edges: list = field(default_factory=list)
    kernel_to_edge: dict = field(default_factory=dict)


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


def _make_vertex(key: VertexKey, rep) -> Vertex:
    ra_type = ra_type_of(rep)
    if key.kind == "jacobian":
        ra_order = len(reduced_automorphisms(rep))
    else:
        ra_order = ra_order_product(ra_type)
    return Vertex(key=key, representative=rep, ra_type=ra_type,
                  ra_order=ra_order)


def neighbourhood(rep) -> list:
    """Orbit edges out of a vertex representative.

    For Jacobians: the reduced automorphisms permute the 15 rational
    splittings; one Richelot or splitting step per orbit.  For
    products: the torsion action groups the 15 product/diagonal
    kernels; one Velu or gluing step per orbit.
    """
    edges, _ = _expand(rep)
    return edges


def _expand(rep):
    """Edges out of rep plus the kernel-to-edge lookup table."""
    if isinstance(rep, Genus2Curve):
        return _expand_jacobian(rep)
    if isinstance(rep, ProductSurface):
        return _expand_product(rep)
    raise GraphError(f"unsupported representative {rep!r}")


def _expand_jacobian(curve: Genus2Curve):
    spls = splittings(curve)
    if len(spls) != 15:
        raise GraphError(
            f"only {len(spls)} rational kernels; vertex is not "
            "superspecial-complete")
    maps = reduced_automorphisms(curve)
    orbits = moebius_orbits_on_splittings(curve, spls, maps)
    K, _ = weierstrass_points(curve)
    src = VertexKey.jacobian(curve)
    edges = []
    kernel_to_edge = {}
    for orbit in orbits:
        rep_spl = spls[orbit[0]]
        if not delta(rep_spl).is_zero():
            cod = richelot_generic(rep_spl)
            tgt = VertexKey.jacobian(cod.curve)
            hint = ("jac", cod.curve, cod.dual)
        else:
            sp = split_degenerate(rep_spl)
            S = ProductSurface(sp.E, sp.E2)
            tgt = VertexKey.of_surface(S)
            # the i <-> i matching generates the dual kernel, except on
            # factors rebuilt from j, where the matching is lost
            dual = None if sp.split_data.extended \
                else ProductKernel.diagonal((1, 2, 3))
            hint = ("split", S, dual)
        e = OrbitEdge(source=src, target=tgt, weight=len(orbit),
                      kernel_rep=rep_spl, is_loop=(src == tgt), hint=hint)
        edges.append(e)
        for idx in orbit:
            kernel_to_edge[splitting_pairing(curve, spls[idx], K)] = e
    return edges, kernel_to_edge


def _expand_product(S: ProductSurface):
    orbits, kernels = kernel_orbits(S)
    src = VertexKey.of_surface(S)
    edges = []
    kernel_to_edge = {}
    for orbit in orbits:
        k = kernels[orbit[0]]
        if k.kind == "product":
            q = quotient_product(S, k)
            tgt = VertexKey.of_surface(q.surface)
            # both Velu codomains carry the dual point as their first
            # root, so the dual kernel is K(1,1)
            hint = ("prod", q.surface, ProductKernel.product(1, 1))
        else:
            res = quotient_diagonal(S, k)
            if isinstance(res, ProductQuotient):
                tgt = src  # isomorphism-induced: the quotient is S again
                # the quotient identification maps the kernel onto
                # itself, so induced loops are self-dual
                hint = ("induced", S, k)
            else:
                tgt = VertexKey.jacobian(res.curve)
                hint = ("glue", res.curve, res.dual)
        e = OrbitEdge(source=src, target=tgt, weight=len(orbit),
                      kernel_rep=k, is_loop=(src == tgt), hint=hint)
        edges.append(e)
        for idx in orbit:
            kernel_to_edge[kernels[idx].key()] = e
    return edges, kernel_to_edge


def build_graph(ctx: FieldCtx, seed=None) -> Graph:
    """Breadth-first closure of the superspecial (2,2)-graph.

    The default seed is E x E for the deterministic supersingular
    curve of find_supersingular_seed; any superspecial vertex
    representative may be passed instead (the closure is the same:
    the superspecial graph is connected).
    """
    if seed is None:
        E = find_supersingular_seed(ctx)
        seed = ProductSurface(E, E)
    if isinstance(seed, EllipticCurveE2):
        seed = ProductSurface(seed, seed)
    if isinstance(seed, ProductSurface):
        key = VertexKey.of_surface(seed)
    else:
        key = VertexKey.jacobian(seed)
    g = Graph(p=ctx.p, vertices={}, edges=[])
    g.vertices[key] = _make_vertex(key, seed)
    queue = [key]
    qpos = 0
    while qpos < len(queue):
        cur = queue[qpos]
        qpos += 1
        v = g.vertices[cur]
        v.edges, v.kernel_to_edge = _expand(v.representative)
        g.edges.extend(v.edges)
        fresh = []
        for e in v.edges:
            if e.target not in g.vertices:
                g.vertices[e.target] = _make_vertex(e.target, e.hint[1])
                fresh.append(e.target)
        queue.extend(sorted(set(fresh)))
    return g


# ---------------------------------------------------------------------------
# Dual edges


def _transport_pairing(src_curve, dst_curve, spl):
    """Move a splitting of src_curve to a pairing on dst_curve.

    Requires the curves to be isomorphic; any Moebius map carrying the
    Weierstrass set of src_curve onto dst_curve's will do, since maps
    differing by an automorphism move the image within one orbit.  The
    source points are read off spl's blocks, so src_curve (an edge's
    codomain) is never factored.
    """
    from .field import ExtCtx
    K1, pts1 = splitting_points(spl)
    K2, pts2 = weierstrass_points(dst_curve)
    if isinstance(K1, ExtCtx) != isinstance(K2, ExtCtx):
        # mixed rationality: redo both over the extension
        ext = src_curve.ctx.extension()
        if not isinstance(K1, ExtCtx):
            pts1 = [_lift_point(ext, p) for p in pts1]
        if not isinstance(K2, ExtCtx):
            pts2 = [_lift_point(ext, p) for p in pts2]
        K1 = ext
    m = moebius_stabilizing(K1, pts1, pts2, first_only=True)
    if m is None:
        raise GraphError("no Moebius map between isomorphic models")
    pt_of_key = {point_key(p): p for p in pts1}
    pairing = splitting_pairing(src_curve, spl, K1)
    return frozenset(
        frozenset(point_key(m.apply(pt_of_key[k])) for k in pair)
        for pair in pairing)


def _lift_point(ext, p):
    from .genus2 import INF
    if p is INF:
        return p
    if hasattr(p, "in_base_field"):
        return p
    return ext.embed(p)


def _transport_kernel(src: ProductSurface, dst: ProductSurface,
                      k: ProductKernel) -> ProductKernel:
    """Image of k under an isomorphism src -> dst that keeps the
    factor order (straight) or swaps it (crossed)."""
    s1 = isomorphisms_with_torsion(src.E1, dst.E1)
    s2 = isomorphisms_with_torsion(src.E2, dst.E2)
    if s1 and s2:
        return TorsionActionGenerator(perm1=s1[0],
                                      perm2=s2[0]).apply_kernel(k)
    c1 = isomorphisms_with_torsion(src.E1, dst.E2)
    c2 = isomorphisms_with_torsion(src.E2, dst.E1)
    if c1 and c2:
        k = TorsionActionGenerator(perm1=c1[0], perm2=c2[0]).apply_kernel(k)
        return TorsionActionGenerator(swap=(1, 2, 3)).apply_kernel(k)
    raise GraphError("codomain factors do not match target product")


def dual_edge(g: Graph, e: OrbitEdge) -> OrbitEdge:
    """The orbit edge at e.target containing the dual kernel of e.

    The dual kernel recorded on e's codomain is moved onto the target's
    representative by an isomorphism and looked up there.  Any
    isomorphism will do: two differ by an automorphism of the target,
    which keeps the kernel inside its orbit.
    """
    tgt = g.vertex(e.target)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    _, codomain, dual = e.hint
    where = (f"edge {e.source.as_string()} -> {e.target.as_string()} "
             f"by {e.kernel_rep}")
    if dual is None:
        raise GraphError(f"no dual kernel recorded for {where}")
    if isinstance(codomain, Genus2Curve):
        kernel = _transport_pairing(codomain, tgt.representative, dual)
    else:
        kernel = _transport_kernel(codomain, tgt.representative, dual).key()
    try:
        return tgt.kernel_to_edge[kernel]
    except KeyError:
        raise GraphError(f"dual kernel not found at target of {where}") \
            from None


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
