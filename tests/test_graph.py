"""Graph enumeration: neighbourhoods, duals, BFS, validation, export."""

import json
from itertools import permutations

import pytest

from richelot import genus2
from richelot.elliptic import (EllipticCurveE2, isomorphisms_with_torsion,
                               two_isogeny)
from richelot.field import make_field
from richelot.genus2 import Genus2Curve, RAType
from richelot.gluing import (GluedJacobian, ProductKernel, ProductSurface,
                             quotient_diagonal)
from richelot.graph import (GraphError, _transport_pairing, build_graph,
                            dual_edge, export, neighbourhood, validate,
                            VertexKey)
from richelot.poly import Poly


def e_1728(ctx):
    return EllipticCurveE2(ctx.one, ctx.from_int(-1), ctx.zero)


def test_neighbourhood_type_v_at_23():
    # general-p column of the Type-V table
    ctx = make_field(23)
    z6 = ctx.nth_root_of_unity(6)
    C = Genus2Curve(Poly.from_roots(
        ctx, [ctx.one, -ctx.one, z6, -z6, z6.inverse(), -z6.inverse()]))
    edges = neighbourhood(C)
    labels = sorted((e.weight, "loop" if e.is_loop else e.target.kind)
                    for e in edges)
    assert labels == [(1, "product"), (2, "jacobian"), (3, "loop"),
                      (3, "product"), (6, "jacobian")]


def test_neighbourhood_sigma1728_orbit_structure():
    ctx = make_field(23)
    S = ProductSurface(e_1728(ctx), e_1728(ctx))
    edges = neighbourhood(S)
    weights = sorted(e.weight for e in edges)
    assert weights == [1, 2, 4, 4, 4]
    # the fixed loop K(3,3) and the paired diagonal loop both map home
    loops = [e for e in edges if e.is_loop]
    assert sorted(e.weight for e in loops) == [1, 2]


def test_neighbourhood_type_ii_three_fives():
    ctx = make_field(19)
    C = Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1]))
    edges = neighbourhood(C)
    assert sorted(e.weight for e in edges) == [5, 5, 5]


def test_build_graph_anchor_vertex_sets():
    expected = {
        7: {RAType.VI: 1, RAType.SIGMA1728: 1},
        11: {RAType.IV: 1, RAType.V: 1, RAType.PI01728: 1,
             RAType.SIGMA0: 1, RAType.SIGMA1728: 1},
        13: {RAType.III: 1, RAType.IV: 1, RAType.VI: 1, RAType.SIGMA: 1},
    }
    for p, want in expected.items():
        g = build_graph(make_field(p))
        got = {}
        for v in g.vertices.values():
            got[v.ra_type] = got.get(v.ra_type, 0) + 1
        assert got == want


def test_bfs_seed_independence_p13():
    ctx = make_field(13)
    g1 = build_graph(ctx)
    # an alternative supersingular seed: the 2-isogenous curve
    from richelot.elliptic import find_supersingular_seed
    E = find_supersingular_seed(ctx)
    E2 = two_isogeny(E, 2).codomain
    g2 = build_graph(ctx, seed=ProductSurface(E2, E))
    assert export(g1, "json") == export(g2, "json")


def test_validate_passes(ctx11):
    g = build_graph(ctx11)
    rep = validate(g)
    assert rep.ok, rep.summary()
    g13 = build_graph(make_field(13))
    assert validate(g13).ok


def test_validate_catches_fault_injection(ctx11):
    g = build_graph(ctx11)
    victim = next(e for e in g.edges if not e.is_loop)
    victim.weight *= 2
    rep = validate(g)
    assert not rep.ok
    names = {name for name, ok, _ in rep.checks if not ok}
    assert "ratio principle" in names or "15-regularity" in names


def test_dual_edge_involution_and_ratio(ctx11):
    g = build_graph(ctx11)
    for e in g.edges:
        d = dual_edge(g, e)
        assert dual_edge(g, d) is e
        assert g.vertex(e.source).ra_order * d.weight \
            == g.vertex(e.target).ra_order * e.weight


def dual_edge_oracle(g, e):
    """Dual edge by search: the gluing-based dual_edge that
    graph.dual_edge replaced, kept as the reference it is checked
    against.  The split branch re-glues every diagonal kernel at the
    target and keeps those that reproduce the source curve with a
    dual splitting in e's orbit."""
    tgt = g.vertex(e.target)
    src = g.vertex(e.source)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    kind = e.hint[0]

    if kind in ("jac", "glue"):
        pairing = _transport_pairing(e.hint[1], tgt.representative,
                                     e.hint[2])
        try:
            return tgt.kernel_to_edge[pairing]
        except KeyError:
            raise GraphError("dual splitting not found at target") from None

    if kind == "induced":
        # the quotient identification maps the kernel onto itself, so
        # induced loops are self-dual
        return e

    if kind == "prod":
        cod = e.hint[1]
        S_rep = tgt.representative
        # dual kernel on the computed codomain is K(1,1): both Velu
        # codomains carry the dual point as their first root
        straight1 = isomorphisms_with_torsion(cod.E1, S_rep.E1)
        straight2 = isomorphisms_with_torsion(cod.E2, S_rep.E2)
        if straight1 and straight2:
            kk = ProductKernel.product(straight1[0][0], straight2[0][0])
            return tgt.kernel_to_edge[kk.key()]
        cross1 = isomorphisms_with_torsion(cod.E1, S_rep.E2)
        cross2 = isomorphisms_with_torsion(cod.E2, S_rep.E1)
        if cross1 and cross2:
            kk = ProductKernel.product(cross2[0][0], cross1[0][0])
            return tgt.kernel_to_edge[kk.key()]
        raise GraphError("codomain factors do not match target product")

    if kind == "split":
        S_rep = tgt.representative
        src_curve = src.representative
        src_edge_pairings = {pr for pr, ee in src.kernel_to_edge.items()
                             if ee is e}
        candidates = []
        for perm in sorted(permutations((1, 2, 3))):
            kk = ProductKernel.diagonal(perm)
            res = quotient_diagonal(S_rep, kk)
            if not isinstance(res, GluedJacobian):
                continue
            if VertexKey.jacobian(res.curve) != e.source:
                continue
            pairing = _transport_pairing(res.curve, src_curve, res.dual)
            if pairing in src_edge_pairings:
                candidates.append(tgt.kernel_to_edge[kk.key()])
        if not candidates:
            raise GraphError("no gluing at target reproduces the source")
        first = candidates[0]
        if any(c is not first for c in candidates):
            raise GraphError("ambiguous dual for split edge")
        return first

    raise GraphError(f"unknown edge hint {kind}")


@pytest.mark.parametrize("p", [11, 23, 41])
def test_dual_edge_matches_search_oracle(p):
    g = build_graph(make_field(p))
    kinds = set()
    for e in g.edges:
        assert dual_edge(g, e) is dual_edge_oracle(g, e), e.sort_key()
        kinds.add(e.hint[0])
    if p == 41:
        assert kinds == {"jac", "glue", "prod", "split", "induced"}


def test_each_vertex_factored_once_and_validate_never(monkeypatch):
    calls = []
    real = genus2.factor_quadratic_pieces
    monkeypatch.setattr(genus2, "factor_quadratic_pieces",
                        lambda f: calls.append(f) or real(f))
    for cached in (genus2.splittings, genus2.weierstrass_points,
                   genus2.reduced_automorphisms):
        cached.cache_clear()
    g = build_graph(make_field(23))
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    assert len(calls) == len(jacobians)
    del calls[:]
    assert validate(g).ok
    assert calls == []


def test_dual_edge_names_edge_without_recorded_dual(ctx11):
    g = build_graph(ctx11)
    e = next(e for e in g.edges if e.hint[0] == "split")
    e.hint = e.hint[:2] + (None,)
    with pytest.raises(GraphError, match=e.source.as_string()):
        dual_edge(g, e)
    assert not validate(g).ok


def test_export_json_round_trip(ctx11):
    g = build_graph(ctx11)
    doc = json.loads(export(g, "json"))
    assert doc["p"] == 11
    assert len(doc["vertices"]) == 5
    keys = {v["key"] for v in doc["vertices"]}
    edge_multiset = sorted((e["src"], e["dst"], e["weight"], e["loop"])
                           for e in doc["edges"])
    # recover the same multisets from the graph object
    assert keys == {k.as_string() for k in g.vertices}
    assert edge_multiset == sorted(
        (e.source.as_string(), e.target.as_string(), e.weight, e.is_loop)
        for e in g.edges)
    for row in doc["edges"]:
        assert row["loop"] == (row["src"] == row["dst"])


def test_export_dot_and_determinism(ctx11):
    g = build_graph(ctx11)
    dot = export(g, "dot")
    assert dot.count("[label=") == 5 + len(g.edges)
    g2 = build_graph(make_field(11))
    assert export(g2, "json") == export(g, "json")
    assert export(g2, "dot") == dot
    with pytest.raises(GraphError):
        export(g, "gml")


def test_out_weight_fifteen_every_vertex():
    for p in (7, 11, 13, 17):
        g = build_graph(make_field(p))
        for v in g.vertices.values():
            assert sum(e.weight for e in v.edges) == 15


def test_export_empty_graph_skeleton():
    from richelot.graph import Graph
    g = Graph(p=11, vertices={}, edges=[])
    doc = json.loads(export(g, "json"))
    assert doc == {"p": 11, "vertices": [], "edges": []}
    dot = export(g, "dot")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_vertex_keys_unordered_product():
    ctx = make_field(23)
    z3 = ctx.nth_root_of_unity(3)
    E0 = EllipticCurveE2(ctx.one, z3, z3 * z3)
    E1 = e_1728(ctx)
    assert VertexKey.of_surface(ProductSurface(E0, E1)) \
        == VertexKey.of_surface(ProductSurface(E1, E0))
