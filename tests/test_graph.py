"""Graph enumeration: neighbourhoods, duals, BFS, validation, export."""

import hashlib
import json
import random
import re
import sys
import weakref
from dataclasses import replace
from itertools import permutations

import pytest

from richelot import elliptic, genus2, gluing, graph
from richelot.atlas import EDGE_TABLES
from richelot.cli import run
from richelot.elliptic import (EllipticCurveE2, isomorphisms_with_torsion,
                               two_isogeny)
from richelot.field import FieldCtx, FieldElement, make_field
from richelot.genus2 import (INF, Genus2Curve, IrrationalPointsError, RAType,
                             moebius_frames, moebius_stabilizing,
                             point_splittings, reduced_automorphisms,
                             splitting_root_pairs, splittings,
                             transform_curve, weierstrass_points)
from richelot.gluing import (ProductKernel, ProductSurface, kernel_maps,
                             product_kernels, quotient_diagonal,
                             ra_order_product)
from richelot.graph import (GraphError, OrbitEdge, build_graph, dual_edge,
                            export, neighbourhood, ra_type_of, validate,
                            VertexKey)
from richelot.poly import Poly

from conftest import (clear_genus2_caches, count_calls,
                      dual_label, isomorphisms_oracle, jacobian_orbits_oracle,
                      kernel_map_oracle, kernel_rep, label_pairing,
                      matching_pairing, mirror_pairs, moebius_search_oracle,
                      move_frames, own_frames, patch_moves,
                      ra_type_of_oracle,
                      random_curve_with_irrational_points, random_element,
                      reaching_edges, recorded_dual_splitting,
                      splitting_of, splitting_points, stepped_edges_oracle,
                      stepped_hint)


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


def test_neighbourhood_makes_no_curve_for_a_step_codomain(monkeypatch):
    # the p = 41 Type-A random model that CI pins: neighbourhood returns
    # the hints _expand made, so a Jacobian step's hint[1] is its
    # codomain curve on its sextic's pairs, and no Poly is made for any
    # step codomain; its Poly f is made on its first read, once, and the
    # curve is a model of the edge's target
    ctx = make_field(41)
    C = Genus2Curve(Poly(ctx, [ctx.element(a, b) for a, b in (
        (10, 30), (32, 3), (37, 31), (35, 2), (17, 40), (1, 4), (2, 8))]))
    weierstrass_points(C)  # the input's factoring makes its factors
    made, real = [], Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args:
                        made.append(args) or real(self, *args))
    edges = neighbourhood(C)
    assert sum(e.weight for e in edges) == 15
    cods = [e.hint[1] for e in edges if e.hint[1] is not None]
    assert cods and all(isinstance(cod, Genus2Curve)
                        and "f" not in vars(cod) for cod in cods)
    assert made == []
    for e in edges:
        if e.hint[1] is not None:
            assert VertexKey.jacobian(e.hint[1]) == e.target
            assert e.hint[1].f is e.hint[1].f  # made on the first read
    assert len(made) == len(cods)


def is_point(x) -> bool:
    """A point as genus2 holds it: INF, or an (a, b) pair of ints."""
    return x == INF or (type(x) is tuple and len(x) == 2
                        and all(type(c) is int for c in x))


@pytest.mark.parametrize("p", [41, 101])
def test_points_are_int_pairs_or_inf(monkeypatch, p):
    # every Jacobian vertex's points, its curve's weierstrass_points and
    # the splitting_root_pairs of its 15 kernels hold no FieldElement:
    # each point is an (a, b) int pair or INF, which sorts before them,
    # as in a quintic model of a vertex.  Every splitting the build
    # makes, the 15 kernels _expand builds at each Jacobian and the dual
    # of each Jacobian step and gluing, holds ctx and an int-pair scale
    made, spl_type = [], genus2.QuadraticSplitting
    real = spl_type.__init__
    monkeypatch.setattr(spl_type, "__init__", lambda self, *args:
                        made.append(self) or real(self, *args))
    raw = raw_hints(monkeypatch)
    ctx = make_field(p)
    g = build_graph(ctx)
    monkeypatch.undo()
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    assert jacobians
    duals = [h for h in raw.values() if isinstance(h[2], spl_type)]
    assert {kind for kind, *_ in duals} == {"jac", "glue"}
    assert len(made) == 15 * len(jacobians) + len(duals)
    assert {id(h[2]) for h in duals} <= set(map(id, made))
    assert all(s.ctx is ctx and is_point(s.scale) and s.scale != INF
               for s in made)
    for v in jacobians:
        C = v.representative
        pts = weierstrass_points(C)
        assert all(map(is_point, v.points)) and all(map(is_point, pts))
        assert pts == sorted(v.points)
        for spl, _ in point_splittings(C.ctx, (), v.points, C.leading):
            assert all(map(is_point, sum(splitting_root_pairs(spl), ())))
    r = ctx.element(*jacobians[0].points[-1])
    pts = weierstrass_points(transform_curve(jacobians[0].representative, r,
                                             ctx.one, ctx.one, ctx.zero))
    assert pts[0] == INF and len(pts) == 6 and all(map(is_point, pts))


def test_cold_build_makes_fewer_field_elements(monkeypatch):
    # Weierstrass points, their conjugates and root pairs are int pairs,
    # as are splitting scales, and a Jacobian's RA type is read off its
    # key's pairs, and a step's codomain curve holds its sextic's pairs,
    # its Poly unmade: a cold p = 41 build makes 942 FieldElements
    # (1,222 while each representative made its curve's Poly; 1,479
    # while richelot_generic made each dual's scale one and ra_type_of
    # wrapped each Jacobian key in four; 2,649 while points were
    # FieldElements)
    clear_genus2_caches()
    genus2.clebsch_invariants.cache_clear()
    ctx, made, real = make_field(41), [], FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda *args: made.append(args) or real(*args))
    build_graph(ctx)
    assert len(made) == 942


@pytest.mark.parametrize("p", [23, 41])
def test_neighbourhood_of_a_splitting_matches_its_curve(p):
    # a splitting stands for its curve() with its points read off
    # the blocks; the edges equal those of the factored curve, down to
    # the hints of the steps: both read the same points, sorted, so
    # their labels name the same kernels
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        if v.key.kind != "jacobian":
            continue
        curve_edges = neighbourhood(v.representative)
        for spl in [kernel_rep(g, e) for e in v.edges][:3]:
            assert spl.curve() == v.representative
            assert splitting_points(spl) \
                == list(weierstrass_points(v.representative))
            spl_edges = neighbourhood(spl)
            assert len(spl_edges) == len(curve_edges)
            for a, b in zip(spl_edges, curve_edges):
                assert (a.target, a.weight, a.kernels, a.hint) \
                    == (b.target, b.weight, b.kernels, b.hint)


def test_neighbourhood_of_a_splitting_with_an_irreducible_block(
        ctx23, monkeypatch):
    # the typed error counts the matchings of the points in GF(p^2):
    # the bare curve is factored once, by weierstrass_points, the
    # splitting not at all, and the count is that of splittings()
    ctx = ctx23
    blocks = [Poly(ctx, [-ctx.nonsquare(), ctx.zero, ctx.one])] + [
        Poly.from_roots(ctx, list(map(ctx.from_int, pair)))
        for pair in ((1, 2), (3, 4))]
    spl = splitting_of(blocks, ctx.one)
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces")
    with pytest.raises(IrrationalPointsError) as from_curve:
        neighbourhood(spl.curve())
    assert len(calls) == 1
    clear_genus2_caches()
    with pytest.raises(IrrationalPointsError) as from_splitting:
        neighbourhood(spl)
    assert len(calls) == 1
    assert "only 3 rational kernels" in str(from_curve.value)
    assert str(from_splitting.value) == str(from_curve.value)
    assert len(splittings(spl.curve())) == 3


@pytest.mark.parametrize("p", [23, 41, 101])
def test_irrational_points_raise_one_typed_error(p, capsys):
    # four rational roots times an irreducible quadratic: the points,
    # the RA search and the neighbourhoods of the curve and of each of
    # its 3 splittings raise one error, which counts the 3 matchings of
    # the rational roots, as the expansion's error did when the points
    # were read over GF(p^4); its last line reproduces it
    ctx, rng = make_field(p), random.Random(p)
    for _ in range(3):
        C = random_curve_with_irrational_points(ctx, rng)
        clear_genus2_caches()
        calls = [(weierstrass_points, C), (reduced_automorphisms, C),
                 (neighbourhood, C)]
        calls += [(neighbourhood, s) for s in splittings(C)]
        errors = set()
        for call, arg in calls:
            with pytest.raises(IrrationalPointsError) as exc:
                call(arg)
            assert (exc.value.p, exc.value.sextic, exc.value.kernels) \
                == (p, C.f, 3)
            errors.add(str(exc.value))
        assert len(calls) == 6 and len(errors) == 1
        what, command = str(exc.value).splitlines()
        assert what.startswith("only 3 rational kernels;")
        assert run(command.split()[1:]) == 2
        assert capsys.readouterr().err == f"error: {exc.value}\n"


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
    E2 = two_isogeny(E, 2)
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


def transport_pairing_oracle(dst_curve, spl):
    """A splitting of a curve isomorphic to dst_curve, moved onto
    dst_curve as a pairing by the first map moebius_search_oracle finds."""
    pairs = splitting_root_pairs(spl)
    pts2 = weierstrass_points(dst_curve)
    pts1 = sorted(p for pair in pairs for p in pair)
    m = moebius_search_oracle(dst_curve.ctx, pts1, pts2, first_only=True)
    if m is None:
        raise GraphError("no Moebius map between isomorphic models")
    return frozenset(frozenset(map(m.apply, pair)) for pair in pairs)


def edge_of_pairing(v, pairing):
    """The edge of the Jacobian vertex v holding the kernel whose label
    translates to pairing (label_pairing)."""
    for n, e in enumerate(v.kernel_to_edge):
        if label_pairing(v.points, n) == pairing:
            return e
    raise KeyError(pairing)


def edge_of_product_kernel(v, k):
    """The edge of the product vertex v holding the kernel k."""
    return v.kernel_to_edge[product_kernels().index(k)]


def dual_edge_oracle(g, e):
    """Dual edge by search: the gluing-based dual_edge that
    graph.dual_edge replaced, kept as the reference it is checked
    against.  The split branch re-glues every diagonal kernel at the
    target and keeps those that reproduce the source curve with a
    dual splitting in e's orbit.  e's first kernel is stepped here
    (stepped_hint), so no recorded hint is read."""
    tgt = g.vertex(e.target)
    src = g.vertex(e.source)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    hint = stepped_hint(g, e)
    kind = hint[0]

    if kind in ("jac", "glue"):
        pairing = transport_pairing_oracle(tgt.representative, hint[2])
        try:
            return edge_of_pairing(tgt, pairing)
        except KeyError:
            raise GraphError("dual splitting not found at target") from None

    if kind == "induced":
        # the quotient identification maps the kernel onto itself, so
        # induced loops are self-dual
        return e

    if kind == "prod":
        cod = hint[1]
        S_rep = tgt.representative
        # dual kernel on the computed codomain is K(1,1): both Velu
        # codomains carry the dual point as their first root
        straight1 = isomorphisms_with_torsion(cod.E1, S_rep.E1)
        straight2 = isomorphisms_with_torsion(cod.E2, S_rep.E2)
        if straight1 and straight2:
            kk = ProductKernel.product(straight1[0][0], straight2[0][0])
            return edge_of_product_kernel(tgt, kk)
        cross1 = isomorphisms_with_torsion(cod.E1, S_rep.E2)
        cross2 = isomorphisms_with_torsion(cod.E2, S_rep.E1)
        if cross1 and cross2:
            kk = ProductKernel.product(cross2[0][0], cross1[0][0])
            return edge_of_product_kernel(tgt, kk)
        raise GraphError("codomain factors do not match target product")

    if kind == "split":
        S_rep = tgt.representative
        src_curve = src.representative
        src_edge_pairings = {label_pairing(src.points, n)
                             for n, ee in enumerate(src.kernel_to_edge)
                             if ee is e}
        candidates = []
        for perm in sorted(permutations((1, 2, 3))):
            kk = ProductKernel.diagonal(perm)
            res = quotient_diagonal(S_rep, kk)
            if res is S_rep:
                continue
            curve, dual = res
            if VertexKey.jacobian(curve) != e.source:
                continue
            pairing = transport_pairing_oracle(src_curve, dual)
            if pairing in src_edge_pairings:
                candidates.append(edge_of_product_kernel(tgt, kk))
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
        assert kinds == {"jac", "glue", "prod", "split", "induced", "dual"}


def test_dual_transport_from_codomain_with_irrational_points():
    # x -> j x, j^2 = m the nonsquare of GF(p^2), sends the points of
    # y^2 = x^6 + 1 to those of y^2 = x^6 + m^3, all outside GF(p^2):
    # transporting the latter's blocks x^2 - m r^2 raises the typed
    # error on the codomain, with its one (empty) matching
    ctx = make_field(23)
    C = sextic_x6_plus_1(ctx)
    g = build_graph(ctx, seed=C)
    v = g.vertex(VertexKey.of(C))
    pts = [ctx.element(*x) for x in v.points]
    m = ctx.nonsquare()
    halves = [x for x in pts if x < -x]
    spl = splitting_of(
        [Poly(ctx, [-(m * x * x), ctx.zero, ctx.one]) for x in halves],
        ctx.one)
    codomain = spl.curve()
    assert codomain.f == Poly(ctx, [m * m * m] + [ctx.zero] * 5 + [ctx.one])
    assert VertexKey.of(codomain) == v.key
    with pytest.raises(IrrationalPointsError,
                       match="^only 1 rational kernels") as exc:
        dual_label(v, ("jac", codomain, spl))
    assert exc.value.sextic == codomain.f


@pytest.mark.parametrize("p", [23, 41])
def test_edges_carry_their_orbit_kernels(p):
    # the kernel labels on a vertex's edges are its 15 kernels, each on
    # one edge, kernel_rep's among its own; kernel_to_edge is read off
    # them; labels are small ints, named here as the kernel's elements
    # on a product and as its point-key pairing on a Jacobian
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        labels = [k for e in v.edges for k in e.kernels]
        if v.key.kind == "product":
            kernels = product_kernels()
            want = {k.elements() for k in kernels}
            reps = [kernel_rep(g, e).elements() for e in v.edges]

            def name(k):
                return kernels[k].elements()
        else:
            pts = v.points
            want = {matching_pairing(m) for m in genus2._matchings(pts)}
            reps = [matching_pairing(splitting_root_pairs(kernel_rep(g, e)))
                    for e in v.edges]

            def name(k):
                return label_pairing(pts, k)
        assert sorted(labels) == list(range(15))
        assert len(labels) == 15 and set(map(name, labels)) == want
        assert all(e.weight == len(e.kernels)
                   and r in map(name, e.kernels)
                   for e, r in zip(v.edges, reps))
        assert len(v.kernel_to_edge) == 15
        assert all(v.kernel_to_edge[k] is e
                   for e in v.edges for k in e.kernels)


def assert_jacobian_edges_match_label_oracle(g):
    # the edges out of each Jacobian vertex, labelled by MATCHINGS
    # index, are those of the point-key orbit code: the same kernels
    # (kernel_rep) and weights in the same order, each label the
    # oracle's pairing when translated, and the target each kernel
    # steps to
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    assert jacobians
    for v in jacobians:
        K, pts = v.representative.ctx, v.points
        want = jacobian_orbits_oracle(
            K, pts, v.representative.leading,
            moebius_stabilizing(K, pts, own_frames(v)))
        assert [(kernel_rep(g, e), e.weight) for e in v.edges] \
            == [(rep, len(pairings)) for rep, pairings in want]
        for e, (rep, pairings) in zip(v.edges, want):
            assert tuple(label_pairing(pts, k) for k in e.kernels) \
                == pairings
            assert e.target == graph._jacobian_step(rep)[0]


@pytest.mark.parametrize("p", [23, 41])
def test_jacobian_edges_match_label_oracle(p):
    assert_jacobian_edges_match_label_oracle(build_graph(make_field(p)))


@pytest.mark.slow
def test_jacobian_edges_match_label_oracle_p101():
    assert_jacobian_edges_match_label_oracle(build_graph(make_field(101)))


@pytest.fixture(scope="module", params=[11, 23, 41, 59])
def product_graph(request):
    return build_graph(make_field(request.param))


ID = (1, 2, 3)


def random_model(E, rng):
    """E with its roots moved by a random affine map and shuffled."""
    u, t = random_element(E.ctx, rng), random_element(E.ctx, rng)
    while u.is_zero():
        u = random_element(E.ctx, rng)
    roots = [u * r + t for r in E.roots()]
    rng.shuffle(roots)
    return EllipticCurveE2(*roots)


def test_torsion_action_matches_oracle(product_graph, rng):
    # every automorphism of every product vertex and of a random model
    # of it, as a kernel label map, against the three-branch action on
    # the kernels' elements: the factors' automorphisms first, then a
    # swap through psi after them; the random models give psi other
    # than identity
    surfaces = [v.representative for v in product_graph.vertices.values()
                if isinstance(v.representative, ProductSurface)]
    surfaces += [ProductSurface(random_model(S.E1, rng),
                                random_model(S.E2, rng)) for S in surfaces]
    swaps = []
    for S in surfaces:
        old = [((p1, p2, ()),)
               for p1 in isomorphisms_with_torsion(S.E1, S.E1)
               for p2 in isomorphisms_with_torsion(S.E2, S.E2)]
        cross = isomorphisms_with_torsion(S.E1, S.E2)
        swaps += cross[:1]
        straight = [kernel_map_oracle(*steps) for steps in old]
        crossed = [kernel_map_oracle(*steps, (ID, ID, cross[0]))
                   for steps in old] if cross else []
        maps = list(kernel_maps(S, S))
        assert maps[:len(straight)] == straight
        assert sorted(maps[len(straight):]) == sorted(crossed)
    assert any(psi != ID for psi in swaps)


def test_transport_kernel_matches_two_step_oracle(product_graph):
    # every edge onto a product: the dual kernel of its step moved onto
    # the target's representative, the crossed case as the factor
    # isomorphisms followed by a swap through the identity matching
    crossed = 0
    for e in product_graph.edges:
        if e.target.kind != "product":
            continue
        hint = stepped_hint(product_graph, e)
        _, src, dual = hint
        tgt = product_graph.vertex(e.target)
        dst = tgt.representative
        s1 = isomorphisms_with_torsion(src.E1, dst.E1)
        s2 = isomorphisms_with_torsion(src.E2, dst.E2)
        if s1 and s2:
            steps = [(s1[0], s2[0], ())]
        else:
            c1 = isomorphisms_with_torsion(src.E1, dst.E2)
            c2 = isomorphisms_with_torsion(src.E2, dst.E1)
            steps = [(c1[0], c2[0], ()), (ID, ID, ID)]
            crossed += 1
        assert dual_label(tgt, hint) == kernel_map_oracle(*steps)[dual]
    assert crossed


@pytest.mark.parametrize("p", [23, 41])
def test_kernel_maps_match_two_step_oracle(p, rng):
    # every ordered pair of product vertices, and of random models of
    # them with the factors kept or exchanged: the isomorphisms as
    # label maps, straight ones first, each as the factor isomorphisms
    # and (crossed) a swap through the identity matching after them;
    # a pair of non-isomorphic products yields none
    g = build_graph(make_field(p))
    surfaces = [(v.key, v.representative) for v in g.vertices.values()
                if v.key.kind == "product"]
    surfaces += [(key, ProductSurface(random_model(F1, rng),
                                      random_model(F2, rng)))
                 for key, S in surfaces
                 for F1, F2 in ((S.E1, S.E2), (S.E2, S.E1))]
    crossed = 0
    for key, S in surfaces:
        for key2, D in surfaces:
            want = []
            for swap, (F1, F2) in ((False, (D.E1, D.E2)),
                                   (True, (D.E2, D.E1))):
                exchange = [(ID, ID, ID)] if swap else []
                part = [kernel_map_oracle((p1, p2, ()), *exchange)
                        for p1 in isomorphisms_oracle(S.E1, F1)
                        for p2 in isomorphisms_oracle(S.E2, F2)]
                crossed += bool(swap and part)
                want += part
            assert list(kernel_maps(S, D)) == want
            assert bool(want) == (key == key2)
    assert crossed


def test_validate_runs_on_ints(monkeypatch):
    # validate at p = 41 reads every dual as a recorded label: no
    # FieldElement product, inverse or square root, and no factor
    # search.  Moving each step's dual onto its target, as the build
    # does, runs on int pairs too; product duals search a factor pair's
    # second factor only after its first factor matched
    g = build_graph(make_field(41))
    hints = [(g.vertex(e.target), stepped_hint(g, e)) for e in g.edges]
    calls, log = [], []
    for name in ("__mul__", "__rmul__", "inverse", "sqrt"):
        real = getattr(FieldElement, name)
        monkeypatch.setattr(FieldElement, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    real_iso, real_maps = gluing.isomorphisms_with_torsion, graph.kernel_maps

    def iso(E, E2):
        log[-1][1].append((E, E2))
        return real_iso(E, E2)

    def maps(src, dst):
        log.append(((src, dst), []))
        return real_maps(src, dst)

    monkeypatch.setattr(gluing, "isomorphisms_with_torsion", iso)
    monkeypatch.setattr(graph, "kernel_maps", maps)
    assert validate(g).ok
    assert (calls, log) == ([], [])
    for tgt, hint in hints:
        dual_label(tgt, hint)
    assert calls == []
    # a crossed first factor fails only between non-isomorphic products
    S, D = (v for v in g.vertices.values()
            if v.key.data in (((0, 0), (0, 0)), ((3, 0), (3, 0))))
    with pytest.raises(GraphError, match="do not match"):
        dual_label(D, ("prod", S.representative, 0))
    monkeypatch.undo()
    skipped = [0, 0]
    for (src, dst), searched in log:
        want = []
        for order, (first, second) in enumerate((
                ((src.E1, dst.E1), (src.E2, dst.E2)),
                ((src.E1, dst.E2), (src.E2, dst.E1)))):
            want.append(first)
            if not isomorphisms_oracle(*first):
                skipped[order] += 1
                continue
            want.append(second)
            if isomorphisms_oracle(*second):
                break
        assert searched == want, (src, dst)
    assert len(log) > 1 and 0 not in skipped


def sextic_x6_plus_1(ctx):
    return Genus2Curve(Poly.from_ints(ctx, [1, 0, 0, 0, 0, 0, 1]))


def test_each_vertex_factored_once_and_validate_never(monkeypatch):
    # every Jacobian vertex is reached by an edge and reads its points
    # off that edge's dual splitting, so a product-seeded build runs no
    # Cantor-Zassenhaus at all, and validate adds none
    clear_genus2_caches()
    names = ("factor_quadratic_pieces", "splittings", "weierstrass_points")
    calls = {name: count_calls(monkeypatch, name) for name in names}
    g = build_graph(make_field(23))
    assert any(v.key.kind == "jacobian" for v in g.vertices.values())
    assert {name: len(c) for name, c in calls.items()} \
        == dict.fromkeys(names, 0)
    assert validate(g).ok
    assert {name: len(c) for name, c in calls.items()} \
        == dict.fromkeys(names, 0)


def test_build_makes_curves_only_for_representatives(monkeypatch):
    # a p = 41 build + validate makes a Poly only for each of its 11
    # glued curves, for their gcd squarefree test: each of the 31
    # Jacobians built from a step holds its codomain curve's sextic
    # pairs, each of the 9 mirrors conjugates its partner's pairs, and
    # every other codomain is keyed off its pairs (51 Polys before,
    # while each of the 40 representatives made its curve's Poly)
    made, real = [], Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args:
                        made.append(args) or real(self, *args))
    gcd = count_calls(monkeypatch, "is_squarefree")
    g = build_graph(make_field(41))
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    mirrors = mirror_pairs(g)
    built = [e for e in reaching_edges(g) if e.target.kind == "jacobian"
             and e.hint[0] in ("jac", "glue")
             and g.vertex(e.target).partner is None]
    assert (len(jacobians), len(mirrors), len(built)) == (40, 9, 31)
    assert (len(made), len(gcd)) == (11, 11)
    glued = [g.vertex(e.target) for e in built if e.hint[0] == "glue"]
    assert [v for v in jacobians if "f" in vars(v.representative)] \
        == glued
    assert validate(g).ok
    assert len(made) == 11


def test_clebsch_memo_keeps_its_hits_within_its_bound(monkeypatch):
    # the clebsch_invariants memo keeps genus2.CLEBSCH_KEPT curves and
    # is never read: a vertex reads its RA type off its key (ra_type_of),
    # and VertexKey.jacobian keys curves and step codomains alike off
    # their sextics' int pairs, so neither a p = 41 build + validate nor
    # 150 lookups of random models of its vertices, 119 of them
    # Jacobians, ask it for a Clebsch point (119 misses before, one per
    # queried Jacobian, while curves were keyed through it; 1,323
    # curves and a full memo before that, 144 of them the build's; 31
    # and 119 hits before that, one per Jacobian made from a curve whose
    # key was just read; test_curve_memos_stay_within_their_bounds
    # fills it).
    # weierstrass_points is never hit.  The build runs the gcd
    # squarefree test only on its 11 glued curves
    memo, points = genus2.clebsch_invariants, genus2.weierstrass_points
    memo.cache_clear()
    points.cache_clear()
    gcds = count_calls(monkeypatch, "is_squarefree")
    ctx, rng = make_field(41), random.Random(41)
    g = build_graph(ctx)
    assert validate(g).ok
    assert (len(gcds), memo.cache_info()[:2]) == (11, (0, 0))
    vertices, jacobians = list(g.vertices.values()), 0
    for _ in range(150):
        v = rng.choice(vertices)
        rep = v.representative
        if v.points:
            jacobians += 1
            a, b, c, d = (random_element(ctx, rng) for _ in range(4))
            while (a * d - b * c).is_zero():
                a = random_element(ctx, rng)
            rep = transform_curve(rep, a, b, c, d)
        else:
            rep = ProductSurface(random_model(rep.E1, rng),
                                 random_model(rep.E2, rng))
        assert sorted((e.weight, e.target) for e in neighbourhood(rep)) \
            == sorted((e.weight, e.target) for e in v.edges)
    info = memo.cache_info()
    assert (jacobians, info.hits, info.misses) == (119, 0, 0)
    assert info.currsize == 0 < info.maxsize == genus2.CLEBSCH_KEPT
    assert points.cache_info().hits == 0


def test_each_jacobian_vertex_pairs_once(monkeypatch):
    # each vertex's pairings come from the point matchings made once
    # with its frames: no square-root pairing in the build or validate
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "splitting_pairing")
    g = build_graph(make_field(23))
    assert any(v.key.kind == "jacobian" for v in g.vertices.values())
    assert validate(g).ok
    assert calls == []


def test_jacobian_seeded_build_factors_once(monkeypatch):
    # the seed is the one vertex with no dual to read its points off
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces")
    ctx = make_field(23)
    g = build_graph(ctx, seed=sextic_x6_plus_1(ctx))
    assert validate(g).ok
    assert len(calls) == 1


def test_build_graph_refuses_an_elliptic_curve_seed(ctx11):
    with pytest.raises(GraphError, match="^unsupported representative"):
        build_graph(ctx11, seed=e_1728(ctx11))


def test_jacobian_seed_matches_product_seed():
    ctx = make_field(23)
    g = build_graph(ctx, seed=sextic_x6_plus_1(ctx))
    assert next(iter(g.vertices)).kind == "jacobian"
    assert export(g, "json") == export(build_graph(ctx), "json")
    assert validate(g).ok


def test_each_jacobian_vertex_builds_frames_once(monkeypatch):
    # one Moebius frame index per Jacobian sigma-class, shared by its RA
    # order, its orbits and every dual moved onto the vertex or onto its
    # mirror, which builds none (10 and 40 indexes before, one per
    # Jacobian vertex); none for the mixed-rationality transport, which
    # no p = 23 edge needs.  Each is built on its vertex's points.
    calls = count_calls(monkeypatch, "moebius_frames")
    for p, want in (23, 9), (41, 31):
        del calls[:]
        genus2.reduced_automorphisms.cache_clear()
        g = build_graph(make_field(p))
        assert validate(g).ok
        jacobians = [v for v in g.vertices.values()
                     if v.key.kind == "jacobian"]
        mirrors = {m.key for _, m in mirror_pairs(g)}
        assert len(calls) == len(jacobians) - len(mirrors) == want
        assert sorted(tuple(pts) for _, pts in calls) \
            == sorted(tuple(v.points) for v in jacobians
                      if v.key not in mirrors)


def raw_hints(monkeypatch):
    """The hint of each edge as _expand made it, by the edge's id, before
    build_graph moved its dual onto the target."""
    raw, real = {}, graph._expand

    def expand(*args):
        edges = real(*args)
        raw.update((id(e), e.hint) for e in edges)
        return edges
    monkeypatch.setattr(graph, "_expand", expand)
    return raw


def frobenius_derived(g, raw):
    """The edges _expand derived from their Frobenius partner, whose
    hint, as it made it, holds the partner edge."""
    return [e for e in g.edges if isinstance(raw[id(e)][2], OrbitEdge)]


def other_model_edges(g, raw):
    """The stepped edges whose codomain, as _expand made it, is another
    model than their target's representative: those whose dual
    build_graph moves by an isomorphism."""
    return [e for e in g.edges if not isinstance(raw[id(e)][2], OrbitEdge)
            and raw[id(e)][1] is not g.vertex(e.target).representative]


def test_each_jacobian_vertex_reads_its_ra_maps_once(monkeypatch):
    # _make_vertex reads the RA maps off the frames once; its RA order
    # and the expansion's orbits share them, and so does its mirror,
    # which reads none.  It reads one more map, its Frobenius map
    # (Vertex.sigma), at each sigma-fixed Jacobian; the two vertices of
    # a sigma-swapped pair share their labels and read none.  The build
    # reads one more per stepped dual it moves onto a Jacobian target
    # whose codomain is another model.  The others, derived from a dual
    # or a Frobenius partner, or the 31 that built their target, are
    # read with no map (175 maps before, when the 9 mirrors read their
    # own RA maps; 233 before that: 58 more, for the Frobenius labels of
    # each Frobenius-derived dual into a sigma-fixed Jacobian; 298
    # before that)
    raw = raw_hints(monkeypatch)
    calls = count_calls(monkeypatch, "moebius_stabilizing")
    g = build_graph(make_field(41))
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    mirrors = mirror_pairs(g)
    fixed = sum(v.key.conjugate(41) == v.key for v in jacobians)
    moved = [e for e in other_model_edges(g, raw)
             if e.target.kind == "jacobian"]
    assert (len(jacobians), len(mirrors), fixed, len(moved)) \
        == (40, 9, 22, 113)
    assert len(calls) \
        == len(jacobians) - len(mirrors) + fixed + len(moved) == 166
    assert all(v.ra_order == len(v.ra_maps) for v in jacobians)
    assert all(m.ra_maps is w.ra_maps for w, m in mirrors)
    assert validate(g).ok
    assert len(calls) == 166


def assert_edges_match_stepping_oracle(g):
    # every vertex's edges are those of one step per orbit: the same
    # target, weight, kernels and stepped kernel (kernel_rep); and the
    # stepped dual, moved onto the target, is in the orbit of the
    # recorded label, so a derived dual is checked apart from the
    # derived key
    for v in g.vertices.values():
        want = stepped_edges_oracle(v)
        assert [(e.target, e.weight, e.kernels, kernel_rep(g, e))
                for e in v.edges] == [(o.target, o.weight, o.kernels, k)
                                      for o, k in want]
        for e, (o, _) in zip(v.edges, want):
            tgt = g.vertex(e.target)
            assert dual_edge(g, e) is tgt.kernel_to_edge[
                dual_label(tgt, o.hint)], e.sort_key()


@pytest.mark.parametrize("p", [23, 41])
def test_edges_match_stepping_oracle(p):
    assert_edges_match_stepping_oracle(build_graph(make_field(p)))


@pytest.mark.slow
def test_edges_match_stepping_oracle_p101():
    assert_edges_match_stepping_oracle(build_graph(make_field(101)))


def atlas_weights(ra_type):
    """The sorted orbit weights of the generic atlas row of ra_type
    (atlas.EDGE_TABLES), with fifteen 1s for Type A and three 5s for
    Type II, which the table leaves out."""
    return {RAType.A: [1] * 15, RAType.II: [5] * 3}.get(ra_type) or sorted(
        w for w, _ in EDGE_TABLES[ra_type][None])


def assert_orbit_weights_match_atlas(g):
    # an oracle that reads no dual and no hint: every vertex's sorted
    # orbit weights are those of its RA type's generic atlas row
    for v in g.vertices.values():
        assert sorted(e.weight for e in v.edges) \
            == atlas_weights(v.ra_type), v.key.as_string()
    return {v.ra_type for v in g.vertices.values()}


@pytest.mark.parametrize("p, types", [(23, 11), (29, 11), (41, 9)])
def test_orbit_weights_match_atlas(p, types):
    # p = 29 has Type A and Type II vertices
    assert len(assert_orbit_weights_match_atlas(
        build_graph(make_field(p)))) == types


@pytest.mark.slow
def test_orbit_weights_match_atlas_p101():
    assert len(assert_orbit_weights_match_atlas(
        build_graph(make_field(101)))) == 10


def test_build_steps_only_orbits_without_a_known_partner(monkeypatch):
    # of the 526 orbit edges at p = 41, 198 hold the dual of an edge
    # into their source from a vertex expanded before it, and take that
    # vertex as their target; 143 more are derived from their Frobenius
    # partner, at the 9 vertices whose conjugate was expanded first or
    # as the second orbit of a sigma-swapped pair at a sigma-fixed
    # vertex.  The other 185 run a step (262 and 66 with no records)
    raw = raw_hints(monkeypatch)
    jac = count_calls(monkeypatch, "_jacobian_step", graph)
    prod = count_calls(monkeypatch, "_product_step", graph)
    g = build_graph(make_field(41))
    assert len(g.edges) == 526
    assert (len(jac), len(prod)) == (150, 35)
    assert sum(h[0] == "dual" and h[1] is g.vertex(e.target).representative
               for e in g.edges for h in [raw[id(e)]]) == 198
    assert validate(g).ok


@pytest.mark.parametrize("p", [23, 41])
def test_jacobian_hints_hold_their_duals_curve(p):
    # a derived codomain is its partner's conjugated coefficientwise,
    # a dual-derived one is the target's own model, with its dual as a
    # label there: either way the recorded dual splitting multiplies out
    # to the codomain's sextic
    g = build_graph(make_field(p))
    edges = [e for e in g.edges if isinstance(e.hint[1], Genus2Curve)]
    assert {e.hint[0] for e in edges} == {"jac", "glue", "dual"}
    for e in edges:
        assert recorded_dual_splitting(g, e).curve().f == e.hint[1].f, \
            e.hint


def test_validate_catches_a_record_moved_to_another_orbit(monkeypatch):
    # the first dual the build moves onto a Jacobian target with orbits
    # of two weights, moved on to the first label of an orbit there of
    # another weight than its own dual's (by a map sending kernel 0 to
    # that label), gives an orbit the wrong target or the edge the wrong
    # dual, and the ratio principle sees it
    moves = patch_moves(monkeypatch)
    build_graph(make_field(41))
    monkeypatch.undo()
    n, label = next(
        (n, o.kernels[0]) for n, (_, tgt, m) in enumerate(moves) if tgt.points
        for w in [tgt.kernel_to_edge[m[0]].weight]
        for o in tgt.edges if o.weight != w)
    calls = []

    def move(src, tgt, m):
        calls.append(m)
        return genus2.matching_action(sum(genus2.MATCHINGS[label], ())) \
            if len(calls) == n + 1 else m
    patch_moves(monkeypatch, move)
    g = build_graph(make_field(41))
    monkeypatch.undo()
    failed = {name for name, ok, _ in validate(g).checks if not ok}
    assert failed == {"ratio principle", "dual involution"}


def moved_dual_fails_validate(g, e, dual):
    """The checks validate fails once e's hint holds dual, the label or
    kernel_rep of another orbit at its target than its own dual's."""
    assert e.hint[1] is g.vertex(e.target).representative
    e.hint = e.hint[:2] + (dual,)
    return {name for name, ok, _ in validate(g).checks if not ok}


def other_weight_edge(g, e):
    """The first edge at e's target whose weight differs from that of
    e's dual edge, so that the ratio principle sees the move; None if
    every orbit there has that weight."""
    w = dual_edge(g, e).weight
    return next((o for o in g.vertex(e.target).edges if o.weight != w),
                None)


def test_validate_catches_a_dual_label_moved_to_another_orbit():
    # a dual-derived Jacobian edge records its dual as a label on its
    # target's own model, which validate reads with no isomorphism
    g = build_graph(make_field(41))
    e, o = next((e, o) for e in g.edges if e.hint[0] == "dual"
                and e.hint[1] is g.vertex(e.target).representative
                and e.target.kind == "jacobian"
                for o in [other_weight_edge(g, e)] if o)
    assert moved_dual_fails_validate(g, e, o.kernels[0]) \
        == {"ratio principle", "dual involution"}


def test_validate_catches_a_first_reaching_dual_moved_to_another_orbit():
    # the edge that first reached a Jacobian vertex built it from its
    # hint, whose dual the build labelled on the vertex's points, and
    # validate reads that label with no Moebius map
    g = build_graph(make_field(41))
    e, o = next((e, o) for e in g.edges if e.hint[0] == "jac"
                and e.hint[1] is g.vertex(e.target).representative
                for o in [other_weight_edge(g, e)] if o)
    assert moved_dual_fails_validate(g, e, o.kernels[0]) \
        == {"ratio principle", "dual involution"}


def test_validate_maps_only_duals_recorded_on_another_model(monkeypatch):
    # at p = 41, 242 of the 526 edges have their target's own model as
    # codomain: the 198 dual-derived ones, the 40 that first reached
    # their target and built it, and the 4 induced loops.  The build
    # keeps their duals, reads each of the 143 Frobenius-derived ones
    # off its partner, and moves each of the other 141 onto its target
    # once, by its first isomorphism from the step's codomain: one
    # Moebius map from the dual's roots onto a Jacobian, or one
    # kernel_maps search onto a product, whose factor isomorphisms it
    # counts (275 moves, 227 maps and 110 factor searches before, when
    # Frobenius-derived duals were moved too).  Every built hint is then
    # (kind, the target's representative, a label), and validate maps
    # none (it made 227 maps, 48 searches and 114 factor searches
    # before)
    raw = raw_hints(monkeypatch)
    moved = patch_moves(monkeypatch)
    g = build_graph(make_field(41))
    other = other_model_edges(g, raw)
    assert (len(g.edges), len(frobenius_derived(g, raw)), len(other)) \
        == (526, 143, 141)
    assert all(tgt is g.vertex(e.target)
               for (_, tgt, _), e in zip(moved, other))
    assert all(e.hint[0] == raw[id(e)][0] and type(e.hint[2]) is int
               and e.hint[1] is g.vertex(e.target).representative
               for e in g.edges)
    monkeypatch.undo()
    moebius = count_calls(monkeypatch, "moebius_stabilizing")
    factors = count_calls(monkeypatch, "isomorphisms_with_torsion", elliptic)
    searches = count_calls(monkeypatch, "kernel_maps", gluing)
    assert validate(g).ok
    assert (moebius, factors, searches) == ([], [], [])
    onto_products = [(raw[id(e)][1], g.vertex(e.target).representative)
                     for e in other if e.target.kind == "product"]
    for e in other:
        dual_label(g.vertex(e.target), raw[id(e)])
    assert len(moebius) == len(other) - len(onto_products) == 113
    assert searches == onto_products
    assert len(factors) == 67


@pytest.mark.parametrize("p", [23, 41])
def test_duals_on_the_targets_own_model_are_labels(p):
    # a dual recorded on its target's own model is a kernel label there,
    # at both vertex kinds: the build labels the dual splitting of the
    # edge that first reached a Jacobian vertex when it builds the vertex
    g = build_graph(make_field(p))
    own = [e for e in g.edges
           if e.hint[1] is g.vertex(e.target).representative]
    assert {e.hint[0] for e in own if e.target.kind == "jacobian"} \
        >= {"jac", "glue", "dual"}
    assert all(type(e.hint[2]) is int for e in own)


def test_validate_finds_roots_only_of_duals_on_another_model(monkeypatch):
    # the build finds the three block roots of the dual splitting of
    # each of the 113 stepped edges into a Jacobian whose codomain is
    # another model than the target's representative, and of each of
    # the 31 that built their target from their codomain, and of no
    # other: the 9 mirrors are built from their partners' points.
    # validate finds none (681 before, when it moved the 227 duals
    # the build moved then again; 801 in the build before, when it
    # moved each Frobenius-derived dual)
    raw = raw_hints(monkeypatch)
    roots = count_calls(monkeypatch, "_block_roots")
    g = build_graph(make_field(41))
    other = [e for e in other_model_edges(g, raw)
             if e.target.kind == "jacobian"]
    built = [e for e in reaching_edges(g) if e.target.kind == "jacobian"
             and raw[id(e)][1] is g.vertex(e.target).representative]
    assert len(roots) == 3 * (len(other) + len(built)) == 3 * (113 + 31)
    del roots[:]
    assert validate(g).ok
    assert roots == []


@pytest.mark.parametrize("p", [23, 41])
def test_mirror_vertices_keep_their_partners_labels(p):
    # the later vertex of each sigma-swapped pair is built as the
    # earlier's conjugate, its points the earlier's conjugated in their
    # order, so that sigma sends kernel l of one to kernel l of the
    # other: each edge of the later-expanded vertex has the kernels, in
    # an order of its own, and the dual label of its partner, the edge
    # holding its first kernel (at a sigma-fixed target, the label's
    # image under the target's sigma)
    g = build_graph(make_field(p))
    built = list(g.vertices)
    expanded = list(dict.fromkeys(e.source for e in g.edges))
    pairs = [(g.vertex(key.conjugate(p)), m) for key, m in g.vertices.items()
             if built.index(key.conjugate(p)) < built.index(key)]
    assert len(pairs) == {23: 1, 41: 9}[p]

    def conj(x):  # an (a, b) pair or INF
        return x and (x[0], -x[1] % p)
    for w, m in pairs:
        assert [(c.a, c.b) for c in m.representative.f.coeffs] \
            == [conj(c.key()) for c in w.representative.f.coeffs]
        assert m.points == list(map(conj, w.points)), m.key.as_string()
    for w, m in pairs:
        first, later = sorted((w, m), key=lambda v: expanded.index(v.key))
        for o in later.edges:
            e = first.kernel_to_edge[o.kernels[0]]
            act = g.vertex(e.target).sigma
            assert (o.target, sorted(o.kernels), o.hint[2]) == (
                e.target.conjugate(p), sorted(e.kernels), act[e.hint[2]])


# (product mirrors, moves onto them) by prime
PRODUCT_MIRRORS = {41: (0, 0), 43: (3, 10), 101: (8, 23)}


@pytest.mark.parametrize("p, mirrors, moves",
                         [(41, 9, 20), (43, 15, 59), (101, 173, 485)])
def test_mirrors_share_their_partners_maps_and_frames(
        monkeypatch, p, mirrors, moves):
    # a Jacobian mirror builds no frames: it shares its partner's RA maps,
    # which are the maps read off an index of its own points, and each
    # move onto it, made on its partner's index from the conjugated
    # source, is the label map of the first map onto that index.  A
    # product mirror takes its partner's RA type and order, and
    # classifying it afresh agrees; each move onto it searches only its
    # partner, from the conjugated source, and is the first kernel_maps
    # map onto the mirror itself
    moved = patch_moves(monkeypatch)
    searched = count_calls(monkeypatch, "kernel_maps", gluing)
    g = build_graph(make_field(p))
    monkeypatch.undo()
    pairs = mirror_pairs(g)
    onto = [(src, v, m) for src, v, m in moved
            if v.partner is not None and v.points is not None]
    products = [v for v in g.vertices.values()
                if v.partner is not None and v.points is None]
    onto_products = [(src, v, m) for src, v, m in moved
                     if v.partner is not None and v.points is None]
    assert (len(pairs), len(onto)) == (mirrors, moves)
    assert (len(products), len(onto_products)) == PRODUCT_MIRRORS[p]
    for v in products:
        w = v.partner
        assert v.key.kind == "product" and w.key == v.key.conjugate(p)
        assert (v.ra_type, v.ra_order) == (w.ra_type, w.ra_order)
        assert v.ra_type == ra_type_of_oracle(v.representative)
        assert v.ra_order == ra_order_product(v.ra_type)
    for w, v in pairs:
        K = v.representative.ctx
        own = moebius_frames(K, v.points)
        assert v.partner is w
        assert v.ra_maps == w.ra_maps
        assert sorted(v.ra_maps) \
            == sorted(moebius_stabilizing(K, v.points, own))
    for src, v, m in onto:
        K = v.representative.ctx
        own = moebius_frames(K, v.points)
        assert m == genus2.matching_action(
            tuple(next(iter(moebius_stabilizing(K, src, own)))))
    for src, v, m in onto_products:
        assert m == next(kernel_maps(src, v.representative))
    mirrored = {id(v.representative) for v in products}
    assert not [D for S, D in searched if S is not D and id(D) in mirrored]


@pytest.mark.parametrize("p", [23, 41])
def test_first_map_is_a_kernel_label_map_onto_either_kind(p):
    # from a conjugated model of a sigma-fixed vertex of each kind,
    # _first_map returns the 15 labels the moved kernels take there: a
    # permutation of range(15), which is the vertex's sigma, and which
    # sends each kernel's Frobenius image's orbit onto its own
    g = build_graph(make_field(p))
    for kind in ("jacobian", "product"):
        v = next(v for v in g.vertices.values() if v.key.kind == kind
                 and v.key.conjugate(p) == v.key and v.partner is None)
        m = graph._first_map(
            graph._conjugate(v.points or v.representative, p), v,
            move_frames(v))
        assert len(m) == 15 and sorted(m) == list(range(15))
        assert tuple(m) == tuple(v.sigma)
        for e in v.edges:
            assert {v.kernel_to_edge[m[k]].target for k in e.kernels} \
                == {e.target.conjugate(p)}


def test_make_vertex_reads_its_ra_maps_off_its_own_table(monkeypatch):
    # a Jacobian vertex that sigma does not fix, with six finite points,
    # takes the 15 inverses of its frame table, one per pair of points,
    # and reads its RA maps' base frame off that table's q: none more
    g = build_graph(make_field(41))
    v = next(v for v in g.vertices.values() if v.key.kind == "jacobian"
             and v.key.conjugate(41) != v.key and v.partner is None
             and genus2.INF not in v.points and v.ra_order > 1)
    ctx, inverses = v.representative.ctx, []
    real_pinv = type(ctx).pinv
    monkeypatch.setattr(type(ctx), "pinv", lambda *args:
                        inverses.append(args) or real_pinv(*args))
    frames = {}
    w = graph._make_vertex(v.key, v.representative, frames, v.points)
    assert len(inverses) == 15
    assert list(frames) == [v.key]
    assert (w.ra_type, w.ra_order, w.ra_maps) \
        == (v.ra_type, v.ra_order, v.ra_maps)
    assert sorted(w.ra_maps) == sorted(moebius_stabilizing(
        ctx, v.points, frames[v.key]))


@pytest.mark.parametrize("p, fixed", [(23, 14), (29, 18), (41, 32)])
def test_vertex_sigma_labels_each_kernels_frobenius_image(p, fixed):
    # at a sigma-fixed vertex sigma[l] labels the image of kernel l: its
    # edge has the weight of l's edge and the conjugate of its target,
    # and sigma twice keeps l's orbit.  Every other vertex is built
    # before its conjugate or as its mirror, so sigma is the identity
    g = build_graph(make_field(p))
    seen = 0
    for v in g.vertices.values():
        if v.key.conjugate(p) != v.key:
            assert v.sigma == tuple(range(15)), v.key.as_string()
            continue
        seen += 1
        assert sorted(v.sigma) == list(range(15))
        for k in range(15):
            e, o = v.kernel_to_edge[k], v.kernel_to_edge[v.sigma[k]]
            assert (o.weight, o.target) == (e.weight, e.target.conjugate(p))
            assert v.kernel_to_edge[v.sigma[v.sigma[k]]] is e
    assert seen == fixed


@pytest.mark.parametrize("p, n", [(23, 9), (41, 31)])
def test_a_vertex_built_from_a_step_holds_its_dual_as_kernel_0(
        monkeypatch, p, n):
    # a Jacobian vertex built from the codomain of the stepped edge that
    # first reached it takes the roots of the step's dual splitting,
    # pair by pair, as its points, so the edge's built hint names
    # kernel 0 there, with no sort and no map
    raw = raw_hints(monkeypatch)
    g = build_graph(make_field(p))
    built = [e for e in reaching_edges(g)
             if isinstance(raw[id(e)][2], genus2.QuadraticSplitting)
             and raw[id(e)][1] is g.vertex(e.target).representative]
    assert len(built) == n
    for e in built:
        v, (kind, _, dual) = g.vertex(e.target), raw[id(e)]
        assert e.hint[0] == kind and e.hint[1] is v.representative
        assert e.hint[2] == 0, e.sort_key()
        assert v.points == list(sum(splitting_root_pairs(dual), ()))


def test_build_moves_only_stepped_duals(monkeypatch):
    # the build moves only duals that steps made: the 141 stepped edges
    # at p = 41 whose codomain is another model of their target, each
    # from the step's product codomain or the roots of its dual
    # splitting, pair by pair.  The 143 Frobenius-derived duals are read
    # off their partners (275 moves before, when each derived dual was
    # moved again)
    stepped = set()
    for name in ("_jacobian_step", "_product_step"):
        def step(*args, real=getattr(graph, name)):
            out = real(*args)
            stepped.add(id(out[1]))
            return out
        monkeypatch.setattr(graph, name, step)
    raw = raw_hints(monkeypatch)
    moved = patch_moves(monkeypatch)
    g = build_graph(make_field(41))
    other = other_model_edges(g, raw)
    assert len(frobenius_derived(g, raw)) == 143
    assert len(moved) == len(other) == 141
    for (src, tgt, _), e in zip(moved, other):
        _, codomain, dual = hint = raw[id(e)]
        assert id(hint) in stepped and tgt is g.vertex(e.target)
        assert src is codomain if tgt.points is None \
            else src == list(sum(splitting_root_pairs(dual), ()))


@pytest.mark.parametrize("p", [23, 41])
def test_kernel_rep_rebuilds_the_stepped_kernel(monkeypatch, p):
    # an edge keeps its kernel labels, not its kernels: kernel_rep
    # rebuilds from the first label at the edge's source exactly the
    # kernel that _expand stepped, on every stepped edge of both kinds
    stepped = {}
    for name in ("_jacobian_step", "_product_step"):
        def step(*args, real=getattr(graph, name)):
            out = real(*args)
            stepped[id(out[1])] = out[1], args[-1]
            return out
        monkeypatch.setattr(graph, name, step)
    raw = raw_hints(monkeypatch)
    g = build_graph(make_field(p))
    edges = [e for e in g.edges if id(raw[id(e)]) in stepped]
    assert len(edges) == len(stepped)
    assert {e.source.kind for e in edges} == {"jacobian", "product"}
    for e in edges:
        assert kernel_rep(g, e) == stepped[id(raw[id(e)])][1], e.sort_key()


def test_build_names_an_edge_whose_frame_table_is_gone(monkeypatch):
    # each frame table dropped as soon as its vertex is made: the first
    # move onto a Jacobian finds no table, and the build raises a
    # GraphError naming the edge, not a bare KeyError
    raw = raw_hints(monkeypatch)
    g = build_graph(make_field(41))
    e = next(e for e in other_model_edges(g, raw)
             if e.target.kind == "jacobian")
    monkeypatch.undo()
    make = graph._make_vertex

    def released(key, rep, frames, *args):
        v = make(key, rep, frames, *args)
        frames.pop(key, None)
        return v
    monkeypatch.setattr(graph, "_make_vertex", released)
    with pytest.raises(GraphError) as exc:
        build_graph(make_field(41))
    at = e.target.as_string()
    assert str(exc.value) == (
        f"edge {e.source.as_string()} -> {at} of kernels {e.kernels}: "
        f"no frame table to move onto {at}")


@pytest.mark.parametrize("p, tables, peak", [(41, 31, 17), (101, 275, 171)])
def test_build_releases_every_frame_table(monkeypatch, p, tables, peak):
    # build_graph keeps a Jacobian's frame table only while a move may
    # read it: once the vertex and its conjugate are expanded, after the
    # vertex's own moves.  Every table is freed by the time it returns,
    # at most peak of them alive at once (all of them, to the end, when
    # vertices kept their tables), and no built vertex or edge has a
    # slot for a table or a kernel
    refs, alive = [], []

    class Tracked(genus2.MoebiusIndex):
        __slots__ = ("__weakref__",)

        def __init__(self, ctx, pts):
            super().__init__(ctx, pts)
            refs.append(weakref.ref(self))
            alive.append(sum(r() is not None for r in refs))
    monkeypatch.setattr(graph, "moebius_frames", Tracked)
    g = build_graph(make_field(p))
    assert len(refs) == tables
    assert [r for r in refs if r() is not None] == []
    assert max(alive) == peak
    assert not any(hasattr(v, "frames") for v in g.vertices.values())
    assert not any(hasattr(e, "kernel_rep") for e in g.edges)


@pytest.mark.parametrize("p, labellings", [(41, 101), (101, 184)])
def test_built_graph_shares_keys_and_kernels(p, labellings):
    # each edge holds its vertices' own key objects, not one a step or a
    # conjugation made, and the edges of one labelling share one kernels
    # tuple (p = 41 held 526 kernels tuples and 10 keys a vertex before).
    # A key hashes and sorts as the tuple (kind, data), as the frozen
    # dataclass it replaced did, so every order and digest is unchanged
    g = build_graph(make_field(p))
    assert all(e.source is g.vertex(e.source).key
               and e.target is g.vertex(e.target).key for e in g.edges)
    assert len({id(e.kernels) for e in g.edges}) \
        == len({e.kernels for e in g.edges}) == labellings
    keys = list(g.vertices)
    assert all(hash(k) == hash((k.kind, k.data)) for k in keys)
    assert sorted(keys) == sorted(keys, key=lambda k: (k.kind, k.data))


def test_expand_conjugates_no_partner_codomain(monkeypatch):
    # a Frobenius-derived hint, as _expand makes it, holds no codomain:
    # the build reads the dual off the target's sigma and builds a new
    # target from its built conjugate, so sigma of the partner's
    # codomain was thrown away (_expand made 143 conjugations before)
    raw = raw_hints(monkeypatch)
    callers, real = [], graph._conjugate

    def conjugate(x, p):
        callers.append(sys._getframe(1).f_code.co_name)
        return real(x, p)
    monkeypatch.setattr(graph, "_conjugate", conjugate)
    g = build_graph(make_field(41))
    derived = frobenius_derived(g, raw)
    assert len(derived) == 143
    assert all(raw[id(e)][1] is None for e in derived)
    assert callers and callers.count("_expand") == 0
    assert validate(g).ok


def test_frobenius_derived_edge_onto_a_target_its_partner_built(
        monkeypatch):
    # at a sigma-fixed vertex a derived orbit's partner, an earlier
    # orbit there, may first reach its target T in the same expansion.
    # The build labels the partner's dual on T before it reads it for
    # the derived edge: into sigma(T), then built as T's mirror, as the
    # same label, or, if sigma fixes T, into T, through T's Frobenius
    # labels.  Either way it is the dual of one step on the edge's
    # kernel_rep, moved onto the target
    raw = raw_hints(monkeypatch)
    g = build_graph(make_field(41))
    monkeypatch.undo()
    built, reaching = list(g.vertices), set(map(id, reaching_edges(g)))
    cases = [(e, raw[id(e)][2]) for e in frobenius_derived(g, raw)
             if e.source.conjugate(41) == e.source
             and id(raw[id(e)][2]) in reaching]
    mirrored = fixed = 0
    for e, partner in cases:
        tgt = g.vertex(e.target)
        assert partner.source == e.source
        assert dual_edge(g, e) is tgt.kernel_to_edge[
            dual_label(tgt, stepped_hint(g, e))], e.sort_key()
        if e.target == partner.target:
            fixed += 1
            assert e.hint[2] == tgt.sigma[partner.hint[2]]
        else:
            mirrored += 1
            assert built.index(e.target) > built.index(partner.target)
            assert e.hint[2] == partner.hint[2]
    assert (mirrored, fixed) == (6, 10)


def test_build_names_an_edge_whose_frobenius_labels_fail(monkeypatch):
    # the build makes the Frobenius map of a sigma-fixed Jacobian as it
    # builds the vertex; a Moebius search that finds no map there raises
    # from build_graph, naming the edge that reached the vertex by its
    # source, its target and its kernel labels, as a failed move does
    g = build_graph(make_field(41))
    e = next(e for e in reaching_edges(g) if e.target.kind == "jacobian"
             and e.target.conjugate(41) == e.target)
    make, first_map, inside = graph._make_vertex, graph._first_map, []

    def in_make(*args, **kwargs):
        inside.append(args)
        try:
            return make(*args, **kwargs)
        finally:
            inside.pop()

    def no_map(src, v, frames):  # an empty table, in _make_vertex only
        return first_map(src, v, {v.key: {}} if inside and v.points
                         else frames)
    monkeypatch.setattr(graph, "_make_vertex", in_make)
    monkeypatch.setattr(graph, "_first_map", no_map)
    with pytest.raises(GraphError) as exc:
        build_graph(make_field(41))
    at = e.target.as_string()
    assert str(exc.value) == (
        f"edge {e.source.as_string()} -> {at} of kernels {e.kernels}: "
        f"no isomorphism onto {at}: the models do not match")


def test_build_raises_on_two_records_in_one_orbit(monkeypatch):
    # every dual moved to label 0, by a constant label map onto either
    # kind of vertex: the first vertex reached from two expanded
    # vertices holds both in one orbit
    patch_moves(monkeypatch, lambda src, tgt, m: (0,) * 15)
    with pytest.raises(GraphError, match=r"orbit \(0,\) at prod:3\.0;3\.0 "
                       "holds the duals of 2 edges"):
        build_graph(make_field(41))


def test_expand_raises_on_a_record_against_its_frobenius_partner():
    # at a sigma-fixed vertex with a sigma-swapped pair of orbits, an
    # edge into it whose dual lies in the second orbit must come from
    # the conjugate of the first orbit's target; a record that names
    # that target itself raises
    g = build_graph(make_field(41))
    w, first, second = next(
        (w, e, o) for w in g.vertices.values() if w.key.kind == "product"
        and w.key.conjugate(41) == w.key for e in w.edges for o in w.edges
        if o.target == e.target.conjugate(41) != e.target
        and w.edges.index(e) < w.edges.index(o))
    record = replace(dual_edge(g, second), source=first.target)
    assert dual_label(w, record.hint) in second.kernels
    v = graph._make_vertex(w.key, w.representative, {})
    at = re.escape(f"orbit {second.kernels} at {w.key.as_string()}")
    with pytest.raises(GraphError, match=f"{at} is dual to an edge from "
                       f"{first.target.as_string()}, not its Frobenius"):
        graph._expand(v, {**g.vertices, w.key: v}, [record])


def test_frobenius_derivation_raises_on_inconsistent_partners(monkeypatch):
    # y^2 = x^6 + 1 is sigma-fixed, its Frobenius labels the identity
    # and every orbit self-paired.  Labels moved between two orbits make
    # the second orbit map from two edges; a stepped target that sigma
    # moves breaks a self-paired orbit
    ctx = make_field(23)
    C = sextic_x6_plus_1(ctx)
    edges = neighbourhood(C)
    assert [e.kernels for e in edges][:3] == [(0, 7, 12), (2,), (1, 10, 5)]
    real = graph._make_vertex
    assert real(VertexKey.of(C), C, {}).sigma == tuple(range(15))
    monkeypatch.setattr(graph, "_make_vertex", lambda *args: replace(
        real(*args), sigma=(1, 0) + tuple(range(2, 15))))
    with pytest.raises(GraphError, match=r"orbit \(1, 10, 5\) at jac:.* "
                       "maps from two Frobenius partner edges"):
        neighbourhood(C)
    monkeypatch.undo()
    moved = VertexKey("jacobian", ((1, 1), (0, 0), (0, 0), (0, 0)))
    step = graph._jacobian_step
    monkeypatch.setattr(graph, "_jacobian_step",
                        lambda spl: (moved, step(spl)[1]))
    with pytest.raises(GraphError, match=r"sigma moves jac:1\.1;.*, the "
                       r"target of self-paired orbit \(0, 7, 12\)"):
        neighbourhood(C)


def test_frobenius_labels_raise_without_an_isomorphism(monkeypatch):
    # sigma fixes the key of y^2 = x^6 + 1; a Moebius search that finds
    # no map from its conjugate points raises, naming the vertex
    ctx = make_field(23)
    C = sextic_x6_plus_1(ctx)
    calls, real = [], graph.moebius_stabilizing

    def search(*args):  # the RA maps, then the Frobenius map
        calls.append(args)
        return real(*args) if len(calls) == 1 else []
    monkeypatch.setattr(graph, "moebius_stabilizing", search)
    with pytest.raises(GraphError, match="no isomorphism onto "
                       f"{VertexKey.of(C).as_string()}: the models do not"):
        neighbourhood(C)
    assert len(calls) == 2


def test_validate_frobenius_mirror_catches_a_wrong_conjugate(monkeypatch):
    # a conjugation that keeps the i-part of one Jacobian key coordinate
    # fails the mirror check alone, which names the first vertex, in
    # discovery order, whose edges or key it moves
    g = build_graph(make_field(41))
    real = VertexKey.conjugate

    def wrong(key, p):
        out = real(key, p)
        if key.kind != "jacobian":
            return out
        return VertexKey(key.kind, out.data[:1] + key.data[1:2]
                         + out.data[2:])
    monkeypatch.setattr(VertexKey, "conjugate", wrong)
    first = next(key for key, v in g.vertices.items()
                 if any(wrong(k, 41) != real(k, 41)
                        for k in [key] + [e.target for e in v.edges]))
    failed = [(name, detail) for name, ok, detail in validate(g).checks
              if not ok]
    assert failed == [("Frobenius mirror",
                       f"first violation at {first.as_string()}")]


def test_validate_reports_an_edge_into_a_missing_vertex():
    # a graph missing one Jacobian vertex: validate returns its report,
    # whose dual-edges check fails and names an edge into that vertex
    g = build_graph(make_field(23))
    key = next(key for key in g.vertices if key.kind == "jacobian")
    del g.vertices[key]
    first = next(e for e in g.edges if e.target == key)
    with pytest.raises(GraphError, match="^target vertex not in the graph"):
        dual_edge(g, first)
    checks = {name: (ok, detail) for name, ok, detail in validate(g).checks}
    ok, detail = checks["dual-edges well-defined"]
    assert not ok
    assert detail.startswith(f"failures: [({first.sort_key()!r}, ")
    assert repr(key) in detail


def test_validate_mass_formula_catches_a_wrong_ra_order():
    g = build_graph(make_field(41))
    assert validate(g).ok
    v = next(v for v in g.vertices.values() if v.key.kind == "product")
    v.ra_order *= 2
    failed = {name: detail for name, ok, detail in validate(g).checks
              if not ok}
    assert "mass formula" in failed
    assert failed["mass formula"].endswith(
        ", (p - 1)(p^2 + 1)/5760 is 841/72")


@pytest.mark.parametrize("p", [23, 41])
def test_graph_path_stays_in_gf_p2(monkeypatch, p):
    # Frobenius is +-p on the whole graph, so every delta = 0 split has
    # rational fixed points and every Jacobian vertex rational
    # Weierstrass points (split_degenerate): neither build_graph nor
    # validate asks for GF(p^4)
    calls, real = [], FieldCtx.extension
    monkeypatch.setattr(FieldCtx, "extension",
                        lambda self: calls.append(self) or real(self))
    g = build_graph(make_field(p))
    assert validate(g).ok
    assert calls == []


def test_build_graph_stops_past_census_count(monkeypatch):
    # with Jacobian keys that never merge the closure would not end;
    # the census count bounds it.  A fresh key is sigma-fixed (b = 0)
    # just when the curve's own key is, and no fresh key is the
    # conjugate of another (b = 1, never 22): an edge derived from its
    # Frobenius partner lands on the mirror of the partner's target.
    # The fake keys are no Clebsch tuples, so RA types are read through
    # the real key each one stands for.  Curves and step codomains both
    # go through VertexKey.jacobian
    fresh = iter(range(10 ** 6))
    real_type, real_key, real = graph.ra_type_of, {}, VertexKey.jacobian

    def fake(cls, x):
        key = real(x)
        out = cls("jacobian", ((next(fresh), int(key.conjugate(23) != key)),))
        real_key[out] = key
        return out
    monkeypatch.setattr(VertexKey, "jacobian", classmethod(fake))
    monkeypatch.setattr(graph, "ra_type_of", lambda key, ctx: real_type(
        real_key.get(key, key), ctx))
    with pytest.raises(GraphError, match=r"^\d+ vertices found at p = 23, "
                       r"but the census counts 16$"):
        build_graph(make_field(23))


def test_build_names_an_edge_onto_a_non_isomorphic_model(monkeypatch):
    # two sigma-fixed classes at p = 23 merged under the key of the one
    # built first: the first step onto the other, its codomain no model
    # of the vertex with that key, raises from build_graph, naming the
    # edge by its source, its target and its kernel labels
    first = VertexKey("jacobian", ((1, 0), (8, 0), (0, 0), (22, 0)))
    other = VertexKey("jacobian", ((1, 0), (18, 0), (11, 0), (14, 0)))
    g = build_graph(make_field(23))
    assert {first, other} <= set(g.vertices)
    assert list(g.vertices).index(first) < list(g.vertices).index(other)
    e = next(e for e in g.edges if e.target == other)
    real = VertexKey.jacobian  # of curves and step codomains alike
    monkeypatch.setattr(VertexKey, "jacobian", classmethod(
        lambda cls, x: first if real(x) == other else real(x)))
    with pytest.raises(GraphError) as exc:
        build_graph(make_field(23))
    at = first.as_string()
    assert str(exc.value) == (
        f"edge {e.source.as_string()} -> {at} of kernels {e.kernels}: "
        f"no isomorphism onto {at}: the models do not match")


def test_every_edge_records_its_dual(ctx11):
    # every step stays in GF(p^2), so every edge records the dual kernel
    # as a label on its target's representative and dual_edge has no
    # edge without one; a split step's dual is the label of the diagonal
    # kernel of the i <-> i matching on its own codomain
    diagonal = gluing.kernel_index(ProductKernel.diagonal((1, 2, 3)))
    for g in (build_graph(ctx11), build_graph(make_field(23))):
        kinds = set()
        for e in g.edges:
            kind, rep, dual = e.hint
            kinds.add(kind)
            assert rep is g.vertex(e.target).representative, e.sort_key()
            assert type(dual) is int, e.sort_key()
            if kind == "split":
                step = stepped_hint(g, e)
                assert step[0] == "split" and step[2] == diagonal
        assert "split" in kinds


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


# sha256 of export(build_graph(make_field(p)), fmt), pinned so that a
# change of vertex keys, types, edges or their order shows
GOLDEN_EXPORTS = {
    (23, "json"):
        "39f1a1ec659246153243831b77204168bee15f2bd10c53fa4a0721ba16a86ebd",
    (23, "dot"):
        "772d3d5febb4b81455ee9a1c9452b34770d293ca65900759f7301ee14852d00c",
    (41, "json"):
        "ae94d58045afd053efa201a3b6e24614d39de008a4a8b789459229453a03461c",
    (41, "dot"):
        "deb7070ca8161c4a69d826bc1f86db0998d45543b19db30eec2753b9d13f6762",
    (53, "json"):
        "e74516241c894b2a90282aec94c0cc9d256dc6396ed59cc27114207bd870b828",
    (53, "dot"):
        "6645d3e27a505ebb47d0a3b386a49a5e08b02c86dd962a79b11f0474c7d8fbdb",
}


@pytest.mark.parametrize("p", [23, 41, 53])
def test_export_matches_golden_digests(p):
    g = build_graph(make_field(p))
    for fmt in ("json", "dot"):
        digest = hashlib.sha256(export(g, fmt).encode()).hexdigest()
        assert digest == GOLDEN_EXPORTS[p, fmt], fmt


def test_export_empty_graph_skeleton():
    from richelot.graph import Graph
    g = Graph(p=11, vertices={}, edges=[])
    doc = json.loads(export(g, "json"))
    assert doc == {"p": 11, "vertices": [], "edges": []}
    assert export(g, "json") == json.dumps(doc, indent=2, sort_keys=True) \
        + "\n"
    dot = export(g, "dot")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_export_dot_tells_keys_with_equal_short_hashes_apart():
    # the two keys share their first 8 sha256 digits: their DOT names
    # grow to the shortest prefix that tells them apart, so the graph
    # keeps its two nodes and neither edge becomes a loop
    from richelot.graph import Graph, Vertex
    a = VertexKey("product", ((0, 0), (3, 325)))
    b = VertexKey("product", ((0, 0), (67, 962)))
    n = next(i for i, (x, y) in enumerate(zip(a.sha256(), b.sha256()))
             if x != y) + 1
    assert a.sha256()[:8] == b.sha256()[:8] == "7bc01e97" and n > 8
    g = Graph(p=1009, vertices={k: Vertex(k, None, "Pi", 2) for k in (a, b)},
              edges=[OrbitEdge(a, b, 15, is_loop=False),
                     OrbitEdge(b, a, 15, is_loop=False)])
    va, vb = f"v{a.sha256()[:n]}", f"v{b.sha256()[:n]}"
    assert export(g, "dot").splitlines()[1:] == [
        f'  {va} [label="Pi/{a.sha256()[:n]}"];',
        f'  {vb} [label="Pi/{b.sha256()[:n]}"];',
        f'  {va} -> {vb} [label="15"];', f'  {vb} -> {va} [label="15"];',
        "}"]


def test_vertex_keys_unordered_product():
    ctx = make_field(23)
    z3 = ctx.nth_root_of_unity(3)
    E0 = EllipticCurveE2(ctx.one, z3, z3 * z3)
    E1 = e_1728(ctx)
    assert VertexKey.of_surface(ProductSurface(E0, E1)) \
        == VertexKey.of_surface(ProductSurface(E1, E0))


@pytest.mark.parametrize(
    "p", [41, 101, pytest.param(151, marks=pytest.mark.slow)])
def test_key_type_is_the_curve_type_at_every_vertex(p):
    # the RA type read off each vertex's key, Bolza's rows on a
    # Jacobian's canonical Clebsch tuple or a product's j-pair, is the
    # type of its representative, products and mirrors included
    ctx = make_field(p)
    g = build_graph(ctx)
    kinds = set()
    for key, v in g.vertices.items():
        assert v.ra_type == ra_type_of(key, ctx) \
            == ra_type_of_oracle(v.representative)
        kinds.add(key.kind)
    assert kinds == {"jacobian", "product"}
