"""Graph enumeration: neighbourhoods, duals, BFS, validation, export."""

import hashlib
import json
import random
import re
from dataclasses import replace
from itertools import permutations

import pytest

from richelot import genus2, gluing, graph
from richelot.cli import run
from richelot.elliptic import (EllipticCurveE2, isomorphisms_with_torsion,
                               two_isogeny)
from richelot.field import FieldCtx, FieldElement, make_field
from richelot.genus2 import (Genus2Curve, IrrationalPointsError, RAType,
                             moebius_stabilizing, point_key,
                             reduced_automorphisms, splitting_root_pairs,
                             splittings, weierstrass_points)
from richelot.gluing import (GluedJacobian, ProductKernel, ProductSurface,
                             kernel_maps, product_kernels,
                             quotient_diagonal)
from richelot.graph import (GraphError, OrbitEdge, build_graph, dual_edge,
                            export, neighbourhood, validate, VertexKey)
from richelot.poly import Poly

from conftest import (clear_genus2_caches, count_calls, isomorphisms_oracle,
                      jacobian_orbits_oracle, kernel_map_oracle,
                      label_pairing, matching_pairing,
                      moebius_search_oracle,
                      random_curve_with_irrational_points, random_element,
                      splitting_of, stepped_edges_oracle)


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


@pytest.mark.parametrize("p", [23, 41])
def test_neighbourhood_of_a_splitting_matches_its_curve(p):
    # a splitting stands for its curve() with its points read off
    # the blocks; the edges equal those of the factored curve
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        if v.key.kind != "jacobian":
            continue
        curve_edges = neighbourhood(v.representative)
        for spl in [e.kernel_rep for e in v.edges][:3]:
            assert spl.curve() == v.representative
            spl_edges = neighbourhood(spl)
            assert len(spl_edges) == len(curve_edges)
            for a, b in zip(spl_edges, curve_edges):
                assert (a.target, a.weight, a.kernels, a.kernel_rep) \
                    == (b.target, b.weight, b.kernels, b.kernel_rep)


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


def transport_pairing_oracle(dst_curve, spl):
    """A splitting of a curve isomorphic to dst_curve, moved onto
    dst_curve as a pairing by the first map moebius_search_oracle finds."""
    pairs = splitting_root_pairs(spl)
    pts2 = weierstrass_points(dst_curve)
    pts1 = sorted((p for pair in pairs for p in pair), key=point_key)
    m = moebius_search_oracle(dst_curve.ctx, pts1, pts2, first_only=True)
    if m is None:
        raise GraphError("no Moebius map between isomorphic models")
    return frozenset(frozenset(point_key(m.apply(p)) for p in pair)
                     for pair in pairs)


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
    dual splitting in e's orbit.  A dual-derived edge ran no step, so
    its kernel_rep is stepped here, and the record it was derived from
    is not read."""
    tgt = g.vertex(e.target)
    src = g.vertex(e.source)
    if not tgt.edges:
        raise GraphError("target vertex not expanded")
    hint = e.hint
    if hint[0] == "dual":
        hint = (graph._jacobian_step(e.kernel_rep) if src.points
                else graph._product_step(src, e.kernel_rep))[1]
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
            if not isinstance(res, GluedJacobian):
                continue
            if VertexKey.jacobian(res.curve) != e.source:
                continue
            pairing = transport_pairing_oracle(src_curve, res.dual)
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
    pts = v.points
    m = ctx.nonsquare()
    halves = [x for x in pts if point_key(x) < point_key(-x)]
    spl = splitting_of(
        [Poly(ctx, [-(m * x * x), ctx.zero, ctx.one]) for x in halves],
        ctx.one)
    codomain = spl.curve()
    assert codomain.f == Poly(ctx, [m * m * m] + [ctx.zero] * 5 + [ctx.one])
    assert VertexKey.of(codomain) == v.key
    e = OrbitEdge(source=v.key, target=v.key, weight=1, kernel_rep=None,
                  is_loop=True, hint=("jac", codomain, spl))
    with pytest.raises(IrrationalPointsError,
                       match="^only 1 rational kernels") as exc:
        dual_edge(g, e)
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
            reps = [e.kernel_rep.elements() for e in v.edges]

            def name(k):
                return kernels[k].elements()
        else:
            pts = v.points
            want = {matching_pairing(m) for m in genus2._matchings(pts)}
            reps = [matching_pairing(splitting_root_pairs(e.kernel_rep))
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
    # index, are those of the point-key orbit code: the same kernel_reps
    # and weights in the same order, each label the oracle's pairing
    # when translated, and the target each kernel_rep steps to
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    assert jacobians
    for v in jacobians:
        K, pts = v.representative.ctx, v.points
        want = jacobian_orbits_oracle(
            K, pts, v.representative.f.leading(),
            moebius_stabilizing(K, pts, v.frames))
        assert [(e.kernel_rep, e.weight) for e in v.edges] \
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
    # every product-codomain edge: the dual kernel moved onto the
    # target's representative, the crossed case as the factor
    # isomorphisms followed by a swap through the identity matching
    crossed = 0
    for e in product_graph.edges:
        _, src, dual = e.hint
        if not isinstance(src, ProductSurface):
            continue
        dst = product_graph.vertex(e.target).representative
        s1 = isomorphisms_with_torsion(src.E1, dst.E1)
        s2 = isomorphisms_with_torsion(src.E2, dst.E2)
        if s1 and s2:
            steps = [(s1[0], s2[0], ())]
        else:
            c1 = isomorphisms_with_torsion(src.E1, dst.E2)
            c2 = isomorphisms_with_torsion(src.E2, dst.E1)
            steps = [(c1[0], c2[0], ()), (ID, ID, ID)]
            crossed += 1
        assert next(kernel_maps(src, dst))[dual] \
            == kernel_map_oracle(*steps)[dual]
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
    # validate at p = 41 moves every dual on int pairs: no FieldElement
    # product, inverse or square root.  Product duals search a factor
    # pair's second factor only after its first factor matched
    g = build_graph(make_field(41))
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
    assert calls == []
    # a crossed first factor fails only between non-isomorphic products
    S, D = (v for v in g.vertices.values()
            if v.key.data in (((0, 0), (0, 0)), ((3, 0), (3, 0))))
    e = OrbitEdge(source=S.key, target=D.key, weight=1, kernel_rep=None,
                  is_loop=False, hint=("prod", S.representative, 0))
    with pytest.raises(GraphError, match="do not match"):
        dual_edge(g, e)
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


def test_jacobian_seed_matches_product_seed():
    ctx = make_field(23)
    g = build_graph(ctx, seed=sextic_x6_plus_1(ctx))
    assert next(iter(g.vertices)).kind == "jacobian"
    assert export(g, "json") == export(build_graph(ctx), "json")
    assert validate(g).ok


def test_each_jacobian_vertex_builds_frames_once(monkeypatch):
    # one Moebius frame table per Jacobian vertex, shared by its RA
    # order, its orbits and every dual transported to it; none for the
    # mixed-rationality transport, which no p = 23 edge needs
    calls = count_calls(monkeypatch, "moebius_frames")
    genus2.reduced_automorphisms.cache_clear()
    g = build_graph(make_field(23))
    assert validate(g).ok
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    assert len(calls) == len(jacobians)


def test_each_jacobian_vertex_reads_its_ra_maps_once(monkeypatch):
    # _make_vertex reads the RA maps off the frames once; its RA order
    # and the expansion's orbits share them.  The expansion reads one
    # more map, its Frobenius labels, at each sigma-fixed Jacobian and
    # at the second-expanded vertex of each sigma-swapped pair, and one
    # per dual it transports from a Jacobian codomain: one per edge
    # derived from a record, whose hint holds its target's own model
    calls = count_calls(monkeypatch, "moebius_stabilizing")
    g = build_graph(make_field(41))
    jacobians = [v for v in g.vertices.values() if v.key.kind == "jacobian"]
    fixed = sum(v.key.conjugate(41) == v.key for v in jacobians)
    duals = sum(e.hint[0] == "dual" and e.source.kind == "jacobian"
                and e.hint[1] is g.vertex(e.target).representative
                for e in g.edges)
    assert (len(jacobians), fixed, duals) == (40, 22, 151)
    assert len(calls) == len(jacobians) + fixed + (40 - fixed) // 2 + duals
    assert all(v.ra_order == len(v.ra_maps) for v in jacobians)


def assert_edges_match_stepping_oracle(g):
    # every vertex's edges are those of one step per orbit: the same
    # target, weight, kernels and kernel_rep; and dual_edge with the
    # stepped hint in place of the build's names the same edge, so a
    # conjugated dual is checked apart from the conjugated key
    for v in g.vertices.values():
        want = stepped_edges_oracle(v)
        assert [(e.target, e.weight, e.kernels, e.kernel_rep)
                for e in v.edges] == [(o.target, o.weight, o.kernels,
                                       o.kernel_rep) for o in want]
        for e, o in zip(v.edges, want):
            assert dual_edge(g, replace(e, hint=o.hint)) \
                is dual_edge(g, e), e.sort_key()


@pytest.mark.parametrize("p", [23, 41])
def test_edges_match_stepping_oracle(p):
    assert_edges_match_stepping_oracle(build_graph(make_field(p)))


@pytest.mark.slow
def test_edges_match_stepping_oracle_p101():
    assert_edges_match_stepping_oracle(build_graph(make_field(101)))


def test_build_steps_only_orbits_without_a_known_partner(monkeypatch):
    # of the 526 orbit edges at p = 41, 198 hold the dual of an edge
    # into their source from a vertex expanded before it, and take that
    # vertex as their target; 143 more are derived from their Frobenius
    # partner, at the 9 vertices whose conjugate was expanded first or
    # as the second orbit of a sigma-swapped pair at a sigma-fixed
    # vertex.  The other 185 run a step (262 and 66 with no records)
    jac = count_calls(monkeypatch, "_jacobian_step", graph)
    prod = count_calls(monkeypatch, "_product_step", graph)
    g = build_graph(make_field(41))
    assert len(g.edges) == 526
    assert (len(jac), len(prod)) == (150, 35)
    assert sum(e.hint[0] == "dual" and e.hint[1]
               is g.vertex(e.target).representative for e in g.edges) == 198
    assert validate(g).ok


@pytest.mark.parametrize("p", [23, 41])
def test_jacobian_hints_hold_their_duals_curve(p):
    # a derived codomain is its partner's conjugated coefficientwise,
    # a dual-derived one is the target's own model: either way the
    # recorded dual splitting multiplies out to the codomain's sextic
    hints = [e.hint for e in build_graph(make_field(p)).edges
             if isinstance(e.hint[1], Genus2Curve)]
    assert {h[0] for h in hints} == {"jac", "glue", "dual"}
    for hint in hints:
        assert hint[2].curve().f == hint[1].f, hint


def test_validate_catches_a_record_moved_to_another_orbit(monkeypatch):
    # the first dual read in the build, moved to the next kernel label
    # (another orbit there), gives an orbit the wrong target and weight
    real, calls = graph._dual_label, []

    def moved(tgt, hint):
        calls.append(tgt.key)
        return (real(tgt, hint) + (len(calls) == 1)) % 15
    monkeypatch.setattr(graph, "_dual_label", moved)
    g = build_graph(make_field(41))
    monkeypatch.undo()
    failed = {name for name, ok, _ in validate(g).checks if not ok}
    assert failed == {"ratio principle", "dual involution"}


def test_build_raises_on_two_records_in_one_orbit(monkeypatch):
    # every dual read as label 0: the first vertex reached from two
    # expanded vertices holds both in one orbit
    monkeypatch.setattr(graph, "_dual_label", lambda tgt, hint: 0)
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
    assert graph._dual_label(w, record.hint) in second.kernels
    v = graph._make_vertex(w.key, w.representative)
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
    real, v = graph._frobenius_labels, graph._make_vertex(VertexKey.of(C), C)
    assert real(v, v) == tuple(range(15))
    swap = {0: 1, 1: 0}
    monkeypatch.setattr(graph, "_frobenius_labels", lambda u, v: tuple(
        swap.get(k, k) for k in real(u, v)))
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
    # the census count bounds it
    fresh = iter(range(10 ** 6))
    monkeypatch.setattr(VertexKey, "jacobian", classmethod(
        lambda cls, curve: cls("jacobian", ((next(fresh), 0),))))
    with pytest.raises(GraphError, match=r"^\d+ vertices found at p = 23, "
                       r"but the census counts 16$"):
        build_graph(make_field(23))


def test_every_edge_records_its_dual(ctx11):
    # every step stays in GF(p^2), so every edge records the dual kernel
    # on its codomain and dual_edge has no edge without one; a split
    # edge's is the label of the diagonal kernel of the i <-> i matching
    diagonal = gluing.kernel_index(ProductKernel.diagonal((1, 2, 3)))
    for g in (build_graph(ctx11), build_graph(make_field(23))):
        kinds = set()
        for e in g.edges:
            kind, _, dual = e.hint
            kinds.add(kind)
            assert dual is not None, e.sort_key()
            assert kind != "split" or dual == diagonal
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
    dot = export(g, "dot")
    assert dot.startswith("digraph") and dot.rstrip().endswith("}")


def test_vertex_keys_unordered_product():
    ctx = make_field(23)
    z3 = ctx.nth_root_of_unity(3)
    E0 = EllipticCurveE2(ctx.one, z3, z3 * z3)
    E1 = e_1728(ctx)
    assert VertexKey.of_surface(ProductSurface(E0, E1)) \
        == VertexKey.of_surface(ProductSurface(E1, E0))
