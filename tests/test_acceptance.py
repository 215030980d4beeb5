"""Acceptance suite: one test per criterion, all arithmetic exact.

Criteria:
  1. census correctness for p in {7, ..., 53} (13 primes), under 60 s
  2. 15-regularity at every vertex of every graph
  3. ratio principle and dual involution on every orbit edge
  4. classifier agreement (graph vertices + 200 random curves per prime)
  5. atlas edge tables, including prime-specific columns
  6. permutation fixtures for cases I, III, IV, V, VI
  7. round-trip properties, >= 500 random instances
  8. Clebsch fixtures (anchors + CAS-generated values)

Run with `pytest tests/test_acceptance.py -v`.
"""

import random
import time
from fractions import Fraction

import pytest

from richelot.atlas import verify_case, verify_permutation_fixtures
from richelot.census import compare, expected_counts
from richelot.elliptic import EllipticCurveE2
from richelot.field import make_field
from richelot.genus2 import (Genus2Curve, IrrationalPointsError,
                             JACOBIAN_ORDER_TO_TYPE, RAType, RA_ORDER,
                             canonical_key, clebsch_invariants,
                             ra_type_from_clebsch, reduced_automorphisms,
                             splittings, splitting_pairing, transform_curve,
                             weierstrass_points)
from richelot.gluing import ProductKernel, ProductSurface, quotient_diagonal
from richelot.graph import (VertexKey, build_graph, dual_edge,
                            _make_vertex, validate)
from richelot.isogeny import delta, richelot_generic, split_degenerate
from richelot.poly import Poly, factor_quadratic_pieces, is_squarefree

from clebsch_fixtures import FIXTURES
from conftest import (check_split_against_oracle, dual_label,
                      index_map_moebius, label_pairing,
                      ra_type_from_automorphisms)

CENSUS_PRIMES = (7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
RANDOM_PRIMES = (11, 23, 31)


@pytest.fixture(scope="module")
def graphs():
    built = {}
    t0 = time.time()
    for p in CENSUS_PRIMES:
        built[p] = build_graph(make_field(p))
    built["elapsed"] = time.time() - t0
    return built


def _say(line):
    print("\n" + line)


def test_criterion_1_census(graphs):
    """Per-type counts equal the closed-form census at all 13 primes."""
    for p in CENSUS_PRIMES:
        report = compare(graphs[p], expected_counts(p))
        assert report.ok, f"p={p}:\n{report.as_table()}"
    # spot anchors
    def types_of(p):
        out = {}
        for v in graphs[p].vertices.values():
            out[v.ra_type] = out.get(v.ra_type, 0) + 1
        return out
    assert types_of(11) == {RAType.IV: 1, RAType.V: 1, RAType.PI01728: 1,
                            RAType.SIGMA0: 1, RAType.SIGMA1728: 1}
    assert types_of(13) == {RAType.III: 1, RAType.IV: 1, RAType.VI: 1,
                            RAType.SIGMA: 1}
    assert types_of(7) == {RAType.VI: 1, RAType.SIGMA1728: 1}
    assert graphs["elapsed"] < 60, f"enumeration took {graphs['elapsed']:.1f}s"
    _say(f"[PASS] criterion 1: census exact at {len(CENSUS_PRIMES)} primes "
         f"({graphs['elapsed']:.1f}s)")


def test_criterion_2_regularity(graphs):
    """Out-weights sum to exactly 15 at every vertex."""
    vertices = 0
    for p in CENSUS_PRIMES:
        for v in graphs[p].vertices.values():
            assert sum(e.weight for e in v.edges) == 15, \
                f"p={p} vertex {v.key.as_string()}"
            vertices += 1
    _say(f"[PASS] criterion 2: 15-regularity at {vertices} vertices")


def test_criterion_3_ratio_principle(graphs):
    """#RA(A) w(dual) = #RA(A') w(edge) exactly; dual is an involution."""
    edges = 0
    for p in CENSUS_PRIMES:
        g = graphs[p]
        duals = {}
        for e in g.edges:
            duals[id(e)] = dual_edge(g, e)
        for e in g.edges:
            d = duals[id(e)]
            assert g.vertex(e.source).ra_order * d.weight \
                == g.vertex(e.target).ra_order * e.weight, \
                f"p={p} edge {e.sort_key()}"
            assert duals[id(d)] is e, f"p={p} dual not involutive"
            edges += 1
    _say(f"[PASS] criterion 3: ratio principle + involution on "
         f"{edges} edges")


def test_mass_formula(graphs):
    """Sum of 1/|Aut(A)| = (p-1)(p^2+1)/5760 with |Aut| = 2 #RA
    (Ekedahl; Hashimoto--Ibukiyama), independent of the census."""
    for p in CENSUS_PRIMES:
        mass = sum(Fraction(1, 2 * v.ra_order)
                   for v in graphs[p].vertices.values())
        assert mass == Fraction((p - 1) * (p * p + 1), 5760), f"p={p}"
    _say(f"[PASS] mass formula exact at {len(CENSUS_PRIMES)} primes")


@pytest.mark.slow
def test_p101_build_validate():
    """Census, structural validators and mass formula at p = 101."""
    p = 101
    g = build_graph(make_field(p))
    report = compare(g, expected_counts(p))
    assert report.ok, report.as_table()
    rep = validate(g)
    assert rep.ok, rep.summary()
    mass = sum(Fraction(1, 2 * v.ra_order) for v in g.vertices.values())
    assert mass == Fraction((p - 1) * (p * p + 1), 5760)


def _random_curve(ctx, rng, allow_quadratic_blocks=True):
    from richelot.poly import roots as poly_roots
    while True:
        use_quad = allow_quadratic_blocks and rng.random() < 0.3
        try:
            if use_quad:
                q = Poly(ctx, [ctx.element(rng.randrange(ctx.p),
                                           rng.randrange(ctx.p)),
                               ctx.element(rng.randrange(ctx.p),
                                           rng.randrange(ctx.p)),
                               ctx.one])
                if poly_roots(q):
                    continue
                rs = []
                while len(rs) < 4:
                    x = ctx.element(rng.randrange(ctx.p),
                                    rng.randrange(ctx.p))
                    if all(x != y for y in rs):
                        rs.append(x)
                f = Poly.from_roots(ctx, rs) * q
            else:
                rs = []
                deg = 5 if rng.random() < 0.2 else 6
                while len(rs) < deg:
                    x = ctx.element(rng.randrange(ctx.p),
                                    rng.randrange(ctx.p))
                    if all(x != y for y in rs):
                        rs.append(x)
                f = Poly.from_roots(ctx, rs)
            if not is_squarefree(f):
                continue
            return Genus2Curve(f)
        except Exception:
            continue


def test_criterion_4_classifier_agreement(graphs):
    """Clebsch rows and Moebius orders agree everywhere."""
    jac_vertices = 0
    for p in CENSUS_PRIMES:
        for key, v in graphs[p].vertices.items():
            if key.kind != "jacobian":
                continue
            assert JACOBIAN_ORDER_TO_TYPE[v.ra_order] == v.ra_type
            assert RA_ORDER[v.ra_type] == v.ra_order
            jac_vertices += 1
    sampled = irrational = 0
    for p in RANDOM_PRIMES:
        ctx = make_field(p)
        rng = random.Random(0xACCE97 + p)
        for _ in range(200):
            C = _random_curve(ctx, rng)
            if factor_quadratic_pieces(C.f)[1]:
                # points outside GF(p^2): no superspecial vertex
                with pytest.raises(IrrationalPointsError):
                    reduced_automorphisms(C)
                irrational += 1
                continue
            t_clebsch = ra_type_from_clebsch(clebsch_invariants(C))
            t_moebius = ra_type_from_automorphisms(C)
            assert t_clebsch == t_moebius, f"p={p} f={C.f}"
            assert RA_ORDER[t_moebius] == len(reduced_automorphisms(C))
            sampled += 1
    assert irrational and sampled
    _say(f"[PASS] criterion 4: classifiers agree at {jac_vertices} graph "
         f"vertices and {sampled} random curves; {irrational} curves "
         "with irrational points raise")


ATLAS_PLAN = [
    ("I", (23, 31, 37)),
    ("III", (23, 31, 37)),
    ("IV", (23, 31, 37)),
    ("V", (23, 11, 17, 29, 41)),
    ("VI", (7, 13, 29, 23)),
    ("II", (19, 29, 59, 79, 89)),
    # 23 and 47 are the collision primes of 2^3 3^3 23 47 =
    # 287496 - 54000, where the two quotient j-invariants coincide and
    # the general column does not apply; 31 and 37 are general here
    (RAType.PI01728, (31, 37, 7, 11)),
    (RAType.SIGMA1728, (23, 7, 11)),
    (RAType.SIGMA0, (23, 11)),
    (RAType.PI, (23, 31)),
    (RAType.SIGMA, (23, 31)),
    (RAType.PI0, (23, 31)),
    (RAType.PI1728, (23, 31)),
]


def test_criterion_5_atlas_tables():
    """Edge tables hold for every case/prime in the plan."""
    checked = 0
    for case, primes in ATLAS_PLAN:
        for p in primes:
            rep = verify_case(case, make_field(p))
            assert rep.ok, rep.summary()
            checked += 1
    _say(f"[PASS] criterion 5: {checked} atlas case/prime table checks")


def test_criterion_6_permutation_fixtures():
    """Computed kernel orbits generate the fixture partitions."""
    for case in ("I", "III", "IV", "V", "VI"):
        for p in (23, 31):
            rep = verify_permutation_fixtures(case, make_field(p))
            assert rep.ok, rep.summary()
    _say("[PASS] criterion 6: permutation fixtures for I, III, IV, V, VI")


def _random_product(ctx, rng):
    rs = []
    while len(rs) < 6:
        x = ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))
        if all(x != y for y in rs):
            rs.append(x)
    return ProductSurface(EllipticCurveE2(*rs[:3]),
                          EllipticCurveE2(*rs[3:]))


def _pairing_orbit(C, spl):
    """All images of a splitting's pairing under RA(C).

    A transported dual splitting is only defined up to composing the
    transport with an automorphism of the target, i.e. up to this
    orbit.
    """
    K, pts = C.ctx, weierstrass_points(C)
    maps = [index_map_moebius(K, pts, pts, m)
            for m in reduced_automorphisms(C)]
    base = splitting_pairing(spl)
    orbit = {base}
    frontier = [base]
    while frontier:
        cur = frontier.pop()
        for m in maps:
            img = frozenset(frozenset(map(m.apply, pair)) for pair in cur)
            if img not in orbit:
                orbit.add(img)
                frontier.append(img)
    return orbit


def test_criterion_7_round_trips():
    """>= 500 exact round-trip instances across three primes."""
    instances = 0
    for p in RANDOM_PRIMES:
        ctx = make_field(p)
        rng = random.Random(0x707 + p)

        # (a) Richelot double-step returns the source vertex key
        done = 0
        while done < 60:
            C = _random_curve(ctx, rng, allow_quadratic_blocks=False)
            spls = splittings(C)
            spl = spls[rng.randrange(len(spls))]
            if delta(spl).is_zero():
                continue
            _, dual = richelot_generic(spl)
            back, _ = richelot_generic(dual)
            assert canonical_key(clebsch_invariants(back)) \
                == canonical_key(clebsch_invariants(C))
            done += 1
            instances += 1

        # (b) glue, split, re-glue: source key and dual splitting match
        done = 0
        while done < 50:
            S = _random_product(ctx, rng)
            perm = (1, 2, 3) if rng.random() < 0.5 else (2, 3, 1)
            res = quotient_diagonal(S, ProductKernel.diagonal(perm))
            if res is S:
                continue
            C, dual = res
            key = VertexKey.jacobian(C)
            if factor_quadratic_pieces(C.f)[1]:
                # points outside GF(p^2): no vertex to transport onto
                with pytest.raises(IrrationalPointsError):
                    _make_vertex(key, C, {})
                continue
            S2 = ProductSurface(*split_degenerate(dual))
            # the i <-> i matching of the split factors is the dual
            # anti-isometry; regluing it must reproduce the curve
            reglue = quotient_diagonal(S2, ProductKernel.diagonal((1, 2, 3)))
            assert reglue is not S2
            assert VertexKey.jacobian(reglue[0]) == key
            v = _make_vertex(key, C, {})
            label = dual_label(v, ("glue", *reglue))
            assert label_pairing(v.points, label) \
                in _pairing_orbit(C, dual)
            done += 1
            instances += 1

        # (c) canonical key invariance under model change
        done = 0
        while done < 40:
            C = _random_curve(ctx, rng)
            while True:
                a, b, c, d = (ctx.element(rng.randrange(p),
                                          rng.randrange(p))
                              for _ in range(4))
                if not (a * d - b * c).is_zero():
                    break
            Cm = transform_curve(C, a, b, c, d)
            assert canonical_key(clebsch_invariants(Cm)) \
                == canonical_key(clebsch_invariants(C))
            done += 1
            instances += 1

        # (d) the split's factors match the pencil oracle's, whose
        # F_i = alpha_i U^2 + beta_i V^2 reconstruction identity holds
        done = 0
        while done < 20:
            S = _random_product(ctx, rng)
            res = quotient_diagonal(S, ProductKernel.diagonal((1, 3, 2)))
            if res is S:
                continue
            check_split_against_oracle(res[1])
            done += 1
            instances += 1

    assert instances >= 500
    _say(f"[PASS] criterion 7: {instances} round-trip instances")


def test_criterion_8_clebsch_fixtures():
    """Published anchors plus CAS-generated fixture values, exact."""
    for p in (11, 23, 31, 53):
        ctx = make_field(p)
        key_ii = canonical_key(clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1]))))
        want_ii = canonical_key(_cp(ctx, 0, 0, 0, 1))
        assert key_ii == want_ii
        key_vi = canonical_key(clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [0, 1, 0, 0, 0, 1]))))
        want_vi = canonical_key(_cp(ctx, 1, 0, 0, 0))
        assert key_vi == want_vi
        for coeffs, vals in FIXTURES:
            cp = clebsch_invariants(Genus2Curve(Poly.from_ints(ctx, coeffs)))
            for got, (num, den) in zip(cp.tuple(), vals):
                assert got == ctx.from_int(num) / ctx.from_int(den)
    _say(f"[PASS] criterion 8: anchors + {len(FIXTURES)} CAS fixtures "
         "match exactly")


def _cp(ctx, a, b, c, d):
    from richelot.genus2 import ClebschPoint
    return ClebschPoint(ctx.from_int(a), ctx.from_int(b), ctx.from_int(c),
                        ctx.from_int(d))
