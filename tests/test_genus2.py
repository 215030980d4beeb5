"""Genus-2 curves: splittings, Clebsch invariants, classifiers, keys."""

import pytest

from richelot.field import make_field
from richelot.genus2 import (INF, ClebschPoint, Genus2Curve, Genus2Error,
                             canonical_key, clebsch_invariants,
                             derived_invariants, moebius_orbits_on_splittings,
                             point_key, ra_type_from_automorphisms,
                             ra_type_from_clebsch, reduced_automorphisms,
                             splitting_points, splittings, transform_curve,
                             weierstrass_points, RAType)
from richelot.graph import build_graph
from richelot.poly import (Poly, factor_quadratic_pieces, is_squarefree,
                           roots as poly_roots)

from clebsch_fixtures import FIXTURES
from conftest import random_distinct_elements, random_element


def c_two_param(ctx, s, t):
    return Genus2Curve(Poly.from_roots(
        ctx, [ctx.one, -ctx.one, s, -s, t, -t]))


def random_split_curve(ctx, rng, degree=6):
    return Genus2Curve(Poly.from_roots(
        ctx, random_distinct_elements(ctx, rng, degree)))


def test_splittings_counts(ctx23, rng):
    C = c_two_param(ctx23, ctx23.from_int(3), ctx23.from_int(5))
    assert len(splittings(C)) == 15
    # x^5 - 1 splits fully over GF(p^2) iff p = +-1 mod 5
    ctx19 = make_field(19)
    spls = splittings(Genus2Curve(Poly.from_ints(ctx19, [-1, 0, 0, 0, 0, 1])))
    assert len(spls) == 15
    for s in spls:
        assert sorted(b.degree() for b in s.blocks) == [1, 2, 2]
    # at p = 23 the quintic's quartic factor only breaks into two
    # irreducible quadratics: a single rational kernel (reported, not
    # fatal)
    c2 = Genus2Curve(Poly.from_ints(ctx23, [-1, 0, 0, 0, 0, 1]))
    assert len(splittings(c2)) == 1


def test_splittings_product_reproduces_f(ctx23, rng):
    for _ in range(10):
        C = random_split_curve(ctx23, rng)
        for s in splittings(C):
            assert s.product() == C.f


def test_splitting_keeps_irreducible_blocks(ctx11, rng):
    ctx = ctx11
    irred = Poly(ctx, [-ctx.nonsquare(), ctx.zero, ctx.one])
    rs = random_distinct_elements(ctx, rng, 4)
    f = Poly.from_roots(ctx, rs) * irred
    C = Genus2Curve(f)
    spls = splittings(C)
    assert len(spls) == 3  # 3 pairings of the 4 rational roots
    for s in spls:
        assert irred.monic() in s.blocks


def test_clebsch_type_ii_and_vi_anchors():
    for p in (11, 13, 23, 31):
        ctx = make_field(p)
        cp = clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1])))
        assert cp.A.is_zero() and cp.B.is_zero() and cp.C.is_zero()
        assert not cp.D.is_zero()
        cp = clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [0, 1, 0, 0, 0, 1])))
        assert not cp.A.is_zero()
        assert cp.B.is_zero() and cp.C.is_zero() and cp.D.is_zero()


def test_clebsch_cas_fixtures():
    """Fixture curves match the sympy-generated oracle values exactly."""
    for p in (11, 23, 31, 53):
        ctx = make_field(p)
        for coeffs, vals in FIXTURES:
            C = Genus2Curve(Poly.from_ints(ctx, coeffs))
            cp = clebsch_invariants(C)
            for got, (num, den) in zip(cp.tuple(), vals):
                assert got == ctx.from_int(num) / ctx.from_int(den)


def test_derived_invariants_substitutions(ctx23):
    ctx = ctx23
    dv = derived_invariants(ClebschPoint(ctx.zero, ctx.zero, ctx.zero,
                                         ctx.one))
    assert dv.A11.is_zero() and dv.A12.is_zero()
    assert dv.A22 == ctx.one and dv.A31 == ctx.one
    dv = derived_invariants(ClebschPoint(ctx.one, ctx.zero, ctx.zero,
                                         ctx.zero))
    assert dv.A11.is_zero() and dv.A12.is_zero() and dv.A22.is_zero()


def test_derived_determinant_two_algorithms(ctx23, rng):
    # cofactor expansion (the implementation) vs Gaussian elimination
    for _ in range(20):
        cp = ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
        dv = derived_invariants(cp)
        m = [[dv.A11, dv.A12, dv.A31],
             [dv.A12, dv.A22, dv.A23],
             [dv.A31, dv.A23, dv.A33]]
        det = _det_by_elimination(ctx23, m)
        assert det == dv.R_squared_times_2


def _det_by_elimination(ctx, m):
    m = [row[:] for row in m]
    det = ctx.one
    for col in range(3):
        piv = None
        for r in range(col, 3):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return ctx.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, 3):
            factor = m[r][col] * inv
            for c in range(col, 3):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def test_reduced_automorphism_orders(ctx23, rng):
    z6 = ctx23.nth_root_of_unity(6)
    assert len(reduced_automorphisms(
        c_two_param(ctx23, z6, z6.inverse()))) == 12
    u = ctx23.element(3, 1)
    assert len(reduced_automorphisms(c_two_param(ctx23, u, u.inverse()))) \
        == 4
    ctx19 = make_field(19)
    assert len(reduced_automorphisms(
        Genus2Curve(Poly.from_ints(ctx19, [-1, 0, 0, 0, 0, 1])))) == 5


def test_reduced_automorphisms_group_closure(ctx23):
    u = ctx23.element(3, 1)
    C = c_two_param(ctx23, u, u.inverse())
    maps = reduced_automorphisms(C)
    keys = {m.key() for m in maps}
    for m1 in maps:
        for m2 in maps:
            assert m1.compose(m2).key() in keys
    assert any(m.is_identity() for m in maps)


def test_type_from_order_table(ctx23, rng):
    # order -> type per the taxonomy; cross-checked with Clebsch rows
    cases = []
    while len(cases) < 3:
        try:
            C = random_split_curve(ctx23, rng)
        except Genus2Error:
            continue
        cases.append(C)
    for C in cases:
        t1 = ra_type_from_automorphisms(C)
        t2 = ra_type_from_clebsch(clebsch_invariants(C))
        assert t1 == t2


def test_classifier_agreement_with_irrational_points(ctx23, rng):
    # curves with irreducible quadratic factors push the Moebius
    # search into GF(p^4)
    ctx = ctx23
    checked = 0
    while checked < 8:
        irred = Poly(ctx, [random_element(ctx, rng),
                           random_element(ctx, rng), ctx.one])
        from richelot.poly import roots as poly_roots, is_squarefree
        if poly_roots(irred):
            continue
        rs = random_distinct_elements(ctx, rng, 4)
        f = Poly.from_roots(ctx, rs) * irred
        if not is_squarefree(f):
            continue
        C = Genus2Curve(f)
        assert ra_type_from_automorphisms(C) \
            == ra_type_from_clebsch(clebsch_invariants(C))
        checked += 1


def weierstrass_points_oracle(curve):
    """Weierstrass points by factoring: the Cantor-Zassenhaus path that
    genus2.weierstrass_points replaced, kept as the reference the
    block-root path is checked against."""
    ctx = curve.ctx
    linears, quads = factor_quadratic_pieces(curve.f)
    if not quads:
        pts = [-g[0] for g in linears]
        if curve.f.degree() == 5:
            pts.append(INF)
        pts.sort(key=point_key)
        return ctx, pts
    ext = ctx.extension()
    pts = [ext.embed(-g[0]) for g in linears]
    for g in quads:
        # roots of x^2 + bx + c in GF(p^4)
        b, c = g[1], g[0]
        disc = b * b - 4 * c
        s = ext.embed(disc).sqrt()
        half = ext.embed(ctx.from_int(2).inverse())
        r1 = (ext.embed(-b) + s) * half
        r2 = (ext.embed(-b) - s) * half
        pts.extend([r1, r2])
    if curve.f.degree() == 5:
        pts.append(INF)
    pts.sort(key=point_key)
    return ext, pts


def random_irreducible_quadratic(ctx, rng):
    while True:
        q = Poly(ctx, [random_element(ctx, rng), random_element(ctx, rng),
                       ctx.one])
        if not poly_roots(q):
            return q


@pytest.mark.parametrize("n_roots, n_irred", [
    (6, 0), (4, 1), (2, 2), (0, 3), (5, 0), (3, 1), (1, 2)])
def test_splitting_points_match_factoring_oracle(ctx23, rng, n_roots,
                                                 n_irred):
    # odd n_roots gives degree-5 models (INF is a Weierstrass point);
    # any irreducible block moves the points to GF(p^4)
    checked = 0
    while checked < 4:
        f = Poly.from_roots(ctx23, random_distinct_elements(
            ctx23, rng, n_roots))
        for _ in range(n_irred):
            f = f * random_irreducible_quadratic(ctx23, rng)
        if not is_squarefree(f):
            continue
        C = Genus2Curve(f)
        want = weierstrass_points_oracle(C)
        assert (want[0] is ctx23) == (n_irred == 0)
        assert weierstrass_points(C) == want
        for s in splittings(C):
            assert splitting_points(s) == want
        checked += 1


@pytest.mark.parametrize("p", [23, 41])
def test_splitting_points_match_factoring_oracle_on_graph(p):
    # the dual recorded on every Jacobian codomain, and every vertex
    g = build_graph(make_field(p))
    codomains = [e for e in g.edges if isinstance(e.hint[1], Genus2Curve)]
    assert codomains
    for e in codomains:
        assert splitting_points(e.hint[2]) \
            == weierstrass_points_oracle(e.hint[1]), e.sort_key()
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            rep = v.representative
            assert weierstrass_points(rep) == weierstrass_points_oracle(rep)


def test_clebsch_table_rows(ctx23):
    ctx = ctx23
    assert ra_type_from_clebsch(ClebschPoint(
        ctx.zero, ctx.zero, ctx.zero, ctx.one)) == RAType.II
    assert ra_type_from_clebsch(ClebschPoint(
        ctx.one, ctx.zero, ctx.zero, ctx.zero)) == RAType.VI


def lexmin_key_oracle(cp):
    """Reference key: the lexicographically least weighted rescaling
    (mu A, mu^2 B, mu^3 C, mu^5 D) over every mu in GF(p^2)^*, with
    single-coordinate tuples sent to unit tuples."""
    ctx = cp.A.ctx
    coords = cp.tuple()
    nonzero = [k for k, c in enumerate(coords) if not c.is_zero()]
    if len(nonzero) == 1:
        unit = [(0, 0)] * 4
        unit[nonzero[0]] = (1, 0)
        return tuple(unit)
    A, B, C, D = coords
    best = None
    for mu in ctx.elements():
        if mu.is_zero():
            continue
        mu2 = mu * mu
        mu3 = mu2 * mu
        mu5 = mu3 * mu2
        cand = ((mu * A).key(), (mu2 * B).key(), (mu3 * C).key(),
                (mu5 * D).key())
        if best is None or cand < best:
            best = cand
    return best


def rescale(cp, mu):
    return ClebschPoint(mu * cp.A, mu ** 2 * cp.B, mu ** 3 * cp.C,
                        mu ** 5 * cp.D)


def random_nonzero(ctx, rng):
    while True:
        x = random_element(ctx, rng)
        if not x.is_zero():
            return x


def with_rescalings(cps, rng):
    """Each point followed by two random rescalings of it."""
    out = []
    for cp in cps:
        out.append(cp)
        out.extend(rescale(cp, random_nonzero(cp.A.ctx, rng))
                   for _ in range(2))
    return out


def assert_same_partition(points):
    """canonical_key and the oracle split `points` into the same classes."""
    pairs = {(canonical_key(cp), lexmin_key_oracle(cp)) for cp in points}
    assert len({new for new, _ in pairs}) == len(pairs)
    assert len({old for _, old in pairs}) == len(pairs)


def test_canonical_key_weighted_rescaling(ctx23, rng):
    ns = ctx23.nonsquare()
    for _ in range(30):
        cp = ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
        if all(c.is_zero() for c in cp.tuple()):
            continue
        mu = random_nonzero(ctx23, rng)
        # exactly one of mu and mu * ns is a square in GF(p^2)
        for m in (mu, mu * ns):
            assert canonical_key(cp) == canonical_key(rescale(cp, m))
    d = random_element(ctx23, rng)
    if not d.is_zero():
        assert canonical_key(ClebschPoint(ctx23.zero, ctx23.zero,
                                          ctx23.zero, d)) \
            == canonical_key(ClebschPoint(ctx23.zero, ctx23.zero,
                                          ctx23.zero, ctx23.one))


def test_canonical_key_matches_lexmin_oracle_random(ctx23, rng):
    cps = [ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
           for _ in range(40)]
    cps = [cp for cp in cps if not all(c.is_zero() for c in cp.tuple())]
    assert_same_partition(with_rescalings(cps, rng))


@pytest.mark.parametrize("zero_coords", [(), (0,), (0, 2), (0, 1)],
                         ids=["A", "BC", "BD", "CD"])
def test_canonical_key_matches_lexmin_oracle_branches(ctx23, rng,
                                                      zero_coords):
    # one normal-form branch each: A != 0; A = 0 with B, C != 0;
    # A = C = 0 with B, D != 0; A = B = 0 with C, D != 0
    cps = []
    for _ in range(15):
        coords = [random_nonzero(ctx23, rng) for _ in range(4)]
        for k in zero_coords:
            coords[k] = ctx23.zero
        cps.append(ClebschPoint(*coords))
    assert_same_partition(with_rescalings(cps, rng))


def test_canonical_key_matches_lexmin_oracle_on_graph():
    # every Jacobian vertex and every Jacobian codomain of the p = 23 graph
    g = build_graph(make_field(23))
    curves = [v.representative for v in g.vertices.values()
              if v.key.kind == "jacobian"]
    curves += [e.hint[1] for e in g.edges
               if isinstance(e.hint[1], Genus2Curve)]
    points = {cp.tuple(): cp for cp in map(clebsch_invariants, curves)}
    assert_same_partition(points.values())


def test_canonical_key_moebius_invariance(ctx23, rng):
    for _ in range(10):
        C = random_split_curve(ctx23, rng)
        k1 = canonical_key(clebsch_invariants(C))
        while True:
            a, b, c, d = (random_element(ctx23, rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        Cm = transform_curve(C, a, b, c, d)
        assert canonical_key(clebsch_invariants(Cm)) == k1
        # rescaling f also keeps the class
        scale = random_element(ctx23, rng)
        if not scale.is_zero():
            Cs = Genus2Curve(C.f * scale)
            assert canonical_key(clebsch_invariants(Cs)) == k1


def test_orbit_sizes_sum_to_fifteen(ctx23, rng):
    for _ in range(5):
        C = random_split_curve(ctx23, rng)
        spls = splittings(C)
        maps = reduced_automorphisms(C)
        orbits = moebius_orbits_on_splittings(C, spls, maps)
        assert sum(len(o) for o in orbits) == 15


def test_genus2_validation():
    ctx = make_field(11)
    with pytest.raises(Genus2Error):
        Genus2Curve(Poly.from_ints(ctx, [1, 2, 3, 4, 1]))  # degree 4
    with pytest.raises(Genus2Error):
        Genus2Curve(Poly.from_roots(
            ctx, [ctx.from_int(v) for v in (1, 1, 2, 3, 4, 5)]))
