"""Elliptic curves with labelled 2-torsion: j, Velu, supersingularity."""

import random

import pytest

from richelot.elliptic import (EllipticCurveE2, NonSplitTorsionError,
                               curve_from_j, find_supersingular_seed,
                               is_supersingular,
                               isomorphisms_with_torsion, j_invariant,
                               two_isogeny)
from richelot.field import make_field
from richelot.gluing import ProductSurface
from richelot.graph import build_graph

from conftest import (isomorphisms_oracle, j_invariant_oracle,
                      point_count_supersingular, random_distinct_elements,
                      random_element, square_set, two_isogeny_oracle)


def e_1728(ctx):
    return EllipticCurveE2(ctx.one, ctx.from_int(-1), ctx.zero)


def e_0(ctx):
    z3 = ctx.nth_root_of_unity(3)
    return EllipticCurveE2(ctx.one, z3, z3 * z3)


def test_j_invariants_of_special_curves(ctx11, ctx23):
    for ctx in (ctx11, ctx23):
        assert j_invariant(e_1728(ctx)) == ctx.from_int(1728)
        assert j_invariant(e_0(ctx)) == ctx.zero


def test_j_invariant_model_independence(ctx23, rng):
    for _ in range(30):
        E = EllipticCurveE2(*random_distinct_elements(ctx23, rng, 3))
        u = random_element(ctx23, rng)
        if u.is_zero():
            continue
        r = random_element(ctx23, rng)
        scaled = EllipticCurveE2(*[u * u * x + r for x in E.roots()])
        assert j_invariant(E) == j_invariant(scaled)
        perm = EllipticCurveE2(E.r2, E.r3, E.r1)
        assert j_invariant(E) == j_invariant(perm)


def test_velu_quotients_of_e1728(ctx11):
    # the iota-fixed kernel <P_3 = (0,0)> returns j = 1728; the other
    # two give j = 66^3 = 287496 (which is 0 mod 11)
    E = e_1728(ctx11)
    assert j_invariant(two_isogeny(E, 3)) == ctx11.from_int(1728)
    for i in (1, 2):
        assert j_invariant(two_isogeny(E, i)) \
            == ctx11.from_int(287496)


def test_velu_quotients_of_e0(ctx11):
    # zeta cycles the 2-torsion, so all three quotients are isomorphic
    E = e_0(ctx11)
    js = {j_invariant(two_isogeny(E, i)).key() for i in (1, 2, 3)}
    assert len(js) == 1


def test_velu_dual_composition_returns_j(ctx11, ctx23, rng):
    # phi-hat o phi = [2]: quotienting the codomain by the recorded
    # dual-kernel point returns the original j-invariant
    for ctx in (ctx11, ctx23):
        for _ in range(20):
            E = EllipticCurveE2(*random_distinct_elements(ctx, rng, 3))
            for i in (1, 2, 3):
                try:
                    back = two_isogeny(two_isogeny(E, i), 1)
                except Exception:
                    continue  # irrational codomain torsion; not tested here
                assert j_invariant(back) == j_invariant(E)


def phi2(ctx, x, y):
    """Classical level-2 modular polynomial, an independent oracle."""
    c = ctx.from_int
    return (x ** 3 + y ** 3 - (x * x) * (y * y)
            + c(1488) * (x * y) * (x + y)
            - c(162000) * (x * x + y * y)
            + c(40773375) * (x * y)
            + c(8748000000) * (x + y)
            - c(157464000000000))


def test_velu_against_modular_polynomial(ctx23, rng):
    count = 0
    while count < 25:
        E = EllipticCurveE2(*random_distinct_elements(ctx23, rng, 3))
        for i in (1, 2, 3):
            try:
                E2 = two_isogeny(E, i)
            except Exception:
                continue
            assert phi2(ctx23, j_invariant(E), j_invariant(E2)).is_zero()
            count += 1


def test_is_supersingular():
    ctx11 = make_field(11)
    assert is_supersingular(e_0(ctx11))       # 11 = 2 mod 3
    assert is_supersingular(e_1728(ctx11))    # 11 = 3 mod 4
    ctx13 = make_field(13)
    assert not is_supersingular(e_0(ctx13))   # 13 = 1 mod 3


def test_supersingular_trace(ctx11):
    # point count is (p -+ 1)^2, i.e. trace +-2p
    ctx = ctx11
    sq = square_set(ctx)
    E = e_0(ctx)
    count = 1
    for x in ctx.elements():
        y2 = (x - E.r1) * (x - E.r2) * (x - E.r3)
        if y2.is_zero():
            count += 1
        elif (y2.a, y2.b) in sq:
            count += 2
    assert count in ((ctx.p - 1) ** 2, (ctx.p + 1) ** 2)


def test_isomorphisms_with_torsion_special_curves(ctx11):
    # E_0: zeta cycles the torsion points; E_1728: iota fixes P_3
    perms0 = isomorphisms_with_torsion(e_0(ctx11), e_0(ctx11))
    assert (2, 3, 1) in perms0 and (3, 1, 2) in perms0
    perms1 = isomorphisms_with_torsion(e_1728(ctx11), e_1728(ctx11))
    assert (2, 1, 3) in perms1


def test_isomorphisms_generic_identity_only(ctx23, rng):
    found_generic = 0
    while found_generic < 10:
        E = EllipticCurveE2(*random_distinct_elements(ctx23, rng, 3))
        j = j_invariant(E)
        if j == ctx23.zero or j == ctx23.from_int(1728):
            continue
        perms = isomorphisms_with_torsion(E, E)
        assert perms == [(1, 2, 3)]
        found_generic += 1


def test_isomorphisms_oracle_affine_solve(ctx23, rng):
    # independent check: brute-force all affine maps alpha*x + beta
    for _ in range(5):
        E = EllipticCurveE2(*random_distinct_elements(ctx23, rng, 3))
        E2 = EllipticCurveE2(*random_distinct_elements(ctx23, rng, 3))
        expected = set()
        for perm in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                     (3, 1, 2), (3, 2, 1)):
            t = [E2.root(perm[i]) for i in range(3)]
            alpha = (t[0] - t[1]) / (E.r1 - E.r2)
            beta = t[0] - alpha * E.r1
            if alpha * E.r3 + beta == t[2] and not alpha.is_zero():
                expected.add(perm)
        assert set(isomorphisms_with_torsion(E, E2)) == expected


@pytest.mark.parametrize("p", [41, 59])
def test_isomorphisms_match_oracle_on_graph_factors(p):
    # every ordered pair of factor curves met at the product vertices
    # and product codomains: equal lists, in the same order
    g = build_graph(make_field(p))
    surfaces = [v.representative for v in g.vertices.values()]
    surfaces += [e.hint[1] for e in g.edges]
    curves = list(dict.fromkeys(
        E for S in surfaces if isinstance(S, ProductSurface)
        for E in (S.E1, S.E2)))
    ctx = curves[0].ctx
    # j = 0 is supersingular at both primes, j = 1728 only at p = 59
    js = {j_invariant(E) for E in curves}
    assert ctx.zero in js and (ctx.from_int(1728) in js) == (p % 4 == 3)
    matched = 0
    for E in curves:
        for E2 in curves:
            got = isomorphisms_with_torsion(E, E2)
            assert got == isomorphisms_oracle(E, E2), (E, E2)
            matched += bool(got)
    assert 0 < matched < len(curves) ** 2


def random_model(E, rng):
    """E under a random x -> u*x + t, its roots in a random order."""
    ctx = E.ctx
    u, t = random_element(ctx, rng), random_element(ctx, rng)
    while u.is_zero():
        u = random_element(ctx, rng)
    roots = [u * r + t for r in E.roots()]
    rng.shuffle(roots)
    return EllipticCurveE2(*roots)


@pytest.mark.parametrize("p", [23, 41, 101])
def test_isomorphisms_match_oracle_random_models(p):
    # a random curve (j = 0 and 1728 among them) against rescaled,
    # translated and relabelled models of itself, which always match,
    # and against unrelated random curves, which match only when their
    # j-invariants agree
    ctx, rng = make_field(p), random.Random(p)
    curves = [e_0(ctx), e_1728(ctx)] + [
        EllipticCurveE2(*random_distinct_elements(ctx, rng, 3))
        for _ in range(200)]
    for E in curves:
        pairs = [(E, random_model(E, rng)) for _ in range(3)]
        assert all(isomorphisms_with_torsion(*pr) for pr in pairs)
        other = EllipticCurveE2(*random_distinct_elements(ctx, rng, 3))
        pairs += [(E, other), (other, E)]
        for E1, E2 in pairs:
            got = isomorphisms_with_torsion(E1, E2)
            assert got == isomorphisms_oracle(E1, E2), (E1, E2)
            assert bool(got) == (j_invariant(E1) == j_invariant(E2))


def test_find_supersingular_seed():
    assert j_invariant(find_supersingular_seed(make_field(11))) \
        == make_field(11).from_int(1728)
    for p in (11, 13, 23, 37):
        E = find_supersingular_seed(make_field(p))
        assert is_supersingular(E)
        assert point_count_supersingular(E)


@pytest.mark.parametrize("p", [13, 37, 61, 73, 97])
def test_hasse_invariant_matches_point_count(p):
    # every split-torsion model of j in GF(p), ordinary and supersingular
    ctx = make_field(p)
    squares = square_set(ctx)
    verdicts = []
    for j in range(p):
        E = curve_from_j(ctx, ctx.from_int(j))
        if E is not None:
            verdicts.append(is_supersingular(E))
            assert verdicts[-1] == point_count_supersingular(E, squares), j
    assert True in verdicts and False in verdicts


def test_supersingular_seed_by_hasse_invariant_at_409():
    # p = 1 (mod 12) scans j in GF(p): p/2 steps per trial j for the
    # Hasse invariant against p^2 for a point count
    ctx = make_field(409)
    assert j_invariant(find_supersingular_seed(ctx)) == ctx.from_int(106)


def _velu_outcome(step, E, i):
    """The codomain's roots in order, or the error step raises."""
    try:
        return tuple(r.key() for r in step(E, i).roots())
    except NonSplitTorsionError as exc:
        return type(exc)


@pytest.mark.parametrize("p", [23, 41, 101])
def test_j_and_velu_match_their_field_element_oracles(p):
    # 250 random curves with distinct roots: j's closed form in the root
    # differences equals the cross-ratio form, and each Velu codomain
    # equals the FieldElement chain's, its roots in order (the root
    # ordering fixes A +- 2s with s the chosen square root of ab), or
    # both raise on a non-split codomain
    ctx, rng = make_field(p), random.Random(p)
    split = 0
    for _ in range(250):
        E = EllipticCurveE2(*random_distinct_elements(ctx, rng, 3))
        assert j_invariant(E) == j_invariant_oracle(E)
        for i in (1, 2, 3):
            got = _velu_outcome(two_isogeny, E, i)
            assert got == _velu_outcome(two_isogeny_oracle, E, i)
            split += got is not NonSplitTorsionError
    assert 0 < split < 750
