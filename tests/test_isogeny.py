"""The Richelot step: delta, generic codomain, degenerate splitting."""

import pytest

from richelot.elliptic import EllipticCurveE2, j_invariant, two_isogeny
from richelot.genus2 import (Genus2Curve, QuadraticSplitting, canonical_key,
                             clebsch_invariants, splittings)
from richelot.graph import neighbourhood
from richelot.isogeny import (IrrationalSplitError, RichelotError, delta,
                              richelot_generic, split_degenerate)
from richelot.poly import Poly

from conftest import random_distinct_elements, random_element


def c_two_param(ctx, s, t):
    return Genus2Curve(Poly.from_roots(
        ctx, [ctx.one, -ctx.one, s, -s, t, -t]))


def k1_splitting(ctx, s, t):
    return QuadraticSplitting.make(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [s, -s]),
         Poly.from_roots(ctx, [t, -t])], ctx.one)


def k2_splitting(ctx, s, t):
    return QuadraticSplitting.make(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [-s, -t]),
         Poly.from_roots(ctx, [s, t])], ctx.one)


def test_delta_examples(ctx23, rng):
    ctx = ctx23
    for _ in range(10):
        s, t = random_element(ctx, rng), random_element(ctx, rng)
        try:
            c_two_param(ctx, s, t)
        except Exception:
            continue
        # the K_1 coefficient rows are linearly dependent
        assert delta(k1_splitting(ctx, s, t)).is_zero()
        # K_2 determinant: -2(s + t)(1 + st), up to the sign of the
        # canonical block ordering
        d = delta(k2_splitting(ctx, s, t))
        expect = -2 * (s + t) * (ctx.one + s * t)
        assert d == expect or d == -expect
    # repeated rows
    g = Poly.from_ints(ctx, [1, 1, 1])
    assert delta(QuadraticSplitting(blocks=(g, g, g), scale=ctx.one)) \
        .is_zero()


def test_richelot_generic_rejects_zero_delta(ctx23):
    s, t = ctx23.from_int(3), ctx23.from_int(5)
    with pytest.raises(RichelotError):
        richelot_generic(k1_splitting(ctx23, s, t))
    with pytest.raises(RichelotError):
        split_degenerate(k2_splitting(ctx23, s, t))


def test_double_step_returns_source_key(ctx23, rng):
    for _ in range(10):
        C = Genus2Curve(Poly.from_roots(
            ctx23, random_distinct_elements(ctx23, rng, 6)))
        key = canonical_key(clebsch_invariants(C))
        for spl in splittings(C):
            if delta(spl).is_zero():
                continue
            cod = richelot_generic(spl)
            assert not delta(cod.dual).is_zero()
            back = richelot_generic(cod.dual)
            assert canonical_key(clebsch_invariants(back.curve)) == key


def test_split_k1_of_two_param_curve(ctx23):
    ctx = ctx23
    s, t = ctx.from_int(3), ctx.from_int(5)
    res = split_degenerate(k1_splitting(ctx, s, t))
    got = sorted([j_invariant(res.E), j_invariant(res.E2)])
    expect = sorted([
        j_invariant(EllipticCurveE2(ctx.one, s * s, t * t)),
        j_invariant(EllipticCurveE2(ctx.one, (s * s).inverse(),
                                    (t * t).inverse()))])
    assert got == expect
    assert res.split_data.verify()


def test_split_kernels_of_type_iii(ctx23):
    # K_1 and K_3 both split to elliptic squares, and the two squares'
    # factors are 2-isogenous elliptic curves
    ctx = ctx23
    u = ctx.element(3, 1)
    s, t = u, u.inverse()
    res1 = split_degenerate(k1_splitting(ctx, s, t))
    E = EllipticCurveE2(ctx.one, u * u, (u * u).inverse())
    assert j_invariant(res1.E) == j_invariant(res1.E2) == j_invariant(E)
    k3 = QuadraticSplitting.make(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [-s, t]),
         Poly.from_roots(ctx, [s, -t])], ctx.one)
    res3 = split_degenerate(k3)
    j_prime = j_invariant(res3.E)
    assert j_prime == j_invariant(res3.E2)
    # explicit Velu step realizes the 2-isogeny E -> E'
    assert j_prime == j_invariant(two_isogeny(E, 1).codomain)


def test_split_k1_of_type_v_lands_on_j_zero(ctx23):
    ctx = ctx23
    z6 = ctx.nth_root_of_unity(6)
    res = split_degenerate(k1_splitting(ctx, z6, z6.inverse()))
    assert j_invariant(res.E).is_zero()
    assert j_invariant(res.E2).is_zero()


def test_split_over_extension_with_irrational_factors(ctx23):
    # blocks (x - a)(x - m/a) share the root product m, a nonsquare, so
    # delta = 0 and the pencil's square-making roots lie in GF(p^4) only;
    # the factors rebuilt there have no GF(p^2)-rational j-invariant
    ctx = ctx23
    m = ctx.nonsquare()
    spl = QuadraticSplitting.make(
        [Poly(ctx, [m, -(a + m / a), ctx.one])
         for a in map(ctx.from_int, (2, 3, 5))], ctx.one)
    assert delta(spl).is_zero()
    with pytest.raises(IrrationalSplitError, match="factor j-invariant"):
        split_degenerate(spl)
    with pytest.raises(IrrationalSplitError, match="factor j-invariant"):
        neighbourhood(Genus2Curve(spl.product()))


def test_split_data_identity_quintic(ctx23, rng):
    # degree-5 curves have a linear block; U and V stay linear
    for _ in range(10):
        C = Genus2Curve(Poly.from_roots(
            ctx23, random_distinct_elements(ctx23, rng, 5)))
        for spl in splittings(C):
            if not delta(spl).is_zero():
                continue
            res = split_degenerate(spl)
            assert res.split_data.verify()


def test_dual_splitting_round_trips_all_kernels(ctx23, rng):
    # for every delta != 0 kernel of a random curve, the dual
    # splitting's quotient is the original vertex
    C = Genus2Curve(Poly.from_roots(
        ctx23, random_distinct_elements(ctx23, rng, 6)))
    key = canonical_key(clebsch_invariants(C))
    checked = 0
    for spl in splittings(C):
        if delta(spl).is_zero():
            continue
        cod = richelot_generic(spl)
        back = richelot_generic(cod.dual)
        assert canonical_key(clebsch_invariants(back.curve)) == key
        checked += 1
    assert checked > 0
