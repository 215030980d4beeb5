"""Polynomial arithmetic, roots, and degree-<=2 factorization."""

import random

import pytest

from richelot.field import FieldElement, make_field
from richelot.genus2 import transform_curve
from richelot.graph import build_graph
from richelot.poly import (Poly, PolyError, factor_quadratic_pieces,
                           is_squarefree, roots)

from conftest import (factor_oracle, is_squarefree_oracle,
                      poly_divmod_oracle, poly_gcd_oracle, poly_monic_oracle,
                      poly_mul_oracle, poly_powmod_oracle, poly_sub_oracle,
                      random_distinct_elements, random_element, roots_oracle)


def evaluate(f: Poly, x):
    """f(x) by Horner's rule."""
    acc = f.ctx.zero
    for c in reversed(f.coeffs):
        acc = acc * x + c
    return acc


def roots_bruteforce(f: Poly) -> list:
    """Exhaustive-evaluation root finder; the independent oracle that
    poly.roots is checked against.

    Intended for p <= 50.  Returns roots with multiplicity, sorted.
    """
    if f.is_zero():
        raise PolyError("roots of zero polynomial")
    out = []
    for x in f.ctx.elements():
        if evaluate(f, x).is_zero():
            lin = Poly(f.ctx, [-x, f.ctx.one])
            g = f
            while True:
                q, rem = divmod(g, lin)
                if not rem.is_zero():
                    break
                out.append(x)
                g = q
    out.sort()
    return out


def test_roots_examples(ctx11):
    ctx = ctx11
    f = Poly.from_ints(ctx, [-1, 0, 1])  # x^2 - 1
    assert roots(f) == [ctx.one, ctx.from_int(10)]
    # x^2 - nonresidue has roots +-i
    g = Poly(ctx, [-ctx.from_int(ctx.nonresidue), ctx.zero, ctx.one])
    assert roots(g) == roots_bruteforce(g)
    assert sorted(roots(g)) == sorted([ctx.i, -ctx.i])
    assert roots(Poly.from_ints(ctx, [5])) == []


def test_roots_against_bruteforce_oracle(ctx11, rng):
    # the exhaustive-evaluation oracle is the contract for p <= 50
    for _ in range(60):
        deg = rng.randrange(1, 7)
        f = Poly(ctx11, [random_element(ctx11, rng) for _ in range(deg)]
                 + [ctx11.one])
        assert roots(f) == roots_bruteforce(f)


def test_roots_multiplicity(ctx11):
    ctx = ctx11
    f = Poly.from_roots(ctx, [ctx.one, ctx.one, ctx.from_int(2)])
    assert roots(f) == [ctx.one, ctx.one, ctx.from_int(2)]


def test_is_squarefree(ctx11):
    ctx = ctx11
    assert not is_squarefree(Poly.from_roots(ctx, [ctx.one, ctx.one]))
    assert is_squarefree(Poly.from_ints(ctx, [-1, 0, 1]))
    assert is_squarefree(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1]))


def test_factor_quadratic_pieces_split(ctx11):
    ctx = ctx11
    f = Poly.from_roots(ctx, [ctx.from_int(v) for v in (1, -1, 2, -2, 3, -3)])
    lin, quad = factor_quadratic_pieces(f)
    assert len(lin) == 6 and not quad


def test_factor_quadratic_pieces_irreducible_blocks(ctx11, rng):
    ctx = ctx11
    # an irreducible quadratic stays whole; round-trip is exact
    irred = Poly(ctx, [-ctx.nonsquare(), ctx.zero, ctx.one])
    assert not roots_bruteforce(irred)
    for _ in range(10):
        rs = []
        while len(rs) < 4:
            x = random_element(ctx, rng)
            if all(x != y for y in rs) and not evaluate(irred, x).is_zero():
                rs.append(x)
        f = Poly.from_roots(ctx, rs, scale=ctx.from_int(3)) * irred
        if not is_squarefree(f):
            continue
        lin, quad = factor_quadratic_pieces(f)
        assert irred.monic() in quad
        check = Poly(ctx, [f.leading()])
        for g in lin + quad:
            check = check * g
        assert check == f


def test_factor_rejects_non_squarefree(ctx11):
    ctx = ctx11
    f = Poly.from_roots(ctx, [ctx.one, ctx.one, ctx.from_int(2),
                              ctx.from_int(3), ctx.from_int(4),
                              ctx.from_int(5)])
    with pytest.raises(PolyError):
        factor_quadratic_pieces(f)


def test_factor_rejects_cubic_factors(ctx13):
    ctx = ctx13
    # x^3 - g is irreducible over GF(13^2) when g generates enough of
    # the multiplicative group; find one by scanning
    for gint in range(2, 13):
        f = Poly.from_ints(ctx, [-gint, 0, 0, 1])
        if not roots_bruteforce(f):
            with pytest.raises(PolyError):
                factor_quadratic_pieces(f * Poly.from_ints(ctx, [-1, 1]))
            return
    pytest.skip("no irreducible cubic found in scan range")


def test_derivative_product_rule(ctx23, rng):
    for _ in range(40):
        f = Poly(ctx23, [random_element(ctx23, rng) for _ in range(4)])
        g = Poly(ctx23, [random_element(ctx23, rng) for _ in range(4)])
        lhs = (f * g).derivative()
        rhs = f.derivative() * g + f * g.derivative()
        assert lhs == rhs


def test_roots_bounded_by_degree(ctx23, rng):
    for _ in range(40):
        deg = rng.randrange(1, 7)
        f = Poly(ctx23, [random_element(ctx23, rng) for _ in range(deg)]
                 + [ctx23.one])
        rs = roots(f)
        assert len(rs) <= deg
        for r in rs:
            assert evaluate(f, r).is_zero()


# -- the int-pair kernels against the FieldElement oracles ---------------


def lookup_models(p, rng, vertices=None):
    """Per Jacobian vertex of the p graph (a random sample of that many,
    if vertices is given): its representative's sextic (or quintic), a
    random model as the lookup benchmark draws them, and a quintic model
    with one Weierstrass point sent to infinity."""
    ctx = make_field(p)
    jacobians = [v for v in build_graph(ctx).vertices.values()
                 if v.key.kind == "jacobian"]
    if vertices is not None:
        jacobians = rng.sample(jacobians, vertices)
    out = []
    for v in jacobians:
        rep = v.representative
        while True:
            a, b, c, d = (random_element(ctx, rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        r = v.points[-1]  # never INF, which sorts first
        out += [rep.f, transform_curve(rep, a, b, c, d).f,
                transform_curve(rep, r, ctx.one, ctx.one, ctx.zero).f]
    return out


def random_pieces(ctx, rng, degree, nquads):
    """scale * (distinct linears) * (nquads distinct irreducible monic
    quadratics) of the given degree, and its expected factors."""
    quads = []
    while len(quads) < nquads:
        c0, c1 = random_element(ctx, rng), random_element(ctx, rng)
        if (c1 * c1 - 4 * c0).sqrt() is None \
                and all(q[0] != c0 or q[1] != c1 for q in quads):
            quads.append(Poly(ctx, [c0, c1, ctx.one]))
    rs = random_distinct_elements(ctx, rng, degree - 2 * nquads)
    scale = random_element(ctx, rng)
    while scale.is_zero():
        scale = random_element(ctx, rng)
    f = Poly.from_roots(ctx, rs, scale=scale)
    for q in quads:
        f = f * q
    linears = sorted((Poly(ctx, [-r, ctx.one]) for r in rs), key=Poly.key)
    return f, linears, sorted(quads, key=Poly.key)


def assert_factoring_matches_oracle(f):
    got = factor_quadratic_pieces(f)
    assert got == factor_oracle(f), f
    assert roots(f) == roots_oracle(f), f
    assert is_squarefree(f) == is_squarefree_oracle(f)
    return got


def check_lookup_models(p, vertices=None):
    # the same factors in the same order, and the same roots, as the
    # oracle; every model splits, and a third or more are quintics
    models = lookup_models(p, random.Random(p), vertices)
    quintics = 0
    for f in models:
        linears, quads = assert_factoring_matches_oracle(f)
        assert not quads and len(linears) == f.degree()
        quintics += f.degree() == 5
    assert quintics >= len(models) // 3


@pytest.mark.parametrize("p", [23, 41])
def test_factoring_matches_oracle_on_lookup_models(p):
    check_lookup_models(p)


def test_factoring_matches_oracle_on_lookup_models_p101_sample():
    check_lookup_models(101, vertices=25)


@pytest.mark.slow
def test_factoring_matches_oracle_on_lookup_models_p101():
    check_lookup_models(101)


@pytest.mark.parametrize("p", [11, 13, 43, 101, 103])
def test_factoring_matches_oracle_on_random_pieces(p):
    # sextics with 0 to 3 irreducible quadratic factors, quintics with
    # 0 to 2: the oracle's factors, and exactly the ones built in
    ctx, rng = make_field(p), random.Random(p)
    for degree, nquads in [(6, k) for k in range(4)] \
            + [(5, k) for k in range(3)]:
        for _ in range(4):
            f, linears, quads = random_pieces(ctx, rng, degree, nquads)
            assert assert_factoring_matches_oracle(f) == (linears, quads)


def test_roots_match_oracle_with_repeated_roots(rng):
    for p in (11, 41, 101):
        ctx = make_field(p)
        for _ in range(20):
            rs = random_distinct_elements(ctx, rng, 4)
            mult = [rs[0]] * rng.randrange(1, 4) \
                + [rs[1]] * rng.randrange(1, 3) + [rs[2]]
            scale = ctx.one if rs[3].is_zero() else rs[3]
            f = Poly.from_roots(ctx, mult, scale=scale)
            assert roots(f) == roots_oracle(f) == sorted(mult)
            assert is_squarefree(f) == (len(set(mult)) == len(mult))


@pytest.mark.parametrize("p", [23, 41, 101])
def test_roots_match_oracle_on_curve_from_j_cubics(p):
    # the cubics x^3 + 3kx + 2k, k = j/(1728 - j), that curve_from_j
    # solves, for every j in GF(p) but 0 and 1728
    ctx = make_field(p)
    for jint in range(1, p):
        j = ctx.from_int(jint)
        if j == ctx.from_int(1728):
            continue
        k = j / (ctx.from_int(1728) - j)
        f = Poly(ctx, [2 * k, 3 * k, ctx.zero, ctx.one])
        assert roots(f) == roots_oracle(f)


def test_factoring_errors_match_oracle(ctx13):
    # a square factor, an irreducible cubic factor (times a linear or an
    # irreducible quadratic), a constant and zero: the oracle's PolyError
    ctx = ctx13
    square = Poly.from_roots(ctx, [ctx.one, ctx.one, ctx.from_int(2),
                                   ctx.from_int(3), ctx.from_int(4),
                                   ctx.from_int(5)])
    cubic = next(Poly.from_ints(ctx, [-g, 0, 0, 1]) for g in range(2, 13)
                 if not roots_bruteforce(Poly.from_ints(ctx, [-g, 0, 0, 1])))
    bad = [square, cubic * Poly.from_ints(ctx, [-1, 1]),
           cubic * Poly(ctx, [-ctx.nonsquare(), ctx.zero, ctx.one]),
           Poly.from_ints(ctx, [3]), Poly.zero(ctx)]
    texts = []
    for f in bad:
        with pytest.raises(PolyError) as got:
            factor_quadratic_pieces(f)
        with pytest.raises(PolyError) as want:
            factor_oracle(f)
        assert str(got.value) == str(want.value)
        texts.append(str(got.value))
    assert texts == ["polynomial is not squarefree"] \
        + ["irreducible factor of degree > 2"] * 2 \
        + ["need a nonconstant polynomial"] * 2


def test_poly_wrappers_match_oracle(rng):
    # Poly's operators, gcd and powmod over the kernels, against the
    # FieldElement bodies they replaced, non-monic divisors included
    for p in (11, 23, 101):
        ctx = make_field(p)
        for _ in range(40):
            f, g, m = (Poly(ctx, [random_element(ctx, rng)
                                  for _ in range(rng.randrange(0, 8))])
                       for _ in range(3))
            c = random_element(ctx, rng)
            assert f * g == poly_mul_oracle(f, g)
            assert f * c == poly_mul_oracle(f, c)
            assert f - g == poly_sub_oracle(f, g)
            assert f + g == poly_sub_oracle(f, -g) == g + f
            assert f.derivative() == Poly(ctx, [
                f.coeffs[k] * k for k in range(1, len(f.coeffs))])
            assert f.monic() == poly_monic_oracle(f)
            assert f.gcd(g) == poly_gcd_oracle(f, g)
            if not g.is_zero():
                assert divmod(f, g) == poly_divmod_oracle(f, g)
            if not m.is_zero():
                e = rng.randrange(0, 3 * ctx.order)
                assert f.powmod(e, m) == poly_powmod_oracle(f, e, m)


def test_factoring_runs_on_ints(monkeypatch):
    # factor_quadratic_pieces at p = 41, on lookup models and on sextics
    # with irreducible quadratic factors, makes no FieldElement product,
    # inverse or power: only the factors become FieldElements
    ctx, rng = make_field(41), random.Random(41)
    inputs = lookup_models(41, rng)[:60] + [
        random_pieces(ctx, rng, 6, k)[0] for k in range(4)]
    calls = []
    for name in ("__mul__", "__rmul__", "inverse", "__pow__"):
        real = getattr(FieldElement, name)
        monkeypatch.setattr(FieldElement, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    out = [factor_quadratic_pieces(f) for f in inputs]
    monkeypatch.undo()
    assert calls == []
    assert out == [factor_oracle(f) for f in inputs]
