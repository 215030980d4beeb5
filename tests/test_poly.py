"""Polynomial arithmetic, roots, and degree-<=2 factorization."""

import pytest

from richelot.poly import (Poly, PolyError, factor_quadratic_pieces,
                           is_squarefree, roots)

from conftest import random_element


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
