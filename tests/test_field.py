"""Field arithmetic in GF(p^2) and GF(p^4)."""

import pytest

from richelot.field import FieldError, legendre, make_field

from conftest import random_element


def test_make_field_smallest_nonresidue():
    # oracle: exhaustive Legendre scan
    for p in (11, 13, 23, 31):
        ctx = make_field(p)
        scan = next(n for n in range(1, p) if legendre(n, p) == -1)
        assert ctx.nonresidue == scan
    assert make_field(11).nonresidue == 2
    assert make_field(13).nonresidue == 2


def test_make_field_rejects_bad_primes():
    for bad in (4, 1, 0, -7, 9, 15, 2, 3, 5):
        with pytest.raises(FieldError):
            make_field(bad)


def test_field_axioms_random(ctx23, rng):
    for _ in range(200):
        a = random_element(ctx23, rng)
        b = random_element(ctx23, rng)
        c = random_element(ctx23, rng)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        if not a.is_zero():
            assert a * a.inverse() == ctx23.one


def test_sqrt_basic(ctx11):
    assert ctx11.zero.sqrt() == ctx11.zero
    assert ctx11.from_int(4).sqrt() == ctx11.from_int(2)
    nr = ctx11.from_int(ctx11.nonresidue)
    y = nr.sqrt()
    assert y is not None and y * y == nr
    # exhaustive oracle: the returned root is the lex-smaller of the two
    cands = [x for x in ctx11.elements() if x * x == nr]
    assert y == min(cands)


def test_sqrt_contract_matches_euler(ctx11):
    q = ctx11.order
    for x in ctx11.elements():
        y = x.sqrt()
        if x.is_zero():
            assert y == ctx11.zero
            continue
        is_sq = x ** ((q - 1) // 2) == ctx11.one
        assert (y is not None) == is_sq
        if y is not None:
            assert y * y == x
            assert y <= -y  # deterministic choice


def test_frobenius_involution_fixes_prime_field(ctx13):
    fixed = 0
    for x in ctx13.elements():
        assert x.frobenius().frobenius() == x
        if x.frobenius() == x:
            fixed += 1
            assert x.in_prime_field()
    assert fixed == ctx13.p


def test_nth_roots_of_unity():
    ctx11 = make_field(11)
    ctx13 = make_field(13)
    for p in (11, 13, 23, 31, 37):
        z3 = make_field(p).nth_root_of_unity(3)
        assert z3 is not None and z3 ** 3 == make_field(p).one and \
            z3 != make_field(p).one
    z4 = ctx11.nth_root_of_unity(4)
    assert z4 ** 4 == ctx11.one and z4 ** 2 != ctx11.one
    # 5 does not divide 13^2 - 1 = 168
    assert ctx13.nth_root_of_unity(5) is None
    # smallest-lex primitive root: scan oracle
    z6 = ctx11.nth_root_of_unity(6)
    scan = next(x for x in ctx11.elements()
                if not x.is_zero() and x ** 6 == ctx11.one
                and x ** 2 != ctx11.one and x ** 3 != ctx11.one)
    assert z6 == scan


@pytest.mark.parametrize("p, n", [(1597, 17 * 19), (1973, 17 * 29)])
def test_nth_root_of_unity_two_large_prime_factors(p, n):
    ctx = make_field(p)
    z = ctx.nth_root_of_unity(n)
    order = next(d for d in range(1, n + 1)
                 if n % d == 0 and z ** d == ctx.one)
    assert order == n


def test_extension_field(ctx11):
    ext = ctx11.extension()
    assert ext.order == 11 ** 4
    j = ext.element(ctx11.zero, ctx11.one)
    assert j * j == ext.embed(ext.m)
    # every GF(p^2) element is a square in GF(p^4)
    nr = ctx11.from_int(ctx11.nonresidue)
    s = ext.embed(nr).sqrt()
    assert s is not None and s * s == ext.embed(nr)
    x = ext.element(ctx11.from_int(3), ctx11.from_int(5))
    assert x * x.inverse() == ext.one
