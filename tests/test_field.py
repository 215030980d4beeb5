"""Field arithmetic in GF(p^2) and GF(p^4)."""

import random
from math import gcd

import pytest

from richelot import field
from richelot.field import (FieldElement, FieldError, _sqrt_mod, legendre,
                            make_field)
from richelot.graph import build_graph, validate

from conftest import nth_root_old_scan_oracle, random_element, tonelli_oracle


def frob(x):
    """x -> x^p, the nontrivial automorphism of GF(p^2)/GF(p)."""
    return FieldElement(x.ctx, x.a, -x.b % x.ctx.p)


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
            assert y.key() <= (-y).key()  # deterministic choice


@pytest.mark.parametrize("p", [7, 11, 13, 17, 23, 29, 41, 53, 97, 101,
                               257])
def test_sqrt_matches_tonelli_oracle_everywhere(p):
    # every element, non-squares included; 2^8 divides 257 - 1, so p = 257
    # runs the Tonelli-Shanks branch of the GF(p) root deep; the second
    # pass reads every GF(p) root from the field's now warm memo
    ctx = make_field(p)
    ns = ctx.nonsquare()
    for _ in range(2):
        for x in ctx.elements():
            assert x.sqrt() == tonelli_oracle(x, ns)


@pytest.mark.parametrize("p", [41, 43, 257])
def test_sqrt_mod_every_residue(p):
    # the memo hides _sqrt_mod's own path after a root's first use, so it
    # is checked directly: a root exactly for t with (t/p) != -1
    n = make_field(p).nonresidue
    for t in range(p):
        r = _sqrt_mod(t, p, n)
        assert (r is None) == (legendre(t, p) == -1)
        assert r is None or r * r % p == t


def test_validate_takes_each_gf_p_root_once(monkeypatch):
    # each t in GF(p) is computed at most once per field, however often
    # psqrt asks for it (3,617 times in a p = 41 build and validate)
    calls = []
    monkeypatch.setattr(field, "_sqrt_mod",
                        lambda *a: calls.append(a) or _sqrt_mod(*a))
    ctx = make_field(41)
    assert validate(build_graph(ctx)).ok
    assert 0 < len(calls) <= 41
    assert len({t for t, _, _ in calls}) == len(calls)
    assert len(ctx._roots) <= 41


@pytest.mark.parametrize("p", [151, 409])
def test_sqrt_matches_tonelli_oracle_random(p):
    ctx = make_field(p)
    ns, rng = ctx.nonsquare(), random.Random(p)
    xs = [random_element(ctx, rng) for _ in range(2000)]
    assert [x.sqrt() for x in xs] == [tonelli_oracle(x, ns) for x in xs]
    assert None in [x.sqrt() for x in xs]


def test_root_memo_keeps_at_most_roots_kept():
    # at p = 2^127 - 1 nearly every root in GF(p) is a new one: 400
    # square roots of random squares take over a thousand, and the memo
    # keeps the last field.ROOTS_KEPT of them, each still right.  At
    # p = 409, below the bound, it keeps every root it takes
    ctx, rng = make_field(2 ** 127 - 1), random.Random(127)
    for _ in range(400):
        y = random_element(ctx, rng)
        assert (y * y).sqrt() in (y, -y)
    assert len(ctx._roots) == field.ROOTS_KEPT
    assert all(s is None or s * s % ctx.p == t
               for t, s in ctx._roots.items())
    ctx = make_field(409)
    for x in ctx.elements():
        x.sqrt()
    assert len(ctx._roots) == 409 < field.ROOTS_KEPT


@pytest.mark.parametrize("p", [19, 23])
def test_ext_sqrt_matches_tonelli_oracle_random(p):
    ext = make_field(p).extension()
    j, rng = ext.element(ext.base.zero, ext.base.one), random.Random(p)
    xs = [ext.element(random_element(ext.base, rng),
                      random_element(ext.base, rng)) for _ in range(2000)]
    xs += [ext.embed(random_element(ext.base, rng)) for _ in range(100)]
    got = [x.sqrt() for x in xs]
    assert got == [tonelli_oracle(x, j) for x in xs]
    assert None in got
    assert all(y is None or y * y == x for x, y in zip(xs, got))


def test_frobenius_involution_fixes_prime_field(ctx13):
    fixed = 0
    for x in ctx13.elements():
        assert frob(frob(x)) == x
        if frob(x) == x:
            fixed += 1
            assert x.b == 0
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


def nth_root_scan_oracle(ctx, n):
    """The lex-least primitive n-th root of unity by scanning GF(p^2):
    the search nth_root_of_unity replaced, kept as its reference."""
    if (ctx.order - 1) % n:
        return None
    primes = [q for q in range(2, n + 1)
              if n % q == 0 and all(q % r for r in range(2, q))]
    return next(x for x in ctx.elements() if not x.is_zero()
                and x ** n == ctx.one
                and all(x ** (n // q) != ctx.one for q in primes))


@pytest.mark.parametrize("p", [7, 11, 13, 17, 19, 23, 29, 31, 41, 53, 101,
                               109, 151])
def test_nth_root_of_unity_matches_scan_oracle(p):
    ctx = make_field(p)
    for n in (1, 2, 3, 4, 5, 6, 8, 10, 12, 24):
        assert ctx.nth_root_of_unity(n) == nth_root_scan_oracle(ctx, n)


def test_nth_root_of_unity_matches_scan_oracle_large_order():
    ctx = make_field(1597)
    assert ctx.nth_root_of_unity(17 * 19) == nth_root_scan_oracle(ctx, 323)


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
    # j is a non-square of GF(p^4): j^2 = m is a non-square of GF(p^2),
    # so j^((p^4-1)/2) = (m^((p^2-1)/2))^((p^2+1)/2) = (-1)^((p^2+1)/2)
    # = -1, as (p^2+1)/2 is odd; check it on several primes
    for p in (7, 11, 13, 23, 41, 101):
        ext = make_field(p).extension()
        j = ext.element(ext.base.zero, ext.base.one)
        assert not j.is_square()
        assert j * j == ext.embed(ext.m)


@pytest.mark.parametrize("p", [7, 11, 13, 23, 41, 101, 109])
def test_nth_root_of_unity_matches_old_scan(p):
    # the per-n search gives the old lex scan's root for every n, None
    # included
    ctx = make_field(p)
    for n in range(1, 25):
        assert ctx.nth_root_of_unity(n) == nth_root_old_scan_oracle(ctx, n)


def test_nth_root_of_unity_searches_once_per_n(monkeypatch):
    # one search per distinct n, none of them a scan of the field; a
    # repeated n is read from the memo, with no power taken
    ctx = make_field(101)
    scans, powers = [], []
    real_elements = type(ctx).elements
    monkeypatch.setattr(type(ctx), "elements", lambda self:
                        scans.append(self) or real_elements(self))
    real_pow = FieldElement.__pow__
    monkeypatch.setattr(FieldElement, "__pow__", lambda x, e:
                        powers.append(e) or real_pow(x, e))
    taken = []
    for n in (3, 6, 12, 5, 3, 4, 12):
        before = len(powers)
        ctx.nth_root_of_unity(n)
        taken.append(len(powers) - before)
    assert scans == []
    assert [k > 0 for k in taken] == [True] * 4 + [False, True, False]
    assert sorted(ctx._unity) == [3, 4, 5, 6, 12]


@pytest.mark.parametrize("p", [2 ** 61 - 1, 2 ** 127 - 1])
def test_nth_root_of_unity_exact_order_at_large_primes(p):
    # every n <= 48 that divides p^2 - 1 gets a root of order exactly n,
    # the least of its primitive powers; every other n gets None
    ctx = make_field(p)
    found = 0
    for n in range(1, 49):
        z = ctx.nth_root_of_unity(n)
        if (ctx.order - 1) % n:
            assert z is None
            continue
        assert z ** n == ctx.one
        assert all(z ** d != ctx.one for d in range(1, n) if n % d == 0)
        assert z == min(z ** k for k in range(1, n + 1) if gcd(k, n) == 1)
        found += 1
    assert found >= 20
