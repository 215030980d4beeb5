"""Univariate polynomial arithmetic over GF(p^2).

Polynomials are immutable coefficient tuples, lowest degree first,
with no trailing zeros (the zero polynomial is the empty tuple).  Poly
wraps the *_pairs kernels, which run on lists of (a, b) int pairs (as
FieldCtx.pmul), reduced mod p once per output coefficient; powmod_pairs
packs a residue mod h into two ints (Kronecker substitution), so that a
product is four int products.  Factoring, by Cantor-Zassenhaus on int
pairs, finds roots in GF(p^2) and pieces of degree at most 2, and
rejects inputs with higher-degree factors.  One power of x + c gives
both x^q and the first split of the linear part, and the quadratic
formula splits a pair of linear factors.
"""

from __future__ import annotations

import random
from itertools import zip_longest

from .field import FieldCtx, FieldElement


class PolyError(ValueError):
    """Invalid polynomial operation."""


class Poly:
    """Polynomial over GF(p^2), canonical coefficient tuple form."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs):
        coeffs = list(coeffs)
        while coeffs and coeffs[-1].is_zero():
            coeffs.pop()
        self.ctx = ctx
        self.coeffs = tuple(coeffs)

    @classmethod
    def from_ints(cls, ctx: FieldCtx, ints) -> "Poly":
        return cls(ctx, [ctx.from_int(c) for c in ints])

    @classmethod
    def from_pairs(cls, ctx: FieldCtx, pairs) -> "Poly":
        return cls(ctx, [FieldElement(ctx, a, b) for a, b in pairs])

    @classmethod
    def from_roots(cls, ctx: FieldCtx, roots, scale=None) -> "Poly":
        """scale * prod (x - r) over the given roots."""
        f = [scale.key() if scale is not None else (1, 0)]
        for r in roots:
            f = mul_pairs(ctx, f, [(-r.a % ctx.p, -r.b % ctx.p), (1, 0)])
        return cls.from_pairs(ctx, f)

    # -- basic protocol ------------------------------------------------

    def __repr__(self):
        if not self.coeffs:
            return "Poly(0)"
        terms = [f"({c})x^{k}" for k, c in enumerate(self.coeffs)
                 if not c.is_zero()]
        return "Poly(" + " + ".join(terms) + ")"

    def __eq__(self, other):
        return isinstance(other, Poly) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(self.coeffs)

    def key(self):
        """Sort key: (degree, coefficient pairs low to high)."""
        return (len(self.coeffs), tuple(c.key() for c in self.coeffs))

    def pairs(self) -> list:
        """The coefficients as (a, b) int pairs, low first."""
        return [(c.a, c.b) for c in self.coeffs]

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def __getitem__(self, k: int) -> FieldElement:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return self.ctx.zero

    def leading(self) -> FieldElement:
        if not self.coeffs:
            raise PolyError("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    # -- arithmetic, by the int-pair kernels ---------------------------

    def _of(self, pairs) -> "Poly":
        return Poly.from_pairs(self.ctx, pairs)

    def __mul__(self, other):
        g = [other.key()] if isinstance(other, FieldElement) \
            else other.pairs()
        return self._of(mul_pairs(self.ctx, self.pairs(), g))

    def gcd(self, other) -> "Poly":
        """Monic greatest common divisor."""
        return self._of(gcd_pairs(self.ctx, self.pairs(), other.pairs()))

    def powmod(self, e: int, modulus: "Poly") -> "Poly":
        """self^e mod modulus, by square and multiply."""
        if modulus.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        return self._of(powmod_pairs(self.ctx, self.pairs(), e,
                                     monic_pairs(self.ctx, modulus.pairs())))


# -- int-pair kernels: outputs reduced and trimmed, inputs need not be


def _reduced(p, re, im) -> list:
    """The pairs (re[k], im[k]) mod p, trailing zeros dropped."""
    out = [(a % p, b % p) for a, b in zip(re, im)]
    while out and out[-1] == (0, 0):
        out.pop()
    return out


def add_pairs(ctx, f, g, sign=1) -> list:
    """f + sign*g, sign = +-1."""
    z = list(zip_longest(f, g, fillvalue=(0, 0)))
    return _reduced(ctx.p, [a + sign * c for (a, _), (c, _) in z],
                    [b + sign * d for (_, b), (_, d) in z])


def mul_pairs(ctx, f, g) -> list:
    """f*g, each output coefficient reduced once."""
    nr, n = ctx.nonresidue, len(f) + len(g) - 1
    re, im = [0] * n, [0] * n
    for i, (a, b) in enumerate(f):
        for j, (c, d) in enumerate(g):
            re[i + j] += a * c + nr * b * d
            im[i + j] += a * d + b * c
    return _reduced(ctx.p, re, im)


def divmod_pairs(ctx, f, h):
    """(quotient, remainder) of f, coefficients possibly unreduced, by a
    monic h: each leading coefficient is reduced once, as it is read."""
    p, nr, dh = ctx.p, ctx.nonresidue, len(h) - 1
    re, im, quo = [a for a, _ in f], [b for _, b in f], []
    for k in range(len(f) - 1, dh - 1, -1):
        a, b = re[k] % p, im[k] % p
        quo.append((a, b))
        for j in range(dh):
            c, d = h[j]
            re[k - dh + j] -= a * c + nr * b * d
            im[k - dh + j] -= a * d + b * c
    return quo[::-1], _reduced(p, re[:dh], im[:dh])


def monic_pairs(ctx, f) -> list:
    """f (trimmed) over its leading coefficient; [] stays []."""
    inv = ctx.pinv(f[-1]) if f else None
    return [ctx.pmul(c, inv) for c in f]


def derivative_pairs(ctx, f) -> list:
    return _reduced(ctx.p, [k * a for k, (a, _) in enumerate(f)][1:],
                    [k * b for k, (_, b) in enumerate(f)][1:])


def gcd_pairs(ctx, f, g) -> list:
    """Monic gcd of f and g (trimmed), by Euclid on monic divisors."""
    f = monic_pairs(ctx, f)
    while g:
        g = monic_pairs(ctx, g)
        f, g = g, divmod_pairs(ctx, f, g)[1]
    return f


def powmod_pairs(ctx, f, e, h) -> list:
    """f^e mod a monic h of degree n, e >= 0, by left-to-right square and
    multiply on residues packed as two ints, the real and imaginary parts
    with coefficient k in bits [kw, kw + w) (Kronecker substitution), for
    w = bit_length(2n(1 + nr)(p - 1)^2) + 1.  A product takes four int
    products (a square three); its n - 1 high slots, each reduced mod p,
    fold back through a table of x^n ... x^(2n-2) mod h, and then its n
    low slots are reduced mod p once.  All parts are reduced and
    nonnegative, so a slot holds at most n(1 + nr)(p - 1)^2 from the
    product plus (n - 1)(1 + nr)(p - 1)^2 from the fold, below
    2^(w - 1): no slot carries or borrows."""
    if e < 0:
        raise PolyError(f"negative exponent {e} in a power mod h")
    p, nr, n = ctx.p, ctx.nonresidue, len(h) - 1
    w = (2 * n * (1 + nr) * (p - 1) ** 2).bit_length() + 1
    mask, below = (1 << w) - 1, (1 << n * w) - 1
    low, high = range(0, n * w, w), range(n * w, (2 * n - 1) * w, w)

    def pack(g):
        return tuple(sum(c[k] << s for c, s in zip(g, low)) for k in (0, 1))

    def fold(re, im):
        lo_re, lo_im = re & below, im & below
        for (tr, ti), s in zip(table, high):
            a, b = (re >> s & mask) % p, (im >> s & mask) % p
            lo_re += a * tr + nr * b * ti
            lo_im += a * ti + b * tr
        re = im = 0
        for s in low:
            re |= (lo_re >> s & mask) % p << s
            im |= (lo_im >> s & mask) % p << s
        return re, im

    table = [pack([(-a % p, -b % p) for a, b in h[:-1]])]  # x^n mod h
    while len(table) < n - 1:
        table.append(fold(table[-1][0] << w, table[-1][1] << w))
    (r, i), (c, d) = (1, 0), pack(divmod_pairs(ctx, f, h)[1])
    for bit in bin(e)[2:]:
        r, i = fold(r * r + nr * i * i, r * i << 1)
        if bit == "1":
            r, i = fold(r * c + nr * i * d, r * d + i * c)
    return _reduced(p, *([x >> s & mask for s in low] for x in (r, i)))


def quadratic_roots_pairs(ctx, g):
    """The two roots of a monic quadratic (c0, c1, 1), a tuple of (a, b)
    pairs, psqrt's first, or None."""
    (c, b), p, h = g[:2], ctx.p, (ctx.p + 1) // 2
    s = ctx.psqrt(ctx.pminor(b, b, (4, 0), c))
    return s and (((s[0] - b[0]) * h % p, (s[1] - b[1]) * h % p),
                  ((-s[0] - b[0]) * h % p, (-s[1] - b[1]) * h % p))


# -- squarefree test, roots and factoring ---------------------------------

_X = [(0, 0), (1, 0)]


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant (f must be nonzero)."""
    if f.is_zero():
        raise PolyError("squarefree test of zero polynomial")
    g = f.pairs()
    return len(gcd_pairs(f.ctx, g, derivative_pairs(f.ctx, g))) == 1


def _linear_part(ctx, h, rng):
    """(x^q, lin, lin's factors) mod a monic h, lin = gcd(h, x^q - x), by
    one power w = (x + c)^((q - 1)/2), c random: x^q = (x + c) w^2 - c,
    as (x + c)^q = x^q + c, and gcd(lin, w - 1) is lin's first split."""
    u = [(rng.randrange(ctx.p), rng.randrange(ctx.p)), (1, 0)]
    w = powmod_pairs(ctx, u, (ctx.order - 1) // 2, h)
    xq = divmod_pairs(ctx, mul_pairs(ctx, mul_pairs(ctx, w, w), u), h)[1]
    xq = add_pairs(ctx, xq, u[:1], -1)
    lin = gcd_pairs(ctx, h, add_pairs(ctx, xq, _X, -1))
    g = gcd_pairs(ctx, lin, add_pairs(ctx, w, [(1, 0)], -1))
    return xq, lin, _split(ctx, [g, divmod_pairs(ctx, lin, g)[0]], 1, rng)


def _split(ctx, stack, d, rng) -> list:
    """The sorted monic irreducible factors, of degree d, of the monic
    squarefree parts h on the stack: by Cantor-Zassenhaus, or, for d = 1
    and h quadratic, by the quadratic formula (quadratic_roots_pairs)."""
    p, e, out = ctx.p, (ctx.order ** d - 1) // 2, []
    while stack:
        h = stack.pop()
        if len(h) <= d + 1:
            out += [h] * (len(h) == d + 1)
        elif d == 1 and len(h) == 3:
            out += [[(-a % p, -b % p), (1, 0)]
                    for a, b in quadratic_roots_pairs(ctx, h)]
        else:
            g = h
            while not 1 < len(g) < len(h):
                u = [(rng.randrange(p), rng.randrange(p))
                     for _ in range(2 * d - 1)] + [(1, 0)]
                g = gcd_pairs(ctx, h, add_pairs(
                    ctx, powmod_pairs(ctx, u, e, h), [(1, 0)], -1))
            stack += [g, divmod_pairs(ctx, h, g)[0]]
    return sorted(out)


def roots(f: Poly) -> list:
    """All roots of f in GF(p^2), with multiplicity, sorted (_linear_part)."""
    if f.is_zero():
        raise PolyError("roots of zero polynomial")
    ctx, p = f.ctx, f.ctx.p
    rng = random.Random(0x52494348 ^ f.degree())
    h, out = monic_pairs(ctx, f.pairs()), []
    for (a, b), _ in _linear_part(ctx, h, rng)[2]:
        while True:
            quo, rem = divmod_pairs(ctx, h, [(a, b), (1, 0)])
            if rem:
                break
            out.append(FieldElement(ctx, -a % p, -b % p))
            h = quo
    return sorted(out)


def factor_quadratic_pieces(f: Poly):
    """Factor squarefree f into monic irreducibles of degree <= 2.

    Returns (linears, quadratics), each sorted canonically; the product
    of all factors times f's leading coefficient reproduces f.  Raises
    PolyError if f is not squarefree or has an irreducible factor of
    degree greater than 2.  x^q comes from _linear_part's one power mod
    f, and tests the cofactor.  Only the factors become Polys.
    """
    ctx = f.ctx
    if f.is_zero() or f.degree() < 1:
        raise PolyError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise PolyError("polynomial is not squarefree")
    rng = random.Random(0x46414354 ^ f.degree())
    h = monic_pairs(ctx, f.pairs())
    xq, lin, linears = _linear_part(ctx, h, rng)
    cof = divmod_pairs(ctx, h, lin)[0]
    # cof's factors are quadratic iff cof divides x^(q^2) - x = (x^q)^q - x
    if len(cof) % 2 == 0 or len(cof) > 1 and add_pairs(
            ctx, powmod_pairs(ctx, xq, ctx.order, cof), _X, -1):
        raise PolyError("irreducible factor of degree > 2")
    quads = _split(ctx, [cof], 2, rng)
    check = [f.leading().key()]
    for g in linears + quads:
        check = mul_pairs(ctx, check, g)
    if check != f.pairs():
        raise PolyError("factorization failed to reproduce input")
    return ([Poly.from_pairs(ctx, g) for g in linears],
            [Poly.from_pairs(ctx, g) for g in quads])
