"""Univariate polynomial arithmetic over GF(p^2).

Polynomials are immutable coefficient tuples, lowest degree first,
with no trailing zeros (the zero polynomial is the empty tuple).
The factoring routines only go as far as the genus-2 machinery
needs: roots in GF(p^2), and factorization into irreducible pieces
of degree at most 2.  Inputs whose irreducible factors have higher
degree are rejected.
"""

from __future__ import annotations

import random

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
    def zero(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [])

    @classmethod
    def one(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [ctx.one])

    @classmethod
    def x(cls, ctx: FieldCtx) -> "Poly":
        return cls(ctx, [ctx.zero, ctx.one])

    @classmethod
    def from_roots(cls, ctx: FieldCtx, roots, scale=None) -> "Poly":
        """scale * prod (x - r) over the given roots."""
        f = cls(ctx, [scale if scale is not None else ctx.one])
        for r in roots:
            f = f * cls(ctx, [-r, ctx.one])
        return f

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

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self[k] + other[k] for k in range(n)])

    def __sub__(self, other):
        n = max(len(self.coeffs), len(other.coeffs))
        return Poly(self.ctx, [self[k] - other[k] for k in range(n)])

    def __neg__(self):
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, FieldElement):
            return Poly(self.ctx, [c * other for c in self.coeffs])
        if self.is_zero() or other.is_zero():
            return Poly.zero(self.ctx)
        out = [self.ctx.zero] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                out[i + j] = out[i + j] + a * b
        return Poly(self.ctx, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        dq = len(rem) - len(other.coeffs)
        if dq < 0:
            return Poly.zero(self.ctx), self
        quo = [self.ctx.zero] * (dq + 1)
        inv_lead = other.leading().inverse()
        for k in range(dq, -1, -1):
            c = rem[k + other.degree()] * inv_lead
            quo[k] = c
            if not c.is_zero():
                for j, b in enumerate(other.coeffs):
                    rem[k + j] = rem[k + j] - c * b
        return Poly(self.ctx, quo), Poly(self.ctx, rem)

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def derivative(self) -> "Poly":
        return Poly(self.ctx, [self.coeffs[k] * k
                               for k in range(1, len(self.coeffs))])

    def monic(self) -> "Poly":
        if self.is_zero():
            return self
        return self * self.leading().inverse()

    def gcd(self, other) -> "Poly":
        """Monic greatest common divisor."""
        a, b = self, other
        while not b.is_zero():
            a, b = b, a % b
        return a.monic() if not a.is_zero() else a

    def powmod(self, e: int, modulus: "Poly") -> "Poly":
        """self^e mod modulus, by square and multiply."""
        result = Poly.one(self.ctx)
        base = self % modulus
        while e:
            if e & 1:
                result = (result * base) % modulus
            base = (base * base) % modulus
            e >>= 1
        return result


def is_squarefree(f: Poly) -> bool:
    """True iff gcd(f, f') is constant (f must be nonzero)."""
    if f.is_zero():
        raise PolyError("squarefree test of zero polynomial")
    if f.degree() == 0:
        return True
    g = f.gcd(f.derivative())
    return g.degree() == 0


def _distinct_roots(f: Poly, rng: random.Random):
    """Distinct roots in GF(p^2) of a nonconstant polynomial."""
    ctx = f.ctx
    q = ctx.order
    xq = Poly.x(ctx).powmod(q, f)
    g = f.gcd(xq - Poly.x(ctx))
    roots = []
    stack = [g]
    while stack:
        h = stack.pop()
        if h.degree() <= 0:
            continue
        if h.degree() == 1:
            roots.append(-h[0] / h[1])
            continue
        # Cantor-Zassenhaus split of a product of distinct linear factors
        while True:
            c = ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))
            u = Poly(ctx, [c, ctx.one])
            w = u.powmod((q - 1) // 2, h) - Poly.one(ctx)
            d = h.gcd(w)
            if 0 < d.degree() < h.degree():
                stack.append(d)
                stack.append(h // d)
                break
    return roots


def roots(f: Poly) -> list:
    """All roots of f in GF(p^2), with multiplicity, sorted."""
    if f.is_zero():
        raise PolyError("roots of zero polynomial")
    rng = random.Random(0x52494348 ^ f.degree())
    out = []
    for r in _distinct_roots(f, rng):
        lin = Poly(f.ctx, [-r, f.ctx.one])
        g = f
        while True:
            q, rem = divmod(g, lin)
            if not rem.is_zero():
                break
            out.append(r)
            g = q
    out.sort()
    return out


def factor_quadratic_pieces(f: Poly):
    """Factor squarefree f into monic irreducibles of degree <= 2.

    Returns (linears, quadratics), each sorted canonically; the product
    of all factors times f's leading coefficient reproduces f.  Raises
    PolyError if f is not squarefree or has an irreducible factor of
    degree greater than 2.
    """
    ctx = f.ctx
    if f.is_zero() or f.degree() < 1:
        raise PolyError("need a nonconstant polynomial")
    if not is_squarefree(f):
        raise PolyError("polynomial is not squarefree")
    rng = random.Random(0x46414354 ^ f.degree())
    q = ctx.order

    lin_roots = _distinct_roots(f, rng)
    linears = sorted((Poly(ctx, [-r, ctx.one]) for r in lin_roots),
                     key=Poly.key)
    cof = f.monic()
    for lin in linears:
        cof = cof // lin

    quads = []
    if cof.degree() > 0:
        # every remaining factor must be an irreducible quadratic
        if cof.degree() % 2 != 0:
            raise PolyError("irreducible factor of degree > 2")
        xq2 = Poly.x(ctx).powmod(q * q, cof)
        if not (xq2 - Poly.x(ctx)) % cof == Poly.zero(ctx):
            raise PolyError("irreducible factor of degree > 2")
        stack = [cof]
        while stack:
            h = stack.pop()
            if h.degree() == 2:
                quads.append(h.monic())
                continue
            # equal-degree splitting for degree-2 factors
            while True:
                u = Poly(ctx, [ctx.element(rng.randrange(ctx.p),
                                           rng.randrange(ctx.p))
                               for _ in range(3)] + [ctx.one])
                w = u.powmod((q * q - 1) // 2, h) - Poly.one(ctx)
                d = h.gcd(w)
                if 0 < d.degree() < h.degree():
                    stack.append(d)
                    stack.append(h // d)
                    break
    quads.sort(key=Poly.key)

    check = Poly(ctx, [f.leading()])
    for g in linears + quads:
        check = check * g
    if check != f:
        raise PolyError("factorization failed to reproduce input")
    return linears, quads
