"""Elliptic curves with labelled rational 2-torsion.

A curve is an ordered triple of distinct x-coordinates (r1, r2, r3)
over GF(p^2), representing y^2 = (x - r1)(x - r2)(x - r3); its
2-torsion points are P_i = (r_i, 0).  Keeping the roots ordered is
what lets the product-kernel bookkeeping track where torsion points
go under 2-isogenies and isomorphisms.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import comb

from .field import FieldCtx, FieldElement
from .poly import Poly, roots as poly_roots


class EllipticError(ValueError):
    """Invalid curve or isogeny operation."""


class NonSplitTorsionError(EllipticError):
    """Codomain 2-torsion is not rational over GF(p^2).

    Signals a non-supersingular context: supersingular curves over
    GF(p^2) have group structure (Z/(p -+ 1))^2, so their 2-isogeny
    codomains always have fully rational 2-torsion.
    """


@dataclass(frozen=True)
class EllipticCurveE2:
    """y^2 = (x - r1)(x - r2)(x - r3) with ordered, distinct roots."""

    r1: FieldElement
    r2: FieldElement
    r3: FieldElement

    def __post_init__(self):
        if self.r1 == self.r2 or self.r1 == self.r3 or self.r2 == self.r3:
            raise EllipticError("2-torsion x-coordinates must be distinct")

    @property
    def ctx(self) -> FieldCtx:
        return self.r1.ctx

    def roots(self):
        return (self.r1, self.r2, self.r3)

    def root(self, i: int) -> FieldElement:
        """x-coordinate of P_i, i in {1, 2, 3}."""
        return self.roots()[i - 1]

    def __repr__(self):
        return f"E({self.r1}, {self.r2}, {self.r3})"


def j_invariant(E: EllipticCurveE2) -> FieldElement:
    """The j-invariant 256(a^2 - ab + b^2)^3 / (ab(b - a))^2, a = r2 - r1
    and b = r3 - r1: the cross-ratio form 256(l^2 - l + 1)^3 / (l^2 (l -
    1)^2), l = b/a, cleared of a.  On (a, b) int pairs, one inverse."""
    ctx, (x1, y1) = E.ctx, E.r1.key()
    a, b = ((r.a - x1, r.b - y1) for r in (E.r2, E.r3))
    c = ctx.pminor(a, (a[0] - b[0], a[1] - b[1]), b, (-b[0], -b[1]))
    inv = ctx.pinv(ctx.pmul(ctx.pmul(a, b), (b[0] - a[0], b[1] - a[1])))
    j = ctx.pmul(ctx.pmul(c, ctx.pmul(c, c)), ctx.pmul(inv, inv))
    return FieldElement(ctx, 256 * j[0] % ctx.p, 256 * j[1] % ctx.p)


def two_isogeny(E: EllipticCurveE2, i: int) -> EllipticCurveE2:
    """The codomain E/<P_i>, by Velu's formulas on the translated model.

    Translating P_i to the origin gives y^2 = x(x^2 + Ax + B); the
    quotient is y^2 = x(x^2 - 2Ax + (A^2 - 4B)), whose other roots are
    A +- 2s, s the square root of B (FieldCtx.psqrt), on (a, b) int
    pairs.  Both surviving 2-torsion points map onto the codomain's
    first root, the point above the origin, so P_1 of the codomain
    generates the kernel of the dual isogeny.
    """
    if i not in (1, 2, 3):
        raise EllipticError(f"kernel index must be 1..3, got {i}")
    ctx, p, (x, y) = E.ctx, E.ctx.p, E.root(i).key()
    a, b = ((r.a - x, r.b - y) for k, r in enumerate(E.roots(), 1)
            if k != i)
    s = ctx.psqrt(ctx.pmul(a, b))
    if s is None:
        raise NonSplitTorsionError(
            "codomain 2-torsion is irrational; curve is not in a "
            "supersingular context")
    # shift A = -(a + b) back, so the dual-kernel point sits at x = rk
    c = (x - a[0] - b[0], y - a[1] - b[1])
    u = ((c[0] + 2 * s[0]) % p, (c[1] + 2 * s[1]) % p)
    v = ((c[0] - 2 * s[0]) % p, (c[1] - 2 * s[1]) % p)
    return EllipticCurveE2(*(FieldElement(ctx, *r)
                             for r in ((x, y), min(u, v), max(u, v))))


def is_supersingular(E: EllipticCurveE2) -> bool:
    """E is supersingular iff the Hasse invariant sum_i C(m, i)^2 lam^i,
    m = (p - 1)/2, of its Legendre form y^2 = x(x - 1)(x - lam) vanishes,
    lam = (r3 - r1)/(r2 - r1) (Silverman, AEC, Thm V.4.1); O(p) steps."""
    ctx = E.ctx
    lam = (E.r3 - E.r1) / (E.r2 - E.r1)
    m = (ctx.p - 1) // 2
    h = ctx.zero
    for i in range(m, -1, -1):
        h = h * lam + ctx.from_int(comb(m, i) ** 2)
    return h.is_zero()


def isomorphisms_with_torsion(E: EllipticCurveE2, E2: EllipticCurveE2):
    """All 2-torsion matchings induced by geometric isomorphisms E ~ E2.

    Returns the permutations pi of (1, 2, 3), as tuples
    (pi(1), pi(2), pi(3)), for which an affine substitution
    x -> alpha*x + beta maps (r1, r2, r3) to the pi-relabelled roots
    of E2.  The scaling alpha may be a non-square: the y-coordinate
    scaling then lives in GF(p^4), i.e. the isomorphism is geometric
    (twists are identified, matching vertex semantics).  Runs on (a, b)
    int pairs: the map exists iff alpha = (u - v)/(r1 - r2), read off
    r1 -> u and r2 -> v, also takes r3 to w, i.e. iff the minor
    (u - v)(r3 - r1) - (w - u)(r1 - r2) vanishes; no inverse is taken.
    """
    ctx = E.ctx
    (a1, b1), (a2, b2), (a3, b3) = ((x.a, x.b) for x in E.roots())
    d12, d31 = (a1 - a2, b1 - b2), (a3 - a1, b3 - b1)
    t = [(x.a, x.b) for x in E2.roots()]
    out = []
    for perm in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                 (3, 1, 2), (3, 2, 1)):
        u, v, w = (t[i - 1] for i in perm)
        if ctx.pminor((u[0] - v[0], u[1] - v[1]), d31,
                      (w[0] - u[0], w[1] - u[1]), d12) == (0, 0):
            out.append(perm)
    return out


def curve_from_j(ctx: FieldCtx, j: FieldElement):
    """Some curve with the given j-invariant and split 2-torsion, or None.

    Uses y^2 = x^3 + 3kx + 2k with k = j/(1728 - j) for j != 0, 1728;
    returns None if the cubic has no three rational roots (which never
    happens for supersingular j over GF(p^2)).
    """
    c1728 = ctx.from_int(1728)
    if j == c1728:
        return EllipticCurveE2(ctx.one, ctx.from_int(-1), ctx.zero)
    if j.is_zero():
        z3 = ctx.nth_root_of_unity(3)
        return EllipticCurveE2(ctx.one, z3, z3 * z3)
    k = j / (c1728 - j)
    f = Poly(ctx, [ctx.from_int(2) * k, ctx.from_int(3) * k,
                   ctx.zero, ctx.one])
    rts = poly_roots(f)
    if len(rts) != 3 or len(set(r.key() for r in rts)) != 3:
        return None
    return EllipticCurveE2(*rts)


def find_supersingular_seed(ctx: FieldCtx) -> EllipticCurveE2:
    """A supersingular curve over GF(p^2) with labelled 2-torsion.

    Uses j = 1728 when p = 3 (mod 4) and j = 0 when p = 2 (mod 3);
    otherwise scans j in GF(p) with the Hasse-invariant test.
    """
    p = ctx.p
    if p % 4 == 3:
        return curve_from_j(ctx, ctx.from_int(1728))
    if p % 3 == 2:
        return curve_from_j(ctx, ctx.zero)
    for jint in range(p):
        E = curve_from_j(ctx, ctx.from_int(jint))
        if E is not None and is_supersingular(E):
            return E
    raise EllipticError(f"no supersingular curve found for p={p}")
