"""Genus-2 curves: splittings, invariants, reduced automorphisms.

A curve is y^2 = f(x) with f squarefree of degree 5 or 6 over
GF(p^2).  This module provides

* enumeration of the rational quadratic splittings (the (2,2)-kernels),
* Clebsch invariants (A : B : C : D) in P(2, 4, 6, 10), computed by
  transvectants of the binary sextic, and the derived invariants that
  drive Bolza's classification,
* the reduced automorphism group, found by an exhaustive Moebius
  search over the six Weierstrass points (in GF(p^4) if necessary),
* the two independent RA-type classifiers and the canonical vertex key.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .field import ExtCtx, FieldCtx, FieldElement
from .poly import Poly, factor_quadratic_pieces, is_squarefree


class Genus2Error(ValueError):
    """Invalid genus-2 curve or operation."""


class ClassificationError(Genus2Error):
    """A curve the RA-type rules cannot classify; indicates a bug."""


# ---------------------------------------------------------------------------
# RA types


class RAType:
    """Reduced-automorphism types, Jacobian and product namespaces."""

    A = "A"
    I = "I"
    II = "II"
    III = "III"
    IV = "IV"
    V = "V"
    VI = "VI"
    PI = "Pi"
    PI0 = "Pi0"
    PI1728 = "Pi1728"
    PI01728 = "Pi0-1728"
    SIGMA = "Sigma"
    SIGMA0 = "Sigma0"
    SIGMA1728 = "Sigma1728"

    JACOBIAN = (A, I, II, III, IV, V, VI)
    PRODUCT = (PI, PI0, PI1728, PI01728, SIGMA, SIGMA0, SIGMA1728)


JACOBIAN_ORDER_TO_TYPE = {1: RAType.A, 2: RAType.I, 4: RAType.III,
                          5: RAType.II, 6: RAType.IV, 12: RAType.V,
                          24: RAType.VI}

RA_ORDER = {RAType.A: 1, RAType.I: 2, RAType.II: 5, RAType.III: 4,
            RAType.IV: 6, RAType.V: 12, RAType.VI: 24,
            RAType.PI: 2, RAType.SIGMA: 4, RAType.PI0: 6,
            RAType.PI1728: 4, RAType.PI01728: 12, RAType.SIGMA0: 36,
            RAType.SIGMA1728: 16}


# ---------------------------------------------------------------------------
# Curves and splittings


@dataclass(frozen=True)
class Genus2Curve:
    """y^2 = f(x), f squarefree of degree 5 or 6."""

    f: Poly

    def __post_init__(self):
        if self.f.degree() not in (5, 6):
            raise Genus2Error(f"degree must be 5 or 6, got {self.f.degree()}")
        if not is_squarefree(self.f):
            raise Genus2Error("defining polynomial must be squarefree")

    @property
    def ctx(self) -> FieldCtx:
        return self.f.ctx

    def __repr__(self):
        return f"Genus2Curve({self.f})"


@dataclass(frozen=True)
class QuadraticSplitting:
    """Three monic blocks g1*g2*g3 with scale * g1*g2*g3 = f.

    Blocks are sorted by (degree, coefficients), so equal splittings
    compare equal; at most one block is linear (degree-5 curves).
    """

    blocks: tuple
    scale: FieldElement

    @classmethod
    def make(cls, blocks, scale) -> "QuadraticSplitting":
        return cls(tuple(sorted((b.monic() for b in blocks), key=Poly.key)),
                   scale)

    @property
    def ctx(self) -> FieldCtx:
        return self.scale.ctx

    def key(self):
        return tuple(b.key() for b in self.blocks)

    def product(self) -> Poly:
        out = Poly(self.ctx, [self.scale])
        for b in self.blocks:
            out = out * b
        return out

    def __repr__(self):
        return f"Splitting({list(self.blocks)}; scale={self.scale})"


def _matchings(items):
    """All perfect matchings of an even-sized list, as pair lists."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for k in range(len(rest)):
        pair = (first, rest[k])
        for sub in _matchings(rest[:k] + rest[k + 1:]):
            yield [pair] + sub


INF = "inf"  # the point at infinity on the x-line


@lru_cache(maxsize=None)
def splittings(curve: Genus2Curve) -> list:
    """All rational quadratic splittings of the curve, sorted.

    Every partition of the six Weierstrass points into three
    Galois-stable pairs: irreducible quadratic factors are forced
    blocks, rational roots (and infinity, for degree-5 models) pair
    freely.  15 splittings exactly when all kernels are rational.
    """
    ctx = curve.ctx
    f = curve.f
    linears, quads = factor_quadratic_pieces(f)
    free_roots = [-g[0] for g in linears]
    if f.degree() == 5:
        free_roots = free_roots + [INF]
    out = []
    for matching in _matchings(free_roots):
        blocks = list(quads)
        for a, b in matching:
            if a is INF or b is INF:
                r = b if a is INF else a
                blocks.append(Poly(ctx, [-r, ctx.one]))
            else:
                blocks.append(Poly.from_roots(ctx, [a, b]))
        out.append(QuadraticSplitting.make(blocks, f.leading()))
    out.sort(key=QuadraticSplitting.key)
    return out


# ---------------------------------------------------------------------------
# Weierstrass points and Moebius maps over GF(p^4)


def point_key(pt):
    """Sort key on points of the projective x-line; infinity first."""
    if pt is INF:
        return (0,)
    return (1, ) + pt.key()


def _block_roots(g: Poly, K):
    """The two points of a monic block of degree <= 2 over K (GF(p^2)
    or GF(p^4)), INF partnering a linear block's root; None when the
    block is irreducible over K."""
    embed = K.embed if isinstance(K, ExtCtx) else (lambda x: x)
    if g.degree() == 1:
        return embed(-g[0]), INF
    b, c = embed(g[1]), embed(g[0])
    s = (b * b - 4 * c).sqrt()
    if s is None:
        return None
    half = K.from_int(2).inverse()
    return (s - b) * half, (-b - s) * half


def splitting_points(spl: QuadraticSplitting):
    """The six Weierstrass points of y^2 = spl.product(), sorted, read
    off the blocks with one square root each; returns (field, points).

    The field is GF(p^2) when every block splits there, else GF(p^4).
    """
    K = spl.ctx
    roots = [_block_roots(g, K) for g in spl.blocks]
    if None in roots:
        K = K.extension()
        roots = [_block_roots(g, K) for g in spl.blocks]
    return K, sorted((pt for pair in roots for pt in pair), key=point_key)


@lru_cache(maxsize=None)
def weierstrass_points(curve: Genus2Curve):
    """The six Weierstrass points of the curve, sorted.

    Points live on P^1 over GF(p^2) when the defining polynomial
    splits (always the case at superspecial vertices) and over
    GF(p^4) otherwise; returns (field, points).  Any splitting covers
    all six points, so they are read off the first one: the curve is
    factored once, by splittings().
    """
    return splitting_points(splittings(curve)[0])


@dataclass(frozen=True)
class MoebiusMap:
    """x -> (ax + b)/(cx + d), scaled so the first nonzero entry of
    (a, b, c, d) is 1.  Entries live in GF(p^2) or GF(p^4), whichever
    field the Weierstrass points needed."""

    a: object
    b: object
    c: object
    d: object

    @classmethod
    def make(cls, a, b, c, d) -> "MoebiusMap":
        if (a * d - b * c).is_zero():
            raise Genus2Error("singular Moebius matrix")
        for lead in (a, b, c, d):
            if not lead.is_zero():
                inv = lead.inverse()
                return cls(a * inv, b * inv, c * inv, d * inv)
        raise Genus2Error("zero Moebius matrix")

    def key(self):
        return (self.a.key(), self.b.key(), self.c.key(), self.d.key())

    def apply(self, pt):
        if pt is INF:
            if self.c.is_zero():
                return INF
            return self.a / self.c
        den = self.c * pt + self.d
        if den.is_zero():
            return INF
        return (self.a * pt + self.b) / den

    def compose(self, other: "MoebiusMap") -> "MoebiusMap":
        """self after other."""
        return MoebiusMap.make(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d)

    def is_identity(self) -> bool:
        return self.b.is_zero() and self.c.is_zero() and self.a == self.d


def _to_zero_one_inf(K, p1, p2, p3):
    """Matrix of the Moebius map sending (p1, p2, p3) to (0, 1, inf)."""
    one, zero = K.one, K.zero
    if p1 is INF:
        return (zero, p2 - p3, one, -p3)
    if p2 is INF:
        return (one, -p1, one, -p3)
    if p3 is INF:
        return (one, -p1, zero, p2 - p1)
    return ((p2 - p3), -(p1 * (p2 - p3)), (p2 - p1), -(p3 * (p2 - p1)))


def moebius_through(K, src, dst):
    """The unique Moebius map with src[i] -> dst[i] (triples, distinct)."""
    t = _to_zero_one_inf(K, *src)
    s = _to_zero_one_inf(K, *dst)
    sa, sb, sc, sd = s
    # inverse of s (adjugate), then compose with t
    ia, ib, ic, id_ = sd, -sb, -sc, sa
    ta, tb, tc, td = t
    return MoebiusMap.make(ia * ta + ib * tc, ia * tb + ib * td,
                           ic * ta + id_ * tc, ic * tb + id_ * td)


def moebius_stabilizing(K, src_pts, dst_pts, first_only=False):
    """Moebius maps sending the set src_pts onto the set dst_pts.

    Solves the map through the first three source points against all
    ordered triples of destination points.  With first_only, returns
    the first hit (or None); otherwise the deduplicated sorted list.
    """
    keys = set(point_key(p) for p in dst_pts)
    base = src_pts[:3]
    found = {}
    n = len(dst_pts)
    for i in range(n):
        for j in range(n):
            if j == i:
                continue
            for k in range(n):
                if k == i or k == j:
                    continue
                m = moebius_through(
                    K, base, (dst_pts[i], dst_pts[j], dst_pts[k]))
                if m.key() in found:
                    continue
                if all(point_key(m.apply(p)) in keys for p in src_pts):
                    if first_only:
                        return m
                    found[m.key()] = m
    if first_only:
        return None
    return [found[k] for k in sorted(found)]


@lru_cache(maxsize=None)
def reduced_automorphisms(curve: Genus2Curve) -> list:
    """All Moebius transformations permuting the Weierstrass points.

    This is the reduced automorphism group RA(Jac(C)) acting on the
    x-line; the search solves the unique map through three point
    pairs for every ordered target triple and keeps the maps that
    stabilize the full six-point set.
    """
    K, pts = weierstrass_points(curve)
    return moebius_stabilizing(K, pts, pts)


def splitting_pairing(curve: Genus2Curve, spl: QuadraticSplitting, K=None):
    """The splitting as a partition of Weierstrass point keys.

    K must match the field of the points the pairing is used with:
    weierstrass_points(curve)[0] (the default), or
    splitting_points(s)[0] for another splitting s of the same curve.
    """
    if K is None:
        K = weierstrass_points(curve)[0]
    pairs = []
    for g in spl.blocks:
        roots = _block_roots(g, K)
        if roots is None:  # irreducible block, only over GF(p^4)
            raise Genus2Error("pairing requires the extension field")
        pairs.append(frozenset(point_key(r) for r in roots))
    return frozenset(pairs)


def moebius_orbits_on_splittings(curve: Genus2Curve, spls, maps):
    """Orbits of the splittings under the given Moebius maps.

    Returns a list of orbits, each a sorted tuple of indices into
    spls.  Raises if a map sends a splitting outside the given list
    (an irrational image; cannot happen when all 15 are rational).
    """
    K, pts = weierstrass_points(curve)
    pt_of_key = {point_key(p): p for p in pts}
    pairings = [splitting_pairing(curve, s, K) for s in spls]
    index_of = {pr: i for i, pr in enumerate(pairings)}

    def act(m, pairing):
        out = []
        for pair in pairing:
            mapped = frozenset(point_key(m.apply(pt_of_key[k]))
                               for k in pair)
            out.append(mapped)
        return frozenset(out)

    n = len(spls)
    seen = [False] * n
    orbits = []
    for i in range(n):
        if seen[i]:
            continue
        orbit = {i}
        frontier = [i]
        while frontier:
            cur = frontier.pop()
            for m in maps:
                img = act(m, pairings[cur])
                if img not in index_of:
                    raise Genus2Error(
                        "automorphism image of a splitting is irrational")
                t = index_of[img]
                if t not in orbit:
                    orbit.add(t)
                    frontier.append(t)
        for t in orbit:
            seen[t] = True
        orbits.append(tuple(sorted(orbit)))
    orbits.sort()
    return orbits


def transform_curve(curve: Genus2Curve, a, b, c, d) -> Genus2Curve:
    """Model change by x -> (ax + b)/(cx + d), entries in GF(p^2).

    Returns the curve y^2 = F_m(x) where F_m is the degree-6
    homogeneous substitution of f; the class of the curve (and its
    Clebsch point in P(2,4,6,10)) is unchanged.
    """
    ctx = curve.ctx
    if (a * d - b * c).is_zero():
        raise Genus2Error("singular substitution")
    cs = [curve.f[k] for k in range(7)]
    # f(x, z) = sum cs[k] x^k z^(6-k); substitute x -> a x + b z,
    # z -> c x + d z.
    out = [ctx.zero] * 7
    for k in range(7):
        if cs[k].is_zero():
            continue
        # (a x + b z)^k (c x + d z)^(6-k)
        poly1 = _binom_power(ctx, a, b, k)
        poly2 = _binom_power(ctx, c, d, 6 - k)
        conv = [ctx.zero] * 7
        for i1, c1 in enumerate(poly1):
            for i2, c2 in enumerate(poly2):
                conv[i1 + i2] = conv[i1 + i2] + c1 * c2
        for t in range(7):
            out[t] = out[t] + cs[k] * conv[t]
    return Genus2Curve(Poly(ctx, out))


def _binom_power(ctx, u, v, k):
    """Coefficients of (u x + v z)^k in x-degree order."""
    from math import comb
    return [ctx.from_int(comb(k, t)) * (u ** t) * (v ** (k - t))
            for t in range(k + 1)]


# ---------------------------------------------------------------------------
# Clebsch invariants via transvectants


def _form_dx(cs, n):
    return [cs[k + 1] * (k + 1) for k in range(n)]


def _form_dz(cs, n):
    return [cs[k] * (n - k) for k in range(n)]


def _form_mul(cs1, cs2):
    out = [cs1[0].ctx.zero] * (len(cs1) + len(cs2) - 1)
    for i, a in enumerate(cs1):
        for j, b in enumerate(cs2):
            out[i + j] = out[i + j] + a * b
    return out


def _transvectant(ctx, F, m, G, n, h):
    """h-th transvectant of binary forms F (order m) and G (order n).

    Standard normalization: ((m-h)!(n-h)!)/(m!n!) times the Cayley
    omega-process sum.  Characteristic > 5 keeps every denominator
    invertible.  Returns (form, order m + n - 2h).
    """
    from math import comb, factorial
    # mixed partials F^{(x^(h-j), z^j)} for j = 0..h
    dF = {0: list(F)}
    cur, order = list(F), m
    for t in range(1, h + 1):
        cur = _form_dx(cur, order)
        order -= 1
        dF[t] = cur
    # dF[t] = d^t F / dx^t (order m - t); now add z-derivatives
    tableF = {}
    for j in range(h + 1):
        g, o = dF[h - j], m - (h - j)
        for _ in range(j):
            g = _form_dz(g, o)
            o -= 1
        tableF[j] = g
    dG = {0: list(G)}
    cur, order = list(G), n
    for t in range(1, h + 1):
        cur = _form_dx(cur, order)
        order -= 1
        dG[t] = cur
    tableG = {}
    for j in range(h + 1):
        g, o = dG[j], n - j
        for _ in range(h - j):
            g = _form_dz(g, o)
            o -= 1
        tableG[j] = g
    out_order = m + n - 2 * h
    acc = [ctx.zero] * (out_order + 1)
    for j in range(h + 1):
        term = _form_mul(tableF[j], tableG[j])
        sign = -1 if j % 2 else 1
        coef = ctx.from_int(sign * comb(h, j))
        for t in range(out_order + 1):
            acc[t] = acc[t] + coef * term[t]
    scale = ctx.from_int(factorial(m - h) * factorial(n - h)) \
        / ctx.from_int(factorial(m) * factorial(n))
    return [c * scale for c in acc], out_order


@dataclass(frozen=True)
class ClebschPoint:
    """Clebsch invariants, coordinates in P(2, 4, 6, 10)."""

    A: FieldElement
    B: FieldElement
    C: FieldElement
    D: FieldElement

    def tuple(self):
        return (self.A, self.B, self.C, self.D)

    def __repr__(self):
        return f"({self.A}:{self.B}:{self.C}:{self.D})"


@lru_cache(maxsize=None)
def clebsch_invariants(curve: Genus2Curve) -> ClebschPoint:
    """Clebsch invariants of the defining sextic (degree-5 inputs are
    homogenized with a vanishing leading coefficient)."""
    ctx = curve.ctx
    f = [curve.f[k] for k in range(7)]
    A, _ = _transvectant(ctx, f, 6, f, 6, 6)
    i4, _ = _transvectant(ctx, f, 6, f, 6, 4)
    B, _ = _transvectant(ctx, i4, 4, i4, 4, 4)
    delta, _ = _transvectant(ctx, i4, 4, i4, 4, 2)
    C, _ = _transvectant(ctx, i4, 4, delta, 4, 4)
    y1, _ = _transvectant(ctx, f, 6, i4, 4, 4)
    y2, _ = _transvectant(ctx, i4, 4, y1, 2, 2)
    y3, _ = _transvectant(ctx, i4, 4, y2, 2, 2)
    D, _ = _transvectant(ctx, y3, 2, y1, 2, 2)
    return ClebschPoint(A[0], B[0], C[0], D[0])


@dataclass(frozen=True)
class DerivedInvariants:
    """Bolza's derived invariants and the determinant 2R^2 = det(A_ij)."""

    A11: FieldElement
    A12: FieldElement
    A22: FieldElement
    A23: FieldElement
    A31: FieldElement
    A33: FieldElement
    R_squared_times_2: FieldElement


def derived_invariants(cp: ClebschPoint) -> DerivedInvariants:
    ctx = cp.A.ctx
    A, B, C, D = cp.A, cp.B, cp.C, cp.D
    third = ctx.from_int(3).inverse()
    half = ctx.from_int(2).inverse()
    A11 = 2 * C + third * (A * B)
    A12 = ctx.from_int(2) * third * (B * B + A * C)
    A22 = D
    A31 = D
    A23 = half * (B * A12) + third * (C * A11)
    A33 = half * (B * A22) + third * (C * A12)
    det = (A11 * (A22 * A33 - A23 * A23)
           - A12 * (A12 * A33 - A23 * A31)
           + A31 * (A12 * A23 - A22 * A31))
    return DerivedInvariants(A11, A12, A22, A23, A31, A33, det)


def ra_type_from_clebsch(cp: ClebschPoint) -> str:
    """Bolza's criteria, rows evaluated most-special-first.

    The Type-I row is implemented as A11*A22 != A12^2 (the printed
    inequality is weight-inhomogeneous); any curve falling through
    every row raises ClassificationError.
    """
    ctx = cp.A.ctx
    A, B, C, D = cp.A, cp.B, cp.C, cp.D
    dv = derived_invariants(cp)
    zero = ctx.zero
    if A == zero and B == zero and C == zero:
        if D == zero:
            raise ClassificationError("all Clebsch invariants vanish")
        return RAType.II
    if B == zero and C == zero and D == zero:
        return RAType.VI
    if 6 * B == A * A and D == zero and dv.A11 == zero and A != zero:
        return RAType.V
    if (6 * (C * C) == B * B * B and 3 * D == 2 * (B * dv.A11)
            and 2 * (A * B) != 15 * C and D != zero):
        return RAType.IV
    if (B * dv.A11 - 2 * (A * dv.A12) == -6 * D
            and C * dv.A11 + 2 * (B * dv.A12) == A * D
            and 6 * (C * C) != B * B * B and D != zero):
        return RAType.III
    if dv.R_squared_times_2 == zero:
        if dv.A11 * dv.A22 != dv.A12 * dv.A12:
            return RAType.I
        raise ClassificationError(
            f"R = 0 but no special row matched: {cp}")
    return RAType.A


def ra_type_from_automorphisms(curve: Genus2Curve) -> str:
    """RA-type from the Moebius group order (1/2/4/5/6/12/24)."""
    order = len(reduced_automorphisms(curve))
    if order not in JACOBIAN_ORDER_TO_TYPE:
        raise ClassificationError(
            f"unexpected reduced automorphism group order {order}")
    return JACOBIAN_ORDER_TO_TYPE[order]


# ---------------------------------------------------------------------------
# Canonical vertex keys in weighted projective space

# Never written; perfbench/tracer.py reads len(_KEY_CACHE) unguarded.
_KEY_CACHE = {}


def canonical_key(cp: ClebschPoint):
    """Weighted normal form of (A, B, C, D) under the action
    (mu A, mu^2 B, mu^3 C, mu^5 D) of mu in GF(p^2)^*.

    Every even-weight rescaling by lambda in the algebraic closure acts
    through such a mu.  With two or more nonzero coordinates exactly one
    mu meets the first applicable condition: A' = 1; else C' = B';
    else D' = B'^2; else D' = C'^2.  Its image is therefore a complete
    invariant of the class.  Tuples with a single nonzero coordinate
    normalize to unit tuples.
    """
    coords = cp.tuple()
    nonzero = [k for k, c in enumerate(coords) if not c.is_zero()]
    if not nonzero:
        raise Genus2Error("all Clebsch invariants vanish")
    if len(nonzero) == 1:
        unit = [(0, 0)] * 4
        unit[nonzero[0]] = (1, 0)
        return tuple(unit)

    A, B, C, D = coords
    if not A.is_zero():
        mu = A.inverse()
    elif not B.is_zero() and not C.is_zero():
        mu = B / C
    elif not B.is_zero():  # C = 0, D != 0 (two nonzero coords)
        mu = (B * B) / D
    else:  # A = B = 0, C and D nonzero
        mu = D / (C * C)
    mu2 = mu * mu
    mu3 = mu2 * mu
    mu5 = mu3 * mu2
    return ((mu * A).key(), (mu2 * B).key(), (mu3 * C).key(),
            (mu5 * D).key())
