"""Genus-2 curves: splittings, invariants, reduced automorphisms.

A curve is y^2 = f(x) with f squarefree of degree 5 or 6 over
GF(p^2).  This module provides

* the rational quadratic splittings (the (2,2)-kernels), each block a
  (c0, c1, c2) triple of (a, b) int pairs from matching to transport,
* Clebsch invariants (A : B : C : D) in P(2, 4, 6, 10), computed by
  transvectants of the binary sextic as integer term tables on (a, b)
  int pairs, one reduction mod p per output coefficient, and the
  derived invariants that drive Bolza's classification,
* the reduced automorphism group and Moebius maps between six-point
  sets in one form, index maps between frames of equal signature: each
  ordered triple of Weierstrass points, sent to (0, 1, inf), followed
  by the other three in the order of their images, the cross-ratios,
  computed on (a, b) int pairs,
* the two independent RA-type classifiers and the canonical vertex key.

Every point these read lies in GF(p^2), as at every superspecial vertex;
a curve with a Weierstrass point outside it raises IrrationalPointsError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations, permutations
from math import comb, perm

from .field import FieldCtx, FieldElement
from .poly import (Poly, add_pairs, factor_quadratic_pieces, is_squarefree,
                   mul_pairs)


class Genus2Error(ValueError):
    """Invalid genus-2 curve or operation."""


class ClassificationError(Genus2Error):
    """A curve the RA-type rules cannot classify; indicates a bug."""


class IrrationalPointsError(Genus2Error):
    """A Weierstrass point of y^2 = f(x), or a fixed point of a delta = 0
    kernel on it (isogeny.split_degenerate), lies outside GF(p^2), so
    the curve is no superspecial vertex.  Carries p, the sextic f and,
    for Weierstrass points, the count of rational kernels (None for
    fixed points); the message ends with the command that reproduces
    it."""

    def __init__(self, f: Poly, kernels=None):
        self.p, self.sextic, self.kernels = f.ctx.p, f, kernels
        what = ("conjugate fixed points: a delta = 0 quotient splits "
                "into conjugate elliptic curves" if kernels is None else
                f"only {kernels} rational kernels; Weierstrass points "
                "outside GF(p^2)")
        super().__init__(f"{what}\nrichelot neighbourhood -p {self.p} "
                         f"--sextic={','.join(map(repr, f.coeffs))}")


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


RA_ORDER = {RAType.A: 1, RAType.I: 2, RAType.II: 5, RAType.III: 4,
            RAType.IV: 6, RAType.V: 12, RAType.VI: 24,
            RAType.PI: 2, RAType.SIGMA: 4, RAType.PI0: 6,
            RAType.PI1728: 4, RAType.PI01728: 12, RAType.SIGMA0: 36,
            RAType.SIGMA1728: 16}

JACOBIAN_ORDER_TO_TYPE = {RA_ORDER[t]: t for t in RAType.JACOBIAN}


# ---------------------------------------------------------------------------
# Curves and splittings


@dataclass(frozen=True)
class Genus2Curve:
    """y^2 = f(x), f squarefree of degree 5 or 6: by gcd(f, f') for a
    bare f, in closed form for a product of blocks (of_blocks)."""

    f: Poly

    def __post_init__(self):
        if self.f.degree() not in (5, 6):
            raise Genus2Error(f"degree must be 5 or 6, got {self.f.degree()}")
        if not is_squarefree(self.f):
            raise Genus2Error("defining polynomial must be squarefree")

    @classmethod
    def of_blocks(cls, ctx: FieldCtx, blocks, scale) -> "Genus2Curve":
        """y^2 = scale * g1*g2*g3; scale and each block's (c0, c1, c2),
        low first, are (a, b) int pairs.  Of degree 5 or 6, the product
        is squarefree iff each block, as a binary quadratic form, has a
        nonzero discriminant and each two a nonzero resultant
        (c2 e0 - e2 c0)^2 - (c2 e1 - e2 c1)(c1 e0 - e1 c0); that also
        vanishes on two linear blocks, as both vanish at infinity."""
        m = ctx.pminor
        f = block_product(ctx, blocks, scale)
        if f.degree() not in (5, 6):
            raise Genus2Error(f"degree must be 5 or 6, got {f.degree()}")
        forms = [m(c1, c1, (4 * c2[0], 4 * c2[1]), c0)
                 for c0, c1, c2 in blocks]
        for (c0, c1, c2), (e0, e1, e2) in combinations(blocks, 2):
            r = m(c2, e0, e2, c0)
            forms.append(m(r, r, m(c2, e1, e2, c1), m(c1, e0, e1, c0)))
        if (0, 0) in forms:
            raise Genus2Error("defining polynomial must be squarefree")
        return cls._checked(f)

    @classmethod
    def _checked(cls, f: Poly) -> "Genus2Curve":
        """The curve of f, shown squarefree of degree 5 or 6."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "f", f)
        return curve

    def conjugate(self) -> "Genus2Curve":
        """The Frobenius image a + b*i -> a - b*i, coefficientwise: it is
        squarefree as self is, the Frobenius being a field automorphism."""
        p = self.ctx.p
        return self._checked(Poly.from_pairs(
            self.ctx, [(c.a, -c.b % p) for c in self.f.coeffs]))

    @property
    def ctx(self) -> FieldCtx:
        return self.f.ctx

    def __repr__(self):
        return f"Genus2Curve({self.f})"


def block_product(ctx: FieldCtx, blocks, scale) -> Poly:
    """scale * g1*g2*g3, multiplied on (a, b) int pairs, low first."""
    f = [scale]
    for g in blocks:
        f = mul_pairs(ctx, f, g)
    return Poly.from_pairs(ctx, f)


def monic_block(ctx: FieldCtx, g) -> tuple:
    """The block g over its leading coefficient, c1 when c2 = (0, 0)."""
    inv = ctx.pinv(g[2] if g[2] != (0, 0) else g[1])
    return tuple(ctx.pmul(c, inv) for c in g)


@dataclass(frozen=True)
class QuadraticSplitting:
    """Three monic blocks g1*g2*g3 with scale * g1*g2*g3 = f.

    A block is its coefficients (c0, c1, c2), low first, as (a, b) int
    pairs; c2 = (0, 0) in a degree-5 curve's linear block.  Blocks sort
    by degree, then by coefficients from the low end: blocks is the key.
    """

    blocks: tuple
    scale: FieldElement

    @classmethod
    def make(cls, blocks, scale) -> "QuadraticSplitting":
        """The splitting of the monic blocks, sorted by (c2, c0, c1)."""
        return cls(tuple(sorted(blocks, key=lambda g: (g[2], g))), scale)

    @property
    def ctx(self) -> FieldCtx:
        return self.scale.ctx

    def curve(self) -> Genus2Curve:
        """y^2 = scale * g1*g2*g3, checked in closed form (of_blocks)."""
        return Genus2Curve.of_blocks(self.ctx, self.blocks, self.scale.key())


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


def _pair_block(ctx, r, s) -> tuple:
    """x^2 - (r + s)x + rs on (a, b) int pairs, x - r when s is INF."""
    if r is INF or s is INF:
        t = s if r is INF else r
        return (-t.a % ctx.p, -t.b % ctx.p), (1, 0), (0, 0)
    return (ctx.pmul((r.a, r.b), (s.a, s.b)),
            ((-r.a - s.a) % ctx.p, (-r.b - s.b) % ctx.p), (1, 0))


def matching_splitting(ctx, forced, matching, scale) -> QuadraticSplitting:
    """The forced monic blocks plus the block of each pair (r, s) of the
    matching: x^2 - (r + s)x + rs, or x - r when s is INF."""
    return QuadraticSplitting.make(
        list(forced) + [_pair_block(ctx, r, s) for r, s in matching], scale)


# The perfect matchings of range(n), each its increasing pairs in order.
# A Jacobian kernel is labelled by the index in MATCHINGS, n = 6, of its
# matching of the vertex's sorted Weierstrass points.
_INDEX_MATCHINGS = {n: tuple(tuple(m) for m in _matchings(list(range(n))))
                    for n in (0, 2, 4, 6)}
MATCHINGS = _INDEX_MATCHINGS[6]
_MATCHING_INDEX = {m: n for n, m in enumerate(MATCHINGS)}


def matching_index(pairs) -> int:
    """The index in MATCHINGS of a perfect matching of range(6), given
    as its three pairs in any order."""
    return _MATCHING_INDEX[tuple(sorted(
        (a, b) if a < b else (b, a) for a, b in pairs))]


@lru_cache(maxsize=720)  # one entry per permutation of range(6)
def matching_action(perm: tuple) -> tuple:
    """The permutation of MATCHINGS indices induced by the index map
    perm of range(6), a tuple."""
    return tuple(matching_index((perm[a], perm[b]) for a, b in m)
                 for m in MATCHINGS)


def pairing_index(pairs) -> int:
    """The kernel label of three pairs of six distinct points: their
    matching's MATCHINGS index over the points sorted by point_key."""
    keys = sorted(point_key(x) for pair in pairs for x in pair)
    return matching_index([keys.index(point_key(x)) for x in pair]
                          for pair in pairs)


def point_splittings(ctx, forced, free, scale) -> list:
    """(splitting, index) for each perfect matching of the free points
    (GF(p^2) elements and INF) around the forced irreducible blocks, one
    block made per pair, sorted by blocks.  The index is the matching's
    in _matchings order: with six free points, the kernel label."""
    block = {(i, j): _pair_block(ctx, free[i], free[j])
             for i, j in combinations(range(len(free)), 2)}
    out = [(QuadraticSplitting.make(
        list(forced) + [block[pr] for pr in m], scale), n)
        for n, m in enumerate(_INDEX_MATCHINGS[len(free)])]
    out.sort(key=lambda sp: sp[0].blocks)
    return out


def _forced_free(f):
    """One Cantor-Zassenhaus factoring of the sextic f, as (forced,
    free): its irreducible quadratic factors as monic blocks, and its
    rational roots (and infinity, for degree-5 models)."""
    linears, quads = factor_quadratic_pieces(f)
    free = [-g[0] for g in linears] + ([INF] if f.degree() == 5 else [])
    return [tuple((g[k].a, g[k].b) for k in range(3)) for g in quads], free


@lru_cache(maxsize=None)
def splittings(curve: Genus2Curve) -> list:
    """All rational quadratic splittings of the curve, sorted.

    Every partition of the six Weierstrass points into three
    Galois-stable pairs: point_splittings around the forced blocks of
    _forced_free.  15 splittings exactly when all are rational.
    """
    f = curve.f
    return [s for s, _ in point_splittings(f.ctx, *_forced_free(f),
                                           f.leading())]


# ---------------------------------------------------------------------------
# Weierstrass points, and Moebius maps between them as index maps


def point_key(pt):
    """Sort key on points of the projective x-line; infinity first."""
    if pt is INF:
        return (0,)
    return (1, ) + pt.key()


def _block_roots(g, ctx, point=FieldElement):
    """The two points of a monic block (c0, c1, c2) of int pairs, INF
    partnering a linear block's root; None when the block is irreducible
    over GF(p^2).  A quadratic block runs on int pairs: (-c1 +- psqrt(c1^2
    - 4 c0)) (p + 1)/2, and only the two roots are made, by point(ctx, a,
    b): FieldElements, or (a, b) pairs for Moebius frames to read."""
    (c, b), p, h = g[:2], ctx.p, (ctx.p + 1) // 2
    if g[2] == (0, 0):
        return point(ctx, -c[0] % p, -c[1] % p), INF
    s = ctx.psqrt(ctx.pminor(b, b, (4, 0), c))
    return None if s is None else tuple(
        point(ctx, (u - b[0]) * h % p, (v - b[1]) * h % p)
        for u, v in (s, (-s[0], -s[1])))


def splitting_root_pairs(spl: QuadraticSplitting, point=FieldElement) -> list:
    """The Weierstrass points of y^2 = spl.curve() as the three pairs
    covered by spl's blocks, one square root each, made by point (as in
    _block_roots).  Raises IrrationalPointsError when a block is
    irreducible: the rational kernels are then the matchings of the
    other blocks' points."""
    roots = [_block_roots(g, spl.ctx, point) for g in spl.blocks]
    if None in roots:
        rational = 2 * (len(roots) - roots.count(None))
        raise IrrationalPointsError(
            block_product(spl.ctx, spl.blocks, spl.scale.key()),
            len(_INDEX_MATCHINGS[rational]))
    return roots


def splitting_points(spl: QuadraticSplitting) -> list:
    """The six Weierstrass points of y^2 = spl.curve(), sorted, read off
    splitting_root_pairs."""
    return sorted((pt for pair in splitting_root_pairs(spl) for pt in pair),
                  key=point_key)


@lru_cache(maxsize=None)
def weierstrass_points(curve: Genus2Curve) -> list:
    """The six Weierstrass points of the curve, sorted: the roots of f's
    linear factors (and INF if f is a quintic), from one factoring.
    Raises IrrationalPointsError when f has an irreducible quadratic
    factor; superspecial vertices have none.  Graph vertices reached by
    an edge read theirs off its recorded dual splitting instead."""
    f = curve.f
    forced, free = _forced_free(f)
    if forced:
        raise IrrationalPointsError(f, len(_INDEX_MATCHINGS[len(free)]))
    return sorted(free, key=point_key)


def _frame_maker(ctx, pts, triples):
    """frame(i, j, k) -> (signature, frame) on six points.

    The map sending (x_i, x_j, x_k) to (0, 1, inf) sends x_l to the
    cross-ratio q(l, i, k) q(j, k, i), q(a, i, k) = (x_a - x_i)/(x_a -
    x_k) with a factor holding INF read as 1.  q is tabulated for the
    given triples (a, i, k) as (a, b) int pairs, one inverse per pair
    {a, k}; the points are FieldElements or such pairs (and INF).  The
    signature is the other three images' keys, sorted and concatenated;
    the frame is (i, j, k) and the other indices in that order.
    """
    p, nr, mul, inverse = ctx.p, ctx.nonresidue, ctx.pmul, ctx.pinv
    xs = [x if x is INF or type(x) is tuple else x.key() for x in pts]

    def sub(x, y):
        return (x[0] - y[0]) % p, (x[1] - y[1]) % p

    def frame(i, j, k):  # a reduced pair is its own key
        ca, cb = q[36 * j + 6 * k + i]
        images = []
        for l in _REST[i, j, k]:
            a, b = q[36 * l + 6 * i + k]
            images.append(((a * ca + nr * b * cb) % p,
                           (a * cb + b * ca) % p, l))
        images.sort()
        (s, t, x), (u, v, y), (w, z, r) = images
        return (s, t, u, v, w, z), (i, j, k, x, y, r)
    dinv, q = {}, [None] * 216
    for a, i, k in triples:
        if (a, k) not in dinv:
            if xs[a] is INF or xs[k] is INF:
                dinv[a, k] = dinv[k, a] = (1, 0)
            else:
                d = dinv[a, k] = inverse(sub(xs[a], xs[k]))
                dinv[k, a] = (-d[0] % p, -d[1] % p)
        q[36 * a + 6 * i + k] = (dinv[a, k] if xs[a] is INF or xs[i] is INF
                                 else mul(sub(xs[a], xs[i]), dinv[a, k]))
    return frame


_TRIPLES = tuple(permutations(range(6), 3))
# the indices outside each ordered triple, increasing
_REST = {t: tuple(l for l in range(6) if l not in t) for t in _TRIPLES}


def moebius_frames(ctx, pts) -> dict:
    """The frames of the six points pts, one per ordered triple, listed
    by signature (_frame_maker: 15 inverses).  Two frames of two point
    sets share it exactly when a Moebius map sends one set onto the
    other, and each point of the first frame to the point at the same
    place in the second."""
    frame = _frame_maker(ctx, pts, _TRIPLES)
    frames = {}
    for triple in _TRIPLES:
        signature, fr = frame(*triple)
        frames.setdefault(signature, []).append(fr)
    return frames


def moebius_stabilizing(ctx, src_pts, dst_frames):
    """The Moebius maps sending the set src_pts onto the point set of
    dst_frames = moebius_frames(ctx, dst_pts), in the package's one form
    of such a map, an index map: m[i] is the index in dst_pts of the
    image of src_pts[i].  One map per frame sharing the signature of
    src_pts's base frame (0, 1, 2), whose q(1, 2, 0) and q(l, 0, 2)
    take four inverses; the signature is read at once, and the maps are
    yielded lazily, so that a caller wanting one builds one."""
    signature, base = _frame_maker(
        ctx, src_pts, ((1, 2, 0), (3, 0, 2), (4, 0, 2), (5, 0, 2)))(0, 1, 2)
    at = sorted(range(6), key=base.__getitem__)
    return ([fr[t] for t in at] for fr in dst_frames.get(signature, ()))


@lru_cache(maxsize=None)
def reduced_automorphisms(curve: Genus2Curve) -> list:
    """RA(Jac(C)), the Moebius maps permuting the Weierstrass points, as
    index maps of weierstrass_points(curve) (moebius_stabilizing on the
    curve's own frames)."""
    pts = weierstrass_points(curve)
    return list(moebius_stabilizing(curve.ctx, pts,
                                    moebius_frames(curve.ctx, pts)))


def splitting_pairing(spl: QuadraticSplitting):
    """The splitting as a partition of its Weierstrass point keys, one
    square root per block (splitting_root_pairs)."""
    return frozenset(frozenset(map(point_key, pair))
                     for pair in splitting_root_pairs(spl))


def orbit_partition(points, gens) -> list:
    """Orbits of the group generated by gens on points.

    Each generator is a mapping point -> point (a dict, or a list on
    range(n)) that permutes points.  Returns the orbits as sorted
    tuples, in sorted order.
    """
    seen = set()
    orbits = []
    for start in points:
        if start in seen:
            continue
        orbit = {start}
        frontier = [start]
        while frontier:
            cur = frontier.pop()
            for g in gens:
                img = g[cur]
                if img not in orbit:
                    orbit.add(img)
                    frontier.append(img)
        seen |= orbit
        orbits.append(tuple(sorted(orbit)))
    return sorted(orbits)


def moebius_orbits_on_splittings(labels, perms):
    """Orbits of the kernels labels, all 15 MATCHINGS indices, under
    Moebius maps given as index maps of the points (moebius_stabilizing),
    acting through matching_action.  Returns the orbits as sorted tuples
    of positions in labels, in sorted order."""
    at = {n: i for i, n in enumerate(labels)}
    actions = [[at[action[n]] for n in labels]
               for action in map(matching_action, map(tuple, perms))]
    return orbit_partition(range(len(labels)), actions)


def transform_curve(curve: Genus2Curve, a, b, c, d) -> Genus2Curve:
    """Model change by x -> (ax + b)/(cx + d), entries in GF(p^2).

    Returns the curve y^2 = F_m(x) where F_m is the degree-6
    homogeneous substitution of f; the class of the curve (and its
    Clebsch point in P(2,4,6,10)) is unchanged.
    """
    ctx = curve.ctx
    if (a * d - b * c).is_zero():
        raise Genus2Error("singular substitution")
    # f(x, z) = sum f_k x^k z^(6-k); substitute x -> a x + b z,
    # z -> c x + d z, and set z = 1, on int pairs.
    num, den, out = [b.key(), a.key()], [d.key(), c.key()], []
    for k in range(7):
        t = [curve.f[k].key()]
        for g in [num] * k + [den] * (6 - k):
            t = mul_pairs(ctx, t, g)
        out = add_pairs(ctx, out, t)
    return Genus2Curve(Poly.from_pairs(ctx, out))


# ---------------------------------------------------------------------------
# Clebsch invariants via transvectants


def _term_table(m, n, h):
    """Integer terms (t, x, y, c) of the h-th transvectant of binary
    forms F (order m) and G (order n): out[t] += c * F[x] * G[y].

    c sums, over j, (-1)^j binom(h, j) times the falling factorials that
    d^h/dx^(h-j)dz^j puts on F[x] and d^h/dx^j dz^(h-j) puts on G[y]:
    the omega process and the product of partials in one integer.
    """
    coef = {}
    for j in range(h + 1):
        for x in range(h - j, m - j + 1):
            for y in range(j, n - h + j + 1):
                coef[x, y] = coef.get((x, y), 0) + (-1) ** j * comb(h, j) \
                    * perm(x, h - j) * perm(m - x, j) \
                    * perm(y, j) * perm(n - y, h - j)
    return tuple((x + y - h, x, y, c)
                 for (x, y), c in sorted(coef.items()) if c)


# one term table per transvectant shape (m, n, h) in the Clebsch chain
_TERM_TABLES = {s: _term_table(*s) for s in (
    (6, 6, 6), (6, 6, 4), (4, 4, 4), (4, 4, 2), (6, 4, 4), (4, 2, 2),
    (2, 2, 2))}


def _int_transvectant(ctx, F, m, G, n, h):
    """h-th transvectant of F (order m) and G (order n) with (a, b) int
    pairs for coefficients a + b*i, divided by the normaliser
    perm(m, h) perm(n, h) (invertible in characteristic > 5) and
    reduced mod p once per output coefficient."""
    p, nr = ctx.p, ctx.nonresidue
    size = m + n - 2 * h + 1
    re, im = [0] * size, [0] * size
    for t, x, y, c in _TERM_TABLES[m, n, h]:
        fa, fb = F[x]
        ga, gb = G[y]
        re[t] += c * (fa * ga + nr * fb * gb)
        im[t] += c * (fa * gb + fb * ga)
    inv = pow(perm(m, h) * perm(n, h), -1, p)
    return [(re[t] * inv % p, im[t] * inv % p) for t in range(size)]


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
    homogenized with a vanishing leading coefficient): nine
    transvectants on (a, b) int pairs, each one pass over its integer
    term table.  Only the four invariants become FieldElements; the
    FieldElement chain is the test oracle test_genus2.clebsch_oracle."""
    ctx = curve.ctx
    f = [(c.a, c.b) for c in (curve.f[k] for k in range(7))]
    A = _int_transvectant(ctx, f, 6, f, 6, 6)
    i4 = _int_transvectant(ctx, f, 6, f, 6, 4)
    B = _int_transvectant(ctx, i4, 4, i4, 4, 4)
    delta = _int_transvectant(ctx, i4, 4, i4, 4, 2)
    C = _int_transvectant(ctx, i4, 4, delta, 4, 4)
    y1 = _int_transvectant(ctx, f, 6, i4, 4, 4)
    y2 = _int_transvectant(ctx, i4, 4, y1, 2, 2)
    y3 = _int_transvectant(ctx, i4, 4, y2, 2, 2)
    D = _int_transvectant(ctx, y3, 2, y1, 2, 2)
    return ClebschPoint(*(FieldElement(ctx, *X[0]) for X in (A, B, C, D)))


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
    """RA-type from the order (1/2/4/5/6/12/24) of reduced_automorphisms."""
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
