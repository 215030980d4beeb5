"""Genus-2 curves: splittings, invariants, reduced automorphisms.

A curve is y^2 = f(x) with f squarefree of degree 5 or 6 over
GF(p^2).  This module provides

* Genus2Curve, the checked sextic as seven (a, b) int pairs, low first;
  its Poly f, which factoring reads, is made on first read,
* the rational quadratic splittings (the (2,2)-kernels), their blocks
  (c0, c1, c2) and scales in (a, b) int pairs from matching to transport,
* Clebsch invariants (A : B : C : D) in P(2, 4, 6, 10) of a sextic's
  seven (a, b) int pairs, by transvectants as integer term tables, one
  reduction mod p per output coefficient,
* Weierstrass points as (a, b) int pairs, or INF, which sorts first,
* the reduced automorphism group and Moebius maps between six-point
  sets in one form, index maps between frames of equal signature: each
  ordered triple of Weierstrass points, sent to (0, 1, inf), followed
  by the other three in the order of their images, the cross-ratios
  on (a, b) int pairs, looked up in an index filed by one image each,
* Bolza's RA-type rows and the canonical key, on Clebsch pairs.

Every point these read lies in GF(p^2), as at every superspecial vertex;
a curve with a Weierstrass point outside it raises IrrationalPointsError.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache
from itertools import combinations, permutations
from math import comb, perm

from .field import FieldCtx, FieldElement
from .poly import (Poly, add_pairs, factor_quadratic_pieces, is_squarefree,
                   mul_pairs, quadratic_roots_pairs)

# The most curves each memo below keeps, least recently used out first.
FACTORINGS_KEPT = 128
SPLITTINGS_KEPT = 128
WEIERSTRASS_KEPT = 128
AUTOMORPHISMS_KEPT = 128
CLEBSCH_KEPT = 128


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


@dataclass(frozen=True, init=False)
class Genus2Curve:
    """y^2 = f(x), f squarefree of degree 5 or 6 over ctx, held as its
    sextic, seven (a, b) int pairs low first (a quintic's top one is
    (0, 0)): checked by gcd(f, f') for a bare Poly f, in closed form for
    a product of blocks (of_blocks).  Equal, and hashed, as (ctx,
    sextic); the Poly f is kept when given, else made on first read."""

    ctx: FieldCtx
    sextic: tuple

    def __init__(self, f: Poly):
        if f.is_zero():
            raise Genus2Error("defining polynomial is zero")
        if f.degree() not in (5, 6):
            raise Genus2Error(f"degree must be 5 or 6, got {f.degree()}")
        if not is_squarefree(f):
            raise Genus2Error("defining polynomial must be squarefree")
        object.__setattr__(self, "ctx", f.ctx)
        object.__setattr__(self, "sextic", tuple(f[k].key() for k in range(7)))
        object.__setattr__(self, "f", f)

    @classmethod
    def of_blocks(cls, ctx: FieldCtx, blocks, scale) -> "Genus2Curve":
        """y^2 = scale * g1*g2*g3 on int pairs (squarefree_product)."""
        return cls._checked(ctx, squarefree_product(ctx, blocks, scale))

    @classmethod
    def _checked(cls, ctx, pairs) -> "Genus2Curve":
        """The curve of the (a, b) pairs, shown squarefree, degree 5/6."""
        curve = object.__new__(cls)
        object.__setattr__(curve, "ctx", ctx)
        object.__setattr__(curve, "sextic", tuple(pairs))
        return curve

    def conjugate(self) -> "Genus2Curve":
        """The Frobenius image a + b*i -> a - b*i, coefficientwise: it is
        squarefree as self is, the Frobenius being a field automorphism."""
        p = self.ctx.p
        return self._checked(self.ctx, [(a, -b % p) for a, b in self.sextic])

    @cached_property
    def f(self) -> Poly:
        return Poly.from_pairs(self.ctx, self.sextic)

    @property
    def leading(self) -> tuple:
        """The leading coefficient of f, an (a, b) pair."""
        return self.sextic[6] if self.sextic[6] != (0, 0) else self.sextic[5]

    def __repr__(self):
        return f"Genus2Curve({self.f})"


def block_product(ctx: FieldCtx, blocks, scale) -> list:
    """scale * g1*g2*g3 as seven (a, b) pairs, blocks (c0, c1, c2) low
    first, packed as in poly.powmod_pairs: a block's real parts in one
    int, c_k at bits [kw, kw + w), its imaginary parts in another; four
    int products a block, one unpacking.  Reduced nonnegative inputs and
    nr > 0 put at most the real x^3 slot of the all-(p - 1)(1 + i) one,
    7(1 + 6nr + nr^2)(p - 1)^4, below 2^(w - 1), w its bit_length + 1."""
    p, nr = ctx.p, ctx.nonresidue
    w = (7 * (1 + 6 * nr + nr * nr) * (p - 1) ** 4).bit_length() + 1
    re, im = scale
    for (a0, b0), (a1, b1), (a2, b2) in blocks:
        c, d = a0 | (a1 | a2 << w) << w, b0 | (b1 | b2 << w) << w
        re, im = re * c + nr * im * d, re * d + im * c
    mask = (1 << w) - 1
    return [((re >> s & mask) % p, (im >> s & mask) % p)
            for s in range(0, 7 * w, w)]


def squarefree_product(ctx: FieldCtx, blocks, scale) -> list:
    """block_product, or Genus2Error unless of degree 5 or 6 and, in
    closed form, squarefree: iff each block, as a binary quadratic form,
    has a nonzero discriminant and each two a nonzero resultant (c2 e0 -
    e2 c0)^2 - (c2 e1 - e2 c1)(c1 e0 - e1 c0), which also vanishes on
    two linear blocks, as both vanish at infinity."""
    m, f = ctx.pminor, block_product(ctx, blocks, scale)
    if f[6] == f[5] == (0, 0):
        raise Genus2Error("degree must be 5 or 6, got at most 4")
    forms = [m(c1, c1, (4 * c2[0], 4 * c2[1]), c0) for c0, c1, c2 in blocks]
    for (c0, c1, c2), (e0, e1, e2) in combinations(blocks, 2):
        r = m(c2, e0, e2, c0)
        forms.append(m(r, r, m(c2, e1, e2, c1), m(c1, e0, e1, c0)))
    if (0, 0) in forms:
        raise Genus2Error("defining polynomial must be squarefree")
    return f


def monic_block(ctx: FieldCtx, g) -> tuple:
    """The block g over its leading coefficient, c1 when c2 = (0, 0)."""
    inv = ctx.pinv(g[2] if g[2] != (0, 0) else g[1])
    return tuple(ctx.pmul(c, inv) for c in g)


@dataclass(frozen=True)
class QuadraticSplitting:
    """Three monic blocks g1*g2*g3 over ctx with scale * g1*g2*g3 = f.

    A block is its coefficients (c0, c1, c2), low first, as (a, b) int
    pairs, like scale; c2 = (0, 0) in a degree-5 curve's linear block.
    Blocks sort by degree, then coefficients from the low end: the key.
    """

    ctx: FieldCtx
    blocks: tuple
    scale: tuple

    @classmethod
    def make(cls, ctx, blocks, scale) -> "QuadraticSplitting":
        """The splitting of the monic blocks, sorted by (c2, c0, c1)."""
        return cls(ctx, tuple(sorted(blocks, key=lambda g: (g[2], g))), scale)

    def curve(self) -> Genus2Curve:
        """y^2 = scale * g1*g2*g3, checked in closed form (of_blocks)."""
        return Genus2Curve.of_blocks(self.ctx, self.blocks, self.scale)


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


# The point at infinity on the x-line, beside the finite points, which
# are (a, b) int pairs: it sorts before each of them, and is falsy.
INF = ()


def _pair_block(ctx, r, s) -> tuple:
    """x^2 - (r + s)x + rs on (a, b) int pairs, x - r when s is INF."""
    p = ctx.p
    if not (r and s):
        a, b = r or s
        return (-a % p, -b % p), (1, 0), (0, 0)
    return ctx.pmul(r, s), ((-r[0] - s[0]) % p, (-r[1] - s[1]) % p), (1, 0)


def matching_splitting(ctx, forced, matching, scale) -> QuadraticSplitting:
    """The forced monic blocks plus the block of each pair (r, s) of the
    matching: x^2 - (r + s)x + rs, or x - r when s is INF."""
    return QuadraticSplitting.make(ctx, list(forced) + [
        _pair_block(ctx, r, s) for r, s in matching], scale)


# The perfect matchings of range(n), each its increasing pairs in order.
# A Jacobian kernel is labelled by the index in MATCHINGS, n = 6, of its
# matching of the vertex's Weierstrass points, in graph.Vertex.points order.
_INDEX_MATCHINGS = {n: tuple(tuple(m) for m in _matchings(list(range(n))))
                    for n in (0, 2, 4, 6)}
MATCHINGS = _INDEX_MATCHINGS[6]
# pair (x, y) sets bits 6x + y and 6y + x: the sum keys a matching, unsorted
_PAIR_BITS = [1 << n | 1 << 6 * (n % 6) + n // 6 for n in range(36)]
_MATCHING_INDEX = {sum(_PAIR_BITS[6 * a + b] for a, b in m): n
                   for n, m in enumerate(MATCHINGS)}
_FLAT_MATCHINGS = tuple(sum(m, ()) for m in MATCHINGS)  # 3 pairs, flat


def matching_index(pairs) -> int:
    """The index in MATCHINGS of a perfect matching of range(6), given
    as its three pairs in any order."""
    return _MATCHING_INDEX[sum(_PAIR_BITS[6 * a + b] for a, b in pairs)]


@lru_cache(maxsize=720)  # one entry per permutation of range(6)
def matching_action(perm: tuple) -> tuple:
    """The permutation of MATCHINGS indices induced by the index map
    perm of range(6), a tuple: each matching's three image pairs keyed
    as matching_index does, read off its flat 6-tuple."""
    bits, index = _PAIR_BITS, _MATCHING_INDEX
    return tuple(index[bits[6 * perm[a] + perm[b]]
                       + bits[6 * perm[c] + perm[d]]
                       + bits[6 * perm[e] + perm[f]]]
                 for a, b, c, d, e, f in _FLAT_MATCHINGS)


def pairing_index(pairs) -> int:
    """The kernel label of three pairs of six distinct points: their
    matching's MATCHINGS index over the points, sorted."""
    pts = sorted(x for pair in pairs for x in pair)
    return matching_index([pts.index(x) for x in pair] for pair in pairs)


def point_splittings(ctx, forced, free, scale) -> list:
    """(splitting, index) for each perfect matching of the free points
    ((a, b) pairs and INF) around the forced irreducible blocks, one
    block made per pair, sorted by blocks.  The index is the matching's
    in _matchings order: with six free points, the kernel label."""
    block = {(i, j): _pair_block(ctx, free[i], free[j])
             for i, j in combinations(range(len(free)), 2)}
    out = [(QuadraticSplitting.make(
        ctx, list(forced) + [block[pr] for pr in m], scale), n)
        for n, m in enumerate(_INDEX_MATCHINGS[len(free)])]
    out.sort(key=lambda sp: sp[0].blocks)
    return out


@lru_cache(maxsize=FACTORINGS_KEPT)
def _forced_free(curve: Genus2Curve):
    """One Cantor-Zassenhaus factoring of the curve's sextic f, as
    (forced, free): its irreducible quadratic factors as monic blocks,
    and its rational roots (and infinity, for degree-5 models); shared
    by splittings and weierstrass_points."""
    f, p = curve.f, curve.ctx.p
    linears, quads = factor_quadratic_pieces(f)
    free = [(-g[0].a % p, -g[0].b % p) for g in linears]
    free += [INF] * (f.degree() == 5)
    return [tuple((g[k].a, g[k].b) for k in range(3)) for g in quads], free


@lru_cache(maxsize=SPLITTINGS_KEPT)
def splittings(curve: Genus2Curve) -> list:
    """All rational quadratic splittings of the curve, sorted.

    Every partition of the six Weierstrass points into three
    Galois-stable pairs: point_splittings around the forced blocks of
    _forced_free.  15 splittings exactly when all are rational.
    """
    return [s for s, _ in point_splittings(
        curve.ctx, *_forced_free(curve), curve.leading)]


# ---------------------------------------------------------------------------
# Weierstrass points, and Moebius maps between them as index maps


def _block_roots(g, ctx):
    """The two points of a monic block (c0, c1, c2) of int pairs, INF
    partnering a linear block's root; None when the block is irreducible
    over GF(p^2).  Quadratic blocks run on quadratic_roots_pairs."""
    if g[2] == (0, 0):
        return (-g[0][0] % ctx.p, -g[0][1] % ctx.p), INF
    return quadratic_roots_pairs(ctx, g)


def splitting_root_pairs(spl: QuadraticSplitting) -> list:
    """The Weierstrass points of y^2 = spl.curve() as the three pairs
    covered by spl's blocks, in block order, one square root each
    (_block_roots).  Listed pair by pair, spl is their kernel 0
    (MATCHINGS[0]).  Raises IrrationalPointsError when a block is
    irreducible: the rational kernels are then the matchings of the
    other blocks' points."""
    roots = [_block_roots(g, spl.ctx) for g in spl.blocks]
    if None in roots:
        rational = 2 * (len(roots) - roots.count(None))
        raise IrrationalPointsError(Poly.from_pairs(spl.ctx, block_product(
            spl.ctx, spl.blocks, spl.scale)), len(_INDEX_MATCHINGS[rational]))
    return roots


@lru_cache(maxsize=WEIERSTRASS_KEPT)
def weierstrass_points(curve: Genus2Curve) -> list:
    """The six Weierstrass points of the curve, sorted: the roots of f's
    linear factors (and INF, first, if f is a quintic), from one factoring.
    Raises IrrationalPointsError when f has an irreducible quadratic
    factor; superspecial vertices have none.  Graph vertices reached by
    an edge read theirs off its recorded dual splitting instead."""
    forced, free = _forced_free(curve)
    if forced:
        raise IrrationalPointsError(curve.f, len(_INDEX_MATCHINGS[len(free)]))
    return sorted(free)


_TRIPLES = tuple(permutations(range(6), 3))
# each triple t = (i, j, k) as (t, the slot of q(j, k, i), then l and
# the slot of q(l, i, k) for each index l outside t, increasing): x_l's
# image under t is q(l, i, k) q(j, k, i); t is filed under the first's
_FRAMES = tuple((t, 36 * t[1] + 6 * t[2] + t[0]) + sum(
    ((l, 36 * l + 6 * t[0] + t[2]) for l in range(6) if l not in t), ())
    for t in _TRIPLES)


def _q_plan(triples) -> tuple:
    """For _q_table, each triple (a, i, k)'s slots 36a + 6i + k, 6a + i
    and 6a + k: those of q(a, i, k), x_a - x_i and 1/(x_a - x_k)."""
    return tuple((36 * a + 6 * i + k, 6 * a + i, 6 * a + k)
                 for a, i, k in triples)


_FRAME_PLAN = _q_plan(_TRIPLES)  # a frame table's q


def _q_table(ctx, pts, plan) -> list:
    """q(a, i, k) = (x_a - x_i)/(x_a - x_k) of the six points pts, for
    each triple of plan = _q_plan(triples), at 36a + 6i + k of a 216-list
    as (a, b) int pairs, a factor holding INF read as 1: the differences
    in flat 6x6 lists, one ctx.pinv per finite pair."""
    p, nr, one = ctx.p, ctx.nonresidue, (1, 0)
    d, dinv, q = [one] * 36, [one] * 36, [None] * 216
    for a, k in combinations(range(6), 2):
        if pts[a] and pts[k]:
            (aa, ab), (ka, kb) = pts[a], pts[k]
            d[6 * a + k] = e = (aa - ka) % p, (ab - kb) % p
            d[6 * k + a] = -e[0] % p, -e[1] % p
            ea, eb = dinv[6 * a + k] = ctx.pinv(e)
            dinv[6 * k + a] = -ea % p, -eb % p
    for s, n, m in plan:
        (xa, xb), (ya, yb) = d[n], dinv[m]
        q[s] = (xa * ya + nr * xb * yb) % p, (xa * yb + xb * ya) % p
    return q


class MoebiusIndex:
    """The frames of six points pts by signature, as moebius_frames(ctx,
    pts) builds them.  A triple (i, j, k)'s frame is the triple, then
    the other indices l in the order of their images q(l, i, k) q(j, k,
    i) under the map sending (x_i, x_j, x_k) to (0, 1, inf), whose keys,
    sorted and concatenated, are its signature.  Two point sets' frames
    share a signature exactly when a Moebius map sends each point of one
    to the point at the same place in the other.  It keeps the q table
    of pts (15 inverses), each triple filed by its first other image."""

    __slots__ = ("ctx", "q", "filed")

    def __init__(self, ctx, pts):
        p, nr, filed = ctx.p, ctx.nonresidue, {}
        q = _q_table(ctx, pts, _FRAME_PLAN)
        for frame in _FRAMES:
            (za, zb), (xa, xb) = q[frame[1]], q[frame[3]]
            key = (xa * za + nr * xb * zb) % p, (xa * zb + xb * za) % p
            filed[key] = filed.get(key, ()) + (frame,)
        self.ctx, self.q, self.filed = ctx, q, filed

    def get(self, signature, default=None) -> list:
        """The frames of signature in _TRIPLES order, or default if none:
        the triples filed under its images whose other images it holds."""
        p, nr, q = self.ctx.p, self.ctx.nonresidue, self.q
        rank = {signature[n:n + 2]: n // 2 for n in (0, 2, 4)}
        frames = []
        for w, n in rank.items():
            for t, c, first, _, l1, s1, l2, s2 in self.filed.get(w, ()):
                (za, zb), tail = q[c], [None] * 3
                tail[n] = first
                for l, s in (l1, s1), (l2, s2):
                    xa, xb = q[s]
                    at = rank.get(((xa * za + nr * xb * zb) % p,
                                   (xa * zb + xb * za) % p))
                    if at is None:
                        break
                    tail[at] = l
                else:
                    frames.append(t + tuple(tail))
        frames.sort()  # by triple: each frame opens with its own
        return frames or default


moebius_frames = MoebiusIndex


def _base_images(ctx, pts) -> list:
    """The images of x_3, x_4 and x_5 under the Moebius map sending x_0,
    x_1 and x_2 to 0, 1 and inf, as (a, b) int pairs: x_l goes to d(l, 0)
    d(1, 2) / (d(l, 2) d(1, 0)), d(a, k) = x_a - x_k read as 1 when
    either point is INF, as _q_table does.  Eight differences, and one
    inverse: of the product of d(1, 0) and the three d(l, 2)."""
    p, mul, ds = ctx.p, ctx.pmul, []
    for i, j in ((1, 2), (1, 0), (3, 0), (3, 2), (4, 0), (4, 2), (5, 0),
                 (5, 2)):
        x, y = pts[i], pts[j]
        ds.append(((x[0] - y[0]) % p, (x[1] - y[1]) % p) if x and y
                  else (1, 0))
    d12, d10, d30, d32, d40, d42, d50, d52 = ds
    d34 = mul(d32, d42)
    k = mul(d12, ctx.pinv(mul(mul(d34, d52), d10)))
    return [mul(mul(d30, k), mul(d42, d52)), mul(mul(d40, k), mul(d32, d52)),
            mul(mul(d50, k), d34)]


def moebius_stabilizing(ctx, src, dst_frames):
    """The Moebius maps sending the set of six points src onto the point
    set of dst_frames = moebius_frames(ctx, dst_pts), in the package's
    one form of such a map, an index map: m[i] is the index in dst_pts
    of the image of src[i].  One map per frame sharing the signature of
    src's base frame (0, 1, 2): its images q(l, 0, 2) q(1, 2, 0) of x_3,
    x_4 and x_5 read off src's own MoebiusIndex (their RA maps), or else
    _base_images, one inverse.  The signature is read at once, and the
    maps are yielded lazily, so that a caller wanting one builds one."""
    images = _base_images(ctx, src) if not isinstance(src, MoebiusIndex) \
        else [ctx.pmul(src.q[36 * l + 2], src.q[48]) for l in (3, 4, 5)]
    images = sorted(image + (l,) for image, l in zip(images, (3, 4, 5)))
    signature = sum((image[:2] for image in images), ())
    base = [0, 1, 2] + [l for *_, l in images]  # the base frame
    at = sorted(range(6), key=base.__getitem__)
    return ([fr[t] for t in at] for fr in dst_frames.get(signature, ()))


@lru_cache(maxsize=AUTOMORPHISMS_KEPT)
def reduced_automorphisms(curve: Genus2Curve) -> list:
    """RA(Jac(C)), the Moebius maps permuting the Weierstrass points, as
    index maps of weierstrass_points(curve) (moebius_stabilizing of the
    curve's own frames onto themselves)."""
    frames = moebius_frames(curve.ctx, weierstrass_points(curve))
    return list(moebius_stabilizing(curve.ctx, frames, frames))


def splitting_pairing(spl: QuadraticSplitting):
    """The splitting as a partition of its Weierstrass points, one
    square root per block (splitting_root_pairs)."""
    return frozenset(map(frozenset, splitting_root_pairs(spl)))


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
        t = [curve.sextic[k]]
        for g in [num] * k + [den] * (6 - k):
            t = mul_pairs(ctx, t, g)
        out = add_pairs(ctx, out, t)
    return Genus2Curve(Poly.from_pairs(ctx, out))


# ---------------------------------------------------------------------------
# Clebsch invariants via transvectants


def _term_table(m, n, h, fold=False):
    """Integer terms (x, y, c) of the h-th transvectant of binary forms
    F (order m) and G (order n), in one row per output coefficient t,
    each term adding c * F[x] * G[y] to out[t], t = x + y - h.

    c sums, over j, (-1)^j binom(h, j) times the falling factorials that
    d^h/dx^(h-j)dz^j puts on F[x] and d^h/dx^j dz^(h-j) puts on G[y]:
    the omega process and the product of partials in one integer.  With
    fold, for a self-transvectant (F, F)_h, each term (y, x), x < y, is
    merged into its mirror (x, y): both multiply F[x] by F[y].
    """
    coef = {}
    for j in range(h + 1):
        for x in range(h - j, m - j + 1):
            for y in range(j, n - h + j + 1):
                at = (y, x) if fold and y < x else (x, y)
                coef[at] = coef.get(at, 0) + (-1) ** j * comb(h, j) \
                    * perm(x, h - j) * perm(m - x, j) \
                    * perm(y, j) * perm(n - y, h - j)
    rows = [[] for _ in range(m + n - 2 * h + 1)]
    for (x, y), c in sorted(coef.items()):
        if c:
            rows[x + y - h].append((x, y, c))
    return rows


@lru_cache(maxsize=8)
def _chain_tables(p):
    """(w, tables) over GF(p): the rows of each transvectant (m, n, h,
    fold) of the Clebsch chain, folded for (f, f)_6, (f, f)_4, (i, i)_4
    and (i, i)_2, each c over the normaliser perm(m, h) perm(n, h) (a
    unit as p > 5) mod p; w = bit_length(2(p - 1)^2 S) + 1, S the
    largest sum of c over a row, is _int_transvectant's slot width."""
    tables = {(m, n, h, fold): tuple(tuple(
        (x, y, c * pow(perm(m, h) * perm(n, h), -1, p) % p)
        for x, y, c in row) for row in _term_table(m, n, h, fold))
        for m, n, h, fold in ((6, 6, 6, True), (6, 6, 4, True),
                              (4, 4, 4, True), (4, 4, 2, True),
                              (4, 4, 4, False), (6, 4, 4, False),
                              (4, 2, 2, False), (2, 2, 2, False))}
    most = max(sum(c for *_, c in row)
               for rows in tables.values() for row in rows)
    return (2 * (p - 1) ** 2 * most).bit_length() + 1, tables


def _int_transvectant(ctx, F, m, G, n, h):
    """h-th transvectant of F (order m) and G (order n), normalised, on
    packed coefficients: u + v*i is the int u | v << w (_chain_tables).
    A term c F[x] G[y], F[x] = u + v*i and G[y] = s + t*i, is one int
    product whose three w-bit slots hold c us, c(ut + vs) and c vt; an
    output sums its row of terms and is unpacked once, reduced mod p
    and packed again.  With inputs and c reduced and nonnegative a slot
    holds at most 2(p - 1)^2 S < 2^(w - 1), so none carries.  The table
    is folded when F is G."""
    p, nr = ctx.p, ctx.nonresidue
    w, tables = _chain_tables(p)
    mask, out = (1 << w) - 1, []
    for row in tables[m, n, h, F is G]:
        s = 0
        for x, y, c in row:
            s += c * F[x] * G[y]
        out.append(((s & mask) + nr * (s >> 2 * w)) % p
                   | (s >> w & mask) % p << w)
    return out


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


def clebsch_pairs(ctx, f) -> tuple:
    """Clebsch invariants (A, B, C, D) as (a, b) int pairs of the sextic
    f, seven pairs low first: nine packed transvectants, 74 terms in all,
    as the four self-transvectants fold each term into its mirror, with
    the normalisers in the per-prime tables, so no inverse."""
    w = _chain_tables(ctx.p)[0]
    f = [a | b << w for a, b in f]
    A = _int_transvectant(ctx, f, 6, f, 6, 6)
    i4 = _int_transvectant(ctx, f, 6, f, 6, 4)
    B = _int_transvectant(ctx, i4, 4, i4, 4, 4)
    delta = _int_transvectant(ctx, i4, 4, i4, 4, 2)
    C = _int_transvectant(ctx, i4, 4, delta, 4, 4)
    y1 = _int_transvectant(ctx, f, 6, i4, 4, 4)
    y2 = _int_transvectant(ctx, i4, 4, y1, 2, 2)
    y3 = _int_transvectant(ctx, i4, 4, y2, 2, 2)
    D = _int_transvectant(ctx, y3, 2, y1, 2, 2)
    return tuple((X[0] & (1 << w) - 1, X[0] >> w) for X in (A, B, C, D))


@lru_cache(maxsize=CLEBSCH_KEPT)
def clebsch_invariants(curve: Genus2Curve) -> ClebschPoint:
    """clebsch_pairs of curve.sextic, as FieldElements;
    test_genus2.clebsch_oracle is its oracle."""
    return ClebschPoint(*(FieldElement(curve.ctx, *x)
                          for x in clebsch_pairs(curve.ctx, curve.sextic)))


def ra_type_from_clebsch(cp: ClebschPoint) -> str:
    """ra_type_from_clebsch_pairs of cp's coordinates."""
    return ra_type_from_clebsch_pairs(cp.A.ctx, [x.key() for x in cp.tuple()])


def ra_type_from_clebsch_pairs(ctx, coords) -> str:
    """Bolza's criteria on coords = (A, B, C, D), (a, b) int pairs, rows
    evaluated most-special-first, with his derived invariants A11 = 2C +
    AB/3, A12 = 2(B^2 + AC)/3, A22 = A31 = D, A23 = B A12/2 + C A11/3
    and A33 = B A22/2 + C A12/3, and det(A_ij) = 2R^2.

    Each row equates terms of one weight in (A, B, C, D) of weights
    (1, 2, 3, 5), so a rescaled point (canonical_key_pairs) has their
    type.  The Type-I row is implemented as A11*A22 != A12^2 (the printed
    inequality is weight-inhomogeneous); any curve falling through every
    row raises ClassificationError.
    """
    p, mul, m = ctx.p, ctx.pmul, ctx.pminor
    A, B, C, D = coords
    third, half = pow(3, -1, p), pow(2, -1, p)

    def lin(*terms):  # the sum of c * x over the (c, x) terms, reduced
        re = im = 0
        for c, (a, b) in terms:
            re, im = re + c * a, im + c * b
        return re % p, im % p
    zero, AB, BB = (0, 0), mul(A, B), mul(B, B)
    A11 = lin((2, C), (third, AB))
    A12 = lin((2 * third, BB), (2 * third, mul(A, C)))
    A23 = lin((half, mul(B, A12)), (third, mul(C, A11)))
    A33 = lin((half, mul(B, D)), (third, mul(C, A12)))
    det = lin((1, mul(A11, m(D, A33, A23, A23))),
              (-1, mul(A12, m(A12, A33, A23, D))),
              (1, mul(D, m(A12, A23, D, D))))
    cubic = m((6 * C[0], 6 * C[1]), C, BB, B)  # 6C^2 - B^3
    if A == B == C == zero:
        if D == zero:
            raise ClassificationError("all Clebsch invariants vanish")
        return RAType.II
    if B == C == D == zero:
        return RAType.VI
    if lin((6, B), (-1, mul(A, A))) == zero and D == A11 == zero \
            and A != zero:
        return RAType.V
    if (cubic == zero and lin((3, D), (-2, mul(B, A11))) == zero
            and lin((2, AB), (-15, C)) != zero and D != zero):
        return RAType.IV
    if (lin((1, mul(B, A11)), (-2, mul(A, A12)), (6, D)) == zero
            and m(C, A11, A, D) == lin((-2, mul(B, A12)))
            and cubic != zero and D != zero):
        return RAType.III
    if det == zero:
        if m(A11, D, A12, A12) != zero:
            return RAType.I
        cp = ":".join(f"{a}+{b}i" if b else str(a) for a, b in coords)
        raise ClassificationError(f"R = 0 but no special row matched: ({cp})")
    return RAType.A


# ---------------------------------------------------------------------------
# Canonical vertex keys in weighted projective space

# Never written; perfbench/tracer.py reads len(_KEY_CACHE) unguarded.
_KEY_CACHE = {}


def canonical_key(cp: ClebschPoint):
    """The weighted normal form of cp: canonical_key_pairs of its pairs."""
    return canonical_key_pairs(cp.A.ctx, [x.key() for x in cp.tuple()])


def canonical_key_pairs(ctx, coords) -> tuple:
    """Weighted normal form of coords = (A, B, C, D), (a, b) int pairs,
    under the action (mu A, mu^2 B, mu^3 C, mu^5 D) of mu in GF(p^2)^*.

    Every even-weight rescaling by lambda in the algebraic closure acts
    through such a mu.  With two or more nonzero coordinates exactly one
    mu meets the first applicable condition: A' = 1; else C' = B';
    else D' = B'^2; else D' = C'^2.  Its image is therefore a complete
    invariant of the class.  Tuples with a single nonzero coordinate
    normalize to unit tuples.  mu = num/den takes one FieldElement
    inverse (perfbench's lookup reaches the field layer through it).
    """
    mul, zero = ctx.pmul, (0, 0)
    nonzero = [k for k, c in enumerate(coords) if c != zero]
    if not nonzero:
        raise Genus2Error("all Clebsch invariants vanish")
    if len(nonzero) == 1:
        return tuple((1, 0) if c != zero else zero for c in coords)

    A, B, C, D = coords
    if A != zero:
        num, den = (1, 0), A
    elif B != zero and C != zero:
        num, den = B, C
    elif B != zero:  # C = 0, D != 0 (two nonzero coords)
        num, den = mul(B, B), D
    else:  # A = B = 0, C and D nonzero
        num, den = D, mul(C, C)
    mu = mul(num, FieldElement(ctx, *den).inverse().key())
    mu2 = mul(mu, mu)
    mu3 = mul(mu2, mu)
    return (mul(mu, A), mul(mu2, B), mul(mu3, C), mul(mul(mu3, mu2), D))
