import random
import sys
from dataclasses import dataclass
from functools import partial
from itertools import permutations
from math import comb, gcd

import pytest

from richelot import genus2, gluing, graph, isogeny
from richelot.field import FieldElement, make_field
from richelot.genus2 import (INF, JACOBIAN_ORDER_TO_TYPE, MATCHINGS,
                             ClassificationError, Genus2Curve, Genus2Error,
                             IrrationalPointsError, QuadraticSplitting,
                             RAType, matching_splitting,
                             orbit_partition, reduced_automorphisms,
                             splitting_root_pairs)
from richelot.elliptic import EllipticCurveE2, NonSplitTorsionError
from richelot.gluing import DegenerateGluingError, product_kernels
from richelot.poly import Poly, PolyError, is_squarefree, mul_pairs, roots
from richelot.isogeny import RichelotError


@pytest.fixture(scope="session")
def ctx11():
    return make_field(11)


@pytest.fixture(scope="session")
def ctx13():
    return make_field(13)


@pytest.fixture(scope="session")
def ctx23():
    return make_field(23)


@pytest.fixture()
def rng():
    return random.Random(0xDECAF)


def block_triple(g):
    """A Poly block of degree <= 2 as the (c0, c1, c2) triple of (a, b)
    int pairs, low first, that QuadraticSplitting keeps."""
    return tuple((g[k].a, g[k].b) for k in range(3))


def block_poly(ctx, t):
    """The Poly of a block triple (block_triple's inverse)."""
    return Poly(ctx, [FieldElement(ctx, *c) for c in t])


def splitting_of(blocks, scale):
    """QuadraticSplitting.make of Poly blocks, through block_triple, and
    of the FieldElement scale, as its (a, b) pair."""
    return QuadraticSplitting.make(
        scale.ctx, [block_triple(g) for g in blocks], scale.key())


def poly_key_oracle(t):
    """Poly.key of a block triple: the number of coefficients, then the
    coefficient pairs low to high, trailing zeros dropped.  The order
    QuadraticSplitting.make gave blocks, and point_splittings gave
    splittings block by block, while blocks were Polys, kept as their
    oracle."""
    coeffs = list(t)
    while coeffs and coeffs[-1] == (0, 0):
        coeffs.pop()
    return (len(coeffs), tuple(coeffs))


def random_element(ctx, rng):
    return ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))


def random_distinct_elements(ctx, rng, n):
    out = []
    while len(out) < n:
        x = random_element(ctx, rng)
        if all(x != y for y in out):
            out.append(x)
    return out


def random_distinct_points(ctx, rng, n):
    """random_distinct_elements as finite points, as genus2 holds them:
    (a, b) int pairs."""
    return [x.key() for x in random_distinct_elements(ctx, rng, n)]


def random_curve_with_irrational_points(ctx, rng):
    """Four distinct rational roots times an irreducible quadratic: two
    Weierstrass points lie in GF(p^4) only."""
    while True:
        irred = Poly(ctx, [random_element(ctx, rng),
                           random_element(ctx, rng), ctx.one])
        if roots(irred):
            continue
        rs = random_distinct_elements(ctx, rng, 4)
        f = Poly.from_roots(ctx, rs) * irred
        if is_squarefree(f):
            return Genus2Curve(f)


def point_element(ctx, pt):
    """A point as genus2 holds it, an (a, b) int pair or INF, as the
    FieldElement (INF kept) that the Moebius oracles compute on."""
    return pt and FieldElement(ctx, *pt)


@dataclass(frozen=True)
class MoebiusMap:
    """x -> (ax + b)/(cx + d), scaled so the first nonzero entry of
    (a, b, c, d) is 1, entries in GF(p^2).  The form of a Moebius map
    genus2 kept before index maps became its only one, kept for the
    oracles and for the tests that apply maps to points."""

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
        """The image of the point pt, a pair or INF, as genus2 holds it."""
        if pt == INF:
            num, den = self.a, self.c
        else:
            x = point_element(self.a.ctx, pt)
            num, den = self.a * x + self.b, self.c * x + self.d
        return INF if den.is_zero() else (num / den).key()


def to_zero_one_inf(K, p1, p2, p3):
    """Matrix of the Moebius map sending (p1, p2, p3) to (0, 1, inf)."""
    one, zero = K.one, K.zero
    p1, p2, p3 = (point_element(K, x) for x in (p1, p2, p3))
    if p1 == INF:
        return (zero, p2 - p3, one, -p3)
    if p2 == INF:
        return (one, -p1, one, -p3)
    if p3 == INF:
        return (one, -p1, zero, p2 - p1)
    return ((p2 - p3), -(p1 * (p2 - p3)), (p2 - p1), -(p3 * (p2 - p1)))


def moebius_through(K, src, dst):
    """The unique Moebius map with src[i] -> dst[i] (triples, distinct)."""
    t = to_zero_one_inf(K, *src)
    s = to_zero_one_inf(K, *dst)
    sa, sb, sc, sd = s
    # inverse of s (adjugate), then compose with t
    ia, ib, ic, id_ = sd, -sb, -sc, sa
    ta, tb, tc, td = t
    return MoebiusMap.make(ia * ta + ib * tc, ia * tb + ib * td,
                           ic * ta + id_ * tc, ic * tb + id_ * td)


def index_map_moebius(K, src_pts, dst_pts, m):
    """The Moebius map an index map m of genus2.moebius_stabilizing
    stands for: the map through src_pts[:3] onto dst_pts[m[0]],
    dst_pts[m[1]] and dst_pts[m[2]], as moebius_stabilizing built it
    while it returned MoebiusMaps."""
    return moebius_through(K, src_pts[:3], [dst_pts[i] for i in m[:3]])


def induced_index_map(m, src_pts, dst_pts):
    """The index map of the MoebiusMap m from src_pts into dst_pts:
    entry i is the index in dst_pts of m's image of src_pts[i]."""
    index = {q: i for i, q in enumerate(dst_pts)}
    return [index[m.apply(q)] for q in src_pts]


def moebius_search_oracle(K, src_pts, dst_pts, first_only=False):
    """Moebius maps sending the set src_pts onto the set dst_pts, by
    search: the triple loop that genus2.moebius_stabilizing replaced,
    kept as the reference it is checked against.

    Solves the map through the first three source points against every
    ordered triple of destination points and keeps the maps that send
    all of src_pts into dst_pts.  With first_only, returns the first
    hit (or None); otherwise the deduplicated list sorted by map key.
    """
    keys = set(dst_pts)
    base = src_pts[:3]
    found = {}
    for triple in permutations(dst_pts, 3):
        m = moebius_through(K, base, triple)
        if m.key() in found:
            continue
        if all(m.apply(p) in keys for p in src_pts):
            if first_only:
                return m
            found[m.key()] = m
    if first_only:
        return None
    return [found[k] for k in sorted(found)]


def moebius_frames_oracle(K, pts):
    """The ordered triples of indices into pts, listed by signature, by
    moving points with MoebiusMap.apply on field elements: the table
    that genus2.moebius_frames built before it read the images off
    int-pair cross-ratios, kept as the reference it is checked against.

    A triple's signature is the sorted keys, concatenated, of the images
    of the other points under the map sending it to (0, 1, inf).
    """
    frames = {}
    for triple in permutations(range(len(pts)), 3):
        frame = MoebiusMap(*to_zero_one_inf(K, *(pts[i] for i in triple)))
        signature = sum(sorted(frame.apply(pts[i])
                               for i in range(len(pts)) if i not in triple),
                        ())
        frames.setdefault(signature, []).append(triple)
    return frames


# the q(1, 2, 0) and q(l, 0, 2), l > 2, of a base frame
BASE_PLAN = genus2._q_plan(((1, 2, 0), (3, 0, 2), (4, 0, 2), (5, 0, 2)))


def base_images_oracle(ctx, pts):
    """The images of x_3, x_4 and x_5 under the map sending (x_0, x_1,
    x_2) to (0, 1, inf), as q(l, 0, 2) q(1, 2, 0) off a _q_table of
    BASE_PLAN: the base frame moebius_stabilizing read before
    genus2._base_images, kept as its oracle."""
    q = genus2._q_table(ctx, pts, BASE_PLAN)
    return [ctx.pmul(q[36 * l + 2], q[48]) for l in (3, 4, 5)]


def block_product_oracle(ctx, blocks, scale):
    """scale * g1*g2*g3 by a chain of mul_pairs: the form of
    genus2.block_product before it packed its parts, kept as its
    oracle."""
    f = [scale]
    for g in blocks:
        f = mul_pairs(ctx, f, g)
    return Poly.from_pairs(ctx, f)


def matching_action_oracle(perm):
    """genus2.matching_action as a generator sum over each matching's
    pairs, the form it had before it read flat 6-tuples."""
    return tuple(genus2._MATCHING_INDEX[sum(
        genus2._PAIR_BITS[6 * perm[a] + perm[b]] for a, b in m)]
        for m in MATCHINGS)


def own_frames(v):
    """The frame table of the Jacobian vertex v's points, built again:
    a vertex keeps none, and build_graph drops each table it built once
    no move can read it (a mirror's moves read its partner's)."""
    return genus2.moebius_frames(v.representative.ctx, v.points)


def move_frames(v):
    """The frames dict that graph._first_map reads to move onto v: the
    table of v's points, or of its partner's at a mirror, filed under
    that vertex's key; empty at a product, whose moves read none."""
    w = v.partner or v
    return {w.key: own_frames(w)} if w.points else {}


def kernel_rep(g, e):
    """The kernel that _expand stepped for the orbit edge e of the
    graph g, rebuilt from its first label at e's source: the
    matching_splitting of the MATCHINGS entry of that label over the
    source's points, scaled by its curve's leading coefficient, or
    product_kernels()[label] at a product."""
    v, n = g.vertex(e.source), e.kernels[0]
    if v.points is None:
        return product_kernels()[n]
    pts, C = v.points, v.representative
    return matching_splitting(C.ctx, (), [(pts[a], pts[b])
                                          for a, b in MATCHINGS[n]],
                              C.leading)


def mirror_pairs(g):
    """(partner, mirror) for each Jacobian vertex of the built graph g
    whose conjugate was built before it: build_graph built it as that
    conjugate's mirror."""
    built = {key: n for n, key in enumerate(g.vertices)}
    return [(g.vertex(key.conjugate(g.p)), v) for key, v in g.vertices.items()
            if key.kind == "jacobian"
            and built[key.conjugate(g.p)] < built[key]]


def matching_pairing(matching) -> frozenset:
    """A matching of Weierstrass points as a set of point pairs: the
    kernel label genus2.matching_pairing made before labels were
    MATCHINGS indices, kept as the label oracle."""
    return frozenset(map(frozenset, matching))


def label_pairing(pts, n):
    """The kernel label n (an index in MATCHINGS) at a vertex with the
    points pts (sorted, or a mirror's in its partner's order),
    translated to its matching_pairing."""
    return matching_pairing([(pts[a], pts[b]) for a, b in MATCHINGS[n]])


def jacobian_orbits_oracle(ctx, pts, scale, maps):
    """(kernel_rep, pairings) per RA orbit of the 15 kernels at a
    Jacobian vertex with the points pts, by moving point keys
    under the index maps maps: genus2.point_splittings and
    genus2.moebius_orbits_on_splittings as they ran on matching_pairing
    labels, kept as the oracle of the index labels.  Orbits and their
    pairings come in the order of the splittings' blocks."""
    out = [(matching_splitting(ctx, (), m, scale), matching_pairing(m))
           for m in genus2._matchings(list(pts))]
    out.sort(key=lambda sp: sp[0].blocks)
    pairings = [pr for _, pr in out]
    keys = list(pts)
    index_of = {pr: i for i, pr in enumerate(pairings)}
    actions = []
    for m in maps:
        image = dict(zip(keys, (keys[i] for i in m)))
        actions.append([index_of[frozenset(frozenset(image[k] for k in pair)
                                           for pair in pairing)]
                        for pairing in pairings])
    return [(out[orbit[0]][0], tuple(pairings[i] for i in orbit))
            for orbit in orbit_partition(range(len(pairings)), actions)]


def stepped_edges_oracle(v):
    """(edge, kernel) for each orbit edge out of the vertex v, by one
    isogeny step per RA orbit on its first kernel, the kernel stepped:
    the expansion build_graph ran before it derived each edge whose
    Frobenius partner or dual it knew, kept as the oracle of the derived
    targets and of every recorded dual.  The hints are the steps' own:
    the codomain as computed and the dual on it."""
    if v.key.kind == "jacobian":
        C = v.representative
        reps, labels = zip(*genus2.point_splittings(C.ctx, (), v.points,
                                                    C.leading))
        orbits = genus2.moebius_orbits_on_splittings(labels, v.ra_maps)
        step = graph._jacobian_step
    else:
        reps, labels = product_kernels(), range(15)
        orbits = gluing.kernel_orbits(v.representative)
        step = partial(graph._product_step, v)
    edges = []
    for orbit in orbits:
        k = reps[orbit[0]]
        tgt, hint = step(k)
        edges.append((graph.OrbitEdge(
            source=v.key, target=tgt, weight=len(orbit),
            is_loop=(v.key == tgt), hint=hint,
            kernels=tuple(labels[i] for i in orbit)), k))
    return edges


def recorded_dual_splitting(g, e):
    """The dual splitting recorded as a label in e's hint, on its
    Jacobian target's representative, made a splitting again from the
    target's points: the block x^2 - (r + s)x + rs, or x - r when s is
    INF, of each pair (r, s) of its matching."""
    w = g.vertex(e.target)
    ctx, pts = w.representative.ctx, w.points
    return splitting_of([Poly.from_roots(ctx, [point_element(ctx, x)
                                               for x in (pts[a], pts[b]) if x])
                         for a, b in MATCHINGS[e.hint[2]]],
                        w.representative.f.leading())


def stepped_hint(g, e):
    """The hint of one step on e's first kernel (kernel_rep), as
    neighbourhood returns it: the quotient as computed and the dual on
    it.  No recorded hint is read."""
    src, k = g.vertex(e.source), kernel_rep(g, e)
    return (graph._jacobian_step(k) if src.points
            else graph._product_step(src, k))[1]


def reaching_edges(g):
    """The edge that first reached each vertex but the first: build_graph
    built the vertex from that edge's codomain, or, if the vertex's
    conjugate was built before it, as that conjugate's mirror.  Edges
    are in the order build_graph recorded them."""
    first = {}
    for e in g.edges:
        first.setdefault(e.target, e)
    first.pop(next(iter(g.vertices)), None)
    return list(first.values())


def splitting_points(spl):
    """The Weierstrass points of y^2 = spl.curve(), read off spl's
    blocks, sorted."""
    return sorted(sum(splitting_root_pairs(spl), ()))


def dual_label(tgt, hint):
    """The label at the vertex tgt of the dual kernel in hint, the hint
    of one step onto a model of tgt, moved onto tgt's representative by
    the first isomorphism's label map m (graph._first_map), as
    build_graph moves it: a dual splitting is kernel 0 of its roots,
    listed pair by pair, and label l goes to m[l].  The frame table
    moved on is built again (move_frames)."""
    _, codomain, dual = hint
    if isinstance(dual, QuadraticSplitting):
        codomain, dual = list(sum(splitting_root_pairs(dual), ())), 0
    return graph._first_map(codomain, tgt, move_frames(tgt))[dual]


def patch_moves(monkeypatch, move=None):
    """Record each isomorphism build_graph reads to move a stepped dual
    onto another model of its target, as (src, target vertex, map): the
    graph._first_map calls made outside graph._make_vertex, whose one
    such call is the Frobenius map of a sigma-fixed vertex.  move(src,
    tgt, m), if given, returns the map the build reads instead of m."""
    calls, inside = [], []
    make, first_map = graph._make_vertex, graph._first_map

    def in_make(*args, **kwargs):
        inside.append(args)
        try:
            return make(*args, **kwargs)
        finally:
            inside.pop()

    def mapped(src, tgt, frames):
        m = first_map(src, tgt, frames)
        if inside:
            return m
        calls.append((src, tgt, m))
        return move(src, tgt, m) if move else m
    monkeypatch.setattr(graph, "_make_vertex", in_make)
    monkeypatch.setattr(graph, "_first_map", mapped)
    return calls


def count_calls(monkeypatch, name, module=genus2):
    """Record each call of module.<name> in a list, through every
    richelot module that binds the function."""
    calls = []
    real = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("richelot")
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(
                mod, name, lambda *args: calls.append(args) or real(*args))
    return calls


def clear_genus2_caches():
    """Empty the curve caches, so a count_calls pin sees every factoring
    and Moebius search the code under test would make cold."""
    for cached in (genus2._forced_free, genus2.splittings,
                   genus2.weierstrass_points, genus2.reduced_automorphisms):
        cached.cache_clear()


def square_set(ctx):
    """The nonzero squares of GF(p^2), as (a, b) pairs."""
    p, nr = ctx.p, ctx.nonresidue
    return {((a * a + nr * b * b) % p, 2 * a * b % p)
            for a in range(p) for b in range(p) if a or b}


def point_count_supersingular(E, squares=None):
    """Supersingularity by an exact count of E(GF(p^2)) on (a, b) int
    pairs: #E = (p -+ 1)^2.  The test elliptic.is_supersingular made
    before it evaluated the Hasse invariant, kept as its oracle."""
    ctx = E.ctx
    p, nr = ctx.p, ctx.nonresidue
    squares = square_set(ctx) if squares is None else squares
    rs = [(r.a, r.b) for r in E.roots()]
    count = 1  # point at infinity
    for a in range(p):
        for b in range(p):
            y = (1, 0)
            for ra, rb in rs:
                c, d = a - ra, b - rb
                y = ((y[0] * c + nr * y[1] * d) % p,
                     (y[0] * d + y[1] * c) % p)
            if y == (0, 0):
                count += 1
            elif y in squares:
                count += 2
    return count in ((p - 1) ** 2, (p + 1) ** 2)


def tonelli_oracle(x, nonsquare):
    """The lexicographically smaller square root of x, or None: Tonelli-
    Shanks on field elements, uniform over GF(p^2) and GF(p^4), given a
    non-square of x's field.  The algorithm FieldElement.sqrt and
    ExtElement.sqrt ran before the norm method, kept as their oracle."""
    ctx, q = x.ctx, x.ctx.order
    if x.is_zero():
        return x
    if x ** ((q - 1) // 2) != ctx.one:
        return None
    m, e = q - 1, 0
    while m % 2 == 0:
        m //= 2
        e += 1
    z = nonsquare ** m
    y = x ** ((m + 1) // 2)
    b = x ** m
    while b != ctx.one:
        t, k = b, 0
        while t != ctx.one:
            t = t * t
            k += 1
        y = y * (z ** (1 << (e - k - 1)))
        z = z ** (1 << (e - k))
        b = b * z
        e = k
    return min(y, -y)


def richelot_poly_oracle(s):
    """Richelot's step on FieldElement polynomials: the cofactor delta,
    G_i = (F_j' F_k - F_k' F_j)/delta by the poly_*_oracle functions
    below, and the gcd squarefree test of Genus2Curve(f).  What
    isogeny.richelot_generic computed before it ran on int pairs, kept
    as its oracle."""
    F = [block_poly(s.ctx, t) for t in s.blocks]
    r = [(g[0], g[1], g[2]) for g in F]
    d = (r[0][0] * (r[1][1] * r[2][2] - r[1][2] * r[2][1])
         - r[0][1] * (r[1][0] * r[2][2] - r[1][2] * r[2][0])
         + r[0][2] * (r[1][0] * r[2][1] - r[1][1] * r[2][0]))
    if d.is_zero():
        raise RichelotError("delta = 0: quotient is an elliptic product")
    dF = [poly_derivative_oracle(g) for g in F]
    G = [poly_mul_oracle(poly_sub_oracle(poly_mul_oracle(dF[j], F[k]),
                                         poly_mul_oracle(dF[k], F[j])),
                         d.inverse())
         for j, k in ((1, 2), (2, 0), (0, 1))]
    fprime = G[0] * G[1] * G[2]
    try:
        curve = Genus2Curve(fprime)  # the gcd squarefree test
    except genus2.Genus2Error as exc:
        raise RichelotError(f"degenerate Richelot codomain: {exc}") from exc
    return curve, splitting_of([poly_monic_oracle(g) for g in G],
                               fprime.leading())


def transform_curve_oracle(curve, a, b, c, d):
    """Model change by x -> (ax + b)/(cx + d): each (a x + b z)^k
    (c x + d z)^(6-k) binomially expanded and convolved by hand.  What
    genus2.transform_curve computed before it multiplied Poly powers,
    kept as its oracle."""
    ctx = curve.ctx
    if (a * d - b * c).is_zero():
        raise genus2.Genus2Error("singular substitution")

    def binom_power(u, v, k):
        return [ctx.from_int(comb(k, t)) * (u ** t) * (v ** (k - t))
                for t in range(k + 1)]

    out = [ctx.zero] * 7
    for k in range(7):
        ck = curve.f[k]
        if ck.is_zero():
            continue
        conv = [ctx.zero] * 7
        for i1, c1 in enumerate(binom_power(a, b, k)):
            for i2, c2 in enumerate(binom_power(c, d, 6 - k)):
                conv[i1 + i2] = conv[i1 + i2] + c1 * c2
        for t in range(7):
            out[t] = out[t] + ck * conv[t]
    return Genus2Curve(Poly(ctx, out))


def torsion_apply_oracle(perm1, perm2, swap, element):
    """(a, b) -> (perm1[a], perm2[b]); or, when swap is a matching psi
    of the factors, (psi^-1[b], psi[a]).  The three-branch
    gluing.TorsionActionGenerator.apply before one formula with a swap
    flag replaced it, kept as its oracle."""
    a, b = element
    if swap:
        psi = swap
        inv = {psi[t]: t + 1 for t in range(3)}
        return (inv[b] if b else 0, psi[a - 1] if a else 0)
    return (perm1[a - 1] if a else 0, perm2[b - 1] if b else 0)


def kernel_map_oracle(*steps):
    """The kernel label map of torsion_apply_oracle's element maps, one
    (perm1, perm2, swap) triple per step, applied in order: label n
    goes to the kernel holding the images of the elements of
    product_kernels()[n]."""
    kernels = [k.elements() for k in product_kernels()]
    out = []
    for elements in kernels:
        for step in steps:
            elements = frozenset(torsion_apply_oracle(*step, x)
                                 for x in elements)
        out.append(kernels.index(elements))
    return tuple(out)


def block_roots_oracle(g, ctx):
    """The two points of a monic block (c0, c1, c2) of int pairs, INF
    partnering a linear block's root; None when the block is irreducible
    over GF(p^2).  FieldElement arithmetic throughout: what
    genus2._block_roots computed before it ran on int pairs, kept as its
    oracle; the points as genus2 holds them, (a, b) pairs or INF."""
    c, b = (FieldElement(ctx, *x) for x in g[:2])
    if g[2] == (0, 0):
        return (-c).key(), INF
    s = (b * b - 4 * c).sqrt()
    if s is None:
        return None
    half = ctx.from_int(2).inverse()
    return ((s - b) * half).key(), ((-b - s) * half).key()


def isomorphisms_oracle(E, E2):
    """The 2-torsion matchings (pi(1), pi(2), pi(3)) of the affine maps
    x -> alpha*x + beta taking the roots of E onto the pi-relabelled
    roots of E2, solved by one FieldElement division per permutation:
    elliptic.isomorphisms_with_torsion before it ran on int pairs, kept
    as its oracle."""
    out = []
    r = E.roots()
    t = E2.roots()
    for perm in ((1, 2, 3), (1, 3, 2), (2, 1, 3), (2, 3, 1),
                 (3, 1, 2), (3, 2, 1)):
        alpha = (t[perm[0] - 1] - t[perm[1] - 1]) / (r[0] - r[1])
        beta = t[perm[0] - 1] - alpha * r[0]
        if alpha * r[2] + beta == t[perm[2] - 1]:
            out.append(perm)
    return out


def _pencil_square_root(trip, K):
    """U with U^2 proportional to the perfect-square quadratic trip;
    (1, 0) when it is constant."""
    c0, c1, c2 = trip
    if c2.is_zero():
        if not c1.is_zero():
            raise RichelotError("pencil member is linear, not a square")
        return (K.one, K.zero)
    return (c1 * c2.inverse() * K.from_int(2).inverse(), K.one)


def _pencil_coordinates(P, Q, F):
    """(alpha, beta) with F = alpha*P + beta*Q, for coefficient triples."""
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            det = P[r1] * Q[r2] - P[r2] * Q[r1]
            if det.is_zero():
                continue
            dinv = det.inverse()
            al = (F[r1] * Q[r2] - F[r2] * Q[r1]) * dinv
            be = (P[r1] * F[r2] - P[r2] * F[r1]) * dinv
            if any(al * P[t] + be * Q[t] != F[t] for t in range(3)):
                raise RichelotError("inconsistent U^2/V^2 decomposition")
            return al, be
    raise RichelotError("U^2 and V^2 are not independent")


@dataclass(frozen=True)
class DegenerateSplitData:
    """Witness of the decomposition F_i = alpha_i U^2 + beta_i V^2.

    U and V are coefficient pairs (c0, c1) for c0 + c1*x, with (1, 0)
    for a fixed point at infinity.  `blocks` holds the blocks as
    coefficient triples (c0, c1, c2) of FieldElements.  Indexing
    follows the splitting's block order.
    """

    U: tuple
    V: tuple
    alphas: tuple
    betas: tuple
    blocks: tuple

    def verify(self) -> bool:
        """Check F_i = alpha_i U^2 + beta_i V^2 coefficientwise."""
        u0, u1 = self.U
        v0, v1 = self.V
        usq = (u0 * u0, 2 * (u0 * u1), u1 * u1)
        vsq = (v0 * v0, 2 * (v0 * v1), v1 * v1)
        return all(al * usq[t] + be * vsq[t] == g[t]
                   for g, al, be in zip(self.blocks, self.alphas, self.betas)
                   for t in range(3))


def split_pencil_oracle(s):
    """A delta = 0 quotient split by the pencil method: F1 + t*F2 is a
    perfect square U^2, V^2 at the two roots t of its discriminant, and
    each block is solved for its coordinates F_i = alpha_i U^2 + beta_i
    V^2.  When the roots t are irrational, so are U and V, and it raises
    IrrationalPointsError on the product of the blocks.  Returns
    (E, E2, witness): E: y^2 = prod(alpha_i x + beta_i) and
    E2: y^2 = prod(beta_i x + alpha_i), with roots in block order, and
    the DegenerateSplitData of the decomposition.  What
    isogeny.split_degenerate computed before the closed form at the
    pencil's fixed points, kept as its oracle."""
    ctx = s.ctx
    blocks = [block_poly(ctx, t) for t in s.blocks]
    trip = [(g[0], g[1], g[2]) for g in blocks]
    i1, i2 = [i for i, g in enumerate(blocks) if g.degree() == 2][:2]
    F1, F2 = trip[i1], trip[i2]
    d2 = F2[1] * F2[1] - 4 * (F2[2] * F2[0])
    d1 = 2 * (F1[1] * F2[1]) - 4 * (F1[2] * F2[0] + F1[0] * F2[2])
    d0 = F1[1] * F1[1] - 4 * (F1[2] * F1[0])
    disc, K = d1 * d1 - 4 * (d2 * d0), ctx
    if disc.sqrt() is None:
        raise IrrationalPointsError(
            blocks[0] * blocks[1] * blocks[2] * FieldElement(ctx, *s.scale))
    root, den = disc.sqrt(), (K.from_int(2) * d2).inverse()
    t1, t2 = (root - d1) * den, -(root + d1) * den
    U, V = (_pencil_square_root(tuple(a + t * b for a, b in zip(F1, F2)), K)
            for t in (t1, t2))
    usq = (U[0] * U[0], 2 * (U[0] * U[1]), U[1] * U[1])
    vsq = (V[0] * V[0], 2 * (V[0] * V[1]), V[1] * V[1])
    alphas, betas = zip(*(_pencil_coordinates(usq, vsq, t) for t in trip))
    e_roots = [-(be / al) for al, be in zip(alphas, betas)]
    e2_roots = [-(al / be) for al, be in zip(alphas, betas)]
    return (EllipticCurveE2(*e_roots), EllipticCurveE2(*e2_roots),
            DegenerateSplitData(U, V, alphas, betas, tuple(trip)))


def split_outcome(split, spl):
    """The unordered pair of the factors' root triples, each in block
    order, that split (split_degenerate or split_pencil_oracle) gives
    on spl, or the IrrationalPointsError text."""
    try:
        E, E2 = split(spl)[:2]
    except IrrationalPointsError as exc:
        return str(exc)
    return frozenset(tuple(r.key() for r in F.roots()) for F in (E, E2))


def check_split_against_oracle(spl):
    """split_degenerate's (E, E2) on a rational delta = 0 splitting is
    the pencil oracle's pair, and the oracle's witness verifies."""
    got = split_outcome(isogeny.split_degenerate, spl)
    assert not isinstance(got, str), got
    assert got == split_outcome(split_pencil_oracle, spl)
    assert split_pencil_oracle(spl)[2].verify()


# ---------------------------------------------------------------------------
# FieldElement polynomial oracles: Poly's arithmetic and poly's factoring
# as they ran on FieldElement coefficients before the int-pair kernels,
# kept as the references those kernels are checked against.  Each builds
# Polys by the constructor only, so no Poly operator runs inside them.


def poly_sub_oracle(f, g):
    n = max(len(f.coeffs), len(g.coeffs))
    return Poly(f.ctx, [f[k] - g[k] for k in range(n)])


def poly_mul_oracle(f, g):
    """f*g, g a Poly or a FieldElement scalar."""
    ctx = f.ctx
    if isinstance(g, FieldElement):
        return Poly(ctx, [c * g for c in f.coeffs])
    if f.is_zero() or g.is_zero():
        return Poly(ctx, [])
    out = [ctx.zero] * (len(f.coeffs) + len(g.coeffs) - 1)
    for i, a in enumerate(f.coeffs):
        if a.is_zero():
            continue
        for j, b in enumerate(g.coeffs):
            out[i + j] = out[i + j] + a * b
    return Poly(ctx, out)


def poly_divmod_oracle(f, g):
    ctx = f.ctx
    if g.is_zero():
        raise ZeroDivisionError("polynomial division by zero")
    rem = list(f.coeffs)
    dq = len(rem) - len(g.coeffs)
    if dq < 0:
        return Poly(ctx, []), f
    quo = [ctx.zero] * (dq + 1)
    inv_lead = g.leading().inverse()
    for k in range(dq, -1, -1):
        c = rem[k + g.degree()] * inv_lead
        quo[k] = c
        if not c.is_zero():
            for j, b in enumerate(g.coeffs):
                rem[k + j] = rem[k + j] - c * b
    return Poly(ctx, quo), Poly(ctx, rem)


def poly_derivative_oracle(f):
    return Poly(f.ctx, [f.coeffs[k] * k for k in range(1, len(f.coeffs))])


def poly_monic_oracle(f):
    return f if f.is_zero() else poly_mul_oracle(f, f.leading().inverse())


def poly_gcd_oracle(f, g):
    """Monic greatest common divisor."""
    while not g.is_zero():
        f, g = g, poly_divmod_oracle(f, g)[1]
    return poly_monic_oracle(f)


def poly_powmod_oracle(f, e, m):
    """f^e mod m, e >= 0, by right-to-left square and multiply."""
    if e < 0:
        raise PolyError(f"negative exponent {e} in a power mod m")
    result = Poly(f.ctx, [f.ctx.one])
    base = poly_divmod_oracle(f, m)[1]
    while e:
        if e & 1:
            result = poly_divmod_oracle(poly_mul_oracle(result, base), m)[1]
        base = poly_divmod_oracle(poly_mul_oracle(base, base), m)[1]
        e >>= 1
    return result


def is_squarefree_oracle(f):
    if f.is_zero():
        raise PolyError("squarefree test of zero polynomial")
    if f.degree() == 0:
        return True
    return poly_gcd_oracle(f, poly_derivative_oracle(f)).degree() == 0


def _cz_split_oracle(h, e, ncoeffs, rng):
    """A proper factor gcd(h, u^e - 1) of h, u random monic with ncoeffs
    random coefficients below its leading one."""
    ctx = h.ctx
    one = Poly(ctx, [ctx.one])
    while True:
        u = Poly(ctx, [ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))
                       for _ in range(ncoeffs)] + [ctx.one])
        d = poly_gcd_oracle(h, poly_sub_oracle(poly_powmod_oracle(u, e, h),
                                               one))
        if 0 < d.degree() < h.degree():
            return d


def _distinct_roots_oracle(f, rng):
    ctx = f.ctx
    x = Poly(ctx, [ctx.zero, ctx.one])
    g = poly_gcd_oracle(f, poly_sub_oracle(
        poly_powmod_oracle(x, ctx.order, f), x))
    roots, stack = [], [g]
    while stack:
        h = stack.pop()
        if h.degree() == 1:
            roots.append(-h[0] / h[1])
        elif h.degree() > 1:
            d = _cz_split_oracle(h, (ctx.order - 1) // 2, 1, rng)
            stack += [d, poly_divmod_oracle(h, d)[0]]
    return roots


def roots_oracle(f):
    """All roots of f in GF(p^2), with multiplicity, sorted."""
    if f.is_zero():
        raise PolyError("roots of zero polynomial")
    rng = random.Random(0x52494348 ^ f.degree())
    out = []
    for r in _distinct_roots_oracle(f, rng):
        lin = Poly(f.ctx, [-r, f.ctx.one])
        g = f
        while True:
            q, rem = poly_divmod_oracle(g, lin)
            if not rem.is_zero():
                break
            out.append(r)
            g = q
    return sorted(out)


def factor_oracle(f):
    """poly.factor_quadratic_pieces on FieldElement polynomials: the same
    (linears, quadratics) or the same PolyError."""
    ctx = f.ctx
    if f.is_zero() or f.degree() < 1:
        raise PolyError("need a nonconstant polynomial")
    if not is_squarefree_oracle(f):
        raise PolyError("polynomial is not squarefree")
    rng = random.Random(0x46414354 ^ f.degree())
    q = ctx.order
    linears = sorted((Poly(ctx, [-r, ctx.one])
                      for r in _distinct_roots_oracle(f, rng)), key=Poly.key)
    cof = poly_monic_oracle(f)
    for lin in linears:
        cof = poly_divmod_oracle(cof, lin)[0]
    quads = []
    if cof.degree() > 0:
        x = Poly(ctx, [ctx.zero, ctx.one])
        xq2 = poly_powmod_oracle(x, q * q, cof)
        if cof.degree() % 2 != 0 or not poly_divmod_oracle(
                poly_sub_oracle(xq2, x), cof)[1].is_zero():
            raise PolyError("irreducible factor of degree > 2")
        stack = [cof]
        while stack:
            h = stack.pop()
            if h.degree() == 2:
                quads.append(poly_monic_oracle(h))
            else:
                d = _cz_split_oracle(h, (q * q - 1) // 2, 3, rng)
                stack += [d, poly_divmod_oracle(h, d)[0]]
    quads.sort(key=Poly.key)
    check = Poly(ctx, [f.leading()])
    for g in linears + quads:
        check = poly_mul_oracle(check, g)
    if check != f:
        raise PolyError("factorization failed to reproduce input")
    return linears, quads


def nth_root_old_scan_oracle(ctx, n):
    """FieldCtx.nth_root_of_unity as it was before the field's generator
    was cached: the lex scan over GF(p^2)^* for the first x whose
    x^((p^2 - 1)/n) is primitive, then the least primitive power."""
    if (ctx.order - 1) % n != 0:
        return None
    for x in ctx.elements():
        if x.is_zero():
            continue
        powers = [x ** ((ctx.order - 1) // n)]
        while len(powers) < n:
            powers.append(powers[-1] * powers[0])
        if powers.index(ctx.one) == n - 1:
            return min(z for k, z in enumerate(powers, 1) if gcd(k, n) == 1)


# ---------------------------------------------------------------------------
# FieldElement oracles of the elliptic, gluing and Bolza steps: each is the
# step as it ran on FieldElement objects before the int-pair kernels, kept
# as the reference the int-pair step is checked against.


def j_invariant_oracle(E):
    """elliptic.j_invariant by the cross-ratio lam = (r3 - r1)/(r2 - r1):
    256 (lam^2 - lam + 1)^3 / (lam^2 (lam - 1)^2)."""
    lam = (E.r3 - E.r1) / (E.r2 - E.r1)
    one = E.ctx.one
    num = (lam * lam - lam + one) ** 3 * 256
    den = (lam * lam) * ((lam - one) * (lam - one))
    return num / den


def two_isogeny_oracle(E, i):
    """elliptic.two_isogeny by Velu's formulas on FieldElements: the
    codomain (rk, rk + A + 2s, rk + A - 2s), its last two roots sorted,
    with A = -(a + b), s = sqrt(ab), a and b the other roots minus rk."""
    ctx = E.ctx
    rk = E.root(i)
    a, b = (E.root(k) - rk for k in (1, 2, 3) if k != i)
    A = -(a + b)
    s = (a * b).sqrt()
    if s is None:
        raise NonSplitTorsionError("codomain 2-torsion is irrational")
    two = ctx.from_int(2)
    r_new = [rk, rk + (A + two * s), rk + (A - two * s)]
    if r_new[2] < r_new[1]:
        r_new[1], r_new[2] = r_new[2], r_new[1]
    return EllipticCurveE2(*r_new)


def hlp_blocks_oracle(S, pi):
    """The three HLP blocks (c0, 0, c2) of the kernel K_pi on S, as
    FieldElement triples: a1, a2, b1, b2, the products of the squared
    root differences, A = (a1/a2) prod_sp and B = (b1/b2) prod_s, eight
    inverses in all.  None when a2 or b2 vanishes."""
    ctx = S.ctx
    s = S.E1.roots()
    sp = tuple(S.E2.root(pi[t]) for t in range(3))
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    a2 = sum((s[i] * (sp[k] - sp[j]) for i, j, k in cyc), ctx.zero)
    b2 = sum((sp[i] * (s[k] - s[j]) for i, j, k in cyc), ctx.zero)
    if a2.is_zero() or b2.is_zero():
        return None
    a1 = sum(((s[j] - s[i]) * (s[j] - s[i]) / (sp[j] - sp[i])
              for i, j, _ in cyc), ctx.zero)
    b1 = sum(((sp[j] - sp[i]) * (sp[j] - sp[i]) / (s[j] - s[i])
              for i, j, _ in cyc), ctx.zero)
    prod_sp = prod_s = ctx.one
    for i, j, _ in cyc:
        prod_sp = prod_sp * ((sp[i] - sp[j]) * (sp[i] - sp[j]))
        prod_s = prod_s * ((s[i] - s[j]) * (s[i] - s[j]))
    A = (a1 / a2) * prod_sp
    B = (b1 / b2) * prod_s
    return [(B * ((sp[j] - sp[i]) * (sp[i] - sp[k])), ctx.zero,
             A * ((s[j] - s[i]) * (s[i] - s[k]))) for i, j, k in cyc]


def quotient_diagonal_oracle(S, k):
    """gluing.quotient_diagonal with the HLP chain of hlp_blocks_oracle:
    S for an isomorphism-induced kernel, else the curve y^2 = -F1 F2 F3
    and its dual splitting {F1, F2, F3}."""
    if k.perm in isomorphisms_oracle(S.E1, S.E2):
        return S
    ctx, blocks = S.ctx, hlp_blocks_oracle(S, k.perm)
    if blocks is None:
        raise DegenerateGluingError("HLP denominator vanished", k)
    polys = [Poly(ctx, list(b)) for b in blocks]
    f = poly_mul_oracle(poly_mul_oracle(poly_mul_oracle(
        polys[0], polys[1]), polys[2]), -ctx.one)
    try:
        curve = Genus2Curve(f)  # the gcd squarefree test
    except Genus2Error as exc:
        raise DegenerateGluingError(f"glued curve invalid: {exc}", k) \
            from exc
    return curve, splitting_of([poly_monic_oracle(g) for g in polys],
                               f.leading())


def split_degenerate_oracle(s):
    """isogeny.split_degenerate on FieldElements: the fixed points u, v
    of the pencil, the roots of g2 x^2 + 2h x + g0 (v at infinity when
    g2 = 0), and the factors' roots -F_i(u)/F_i(v) and -F_i(v)/F_i(u),
    one inverse each."""
    K = s.ctx
    trip = [tuple(FieldElement(K, *c) for c in g) for g in s.blocks]
    (c0, b0, a0), (c1, b1, a1) = trip[0], trip[1]
    g2, h, g0 = a0 * b1 - a1 * b0, a0 * c1 - a1 * c0, b0 * c1 - b1 * c0
    disc = h * h - g2 * g0
    if disc.is_zero():
        raise RichelotError("repeated fixed point; blocks share a root")
    root = disc.sqrt()
    if root is None:
        raise IrrationalPointsError(Poly.from_pairs(
            K, genus2.block_product(K, s.blocks, s.scale)))
    if g2.is_zero():
        u = -(g0 / (2 * h))
        Fv = [t[2] for t in trip]
    else:
        u, v = (root - h) / g2, -(root + h) / g2
        Fv = [t[0] + v * (t[1] + v * t[2]) for t in trip]
    Fu = [t[0] + u * (t[1] + u * t[2]) for t in trip]
    if any(x.is_zero() for x in Fu + Fv):
        raise RichelotError(
            "degenerate alpha/beta; input cannot be squarefree")
    return (EllipticCurveE2(*(-(a / b) for a, b in zip(Fu, Fv))),
            EllipticCurveE2(*(-(b / a) for a, b in zip(Fu, Fv))))


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


def derived_invariants(cp):
    """Bolza's derived invariants of a ClebschPoint, on FieldElements."""
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


def ra_type_from_clebsch_oracle(cp):
    """genus2.ra_type_from_clebsch with Bolza's rows on FieldElements
    and derived_invariants."""
    zero = cp.A.ctx.zero
    A, B, C, D = cp.A, cp.B, cp.C, cp.D
    dv = derived_invariants(cp)
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


def ra_type_from_automorphisms(curve) -> str:
    """RA-type from the order (1/2/4/5/6/12/24) of reduced_automorphisms:
    the Moebius classifier genus2 exported while no src path called it,
    kept as the oracle the Clebsch classifier is checked against."""
    order = len(reduced_automorphisms(curve))
    if order not in JACOBIAN_ORDER_TO_TYPE:
        raise ClassificationError(
            f"unexpected reduced automorphism group order {order}")
    return JACOBIAN_ORDER_TO_TYPE[order]


def canonical_key_oracle(cp):
    """genus2.canonical_key on FieldElements: mu is 1/A, else B/C, else
    B^2/D, else D/C^2, and the key is (mu A, mu^2 B, mu^3 C, mu^5 D)."""
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
    elif not B.is_zero():
        mu = (B * B) / D
    else:
        mu = D / (C * C)
    mu2 = mu * mu
    mu3 = mu2 * mu
    mu5 = mu3 * mu2
    return ((mu * A).key(), (mu2 * B).key(), (mu3 * C).key(),
            (mu5 * D).key())


def ra_type_of_oracle(rep):
    """graph.ra_type_of in its curve form, from a representative: the
    Bolza rows on a curve's own Clebsch point, or a product's j's."""
    if isinstance(rep, Genus2Curve):
        return ra_type_from_clebsch_oracle(genus2.clebsch_invariants(rep))
    return gluing.ra_type_product_vertex(j_invariant_oracle(rep.E1),
                                        j_invariant_oracle(rep.E2))
