"""Normal forms for each vertex type and edge-table verification.

Each case instantiates its normal form over GF(p^2) (sampling free
parameters under genericity constraints, reparametrized for full
rational 2-torsion), computes its neighbourhood, and compares the
multiset of (weight, codomain type | loop) against the known local
edge data, including the prime-specific specializations.  A Jacobian
normal form reaches neighbourhood as its K_1 splitting, whose blocks
carry its known Weierstrass points, so no normal form is factored.

The fifteen kernels of the two-parameter curve
y^2 = (x^2 - 1)(x^2 - s^2)(x^2 - t^2) carry a fixed indexing
K_1..K_15; this module owns that list, plus the index relabellings
induced by the parameter symmetries (s, t) -> (+-s, +-t), (t, s)
(the same curve with a different parameter choice permutes the
indices, which is the one degree of freedom in how the classical
kernel actions are labelled).
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass

try:  # the lean builtin, as random does: hashlib would load OpenSSL
    from _sha256 import sha256
except ImportError:  # Python 3.12 and later
    from hashlib import sha256

from .elliptic import EllipticCurveE2, curve_from_j, j_invariant, two_isogeny
from .field import FieldCtx
from .genus2 import (INF, Genus2Curve, QuadraticSplitting, RAType,
                     matching_splitting, orbit_partition, pairing_index)
from .gluing import ProductSurface
from .graph import VertexKey, neighbourhood, ra_type_of
from .poly import Poly


class AtlasError(ValueError):
    """Bad case name, parameters, or unsatisfiable construction."""


JACOBIAN_CASES = ("I", "III", "IV", "V", "VI", "II")
PRODUCT_CASES = (RAType.PI, RAType.SIGMA, RAType.PI0, RAType.PI1728,
                 RAType.PI01728, RAType.SIGMA0, RAType.SIGMA1728)
ALL_CASES = JACOBIAN_CASES + PRODUCT_CASES


# ---------------------------------------------------------------------------
# The indexed kernel list of C_I(s, t)


def curve_two_param(ctx: FieldCtx, s, t) -> Genus2Curve:
    """y^2 = (x^2 - 1)(x^2 - s^2)(x^2 - t^2), checked generic: of_blocks."""
    one = ctx.one
    bad = s * t * (s * s - one) * (t * t - one) * (s * s - t * t)
    if bad.is_zero():
        raise AtlasError("parameters violate st(s^2-1)(t^2-1)(s^2-t^2) != 0")
    return Genus2Curve.of_blocks(ctx, [((-c).key(), (0, 0), (1, 0))
                                       for c in (one, s * s, t * t)], (1, 0))


def _root_pairs(ctx, s, t):
    """K_1..K_15 as matchings of the Weierstrass points, (a, b) pairs."""
    one = ctx.one
    return [[(x.key(), y.key()) for x, y in m] for m in [
        [(one, -one), (s, -s), (t, -t)],            # K1
        [(one, -one), (-s, -t), (s, t)],            # K2
        [(one, -one), (-s, t), (s, -t)],            # K3
        [(s, -s), (-one, -t), (one, t)],            # K4
        [(s, -s), (one, -t), (t, -one)],            # K5
        [(t, -t), (-one, -s), (one, s)],            # K6
        [(t, -t), (one, -s), (-one, s)],            # K7
        [(one, -s), (t, -one), (s, -t)],            # K8
        [(s, -one), (one, -t), (t, -s)],            # K9
        [(s, -one), (t, one), (-s, -t)],            # K10
        [(one, -s), (-one, -t), (s, t)],            # K11
        [(-one, -s), (one, -t), (s, t)],            # K12
        [(one, s), (t, -one), (-s, -t)],            # K13
        [(-one, -s), (one, t), (s, -t)],            # K14
        [(one, s), (-one, -t), (t, -s)],            # K15
    ]]


def normal_form_splitting(ctx: FieldCtx, st) -> QuadraticSplitting:
    """K_1 of the Jacobian normal form with normal_form's second value
    st: of curve_two_param(ctx, *st), or of x^5 - 1 for st = None.  Its
    curve() is the normal form."""
    pairs = type_ii_kernels(ctx)[0] if st is None else _root_pairs(ctx, *st)[0]
    return matching_splitting(ctx, (), pairs, (1, 0))


def index_relabellings(ctx: FieldCtx, s, t) -> list:
    """Index permutations induced by the parameter symmetries.

    (s, t), (-s, t), (s, -t), (-s, -t), and each swapped, define the
    same curve; each choice permutes the kernel indices.  Returns the
    (up to) eight permutations as dicts on 1..15.
    """
    base = {pairing_index(m): i + 1
            for i, m in enumerate(_root_pairs(ctx, s, t))}
    perms = []
    for (a, b) in ((s, t), (-s, t), (s, -t), (-s, -t),
                   (t, s), (-t, s), (t, -s), (-t, -s)):
        perm = {i + 1: base[pairing_index(m)]
                for i, m in enumerate(_root_pairs(ctx, a, b))}
        if perm not in perms:
            perms.append(perm)
    return perms


def orbit_partition_on_indices(ctx: FieldCtx, s, t) -> list:
    """RA-orbit partition of the kernels of curve_two_param(ctx, s, t),
    in K-indices, sorted: its neighbourhood's edge labels, translated
    from K_i's root pairs by genus2.pairing_index."""
    k_of = {pairing_index(m): i + 1
            for i, m in enumerate(_root_pairs(ctx, s, t))}
    edges = neighbourhood(normal_form_splitting(ctx, (s, t)))
    if len(k_of) != 15 or set(k_of) != {k for e in edges for k in e.kernels}:
        raise AtlasError("kernel indexing is not a bijection")
    return sorted(tuple(sorted(k_of[k] for k in e.kernels)) for e in edges)


# ---------------------------------------------------------------------------
# Kernel-index actions of the classical special curves (orbit fixtures)


def _perm_from_cycles(cycles) -> dict:
    pm = {i: i for i in range(1, 16)}
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            pm[a] = b
    return pm


SIGMA_STAR = _perm_from_cycles([(8, 9), (10, 11), (12, 13), (14, 15)])
TAU_STAR_III = _perm_from_cycles([(4, 6), (5, 7), (10, 13), (11, 12)])
RHO_STAR = _perm_from_cycles([(1, 9, 8), (2, 15, 14), (4, 12, 13),
                              (6, 10, 11)])
TAU_STAR_V = _perm_from_cycles([(4, 6), (5, 7), (8, 9), (10, 13),
                                (11, 12), (14, 15)])
ZETA_STAR_V = _perm_from_cycles([(2, 4, 6), (3, 5, 7), (8, 9),
                                 (10, 14, 12, 11, 15, 13)])
OMEGA_STAR = _perm_from_cycles([(1, 4), (2, 14, 7, 15), (3, 10, 6, 11),
                                (8, 9, 13, 12)])

PERMUTATION_FIXTURES = {
    "I": [SIGMA_STAR],
    "III": [SIGMA_STAR, TAU_STAR_III],
    "IV": [SIGMA_STAR, RHO_STAR],
    "V": [TAU_STAR_V, ZETA_STAR_V],
    "VI": [SIGMA_STAR, RHO_STAR, OMEGA_STAR],
}


def expected_permutation_actions(case: str) -> list:
    """Known generator actions on kernel indices for a case."""
    if case not in PERMUTATION_FIXTURES:
        raise AtlasError(f"no permutation fixtures for case {case}")
    return [dict(pm) for pm in PERMUTATION_FIXTURES[case]]


# ---------------------------------------------------------------------------
# Normal forms


def _sample_element(ctx, rng):
    return ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))


def _sample_curve_E(ctx, rng, exclude=()):
    """Random elliptic curve with split torsion, j not in exclude.

    Also requires the three 2-isogeny codomains to have rational
    2-torsion, so product-kernel quotients stay computable (automatic
    at superspecial vertices, a sampling condition for generic ones).
    """
    from .elliptic import NonSplitTorsionError
    for _ in range(400):
        roots = []
        while len(roots) < 3:
            x = _sample_element(ctx, rng)
            if all(x != r for r in roots):
                roots.append(x)
        E = EllipticCurveE2(*roots)
        j = j_invariant(E)
        if any(j == ctx.from_int(v) for v in exclude):
            continue
        try:
            for i in (1, 2, 3):
                two_isogeny(E, i)
        except NonSplitTorsionError:
            continue
        return E
    raise AtlasError("could not sample a generic elliptic curve")


def s_t_type_iv(ctx: FieldCtx, v):
    """The Type-IV reparametrization s(v), t(v) through zeta_3."""
    z3 = ctx.nth_root_of_unity(3)
    one = ctx.one
    d1 = (v - one) * (v + z3)
    d2 = (v - one) * (v + z3 * z3)
    if d1.is_zero() or d2.is_zero():
        raise AtlasError("parameter collides with a pole of s(v), t(v)")
    s = (v + one) * (v - z3) / d1
    t = (v + one) * (v - z3 * z3) / d2
    return s, t


def _s_t(case: str, ctx: FieldCtx, x):
    """(s, t) of the Type-I, III or IV normal form with free parameters
    x: (s, t) itself, (u, 1/u), or s_t_type_iv(v)."""
    if case == "I":
        return x
    if case == "IV":
        return s_t_type_iv(ctx, x[0])
    u = x[0]
    if u.is_zero() or u ** 4 == ctx.one:
        raise AtlasError("u must be nonzero and u**4 must not be 1")
    return u, u.inverse()


def normal_form(case: str, ctx: FieldCtx, params=None, rng=None):
    """Vertex representative for a case; samples free parameters.

    Jacobian cases return (Genus2Curve, (s, t)); product cases a
    ProductSurface.  Sampled parameters are redrawn until the vertex
    classifies as exactly the intended type, by ra_type_of its key, as
    the graph classifies.  Case I takes two params,
    III and IV one, every other case none.
    """
    if case not in ALL_CASES:
        raise AtlasError(f"unknown case {case!r}")
    k = {"I": 2, "III": 1, "IV": 1}.get(case, 0)
    if params is not None and len(params) != k:
        raise AtlasError(f"case {case} takes {k} parameters, "
                         f"got {len(params)}")
    rng = rng or random.Random(0)
    if case in ("I", "III", "IV"):
        for _ in range(400):
            x = params or [_sample_element(ctx, rng)
                           for _ in range(2 if case == "I" else 1)]
            try:
                s, t = _s_t(case, ctx, x)
                C = curve_two_param(ctx, s, t)
            except (AtlasError, ValueError):
                if params:
                    raise
                continue
            if params or ra_type_of(VertexKey.jacobian(C), ctx) == case:
                return C, (s, t)
        raise AtlasError(f"no generic Type-{case} parameters found")
    if case == "V":
        z6 = ctx.nth_root_of_unity(6)
        C = curve_two_param(ctx, z6, z6.inverse())
        return C, (z6, z6.inverse())
    if case == "VI":
        z12 = ctx.nth_root_of_unity(12)
        sqrt2 = ctx.from_int(2).sqrt()
        v = (z12 * z12 + z12 + ctx.one) / sqrt2
        s, t = s_t_type_iv(ctx, v)
        return curve_two_param(ctx, s, t), (s, t)
    if case == "II":
        if ctx.nth_root_of_unity(5) is None:
            raise AtlasError(
                f"x^5 - 1 has irrational kernels at p = {ctx.p}")
        return Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1])), None
    if case == RAType.PI:
        E1 = _sample_curve_E(ctx, rng, exclude=(0, 1728))
        for _ in range(200):
            E2 = _sample_curve_E(ctx, rng, exclude=(0, 1728))
            if j_invariant(E2) != j_invariant(E1):
                return ProductSurface(E1, E2)
        raise AtlasError(
            f"no generic product pair exists at p = {ctx.p}")
    if case == RAType.SIGMA:
        E = _sample_curve_E(ctx, rng, exclude=(0, 1728))
        return ProductSurface(E, E)
    if case == RAType.PI0:
        return ProductSurface(_sample_curve_E(ctx, rng, exclude=(0, 1728)),
                              curve_from_j(ctx, ctx.zero))
    if case == RAType.PI1728:
        return ProductSurface(_sample_curve_E(ctx, rng, exclude=(0, 1728)),
                              curve_from_j(ctx, ctx.from_int(1728)))
    e0, e1728 = (curve_from_j(ctx, ctx.from_int(j)) for j in (0, 1728))
    if case == RAType.PI01728:
        return ProductSurface(e0, e1728)
    if case == RAType.SIGMA0:
        return ProductSurface(e0, e0)
    return ProductSurface(e1728, e1728)  # RAType.SIGMA1728


# ---------------------------------------------------------------------------
# Expected edge data (weight, codomain type or "loop"), by case and prime

LOOP = "loop"

EDGE_TABLES = {
    "I": {None: [(1, RAType.PI)] + [(1, RAType.I)] * 6
          + [(2, RAType.A)] * 4},
    "III": {None: [(1, RAType.SIGMA), (1, LOOP), (1, RAType.SIGMA),
                   (2, RAType.I), (2, RAType.I), (2, RAType.I),
                   (2, RAType.I), (4, RAType.A)]},
    "IV": {None: [(3, RAType.PI), (3, RAType.I), (3, RAType.I),
                  (3, RAType.I), (1, RAType.IV), (1, RAType.IV),
                  (1, RAType.IV)],
           # each of the 24 Type-IV parameters at p = 7 sends one
           # weight-1 orbit to Type V or back to the vertex: no row
           7: None},
    "V": {
        None: [(1, RAType.SIGMA0), (3, LOOP), (3, RAType.SIGMA),
               (2, RAType.IV), (6, RAType.I)],
        11: [(1, RAType.SIGMA0), (3, LOOP), (3, RAType.SIGMA1728),
             (2, RAType.IV), (6, RAType.IV)],
        17: [(1, RAType.SIGMA0), (3, LOOP), (3, RAType.SIGMA),
             (2, RAType.IV), (6, LOOP)],
        29: [(1, RAType.SIGMA0), (3, LOOP), (3, RAType.SIGMA),
             (2, RAType.VI), (6, RAType.I)],
        41: [(1, RAType.SIGMA0), (3, LOOP), (3, RAType.SIGMA),
             (2, RAType.IV), (6, RAType.III)],
    },
    "VI": {
        None: [(6, RAType.SIGMA), (4, RAType.IV), (4, RAType.IV),
               (1, LOOP)],
        7: [(6, RAType.SIGMA1728), (4, LOOP), (4, LOOP), (1, LOOP)],
        # no superspecial Type-V vertex exists at p = 13 (its count is
        # zero), so no IV/V split can occur there: one orbit is
        # Type-IV and the other returns to the vertex itself, via an
        # explicit isomorphism
        13: [(6, RAType.SIGMA), (4, RAType.IV), (4, LOOP), (1, LOOP)],
        29: [(6, RAType.SIGMA), (4, RAType.IV), (4, RAType.V), (1, LOOP)],
    },
    # Type-II is verified per-kernel; see TYPE_II_TABLE.
    RAType.PI: {None: [(1, RAType.PI)] * 9 + [(1, RAType.I)] * 6},
    # at p = 7 the sampled factor E of the Sigma, Pi0 and Pi1728 rows
    # always has j = 2 = 54000, a 2-neighbour of j = 0: it is the one j
    # outside {0, 1728} whose curves and their 2-isogenous curves all
    # have rational 2-torsion; columns derived by enumeration
    RAType.SIGMA: {None: [(1, RAType.SIGMA)] * 3 + [(2, RAType.PI)] * 3
                   + [(1, LOOP)] + [(1, RAType.III)] * 3
                   + [(2, RAType.I)],
                   7: [(1, RAType.SIGMA)] * 2 + [(1, RAType.SIGMA0)]
                   + [(2, RAType.PI), (2, RAType.PI0), (2, RAType.PI0)]
                   + [(1, LOOP), (1, RAType.III), (1, RAType.III)]
                   + [(1, RAType.V), (2, RAType.I)]},
    # at p = 11 the quotient j-invariants collide with the special
    # values (54000 = 1728 and 287496 = 0 mod 11), shifting the
    # product-orbit targets; columns derived by enumeration
    RAType.PI0: {None: [(3, RAType.PI)] * 3 + [(3, RAType.I)] * 2,
                 7: [(3, RAType.PI)] * 2 + [(3, LOOP)]
                 + [(3, RAType.I)] * 2,
                 11: [(3, RAType.PI1728)] * 3 + [(3, RAType.I)] * 2},
    RAType.PI1728: {None: [(1, RAType.PI1728)] * 3 + [(2, RAType.PI)] * 3
                    + [(2, RAType.I)] * 3,
                    7: [(1, RAType.PI1728)] * 2 + [(1, RAType.PI01728)]
                    + [(2, RAType.PI1728)] * 2 + [(2, RAType.PI01728)]
                    + [(2, RAType.I)] * 3,
                    11: [(1, RAType.PI1728)] * 3 + [(2, RAType.PI0)] * 3
                    + [(2, RAType.I)] * 3},
    RAType.PI01728: {
        None: [(3, RAType.PI1728), (6, RAType.PI), (6, RAType.I)],
        7: [(3, RAType.PI1728), (6, RAType.PI1728), (6, RAType.I)],
        11: [(3, RAType.SIGMA1728), (6, LOOP), (6, RAType.IV)],
        # 23 and 47 divide 287496 - 54000, so the two kinds of factor
        # quotients share a j-invariant and the product orbit lands on
        # elliptic squares; columns derived by enumeration and
        # cross-checked by the graph validators at those primes
        23: [(3, RAType.PI1728), (6, RAType.SIGMA), (6, RAType.IV)],
        47: [(3, RAType.PI1728), (6, RAType.SIGMA), (6, RAType.I)],
    },
    RAType.SIGMA0: {
        None: [(9, RAType.SIGMA), (3, LOOP), (3, RAType.V)],
        11: [(9, RAType.SIGMA1728), (3, LOOP), (3, RAType.V)],
    },
    RAType.SIGMA1728: {
        # at p = 7 the vertex census admits no Type-III vertex and
        # the ratio principle (16*6 = 24*4 against the Type-VI row)
        # forces the glued orbit onto the unique Type-VI vertex
        None: [(4, RAType.SIGMA), (4, RAType.PI1728), (1, LOOP),
               (2, LOOP), (4, RAType.III)],
        7: [(4, LOOP), (4, LOOP), (1, LOOP), (2, LOOP), (4, RAType.VI)],
        11: [(4, RAType.SIGMA0), (4, RAType.PI01728), (1, LOOP),
             (2, LOOP), (4, RAType.V)],
    },
}

# Type of A_1, A_2, A_3 (the orbits of K_1, K_2, K_3 below); the
# labels of A_1 and A_2 depend on the choice of the fifth root of
# unity, so they are compared as an unordered pair.
TYPE_II_TABLE = {
    19: (RAType.I, LOOP, RAType.III),
    29: (RAType.I, RAType.I, RAType.A),
    59: (RAType.I, RAType.A, RAType.I),
    79: (RAType.I, RAType.A, RAType.A),
    89: (RAType.A, RAType.I, RAType.A),
    None: (RAType.A, RAType.A, RAType.A),
}


def type_ii_kernels(ctx: FieldCtx) -> list:
    """Orbit representatives K_1, K_2, K_3 of x^5 - 1, as matchings of
    its Weierstrass points, (a, b) pairs and INF."""
    z5 = ctx.nth_root_of_unity(5)
    if z5 is None:
        raise AtlasError(f"x^5 - 1 has irrational kernels at p = {ctx.p}")
    z = [(z5 ** k).key() for k in range(5)]
    return [[(z[0], INF), (z[a], z[b]), (z[c], z[d])]
            for (a, b), (c, d) in (((1, 2), (3, 4)), ((1, 3), (2, 4)),
                                   ((1, 4), (2, 3)))]


# ---------------------------------------------------------------------------
# Verification


@dataclass
class AtlasReport:
    case: str
    p: int
    ok: bool
    expected: list
    observed: list
    detail: str = ""

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        msg = f"[{status}] case {self.case} at p={self.p}"
        if not self.ok:
            msg += (f"\n  expected {self.expected}"
                    f"\n  observed {self.observed}")
        if self.detail:
            msg += f"\n  {self.detail}"
        return msg


def _target_type(e, ctx) -> str:
    """LOOP, or the RA type of the edge's target, read off its key."""
    return LOOP if e.is_loop else ra_type_of(e.target, ctx)


def _edge_labels(edges, ctx) -> list:
    """Sorted multiset of (weight, type-or-loop) of a vertex's edges."""
    return sorted((e.weight, _target_type(e, ctx)) for e in edges)


def _expected_for(case: str, p: int) -> list:
    table = EDGE_TABLES[case]
    row = table.get(p, table[None])
    if row is None:
        raise AtlasError(f"no generic Type-{case} vertex at p = {p}")
    return sorted(row)


def _seeded_rng(case: str, p: int, attempt: int) -> random.Random:
    seed_env = os.environ.get("RICHELOT_SEED", "0")
    digest = sha256(f"{seed_env}|{case}|{p}|{attempt}".encode())
    return random.Random(int.from_bytes(digest.digest()[:8], "big"))


# draws of a sampled case's parameters before its table is failed
GENERIC_ATTEMPTS = 12


def verify_case(case: str, ctx: FieldCtx) -> AtlasReport:
    """Check a case's edge table at this prime.

    Sampled (generic) cases are drawn up to GENERIC_ATTEMPTS times so
    that an accidental specialization of a parameter or a neighbour does
    not fail the table; deterministic cases get a single shot.  Type-VI at
    p in {13, 29} accepts either IV/V orbit assignment (the multiset
    comparison does); Type-II is handled per-kernel.
    """
    if case == "II":
        return _verify_type_ii(ctx)
    p = ctx.p
    expected = _expected_for(case, p)
    deterministic = case in ("V", "VI", RAType.PI01728, RAType.SIGMA0,
                             RAType.SIGMA1728)
    attempts = 1 if deterministic else GENERIC_ATTEMPTS
    observed = None
    for attempt in range(attempts):
        rep = normal_form(case, ctx, rng=_seeded_rng(case, p, attempt))
        params, query = None, rep
        if case in JACOBIAN_CASES:
            rep, params = rep
            query = normal_form_splitting(ctx, params)
        edges = neighbourhood(query)
        observed = _edge_labels(edges, ctx)
        if observed == expected:
            detail = _extra_case_checks(case, ctx, rep, params, edges)
            ok = not detail.startswith("FAIL")
            return AtlasReport(case, p, ok, expected, observed, detail)
    return AtlasReport(case, p, False, expected, observed,
                       detail=f"no match in {attempts} attempts")


def _extra_case_checks(case, ctx, rep, params, edges) -> str:
    """Case-specific cross-checks beyond the edge table; params are
    the (s, t) of a Jacobian normal form, edges its neighbourhood."""
    if case == "III":
        return _check_iii_isogenous_factors(ctx, params[0], edges)
    if case == "V":
        # C_V = C_III(zeta_6): same canonical Clebsch key as x^6 + 1
        direct = Genus2Curve(Poly.from_ints(ctx, [1, 0, 0, 0, 0, 0, 1]))
        if VertexKey.jacobian(direct) != VertexKey.jacobian(rep):
            return "FAIL: x^6 + 1 and C_III(zeta_6) keys differ"
        return "x^6+1 key matches C_III(zeta_6)"
    if case == "VI":
        if VertexKey.jacobian(rep).data[1:] != ((0, 0),) * 3:
            return "FAIL: Type-VI Clebsch point is not (1:0:0:0)"
        return "Clebsch point is (1:0:0:0)"
    return ""


def j_of_cubic(ctx, a, b, c, d):
    """j-invariant of y^2 = a x^3 + b x^2 + c x + d (nonsingular)."""
    # monic model y^2 = x^3 + B x^2 + C x + D via x -> x/a, y -> y/a;
    # then the classical b2/b4/b6 chain
    B, C, D = b, a * c, (a * a) * d
    b2 = 4 * B
    b4 = 2 * C
    b6 = 4 * D
    c4 = b2 * b2 - 24 * b4
    c6 = -(b2 * b2 * b2) + 36 * (b2 * b4) - 216 * b6
    disc = (c4 * c4 * c4 - c6 * c6) / ctx.from_int(1728)
    return (c4 * c4 * c4) / disc


def _check_iii_isogenous_factors(ctx, u, edges) -> str:
    """The j's in the keys of the two weight-1 Sigma neighbours among
    edges, the vertex's neighbourhood, are those of E = (1, u^2, u^-2)
    and of its Velu quotient E/<(1, 0)>, whose j has a closed form in u."""
    one = ctx.one
    u2 = u * u
    E = EllipticCurveE2(one, u2, u2.inverse())
    coeff = 2 * (u2 * u2 - 6 * u2 + one) / ((u2 + one) * (u2 + one))
    stated = Poly(ctx, [one, coeff, one]) * Poly(ctx, [-one, one])
    stated = stated * ctx.from_int(-2)
    j_stated = j_of_cubic(ctx, stated[3], stated[2], stated[1], stated[0])
    if j_invariant(two_isogeny(E, 1)) != j_stated:  # E/<(1, 0)>
        return "FAIL: Velu quotient does not match the closed form"
    seen = {j for e in edges if e.weight == 1
            and _target_type(e, ctx) == RAType.SIGMA for j in e.target.data}
    if seen != {j_invariant(E).key(), j_stated.key()}:
        return "FAIL: the Sigma neighbours' factors are not E and E/<(1, 0)>"
    return "2-isogeny between the two elliptic-square factors verified"


def _verify_type_ii(ctx: FieldCtx) -> AtlasReport:
    """Per-kernel check of the Type-II vertex's three weight-5 orbits.

    The A_1/A_2 labels depend on the choice of zeta_5, so those two
    types are compared as an unordered pair; A_3 is canonical.
    """
    p = ctx.p
    expected = TYPE_II_TABLE.get(p, TYPE_II_TABLE[None])
    edges = neighbourhood(normal_form_splitting(ctx, None))
    if sorted(e.weight for e in edges) != [5, 5, 5]:
        return AtlasReport("II", p, False, list(expected),
                           [e.weight for e in edges],
                           detail="orbits are not three fives")
    edge_of = {k: e for e in edges for k in e.kernels}
    types = [_target_type(edge_of[pairing_index(m)], ctx)
             for m in type_ii_kernels(ctx)]
    ok = (types[2] == expected[2]
          and sorted(types[:2]) == sorted(expected[:2]))
    return AtlasReport("II", p, ok, list(expected), types)


# ---------------------------------------------------------------------------
# Permutation-fixture verification (acceptance criterion: the computed
# Moebius action generates the tabulated orbit partition)


@dataclass
class PermutationFixtureReport:
    case: str
    p: int
    ok: bool
    computed: list
    expected: list
    relabelled: bool

    def summary(self) -> str:
        status = "PASS" if self.ok else "FAIL"
        extra = " (via parameter relabelling)" if self.relabelled else ""
        return f"[{status}] permutation fixtures {self.case} p={self.p}{extra}"


def verify_permutation_fixtures(case: str, ctx: FieldCtx,
                                rng=None) -> PermutationFixtureReport:
    """Compare the computed orbit partition of the 15 indexed kernels
    with the partition generated by the fixture permutations.

    Partitions are compared up to the kernel-index relabellings coming
    from the (+-s, +-t, swap) parameter symmetries of the two-parameter
    normal form: the tabulated actions at the special vertices V and
    VI are stated for one such parameter choice.
    """
    rng = rng or random.Random(20)
    _, (s, t) = normal_form(case, ctx, rng=rng)
    computed = orbit_partition_on_indices(ctx, s, t)
    expected = orbit_partition(range(1, 16),
                               expected_permutation_actions(case))
    if computed == expected:
        return PermutationFixtureReport(case, ctx.p, True, computed,
                                        expected, False)
    for perm in index_relabellings(ctx, s, t):
        relab = sorted(tuple(sorted(perm[i] for i in orbit))
                       for orbit in computed)
        if relab == expected:
            return PermutationFixtureReport(case, ctx.p, True, computed,
                                            expected, True)
    return PermutationFixtureReport(case, ctx.p, False, computed,
                                    expected, False)
