"""The (2,2)-isogeny step out of a Jacobian.

For a quadratic splitting {F1, F2, F3} of y^2 = f(x), the determinant
delta of the coefficient matrix decides the shape of the quotient:
delta != 0 gives another Jacobian via Richelot's formulas (with the
dual kernel as the codomain splitting), delta = 0 splits the quotient
into a product of two elliptic curves via a common decomposition
F_i = alpha_i U^2 + beta_i V^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elliptic import EllipticCurveE2, curve_from_j
from .field import FieldElement
from .genus2 import Genus2Curve, Genus2Error, QuadraticSplitting
from .poly import Poly


class RichelotError(ValueError):
    """Invalid isogeny-step input (wrong delta branch, bad splitting)."""


def _rows(s: QuadraticSplitting) -> list:
    """The blocks c + b x + a x^2 of s as (c, b, a), in (a, b) int pairs."""
    return [tuple((g[k].a, g[k].b) for k in range(3)) for g in s.blocks]


def delta(s: QuadraticSplitting) -> FieldElement:
    """det of the 3x3 coefficient matrix of the (monic) blocks, on int
    pairs: -sum a_i (b_j c_k - b_k c_j) over cyclic (i, j, k).

    Zero exactly when the quotient splits as an elliptic product.
    """
    ctx, F = s.ctx, _rows(s)
    t = [ctx.pmul(F[i][2], ctx.pminor(F[k][1], F[j][0], F[j][1], F[k][0]))
         for i, j, k in ((0, 1, 2), (1, 2, 0), (2, 0, 1))]
    return FieldElement(ctx, *(sum(x) % ctx.p for x in zip(*t)))


@dataclass(frozen=True)
class JacobianCodomain:
    """Result of a generic Richelot step: the new curve and the
    splitting corresponding to the dual kernel."""

    curve: Genus2Curve
    dual: QuadraticSplitting


def richelot_generic(s: QuadraticSplitting, d=None) -> JacobianCodomain:
    """Richelot's algorithm: G_i = (F_j' F_k - F_k' F_j)/delta, on (a, b)
    int pairs, where delta G_i is the 2x2 minors (b_j c_k - b_k c_j)
    + 2(a_j c_k - a_k c_j) x + (a_j b_k - a_k b_j) x^2 of the blocks.
    Genus2Curve.of_blocks checks y^2 = G_0 G_1 G_2 in closed form; the
    dual splitting is the G_i made monic.  d is delta(s), if known."""
    d = delta(s) if d is None else d
    if d.is_zero():
        raise RichelotError("delta = 0: quotient is an elliptic product")
    ctx, F = s.ctx, _rows(s)
    m, mul, dinv = ctx.pminor, ctx.pmul, ctx.pinv((d.a, d.b))
    G = [(m(bj, ck, bk, cj), mul((2, 0), m(aj, ck, ak, cj)),
          m(aj, bk, ak, bj)) for (cj, bj, aj), (ck, bk, ak)
         in zip(F[1:] + F[:1], F[2:] + F[:2])]
    try:
        curve = Genus2Curve.of_blocks(ctx, G, mul(dinv, mul(dinv, dinv)))
    except Genus2Error as exc:
        raise RichelotError(f"degenerate Richelot codomain: {exc}") from exc
    invs = [ctx.pinv(g[2] if g[2] != (0, 0) else g[1]) for g in G]
    blocks = [Poly(ctx, [FieldElement(ctx, *mul(c, inv)) for c in g])
              for g, inv in zip(G, invs)]
    return JacobianCodomain(curve, QuadraticSplitting.make(
        blocks, curve.f.leading()))


@dataclass(frozen=True)
class DegenerateSplitData:
    """Witness of the decomposition F_i = alpha_i U^2 + beta_i V^2.

    U and V are coefficient pairs (c0, c1) for c0 + c1*x; one of them
    may be constant (c1 = 0) when a branch point of the quotient maps
    to infinity.  All values live over GF(p^2), or over GF(p^4) in
    the rare case of Galois-conjugate elliptic factors (`extended`),
    in which case `blocks` holds lifted coefficient triples rather
    than Poly objects.  Indexing follows the splitting's block order.
    """

    U: tuple
    V: tuple
    alphas: tuple
    betas: tuple
    blocks: tuple
    extended: bool

    def verify(self) -> bool:
        """Check F_i = alpha_i U^2 + beta_i V^2 coefficientwise."""
        u0, u1 = self.U
        v0, v1 = self.V
        usq = (u0 * u0, 2 * (u0 * u1), u1 * u1)
        vsq = (v0 * v0, 2 * (v0 * v1), v1 * v1)
        for g, al, be in zip(self.blocks, self.alphas, self.betas):
            gc = g if self.extended else (g[0], g[1], g[2])
            for t in range(3):
                if al * usq[t] + be * vsq[t] != gc[t]:
                    return False
        return True


@dataclass(frozen=True)
class SplitCodomain:
    """Result of a degenerate (delta = 0) step: an elliptic product.

    The root triples of E and E2 are ordered by the splitting's block
    index: E.root(i) and E2.root(i) are the images of block i, and the
    matching i <-> i is the anti-isometry generating the dual kernel.
    (When split_data.extended is set the stored curves are rational
    models rebuilt from the j-invariants instead.)
    """

    E: EllipticCurveE2
    E2: EllipticCurveE2
    split_data: DegenerateSplitData


class IrrationalSplitError(RichelotError):
    """Elliptic factors are Galois-conjugate and no rational split
    model of the required j-invariant exists."""


def _sqrt_of_square_quadratic(trip, K):
    """U with U^2 proportional to the perfect-square quadratic trip.

    Returns (u0, u1); (1, 0) when the quadratic is constant.
    """
    c0, c1, c2 = trip
    if c2.is_zero():
        if not c1.is_zero():
            raise RichelotError("pencil member is linear, not a square")
        return (K.one, K.zero)
    half = K.from_int(2).inverse()
    return (c1 * c2.inverse() * half, K.one)


def _solve_alpha_beta(P, Q, F):
    """Solve F = alpha*P + beta*Q for coefficient triples; exact."""
    for r1 in range(3):
        for r2 in range(r1 + 1, 3):
            det = P[r1] * Q[r2] - P[r2] * Q[r1]
            if det.is_zero():
                continue
            dinv = det.inverse()
            al = (F[r1] * Q[r2] - F[r2] * Q[r1]) * dinv
            be = (P[r1] * F[r2] - P[r2] * F[r1]) * dinv
            for t in range(3):
                if al * P[t] + be * Q[t] != F[t]:
                    raise RichelotError("inconsistent U^2/V^2 decomposition")
            return al, be
    raise RichelotError("U^2 and V^2 are not independent")


def split_degenerate(s: QuadraticSplitting, d=None) -> SplitCodomain:
    """Split a delta = 0 quotient into its elliptic product.

    Pencil method: F1 + t*F2 is a perfect square exactly at the two
    roots t1, t2 of its discriminant (a quadratic in t, with distinct
    roots since f is squarefree); U^2 and V^2 span the pencil and each
    F_i decomposes as alpha_i U^2 + beta_i V^2.  The factors are
    E: y^2 = prod(alpha_i x + beta_i) and E2: y^2 = prod(beta_i x + alpha_i).
    d is delta(s), when the caller has it.
    """
    if not (delta(s) if d is None else d).is_zero():
        raise RichelotError("delta != 0: quotient is a Jacobian")
    ctx = s.ctx
    blocks = list(s.blocks)
    quad_idx = [i for i, g in enumerate(blocks) if g.degree() == 2]
    if len(quad_idx) < 2:
        raise RichelotError("need two quadratic blocks")
    i1, i2 = quad_idx[0], quad_idx[1]
    trip = [(g[0], g[1], g[2]) for g in blocks]
    F1, F2 = trip[i1], trip[i2]
    # discriminant of F1 + t*F2, a quadratic in t with leading
    # coefficient disc(F2) != 0
    d2 = F2[1] * F2[1] - 4 * (F2[2] * F2[0])
    d1 = 2 * (F1[1] * F2[1]) - 4 * (F1[2] * F2[0] + F1[0] * F2[2])
    d0 = F1[1] * F1[1] - 4 * (F1[2] * F1[0])
    root = (d1 * d1 - 4 * (d2 * d0)).sqrt()
    extended = root is None
    if extended:
        ext = ctx.extension()
        trip = [tuple(ext.embed(c) for c in t) for t in trip]
        F1, F2 = trip[i1], trip[i2]
        disc_t = ext.embed(d1 * d1 - 4 * (d2 * d0))
        d2, d1 = ext.embed(d2), ext.embed(d1)
        root = disc_t.sqrt()
        K = ext
    else:
        K = ctx
    half = K.from_int(2).inverse()
    t1 = (-d1 + root) * half * d2.inverse()
    t2 = (-d1 - root) * half * d2.inverse()
    if t1 == t2:
        raise RichelotError("repeated pencil root; blocks share a root")
    S1 = tuple(F1[t] + t1 * F2[t] for t in range(3))
    S2 = tuple(F1[t] + t2 * F2[t] for t in range(3))
    U = _sqrt_of_square_quadratic(S1, K)
    V = _sqrt_of_square_quadratic(S2, K)
    u0, u1 = U
    v0, v1 = V
    usq = (u0 * u0, 2 * (u0 * u1), u1 * u1)
    vsq = (v0 * v0, 2 * (v0 * v1), v1 * v1)
    alphas, betas = [], []
    for t in trip:
        al, be = _solve_alpha_beta(usq, vsq, t)
        if al.is_zero() or be.is_zero():
            raise RichelotError(
                "degenerate alpha/beta; input cannot be squarefree")
        alphas.append(al)
        betas.append(be)
    e_roots = [-(be * al.inverse()) for al, be in zip(alphas, betas)]
    e2_roots = [-(al * be.inverse()) for al, be in zip(alphas, betas)]
    data = DegenerateSplitData(
        U=U, V=V, alphas=tuple(alphas), betas=tuple(betas),
        blocks=tuple(trip) if extended else tuple(blocks),
        extended=extended)
    if not extended:
        E = EllipticCurveE2(*e_roots)
        E2 = EllipticCurveE2(*e2_roots)
    else:
        E, E2 = _rational_models_from_ext(ctx, e_roots, e2_roots)
    return SplitCodomain(E=E, E2=E2, split_data=data)


def _rational_models_from_ext(ctx, e_roots, e2_roots):
    """Rational split-torsion models for Galois-conjugate factors.

    The factor curves live over GF(p^4) but their j-invariants must be
    GF(p^2)-rational; models are rebuilt from j (always possible for
    the supersingular j-invariants the graph meets).
    """
    js = []
    for roots in (e_roots, e2_roots):
        lam = (roots[2] - roots[0]) / (roots[1] - roots[0])
        one = roots[0].ctx.one
        num = (lam * lam - lam + one) ** 3 * 256
        den = (lam * lam) * ((lam - one) * (lam - one))
        j = num / den
        if not j.in_base_field():
            raise IrrationalSplitError(
                "factor j-invariant not rational over GF(p^2)")
        js.append(j.u)
    out = []
    for j in js:
        E = curve_from_j(ctx, j)
        if E is None:
            raise IrrationalSplitError(f"no rational split model with j={j}")
        out.append(E)
    return out[0], out[1]
