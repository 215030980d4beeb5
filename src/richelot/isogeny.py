"""The (2,2)-isogeny step out of a Jacobian.

For a quadratic splitting {F1, F2, F3} of y^2 = f(x), the determinant
delta of the coefficient matrix decides the shape of the quotient:
delta != 0 gives another Jacobian via Richelot's formulas (with the
dual kernel as the codomain splitting), delta = 0 splits the quotient
into a product of two elliptic curves.  Then the blocks span a pencil
with two square members (x - u)^2 and (x - v)^2, at the fixed points
u, v where Richelot's minor of two blocks vanishes, and each block
decomposes in closed form as F_i = alpha_i (x - u)^2 + beta_i (x - v)^2.
"""

from __future__ import annotations

from dataclasses import dataclass

from .elliptic import EllipticCurveE2
from .field import FieldElement
from .genus2 import Genus2Curve, Genus2Error, IrrationalPointsError, \
    QuadraticSplitting, block_product, monic_block


class RichelotError(ValueError):
    """Invalid isogeny-step input (wrong delta branch, bad splitting)."""


def delta(s: QuadraticSplitting) -> FieldElement:
    """det of the 3x3 coefficient matrix of the (monic) blocks, on int
    pairs: -sum a_i (b_j c_k - b_k c_j) over cyclic (i, j, k).

    Zero exactly when the quotient splits as an elliptic product.
    """
    ctx, F = s.ctx, s.blocks
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
    ctx, F = s.ctx, s.blocks
    m, mul, dinv = ctx.pminor, ctx.pmul, ctx.pinv((d.a, d.b))
    G = [(m(bj, ck, bk, cj), mul((2, 0), m(aj, ck, ak, cj)),
          m(aj, bk, ak, bj)) for (cj, bj, aj), (ck, bk, ak)
         in zip(F[1:] + F[:1], F[2:] + F[:2])]
    try:
        curve = Genus2Curve.of_blocks(ctx, G, mul(dinv, mul(dinv, dinv)))
    except Genus2Error as exc:
        raise RichelotError(f"degenerate Richelot codomain: {exc}") from exc
    return JacobianCodomain(curve, QuadraticSplitting.make(
        [monic_block(ctx, g) for g in G], curve.f.leading()))


@dataclass(frozen=True)
class DegenerateSplitData:
    """Witness of the decomposition F_i = alpha_i U^2 + beta_i V^2.

    U = x - u and V = x - v for the pencil's fixed points u and v, as
    coefficient pairs (c0, c1) for c0 + c1*x; V = (1, 0) when v is at
    infinity.  `blocks` holds the blocks as coefficient triples
    (c0, c1, c2) of FieldElements.  Indexing follows the splitting's
    block order.
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


@dataclass(frozen=True)
class SplitCodomain:
    """Result of a degenerate (delta = 0) step: an elliptic product.

    The root triples of E and E2 are ordered by the splitting's block
    index: E.root(i) and E2.root(i) are the images of block i, and the
    matching i <-> i is the anti-isometry generating the dual kernel.
    """

    E: EllipticCurveE2
    E2: EllipticCurveE2
    split_data: DegenerateSplitData


def split_degenerate(s: QuadraticSplitting, d=None) -> SplitCodomain:
    """Split a delta = 0 quotient into its elliptic product.

    The blocks span a pencil whose two square members are (x - u)^2 and
    (x - v)^2, for the fixed points u, v: the roots of the pencil's
    Jacobian F_0' F_1 - F_1' F_0 = g2 x^2 + 2h x + g0, Richelot's minor
    of the first two blocks (v = infinity when g2 = 0).  A quarter of its
    discriminant, h^2 - g2 g0, is the blocks' resultant, nonzero for
    squarefree f; when it is a non-square in GF(p^2), u and v are
    conjugate, the factors are conjugate too, and the split raises
    IrrationalPointsError with the sextic of s.  Else
    F_i = alpha_i (x - u)^2 + beta_i (x - v)^2 with alpha_i = F_i(v)/w,
    beta_i = F_i(u)/w and w = (u - v)^2 (when v = infinity, F_i(v) is
    the leading coefficient and w = 1).  The factors are
    E: y^2 = prod(alpha_i x + beta_i), with roots -F_i(u)/F_i(v), and
    E2: y^2 = prod(beta_i x + alpha_i).  d is delta(s), when the caller
    has it.

    On the graph of a seed with full rational 2-torsion, as the default
    E x E, u and v are rational: E has trace +-2p, so Frobenius is +-p,
    and GF(p^2)-isogenies carry that to every vertex.  +-p fixes every
    abelian subvariety, so it cannot swap two factors, as conjugate u, v
    would; it fixes J[2], so (S_6 = Sp_4(F_2)) it fixes every Weierstrass
    point.  So only user sextics and seeds can raise.
    """
    if not (delta(s) if d is None else d).is_zero():
        raise RichelotError("delta != 0: quotient is a Jacobian")
    K = s.ctx
    trip = [tuple(FieldElement(K, *c) for c in g) for g in s.blocks]
    (c0, b0, a0), (c1, b1, a1) = trip[0], trip[1]
    g2, h, g0 = a0 * b1 - a1 * b0, a0 * c1 - a1 * c0, b0 * c1 - b1 * c0
    disc = h * h - g2 * g0
    if disc.is_zero():
        raise RichelotError("repeated fixed point; blocks share a root")
    root = disc.sqrt()
    if root is None:
        raise IrrationalPointsError(
            block_product(K, s.blocks, s.scale.key()))
    if g2.is_zero():  # the minor g0 + 2h x has one root; v is at infinity
        u = -(g0 / (2 * h))
        V, w, Fv = (K.one, K.zero), K.one, [t[2] for t in trip]
    else:
        u, v = (root - h) / g2, -(root + h) / g2
        V, w = (-v, K.one), (u - v) * (u - v)
        Fv = [t[0] + v * (t[1] + v * t[2]) for t in trip]
    Fu = [t[0] + u * (t[1] + u * t[2]) for t in trip]
    if any(x.is_zero() for x in Fu + Fv):
        raise RichelotError(
            "degenerate alpha/beta; input cannot be squarefree")
    winv = w.inverse()
    data = DegenerateSplitData(
        U=(-u, K.one), V=V, alphas=tuple(x * winv for x in Fv),
        betas=tuple(x * winv for x in Fu), blocks=tuple(trip))
    E = EllipticCurveE2(*(-(a / b) for a, b in zip(Fu, Fv)))
    E2 = EllipticCurveE2(*(-(b / a) for a, b in zip(Fu, Fv)))
    return SplitCodomain(E=E, E2=E2, split_data=data)

