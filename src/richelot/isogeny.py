"""The (2,2)-isogeny step out of a Jacobian.

For a quadratic splitting {F1, F2, F3} of y^2 = f(x), the determinant
delta of the coefficient matrix decides the shape of the quotient:
delta != 0 gives another Jacobian via Richelot's formulas (with the
dual kernel as the codomain splitting), delta = 0 splits the quotient
into a product of two elliptic curves.  Then the blocks span a pencil
with two square members (x - u)^2 and (x - v)^2, at the fixed points
u, v where Richelot's minor of two blocks vanishes, and the factors'
roots are read off the blocks' values at u and v.
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
    """A quotient that is a Jacobian, from Richelot's formulas or the
    HLP gluing: the new curve and the splitting of the dual kernel."""

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


def split_degenerate(s: QuadraticSplitting, d=None) -> tuple:
    """Split a delta = 0 quotient into its elliptic product (E, E2).

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
    E2: y^2 = prod(beta_i x + alpha_i); w cancels from both.  E.root(i)
    and E2.root(i) are the images of block i, so the matching i <-> i
    is the anti-isometry that generates the dual kernel.  d is delta(s),
    when the caller has it.  On (a, b) int pairs, u and v projective, so
    that the six root quotients take one inverse between them.

    On the graph of a seed with full rational 2-torsion, as the default
    E x E, u and v are rational: E has trace +-2p, so Frobenius is +-p,
    and GF(p^2)-isogenies carry that to every vertex.  +-p fixes every
    abelian subvariety, so it cannot swap two factors, as conjugate u, v
    would; it fixes J[2], so (S_6 = Sp_4(F_2)) it fixes every Weierstrass
    point.  So only user sextics and seeds can raise.
    """
    if not (delta(s) if d is None else d).is_zero():
        raise RichelotError("delta != 0: quotient is a Jacobian")
    K, mul, m = s.ctx, s.ctx.pmul, s.ctx.pminor
    (c0, b0, a0), (c1, b1, a1) = s.blocks[:2]
    g2, h, g0 = m(a0, b1, a1, b0), m(a0, c1, a1, c0), m(b0, c1, b1, c0)
    disc = m(h, h, g2, g0)
    if disc == (0, 0):
        raise RichelotError("repeated fixed point; blocks share a root")
    root = K.psqrt(disc)
    if root is None:
        raise IrrationalPointsError(
            block_product(K, s.blocks, s.scale.key()))
    # u and v as (x, z), the point x/z: z = g2 for both, or, when g2 = 0
    # (the minor g0 + 2h x has one root), u = -g0/2h and v = (2h : 0)
    h2 = (2 * h[0], 2 * h[1])
    u, v = (((-g0[0], -g0[1]), h2), (h2, (0, 0))) if g2 == (0, 0) else (
        ((root[0] - h[0], root[1] - h[1]), g2),
        ((-root[0] - h[0], -root[1] - h[1]), g2))

    def value(g, x, z):  # z^2 g(x/z): F_i(u)/F_i(v) keeps its value
        return tuple(sum(t) % K.p for t in zip(
            mul(g[0], mul(z, z)), mul(g[1], mul(x, z)), mul(g[2], mul(x, x))))
    Fu, Fv = ([value(g, *pt) for g in s.blocks] for pt in (u, v))
    uv = [mul(a, b) for a, b in zip(Fu, Fv)]
    if (0, 0) in uv:
        raise RichelotError(
            "degenerate alpha/beta; input cannot be squarefree")
    # 1/(F_i(u) F_i(v)), each from one inverse of the three products
    inv = K.pinv(mul(uv[0], mul(uv[1], uv[2])))
    invs = [mul(inv, mul(uv[i - 1], uv[i - 2])) for i in range(3)]

    def curve(F):  # roots -F_i(u)/F_i(v) or -F_i(v)/F_i(u): -F_i^2 invs
        return EllipticCurveE2(*(FieldElement(K, *(-x % K.p for x in mul(
            mul(a, a), w))) for a, w in zip(F, invs)))
    return curve(Fu), curve(Fv)
