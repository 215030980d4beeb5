"""The (2,2)-isogeny step out of an elliptic product E x E'.

Nine of the fifteen kernels are products of elliptic 2-isogeny
kernels; the other six pair the 2-torsion of the factors via a
permutation (anti-isometry).  A paired kernel either comes from an
isomorphism E ~ E' (the quotient is the same product again) or glues
to the Jacobian of a genus-2 curve by the Howe--Leprevost--Poonen
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations

from .elliptic import (EllipticCurveE2, isomorphisms_with_torsion,
                       two_isogeny)
from .field import FieldElement
from .genus2 import Genus2Curve, Genus2Error, QuadraticSplitting, RAType, \
    RA_ORDER, block_product, monic_block, orbit_partition
from .poly import Poly


class GluingError(ValueError):
    """Invalid product-side quotient."""


class DegenerateGluingError(GluingError):
    """The HLP formulas degenerated on a kernel that is not induced by
    an isomorphism; carries the offending kernel."""

    def __init__(self, message, kernel):
        super().__init__(message)
        self.kernel = kernel


@dataclass(frozen=True)
class ProductSurface:
    """E1 x E2 with ordered factors (the vertex itself is unordered)."""

    E1: EllipticCurveE2
    E2: EllipticCurveE2

    @property
    def ctx(self):
        return self.E1.ctx

    def __repr__(self):
        return f"Product({self.E1}, {self.E2})"


@dataclass(frozen=True)
class ProductKernel:
    """Either a product kernel <(P_i,0),(0,P_j')> or the graph of an
    anti-isometry P_i -> P'_perm(i)."""

    kind: str  # "product" | "diagonal"
    i: int = 0
    j: int = 0
    perm: tuple = ()

    @classmethod
    def product(cls, i, j):
        return cls(kind="product", i=i, j=j)

    @classmethod
    def diagonal(cls, perm):
        return cls(kind="diagonal", perm=tuple(perm))

    def elements(self) -> frozenset:
        """Nonzero elements as (a, b) index pairs; 0 = identity."""
        if self.kind == "product":
            return frozenset([(self.i, 0), (0, self.j), (self.i, self.j)])
        return frozenset((a, self.perm[a - 1]) for a in (1, 2, 3))

    def __repr__(self):
        if self.kind == "product":
            return f"K({self.i},{self.j})"
        return f"K{self.perm}"


def product_kernels() -> list:
    """The fifteen kernels in a fixed order: nine products, then the
    six diagonals by permutation order."""
    out = [ProductKernel.product(i, j)
           for i in (1, 2, 3) for j in (1, 2, 3)]
    out.extend(ProductKernel.diagonal(p)
               for p in sorted(permutations((1, 2, 3))))
    return out


_KERNEL_INDEX = {k.elements(): i for i, k in enumerate(product_kernels())}


def kernel_index(k: ProductKernel) -> int:
    """The label of k: its index in product_kernels()."""
    return _KERNEL_INDEX[k.elements()]


def quotient_product(S: ProductSurface, k: ProductKernel) -> ProductSurface:
    """The codomain of psi_i x psi_j, the quotient by a product kernel,
    via Velu's formulas.  Both factors carry the dual-kernel point as
    their first root (two_isogeny), so the dual kernel is K(1,1)."""
    if k.kind != "product":
        raise GluingError("need a product kernel")
    return ProductSurface(two_isogeny(S.E1, k.i), two_isogeny(S.E2, k.j))


def quotient_diagonal(S: ProductSurface, k: ProductKernel):
    """Quotient by an anti-isometry kernel K_pi.

    If the matching P_i -> P'_pi(i) is induced by an isomorphism of
    the factors, the quotient is E1 x E2 again, and S itself is
    returned; otherwise the Howe--Leprevost--Poonen construction
    produces the genus-2 curve y^2 = -F1 F2 F3 whose Jacobian is the
    quotient, returned as (curve, dual), dual the splitting {F1, F2, F3}
    of the dual kernel; the curve is Genus2Curve of the Poly, by the gcd
    squarefree test.  On (a, b) int pairs:
    with d_t = s_j - s_i and d'_t = s'_j - s'_i over the cyclic (i, j),
    HLP's A = a1 prod(d'_t^2)/a2 is D sum_t d_t^2 d'_(t-1) d'_(t-2)/a2,
    D = prod(d'_t), and B likewise, so one inverse, of a2 b2, serves.
    """
    if k.kind != "diagonal":
        raise GluingError("need a diagonal kernel")
    pi = k.perm
    if pi in isomorphisms_with_torsion(S.E1, S.E2):
        return S
    ctx, mul, m = S.ctx, S.ctx.pmul, S.ctx.pminor

    def total(terms):
        return tuple(sum(x) % ctx.p for x in zip(*terms))
    s = [x.key() for x in S.E1.roots()]
    sp = [S.E2.root(t).key() for t in pi]
    cyc = ((0, 1, 2), (1, 2, 0), (2, 0, 1))
    a2 = total(m(s[i], sp[k2], s[i], sp[j]) for i, j, k2 in cyc)
    b2 = total(m(sp[i], s[k2], sp[i], s[j]) for i, j, k2 in cyc)
    if a2 == (0, 0) or b2 == (0, 0):
        # provably only happens for isomorphism-induced matchings,
        # which were handled above; defensive
        raise DegenerateGluingError("HLP denominator vanished", k)
    ds, dsp = ([(u[j][0] - u[i][0], u[j][1] - u[i][1]) for i, j, _ in cyc]
               for u in (s, sp))
    inv = ctx.pinv(mul(a2, b2))

    def coefficient(e, d, over):  # prod(d) sum_t e_t^2 d_(t-1) d_(t-2)
        return mul(mul(mul(d[0], mul(d[1], d[2])), over), total(
            mul(mul(e[t], e[t]), mul(d[t - 1], d[t - 2])) for t in range(3)))
    A = coefficient(ds, dsp, mul(b2, inv))  # over a2
    B = coefficient(dsp, ds, mul(a2, inv))  # over b2
    blocks = [(mul(B, mul(dsp[t], dsp[t - 1])), (0, 0),
               mul(A, mul(ds[t], ds[t - 1]))) for t in range(3)]
    f = block_product(ctx, blocks, (ctx.p - 1, 0))
    try:
        curve = Genus2Curve(Poly.from_pairs(ctx, f))
    except Genus2Error as exc:
        raise DegenerateGluingError(f"glued curve invalid: {exc}", k) \
            from exc
    return curve, QuadraticSplitting.make(
        ctx, [monic_block(ctx, b) for b in blocks], curve.leading)


def ra_type_product_vertex(j1: FieldElement, j2: FieldElement) -> str:
    """RA-type of an elliptic product from the pair of j-invariants,
    most special condition first."""
    ctx = j1.ctx
    c0, c1728 = ctx.zero, ctx.from_int(1728)
    js = {j1.key(), j2.key()}
    if j1 == j2:
        if j1 == c0:
            return RAType.SIGMA0
        if j1 == c1728:
            return RAType.SIGMA1728
        return RAType.SIGMA
    if js == {c0.key(), c1728.key()}:
        return RAType.PI01728
    if c0.key() in js:
        return RAType.PI0
    if c1728.key() in js:
        return RAType.PI1728
    return RAType.PI


def ra_order_product(t: str) -> int:
    """Order of the reduced automorphism group of a product type."""
    if t not in RAType.PRODUCT:
        raise GluingError(f"{t} is not an elliptic-product type")
    return RA_ORDER[t]


@lru_cache(maxsize=72)  # 6 * 6 permutation pairs, swapped or not
def kernel_action(perm1: tuple, perm2: tuple, swap: bool) -> tuple:
    """The permutation of kernel labels (product_kernels() indices)
    induced by (a, b) -> (perm1[a], perm2[b]) on the 2-torsion index
    pairs (0 = identity), the two factors then exchanged if swap is
    set."""
    def image(a, b):
        a, b = perm1[a - 1] if a else 0, perm2[b - 1] if b else 0
        return (b, a) if swap else (a, b)
    return tuple(_KERNEL_INDEX[frozenset(image(*x) for x in elems)]
                 for elems in _KERNEL_INDEX)


def kernel_maps(S: ProductSurface, D: ProductSurface):
    """The isomorphisms S -> D as kernel_action label maps, those that
    keep the factor order first.  Each order searches its second
    factor only after its first factor matched, so a caller that needs
    one map stops the search at the first.  A crossed map sends S.E1
    to D.E2 by perm1 and S.E2 to D.E1 by perm2."""
    for swap, (F1, F2) in ((False, (D.E1, D.E2)), (True, (D.E2, D.E1))):
        firsts = isomorphisms_with_torsion(S.E1, F1)
        seconds = firsts and isomorphisms_with_torsion(S.E2, F2)
        for p1 in firsts:
            for p2 in seconds:
                yield kernel_action(p1, p2, swap)


def kernel_orbits(S: ProductSurface):
    """Orbits of the 15 kernel labels under the RA-action: every
    automorphism of S, the factor swaps included, as a label map.
    Factor automorphisms act through their 2-torsion permutations
    ([-1] acts trivially).  Returns the orbits as sorted tuples of
    labels, in sorted order."""
    return orbit_partition(range(15), list(kernel_maps(S, S)))
