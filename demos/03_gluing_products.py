"""Kernels on an elliptic product and the gluing construction.

Nine kernels are products of elliptic 2-isogeny kernels; six pair the
2-torsion of the factors.  A pairing induced by an isomorphism leads
back to a product, any other pairing glues to a genus-2 Jacobian.
"""

import random

from richelot import (make_field, EllipticCurveE2, j_invariant,
                      product_kernels, quotient_product, quotient_diagonal,
                      ProductSurface, ra_type_from_clebsch,
                      clebsch_invariants, split_degenerate)
from richelot.gluing import kernel_orbits

ctx = make_field(23)
rng = random.Random(5)

rs = []
while len(rs) < 6:
    x = ctx.element(rng.randrange(23), rng.randrange(23))
    if all(x != y for y in rs):
        rs.append(x)
S = ProductSurface(EllipticCurveE2(*rs[:3]), EllipticCurveE2(*rs[3:]))
print("product of curves with j-invariants",
      j_invariant(S.E1), "and", j_invariant(S.E2))

kernels = product_kernels()
print(f"{len(kernels)} kernels:",
      sum(1 for k in kernels if k.kind == 'product'), "products +",
      sum(1 for k in kernels if k.kind == 'diagonal'), "pairings")

k = kernels[1]  # the product kernel K(1,2)
q = quotient_product(S, k)
print(f"{k}: product codomain with j-invariants",
      j_invariant(q.E1), j_invariant(q.E2))

for k in kernels:
    if k.kind != "diagonal":
        continue
    res = quotient_diagonal(S, k)
    if res is not S:
        curve, dual = res
        t = ra_type_from_clebsch(clebsch_invariants(curve))
        # splitting the dual kernel recovers the original j-pair
        back = sorted(j_invariant(E) for E in split_degenerate(dual))
        print(f"{k}: glues to a Type-{t} Jacobian;"
              " round trip recovers j-pair:",
              back == sorted([j_invariant(S.E1), j_invariant(S.E2)]))
    else:
        print(f"{k}: isomorphism-induced, quotient is the product again")

# a square E x E has a richer kernel orbit structure
sq = ProductSurface(S.E1, S.E1)
orbits = kernel_orbits(sq)
print("orbit sizes on E x E:", sorted(len(o) for o in orbits))
