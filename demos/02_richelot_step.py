"""One (2,2)-isogeny step out of a genus-2 Jacobian.

A quadratic splitting groups the six Weierstrass points into three
pairs; the coefficient determinant delta decides whether the quotient
is another Jacobian (Richelot's formulas) or an elliptic product
(split at the two fixed points u, v of the blocks' pencil, where the
factors' 2-torsion is read off the blocks' values at u and v).
"""

from richelot import (make_field, Genus2Curve, Poly, splittings,
                      clebsch_invariants, canonical_key, delta,
                      richelot_generic, split_degenerate, j_invariant,
                      ra_type_from_clebsch)

ctx = make_field(23)
s, t = ctx.from_int(3), ctx.from_int(5)
C = Genus2Curve(Poly.from_roots(
    ctx, [ctx.one, -ctx.one, s, -s, t, -t]))
print("curve: y^2 = (x^2 - 1)(x^2 - 9)(x^2 - 25) over GF(23^2)")
print("type:", ra_type_from_clebsch(clebsch_invariants(C)))


def block_text(g):
    """A block, kept as its (c0, c1, c2) int pairs, as a polynomial."""
    return str(Poly(ctx, [ctx.element(*c) for c in g]))


spls = splittings(C)
print(f"{len(spls)} quadratic splittings; delta values:")
for spl in spls:
    print("  delta =", delta(spl), " blocks:",
          [block_text(b) for b in spl.blocks])

key = canonical_key(clebsch_invariants(C))
for spl in spls:
    if delta(spl).is_zero():
        # the quotient splits: two elliptic curves
        E, E2 = split_degenerate(spl)
        print("split kernel  ->  E x E' with j-invariants",
              j_invariant(E), j_invariant(E2))
        # E.root(i) and E2.root(i) are the images of block i
        print("  2-torsion of E and E' by block:",
              list(zip(E.roots(), E2.roots())))
    else:
        cod = richelot_generic(spl)
        back = richelot_generic(cod.dual)
        same = canonical_key(clebsch_invariants(back.curve)) == key
        print("generic kernel -> Jacobian of type",
              ra_type_from_clebsch(clebsch_invariants(cod.curve)),
              "| double step returns start:", same)
