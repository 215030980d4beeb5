"""Fields, elliptic curves, and 2-isogenies.

Walks through the arithmetic layer: building GF(p^2), taking square
roots and roots of unity, and pushing elliptic curves with labelled
2-torsion through Velu's formulas.
"""

from richelot import make_field, EllipticCurveE2, j_invariant, two_isogeny
from richelot.elliptic import is_supersingular, find_supersingular_seed

p = 23
ctx = make_field(p)
print(f"GF({p}^2) modelled as GF({p})[i] with i^2 = {ctx.nonresidue}")

# square roots are deterministic: the lexicographically smaller root
x = ctx.element(7, 2)
y = (x * x).sqrt()
print(f"sqrt(({x})^2) = {y}")

# roots of unity live in GF(p^2) whenever their order divides p^2 - 1
for n in (3, 4, 5, 6, 12):
    print(f"  primitive {n}th root of unity:", ctx.nth_root_of_unity(n))

# the two curves with extra automorphisms, by their 2-torsion labels
E1728 = EllipticCurveE2(ctx.one, ctx.from_int(-1), ctx.zero)
z3 = ctx.nth_root_of_unity(3)
E0 = EllipticCurveE2(ctx.one, z3, z3 * z3)
print("j(y^2 = x^3 - x)  =", j_invariant(E1728))
print("j(y^2 = x^3 - 1)  =", j_invariant(E0))

# Velu: quotient by each 2-torsion point; the quotient by (0, 0)
# preserves j = 1728, the other two land on j = 66^3
for i in (1, 2, 3):
    print(f"  E_1728 / <P_{i}>  has j = "
          f"{j_invariant(two_isogeny(E1728, i))}"
          f"   (66^3 mod {p} = {66**3 % p})")

# supersingularity by the Hasse invariant of the Legendre form
print("E_1728 supersingular at 23:", is_supersingular(E1728))
print("E_0    supersingular at 23:", is_supersingular(E0))
seed = find_supersingular_seed(make_field(13))
print("seed for p = 13:", seed, "with j =", j_invariant(seed))
