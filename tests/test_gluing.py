"""Product-side quotients: product kernels, anti-isometries, HLP gluing."""

import random

import pytest

from richelot.elliptic import EllipticCurveE2, j_invariant
from richelot.genus2 import RAType, ra_type_from_clebsch, clebsch_invariants
from itertools import permutations

from richelot.field import make_field
from richelot.gluing import (DegenerateGluingError, GluingError,
                             ProductKernel, ProductSurface,
                             kernel_action, kernel_maps, kernel_orbits,
                             product_kernels, quotient_diagonal,
                             quotient_product, ra_order_product,
                             ra_type_product_vertex)
from richelot.graph import VertexKey
from richelot.isogeny import JacobianCodomain, delta, split_degenerate

from conftest import (kernel_map_oracle, quotient_diagonal_oracle,
                      random_distinct_elements, random_element)

ID = (1, 2, 3)


def e_1728(ctx):
    return EllipticCurveE2(ctx.one, ctx.from_int(-1), ctx.zero)


def e_0(ctx):
    z3 = ctx.nth_root_of_unity(3)
    return EllipticCurveE2(ctx.one, z3, z3 * z3)


def random_product(ctx, rng):
    rs = random_distinct_elements(ctx, rng, 6)
    return ProductSurface(EllipticCurveE2(*rs[:3]),
                          EllipticCurveE2(*rs[3:]))


def test_product_kernels_structure():
    ks = product_kernels()
    assert len(ks) == 15
    assert sum(1 for k in ks if k.kind == "product") == 9
    assert sum(1 for k in ks if k.kind == "diagonal") == 6
    # all kernels have 3 nonzero elements and are pairwise distinct
    assert len({k.elements() for k in ks}) == 15


def test_quotient_product_e1728_fixed_kernel(ctx11):
    # quotient of E_1728 by the iota-fixed point (index 3) returns
    # j = 1728
    S = ProductSurface(e_1728(ctx11), e_0(ctx11))
    q = quotient_product(S, ProductKernel.product(3, 1))
    assert j_invariant(q.E1) == ctx11.from_int(1728)


def test_quotient_product_e0_square(ctx11):
    S = ProductSurface(e_0(ctx11), e_0(ctx11))
    js = set()
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            q = quotient_product(S, ProductKernel.product(i, j))
            js.add((j_invariant(q.E1).key(), j_invariant(q.E2).key()))
    assert len(js) == 1  # zeta cycles the kernels; all quotients agree


def test_quotient_then_dual_returns_j_pair(ctx23, rng):
    from richelot.elliptic import two_isogeny
    for _ in range(10):
        S = random_product(ctx23, rng)
        try:
            q = quotient_product(S, ProductKernel.product(2, 3))
        except Exception:
            continue
        # dual kernel is the pair of dual-kernel points, both index 1
        back1 = two_isogeny(q.E1, 1)
        back2 = two_isogeny(q.E2, 1)
        assert sorted([j_invariant(back1), j_invariant(back2)]) \
            == sorted([j_invariant(S.E1), j_invariant(S.E2)])


def test_induced_diagonal_is_product(ctx23, rng):
    # E = E': the identity matching comes from the identity isomorphism
    rs = random_distinct_elements(ctx23, rng, 3)
    E = EllipticCurveE2(*rs)
    S = ProductSurface(E, E)
    assert quotient_diagonal(S, ProductKernel.diagonal((1, 2, 3))) is S


def test_gluing_generic_is_type_i(ctx23, rng):
    hits = 0
    while hits < 6:
        S = random_product(ctx23, rng)
        if j_invariant(S.E1) == j_invariant(S.E2):
            continue
        for perm in ((1, 2, 3), (2, 3, 1), (1, 3, 2)):
            res = quotient_diagonal(S, ProductKernel.diagonal(perm))
            assert isinstance(res, JacobianCodomain)
            assert ra_type_from_clebsch(
                clebsch_invariants(res.curve)) == RAType.I
            assert delta(res.dual).is_zero()
            hits += 1


def test_gluing_e0_e1728_at_11_is_type_iv(ctx11):
    S = ProductSurface(e_0(ctx11), e_1728(ctx11))
    for perm in ((1, 2, 3), (3, 1, 2)):
        res = quotient_diagonal(S, ProductKernel.diagonal(perm))
        assert isinstance(res, JacobianCodomain)
        assert ra_type_from_clebsch(
            clebsch_invariants(res.curve)) == RAType.IV


def test_glue_split_round_trip(ctx23, rng):
    for _ in range(8):
        S = random_product(ctx23, rng)
        res = quotient_diagonal(S, ProductKernel.diagonal((2, 3, 1)))
        if not isinstance(res, JacobianCodomain):
            continue
        E, E2 = split_degenerate(res.dual)
        assert VertexKey.of_surface(ProductSurface(E, E2)) \
            == VertexKey.of_surface(S)


def test_ra_type_product_vertex(ctx23):
    # note 1728 = 3 (mod 23): pick generic values away from {0, 3}
    ctx = ctx23
    c = ctx.from_int
    assert ra_type_product_vertex(c(0), c(1728)) == RAType.PI01728
    assert ra_type_product_vertex(c(7), c(7)) == RAType.SIGMA
    assert ra_type_product_vertex(c(2), c(4)) == RAType.PI
    assert ra_type_product_vertex(c(0), c(0)) == RAType.SIGMA0
    assert ra_type_product_vertex(c(1728), c(1728)) == RAType.SIGMA1728
    assert ra_type_product_vertex(c(0), c(5)) == RAType.PI0
    assert ra_type_product_vertex(c(5), c(1728)) == RAType.PI1728


def test_ra_order_product():
    assert ra_order_product(RAType.SIGMA0) == 36
    assert ra_order_product(RAType.SIGMA1728) == 16
    assert ra_order_product(RAType.PI) == 2
    assert ra_order_product(RAType.PI01728) == 12
    with pytest.raises(GluingError):
        ra_order_product(RAType.IV)


def test_torsion_action_generators(ctx23, rng):
    # generic product: sigma fixes every kernel, so only the identity
    while True:
        S = random_product(ctx23, rng)
        j1, j2 = j_invariant(S.E1), j_invariant(S.E2)
        special = {ctx23.zero.key(), ctx23.from_int(1728).key()}
        if j1 != j2 and j1.key() not in special and j2.key() not in special:
            break
    assert list(kernel_maps(S, S)) == [tuple(range(15))]
    # E x E_0: a map cycling the second factor's points
    E = S.E1
    S = ProductSurface(E, e_0(ctx23))
    maps = list(kernel_maps(S, S))
    assert any(kernel_action(ID, c, False) in maps
               for c in ((2, 3, 1), (3, 1, 2)))
    # E x E_1728: a map transposing P'_1, P'_2
    S = ProductSurface(E, e_1728(ctx23))
    assert kernel_action(ID, (2, 1, 3), False) in list(kernel_maps(S, S))


def test_kernel_action_matches_element_images_and_composes():
    # all 72 inputs against the images of each kernel's elements (a
    # swap as the factor maps, then the exchange through the identity
    # matching); then (q, t) after (p, s) is one action: (q1 p1, q2 p2)
    # unswapped, (q2 p1, q1 p2) swapped, swap = s xor t
    inputs = [(p1, p2, swap) for p1 in permutations(ID)
              for p2 in permutations(ID) for swap in (False, True)]
    assert len(inputs) == 72
    for p1, p2, swap in inputs:
        steps = [(p1, p2, ())] + ([(ID, ID, ID)] if swap else [])
        assert kernel_action(p1, p2, swap) == kernel_map_oracle(*steps)

    def compose(q, p):
        return tuple(q[p[i] - 1] for i in range(3))

    for p1, p2, s in inputs:
        first = kernel_action(p1, p2, s)
        for q1, q2, t in inputs:
            r1, r2 = (q2, q1) if s else (q1, q2)
            both = kernel_action(compose(r1, p1), compose(r2, p2), s != t)
            second = kernel_action(q1, q2, t)
            assert both == tuple(second[n] for n in first)
    assert kernel_action.cache_info().currsize <= 72


def test_kernel_orbit_sizes(ctx23, rng):
    cases = {
        (False, "generic"): [1] * 15,
        (True, "generic"): sorted([1, 1, 1, 2, 2, 2, 1, 1, 1, 1, 2]),
    }
    # generic Pi: all orbits singletons
    while True:
        S = random_product(ctx23, rng)
        j1, j2 = j_invariant(S.E1), j_invariant(S.E2)
        special = {ctx23.zero.key(), ctx23.from_int(1728).key()}
        if j1 != j2 and j1.key() not in special and j2.key() not in special:
            break
    orbits = kernel_orbits(S)
    assert sorted(len(o) for o in orbits) == [1] * 15
    # every vertex's orbit sizes sum to 15
    for S2 in (ProductSurface(S.E1, S.E1), ProductSurface(e_0(ctx23),
                                                          e_0(ctx23)),
               ProductSurface(e_1728(ctx23), e_1728(ctx23)),
               ProductSurface(e_0(ctx23), e_1728(ctx23))):
        orbits = kernel_orbits(S2)
        assert sum(len(o) for o in orbits) == 15


def _glue_outcome(glue, S, k):
    """"induced", the glued curve's coefficients with its dual splitting,
    or the DegenerateGluingError glue raises."""
    try:
        res = glue(S, k)
    except DegenerateGluingError as exc:
        return str(exc), exc.kernel
    if res is S:
        return "induced"
    return (tuple(c.key() for c in res.curve.f.coeffs), res.dual.blocks,
            res.dual.scale.key())


@pytest.mark.parametrize("p", [23, 41, 101])
def test_quotient_diagonal_matches_hlp_oracle(p):
    # 200 products, half of them E x (a random model of E), each under
    # the six anti-isometries: the int-pair HLP construction gives the
    # FieldElement chain's glued curve, coefficient by coefficient, and
    # its dual splitting, or the same isomorphism-induced quotient
    ctx, rng = make_field(p), random.Random(p)
    seen = set()
    for n in range(200):
        S = random_product(ctx, rng)
        if n % 2:
            u = random_element(ctx, rng)
            while u.is_zero():
                u = random_element(ctx, rng)
            t = random_element(ctx, rng)
            roots = [u * r + t for r in S.E1.roots()]
            rng.shuffle(roots)
            S = ProductSurface(S.E1, EllipticCurveE2(*roots))
        for k in product_kernels()[9:]:
            got = _glue_outcome(quotient_diagonal, S, k)
            assert got == _glue_outcome(quotient_diagonal_oracle, S, k)
            seen.add(got if got == "induced" else len(got))
    assert seen == {"induced", 3}
