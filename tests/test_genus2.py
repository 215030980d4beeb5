"""Genus-2 curves: splittings, Clebsch invariants, classifiers, keys."""

import random
from functools import partial
from itertools import permutations
from math import comb, factorial, perm

import pytest

from richelot import genus2, graph
from richelot.field import ROOTS_KEPT, FieldElement, legendre, make_field
from richelot.genus2 import (INF, MATCHINGS, ClebschPoint, Genus2Curve,
                             Genus2Error, IrrationalPointsError,
                             _INDEX_MATCHINGS, _block_roots, canonical_key,
                             clebsch_invariants,
                             matching_action, matching_index,
                             matching_splitting, moebius_frames,
                             moebius_orbits_on_splittings,
                             moebius_stabilizing, orbit_partition,
                             point_splittings, QuadraticSplitting,
                             ra_type_from_clebsch, reduced_automorphisms,
                             splitting_pairing, splitting_root_pairs,
                             splittings,
                             transform_curve, weierstrass_points, RAType)
from richelot.graph import VertexKey, build_graph
from richelot.isogeny import RichelotError, richelot_generic
from richelot.poly import (Poly, factor_quadratic_pieces, is_squarefree,
                           roots as poly_roots)

from clebsch_fixtures import FIXTURES
from conftest import (MoebiusMap, base_images_oracle, block_poly,
                      block_product_oracle, block_roots_oracle,
                      block_triple, canonical_key_oracle,
                      clear_genus2_caches, count_calls, derived_invariants,
                      index_map_moebius, induced_index_map, label_pairing,
                      matching_action_oracle,
                      moebius_frames_oracle, moebius_search_oracle,
                      moebius_through, own_frames, point_element,
                      poly_key_oracle, poly_monic_oracle,
                      ra_type_from_automorphisms, ra_type_from_clebsch_oracle,
                      random_curve_with_irrational_points,
                      random_distinct_elements, random_distinct_points,
                      random_element,
                      recorded_dual_splitting, splitting_of,
                      splitting_points, stepped_hint, to_zero_one_inf,
                      transform_curve_oracle)


def frob(x):
    """x -> x^p, the nontrivial automorphism of GF(p^2)/GF(p)."""
    return FieldElement(x.ctx, x.a, -x.b % x.ctx.p)


def c_two_param(ctx, s, t):
    return Genus2Curve(Poly.from_roots(
        ctx, [ctx.one, -ctx.one, s, -s, t, -t]))


def random_split_curve(ctx, rng, degree=6):
    return Genus2Curve(Poly.from_roots(
        ctx, random_distinct_elements(ctx, rng, degree)))


def test_splittings_counts(ctx23, rng):
    C = c_two_param(ctx23, ctx23.from_int(3), ctx23.from_int(5))
    assert len(splittings(C)) == 15
    # x^5 - 1 splits fully over GF(p^2) iff p = +-1 mod 5
    ctx19 = make_field(19)
    spls = splittings(Genus2Curve(Poly.from_ints(ctx19, [-1, 0, 0, 0, 0, 1])))
    assert len(spls) == 15
    for s in spls:
        assert [block_poly(ctx19, b).degree() for b in s.blocks] \
            == [1, 2, 2]
    # at p = 23 the quintic's quartic factor only breaks into two
    # irreducible quadratics: a single rational kernel (reported, not
    # fatal)
    c2 = Genus2Curve(Poly.from_ints(ctx23, [-1, 0, 0, 0, 0, 1]))
    assert len(splittings(c2)) == 1


def test_splittings_product_reproduces_f(ctx23, rng):
    for _ in range(10):
        C = random_split_curve(ctx23, rng)
        for s in splittings(C):
            D = s.curve()
            assert "f" not in vars(D)  # of_blocks makes no Poly
            assert D == C and hash(D) == hash(C)
            assert D.f == C.f


def test_splitting_keeps_irreducible_blocks(ctx11, rng):
    ctx = ctx11
    irred = Poly(ctx, [-ctx.nonsquare(), ctx.zero, ctx.one])
    rs = random_distinct_elements(ctx, rng, 4)
    f = Poly.from_roots(ctx, rs) * irred
    C = Genus2Curve(f)
    spls = splittings(C)
    assert len(spls) == 3  # 3 pairings of the 4 rational roots
    for s in spls:
        assert block_triple(poly_monic_oracle(irred)) in s.blocks


def test_clebsch_type_ii_and_vi_anchors():
    for p in (11, 13, 23, 31):
        ctx = make_field(p)
        cp = clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1])))
        assert cp.A.is_zero() and cp.B.is_zero() and cp.C.is_zero()
        assert not cp.D.is_zero()
        cp = clebsch_invariants(
            Genus2Curve(Poly.from_ints(ctx, [0, 1, 0, 0, 0, 1])))
        assert not cp.A.is_zero()
        assert cp.B.is_zero() and cp.C.is_zero() and cp.D.is_zero()


def test_clebsch_cas_fixtures():
    """Fixture curves match the sympy-generated oracle values exactly."""
    for p in (11, 23, 31, 53):
        ctx = make_field(p)
        for coeffs, vals in FIXTURES:
            C = Genus2Curve(Poly.from_ints(ctx, coeffs))
            cp = clebsch_invariants(C)
            for got, (num, den) in zip(cp.tuple(), vals):
                assert got == ctx.from_int(num) / ctx.from_int(den)


def _partial(F, m, a, b):
    """d^(a+b) F / dx^a dz^b of the binary form F of order m: the
    coefficient of x^k z^(m-a-b-k) is F[k+a] times the falling
    factorials (k+a)!/k! and (m-k-a)!/(m-k-a-b)!."""
    return [F[k + a] * (perm(k + a, a) * perm(m - k - a, b))
            for k in range(m - a - b + 1)]


def _form_mul(cs1, cs2):
    out = [cs1[0].ctx.zero] * (len(cs1) + len(cs2) - 1)
    for i, a in enumerate(cs1):
        for j, b in enumerate(cs2):
            out[i + j] = out[i + j] + a * b
    return out


def _transvectant(ctx, F, m, G, n, h):
    """h-th transvectant of binary forms F (order m) and G (order n),
    normalised by ((m-h)!(n-h)!)/(m!n!) times the Cayley omega-process
    sum."""
    out_order = m + n - 2 * h
    acc = [ctx.zero] * (out_order + 1)
    for j in range(h + 1):
        term = _form_mul(_partial(F, m, h - j, j), _partial(G, n, j, h - j))
        sign = -1 if j % 2 else 1
        coef = ctx.from_int(sign * comb(h, j))
        for t in range(out_order + 1):
            acc[t] = acc[t] + coef * term[t]
    scale = ctx.from_int(factorial(m - h) * factorial(n - h)) \
        / ctx.from_int(factorial(m) * factorial(n))
    return [c * scale for c in acc]


def clebsch_oracle(curve):
    """Clebsch invariants by the FieldElement transvectant chain: the
    path genus2.clebsch_invariants replaced with integer term tables,
    kept as the reference it is checked against."""
    ctx = curve.ctx
    f = [curve.f[k] for k in range(7)]
    A = _transvectant(ctx, f, 6, f, 6, 6)
    i4 = _transvectant(ctx, f, 6, f, 6, 4)
    B = _transvectant(ctx, i4, 4, i4, 4, 4)
    delta = _transvectant(ctx, i4, 4, i4, 4, 2)
    C = _transvectant(ctx, i4, 4, delta, 4, 4)
    y1 = _transvectant(ctx, f, 6, i4, 4, 4)
    y2 = _transvectant(ctx, i4, 4, y1, 2, 2)
    y3 = _transvectant(ctx, i4, 4, y2, 2, 2)
    D = _transvectant(ctx, y3, 2, y1, 2, 2)
    return ClebschPoint(A[0], B[0], C[0], D[0])


def random_curve_over_extension(ctx, rng, degree, all_irrational=False):
    """A random squarefree f of the given degree whose coefficients are
    not all in GF(p); with all_irrational, none of them is."""
    while True:
        cs = [random_element(ctx, rng) for _ in range(degree + 1)]
        if all_irrational and any(c.b == 0 for c in cs):
            continue
        f = Poly(ctx, cs)
        if f.degree() == degree and any(c.b for c in cs) \
                and is_squarefree(f):
            return Genus2Curve(f)


@pytest.mark.parametrize("p", [23, 41])
def test_clebsch_matches_oracle_on_graph(p):
    # every vertex key and every Jacobian codomain the build keys
    g = build_graph(make_field(p))
    curves = [v.representative for v in g.vertices.values()
              if v.key.kind == "jacobian"]
    curves += [e.hint[1] for e in g.edges
               if isinstance(e.hint[1], Genus2Curve)]
    assert curves
    for C in curves:
        assert clebsch_invariants(C) == clebsch_oracle(C), C


@pytest.mark.parametrize("p", [23, 101, 1009, 2**61 - 1, 2**127 - 1])
def test_clebsch_matches_oracle_random(p, rng):
    # up to cryptographic primes, where the normalisers folded into the
    # term tables are reduced mod p
    ctx = make_field(p)
    for degree in (6, 5):
        for _ in range(20):
            C = random_curve_over_extension(ctx, rng, degree)
            assert clebsch_invariants(C) == clebsch_oracle(C), C


@pytest.mark.parametrize("p", [23, 101, 1009])
def test_clebsch_frobenius_equivariant(p, rng):
    # the invariants are polynomials over GF(p) in the coefficients, so
    # x -> x^p commutes with them; every coefficient is outside GF(p),
    # so a product that mixes up the a and b parts shows
    ctx = make_field(p)
    for degree in (6, 6, 6, 5, 5, 5):
        C = random_curve_over_extension(ctx, rng, degree,
                                        all_irrational=True)
        conj = Genus2Curve(Poly(ctx, [frob(c) for c in C.f.coeffs]))
        assert clebsch_invariants(conj).tuple() \
            == tuple(frob(x) for x in clebsch_invariants(C).tuple())


@pytest.mark.parametrize("p", [23, 101, 1009])
def test_clebsch_scaling_equivariant(p, rng):
    # A, B, C, D have degrees 2, 4, 6, 10 in the coefficients of f.
    # Frobenius is also an automorphism of GF(p)[i] with i^2 = 1 or 0,
    # so it cannot see a product that drops the nonresidue; scaling by
    # an element outside GF(p) does
    ctx = make_field(p)
    for degree in (6, 6, 6, 5, 5, 5):
        C = random_curve_over_extension(ctx, rng, degree,
                                        all_irrational=True)
        lam = ctx.element(rng.randrange(p), rng.randrange(1, p))
        scaled = Genus2Curve(C.f * lam)
        assert clebsch_invariants(scaled).tuple() == tuple(
            x * lam ** w for x, w in zip(clebsch_invariants(C).tuple(),
                                         (2, 4, 6, 10)))


def test_clebsch_chain_runs_74_terms_and_no_inverse(monkeypatch, rng):
    # the four self-transvectants (f, f)_6, (f, f)_4, (i, i)_4 and
    # (i, i)_2 fold each term into its mirror (7 -> 4, 27 -> 15, 5 -> 3
    # and 19 -> 11 terms): 74 terms a curve, 99 before.  The normalisers
    # are in the per-prime tables, so a curve takes no inverse.  Every
    # transvectant reads and returns packed ints, one per coefficient
    C = random_curve_over_extension(make_field(101), rng, 6)
    clebsch_invariants.cache_clear()
    w, rows = genus2._chain_tables(101)
    tables = {s: sum(rows[s], ()) for s in rows}
    real, shapes, inverses = genus2._int_transvectant, [], []

    def transvectant(ctx, F, m, G, n, h):
        shapes.append((m, n, h, F is G))
        out = real(ctx, F, m, G, n, h)
        assert [len(F), len(G), len(out)] \
            == [m + 1, n + 1, m + n - 2 * h + 1]
        assert all(type(c) is int and c >> 2 * w == 0 for c in F + G + out)
        return out
    monkeypatch.setattr(genus2, "_int_transvectant", transvectant)
    monkeypatch.setattr(genus2, "pow", lambda *args: inverses.append(args)
                        or pow(*args), raising=False)
    real_pinv = type(C.ctx).pinv
    monkeypatch.setattr(type(C.ctx), "pinv", lambda *args:
                        inverses.append(args) or real_pinv(*args))
    clebsch_invariants(C)
    assert [len(rows[s]) for s in shapes] == [1, 5, 1, 5, 1, 3, 3, 3, 1]
    assert [len(tables[s]) for s in shapes] \
        == [4, 15, 3, 11, 5, 15, 9, 9, 3]
    assert sum(len(tables[s]) for s in shapes) == 74
    assert sum(fold for *_, fold in shapes) == 4
    assert inverses == []
    # unfolded, the chain's tables hold the 99 terms of before
    assert sum(len(row) for m, n, h, _ in shapes
               for row in genus2._term_table(m, n, h)) == 99


# the primes of the packed-kernel oracle tests, up to cryptographic size
PACKED_PRIMES = [41, 101, 2**61 - 1, 2**127 - 1]


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_packed_clebsch_chain_matches_oracles(p, rng):
    # each transvectant of the chain on the worst case (p - 1)(1 + i) in
    # every coefficient, whose largest row puts 2(p - 1)^2 S, the slot
    # bound, in a slot; then the chain on curves of degree 6 and 5 whose
    # coefficients are all, or in part, the worst case
    ctx = make_field(p)
    w, tables = genus2._chain_tables(p)
    worst = ctx.element(p - 1, p - 1)
    for m, n, h, fold in tables:
        F, G = [worst] * (m + 1), [worst] * (n + 1)
        PF, PG = ([p - 1 | p - 1 << w] * (k + 1) for k in (m, n))
        got = genus2._int_transvectant(ctx, PF, m, PF if fold else PG, n, h)
        assert [(c & (1 << w) - 1, c >> w) for c in got] \
            == [c.key() for c in _transvectant(ctx, F, m, G, n, h)]
    curves = [Genus2Curve(Poly(ctx, [worst] * (d + 1))) for d in (6, 5)]
    for degree in (6, 5) * 5:
        f = random_curve_over_extension(ctx, rng, degree).f.coeffs
        f = [worst if rng.random() < 0.5 else c for c in f[:-1]] + [worst]
        if is_squarefree(Poly(ctx, f)):
            curves.append(Genus2Curve(Poly(ctx, f)))
    assert len(curves) > 8
    for C in curves:
        assert clebsch_invariants.__wrapped__(C) == clebsch_oracle(C), C


def step_key_oracle(curve):
    """The vertex key data of a curve by the FieldElement oracles of the
    Clebsch chain and the weighted normal form."""
    return canonical_key_oracle(clebsch_oracle(curve))


@pytest.mark.parametrize("p", [23, 41])
def test_step_keys_match_curve_keys_on_graph(monkeypatch, p):
    # every delta != 0 kernel a build steps: the key read off the
    # codomain curve's sextic pairs, with no Poly made, is the key of a
    # fresh step's curve, by VertexKey.jacobian, by the public
    # canonical_key of clebsch_invariants and by the FieldElement
    # oracles
    stepped, real = [], graph._jacobian_step
    monkeypatch.setattr(graph, "_jacobian_step", lambda spl: stepped.append(
        (spl, real(spl))) or stepped[-1][1])
    build_graph(make_field(p))
    steps = [(spl, key, hint) for spl, (key, hint) in stepped
             if hint[0] == "jac"]
    assert steps
    for spl, key, (_, cod, dual) in steps:
        assert isinstance(cod, Genus2Curve)
        curve = richelot_generic(spl)[0]
        assert key == VertexKey.jacobian(cod) == VertexKey.jacobian(curve)
        assert key.data == canonical_key(clebsch_invariants(curve)) \
            == step_key_oracle(cod), spl


@pytest.mark.parametrize("p", [2**61 - 1, 2**127 - 1])
def test_step_keys_match_curve_keys_random(p, rng):
    # random splittings, a degree-5 codomain among them (two blocks
    # with one x coefficient make a linear G block), and sextics of the
    # worst-case coefficient (p - 1)(1 + i), of degree 6 and 5, straight
    # into the pair cores of clebsch_invariants and canonical_key
    ctx = make_field(p)
    worst = (p - 1, p - 1)
    quintics = 0
    for trial in range(24):
        blocks = [(random_element(ctx, rng).key(),
                   random_element(ctx, rng).key(), (1, 0))
                  for _ in range(3)]
        if trial % 3 == 0:
            blocks[1] = (blocks[1][0], blocks[0][1], (1, 0))
        spl = QuadraticSplitting.make(ctx, blocks,
                                      random_element(ctx, rng).key())
        cod = richelot_generic(spl)[0]
        quintics += cod.sextic[6] == (0, 0)
        key = VertexKey.jacobian(cod)
        assert cod.ctx is ctx and cod == Genus2Curve(cod.f)
        assert key.data == canonical_key(clebsch_invariants(cod)) \
            == step_key_oracle(cod)
    assert quintics == 8
    for f in ([worst] * 7, [worst] * 6 + [(0, 0)]):
        curve = Genus2Curve(Poly.from_pairs(ctx, f))
        assert genus2.canonical_key_pairs(ctx, genus2.clebsch_pairs(ctx, f)) \
            == step_key_oracle(curve) == VertexKey.jacobian(curve).data


def test_step_onto_a_degenerate_codomain_raises(ctx23):
    # blocks sharing the root 1: the closed-form check of the codomain's
    # sextic pairs still refuses it, before any key is read
    blocks = [Poly.from_roots(ctx23, list(map(ctx23.from_int, pair)))
              for pair in ((1, 2), (1, 3), (4, 5))]
    spl = splitting_of(blocks, ctx23.one)
    with pytest.raises(RichelotError, match="degenerate Richelot codomain"):
        graph._jacobian_step(spl)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_block_product_matches_mul_pairs_oracle(p, rng):
    # three blocks, one of them linear for a quintic, random or the
    # worst case (p - 1)(1 + i) in every coefficient and the scale, whose
    # x^3 slot holds the bound 7(1 + 6nr + nr^2)(p - 1)^4
    ctx = make_field(p)
    worst = (p - 1, p - 1)
    for trial in range(24):
        blocks = [tuple(worst if trial < 4 or rng.random() < 0.3 else
                        random_element(ctx, rng).key() for _ in range(3))
                  for _ in range(3)]
        if trial % 2:
            blocks[0] = blocks[0][:2] + ((0, 0),)
        scale = worst if trial < 4 else random_element(ctx, rng).key()
        assert Poly.from_pairs(ctx, genus2.block_product(
            ctx, blocks, scale)) == block_product_oracle(ctx, blocks, scale)


@pytest.mark.parametrize("p", PACKED_PRIMES)
def test_base_images_match_q_table_oracle(p, rng):
    # six distinct points, (p - 1)(1 + i) among them, and INF put at each
    # of the six places in turn: the base frame's images of x_3, x_4 and
    # x_5 are those of the four-inverse q table
    ctx = make_field(p)
    worst = (p - 1, p - 1)
    for _ in range(6):
        pts = random_distinct_points(ctx, rng, 6)
        if worst not in pts:
            pts[rng.randrange(6)] = worst
        for at in [None] + list(range(6)):
            src = pts if at is None else pts[:at] + [INF] + pts[at + 1:]
            assert genus2._base_images(ctx, src) \
                == base_images_oracle(ctx, src)


def test_clebsch_runs_on_plain_integers(monkeypatch, rng):
    # the transvectants make no FieldElement multiplication and build
    # no FieldElement but the four returned invariants
    C = random_curve_over_extension(make_field(101), rng, 6)
    clebsch_invariants.cache_clear()
    muls, built = [], []
    real_mul, real_init = FieldElement.__mul__, FieldElement.__init__
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda *args: muls.append(args) or real_mul(*args))
    monkeypatch.setattr(FieldElement, "__rmul__", FieldElement.__mul__)
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda *args: built.append(args) or real_init(*args))
    clebsch_invariants(C)
    assert len(muls) == 0
    assert len(built) == 4


def test_derived_invariants_substitutions(ctx23):
    ctx = ctx23
    dv = derived_invariants(ClebschPoint(ctx.zero, ctx.zero, ctx.zero,
                                         ctx.one))
    assert dv.A11.is_zero() and dv.A12.is_zero()
    assert dv.A22 == ctx.one and dv.A31 == ctx.one
    dv = derived_invariants(ClebschPoint(ctx.one, ctx.zero, ctx.zero,
                                         ctx.zero))
    assert dv.A11.is_zero() and dv.A12.is_zero() and dv.A22.is_zero()


def test_derived_determinant_two_algorithms(ctx23, rng):
    # cofactor expansion (the implementation) vs Gaussian elimination
    for _ in range(20):
        cp = ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
        dv = derived_invariants(cp)
        m = [[dv.A11, dv.A12, dv.A31],
             [dv.A12, dv.A22, dv.A23],
             [dv.A31, dv.A23, dv.A33]]
        det = _det_by_elimination(ctx23, m)
        assert det == dv.R_squared_times_2


def _det_by_elimination(ctx, m):
    m = [row[:] for row in m]
    det = ctx.one
    for col in range(3):
        piv = None
        for r in range(col, 3):
            if not m[r][col].is_zero():
                piv = r
                break
        if piv is None:
            return ctx.zero
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, 3):
            factor = m[r][col] * inv
            for c in range(col, 3):
                m[r][c] = m[r][c] - factor * m[col][c]
    return det


def test_reduced_automorphism_orders(ctx23, rng):
    z6 = ctx23.nth_root_of_unity(6)
    assert len(reduced_automorphisms(
        c_two_param(ctx23, z6, z6.inverse()))) == 12
    u = ctx23.element(3, 1)
    assert len(reduced_automorphisms(c_two_param(ctx23, u, u.inverse()))) \
        == 4
    ctx19 = make_field(19)
    assert len(reduced_automorphisms(
        Genus2Curve(Poly.from_ints(ctx19, [-1, 0, 0, 0, 0, 1])))) == 5


def test_reduced_automorphisms_group_closure(ctx23):
    # the index maps are distinct and closed under composition and
    # inverses, the identity among them; each is the point permutation
    # of a Moebius map, and those maps are closed under composition
    def compose(m1, m2):
        """m1 after m2."""
        return MoebiusMap.make(m1.a * m2.a + m1.b * m2.c,
                               m1.a * m2.b + m1.b * m2.d,
                               m1.c * m2.a + m1.d * m2.c,
                               m1.c * m2.b + m1.d * m2.d)

    u = ctx23.element(3, 1)
    C = c_two_param(ctx23, u, u.inverse())
    K, pts = ctx23, weierstrass_points(C)
    perms = reduced_automorphisms(C)
    group = {tuple(m) for m in perms}
    assert len(group) == len(perms) == 4
    assert tuple(range(6)) in group
    for m1 in perms:
        assert tuple(sorted(range(6), key=m1.__getitem__)) in group
        for m2 in perms:
            assert tuple(m1[i] for i in m2) in group
    maps = [index_map_moebius(K, pts, pts, m) for m in perms]
    assert [induced_index_map(m, pts, pts) for m in maps] == perms
    keys = {m.key() for m in maps}
    for m1 in maps:
        for m2 in maps:
            assert compose(m1, m2).key() in keys
    assert any(m.b.is_zero() and m.c.is_zero() and m.a == m.d for m in maps)


def test_type_from_order_table(ctx23, rng):
    # order -> type per the taxonomy; cross-checked with Clebsch rows
    cases = []
    while len(cases) < 3:
        try:
            C = random_split_curve(ctx23, rng)
        except Genus2Error:
            continue
        cases.append(C)
    for C in cases:
        t1 = ra_type_from_automorphisms(C)
        t2 = ra_type_from_clebsch(clebsch_invariants(C))
        assert t1 == t2


def test_classifier_agreement_with_irrational_points(ctx23, rng):
    # a curve with an irreducible quadratic factor is no superspecial
    # vertex: Clebsch still classifies it, and the Moebius classifier
    # raises the typed error at its points, which counts the 3
    # matchings of its four rational points
    for _ in range(8):
        C = random_curve_with_irrational_points(ctx23, rng)
        assert ra_type_from_clebsch(clebsch_invariants(C)) in RAType.JACOBIAN
        with pytest.raises(IrrationalPointsError) as exc:
            ra_type_from_automorphisms(C)
        assert (exc.value.p, exc.value.sextic, exc.value.kernels) \
            == (23, C.f, 3)


def assert_ra_matches_search_oracle(C):
    # the index maps are those the searched maps induce on the sorted
    # points, and each stands for one searched map
    K, pts = C.ctx, weierstrass_points(C)
    perms = reduced_automorphisms(C)
    maps = moebius_search_oracle(K, pts, pts)
    assert sorted(perms) \
        == sorted(induced_index_map(m, pts, pts) for m in maps), C
    assert sorted(index_map_moebius(K, pts, pts, m).key() for m in perms) \
        == [m.key() for m in maps], C


def test_reduced_automorphisms_match_search_oracle_random(ctx23, rng):
    # sextics, quintics (INF is a Weierstrass point) and the special
    # curves of the orders test; curves with points in GF(p^4) only
    # raise the typed error
    curves = [random_split_curve(ctx23, rng) for _ in range(6)]
    curves += [random_split_curve(ctx23, rng, degree=5) for _ in range(6)]
    for _ in range(6):
        with pytest.raises(IrrationalPointsError, match="^only 3 rational"):
            reduced_automorphisms(random_curve_with_irrational_points(
                ctx23, rng))
    z6 = ctx23.nth_root_of_unity(6)
    u = ctx23.element(3, 1)
    curves += [c_two_param(ctx23, z6, z6.inverse()),
               c_two_param(ctx23, u, u.inverse()),
               Genus2Curve(Poly.from_ints(make_field(19),
                                          [-1, 0, 0, 0, 0, 1]))]
    for C in curves:
        assert_ra_matches_search_oracle(C)


@pytest.mark.parametrize("p", [23, 41])
def test_reduced_automorphisms_match_search_oracle_on_graph(p):
    # a mirror vertex holds its points in its partner's order, so its
    # RA maps are translated onto the sorted points before the compare
    g = build_graph(make_field(p))
    orders = set()
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            assert_ra_matches_search_oracle(v.representative)
            keys = sorted(v.points)
            at = [keys.index(x) for x in v.points]
            translated = []
            for m in v.ra_maps:
                t = [None] * 6
                for i, j in enumerate(m):
                    t[at[i]] = at[j]
                translated.append(t)
            assert sorted(reduced_automorphisms(v.representative)) \
                == sorted(translated)
            assert len(v.ra_maps) == v.ra_order
            orders.add(v.ra_order)
    assert len(orders) > 1


def assert_frames_match_oracle(K, pts):
    """For every signature of the oracle, the index yields exactly its
    triples, in its order, each frame's tail in the order of its images'
    keys; a signature that is not the oracle's, one coordinate changed,
    yields none."""
    frames = moebius_frames(K, pts)
    oracle = moebius_frames_oracle(K, pts)
    absent = 0
    for signature, triples in oracle.items():
        frs = frames.get(signature, ())
        assert [fr[:3] for fr in frs] == triples
        for fr in frs:
            to_frame = MoebiusMap(*to_zero_one_inf(
                K, *(pts[i] for i in fr[:3])))
            assert sum((to_frame.apply(pts[i]) for i in fr[3:]),
                       ()) == signature
            # the map between two frames of a signature keeps the tails
            m = moebius_through(K, [pts[i] for i in frs[0][:3]],
                                [pts[i] for i in fr[:3]])
            assert [m.apply(pts[i]) for i in frs[0][3:]] \
                == [pts[i] for i in fr[3:]]
        for n in range(6):
            changed = list(signature)
            changed[n] = (changed[n] + 1) % K.p
            changed = sum(sorted(zip(changed[0::2], changed[1::2])), ())
            if changed not in oracle:
                absent += 1
                assert frames.get(changed) is None
                assert frames.get(changed, ()) == ()
    assert absent


@pytest.mark.parametrize("p", [23, 41])
def test_moebius_frames_match_oracle_on_graph(p):
    ctx = make_field(p)
    g = build_graph(ctx)
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            assert_frames_match_oracle(ctx, v.points)


@pytest.mark.parametrize("p", [23, 101, 1009, 2**127 - 1])
def test_moebius_frames_match_oracle_random(p, rng):
    # six finite points, and five with INF at a random place
    ctx = make_field(p)
    for _ in range(10):
        assert_frames_match_oracle(ctx, random_distinct_points(ctx, rng, 6))
        pts = random_distinct_points(ctx, rng, 5)
        pts.insert(rng.randrange(6), INF)
        assert_frames_match_oracle(ctx, pts)


def test_moebius_frames_match_oracle_irrational_points(ctx23, rng):
    # two Weierstrass points in GF(p^4) only: no frames, as the points
    # raise the typed error, whose last line is the command that
    # reproduces it
    for _ in range(4):
        C = random_curve_with_irrational_points(ctx23, rng)
        with pytest.raises(IrrationalPointsError) as exc:
            weierstrass_points(C)
        coeffs = ",".join(map(repr, C.f.coeffs))
        assert str(exc.value).splitlines() == [
            "only 3 rational kernels; Weierstrass points outside GF(p^2)",
            f"richelot neighbourhood -p 23 --sextic={coeffs}"]


def test_moebius_frames_run_on_plain_integers(monkeypatch, rng):
    # over GF(p^2) the frames and their matching make no FieldElement
    # multiplication and build no FieldElement; a table of six finite
    # points takes one inverse per unordered pair, and a base frame one,
    # shared by its three images (four, one per q, before)
    ctx = make_field(101)
    pts = random_distinct_points(ctx, rng, 6)
    muls, built, inverses = [], [], []
    real_mul, real_init = FieldElement.__mul__, FieldElement.__init__
    real_pinv = type(ctx).pinv
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda *args: muls.append(args) or real_mul(*args))
    monkeypatch.setattr(FieldElement, "__rmul__", FieldElement.__mul__)
    monkeypatch.setattr(FieldElement, "__init__",
                        lambda *args: built.append(args) or real_init(*args))
    monkeypatch.setattr(type(ctx), "pinv", lambda *args:
                        inverses.append(args) or real_pinv(*args))
    frames = moebius_frames(ctx, pts)
    assert len(inverses) == 15
    perms = moebius_stabilizing(ctx, pts, frames)
    assert len(inverses) == 15 + 1
    assert list(range(6)) in perms
    assert len(muls) == 0
    assert len(built) == 0


@pytest.mark.parametrize("p", [23, 41])
def test_moebius_stabilizing_match_search_oracle_on_graph(p):
    # the index maps read off the frames are the point permutations of
    # the searched maps, and the kernel orbits the graph built are the
    # orbits of those maps
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        if v.key.kind != "jacobian":
            continue
        K, pts = v.representative.ctx, v.points
        maps = moebius_search_oracle(K, pts, pts)
        assert sorted(moebius_stabilizing(K, pts, own_frames(v))) \
            == sorted(induced_index_map(m, pts, pts) for m in maps)
        # the index labels, translated to pairings through MATCHINGS
        pairings = [label_pairing(pts, n) for n in range(15)]
        index_of = {pr: i for i, pr in enumerate(pairings)}
        actions = [[index_of[frozenset(
            frozenset(map(m.apply, pair)) for pair in pairing)]
            for pairing in pairings] for m in maps]
        want = {frozenset(pairings[i] for i in orbit)
                for orbit in orbit_partition(range(15), actions)}
        got = {}
        for n, e in enumerate(v.kernel_to_edge):
            got.setdefault(id(e), set()).add(pairings[n])
        assert {frozenset(o) for o in got.values()} == want


def test_inf_sorts_first_and_is_no_pair():
    # points are (a, b) int pairs or INF: INF sorts before every pair,
    # so sorted points put it first; it is falsy, equals no pair and
    # cannot be unpacked as one
    pts = [(0, 1), INF, (0, 0), (1, 0)]
    assert sorted(pts) == [INF, (0, 0), (0, 1), (1, 0)]
    assert not INF and INF != (0, 0) and INF == ()
    with pytest.raises(ValueError):
        a, b = INF


def test_matching_action_matches_brute_force_and_composes():
    # MATCHINGS are the 15 perfect matchings of range(6); each of the
    # 720 permutations acts on them as moving their pairs as sets, as the
    # generator-sum form of the action did (uncached), and the action of
    # a composite is the composite of the actions
    as_sets = [frozenset(map(frozenset, m)) for m in MATCHINGS]
    assert len(set(as_sets)) == 15
    assert all(sorted(a for pair in m for a in pair) == list(range(6))
               for m in MATCHINGS)
    assert [matching_index(reversed(m)) for m in MATCHINGS] \
        == list(range(15))
    perms = list(permutations(range(6)))
    for g in perms:
        assert matching_action(g) == tuple(
            as_sets.index(frozenset(frozenset(g[a] for a in pair)
                                    for pair in m)) for m in as_sets)
        assert matching_action.__wrapped__(g) == matching_action_oracle(g)
    rng = random.Random(6)
    for g in perms:
        for h in rng.sample(perms, 8):
            gh = tuple(g[h[i]] for i in range(6))
            assert matching_action(gh) == tuple(
                matching_action(g)[n] for n in matching_action(h))


def weierstrass_points_oracle(curve):
    """Weierstrass points by factoring: the Cantor-Zassenhaus path that
    genus2.weierstrass_points replaced, kept as the reference the
    block-root path is checked against: over GF(p^2), the points as
    genus2 holds them, (a, b) pairs or INF."""
    ctx = curve.ctx
    linears, quads = factor_quadratic_pieces(curve.f)
    if not quads:
        pts = [(-g[0]).key() for g in linears]
        if curve.f.degree() == 5:
            pts.append(INF)
        pts.sort()
        return ctx, pts
    ext = ctx.extension()
    pts = [ext.embed(-g[0]) for g in linears]
    for g in quads:
        # roots of x^2 + bx + c in GF(p^4)
        b, c = g[1], g[0]
        disc = b * b - 4 * c
        s = ext.embed(disc).sqrt()
        half = ext.embed(ctx.from_int(2).inverse())
        r1 = (ext.embed(-b) + s) * half
        r2 = (ext.embed(-b) - s) * half
        pts.extend([r1, r2])
    if curve.f.degree() == 5:
        pts.append(INF)
    pts.sort(key=lambda x: x and x.key())
    return ext, pts


def random_irreducible_quadratic(ctx, rng):
    while True:
        q = Poly(ctx, [random_element(ctx, rng), random_element(ctx, rng),
                       ctx.one])
        if not poly_roots(q):
            return q


@pytest.mark.parametrize("n_roots, n_irred", [
    (6, 0), (4, 1), (2, 2), (0, 3), (5, 0), (3, 1), (1, 2)])
def test_splitting_points_match_factoring_oracle(ctx23, rng, n_roots,
                                                 n_irred):
    # odd n_roots gives degree-5 models (INF is a Weierstrass point);
    # any irreducible block moves the points to GF(p^4), where the
    # curve and each splitting raise one typed error, with the count of
    # matchings of the oracle's rational points
    checked = 0
    while checked < 4:
        f = Poly.from_roots(ctx23, random_distinct_elements(
            ctx23, rng, n_roots))
        for _ in range(n_irred):
            f = f * random_irreducible_quadratic(ctx23, rng)
        if not is_squarefree(f):
            continue
        C = Genus2Curve(f)
        K, want = weierstrass_points_oracle(C)
        assert (K is ctx23) == (n_irred == 0)
        if n_irred == 0:
            assert weierstrass_points(C) == want
            assert all(splitting_points(s) == want for s in splittings(C))
            checked += 1
            continue
        r = sum(x == INF or x.in_base_field() for x in want)
        with pytest.raises(IrrationalPointsError) as exc:
            weierstrass_points(C)
        assert exc.value.kernels == len(_INDEX_MATCHINGS[r])
        for s in splittings(C):
            with pytest.raises(IrrationalPointsError) as from_s:
                splitting_points(s)
            assert str(from_s.value) == str(exc.value)
        checked += 1


@pytest.mark.parametrize("p", [23, 41])
def test_splitting_points_match_factoring_oracle_on_graph(p):
    # the dual splitting of every step onto a Jacobian codomain, the
    # label recorded on every Jacobian target, and every vertex
    g = build_graph(make_field(p))
    codomains = [e for e in g.edges if e.target.kind == "jacobian"]
    assert codomains
    for e in codomains:
        _, curve, spl = stepped_hint(g, e)
        assert (curve.ctx, splitting_points(spl)) \
            == weierstrass_points_oracle(curve), e.sort_key()
        spl = recorded_dual_splitting(g, e)
        assert (e.hint[1].ctx, splitting_points(spl)) \
            == weierstrass_points_oracle(e.hint[1]), e.sort_key()
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            rep = v.representative
            want = weierstrass_points_oracle(rep)
            assert (rep.ctx, weierstrass_points(rep)) == want
            # a mirror's points follow its partner's order
            assert (rep.ctx, sorted(v.points)) == want


@pytest.mark.parametrize("p", [23, 41])
def test_block_roots_match_oracle_on_recorded_duals(p):
    # every block of the dual splitting of every step onto a Jacobian
    # codomain: the int-pair roots equal the FieldElement ones
    g = build_graph(make_field(p))
    duals = [stepped_hint(g, e)[2] for e in g.edges
             if e.target.kind == "jacobian"]
    assert duals
    for spl in duals:
        for blk in spl.blocks:
            assert _block_roots(blk, spl.ctx) \
                == block_roots_oracle(blk, spl.ctx), blk


def random_monic_blocks(ctx, rng, n):
    """n random monic blocks (c0, c1, c2), in six kinds by turns:
    linear; c1 = 0; discriminant a non-square of GF(p) (its roots take
    the sqrt(a/n) i branch of psqrt); discriminant any element of GF(p),
    zero included; irreducible over GF(p^2); and no constraint.  Yields
    (kind, block)."""
    p, ns = ctx.p, ctx.nonsquare()
    nonresidues = [k for k in range(1, p) if legendre(k, p) == -1]
    quarter = ctx.from_int(4).inverse()
    for i in range(n):
        kind = i % 6
        c, b = random_element(ctx, rng), random_element(ctx, rng)
        if kind == 0:
            yield kind, (c.key(), (1, 0), (0, 0))
            continue
        if kind == 1:
            b = ctx.zero
        elif kind in (2, 3, 4):
            y = random_element(ctx, rng)
            while y.is_zero():
                y = random_element(ctx, rng)
            d = {2: ctx.from_int(rng.choice(nonresidues)),
                 3: ctx.from_int(rng.randrange(p)),
                 4: ns * y * y}[kind]
            c = (b * b - d) * quarter
        yield kind, (c.key(), b.key(), (1, 0))


@pytest.mark.parametrize("p", [41, 43, 101, 103])
def test_block_roots_match_oracle_random(p):
    # p = 41 and 101 are 1 (mod 4), so the GF(p) roots run Tonelli-
    # Shanks; 43 and 103 are 3 (mod 4).  Irreducible blocks give None,
    # and a splitting with one, beside a linear block, raises the typed
    # error, with the one matching of the linear block's two points
    ctx = make_field(p)
    rng = random.Random(p)
    kinds = {}
    for kind, blk in random_monic_blocks(ctx, rng, 2400):
        got = _block_roots(blk, ctx)
        assert got == block_roots_oracle(blk, ctx), blk
        kinds.setdefault(kind, []).append(got)
        if kind == 2:  # the root of the discriminant is in GF(p) i
            s = ctx.psqrt(ctx.pminor(blk[1], blk[1], (4, 0), blk[0]))
            assert s[0] == 0 and s[1] != 0
        if kind == 4:
            assert got is None
            spl = QuadraticSplitting.make(
                ctx, [blk, next(random_monic_blocks(ctx, rng, 1))[1]], (1, 0))
            with pytest.raises(IrrationalPointsError) as exc:
                splitting_root_pairs(spl)
            assert exc.value.kernels == 1
    assert sorted(kinds) == list(range(6))
    assert all(len(v) == 400 for v in kinds.values())
    # every element of GF(p) is a square in GF(p^2)
    assert None not in kinds[0] + kinds[2] + kinds[3]
    assert all(None in kinds[k] and {None} != set(kinds[k]) for k in (1, 5))


def splittings_with_pairings_oracle(curve):
    """(splitting, pairing) by factoring and one square root per block:
    the path point_splittings replaced at graph vertices, kept as the
    reference it is checked against."""
    return [(s, splitting_pairing(s)) for s in splittings(curve)]


def test_point_splittings_match_factoring_oracle_random(ctx23, rng):
    # sextics and quintics (INF is a Weierstrass point), all points
    # rational
    for degree in (6, 6, 6, 6, 5, 5, 5, 5):
        C = random_split_curve(ctx23, rng, degree)
        pts = weierstrass_points(C)
        assert [(spl, label_pairing(pts, n)) for spl, n in
                point_splittings(ctx23, (), pts, C.f.leading().key())] \
            == splittings_with_pairings_oracle(C), C


@pytest.mark.parametrize("p", [23, 41])
def test_point_splittings_match_factoring_oracle_on_graph(p):
    # the kernels each Jacobian vertex builds from its own points
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            rep, pts = v.representative, v.points
            built = [(spl, label_pairing(pts, n)) for spl, n in
                     point_splittings(rep.ctx, (), pts, rep.leading)]
            want = splittings_with_pairings_oracle(rep)
            assert built == want, v.key.as_string()
            assert len(v.kernel_to_edge) == 15
            assert {label_pairing(pts, k) for e in v.edges
                    for k in e.kernels} == {pr for _, pr in want}


def test_point_splittings_run_on_ints(monkeypatch):
    # at every Jacobian vertex at p = 41 each block is Poly.from_roots of
    # its pair of points, and building them makes no FieldElement product
    # and no Poly
    ctx = make_field(41)
    g = build_graph(ctx)
    cases = [(v.points, v.representative.leading)
             for v in g.vertices.values() if v.key.kind == "jacobian"]
    for pts, scale in cases:
        for spl, n in point_splittings(ctx, (), pts, scale):
            pairs = [(pts[a], pts[b]) for a, b in MATCHINGS[n]]
            blocks = [Poly.from_roots(ctx, [point_element(ctx, x)
                                            for x in (r, s) if x])
                      for r, s in pairs]
            assert spl == splitting_of(blocks, ctx.element(*scale))
    muls, polys = [], []
    real_mul, real_init = FieldElement.__mul__, Poly.__init__
    monkeypatch.setattr(FieldElement, "__mul__",
                        lambda *args: muls.append(args) or real_mul(*args))
    monkeypatch.setattr(FieldElement, "__rmul__", FieldElement.__mul__)
    monkeypatch.setattr(Poly, "__init__", lambda self, *args:
                        polys.append(args) or real_init(self, *args))
    for pts, scale in cases:
        point_splittings(ctx, (), pts, scale)
    assert muls == [] and polys == []


def test_point_splittings_build_each_pair_block_once(monkeypatch):
    # one FieldCtx.pmul per pair of finite points, 15 for six of them and
    # 10 with INF among them, and no _matchings recursion per call; the
    # splittings and labels are matching_splitting's per MATCHINGS entry
    ctx = make_field(23)
    reps = [(v.representative, ctx.element(*v.points[-1]))
            for v in build_graph(ctx).vertices.values()
            if v.key.kind == "jacobian"]
    quintics = [transform_curve(rep, r, ctx.one, ctx.one, ctx.zero)
                for rep, r in reps]
    cases = [(weierstrass_points(C), C.f.leading().key())
             for C in [rep for rep, _ in reps] + quintics]
    assert sum(pts[0] == INF for pts, _ in cases) == len(quintics)
    for pts, scale in cases:
        want = sorted(((matching_splitting(ctx, (), [
            (pts[a], pts[b]) for a, b in m], scale), n)
            for n, m in enumerate(MATCHINGS)), key=lambda sp: sp[0].blocks)
        muls, recursions = [], []
        real_pmul, real_matchings = type(ctx).pmul, genus2._matchings
        monkeypatch.setattr(type(ctx), "pmul", lambda *args:
                            muls.append(args) or real_pmul(*args))
        monkeypatch.setattr(genus2, "_matchings", lambda *args:
                            recursions.append(args) or real_matchings(*args))
        got = point_splittings(ctx, (), pts, scale)
        monkeypatch.undo()
        assert got == want
        assert len(muls) == (10 if pts[0] == INF else 15)
        assert recursions == []


@pytest.mark.parametrize("p", [23, 41])
def test_weierstrass_points_match_splitting_path(p):
    # the factor roots (and INF) give exactly the points the first
    # splitting's blocks gave, on lookup-style models and quintics
    ctx, rng = make_field(p), random.Random(p)
    curves = []
    for v in build_graph(ctx).vertices.values():
        if v.key.kind == "jacobian":
            rep, r = v.representative, ctx.element(*v.points[-1])
            a, b = random_element(ctx, rng), random_element(ctx, rng)
            curves += [rep, transform_curve(rep, r, ctx.one, ctx.one,
                                            ctx.zero),
                       transform_curve(rep, a, b, b + ctx.one, a)]
    curves = [C for C in curves if C.f.degree() in (5, 6)]
    assert any(C.f.degree() == 5 for C in curves)
    for C in curves:
        pts = weierstrass_points(C)
        assert pts == splitting_points(splittings(C)[0])
        assert len(pts) == 6
        assert [x for x in pts if x == INF] == [INF] * (C.f.degree() == 5)


def test_weierstrass_points_factor_once_with_quadratic_factor(monkeypatch):
    # x^6 + x + 1 at p = 19 has two roots and two irreducible quadratic
    # factors, so four points lie over GF(p^4) only: one factoring
    # raises the typed error, with the one matching of the two roots,
    # and its one rational splitting raises the same
    ctx = make_field(19)
    C = Genus2Curve(Poly.from_ints(ctx, [1, 1, 0, 0, 0, 0, 1]))
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces")
    with pytest.raises(IrrationalPointsError) as exc:
        weierstrass_points(C)
    assert len(calls) == 1
    assert exc.value.kernels == 1
    assert len(factor_quadratic_pieces(C.f)[1]) == 2
    with pytest.raises(IrrationalPointsError) as from_splitting:
        splitting_points(splittings(C)[0])
    assert str(from_splitting.value) == str(exc.value)


def test_splittings_and_points_share_one_factoring(monkeypatch, rng):
    # a bare curve asked for its splittings and its Weierstrass points,
    # in either order, is factored once (twice before): both read the
    # _forced_free memo.  So is a curve with irrational points, whose
    # points raise the typed error from the memoized factoring
    ctx = make_field(101)
    curves = [random_split_curve(ctx, rng), random_split_curve(ctx, rng, 5),
              random_curve_with_irrational_points(ctx, rng)]
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces")
    asks = (splittings, weierstrass_points)
    for n, C in enumerate(curves):
        for ask in asks if n % 2 == 0 else asks[::-1]:
            try:
                ask(C)
            except IrrationalPointsError:
                assert ask is weierstrass_points and n == 2
        assert len(calls) == n + 1
    assert [len(splittings(C)) for C in curves] == [15, 15, 3]
    assert [f for f, in calls] == [C.f for C in curves]
    assert genus2._forced_free.cache_info()[:2] == (3, 3)


@pytest.mark.slow
def test_curve_memos_stay_within_their_bounds():
    # 200 random split sextics at p = 2^127 - 1, each factored once for
    # its points and its splittings, keyed and searched for automorphisms:
    # every curve memo fills to its bound and no further, and so does
    # the field's memo of roots in GF(p) (it held 1,099 with no bound)
    ctx, rng = make_field(2 ** 127 - 1), random.Random(127)
    memos = {genus2._forced_free: genus2.FACTORINGS_KEPT,
             genus2.splittings: genus2.SPLITTINGS_KEPT,
             genus2.weierstrass_points: genus2.WEIERSTRASS_KEPT,
             genus2.reduced_automorphisms: genus2.AUTOMORPHISMS_KEPT,
             genus2.clebsch_invariants: genus2.CLEBSCH_KEPT}
    for memo in memos:
        memo.cache_clear()
    for _ in range(200):
        pts = [ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))
               for _ in range(6)]
        C = Genus2Curve(Poly.from_roots(ctx, pts))
        assert weierstrass_points(C) == sorted(x.key() for x in pts)
        assert len(splittings(C)) == 15
        assert reduced_automorphisms(C)[0] == list(range(6))
        clebsch_invariants(C)
    for memo, bound in memos.items():
        assert memo.cache_info()[2:] == (bound, bound) < (200, 200)
    assert len(ctx._roots) == ROOTS_KEPT
    assert ctx.psqrt((4, 0)) in ((2, 0), (ctx.p - 2, 0))


def test_make_sorts_blocks_by_poly_key_order(rng):
    # random monic blocks, with and without a linear block: make orders
    # them as Poly.key ordered Poly blocks
    for p in (11, 23, 101):
        ctx = make_field(p)
        for trial in range(200):
            blocks = [(random_element(ctx, rng).key(),
                       random_element(ctx, rng).key(), (1, 0))
                      for _ in range(3)]
            if trial % 2:
                blocks[0] = (random_element(ctx, rng).key(), (1, 0),
                             (0, 0))
            for t in blocks:
                assert poly_key_oracle(t) == block_poly(ctx, t).key()
            got = QuadraticSplitting.make(ctx, blocks, (1, 0)).blocks
            assert list(got) == sorted(blocks, key=poly_key_oracle)


@pytest.mark.parametrize("p", [23, 41])
def test_point_splittings_keep_poly_key_order(p):
    # at every Jacobian vertex the 15 splittings come in the order of
    # their blocks' Poly.keys, so orbit representatives are unchanged
    g = build_graph(make_field(p))
    for v in g.vertices.values():
        if v.key.kind == "jacobian":
            C = v.representative
            spls = [s for s, _ in point_splittings(
                C.ctx, (), v.points, C.leading)]
            assert spls == sorted(spls, key=lambda s: tuple(
                poly_key_oracle(b) for b in s.blocks))


def test_clebsch_table_rows(ctx23):
    ctx = ctx23
    assert ra_type_from_clebsch(ClebschPoint(
        ctx.zero, ctx.zero, ctx.zero, ctx.one)) == RAType.II
    assert ra_type_from_clebsch(ClebschPoint(
        ctx.one, ctx.zero, ctx.zero, ctx.zero)) == RAType.VI


def lexmin_key_oracle(cp):
    """Reference key: the lexicographically least weighted rescaling
    (mu A, mu^2 B, mu^3 C, mu^5 D) over every mu in GF(p^2)^*, with
    single-coordinate tuples sent to unit tuples."""
    ctx = cp.A.ctx
    coords = cp.tuple()
    nonzero = [k for k, c in enumerate(coords) if not c.is_zero()]
    if len(nonzero) == 1:
        unit = [(0, 0)] * 4
        unit[nonzero[0]] = (1, 0)
        return tuple(unit)
    A, B, C, D = coords
    best = None
    for mu in ctx.elements():
        if mu.is_zero():
            continue
        mu2 = mu * mu
        mu3 = mu2 * mu
        mu5 = mu3 * mu2
        cand = ((mu * A).key(), (mu2 * B).key(), (mu3 * C).key(),
                (mu5 * D).key())
        if best is None or cand < best:
            best = cand
    return best


def rescale(cp, mu):
    return ClebschPoint(mu * cp.A, mu ** 2 * cp.B, mu ** 3 * cp.C,
                        mu ** 5 * cp.D)


def random_nonzero(ctx, rng):
    while True:
        x = random_element(ctx, rng)
        if not x.is_zero():
            return x


def with_rescalings(cps, rng):
    """Each point followed by two random rescalings of it."""
    out = []
    for cp in cps:
        out.append(cp)
        out.extend(rescale(cp, random_nonzero(cp.A.ctx, rng))
                   for _ in range(2))
    return out


def assert_same_partition(points):
    """canonical_key and the oracle split `points` into the same classes."""
    pairs = {(canonical_key(cp), lexmin_key_oracle(cp)) for cp in points}
    assert len({new for new, _ in pairs}) == len(pairs)
    assert len({old for _, old in pairs}) == len(pairs)


def test_canonical_key_weighted_rescaling(ctx23, rng):
    ns = ctx23.nonsquare()
    for _ in range(30):
        cp = ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
        if all(c.is_zero() for c in cp.tuple()):
            continue
        mu = random_nonzero(ctx23, rng)
        # exactly one of mu and mu * ns is a square in GF(p^2)
        for m in (mu, mu * ns):
            assert canonical_key(cp) == canonical_key(rescale(cp, m))
    d = random_element(ctx23, rng)
    if not d.is_zero():
        assert canonical_key(ClebschPoint(ctx23.zero, ctx23.zero,
                                          ctx23.zero, d)) \
            == canonical_key(ClebschPoint(ctx23.zero, ctx23.zero,
                                          ctx23.zero, ctx23.one))


def test_canonical_key_matches_lexmin_oracle_random(ctx23, rng):
    cps = [ClebschPoint(*[random_element(ctx23, rng) for _ in range(4)])
           for _ in range(40)]
    cps = [cp for cp in cps if not all(c.is_zero() for c in cp.tuple())]
    assert_same_partition(with_rescalings(cps, rng))


@pytest.mark.parametrize("zero_coords", [(), (0,), (0, 2), (0, 1)],
                         ids=["A", "BC", "BD", "CD"])
def test_canonical_key_matches_lexmin_oracle_branches(ctx23, rng,
                                                      zero_coords):
    # one normal-form branch each: A != 0; A = 0 with B, C != 0;
    # A = C = 0 with B, D != 0; A = B = 0 with C, D != 0
    cps = []
    for _ in range(15):
        coords = [random_nonzero(ctx23, rng) for _ in range(4)]
        for k in zero_coords:
            coords[k] = ctx23.zero
        cps.append(ClebschPoint(*coords))
    assert_same_partition(with_rescalings(cps, rng))


def test_canonical_key_matches_lexmin_oracle_on_graph():
    # every Jacobian vertex and every Jacobian codomain of the p = 23 graph
    g = build_graph(make_field(23))
    curves = [v.representative for v in g.vertices.values()
              if v.key.kind == "jacobian"]
    curves += [e.hint[1] for e in g.edges
               if isinstance(e.hint[1], Genus2Curve)]
    points = {cp.tuple(): cp for cp in map(clebsch_invariants, curves)}
    assert_same_partition(points.values())


def test_canonical_key_moebius_invariance(ctx23, rng):
    for _ in range(10):
        C = random_split_curve(ctx23, rng)
        k1 = canonical_key(clebsch_invariants(C))
        while True:
            a, b, c, d = (random_element(ctx23, rng) for _ in range(4))
            if not (a * d - b * c).is_zero():
                break
        Cm = transform_curve(C, a, b, c, d)
        assert canonical_key(clebsch_invariants(Cm)) == k1
        # rescaling f also keeps the class
        scale = random_element(ctx23, rng)
        if not scale.is_zero():
            Cs = Genus2Curve(C.f * scale)
            assert canonical_key(clebsch_invariants(Cs)) == k1


@pytest.mark.parametrize("p", [23, 41, 101])
def test_transform_curve_matches_oracle(p, rng):
    # random invertible maps, a quarter each generic, with a = 0, with
    # c = 0 and with b = c = 0; on split and random sextics and quintics
    ctx = make_field(p)
    for n in range(240):
        degree = (6, 5)[n % 2]
        C = (random_split_curve, random_curve_over_extension)[n // 2 % 2](
            ctx, rng, degree)
        zeros = ((), (0,), (2,), (1, 2))[n % 4]
        while True:
            m = [ctx.zero if i in zeros else random_element(ctx, rng)
                 for i in range(4)]
            if not (m[0] * m[3] - m[1] * m[2]).is_zero():
                break
        assert transform_curve(C, *m).f == transform_curve_oracle(C, *m).f


def test_orbit_sizes_sum_to_fifteen(ctx23, rng):
    for _ in range(5):
        C = random_split_curve(ctx23, rng)
        pts = weierstrass_points(C)
        labels = [n for _, n in
                  point_splittings(ctx23, (), pts, C.f.leading().key())]
        orbits = moebius_orbits_on_splittings(
            labels, reduced_automorphisms(C))
        assert sum(len(o) for o in orbits) == 15


def test_genus2_validation():
    ctx = make_field(11)
    with pytest.raises(Genus2Error):
        Genus2Curve(Poly.from_ints(ctx, [1, 2, 3, 4, 1]))  # degree 4
    with pytest.raises(Genus2Error, match="defining polynomial is zero"):
        Genus2Curve(Poly(ctx, []))
    with pytest.raises(Genus2Error):
        Genus2Curve(Poly.from_roots(
            ctx, [ctx.from_int(v) for v in (1, 1, 2, 3, 4, 5)]))


def bolza_points(ctx, rng):
    """244 Clebsch points, each of Bolza's rows among them: 120 random
    points, a quarter of their coordinates zeroed, and 124 built on a
    row and rescaled by a random mu, weights (1, 2, 3, 5).  The rows
    II, VI, V and IV have closed forms; III and IV both lie on the
    R = 0 points with D A11 = A12^2 and A12 = k A11 (A and k free, B a
    root of a quadratic); Type I is the normal form of atlas; and the
    one class that no row takes is (1 : 8/75 : 16/1125 : 128/28125),
    on both the III and the IV rows but for 6C^2 = B^3 and 2AB = 15C.
    The all-zero point ends the list."""
    from richelot.atlas import normal_form
    el = partial(random_element, ctx, rng)
    nz = partial(random_nonzero, ctx, rng)
    third, sixth = ctx.from_int(3).inverse(), ctx.from_int(6).inverse()
    pts = [ClebschPoint(*(el() if rng.random() < 0.75 else ctx.zero
                          for _ in range(4))) for _ in range(120)]
    built = []
    for _ in range(12):
        a, t, k = nz(), nz(), el()
        B = a * a * sixth
        built += [(ctx.zero, ctx.zero, ctx.zero, a),
                  (a, ctx.zero, ctx.zero, ctx.zero),
                  (a, B, -(a * B) * sixth, ctx.zero)]
        B, C = 6 * t * t, 6 * t * t * t
        built.append((a, B, C, 2 * B * (2 * C + a * B * third) * third))
        qa, qb = 2 * third, 3 * k * k - 4 * a * k * third
        r = (qb * qb - 4 * qa * (2 * k * k * k * (a - 3 * k))).sqrt()
        if r is not None:
            B = (r - qb) / (2 * qa)
            C = 3 * k * k * k - 3 * B * k / 2
            built.append((a, B, C, k * k * (2 * C + a * B * third)))
        q = ctx.from_int
        built.append((ctx.one, q(8) / 75, q(16) / 1125, q(128) / 28125))
    built += [clebsch_invariants(normal_form("I", ctx, rng=rng)[0]).tuple()
              for _ in range(8)]
    for A, B, C, D in built:
        m = nz()
        pts.append(ClebschPoint(m * A, m ** 2 * B, m ** 3 * C, m ** 5 * D))
    pts += [rescale(ClebschPoint(*x), nz()) for x in built[:244 - len(pts)]]
    return pts + [ClebschPoint(*[ctx.zero] * 4)]


def _outcome(f, cp):
    try:
        return f(cp)
    except Genus2Error as exc:
        return type(exc), str(exc)


def _row(cp):
    """The type of cp, or the start of the ClassificationError that ends
    with cp itself."""
    got = _outcome(ra_type_from_clebsch, cp)
    return got if isinstance(got, str) else got[1][:5]


@pytest.mark.parametrize("p", [23, 41, 101])
def test_bolza_rows_and_key_match_field_element_oracles(p):
    # Bolza's rows and the canonical key on int pairs give the
    # FieldElement forms' type, key or error on every point, every row
    # and both ClassificationError rows reached.  The pair core
    # ra_type_from_clebsch_pairs, as graph.ra_type_of calls it on a
    # Jacobian key's data, gives them too, also on the Jacobian keys of
    # the p = 41 and 101 graphs
    ctx, rng = make_field(p), random.Random(p)
    points = bolza_points(ctx, rng)
    assert len(points) >= 200
    keys = [] if p == 23 else [key.data for key in build_graph(ctx).vertices
                                if key.kind == "jacobian"]
    assert len(keys) == {23: 0, 41: 40, 101: 448}[p]
    extra = [ClebschPoint(*(FieldElement(ctx, *x) for x in data))
             for data in keys]
    for cp in points + extra:
        want = _outcome(ra_type_from_clebsch_oracle, cp)
        assert _outcome(ra_type_from_clebsch, cp) == want
        assert _outcome(partial(genus2.ra_type_from_clebsch_pairs, ctx),
                        tuple(x.key() for x in cp.tuple())) == want
        assert _outcome(canonical_key, cp) \
            == _outcome(canonical_key_oracle, cp)
    assert set(map(_row, points)) \
        == set(RAType.JACOBIAN) | {"all C", "R = 0"}
    assert set(map(_row, extra)) <= set(RAType.JACOBIAN)
    assert [canonical_key(cp) for cp in extra] == keys


@pytest.mark.parametrize("p", [23, 41, 101])
def test_bolza_type_is_a_function_of_the_key(p):
    # each row has one weight, so a point and its canonical key, itself
    # a rescaled point but for single-coordinate points, have one type;
    # the all-zero point has no key
    ctx, rng = make_field(p), random.Random(p)
    for cp in bolza_points(ctx, rng):
        if all(x.is_zero() for x in cp.tuple()):
            continue
        key = canonical_key(cp)
        assert _row(ClebschPoint(*(FieldElement(ctx, *x) for x in key))) \
            == _row(cp)
