"""The Richelot step: delta, generic codomain, degenerate splitting."""

import random

import pytest

from richelot import poly
from richelot.elliptic import EllipticCurveE2, j_invariant, two_isogeny
from richelot.field import FieldElement, make_field
from richelot.genus2 import (Genus2Curve, Genus2Error, IrrationalPointsError,
                             QuadraticSplitting, canonical_key,
                             clebsch_invariants, point_splittings,
                             splittings)
from richelot.graph import build_graph, neighbourhood
from richelot.isogeny import (RichelotError, delta, richelot_generic,
                              split_degenerate)
from richelot.poly import Poly

from conftest import (block_triple, check_split_against_oracle,
                      count_calls, kernel_rep, random_distinct_elements,
                      random_element, richelot_poly_oracle, splitting_of,
                      split_degenerate_oracle, split_outcome,
                      split_pencil_oracle)


@pytest.fixture(scope="module")
def graphs():
    return {p: build_graph(make_field(p)) for p in (23, 41)}


@pytest.fixture(scope="module")
def richelot_edges(graphs):
    """p -> the splittings with delta != 0 that label an edge out of a
    Jacobian vertex of the graph at p."""
    reps = {p: [kernel_rep(g, e) for e in g.edges] for p, g in graphs.items()}
    return {p: [k for k in ks if isinstance(k, QuadraticSplitting)
                and not delta(k).is_zero()] for p, ks in reps.items()}


@pytest.fixture(scope="module")
def split_kernels(graphs):
    """p -> every splitting with delta = 0 among the 15 kernels of each
    Jacobian vertex of the graph at p."""
    out = {}
    for p, g in graphs.items():
        out[p] = []
        for v in g.vertices.values():
            if isinstance(v.representative, Genus2Curve):
                C = v.representative
                out[p] += [spl for spl, _ in point_splittings(
                    C.ctx, (), v.points, C.leading)
                    if delta(spl).is_zero()]
    return out


def c_two_param(ctx, s, t):
    return Genus2Curve(Poly.from_roots(
        ctx, [ctx.one, -ctx.one, s, -s, t, -t]))


def k1_splitting(ctx, s, t):
    return splitting_of(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [s, -s]),
         Poly.from_roots(ctx, [t, -t])], ctx.one)


def k2_splitting(ctx, s, t):
    return splitting_of(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [-s, -t]),
         Poly.from_roots(ctx, [s, t])], ctx.one)


def test_delta_examples(ctx23, rng):
    ctx = ctx23
    for _ in range(10):
        s, t = random_element(ctx, rng), random_element(ctx, rng)
        try:
            c_two_param(ctx, s, t)
        except Exception:
            continue
        # the K_1 coefficient rows are linearly dependent
        assert delta(k1_splitting(ctx, s, t)).is_zero()
        # K_2 determinant: -2(s + t)(1 + st), up to the sign of the
        # canonical block ordering
        d = delta(k2_splitting(ctx, s, t))
        expect = -2 * (s + t) * (ctx.one + s * t)
        assert d == expect or d == -expect
    # repeated rows
    g = block_triple(Poly.from_ints(ctx, [1, 1, 1]))
    spl = QuadraticSplitting(ctx=ctx, blocks=(g, g, g), scale=(1, 0))
    assert delta(spl).is_zero()


def test_richelot_generic_rejects_zero_delta(ctx23):
    s, t = ctx23.from_int(3), ctx23.from_int(5)
    with pytest.raises(RichelotError):
        richelot_generic(k1_splitting(ctx23, s, t))
    with pytest.raises(RichelotError):
        split_degenerate(k2_splitting(ctx23, s, t))


def test_double_step_returns_source_key(ctx23, rng):
    for _ in range(10):
        C = Genus2Curve(Poly.from_roots(
            ctx23, random_distinct_elements(ctx23, rng, 6)))
        key = canonical_key(clebsch_invariants(C))
        for spl in splittings(C):
            if delta(spl).is_zero():
                continue
            _, dual = richelot_generic(spl)
            assert not delta(dual).is_zero()
            back, _ = richelot_generic(dual)
            assert canonical_key(clebsch_invariants(back)) == key


def test_split_k1_of_two_param_curve(ctx23):
    ctx = ctx23
    s, t = ctx.from_int(3), ctx.from_int(5)
    spl = k1_splitting(ctx, s, t)
    E, E2 = split_degenerate(spl)
    got = sorted([j_invariant(E), j_invariant(E2)])
    expect = sorted([
        j_invariant(EllipticCurveE2(ctx.one, s * s, t * t)),
        j_invariant(EllipticCurveE2(ctx.one, (s * s).inverse(),
                                    (t * t).inverse()))])
    assert got == expect
    check_split_against_oracle(spl)


def test_split_kernels_of_type_iii(ctx23):
    # K_1 and K_3 both split to elliptic squares, and the two squares'
    # factors are 2-isogenous elliptic curves
    ctx = ctx23
    u = ctx.element(3, 1)
    s, t = u, u.inverse()
    F, F2 = split_degenerate(k1_splitting(ctx, s, t))
    E = EllipticCurveE2(ctx.one, u * u, (u * u).inverse())
    assert j_invariant(F) == j_invariant(F2) == j_invariant(E)
    k3 = splitting_of(
        [Poly.from_roots(ctx, [ctx.one, -ctx.one]),
         Poly.from_roots(ctx, [-s, t]),
         Poly.from_roots(ctx, [s, -t])], ctx.one)
    F, F2 = split_degenerate(k3)
    j_prime = j_invariant(F)
    assert j_prime == j_invariant(F2)
    # explicit Velu step realizes the 2-isogeny E -> E'
    assert j_prime == j_invariant(two_isogeny(E, 1))


def test_split_k1_of_type_v_lands_on_j_zero(ctx23):
    ctx = ctx23
    z6 = ctx.nth_root_of_unity(6)
    E, E2 = split_degenerate(k1_splitting(ctx, z6, z6.inverse()))
    assert j_invariant(E).is_zero()
    assert j_invariant(E2).is_zero()


def test_split_over_extension_with_irrational_factors(ctx23):
    # blocks (x - a)(x - m/a) share the root product m, a nonsquare, so
    # delta = 0 and the pencil's fixed points lie in GF(p^4) only: the
    # split raises the typed error on the curve's sextic, and so does
    # the neighbourhood of the curve, whose points are rational
    ctx = ctx23
    m = ctx.nonsquare()
    spl = splitting_of(
        [Poly(ctx, [m, -(a + m / a), ctx.one])
         for a in map(ctx.from_int, (2, 3, 5))], ctx.one)
    assert delta(spl).is_zero()
    with pytest.raises(IrrationalPointsError,
                       match="^conjugate fixed points") as exc:
        split_degenerate(spl)
    assert (exc.value.p, exc.value.sextic, exc.value.kernels) \
        == (23, spl.curve().f, None)
    with pytest.raises(IrrationalPointsError) as from_curve:
        neighbourhood(spl.curve())
    assert str(from_curve.value) == str(exc.value)


def test_split_over_extension_without_rational_model(ctx11):
    # conjugate fixed points whose factors have a GF(p^2)-rational j but
    # no model with rational 2-torsion: the split and its pencil oracle
    # both raise the typed error before any factor is built
    ctx = ctx11
    spl = splitting_of(
        [Poly(ctx, [ctx.element(a, b), ctx.element(c, d), ctx.one])
         for a, b, c, d in ((5, 7, 9, 9), (7, 1, 3, 9), (10, 9, 1, 1))],
        ctx.one)
    assert delta(spl).is_zero()
    for split in (split_degenerate, split_pencil_oracle):
        with pytest.raises(IrrationalPointsError,
                           match="^conjugate fixed points"):
            split(spl)


def _fixed_point_discriminant(spl):
    """h^2 - g2 g0 for Richelot's minor g2 x^2 + 2h x + g0 of the first
    two blocks; its roots are the pencil's fixed points."""
    (c0, b0, a0), (c1, b1, a1) = [tuple(FieldElement(spl.ctx, *c) for c in g)
                                  for g in spl.blocks[:2]]
    h = a0 * c1 - a1 * c0
    return h * h - (a0 * b1 - a1 * b0) * (b0 * c1 - b1 * c0)


@pytest.mark.parametrize("p", [23, 41])
def test_split_matches_pencil_oracle_on_graph(p, split_kernels):
    # every delta = 0 kernel of every Jacobian vertex: same factors, up
    # to the order of E and E2; the fixed points are always rational,
    # so no split on a graph raises
    assert split_kernels[p]
    for spl in split_kernels[p]:
        assert _fixed_point_discriminant(spl).sqrt() is not None
        check_split_against_oracle(spl)


def involution_splitting(ctx, rng, s, n, linear=False):
    """Blocks (x - a)(x - sigma(a)) for random a, where sigma is the
    involution fixing the roots of x^2 - s x + n, or x -> s - x (fixing
    s/2 and infinity) when n is None.  With linear, one block is
    x - sigma(infinity) = x - s/2 instead."""
    def sigma(a):
        if n is None:
            return s - a
        den = 2 * a - s
        return None if den.is_zero() else (s * a - 2 * n) / den

    pts = [s / 2] if linear else []
    blocks = [Poly(ctx, [-(s / 2), ctx.one])] if linear else []
    while len(blocks) < 3:
        a = random_element(ctx, rng)
        b = sigma(a)
        if b is None or a == b or a in pts or b in pts:
            continue
        pts += [a, b]
        blocks.append(Poly.from_roots(ctx, [a, b]))
    return splitting_of(blocks, ctx.one)


@pytest.mark.parametrize("p", [23, 101])
def test_split_matches_pencil_oracle_on_involutions(p):
    # splittings built from an involution have delta = 0; cover fixed
    # points at infinity, a linear block, and conjugate fixed points,
    # where both methods raise the same typed error
    ctx, rng = make_field(p), random.Random(p)
    seen = {"inf": 0, "linear": 0, "rational": 0, "conjugate": 0}
    while min(seen.values()) < 40:
        s, n = random_element(ctx, rng), random_element(ctx, rng)
        d = s * s - 4 * n
        if d.is_zero():
            continue
        kind = rng.choice(["inf", "linear", "rational"])
        if kind == "inf":
            n = None
        conjugate = n is not None and d.sqrt() is None
        spl = involution_splitting(ctx, rng, s, n, kind == "linear")
        assert delta(spl).is_zero()
        assert (_fixed_point_discriminant(spl).sqrt() is None) == conjugate
        got = split_outcome(split_degenerate, spl)
        assert got == split_outcome(split_pencil_oracle, spl)
        assert isinstance(got, str) == conjugate
        if not conjugate:
            check_split_against_oracle(spl)
        seen["conjugate" if conjugate else kind] += 1


def test_split_data_identity_quintic(ctx23, rng):
    # degree-5 curves have a linear block; U and V stay linear
    for _ in range(10):
        C = Genus2Curve(Poly.from_roots(
            ctx23, random_distinct_elements(ctx23, rng, 5)))
        for spl in splittings(C):
            if not delta(spl).is_zero():
                continue
            check_split_against_oracle(spl)


def test_dual_splitting_round_trips_all_kernels(ctx23, rng):
    # for every delta != 0 kernel of a random curve, the dual
    # splitting's quotient is the original vertex
    C = Genus2Curve(Poly.from_roots(
        ctx23, random_distinct_elements(ctx23, rng, 6)))
    key = canonical_key(clebsch_invariants(C))
    checked = 0
    for spl in splittings(C):
        if delta(spl).is_zero():
            continue
        back, _ = richelot_generic(richelot_generic(spl)[1])
        assert canonical_key(clebsch_invariants(back)) == key
        checked += 1
    assert checked > 0


@pytest.mark.parametrize("p", [23, 41])
def test_richelot_generic_matches_poly_oracle(p, richelot_edges):
    # every delta != 0 edge of the graph: same codomain, same dual
    assert richelot_edges[p]
    for spl in richelot_edges[p]:
        (got, dual), (want, want_dual) = (richelot_generic(spl),
                                          richelot_poly_oracle(spl))
        assert got == want and got.f == want.f
        assert dual.blocks == want_dual.blocks
        assert dual.scale == want_dual.scale


def _verdict(make):
    try:
        return make().f
    except Genus2Error:
        return None


def test_closed_form_squarefree_matches_gcd():
    # random block triples whose product may be squarefree or not: the
    # closed form accepts exactly what Genus2Curve(product) accepts, and
    # builds the same product
    ctx, rng = make_field(23), random.Random(0x5F)
    one = ctx.one

    def linear():
        return Poly(ctx, [random_element(ctx, rng), one])

    def block(roots):
        scale = ctx.element(rng.randrange(1, 23), rng.randrange(23))
        return Poly.from_roots(ctx, roots, scale=scale)

    seen = {True: 0, False: 0}
    for trial in range(600):
        kind = trial % 6
        rs = [random_element(ctx, rng) for _ in range(6)]
        if kind == 1:    # a root shared between two blocks
            rs[2] = rs[rng.randrange(2)]
        elif kind == 2:  # a repeated root inside one block
            rs[1] = rs[0]
        blocks = [block(rs[0:2]), block(rs[2:4]), block(rs[4:6])]
        if kind == 3:    # one linear block
            blocks[0] = linear()
        elif kind == 4:  # two linear blocks: both vanish at infinity
            blocks[0], blocks[1] = linear(), linear()
        elif kind == 5:  # random coefficients, irreducible blocks too
            blocks = [Poly(ctx, [random_element(ctx, rng) for _ in range(3)])
                      for _ in range(3)]
        scale = random_element(ctx, rng)
        product = Poly(ctx, [scale]) * blocks[0] * blocks[1] * blocks[2]
        want = _verdict(lambda: Genus2Curve(product))
        got = _verdict(lambda: Genus2Curve.of_blocks(
            ctx, [block_triple(g) for g in blocks], (scale.a, scale.b)))
        assert got == want
        seen[want is not None] += 1
    assert seen[True] > 100 and seen[False] > 100


def test_degenerate_richelot_codomain_raises(ctx23):
    # blocks sharing the root 1 make G = (x - 1)^2 (u'v - v'u)
    ctx = ctx23
    blocks = [Poly.from_roots(ctx, list(map(ctx.from_int, pair)))
              for pair in ((1, 2), (1, 3), (4, 5))]
    spl = splitting_of(blocks, ctx.one)
    assert not delta(spl).is_zero()
    for step in (richelot_generic, richelot_poly_oracle):
        with pytest.raises(RichelotError,
                           match="degenerate Richelot codomain"):
            step(spl)


def test_richelot_generic_runs_on_ints(monkeypatch, richelot_edges):
    # every delta != 0 edge at p = 41: no FieldElement product, inverse
    # or square root, no Poly product and no gcd squarefree test; no
    # Poly is built, as the codomain curve holds its sextic's pairs and
    # makes its Poly f on first read (one Poly per step before, the
    # codomain's f in of_blocks)
    calls, polys = [], []
    for name in ("__mul__", "__rmul__", "inverse", "sqrt"):
        real = getattr(FieldElement, name)
        monkeypatch.setattr(FieldElement, name, lambda *args, real=real:
                            calls.append(args) or real(*args))
    real = Poly.__mul__
    monkeypatch.setattr(Poly, "__mul__", lambda *args:
                        calls.append(args) or real(*args))
    real_init = Poly.__init__
    monkeypatch.setattr(Poly, "__init__", lambda self, *args:
                        polys.append(args) or real_init(self, *args))
    squarefree = count_calls(monkeypatch, "is_squarefree", module=poly)
    for spl in richelot_edges[41]:
        richelot_generic(spl)
    assert calls == [] and squarefree == [] and polys == []


def _split_exact(split, spl):
    """The root triples of E and of E2, in order, or the error split
    raises."""
    try:
        return tuple(tuple(r.key() for r in F.roots()) for F in split(spl))
    except (IrrationalPointsError, RichelotError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("p", [23, 41, 101])
def test_split_matches_field_element_oracle(p):
    # 240 delta = 0 splittings from involutions, fixed points at
    # infinity, a linear block, rational and conjugate fixed points
    # alike: the six root quotients from one inverse give the factors
    # of the FieldElement closed form, E and E2 and their roots in
    # order, or the same typed error
    ctx, rng = make_field(p), random.Random(p)
    seen = {"inf": 0, "linear": 0, "rational": 0, "conjugate": 0}
    while sum(seen.values()) < 240 or min(seen.values()) < 20:
        s, n = random_element(ctx, rng), random_element(ctx, rng)
        if (s * s - 4 * n).is_zero():
            continue
        kind = rng.choice(["inf", "linear", "rational"])
        spl = involution_splitting(ctx, rng, s, None if kind == "inf"
                                   else n, kind == "linear")
        got = _split_exact(split_degenerate, spl)
        assert got == _split_exact(split_degenerate_oracle, spl)
        seen["conjugate" if got[0] is IrrationalPointsError else kind] += 1
