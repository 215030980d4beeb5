"""Atlas normal forms, edge tables, and permutation fixtures."""

import pytest

from richelot import poly
from richelot.atlas import (ALL_CASES, AtlasError,
                            _check_iii_isogenous_factors, _root_pairs,
                            curve_two_param, expected_permutation_actions,
                            normal_form, normal_form_splitting,
                            type_ii_kernels, verify_case,
                            verify_permutation_fixtures)
from richelot.field import make_field
from richelot.genus2 import (Genus2Curve, IrrationalPointsError, RAType,
                             clebsch_invariants, matching_splitting,
                             orbit_partition, splitting_root_pairs,
                             splittings)
from richelot.graph import VertexKey, neighbourhood
from richelot.poly import Poly

from conftest import clear_genus2_caches, count_calls


def test_indexed_splittings_bijection(ctx23):
    # K_1..K_15 of the two-parameter curve are its 15 splittings
    s, t = ctx23.from_int(3), ctx23.from_int(5)
    indexed = [matching_splitting(ctx23, (), pairs, ctx23.one)
               for pairs in _root_pairs(ctx23, s, t)]
    assert len({sp.blocks for sp in indexed}) == 15
    C = curve_two_param(ctx23, s, t)
    assert {sp.blocks for sp in splittings(C)} \
        == {sp.blocks for sp in indexed}


def test_normal_form_cases(ctx23):
    C, _ = normal_form("V", ctx23)
    assert len(splittings(C)) == 15
    # C_V has the same canonical key as y^2 = x^6 + 1
    direct = Genus2Curve(Poly.from_ints(ctx23, [1, 0, 0, 0, 0, 0, 1]))
    assert VertexKey.jacobian(direct) == VertexKey.jacobian(C)
    C6, _ = normal_form("VI", ctx23)
    cp = clebsch_invariants(C6)
    assert cp.B.is_zero() and cp.C.is_zero() and cp.D.is_zero()


def test_normal_form_rejects_degenerate_params(ctx23):
    with pytest.raises(AtlasError):
        normal_form("I", ctx23, params=(ctx23.from_int(4),
                                        ctx23.from_int(4)))
    for u in (ctx23.one, ctx23.zero):  # u^4 = 1, and u = 0, with no 1/u
        with pytest.raises(AtlasError) as exc:
            normal_form("III", ctx23, params=(u,))
        assert str(exc.value) == "u must be nonzero and u**4 must not be 1"


def test_normal_form_checks_param_count(ctx23):
    # case I takes (s, t), III and IV one value, every other case none
    three, five = ctx23.from_int(3), ctx23.from_int(5)
    for case, params, k in (("I", (three,), 2), ("I", (), 2),
                            ("III", (three, five), 1),
                            ("IV", (three, five), 1),
                            ("V", (three, five, three), 0),
                            (RAType.SIGMA0, (three,), 0)):
        with pytest.raises(AtlasError) as exc:
            normal_form(case, ctx23, params=params)
        assert str(exc.value) \
            == f"case {case} takes {k} parameters, got {len(params)}"
    assert normal_form("I", ctx23, params=(three, five))[1] == (three, five)
    assert normal_form("III", ctx23, params=(three,))[1] \
        == (three, three.inverse())
    assert normal_form("V", ctx23, params=())[1] == normal_form("V", ctx23)[1]


def test_type_ii_kernels_are_orbit_representatives():
    ctx = make_field(19)
    ks = [matching_splitting(ctx, (), m, ctx.one)
          for m in type_ii_kernels(ctx)]
    assert len({k.blocks for k in ks}) == 3
    C = Genus2Curve(Poly.from_ints(ctx, [-1, 0, 0, 0, 0, 1]))
    all_keys = {sp.blocks for sp in splittings(C)}
    for k in ks:
        assert k.blocks in all_keys


def test_verify_case_type_v_exceptional_columns():
    for p in (11, 17, 29, 41, 23):
        rep = verify_case("V", make_field(p))
        assert rep.ok, rep.summary()


def test_verify_case_type_ii_includes_loop_at_19():
    rep = verify_case("II", make_field(19))
    assert rep.ok, rep.summary()
    assert "loop" in rep.observed


def test_verify_case_generic_products():
    for case in (RAType.PI, RAType.SIGMA, RAType.PI0, RAType.PI1728):
        rep = verify_case(case, make_field(23))
        assert rep.ok, rep.summary()


def test_permutation_fixture_shapes():
    for case in ("I", "III", "IV", "V", "VI"):
        perms = expected_permutation_actions(case)
        for pm in perms:
            assert sorted(pm.values()) == list(range(1, 16))
    # the fixture partitions carry the tabulated orbit sizes
    assert sorted(len(o) for o in orbit_partition(
        range(1, 16), expected_permutation_actions("IV"))) \
        == [1, 1, 1, 3, 3, 3, 3]
    assert sorted(len(o) for o in orbit_partition(
        range(1, 16), expected_permutation_actions("VI"))) == [1, 4, 4, 6]
    # the group generated, not the generators' cycles: a 3-cycle and a
    # transposition sharing a point join into one orbit
    gens = [{0: 1, 1: 2, 2: 0, 3: 3, 4: 5, 5: 4}, [0, 1, 3, 2, 4, 5]]
    assert orbit_partition(range(6), gens) == [(0, 1, 2, 3), (4, 5)]
    assert orbit_partition(range(3), []) == [(0,), (1,), (2,)]


def test_verify_permutation_fixtures_all_cases(ctx23):
    for case in ("I", "III", "IV", "V", "VI"):
        rep = verify_permutation_fixtures(case, ctx23)
        assert rep.ok, rep.summary()


def test_atlas_error_on_unavailable_case():
    # zeta_5 is irrational over GF(23^2)
    with pytest.raises(AtlasError):
        normal_form("II", make_field(23))


def test_type_ii_reads_its_orbits_off_the_neighbourhood(monkeypatch):
    # the neighbourhood's orbit computation is the only one, and its
    # pairings are read off point matchings, with no square root
    orbits = count_calls(monkeypatch, "moebius_orbits_on_splittings")
    pairings = count_calls(monkeypatch, "splitting_pairing")
    rep = verify_case("II", make_field(29))
    assert rep.ok, rep.summary()
    assert len(orbits) == 1 and pairings == []


def test_type_iii_check_takes_u_from_the_normal_form(monkeypatch):
    # the closed-form check uses the sampled u, not the curve's roots
    calls = count_calls(monkeypatch, "roots", module=poly)
    rep = verify_case("III", make_field(29))
    assert rep.ok, rep.summary()
    assert rep.detail.startswith("2-isogeny")
    assert calls == []


def test_permutation_fixtures_one_orbit_computation_per_case(monkeypatch,
                                                              ctx23):
    calls = count_calls(monkeypatch, "moebius_orbits_on_splittings")
    for n, case in enumerate(("I", "III", "IV", "V", "VI"), 1):
        rep = verify_permutation_fixtures(case, ctx23)
        assert rep.ok, rep.summary()
        assert len(calls) == n


def test_type_iii_check_reads_the_sigma_neighbours():
    # the closed form must name the factors of the vertex's two Sigma
    # neighbours: a wrong u still passes Velu against the closed form,
    # but not the graph
    ctx = make_field(29)
    C, (u, _) = normal_form("III", ctx)
    edges = neighbourhood(normal_form_splitting(ctx, (u, u.inverse())))
    assert _check_iii_isogenous_factors(ctx, u, edges).startswith("2-isog")
    assert _check_iii_isogenous_factors(ctx, u + ctx.one, edges) \
        .startswith("FAIL")


def test_atlas_factors_no_normal_form(monkeypatch, ctx23):
    # every Jacobian normal form reaches neighbourhood as a splitting
    # whose blocks carry its points: no Cantor-Zassenhaus anywhere
    clear_genus2_caches()
    calls = count_calls(monkeypatch, "factor_quadratic_pieces", module=poly)
    for p in (29, 101):
        for case in ALL_CASES:
            rep = verify_case(case, make_field(p))
            assert rep.ok, rep.summary()
    for case in ("I", "III", "IV", "V", "VI"):
        assert verify_permutation_fixtures(case, ctx23).ok
    assert calls == []


def test_atlas_sweep_keeps_its_clebsch_hits_and_gcd_tests(monkeypatch):
    # every case at p = 101 and 109, as the atlas benchmark sweeps them:
    # the bounded clebsch_invariants memo is never asked.  The sampling
    # of the Type I, III and IV normal forms classifies them by
    # ra_type_of their keys, and the Type VI cross-check reads its key
    # (8 misses before, four a prime, while both went through Clebsch
    # points).  VertexKey.jacobian keys every curve
    # off its sextic's int pairs (10 hits on 14 curves before, five a
    # prime: the keys of the Type I, III, IV and VI normal forms, and of
    # C_III(zeta_6) in the Type V cross-check; the Type II normal form's
    # and x^6 + 1's were two more misses a prime).  Step codomains are
    # keyed off their sextics' int pairs, with no curve (112 curves
    # before), and each edge's target type is read
    # off its key (ra_type_of), with no Clebsch point: 114 hits before.
    # The gcd squarefree test runs on the 36 glued curves and on the bare
    # sextic x^6 + 1, once a prime, but not on the two-parameter normal
    # forms, checked in closed form (of_blocks; 48 gcd tests before)
    memo = clebsch_invariants
    memo.cache_clear()
    gcds = count_calls(monkeypatch, "is_squarefree")
    for p in (101, 109):
        for case in ALL_CASES:
            rep = verify_case(case, make_field(p))
            assert rep.ok, rep.summary()
    assert memo.cache_info()[:2] == (0, 0)
    assert len(gcds) == 36 + 2


def test_curve_two_param_is_checked_in_closed_form(monkeypatch):
    # of_blocks gives the curve of the six roots, with no gcd test, and
    # parameters that make two roots meet still raise AtlasError
    ctx = make_field(29)
    s, t = ctx.from_int(3), ctx.from_int(5)
    gcds = count_calls(monkeypatch, "is_squarefree")
    C = curve_two_param(ctx, s, t)
    assert gcds == []
    one = ctx.one
    assert C.f == Poly.from_roots(ctx, [one, -one, s, -s, t, -t])
    for bad in ((s, s), (s, -s), (one, t), (ctx.zero, t)):
        with pytest.raises(AtlasError, match="^parameters violate"):
            curve_two_param(ctx, *bad)


def test_type_i_neighbourhood_steps_take_no_square_root(monkeypatch):
    # the atlas Type I normal form at p = 101: its neighbourhood returns
    # the edges of all 15 kernels, though some Richelot codomains have
    # Weierstrass points outside GF(p^2).  A step keys its codomain off
    # the sextic's pairs and finds no root: only the query's own three
    # blocks are solved, to read its points off them
    ctx = make_field(101)
    spl = normal_form_splitting(ctx, normal_form("I", ctx)[1])
    roots = count_calls(monkeypatch, "_block_roots")
    edges = neighbourhood(spl)
    assert len(roots) == 3
    assert sum(e.weight for e in edges) == 15
    irrational = 0
    for e in edges:
        if e.hint[0] == "jac":
            try:
                splitting_root_pairs(e.hint[2])
            except IrrationalPointsError:
                irrational += 1
    assert irrational > 0


def test_normal_form_splitting_is_the_normal_form():
    # K_1, the splitting neighbourhood is given, multiplies back to the
    # normal form's sextic, and is one of the curve's splittings
    ctx = make_field(29)
    for case in ("I", "III", "IV", "V", "VI", "II"):
        C, st = normal_form(case, ctx)
        spl = normal_form_splitting(ctx, st)
        assert spl.curve() == C
        assert spl in splittings(C)
