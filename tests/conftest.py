import random
import sys
from itertools import permutations

import pytest

from richelot import genus2
from richelot.field import make_field
from richelot.genus2 import (MoebiusMap, _to_zero_one_inf, moebius_through,
                             point_key)


@pytest.fixture(scope="session")
def ctx11():
    return make_field(11)


@pytest.fixture(scope="session")
def ctx13():
    return make_field(13)


@pytest.fixture(scope="session")
def ctx23():
    return make_field(23)


@pytest.fixture()
def rng():
    return random.Random(0xDECAF)


def random_element(ctx, rng):
    return ctx.element(rng.randrange(ctx.p), rng.randrange(ctx.p))


def random_distinct_elements(ctx, rng, n):
    out = []
    while len(out) < n:
        x = random_element(ctx, rng)
        if all(x != y for y in out):
            out.append(x)
    return out


def moebius_search_oracle(K, src_pts, dst_pts, first_only=False):
    """Moebius maps sending the set src_pts onto the set dst_pts, by
    search: the triple loop that genus2.moebius_stabilizing replaced,
    kept as the reference it is checked against.

    Solves the map through the first three source points against every
    ordered triple of destination points and keeps the maps that send
    all of src_pts into dst_pts.  With first_only, returns the first
    hit (or None); otherwise the deduplicated list sorted by map key.
    """
    keys = set(point_key(p) for p in dst_pts)
    base = src_pts[:3]
    found = {}
    for triple in permutations(dst_pts, 3):
        m = moebius_through(K, base, triple)
        if m.key() in found:
            continue
        if all(point_key(m.apply(p)) in keys for p in src_pts):
            if first_only:
                return m
            found[m.key()] = m
    if first_only:
        return None
    return [found[k] for k in sorted(found)]


def moebius_frames_oracle(K, pts):
    """The ordered triples of indices into pts, listed by signature, by
    moving points with MoebiusMap.apply on field elements: the table
    that genus2.moebius_frames built before it read the images off
    int-pair cross-ratios, kept as the reference it is checked against.

    A triple's signature is the sorted keys, concatenated, of the images
    of the other points under the map sending it to (0, 1, inf).
    """
    frames = {}
    for triple in permutations(range(len(pts)), 3):
        frame = MoebiusMap(*_to_zero_one_inf(K, *(pts[i] for i in triple)))
        signature = sum(sorted(frame.apply(pts[i]).key()
                               for i in range(len(pts)) if i not in triple),
                        ())
        frames.setdefault(signature, []).append(triple)
    return frames


def count_calls(monkeypatch, name, module=genus2):
    """Record each call of module.<name> in a list, through every
    richelot module that binds the function."""
    calls = []
    real = getattr(module, name)
    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("richelot")
                and getattr(mod, name, None) is real):
            monkeypatch.setattr(
                mod, name, lambda *args: calls.append(args) or real(*args))
    return calls


def clear_genus2_caches():
    """Empty the curve caches, so a count_calls pin sees every factoring
    and Moebius search the code under test would make cold."""
    for cached in (genus2.splittings, genus2.weierstrass_points,
                   genus2.reduced_automorphisms):
        cached.cache_clear()


def square_set(ctx):
    """The nonzero squares of GF(p^2), as (a, b) pairs."""
    p, nr = ctx.p, ctx.nonresidue
    return {((a * a + nr * b * b) % p, 2 * a * b % p)
            for a in range(p) for b in range(p) if a or b}


def point_count_supersingular(E, squares=None):
    """Supersingularity by an exact count of E(GF(p^2)) on (a, b) int
    pairs: #E = (p -+ 1)^2.  The test elliptic.is_supersingular made
    before it evaluated the Hasse invariant, kept as its oracle."""
    ctx = E.ctx
    p, nr = ctx.p, ctx.nonresidue
    squares = square_set(ctx) if squares is None else squares
    rs = [(r.a, r.b) for r in E.roots()]
    count = 1  # point at infinity
    for a in range(p):
        for b in range(p):
            y = (1, 0)
            for ra, rb in rs:
                c, d = a - ra, b - rb
                y = ((y[0] * c + nr * y[1] * d) % p,
                     (y[0] * d + y[1] * c) % p)
            if y == (0, 0):
                count += 1
            elif y in squares:
                count += 2
    return count in ((p - 1) ** 2, (p + 1) ** 2)
