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
