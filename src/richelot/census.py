"""Superspecial vertex counts by reduced-automorphism type.

Evaluates the closed-form counts (Ibukiyama–Katsura–Oort for the
Jacobian types, the supersingular j-invariant census for the product
types) in exact rational arithmetic, asserting integrality, and
compares them against an enumerated graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .field import is_prime
from .genus2 import RAType


class CensusError(ValueError):
    """Bad prime or a non-integral count (formula transcription bug)."""


def epsilons(p: int):
    """(eps1, eps2, eps3, eps5, N_p) for a prime p > 5.

    eps1/eps3 flag p = 3 (mod 4) resp. p = 2 (mod 3); eps2 flags
    p = 5, 7 (mod 8); eps5 flags p = 4 (mod 5).  N_p, eps1, eps3
    count supersingular curves over GF(p^2) with reduced automorphism
    group of order 1, 2, 3.
    """
    if not is_prime(p) or p <= 5:
        raise CensusError(f"p must be a prime > 5, got {p}")
    e1 = 1 if p % 4 == 3 else 0
    e2 = 1 if p % 8 in (5, 7) else 0
    e3 = 1 if p % 3 == 2 else 0
    e5 = 1 if p % 5 == 4 else 0
    n = Fraction(p - 1, 12) - Fraction(e1, 2) - Fraction(e3, 3)
    if n.denominator != 1 or n < 0:
        raise CensusError(f"N_p = {n} is not a non-negative integer")
    return e1, e2, e3, e5, int(n)


@dataclass(frozen=True)
class CensusExpectation:
    eps1: int
    eps2: int
    eps3: int
    eps5: int
    N_p: int
    counts: dict  # RAType -> int

    def total(self) -> int:
        return sum(self.counts.values())


def expected_counts(p: int) -> CensusExpectation:
    """Per-type superspecial vertex counts; exact, integrality-checked."""
    e1, e2, e3, e5, n = epsilons(p)
    N = Fraction(n)
    raw = {
        RAType.I: Fraction((p - 1) * (p - 17), 48) + Fraction(e1, 4)
        + e2 + e3,
        RAType.II: Fraction(e5),
        RAType.III: Fraction(3, 2) * N + Fraction(e1, 2) - Fraction(e2, 2)
        - Fraction(e3, 2),
        RAType.IV: 2 * N + e1 - e2,
        RAType.V: Fraction(e3),
        RAType.VI: Fraction(e2),
        RAType.A: Fraction((p - 1) * (p * p - 35 * p + 346), 2880)
        - Fraction(e1, 16) - Fraction(e2, 4) - Fraction(2 * e3, 9)
        - Fraction(e5, 5),
        RAType.PI: N * (N - 1) / 2,
        RAType.PI0: e3 * N,
        RAType.PI1728: e1 * N,
        RAType.PI01728: Fraction(e1 * e3),
        RAType.SIGMA: N,
        RAType.SIGMA0: Fraction(e3),
        RAType.SIGMA1728: Fraction(e1),
    }
    counts = {}
    for t, val in raw.items():
        if val.denominator != 1 or val < 0:
            raise CensusError(f"count for {t} is {val}, not an integer >= 0")
        counts[t] = int(val)
    return CensusExpectation(e1, e2, e3, e5, n, counts)


@dataclass
class CensusReport:
    p: int
    rows: list  # (type, expected, observed)

    @property
    def ok(self) -> bool:
        return all(exp == obs for _, exp, obs in self.rows)

    def as_table(self) -> str:
        lines = [f"type        expected  observed   (p = {self.p})"]
        for t, exp, obs in self.rows:
            mark = "" if exp == obs else "   <-- MISMATCH"
            lines.append(f"{t:<12}{exp:>8}{obs:>10}{mark}")
        te = sum(r[1] for r in self.rows)
        to = sum(r[2] for r in self.rows)
        lines.append(f"{'total':<12}{te:>8}{to:>10}")
        return "\n".join(lines)

    def as_json_dict(self) -> dict:
        return {"p": self.p, "ok": self.ok,
                "rows": [{"type": t, "expected": e, "observed": o}
                         for t, e, o in self.rows]}


ALL_TYPES = RAType.JACOBIAN + RAType.PRODUCT


def compare(graph, expectation: CensusExpectation) -> CensusReport:
    """Observed per-type counts of an enumerated graph vs the formulas."""
    observed = {t: 0 for t in ALL_TYPES}
    for v in graph.vertices.values():
        observed[v.ra_type] += 1
    rows = [(t, expectation.counts[t], observed[t]) for t in ALL_TYPES]
    return CensusReport(p=graph.p, rows=rows)
