"""Exact arithmetic in GF(p^2) and its quadratic extension GF(p^4).

GF(p^2) is modelled as GF(p)[i]/(i^2 - n), where n is the smallest
positive non-square modulo p.  Elements are pairs a + b*i with
0 <= a, b < p; equality and ordering are componentwise on (a, b), so
every "canonical choice" made downstream (square roots, roots of
unity, vertex keys) is reproducible across runs and machines.

GF(p^4) is built the same way on top of GF(p^2), using the
lexicographically smallest non-square of GF(p^2).  It is only needed
where Weierstrass points of a genus-2 curve are irrational over
GF(p^2) (Moebius searches, quadratic root extraction).
"""

from __future__ import annotations


class FieldError(ValueError):
    """Invalid field construction or operation."""


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin (exact far beyond the primes used here)."""
    if n < 2:
        return False
    for q in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % q == 0:
            return n == q
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def legendre(a: int, p: int) -> int:
    """Legendre symbol (a/p) in {-1, 0, 1}."""
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


class FieldCtx:
    """The field GF(p^2) for a fixed prime p > 5.

    Immutable after construction; safe to share between threads.  Use
    :func:`make_field` rather than calling the constructor directly.
    """

    def __init__(self, p: int, nonresidue: int):
        self.p = p
        self.nonresidue = nonresidue
        self.order = p * p
        self.zero = FieldElement(self, 0, 0)
        self.one = FieldElement(self, 1, 0)
        self.i = FieldElement(self, 0, 1)
        self._squares = None
        self._nonsquare = None
        self._ext = None

    def __repr__(self):
        return f"GF({self.p}^2; i^2={self.nonresidue})"

    def __eq__(self, other):
        return isinstance(other, FieldCtx) and self.p == other.p \
            and self.nonresidue == other.nonresidue

    def __hash__(self):
        return hash((self.p, self.nonresidue))

    def element(self, a: int, b: int = 0) -> FieldElement:
        return FieldElement(self, a % self.p, b % self.p)

    def from_int(self, a: int) -> FieldElement:
        return FieldElement(self, a % self.p, 0)

    def elements(self):
        """All p^2 elements in lexicographic (a, b) order."""
        for a in range(self.p):
            for b in range(self.p):
                yield FieldElement(self, a, b)

    def square_table(self) -> frozenset:
        """Set of (a, b) pairs that are nonzero squares in GF(p^2)."""
        if self._squares is None:
            sq = set()
            for x in self.elements():
                if not x.is_zero():
                    y = x * x
                    sq.add((y.a, y.b))
            self._squares = frozenset(sq)
        return self._squares

    def nonsquare(self) -> FieldElement:
        """Lexicographically smallest non-square of GF(p^2)."""
        if self._nonsquare is None:
            for x in self.elements():
                if not x.is_zero() and not x.is_square():
                    self._nonsquare = x
                    break
        return self._nonsquare

    def extension(self) -> "ExtCtx":
        """GF(p^4) as a quadratic extension of this field (cached)."""
        if self._ext is None:
            self._ext = ExtCtx(self)
        return self._ext

    def nth_root_of_unity(self, n: int):
        """Lexicographically smallest primitive n-th root of unity, or None.

        A primitive root exists iff n divides p^2 - 1.
        """
        if n <= 0:
            raise FieldError(f"n must be positive, got {n}")
        if (self.order - 1) % n != 0:
            return None
        if n == 1:
            return self.one
        prime_divs, rem, q = [], n, 2
        while q * q <= rem:  # trial division: n <= p^2 - 1, so q < p
            if rem % q == 0:
                prime_divs.append(q)
                while rem % q == 0:
                    rem //= q
            q += 1
        if rem != 1:
            prime_divs.append(rem)
        for x in self.elements():
            if x.is_zero():
                continue
            if x ** n == self.one and all(x ** (n // q) != self.one
                                          for q in prime_divs):
                return x
        return None


def make_field(p: int) -> FieldCtx:
    """Field context for GF(p^2), p prime and > 5.

    The quadratic non-residue defining the extension is the smallest
    positive non-square modulo p, so the field model is deterministic.
    """
    if not isinstance(p, int) or not is_prime(p):
        raise FieldError(f"{p} is not prime")
    if p <= 5:
        raise FieldError(f"characteristic must exceed 5, got {p}")
    n = 2
    while legendre(n, p) != -1:
        n += 1
    return FieldCtx(p, n)


class FieldElement:
    """An element a + b*i of GF(p^2), with 0 <= a, b < p."""

    __slots__ = ("ctx", "a", "b")

    def __init__(self, ctx: FieldCtx, a: int, b: int):
        self.ctx = ctx
        self.a = a
        self.b = b

    # -- basic protocol ------------------------------------------------

    def __repr__(self):
        if self.b == 0:
            return str(self.a)
        return f"{self.a}+{self.b}i"

    def __eq__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return isinstance(other, FieldElement) and self.a == other.a \
            and self.b == other.b and self.ctx.p == other.ctx.p

    def __hash__(self):
        return hash((self.ctx.p, self.a, self.b))

    def __lt__(self, other):
        return (self.a, self.b) < (other.a, other.b)

    def __le__(self, other):
        return (self.a, self.b) <= (other.a, other.b)

    def key(self):
        return (self.a, self.b)

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        p = self.ctx.p
        return FieldElement(self.ctx, (self.a + other.a) % p,
                            (self.b + other.b) % p)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        p = self.ctx.p
        return FieldElement(self.ctx, (self.a - other.a) % p,
                            (self.b - other.b) % p)

    def __neg__(self):
        p = self.ctx.p
        return FieldElement(self.ctx, -self.a % p, -self.b % p)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        p, n = self.ctx.p, self.ctx.nonresidue
        a, b, c, d = self.a, self.b, other.a, other.b
        return FieldElement(self.ctx, (a * c + n * b * d) % p,
                            (a * d + b * c) % p)

    __radd__ = __add__
    __rmul__ = __mul__

    def __rsub__(self, other):
        return self.ctx.from_int(other) - self

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        p, n = self.ctx.p, self.ctx.nonresidue
        norm = (self.a * self.a - n * self.b * self.b) % p
        inv = pow(norm, p - 2, p)
        return FieldElement(self.ctx, self.a * inv % p, -self.b * inv % p)

    def __truediv__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.ctx.from_int(other) * self.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    # -- field-theoretic helpers ----------------------------------------

    def frobenius(self) -> "FieldElement":
        """x -> x^p, the nontrivial automorphism of GF(p^2)/GF(p)."""
        return FieldElement(self.ctx, self.a, -self.b % self.ctx.p)

    def in_prime_field(self) -> bool:
        return self.b == 0

    def is_square(self) -> bool:
        if self.is_zero():
            return True
        return self ** ((self.ctx.order - 1) // 2) == self.ctx.one

    def sqrt(self):
        """Deterministic square root in GF(p^2), or None if non-square.

        Of the two roots +-y, returns the lexicographically smaller
        (a, b) pair.
        """
        y = _tonelli(self, self.ctx.order, self.ctx.nonsquare)
        if y is None:
            return None
        return min(y, -y)


class ExtCtx:
    """GF(p^4) = GF(p^2)[j]/(j^2 - m), m the smallest non-square of GF(p^2)."""

    def __init__(self, base: FieldCtx):
        self.base = base
        self.m = base.nonsquare()
        self.order = base.order ** 2
        self.zero = ExtElement(self, base.zero, base.zero)
        self.one = ExtElement(self, base.one, base.zero)
        self._nonsquare = None

    def __repr__(self):
        return f"GF({self.base.p}^4)"

    def embed(self, x: FieldElement) -> "ExtElement":
        return ExtElement(self, x, self.base.zero)

    def from_int(self, a: int) -> "ExtElement":
        return ExtElement(self, self.base.from_int(a), self.base.zero)

    def element(self, u: FieldElement, v: FieldElement) -> "ExtElement":
        return ExtElement(self, u, v)

    def nonsquare(self) -> "ExtElement":
        if self._nonsquare is None:
            # j is a non-square in GF(p^4): its square m is a non-square
            # of GF(p^2), hence m^((p^4-1)/2) = (m^((p^2-1)/2))^((p^2+1))
            # = (-1)^(p^2+1) = ... verified by the explicit test below.
            j = ExtElement(self, self.base.zero, self.base.one)
            if not j.is_square():
                self._nonsquare = j
            else:  # fall back to a scan; not expected to trigger
                for u in self.base.elements():
                    cand = ExtElement(self, u, self.base.one)
                    if not cand.is_square():
                        self._nonsquare = cand
                        break
        return self._nonsquare


class ExtElement:
    """An element u + v*j of GF(p^4), with u, v in GF(p^2)."""

    __slots__ = ("ctx", "u", "v")

    def __init__(self, ctx: ExtCtx, u: FieldElement, v: FieldElement):
        self.ctx = ctx
        self.u = u
        self.v = v

    def __repr__(self):
        if self.v.is_zero():
            return repr(self.u)
        return f"({self.u})+({self.v})j"

    def __eq__(self, other):
        return isinstance(other, ExtElement) and self.u == other.u \
            and self.v == other.v

    def __hash__(self):
        return hash((self.u, self.v))

    def __lt__(self, other):
        return self.key() < other.key()

    def key(self):
        return (self.u.a, self.u.b, self.v.a, self.v.b)

    def is_zero(self) -> bool:
        return self.u.is_zero() and self.v.is_zero()

    def in_base_field(self) -> bool:
        return self.v.is_zero()

    def __add__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return ExtElement(self.ctx, self.u + other.u, self.v + other.v)

    def __sub__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        return ExtElement(self.ctx, self.u - other.u, self.v - other.v)

    def __neg__(self):
        return ExtElement(self.ctx, -self.u, -self.v)

    def __mul__(self, other):
        if isinstance(other, int):
            other = self.ctx.from_int(other)
        m = self.ctx.m
        return ExtElement(self.ctx,
                          self.u * other.u + m * (self.v * other.v),
                          self.u * other.v + self.v * other.u)

    __radd__ = __add__
    __rmul__ = __mul__

    def inverse(self) -> "ExtElement":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        norm = self.u * self.u - self.ctx.m * (self.v * self.v)
        inv = norm.inverse()
        return ExtElement(self.ctx, self.u * inv, -(self.v * inv))

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, e: int):
        if e < 0:
            return self.inverse() ** (-e)
        result = self.ctx.one
        base = self
        while e:
            if e & 1:
                result = result * base
            base = base * base
            e >>= 1
        return result

    def is_square(self) -> bool:
        if self.is_zero():
            return True
        return self ** ((self.ctx.order - 1) // 2) == self.ctx.one

    def sqrt(self):
        """Deterministic square root in GF(p^4), or None if non-square."""
        y = _tonelli(self, self.ctx.order, self.ctx.nonsquare)
        if y is None:
            return None
        return min(y, -y)


def _tonelli(x, q: int, nonsquare_fn):
    """Tonelli-Shanks in a field of odd order q; returns one root or None.

    Works uniformly over GF(p^2) and GF(p^4); `nonsquare_fn` supplies a
    fixed non-square of the field when needed.
    """
    ctx = x.ctx
    if x.is_zero():
        return x
    if x ** ((q - 1) // 2) != ctx.one:
        return None
    m, e = q - 1, 0
    while m % 2 == 0:
        m //= 2
        e += 1
    if e == 1:
        return x ** ((q + 1) // 4)
    z = nonsquare_fn() ** m
    y = x ** ((m + 1) // 2)
    b = x ** m
    while b != ctx.one:
        t, k = b, 0
        while t != ctx.one:
            t = t * t
            k += 1
        y = y * (z ** (1 << (e - k - 1)))
        z = z ** (1 << (e - k))
        b = b * z
        e = k
    return y
