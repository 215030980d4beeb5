"""Exact arithmetic in GF(p^2) and its quadratic extension GF(p^4).

GF(p^2) is modelled as GF(p)[i]/(i^2 - n), where n is the smallest
positive non-square modulo p.  Elements are pairs a + b*i with
0 <= a, b < p; equality and ordering are componentwise on (a, b), so
every "canonical choice" made downstream (square roots, roots of
unity, vertex keys) is reproducible across runs and machines.

GF(p^4) is built the same way on top of GF(p^2), using the
lexicographically smallest non-square of GF(p^2).  No module of the
package calls it: a curve with a point outside GF(p^2) raises
genus2.IrrationalPointsError instead.  It stays only because the
benchmark tracer binds ExtElement's methods by name; it goes once the
tracer skips absent bindings.  Square roots in both fields use the norm
method (Adj and Rodriguez-Henriquez, IEEE TC 2014), down to the builtin
pow in GF(p).
"""

from __future__ import annotations

from math import gcd


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
        self._ext = None
        self._generator = None

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

    def nonsquare(self) -> FieldElement:
        """Lexicographically smallest non-square of GF(p^2)."""
        return next(x for x in self.elements()
                    if not x.is_zero() and not x.is_square())

    def extension(self) -> "ExtCtx":
        """GF(p^4) as a quadratic extension of this field (cached)."""
        if self._ext is None:
            self._ext = ExtCtx(self)
        return self._ext

    # kernels on (a, b) int pairs a + b*i, inputs possibly unreduced

    def pmul(self, x, y):
        (a, b), (c, d) = x, y
        return ((a * c + self.nonresidue * b * d) % self.p,
                (a * d + b * c) % self.p)

    def pminor(self, x, y, z, w):
        """x*y - z*w, reduced once."""
        (a, b), (c, d), (e, f), (g, h) = x, y, z, w
        n, p = self.nonresidue, self.p
        return (a * c + n * b * d - e * g - n * f * h) % p, \
            (a * d + b * c - e * h - f * g) % p

    def pinv(self, x):
        a, b = x
        inv = pow(a * a - self.nonresidue * b * b, -1, self.p)
        return a * inv % self.p, -b * inv % self.p

    def psqrt(self, x):
        """The lexicographically smaller square root of x, or None if x
        is a non-square.  Norm method: a + b*i is a square iff its norm
        N = a^2 - n*b^2 is one in GF(p); then y = c + b/(2c) i, c^2 being
        whichever of (a +- sqrt(N))/2 is a nonzero square in GF(p) (their
        product is n*b^2/4), or, if neither is (b = 0), y = sqrt(a/n) i.
        The roots in GF(p) are _sqrt_mod's: Tonelli-Shanks when
        p = 1 (mod 4), one power otherwise."""
        (a, b), p, n = x, self.p, self.nonresidue
        s = _sqrt_mod(a * a - n * b * b, p, n)
        if s is None:
            return None
        c = _sqrt_mod((a + s) * (p + 1) // 2, p, n) \
            or _sqrt_mod((a - s) * (p + 1) // 2, p, n)
        y = (c, b * pow(2 * c, -1, p) % p) if c \
            else (0, _sqrt_mod(a * pow(n, -1, p), p, n))
        return min(y, (-y[0] % p, -y[1] % p))

    def nth_root_of_unity(self, n: int):
        """Lexicographically smallest primitive n-th root of unity, or None.

        A primitive root exists iff n divides p^2 - 1.  Then the powers
        r^k, k coprime to n, of r = g^((p^2 - 1)/n) are all of them; g is
        the field's generator, found once: the first a + b*i in lex order
        with a, b != 0 (GF(p)^* and i*GF(p)^* have orders dividing 2(p -
        1)) whose (p^2 - 1)/l-th power is not 1 for any prime l | p^2 - 1.
        """
        if n <= 0:
            raise FieldError(f"n must be positive, got {n}")
        m = self.order - 1
        if m % n != 0:
            return None
        if self._generator is None:
            primes = [d for d in range(2, self.p + 2)
                      if m % d == 0 and is_prime(d)]
            self._generator = next(
                x for x in self.elements()
                if x.a and x.b
                and all(x ** (m // l) != self.one for l in primes))
        r = self._generator ** (m // n)
        return min(r ** k for k in range(1, n + 1) if gcd(k, n) == 1)


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
        return FieldElement(self.ctx, *self.ctx.pinv((self.a, self.b)))

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

    def is_square(self) -> bool:
        if self.is_zero():
            return True
        return self ** ((self.ctx.order - 1) // 2) == self.ctx.one

    def sqrt(self):
        """Deterministic square root in GF(p^2), or None if non-square:
        the pair FieldCtx.psqrt returns, as a FieldElement."""
        y = self.ctx.psqrt((self.a, self.b))
        return None if y is None else FieldElement(self.ctx, *y)


class ExtCtx:
    """GF(p^4) = GF(p^2)[j]/(j^2 - m), m the smallest non-square of GF(p^2)."""

    def __init__(self, base: FieldCtx):
        self.base = base
        self.m = base.nonsquare()
        self.order = base.order ** 2
        self.zero = ExtElement(self, base.zero, base.zero)
        self.one = ExtElement(self, base.one, base.zero)

    def __repr__(self):
        return f"GF({self.base.p}^4)"

    def embed(self, x: FieldElement) -> "ExtElement":
        return ExtElement(self, x, self.base.zero)

    def from_int(self, a: int) -> "ExtElement":
        return ExtElement(self, self.base.from_int(a), self.base.zero)

    def element(self, u: FieldElement, v: FieldElement) -> "ExtElement":
        return ExtElement(self, u, v)


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
        """Deterministic square root in GF(p^4), or None if non-square:
        the lexicographically smaller of +-y, by FieldElement.sqrt's
        norm method over GF(p^2)."""
        ctx, u, v = self.ctx, self.u, self.v
        s = (u * u - ctx.m * (v * v)).sqrt()
        if s is None:
            return None
        cs = [c for c in (((u + s) / 2).sqrt(), ((u - s) / 2).sqrt())
              if c is not None and not c.is_zero()]
        y = ExtElement(ctx, cs[0], v / (2 * cs[0])) if cs \
            else ExtElement(ctx, ctx.base.zero, (u / ctx.m).sqrt())
        return min(y, -y)


def _sqrt_mod(t: int, p: int, n: int):
    """A square root of t in GF(p), or None; n is a non-residue mod p."""
    t %= p
    if p % 4 == 3:
        r = pow(t, (p + 1) // 4, p)
        return r if r * r % p == t else None
    if pow(t, (p - 1) // 2, p) > 1:
        return None
    m, e = p - 1, 0
    while m % 2 == 0:
        m, e = m // 2, e + 1
    z, r, u = pow(n, m, p), pow(t, (m + 1) // 2, p), pow(t, m, p)
    while u > 1:  # Tonelli-Shanks, keeping r^2 = t*u
        k, w = 0, u
        while w != 1:
            w, k = w * w % p, k + 1
        z = pow(z, 1 << (e - k - 1), p)
        r, z, e, u = r * z % p, z * z % p, k, u * z * z % p
    return r
