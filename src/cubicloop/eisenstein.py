"""Exact arithmetic in K = Z3[theta], theta^2 + theta + 1 = 0.

Elements are exact integer pairs (a, b) meaning a + b*theta.
The uniformizer is pi = 1 - theta; it satisfies pi^2 = -3*theta and
3 = -theta^2 * pi^2, so the extension is totally ramified with nu(3) = 2.

Elements carry no precision: the functions that truncate (`to_digits`,
`reduce_mod`, `invert`, `div_exact`) take the number of pi-adic digits n
explicitly, and the working precision of a computation lives on the points
of `surface.ProjPoint`.  Digits are plain tuples (`DigitVector`) of
balanced pi-adic digits in {-1, 0, 1}, lowest first.
"""

from __future__ import annotations

import math


class PrecisionExhausted(Exception):
    """An operation would claim more pi-adic precision than is available."""


class NonUnitInverse(Exception):
    """Inversion of an element with positive valuation."""


class NonIntegralQuotient(Exception):
    """Division whose result would not lie in K."""


INFINITE = math.inf


class RingElt:
    """a + b*theta, exact."""

    __slots__ = ("a", "b")

    def __init__(self, a: int, b: int = 0):
        self.a = a
        self.b = b

    @staticmethod
    def _coerce(x) -> "RingElt":
        if isinstance(x, RingElt):
            return x
        if isinstance(x, int):
            return RingElt(x)
        return NotImplemented

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElt(self.a + o.a, self.b + o.b)

    __radd__ = __add__

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return RingElt(self.a - o.a, self.b - o.b)

    def __rsub__(self, other):
        return self._coerce(other) - self

    def __neg__(self):
        return RingElt(-self.a, -self.b)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        # theta^2 = -1 - theta
        a, b, c, d = self.a, self.b, o.a, o.b
        bd = b * d
        return RingElt(a * c - bd, a * d + b * c - bd)

    __rmul__ = __mul__

    def __pow__(self, n: int):
        if n < 0:
            raise ValueError("negative powers are not ring elements")
        result = RingElt(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return NotImplemented
        return self.a == o.a and self.b == o.b

    def __hash__(self):
        return hash((self.a, self.b))

    def __repr__(self):
        return f"RingElt({self.a}, {self.b})"

    def is_zero(self) -> bool:
        return self.a == 0 and self.b == 0

    def norm(self) -> int:
        """Norm to Z3: N(a + b*theta) = a^2 - a*b + b^2."""
        return self.a * self.a - self.a * self.b + self.b * self.b

    def conj(self) -> "RingElt":
        """Galois conjugate a + b*theta^2 = (a - b) - b*theta."""
        return RingElt(self.a - self.b, -self.b)


ZERO = RingElt(0)
ONE = RingElt(1)
THETA = RingElt(0, 1)
PI = RingElt(1, -1)  # the uniformizer 1 - theta


def _v3(n: int) -> int:
    v = 0
    while n % 3 == 0:
        n //= 3
        v += 1
    return v


def nu(x: RingElt) -> int | float:
    """pi-adic valuation, INFINITE for zero."""
    if x.is_zero():
        return INFINITE
    return _v3(x.norm())


# Balanced digits d_i in {-1, 0, 1}, d_0 first; represents sum d_i * pi^i mod pi^n.
DigitVector = tuple[int, ...]


def _balanced_residue(x: RingElt) -> int:
    # theta = 1 mod pi, so x mod pi is (a + b) mod 3, balanced.
    r = (x.a + x.b) % 3
    return r - 3 if r == 2 else r


def divide_by_pi(x: RingElt) -> RingElt:
    """Exact division by pi = 1 - theta, via pi*(1 - theta^2) = 3."""
    if (x.a + x.b) % 3 != 0:
        raise NonIntegralQuotient(f"{x!r} is not divisible by pi")
    # x * (2 + theta) = (2a - b) + (a + b) theta, then divide by 3.
    return RingElt((2 * x.a - x.b) // 3, (x.a + x.b) // 3)


def to_digits(x: RingElt, n: int) -> DigitVector:
    digits = []
    cur = x
    for _ in range(n):
        d = _balanced_residue(cur)
        digits.append(d)
        cur = divide_by_pi(cur - d)
    return tuple(digits)


def from_digits(d: DigitVector) -> RingElt:
    acc = ZERO
    for digit in reversed(d):
        acc = acc * PI + digit
    return acc


def reduce_mod(x: RingElt, n: int) -> RingElt:
    """Canonical balanced representative of x mod pi^n."""
    return from_digits(to_digits(x, n))


def invert(x: RingElt, n: int) -> RingElt:
    """y with x*y = 1 mod pi^n.  Exact for the six units of K itself."""
    if nu(x) != 0:
        raise NonUnitInverse(f"nu({x!r}) > 0")
    norm = x.norm()
    c = x.conj()
    if norm == 1:
        # +-1, +-theta, +-theta^2: the inverse is the conjugate exactly.
        return c
    # x^{-1} = conj(x)/N(x); invert the norm 3-adically.  3^m = unit * pi^{2m}.
    m = n // 2 + 1
    mod = 3**m
    ninv = pow(norm % mod, -1, mod)
    return reduce_mod(RingElt(c.a * ninv, c.b * ninv), n)


def div_exact(x: RingElt, y: RingElt, n: int) -> RingElt:
    """x / y in K, to precision n beyond the valuation shift."""
    vy = nu(y)
    if vy == INFINITE:
        raise NonIntegralQuotient("division by zero")
    if nu(x) < vy:
        raise NonIntegralQuotient(f"nu(x)={nu(x)} < nu(y)={vy}")
    num, den = x, y
    for _ in range(vy):
        num = divide_by_pi(num)
        den = divide_by_pi(den)
    if den.norm() == 1:
        return num * den.conj()
    if n < 1:
        raise PrecisionExhausted("quotient retains no precision")
    return reduce_mod(num * invert(den, n), n)
