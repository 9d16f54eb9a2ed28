"""Exact arithmetic in Q(q), the rationals extended by a primitive cube root of unity.

The generator satisfies q**3 == 1 and 1 + q + q**2 == 0, so every element is
uniquely a + b*q with rational a, b, and products reduce by q**2 == -1 - q.

A CycQ stores the value (a + b*q) / d as three ints over one common
denominator, in canonical form: d > 0, gcd(a, b, d) == 1, and zero is
(0, 0, 1). Almost every scalar the engine meets is an Eisenstein integer
(d == 1), for which arithmetic is a handful of int operations and the gcd
is skipped. The properties a and b give the rational parts as Fractions.
The text of a scalar comes from parser.scalar_text.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd


class CycQ:
    """An element (a + b*q) / d of Q(q), stored as three canonical ints."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | Fraction = 0, b: int | Fraction = 0) -> None:
        if type(a) is int and type(b) is int:
            self._a, self._b, self._d = a, b, 1
            return
        a, b = Fraction(a), Fraction(b)
        value = from_ratios(a.numerator, a.denominator, b.numerator, b.denominator)
        self._a, self._b, self._d = value._a, value._b, value._d

    @property
    def a(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._b, self._d)

    def ratios(self) -> tuple[int, int, int, int]:
        """(a_num, a_den, b_num, b_den): a and b in lowest terms, the four ints
        that JSON writes and from_ratios reads, with no Fraction built."""
        a, b, d = self._a, self._b, self._d
        g, h = gcd(a, d), gcd(b, d)
        return a // g, d // g, b // h, d // h

    def max_bits(self) -> int:
        """Bit length of the longest stored int; no int of ratios() is longer."""
        return max(self._a.bit_length(), self._b.bit_length(), self._d.bit_length())

    def is_zero(self) -> bool:
        return not self._a and not self._b

    def is_rational(self) -> bool:
        return not self._b

    def __bool__(self) -> bool:
        return self._a != 0 or self._b != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, CycQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycQ(other)
        # canonical form makes equality structural
        return self._a == other._a and self._b == other._b and self._d == other._d

    def __hash__(self) -> int:
        # a rational value hashes like the int or Fraction it equals
        if self._b:
            return hash((self._a, self._b, self._d))
        if self._d == 1:
            return hash(self._a)
        return hash(Fraction(self._a, self._d))

    def __neg__(self) -> CycQ:
        return _make(-self._a, -self._b, self._d)

    def __add__(self, other: CycQ | int | Fraction) -> CycQ:
        if not isinstance(other, CycQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycQ(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a + other._a, self._b + other._b, d1)
        return _make(self._a * d2 + other._a * d1, self._b * d2 + other._b * d1, d1 * d2)

    __radd__ = __add__

    def __sub__(self, other: CycQ | int | Fraction) -> CycQ:
        if not isinstance(other, CycQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycQ(other)
        d1, d2 = self._d, other._d
        if d1 == d2:
            return _make(self._a - other._a, self._b - other._b, d1)
        return _make(self._a * d2 - other._a * d1, self._b * d2 - other._b * d1, d1 * d2)

    def __rsub__(self, other: int | Fraction) -> CycQ:
        return (-self) + other

    def __mul__(self, other: CycQ | int | Fraction) -> CycQ:
        if not isinstance(other, CycQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycQ(other)
        a1, b1, a2, b2 = self._a, self._b, other._a, other._b
        # the q**2 cross term folds back onto {1, q} via q**2 == -1 - q
        cross = b1 * b2
        return _make(a1 * a2 - cross, a1 * b2 + b1 * a2 - cross, self._d * other._d)

    __rmul__ = __mul__

    def conjugate(self) -> CycQ:
        """The image under q -> q**2, namely (a - b) - b*q."""
        return _make(self._a - self._b, -self._b, self._d)

    def norm(self) -> Fraction:
        """Rational norm a**2 - a*b + b**2; positive except at zero."""
        return Fraction(_int_norm(self._a, self._b), self._d * self._d)

    def inverse(self) -> CycQ:
        a, b, d = self._a, self._b, self._d
        n = _int_norm(a, b)
        if not n:
            raise ZeroDivisionError("0 has no inverse in Q(q)")
        # 1 / ((a + b*q) / d) == d * conjugate(a + b*q) / n, with n > 0
        return _make(d * (a - b), -d * b, n)

    def __truediv__(self, other: CycQ | int | Fraction) -> CycQ:
        if not isinstance(other, CycQ):
            if not isinstance(other, (int, Fraction)):
                return NotImplemented
            other = CycQ(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> CycQ:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative exponent")
        out = ONE
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __str__(self) -> str:
        from .parser import scalar_text  # local import avoids a module cycle

        return scalar_text(self)

    def __repr__(self) -> str:
        return f"CycQ({self.a}, {self.b})"


_new = object.__new__


def _make(a: int, b: int, d: int) -> CycQ:
    """The CycQ (a + b*q) / d for d > 0, reduced to canonical form."""
    if d != 1:
        g = gcd(a, b, d)
        if g != 1:
            a //= g
            b //= g
            d //= g
    out = _new(CycQ)
    out._a = a
    out._b = b
    out._d = d
    return out


def _int_norm(a: int, b: int) -> int:
    # a**2 - a*b + b**2 == ((2a - b)**2 + 3b**2) / 4, never negative
    return a * a - a * b + b * b


def from_ratios(a_num: int, a_den: int, b_num: int, b_den: int) -> CycQ:
    """The scalar a_num/a_den + (b_num/b_den)*q, built from four ints.

    Raises ZeroDivisionError when a denominator is zero.
    """
    d = a_den * b_den
    if not d:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        return _make(-a_num * b_den, -b_num * a_den, -d)
    return _make(a_num * b_den, b_num * a_den, d)


def as_cycq(value: CycQ | int | Fraction) -> CycQ:
    if isinstance(value, CycQ):
        return value
    if isinstance(value, (int, Fraction)):
        return CycQ(value)
    raise TypeError(f"cannot interpret {value!r} as a Q(q) scalar")


ZERO = CycQ(0)
ONE = CycQ(1)
Q = CycQ(0, 1)

_Q_POWERS = (ONE, Q, CycQ(-1, -1))


def q_power(n: int) -> CycQ:
    """q**n, reduced by q**3 == 1."""
    return _Q_POWERS[n % 3]
