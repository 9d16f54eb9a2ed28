"""Exact arithmetic in Q(q), the rationals extended by a primitive cube root of unity.

The generator satisfies q**3 == 1 and 1 + q + q**2 == 0, so every element is
uniquely a + b*q with rational a, b, and products reduce by q**2 == -1 - q.

A CycQ stores the value (a + b*q) / d as three ints over one common
denominator, in canonical form: d > 0, gcd(a, b, d) == 1, and zero is
(0, 0, 1). Almost every scalar the engine meets is an Eisenstein integer
(d == 1), for which arithmetic is a handful of int operations and the gcd
is skipped. The engine's paths never import fractions: a numbers.Rational
(Fraction among them) is read through its numerator and denominator, and a
rational value hashes by the formula int and Fraction use. Only the
properties a and b, norm(), repr, and CycQ of a float, str or Decimal
build Fractions (_fraction). The text of a scalar comes from
parser.scalar_text.

The int core is the one definition of Q(q) arithmetic on such (a, b, d)
triples, which CycQ, Poly and Form compute with: _operand (the one reader
of a scalar operand: a CycQ, an int or a numbers.Rational), _lowest (the
one place lowest terms are taken), _plus, _times (q**2 folded to -1 - q),
_int_inverse, _int_power, _ratios (the parts that text and JSON write),
_from_ratios, _Q_TRIPLES (the powers of q). _of wraps a canonical triple
as a CycQ. Two hot loops inline _times.
"""

from __future__ import annotations

import sys
from math import gcd
from numbers import Rational
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    from fractions import Fraction

_MODULUS, _INF = sys.hash_info.modulus, sys.hash_info.inf


class CycQ:
    """An element (a + b*q) / d of Q(q), stored as three canonical ints."""

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, a: int | Rational = 0, b: int | Rational = 0) -> None:
        if type(a) is int and type(b) is int:
            self._a, self._b, self._d = a, b, 1
            return
        self._a, self._b, self._d = _from_ratios(*_ratio(a), *_ratio(b))

    @property
    def a(self) -> Fraction:
        return _fraction(self._a, self._d)

    @property
    def b(self) -> Fraction:
        return _fraction(self._b, self._d)

    def ratios(self) -> tuple[int, int, int, int]:
        """(a_num, a_den, b_num, b_den): a and b in lowest terms, the four ints
        that JSON writes and from_ratios reads, with no Fraction built."""
        return _ratios(self._a, self._b, self._d)

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
        t = _operand(other)
        # canonical form makes equality structural
        return NotImplemented if t is None else (self._a, self._b, self._d) == t

    def __hash__(self) -> int:
        # a rational value hashes like the int or Fraction it equals
        a, d = self._a, self._d
        if self._b:
            return hash((a, self._b, d))
        if d == 1:
            return hash(a)
        # Fraction.__hash__: |a| / d modulo the hash prime, inf when d has no inverse
        h = hash(hash(abs(a)) * pow(d, -1, _MODULUS)) if d % _MODULUS else _INF
        return h if a >= 0 else -h  # hash() itself turns -1 into -2, as Fraction does

    def __neg__(self) -> CycQ:
        return _of((-self._a, -self._b, self._d))  # still in lowest terms

    def __add__(self, other: CycQ | int | Rational) -> CycQ:
        t = _operand(other)
        return NotImplemented if t is None else _of(_plus((self._a, self._b, self._d), t))

    __radd__ = __add__

    def __sub__(self, other: CycQ | int | Rational) -> CycQ:
        t = _operand(other)
        return NotImplemented if t is None else _of(_plus((self._a, self._b, self._d), (-t[0], -t[1], t[2])))

    def __rsub__(self, other: int | Rational) -> CycQ:
        t = _operand(other)
        return NotImplemented if t is None else _of(_plus(t, (-self._a, -self._b, self._d)))

    def __mul__(self, other: CycQ | int | Rational) -> CycQ:
        t = _operand(other)
        return NotImplemented if t is None else _of(_times((self._a, self._b, self._d), t))

    __rmul__ = __mul__

    def conjugate(self) -> CycQ:
        """The image under q -> q**2, namely (a - b) - b*q."""
        return _of((self._a - self._b, -self._b, self._d))  # gcd(a - b, b, d) == gcd(a, b, d)

    def norm(self) -> Fraction:
        """Rational norm a**2 - a*b + b**2; positive except at zero."""
        return _fraction(_int_norm(self._a, self._b), self._d * self._d)

    def inverse(self) -> CycQ:
        return _of(_int_inverse((self._a, self._b, self._d)))

    def __truediv__(self, other: CycQ | int | Rational) -> CycQ:
        t = _operand(other)
        return NotImplemented if t is None else _of(_times((self._a, self._b, self._d), _int_inverse(t)))

    def __pow__(self, n: int) -> CycQ:
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            raise ValueError("negative exponent")
        return _of(_int_power((self._a, self._b, self._d), n))

    def __str__(self) -> str:
        from .parser import scalar_text  # local import avoids a module cycle

        return scalar_text(self)

    def __repr__(self) -> str:
        try:
            return f"CycQ({self.a}, {self.b})"
        except ValueError:  # an int past the interpreter's int/str digit limit
            return f"CycQ({_too_long_text()})"


def _too_long_text() -> str:
    """What a repr writes in place of the text of a value holding an int that
    str() refuses, one past the interpreter's int/str digit limit."""
    return f"<an integer of more than {sys.get_int_max_str_digits()} digits>"


_new = object.__new__


def _of(triple: tuple[int, int, int]) -> CycQ:
    """The CycQ of a canonical triple."""
    out = _new(CycQ)
    out._a, out._b, out._d = triple
    return out


def _lowest(a: int, b: int, d: int) -> tuple[int, int, int]:
    """(a, b, d) for d > 0 in lowest terms: gcd(a, b, d) == 1, zero as (0, 0, 1)."""
    if d != 1:  # an Eisenstein integer is already canonical
        g = gcd(a, b, d)
        if g != 1:
            return a // g, b // g, d // g
    return a, b, d


def _ratios(a: int, b: int, d: int) -> tuple[int, int, int, int]:
    """CycQ.ratios of the canonical triple (a, b, d)."""
    g, h = gcd(a, d), gcd(b, d)
    return a // g, d // g, b // h, d // h


def _plus(s: tuple[int, int, int], t: tuple[int, int, int]) -> tuple[int, int, int]:
    """The canonical sum of two canonical triples."""
    (a1, b1, d1), (a2, b2, d2) = s, t
    if d1 == d2:
        return _lowest(a1 + a2, b1 + b2, d1)
    return _lowest(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)


def _times(s: tuple[int, int, int], t: tuple[int, int, int]) -> tuple[int, int, int]:
    """The canonical product of two (a, b, d) triples."""
    (a1, b1, d1), (a2, b2, d2) = s, t
    # the q**2 cross term folds back onto {1, q} via q**2 == -1 - q
    cross = b1 * b2
    return _lowest(a1 * a2 - cross, a1 * b2 + b1 * a2 - cross, d1 * d2)


def _int_inverse(s: tuple[int, int, int]) -> tuple[int, int, int]:
    """The canonical inverse of a nonzero triple; ZeroDivisionError at zero."""
    a, b, d = s
    n = _int_norm(a, b)
    if not n:
        raise ZeroDivisionError("0 has no inverse in Q(q)")
    # 1 / ((a + b*q) / d) == d * conjugate(a + b*q) / n, with n > 0
    return _lowest(d * (a - b), -d * b, n)


def _int_power(s: tuple[int, int, int], n: int) -> tuple[int, int, int]:
    """s**n for n >= 0, canonical: square-and-multiply from the top bit down,
    bit_length(n) - 1 squarings and popcount(n) - 1 products, none wasted."""
    if not n:
        return _Q_TRIPLES[0]
    out = s
    for bit in bin(n)[3:]:
        out = _times(out, out)
        if bit == "1":
            out = _times(out, s)
    return out


def _fraction(*args: object) -> Fraction:
    from fractions import Fraction  # imported by the few callers that need one

    return Fraction(*args)


def _ratio(value: Rational | float | str) -> tuple[int, int]:
    """(numerator, denominator) of a scalar part; a float, str or Decimal
    goes through Fraction."""
    if not isinstance(value, Rational):
        value = _fraction(value)
    return value.numerator, value.denominator


def _int_norm(a: int, b: int) -> int:
    # a**2 - a*b + b**2 == ((2a - b)**2 + 3b**2) / 4, never negative
    return a * a - a * b + b * b


def from_ratios(a_num: int, a_den: int, b_num: int, b_den: int) -> CycQ:
    """The scalar a_num/a_den + (b_num/b_den)*q, built from four ints.

    Raises ZeroDivisionError when a denominator is zero.
    """
    return _of(_from_ratios(a_num, a_den, b_num, b_den))


def _from_ratios(a_num: int, a_den: int, b_num: int, b_den: int) -> tuple[int, int, int]:
    """The canonical triple of from_ratios, with no CycQ built."""
    d = a_den * b_den
    if not d:
        raise ZeroDivisionError("zero denominator")
    if d < 0:
        return _lowest(-a_num * b_den, -b_num * a_den, -d)
    return _lowest(a_num * b_den, b_num * a_den, d)


def as_cycq(value: CycQ | int | Rational) -> CycQ:
    return value if isinstance(value, CycQ) else _of(_triple(value))


def _triple(value: CycQ | int | Rational) -> tuple[int, int, int]:
    """_operand(value), or TypeError for a value that is not a Q(q) scalar; no CycQ is built."""
    t = _operand(value)
    if t is None:
        raise TypeError(f"cannot interpret {value!r} as a Q(q) scalar")
    return t


def _operand(value: object) -> tuple[int, int, int] | None:
    """The canonical triple of a CycQ, an int (bool included) or a numbers.Rational; None for any other value."""
    if isinstance(value, CycQ):
        return value._a, value._b, value._d
    if isinstance(value, (int, Rational)):
        return _from_ratios(value.numerator, value.denominator, 0, 1)
    return None


_Q_TRIPLES = ((1, 0, 1), (0, 1, 1), (-1, -1, 1))  # q**0, q**1, q**2 == -1 - q
_Q_POWERS = tuple(map(_of, _Q_TRIPLES))

ZERO = CycQ(0)
ONE, Q = _Q_POWERS[:2]


def q_power(n: int) -> CycQ:
    """q**n, reduced by q**3 == 1."""
    return _Q_POWERS[n % 3]
