"""Sparse polynomials in one variable x over Q(q), the core they share with
forms, and the int accumulator of every sum.

_Sparse is a finite sum of nonzero coefficients on basis keys, tagged with a
truncation flag; it holds the mode, equality and differences. A Poly stores
the coefficient map that every Form word holds: degree -> (a, b, d), the
canonical ints of the scalar (a + b*q) / d, with no zero coefficient and no
negative degree, so equality is dict equality. Its sums, products, scalings
and negation compute on those ints; a CycQ is built only for coefficient(),
items() and terms().

A truncated Poly lives in the quotient by x**3 == 0: degrees of three or
more are discarded on construction and multiplication. Values of different
modes never mix: _Sparse._require_mode, the one mode check, raises
ModeMismatchError. Instances are immutable; their text is parser.poly_text.

Sums of those maps go through one accumulator, _add_into, which adds
(degree, (a, b, d)) pairs into sums of the same layout, over the lcm of
unlike denominators (_add_unlike); _canonical puts each sum in lowest terms
and drops zeros, taking a sum over d == 1, an Eisenstein integer, as it is.
Products have one kernel, forms._mul, which multiplies and adds in the same
loop and reduces only where a fraction, a cancellation or an empty word
needs it; Poly.__mul__ is that kernel on the empty word. Negation
(_negated) and scaling (_scale) stay canonical and need no sums.
"""

from __future__ import annotations

from collections.abc import ItemsView, Iterable, Mapping
from math import gcd
from numbers import Rational
from typing import TypeVar

from .cyclotomic import ZERO, CycQ, _lowest, _of, _operand, _times, _too_long_text, _triple


_new = object.__new__


class ModeMismatchError(Exception):
    """Raised when plain and x**3 == 0 values are combined."""


_S = TypeVar("_S", bound="_Sparse")


class _Sparse:
    """Immutable map from basis keys to nonzero coefficients, in one mode.

    Subclasses define negation and sums; a difference is a sum with the
    negation.
    """

    __slots__ = ("_terms", "_truncated")

    @classmethod
    def _wrap(cls: type[_S], terms: dict, truncated: bool) -> _S:
        """The instance of a canonical map of the given mode, taken as it is."""
        out = _new(cls)
        out._terms, out._truncated = terms, truncated
        return out

    @property
    def truncated(self) -> bool:
        return self._truncated

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def _require_mode(self, truncated: bool) -> None:
        """The one mode check: a plain value never meets an x**3 == 0 value or configuration."""
        if self._truncated != truncated:
            raise ModeMismatchError("plain and x**3 == 0 modes do not match")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._truncated == other._truncated and self._terms == other._terms

    def __sub__(self: _S, other: _S) -> _S:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)


class Poly(_Sparse):
    """Immutable sparse polynomial over Q(q), stored as degree -> (a, b, d).

    A degree must be an int, bool and float excluded (TypeError), and
    nonnegative (ValueError).
    """

    __slots__ = ()

    def __init__(
        self,
        coeffs: Mapping[int, CycQ | int | Rational] | None = None,
        truncated: bool = False,
    ) -> None:
        canonical: dict[int, tuple[int, int, int]] = {}
        for degree, value in (coeffs or {}).items():
            if type(degree) is not int:  # bool and float included
                raise TypeError(f"degree must be an int, got {degree!r}")
            if degree < 0:
                raise ValueError(f"negative degree {degree}")
            a, b, d = _triple(value)  # before the x**3 == 0 skip, so a bad value raises in both modes
            if (a or b) and (degree < 3 or not truncated):
                canonical[degree] = (a, b, d)
        self._terms = canonical
        self._truncated = truncated

    @classmethod
    def zero(cls, truncated: bool = False) -> Poly:
        return cls(None, truncated)

    @classmethod
    def one(cls, truncated: bool = False) -> Poly:
        return cls({0: 1}, truncated)

    @classmethod
    def x(cls, truncated: bool = False) -> Poly:
        return cls({1: 1}, truncated)

    @classmethod
    def constant(cls, value: CycQ | int | Rational, truncated: bool = False) -> Poly:
        return cls({0: value}, truncated)

    @classmethod
    def monomial(
        cls,
        degree: int,
        coeff: CycQ | int | Rational = 1,
        truncated: bool = False,
    ) -> Poly:
        return cls({degree: coeff}, truncated)

    @property
    def degree(self) -> int | None:
        """Largest degree with a nonzero coefficient, None for the zero polynomial."""
        return max(self._terms) if self._terms else None

    def coefficient(self, degree: int) -> CycQ:
        t = self._terms.get(degree)
        return ZERO if t is None else _of(t)

    def items(self) -> ItemsView[int, CycQ]:
        """(degree, coefficient) pairs in storage order; terms() sorts."""
        return {e: _of(t) for e, t in self._terms.items()}.items()

    def terms(self) -> list[tuple[int, CycQ]]:
        """(degree, coefficient) pairs in ascending degree order."""
        return sorted(self.items())

    def __neg__(self) -> Poly:
        return Poly._wrap(_negated(self._terms), self._truncated)

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_mode(other._truncated)
        sums: dict[int, tuple[int, int, int]] = {}
        _add_into(sums, self._terms.items())
        _add_into(sums, other._terms.items())
        return Poly._wrap(_canonical(sums), self._truncated)

    def __mul__(self, other: Poly | CycQ | int | Rational) -> Poly:
        # the concrete type first: Poly * Poly never reaches _operand's ABC isinstance
        if not isinstance(other, Poly):
            return NotImplemented if _operand(other) is None else self.scale(other)
        self._require_mode(other._truncated)
        from .forms import _mul  # the product kernel, on the empty word; local, as forms imports this module

        product = _mul({(0, 0): self._terms}, {(0, 0): other._terms}, None, self._truncated)
        return Poly._wrap(product.get((0, 0), {}), self._truncated)

    __rmul__ = __mul__  # reached only for a scalar

    def scale(self, factor: CycQ | int | Rational) -> Poly:
        s = _triple(factor)
        return Poly._wrap(_scale(self._terms, s) if s[0] or s[1] else {}, self._truncated)

    def __str__(self) -> str:
        from .parser import poly_text  # local import avoids a module cycle

        return poly_text(self._terms)

    def __repr__(self) -> str:
        try:
            text = repr(self.__str__())
        except ValueError:  # an int past the interpreter's int/str digit limit
            text = _too_long_text()
        return f"Poly({text}, truncated={self._truncated})"


Coeffs = Mapping[int, tuple[int, int, int]]  # degree -> (a, b, d) for (a + b*q) / d * x**degree
Terms = Iterable[tuple[int, tuple[int, int, int]]]  # (degree, (a, b, d)) pairs, such as a Coeffs' items()


def _add_into(sums: dict[int, tuple[int, int, int]], terms: Terms) -> None:
    """Add (degree, (a, b, d)) terms, such as a map's items(), into sums of the
    same layout, the one accumulator of every sum: a degree's first term is
    stored as it is, two denominators add over their lcm (_add_unlike), and
    nothing is reduced; zero sums stay."""
    for e, t in terms:
        acc = sums.get(e)
        if acc is None:
            sums[e] = t
        elif acc[2] == t[2]:
            sums[e] = acc[0] + t[0], acc[1] + t[1], t[2]
        else:
            sums[e] = _add_unlike(acc, *t)


def _add_unlike(acc: tuple[int, int, int], a: int, b: int, d: int) -> tuple[int, int, int]:
    """acc + (a + b*q) / d for a denominator d other than acc's, over their
    lcm, not their product; nothing is reduced."""
    g = gcd(acc[2], d)
    up, over = d // g, acc[2] // g  # lcm == acc[2] * up == d * over
    return acc[0] * up + a * over, acc[1] * up + b * over, acc[2] * up


def _negated(coeffs: Coeffs) -> dict[int, tuple[int, int, int]]:
    """The coefficient map of -coeffs; canonical when coeffs is."""
    return {e: (-a, -b, d) for e, (a, b, d) in coeffs.items()}


def _scale(coeffs: Coeffs, s: tuple[int, int, int]) -> dict[int, tuple[int, int, int]]:
    """The canonical map of coeffs times the nonzero canonical scalar s; no term drops."""
    return {e: _times(t, s) for e, t in coeffs.items()}


def _canonical(sums: Coeffs) -> dict[int, tuple[int, int, int]]:
    """The coefficient map of the sums: each in lowest terms, zeros dropped,
    in the order the sums were made; a sum over d == 1 is taken as it is."""
    return {e: (a, b, d) if d == 1 else _lowest(a, b, d) for e, (a, b, d) in sums.items() if a or b}
