"""Sparse polynomials in one variable x over Q(q), and the additive core
they share with forms.

_Sparse is a finite sum of nonzero coefficients on basis keys, tagged with a
truncation flag; it holds the mode, equality, negation, sums and
differences. Poly puts CycQ scalars on the powers x**d, and forms.Form puts
Poly coefficients on the words dx**k * d2x**m.

A truncated Poly lives in the quotient by x**3 == 0: degrees of three or
more are discarded on construction and multiplication. Values of different
modes never mix; combining them raises ModeMismatchError. Instances are
immutable and stored canonically (no zero coefficients, no negative
degrees). Their text comes from parser.poly_text.
"""

from __future__ import annotations

from collections.abc import Iterable, ItemsView, Mapping
from numbers import Rational
from typing import TypeVar

from .cyclotomic import ZERO, CycQ, as_cycq


_new = object.__new__


class ModeMismatchError(Exception):
    """Raised when plain and x**3 == 0 values are combined."""


_S = TypeVar("_S", bound="_Sparse")


class _Sparse:
    """Immutable map from basis keys to nonzero coefficients, in one mode.

    Subclasses define _trusted(terms, truncated), which builds an instance
    from canonical keys and values of that mode and drops the zero values;
    negation and sums go through it, so they repeat none of __init__'s checks.
    """

    __slots__ = ("_terms", "_truncated")

    @property
    def truncated(self) -> bool:
        return self._truncated

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def items(self) -> ItemsView:
        """(key, coefficient) pairs in no particular order; terms() sorts."""
        return self._terms.items()

    def _require_same_mode(self, other: _Sparse) -> None:
        if self._truncated != other._truncated:
            raise ModeMismatchError("cannot combine plain and x**3 == 0 values")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self._truncated == other._truncated and self._terms == other._terms

    def __neg__(self: _S) -> _S:
        return type(self)._trusted({k: -c for k, c in self._terms.items()}, self._truncated)

    def __add__(self: _S, other: _S) -> _S:
        if not isinstance(other, type(self)):
            return NotImplemented
        self._require_same_mode(other)
        out = dict(self._terms)
        for key, coeff in other._terms.items():
            acc = out.get(key)
            out[key] = coeff if acc is None else acc + coeff
        return type(self)._trusted(out, self._truncated)

    def __sub__(self: _S, other: _S) -> _S:
        if not isinstance(other, type(self)):
            return NotImplemented
        return self + (-other)


class Poly(_Sparse):
    """Immutable sparse polynomial with CycQ coefficients."""

    __slots__ = ()

    def __init__(
        self,
        coeffs: Mapping[int, CycQ | int | Rational] | None = None,
        truncated: bool = False,
    ) -> None:
        canonical: dict[int, CycQ] = {}
        for degree, value in (coeffs or {}).items():
            if degree < 0:
                raise ValueError(f"negative degree {degree}")
            if truncated and degree >= 3:
                continue  # x**3 == 0
            coeff = as_cycq(value)
            if coeff:
                canonical[degree] = coeff
        self._terms = canonical
        self._truncated = truncated

    @classmethod
    def _trusted(cls, coeffs: Mapping[int, CycQ], truncated: bool) -> Poly:
        """Build from CycQ values at nonnegative degrees without the checks of
        __init__; still drops zeros and, when truncated, degrees of three or more."""
        out = _new(cls)
        if truncated:
            out._terms = {d: c for d, c in coeffs.items() if d < 3 and c}
        else:
            out._terms = {d: c for d, c in coeffs.items() if c}
        out._truncated = truncated
        return out

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
        return self._terms.get(degree, ZERO)

    def terms(self) -> list[tuple[int, CycQ]]:
        """(degree, coefficient) pairs in ascending degree order."""
        return sorted(self._terms.items())

    def __mul__(self, other: Poly | CycQ | int | Rational) -> Poly:
        # the concrete types first: Poly * Poly never reaches the ABC's isinstance
        if not isinstance(other, Poly):
            if isinstance(other, (CycQ, int, Rational)):
                return self.scale(other)
            return NotImplemented
        self._require_same_mode(other)
        out: dict[int, CycQ] = {}
        _mul_into(out, self._terms.items(), other._terms.items(), self._truncated)
        return Poly._trusted(out, self._truncated)

    def __rmul__(self, other: CycQ | int | Rational) -> Poly:
        if isinstance(other, (CycQ, int, Rational)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: CycQ | int | Rational) -> Poly:
        factor = as_cycq(factor)
        return Poly._trusted({d: factor * c for d, c in self._terms.items()}, self._truncated)

    def __str__(self) -> str:
        from .parser import poly_text  # local import avoids a module cycle

        return poly_text(self)

    def __repr__(self) -> str:
        return f"Poly({self.__str__()!r}, truncated={self._truncated})"


def _mul_into(
    out: dict[int, CycQ],
    left: Iterable[tuple[int, CycQ]],
    right: ItemsView[int, CycQ],
    truncated: bool,
) -> None:
    """Add the product of two coefficient sequences into the degree map out.

    The one double loop behind Poly.__mul__ and Form.mul; truncated skips the
    degrees of three or more. Zero sums stay in out, for Poly._trusted to drop.
    """
    for d1, c1 in left:
        for d2, c2 in right:
            degree = d1 + d2
            if truncated and degree >= 3:
                continue
            acc = out.get(degree)
            out[degree] = c1 * c2 if acc is None else acc + c1 * c2
