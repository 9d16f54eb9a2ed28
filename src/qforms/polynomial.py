"""Sparse polynomials in one variable x over Q(q).

A Poly carries a truncation flag: truncated values live in the quotient by
x**3 == 0 and degrees of three or more are discarded on construction and
multiplication. Values of different modes never mix; combining them raises
ModeMismatchError. Instances are immutable and stored canonically (no zero
coefficients, no negative degrees).
"""

from __future__ import annotations

from collections.abc import Mapping
from fractions import Fraction

from .cyclotomic import ZERO, CycQ, as_cycq


class ModeMismatchError(Exception):
    """Raised when plain and x**3 == 0 values are combined."""


class Poly:
    """Immutable sparse polynomial with CycQ coefficients."""

    __slots__ = ("_coeffs", "_truncated")

    def __init__(
        self,
        coeffs: Mapping[int, CycQ | int | Fraction] | None = None,
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
        self._coeffs = canonical
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
    def constant(cls, value: CycQ | int | Fraction, truncated: bool = False) -> Poly:
        return cls({0: value}, truncated)

    @classmethod
    def monomial(
        cls,
        degree: int,
        coeff: CycQ | int | Fraction = 1,
        truncated: bool = False,
    ) -> Poly:
        return cls({degree: coeff}, truncated)

    @property
    def truncated(self) -> bool:
        return self._truncated

    @property
    def degree(self) -> int | None:
        """Largest degree with a nonzero coefficient, None for the zero polynomial."""
        return max(self._coeffs) if self._coeffs else None

    def is_zero(self) -> bool:
        return not self._coeffs

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def coefficient(self, degree: int) -> CycQ:
        return self._coeffs.get(degree, ZERO)

    def terms(self) -> list[tuple[int, CycQ]]:
        """(degree, coefficient) pairs in ascending degree order."""
        return sorted(self._coeffs.items())

    def _require_same_mode(self, other: Poly) -> None:
        if self._truncated != other._truncated:
            raise ModeMismatchError("cannot combine plain and x**3 == 0 polynomials")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self._truncated == other._truncated and self._coeffs == other._coeffs

    def __neg__(self) -> Poly:
        return Poly({d: -c for d, c in self._coeffs.items()}, self._truncated)

    def __add__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_mode(other)
        out = dict(self._coeffs)
        for degree, coeff in other._coeffs.items():
            out[degree] = out.get(degree, ZERO) + coeff
        return Poly(out, self._truncated)

    def __sub__(self, other: Poly) -> Poly:
        if not isinstance(other, Poly):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: Poly | CycQ | int | Fraction) -> Poly:
        if isinstance(other, (CycQ, int, Fraction)):
            return self.scale(other)
        if not isinstance(other, Poly):
            return NotImplemented
        self._require_same_mode(other)
        out: dict[int, CycQ] = {}
        for d1, c1 in self._coeffs.items():
            for d2, c2 in other._coeffs.items():
                degree = d1 + d2
                if self._truncated and degree >= 3:
                    continue
                out[degree] = out.get(degree, ZERO) + c1 * c2
        return Poly(out, self._truncated)

    def __rmul__(self, other: CycQ | int | Fraction) -> Poly:
        if isinstance(other, (CycQ, int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, factor: CycQ | int | Fraction) -> Poly:
        factor = as_cycq(factor)
        return Poly({d: factor * c for d, c in self._coeffs.items()}, self._truncated)

    def __str__(self) -> str:
        if not self._coeffs:
            return "0"
        out: list[str] = []
        for degree, coeff in self.terms():
            if degree == 0:
                # ascending order puts the constant first, so its own sign leads
                out.append(str(coeff))
                continue
            sign, text = product_text(coeff, "x" if degree == 1 else f"x^{degree}")
            if not out:
                out.append(text if sign == "+" else "-" + text)
            else:
                out.append(sign + text)
        return "".join(out)

    def __repr__(self) -> str:
        return f"Poly({self.__str__()!r}, truncated={self._truncated})"


def product_text(coeff: CycQ, tail: str) -> tuple[str, str]:
    """Sign character and unsigned text for coeff * tail, tail a nonempty word."""
    if coeff.a and coeff.b:
        # mixed scalars keep their own signs inside parentheses
        return "+", f"({coeff})*{tail}"
    if coeff.b:
        sign = "+" if coeff.b > 0 else "-"
        mag = abs(coeff.b)
        qtext = "q" if mag == 1 else f"{mag}*q"
        return sign, f"{qtext}*{tail}"
    sign = "+" if coeff.a > 0 else "-"
    mag = abs(coeff.a)
    return sign, tail if mag == 1 else f"{mag}*{tail}"
