"""Differential forms on the line.

A Form is a finite sum of terms f * dx**k * d2x**m with polynomial f, k at
most 2 and m unbounded; the grade of a basis word is k + 2*m. Coefficients
always sit on the left. Products are reduced to that normal form with the
relations

    dx * g    == twist(g) * dx                      for g in the coordinate algebra
    d2x * g   == twist(g) * d2x + q_bracket(g) * dx**2
    d2x * dx  == q**2 * dx * d2x
    dx**3     == 0

which depend on the twist scalar, so multiplication takes a CalculusConfig.
Addition, scaling by polynomials from the left, and grading do not.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction

from .calculus import CalculusConfig, q_bracket, twist
from .cyclotomic import CycQ, as_cycq, from_ratios, q_power
from .polynomial import ModeMismatchError, Poly


@dataclass(frozen=True)
class FormMonomial:
    """The basis word dx**k * d2x**m, stored as the power pair (k, m)."""

    dx: int
    d2x: int

    def __post_init__(self) -> None:
        if not 0 <= self.dx <= 2:
            raise ValueError("dx power must lie in {0, 1, 2}")  # dx**3 == 0
        if self.d2x < 0:
            raise ValueError("d2x power must be nonnegative")

    @property
    def grade(self) -> int:
        return self.dx + 2 * self.d2x


def _sort_key(mon: FormMonomial) -> tuple[int, int]:
    # canonical order for rendering and serialization: m ascending, then k
    return (mon.d2x, mon.dx)


class Form:
    """Immutable form in left-coefficient normal form.

    Stored canonically: no zero coefficients, every coefficient in the mode
    named by the truncation flag.
    """

    __slots__ = ("_terms", "_truncated")

    def __init__(
        self,
        terms: Mapping[FormMonomial | tuple[int, int], Poly] | None = None,
        truncated: bool = False,
    ) -> None:
        canonical: dict[FormMonomial, Poly] = {}
        for mon, poly in (terms or {}).items():
            if not isinstance(mon, FormMonomial):
                mon = FormMonomial(*mon)
            if poly.truncated != truncated:
                raise ModeMismatchError("coefficient mode does not match the form")
            if not poly.is_zero():
                canonical[mon] = poly
        self._terms = canonical
        self._truncated = truncated

    @classmethod
    def zero(cls, truncated: bool = False) -> Form:
        return cls(None, truncated)

    @classmethod
    def one(cls, truncated: bool = False) -> Form:
        return cls.from_poly(Poly.one(truncated))

    @classmethod
    def from_poly(cls, poly: Poly) -> Form:
        """Embed a polynomial as the grade-0 form f * dx**0 * d2x**0."""
        return cls({FormMonomial(0, 0): poly}, poly.truncated)

    @classmethod
    def scalar(cls, value: CycQ | int | Fraction, truncated: bool = False) -> Form:
        return cls.from_poly(Poly.constant(value, truncated))

    @classmethod
    def basis(cls, dx: int, d2x: int, truncated: bool = False) -> Form:
        """The bare word dx**dx * d2x**d2x with unit coefficient."""
        return cls({FormMonomial(dx, d2x): Poly.one(truncated)}, truncated)

    @property
    def truncated(self) -> bool:
        return self._truncated

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def terms(self) -> list[tuple[FormMonomial, Poly]]:
        """(monomial, coefficient) pairs in canonical order."""
        return sorted(self._terms.items(), key=lambda item: _sort_key(item[0]))

    def coefficient(self, mon: FormMonomial | tuple[int, int]) -> Poly:
        if not isinstance(mon, FormMonomial):
            mon = FormMonomial(*mon)
        return self._terms.get(mon, Poly.zero(self._truncated))

    def grades(self) -> list[int]:
        return sorted({mon.grade for mon in self._terms})

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def grade(self) -> int | None:
        """The common grade of all terms, None for zero or mixed forms."""
        grades = self.grades()
        return grades[0] if len(grades) == 1 else None

    def decompose(self) -> dict[int, Form]:
        """Split into homogeneous components keyed by grade, ascending."""
        buckets: dict[int, dict[FormMonomial, Poly]] = {}
        for mon, poly in self._terms.items():
            buckets.setdefault(mon.grade, {})[mon] = poly
        return {g: Form(t, self._truncated) for g, t in sorted(buckets.items())}

    def _require_same_mode(self, other: Form) -> None:
        if self._truncated != other._truncated:
            raise ModeMismatchError("cannot combine forms of different modes")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Form):
            return NotImplemented
        return self._truncated == other._truncated and self._terms == other._terms

    def __neg__(self) -> Form:
        return Form({m: -p for m, p in self._terms.items()}, self._truncated)

    def __add__(self, other: Form) -> Form:
        if not isinstance(other, Form):
            return NotImplemented
        self._require_same_mode(other)
        out = dict(self._terms)
        for mon, poly in other._terms.items():
            acc = out.get(mon)
            out[mon] = poly if acc is None else acc + poly
        return Form(out, self._truncated)

    def __sub__(self, other: Form) -> Form:
        if not isinstance(other, Form):
            return NotImplemented
        return self + (-other)

    def left_mul(self, factor: Poly | CycQ | int | Fraction) -> Form:
        """Left action of the coordinate algebra; needs no twist scalar."""
        if not isinstance(factor, Poly):
            factor = Poly.constant(as_cycq(factor), self._truncated)
        if factor.truncated != self._truncated:
            raise ModeMismatchError("factor mode does not match the form")
        return Form(
            {m: factor * p for m, p in self._terms.items()}, self._truncated
        )

    def __rmul__(self, factor: Poly | CycQ | int | Fraction) -> Form:
        if isinstance(factor, (Poly, CycQ, int, Fraction)):
            return self.left_mul(factor)
        return NotImplemented

    def mul(self, other: Form, cfg: CalculusConfig) -> Form:
        """Product reduced to normal form.

        Each pair of terms (f, dx**k d2x**m) * (g, dx**j d2x**n) reduces by
          1. pushing g left through dx**k * d2x**m in closed form, which
             leaves at most two words (see _push_left),
          2. swapping stray dx factors left past d2x, a factor q**2 each,
          3. dropping any word whose dx power reaches 3,
          4. multiplying the collected left coefficients by f.
        """
        self._require_same_mode(other)
        if self._truncated != cfg.anyonic:
            raise ModeMismatchError("form mode does not match the configuration")
        out: dict[FormMonomial, Poly] = {}
        for mon_u, f in self._terms.items():
            for mon_v, g in other._terms.items():
                for mon, poly in _push_left(mon_u.dx, mon_u.d2x, g, cfg):
                    placed = _append_word(mon, mon_v.dx, mon_v.d2x)
                    if placed is None:
                        continue
                    new_mon, scalar = placed
                    coeff = f * (scalar * poly)
                    acc = out.get(new_mon)
                    out[new_mon] = coeff if acc is None else acc + coeff
        return Form(out, self._truncated)

    def to_dict(self) -> dict:
        """JSON-ready encoding with terms and coefficients in canonical order."""
        return {
            "mode": "anyonic" if self._truncated else "generic",
            "terms": [
                {
                    "dx": mon.dx,
                    "d2x": mon.d2x,
                    "coeff": [
                        [
                            degree,
                            [c.a.numerator, c.a.denominator, c.b.numerator, c.b.denominator],
                        ]
                        for degree, c in poly.terms()
                    ],
                }
                for mon, poly in self.terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Form:
        """Inverse of to_dict; repeated words add up.

        Raises ValueError for an unknown mode, for a dx, d2x, degree,
        numerator or denominator that is not an int (bool and float
        included), for a zero denominator, for a dx power outside {0, 1, 2}
        or a negative d2x power or degree, and, in anyonic mode, for a
        degree of 3 or more, which x**3 == 0 would silently drop.
        """
        mode = data.get("mode")
        if mode not in ("generic", "anyonic"):
            raise ValueError(f"unknown mode {mode!r}")
        truncated = mode == "anyonic"
        terms: dict[FormMonomial, Poly] = {}
        for entry in data.get("terms", ()):
            mon = FormMonomial(_json_int(entry["dx"]), _json_int(entry["d2x"]))
            coeffs: dict[int, CycQ] = {}
            for degree, quadruple in entry["coeff"]:
                degree = _json_int(degree)
                if truncated and degree >= 3:
                    raise ValueError(f"degree {degree} does not exist in anyonic mode")
                a_num, a_den, b_num, b_den = map(_json_int, quadruple)
                if not a_den or not b_den:
                    raise ValueError("zero denominator")
                coeffs[degree] = from_ratios(a_num, a_den, b_num, b_den)
            poly = Poly(coeffs, truncated)
            if mon in terms:
                poly = terms[mon] + poly
            terms[mon] = poly
        return cls(terms, truncated)

    def __repr__(self) -> str:
        from .parser import render  # local import avoids a module cycle

        mode = "anyonic" if self._truncated else "generic"
        return f"<Form {render(self)!r} mode={mode}>"


def _json_int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an int, got {value!r}")
    return value


def swap_scalar(d2x_power: int, dx_power: int) -> CycQ:
    """Scalar with d2x**r * dx**j == scalar * dx**j * d2x**r, namely q**(2*r*j).

    Closed form of iterating the single swap d2x * dx == q**2 * dx * d2x, kept
    independent of the rewriting engine so either side can check the other.
    """
    if d2x_power < 0:
        raise ValueError("d2x power must be nonnegative")
    if not 0 <= dx_power <= 2:
        raise ValueError("dx power must lie in {0, 1, 2}")
    return q_power(2 * d2x_power * dx_power)


def _push_left(k: int, m: int, g: Poly, cfg: CalculusConfig) -> list[tuple[FormMonomial, Poly]]:
    """Normal form of dx**k * d2x**m * g: at most two left-coefficient words.

    Each d2x that g passes yields a twisted word and a q-bracket word carrying
    dx**2. A bracket word dies at the next bracket (dx**4 == 0) and under any
    dx in front (k >= 1), so at most one bracket is ever taken and only
    twist**(m+k)(g) * dx**k * d2x**m and, when k == 0, one dx**2 * d2x**(m-1)
    word come out. Taking the bracket at copy i from the right leaves
    alpha**i * q**(m-1-i) * twist**(m-1)(q_bracket(g)) on that word: alpha**i
    because q_bracket(twist(f)) == alpha * twist(q_bracket(f)), and q per copy
    further left because d2x * dx**2 == q**4 * dx**2 * d2x and q**3 == 1.
    """
    top = g
    for _ in range(m + k):
        top = twist(top, cfg)
    words = [(FormMonomial(k, m), top)]
    if k == 0 and m:
        low = q_bracket(g, cfg)  # zero whenever alpha == q
        if low:
            for _ in range(m - 1):
                low = twist(low, cfg)
            scale = sum((cfg.alpha**i * q_power(m - 1 - i) for i in range(m)), CycQ(0))
            words.append((FormMonomial(2, m - 1), scale * low))
    return words


def _append_word(mon: FormMonomial, j: int, n: int) -> tuple[FormMonomial, CycQ] | None:
    """Right-multiply a normal word by dx**j * d2x**n; None once dx**3 appears."""
    if mon.dx + j >= 3:
        return None
    return FormMonomial(mon.dx + j, mon.d2x + n), q_power(2 * mon.d2x * j)
