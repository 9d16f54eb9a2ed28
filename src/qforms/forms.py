"""Differential forms on the line.

A Form is a finite sum of terms f * dx**k * d2x**m with polynomial f, k at
most 2 and m unbounded; the grade of a basis word is k + 2*m. A basis word
is a FormMonomial, the int pair (k, m) as a tuple, so the dicts keyed by
words hash and compare them in C. Coefficients always sit on the left.
Products are reduced to that normal form with the relations

    dx * g    == twist(g) * dx                      for g in the coordinate algebra
    d2x * g   == twist(g) * d2x + q_bracket(g) * dx**2
    d2x * dx  == q**2 * dx * d2x
    dx**3     == 0

which depend on the twist scalar, so multiplication takes a CalculusConfig.
Addition, scaling by polynomials from the left, and grading do not; Form
takes its sums, negation, equality and mode from polynomial._Sparse, the
additive core it shares with Poly.

Form.mul applies them in closed form, one fused pass over the term pairs: a
pair leaves at most two words, the words dx**3 == 0 kills are skipped before
anything is computed, and each live word is a product of the left
coefficient with the right one times one scalar per degree. The scalars come
from one bounded table keyed by ints, shared across calls and with
differential; the arithmetic runs on CycQ's ints (polynomial._mul_into), and
each output coefficient becomes a CycQ once.
"""

from __future__ import annotations

from collections.abc import Mapping
from numbers import Rational

from .calculus import CalculusConfig
from .cyclotomic import (_Q_TRIPLES, CycQ, _int_inverse, _int_power, _times, as_cycq,
                         from_ratios, q_power)
from .polynomial import ModeMismatchError, Poly, _from_sums, _mul_into, _Sparse, _triples


class FormMonomial(tuple):
    """The basis word dx**k * d2x**m, stored as the power pair (k, m).

    A tuple, so hashing, equality and order are the pair's own and run in C:
    FormMonomial(k, m) == (k, m), with the same hash.
    """

    __slots__ = ()

    def __new__(cls, dx: int, d2x: int) -> FormMonomial:
        if not 0 <= dx <= 2:
            raise ValueError("dx power must lie in {0, 1, 2}")  # dx**3 == 0
        if d2x < 0:
            raise ValueError("d2x power must be nonnegative")
        return tuple.__new__(cls, (dx, d2x))

    def __reduce__(self) -> tuple:
        return (self.__class__, tuple(self))  # copy and pickle

    @property
    def dx(self) -> int:
        return self[0]

    @property
    def d2x(self) -> int:
        return self[1]

    @property
    def grade(self) -> int:
        return self[0] + 2 * self[1]

    def __repr__(self) -> str:
        return f"FormMonomial(dx={self[0]!r}, d2x={self[1]!r})"


def _sort_key(mon: FormMonomial) -> tuple[int, int]:
    # canonical order for rendering and serialization: m ascending, then k
    return (mon.d2x, mon.dx)


class Form(_Sparse):
    """Immutable form in left-coefficient normal form.

    Stored canonically: no zero coefficients, every coefficient in the mode
    named by the truncation flag.
    """

    __slots__ = ()

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
    def _trusted(cls, terms: Mapping[FormMonomial, Poly], truncated: bool) -> Form:
        """Build from FormMonomial keys and coefficients of the given mode
        without the checks of __init__; still drops zero coefficients."""
        out = object.__new__(cls)
        out._terms = {mon: poly for mon, poly in terms.items() if poly}
        out._truncated = truncated
        return out

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
    def scalar(cls, value: CycQ | int | Rational, truncated: bool = False) -> Form:
        return cls.from_poly(Poly.constant(value, truncated))

    @classmethod
    def basis(cls, dx: int, d2x: int, truncated: bool = False) -> Form:
        """The bare word dx**dx * d2x**d2x with unit coefficient."""
        return cls({FormMonomial(dx, d2x): Poly.one(truncated)}, truncated)

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

    def left_mul(self, factor: Poly | CycQ | int | Rational) -> Form:
        """Left action of the coordinate algebra; needs no twist scalar."""
        if not isinstance(factor, Poly):
            c = as_cycq(factor)
            return Form._trusted({m: p.scale(c) for m, p in self._terms.items()}, self._truncated)
        if factor.truncated != self._truncated:
            raise ModeMismatchError("factor mode does not match the form")
        return Form(
            {m: factor * p for m, p in self._terms.items()}, self._truncated
        )

    def __rmul__(self, factor: Poly | CycQ | int | Rational) -> Form:
        if isinstance(factor, (Poly, CycQ, int, Rational)):
            return self.left_mul(factor)
        return NotImplemented

    def mul(self, other: Form, cfg: CalculusConfig) -> Form:
        """Product reduced to normal form, in one fused pass over term pairs.

        A pair (f, dx**k d2x**m) * (g, dx**j d2x**n) leaves at most two words,
        and whether each lives is decided from (k, m, j) before it is computed:

          top      f * q**(2mj) * twist**(m+k)(g) on dx**(k+j) d2x**(m+n),
                   alive while k + j < 3;
          bracket  f * (alpha**m - q**m) * twist**m(derivative(g)) on
                   dx**2 d2x**(m-1+n), alive only when k == 0, m >= 1, j == 0
                   and the factor is nonzero.

        The top word pushes g through every dx and d2x, then swaps the dx**j
        left past d2x**m at q**2 per crossing. Each d2x that g passes also
        yields a q-bracket word carrying dx**2, which dies at a second bracket
        (dx**4 == 0), under any dx in front (k >= 1) and under any dx behind
        (j >= 1). Taking the bracket at copy i from the right leaves

            alpha**i * q**(m-1-i) * twist**(m-1)(q_bracket(g))

        on dx**2 * d2x**(m-1): alpha**i because q_bracket(twist(f)) ==
        alpha * twist(q_bracket(f)), and q per copy further left because
        d2x * dx**2 == q**4 * dx**2 * d2x and q**3 == 1. Since q_bracket(f) ==
        (alpha - q) * twist(derivative(f)) and the sum over i is
        (alpha**m - q**m) / (alpha - q), those words add up to the bracket
        word above, whose factor is zero at alpha == q (and at alpha == q**2
        when 3 | m).

        On a term c * x**e of g, both words are one scalar from the table
        _SCALARS: the top word takes c to c * alpha**(e*(m+k)) * q**(2mj) on
        x**e, the bracket word to c * [e]_alpha * alpha**((e-1)*m) *
        (alpha**m - q**m) on x**(e-1). Those products and their products with
        f are made on CycQ's ints and summed by polynomial._add_into, one
        degree -> sum map per output word, so that each output coefficient
        becomes a CycQ once and no Poly or CycQ is built per pair.
        """
        self._require_same_mode(other)
        truncated = self._truncated
        if truncated != cfg.anyonic:
            raise ModeMismatchError("form mode does not match the configuration")
        right = [(j, n, _triples(g)) for (j, n), g in other._terms.items()]
        out: dict[tuple[int, int], dict[int, list[int]]] = {}
        alpha = cfg.alpha
        for (k, m), f in self._terms.items():
            left, bracket = _triples(f), False
            if not k and m:  # is alpha**m, the table's top entry (m, 0), not q**m?
                key = (_TOP, m, 0, alpha._a, alpha._b, alpha._d)
                bracket = (_SCALARS.get(key) or _scalar(key)) != _Q_TRIPLES[m % 3]
            for j, n, g in right:
                if k + j < 3:
                    pushed = _scaled(g, _TOP, m + k, 2 * m * j % 3, alpha) if m + k else g
                    _mul_into(out.setdefault((k + j, m + n), {}), left, pushed, truncated)
                if bracket and not j:
                    pushed = _scaled(g, _BRACKET, 1, m, alpha)
                    if pushed:
                        _mul_into(out.setdefault((2, m - 1 + n), {}), left, pushed, truncated)
        return _from_word_sums(out, truncated)

    def to_dict(self) -> dict:
        """JSON-ready encoding with terms and coefficients in canonical order."""
        return {
            "mode": "anyonic" if self._truncated else "generic",
            "terms": [
                {
                    "dx": mon.dx,
                    "d2x": mon.d2x,
                    "coeff": [[degree, list(c.ratios())] for degree, c in poly.terms()],
                }
                for mon, poly in self.terms()
            ],
        }

    @classmethod
    def from_dict(cls, data: Mapping) -> Form:
        """Inverse of to_dict; repeated words, and repeated degrees within a
        word's coeff list, add up.

        Raises ValueError, and no other exception, for any input that is not
        such an encoding: a top level or term that is not a mapping, a missing
        field, terms or coeff that is not a list, a coefficient entry that is
        not a [degree, quadruple] pair or a quadruple without four entries,
        an unknown mode, a dx, d2x, degree, numerator or denominator that is
        not an int (bool and float included), a zero denominator, a dx power
        outside {0, 1, 2} or a negative d2x power or degree, and, in anyonic
        mode, a degree of 3 or more, which x**3 == 0 would silently drop.
        """
        mode = _json_field(data, "mode")
        if mode not in ("generic", "anyonic"):
            raise ValueError(f"unknown mode {mode!r}")
        truncated = mode == "anyonic"
        terms: dict[FormMonomial, Poly] = {}
        for entry in _json_list(data.get("terms", [])):
            dx, d2x = _json_field(entry, "dx"), _json_field(entry, "d2x")
            mon = FormMonomial(_json_int(dx), _json_int(d2x))
            coeffs: dict[int, CycQ] = {}
            for pair in _json_list(_json_field(entry, "coeff")):
                degree, quadruple = _json_list(pair, 2)
                degree = _json_int(degree)
                if truncated and degree >= 3:
                    raise ValueError(f"degree {degree} does not exist in anyonic mode")
                a_num, a_den, b_num, b_den = map(_json_int, _json_list(quadruple, 4))
                if not a_den or not b_den:
                    raise ValueError("zero denominator")
                value = from_ratios(a_num, a_den, b_num, b_den)
                acc = coeffs.get(degree)
                coeffs[degree] = value if acc is None else acc + value
            poly = Poly(coeffs, truncated)
            if mon in terms:
                poly = terms[mon] + poly
            terms[mon] = poly
        return cls(terms, truncated)

    def __repr__(self) -> str:
        from .parser import render  # local import avoids a module cycle

        mode = "anyonic" if self._truncated else "generic"
        return f"<Form {render(self)!r} mode={mode}>"


# The scalars of Form.mul and differential as canonical int triples (a, b, d),
# keyed by ints: a kind, two exponents and alpha's own three ints, since a
# CycQ in a key would hash through CycQ.__hash__ on every lookup. The engine's
# only scalar memo, and bounded: a full table is emptied and refills with what
# is used.
_TOP, _BRACKET, _DERIVATIVE = 0, 1, 2
_SCALARS: dict[tuple[int, ...], tuple[int, int, int]] = {}
_CACHE_SIZE = 1024


def _scalar(key: tuple[int, ...]) -> tuple[int, int, int]:
    """Compute, store and return the scalar that a missing key names, on the
    ints of alpha that the key ends with:

      (_TOP, x, y, ...)         alpha**x * q**y
      (_BRACKET, x, y, ...)     [x]_alpha * alpha**((x-1)*y) * (alpha**y - q**y)
      (_DERIVATIVE, x, 0, ...)  [x]_alpha

    alpha**n and [x]_alpha are read from, or stored as, the table's own
    entries (_TOP, n, 0) and (_DERIVATIVE, x, 0), so misses share them.
    """
    kind, x, y = key[:3]
    alpha = key[3:]
    if kind == _TOP:
        value = _times(_entry(_TOP, x, alpha), _Q_TRIPLES[y % 3]) if y else _int_power(alpha, x)
    elif kind == _BRACKET:
        a, b, d = _entry(_TOP, y, alpha)
        qa, qb, _ = _Q_TRIPLES[y % 3]
        factor = _times(_entry(_DERIVATIVE, x, alpha), _entry(_TOP, (x - 1) * y, alpha))
        value = _times(factor, (a - qa * d, b - qb * d, d))  # alpha**y - q**y, canonical
    elif alpha == _Q_TRIPLES[0]:
        value = (x, 0, 1)  # [x]_1 == x
    else:  # the geometric sum (alpha**x - 1) / (alpha - 1), both canonical
        (a, b, d), (aa, ab, ad) = _entry(_TOP, x, alpha), alpha
        value = _times((a - d, b, d), _int_inverse((aa - ad, ab, ad)))
    if len(_SCALARS) >= _CACHE_SIZE:
        _SCALARS.clear()
    _SCALARS[key] = value
    return value


def _entry(kind: int, x: int, alpha: tuple[int, ...]) -> tuple[int, int, int]:
    """The table's entry (kind, x, 0) at alpha, computed on a miss."""
    key = (kind, x, 0, *alpha)
    return _SCALARS.get(key) or _scalar(key)


def _scaled(terms: list, kind: int, t: int, y: int, alpha: CycQ) -> list:
    """Each (degree, a, b, d) term c * x**e times the table's scalar (kind,
    e*t, y): on x**e for _TOP, on x**(e-1) for the other kinds, which kill the
    constants. A zero scalar leaves no term; nothing is reduced."""
    get, shift = _SCALARS.get, kind != _TOP
    aa, ab, ad = alpha._a, alpha._b, alpha._d
    out = []
    for e, a, b, d in terms:
        if e or not shift:
            key = (kind, e * t, y, aa, ab, ad)
            sa, sb, sd = get(key) or _scalar(key)
            if sa or sb:
                cross = b * sb  # cyclotomic._times's q**2 fold, inlined; nothing reduced
                out.append((e - shift, a * sa - cross, a * sb + b * sa - cross, d * sd))
    return out


def _from_word_sums(out: Mapping[tuple[int, int], dict[int, list[int]]], truncated: bool) -> Form:
    """The Form of one _add_into sums map per word (k, m), k <= 2 and m >= 0
    unchecked, in one pass; a word whose sums all cancel is dropped."""
    word, form = tuple.__new__, object.__new__(Form)
    form._terms = {word(FormMonomial, mon): poly for mon, sums in out.items()
                   if (poly := _from_sums(sums, truncated))._terms}
    form._truncated = truncated
    return form


def _json_int(value: object) -> int:
    if type(value) is not int:
        raise ValueError(f"expected an int, got {value!r}")
    return value


def _json_list(value: object, length: int | None = None) -> list | tuple:
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"expected a list, got {value!r}")
    if length is not None and len(value) != length:
        raise ValueError(f"expected a list of {length} entries, got {value!r}")
    return value


def _json_field(data: object, key: str) -> object:
    if not isinstance(data, Mapping):
        raise ValueError(f"expected a mapping, got {data!r}")
    if key not in data:
        raise ValueError(f"missing field {key!r}")
    return data[key]


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
