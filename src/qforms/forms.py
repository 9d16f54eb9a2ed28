"""Differential forms on the line.

A Form is a finite sum of terms f * dx**k * d2x**m with polynomial f, k at
most 2 and m unbounded; the grade of a basis word is k + 2*m. Coefficients
always sit on the left. A Form stores the one value layout that the parser,
the product kernel, differential, render and to_dict compute on: a
canonical, zero-free map word (k, m) -> degree -> (a, b, d), the ints of the
scalar (a + b*q) / d, keyed by plain int tuples, so equality is dict
equality and runs in C. Each word's map is the one a Poly stores and the one
polynomial's accumulator, _negated and _scale take, so no view or operation
converts it. Values are never mutated, so Forms and Polys share them.

Products are reduced to that normal form with the relations

    dx * g    == twist(g) * dx                      for g in the coordinate algebra
    d2x * g   == twist(g) * d2x + q_bracket(g) * dx**2
    d2x * dx  == q**2 * dx * d2x
    dx**3     == 0

which depend on the twist scalar, so multiplication takes a CalculusConfig.
Addition, scaling by polynomials from the left, and grading do not.

The kernel _mul applies them in closed form, one pass per word pair: a
pair leaves at most two words, the words dx**3 == 0 kills are skipped
before anything is computed, and each live word is a product of the left
coefficient with the right one times one scalar per degree. At alpha == q,
the paper's case, that scalar is a power of q read from its exponent and
no bracket word lives; at any other alpha it comes from one bounded table
keyed by ints, shared across calls and with differential's derivative.
Its loop, the engine's one multiply-accumulate loop, twists each right term
as it reads it and adds its products with the left map into the output
sums, building no term list. The sums are in the value layout, canonical
as built unless one is over d != 1, cancels or leaves its word empty; only
then does _reduced reduce them, in one pass.
"""

from __future__ import annotations

from collections.abc import ItemsView, Mapping
from numbers import Rational

from .calculus import CalculusConfig
from .cyclotomic import (_Q_TRIPLES, CycQ, _from_ratios, _int_inverse, _int_power, _lowest, _operand, _plus, _ratios,
                         _times, _too_long_text, _triple, q_power)
from .polynomial import Coeffs, Poly, _add_into, _add_unlike, _canonical, _negated, _scale, _Sparse

Value = dict[tuple[int, int], dict[int, tuple[int, int, int]]]  # the canonical layout; {} is 0
Sums = Value  # the same layout, not yet reduced: lowest terms, zeros and empty words wait for _reduced


class FormMonomial(tuple):
    """The basis word dx**k * d2x**m, stored as the power pair (k, m).

    A tuple, so hashing, equality and order are the pair's own and run in C:
    FormMonomial(k, m) == (k, m), with the same hash. Both powers must be
    ints, bool and float excluded (TypeError).
    """

    __slots__ = ()

    def __new__(cls, dx: int, d2x: int) -> FormMonomial:
        if type(dx) is not int or type(d2x) is not int:
            raise TypeError(f"dx and d2x powers must be ints, got {dx!r} and {d2x!r}")
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


class Form(_Sparse):
    """Immutable form in left-coefficient normal form, stored as its value;
    a coefficient must be a Poly (TypeError) of the form's mode."""

    __slots__ = ()

    def __init__(
        self,
        terms: Mapping[FormMonomial | tuple[int, int], Poly] | None = None,
        truncated: bool = False,
    ) -> None:
        value: Value = {}
        for mon, poly in (terms or {}).items():
            k, m = mon if isinstance(mon, FormMonomial) else FormMonomial(*mon)
            if not isinstance(poly, Poly):
                raise TypeError(f"a coefficient must be a Poly, got {poly!r}")
            poly._require_mode(truncated)
            if poly:
                value[k, m] = poly._terms
        self._terms = value
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
    def scalar(cls, value: CycQ | int | Rational, truncated: bool = False) -> Form:
        return cls.from_poly(Poly.constant(value, truncated))

    @classmethod
    def basis(cls, dx: int, d2x: int, truncated: bool = False) -> Form:
        """The bare word dx**dx * d2x**d2x with unit coefficient."""
        return cls({FormMonomial(dx, d2x): Poly.one(truncated)}, truncated)

    def items(self) -> ItemsView[FormMonomial, Poly]:
        """(monomial, coefficient) pairs in storage order; terms() sorts."""
        word = tuple.__new__  # a stored word is a valid FormMonomial
        return {word(FormMonomial, w): Poly._wrap(c, self._truncated) for w, c in self._terms.items()}.items()

    def terms(self) -> list[tuple[FormMonomial, Poly]]:
        """(monomial, coefficient) pairs in canonical order."""
        return _by_word(self.items().mapping)

    def coefficient(self, mon: FormMonomial | tuple[int, int]) -> Poly:
        k, m = mon if isinstance(mon, FormMonomial) else FormMonomial(*mon)
        return Poly._wrap(self._terms.get((k, m), {}), self._truncated)

    def grades(self) -> list[int]:
        return sorted({k + 2 * m for k, m in self._terms})

    def is_homogeneous(self) -> bool:
        return len(self.grades()) <= 1

    def grade(self) -> int | None:
        """The common grade of all terms, None for zero or mixed forms."""
        grades = self.grades()
        return grades[0] if len(grades) == 1 else None

    def decompose(self) -> dict[int, Form]:
        """Split into homogeneous components keyed by grade, ascending."""
        buckets: dict[int, Value] = {}
        for (k, m), coeffs in self._terms.items():
            buckets.setdefault(k + 2 * m, {})[k, m] = coeffs
        return {g: _form(value, self._truncated) for g, value in sorted(buckets.items())}

    def left_mul(self, factor: Poly | CycQ | int | Rational) -> Form:
        """Left action of the coordinate algebra; needs no twist scalar."""
        truncated = self._truncated
        if not isinstance(factor, Poly):
            s = _triple(factor)
            value = self._terms if s[0] or s[1] else {}
            return _form({w: _scale(coeffs, s) for w, coeffs in value.items()}, truncated)
        factor._require_mode(truncated)
        return _form(_mul({(0, 0): factor._terms}, self._terms, None, truncated), truncated)  # reads no alpha

    def __rmul__(self, factor: Poly | CycQ | int | Rational) -> Form:
        if isinstance(factor, Poly) or _operand(factor) is not None:
            return self.left_mul(factor)
        return NotImplemented

    def __neg__(self) -> Form:
        return _form({w: _negated(coeffs) for w, coeffs in self._terms.items()}, self._truncated)

    def __add__(self, other: Form) -> Form:
        if not isinstance(other, Form):
            return NotImplemented
        self._require_mode(other._truncated)
        sums: Sums = {word: dict(coeffs) for word, coeffs in self._terms.items()}  # copies: the adds write into them
        return _form(_reduced(sums) if _add_value(sums, other._terms) else sums, self._truncated)

    def mul(self, other: Form, cfg: CalculusConfig) -> Form:
        """Product reduced to normal form, by the kernel _mul; TypeError unless other is a Form."""
        if not isinstance(other, Form):
            raise TypeError(f"cannot multiply a Form by {other!r}")
        self._require_mode(cfg.anyonic)
        other._require_mode(cfg.anyonic)
        return _form(_mul(self._terms, other._terms, cfg.alpha, self._truncated), self._truncated)

    def to_dict(self) -> dict:
        """JSON-ready encoding with terms and coefficients in canonical order."""
        terms = []
        for (k, m), coeffs in _by_word(self._terms):
            coeff = []
            for e, t in sorted(coeffs.items()) if len(coeffs) > 1 else coeffs.items():
                coeff.append([e, [*_ratios(*t)]])
            terms.append({"dx": k, "d2x": m, "coeff": coeff})
        return {"mode": "anyonic" if self._truncated else "generic", "terms": terms}

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
        value: Value = {}
        for entry in _json_list(data.get("terms", [])):
            dx, d2x = _json_field(entry, "dx"), _json_field(entry, "d2x")
            k, m = FormMonomial(_json_int(dx), _json_int(d2x))
            sums: dict[int, tuple[int, int, int]] = {}
            _add_into(sums, value.get((k, m), {}).items())
            for pair in _json_list(_json_field(entry, "coeff")):
                degree, quadruple = _json_list(pair, 2)
                degree = _json_int(degree)
                if truncated and degree >= 3:
                    raise ValueError(f"degree {degree} does not exist in anyonic mode")
                a_num, a_den, b_num, b_den = map(_json_int, _json_list(quadruple, 4))
                if not a_den or not b_den:
                    raise ValueError("zero denominator")
                _add_into(sums, [(degree, _from_ratios(a_num, a_den, b_num, b_den))])
            if min(sums, default=0) < 0:  # checked once the entry is read
                raise ValueError(f"negative degree {next(e for e in sums if e < 0)}")
            value[k, m] = _canonical(sums)
        return _form({w: coeffs for w, coeffs in value.items() if coeffs}, truncated)

    def __repr__(self) -> str:
        from .parser import render  # local import avoids a module cycle

        mode = "anyonic" if self._truncated else "generic"
        try:
            text = repr(render(self))
        except ValueError:  # an int past the interpreter's int/str digit limit
            text = _too_long_text()
        return f"<Form {text} mode={mode}>"


_form = Form._wrap  # the Form of a canonical value of the given mode, taken as it is


def _by_word(terms: Mapping[tuple[int, int], object]) -> list:
    """The (word, coefficient) pairs of terms in canonical order: d2x power ascending, then dx. One word is not sorted."""
    if len(terms) < 2:
        return list(terms.items())
    return sorted(terms.items(), key=lambda item: (item[0][1], item[0][0]))


def _add_value(sums: Sums, value: Value, sign: int = 1) -> bool:
    """Add sign * value into sums, sign being 1 or -1, and return whether
    _reduced must reduce them: whether _add_into said so for any word. A
    word new to the sums stays nonempty, as value's words are."""
    reduce = False
    for word, coeffs in value.items():
        reduce |= _add_into(sums.setdefault(word, {}), (coeffs if sign == 1 else _negated(coeffs)).items())
    return reduce


def _reduced(sums: Sums) -> Value:
    """The value of the sums in one pass: each sum in lowest terms (d == 1
    taken as it is), zeros and empty words dropped, in the order made."""
    value: Value = {}
    for word, terms in sums.items():
        coeffs = {}
        for e, (a, b, d) in terms.items():
            if a or b:
                coeffs[e] = (a, b, d) if d == 1 else _lowest(a, b, d)
        if coeffs:
            value[word] = coeffs
    return value


def _mul(left: Value, right: Value, alpha: CycQ | None, truncated: bool) -> Value:
    """The product kernel: left * right, in normal form, one pass per word pair.

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

    On a term c * x**e of g, both words are one scalar: the top word takes
    c to c * alpha**(e*(m+k)) * q**(2mj) on x**e, the bracket word to
    c * [e]_alpha * alpha**((e-1)*m) * (alpha**m - q**m) on x**(e-1), so g's
    constants drop. At alpha == q (at_q, on alpha's ints (0, 1, 1)) the top
    scalar is q**((e*(m+k) + 2mj) mod 3), from _Q_TRIPLES and never zero,
    and the bracket word is never tried. Elsewhere both come from the table
    _SCALARS, by (_TOP, e*(m+k), 2mj mod 3) and (_BRACKET, e, m), and a zero
    scalar leaves no term; a left word d2x**m tests its factor alpha**m !=
    q**m, the table's top entry (m, 0), once, at the first right word with
    j == 0 and a term of positive degree, so a right factor of constants or
    of words under dx costs no power of alpha. Each twisted term is
    multiplied by f straight into its word's sums; the top word is visited
    first, then the bracket word where it lives. A left word k == m == 0
    (left_mul, Poly.__mul__) twists nothing and reads no alpha.

    A product of two nonzero Eisenstein integers (d == 1) is a nonzero one,
    so the sums are returned as built unless the loop made a sum over d != 1
    (first made so, or by an unlike add) or a like add that cancels, or left
    a word empty (x**3 == 0, or an empty left map); then _reduced runs once.
    """
    out: Sums = {}
    reduce = False
    get, (aa, ab, ad) = _SCALARS.get, (0, 0, 1) if alpha is None else (alpha._a, alpha._b, alpha._d)
    at_q = not aa and ab == 1 and ad == 1  # alpha == q: every scalar a power of q, and no bracket word
    for (k, m), f in left.items():
        bracket, f = None if m and not k and not at_q else False, f.items()  # None: alpha**m != q**m untested
        for (j, n), g in right.items():
            if k + j > 2:
                continue
            if bracket is None and not j and any(g):  # tested at the first right word with a term it keeps:
                key = (_TOP, m, 0, aa, ab, ad)  # is alpha**m, the table's top entry (m, 0), not q**m?
                bracket = (get(key) or _scalar(key)) != _Q_TRIPLES[m % 3]
            word, kind, t, y = (k + j, m + n), _TOP, m + k, 2 * m * j % 3
            while True:  # the top word, then the bracket word where it lives
                sums = out.get(word)
                for e2, (a2, b2, d2) in g.items():
                    if t:  # c * x**e2 times the scalar (kind, e2*t, y), on x**(e2 - kind)
                        if at_q:  # alpha**(e2*t) * q**y, never zero
                            sa, sb, sd = _Q_TRIPLES[(e2 * t + y) % 3]
                        else:
                            if kind and not e2:
                                continue  # the bracket kills constants
                            key = (kind, e2 * t, y, aa, ab, ad)
                            sa, sb, sd = get(key) or _scalar(key)
                            if not (sa or sb):
                                continue
                        cross = b2 * sb  # cyclotomic._times's q**2 fold, inlined; nothing reduced
                        e2, a2, b2, d2 = e2 - kind, a2 * sa - cross, a2 * sb + b2 * sa - cross, d2 * sd
                    if sums is None:  # made at the first live term: a pair whose terms all die adds no word
                        sums = out[word] = {}
                    for e1, (a1, b1, d1) in f:
                        e = e1 + e2
                        if truncated and e >= 3:
                            continue
                        cross = b1 * b2
                        a, b, d = a1 * a2 - cross, a1 * b2 + b1 * a2 - cross, d1 * d2
                        acc = sums.get(e)
                        if acc is None:
                            sums[e] = a, b, d
                            if d != 1:
                                reduce = True
                        elif acc[2] == d:
                            a, b = a + acc[0], b + acc[1]
                            sums[e] = a, b, d
                            if not (a or b):
                                reduce = True
                        else:
                            sums[e] = _add_unlike(acc, a, b, d)
                            reduce = True
                if kind or j or not bracket:
                    break
                word, kind, t, y = (2, m - 1 + n), _BRACKET, 1, m
    return _reduced(out) if reduce or not all(out.values()) else out


# The scalars of _mul and differential at any alpha but q, as canonical int
# triples (a, b, d), keyed by ints: a kind, two exponents and alpha's own three
# ints, since a CycQ in a key would hash through CycQ.__hash__ on every lookup.
# The engine's only scalar memo, and bounded: a full table is emptied and
# refills with what is used. In _mul, _TOP and _BRACKET are also the degrees
# their scalars lower x**e by. At alpha == q no entry is read: a top scalar is
# _Q_TRIPLES[exponent % 3] and [e]_q is _Q_INTEGERS[e % 3].
_TOP, _BRACKET, _DERIVATIVE = 0, 1, 2
_SCALARS: dict[tuple[int, ...], tuple[int, int, int]] = {}
_Q_INTEGERS = ((0, 0, 1), (1, 0, 1), (1, 1, 1))  # [e]_q by e % 3: 0, 1, 1 + q, as 1 + q + q**2 == 0
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
        qa, qb, _ = _Q_TRIPLES[y % 3]
        difference = _plus(_entry(_TOP, y, alpha), (-qa, -qb, 1))  # alpha**y - q**y
        value = _times(_times(_entry(_DERIVATIVE, x, alpha), _entry(_TOP, (x - 1) * y, alpha)), difference)
    elif alpha == _Q_TRIPLES[0]:
        value = (x, 0, 1)  # [x]_1 == x
    else:  # the geometric sum (alpha**x - 1) / (alpha - 1)
        value = _times(_plus(_entry(_TOP, x, alpha), (-1, 0, 1)), _int_inverse(_plus(alpha, (-1, 0, 1))))
    if len(_SCALARS) >= _CACHE_SIZE:
        _SCALARS.clear()
    _SCALARS[key] = value
    return value


def _entry(kind: int, x: int, alpha: tuple[int, ...]) -> tuple[int, int, int]:
    """The table's entry (kind, x, 0) at alpha, computed on a miss."""
    key = (kind, x, 0, *alpha)
    return _SCALARS.get(key) or _scalar(key)


def _derived(coeffs: Coeffs, alpha: CycQ) -> dict[int, tuple[int, int, int]]:
    """The canonical map of differential's derivative: each term c * x**e,
    e >= 1, times [e]_alpha on x**(e-1), in lowest terms unless d == 1; a
    zero scalar leaves no term. At alpha == q, [e]_q is _Q_INTEGERS[e % 3],
    read with no table; elsewhere it is the table's (_DERIVATIVE, e, 0)."""
    get, (aa, ab, ad) = _SCALARS.get, (alpha._a, alpha._b, alpha._d)
    at_q = not aa and ab == 1 and ad == 1  # alpha == q: [e]_q by e % 3
    out = {}
    for e, (a, b, d) in coeffs.items():
        if e:
            if at_q:
                sa, sb, sd = _Q_INTEGERS[e % 3]
            else:
                key = (_DERIVATIVE, e, 0, aa, ab, ad)
                sa, sb, sd = get(key) or _scalar(key)
            if sa or sb:
                cross = b * sb  # cyclotomic._times's q**2 fold, inlined
                a, b, d = a * sa - cross, a * sb + b * sa - cross, d * sd
                out[e - 1] = (a, b, d) if d == 1 else _lowest(a, b, d)
    return out


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
