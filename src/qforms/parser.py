"""Text front end: parsing, and the canonical text of every value.

Grammar (whitespace insignificant):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'dx' | 'd2x' | 'q' | rational | '(' expr ')'
    rational := uint ('/' uint)?
    uint     := one or more of the ASCII digits 0123456789

A leading '-' reads as 0 - term. '^' binds tighter than '*', which binds
tighter than '+' and '-'; '*' evaluates left to right, and the product is
associative and exact, so re-associating a product cannot change the
parsed value. Coefficients sit on the left of the normal form, so two
products need no rewriting and are written down directly (_product): a
left factor that is a polynomial times the empty word scales each right
coefficient, and a right factor that is a constant times one word shifts
each left word, at the swap scalar q**(2mj). A power of one term c*x**d on
the empty word, or of a constant on any word, is one closed formula
(_power). Every other '*' is the form product Form.mul, and every other
'base^N' is computed by repeated squaring, O(log N) form products; either
way the value is that of N left-to-right factors.

All canonical text is written here: render for forms, poly_text for
coefficient polynomials (Poly.__str__) and scalar_text for scalars
(CycQ.__str__). Each is built from one primitive, the sign and unsigned
text of coeff * tail, where an empty tail is a bare scalar, and one join:
' + '/' - ' between form terms, '+'/'-' inside a coefficient. Rendered text
parses back to the same form under the same configuration.

Limits, each raising ParseError at the offending token: an integer literal
may have at most MAX_DIGITS significant digits, an exponent token may not
exceed MAX_EXPONENT, a power base^N whose x or d2x power could exceed
MAX_EXPONENT (N times the base's largest) or whose number of terms could
exceed MAX_POWER_TERMS (_power_terms) is refused at N before any product,
and parentheses may nest at most MAX_DEPTH levels deep.
"""

from __future__ import annotations

import math

from .calculus import CalculusConfig
from .cyclotomic import CycQ, Q, from_ratios, q_power
from .forms import Form, FormMonomial, swap_scalar
from .polynomial import Poly


class ParseError(Exception):
    """Syntax error carrying the character offset where it was detected."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAMES = frozenset({"x", "dx", "d2x", "q"})

MAX_EXPONENT = 10_000
"""Largest exponent token after '^', and largest x or d2x power a '^' may build."""

MAX_POWER_TERMS = 1_000
"""Most terms x^d * dx^k * d2x^m that _power_terms may predict for a power base^N."""

MAX_DEPTH = 100
"""Deepest parenthesis nesting accepted; each level costs four stack frames."""

MAX_DIGITS = 4_300
"""Most significant digits in an integer literal; CPython's default int/str limit."""

Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if "0" <= ch <= "9":  # ASCII only; str.isdecimal takes every script's digits
            j = i
            while j < n and "0" <= text[j] <= "9":
                j += 1
            tokens.append(("int", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalnum():
                j += 1
            word = text[i:j]
            if word not in _NAMES:
                raise ParseError(f"unknown symbol {word!r}", i)
            tokens.append(("name", word, i))
            i = j
            continue
        if ch in "+-*^/()":
            tokens.append(("op", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", i)
    tokens.append(("end", "", n))
    return tokens


class _Parser:
    def __init__(self, tokens: list[Token], cfg: CalculusConfig) -> None:
        self._tokens = tokens
        self._pos = 0
        self._cfg = cfg
        self._depth = 0

    def peek(self) -> Token:
        return self._tokens[self._pos]

    def advance(self) -> Token:
        token = self._tokens[self._pos]
        self._pos += 1
        return token

    def expr(self) -> Form:
        kind, text, _ = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            value = -self.term()
        else:
            value = self.term()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if text == "+" else value - rhs
            else:
                return value

    def term(self) -> Form:
        value = self.factor()
        while True:
            kind, text, _ = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                value = _product(value, self.factor(), self._cfg)
            else:
                return value

    def factor(self) -> Form:
        base = self.base()
        kind, text, _ = self.peek()
        if kind == "op" and text == "^":
            self.advance()
            kind, text, pos = self.peek()
            if kind != "int":
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            digits = text.lstrip("0") or "0"
            # the length test keeps int() off tokens too long for it to convert
            if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
                raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", pos)
            n = int(digits)
            # base^n has at most n times the base's top x and d2x powers
            top = max((max(poly.degree, mon.d2x) for mon, poly in base.items()), default=0)
            if n * top > MAX_EXPONENT:
                raise ParseError(f"power exceeds degree {MAX_EXPONENT} in x or d2x", pos)
            if n > 1 and _power_terms(base, n) > MAX_POWER_TERMS:
                raise ParseError(f"power may exceed {MAX_POWER_TERMS} terms", pos)
            return _power(base, n, self._cfg)
        return base

    def base(self) -> Form:
        truncated = self._cfg.anyonic
        kind, text, pos = self.advance()
        if kind == "int":
            numerator = _literal(text, pos)
            kind, slash, _ = self.peek()
            if kind == "op" and slash == "/":
                self.advance()
                kind, denom_text, denom_pos = self.peek()
                if kind != "int":
                    raise ParseError("expected a denominator", denom_pos)
                self.advance()
                denominator = _literal(denom_text, denom_pos)
                if not denominator:
                    raise ParseError("zero denominator", denom_pos)
                return Form.scalar(from_ratios(numerator, denominator, 0, 1), truncated)
            return Form.scalar(numerator, truncated)
        if kind == "name":
            return _NAMED[truncated][text]
        if kind == "op" and text == "(":
            if self._depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", pos)
            self._depth += 1
            value = self.expr()
            kind, text, pos = self.peek()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            self.advance()
            self._depth -= 1
            return value
        raise ParseError("expected 'x', 'dx', 'd2x', 'q', a rational, or '('", pos)


# x, q, dx and d2x in each mode; forms are immutable, so every parse shares them
_NAMED = {
    truncated: {
        "x": Form.from_poly(Poly.x(truncated)),
        "q": Form.scalar(Q, truncated),
        "dx": Form.basis(1, 0, truncated),
        "d2x": Form.basis(0, 1, truncated),
    }
    for truncated in (False, True)
}


def _literal(text: str, pos: int) -> int:
    """The value of an integer token, checked against MAX_DIGITS before int() sees it."""
    digits = text.lstrip("0") or "0"
    if len(digits) > MAX_DIGITS:
        raise ParseError(f"integer literal exceeds the limit of {MAX_DIGITS} digits", pos)
    return int(digits)


def _power_terms(base: Form, n: int) -> int:
    """An upper bound on the number of terms x^d * dx^k * d2x^m of base^n,
    read off the base alone.

    The grade k + 2m and the weight d + k + m add up under the product,
    bracket words included, and together fix a term up to k in {0, 2}. So
    each of the C(n+t-1, n) multisets of n of the base's t terms leaves at
    most one term, or two once a d2x can push past a nonconstant coefficient.
    And base^n has at most one term per word and degree in range: m <= n*M
    and d <= n*A for the base's largest d2x and x powers, d <= 2 when
    truncated, and k in {0, 1, 2}, only {0, 2} without a dx in the base, and
    only 0 without brackets either. The bound is the smaller of the two.
    """
    t = sum(len(poly.items()) for _, poly in base.items())
    if t < 2:
        return 2 * t  # one multiset, or none
    top_x = max(poly.degree for _, poly in base.items())
    top_d2x = max(mon.d2x for mon, _ in base.items())
    per_multiset = 2 if top_x and top_d2x else 1
    dx_powers = 3 if any(mon.dx for mon, _ in base.items()) else per_multiset
    degrees = min(n * top_x, 2) if base.truncated else n * top_x
    words_times_degrees = dx_powers * (n * top_d2x + 1) * (degrees + 1)
    return min(per_multiset * math.comb(n + t - 1, n), words_times_degrees)


def _product(left: Form, right: Form, cfg: CalculusConfig) -> Form:
    """left * right for two forms in cfg's mode; equal to left.mul(right, cfg).

    Written down without the form product when no relation applies: a left
    factor f on the empty word gives f*g on each right word (g, j, n), and
    a right factor that is one constant c on one word dx**j d2x**n, which
    every twist fixes and whose derivative is zero, moves each left term
    (f, k, m) to f * c * q**(2mj) on dx**(k+j) d2x**(m+n), dropped once
    k + j >= 3. Neither leaves a bracket term.
    """
    terms = left.items()
    if len(terms) == 1:
        ((word, f),) = terms
        if word == (0, 0):
            return right.left_mul(f)
    if len(right.items()) == 1:
        (((j, n), g),) = right.items()
        if g.degree == 0:
            c = g.coefficient(0)
            return Form._trusted(
                {
                    FormMonomial(k + j, m + n): f.scale(c * swap_scalar(m, j))
                    for (k, m), f in terms
                    if k + j < 3
                },
                left.truncated,
            )
    return left.mul(right, cfg)


def _power(base: Form, n: int, cfg: CalculusConfig) -> Form:
    """base^n, in closed form or by square-and-multiply (at most 2*log2(n)
    form products).

    A one-term base c*x**d * dx**j d2x**m with d == 0 or j == m == 0 never
    pushes its coefficient past a word, so its power is c**n * x**(d*n) *
    dx**(j*n) d2x**(m*n) times q**(2mj) for each of the n(n-1)/2 swaps of a
    dx**j left past a d2x**m; zero once j*n >= 3, or d*n >= 3 when
    truncated.
    """
    truncated = cfg.anyonic
    if len(base.items()) == 1:
        (((j, m), poly),) = base.items()
        if len(poly.items()) == 1:
            ((d, c),) = poly.items()
            if not d or not (j or m):
                if j * n >= 3 or truncated and d * n >= 3:
                    return Form.zero(truncated)
                coeff = c**n * q_power(m * j * n * (n - 1))
                return Form._trusted(
                    {FormMonomial(j * n, m * n): Poly._trusted({d * n: coeff}, truncated)},
                    truncated,
                )
    out = None
    while True:
        if n & 1:
            out = base if out is None else out.mul(base, cfg)
        n >>= 1
        if not n:
            return Form.one(truncated) if out is None else out
        base = base.mul(base, cfg)


def parse(text: str, cfg: CalculusConfig) -> Form:
    """Parse an expression and reduce it to normal form under cfg."""
    parser = _Parser(_tokenize(text), cfg)
    value = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


_SCALAR_CFG = CalculusConfig(Q)


def parse_scalar(text: str) -> CycQ:
    """Parse a constant scalar such as 'q', '2', '1/2', '1+q' or '-1-1*q'.

    Constant expressions reduce independently of the twist scalar, so this
    is safe to use while building a configuration.
    """
    form = parse(text, _SCALAR_CFG)
    if form.is_zero():
        return CycQ(0)
    terms = form.terms()
    if len(terms) == 1:
        mon, poly = terms[0]
        if mon == FormMonomial(0, 0) and poly.degree == 0:
            return poly.coefficient(0)
    raise ValueError(f"not a scalar: {text!r}")


def render(u: Form) -> str:
    """Deterministic canonical text; parses back to u under u's own mode.

    Terms appear in canonical order (d2x power ascending, then dx power,
    then coefficient degree); multi-term coefficients are parenthesized.
    """
    pieces: list[tuple[str, str]] = []
    for mon, poly in u.terms():
        terms = poly.terms()
        if (mon.dx or mon.d2x) and len(terms) > 1:
            pieces.append(("+", f"({poly_text(poly)})*{_word(0, mon.dx, mon.d2x)}"))
            continue
        for degree, coeff in terms:
            tail = _word(degree, mon.dx, mon.d2x)
            if tail:
                pieces.append(_piece(coeff, tail))
                continue
            # a constant at the empty word splits into its rational and q parts
            a_num, a_den, b_num, b_den = coeff.ratios()
            if a_num:
                pieces.append(_signed(a_num, a_den, ""))
            if b_num:
                pieces.append(_signed(b_num, b_den, "q"))
    return _join(pieces, " ")


def poly_text(poly: Poly) -> str:
    """Canonical text of a coefficient polynomial, e.g. '1-1*q+x^2'."""
    return _join([_piece(coeff, _word(degree)) for degree, coeff in poly.terms()], "")


def scalar_text(value: CycQ) -> str:
    """Canonical text of a scalar, e.g. '-1/2', 'q' or '1-1*q'."""
    return _join([_piece(value, "")], "")


def _join(pieces: list[tuple[str, str]], gap: str) -> str:
    """Signed pieces as one sum; gap pads the signs after the first piece."""
    if not pieces:
        return "0"
    sign, text = pieces[0]
    out = ["-" + text if sign == "-" else text]
    out.extend(f"{gap}{sign}{gap}{text}" for sign, text in pieces[1:])
    return "".join(out)


def _piece(coeff: CycQ, tail: str) -> tuple[str, str]:
    """Sign and unsigned text of coeff * tail; an empty tail is a bare scalar."""
    a_num, a_den, b_num, b_den = coeff.ratios()
    if not b_num:
        return _signed(a_num, a_den, tail)
    if not a_num:
        return _signed(b_num, b_den, f"q*{tail}" if tail else "q")
    # a mixed scalar shows both magnitudes, 1 included, and is parenthesized
    # before a tail: 1-1*q, (1-1*q)*x
    a_sign, a_mag = _signed(a_num, a_den, "")
    b_sign, b_mag = _signed(b_num, b_den, "")
    text = f"{a_mag}{b_sign}{b_mag}*q"
    if tail:
        return "+", f"({'-' if a_sign == '-' else ''}{text})*{tail}"
    return a_sign, text


def _signed(num: int, den: int, tail: str) -> tuple[str, str]:
    """Sign and unsigned text of (num/den) * tail, for den > 0 in lowest terms."""
    sign = "-" if num < 0 else "+"
    num = abs(num)
    mag = str(num) if den == 1 else f"{num}/{den}"  # as str(Fraction) writes it
    if not tail:
        return sign, mag
    return sign, tail if num == den else f"{mag}*{tail}"


def _word(degree: int, dx: int = 0, d2x: int = 0) -> str:
    """Text of the word x^degree * dx^dx * d2x^d2x without its zero powers; '' if all are 0."""
    powers = (("x", degree), ("dx", dx), ("d2x", d2x))
    return "*".join(name if n == 1 else f"{name}^{n}" for name, n in powers if n)
