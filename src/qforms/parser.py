"""Text front end for forms: parsing and canonical rendering.

Grammar (whitespace insignificant):

    expr     := ['-'] term (('+' | '-') term)*
    term     := factor ('*' factor)*
    factor   := base ('^' uint)?
    base     := 'x' | 'dx' | 'd2x' | 'q' | rational | '(' expr ')'
    rational := uint ('/' uint)?

A leading '-' reads as 0 - term. '^' binds tighter than '*', which binds
tighter than '+' and '-'; '*' evaluates left to right through the form
product, so re-associating a product cannot change the parsed value.
'base^N' is computed by repeated squaring, O(log N) form products; the
product is associative and exact, so the value is that of N left-to-right
factors. The renderer emits deterministic canonical text that parses back
to the same form under the same configuration.

Limits, each raising ParseError at the offending token: an exponent token
may not exceed MAX_EXPONENT, and parentheses may nest at most MAX_DEPTH
levels deep. The exponent cap is per '^' token; a nested power such as
'(x^9999)^9999' is not capped.
"""

from __future__ import annotations

from fractions import Fraction

from .calculus import CalculusConfig
from .cyclotomic import CycQ, Q
from .forms import Form, FormMonomial
from .polynomial import Poly, product_text


class ParseError(Exception):
    """Syntax error carrying the character offset where it was detected."""

    def __init__(self, message: str, position: int) -> None:
        super().__init__(f"{message} (at position {position})")
        self.position = position


_NAMES = frozenset({"x", "dx", "d2x", "q"})

MAX_EXPONENT = 10_000
"""Largest exponent token accepted after '^'."""

MAX_DEPTH = 100
"""Deepest parenthesis nesting accepted; each level costs four stack frames."""

Token = tuple[str, str, int]  # kind, text, position


def _tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
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
                value = value.mul(self.factor(), self._cfg)
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
            return _power(base, int(digits), self._cfg)
        return base

    def base(self) -> Form:
        truncated = self._cfg.anyonic
        kind, text, pos = self.advance()
        if kind == "int":
            numerator = int(text)
            kind, slash, _ = self.peek()
            if kind == "op" and slash == "/":
                self.advance()
                kind, denom_text, denom_pos = self.peek()
                if kind != "int":
                    raise ParseError("expected a denominator", denom_pos)
                self.advance()
                if int(denom_text) == 0:
                    raise ParseError("zero denominator", denom_pos)
                return Form.scalar(Fraction(numerator, int(denom_text)), truncated)
            return Form.scalar(numerator, truncated)
        if kind == "name":
            if text == "x":
                return Form.from_poly(Poly.x(truncated))
            if text == "q":
                return Form.scalar(Q, truncated)
            if text == "dx":
                return Form.basis(1, 0, truncated)
            return Form.basis(0, 1, truncated)  # d2x
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


def _power(base: Form, n: int, cfg: CalculusConfig) -> Form:
    """base^n by square-and-multiply: at most 2*log2(n) form products."""
    out = None
    while True:
        if n & 1:
            out = base if out is None else out.mul(base, cfg)
        n >>= 1
        if not n:
            return Form.one(cfg.anyonic) if out is None else out
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
        if mon.dx == 0 and mon.d2x == 0:
            pieces.extend(_poly_pieces(poly))
        else:
            pieces.append(_term_piece(poly, mon))
    if not pieces:
        return "0"
    sign, text = pieces[0]
    rendered = [("-" + text) if sign == "-" else text]
    for sign, text in pieces[1:]:
        rendered.append(f" {sign} {text}")
    return "".join(rendered)


def _power_text(name: str, power: int) -> str:
    return name if power == 1 else f"{name}^{power}"


def _monomial_text(mon: FormMonomial) -> str:
    parts: list[str] = []
    if mon.dx:
        parts.append(_power_text("dx", mon.dx))
    if mon.d2x:
        parts.append(_power_text("d2x", mon.d2x))
    return "*".join(parts)


def _poly_pieces(poly: Poly) -> list[tuple[str, str]]:
    """Signed pieces of a grade-0 coefficient, spliced into the form-level sum."""
    pieces: list[tuple[str, str]] = []
    for degree, coeff in poly.terms():
        if degree == 0:
            # mixed constants split into their rational and q-multiple parts
            if coeff.a:
                sign = "+" if coeff.a > 0 else "-"
                pieces.append((sign, str(abs(coeff.a))))
            if coeff.b:
                sign = "+" if coeff.b > 0 else "-"
                mag = abs(coeff.b)
                pieces.append((sign, "q" if mag == 1 else f"{mag}*q"))
        else:
            pieces.append(product_text(coeff, _power_text("x", degree)))
    return pieces


def _term_piece(poly: Poly, mon: FormMonomial) -> tuple[str, str]:
    word = _monomial_text(mon)
    terms = poly.terms()
    if len(terms) > 1:
        return "+", f"({poly})*{word}"
    degree, coeff = terms[0]
    if degree:
        word = f"{_power_text('x', degree)}*{word}"
    return product_text(coeff, word)
