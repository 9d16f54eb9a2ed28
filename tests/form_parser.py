"""The Form-valued parser that qforms.parser replaced, kept as its oracle.

qforms.parser evaluates expressions on a Form's own ints and builds one
Form per parse. This module is the parser it replaced: every
intermediate value is a Form, its closed form (_product) is written on
Forms, and every other product is Form.mul. The code between the imports
and compare_with_oracle is that parser verbatim, tokenizer included, except
that its closed form builds its Forms through the public constructors, that
its powers square and multiply through _product from the top bit down, and
that it meters its work through qforms.parser's _price, applied to its
Forms' _terms, with its own running total; it shares the literal check and
the limits with qforms.parser.
"""

from __future__ import annotations

from qforms import parser as int_parser
from qforms.calculus import CalculusConfig
from qforms.cyclotomic import Q, from_ratios
from qforms.forms import Form, FormMonomial, swap_scalar
from qforms.parser import (
    MAX_DEPTH,
    MAX_EXPONENT,
    MAX_WORK,
    ParseError,
    Token,
    _literal,
    _price,
)
from qforms.polynomial import Poly


_NAMES = frozenset({"x", "dx", "d2x", "q"})


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
        self._work = 0

    def _charge(self, price: int, pos: int) -> None:
        if self._work + price > MAX_WORK:
            raise ParseError(f"work exceeds the limit of {MAX_WORK} units", pos)
        self._work += price

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
            kind, text, pos = self.peek()
            if kind == "op" and text == "*":
                self.advance()
                value = _product(value, self.factor(), self._cfg, lambda price: self._charge(price, pos))
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
            return _power(base, n, self._cfg, lambda price: self._charge(price, pos))
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




def _product(left: Form, right: Form, cfg: CalculusConfig, charge) -> Form:
    """left * right for two forms in cfg's mode; equal to left.mul(right, cfg).

    Written down without the form product when no relation applies: a right
    factor c*x**e on one word dx**j d2x**n, with e == 0, which every twist
    fixes and whose derivative is zero, or with a left of one term on the
    empty word, which passes nothing, moves each left term (f, k, m) to
    f * c * x**e * q**(2mj) on dx**(k+j) d2x**(m+n), dropped once k + j >= 3
    (anyonic, the Poly product drops x**3); and a left factor f on the empty
    word gives f*g on each right word (g, j, n). Neither leaves a bracket
    term. Every product is charged _price first, as in qforms.parser, but
    for a first kind whose constant fits in 64 bits.
    """
    terms = left.items()
    if len(right.items()) == 1:
        (((j, n), g),) = right.items()
        if len(g.items()) == 1:
            ((e, c),) = g.items()
            if not e or [(word, len(f.items())) for word, f in terms] == [((0, 0), 1)]:
                if max(map(abs, (c._a, c._b, c._d))) >> 64:
                    charge(_price(left._terms, right._terms, cfg.alpha))
                return Form(
                    {
                        FormMonomial(k + j, m + n): f * Poly.monomial(e, c * swap_scalar(m, j), left.truncated)
                        for (k, m), f in terms
                        if k + j < 3
                    },
                    left.truncated,
                )
    charge(_price(left._terms, right._terms, cfg.alpha))
    if len(terms) == 1:
        ((word, f),) = terms
        if word == (0, 0):
            return right.left_mul(f)
    return left.mul(right, cfg)


def _power(base: Form, n: int, cfg: CalculusConfig, charge) -> Form:
    """base^n by square-and-multiply from the top bit down: at most
    2*log2(n) products, each through _product."""
    if not n:
        return Form.one(cfg.anyonic)
    out = base
    for bit in bin(n)[3:]:
        out = _product(out, out, cfg, charge)
        if bit == "1":
            out = _product(out, base, cfg, charge)
    return out


def parse(text: str, cfg: CalculusConfig) -> Form:
    """Parse an expression and reduce it to normal form under cfg."""
    parser = _Parser(_tokenize(text), cfg)
    value = parser.expr()
    kind, _, pos = parser.peek()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


def compare_with_oracle(text: str, cfg: CalculusConfig) -> None:
    """Assert that qforms.parser.parse gives what this parser gives for text:
    an equal Form with the same render and to_dict, or an error of the same
    type and message (for a ParseError, at the same position). The two
    tokenizers must give the same tokens or the same error."""

    def tokens(tokenize):
        try:
            return tokenize(text)
        except ParseError as exc:
            return str(exc), exc.position

    assert tokens(int_parser._tokenize) == tokens(_tokenize)
    try:
        expected = parse(text, cfg)
    except (ParseError, ValueError) as exc:
        try:
            int_parser.parse(text, cfg)
        except type(exc) as err:
            assert str(err) == str(exc)
            assert getattr(err, "position", None) == getattr(exc, "position", None)
        else:
            raise AssertionError(f"{text!r} parsed, the oracle raised {exc!r}")
        return
    actual = int_parser.parse(text, cfg)
    assert actual == expected
    assert int_parser.render(actual) == int_parser.render(expected)
    assert actual.to_dict() == expected.to_dict()
