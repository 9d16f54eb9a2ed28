"""A plain Form-valued evaluator of the parser's grammar, the value oracle for qforms.parser.

It shares no evaluation code with qforms.parser. Every intermediate value is
a Form, every '*' is Form.mul, and base^N is N - 1 left-to-right Form.muls
(base^0 is 1). It has no closed form and no work budget. From qforms.parser
it imports only ParseError and the documented limits, and it checks them
itself: literal digits (the smaller of MAX_DIGITS and a nonzero
sys.get_int_max_str_digits()), exponents, a power's degree in x or d2x, and
nesting depth, each at the token qforms.parser names. Scalars are built
through Form.scalar from Fractions. compare_with_oracle holds qforms.parser's
tokenizer, parse and render, the code under test, against this module.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from qforms import parser as int_parser
from qforms.calculus import CalculusConfig
from qforms.cyclotomic import Q
from qforms.forms import Form
from qforms.parser import MAX_DEPTH, MAX_DIGITS, MAX_EXPONENT, ParseError
from qforms.polynomial import Poly

NAMES = ("x", "dx", "d2x", "q")


def tokenize(text: str) -> list[tuple[str, str, int]]:
    """(kind, text, position) triples, kind one of 'op', 'int', 'name' and a final 'end'."""
    tokens = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        j = i + 1
        if ch in "+-*^/()":
            tokens.append(("op", ch, i))
        elif ch in "0123456789":
            while j < n and text[j] in "0123456789":
                j += 1
            tokens.append(("int", text[i:j], i))
        elif ch.isalpha():
            while j < n and text[j].isalnum():
                j += 1
            if text[i:j] not in NAMES:
                raise ParseError(f"unknown symbol {text[i:j]!r}", i)
            tokens.append(("name", text[i:j], i))
        elif not ch.isspace():
            raise ParseError(f"unexpected character {ch!r}", i)
        i = j
    tokens.append(("end", "", n))
    return tokens


def literal(text: str, pos: int) -> int:
    """The value of an integer token, refused past the digit limit before int() reads it."""
    limit = sys.get_int_max_str_digits() if hasattr(sys, "get_int_max_str_digits") else 0
    limit = min(limit, MAX_DIGITS) if limit else MAX_DIGITS
    digits = text.lstrip("0") or "0"
    if len(digits) > limit:
        raise ParseError(f"integer literal exceeds the limit of {limit} digits", pos)
    return int(digits)


class _Evaluator:
    def __init__(self, text: str, cfg: CalculusConfig) -> None:
        self.tokens = tokenize(text)
        self.i = 0
        self.cfg = cfg
        self.depth = 0

    def next(self) -> tuple[str, str, int]:
        self.i += 1
        return self.tokens[self.i - 1]

    def at(self, op: str) -> bool:
        kind, text, _ = self.tokens[self.i]
        return kind == "op" and text in op

    def expr(self) -> Form:
        negative = self.at("-")
        if negative:
            self.next()
        value = -self.term() if negative else self.term()
        while self.at("+-"):
            op = self.next()[1]
            value = value + self.term() if op == "+" else value - self.term()
        return value

    def term(self) -> Form:
        value = self.factor()
        while self.at("*"):
            self.next()
            value = value.mul(self.factor(), self.cfg)
        return value

    def factor(self) -> Form:
        base = self.base()
        if not self.at("^"):
            return base
        self.next()
        kind, text, pos = self.next()
        if kind != "int":
            raise ParseError("exponent must be a nonnegative integer", pos)
        digits = text.lstrip("0") or "0"
        if len(digits) > len(str(MAX_EXPONENT)) or int(digits) > MAX_EXPONENT:
            raise ParseError(f"exponent exceeds the limit of {MAX_EXPONENT}", pos)
        n = int(digits)
        if n * max((max(poly.degree, mon.d2x) for mon, poly in base.items()), default=0) > MAX_EXPONENT:
            raise ParseError(f"power exceeds degree {MAX_EXPONENT} in x or d2x", pos)
        value = Form.one(self.cfg.anyonic) if n == 0 else base
        for _ in range(n - 1):
            value = value.mul(base, self.cfg)
        return value

    def base(self) -> Form:
        truncated = self.cfg.anyonic
        kind, text, pos = self.next()
        if kind == "int":
            numerator = literal(text, pos)
            if not self.at("/"):
                return Form.scalar(numerator, truncated)
            self.next()
            kind, text, pos = self.next()
            if kind != "int":
                raise ParseError("expected a denominator", pos)
            denominator = literal(text, pos)
            if not denominator:
                raise ParseError("zero denominator", pos)
            return Form.scalar(Fraction(numerator, denominator), truncated)
        if kind == "name":
            if text == "x":
                return Form.from_poly(Poly.x(truncated))
            if text == "q":
                return Form.scalar(Q, truncated)
            return Form.basis(*{"dx": (1, 0), "d2x": (0, 1)}[text], truncated)
        if kind == "op" and text == "(":
            if self.depth == MAX_DEPTH:
                raise ParseError(f"parentheses nest deeper than {MAX_DEPTH} levels", pos)
            self.depth += 1
            value = self.expr()
            kind, text, pos = self.next()
            if not (kind == "op" and text == ")"):
                raise ParseError("expected ')'", pos)
            self.depth -= 1
            return value
        raise ParseError("expected 'x', 'dx', 'd2x', 'q', a rational, or '('", pos)


def parse(text: str, cfg: CalculusConfig) -> Form:
    """The value of text under cfg, or the ParseError qforms.parser.parse raises but for a budget refusal."""
    evaluator = _Evaluator(text, cfg)
    value = evaluator.expr()
    kind, _, pos = evaluator.next()
    if kind != "end":
        raise ParseError("unexpected trailing input", pos)
    return value


def compare_with_oracle(text: str, cfg: CalculusConfig) -> Form | None:
    """Assert that qforms.parser.parse gives what this evaluator gives for
    text: an equal Form with the same render and to_dict, or an error of the
    same type and message (for a ParseError, at the same position). The two
    tokenizers must give the same tokens or the same error. A refusal by the
    work budget is the parser's own business (tests/test_parser.py's
    TestWorkBudget), so it ends the comparison before this evaluator runs.
    Returns parse's form, or None when parse raised."""

    def tokens(split):
        try:
            return split(text)
        except ParseError as exc:
            return str(exc), exc.position

    assert tokens(int_parser._tokenize) == tokens(tokenize)
    try:
        actual = int_parser.parse(text, cfg)
    except (ParseError, ValueError) as exc:
        if str(exc).startswith("work exceeds"):
            return None
        try:
            parse(text, cfg)
        except type(exc) as err:
            assert str(err) == str(exc)
            assert getattr(err, "position", None) == getattr(exc, "position", None)
        else:
            raise AssertionError(f"{text!r} was refused with {exc!r}, the oracle parsed it") from None
        return None
    expected = parse(text, cfg)
    assert actual == expected
    assert int_parser.render(actual) == int_parser.render(expected)
    assert actual.to_dict() == expected.to_dict()
    return actual
