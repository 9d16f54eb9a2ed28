"""Bounded-exhaustive gate, in the style of SmallCheck (Runciman, Naylor and
Lindblad, Haskell Symposium 2008): every well-formed expression of at most
MAX_TOKENS tokens, built from the grammar in qforms.parser's docstring over
a small alphabet, at alpha q, at alpha 2 and anyonic. Each must equal the
plain evaluator of tests/form_parser.py (the same form, text and JSON, or
the same error at the same token), parse back equal from its render, and
run through `qforms reduce` to exit 0 with that render on stdout, or to
exit 2 with one 'qforms:' line on stderr. The same expressions check
parse_scalar, the reader of --alpha, against its Form round trip.

Raw strings are not enumerated: almost all of them are parse errors.
"""

from __future__ import annotations

import contextlib
import functools
import io

import pytest

from form_parser import compare_with_oracle
from qforms.calculus import CalculusConfig
from qforms.cli import main
from qforms.cyclotomic import Q, CycQ
from qforms.forms import Form
from qforms.parser import ParseError, parse, parse_scalar, render

MAX_TOKENS = 6
NAMES = ("x", "dx", "d2x", "q")
INTS = ("0", "1", "2")  # rationals are a/b of these, 1/0 included
EXPONENTS = ("0", "1", "2", "3")


@functools.cache
def expr(n: int) -> tuple[str, ...]:
    """expr := ['-'] sum, the expressions of exactly n tokens."""
    return total(n) + tuple("-" + t for t in total(n - 1)) if n > 1 else total(n)


@functools.cache
def total(n: int) -> tuple[str, ...]:
    """sum := term (('+' | '-') term)*, split at its last sign."""
    out = list(term(n))
    for a in range(1, n - 1):
        for left in total(a):
            for right in term(n - 1 - a):
                out += (f"{left}+{right}", f"{left}-{right}")
    return tuple(out)


@functools.cache
def term(n: int) -> tuple[str, ...]:
    """term := factor ('*' factor)*, split at its last '*'."""
    out = list(factor(n))
    for a in range(1, n - 1):
        out += (f"{left}*{right}" for left in term(a) for right in factor(n - 1 - a))
    return tuple(out)


@functools.cache
def factor(n: int) -> tuple[str, ...]:
    """factor := base ('^' uint)?"""
    return base(n) + tuple(f"{b}^{e}" for b in base(n - 2) for e in EXPONENTS) if n > 2 else base(n)


@functools.cache
def base(n: int) -> tuple[str, ...]:
    """base := name | rational | '(' expr ')'"""
    if n == 1:
        return NAMES + INTS
    out = tuple(f"({e})" for e in expr(n - 2)) if n > 2 else ()
    return out + tuple(f"{a}/{b}" for a in INTS for b in INTS) if n == 3 else out


def expressions(k: int) -> list[str]:
    return [text for n in range(1, k + 1) for text in expr(n)]


CFGS = {
    "q": (CalculusConfig(Q), []),
    "2": (CalculusConfig(CycQ(2)), ["--alpha", "2"]),
    "anyonic": (CalculusConfig(Q, anyonic=True), ["--anyonic"]),
}


def test_the_enumeration_is_complete_and_distinct():
    # the counts pin the gate's size; each expression comes from one derivation
    texts = expressions(MAX_TOKENS)
    assert len(texts) == len(set(texts)) == 11_310
    assert [len(expr(n)) for n in range(1, MAX_TOKENS + 1)] == [7, 7, 191, 198, 5197, 5710]
    assert "x-q*x" in texts and "-(1/0)" in texts and "(d2x)^3" in texts


@pytest.mark.parametrize("alpha", CFGS)
def test_every_small_expression(alpha):
    cfg, options = CFGS[alpha]
    for text in expressions(MAX_TOKENS):
        u = compare_with_oracle(text, cfg)
        if u is not None:
            assert parse(render(u), cfg) == u, text
        # '--' lets an expression start with '-', which would otherwise read as a flag
        argv = ["reduce", *options, "--", text] if text.startswith("-") else ["reduce", text, *options]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        if u is not None:
            assert (code, out.getvalue(), err.getvalue()) == (0, render(u) + "\n", ""), text
        else:
            lines = err.getvalue().splitlines()
            assert code == 2 and out.getvalue() == "", text
            assert len(lines) == 1 and lines[0].startswith("qforms:"), text


def round_trip_scalar(text: str) -> CycQ:
    """parse_scalar as a Form round trip: the parsed form must equal the
    scalar form of its constant coefficient."""
    form = parse(text, CalculusConfig(Q))
    constant = form.coefficient((0, 0)).coefficient(0)
    if form != Form.scalar(constant):
        raise ValueError(f"not a scalar: {text!r}")
    return constant


def outcome(function, text):
    try:
        value = function(text)
    except Exception as exc:  # the type and text are compared
        return type(exc), str(exc)
    return CycQ, (value._a, value._b, value._d)


SPELLINGS = (" q ", "q^4", "-1-q^2", "x-x", "0*dx", "1+x-x", "(q)", "2", "1/2", "1+q", "-1-1*q", "x", "1/0", "")


def test_parse_scalar_matches_the_form_round_trip():
    seen = set()
    for text in [*expressions(MAX_TOKENS), *SPELLINGS]:
        result = outcome(parse_scalar, text)
        assert result == outcome(round_trip_scalar, text), text
        seen.add(result[0])
    assert seen == {CycQ, ValueError, ParseError}
