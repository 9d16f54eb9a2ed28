"""Totality of the input contract under Hypothesis.

Every input either succeeds or fails in a documented way: the library lets
only ParseError or ValueError escape, and the CLI returns 0-3 with at most
one 'qforms:' line on stderr (argparse's own usage errors exit 2). Inputs are
drawn both as raw text and from the grammar, with the work kept small:
exponents of at most 12, --samples at most 3 and --max-degree at most 8.
Costly inputs, '*' chains and nested powers of up to 4 KB, are drawn apart:
the parser's work budget must refuse them before their price passes MAX_WORK,
and what it accepts must equal the value of the plain evaluator in
tests/form_parser.py, which has no budget.
"""

from __future__ import annotations

import contextlib
import io

import pytest
from hypothesis import HealthCheck, event, given, settings, strategies as st

import form_parser
from form_parser import compare_with_oracle
from test_parser import recorded_charges
from qforms.calculus import CalculusConfig
from qforms.checks import SUITE_NAMES
from qforms.cli import main
from qforms.cyclotomic import Q, CycQ
from qforms.forms import Form
from qforms.parser import MAX_WORK, ParseError, _tokenize, parse, parse_scalar

CFGS = [CalculusConfig(Q), CalculusConfig(Q, anyonic=True), CalculusConfig(CycQ(2))]
MAX_POWER = 12

SETTINGS = settings(
    max_examples=150, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


def small_powers(text: str) -> bool:
    """Whether every exponent token in text is at most MAX_POWER."""
    try:
        tokens = _tokenize(text)
    except ParseError:
        return True  # refused before any work
    return all(
        not (op[1] == "^" and kind == "int" and int(value) > MAX_POWER)
        for op, (kind, value, _) in zip(tokens, tokens[1:])
    )


raw_text = st.lists(
    st.sampled_from(list("xdq()+-*/^ 0123") + ["d2x", "dx", "\t", "²", "٣", "e", "é"]),
    max_size=16,
).map("".join).filter(small_powers)

atoms = st.sampled_from(["x", "dx", "d2x", "q", "0", "1", "2", "3/2", "1/0", "007", "5/3"])


def _compound(children):
    return st.one_of(
        st.tuples(children, st.sampled_from(["+", "-", "*", " * ", " - "]), children).map(
            "".join
        ),
        children.map(lambda e: f"({e})"),
        children.map(lambda e: f"-{e}"),
        st.tuples(children, st.integers(0, MAX_POWER)).map(lambda t: f"({t[0]})^{t[1]}"),
    )


grammar_text = st.recursive(atoms, _compound, max_leaves=6)


@st.composite
def damaged(draw, text):
    """A grammatical expression with one character inserted or removed."""
    expr = draw(text)
    i = draw(st.integers(0, len(expr)))
    if draw(st.booleans()):
        return expr[:i] + draw(st.sampled_from(list("()^*+-/x2") + ["²"])) + expr[i:]
    return expr[:i] + expr[i + 1:]


expressions = st.one_of(raw_text, grammar_text, damaged(grammar_text).filter(small_powers))


@SETTINGS
@given(text=expressions, cfg=st.sampled_from(CFGS))
def test_parse_is_total(text, cfg):
    try:
        result = parse(text, cfg)
    except (ParseError, ValueError):
        return
    assert isinstance(result, Form)
    assert result.truncated == cfg.anyonic


@SETTINGS
@given(text=expressions, cfg=st.sampled_from(CFGS))
def test_parse_matches_the_form_parser(text, cfg):
    # the same Form, text and JSON, or the same error at the same token
    compare_with_oracle(text, cfg)


costly_bases = st.sampled_from(
    ["x", "dx", "d2x", "q", "2", "10^40", "(x+d2x)", "(1+x)", "(1+q*x)", "(x+dx)", "(1+x+d2x)", "(2*x-d2x)"]
)
costly_factors = st.recursive(
    costly_bases,
    lambda inner: st.tuples(inner, st.integers(0, 1000)).map(lambda t: f"({t[0]})^{t[1]}"),
    max_leaves=3,
)
MAX_TEXT = 4096


@st.composite
def costly_text(draw):
    """Up to four runs of one repeated factor, joined by '*', in at most
    MAX_TEXT characters; a factor may be a power, or a power of powers."""
    runs = []
    room = MAX_TEXT
    for _ in range(draw(st.integers(1, 4))):
        factor = draw(costly_factors)
        count = min(draw(st.integers(1, 500)), (room + 1) // (len(factor) + 1))
        if not count:
            break
        runs.append("*".join([factor] * count))
        room -= count * (len(factor) + 1)
    return "*".join(runs) or "x"


@settings(SETTINGS, max_examples=100)
@given(text=costly_text(), cfg=st.sampled_from(CFGS))
def test_costly_parses_stay_inside_the_budget(text, cfg):
    assert len(text) <= MAX_TEXT
    with recorded_charges() as charges:
        try:
            result = parse(text, cfg)
        except ParseError as exc:
            event("work refused" if "work" in str(exc) else "refused by another limit")
        else:
            assert isinstance(result, Form)
            event("parsed")
    assert sum(charges["accepted"]) <= MAX_WORK


@settings(SETTINGS, max_examples=25)
@given(text=costly_text(), cfg=st.sampled_from(CFGS))
def test_costly_parses_match_the_form_parser(text, cfg):
    # what parse accepts equals the plain evaluator's form; a refusal for
    # work comes at a '*' or an exponent token, at the first step whose price
    # would pass MAX_WORK; any other refusal is the evaluator's error (render,
    # which compare_with_oracle runs, refuses the longest integers these draw)
    try:
        with recorded_charges() as charges:
            actual = parse(text, cfg)
    except ParseError as exc:
        if "work exceeds" in str(exc):
            accepted, (refused,) = sum(charges["accepted"]), charges["refused"]
            assert accepted <= MAX_WORK < accepted + refused
            assert text[exc.position] == "*" or text[exc.position - 1] == "^"
            return
        with pytest.raises(ParseError) as err:
            form_parser.parse(text, cfg)
        assert (str(err.value), err.value.position) == (str(exc), exc.position)
    else:
        assert actual == form_parser.parse(text, cfg)


@SETTINGS
@given(text=expressions)
def test_parse_scalar_is_total(text):
    try:
        result = parse_scalar(text)
    except (ParseError, ValueError):
        return
    assert isinstance(result, CycQ)


json_leaves = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 5),
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from(["generic", "anyonic", "", "x"]),
)
json_values = st.recursive(
    json_leaves,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.dictionaries(
            st.sampled_from(["mode", "terms", "dx", "d2x", "coeff", "x"]), children, max_size=5
        ),
    ),
    max_leaves=12,
)
ints = st.integers(-2, 4)
fields = st.one_of(ints, st.sampled_from([True, 1.0, "1", None]))
quadruples = st.one_of(
    st.lists(ints, min_size=4, max_size=4), st.lists(fields, min_size=3, max_size=5)
)
coeff_entries = st.one_of(
    st.tuples(ints, quadruples).map(list), st.lists(fields, max_size=3), fields
)
encodings = st.fixed_dictionaries(
    {
        "mode": st.sampled_from(["generic", "anyonic", "bogus", 0]),
        "terms": st.lists(
            st.fixed_dictionaries(
                {
                    "dx": st.one_of(st.integers(0, 2), fields),
                    "d2x": st.one_of(st.integers(0, 2), fields),
                    "coeff": st.lists(coeff_entries, max_size=3),
                }
            ),
            max_size=3,
        ),
    }
)


@SETTINGS
@given(data=st.one_of(json_values, encodings))
def test_from_dict_raises_only_value_error(data):
    try:
        result = Form.from_dict(data)
    except ValueError:
        return
    assert Form.from_dict(result.to_dict()) == result


options = st.lists(
    st.one_of(
        st.tuples(st.just("--alpha"), st.sampled_from(["q", "2", "1/2", "1+q", "0", "x", "(", "1/0"])),
        st.tuples(st.just("--anyonic")),
        st.tuples(st.just("--output"), st.sampled_from(["text", "json", "xml"])),
        st.tuples(st.just("--seed"), st.integers(-1, 5).map(str)),
        st.tuples(st.just("--samples"), st.integers(-1, 3).map(str)),
        st.tuples(st.just("--max-degree"), st.integers(-1, 8).map(str)),
    ),
    max_size=4,
).map(lambda pairs: [arg for pair in pairs for arg in pair])


@st.composite
def argvs(draw):
    command = draw(st.sampled_from(["reduce", "diff", "grade", "closed", "check", "bogus"]))
    argv = [command]
    if command == "diff" and draw(st.booleans()):
        argv += ["-n", draw(st.sampled_from(["-1", "0", "1", "3", "x"]))]
    if command == "check":
        target = draw(st.sampled_from(SUITE_NAMES + ("all", "bogus")))
    else:
        target = draw(expressions)
    # '--' lets an expression start with '-', which would otherwise read as a flag
    return argv + draw(options) + ["--", target]


@SETTINGS
@given(argv=argvs())
def test_main_returns_a_documented_code(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse refuses the arguments
            assert exc.code == 2
            return
    assert code in (0, 1, 2, 3)
    lines = err.getvalue().splitlines()
    assert len(lines) <= 1
    assert all(line.startswith("qforms:") for line in lines)
    if code in (2, 3):
        assert out.getvalue() == ""
