"""Parsing, canonical rendering and round trips."""

from __future__ import annotations

import contextlib
import copy
import json
import math
import random
import sys
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import form_parser
from form_parser import compare_with_oracle
from test_forms import (TERM_PAIR, TWISTED_TERM, WIDE_CFGS, WIDE_SETTINGS, kernel_line, pairwise_mul, trace_kernel,
                        wide_cases, wide_scalars)
from qforms.calculus import CalculusConfig
from qforms.checks import random_form
from qforms.cyclotomic import ONE, Q, CycQ
from qforms.differential import differential, differential_power
from qforms import cyclotomic, forms, parser
from qforms.forms import Form, FormMonomial
from qforms.parser import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_WORK,
    ParseError,
    _power,
    _product,
    parse,
    parse_scalar,
    render,
)
from qforms.polynomial import Poly

CFG_Q = CalculusConfig(Q)
CFG_1 = CalculusConfig(ONE)
CFG_ANY = CalculusConfig(Q, anyonic=True)

POWER_CFGS = [
    CFG_Q,
    CFG_ANY,
    CalculusConfig(CycQ(2)),
    CalculusConfig(CycQ(1, 1)),
    CFG_1,
    CalculusConfig(CycQ(1, 2)),
    CalculusConfig(CycQ(Fraction(-3, 7), Fraction(5, 7))),
    CalculusConfig(CycQ(-1)),
]
POWER_IDS = ["q", "anyonic", "2", "1+q", "1", "1+2q", "(-3+5q)/7", "-1"]
GENERATOR_POWERS = (0, 1, 2, 3, 4, 5, 127, 128, MAX_EXPONENT - 1, MAX_EXPONENT)


def unmetered(price, pos):
    """A charge that accepts every price, for _product and _power called alone."""


def repeated_product(base, n, cfg):
    """Reference power: n form products, left to right from 1."""
    out = Form.one(cfg.anyonic)
    for _ in range(n):
        out = out.mul(base, cfg)
    return out


def as_value(form):
    """The parser's value of a form: word -> degree -> a CycQ's (a, b, d)."""
    return {
        (mon.dx, mon.d2x): {e: (c._a, c._b, c._d) for e, c in poly.terms()}
        for mon, poly in form.terms()
    }


def as_form(value, truncated):
    """The form of a parser value, built through the validating constructors."""
    return Form(
        {
            word: Poly({e: CycQ(Fraction(a, d), Fraction(b, d)) for e, (a, b, d) in poly.items()}, truncated)
            for word, poly in value.items()
        },
        truncated,
    )


# The renderer as three modules wrote it before the text path was merged:
# CycQ.__str__, Poly.__str__, polynomial.product_text and the parser's
# render helpers. The reference for TestAgainstLegacyRenderer.


def legacy_scalar_str(c):
    if c.is_zero():
        return "0"
    a, b = c.a, c.b
    if not b:
        return str(a)
    if not a:
        if b == 1:
            return "q"
        if b == -1:
            return "-q"
        return f"{b}*q"
    sign = "+" if b > 0 else "-"
    return f"{a}{sign}{abs(b)}*q"


def legacy_product_text(coeff, tail):
    if coeff.a and coeff.b:
        return "+", f"({legacy_scalar_str(coeff)})*{tail}"
    if coeff.b:
        sign = "+" if coeff.b > 0 else "-"
        mag = abs(coeff.b)
        qtext = "q" if mag == 1 else f"{mag}*q"
        return sign, f"{qtext}*{tail}"
    sign = "+" if coeff.a > 0 else "-"
    mag = abs(coeff.a)
    return sign, tail if mag == 1 else f"{mag}*{tail}"


def legacy_poly_str(poly):
    if poly.is_zero():
        return "0"
    out = []
    for degree, coeff in poly.terms():
        if degree == 0:
            out.append(legacy_scalar_str(coeff))
            continue
        sign, text = legacy_product_text(coeff, "x" if degree == 1 else f"x^{degree}")
        if not out:
            out.append(text if sign == "+" else "-" + text)
        else:
            out.append(sign + text)
    return "".join(out)


def legacy_power_text(name, power):
    return name if power == 1 else f"{name}^{power}"


def legacy_monomial_text(mon):
    parts = []
    if mon.dx:
        parts.append(legacy_power_text("dx", mon.dx))
    if mon.d2x:
        parts.append(legacy_power_text("d2x", mon.d2x))
    return "*".join(parts)


def legacy_poly_pieces(poly):
    pieces = []
    for degree, coeff in poly.terms():
        if degree == 0:
            if coeff.a:
                pieces.append(("+" if coeff.a > 0 else "-", str(abs(coeff.a))))
            if coeff.b:
                mag = abs(coeff.b)
                pieces.append(("+" if coeff.b > 0 else "-", "q" if mag == 1 else f"{mag}*q"))
        else:
            pieces.append(legacy_product_text(coeff, legacy_power_text("x", degree)))
    return pieces


def legacy_term_piece(poly, mon):
    word = legacy_monomial_text(mon)
    terms = poly.terms()
    if len(terms) > 1:
        return "+", f"({legacy_poly_str(poly)})*{word}"
    degree, coeff = terms[0]
    if degree:
        word = f"{legacy_power_text('x', degree)}*{word}"
    return legacy_product_text(coeff, word)


def legacy_words(u):
    """u's (monomial, coefficient) pairs, sorted here: d2x power ascending, then dx."""
    return sorted(u.items(), key=lambda item: (item[0].d2x, item[0].dx))


def legacy_render(u):
    pieces = []
    for mon, poly in legacy_words(u):
        if mon.dx == 0 and mon.d2x == 0:
            pieces.extend(legacy_poly_pieces(poly))
        else:
            pieces.append(legacy_term_piece(poly, mon))
    if not pieces:
        return "0"
    sign, text = pieces[0]
    rendered = [("-" + text) if sign == "-" else text]
    for sign, text in pieces[1:]:
        rendered.append(f" {sign} {text}")
    return "".join(rendered)


def legacy_to_dict(u):
    """Form.to_dict written from the public views and Fractions: words in
    canonical order, degrees ascending, each scalar as its a and b in lowest terms."""
    terms = []
    for mon, poly in legacy_words(u):
        coeff = [[degree, [c.a.numerator, c.a.denominator, c.b.numerator, c.b.denominator]] for degree, c in poly.terms()]
        terms.append({"dx": mon.dx, "d2x": mon.d2x, "coeff": coeff})
    return {"mode": "anyonic" if u.truncated else "generic", "terms": terms}


def legacy_form_repr(u):
    mode = "anyonic" if u.truncated else "generic"
    return f"<Form {legacy_render(u)!r} mode={mode}>"


@pytest.fixture
def count_form_products(monkeypatch):
    """Count the calls of the product kernel that parse makes: "products"
    counts them all, "rewriting" those whose left factor has a word other
    than the empty word, the products that push a coefficient past a dx or
    d2x. parse reaches the kernel only through parser._mul, so Form.mul's
    calls, the oracle's and the reference products', are not counted."""
    calls = {"products": 0, "rewriting": 0}
    mul = parser._mul

    def counting_mul(left, *args):
        calls["products"] += 1
        calls["rewriting"] += any(word != (0, 0) for word in left)
        return mul(left, *args)

    monkeypatch.setattr(parser, "_mul", counting_mul)
    return calls


class TestParseExamples:
    def test_coefficient_times_generators(self):
        u = parse("q*x*dx", CFG_Q)
        assert u == Form({(1, 0): Poly.monomial(1, Q)})

    def test_powers_and_precedence(self):
        assert parse("x^2", CFG_Q) == Form.from_poly(Poly.monomial(2))
        assert parse("2*x^2", CFG_Q) == Form.from_poly(Poly.monomial(2, 2))
        assert parse("x^0", CFG_Q) == Form.one()
        # '^' binds before '*': q*x^2 scales the square
        assert parse("q*x^2", CFG_Q) == Form.from_poly(Poly.monomial(2, Q))

    def test_rationals(self):
        assert parse("1/2", CFG_Q) == Form.scalar(CycQ(1) / CycQ(2))
        assert parse("3/2*x", CFG_Q) == Form.from_poly(
            Poly.monomial(1, CycQ(1) * 3 / CycQ(2))
        )

    def test_unary_minus_reads_as_zero_minus(self):
        assert parse("-x", CFG_Q) == Form.from_poly(Poly.monomial(1, -1))
        assert parse("-1-1*q", CFG_Q) == Form.scalar(Q * Q)

    def test_scalar_cancellation(self):
        assert parse("q^2 + q + 1", CFG_Q).is_zero()

    def test_cube_collapses_only_in_the_quotient(self):
        assert parse("x^3", CFG_ANY).is_zero()
        assert not parse("x^3", CFG_Q).is_zero()
        for text in ["x*x^2", "x^2*x*dx", "x*x*x"]:
            assert parse(text, CFG_ANY).is_zero()
            assert not parse(text, CFG_Q).is_zero()
        assert parse("(1+x)*x^2", CFG_ANY) == parse("x^2", CFG_ANY)

    def test_product_reduction_uses_the_configuration(self):
        assert parse("dx*x", CFG_Q) == Form({(1, 0): Poly.monomial(1, Q)})
        assert parse("dx*x", CFG_1) == Form({(1, 0): Poly.x()})

    def test_square_of_a_mixed_sum(self):
        # (x+dx)^2 == x^2 + (1+q)*x*dx + dx^2 at alpha = q
        u = parse("(x+dx)*(x+dx)", CFG_Q)
        expected = Form(
            {
                (0, 0): Poly.monomial(2),
                (1, 0): Poly.monomial(1, CycQ(1, 1)),
                (2, 0): Poly.one(),
            }
        )
        assert u == expected
        assert parse("(x+dx)^2", CFG_Q) == expected

    def test_whitespace_is_insignificant(self):
        assert parse(" d2x * dx ", CFG_Q) == parse("d2x*dx", CFG_Q)

    def test_product_reassociation_is_invisible(self):
        for text_a, text_b in [
            ("dx*d2x*dx", "(dx*d2x)*dx"),
            ("dx*d2x*dx", "dx*(d2x*dx)"),
            ("x*x*dx*d2x", "(x*x)*(dx*d2x)"),
        ]:
            assert parse(text_a, CFG_1) == parse(text_b, CFG_1)


class TestParseErrors:
    @pytest.mark.parametrize(
        "text, position",
        [
            ("x^-2", 2),
            ("x +", 3),
            ("(x", 2),
            ("x)", 1),
            ("y", 0),
            ("x $ y", 2),
            ("1/0", 2),
            ("", 0),
            ("x^", 2),
            ("2 x", 2),
            ("\u00b2", 0),
            ("x^\u00b2", 2),
            ("\u0663*x", 0),
            ("x^\u0663", 2),
            ("1\u0663", 1),
        ],
    )
    def test_positioned_errors(self, text, position):
        with pytest.raises(ParseError) as err:
            parse(text, CFG_Q)
        assert err.value.position == position

    def test_messages_name_the_position(self):
        with pytest.raises(ParseError, match=r"at position 2"):
            parse("x^-2", CFG_Q)

    def test_literal_at_the_digit_limit(self):
        digits = "7" * MAX_DIGITS
        assert parse(digits, CFG_Q) == Form.scalar(int(digits))
        assert parse(f"1/{digits}", CFG_Q) == Form.scalar(Fraction(1, int(digits)))
        assert parse("0" * 5000 + "3", CFG_Q) == Form.scalar(3)

    @pytest.mark.parametrize(
        "text, position",
        [("7" * (MAX_DIGITS + 1), 0), ("1/" + "7" * (MAX_DIGITS + 1), 2)],
        ids=["numerator", "denominator"],
    )
    def test_literal_past_the_digit_limit(self, text, position):
        with pytest.raises(ParseError, match="digits") as err:
            parse(text, CFG_Q)
        assert err.value.position == position

    @pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="the interpreter has no digit limit")
    @pytest.mark.parametrize("limit, applied", [(640, 640), (0, MAX_DIGITS), (5000, MAX_DIGITS)])
    def test_the_smaller_of_the_interpreters_limit_and_max_digits_applies(self, limit, applied):
        saved = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(limit)
        try:
            digits = "7" * applied
            assert parse(f"1/{digits}", CFG_Q) == Form.scalar(Fraction(1, int(digits)))
            message = rf"^integer literal exceeds the limit of {applied} digits \(at position 2\)$"
            with pytest.raises(ParseError, match=message):
                parse(f"1/{digits}7", CFG_Q)
        finally:
            sys.set_int_max_str_digits(saved)


class TestPowers:
    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    def test_matches_the_repeated_product(self, cfg):
        rng = random.Random(61)
        multi_term = words = 0
        for _ in range(8):
            u = random_form(rng, cfg, max_degree=1, max_d2x=1, max_terms=2)
            n = rng.randint(0, 20)
            multi_term += any(len(poly.terms()) > 1 for _, poly in u.terms())
            words += any(mon.dx or mon.d2x for mon, _ in u.terms())
            assert parse(f"({render(u)})^{n}", cfg) == repeated_product(u, n, cfg)
        assert multi_term and words  # the samples exercise both

    def test_products_grow_logarithmically(self, count_form_products):
        # square-and-multiply: 7 squarings; the repeated product makes 128
        assert parse("(1+x)^128", CFG_Q) == repeated_product(parse("1+x", CFG_Q), 128, CFG_Q)
        assert count_form_products["products"] <= 15

    def test_exponent_at_the_cap(self):
        u = parse(f"x^{MAX_EXPONENT}", CFG_Q)
        assert u == Form.from_poly(Poly.monomial(MAX_EXPONENT))

    def test_exponent_past_the_cap_computes_nothing(self, count_form_products):
        with pytest.raises(ParseError, match="exponent") as err:
            parse(f"x^{MAX_EXPONENT + 1}", CFG_Q)
        assert err.value.position == 2
        assert count_form_products["products"] == 0

    def test_nested_power_at_the_cap(self):
        assert parse("(x^100)^100", CFG_Q) == Form.from_poly(Poly.monomial(MAX_EXPONENT))

    @pytest.mark.parametrize("base", ["x^100", "d2x^100", "x*d2x^50 + x^100"])
    def test_nested_power_past_the_cap_computes_nothing(self, count_form_products, base):
        parse(f"({base})", CFG_Q)
        built = count_form_products["products"]
        with pytest.raises(ParseError, match="power exceeds") as err:
            parse(f"({base})^101", CFG_Q)
        assert err.value.position == len(base) + 3  # the exponent token
        assert count_form_products["products"] == 2 * built  # the outer '^' made no product

    def test_exponent_tokens_of_any_length(self):
        assert parse("x^" + "0" * 5000 + "3", CFG_Q) == parse("x^3", CFG_Q)
        with pytest.raises(ParseError, match="exponent"):
            parse("x^" + "9" * 5000, CFG_Q)

    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    @pytest.mark.parametrize("atom", ["x", "dx", "d2x", "q"])
    def test_generator_powers_match_the_repeated_product(self, atom, cfg):
        # the repeated product is built once, one Form.mul per step of n
        base, power, done = form_parser.parse(atom, cfg), Form.one(cfg.anyonic), 0
        for n in GENERATOR_POWERS:
            for _ in range(n - done):
                power = power.mul(base, cfg)
            done = n
            u = compare_with_oracle(f"{atom}^{n}", cfg)  # equal to form_parser.parse, render and to_dict too
            assert u == power
            assert render(u) == render(power) and u.to_dict() == power.to_dict()

    @pytest.mark.parametrize("text, message, position", [
        (f"x^{MAX_EXPONENT + 1}", f"exponent exceeds the limit of {MAX_EXPONENT}", 2),
        (f"d2x^{MAX_EXPONENT + 1}", f"exponent exceeds the limit of {MAX_EXPONENT}", 4),
        (f"(x^2)^{MAX_EXPONENT // 2 + 1}", f"power exceeds degree {MAX_EXPONENT} in x or d2x", 6),
    ])
    def test_generator_power_refusals(self, text, message, position):
        with pytest.raises(ParseError) as err:
            parse(text, CFG_Q)
        assert str(err.value) == f"{message} (at position {position})"
        assert err.value.position == position

    def test_generator_powers_without_a_degree_are_accepted_at_the_cap(self):
        assert parse(f"dx^{MAX_EXPONENT}", CFG_Q).is_zero()
        assert parse(f"q^{MAX_EXPONENT}", CFG_Q) == Form.scalar(Q)  # 10000 % 3 == 1

    def test_generator_powers_take_no_step(self, monkeypatch, count_form_products, metered):
        calls = {"_power": 0, "_product": 0}
        for name in calls:
            step = getattr(parser, name)

            def counting(*args, name=name, step=step):
                calls[name] += 1
                return step(*args)

            monkeypatch.setattr(parser, name, counting)
        u = parse("x^128*dx^2*d2x^3", CFG_Q)
        assert u == Form({(2, 3): Poly.monomial(128)})
        assert calls == {"_power": 0, "_product": 0}  # the term fold makes no step
        assert count_form_products["products"] == 0
        assert metered == {"accepted": [], "refused": []}


CFG_2 = CalculusConfig(CycQ(2))

# Short inputs whose products cost seconds, each refused by the work budget
# at alpha 2 or q: (1+x)^999 alone takes 0.6 s, (x+d2x)^499 82 s.
COSTLY = [
    ("(1+x)^999*(1+q*x)^999", CFG_Q),
    ("(x+d2x)^300", CFG_2),
    ("(x+d2x)^499", CFG_2),
    ("*".join(["(x+d2x)"] * 400), CFG_2),
    ("(1" + "0" * 4299 + ")^1000", CFG_Q),
]
COSTLY_IDS = ["binomials", "twisted-300", "twisted-499", "chain-400", "literal-power"]


# Every price parse charges on five fixed inputs, as _price sets it: a
# change to _price shows here as a diff. A text is COUNT copies of FACTOR
# joined by '*'. Each copy charges STEPS at its exponent token, and each
# '*' STAR after its right factor's STEPS; a refused parse ends on REFUSED
# at position AT. The 4,095-character chain of 256 ((7*d2x^2))^260 is
# refused at 10,041,165 units in all.
CHAIN_STARS = [
    633, 919, 1231, 1517, 1829, 2115, 2401, 2713, 2999, 3311, 3597, 3883, 4195, 4481, 4793, 5079, 5365, 5677,
    5963, 6275, 6561, 6847, 7159, 7445, 7757, 8043, 8329, 8641, 8927, 9239, 9525, 9811, 10123, 10409, 10721,
    11007, 11293, 11605, 11891, 12203, 12489, 12801, 13087, 13373, 13685, 13971, 14283, 14569, 14855, 15167,
    15453, 15765, 16051, 16337, 16649, 16935, 17247, 17533, 17819, 18131, 18417, 18729, 19015, 19301, 19613,
    19899, 20211, 20497, 20783, 21095, 21381, 21693, 21979, 22265, 22577, 22863, 23175, 23461, 23773, 24059,
    24345, 24657, 24943, 25255, 25541, 25827, 26139, 26425, 26737, 27023, 27309, 27621, 27907, 28219, 28505,
    28791, 29103, 29389, 29701, 29987, 30273, 30585, 30871, 31183, 31469, 31755, 32067, 32353, 32665, 32951,
    33237, 33549, 33835, 34147, 34433, 34719, 35031, 35317, 35629, 35915, 36227, 36513, 36799, 37111, 37397,
    37709, 37995, 38281, 38593, 38879, 39191, 39477, 39763, 40075, 40361, 40673, 40959, 41245, 41557, 41843,
    42155, 42441, 42727, 43039, 43325, 43637, 43923, 44209, 44521, 44807, 45119, 45405, 45691, 46003, 46289,
    46601, 46887, 47173, 47485, 47771, 48083, 48369, 48681, 48967, 49253, 49565, 49851, 50163, 50449, 50735,
    51047, 51333, 51645, 51931, 52217, 52529, 52815, 53127, 53413, 53699, 54011, 54297, 54609, 54895, 55181,
    55493, 55779, 56091, 56377, 56663, 56975, 57261, 57573, 57859, 58145, 58457, 58743, 59055, 59341, 59627,
    59939, 60225, 60537, 60823, 61135, 61421, 61707, 62019, 62305, 62617, 62903, 63189, 63501, 63787, 64099,
    64385, 64671, 64983, 65269, 65581, 65867, 66153, 66465, 66751, 67063, 67349, 67635, 67947, 68233, 68545,
    68831, 69117, 69429, 69715, 70027, 70313, 70599, 70911, 71197, 71509, 71795, 72081, 72393, 72679, 72991,
    73277, 73589, 73875, 74161, 74473, 74759, 75071, 75357, 75643,
]
PRICE_SCHEDULES = [  # FACTOR, COUNT, cfg, STEPS, STARS, REFUSED, AT
    ("(1+x+d2x)^31", 1, CFG_2, [2292, 5436, 38203, 24604, 549937, 92508, 8510346, 383968], [], None, None),
    ("(1+x+d2x)^32", 1, CFG_2, [2292, 12705, 92114, 866236], [], 10823588, 10),
    ("(1+x)^1000", 1, CFG_Q,
     [530, 666, 1348, 1210, 4616, 2298, 17680, 4474, 69920, 270211, 18258, 1206958, 6552611], [], 52208965, 6),
    ("7^5000", 400, CFG_Q, [333, 361, 433, 741, 1945, 6481, 24741],
     [97561, 194359, 291157, 388397, 485195, 581993, 679233, 776031, 872829, 970069, 1066867, 1163665, 1260905],
     1357703, 97),
    ("((7*d2x^2))^260", 256, CFG_Q, [333, 345, 405], CHAIN_STARS, 75955, 4079),
]


@contextlib.contextmanager
def recorded_charges():
    """The prices that parse charges inside the block: "accepted" in order,
    and "refused", the price of the step that would have passed MAX_WORK,
    if any."""
    charges = {"accepted": [], "refused": []}
    charge = parser._Parser._charge

    def recording(self, price, pos):
        try:
            charge(self, price, pos)
        except ParseError:
            charges["refused"].append(price)
            raise
        charges["accepted"].append(price)

    with mock.patch.object(parser._Parser, "_charge", recording):
        yield charges


@pytest.fixture
def metered():
    with recorded_charges() as charges:
        yield charges


class TestWorkBudget:
    """Every kernel product, and every closed product by a constant longer
    than 64 bits, is priced before it runs, and a parse whose priced total
    would pass MAX_WORK is refused. Refusals are checked here and in
    test_totality.py, against the prices parse charges and PRICE_SCHEDULES;
    the plain evaluator of tests/form_parser.py has no budget."""

    @pytest.mark.parametrize(
        "factor, count, cfg, steps, stars, refused, at", PRICE_SCHEDULES,
        ids=[f"{factor}*{count}" for factor, count, *_ in PRICE_SCHEDULES],
    )
    def test_price_schedules(self, metered, factor, count, cfg, steps, stars, refused, at):
        text = "*".join([factor] * count)
        expected = list(steps)
        for star in stars:
            expected += [*steps, star]
        if refused is None:
            parse(text, cfg)
        else:
            with pytest.raises(ParseError, match="work exceeds") as err:
                parse(text, cfg)
            assert err.value.position == at
            if count > 1:  # the refused '*' comes after its right factor's steps
                expected += steps
            assert MAX_WORK < sum(expected) + refused
        assert metered["accepted"] == expected and sum(expected) <= MAX_WORK
        assert metered["refused"] == ([] if refused is None else [refused])

    def test_dense_power_just_under_the_budget(self, metered):
        # the term predictor refused N = 31; the budget prices it at 97% of MAX_WORK
        base = parse("1+x+d2x", CFG_2)
        assert parse("(1+x+d2x)^31", CFG_2) == repeated_product(base, 31, CFG_2)
        assert MAX_WORK // 10 < sum(metered["accepted"]) <= MAX_WORK

    def test_first_step_over_the_budget_runs_no_product(self, count_form_products, metered):
        # N = 32 is five squarings, and the last one alone passes MAX_WORK
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse("(1+x+d2x)^32", CFG_2)
        assert err.value.position == 10  # the exponent token
        accepted, (refused,) = sum(metered["accepted"]), metered["refused"]
        assert accepted <= MAX_WORK < accepted + refused < 10 * MAX_WORK
        # each product that ran was charged first, and the refused one did not run
        assert count_form_products["products"] == len(metered["accepted"]) == 4

    @pytest.mark.parametrize(
        "text, cfg",
        [("(1+x)^1000", CFG_Q), ("(1+d2x)^1000", CFG_Q), ("(1+x+d2x)^32", CFG_2), ("(1+x+dx+d2x)^40", CFG_Q)],
        ids=["(1+x)^1000", "(1+d2x)^1000", "(1+x+d2x)^32", "(1+x+dx+d2x)^40"],
    )
    def test_dense_power_past_the_budget(self, count_form_products, metered, text, cfg):
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse(text, cfg)
        assert err.value.position == text.index("^") + 1  # the exponent token
        accepted, (refused,) = sum(metered["accepted"]), metered["refused"]
        assert accepted <= MAX_WORK < accepted + refused
        assert count_form_products["products"] == len(metered["accepted"])

    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    def test_prices_bound_the_kernel_work(self, monkeypatch, cfg):
        # _price is at least 64 per term pair the kernel multiplies plus 1 per
        # right term a scalar twists, on random products and their powers
        work = {"pairs": 0, "scalars": 0}

        def tally(name):
            work[name] += 1

        lines = {kernel_line(TERM_PAIR): lambda: tally("pairs"), kernel_line(TWISTED_TERM): lambda: tally("scalars")}
        trace_kernel(monkeypatch, lines)
        rng = random.Random(67)
        for _ in range(10):
            a, b = (as_value(random_form(rng, cfg, max_degree=3, max_d2x=2, max_terms=3)) for _ in range(2))
            square = forms._mul(a, a, cfg.alpha, cfg.anyonic)
            fourth = forms._mul(square, square, cfg.alpha, cfg.anyonic)
            for left, right in [(a, b), (b, a), (square, b), (fourth, square), (square, fourth)]:
                work.update(pairs=0, scalars=0)
                forms._mul(left, right, cfg.alpha, cfg.anyonic)
                assert 64 * work["pairs"] + work["scalars"] <= parser._price(left, right, cfg.alpha)

    @pytest.mark.parametrize("text, cfg", COSTLY, ids=COSTLY_IDS)
    def test_costly_inputs_are_refused_by_count(self, count_form_products, metered, text, cfg):
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse(text, cfg)
        pos = err.value.position
        assert text[pos] == "*" or text[pos - 1] == "^"  # a '*' or an exponent token
        accepted, (refused,) = sum(metered["accepted"]), metered["refused"]
        assert accepted <= MAX_WORK < accepted + refused
        if text.startswith("(10"):  # a long constant squares in closed steps: charged, but no kernel product
            assert count_form_products["products"] == 0 < len(metered["accepted"])
        else:
            assert count_form_products["products"] == len(metered["accepted"])

    @pytest.mark.parametrize("text, cfg", COSTLY, ids=COSTLY_IDS)
    def test_parse_scalar_inherits_the_budget(self, text, cfg):
        # parse_scalar works at alpha q, where (x+d2x)^300 costs less than
        # MAX_WORK and is refused only as no scalar
        costly = text != "(x+d2x)^300"
        with pytest.raises(ParseError if costly else ValueError, match="work exceeds" if costly else "not a scalar"):
            parse_scalar(text)

    def test_scaling_by_long_constants_is_priced(self, count_form_products, metered):
        # no product here reaches the kernel, yet each '*' scales a growing
        # constant by 7^5000; unpriced, the chain ran 1.9 s before its powers
        # alone passed MAX_WORK
        text = "*".join(["7^5000"] * 400)
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse(text, CFG_Q)
        assert text[err.value.position] == "*"
        assert count_form_products["products"] == 0
        assert sum(metered["accepted"]) <= MAX_WORK

    def test_library_parse_refuses_a_long_literal_power(self, count_form_products):
        # the CLI refused its output; parse now refuses the power itself
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse("(10^4299)^100", CFG_Q)
        assert err.value.position == 10
        assert count_form_products["products"] == 0

    def test_long_constant_powers_parse(self, count_form_products):
        # the closed steps past 64 bits are priced by _price, which leaves out
        # the bracket word of a constant: charged for it, the d2x power at
        # alpha 2 is refused
        big = "1" + "0" * 4299
        assert parse(f"({big}*d2x)^13", CFG_2) == Form({(0, 13): Poly.constant(10 ** (4299 * 13))})
        assert parse(f"({big})^14", CFG_Q) == Form.scalar(10 ** (4299 * 14))
        assert count_form_products["products"] == 0

    def test_a_chain_of_x_factors_is_priced(self, metered):
        # (1+x)^500 * x is a kernel product: closed, every '*x' would go
        # uncharged, and the 4 KB chain ran 0.6 s
        text = "(1+x)^500" + "*x" * 2043
        assert len(text) == 4095
        with pytest.raises(ParseError, match="work exceeds") as err:
            parse(text, CFG_Q)
        assert text[err.value.position] == "*"

    def test_prices_read_coefficient_sizes(self, metered):
        # the same shape and term pairs, at under 30 and up to 10,000 bits a coefficient
        parse("(1+x)^30", CFG_Q)
        small = sum(metered["accepted"])
        metered["accepted"].clear()
        parse("(1+10^100*x)^30", CFG_Q)
        assert 10 * small < sum(metered["accepted"])


class TestNesting:
    def test_at_the_depth_limit(self):
        text = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert parse(text, CFG_Q) == parse("x", CFG_Q)

    @pytest.mark.parametrize("levels", [MAX_DEPTH + 1, 3000])
    def test_past_the_depth_limit(self, levels):
        text = "(" * levels + "x" + ")" * levels
        with pytest.raises(ParseError, match="nest") as err:
            parse(text, CFG_Q)
        assert err.value.position == MAX_DEPTH  # the first '(' past the limit

    def test_sequential_groups_do_not_add_up(self):
        group = "(" * MAX_DEPTH + "x" + ")" * MAX_DEPTH
        assert parse(f"{group}*{group}", CFG_Q) == parse("x^2", CFG_Q)


class TestScalars:
    def test_parse_scalar_values(self):
        assert parse_scalar("q") == Q
        assert parse_scalar("2") == CycQ(2)
        assert parse_scalar("1+q") == CycQ(1, 1)
        assert parse_scalar("-1-1*q") == Q * Q
        assert parse_scalar("1/2") == CycQ(1) / CycQ(2)
        assert parse_scalar("q^2+q+1") == CycQ(0)

    def test_parse_scalar_rejects_non_constants(self):
        with pytest.raises(ValueError):
            parse_scalar("x")
        with pytest.raises(ValueError):
            parse_scalar("dx")


class TestRender:
    def test_canonical_spellings(self):
        assert render(Form.zero()) == "0"
        assert render(Form.one()) == "1"
        assert render(Form({(1, 0): Poly.monomial(1, Q)})) == "q*x*dx"
        assert render(Form.scalar(Q * Q)) == "-1 - q"
        assert render(Form.from_poly(Poly({0: 1, 1: 1}))) == "1 + x"
        assert render(Form({(1, 0): Poly({0: 1, 1: 1})})) == "(1+x)*dx"
        assert render(Form({(2, 0): Poly.constant(CycQ(1, -1))})) == "(1-1*q)*dx^2"
        assert render(Form({(1, 0): Poly.monomial(1, -1)})) == "-x*dx"
        assert render(Form.basis(2, 3)) == "dx^2*d2x^3"

    def test_terms_come_out_in_canonical_order(self):
        u = Form({(0, 1): Poly.x(), (2, 0): Poly.constant(CycQ(1, -1))})
        assert render(u) == "(1-1*q)*dx^2 + x*d2x"

    def test_round_trip_up_to_the_exponent_cap(self):
        u = parse(f"x^{MAX_EXPONENT}*d2x^{MAX_EXPONENT}", CFG_Q)
        assert render(u) == "x^10000*d2x^10000"
        assert parse(render(u), CFG_Q) == u
        # a product may pass the cap, and then its text does not parse back
        v = parse("x^10000*x^5000", CFG_Q)
        assert render(v) == "x^15000"
        with pytest.raises(ParseError, match="exponent"):
            parse(render(v), CFG_Q)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit")
    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_repr_names_an_integer_past_the_digit_limit(self, cfg):
        # render, str and JSON refuse the int, as str() of the int does; repr
        # writes the overflow in place of the text
        u = parse("10^4300", cfg)
        poly = u.coefficient((0, 0))
        scalar = poly.coefficient(0)
        too_long = f"<an integer of more than {sys.get_int_max_str_digits()} digits>"
        assert repr(u) == f"<Form {too_long} mode={'anyonic' if cfg.anyonic else 'generic'}>"
        assert repr(poly) == f"Poly({too_long}, truncated={cfg.anyonic})"
        assert repr(scalar) == f"CycQ({too_long})"
        for refused in (lambda: render(u), lambda: str(poly), lambda: str(scalar), lambda: json.dumps(u.to_dict())):
            with pytest.raises(ValueError, match="Exceeds the limit"):
                refused()

    def test_renders_are_reparseable_spot_checks(self):
        for text in ["-1 - q", "(1+x)*dx", "q*x*dx - dx^2", "1/2*x^2*d2x^2"]:
            u = parse(text, CFG_1)
            assert parse(render(u), CFG_1) == u


def random_scalar(rng):
    """A scalar of one of five shapes: zero, rational, q-multiple, mixed with |b| = 1, mixed."""
    shape = rng.randrange(5)
    part = Fraction(rng.choice([-1, 1]) * rng.randint(1, 9), rng.choice([1, 1, 2, 3, 7]))
    if shape == 0:
        return CycQ(0)
    if shape == 1:
        return CycQ(part)
    if shape == 2:
        return CycQ(0, part)
    if shape == 3:
        return CycQ(part, rng.choice([-1, 1]))
    return CycQ(part, Fraction(rng.randint(-9, 9) or 1, rng.choice([1, 2, 5])))


def random_text_poly(rng, truncated):
    degrees = rng.sample(range(5), rng.randint(0, 3))
    return Poly({d: random_scalar(rng) for d in degrees}, truncated)


def random_text_form(rng, truncated):
    words = [(k, m) for k in range(3) for m in range(3)]
    chosen = rng.sample(words, rng.randint(0, 3))
    return Form({w: random_text_poly(rng, truncated) for w in chosen}, truncated)


class TestAgainstLegacyRenderer:
    """The merged text path writes exactly what the three old renderers wrote."""

    def test_scalars(self):
        rng = random.Random(71)
        seen = set()
        for _ in range(500):
            c = random_scalar(rng)
            assert str(c) == legacy_scalar_str(c)
            a, b = c.a, c.b
            seen.add("zero" if not c else "negative" if (a or b) < 0 else "positive")
            if a.denominator > 1 or b.denominator > 1:
                seen.add("fraction part")
            if a and abs(b) == 1:
                seen.add("mixed, |b| = 1")
        assert seen == {"zero", "negative", "positive", "fraction part", "mixed, |b| = 1"}

    def test_polynomials(self):
        rng = random.Random(73)
        seen = set()
        for _ in range(500):
            poly = random_text_poly(rng, rng.random() < 0.3)
            assert str(poly) == legacy_poly_str(poly)
            assert repr(poly) == f"Poly({legacy_poly_str(poly)!r}, truncated={poly.truncated})"
            if legacy_poly_str(poly).startswith("-"):
                seen.add("negative leading term")
            constant = poly.coefficient(0)
            if constant.a and constant.b:
                seen.add("mixed constant")
        assert seen == {"negative leading term", "mixed constant"}

    def test_forms(self):
        rng = random.Random(79)
        seen = set()
        for _ in range(500):
            u = random_text_form(rng, rng.random() < 0.3)
            assert render(u) == legacy_render(u)
            assert repr(u) == legacy_form_repr(u)
            assert u.to_dict() == legacy_to_dict(u)
            assert json.dumps(u.to_dict()) == json.dumps(legacy_to_dict(u))
            seen.add({0: "zero", 1: "one word"}.get(len(u.items()), "several words"))
            for mon, poly in u.terms():
                seen.add("one degree" if len(poly.terms()) == 1 else "several degrees")
                if mon != FormMonomial(0, 0) and len(poly.terms()) > 1:
                    seen.add("multi-term coefficient on a word")
                constant = poly.coefficient(0)
                if mon == FormMonomial(0, 0) and constant.a and constant.b:
                    seen.add("split constant")
                for name, power in (("dx", mon.dx), ("d2x", mon.d2x), *(("x", e) for e, _ in poly.terms())):
                    if power:
                        seen.add(f"{name}^1" if power == 1 else f"{name}^n")
                for _, c in poly.terms():
                    seen.add("d == 1" if c.a.denominator == c.b.denominator == 1 else "d != 1")
            if legacy_render(u).startswith("-"):
                seen.add("negative leading term")
        assert seen == {
            "zero",
            "one word",
            "several words",
            "one degree",
            "several degrees",
            "multi-term coefficient on a word",
            "split constant",
            "x^1",
            "x^n",
            "dx^1",
            "dx^n",
            "d2x^1",
            "d2x^n",
            "d == 1",
            "d != 1",
            "negative leading term",
        }

    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    def test_products_and_differentials(self, cfg):
        rng = random.Random(83)
        for _ in range(40):
            u = random_form(rng, cfg, max_degree=3, max_d2x=2)
            v = random_form(rng, cfg, max_degree=3, max_d2x=2)
            for w in (u.mul(v, cfg), differential(u, cfg)):
                assert render(w) == legacy_render(w)
                assert repr(w) == legacy_form_repr(w)
                assert json.dumps(w.to_dict()) == json.dumps(legacy_to_dict(w))
                for _, poly in w.terms():
                    assert str(poly) == legacy_poly_str(poly)
                    for _, coeff in poly.terms():
                        assert str(coeff) == legacy_scalar_str(coeff)


@pytest.mark.parametrize(
    "cfg", [CFG_Q, CFG_1, CalculusConfig(CycQ(2)), CFG_ANY],
    ids=["q", "1", "2", "anyonic"],
)
def test_round_trip_on_random_forms(cfg):
    rng = random.Random(59)
    for _ in range(60):
        u = random_form(rng, cfg)
        assert parse(render(u), cfg) == u


# Forms for the closed-form oracle. One-term forms with a monomial or
# constant coefficient, on the empty word or not, hit each case of the closed
# form; the multi-term forms and the polynomial coefficients on a dx or d2x
# word hit each fall-through to Form.mul.
ORACLE_CFGS = st.sampled_from(
    [
        CFG_Q,
        CFG_ANY,
        CalculusConfig(CycQ(2)),
        CalculusConfig(CycQ(1, 1)),
        CalculusConfig(CycQ(Fraction(1, 2))),
    ]
)
oracle_rationals = st.fractions(min_value=-3, max_value=3, max_denominator=3)
oracle_scalars = st.builds(CycQ, oracle_rationals, oracle_rationals).filter(bool)
oracle_words = st.tuples(st.integers(0, 2), st.integers(0, 2))


@st.composite
def oracle_forms(draw, truncated):
    shape = draw(st.sampled_from(["constant", "monomial", "polynomial", "sum"]))
    if shape == "sum":
        words = draw(st.lists(oracle_words, min_size=0, max_size=3, unique=True))
    else:
        words = [draw(st.sampled_from([(0, 0), (0, 1), (1, 0), (2, 1), (1, 2)]) | oracle_words)]
    if shape == "constant":
        degrees = [0]
    elif shape == "monomial":
        degrees = [draw(st.integers(1, 3))]
    else:
        degrees = None
    terms = {}
    for word in words:
        chosen = degrees or draw(st.lists(st.integers(0, 3), min_size=1, max_size=3, unique=True))
        terms[word] = Poly({d: draw(oracle_scalars) for d in chosen}, truncated)
    return Form(terms, truncated)


@st.composite
def oracle_cases(draw):
    cfg = draw(ORACLE_CFGS)
    return cfg, draw(oracle_forms(cfg.anyonic)), draw(oracle_forms(cfg.anyonic))


ORACLE_SETTINGS = settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow]
)


@st.composite
def closed_cases(draw):
    """(cfg, left, right) for the closed product: right one term c*x**e on
    one word, at a WIDE_CFGS alpha or anyonic; left any form when e == 0,
    else one term on the empty word."""
    cfg = draw(st.sampled_from(WIDE_CFGS))
    t, words = cfg.anyonic, st.tuples(st.integers(0, 2), st.integers(0, 2))
    degrees = st.integers(0, 2 if t else 4)
    e = draw(degrees)
    right = Form({draw(words): Poly({e: draw(wide_scalars)}, t)}, t)
    if e:
        return cfg, Form.from_poly(Poly({draw(degrees): draw(wide_scalars)}, t)), right
    terms = draw(st.dictionaries(words, st.dictionaries(degrees, wide_scalars, min_size=1, max_size=3), max_size=3))
    return cfg, Form({w: Poly(coeffs, t) for w, coeffs in terms.items()}, t), right


class TestClosedForms:
    """The parser's one closed form, in _product, and the powers _power
    squares through it, against the form product they stand in for."""

    @WIDE_SETTINGS
    @given(case=closed_cases())
    @example(case=(CFG_ANY, Form.from_poly(Poly.monomial(2, 3, True)), Form({(1, 0): Poly.monomial(1, 2, True)}, True)))
    @example(case=(CFG_1, Form({(2, 1): Poly.monomial(1, 3)}), Form({(1, 1): Poly.constant(5)})))
    def test_closed_product_matches_the_kernel(self, case):
        # the closed path alone, on one-term right factors, against forms._mul,
        # anyonic products that truncation empties and words past dx**2 included
        cfg, a, b = case
        with mock.patch.object(parser, "_mul", side_effect=AssertionError("not closed")):
            closed = _product(as_value(a), as_value(b), cfg, unmetered, 0)
        assert closed == forms._mul(as_value(a), as_value(b), cfg.alpha, cfg.anyonic)

    @ORACLE_SETTINGS
    @given(case=oracle_cases())
    def test_product_matches_the_form_product(self, case):
        cfg, a, b = case
        assert _product(as_value(a), as_value(b), cfg, unmetered, 0) == as_value(a.mul(b, cfg))

    @ORACLE_SETTINGS
    @given(case=oracle_cases(), n=st.integers(0, 7))
    def test_power_matches_the_repeated_product(self, case, n):
        cfg, base, _ = case
        assert _power(as_value(base), n, cfg, unmetered, 0) == as_value(repeated_product(base, n, cfg))

    @WIDE_SETTINGS
    @given(case=wide_cases())
    def test_product_matches_the_pairwise_oracle(self, case):
        # the kernel's own reference, which shares no code with the kernel:
        # at alpha 0, 1, -1 and q**2, over mixed denominators, on anyonic
        # sums reaching x**3 and on products that cancel
        cfg, a, b = case
        assert _product(as_value(a), as_value(b), cfg, unmetered, 0) == as_value(pairwise_mul(a, b, cfg))

    @settings(WIDE_SETTINGS, max_examples=25)
    @given(case=wide_cases(), n=st.integers(0, 4))
    def test_power_matches_the_pairwise_oracle(self, case, n):
        cfg, base, _ = case
        expected = Form.one(cfg.anyonic)
        for _ in range(n):
            expected = pairwise_mul(expected, base, cfg)
        assert _power(as_value(base), n, cfg, unmetered, 0) == as_value(expected)

    @pytest.mark.parametrize(
        "text",
        [
            "2*x^3*dx^2*d2x",
            "x*dx*d2x^2",
            "q^2*dx*d2x*dx",
            "(x+dx)*d2x",
            "x^128",
            "(2*x^2)^5",
            "(q*dx*d2x)^2",
            "d2x^40*dx^2*(2*dx)^2",
            "(3/2*d2x)^7",
            "5*x^3",
            "(2*x)^7",
            "(3/2*x^2)^5",
            "(1+x)*x^2",
        ],
    )
    def test_closed_forms_make_no_form_product(self, count_form_products, text):
        def form_product(a, b, cfg, charge, pos):
            return as_value(as_form(a, cfg.anyonic).mul(as_form(b, cfg.anyonic), cfg))

        def form_power(base, n, cfg, charge, pos):
            return as_value(repeated_product(as_form(base, cfg.anyonic), n, cfg))

        for cfg in (CFG_Q, CFG_ANY, CalculusConfig(CycQ(2))):
            value = parse(text, cfg)
            assert count_form_products["rewriting"] == 0
            with mock.patch.object(parser, "_product", form_product):
                with mock.patch.object(parser, "_power", form_power):
                    assert value == parse(text, cfg)
            count_form_products.update(products=0, rewriting=0)

    @pytest.mark.parametrize(
        "text", ["d2x*x", "dx*(1+x)", "(x+dx)*(x+d2x)", "(x+dx)^2", "(x*d2x)^2", "((1+x)*dx)^2"]
    )
    def test_other_products_fall_through(self, count_form_products, text):
        parse(text, CFG_Q)
        assert count_form_products["rewriting"] > 0



@contextlib.contextmanager
def no_int_text_limit():
    """Lift the interpreter's int/str digit limit inside the block, so that
    render can write the long scalars that twisting x**10000 makes; the
    parser's literal limit stays MAX_DIGITS (see _digit_limit)."""
    saved = getattr(sys, "get_int_max_str_digits", int)()
    if saved:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if saved:
            sys.set_int_max_str_digits(saved)


B64 = 2**64
FOLD_EXPONENTS = ["", "^0", "^1", "^2", "^3", "^4", "^5", "^9999", "^10000", "^10001"]
FOLD_LITERALS = ["0", "1", "7", str(B64 - 1), str(B64), "10^30", "6/4", f"{2 * B64 + 2}/2", f"{3**45}/{B64 * 4}",
                 f"{B64 * 4}/{B64}"]
FOLD_GROUPS = ["(1+x)", "(x+dx)", "(q*d2x)", "(2*x)^2"]
fold_factors = st.one_of(
    st.builds("".join, st.tuples(st.sampled_from(["x", "dx", "d2x", "q"]), st.sampled_from(FOLD_EXPONENTS))),
    st.sampled_from(FOLD_LITERALS),
    st.sampled_from(FOLD_GROUPS),
)
fold_terms = st.lists(fold_factors, min_size=1, max_size=6).map("*".join)


@st.composite
def fold_texts(draw):
    """A product of 1 to 6 factors in any order, maybe after a '-', maybe plus or minus a second one."""
    text = ("-" if draw(st.booleans()) else "") + draw(fold_terms)
    if draw(st.booleans()):
        text += draw(st.sampled_from("+-")) + draw(fold_terms)
    return text


class TestTermFold:
    """term reads a product of generator powers and literals as one monomial
    c*x^e*dx^k*d2x^m while each step is closed, and hands the first other
    step to _product: the value, text, JSON and errors are the plain
    evaluator's, and the steps and charges are those of the left-to-right
    product."""

    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(text=fold_texts())
    @example(text="d2x*x")
    @example(text="dx*x^2")
    @example(text="d2x^2*dx*x")
    @example(text="2*q*x^2*d2x^2*dx*dx")
    @example(text="x*x*x*dx")
    @example(text="3/2*x*dx*0*d2x*x^10001")
    @example(text="1/2*x^2*3*dx*q^2*d2x")
    @example(text=f"x*dx*{B64}*d2x*{B64 - 1}")
    @example(text="d2x^5*dx^2*x^2*q^4")
    def test_products_match_the_oracle(self, cfg, text):
        with no_int_text_limit():
            compare_with_oracle(text, cfg)

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_2], ids=["q", "2"])
    @pytest.mark.parametrize(
        "text",
        ["x^3*dx^2*d2x", "q^2*dx*d2x", "2*x*x", "5*x^2*dx*d2x^2", "x^2*d2x", "x*dx", "x*d2x + dx^2",
         "q^5*x^4*dx^2*d2x^3", "3/2*q*x^2*dx*d2x^2", "x^1500"],
    )
    def test_typed_terms_make_no_step(self, monkeypatch, count_form_products, metered, text, cfg):
        # the examples of README.md and tests/test_cli.py, typed in left-normal order
        steps = []
        product = parser._product
        monkeypatch.setattr(parser, "_product", lambda *args: steps.append(args) or product(*args))
        assert parse(text, cfg) == form_parser.parse(text, cfg)
        assert steps == [] and count_form_products["products"] == 0
        assert metered == {"accepted": [], "refused": []}

    @pytest.mark.parametrize("text", ["5*x^79*dx^2*d2x", "x^3*dx^2*d2x", "x*x*x*dx", "x*dx^2*d2x*dx*(2*q)^3*x^2"])
    def test_anyonic_zero_terms_make_no_kernel_call(self, count_form_products, metered, text):
        # past a zero factor each later factor is still read, and its product is zero, unpriced
        assert parse(text, CFG_ANY).is_zero()
        assert count_form_products["products"] == 0
        assert metered == {"accepted": [], "refused": []}

    @pytest.mark.parametrize("text", ["dx*x", "d2x*x"])
    def test_x_past_a_word_makes_one_kernel_call(self, count_form_products, text):
        assert parse(text, CFG_2) == form_parser.parse(text, CFG_2)
        assert count_form_products == {"products": 1, "rewriting": 1}

    @pytest.mark.parametrize("text, cfg, prices", [
        (f"x*dx*{B64}", CFG_Q, [327]),
        (f"3/2*d2x^2*{B64}*x", CFG_2, [327, 914]),  # the literal's price, then the kernel's
        (f"{B64}*x*{B64 - 1}", CFG_Q, []),  # a first factor is no step; 2^64 - 1 is short
        (f"q*x^2*{2 * B64 + 1}/2", CFG_Q, [327]),
        (f"x*1/{B64}", CFG_ANY, [327]),
        (f"5*x*{B64}*{B64}*dx", CFG_2, [327, 333]),
        (f"7*{3**45}/{B64 * 4}*d2x", CFG_2, [327]),
    ])
    def test_long_right_literals_are_charged(self, metered, text, cfg, prices):
        # a right literal with an int of 64 bits or more leaves the fold for
        # _product, which prices it; the prices are those of the parser
        # before the fold
        assert parse(text, cfg) == form_parser.parse(text, cfg)
        assert metered == {"accepted": prices, "refused": []}

CORPUS_CFGS = [
    CFG_Q,
    CalculusConfig(CycQ(2)),
    CalculusConfig(CycQ(1, 1)),
    CalculusConfig(CycQ(Fraction(1, 2))),
    POWER_CFGS[6],
    CFG_ANY,
]
CORPUS_IDS = ["q", "2", "1+q", "1/2", "(-3+5q)/7", "anyonic"]
TYPED_COEFFS = ["2", "5", "1/2", "3/2", "q", "q^2", "(1-2*q)", "7/3*q", "0"]


def typed_factors(rng):
    """The factors of a left-normal term c*x^a*dx^k*d2x^m as a user types
    it; one term in 20 takes a in 4..128."""
    factors = [rng.choice(TYPED_COEFFS)] if rng.random() < 0.3 else []
    a = rng.randint(4, 128) if rng.random() < 0.05 else rng.randint(0, 3)
    for name, power in (("x", a), ("dx", rng.randint(0, 2)), ("d2x", rng.randint(0, 2))):
        if power:
            factors.append(name if power == 1 else f"{name}^{power}")
    return factors or ["1"]


def typed_sums(seed, count, shuffle=False):
    """Seeded sums of 1 to 4 typed terms, joined by '+' or '-'; shuffle puts
    each term's factors in random order, so that products need rewriting."""
    rng = random.Random(seed)
    texts = []
    for _ in range(count):
        terms = []
        for _ in range(rng.randint(1, 4)):
            factors = typed_factors(rng)
            if shuffle:
                rng.shuffle(factors)
            terms.append("*".join(factors))
        text = ("-" if rng.random() < 0.1 else "") + terms[0]
        texts.append(text + "".join(rng.choice([" + ", " - ", "+", "-"]) + t for t in terms[1:]))
    return texts


def assert_canonical_value(value):
    """A parser value: no empty word, and every scalar nonzero in lowest terms."""
    for (k, m), poly in value.items():
        assert 0 <= k <= 2 and m >= 0 and poly
        for e, (a, b, d) in poly.items():
            assert e >= 0 and (a or b) and d > 0 and math.gcd(a, b, d) == 1


class TestAgainstFormParser:
    """parse against the plain evaluator of tests/form_parser.py, whose every
    '*' is Form.mul, with no closed form and no work budget."""

    @pytest.mark.parametrize("cfg", CORPUS_CFGS, ids=CORPUS_IDS)
    def test_typed_sums(self, cfg):
        for text in typed_sums(101, 1000):
            compare_with_oracle(text, cfg)

    @pytest.mark.parametrize("cfg", CORPUS_CFGS, ids=CORPUS_IDS)
    def test_typed_sums_with_shuffled_factors(self, cfg, count_form_products):
        for text in typed_sums(103, 300, shuffle=True):
            compare_with_oracle(text, cfg)
        assert count_form_products["rewriting"]  # some products needed rewriting


class TestParseCounts:
    """Typed sums need no rewriting: one Form per parse, and no CycQ at all,
    since a Form stores the parser's ints."""

    def test_one_form_per_parse_and_no_more_scalars_than_coefficients(
        self, monkeypatch, count_form_products
    ):
        counts = {"forms": 0, "scalars": 0}
        init, wrap, new, scalar_init = Form.__init__, forms._form, cyclotomic._new, CycQ.__init__

        def counting_init(self, *args):
            counts["forms"] += 1
            init(self, *args)

        def counting_form(*args):  # builds its Form without __init__
            counts["forms"] += 1
            return wrap(*args)

        def counting_new(cls):  # behind cyclotomic._of
            counts["scalars"] += 1
            return new(cls)

        def counting_scalar_init(self, *args):
            counts["scalars"] += 1
            scalar_init(self, *args)

        monkeypatch.setattr(Form, "__init__", counting_init)
        for module in (forms, parser):
            monkeypatch.setattr(module, "_form", counting_form)
        monkeypatch.setattr(cyclotomic, "_new", counting_new)
        monkeypatch.setattr(CycQ, "__init__", counting_scalar_init)
        texts = typed_sums(107, 500)
        coefficients = 0
        for cfg in CORPUS_CFGS:
            for text in texts:
                coefficients += sum(len(coeffs) for coeffs in parse(text, cfg)._terms.values())
        assert count_form_products["rewriting"] == 0
        assert counts["forms"] == len(texts) * len(CORPUS_CFGS)
        assert coefficients and counts["scalars"] == 0


class TestSharedValues:
    """Values are canonical and never mutated, so the atoms are shared safely."""

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_parsing_twice_leaves_the_atoms_alone(self, cfg):
        atoms = copy.deepcopy(parser._ATOMS)
        assert set(atoms) == {"x", "q", "dx", "d2x"}
        for text in ["x + x", "x - x + 1", "x*x", "dx*dx", "(x+dx)^2", "x", "dx", "d2x", "q", "-x", "dx^2"]:
            first, second = parse(text, cfg), parse(text, cfg)
            assert first == second == form_parser.parse(text, cfg)
            assert render(first) == render(second)
            assert_canonical_value(parser._Parser(parser._tokenize(f"({text})"), cfg).base())
            # nothing done with one parse's value changes the other's, or the generator names
            for derived in (differential_power(first, 3, cfg), first + second, first.mul(second, cfg)):
                assert_canonical_value(derived._terms)
            assert first.to_dict() == second.to_dict()
            assert parser._ATOMS == atoms

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_values_are_reduced_after_every_operation(self, cfg):
        # each inner value is 1 before the outer power sees it
        for text in ["(x - x + 1)^10000", "((1/2+1/2)^10000)^10000"]:
            assert parse(text, cfg) == Form.one(cfg.anyonic)


# The Fraction-based text primitives the renderer used before it wrote
# rationals from CycQ.ratios(); the reference for TestAgainstFractionText.


def fraction_signed(value, tail):
    mag = abs(value)
    sign = "-" if value < 0 else "+"
    if not tail:
        return sign, str(mag)
    return sign, tail if mag == 1 else f"{mag}*{tail}"


def fraction_piece(coeff, tail):
    a, b = coeff.a, coeff.b
    if not b:
        return fraction_signed(a, tail)
    if not a:
        return fraction_signed(b, f"q*{tail}" if tail else "q")
    text = f"{a}{'-' if b < 0 else '+'}{abs(b)}*q"
    if tail:
        return "+", f"({text})*{tail}"
    return ("-", text[1:]) if a < 0 else ("+", text)


def fraction_poly_text(poly):
    pieces = [fraction_piece(c, parser._word(d)) for d, c in poly.terms()]
    return parser._join(pieces, "")


def fraction_render(u):
    pieces = []
    for mon, poly in u.terms():
        terms = poly.terms()
        if (mon.dx or mon.d2x) and len(terms) > 1:
            pieces.append(("+", f"({fraction_poly_text(poly)})*{parser._word(0, *mon)}"))
            continue
        for degree, coeff in terms:
            tail = parser._word(degree, *mon)
            if tail:
                pieces.append(fraction_piece(coeff, tail))
                continue
            if coeff.a:
                pieces.append(fraction_signed(coeff.a, ""))
            if coeff.b:
                pieces.append(fraction_signed(coeff.b, "q"))
    return parser._join(pieces, " ")


TEXT_CFGS = [CFG_Q, CalculusConfig(CycQ(2)), CalculusConfig(CycQ(1, 1)), POWER_CFGS[6]]
TEXT_IDS = ["q", "2", "1+q", "(-3+5q)/7"]
text_rationals = st.one_of(
    st.integers(-30, 30),
    st.fractions(min_value=-5, max_value=5, max_denominator=12),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
text_scalars = st.builds(CycQ, text_rationals, text_rationals)


class TestAgainstFractionText:
    """The integer text path writes exactly what the Fraction-based one wrote."""

    @given(text_scalars, st.sampled_from(["", "x", "x^2*dx*d2x^3"]))
    def test_scalars(self, c, tail):
        assert parser._piece(c.ratios(), tail) == fraction_piece(c, tail)
        assert str(c) == parser._join([fraction_piece(c, "")], "")

    @given(st.dictionaries(st.integers(0, 4), text_scalars, max_size=4), st.booleans())
    def test_polynomials(self, coeffs, truncated):
        poly = Poly(coeffs, truncated)
        assert str(poly) == fraction_poly_text(poly)

    @pytest.mark.parametrize("cfg", TEXT_CFGS, ids=TEXT_IDS)
    @settings(deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(data=st.data())
    def test_forms_products_and_differentials(self, cfg, data):
        u = data.draw(oracle_forms(cfg.anyonic))
        v = data.draw(oracle_forms(cfg.anyonic))
        for w in (u, u.mul(v, cfg), differential(u, cfg), u.left_mul(cfg.alpha)):
            assert render(w) == fraction_render(w)
            for _, poly in w.items():
                assert str(poly) == fraction_poly_text(poly)
