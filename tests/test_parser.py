"""Parsing, canonical rendering and round trips."""

from __future__ import annotations

import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from qforms.calculus import CalculusConfig
from qforms.checks import random_form
from qforms.cyclotomic import ONE, Q, CycQ
from qforms.differential import differential
from qforms import parser
from qforms.forms import Form, FormMonomial
from qforms.parser import (
    MAX_DEPTH,
    MAX_DIGITS,
    MAX_EXPONENT,
    MAX_POWER_TERMS,
    ParseError,
    _power,
    _power_terms,
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


def repeated_product(base, n, cfg):
    """Reference power: n form products, left to right from 1."""
    out = Form.one(cfg.anyonic)
    for _ in range(n):
        out = out.mul(base, cfg)
    return out


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


def legacy_render(u):
    pieces = []
    for mon, poly in u.terms():
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


def legacy_form_repr(u):
    mode = "anyonic" if u.truncated else "generic"
    return f"<Form {legacy_render(u)!r} mode={mode}>"


@pytest.fixture
def count_form_products(monkeypatch):
    """Count Form.mul calls; returns a one-element list holding the count."""
    calls = [0]
    mul = Form.mul

    def counting_mul(self, other, cfg):
        calls[0] += 1
        return mul(self, other, cfg)

    monkeypatch.setattr(Form, "mul", counting_mul)
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
        assert parse("x^128", CFG_Q) == Form.from_poly(Poly.monomial(128))
        assert count_form_products[0] <= 15

    def test_exponent_at_the_cap(self):
        u = parse(f"x^{MAX_EXPONENT}", CFG_Q)
        assert u == Form.from_poly(Poly.monomial(MAX_EXPONENT))

    def test_exponent_past_the_cap_computes_nothing(self, count_form_products):
        with pytest.raises(ParseError, match="exponent") as err:
            parse(f"x^{MAX_EXPONENT + 1}", CFG_Q)
        assert err.value.position == 2
        assert count_form_products[0] == 0

    def test_nested_power_at_the_cap(self):
        assert parse("(x^100)^100", CFG_Q) == Form.from_poly(Poly.monomial(MAX_EXPONENT))

    @pytest.mark.parametrize("base", ["x^100", "d2x^100", "x*d2x^50 + x^100"])
    def test_nested_power_past_the_cap_computes_nothing(self, count_form_products, base):
        parse(f"({base})", CFG_Q)
        built = count_form_products[0]
        with pytest.raises(ParseError, match="power exceeds") as err:
            parse(f"({base})^101", CFG_Q)
        assert err.value.position == len(base) + 3  # the exponent token
        assert count_form_products[0] == 2 * built  # the outer '^' made no product

    def test_dense_power_at_the_term_bound(self):
        # 31 * 32 = 992 predicted terms at N = 30, 1,056 at N = 31
        base = parse("1+x+d2x", CFG_Q)
        assert _power_terms(base, 30) <= MAX_POWER_TERMS < _power_terms(base, 31)
        assert parse("(1+x+d2x)^30", CFG_Q) == repeated_product(base, 30, CFG_Q)

    @pytest.mark.parametrize(
        "text", ["(1+x)^1000", "(1+d2x)^1000", "(1+x+dx+d2x)^18", "(1+x+d2x)^31"]
    )
    def test_dense_power_past_the_term_bound_computes_nothing(self, count_form_products, text):
        with pytest.raises(ParseError, match=f"exceed {MAX_POWER_TERMS} terms") as err:
            parse(text, CFG_Q)
        assert err.value.position == text.index("^") + 1  # the exponent token
        assert count_form_products[0] == 0

    @pytest.mark.parametrize("cfg", POWER_CFGS, ids=POWER_IDS)
    def test_predicted_terms_bound_the_power(self, cfg):
        rng = random.Random(67)
        tight = past_multisets = 0
        # (1+x)^n meets the bound; x*d2x and d2x*x leave a bracket word off alpha == q
        bases = [parse("1+x", cfg), parse("x+d2x", cfg)]
        while len(bases) < 20:
            base = random_form(rng, cfg, max_degree=2, max_d2x=2, max_terms=3)
            bases += [base] if base else []
        for base in bases:
            t = sum(len(poly.items()) for _, poly in base.items())
            for n in range(2, 6):
                actual = sum(len(poly.items()) for _, poly in repeated_product(base, n, cfg).items())
                assert actual <= _power_terms(base, n)
                tight += actual == _power_terms(base, n)
                past_multisets += actual > math.comb(n + t - 1, n)
        assert tight  # the bound is reached
        if cfg.alpha != Q:
            assert past_multisets  # one multiset can leave two terms

    def test_exponent_tokens_of_any_length(self):
        assert parse("x^" + "0" * 5000 + "3", CFG_Q) == parse("x^3", CFG_Q)
        with pytest.raises(ParseError, match="exponent"):
            parse("x^" + "9" * 5000, CFG_Q)


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
            for mon, poly in u.terms():
                if mon != FormMonomial(0, 0) and len(poly.terms()) > 1:
                    seen.add("multi-term coefficient on a word")
                constant = poly.coefficient(0)
                if mon == FormMonomial(0, 0) and constant.a and constant.b:
                    seen.add("split constant")
            if legacy_render(u).startswith("-"):
                seen.add("negative leading term")
            if u.is_zero():
                seen.add("zero")
        assert seen == {
            "multi-term coefficient on a word",
            "split constant",
            "negative leading term",
            "zero",
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
# constant coefficient, on the empty word or not, hit each closed form; the
# multi-term forms and the polynomial coefficients on a dx or d2x word hit
# each fall-through to Form.mul.
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


class TestClosedForms:
    """_product and _power against the form product they stand in for."""

    @ORACLE_SETTINGS
    @given(case=oracle_cases())
    def test_product_matches_the_form_product(self, case):
        cfg, a, b = case
        assert _product(a, b, cfg) == a.mul(b, cfg)

    @ORACLE_SETTINGS
    @given(case=oracle_cases(), n=st.integers(0, 7))
    def test_power_matches_the_repeated_product(self, case, n):
        cfg, base, _ = case
        assert _power(base, n, cfg) == repeated_product(base, n, cfg)

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
        ],
    )
    def test_closed_forms_make_no_form_product(self, count_form_products, text):
        for cfg in (CFG_Q, CFG_ANY, CalculusConfig(CycQ(2))):
            value = parse(text, cfg)
            assert count_form_products[0] == 0
            with mock.patch.object(parser, "_product", lambda a, b, cfg: a.mul(b, cfg)):
                with mock.patch.object(parser, "_power", repeated_product):
                    assert value == parse(text, cfg)
            count_form_products[0] = 0

    @pytest.mark.parametrize(
        "text", ["d2x*x", "dx*(1+x)", "(x+dx)*(x+d2x)", "(x+dx)^2", "(x*d2x)^2", "((1+x)*dx)^2"]
    )
    def test_other_products_fall_through(self, count_form_products, text):
        parse(text, CFG_Q)
        assert count_form_products[0] > 0
