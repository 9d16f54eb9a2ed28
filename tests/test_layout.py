"""A Form stores the parser's canonical value map, word (k, m) -> degree ->
(a, b, d), and parse, Form.mul, differential, render, to_dict, Form.__add__
and __eq__ compute on those ints: none of them builds a CycQ or a Poly.
A Poly stores the same map as one word does, and its sums, products,
scalings and negation, Form(...) of Polys, Form's Poly views and from_dict
build no CycQ."""

from __future__ import annotations

import random
from fractions import Fraction
from math import gcd

import pytest

from qforms import cyclotomic
from qforms.calculus import CalculusConfig, derivative, q_bracket, twist, twist_power
from qforms.checks import random_closed_even_form, random_form, random_homogeneous_form, random_poly, run_suites
from qforms.cyclotomic import ONE, Q, CycQ, q_power
from qforms.differential import differential
from qforms.forms import Form
from qforms.parser import parse, render
from qforms.polynomial import Poly
from test_parser import CORPUS_CFGS, CORPUS_IDS, typed_sums

SAMPLE_CFGS = [CalculusConfig(CycQ(2)), CalculusConfig(Q, anyonic=True), CalculusConfig(CycQ(1, 1)), CalculusConfig(ONE)]
SAMPLE_IDS = ["2", "anyonic", "1+q", "1"]


def assert_layout(form):
    """form._terms is the canonical int map and nothing else: plain int-tuple
    words in range, each with a nonempty coefficient map as assert_coeffs
    checks it."""
    assert type(form._terms) is dict
    for word, coeffs in form._terms.items():
        assert type(word) is tuple and len(word) == 2 and all(type(p) is int for p in word)
        assert 0 <= word[0] <= 2 and word[1] >= 0
        assert coeffs
        assert_coeffs(coeffs, form.truncated)


def assert_coeffs(coeffs, truncated):
    """A coefficient map of a Form word or a Poly: int degrees, canonical
    nonzero (a, b, d) triples of plain ints, no degree past 2 in anyonic mode."""
    assert type(coeffs) is dict
    for e, scalar in coeffs.items():
        assert type(e) is int and 0 <= e and (e < 3 or not truncated)
        assert type(scalar) is tuple and len(scalar) == 3 and all(type(x) is int for x in scalar)
        a, b, d = scalar
        assert (a or b) and d > 0 and gcd(a, b, d) == 1


@pytest.fixture
def no_scalar_objects(monkeypatch):
    """Make building any CycQ or Poly raise: cyclotomic._new, behind _of;
    Poly._wrap; and both __init__s, behind CycQ(...) and Poly(...)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a CycQ or a Poly was built")

    monkeypatch.setattr(cyclotomic, "_new", forbidden)
    monkeypatch.setattr(Poly, "_wrap", forbidden)
    for cls in (CycQ, Poly):
        monkeypatch.setattr(cls, "__init__", forbidden)


def test_the_guard_catches_scalar_objects(no_scalar_objects):
    for build in (lambda: CycQ(1), lambda: Poly.one(), lambda: Q * Q, lambda: Form.one(), lambda: Form.basis(1, 0).items()):
        with pytest.raises(AssertionError, match="was built"):
            build()


@pytest.mark.parametrize("cfg", CORPUS_CFGS, ids=CORPUS_IDS)
def test_typed_sums_build_no_scalar_objects(cfg, no_scalar_objects):
    # the shuffled sums need rewriting, so they reach the kernel and its table
    for text in typed_sums(109, 60) + typed_sums(113, 40, shuffle=True):
        u = parse(text, cfg)
        v = u.mul(u, cfg)
        for w in (u, v, differential(u, cfg), u + v):
            assert_layout(w)
            assert render(w) and w.to_dict()
        assert u + v == v + u


@pytest.mark.parametrize("cfg", SAMPLE_CFGS, ids=SAMPLE_IDS)
def test_check_samples_build_no_scalar_objects(cfg, no_scalar_objects):
    results = run_suites(("assoc", "leibniz", "d3"), cfg, 5, 20, 6)
    assert all(r.passed for r in results)
    rng = random.Random(5)
    for _ in range(20):
        u, v = random_form(rng, cfg), random_homogeneous_form(rng, cfg)
        for w in (u, v, u.mul(v, cfg), differential(u, cfg), u + v, u.left_mul(q_power(2))):
            assert_layout(w)
            assert render(w) and w.to_dict()
        assert u == u and u.mul(v, cfg) == u.mul(v, cfg)


def test_items_keep_the_storage_order():
    # items() lists words and degrees as stored, which for Form(...) is the
    # order of its arguments; terms() and to_dict() sort
    u = Form({(2, 0): Poly({2: 1, 0: Q}), (0, 1): Poly({1: 2}), (1, 0): Poly({4: 1, 3: 1})})
    assert [(tuple(mon), list(dict(p.items()))) for mon, p in u.items()] == [((2, 0), [2, 0]), ((0, 1), [1]), ((1, 0), [4, 3])]
    assert [tuple(mon) for mon, _ in u.terms()] == [(1, 0), (2, 0), (0, 1)]
    rng = random.Random(3)
    for cfg in SAMPLE_CFGS:
        w = random_form(rng, cfg).mul(random_form(rng, cfg), cfg)
        assert [(tuple(mon), list(dict(p.items()))) for mon, p in w.items()] == [
            (word, list(coeffs)) for word, coeffs in w._terms.items()
        ]


@pytest.mark.parametrize("cfg", SAMPLE_CFGS, ids=SAMPLE_IDS)
def test_every_construction_stores_the_int_map(cfg):
    rng = random.Random(7)
    t = cfg.anyonic
    c = CycQ(Fraction(2, 3), -1)
    for _ in range(20):
        u, v = random_form(rng, cfg), random_closed_even_form(rng, cfg)
        f = next(iter(v.items()))[1]
        built = [
            u, v, -u, u - v, u.left_mul(f), u.left_mul(c), u.left_mul(0), f * u,
            Form(dict(u.items()), t), Form.from_dict(u.to_dict()), parse(render(u), cfg),
            Form.zero(t), Form.one(t), Form.basis(2, 3, t), Form.scalar(c, t), Form.from_poly(f),
            *u.decompose().values(),
        ]
        for w in built:
            assert_layout(w)


@pytest.fixture
def forbid_cycq(monkeypatch):
    """A switch that makes building any CycQ raise from then on:
    cyclotomic._new, behind _of, and CycQ.__init__, behind CycQ(...)."""

    def forbidden(*args, **kwargs):
        raise AssertionError("a CycQ was built")

    def switch():
        monkeypatch.setattr(cyclotomic, "_new", forbidden)
        monkeypatch.setattr(CycQ, "__init__", forbidden)

    return switch


def test_the_cycq_guard_catches_scalars(forbid_cycq):
    f = Poly.x()
    forbid_cycq()
    for build in (lambda: CycQ(1), lambda: Q * Q, lambda: f.items(), lambda: f.coefficient(1), lambda: f.terms()):
        with pytest.raises(AssertionError, match="CycQ was built"):
            build()


def test_poly_stores_the_int_map_of_a_form_word():
    c = CycQ(Fraction(2, 3), -1)
    p = Poly({0: Fraction(6, 4), 1: c, 2: 0, 4: q_power(2), 5: True, 6: CycQ(0)})
    assert p._terms == {0: (3, 0, 2), 1: (2, -3, 3), 4: (-1, -1, 1), 5: (1, 0, 1)}
    assert list(p._terms) == [0, 1, 4, 5]
    assert Form({(1, 2): p})._terms[1, 2] is p._terms
    assert Form({(1, 2): p}).coefficient((1, 2))._terms is p._terms


@pytest.mark.parametrize("cfg", SAMPLE_CFGS, ids=SAMPLE_IDS)
def test_every_poly_construction_stores_the_int_map(cfg):
    rng = random.Random(17)
    t = cfg.anyonic
    c = CycQ(Fraction(2, 3), -1)
    for _ in range(20):
        f, g = random_poly(rng, t), random_poly(rng, t, 2)
        h = Poly({0: Fraction(6, 4), 1: c, 2: 0, 3: CycQ(0), 4: q_power(2), 5: True}, t)
        u = Form({(0, 1): f, (2, 0): h, (1, 1): g}, t)
        built = [
            f, g, h, Poly(None, t), Poly.zero(t), Poly.one(t), Poly.x(t), Poly.constant(c, t),
            Poly.monomial(2, Fraction(-4, 6), t), Poly(dict(f.items()), t),
            f + g, f - g, f - f, -f, f * g, f * h, h * h, g * g * g,
            f.scale(c), f.scale(0), f.scale(Fraction(3, 9)), 3 * f, f * c, c * f, f * Fraction(1, 2),
            twist(f, cfg), twist_power(h, 3, cfg), derivative(f, cfg), q_bracket(f, cfg),
            u.coefficient((0, 1)), u.coefficient((2, 2)), *(p for _, p in u.items()), *(p for _, p in u.terms()),
        ]
        for p in built:
            assert type(p) is Poly and p.truncated == t
            assert_coeffs(p._terms, t)


@pytest.mark.parametrize("cfg", SAMPLE_CFGS, ids=SAMPLE_IDS)
def test_poly_arithmetic_and_form_views_build_no_cycq(cfg, forbid_cycq):
    rng = random.Random(19)
    t = cfg.anyonic
    c = CycQ(Fraction(-5, 6), 2)
    cases = [(random_poly(rng, t), random_poly(rng, t), random_form(rng, cfg)) for _ in range(20)]
    mode = "anyonic" if t else "generic"
    repeats = {"mode": mode, "terms": [  # repeated words and degrees, cancellations, a word that cancels
        {"dx": 1, "d2x": 0, "coeff": [[2, [1, 2, 0, 1]], [0, [3, 1, 1, 3]], [2, [1, 2, 0, 1]]]},
        {"dx": 0, "d2x": 2, "coeff": [[0, [1, 1, 0, 1]], [1, [5, 1, 0, 1]]]},
        {"dx": 1, "d2x": 0, "coeff": [[2, [-1, 1, 0, 1]], [1, [4, 6, -2, 4]]]},
        {"dx": 0, "d2x": 2, "coeff": [[0, [-1, 1, 0, 1]], [1, [-5, 1, 0, 1]]]},
    ]}
    forbid_cycq()
    for f, g, u in cases:
        for p in (f + g, f - g, -f, f * g, f.scale(c), f.scale(Fraction(1, 3)), f.scale(-2), 2 * f, f * c, c * f):
            assert_coeffs(p._terms, t)
        w = Form({(0, 1): f, (2, 0): g, (1, 3): f * g}, t)
        assert_layout(w)
        views = [w.coefficient((0, 1)), w.coefficient((1, 1)), *(p for _, p in w.items()), *(p for _, p in u.terms())]
        assert all(type(p) is Poly for p in views)
        assert Form.from_dict(u.to_dict()) == u
    from_repeats = Form.from_dict(repeats)
    assert_layout(from_repeats)
    assert from_repeats._terms == {(1, 0): {0: (9, 1, 3), 1: (4, -3, 6)}}
