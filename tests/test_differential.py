"""Exterior differential: examples, nilpotency and closedness."""

from __future__ import annotations

import importlib
import random
from fractions import Fraction

import pytest

from qforms.calculus import CalculusConfig, derivative
from qforms.checks import (
    random_closed_even_form,
    random_form,
    random_homogeneous_form,
    random_odd_form,
    random_poly,
)
from qforms.cyclotomic import ONE, Q, CycQ, q_power
from qforms.differential import differential, differential_power, is_closed
from qforms.forms import Form, FormMonomial
from qforms.polynomial import ModeMismatchError, Poly

# the package re-exports the function differential under the module's name
differential_module = importlib.import_module("qforms.differential")

CFG_Q = CalculusConfig(Q)
CFG_1 = CalculusConfig(ONE)
CFG_ANY = CalculusConfig(Q, anyonic=True)
# q/2 and 2q differ from q in one int each, so _derived's test for alpha == q
# must read all three
ALL_CFGS = [
    CFG_Q, CFG_1, CalculusConfig(CycQ(2)), CalculusConfig(CycQ(1, 1)), CFG_ANY,
    CalculusConfig(CycQ(0, Fraction(1, 2))), CalculusConfig(CycQ(0, 2)),
]
CFG_IDS = ["q", "1", "2", "1+q", "anyonic", "q/2", "2q"]


class TestExamples:
    def test_on_functions(self):
        assert differential(Form.from_poly(Poly.x()), CFG_Q) == Form.basis(1, 0)
        assert differential(Form.from_poly(Poly.monomial(2)), CFG_1) == Form(
            {(1, 0): Poly.monomial(1, 2)}
        )

    def test_on_x_dx(self):
        u = Form({(1, 0): Poly.x()})
        expected = Form({(0, 1): Poly.x(), (2, 0): Poly.one()})
        assert differential(u, CFG_Q) == expected

    def test_on_the_generators(self):
        assert differential(Form.basis(1, 0), CFG_Q) == Form.basis(0, 1)
        assert differential(Form.basis(0, 1), CFG_Q).is_zero()
        # d(dx^2) == -dx*d2x, matching d(dx)*dx + q*dx*d(dx) after the swap
        assert differential(Form.basis(2, 0), CFG_Q) == Form.basis(1, 1).left_mul(-1)

    def test_iterated(self):
        xf = Form.from_poly(Poly.x())
        assert differential_power(xf, 0, CFG_Q) == xf
        assert differential_power(xf, 2, CFG_Q) == Form.basis(0, 1)
        assert differential_power(xf, 3, CFG_Q).is_zero()
        assert differential_power(Form.from_poly(Poly.monomial(2)), 3, CFG_1).is_zero()

    def test_iteration_stops_once_the_form_is_zero(self, monkeypatch):
        calls = 0

        def counting(u, cfg):
            nonlocal calls
            calls += 1
            return differential(u, cfg)

        monkeypatch.setattr(differential_module, "differential", counting)
        # x -> dx -> d2x -> 0, then nothing is left to differentiate
        assert differential_power(Form.from_poly(Poly.x()), 100_000, CFG_Q).is_zero()
        assert calls == 3
        calls = 0
        assert differential_power(Form.zero(), 100_000, CFG_Q).is_zero()
        assert calls == 0
        # d^3 still differentiates a form whose first two images are nonzero
        calls = 0
        u = Form.from_poly(Poly.monomial(4))
        assert differential_power(u, 3, CFG_Q).is_zero()
        assert calls == 3

    def test_negative_iteration_rejected(self):
        with pytest.raises(ValueError):
            differential_power(Form.zero(), -1, CFG_Q)

    def test_mode_mismatch_rejected(self):
        with pytest.raises(ModeMismatchError):
            differential(Form.basis(1, 0), CFG_ANY)


@pytest.mark.parametrize("cfg", ALL_CFGS, ids=CFG_IDS)
class TestStructuralLaws:
    def test_cube_vanishes(self, cfg):
        rng = random.Random(29)
        for _ in range(40):
            u = random_form(rng, cfg)
            assert differential_power(u, 3, cfg).is_zero()

    def test_graded_leibniz(self, cfg):
        rng = random.Random(31)
        for _ in range(25):
            u = random_homogeneous_form(rng, cfg, max_degree=4)
            v = random_form(rng, cfg, max_degree=4)
            lhs = differential(u.mul(v, cfg), cfg)
            rhs = differential(u, cfg).mul(v, cfg) + u.mul(
                differential(v, cfg), cfg
            ).left_mul(q_power(u.grade() or 0))
            assert lhs == rhs

    def test_odd_forms_die_after_two_applications(self, cfg):
        rng = random.Random(37)
        for _ in range(40):
            u = random_odd_form(rng, cfg)
            assert differential_power(u, 2, cfg).is_zero()

    def test_image_is_canonical(self, cfg):
        rng = random.Random(43)
        mode = cfg.anyonic
        one = Poly.one(mode)
        # constants on the empty word and on dx have a vanishing derivative word
        forms = [Form({(0, 0): one, (1, 0): one}, mode), Form({(1, 2): one}, mode)]
        forms += [random_form(rng, cfg) for _ in range(60)]
        for u in forms:
            image = differential(u, cfg)
            assert image == Form(dict(image.items()), mode)
            assert image.truncated == mode
            for mon, poly in image.items():
                assert type(mon) is FormMonomial
                assert poly and poly.truncated == mode
        assert differential(Form.scalar(5, mode), cfg).is_zero()

    def test_raises_grade_by_exactly_one(self, cfg):
        rng = random.Random(41)
        for _ in range(40):
            u = random_homogeneous_form(rng, cfg)
            image = differential(u, cfg)
            if u.is_zero() or image.is_zero():
                continue
            assert image.grade() == u.grade() + 1


class TestClosedness:
    def test_matched_pair_is_closed(self):
        u = Form({(0, 1): Poly.x(), (2, 0): Poly.one()})
        assert is_closed(u, CFG_1)

    def test_mismatched_pair_is_not(self):
        u = Form({(0, 1): Poly.x(), (2, 0): Poly.constant(2)})
        assert not is_closed(u, CFG_1)

    def test_constants_are_closed(self):
        assert is_closed(Form.scalar(Q), CFG_Q)
        assert not is_closed(Form.from_poly(Poly.x()), CFG_Q)

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_1, CFG_ANY], ids=["q", "1", "anyonic"])
    def test_agrees_with_the_coefficient_criterion(self, cfg):
        # even forms supported on d2x^k and dx^2*d2x^(k-1): closed exactly
        # when each h at dx^2*d2x^(k-1) equals derivative of f at d2x^k
        rng = random.Random(43)
        for i in range(40):
            terms: dict[FormMonomial, Poly] = {}
            top = rng.randint(1, 3)
            for k in range(1, top + 1):
                terms[FormMonomial(0, k)] = random_poly(rng, cfg.anyonic)
                if rng.random() < 0.5:
                    terms[FormMonomial(2, k - 1)] = random_poly(rng, cfg.anyonic)
                else:
                    terms[FormMonomial(2, k - 1)] = derivative(terms[FormMonomial(0, k)], cfg)
            u = Form(terms, cfg.anyonic)
            coefficientwise = all(
                u.coefficient((2, k - 1)) == derivative(u.coefficient((0, k)), cfg)
                for k in range(1, top + 1)
            )
            assert is_closed(u, cfg) == coefficientwise

    def test_generated_closed_forms_are_closed(self):
        rng = random.Random(47)
        for cfg in (CFG_Q, CFG_1, CFG_ANY):
            for _ in range(20):
                assert is_closed(random_closed_even_form(rng, cfg), cfg)
