"""Form module: grading, module structure and the twisted product."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from qforms import calculus, forms
from qforms.calculus import CalculusConfig, q_bracket, twist
from qforms.checks import random_form, random_homogeneous_form, random_poly
from qforms.cyclotomic import ONE, Q, CycQ, q_power
from qforms.forms import Form, FormMonomial, swap_scalar
from qforms.polynomial import ModeMismatchError, Poly

CFG_Q = CalculusConfig(Q)
CFG_1 = CalculusConfig(ONE)
CFG_ANY = CalculusConfig(Q, anyonic=True)

KERNEL_CFGS = [
    CFG_Q,
    CFG_ANY,
    CalculusConfig(CycQ(2)),
    CalculusConfig(CycQ(1, 1)),
    CFG_1,
    CalculusConfig(CycQ(1, 2)),
    CalculusConfig(CycQ(Fraction(-3, 7), Fraction(5, 7))),
]
KERNEL_IDS = ["q", "anyonic", "2", "1+q", "1", "1+2q", "(-3+5q)/7"]


def recursive_push_left(k, m, g, cfg):
    """Reference rewriter: dx**k * d2x**m * g by recursing on the innermost d2x.

    Branches into a twisted and a q-bracket word per copy, 2**(m+1) - 1 calls
    in all; the product kernel must agree with it exactly.
    """
    if g.is_zero():
        return []
    if m == 0:
        for _ in range(k):
            g = twist(g, cfg)
        return [(FormMonomial(k, 0), g)]
    out = []
    for mon, poly in recursive_push_left(k, m - 1, twist(g, cfg), cfg):
        out.append((FormMonomial(mon.dx, mon.d2x + 1), poly))
    for mon, poly in recursive_push_left(k, m - 1, q_bracket(g, cfg), cfg):
        if mon.dx == 0:  # dx**3 == 0
            out.append((FormMonomial(mon.dx + 2, mon.d2x), q_power(4 * mon.d2x) * poly))
    return out


def collect(words, truncated):
    """Sum (monomial, coefficient) words, repeats included, into one Form."""
    out = Form.zero(truncated)
    for mon, poly in words:
        out = out + Form({mon: poly}, truncated)
    return out


class TestMonomials:
    def test_grade_adds_powers(self):
        assert FormMonomial(0, 0).grade == 0
        assert FormMonomial(1, 0).grade == 1
        assert FormMonomial(1, 1).grade == 3
        assert FormMonomial(2, 3).grade == 8

    def test_dx_power_is_capped(self):
        with pytest.raises(ValueError):
            FormMonomial(3, 0)
        with pytest.raises(ValueError):
            FormMonomial(-1, 0)
        with pytest.raises(ValueError):
            FormMonomial(0, -1)


class TestModuleStructure:
    def test_addition_merges_coefficients(self):
        dx = Form.basis(1, 0)
        assert dx + dx == dx.left_mul(2)
        assert (dx - dx).is_zero()

    def test_zero_coefficients_canonicalize_away(self):
        assert Form({(1, 0): Poly.zero()}) == Form.zero()
        assert not Form({(1, 0): Poly.zero()})

    def test_left_action_is_coefficientwise(self):
        u = Form({(1, 0): Poly.x()})
        f = Poly({0: 1, 1: 1})
        assert u.left_mul(f) == Form({(1, 0): f * Poly.x()})
        assert f * u == u.left_mul(f)
        assert Q * u == u.left_mul(Q)

    def test_mode_mismatch_detected(self):
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0) + Form.basis(1, 0, truncated=True)
        with pytest.raises(ModeMismatchError):
            Form({(0, 0): Poly.x(truncated=True)})
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0).mul(Form.basis(0, 1), CFG_ANY)

    def test_grades_and_homogeneity(self):
        u = Form({(0, 0): Poly.x(), (1, 0): Poly.one()})
        assert u.grades() == [0, 1]
        assert not u.is_homogeneous()
        assert u.grade() is None
        assert Form.basis(2, 1).grade() == 4
        assert Form.zero().is_homogeneous()
        assert Form.zero().grade() is None

    def test_decompose_splits_by_grade(self):
        u = Form({(0, 0): Poly.x(), (1, 0): Poly.one()})
        parts = u.decompose()
        assert list(parts) == [0, 1]
        assert parts[0] == Form.from_poly(Poly.x())
        assert parts[1] == Form.basis(1, 0)

    def test_decompose_groups_equal_grades(self):
        u = Form({(0, 1): Poly.one(), (2, 0): Poly.one()})
        parts = u.decompose()
        assert list(parts) == [2]
        assert parts[2] == u


class TestProductExamples:
    def test_dx_past_x_twists(self):
        dx, xf = Form.basis(1, 0), Form.from_poly(Poly.x())
        assert dx.mul(xf, CFG_Q) == Form({(1, 0): Poly.monomial(1, Q)})
        assert dx.mul(xf, CFG_1) == Form({(1, 0): Poly.x()})

    def test_d2x_past_x_picks_up_the_bracket(self):
        d2x, xf = Form.basis(0, 1), Form.from_poly(Poly.x())
        # alpha=1: bracket(x) == 1 - q
        expected = Form({(0, 1): Poly.x(), (2, 0): Poly.constant(CycQ(1, -1))})
        assert d2x.mul(xf, CFG_1) == expected
        # alpha=q: the bracket term is absent
        assert d2x.mul(xf, CFG_Q) == Form({(0, 1): Poly.monomial(1, Q)})

    def test_d2x_twice_past_x(self):
        # (d2x)^2 * x at alpha=1, by hand:
        #   d2x*x == x*d2x + (1-q)*dx^2, then pushing through the second d2x
        #   and swapping dx^2 left costs q^4 == q, giving
        #   x*d2x^2 + (1-q)(1+q)*dx^2*d2x with (1-q)(1+q) == 2+q
        lhs = Form.basis(0, 2).mul(Form.from_poly(Poly.x()), CFG_1)
        expected = Form({(0, 2): Poly.x(), (2, 1): Poly.constant(CycQ(2, 1))})
        assert lhs == expected

    def test_d2x_past_dx_swaps_with_q_squared(self):
        lhs = Form.basis(0, 1).mul(Form.basis(1, 0), CFG_Q)
        assert lhs == Form.basis(1, 1).left_mul(Q * Q)

    def test_dx_cubed_vanishes(self):
        dx = Form.basis(1, 0)
        assert Form.basis(2, 0).mul(dx, CFG_Q).is_zero()
        assert dx.mul(dx, CFG_Q).mul(dx, CFG_Q).is_zero()

    def test_unit_is_two_sided(self):
        rng = random.Random(7)
        one = Form.one()
        for _ in range(20):
            u = random_form(rng, CFG_Q)
            assert u.mul(one, CFG_Q) == u
            assert one.mul(u, CFG_Q) == u

    def test_anyonic_commutation_relations(self):
        x = Form.from_poly(Poly.x(truncated=True))
        dx = Form.basis(1, 0, truncated=True)
        d2x = Form.basis(0, 1, truncated=True)
        assert x.mul(x, CFG_ANY).mul(x, CFG_ANY).is_zero()
        assert dx.mul(x, CFG_ANY) == x.mul(dx, CFG_ANY).left_mul(Q)
        assert d2x.mul(x, CFG_ANY) == x.mul(d2x, CFG_ANY).left_mul(Q)
        assert d2x.mul(dx, CFG_ANY) == dx.mul(d2x, CFG_ANY).left_mul(Q * Q)


class TestProductLaws:
    @pytest.mark.parametrize(
        "cfg", [CFG_Q, CFG_1, CalculusConfig(CycQ(2)), CFG_ANY],
        ids=["q", "1", "2", "anyonic"],
    )
    def test_associativity_sampled(self, cfg):
        rng = random.Random(11)
        for _ in range(25):
            u = random_form(rng, cfg, max_degree=4)
            v = random_form(rng, cfg, max_degree=4)
            w = random_form(rng, cfg, max_degree=4)
            assert u.mul(v, cfg).mul(w, cfg) == u.mul(v.mul(w, cfg), cfg)

    def test_left_linearity_over_the_coordinate_algebra(self):
        rng = random.Random(13)
        for _ in range(25):
            f = random_poly(rng)
            u = random_form(rng, CFG_1)
            v = random_form(rng, CFG_1)
            assert u.left_mul(f).mul(v, CFG_1) == u.mul(v, CFG_1).left_mul(f)

    def test_grading_is_additive(self):
        rng = random.Random(17)
        for _ in range(40):
            u = random_homogeneous_form(rng, CFG_Q, max_degree=3)
            v = random_homogeneous_form(rng, CFG_Q, max_degree=3)
            product = u.mul(v, CFG_Q)
            if u.is_zero() or v.is_zero():
                continue
            if not product.is_zero():
                assert product.grade() == u.grade() + v.grade()

    def test_distributes_over_addition(self):
        rng = random.Random(19)
        for _ in range(25):
            u, v, w = (random_form(rng, CFG_1) for _ in range(3))
            assert (u + v).mul(w, CFG_1) == u.mul(w, CFG_1) + v.mul(w, CFG_1)


class TestPushLeft:
    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_matches_the_recursive_rewriter(self, cfg):
        rng = random.Random(29)
        for _ in range(40):
            k, m = rng.randint(0, 2), rng.randint(0, 7)
            g = random_poly(rng, cfg.anyonic)
            words = forms._push_left(k, m, g, cfg)
            assert len(words) <= 2
            assert len({mon for mon, _ in words}) == len(words)
            expected = collect(recursive_push_left(k, m, g, cfg), cfg.anyonic)
            assert collect(words, cfg.anyonic) == expected

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_d2x_power_past_x_power_closed_form(self, cfg):
        # d2x^m x^n == alpha^(mn) x^n d2x^m + c x^(n-1) dx^2 d2x^(m-1) with
        # c == [n] alpha^(n-1) (alpha-q) sum_{i<m} alpha^(ni) alpha^((n-1)(m-1-i)) q^(m-1-i)
        alpha, t = cfg.alpha, cfg.anyonic
        for m in range(7):
            for n in range(6):
                product = Form.basis(0, m, t).mul(Form.from_poly(Poly.monomial(n, truncated=t)), cfg)
                expected = Form({(0, m): Poly.monomial(n, alpha ** (m * n), t)}, t)
                if m and n:
                    total = CycQ(0)
                    for i in range(m):
                        total += alpha ** (n * i) * alpha ** ((n - 1) * (m - 1 - i)) * q_power(m - 1 - i)
                    alpha_integer = sum((alpha**j for j in range(n)), CycQ(0))
                    c = alpha_integer * alpha ** (n - 1) * (alpha - Q) * total
                    expected = expected + Form({(2, m - 1): Poly.monomial(n - 1, c, t)}, t)
                assert product == expected

    def test_calculus_calls_grow_linearly_in_the_d2x_power(self, monkeypatch):
        calls = 0

        def counted(fn):
            def wrapper(*args):
                nonlocal calls
                calls += 1
                if calls > 1000:
                    raise RuntimeError("the product kernel made over 1000 calculus calls")
                return fn(*args)

            return wrapper

        for name in ("twist", "q_bracket"):
            monkeypatch.setattr(forms, name, counted(getattr(calculus, name)))
        m = 16
        Form.basis(0, m).mul(Form.from_poly(Poly.monomial(m)), CalculusConfig(CycQ(2)))
        assert calls <= 2 * m + 1


class TestSwapOracle:
    def test_frozen_values(self):
        # q^(2rj) cycles with period three in r*j
        assert swap_scalar(1, 1) == Q * Q
        assert swap_scalar(2, 1) == Q
        assert swap_scalar(2, 2) == Q * Q
        assert swap_scalar(3, 2) == ONE
        assert swap_scalar(4, 2) == Q
        assert swap_scalar(0, 2) == ONE
        assert swap_scalar(4, 0) == ONE

    def test_rejects_out_of_range_powers(self):
        with pytest.raises(ValueError):
            swap_scalar(-1, 0)
        with pytest.raises(ValueError):
            swap_scalar(1, 3)

    def test_matches_the_rewriter(self):
        for r in range(5):
            for j in range(3):
                lhs = Form.basis(0, r).mul(Form.basis(j, 0), CFG_Q)
                assert lhs == Form.basis(j, r).left_mul(swap_scalar(r, j))


class TestHomogeneityWitness:
    def test_alpha_away_from_q_breaks_the_simple_rule(self):
        xf = Form.from_poly(Poly.x())
        for cfg in (CFG_1, CalculusConfig(CycQ(2))):
            product = Form.basis(0, 1).mul(xf, cfg)
            simple = Form({(0, 1): twist(Poly.x(), cfg)})
            assert product != simple

    def test_alpha_q_keeps_the_simple_rule(self):
        for m in range(1, 7):
            f = Poly.monomial(m)
            product = Form.basis(0, 1).mul(Form.from_poly(f), CFG_Q)
            assert product == Form({(0, 1): twist(f, CFG_Q)})


class TestSerialization:
    def test_canonical_shape(self):
        u = Form({(1, 0): Poly.monomial(1, Q), (0, 1): Poly.one()})
        data = u.to_dict()
        assert data["mode"] == "generic"
        assert data["terms"] == [
            {"dx": 1, "d2x": 0, "coeff": [[1, [0, 1, 1, 1]]]},
            {"dx": 0, "d2x": 1, "coeff": [[0, [1, 1, 0, 1]]]},
        ]

    def test_round_trip_both_modes(self):
        rng = random.Random(23)
        for cfg in (CFG_Q, CFG_ANY):
            for _ in range(25):
                u = random_form(rng, cfg)
                assert Form.from_dict(u.to_dict()) == u

    def test_mode_round_trips(self):
        u = Form.basis(1, 1, truncated=True)
        assert u.to_dict()["mode"] == "anyonic"
        assert Form.from_dict(u.to_dict()).truncated

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            Form.from_dict({"mode": "other", "terms": []})

    @staticmethod
    def one_term(mode="generic", dx=0, d2x=0, degree=0, quadruple=(1, 1, 0, 1)):
        entry = {"dx": dx, "d2x": d2x, "coeff": [[degree, list(quadruple)]]}
        return {"mode": mode, "terms": [entry]}

    def test_scalars_come_from_the_integer_quadruple(self):
        u = Form.from_dict(self.one_term(degree=2, quadruple=(6, -4, 1, 3)))
        assert u == Form({(0, 0): Poly.monomial(2, CycQ(Fraction(-3, 2), Fraction(1, 3)))})
        assert u.to_dict() == self.one_term(degree=2, quadruple=(-3, 2, 1, 3))

    @pytest.mark.parametrize("quadruple", [(1, 0, 0, 1), (1, 1, 2, 0), (0, 0, 0, 0)])
    def test_zero_denominator_rejected(self, quadruple):
        with pytest.raises(ValueError, match="zero denominator"):
            Form.from_dict(self.one_term(quadruple=quadruple))

    def test_anyonic_degree_three_rejected(self):
        assert Form.from_dict(self.one_term("anyonic", degree=2)).truncated
        with pytest.raises(ValueError, match="anyonic"):
            Form.from_dict(self.one_term("anyonic", degree=3))
        # the same entry is a plain x**3 term in generic mode
        assert not Form.from_dict(self.one_term(degree=3)).is_zero()

    @pytest.mark.parametrize(
        "field, value",
        [
            ("quadruple", ("1", 1, 0, 1)),
            ("quadruple", (1, 1.0, 0, 1)),
            ("quadruple", (1, 1, Fraction(1, 2), 1)),
            ("quadruple", (True, 1, 0, 1)),
            ("degree", 1.0),
            ("dx", "1"),
            ("d2x", None),
        ],
    )
    def test_non_int_fields_rejected(self, field, value):
        with pytest.raises(ValueError, match="expected an int"):
            Form.from_dict(self.one_term(**{field: value}))
