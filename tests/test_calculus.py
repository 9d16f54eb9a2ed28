"""Twist, twisted derivative and the q-bracket."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qforms.calculus import (
    CalculusConfig,
    check_homogeneity,
    derivative,
    q_bracket,
    q_number,
    twist,
    twist_power,
)
from qforms.cyclotomic import ONE, Q, CycQ
from qforms.polynomial import ModeMismatchError, Poly

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(CycQ, rationals, rationals)
coeff_maps = st.dictionaries(st.integers(0, 5), scalars, max_size=4)

ALPHAS = [Q, ONE, CycQ(2), CycQ(1, 1)]
ALPHA_IDS = ["q", "1", "2", "1+q"]

TWIST_CFGS = [CalculusConfig(alpha) for alpha in ALPHAS + [CycQ(0), CycQ(-1), CycQ(-1, -1)]]
TWIST_CFGS.append(CalculusConfig(Q, anyonic=True))
TWIST_IDS = ALPHA_IDS + ["0", "-1", "q^2", "anyonic"]


def substitute_alpha_x(f: Poly, alpha: CycQ) -> Poly:
    """f(alpha*x) from Poly sums and products alone: sum_m c_m * (alpha*x)**m."""
    t = f.truncated
    step = Poly.monomial(1, alpha, t)
    out, power = Poly.zero(t), Poly.one(t)
    for m in range(f.degree + 1 if f else 0):
        out = out + power * f.coefficient(m)
        power = power * step
    return out


class TestConfig:
    def test_anyonic_forces_alpha_q(self):
        CalculusConfig(Q, anyonic=True)
        with pytest.raises(ModeMismatchError):
            CalculusConfig(CycQ(2), anyonic=True)

    def test_alpha_coerces_to_the_field(self):
        assert CalculusConfig(2).alpha == CycQ(2)

    def test_mode_must_match(self):
        cfg = CalculusConfig(Q, anyonic=True)
        with pytest.raises(ModeMismatchError):
            twist(Poly.x(), cfg)
        with pytest.raises(ModeMismatchError):
            derivative(Poly.x(), cfg)


class TestTwist:
    def test_scales_each_degree(self):
        cfg = CalculusConfig(Q)
        assert twist(Poly.x(), cfg) == Poly.monomial(1, Q)
        # x**2 picks up q**2 == -1 - q
        assert twist(Poly.monomial(2), cfg) == Poly.monomial(2, CycQ(-1, -1))
        assert twist(Poly.one(), cfg) == Poly.one()

    @pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
    @given(a=coeff_maps, b=coeff_maps)
    def test_is_an_algebra_endomorphism(self, alpha, a, b):
        cfg = CalculusConfig(alpha)
        f, g = Poly(a), Poly(b)
        assert twist(f * g, cfg) == twist(f, cfg) * twist(g, cfg)
        assert twist(f + g, cfg) == twist(f, cfg) + twist(g, cfg)


class TestTwistPower:
    @pytest.mark.parametrize("cfg", TWIST_CFGS, ids=TWIST_IDS)
    @given(a=coeff_maps, n=st.integers(0, 6))
    def test_matches_repeated_substitution(self, cfg, a, n):
        f = Poly(a, cfg.anyonic)
        expected = f
        for _ in range(n):
            expected = substitute_alpha_x(expected, cfg.alpha)
        assert twist_power(f, n, cfg) == expected

    def test_power_zero_is_the_identity(self):
        f = Poly({0: 3, 2: Q})
        assert twist_power(f, 0, CalculusConfig(CycQ(0))) is f

    def test_alpha_zero_keeps_only_the_constant(self):
        cfg = CalculusConfig(CycQ(0))
        assert twist_power(Poly({0: 3, 1: 1, 4: 2}), 2, cfg) == Poly.constant(3)

    def test_twist_is_the_first_power(self):
        f = Poly({0: 1, 1: 2, 5: Q})
        for alpha in ALPHAS:
            cfg = CalculusConfig(alpha)
            assert twist(f, cfg) == twist_power(f, 1, cfg) == substitute_alpha_x(f, alpha)

    def test_rejects_a_negative_power_and_a_mode_mismatch(self):
        with pytest.raises(ValueError):
            twist_power(Poly.x(), -1, CalculusConfig(Q))
        with pytest.raises(ModeMismatchError):
            twist_power(Poly.x(), 2, CalculusConfig(Q, anyonic=True))


class TestQNumber:
    def test_values_on_the_anyonic_line(self):
        assert q_number(0, Q) == CycQ(0)
        assert q_number(1, Q) == ONE
        assert q_number(2, Q) == CycQ(1, 1)
        assert q_number(3, Q) == CycQ(0)  # 1 + q + q**2

    def test_counts_at_alpha_one(self):
        for k in range(8):
            assert q_number(k, ONE) == CycQ(k)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            q_number(-1, Q)

    def test_int_and_fraction_alphas_give_a_cycq(self):
        for alpha, k, value in [(2, 3, CycQ(7)), (Fraction(1, 2), 2, CycQ(Fraction(3, 2)))]:
            got = q_number(k, alpha)
            assert type(got) is CycQ and got == value
            assert q_number(k, CycQ(alpha)) == got


class TestDerivative:
    def test_derivative_of_x_is_one(self):
        for alpha in ALPHAS:
            assert derivative(Poly.x(), CalculusConfig(alpha)) == Poly.one()

    def test_square_at_alpha_one(self):
        assert derivative(Poly.monomial(2), CalculusConfig(ONE)) == Poly.monomial(1, 2)

    def test_square_generic(self):
        alpha = CycQ(2)
        assert derivative(Poly.monomial(2), CalculusConfig(alpha)) == Poly.monomial(
            1, ONE + alpha
        )

    def test_anyonic_q_factorial_ladder(self):
        cfg = CalculusConfig(Q, anyonic=True)
        x = Poly.x(truncated=True)
        assert derivative(x, cfg) == Poly.one(truncated=True)
        assert derivative(x * x, cfg) == Poly.monomial(1, CycQ(1, 1), truncated=True)
        # x**3 is already zero in the quotient
        assert derivative(Poly({3: 1}, truncated=True), cfg).is_zero()

    def test_third_q_number_kills_the_cube_without_truncation(self):
        cfg = CalculusConfig(Q)
        assert derivative(Poly.monomial(3), cfg).is_zero()

    def test_long_powers_need_no_recursion(self):
        # degrees past the interpreter's recursion limit
        x1500 = Poly.monomial(1500)
        image = derivative(x1500, CalculusConfig(CycQ(2)))
        assert image == Poly.monomial(1499, 2**1500 - 1)
        assert twist(x1500, CalculusConfig(CycQ(3))) == Poly.monomial(1500, 3**1500)

    @pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
    @given(a=coeff_maps, b=coeff_maps)
    def test_twisted_leibniz_rule(self, alpha, a, b):
        cfg = CalculusConfig(alpha)
        f, g = Poly(a), Poly(b)
        lhs = derivative(f * g, cfg)
        rhs = derivative(f, cfg) * g + twist(f, cfg) * derivative(g, cfg)
        assert lhs == rhs

    @pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
    def test_lowers_monomial_degree_by_one(self, alpha):
        cfg = CalculusConfig(alpha)
        for m in range(1, 9):
            image = derivative(Poly.monomial(m), cfg)
            if q_number(m, alpha):
                assert image.degree == m - 1
            else:
                assert image.is_zero()


class TestQBracket:
    def test_on_x_measures_alpha_minus_q(self):
        for alpha in ALPHAS:
            cfg = CalculusConfig(alpha)
            assert q_bracket(Poly.x(), cfg) == Poly.constant(alpha - Q)

    def test_on_x_squared_at_alpha_one(self):
        got = q_bracket(Poly.monomial(2), CalculusConfig(ONE))
        assert got == Poly.monomial(1, CycQ(2, -2))

    @pytest.mark.parametrize("alpha", ALPHAS, ids=ALPHA_IDS)
    def test_divisible_by_alpha_minus_q(self, alpha):
        # the quotient by alpha - q reproduces q_number(m) * alpha**(m-1)
        cfg = CalculusConfig(alpha)
        for m in range(1, 9):
            got = q_bracket(Poly.monomial(m), cfg)
            if alpha == Q:
                assert got.is_zero()
            else:
                quotient = (alpha - Q).inverse() * got
                assert quotient == Poly.monomial(m - 1, q_number(m, alpha) * alpha ** (m - 1))

    @given(a=coeff_maps)
    def test_vanishes_identically_on_the_anyonic_line(self, a):
        cfg = CalculusConfig(Q)
        assert q_bracket(Poly(a), cfg).is_zero()


class TestCheckHomogeneity:
    def test_alpha_q_certifies_any_bound(self):
        assert check_homogeneity(CalculusConfig(Q), 10)
        assert check_homogeneity(CalculusConfig(Q, anyonic=True), 10)

    @pytest.mark.parametrize("alpha", [ONE, CycQ(2), CycQ(-1, -1)], ids=["1", "2", "q^2"])
    def test_other_alphas_fail_in_degree_one(self, alpha):
        assert not check_homogeneity(CalculusConfig(alpha), 1)

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError):
            check_homogeneity(CalculusConfig(Q), 0)
