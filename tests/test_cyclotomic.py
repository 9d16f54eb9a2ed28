"""Field arithmetic in Q(q)."""

from __future__ import annotations

import fractions
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qforms.calculus import CalculusConfig
from qforms.checks import run_suites
from qforms.cyclotomic import ONE, Q, ZERO, CycQ, as_cycq, from_ratios, q_power
from qforms.parser import parse_scalar

rationals = st.fractions(min_value=-4, max_value=4, max_denominator=6)
scalars = st.builds(CycQ, rationals, rationals)
nonzero_scalars = scalars.filter(bool)


class TestDefiningRelations:
    def test_cube_of_q_is_one(self):
        assert Q ** 3 == ONE

    def test_sum_of_cube_roots_vanishes(self):
        assert ONE + Q + Q * Q == ZERO

    def test_q_squared_reduces_to_basis(self):
        assert Q * Q == CycQ(-1, -1)

    def test_add_q_and_q_squared(self):
        assert Q + Q ** 2 == CycQ(-1, 0)

    def test_square_of_one_plus_q(self):
        # (1+q)**2 == 1 + 2q + q**2 == (1-1) + (2-1)q == q
        assert CycQ(1, 1) * CycQ(1, 1) == Q


class TestInverse:
    def test_inverse_of_q_is_q_squared(self):
        assert Q.inverse() == CycQ(-1, -1)
        assert Q * Q.inverse() == ONE

    def test_zero_has_no_inverse(self):
        with pytest.raises(ZeroDivisionError):
            ZERO.inverse()

    @given(nonzero_scalars)
    def test_inverse_is_two_sided(self, u):
        assert u * u.inverse() == ONE
        assert u.inverse() * u == ONE

    @given(nonzero_scalars, scalars)
    def test_division_agrees_with_inverse(self, u, v):
        assert v / u == v * u.inverse()


class TestPowers:
    def test_small_powers_of_q(self):
        assert Q ** 0 == ONE
        assert Q ** 1 == Q
        assert Q ** 3 == ONE
        assert Q ** 4 == Q

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Q ** -1

    def test_q_power_helper_cycles(self):
        for n in range(12):
            assert q_power(n) == Q ** n

    @given(scalars, st.integers(0, 8), st.integers(0, 8))
    def test_power_addition_law(self, u, m, n):
        assert u ** (m + n) == (u ** m) * (u ** n)


class TestFieldAxioms:
    @given(scalars, scalars, scalars)
    def test_addition_group(self, u, v, w):
        assert (u + v) + w == u + (v + w)
        assert u + v == v + u
        assert u + ZERO == u
        assert u + (-u) == ZERO

    @given(scalars, scalars, scalars)
    def test_multiplication_ring(self, u, v, w):
        assert (u * v) * w == u * (v * w)
        assert u * v == v * u
        assert u * ONE == u
        assert u * (v + w) == u * v + u * w

    @given(scalars, scalars)
    def test_norm_is_multiplicative(self, u, v):
        assert (u * v).norm() == u.norm() * v.norm()

    @given(scalars)
    def test_norm_positive_definite(self, u):
        assert u.norm() >= 0
        assert (u.norm() == 0) == u.is_zero()

    @given(scalars)
    def test_conjugate_is_an_involution(self, u):
        assert u.conjugate().conjugate() == u


class TestCoercionAndText:
    def test_int_and_fraction_coercion(self):
        assert CycQ(2) + 1 == CycQ(3)
        assert 2 * Q == CycQ(0, 2)
        assert Fraction(1, 2) * CycQ(2) == ONE
        assert 1 - Q == CycQ(1, -1)
        assert as_cycq(3) == CycQ(3)

    def test_as_cycq_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_cycq("q")

    def test_canonical_text(self):
        assert str(ZERO) == "0"
        assert str(CycQ(Fraction(-3, 2))) == "-3/2"
        assert str(Q) == "q"
        assert str(-Q) == "-q"
        assert str(CycQ(0, 2)) == "2*q"
        assert str(Q * Q) == "-1-1*q"
        assert str(CycQ(1, 1)) == "1+1*q"
        assert str(CycQ(Fraction(1, 2), Fraction(-2, 3))) == "1/2-2/3*q"

    @given(scalars)
    def test_text_round_trips_through_the_parser(self, u):
        assert parse_scalar(str(u)) == u


class FractionCycQ:
    """Reference field: a + b*q held as two Fractions, one per coordinate.

    The plain slow implementation the integer triple in CycQ must agree with
    exactly, operation by operation, including text.
    """

    __slots__ = ("a", "b")

    def __init__(self, a=0, b=0):
        self.a = Fraction(a)
        self.b = Fraction(b)

    def __eq__(self, other):
        return self.a == other.a and self.b == other.b

    def __neg__(self):
        return FractionCycQ(-self.a, -self.b)

    def __add__(self, other):
        return FractionCycQ(self.a + other.a, self.b + other.b)

    def __sub__(self, other):
        return FractionCycQ(self.a - other.a, self.b - other.b)

    def __mul__(self, other):
        cross = self.b * other.b  # q**2 == -1 - q
        return FractionCycQ(
            self.a * other.a - cross, self.a * other.b + self.b * other.a - cross
        )

    def conjugate(self):
        return FractionCycQ(self.a - self.b, -self.b)

    def norm(self):
        return self.a * self.a - self.a * self.b + self.b * self.b

    def inverse(self):
        n = self.norm()
        conj = self.conjugate()
        return FractionCycQ(conj.a / n, conj.b / n)

    def __truediv__(self, other):
        return self * other.inverse()

    def __pow__(self, n):
        out = FractionCycQ(1)
        for _ in range(n):
            out = out * self
        return out

    def __str__(self):
        a, b = self.a, self.b
        if not a and not b:
            return "0"
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

    def __repr__(self):
        return f"CycQ({self.a}, {self.b})"


# coordinates from unreduced integer pairs, with large numerators and denominators
big_rationals = st.one_of(
    st.integers(-50, 50),
    st.builds(Fraction, st.integers(-60, 60), st.integers(1, 12)),
    st.builds(Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)),
)
pairs = st.tuples(big_rationals, big_rationals)


def both(pair):
    return CycQ(*pair), FractionCycQ(*pair)


def assert_matches(fast, slow):
    """Exact agreement with the oracle, plus the canonical form of the triple."""
    assert type(fast) is CycQ
    assert (fast.a, fast.b) == (slow.a, slow.b)
    assert type(fast.a) is Fraction and type(fast.b) is Fraction
    a, b, d = fast._a, fast._b, fast._d
    assert d > 0
    assert gcd(a, b, d) == 1
    if not a and not b:
        assert d == 1
    assert str(fast) == str(slow)
    assert repr(fast) == repr(slow)


class TestAgainstFractionOracle:
    @given(pairs)
    def test_construction_and_unary(self, p):
        u, o = both(p)
        assert_matches(u, o)
        assert_matches(-u, -o)
        assert_matches(u.conjugate(), o.conjugate())
        norm = u.norm()
        assert type(norm) is Fraction and norm == o.norm()
        assert u.is_zero() == (not o.a and not o.b)
        assert u.is_rational() == (not o.b)

    @given(pairs, pairs)
    def test_ring_operations(self, p1, p2):
        (u, o), (v, w) = both(p1), both(p2)
        assert_matches(u + v, o + w)
        assert_matches(u - v, o - w)
        assert_matches(u * v, o * w)
        assert (u == v) == (o == w)
        assert (u != v) == (not o == w)

    @given(pairs, pairs)
    def test_inverse_and_division(self, p1, p2):
        (u, o), (v, w) = both(p1), both(p2)
        if v:
            assert_matches(v.inverse(), w.inverse())
            assert_matches(u / v, o / w)
        else:
            with pytest.raises(ZeroDivisionError):
                v.inverse()
            with pytest.raises(ZeroDivisionError):
                u / v

    @given(pairs, st.integers(0, 7))
    def test_powers(self, p, n):
        u, o = both(p)
        assert_matches(u**n, o**n)

    @given(pairs, big_rationals)
    def test_mixed_with_int_and_fraction(self, p, r):
        u, o = both(p)
        s = FractionCycQ(r)
        assert_matches(u + r, o + s)
        assert_matches(r + u, s + o)
        assert_matches(u - r, o - s)
        assert_matches(r - u, s - o)
        assert_matches(u * r, o * s)
        assert_matches(r * u, s * o)
        assert (u == r) == (o == s)
        if r:
            assert_matches(u / r, o / s)

    @given(pairs)
    def test_equal_values_hash_alike(self, p):
        u, _ = both(p)
        twin = (u + ONE) - ONE
        assert twin == u and hash(twin) == hash(u)

    @given(
        st.integers(-(10**12), 10**12),
        st.integers(-(10**6), 10**6).filter(bool),
        st.integers(-(10**12), 10**12),
        st.integers(-(10**6), 10**6).filter(bool),
    )
    def test_from_ratios(self, a_num, a_den, b_num, b_den):
        u = from_ratios(a_num, a_den, b_num, b_den)
        assert_matches(u, FractionCycQ(Fraction(a_num, a_den), Fraction(b_num, b_den)))

    def test_from_ratios_rejects_a_zero_denominator(self):
        with pytest.raises(ZeroDivisionError):
            from_ratios(1, 0, 0, 1)

    def test_zero_is_stored_as_zero_over_one(self):
        for zero in (ZERO, CycQ(Fraction(0, 5), 0), CycQ(Fraction(1, 3)) - CycQ(Fraction(1, 3))):
            assert (zero._a, zero._b, zero._d) == (0, 0, 1)


class TestNoFractionArithmetic:
    """The property suites must run on integer scalars alone.

    Counts Fraction constructions, a deterministic stand-in for the cost of
    falling back to per-coordinate Fraction arithmetic.
    """

    @pytest.mark.parametrize("alpha", [CycQ(2), CycQ(1, 1)], ids=["2", "1+q"])
    def test_suites_build_no_fractions(self, monkeypatch, alpha):
        cfg = CalculusConfig(alpha)
        made = 0
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return original(cls, *args, **kwargs)

        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
        results = run_suites(("assoc", "leibniz", "d3"), cfg, 7, 20, 6)
        monkeypatch.undo()
        assert all(r.passed for r in results)
        assert made == 0
