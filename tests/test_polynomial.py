"""Coordinate algebra: sparse polynomials with and without x**3 == 0."""

from __future__ import annotations

import operator
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from qforms.cyclotomic import Q, CycQ
from qforms.forms import Form
from qforms.polynomial import ModeMismatchError, Poly

rationals = st.fractions(min_value=-3, max_value=3, max_denominator=4)
scalars = st.builds(CycQ, rationals, rationals)
coeff_maps = st.dictionaries(st.integers(0, 5), scalars, max_size=4)


def polys(truncated: bool):
    return coeff_maps.map(lambda coeffs: Poly(coeffs, truncated))


def test_product_of_conjugate_binomials():
    one_plus = Poly({0: 1, 1: 1})
    one_minus = Poly({0: 1, 1: -1})
    assert one_plus * one_minus == Poly({0: 1, 2: -1})


def test_scale_by_q_squared_undoes_q():
    # q**2 * (q*x) == q**3 * x == x
    assert (Q * Q) * Poly.monomial(1, Q) == Poly.x()


def test_truncated_products_die_at_degree_three():
    x2 = Poly.monomial(2, truncated=True)
    x = Poly.x(truncated=True)
    assert (x2 * x).is_zero()
    assert (x2 * x2).is_zero()


def test_truncated_constructor_discards_high_degrees():
    assert Poly({3: 1}, truncated=True).is_zero()
    assert Poly({1: 1, 5: 7}, truncated=True) == Poly.x(truncated=True)


def test_degree_and_coefficient_access():
    p = Poly({0: 2, 4: Q})
    assert p.degree == 4
    assert Poly.zero().degree is None
    assert p.coefficient(4) == Q
    assert p.coefficient(1) == CycQ(0)
    assert p.terms() == [(0, CycQ(2)), (4, Q)]


def test_negative_degree_rejected():
    with pytest.raises(ValueError):
        Poly({-1: 1})


def test_modes_never_mix():
    plain = Poly.x()
    quotient = Poly.x(truncated=True)
    with pytest.raises(ModeMismatchError):
        plain + quotient
    with pytest.raises(ModeMismatchError):
        plain * quotient
    assert plain != quotient


@pytest.mark.parametrize("mode", [False, True], ids=["plain", "truncated"])
class TestRingAxioms:
    @given(a=coeff_maps, b=coeff_maps, c=coeff_maps)
    def test_ring_laws(self, mode, a, b, c):
        f, g, h = (Poly(m, mode) for m in (a, b, c))
        one = Poly.one(mode)
        assert (f + g) + h == f + (g + h)
        assert f + g == g + f
        assert f + (-f) == Poly.zero(mode)
        assert (f * g) * h == f * (g * h)
        assert f * g == g * f
        assert f * one == f
        assert f * (g + h) == f * g + f * h

    @given(a=coeff_maps, b=coeff_maps, s=scalars)
    def test_scaling_is_linear(self, mode, a, b, s):
        f, g = Poly(a, mode), Poly(b, mode)
        assert s * (f + g) == s * f + s * g
        assert f.scale(s) == s * f
        # scale, s * f and -f share _scale and _negated: check each coefficient against CycQ
        for e, c in f.items():
            assert f.scale(s).coefficient(e) == s * c
            assert (-f).coefficient(e) == -c


@given(polys(False), polys(False))
def test_degree_adds_in_the_plain_mode(f, g):
    if f.is_zero() or g.is_zero():
        assert (f * g).is_zero()
    else:
        assert (f * g).degree == f.degree + g.degree


def test_canonical_text():
    assert str(Poly.zero()) == "0"
    assert str(Poly({0: CycQ(1, 1), 1: 1})) == "1+1*q+x"
    assert str(Poly({0: -1, 2: CycQ(0, -1)})) == "-1-q*x^2"
    assert str(Poly({1: CycQ(1, -1)})) == "(1-1*q)*x"
    assert str(Poly({2: -2})) == "-2*x^2"


@pytest.mark.parametrize("degree", [0.5, 1.0, True, False, Fraction(1), "1"])
def test_constructor_rejects_non_int_degrees(degree):
    # before, Poly({0.5: 1}) rendered as 'x^0.5', which parse refuses, and a
    # True degree wrote JSON that from_dict refuses
    with pytest.raises(TypeError, match="degree must be an int"):
        Poly({degree: 1})
    with pytest.raises(TypeError, match="degree must be an int"):
        Poly({5: 1, degree: 2}, truncated=True)


@pytest.mark.parametrize("degree", [0.5, 1.0, True, Fraction(2)])
def test_monomial_rejects_non_int_degrees(degree):
    with pytest.raises(TypeError, match="degree must be an int"):
        Poly.monomial(degree)


def test_constructor_drops_zeros_and_truncated_high_degrees():
    coeffs = {0: CycQ(0), 1: CycQ(2), 3: CycQ(1), 4: CycQ(0), 5: Fraction(0), 6: 0}
    assert Poly(coeffs, True).items() == {1: CycQ(2)}.items()
    assert Poly(coeffs, False).items() == {1: CycQ(2), 3: CycQ(1)}.items()
    assert Poly({}, False).is_zero() and Poly({2: CycQ(0)}).is_zero()
    # a truncated degree is dropped only after its value is checked, so both modes refuse the same values
    for value, shown in [("x", "'x'"), (1.5, "1.5")]:
        for truncated in (False, True):
            with pytest.raises(TypeError, match=rf"^cannot interpret {shown} as a Q\(q\) scalar$"):
                Poly({5: value}, truncated)


def test_addition_makes_no_scalar_sum_for_a_new_degree(monkeypatch):
    made = 0
    add = CycQ.__add__

    def counting(self, other):
        nonlocal made
        made += 1
        return add(self, other)

    monkeypatch.setattr(CycQ, "__add__", counting)
    assert Poly({0: 1, 2: Q}) + Poly({1: 2, 3: 1}) == Poly({0: 1, 1: 2, 2: Q, 3: 1})
    assert made == 0
    assert Poly.x() * Poly({0: 1, 1: 1}) == Poly({1: 1, 2: 1})
    assert made == 0
    assert Poly({1: 1}) + Poly({1: Q}) == Poly({1: CycQ(1, 1)})
    assert made == 0


@pytest.mark.parametrize(
    "make",
    [
        lambda truncated: Poly({0: 1, 2: Q}, truncated),
        lambda truncated: Form({(0, 0): Poly.x(truncated), (1, 2): Poly.one(truncated)}, truncated),
    ],
    ids=["Poly", "Form"],
)
def test_shared_additive_core(make):
    u, u_truncated = make(False), make(True)
    for op in (operator.add, operator.sub):
        with pytest.raises(ModeMismatchError):
            op(u, u_truncated)
        with pytest.raises(ModeMismatchError):
            op(u_truncated, u)
    assert (u - u).is_zero() and not (u - u)
    assert -(-u) == u and -u != u
    other = Form.one() if isinstance(u, Poly) else Poly.one()
    assert (u == other) is False and (other == u) is False
    with pytest.raises(TypeError):
        u + other
    with pytest.raises(TypeError):
        other + u
    with pytest.raises(TypeError):
        hash(u)
