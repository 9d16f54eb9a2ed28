"""Field arithmetic in Q(q)."""

from __future__ import annotations

import contextlib
import fractions
import io
import sys
from decimal import Decimal
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qforms import cyclotomic, forms
from qforms.calculus import CalculusConfig, q_number
from qforms.checks import run_suites
from qforms.cli import main
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

    @pytest.mark.parametrize(
        "base",
        [Q, CycQ(2), CycQ(1, 1), CycQ(Fraction(-3, 7), Fraction(5, 7))],
        ids=["q", "2", "1+q", "(-3+5q)/7"],
    )
    def test_square_and_multiply_makes_no_extra_product(self, monkeypatch, base):
        # the oracle: n - 1 chained products, computed before the count starts
        products = [ONE, base]
        for _ in range(69):
            products.append(products[-1] * base)
        made = 0
        original = cyclotomic._times

        def counting_times(s, t):
            nonlocal made
            made += 1
            return original(s, t)

        # every Q(q) product, CycQ.__mul__'s included, is a call of the int core's _times
        monkeypatch.setattr(cyclotomic, "_times", counting_times)
        for n in range(71):
            made = 0
            power = base**n
            expected = 0 if n == 0 else bin(n).count("1") + n.bit_length() - 2
            assert made == expected, n
            assert (power._a, power._b, power._d) == (
                products[n]._a,
                products[n]._b,
                products[n]._d,
            )


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
    @pytest.mark.parametrize(
        "a, b, stored",
        [
            (0.5, 0, (1, 0, 2)),
            ("3/4", 0, (3, 0, 4)),
            (Decimal("1.5"), 0, (3, 0, 2)),
            (-0.125, "-2/6", (-3, -8, 24)),
            (True, 0, (1, 0, 1)),
        ],
    )
    def test_other_inputs_convert_through_fraction(self, a, b, stored):
        u = CycQ(a, b)
        assert (u._a, u._b, u._d) == stored

    @pytest.mark.parametrize(
        "value, error",
        [
            (object(), TypeError),
            (None, TypeError),
            ("q", ValueError),
            (float("nan"), ValueError),
            (float("inf"), OverflowError),
            ("1/0", ZeroDivisionError),
        ],
    )
    def test_inputs_fraction_refuses_raise_as_it_does(self, value, error):
        with pytest.raises(error):
            CycQ(value)

    def test_int_and_fraction_coercion(self):
        assert CycQ(2) + 1 == CycQ(3)
        assert 2 * Q == CycQ(0, 2)
        assert Fraction(1, 2) * CycQ(2) == ONE
        assert 1 - Q == CycQ(1, -1)
        assert as_cycq(3) == CycQ(3)

    def test_as_cycq_rejects_other_types(self):
        with pytest.raises(TypeError):
            as_cycq("q")

    @pytest.mark.parametrize(
        "value, triple",
        [
            (CycQ(Fraction(1, 2), 3), (1, 6, 2)),
            (-7, (-7, 0, 1)),
            (True, (1, 0, 1)),
            (False, (0, 0, 1)),
            (Fraction(6, -4), (-3, 0, 2)),
            (Fraction(0, 5), (0, 0, 1)),
        ],
    )
    def test_operand_reads_cycq_int_and_rational(self, value, triple):
        assert cyclotomic._operand(value) == triple
        assert cyclotomic._triple(value) == triple
        u = as_cycq(value)
        assert (u._a, u._b, u._d) == triple

    @pytest.mark.parametrize("value", [0.5, "1", None, Decimal(1), 1j, object(), [1]])
    def test_operand_refuses_everything_else(self, value):
        assert cyclotomic._operand(value) is None
        with pytest.raises(TypeError, match=r"^cannot interpret .* as a Q\(q\) scalar$"):
            cyclotomic._triple(value)
        u = CycQ(1, 2)
        for name in ("__eq__", "__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__", "__truediv__"):
            assert getattr(u, name)(value) is NotImplemented, name

    def test_operators_build_no_temporary_scalar(self, monkeypatch):
        u, v = CycQ(Fraction(1, 2), 3), CycQ(2, Fraction(-1, 3))

        def refuse(*args):
            raise AssertionError("CycQ() was called")

        monkeypatch.setattr(CycQ, "__init__", refuse)
        for other in (v, 5, True, Fraction(-3, 4)):
            for result in (u + other, other + u, u - other, other - u, u * other, other * u, u / other):
                assert type(result) is CycQ
            assert u != other

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
    parts = (slow.a.numerator, slow.a.denominator, slow.b.numerator, slow.b.denominator)
    assert fast.ratios() == parts
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

    @given(st.one_of(st.integers(-(10**30), 10**30), st.fractions()))
    def test_rational_values_hash_like_the_int_or_fraction_they_equal(self, value):
        u = CycQ(value)
        assert u == value and hash(u) == hash(value)
        assert {u: "a"}.get(value) == "a" and {value: "a"}.get(u) == "a"

    @pytest.mark.parametrize(
        "n, d",
        [
            (1, sys.hash_info.modulus),  # no inverse: the inf branch
            (-7, sys.hash_info.modulus),
            (3, 2 * sys.hash_info.modulus),
            (-(sys.hash_info.modulus + 2), 2),  # the formula gives -1, which hashes as -2
            (sys.hash_info.modulus + 2, 2),
            (-1, 2),
            (-(10**40) - 1, 10**20),
        ],
    )
    def test_rational_hash_edge_cases(self, n, d):
        assert hash(CycQ(Fraction(n, d))) == hash(Fraction(n, d))

    @given(st.integers(), st.integers(2, 10**25))
    def test_rational_hash_is_fractions(self, n, d):
        assert hash(from_ratios(n, d, 0, 1)) == hash(Fraction(n, d))

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


# Fraction parts over mixed denominators, zero included
A_DENOMINATORS, B_DENOMINATORS = (1, 2, 3, 4, 6, 9, 12), (1, 2, 5, 7)
mixed_parts = st.tuples(
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from(A_DENOMINATORS)),
    st.builds(Fraction, st.integers(-40, 40), st.sampled_from(B_DENOMINATORS)),
)
ZERO_PARTS = (Fraction(0), Fraction(0))


def reference(parts):
    return FractionCycQ(*parts)


def canonical_triple(ref):
    """The canonical (a, b, d) of a reference value, read off its two
    Fractions: d is the lcm of their denominators."""
    a, b = ref.a, ref.b
    d = a.denominator * b.denominator // gcd(a.denominator, b.denominator)
    return int(a * d), int(b * d), d


def unreduced(triple, k):
    a, b, d = triple
    return a * k, b * k, d * k


class TestIntCoreAgainstFractionPairs:
    """cyclotomic's int core (_lowest, _plus, _times, _int_inverse, _int_power)
    against FractionCycQ, which pairs two Fractions and shares no code with it."""

    @given(mixed_parts, st.integers(1, 60))
    def test_lowest_terms(self, parts, k):
        triple = canonical_triple(reference(parts))
        assert cyclotomic._lowest(*triple) == triple
        assert cyclotomic._lowest(*unreduced(triple, k)) == triple
        assert cyclotomic._lowest(0, 0, k) == (0, 0, 1)

    @given(mixed_parts, mixed_parts)
    def test_products(self, p1, p2):
        for s, t in ((p1, p2), (p1, ZERO_PARTS), (p1, p1)):
            s, t = reference(s), reference(t)
            got = cyclotomic._times(canonical_triple(s), canonical_triple(t))
            assert got == canonical_triple(s * t)

    @given(mixed_parts, mixed_parts)
    def test_sums(self, p1, p2):
        for s, t in ((p1, p2), (p1, ZERO_PARTS), (p1, p1)):  # (p1, p1) on one denominator
            s, t = reference(s), reference(t)
            got = cyclotomic._plus(canonical_triple(s), canonical_triple(t))
            assert got == canonical_triple(s + t)

    @given(mixed_parts)
    def test_inverse(self, parts):
        ref = reference(parts)
        if ref.a or ref.b:
            assert cyclotomic._int_inverse(canonical_triple(ref)) == canonical_triple(ref.inverse())
        else:
            with pytest.raises(ZeroDivisionError):
                cyclotomic._int_inverse(canonical_triple(ref))

    @given(mixed_parts, st.integers(0, 40))
    def test_powers(self, parts, n):
        ref = reference(parts)
        assert cyclotomic._int_power(canonical_triple(ref), n) == canonical_triple(ref**n)

    @pytest.mark.parametrize(
        "parts",
        [
            ZERO_PARTS,
            (Fraction(1), Fraction(0)),
            (Fraction(-1), Fraction(0)),
            (Fraction(0), Fraction(1)),
            (Fraction(-5, 12), Fraction(3, 7)),
            (Fraction(7, 9), Fraction(-1, 2)),
            (Fraction(2), Fraction(1, 5)),
        ],
        ids=["0", "1", "-1", "q", "(-5/12)+(3/7)q", "(7/9)-(1/2)q", "2+(1/5)q"],
    )
    def test_every_power_up_to_40(self, parts):
        ref, out = reference(parts), FractionCycQ(1)
        triple = canonical_triple(ref)
        for n in range(41):
            assert cyclotomic._int_power(triple, n) == canonical_triple(out), n
            out = out * ref

    def test_q_triples_are_the_powers_of_q(self):
        q = FractionCycQ(0, 1)
        assert cyclotomic._Q_TRIPLES == tuple(canonical_triple(q**n) for n in range(3))


TABLE_ALPHAS = [
    CycQ(0), CycQ(1), CycQ(-1), CycQ(2), CycQ(Fraction(1, 2)), Q, Q * Q, CycQ(1, 1),
    CycQ(Fraction(-3, 7), Fraction(5, 7)),
]
TABLE_ALPHA_IDS = ["0", "1", "-1", "2", "1/2", "q", "q^2", "1+q", "(-3+5q)/7"]


def table_oracles(alpha):
    """Every key the scalar table may hold for x <= 12 and y <= 5, with the
    CycQ value it names, from CycQ powers, q_number and the bracket formula."""
    ints = (alpha._a, alpha._b, alpha._d)
    cases = []
    for x in range(13):
        geometric = sum((alpha**i for i in range(x)), ZERO)
        assert q_number(x, alpha) == geometric
        cases.append(((forms._DERIVATIVE, x, 0, *ints), geometric))
        for y in range(6):
            cases.append(((forms._TOP, x, y, *ints), alpha**x * q_power(y)))
            if x:
                bracket = q_number(x, alpha) * alpha ** ((x - 1) * y) * (alpha**y - q_power(y))
                cases.append(((forms._BRACKET, x, y, *ints), bracket))
    return cases


class TestScalarTableOnInts:
    """forms._scalar computes each entry on alpha's ints; every kind must
    equal its CycQ oracle, whether the entries it reads are there or not."""

    @pytest.mark.parametrize("alpha", TABLE_ALPHAS, ids=TABLE_ALPHA_IDS)
    def test_entries_match_the_cycq_oracles(self, monkeypatch, alpha):
        cases = table_oracles(alpha)
        for order in (cases, cases[::-1]):  # the top entries stored first, then last
            warm = {}
            monkeypatch.setattr(forms, "_SCALARS", warm)
            for key, value in order:
                expected = (value._a, value._b, value._d)
                assert forms._scalar(key) == expected, key
                assert warm[key] == expected
        for key, value in cases:  # each on an empty table
            monkeypatch.setattr(forms, "_SCALARS", {})
            assert forms._scalar(key) == (value._a, value._b, value._d), key

    def test_entries_at_q_are_the_exponent_values(self, monkeypatch):
        # at alpha q the kernel and _derived read no table: alpha**x * q**y is
        # q**((x + y) % 3), and [x]_q is 0, 1 or 1 + q by x % 3
        ints = (Q._a, Q._b, Q._d)
        for x in range(61):
            for y in range(3):
                monkeypatch.setattr(forms, "_SCALARS", {})
                assert forms._scalar((forms._TOP, x, y, *ints)) == cyclotomic._Q_TRIPLES[(x + y) % 3], (x, y)
            monkeypatch.setattr(forms, "_SCALARS", {})
            assert forms._scalar((forms._DERIVATIVE, x, 0, *ints)) == forms._Q_INTEGERS[x % 3], x

    def test_the_values_vanish_in_different_places(self):
        # [x]_alpha and the bracket factor alpha**y - q**y are zero at
        # different keys for different alphas; the oracle covers them all
        zeros = {}
        for alpha, name in zip(TABLE_ALPHAS, TABLE_ALPHA_IDS):
            zeros[name] = {key[:3] for key, value in table_oracles(alpha) if not value}
        _BRACKET, _DERIVATIVE = forms._BRACKET, forms._DERIVATIVE
        assert (_DERIVATIVE, 3, 0) in zeros["q^2"] and (_DERIVATIVE, 2, 0) not in zeros["q^2"]
        assert (_DERIVATIVE, 2, 0) in zeros["-1"] and (_DERIVATIVE, 3, 0) not in zeros["-1"]
        assert (_DERIVATIVE, 3, 0) in zeros["q"]
        assert not {k for k in zeros["1"] if k[0] == _DERIVATIVE} - {(_DERIVATIVE, 0, 0)}
        assert (_BRACKET, 1, 3) in zeros["q^2"] and (_BRACKET, 1, 1) not in zeros["q^2"]
        assert all((_BRACKET, 1, y) in zeros["q"] for y in range(6))
        assert (_BRACKET, 1, 3) in zeros["1"] and (_BRACKET, 1, 1) not in zeros["1"]


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

    @pytest.mark.parametrize("output", ["text", "json"])
    @pytest.mark.parametrize("command", ["reduce", "diff", "grade", "closed"])
    def test_cli_builds_no_fractions(self, monkeypatch, command, output):
        # rational, q and mixed coefficients, and alphas off the rationals
        calls = [
            [command, "1/2*x^2 + 3/4*dx*x - 5/6*d2x*x^3"],
            [command, "q*x*d2x + q^2*dx^2 - 2*q*x", "--alpha", "2"],
            [command, "(1/2 - 2/3*q)*x*dx + (1+q)*d2x^2*x^2", "--alpha", "1/2+q"],
            [command, "(5/7*q-3/7)*x^2*d2x", "--alpha", "5/7*q-3/7"],
            [command, "x^2 + 1/3*x*dx", "--anyonic"],
            [command, "--alpha=2/3", "7/9*x^2*d2x"],  # argparse's route
        ]
        for argv in calls:
            if command == "diff":
                argv += ["-n", "2"]
            argv += ["--output", output]
        made = 0
        original = Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            nonlocal made
            made += 1
            return original(cls, *args, **kwargs)

        out = io.StringIO()
        monkeypatch.setattr(fractions.Fraction, "__new__", counting_new)
        with contextlib.redirect_stdout(out):
            codes = [main(argv) for argv in calls]
        monkeypatch.undo()
        assert codes == [0] * len(calls)
        assert made == 0
