"""Form module: grading, module structure and the twisted product."""

from __future__ import annotations

import importlib
import inspect
import itertools
import random
import sys
from collections import Counter
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import form_parser
from qforms import cyclotomic, forms, parser, polynomial
from qforms.calculus import CalculusConfig, derivative, q_bracket, twist, twist_power
from qforms.differential import differential
from qforms.checks import random_form, random_homogeneous_form, random_poly, run_suites
from qforms.cyclotomic import ONE, Q, CycQ, q_power
from qforms.forms import Form, FormMonomial, swap_scalar
from qforms.parser import parse, render
from qforms.polynomial import ModeMismatchError, Poly

# the package re-exports the function differential under the module's name
differential_module = importlib.import_module("qforms.differential")

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
    CalculusConfig(CycQ(-1, -1)),
    CalculusConfig(CycQ(0)),
    CalculusConfig(CycQ(-1)),
    CalculusConfig(CycQ(0, Fraction(1, 2))),
    CalculusConfig(CycQ(0, 2)),
]
# q/2 and 2q differ from q in one int each, d and b, so a test for alpha == q
# that skipped one would read them as q
KERNEL_IDS = ["q", "anyonic", "2", "1+q", "1", "1+2q", "(-3+5q)/7", "q^2", "0", "-1", "q/2", "2q"]


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


def push_left(k, m, g, cfg):
    """Closed-form normal form of dx**k * d2x**m * g, one word pair at a time:
    twist**(m+k)(g) on (k, m), plus (alpha**m - q**m) * twist**m(derivative(g))
    on (2, m-1) when k == 0 and m >= 1. Computes every word, dead or not."""
    words = [(FormMonomial(k, m), twist_power(g, m + k, cfg))]
    if k == 0 and m:
        scale = cfg.alpha**m - q_power(m)
        if scale:
            low = derivative(g, cfg)
            if low:
                words.append((FormMonomial(2, m - 1), reference_scale(scale, twist_power(low, m, cfg))))
    return words


def pairwise_mul(u, v, cfg):
    """Reference product: push each right coefficient left with push_left,
    append the right word with its swap scalar q**(2mj), drop words that reach
    dx**3, and scale and multiply by the left coefficient through the CycQ
    loops of reference_scale and reference_poly_mul, which share no code
    with the int kernel."""
    out = Form.zero(u.truncated)
    for mon_u, f in u.items():
        for mon_v, g in v.items():
            for mon, poly in push_left(mon_u.dx, mon_u.d2x, g, cfg):
                if mon.dx + mon_v.dx >= 3:
                    continue
                word = FormMonomial(mon.dx + mon_v.dx, mon.d2x + mon_v.d2x)
                scalar = q_power(2 * mon.d2x * mon_v.dx)
                out = out + Form({word: reference_poly_mul(f, reference_scale(scalar, poly))}, u.truncated)
    return out


def random_kernel_form(rng, cfg, max_d2x=6, max_degree=6):
    """Up to four terms on words with dx**0..2 and d2x**0..max_d2x."""
    terms = {
        (rng.randint(0, 2), rng.randint(0, max_d2x)): random_poly(rng, cfg.anyonic, max_degree)
        for _ in range(rng.randint(1, 4))
    }
    return Form(terms, cfg.anyonic)


def kernel_line(text):
    """The number of the one line of forms._mul whose source contains text."""
    lines, first = inspect.getsourcelines(forms._mul)
    found = [first + i for i, line in enumerate(lines) if text in line]
    assert len(found) == 1, f"{text!r} is on {len(found)} lines of forms._mul"
    return found[0]


# lines of forms._mul's loop: the first reads a right term that a scalar
# twists, the second starts a term pair, the third multiplies one that
# x**3 == 0 leaves
TWISTED_TERM, TERM_PAIR, PRODUCT = "if kind and not e2:", "e = e1 + e2", "cross = b1 * b2"


def trace_kernel(monkeypatch, on_line, on_call=lambda name: None):
    """Trace the frames of forms._mul: on_line[n]() runs each time _mul runs
    its line n, on_call(name) for each qforms function _mul calls itself.
    The wrapper stands in for _mul under both names callers read it by:
    forms._mul (Form.mul, left_mul, Poly.__mul__) and parser._mul."""
    mul = forms._mul
    code = mul.__code__

    def in_mul(frame, event, arg):
        if event == "line" and frame.f_lineno in on_line:
            on_line[frame.f_lineno]()
        return in_mul

    def on_frame(frame, event, arg):
        if frame.f_code is code:
            return in_mul
        caller, module = frame.f_back, frame.f_globals.get("__name__", "")
        if caller is not None and caller.f_code is code and module.startswith("qforms."):
            on_call(frame.f_code.co_name)  # and not, say, a gc callback of a test tool
        return None

    def traced(*args):
        previous = sys.gettrace()
        sys.settrace(on_frame)
        try:
            return mul(*args)
        finally:
            sys.settrace(previous)

    monkeypatch.setattr(forms, "_mul", traced)
    monkeypatch.setattr(parser, "_mul", traced)


def count_kernel_work(monkeypatch, limit=None):
    """Count the scalar work of Form.mul, differential and Poly.__mul__.

    "products" counts the term pairs that forms._mul multiplies, each term
    of the left map by each right term as its scalar left it, by tracing the
    line of _mul's loop that multiplies; "top", "bracket" and "derivative"
    count the kernel's lookups in the scalar table by key kind, each at most
    one product of a coefficient with a scalar; "misses" counts the lookups
    that compute their scalar. The entries that a miss reads or computes on
    the way (alpha**n, [x]_alpha) are the table's own work, not the kernel's
    lookups, and are not counted here; count_scalar_products counts their
    int-core products. The table starts empty, so misses do not depend on
    what ran before. Past `limit` products and lookups in all, the next one
    raises.
    """
    work = Counter()
    kinds = {forms._TOP: "top", forms._BRACKET: "bracket", forms._DERIVATIVE: "derivative"}
    computing = 0  # nesting depth of _scalar calls

    def tally(name, n):
        work[name] += n
        if limit is not None and sum(work.values()) - work["misses"] > limit:
            raise RuntimeError(f"the kernel did over {limit} scalar products")

    class CountingTable(dict):
        def get(self, key):
            if not computing:
                tally(kinds[key[0]], 1)
            return super().get(key)

    scalar = forms._scalar

    def counted_scalar(key):
        nonlocal computing
        work["misses"] += not computing
        computing += 1
        try:
            return scalar(key)
        finally:
            computing -= 1

    trace_kernel(monkeypatch, {kernel_line(PRODUCT): lambda: tally("products", 1)})
    monkeypatch.setattr(forms, "_SCALARS", CountingTable())
    monkeypatch.setattr(forms, "_scalar", counted_scalar)
    return work


def lookups(work):
    return work["top"] + work["bracket"] + work["derivative"]


A_DENOMINATORS, B_DENOMINATORS = (1, 2, 3, 4, 6, 9, 12), (1, 2, 5, 7)


def random_fraction_scalar(rng):
    """A nonzero a + b*q whose parts are Fractions over mixed denominators."""
    while True:
        a = Fraction(rng.randint(-9, 9), rng.choice(A_DENOMINATORS))
        b = Fraction(rng.randint(-9, 9), rng.choice(B_DENOMINATORS))
        if a or b:
            return CycQ(a, b)


def random_fraction_form(rng, cfg, max_d2x=4):
    """Up to four terms, each with up to three Fraction coefficients."""
    top = 2 if cfg.anyonic else 6
    terms = {
        (rng.randint(0, 2), rng.randint(0, max_d2x)): Poly(
            {rng.randint(0, top): random_fraction_scalar(rng) for _ in range(rng.randint(1, 3))},
            cfg.anyonic,
        )
        for _ in range(rng.randint(1, 4))
    }
    return Form(terms, cfg.anyonic)


def reference_scale(c, f):
    """Poly.scale as one CycQ product per term, built with the public Poly(...)."""
    return Poly({e: c * x for e, x in f.items()}, f.truncated)


def reference_poly_mul(f, g):
    """Poly.__mul__ as one double loop of CycQ products and sums, built with
    the public Poly(...)."""
    out = {}
    for d1, c1 in f.items():
        for d2, c2 in g.items():
            degree = d1 + d2
            if f.truncated and degree >= 3:
                continue
            acc = out.get(degree)
            out[degree] = c1 * c2 if acc is None else acc + c1 * c2
    return Poly(out, f.truncated)


# Hypothesis cases for the kernel oracles, beyond random_kernel_form and
# random_fraction_form: the alphas at which scalars vanish or repeat (0, 1,
# -1, q**2) next to anyonic mode and (-3+5q)/7; parts over the mixed
# denominators up to 12 and 7; anyonic degrees 1 and 2 only, so that most
# coefficient products reach x**3, which x**3 == 0 kills; and, one case in
# three, the pair f - f*dx and g + twist(g)*dx, whose product cancels its dx
# word whole and its sums on the empty word partly.
WIDE_CFGS = [
    CalculusConfig(CycQ(0)),
    CFG_1,
    CalculusConfig(CycQ(-1)),
    CalculusConfig(CycQ(-1, -1)),
    CFG_ANY,
    CalculusConfig(CycQ(Fraction(-3, 7), Fraction(5, 7))),
]
wide_scalars = st.builds(
    CycQ,
    st.fractions(min_value=-9, max_value=9, max_denominator=12),
    st.fractions(min_value=-9, max_value=9, max_denominator=7),
).filter(bool)


@st.composite
def wide_cases(draw):
    """(cfg, u, v): a configuration of WIDE_CFGS and two forms of its mode."""
    cfg = draw(st.sampled_from(WIDE_CFGS))
    t = cfg.anyonic
    degrees = st.integers(1, 2) if t else st.integers(0, 4)

    def poly():
        chosen = draw(st.lists(degrees, min_size=1, max_size=3, unique=True))
        return Poly({d: draw(wide_scalars) for d in chosen}, t)

    if draw(st.integers(0, 2)) == 0:
        f, g = poly(), poly()
        return cfg, Form({(0, 0): f, (1, 0): -f}, t), Form({(0, 0): g, (1, 0): twist(g, cfg)}, t)
    words = st.lists(st.tuples(st.integers(0, 2), st.integers(0, 2)), min_size=1, max_size=3, unique=True)
    return cfg, *(Form({w: poly() for w in draw(words)}, t) for _ in range(2))


WIDE_SETTINGS = settings(max_examples=45, deadline=None, suppress_health_check=[HealthCheck.too_slow])


def reference_differential(u: Form, cfg: CalculusConfig) -> Form:
    """differential on Poly and CycQ arithmetic, as it was before the int kernel."""
    if u.truncated != cfg.anyonic:
        raise ModeMismatchError("form mode does not match the configuration")
    out: dict[FormMonomial, Poly] = {}
    word = tuple.__new__  # unchecked: every word below has dx power <= 2, d2x power >= 0

    def add(mon: tuple[int, int], poly: Poly) -> None:
        mon = word(FormMonomial, mon)
        acc = out.get(mon)
        out[mon] = poly if acc is None else acc + poly

    for (k, m), f in u.items():
        if k == 0:
            add((1, m), derivative(f, cfg))
        elif k == 1:
            add((0, m + 1), f)
            add((2, m), derivative(f, cfg))
        else:
            add((1, m + 1), -f)
    return Form(out, u.truncated)


@st.composite
def meeting_cases(draw):
    """(cfg, u, m, cancelled): a configuration of WIDE_CFGS and a form of its
    mode that holds f on d2x**m and g on dx**2 * d2x**(m-1), whose images
    meet on dx * d2x**m, with up to two more words; f has an x term, so
    derivative(f) != 0, and one draw in three g == derivative(f), whose
    image cancels f's there."""
    cfg = draw(st.sampled_from(WIDE_CFGS))
    t = cfg.anyonic
    degrees = st.integers(1, 2) if t else st.integers(0, 4)

    def poly(*required):
        chosen = {*required, *draw(st.lists(degrees, min_size=1, max_size=3))}
        return Poly({d: draw(wide_scalars) for d in chosen}, t)

    m = draw(st.integers(1, 3))
    words = draw(st.lists(st.tuples(st.integers(0, 2), st.integers(0, 3)), max_size=2, unique=True))
    terms = {w: poly() for w in words}
    f = terms[0, m] = poly(1)
    cancelled = draw(st.integers(0, 2)) == 0
    terms[2, m - 1] = derivative(f, cfg) if cancelled else poly()
    return cfg, Form(terms, t), m, cancelled


def assert_canonical(value):
    """Every scalar canonical, no zero coefficient, no empty word."""
    polys = [p for _, p in value.items()] if isinstance(value, Form) else [value]
    for poly in polys:
        assert poly.items()
        for _, c in poly.items():
            assert c and c._d > 0 and gcd(c._a, c._b, c._d) == 1


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

    @pytest.mark.parametrize("powers", [(1.0, 0), (0, 0.5), (True, 0), (0, False), (Fraction(1), 0), ("1", 0)])
    def test_non_int_powers_rejected(self, powers):
        with pytest.raises(TypeError, match="must be ints"):
            FormMonomial(*powers)

    @pytest.mark.parametrize("powers", [(1.0, 0), (0, 1.5), (True, 0)])
    def test_forms_reject_non_int_words(self, powers):
        # before, Form.basis(1.5, 0) rendered as 'dx^1.5', which parse refuses
        with pytest.raises(TypeError, match="must be ints"):
            Form({powers: Poly.one()})
        with pytest.raises(TypeError, match="must be ints"):
            Form.basis(*powers)
        with pytest.raises(TypeError, match="must be ints"):
            Form.basis(0, 0).coefficient(powers)

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

    @pytest.mark.parametrize("truncated", [False, True], ids=["generic", "anyonic"])
    def test_scalar_left_action_matches_the_constant_polynomial(self, truncated):
        cfg = CFG_ANY if truncated else CFG_Q
        rng = random.Random(59)
        scalars = [0, 3, -2, Fraction(-3, 4), Fraction(0), CycQ(0), CycQ(Fraction(1, 2), -3)]
        scalars += [q_power(k) for k in range(3)]
        forms = [Form.zero(truncated)] + [random_form(rng, cfg) for _ in range(20)]
        for u in forms:
            for c in scalars:
                scaled = u.left_mul(c)
                expected = u.left_mul(Poly.constant(c, truncated))
                assert scaled == expected
                assert [(m, list(p.items())) for m, p in scaled.items()] == [
                    (m, list(p.items())) for m, p in expected.items()
                ]

    def test_left_action_rejects_bad_factors(self):
        for u in (Form.zero(), Form.basis(1, 0)):
            with pytest.raises(ModeMismatchError):
                u.left_mul(Poly.x(truncated=True))
            with pytest.raises(TypeError):
                u.left_mul("x")
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0, truncated=True).left_mul(Poly.x())

    @pytest.mark.parametrize("coeff", [5, CycQ(5), None, "x", Form.one()], ids=["int", "CycQ", "None", "str", "Form"])
    def test_a_coefficient_that_is_not_a_poly_is_a_type_error(self, coeff):
        # before, a missing .truncated attribute escaped as AttributeError
        with pytest.raises(TypeError, match="coefficient must be a Poly"):
            Form({(0, 0): coeff})
        with pytest.raises(TypeError, match="coefficient must be a Poly"):
            Form({(1, 0): Poly.x(), (0, 0): coeff})

    @pytest.mark.parametrize("other", [5, Q, Poly.x(), None], ids=["int", "CycQ", "Poly", "None"])
    def test_multiplying_by_a_non_form_is_a_type_error(self, other):
        # before, a missing ._truncated attribute escaped as AttributeError
        for u in (Form.basis(1, 0), Form.zero()):
            with pytest.raises(TypeError, match="cannot multiply a Form by"):
                u.mul(other, CFG_Q)

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_negation_and_difference(self, cfg):
        rng = random.Random(61)
        for _ in range(20):
            u, v = random_fraction_form(rng, cfg), random_form(rng, cfg)
            assert -u == u.left_mul(-1) and -(-u) == u
            assert u - v == u + v.left_mul(-1) and (u - v) + v == u
            assert (u - u).is_zero()

    def test_mode_mismatch_detected(self):
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0) + Form.basis(1, 0, truncated=True)
        with pytest.raises(ModeMismatchError):
            Form({(0, 0): Poly.x(truncated=True)})
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0).mul(Form.basis(0, 1), CFG_ANY)
        with pytest.raises(ModeMismatchError):
            Form.basis(1, 0, truncated=True).mul(Form.basis(0, 1), CFG_ANY)

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
            product = Form.basis(k, m, cfg.anyonic).mul(Form.from_poly(g), cfg)
            assert len(product.items()) <= 2
            assert product == collect(recursive_push_left(k, m, g, cfg), cfg.anyonic)

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

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_bracket_word_is_the_summed_bracket(self, cfg):
        # (alpha^m - q^m) twist^m(dg) == sum_{i<m} alpha^i q^(m-1-i) twist^(m-1)(q_bracket(g))
        rng = random.Random(31)
        alpha = cfg.alpha
        for m in range(1, 8):
            for _ in range(6):
                g = random_poly(rng, cfg.anyonic)
                summed = q_bracket(g, cfg)
                for _ in range(m - 1):
                    summed = twist(summed, cfg)
                total = sum((alpha**i * q_power(m - 1 - i) for i in range(m)), CycQ(0))
                closed = twist_power(derivative(g, cfg), m, cfg).scale(alpha**m - q_power(m))
                assert closed == summed.scale(total)

    def test_calculus_calls_per_word_pair_are_constant(self, monkeypatch):
        # a word pair costs at most two accumulator products and two table
        # lookups for monomial coefficients, whatever m; a left word d2x**m
        # (no dx, m >= 1) adds the one top lookup, alpha**m, that tests its
        # bracket factor; the misses are the kernel's only calls into calculus
        cfg = CalculusConfig(CycQ(2))
        work = count_kernel_work(monkeypatch, limit=1000)
        for m in range(17):
            work.clear()
            Form.basis(0, m).mul(Form.from_poly(Poly.monomial(m)), cfg)
            assert 1 <= work["products"] <= 2
            assert work["misses"] <= lookups(work) <= 2 + (m >= 1)
        assert work["products"] == 2 and work["top"] == 2 and work["bracket"] == 1  # at m == 16
        work.clear()
        m = 16
        u = Form({(k, m): Poly.monomial(m) for k in range(3)})
        v = Form({(0, 0): Poly.monomial(m), (1, 2): Poly.x(), (0, m): Poly.one()})
        u.mul(v, cfg)
        pairs = len(u.items()) * len(v.items())
        assert 1 <= work["products"] <= 2 * pairs
        assert work["misses"] <= lookups(work) <= 2 * pairs + 1  # one left word d2x**16


class TestFusedKernel:
    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_matches_the_pairwise_kernel(self, cfg):
        rng = random.Random(37)
        seen = Counter()
        for _ in range(30):
            u, v = random_kernel_form(rng, cfg), random_kernel_form(rng, cfg)
            assert u.mul(v, cfg) == pairwise_mul(u, v, cfg)
            for (mon_u, _), (mon_v, _) in itertools.product(u.items(), v.items()):
                k, m, j = mon_u.dx, mon_u.d2x, mon_v.dx
                seen["dead top"] += k + j >= 3
                seen["dead bracket"] += k == 0 and m >= 1 and j >= 1
                # alpha**m == q**m: at alpha == q**2 exactly when 3 | m
                seen["zero factor"] += (
                    k == 0 and m >= 1 and j == 0 and cfg.alpha**m == q_power(m)
                )
            # pieces that a per-call memo would have shared between left words
            brackets = [
                mon
                for mon, _ in u.items()
                if mon.dx == 0 and mon.d2x and cfg.alpha**mon.d2x != q_power(mon.d2x)
            ]
            for mon_v, _ in v.items():
                j = mon_v.dx
                live = Counter(mon.dx + mon.d2x for mon, _ in u.items() if mon.dx + j < 3)
                seen["shared twist"] += any(count > 1 for count in live.values())
                seen["shared derivative"] += j == 0 and len(brackets) > 1
        assert seen["dead top"] and seen["dead bracket"] and seen["shared twist"]
        if cfg.alpha != Q:  # alpha**m == q**m for every m at alpha == q
            assert seen["shared derivative"]
        if cfg.alpha == Q * Q:
            assert seen["zero factor"]

    def test_q_exponents_reach_every_residue(self):
        # at alpha q the kernel reads each top scalar as q**((e2*t + y) % 3),
        # t = m + k and y = 2mj % 3, with no table: degrees up to 30 and d2x
        # powers up to 6 meet every residue under every y
        rng = random.Random(73)
        seen = set()
        for _ in range(30):
            u = random_kernel_form(rng, CFG_Q, max_degree=30)
            v = random_kernel_form(rng, CFG_Q, max_degree=30)
            assert u.mul(v, CFG_Q) == pairwise_mul(u, v, CFG_Q)
            for (mon_u, _), (mon_v, g) in itertools.product(u.items(), v.items()):
                k, m, j = mon_u.dx, mon_u.d2x, mon_v.dx
                y = 2 * m * j % 3
                if k + j < 3 and m + k:
                    seen.update((y, (e * (m + k) + y) % 3) for e, _ in g.items())
        assert seen == set(itertools.product(range(3), repeat=2))

    def test_dead_words_cost_no_calculus(self, monkeypatch):
        # no product, no table lookup, so no call into calculus either
        work = count_kernel_work(monkeypatch)
        cfg = CalculusConfig(CycQ(2))
        for m in range(4):
            for n in range(4):
                for k, j in ((2, 1), (1, 2), (2, 2)):
                    assert Form.basis(k, m).mul(Form.basis(j, n), cfg).is_zero()
        assert not work

    @pytest.mark.parametrize("j", [1, 2])
    def test_bracket_killed_by_a_right_dx_takes_no_derivative(self, monkeypatch, j):
        cfg = CalculusConfig(CycQ(2))
        u, v = Form.basis(0, 4), Form({(j, 1): Poly.monomial(3)})
        expected = pairwise_mul(u, v, cfg)
        work = count_kernel_work(monkeypatch)
        assert u.mul(v, cfg) == expected
        # one top lookup scales the top word; the bracket factor alpha**4 - q**4
        # is never tested, as no right word without dx carries a bracket word
        assert work == {"top": 1, "misses": 1, "products": 1}

    def test_a_right_factor_of_constants_takes_no_bracket_test(self, monkeypatch):
        # the bracket kills constants, so d2x**4 * 3*d2x never tests alpha**4
        # != q**4; the one top lookup scales the top word by alpha**0
        cfg = CalculusConfig(CycQ(Fraction(-3, 7), Fraction(5, 7)))
        u, v = Form.basis(0, 4), Form({(0, 1): Poly.constant(3)})
        expected = pairwise_mul(u, v, cfg)
        work = count_kernel_work(monkeypatch)
        assert u.mul(v, cfg) == expected
        assert work == {"top": 1, "misses": 1, "products": 1}

    @pytest.mark.parametrize(
        "alpha, u, expected",
        [
            (CycQ(0), Form.basis(1, 0), {"top": 1, "misses": 1}),
            (CycQ(-1, -1), Form.basis(0, 1), {"top": 2, "bracket": 1, "misses": 3, "products": 1}),
        ],
        ids=["0", "q^2"],
    )
    def test_zero_scalars_leave_no_term(self, monkeypatch, alpha, u, expected):
        # dx * x**3 at alpha 0: the top scalar alpha**3 is zero; d2x * x**3 at
        # alpha q**2: the bracket scalar holds [3]_alpha == 0, the top one
        # alpha**3 == 1 does not
        cfg = CalculusConfig(alpha)
        v = Form.from_poly(Poly.monomial(3))
        product = pairwise_mul(u, v, cfg)
        work = count_kernel_work(monkeypatch)
        assert u.mul(v, cfg) == product and len(product.items()) == expected.get("products", 0)
        assert work == expected

    @pytest.mark.parametrize("cfg", [CalculusConfig(CycQ(2)), CFG_Q, CFG_ANY], ids=["2", "q", "anyonic"])
    def test_bracket_factor_comes_from_the_scalar_table(self, monkeypatch, cfg):
        # alpha**m is read from the table's top entry (m, 0); once the table
        # holds it, Form.mul computes no power of alpha
        u = Form({(0, 3): Poly.x(cfg.anyonic), (0, 4): Poly.one(cfg.anyonic)}, cfg.anyonic)
        v = Form({(0, 0): Poly.x(cfg.anyonic), (0, 1): Poly.one(cfg.anyonic)}, cfg.anyonic)
        expected = pairwise_mul(u, v, cfg)
        assert u.mul(v, cfg) == expected

        def no_power(*args):
            raise AssertionError("a power of alpha computed")

        monkeypatch.setattr(CycQ, "__pow__", no_power)
        monkeypatch.setattr(cyclotomic, "_int_power", no_power)
        monkeypatch.setattr(forms, "_int_power", no_power)
        assert u.mul(v, cfg) == expected

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_builds_no_term_list_per_word_pair(self, monkeypatch, cfg):
        # every live word pair is one pass of _mul's own loop, with no list
        # of twisted terms: once the table holds the scalars, _mul calls
        # nothing but _add_unlike, which adds a product to a sum over another
        # denominator, and _reduced (test_reduces_only_what_needs_it counts it)
        rng = random.Random(43)
        pairs = [(random_kernel_form(rng, cfg), random_kernel_form(rng, cfg)) for _ in range(10)]
        monkeypatch.setattr(forms, "_SCALARS", {})  # filled below, and far from full
        expected = [u.mul(v, cfg) for u, v in pairs]

        calls = Counter()
        trace_kernel(monkeypatch, {}, lambda name: calls.update([name]))
        assert [u.mul(v, cfg) for u, v in pairs] == expected
        assert calls.keys() <= {"_reduced", "_add_unlike"}
        live = sum(mu.dx + mv.dx < 3 for u, v in pairs for mu, _ in u.items() for mv, _ in v.items())
        assert live > 2 * len(pairs)

    @pytest.mark.parametrize(
        "left, right, anyonic, reductions",
        [
            ("1+x", "1+2*x", False, 0),  # Eisenstein integers throughout
            ("1+x", "1-x", False, 1),  # the x sum cancels
            ("1/2*x", "2*x", False, 1),  # a product over d == 2
            ("1+1/2*x^2", "x^2+2", True, 1),  # x^2/2 * 2 meets x^2 over d == 1: the one unlike add
            ("x^2", "x", True, 1),  # the only word dies at x**3 == 0
        ],
    )
    def test_reduces_only_what_needs_it(self, monkeypatch, left, right, anyonic, reductions):
        # _mul reduces its sums once where a sum is over d != 1, cancels or
        # leaves its word empty, and otherwise returns them as they are
        cfg = CalculusConfig(Q, anyonic=True) if anyonic else CalculusConfig(CycQ(2))
        u, v = parser.parse(left, cfg), parser.parse(right, cfg)
        expected = pairwise_mul(u, v, cfg)
        calls = Counter()
        trace_kernel(monkeypatch, {}, lambda name: calls.update([name]))
        product = u.mul(v, cfg)
        assert product == expected
        assert_canonical(product)
        assert calls["_reduced"] == reductions and calls.keys() <= {"_reduced", "_add_unlike"}

    def test_makes_no_poly_products(self, monkeypatch):
        made = 0
        poly_mul = Poly.__mul__

        def counting(self, other):
            nonlocal made
            made += 1
            return poly_mul(self, other)

        rng = random.Random(41)
        pairs = [
            (cfg, random_kernel_form(rng, cfg), random_kernel_form(rng, cfg))
            for cfg in KERNEL_CFGS
            for _ in range(5)
        ]
        monkeypatch.setattr(Poly, "__mul__", counting)
        for cfg, u, v in pairs:
            u.mul(v, cfg)
        assert made == 0


class TestIntegerKernel:
    """The int kernel against CycQ oracles on Fraction coefficients, whose
    products meet over mixed denominators and so add over an lcm."""

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_products_match_the_pairwise_kernel(self, cfg):
        rng = random.Random(43)
        for _ in range(25):
            u, v = random_fraction_form(rng, cfg), random_fraction_form(rng, cfg)
            product = u.mul(v, cfg)
            assert product == pairwise_mul(u, v, cfg)
            assert_canonical(product)

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_products_that_cancel(self, cfg):
        # u = f - f*dx and v = g + twist(g)*dx: the word dx cancels whole,
        # f*twist(g) - f*twist(g), and on the word 1, f*g == s*(a**2 - b**2*x**2)
        # cancels at x**1
        rng = random.Random(47)
        t = cfg.anyonic
        for _ in range(10):
            a, b, s = (random_fraction_scalar(rng) for _ in range(3))
            f, g = Poly({0: a, 1: b}, t), Poly({0: a * s, 1: -b * s}, t)
            u = Form({(0, 0): f, (1, 0): -f}, t)
            v = Form({(0, 0): g, (1, 0): twist(g, cfg)}, t)
            product = u.mul(v, cfg)
            assert product == pairwise_mul(u, v, cfg)
            assert_canonical(product)
            words = dict(product.items())
            assert (1, 0) not in words
            assert dict(words[(0, 0)].items()).keys() == {0, 2}

    @pytest.mark.parametrize("cfg", KERNEL_CFGS, ids=KERNEL_IDS)
    def test_differential_matches_the_reference(self, cfg):
        rng = random.Random(53)
        t = cfg.anyonic
        for _ in range(25):
            u = random_fraction_form(rng, cfg)
            du = differential(u, cfg)
            assert du == reference_differential(u, cfg)
            assert_canonical(du)
        # d(f*d2x**m + h*dx**2*d2x**(m-1)) carries derivative(f) - h on dx*d2x**m
        for m in range(1, 4):
            f = Poly({e: random_fraction_scalar(rng) for e in range(1, 3 if t else 5)}, t)
            low = derivative(f, cfg)
            one_degree = Poly(dict(list(low.items())[:1]), t)
            for h, cancelled in ((low, set(dict(low.items()))), (one_degree, set(dict(one_degree.items())))):
                u = Form({(0, m): f, (2, m - 1): h}, t)
                du = differential(u, cfg)
                assert du == reference_differential(u, cfg)
                assert_canonical(du)
                left = dict(du.coefficient((1, m)).items())
                assert not cancelled & left.keys()
                assert left.keys() == set(dict(low.items())) - cancelled

    @WIDE_SETTINGS
    @given(case=meeting_cases())
    def test_meeting_images_match_the_reference(self, case):
        # the one word where two images meet, summed and reduced, and
        # dropped where they cancel
        cfg, u, m, cancelled = case
        du = differential(u, cfg)
        assert du == reference_differential(u, cfg)
        assert_canonical(du)
        if cancelled:
            assert (1, m) not in dict(du.items())

    @WIDE_SETTINGS
    @given(case=wide_cases())
    def test_wide_cases_match_the_references(self, case):
        cfg, u, v = case
        product = u.mul(v, cfg)
        assert product == pairwise_mul(u, v, cfg)
        assert_canonical(product)
        du = differential(u, cfg)
        assert du == reference_differential(u, cfg)
        assert_canonical(du)
        f, g = next(iter(u.items()))[1], list(v.items())[-1][1]
        assert f * g == reference_poly_mul(f, g)
        assert u.left_mul(g) == Form({mon: reference_poly_mul(g, h) for mon, h in u.items()}, u.truncated)

    def test_wide_cases_reach_what_they_are_for(self):
        # anyonic degree sums of 3 or more, cancelled words, all the alphas
        seen = Counter()

        @settings(WIDE_SETTINGS, max_examples=25, derandomize=True, database=None)
        @given(case=wide_cases())
        def record(case):
            cfg, u, v = case
            seen[cfg] += 1
            degrees = [d for _, p in u.items() for d, _ in p.items()], [d for _, p in v.items() for d, _ in p.items()]
            seen["anyonic x**3"] += cfg.anyonic and max(degrees[0]) + max(degrees[1]) >= 3
            shape = dict(u.items()).keys() == {(0, 0), (1, 0)}
            seen["cancelled"] += shape and (1, 0) not in dict(u.mul(v, cfg).items())

        record()
        assert all(seen[cfg] for cfg in WIDE_CFGS)
        assert seen["anyonic x**3"] and seen["cancelled"]

    @pytest.mark.parametrize("truncated", [False, True], ids=["plain", "truncated"])
    def test_poly_products_match_the_scalar_loop(self, truncated):
        rng = random.Random(59)
        cfg = CFG_ANY if truncated else CFG_Q
        for _ in range(60):
            u, v = random_fraction_form(rng, cfg), random_fraction_form(rng, cfg)
            f, g = next(iter(u.items()))[1], next(iter(v.items()))[1]
            for h in (f * g, f * (-f), (f + g) * (f - g)):
                if h:
                    assert_canonical(h)
            assert f * g == reference_poly_mul(f, g)
            assert f * g - g * f == Poly.zero(truncated)

    def test_scalar_table_stays_bounded(self, monkeypatch):
        table = {}
        monkeypatch.setattr(forms, "_SCALARS", table)
        cfg = CalculusConfig(CycQ(2))
        bound = forms._CACHE_SIZE
        dx, emptied = Form.basis(1, 0), 0
        for e in range(bound + 100):  # 2 * (bound + 100) distinct keys
            size = len(table)
            g = Form.from_poly(Poly({e: CycQ(Fraction(1, e + 1), 1)}))
            assert dx.mul(g, cfg) == pairwise_mul(dx, g, cfg)
            assert differential(g, cfg) == reference_differential(g, cfg)
            assert len(table) <= bound
            emptied += len(table) < size
        assert emptied == 2
        assert all(type(x) is int for key in table for x in key)


def cancelling_partner(rng, u, cfg):
    """A form of u's mode to add to u: per word of u, one draw in four
    cancels the word whole, one cancels one degree (next to a fresh degree),
    one repeats one term, so that a like add doubles it, and one leaves the
    word to a random form's own terms."""
    t = cfg.anyonic
    terms = dict(random_fraction_form(rng, cfg).items())
    for mon, f in u.items():
        e, c = rng.choice(list(f.items()))
        draw = rng.randint(0, 3)
        if draw == 0:
            terms[mon] = -f
        elif draw == 1:
            fresh = rng.randint(0, 2 if t else 6)
            terms[mon] = Poly({fresh: random_fraction_scalar(rng), e: -c}, t)
        elif draw == 2:
            terms[mon] = Poly({e: c}, t)
    return Form(terms, t)


def termwise_sum(*signed):
    """The value of a sum of (sign, form) pairs, added term by term in CycQ:
    words and degrees in the order they first come, zeros and empty words
    dropped, each scalar as its (a, b, d)."""
    sums = {}
    for sign, u in signed:
        for mon, f in u.items():
            word = sums.setdefault(tuple(mon), {})
            for e, c in f.items():
                word[e] = word.get(e, CycQ(0)) + (c if sign > 0 else -c)
    value = {w: {e: (c._a, c._b, c._d) for e, c in coeffs.items() if c} for w, coeffs in sums.items()}
    return layout({w: coeffs for w, coeffs in value.items() if coeffs})


def layout(value):
    """A value's words and degrees in storage order, so that == compares the order too."""
    return [(w, list(coeffs.items())) for w, coeffs in value.items()]


class TestAccumulatorFlag:
    """_add_into and _add_value report whether a sum must be reduced, and
    Form and Poly sums, differences and parsed sums skip the reduction
    otherwise: where the flag is False, reducing would change nothing, not
    even the order."""

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_an_unflagged_sum_is_already_reduced(self, cfg):
        rng = random.Random(61)
        seen = Counter()
        for _ in range(300):
            u = random_fraction_form(rng, cfg)
            v = cancelling_partner(rng, u, cfg)
            for sign in (1, -1):
                sums = {}
                assert not forms._add_value(sums, u._terms)  # every term is a degree's first
                flagged = forms._add_value(sums, v._terms, sign)
                seen[flagged] += 1
                if not flagged:
                    assert layout(forms._reduced(sums)) == layout(sums)
                    seen["unflagged over d != 1"] += any(t[2] != 1 for c in sums.values() for t in c.values())
                for w, f in u._terms.items():  # one word's map at a time, as Poly.__add__ and differential add
                    g, coeffs = v._terms.get(w, {}), dict(f)
                    if not polynomial._add_into(coeffs, (g if sign > 0 else polynomial._negated(g)).items()):
                        assert list(polynomial._canonical(coeffs).items()) == list(coeffs.items())
        assert seen[True] and seen[False] and seen["unflagged over d != 1"]

    @pytest.mark.parametrize("cfg", [CFG_Q, CFG_ANY], ids=["generic", "anyonic"])
    def test_sums_match_the_termwise_oracle(self, cfg):
        rng = random.Random(67)
        t = cfg.anyonic
        for _ in range(150):
            u = random_fraction_form(rng, cfg)
            v = cancelling_partner(rng, u, cfg)
            total, difference = u + v, u - v
            assert layout(total._terms) == termwise_sum((1, u), (1, v))
            assert layout(difference._terms) == termwise_sum((1, u), (-1, v))
            if total:
                assert_canonical(total)
            # parsed, each operand is stored in its text's order
            left, right = parse(render(u), cfg), parse(render(v), cfg)
            assert (left, right) == (u, v)
            for text, sign in ((f"({render(u)}) + ({render(v)})", 1), (f"({render(u)}) - ({render(v)})", -1)):
                assert layout(parse(text, cfg)._terms) == termwise_sum((1, left), (sign, right)), text
            for w, f in u.items():
                g = v.coefficient(w)
                expected = termwise_sum((1, Form.from_poly(f)), (1, Form.from_poly(g)))
                assert layout({(0, 0): (f + g)._terms} if f + g else {}) == expected
                assert (f + g).truncated == t

    @pytest.mark.parametrize(
        "text, count",
        [("x + dx + 2*d2x", 0), ("1/2*x + dx", 0), ("x - x", 1), ("1/2*x + 1/2*x", 1), ("1/2*x + 1/3*x", 1)],
    )
    def test_parse_reduces_a_sum_only_when_flagged(self, monkeypatch, text, count):
        calls = []
        reduced = parser._reduced
        monkeypatch.setattr(parser, "_reduced", lambda sums: calls.append(sums) or reduced(sums))
        assert parse(text, CFG_Q) == form_parser.parse(text, CFG_Q)
        assert len(calls) == count


def count_scalar_products(monkeypatch):
    """Count Q(q) products outside the kernel's inlined loops: "cycq" counts
    CycQ products, "int" the int core's products (cyclotomic._times under
    every name a qforms module holds it by) that no CycQ product makes."""
    made = Counter()
    inside = 0  # nesting depth of CycQ products

    def counting_mul(fn):
        def wrapper(self, other):
            nonlocal inside
            made["cycq"] += 1
            inside += 1
            try:
                return fn(self, other)
            finally:
                inside -= 1

        return wrapper

    times = cyclotomic._times

    def counting_times(s, t):
        made["int"] += not inside
        return times(s, t)

    for name in ("__mul__", "__rmul__"):
        monkeypatch.setattr(CycQ, name, counting_mul(getattr(CycQ, name)))
    for module in [m for name, m in sys.modules.items() if name.startswith("qforms.")]:
        for name, value in list(vars(module).items()):
            if value is times:
                monkeypatch.setattr(module, name, counting_times)
    return made


class TestScalarProductBudget:
    """Counts Q(q) products through the property suites, a deterministic
    stand-in for the cost of the product kernel: CycQ products and int-core
    products (count_scalar_products) plus the products the kernel does on
    CycQ's ints (count_kernel_work). The process keeps no scalar memo but
    the table, which count_kernel_work starts empty, so every run is cold."""

    @pytest.mark.parametrize(
        "cfg, budget",
        [
            (CalculusConfig(CycQ(2)), 3_800),
            (CFG_ANY, 2_300),
            (CalculusConfig(CycQ(2)), 2_400),
            (CFG_ANY, 1_500),
        ],
        ids=["2", "anyonic", "2-fused", "anyonic-fused"],
    )
    def test_suites_stay_within_the_product_budget(self, monkeypatch, cfg, budget):
        made = count_scalar_products(monkeypatch)
        work = count_kernel_work(monkeypatch)
        results = run_suites(("assoc", "leibniz", "d3"), cfg, 7, 20, 6)
        monkeypatch.undo()
        assert all(r.passed for r in results)
        assert work["products"]
        if cfg.alpha == Q:  # every scalar read from its exponent: no table at all
            assert lookups(work) == work["misses"] == 0
        else:
            assert lookups(work)
        assert sum(made.values()) + work["products"] + lookups(work) <= budget

    @pytest.mark.parametrize(
        "cfg, expected",
        [
            (CalculusConfig(CycQ(2)), {"products": 1_003, "top": 442, "bracket": 37, "derivative": 210, "misses": 76}),
            (CFG_ANY, {"products": 524}),  # alpha q: no table lookup, so no miss
        ],
        ids=["2", "anyonic"],
    )
    def test_suites_do_exactly_this_kernel_work(self, monkeypatch, cfg, expected):
        # the budgets above bound the work; these counts pin it, so a table
        # read that moves out of the kernel's and differential's sight shows
        work = count_kernel_work(monkeypatch)
        results = run_suites(("assoc", "leibniz", "d3"), cfg, 7, 20, 6)
        monkeypatch.undo()
        assert all(r.passed for r in results)
        assert work == expected

    @pytest.mark.parametrize(
        "cfg, before",
        [(CalculusConfig(CycQ(2)), 350), (CFG_ANY, 108)],
        ids=["2", "anyonic"],
    )
    def test_scalar_products_do_not_grow(self, monkeypatch, cfg, before):
        # `before` is the count with two CycQ-keyed lru_caches in calculus
        # beside the table, all three cold: all of it CycQ products
        made = count_scalar_products(monkeypatch)
        count_kernel_work(monkeypatch)
        results = run_suites(("assoc", "leibniz", "d3"), cfg, 7, 20, 6)
        monkeypatch.undo()
        assert all(r.passed for r in results)
        assert made["int"] and sum(made.values()) <= before


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

    def test_coefficients_in_ascending_degree(self):
        # the stored order here is 3, 0, 1; the encoding sorts it
        u = Form({(0, 1): Poly({3: 1, 0: 2, 1: Q})})
        assert [degree for degree, _ in u.to_dict()["terms"][0]["coeff"]] == [0, 1, 3]

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

    def test_missing_field_rejected(self):
        data = self.one_term()
        del data["terms"][0]["d2x"]
        with pytest.raises(ValueError, match="missing field 'd2x'"):
            Form.from_dict(data)

    def test_coefficient_entry_must_be_a_pair(self):
        data = self.one_term()
        data["terms"][0]["coeff"] = [5]
        with pytest.raises(ValueError, match="expected a list"):
            Form.from_dict(data)

    def test_terms_must_be_a_list(self):
        with pytest.raises(ValueError, match="expected a list"):
            Form.from_dict({"mode": "generic", "terms": 5})

    def test_quadruple_needs_four_entries(self):
        with pytest.raises(ValueError, match="expected a list of 4 entries"):
            Form.from_dict(self.one_term(quadruple=(1, 1, 0)))

    def test_repeated_degrees_add_up_like_repeated_words(self):
        one, two = [0, [1, 1, 0, 1]], [0, [2, 1, 0, 1]]
        in_one_word = {"mode": "generic", "terms": [{"dx": 0, "d2x": 0, "coeff": [one, two]}]}
        in_two_words = {
            "mode": "generic",
            "terms": [{"dx": 0, "d2x": 0, "coeff": [c]} for c in (one, two)],
        }
        assert Form.from_dict(in_one_word) == Form.scalar(3)
        assert Form.from_dict(in_two_words) == Form.scalar(3)

    @pytest.mark.parametrize("data", [5, ["generic"], {"mode": "generic", "terms": [5]}])
    def test_non_mapping_rejected(self, data):
        with pytest.raises(ValueError, match="expected a mapping"):
            Form.from_dict(data)
