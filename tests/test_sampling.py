"""The samplers of qforms.checks draw exactly what the randint samplers drew.

A passing check report prints only counts, so a sampler that drew other
samples would still give a byte-identical report. The randint-based
samplers below are the reference: the fast samplers must give equal values,
in equal dict order at the form and the polynomial level, and leave the
generator in the same state.
"""

from __future__ import annotations

import itertools
import random

import pytest

from qforms import checks
from qforms.calculus import CalculusConfig, derivative
from qforms.checks import SUITE_NAMES, run_suites
from qforms.cyclotomic import Q, CycQ
from qforms.forms import Form, FormMonomial
from qforms.polynomial import Poly

# reference samplers: the randint versions, verbatim -------------------------


def random_cycq(rng: random.Random, lo: int = -5, hi: int = 5) -> CycQ:
    return CycQ(rng.randint(lo, hi), rng.randint(lo, hi))


def random_poly(
    rng: random.Random,
    truncated: bool = False,
    max_degree: int = 6,
    max_terms: int = 3,
) -> Poly:
    top = min(max_degree, 2) if truncated else max_degree
    coeffs: dict[int, CycQ] = {}
    for _ in range(rng.randint(1, max_terms)):
        coeffs[rng.randint(0, top)] = random_cycq(rng)
    return Poly(coeffs, truncated)


def random_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_dx: int = 2,
    max_d2x: int = 3,
    max_terms: int = 3,
) -> Form:
    terms: dict[FormMonomial, Poly] = {}
    for _ in range(rng.randint(1, max_terms)):
        mon = FormMonomial(rng.randint(0, max_dx), rng.randint(0, max_d2x))
        terms[mon] = random_poly(rng, cfg.anyonic, max_degree)
    return Form(terms, cfg.anyonic)


def random_homogeneous_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
) -> Form:
    grade = rng.randint(0, 2 + 2 * max_d2x)
    candidates = [
        FormMonomial(k, (grade - k) // 2)
        for k in range(3)
        if (grade - k) % 2 == 0 and 0 <= (grade - k) // 2 <= max_d2x
    ]
    picked = rng.sample(candidates, rng.randint(1, len(candidates)))
    terms = {mon: random_poly(rng, cfg.anyonic, max_degree) for mon in picked}
    return Form(terms, cfg.anyonic)


def random_odd_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
    max_terms: int = 3,
) -> Form:
    # odd grade forces dx power 1
    terms: dict[FormMonomial, Poly] = {}
    for _ in range(rng.randint(1, max_terms)):
        terms[FormMonomial(1, rng.randint(0, max_d2x))] = random_poly(
            rng, cfg.anyonic, max_degree
        )
    return Form(terms, cfg.anyonic)


def random_closed_even_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
) -> Form:
    """An even form built to be closed: pair each f at d2x**k with
    derivative(f) at dx**2 * d2x**(k-1)."""
    terms: dict[FormMonomial, Poly] = {}
    for k in range(1, rng.randint(1, max_d2x) + 1):
        f = random_poly(rng, cfg.anyonic, max_degree)
        terms[FormMonomial(0, k)] = f
        terms[FormMonomial(2, k - 1)] = derivative(f, cfg)
    return Form(terms, cfg.anyonic)


# the oracle -----------------------------------------------------------------

SEEDS = range(2_000)
MODES = {"generic": CalculusConfig(CycQ(2)), "anyonic": CalculusConfig(Q, anyonic=True)}
# (lo, hi) for random_cycq: ranges of 1, 4, 8, 11 and 2,001 values, on both
# sides of a power of two, so _below's rejection loop runs and is skipped
CYCQ_RANGES = [(0, 0), (-2, 1), (0, 7), (-5, 5), (-1_000, 1_000)]
# (max_degree, max_terms, max_dx, max_d2x): draws below 1, 2, 3, 4, 7, 9 and
# 51. max_degree == -1 leaves no degree to draw, max_terms == 0 no term
# count, max_dx == -1 no dx power and max_d2x == -1 no d2x power or grade
# pick, each raising where randint does, after the draws before it;
# max_d2x == 0 makes random_closed_even_form raise, and max_dx == 3 makes
# random_form raise once it draws dx**3, after the draws of that word.
GRID = list(itertools.product((-1, 0, 1, 2, 6, 50), (0, 1, 3, 7), (-1, 0, 2, 3), (-1, 0, 3)))

SAMPLERS = {
    "random_cycq": lambda s, rng, cfg, p, i: s(rng, *CYCQ_RANGES[i % len(CYCQ_RANGES)]),
    "random_poly": lambda s, rng, cfg, p, i: s(rng, cfg.anyonic, p[0], p[1]),
    "random_form": lambda s, rng, cfg, p, i: s(rng, cfg, max_degree=p[0], max_terms=p[1], max_dx=p[2], max_d2x=p[3]),
    "random_homogeneous_form": lambda s, rng, cfg, p, i: s(rng, cfg, p[0], p[3]),
    "random_odd_form": lambda s, rng, cfg, p, i: s(rng, cfg, p[0], p[3], p[1]),
    "random_closed_even_form": lambda s, rng, cfg, p, i: s(rng, cfg, p[0], p[3]),
}


def _shape(value):
    """Value, key types and dict order of a sample, down to the scalars."""
    if isinstance(value, Form):
        return (
            "form",
            value.truncated,
            [(type(mon), mon, _shape(poly)) for mon, poly in value.items()],
        )
    if isinstance(value, Poly):
        return ("poly", value.truncated, [(d, c.ratios()) for d, c in value.items()])
    return ("scalar", value.ratios())


def _draw(sampler, call, seed, cfg, params):
    rng = random.Random(seed)
    try:
        shape = _shape(call(sampler, rng, cfg, params, seed))
    except ValueError:  # an empty range, raised before drawing, or a drawn dx**3
        shape = ValueError
    return shape, rng.getstate()


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("name", SAMPLERS)
def test_fast_sampler_draws_the_reference_stream(name, mode):
    cfg, call = MODES[mode], SAMPLERS[name]
    fast, reference = getattr(checks, name), globals()[name]
    for seed in SEEDS:
        params = GRID[seed % len(GRID)]
        expected = _draw(reference, call, seed, cfg, params)
        assert _draw(fast, call, seed, cfg, params) == expected, (name, mode, seed, params)


@pytest.mark.parametrize("n", [0, -1, -8])
def test_empty_draw_range_raises(n):
    # before drawing: every word is at least n, so such a draw would never end
    def bits(k):
        raise AssertionError(f"drew {k} bits from an empty range")

    with pytest.raises(ValueError, match="empty range"):
        checks._below(bits, n)


@pytest.mark.parametrize(
    "cfg",
    [CalculusConfig(Q, anyonic=True), CalculusConfig(CycQ(2)), CalculusConfig(CycQ(1, 1))],
    ids=["anyonic", "2", "1+q"],
)
def test_suites_never_call_randint(monkeypatch, cfg):
    """The suites draw through getrandbits; randint and randrange would cost
    three Python frames per draw."""

    def forbidden(*args, **kwargs):
        raise AssertionError("the samplers must not call randint or randrange")

    monkeypatch.setattr(random.Random, "randint", forbidden)
    monkeypatch.setattr(random.Random, "randrange", forbidden)
    results = run_suites(SUITE_NAMES, cfg, 3, 30, 6)
    assert [r.name for r in results] == list(SUITE_NAMES)
    assert all(r.passed for r in results)


def test_suite_names_are_the_runners_in_order():
    # check all runs and reports the suites in this order
    assert SUITE_NAMES == ("assoc", "leibniz", "d3", "prop2", "swap")
