"""Seeded randomized property suites, shared by the CLI and the test suite.

All sampling goes through random.Random(seed), so a fixed seed gives a
byte-identical report. Samples are evaluated sequentially in sample order.

The samples are exactly the draws random.Random(seed).randint makes, in the
same order, but taken straight from rng.getrandbits by _below's rejection
loop, written out in place for each term count, each word's dx and d2x power
(and random_homogeneous_form's grade) and each coefficient's scalar and
degree, with each range's bit length computed once per call. They are the
same getrandbits calls, so the same bits and the same generator state after;
an empty range raises, by _below, where randint raises, before drawing.
The samplers draw straight into the int layout of Poly and Form: each draw
(a, b, 1) is already canonical, so they drop zero draws and empty words in
draw order, reduce nothing, build no CycQ and skip the checks of Poly and
Form construction.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from .calculus import CalculusConfig, check_homogeneity, derivative, q_bracket
from .cyclotomic import Q, CycQ, q_power
from .differential import differential, differential_power
from .forms import Form, FormMonomial, _form, swap_scalar
from .parser import render
from .polynomial import Poly

class SuiteResult:
    """Outcome of one suite: a flag plus human-readable detail lines."""

    __slots__ = ("name", "passed", "lines")

    def __init__(self, name: str, passed: bool, lines: list[str] | None = None) -> None:
        self.name = name
        self.passed = passed
        self.lines = [] if lines is None else lines

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.name, self.passed, self.lines) == (other.name, other.passed, other.lines)

    def __repr__(self) -> str:
        return f"SuiteResult(name={self.name!r}, passed={self.passed!r}, lines={self.lines!r})"


def _below(getrandbits, n: int) -> int:
    """A uniform int in [0, n) as random.Random.randrange(n) draws it: k-bit
    words, k = n.bit_length(), until one is below n."""
    if n <= 0:
        raise ValueError("empty range for a random draw")
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_cycq(rng: random.Random, lo: int = -5, hi: int = 5) -> CycQ:
    bits, n = rng.getrandbits, hi - lo + 1
    return CycQ(lo + _below(bits, n), lo + _below(bits, n))


def _random_coeffs(bits, truncated: bool, max_degree: int, max_terms: int) -> dict:
    """random_poly's draws as the canonical map degree -> (a, b, 1), zero
    draws dropped in draw order; a repeated degree keeps the last. It draws
    the term count below max_terms, then per term random_cycq's two scalars
    in -5..5 and the degree below span, each by _below's rejection loop
    written out: words of the range's bit length until one is below it."""
    span = (min(max_degree, 2) if truncated else max_degree) + 1
    width, count_width = span.bit_length(), max_terms.bit_length()
    count = bits(count_width) if max_terms > 0 else _below(bits, max_terms)  # an empty range raises where randint does
    while count >= max_terms:
        count = bits(count_width)
    coeffs: dict[int, tuple[int, int, int]] = {}
    zero = False
    for _ in range(count + 1):
        a = bits(4)
        while a >= 11:
            a = bits(4)
        b = bits(4)
        while b >= 11:
            b = bits(4)
        e = bits(width) if span > 0 else _below(bits, span)  # an empty range raises where randint does
        while e >= span:
            e = bits(width)
        coeffs[e] = (a - 5, b - 5, 1)
        if a == 5 == b:
            zero = True
    return {e: t for e, t in coeffs.items() if t[0] or t[1]} if zero else coeffs


def random_poly(
    rng: random.Random,
    truncated: bool = False,
    max_degree: int = 6,
    max_terms: int = 3,
) -> Poly:
    return Poly._wrap(_random_coeffs(rng.getrandbits, truncated, max_degree, max_terms), truncated)


def random_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_dx: int = 2,
    max_d2x: int = 3,
    max_terms: int = 3,
) -> Form:
    bits, value = rng.getrandbits, {}
    dx_span, d2x_span = max_dx + 1, max_d2x + 1
    count_width, dx_width, d2x_width = max_terms.bit_length(), dx_span.bit_length(), d2x_span.bit_length()
    count = bits(count_width) if max_terms > 0 else _below(bits, max_terms)
    while count >= max_terms:
        count = bits(count_width)
    for _ in range(count + 1):
        k = bits(dx_width) if dx_span > 0 else _below(bits, dx_span)
        while k >= dx_span:
            k = bits(dx_width)
        m = bits(d2x_width) if d2x_span > 0 else _below(bits, d2x_span)
        while m >= d2x_span:
            m = bits(d2x_width)
        if k > 2:
            FormMonomial(k, m)  # raises its ValueError, after the same draws
        value[k, m] = _random_coeffs(bits, cfg.anyonic, max_degree, 3)
    return _form({w: coeffs for w, coeffs in value.items() if coeffs}, cfg.anyonic)  # words left empty dropped


def random_homogeneous_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
) -> Form:
    bits, grades = rng.getrandbits, 3 + 2 * max_d2x
    width = grades.bit_length()
    grade = bits(width) if grades > 0 else _below(bits, grades)
    while grade >= grades:
        grade = bits(width)
    candidates = [
        (k, (grade - k) // 2)
        for k in range(3)
        if (grade - k) % 2 == 0 and 0 <= (grade - k) // 2 <= max_d2x
    ]
    found = len(candidates)
    width = found.bit_length()
    count = bits(width) if found else _below(bits, found)
    while count >= found:
        count = bits(width)
    picked = rng.sample(candidates, count + 1)
    value = {w: _random_coeffs(bits, cfg.anyonic, max_degree, 3) for w in picked}
    return _form({w: coeffs for w, coeffs in value.items() if coeffs}, cfg.anyonic)


def random_odd_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
    max_terms: int = 3,
) -> Form:
    # odd grade forces dx power 1
    bits, value = rng.getrandbits, {}
    d2x_span = max_d2x + 1
    count_width, d2x_width = max_terms.bit_length(), d2x_span.bit_length()
    count = bits(count_width) if max_terms > 0 else _below(bits, max_terms)
    while count >= max_terms:
        count = bits(count_width)
    for _ in range(count + 1):
        coeffs = _random_coeffs(bits, cfg.anyonic, max_degree, 3)  # drawn before the word, as randint's sampler did
        m = bits(d2x_width) if d2x_span > 0 else _below(bits, d2x_span)
        while m >= d2x_span:
            m = bits(d2x_width)
        value[1, m] = coeffs
    return _form({w: coeffs for w, coeffs in value.items() if coeffs}, cfg.anyonic)


def random_closed_even_form(
    rng: random.Random,
    cfg: CalculusConfig,
    max_degree: int = 6,
    max_d2x: int = 3,
) -> Form:
    """An even form built to be closed: pair each f at d2x**k with
    derivative(f) at dx**2 * d2x**(k-1)."""
    terms: dict[FormMonomial, Poly] = {}
    for k in range(1, 2 + _below(rng.getrandbits, max_d2x)):
        f = random_poly(rng, cfg.anyonic, max_degree)
        terms[FormMonomial(0, k)] = f
        terms[FormMonomial(2, k - 1)] = derivative(f, cfg)
    return Form(terms, cfg.anyonic)


def _sampled(name: str, law: Callable[[random.Random, CalculusConfig, int], tuple | None],
             held: str) -> Callable[[CalculusConfig, int, int, int], SuiteResult]:
    """The runner of a sampled suite: one random.Random(seed) feeds
    law(rng, cfg, max_degree) once per sample. A law draws its forms and
    returns None when it holds, else the broken claim followed by those forms,
    which the report labels u, v, w. `held` formats the pass line."""

    def run(cfg: CalculusConfig, seed: int, samples: int, max_degree: int) -> SuiteResult:
        rng = random.Random(seed)
        for i in range(samples):
            if (failure := law(rng, cfg, max_degree)) is not None:
                claim, *forms = failure
                lines = [f"sample {i}: {claim}", *(f"{x} = {render(f)}" for x, f in zip("uvw", forms))]
                return SuiteResult(name, False, lines)
        return SuiteResult(name, True, [held.format(samples)])

    return run


def _associative(rng: random.Random, cfg: CalculusConfig, max_degree: int) -> tuple | None:
    u, v, w = (random_form(rng, cfg, max_degree) for _ in range(3))
    associated = u.mul(v, cfg).mul(w, cfg) == u.mul(v.mul(w, cfg), cfg)
    return None if associated else ("(u*v)*w != u*(v*w)", u, v, w)


def _leibniz(rng: random.Random, cfg: CalculusConfig, max_degree: int) -> tuple | None:
    u = random_homogeneous_form(rng, cfg, max_degree)
    v = random_form(rng, cfg, max_degree)
    lhs = differential(u.mul(v, cfg), cfg)
    rhs = differential(u, cfg).mul(v, cfg) + u.mul(differential(v, cfg), cfg).left_mul(q_power(u.grade() or 0))
    return None if lhs == rhs else ("d(u*v) != d(u)*v + q^|u| * u*d(v)", u, v)


def _nilpotent(rng: random.Random, cfg: CalculusConfig, max_degree: int) -> tuple | None:
    u = random_form(rng, cfg, max_degree)
    return None if differential_power(u, 3, cfg).is_zero() else ("d^3 != 0", u)


run_assoc = _sampled("assoc", _associative, "product associated on {} random triples")
run_leibniz = _sampled("leibniz", _leibniz, "graded Leibniz rule held on {} random pairs")
run_d3 = _sampled("d3", _nilpotent, "d^3 vanished on {} random forms")


def run_prop2(cfg: CalculusConfig, seed: int, samples: int, max_degree: int) -> SuiteResult:
    if cfg.alpha == Q:
        ok = check_homogeneity(cfg, max_degree)
        line = (
            f"q-bracket vanished on x^m for every m <= {max_degree}"
            if ok
            else f"q-bracket failed to vanish below degree {max_degree} at alpha = q"
        )
        return SuiteResult("prop2", ok, [line])
    witness = q_bracket(Poly.x(cfg.anyonic), cfg)
    expected = Poly.constant(cfg.alpha - Q, cfg.anyonic)
    ok = witness == expected
    line = (
        f"FAIL-as-expected: q-bracket(x) = {witness} is nonzero, "
        "so homogeneity fails for this alpha as it must"
    )
    if not ok:
        line = f"q-bracket(x) = {witness}, expected the nonzero value {expected}"
    return SuiteResult("prop2", ok, [line])


def run_swap(cfg: CalculusConfig, seed: int, samples: int, max_degree: int) -> SuiteResult:
    checked = 0
    for r in range(5):
        for j in range(3):
            lhs = Form.basis(0, r, cfg.anyonic).mul(Form.basis(j, 0, cfg.anyonic), cfg)
            rhs = Form.basis(j, r, cfg.anyonic).left_mul(swap_scalar(r, j))
            if lhs != rhs:
                return SuiteResult(
                    "swap",
                    False,
                    [f"d2x^{r} * dx^{j} reduced to {render(lhs)}, expected {render(rhs)}"],
                )
            checked += 1
    return SuiteResult(
        "swap", True, [f"rewriter matched the q^(2rj) closed form on {checked} words"]
    )


_RUNNERS = {
    "assoc": run_assoc,
    "leibniz": run_leibniz,
    "d3": run_d3,
    "prop2": run_prop2,
    "swap": run_swap,
}
SUITE_NAMES = tuple(_RUNNERS)


def run_suites(
    names: tuple[str, ...] | list[str],
    cfg: CalculusConfig,
    seed: int,
    samples: int,
    max_degree: int,
) -> list[SuiteResult]:
    return [_RUNNERS[name](cfg, seed, samples, max_degree) for name in names]
