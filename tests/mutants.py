"""Mutation check: every listed mutant of src/qforms must fail its tests.

    python tests/mutants.py            # every mutant
    python tests/mutants.py NAME ...   # the named ones
    python tests/mutants.py --list

Run it from the repository root with the test dependencies installed
(pytest, hypothesis); it needs nothing else. It is not part of the Tier-1
suite, since it runs pytest once per mutant, one after another.

A mutant is (name, file under src/qforms, exact old text, new text, pytest
selection). The script first runs every selection on an unmutated copy,
which must pass. Then, for each mutant, it copies src/, tests/ and
pyproject.toml to a fresh temporary directory, replaces the old text,
which must occur exactly once, and runs `pytest -x -q` on the selection
there. The mutant is killed when pytest reports a failing test (exit code
1). A pass, any other exit code, a run longer than TIMEOUT_S seconds, or an
old text that no longer occurs exactly once fails the script, so the list
has to follow the code; a timed-out mutant is reported and the next one
runs. Exit code 0 when every mutant was killed, 1 otherwise.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parents[1]
TIMEOUT_S = 900  # per pytest run; a hung run fails its mutant, not the script


class Mutant(NamedTuple):
    name: str
    file: str
    old: str
    new: str
    selection: tuple[str, ...]


KERNEL = ("tests/test_forms.py::TestIntegerKernel", "tests/test_forms.py::TestFusedKernel")
WIDE = (
    "tests/test_forms.py::TestIntegerKernel::test_wide_cases_match_the_references",
    "tests/test_parser.py::TestClosedForms::test_product_matches_the_pairwise_oracle",
)
CLOSED = ("tests/test_parser.py::TestClosedForms", "tests/test_parser.py::TestParseExamples")
SCALARS = ("tests/test_cyclotomic.py::TestIntCoreAgainstFractionPairs", "tests/test_cyclotomic.py::TestScalarTableOnInts")
LAYOUT = ("tests/test_layout.py",)
FAST = ("tests/test_cli.py::TestFastArgs",)
BOUNDS = ("tests/test_cli.py::TestFailureModes::test_bound_messages",)
BUDGET = ("tests/test_parser.py::TestWorkBudget",)
REPORTS = ("tests/test_reports.py",)
GATE = ("tests/test_exhaustive.py::test_every_small_expression",)
POWERS = ("tests/test_parser.py::TestPowers",)
FOLD = ("tests/test_parser.py::TestTermFold",)
FLAG = ("tests/test_forms.py::TestAccumulatorFlag",)
RENDER = ("tests/test_parser.py::TestAgainstLegacyRenderer",)
ENVIRONMENT = ("tests/test_cli.py::TestOutputOverride",)
# _random_coeffs's draws of one term: the scalar's two, then the degree
SCALAR_DRAWS = ("        a = bits(4)\n        while a >= 11:\n            a = bits(4)\n"
                "        b = bits(4)\n        while b >= 11:\n            b = bits(4)\n")
DEGREE_DRAW = ("        e = bits(width) if span > 0 else _below(bits, span)  # an empty range raises where randint does\n"
               "        while e >= span:\n            e = bits(width)\n")
# random_odd_form's draws of one word: its coefficients, then its d2x power
ODD_COEFFS = "        coeffs = _random_coeffs(bits, cfg.anyonic, max_degree, 3)  # drawn before the word, as randint's sampler did\n"
ODD_WORD = ("        m = bits(d2x_width) if d2x_span > 0 else _below(bits, d2x_span)\n"
            "        while m >= d2x_span:\n            m = bits(d2x_width)\n")
OPERANDS = ("tests/test_cyclotomic.py::TestCoercionAndText", "tests/test_cyclotomic.py::TestAgainstFractionOracle")

MUTANTS = [
    # the value layout: one canonicaliser, Form's own arithmetic, its views
    Mutant("kernel keeps x**3 in the quotient", "forms.py",
           "                        if truncated and e >= 3:\n", "                        if truncated and e >= 4:\n", WIDE),
    Mutant("_reduced keeps empty words", "forms.py",
           "        if coeffs:\n            value[word] = coeffs\n", "        value[word] = coeffs\n", LAYOUT),
    Mutant("_reduced takes the d == 1 shortcut for every d", "forms.py",
           "coeffs[e] = (a, b, d) if d == 1 else _lowest(a, b, d)", "coeffs[e] = (a, b, d) if d >= 1 else _lowest(a, b, d)",
           KERNEL),
    Mutant("_reduced keeps zero sums", "forms.py",
           "            if a or b:\n                coeffs[e]", "            if True:\n                coeffs[e]",
           ("tests/test_forms.py::TestIntegerKernel::test_products_that_cancel",)),
    Mutant("_canonical keeps zero sums", "polynomial.py",
           "for e, (a, b, d) in sums.items() if a or b}", "for e, (a, b, d) in sums.items()}",
           ("tests/test_polynomial.py",)),
    Mutant("_canonical skips lowest terms", "polynomial.py",
           "{e: (a, b, d) if d == 1 else _lowest(a, b, d) for e, (a, b, d) in sums.items() if a or b}",
           "{e: (a, b, d) for e, (a, b, d) in sums.items() if a or b}",
           ("tests/test_polynomial.py", "tests/test_forms.py::TestSerialization")),
    Mutant("Form.__add__ adds the left twice", "forms.py",
           "if _add_value(sums, other._terms) else", "if _add_value(sums, self._terms) else",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("Form.__neg__ does not negate", "forms.py",
           "_form({w: _negated(coeffs) for w, coeffs", "_form({w: coeffs for w, coeffs",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("_negated keeps the q part", "polynomial.py",
           "{e: (-a, -b, d) for e, (a, b, d)", "{e: (-a, b, d) for e, (a, b, d)",
           ("tests/test_polynomial.py", "tests/test_forms.py::TestModuleStructure")),
    Mutant("scalar left_mul ignores the scalar", "forms.py",
           "{w: _scale(coeffs, s) for w, coeffs in value.items()}", "{w: coeffs for w, coeffs in value.items()}",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("_scale ignores s", "polynomial.py",
           "{e: _times(t, s) for e, t in coeffs.items()}", "{e: t for e, t in coeffs.items()}",
           ("tests/test_polynomial.py",)),
    Mutant("scalar left_mul by zero keeps the words", "forms.py",
           "value = self._terms if s[0] or s[1] else {}", "value = self._terms",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("scalar left_mul without the scalar's coercion", "forms.py",
           "            s = _triple(factor)\n", "            s = (factor, 0, 1)\n",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("Form() keeps zero coefficients", "forms.py",
           "            if poly:\n", "            if True:\n", ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("items() sorts", "forms.py",
           "for w, c in self._terms.items()}.items()", "for w, c in sorted(self._terms.items())}.items()", LAYOUT),
    Mutant("canonical order by dx first", "forms.py",
           "key=lambda item: (item[0][1], item[0][0])", "key=lambda item: (item[0][0], item[0][1])",
           ("tests/test_parser.py::TestRender", "tests/test_forms.py::TestSerialization")),
    Mutant("to_dict keeps storage order of degrees", "forms.py",
           "for e, t in sorted(coeffs.items()) if len(coeffs) > 1 else coeffs.items():", "for e, t in coeffs.items():",
           ("tests/test_forms.py::TestSerialization",)),
    Mutant("grade of a word is k + m", "forms.py",
           "buckets.setdefault(k + 2 * m, {})", "buckets.setdefault(k + m, {})",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("coefficient() swaps the word", "forms.py",
           "self._terms.get((k, m), {})", "self._terms.get((m, k), {})", ("tests/test_forms.py",)),
    Mutant("Form.mul skips the mode check", "forms.py",
           "        self._require_mode(cfg.anyonic)\n        other._require_mode(cfg.anyonic)\n", "",
           ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("Form.mul skips the right operand's mode check", "forms.py",
           "        other._require_mode(cfg.anyonic)\n", "", ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("FormMonomial takes bools", "forms.py",
           "if type(dx) is not int or type(d2x) is not int:",
           "if not isinstance(dx, int) or not isinstance(d2x, int):", ("tests/test_forms.py::TestMonomials",)),
    Mutant("Poly takes float degrees", "polynomial.py",
           "if type(degree) is not int:", "if not isinstance(degree, (int, float)):",
           ("tests/test_polynomial.py",)),
    Mutant("_ratios unreduced", "cyclotomic.py",
           "    g, h = gcd(a, d), gcd(b, d)\n    return a // g, d // g, b // h, d // h\n\n\ndef _plus",
           "    g, h = 1, 1\n    return a // g, d // g, b // h, d // h\n\n\ndef _plus",
           ("tests/test_parser.py::TestAgainstFractionText", "tests/test_cli.py")),
    # the one mode check and its callers
    Mutant("_require_mode never raises", "polynomial.py",
           "        if self._truncated != truncated:\n", "        if False:\n", ("tests/test_polynomial.py",)),
    Mutant("differential without its mode check", "differential.py",
           "    u._require_mode(cfg.anyonic)\n", "", ("tests/test_differential.py::TestExamples",)),
    Mutant("left_mul without its mode check", "forms.py",
           "        factor._require_mode(truncated)\n", "", ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("Form() without its mode check", "forms.py",
           "            poly._require_mode(truncated)\n", "", ("tests/test_forms.py::TestModuleStructure",)),
    Mutant("twist_power without its mode check", "calculus.py",
           "    f._require_mode(cfg.anyonic)\n    if n < 0:", "    if n < 0:",
           ("tests/test_calculus.py::TestTwistPower",)),
    Mutant("from_dict's negative-degree check at < -1", "forms.py",
           "if min(sums, default=0) < 0:", "if min(sums, default=0) < -1:", REPORTS),
    # the CLI's option table: the fast path and the bound checks read it
    Mutant("fast path accepts -n outside diff", "cli.py",
           "{flag: o for o in options for flag in o.flags}", "{flag: o for o in options + (_TIMES,) for flag in o.flags}",
           FAST),
    Mutant("fast path skips choices", "cli.py",
           "if value.startswith(\"-\") or option.choices and value not in option.choices:",
           "if value.startswith(\"-\"):", FAST),
    Mutant("fast path leaves int options as text", "cli.py",
           "                value = option.type(value)\n", "                option.type(value)\n", FAST),
    Mutant("bound loop skips the upper bound", "cli.py",
           "if high is not None and value > high:", "if False:", BOUNDS),
    Mutant("--seed's message says positive", "cli.py",
           "{'nonnegative' if low == 0 else 'positive'}", "{'positive'}", BOUNDS),
    Mutant("Poly drops a truncated degree before coercing it", "polynomial.py",
           "            a, b, d = _triple(value)  # before the x**3 == 0 skip, so a bad value raises in both modes\n",
           "            if truncated and degree >= 3:\n                continue\n            a, b, d = _triple(value)\n",
           ("tests/test_polynomial.py::test_constructor_drops_zeros_and_truncated_high_degrees",)),
    Mutant("_too_long ignores the denominator", "cli.py",
           "max(a.bit_length(), b.bit_length(), d.bit_length())", "max(a.bit_length(), b.bit_length())",
           ("tests/test_cli.py::TestLimits",)),
    Mutant("_too_long ignores a lower digit limit", "cli.py",
           "least = _TOO_LONG if limit == MAX_DIGITS else 10**limit", "least = _TOO_LONG",
           ("tests/test_cli.py::TestInterpreterDigitLimit",)),
    Mutant("samplers keep zero draws", "checks.py",
           "    return {e: t for e, t in coeffs.items() if t[0] or t[1]} if zero else coeffs\n", "    return coeffs\n",
           ("tests/test_sampling.py",)),
    Mutant("samplers never note a zero draw", "checks.py",
           "        if a == 5 == b:\n            zero = True\n", "", ("tests/test_sampling.py",)),
    Mutant("random_form keeps words left empty", "checks.py",
           "_form({w: coeffs for w, coeffs in value.items() if coeffs}, cfg.anyonic)  # words left empty dropped",
           "_form(value, cfg.anyonic)", ("tests/test_sampling.py",)),
    Mutant("_below draws (n - 1).bit_length() bits", "checks.py",
           "    k = n.bit_length()\n", "    k = (n - 1).bit_length()\n",
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    Mutant("_below without its empty-range check", "checks.py",
           '    if n <= 0:\n        raise ValueError("empty range for a random draw")\n', "",
           ("tests/test_sampling.py::test_empty_draw_range_raises",)),
    Mutant("samplers draw the degree first", "checks.py",
           SCALAR_DRAWS + DEGREE_DRAW, DEGREE_DRAW + SCALAR_DRAWS, ("tests/test_sampling.py",)),
    Mutant("inline scalar draw keeps 11", "checks.py",
           "        while a >= 11:\n", "        while a > 11:\n",
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    Mutant("inline degree draw one bit short", "checks.py",
           "    width, count_width = span.bit_length(),", "    width, count_width = (span - 1).bit_length(),",
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    Mutant("random_odd_form draws the word before its coefficients", "checks.py",
           ODD_COEFFS + ODD_WORD, ODD_WORD + ODD_COEFFS,
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    Mutant("random_form's dx draw one bit short", "checks.py",
           "dx_span.bit_length(), d2x_span", "(dx_span - 1).bit_length(), d2x_span",
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    Mutant("random_form keeps a drawn dx**3", "checks.py",
           "        if k > 2:\n            FormMonomial(k, m)", "        if k > 3:\n            FormMonomial(k, m)",
           ("tests/test_sampling.py::test_fast_sampler_draws_the_reference_stream",)),
    # the sampled suites' one runner, their laws and the failure report
    Mutant("runner numbers samples from 1", "checks.py",
           'f"sample {i}: {claim}"', 'f"sample {i + 1}: {claim}"', REPORTS),
    Mutant("runner labels the forms v, w, x", "checks.py", 'zip("uvw", forms)', 'zip("vwx", forms)', REPORTS),
    Mutant("runner reseeds every sample", "checks.py",
           "        rng = random.Random(seed)\n        for i in range(samples):\n",
           "        for i in range(samples):\n            rng = random.Random(seed)\n", REPORTS),
    Mutant("leibniz law without q^|u|", "checks.py", ".left_mul(q_power(u.grade() or 0))", "", REPORTS),
    Mutant("prop2's failure line garbled", "checks.py",
           "expected the nonzero value {expected}", "expected {expected}", REPORTS),
    Mutant("swap's failure line garbled", "checks.py", 'f"d2x^{r} * dx^{j} reduced', 'f"d2x^{j} * dx^{r} reduced',
           REPORTS),
    Mutant("reproduction command without --anyonic", "cli.py",
           '*(["--anyonic"] if cfg.anyonic else []), ', "", REPORTS),
    Mutant("differential keeps the sign at dx**2", "differential.py",
           "(1, m + 1), _negated(f)", "(1, m + 1), f", ("tests/test_differential.py",)),
    Mutant("differential puts f on the wrong d2x power", "differential.py",
           "out[0, m + 1] = f", "out[0, m] = f", KERNEL),
    Mutant("differential overwrites the first image on dx * d2x**m", "differential.py",
           "_add_into(sums, image.items()):", "(sums.clear() or _add_into(sums, image.items())):", KERNEL),
    Mutant("differential keeps words left empty", "differential.py",
           "_form(out if all(out.values()) else {w: c for w, c in out.items() if c},", "_form(out,", KERNEL),
    # Poly on the layout: its sums, scalings and views, and from_dict's sums
    Mutant("Poly.__add__ keeps zero sums", "polynomial.py",
           "Poly._wrap(_canonical(sums) if _add_into(", "Poly._wrap({e: _lowest(*s) for e, s in sums.items()} if _add_into(",
           ("tests/test_polynomial.py",)),
    Mutant("Poly.scale ignores its factor", "polynomial.py",
           "_wrap(_scale(self._terms, s) if s[0] or s[1] else {}", "_wrap(self._terms if s[0] or s[1] else {}",
           ("tests/test_polynomial.py",)),
    Mutant("Poly.items swaps a and b", "polynomial.py",
           "{e: _of(t) for e, t in self._terms.items()}", "{e: _of((t[1], t[0], t[2])) for e, t in self._terms.items()}",
           ("tests/test_polynomial.py",)),
    Mutant("from_dict keeps only the last repeated degree", "forms.py",
           "_add_into(sums, [(degree, _from_ratios(a_num, a_den, b_num, b_den))])",
           "sums[degree] = _from_ratios(a_num, a_den, b_num, b_den)",
           ("tests/test_forms.py::TestSerialization",)),
    # the product kernel (the int kernel's mutations, on the layout)
    Mutant("kernel swap exponent m*j", "forms.py",
           "_TOP, m + k, 2 * m * j % 3\n", "_TOP, m + k, m * j % 3\n", KERNEL),
    Mutant("kernel bracket word one d2x too high", "forms.py",
           "(2, m - 1 + n), _BRACKET, 1, m\n", "(2, m + n), _BRACKET, 1, m\n", KERNEL),
    Mutant("kernel bracket under a right dx", "forms.py",
           "if kind or j or not bracket:", "if kind or not bracket:", KERNEL),
    Mutant("kernel computes a top scalar for dead words", "forms.py",
           "            if k + j > 2:\n",
           "            if k + j > 2 and (get((_TOP, m + k + 1, 0, aa, ab, ad)) or True):\n",
           ("tests/test_forms.py::TestFusedKernel::test_dead_words_cost_no_calculus",)),
    Mutant("kernel bracket degree not shifted", "forms.py",
           "e2, a2, b2, d2 = e2 - kind, a2 * sa", "e2, a2, b2, d2 = e2, a2 * sa", KERNEL),
    Mutant("kernel keeps the terms of a zero scalar", "forms.py",
           "                            if not (sa or sb):\n                                continue\n", "", KERNEL),
    Mutant("kernel twist folds q**2 with the wrong sign", "forms.py",
           "a2 * sb + b2 * sa - cross, d2 * sd", "a2 * sb + b2 * sa + cross, d2 * sd", KERNEL),
    Mutant("kernel never makes the bracket test", "forms.py",
           "None if m and not k and not at_q else False, f.items()", "False, f.items()", KERNEL),
    Mutant("kernel tests the bracket on a right word of constants", "forms.py",
           "if bracket is None and not j and any(g):", "if bracket is None and not j:", KERNEL),
    # at alpha q the kernel and _derived read each scalar from its exponent
    Mutant("kernel q exponent without + y", "forms.py",
           "_Q_TRIPLES[(e2 * t + y) % 3]", "_Q_TRIPLES[e2 * t % 3]", KERNEL),
    Mutant("kernel at_q without ad == 1", "forms.py",
           "at_q = not aa and ab == 1 and ad == 1  # alpha == q: every scalar",
           "at_q = not aa and ab == 1  # alpha == q: every scalar", KERNEL),
    Mutant("_derived at_q without ab == 1", "forms.py",
           "at_q = not aa and ab == 1 and ad == 1  # alpha == q: [e]_q",
           "at_q = not aa and ad == 1  # alpha == q: [e]_q", ("tests/test_differential.py",)),
    Mutant("[e]_q entries 1 and 1 + q swapped", "forms.py",
           "_Q_INTEGERS = ((0, 0, 1), (1, 0, 1), (1, 1, 1))", "_Q_INTEGERS = ((0, 0, 1), (1, 1, 1), (1, 0, 1))", KERNEL),
    Mutant("kernel bracket test at q**(m+1)", "forms.py",
           "!= _Q_TRIPLES[m % 3]", "!= _Q_TRIPLES[(m + 1) % 3]", KERNEL),
    Mutant("accumulator adds without the lcm", "polynomial.py",
           "return acc[0] * up + a * over,", "return acc[0] + a,", KERNEL),
    Mutant("fused product adds unlike denominators as like", "forms.py",
           "sums[e] = _add_unlike(acc, a, b, d)", "sums[e] = acc[0] + a, acc[1] + b, d", KERNEL),
    Mutant("_derived folds q**2 with the wrong sign", "forms.py",
           "a, b, d = a * sa - cross, a * sb + b * sa - cross, d * sd",
           "a, b, d = a * sa - cross, a * sb + b * sa + cross, d * sd", KERNEL),
    Mutant("_derived skips lowest terms for every d", "forms.py",
           "out[e - 1] = (a, b, d) if d == 1 else _lowest(a, b, d)", "out[e - 1] = (a, b, d)", KERNEL),
    # _mul returns its sums unreduced unless one of four triggers was seen
    Mutant("kernel reduces nothing first made over d != 1", "forms.py",
           "                            sums[e] = a, b, d\n                            if d != 1:\n",
           "                            sums[e] = a, b, d\n                            if False:\n", KERNEL),
    Mutant("kernel reduces nothing after an unlike add", "forms.py",
           "_add_unlike(acc, a, b, d)\n                            reduce = True\n", "_add_unlike(acc, a, b, d)\n",
           KERNEL),
    Mutant("kernel reduces nothing after a cancellation", "forms.py",
           "                            if not (a or b):\n                                reduce = True\n", "", KERNEL),
    Mutant("kernel keeps words left empty", "forms.py",
           "if reduce or not all(out.values()) else out", "if reduce else out", KERNEL),
    # _add_into reports the three adds after which a sum must be reduced; its callers skip _reduced otherwise
    Mutant("accumulator does not flag a like add over d != 1", "polynomial.py",
           "if d != 1 or not (a or b):", "if not (a or b):", FLAG),
    Mutant("accumulator does not flag a cancelling add", "polynomial.py",
           "if d != 1 or not (a or b):", "if d != 1:", FLAG),
    Mutant("accumulator does not flag an unlike add", "polynomial.py",
           "            sums[e] = _add_unlike(acc, *t)\n            reduce = True\n",
           "            sums[e] = _add_unlike(acc, *t)\n", FLAG),
    # the scalar table and the int core
    Mutant("_lowest does not reduce", "cyclotomic.py", "        if g != 1:\n", "        if False:\n", SCALARS),
    Mutant("_times folds q**2 with the wrong sign", "cyclotomic.py",
           "return _lowest(a1 * a2 - cross,", "return _lowest(a1 * a2 + cross,", SCALARS),
    Mutant("_plus swaps d1 and d2 across denominators", "cyclotomic.py",
           "_lowest(a1 * d2 + a2 * d1, b1 * d2 + b2 * d1, d1 * d2)",
           "_lowest(a1 * d1 + a2 * d2, b1 * d1 + b2 * d2, d1 * d2)", SCALARS),
    Mutant("_plus on one denominator skips lowest terms", "cyclotomic.py",
           "return _lowest(a1 + a2, b1 + b2, d1)", "return a1 + a2, b1 + b2, d1", SCALARS),
    # the one reader of Q(q) operands, and the CycQ operators on it
    Mutant("_operand refuses Rational", "cyclotomic.py",
           "if isinstance(value, (int, Rational)):", "if isinstance(value, int):", OPERANDS),
    Mutant("_operand reads a Rational's numerator alone", "cyclotomic.py",
           "_from_ratios(value.numerator, value.denominator, 0, 1)", "_from_ratios(value.numerator, 1, 0, 1)",
           OPERANDS),
    Mutant("CycQ.__sub__ keeps the q part's sign", "cyclotomic.py",
           "(-t[0], -t[1], t[2])", "(-t[0], t[1], t[2])", OPERANDS),
    Mutant("CycQ.__rsub__ subtracts the wrong way round", "cyclotomic.py",
           "_plus(t, (-self._a, -self._b, self._d))", "_plus((-t[0], -t[1], t[2]), (self._a, self._b, self._d))",
           OPERANDS),
    Mutant("CycQ.__truediv__ multiplies", "cyclotomic.py",
           "_times((self._a, self._b, self._d), _int_inverse(t))", "_times((self._a, self._b, self._d), t)",
           OPERANDS),
    Mutant("Poly * scalar declines", "polynomial.py",
           "return NotImplemented if _operand(other) is None else self.scale(other)",
           "return NotImplemented if _operand(other) is not None else self.scale(other)", ("tests/test_polynomial.py",)),
    Mutant("scalar * Form declines", "forms.py",
           "if isinstance(factor, Poly) or _operand(factor) is not None:", "if isinstance(factor, Poly):",
           ("tests/test_forms.py",)),
    Mutant("_int_inverse wrong sign", "cyclotomic.py",
           "_lowest(d * (a - b), -d * b, n)", "_lowest(d * (a + b), -d * b, n)", SCALARS),
    Mutant("_int_power squares wrongly past 32", "cyclotomic.py",
           "        out = _times(out, out)\n",
           "        out = _times(out, out) if n <= 32 else _times(out, (-out[0], -out[1], out[2]))\n", SCALARS),
    Mutant("_int_power starts from s + q", "cyclotomic.py",
           "    out = s\n", "    out = (s[0], s[1] + s[2], s[2])\n", SCALARS),
    Mutant("top entries ignore y == 1", "forms.py",
           "_Q_TRIPLES[y % 3]) if y else _int_power(alpha, x)", "_Q_TRIPLES[y % 3]) if y > 1 else _int_power(alpha, x)",
           SCALARS),
    Mutant("[x]_1 off by one", "forms.py", "value = (x, 0, 1)  # [x]_1 == x", "value = (x + 1, 0, 1)", SCALARS),
    Mutant("bracket's q power from x", "forms.py", "qa, qb, _ = _Q_TRIPLES[y % 3]", "qa, qb, _ = _Q_TRIPLES[x % 3]",
           SCALARS),
    Mutant("wrong alpha - 1 denominator", "forms.py",
           "_int_inverse(_plus(alpha, (-1, 0, 1)))", "_int_inverse(_plus(alpha, (1, 0, 1)))", SCALARS),
    Mutant("[x]_alpha from alpha**x + 1", "forms.py",
           "_plus(_entry(_TOP, x, alpha), (-1, 0, 1))", "_plus(_entry(_TOP, x, alpha), (1, 0, 1))", SCALARS),
    Mutant("bracket factor alpha**y + q**y", "forms.py", "(-qa, -qb, 1))", "(qa, qb, 1))", SCALARS),
    Mutant("wrong bracket exponent", "forms.py",
           "_entry(_TOP, (x - 1) * y, alpha)", "_entry(_TOP, x * y, alpha)", SCALARS),
    Mutant("an lru_cache in forms", "forms.py",
           "def _entry(kind: int", "@__import__('functools').lru_cache(maxsize=None)\ndef _entry(kind: int",
           ("tests/test_caches.py",)),
    Mutant("a calculus function in the parser", "parser.py",
           "from .calculus import CalculusConfig\n", "from .calculus import CalculusConfig, q_number\n",
           ("tests/test_caches.py",)),
    Mutant("q_number(5) wrong", "calculus.py",
           "return (alpha**k - 1) / (alpha - 1)  # geometric sum",
           "return (alpha**k - 1) / (alpha - 1) + (k == 5)", ("tests/test_calculus.py", "tests/test_cyclotomic.py")),
    # the parser's closed form and limits
    Mutant("parser swap exponent m*j", "parser.py",
           "s = _times(c, _Q_TRIPLES[2 * m * j % 3])", "s = _times(c, _Q_TRIPLES[m * j % 3])", CLOSED),
    Mutant("closed product keeps x**3 when anyonic", "parser.py",
           "for d, t in f.items() if d + e < 3 or not anyonic}", "for d, t in f.items()}", CLOSED),
    Mutant("closed product drops the x**e shift", "parser.py",
           "coeffs = {d + e: t if s == _ONE", "coeffs = {d: t if s == _ONE", CLOSED),
    # the same three against the bounded-exhaustive gate alone, and a text-path mutant it must see
    Mutant("gate: parser swap exponent m*j", "parser.py",
           "s = _times(c, _Q_TRIPLES[2 * m * j % 3])", "s = _times(c, _Q_TRIPLES[m * j % 3])", GATE),
    Mutant("gate: closed product keeps x**3 when anyonic", "parser.py",
           "for d, t in f.items() if d + e < 3 or not anyonic}", "for d, t in f.items()}", GATE),
    Mutant("gate: closed product drops the x**e shift", "parser.py",
           "coeffs = {d + e: t if s == _ONE", "coeffs = {d: t if s == _ONE", GATE),
    Mutant("gate: _piece drops the parentheses around a mixed scalar before a tail", "parser.py",
           "f\"({'-' if a_sign == '-' else ''}{text})*{tail}\"", "f\"{'-' if a_sign == '-' else ''}{text}*{tail}\"",
           GATE),
    Mutant("power cap without the x degree", "parser.py",
           "top = max(top, m, *poly)", "top = max(top, m)", ("tests/test_parser.py::TestPowers",)),
    # the parser's work budget
    Mutant("a squaring in _power is not priced", "parser.py",
           "        out = _product(out, out, cfg, charge, pos)\n",
           "        out = _mul(out, out, cfg.alpha, cfg.anyonic)\n", BUDGET),
    Mutant("the _product fallback is not priced", "parser.py",
           "    charge(_price(left, right, cfg.alpha), pos)\n    return _mul(", "    return _mul(", BUDGET),
    Mutant("scaling by a long constant is not priced", "parser.py",
           "if (abs(c[0]) | abs(c[1]) | c[2]) >> 64:", "if False:", BUDGET),
    Mutant("closed product for a multi-term left with e > 0", "parser.py",
           "len(left) == 1 and len(left.get((0, 0), ())) == 1", "len(left) == 1 and (0, 0) in left", BUDGET),
    Mutant("_price leaves out the left's terms", "parser.py",
           "len(f) * (64 + 2 * lf * (lg + ls))", "(64 + 2 * lf * (lg + ls))", BUDGET),
    Mutant("_price leaves out the bracket word", "parser.py",
           "live = (k + j < 3) + (brackets and e > 0 and not k and not j and m > 0)", "live = (k + j < 3)", BUDGET),
    Mutant("_price charges a constant's bracket word", "parser.py",
           "(brackets and e > 0 and not k", "(brackets and not k", BUDGET),
    Mutant("the budget compare ten times too lenient", "parser.py",
           "if self._work + price > MAX_WORK:", "if self._work + price > 10 * MAX_WORK:", BUDGET),
    Mutant("the digit limit ignores the interpreter", "parser.py",
           'limit = getattr(sys, "get_int_max_str_digits", int)()', "limit = 0",
           ("tests/test_parser.py::TestParseErrors", "tests/test_cli.py::TestInterpreterDigitLimit")),
    Mutant("tokenizer takes any digit", "parser.py",
           'elif "0" <= ch <= "9":', "elif ch.isdigit():", ("tests/test_parser.py::TestParseErrors",)),
    Mutant("groups stay unreduced", "parser.py",
           "return _reduced(sums)",
           "return sums",
           ("tests/test_parser.py::TestSharedValues",)),
    Mutant("one term after a leading '-' stays positive", "parser.py",
           "return value if sign > 0 else {word: _negated(coeffs) for word, coeffs in value.items()}",
           "return value",
           ("tests/test_parser.py::TestParseExamples",)),
    # --alpha read as a value, and the digit check's early exit
    Mutant("parse_scalar accepts a term of degree 1", "parser.py",
           "max(coeffs, default=0) > 0", "max(coeffs, default=0) > 1",
           ("tests/test_exhaustive.py::test_parse_scalar_matches_the_form_round_trip",)),
    Mutant("_too_long's early exit one digit too high", "cli.py",
           "_LOWEST_LIMIT = 640\n", "_LOWEST_LIMIT = 641\n", ("tests/test_cli.py::TestInterpreterDigitLimit",)),
    # the text and JSON writers' shortcuts: no gcd over d == 1, no sort of one item, the power 1 of a generator
    Mutant("_ratios takes the d == 1 shortcut for every d", "cyclotomic.py",
           "    if d == 1:\n        return a, 1, b, 1\n", "    if d > 0:\n        return a, 1, b, 1\n", RENDER),
    Mutant("_by_word leaves two words in storage order", "forms.py",
           "    if len(terms) < 2:\n        return list(terms.items())\n",
           "    if len(terms) < 3:\n        return list(terms.items())\n", RENDER),
    Mutant("to_dict sorts degrees only from three on", "forms.py",
           "if len(coeffs) > 1 else coeffs.items():", "if len(coeffs) > 2 else coeffs.items():", RENDER),
    Mutant("render sorts degrees only from three on", "parser.py",
           "in sorted(coeffs.items()) if len(coeffs) > 1 else", "in sorted(coeffs.items()) if len(coeffs) > 2 else", RENDER),
    Mutant("_word writes x^1", "parser.py",
           'parts.append("x" if degree == 1 else f"x^{degree}")', 'parts.append(f"x^{degree}")', RENDER),
    Mutant("_word writes dx^1", "parser.py",
           'parts.append("dx" if dx == 1 else f"dx^{dx}")', 'parts.append(f"dx^{dx}")', RENDER),
    Mutant("_word writes d2x^1", "parser.py",
           'parts.append("d2x" if d2x == 1 else f"d2x^{d2x}")', 'parts.append(f"d2x^{d2x}")', RENDER),
    Mutant("_join drops the sign of a lone piece", "parser.py",
           "    if len(pieces) == 1:\n        return first\n", "    if len(pieces) == 1:\n        return text\n", RENDER),
    Mutant("QFORMS_OUTPUT never read", "cli.py",
           "raw = os.environ._data.get(_OUTPUT_KEY)", "raw = None", ENVIRONMENT),
    Mutant("QFORMS_OUTPUT read at the first call only", "cli.py",
           "raw = os.environ._data.get(_OUTPUT_KEY)",
           'raw = _configure.__dict__.setdefault("raw", os.environ._data.get(_OUTPUT_KEY))', ENVIRONMENT),
    # the term fold: generator powers and literals read as one monomial
    Mutant("dx^n kept past dx**2", "parser.py", "if k > 2 or", "if k > 2 and n < 3 or", POWERS),
    Mutant("anyonic x^n kept past x**2", "parser.py",
           "anyonic and e > 2:", "anyonic and e > 2 and n < 3:", POWERS),
    Mutant("q^n with the wrong residue", "parser.py",
           "_Q_TRIPLES[n % 3]", "_Q_TRIPLES[n % 2]", POWERS),
    Mutant("d2x^n on the dx power", "parser.py", "m += n", "k += n", POWERS),
    Mutant("fold drops the swap factor q**(2mn)", "parser.py", "if m * n % 3:", "if False:", FOLD),
    Mutant("fold keeps dx**3", "parser.py", "if k > 2 or", "if k > 3 or", FOLD),
    Mutant("fold keeps x**3 when anyonic", "parser.py", "anyonic and e > 2:", "anyonic and e > 3:", FOLD),
    Mutant("fold takes x after dx without its twist", "parser.py", "if n and (k or m):", "if n and m:", FOLD),
    Mutant("fold takes a long right literal unpriced", "parser.py",
           " or pos >= 0 and (abs(t[0]) | t[2]) >> 64:", ":", FOLD),
]


def copy_tree(dest: Path) -> None:
    ignore = shutil.ignore_patterns("__pycache__", ".hypothesis", ".pytest_cache")
    for name in ("src", "tests"):
        shutil.copytree(ROOT / name, dest / name, ignore=ignore)
    shutil.copy2(ROOT / "pyproject.toml", dest / "pyproject.toml")


def run_pytest(where: Path, selection: tuple[str, ...]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(where / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider", *selection]
    return subprocess.run(command, cwd=where, env=env, capture_output=True, text=True, timeout=TIMEOUT_S)


def check(mutant: Mutant) -> str | None:
    """None when the mutant is killed, else why not."""
    with tempfile.TemporaryDirectory(prefix="qforms-mutant-") as tmp:
        where = Path(tmp)
        copy_tree(where)
        path = where / "src" / "qforms" / mutant.file
        text = path.read_text()
        found = text.count(mutant.old)
        if found != 1:
            return f"the old text occurs {found} times in {mutant.file}"
        path.write_text(text.replace(mutant.old, mutant.new))
        try:
            done = run_pytest(where, mutant.selection)
        except subprocess.TimeoutExpired:
            return f"timed out after {TIMEOUT_S} s"
    if done.returncode == 1:
        return None
    if done.returncode == 0:
        return "survived: the selection passed"
    return f"pytest exit code {done.returncode}:\n{done.stdout[-2000:]}{done.stderr[-2000:]}"


def main(argv: list[str]) -> int:
    if argv == ["--list"]:
        for mutant in MUTANTS:
            print(mutant.name)
        return 0
    names = {mutant.name for mutant in MUTANTS}
    unknown = [name for name in argv if name not in names]
    if unknown:
        print(f"unknown mutants: {unknown}", file=sys.stderr)
        return 2
    chosen = [mutant for mutant in MUTANTS if not argv or mutant.name in argv]
    selections = tuple(dict.fromkeys(s for mutant in chosen for s in mutant.selection))
    with tempfile.TemporaryDirectory(prefix="qforms-unmutated-") as tmp:
        copy_tree(Path(tmp))
        try:
            baseline = run_pytest(Path(tmp), selections)
        except subprocess.TimeoutExpired:
            print(f"the unmutated selections timed out after {TIMEOUT_S} s", file=sys.stderr)
            return 1
    if baseline.returncode != 0:
        print(f"the unmutated selections fail:\n{baseline.stdout[-3000:]}", file=sys.stderr)
        return 1
    failures = 0
    for mutant in chosen:
        why = check(mutant)
        print(f"{'killed' if why is None else 'FAILED'}: {mutant.name}" + ("" if why is None else f" ({why})"),
              flush=True)
        failures += why is not None
    print(f"{len(chosen) - failures}/{len(chosen)} mutants killed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
