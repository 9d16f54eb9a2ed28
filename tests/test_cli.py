"""End to end command line behaviour, run in process."""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import qforms.checks as checks
import qforms.cli as cli
import qforms.parser as parser
from qforms.calculus import CalculusConfig
from qforms.checks import SuiteResult
from qforms.cyclotomic import CycQ
from qforms.parser import MAX_DIGITS, MAX_EXPONENT

SHORT_BITS = cli._TOO_LONG.bit_length() - 1  # _too_long's bound at the default limit: shorter ints skip _ratios


def triple(value):
    """The stored (a, b, d) of a CycQ, the form in which a Form holds it."""
    return value._a, value._b, value._d


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    # tests control the environment override explicitly
    monkeypatch.delenv("QFORMS_OUTPUT", raising=False)


class TestReduce:
    def test_generic_commutation(self, run_cli):
        code, out = run_cli(["reduce", "dx*x"])
        assert code == 0
        assert out == "q*x*dx\n"

    def test_alpha_shows_up_in_the_bracket_term(self, run_cli):
        code, out = run_cli(["reduce", "d2x*x", "--alpha", "1"])
        assert code == 0
        assert out == "(1-1*q)*dx^2 + x*d2x\n"

    def test_anyonic_quotient(self, run_cli):
        code, out = run_cli(["reduce", "x^3", "--anyonic"])
        assert code == 0
        assert out == "0\n"

    def test_scalar_identity(self, run_cli):
        code, out = run_cli(["reduce", "q^2+q+1"])
        assert code == 0
        assert out == "0\n"

    def test_json_output(self, run_cli):
        code, out = run_cli(["reduce", "dx*x", "--output", "json"])
        assert code == 0
        assert json.loads(out) == {
            "mode": "generic",
            "terms": [{"dx": 1, "d2x": 0, "coeff": [[1, [0, 1, 1, 1]]]}],
        }

    @pytest.mark.parametrize("expr, code, out", [("dx*x", 0, "q*x*dx\n"), ("x + y", 2, "")])
    def test_module_runs_as_a_script(self, expr, code, out):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
        env.pop("QFORMS_OUTPUT", None)
        done = subprocess.run(
            [sys.executable, "-m", "qforms.cli", "reduce", expr], env=env, capture_output=True, text=True, timeout=60
        )
        assert (done.returncode, done.stdout) == (code, out)
        assert done.stderr.startswith("qforms: unknown symbol") if code else not done.stderr


class TestDiff:
    def test_single_application(self, run_cli):
        code, out = run_cli(["diff", "x"])
        assert code == 0
        assert out == "dx\n"

    def test_product(self, run_cli):
        code, out = run_cli(["diff", "x*dx"])
        assert code == 0
        assert out == "dx^2 + x*d2x\n"

    @pytest.mark.parametrize("times, expected", [(1, "dx\n"), (2, "d2x\n"), (3, "0\n")])
    def test_iterated(self, run_cli, times, expected):
        code, out = run_cli(["diff", "-n", str(times), "x"])
        assert code == 0
        assert out == expected

    def test_times_long_flag(self, run_cli):
        assert run_cli(["diff", "--times", "2", "x"]) == (0, "d2x\n")

    def test_long_power(self, run_cli):
        code, out = run_cli(["diff", "x^1500", "--alpha", "2"])
        assert code == 0
        assert out == f"{2**1500 - 1}*x^1499*dx\n"

    @pytest.mark.parametrize("alpha, expected", [("-q", "(1-1*q)*x*dx\n"), ("-1-1*q", "-q*x*dx\n")])
    def test_alpha_starting_with_a_minus_sign(self, run_cli, alpha, expected):
        # argparse reads '--alpha -q' as an option without its value, so README
        # tells such a value to be written '--alpha=VALUE'
        assert run_cli(["diff", "x^2", f"--alpha={alpha}"]) == (0, expected)


class TestGrade:
    def test_text_lines(self, run_cli):
        code, out = run_cli(["grade", "x + dx + x*d2x"])
        assert code == 0
        assert out == "0: x\n1: dx\n2: x*d2x\n"

    def test_json(self, run_cli):
        code, out = run_cli(["grade", "x + dx", "--output", "json"])
        assert code == 0
        decoded = json.loads(out)
        assert set(decoded) == {"0", "1"}
        assert decoded["1"]["terms"] == [{"dx": 1, "d2x": 0, "coeff": [[0, [1, 1, 0, 1]]]}]


class TestClosed:
    def test_matched_pair_is_closed(self, run_cli):
        assert run_cli(["closed", "x*d2x + dx^2"]) == (0, "true\n")

    def test_function_is_not_closed(self, run_cli):
        assert run_cli(["closed", "x"]) == (0, "false\n")

    def test_json(self, run_cli):
        code, out = run_cli(["closed", "5", "--output", "json"])
        assert code == 0
        assert json.loads(out) == {"closed": True}

    def test_zero_operands_make_no_kernel_call(self, run_cli, monkeypatch):
        # anyonic x^79 is 0, so every '*' and squaring after it has a zero
        # operand: each gives 0 with no call into forms._mul; x^2*d2x*x is 0
        # too, but its operands are not, and it takes the kernel's one call
        calls = []
        mul = parser._mul
        monkeypatch.setattr(parser, "_mul", lambda *args: calls.append(args) or mul(*args))
        assert run_cli(["closed", "5*x^79*dx^2*d2x", "--anyonic"]) == (0, "true\n")
        assert calls == []
        assert run_cli(["closed", "x^2*d2x*x", "--anyonic"]) == (0, "true\n")
        assert len(calls) == 1


class TestCheck:
    def test_single_suite_passes(self, run_cli):
        code, out = run_cli(["check", "d3", "--samples", "5", "--seed", "1"])
        assert code == 0
        lines = out.splitlines()
        assert lines[0] == "d3: PASS"
        assert lines[-1] == "summary: 1/1 suites passed"

    def test_all_suites(self, run_cli):
        code, out = run_cli(["check", "all", "--samples", "3"])
        assert code == 0
        assert out.splitlines()[-1] == "summary: 5/5 suites passed"

    def test_prop2_off_the_anyonic_line_passes_by_failing(self, run_cli):
        code, out = run_cli(["check", "prop2", "--alpha", "2", "--samples", "2"])
        assert code == 0
        assert "FAIL-as-expected" in out

    def test_json_report(self, run_cli):
        code, out = run_cli(
            ["check", "leibniz", "--samples", "4", "--seed", "7", "--output", "json"]
        )
        assert code == 0
        report = json.loads(out)
        assert report["alpha"] == "q"
        assert report["anyonic"] is False
        assert report["seed"] == 7
        assert report["samples"] == 4
        assert report["passed"] is True
        assert [s["name"] for s in report["suites"]] == ["leibniz"]
        assert report["suites"][0]["passed"] is True

    def test_identical_invocations_are_byte_identical(self, run_cli):
        argv = ["check", "d3", "--seed", "42", "--samples", "10"]
        assert run_cli(argv) == run_cli(argv)

    def test_property_failure_exits_one(self, run_cli, monkeypatch):
        def fake_run_suites(names, cfg, seed, samples, max_degree):
            return [SuiteResult("d3", False, ["counterexample: u"])]

        monkeypatch.setattr(checks, "run_suites", fake_run_suites)
        code, out = run_cli(["check", "d3"])
        assert code == 1
        assert "d3: FAIL" in out
        assert "counterexample: u" in out
        assert "summary: 0/1 suites passed" in out


class TestOutputOverride:
    def test_environment_wins_over_flag(self, run_cli, monkeypatch):
        monkeypatch.setenv("QFORMS_OUTPUT", "json")
        code, out = run_cli(["reduce", "x", "--output", "text"])
        assert code == 0
        assert json.loads(out)["mode"] == "generic"

    def test_bad_environment_value(self, run_cli, monkeypatch, capsys):
        monkeypatch.setenv("QFORMS_OUTPUT", "yaml")
        code, _ = run_cli(["reduce", "x"])
        assert code == 3
        assert "QFORMS_OUTPUT" in capsys.readouterr().err


class TestFailureModes:
    @pytest.mark.parametrize("expr", ["x^", "(x", "1/0", "x%2"])
    def test_parse_errors_exit_two(self, run_cli, expr, capsys):
        code, _ = run_cli(["reduce", expr])
        assert code == 2
        assert capsys.readouterr().err.startswith("qforms:")

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "x", "--anyonic", "--alpha", "2"],
            ["reduce", "x", "--alpha", "dx"],
            ["reduce", "x", "--alpha", "1+"],
            ["diff", "-n", "0", "x"],
            ["check", "d3", "--samples", "0"],
            ["check", "d3", "--seed=-1"],
            ["check", "d3", "--max-degree", "0"],
        ],
    )
    def test_configuration_errors_exit_three(self, run_cli, argv, capsys):
        code, _ = run_cli(argv)
        assert code == 3
        assert capsys.readouterr().err.startswith("qforms:")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["reduce", "x", "--seed", "-1"], "--seed must be nonnegative"),
            (["reduce", "x", "--samples", "0"], "--samples must be positive"),
            (["reduce", "x", "--samples", "10001"], "--samples must be at most 10000"),
            (["reduce", "x", "--max-degree", "0"], "--max-degree must be positive"),
            (["reduce", "x", "--max-degree", "10001"], "--max-degree must be at most 10000"),
            (["diff", "x", "-n", "0"], "-n must be positive"),
        ],
        ids=["seed-low", "samples-low", "samples-high", "max-degree-low", "max-degree-high", "n-low"],
    )
    @pytest.mark.parametrize("joined", [False, True], ids=["split", "joined"])
    def test_bound_messages(self, argv, message, joined):
        if joined:
            argv = argv[:-2] + [f"{argv[-2]}={argv[-1]}"]
        # the fast path reads '--opt v' unless v starts with '-', as in
        # '--seed -1'; argparse reads those and every '--opt=v'
        assert (cli._fast_args(argv) is None) == (joined or argv[-1].startswith("-"))
        assert run_isolated(argv) == (3, "", f"qforms: {message}\n")

    def test_parse_error_reports_position(self, run_cli, capsys):
        code, _ = run_cli(["reduce", "x^"])
        assert code == 2
        assert "position 2" in capsys.readouterr().err


class TestLimits:
    @pytest.mark.parametrize(
        "expr",
        [
            f"x^{MAX_EXPONENT + 1}",
            "(" * 3000 + "x" + ")" * 3000,
            "1" * (MAX_DIGITS + 1),
            "\u00b2",
            "x^\u00b2",
            "(x^100)^101",
            f"10^{MAX_DIGITS}",
            "(1+x)^1000",
        ],
        ids=[
            "power",
            "nesting",
            "literal",
            "superscript",
            "superscript-exponent",
            "nested-power",
            "result-digits",
            "dense-power",
        ],
    )
    def test_limits_exit_two_with_one_line(self, run_cli, expr, capsys):
        code, out = run_cli(["reduce", expr])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert err.startswith("qforms:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "argv",
        [
            ["diff", "x^5000", "--alpha", "10"],
            ["diff", "x^5000", "--alpha", "10", "--output", "json"],
            ["grade", f"dx + 10^{MAX_DIGITS}*d2x", "--output", "json"],
        ],
        ids=["diff-text", "diff-json", "grade-json"],
    )
    def test_results_past_the_digit_limit_exit_two(self, run_cli, argv, capsys):
        assert run_cli(argv) == (2, "")
        err = capsys.readouterr().err
        assert err.startswith("qforms: the result has an integer of more than")
        assert err.count("\n") == 1

    def test_results_at_the_digit_limit_print(self, run_cli):
        big = "1" + "0" * (MAX_DIGITS - 1)
        assert run_cli(["reduce", f"10^{MAX_DIGITS - 1}"]) == (0, big + "\n")
        code, out = run_cli(["reduce", f"10^{MAX_DIGITS - 1}", "--output", "json"])
        assert code == 0
        assert json.loads(out)["terms"][0]["coeff"] == [[0, [int(big), 1, 0, 1]]]
        code, out = run_cli(["check", "prop2", "--alpha", big, "--samples", "1"])
        assert code == 0
        assert f"q-bracket(x) = {big}-1*q is nonzero" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "x", "--alpha", f"10^{MAX_DIGITS}"],
            ["check", "swap", "--alpha", f"10^{MAX_DIGITS}", "--output", "json", "--samples", "1"],
            # alpha has MAX_DIGITS nines, and the alpha - q that prop2 prints one digit more
            ["check", "prop2", f"--alpha=-{'9' * MAX_DIGITS}*q", "--samples", "1"],
            ["check", "swap", "--max-degree", str(MAX_EXPONENT + 1)],
            ["check", "all", "--samples", str(cli.MAX_SAMPLES + 1)],
        ],
        ids=["alpha", "alpha-json", "alpha-minus-q", "max-degree", "samples"],
    )
    def test_configuration_past_a_limit_exits_three(self, run_cli, argv, capsys):
        assert run_cli(argv) == (3, "")
        err = capsys.readouterr().err
        assert err.startswith("qforms:")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "expr, alpha",
        [
            ("(1+x)^999*(1+q*x)^999", "q"),
            ("(x+d2x)^300", "2"),
            ("(x+d2x)^499", "2"),
            ("*".join(["(x+d2x)"] * 400), "2"),
            ("(1" + "0" * 4299 + ")^1000", "q"),
        ],
        ids=["binomials", "twisted-300", "twisted-499", "chain-400", "literal-power"],
    )
    def test_work_past_the_budget_exits_two_and_in_alpha_three(self, run_cli, expr, alpha, capsys):
        assert run_cli(["reduce", expr, "--alpha", alpha]) == (2, "")
        assert run_cli(["reduce", "x", f"--alpha={expr}"]) == (3, "")
        errors = capsys.readouterr().err.splitlines()
        assert errors[0].startswith("qforms: work exceeds the limit of")
        assert errors[1].startswith("qforms: bad --alpha value: ")  # not always the budget: alpha is parsed at q
        assert len(errors) == 2

    def test_digit_check_at_the_exact_boundary(self):
        last, first = 10**MAX_DIGITS - 1, 10**MAX_DIGITS  # the longest printable, the shortest not
        for value, too_long in [
            (CycQ(last), False),
            (CycQ(-last), False),
            (CycQ(0, last), False),
            (CycQ(Fraction(1, last)), False),
            (CycQ(first), True),
            (CycQ(-first), True),
            (CycQ(0, first), True),
            (CycQ(Fraction(1, first)), True),
        ]:
            assert value.max_bits() > SHORT_BITS  # both sides take the slow path
            assert cli._too_long([triple(value)]) is too_long

    def test_short_bits_follow_the_digit_limit(self):
        # the longest int whose length alone proves it printable: 2**SHORT_BITS <= 10**MAX_DIGITS
        assert cli._TOO_LONG == 10**MAX_DIGITS
        assert SHORT_BITS == 14_284
        assert 2**SHORT_BITS <= 10**MAX_DIGITS < 2 ** (SHORT_BITS + 1)

    def test_short_scalars_skip_the_lowest_terms(self):
        short = 2**SHORT_BITS - 1
        assert len(str(short)) <= MAX_DIGITS
        with mock.patch.object(cli, "_ratios", side_effect=AssertionError):
            for value in [CycQ(short), CycQ(-short, short), CycQ(Fraction(1, short))]:
                assert value.max_bits() == SHORT_BITS
                assert cli._too_long([triple(value)]) is False

    def test_long_stored_denominator_with_short_lowest_terms(self):
        # 1/p + q/r is stored over p*r, which is too long to print; its
        # lowest terms 1/p and 1/r are not
        p, r = 2**8000, 3**5100
        value = CycQ(Fraction(1, p), Fraction(1, r))
        assert value.max_bits() > SHORT_BITS
        assert p * r >= 10**MAX_DIGITS
        assert cli._too_long([triple(value)]) is False

    def test_samples_at_the_cap(self, run_cli):
        # the swap suite ignores the sample count, so this starts no large work
        code, out = run_cli(["check", "swap", "--samples", str(cli.MAX_SAMPLES)])
        assert code == 0
        assert out.endswith("summary: 1/1 suites passed\n")

    def test_max_degree_at_the_cap(self, run_cli):
        # the swap suite ignores the degree bound, so this starts no large work
        code, out = run_cli(["check", "swap", "--max-degree", str(MAX_EXPONENT)])
        assert code == 0
        assert out.endswith("summary: 1/1 suites passed\n")

    def test_non_ascii_digits_are_unexpected_characters(self, run_cli, capsys):
        # Arabic-Indic three: a decimal digit to str.isdecimal, not to the grammar
        code, out = run_cli(["reduce", "\u0663*x"])
        assert code == 2
        assert out == ""
        err = capsys.readouterr().err
        assert "unexpected character" in err
        assert "position 0" in err
        assert err.count("\n") == 1

    def test_nesting_in_alpha_is_a_configuration_error(self, run_cli, capsys):
        code, _ = run_cli(["reduce", "x", "--alpha", "(" * 3000 + "2" + ")" * 3000])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qforms: bad --alpha value")
        assert err.count("\n") == 1

    def test_long_literal_in_alpha_is_a_configuration_error(self, run_cli, capsys):
        code, _ = run_cli(["reduce", "x", "--alpha", "1/" + "1" * (MAX_DIGITS + 1)])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("qforms: bad --alpha value")
        assert "position 2" in err
        assert err.count("\n") == 1


class TestInterpreterDigitLimit:
    """Under an int/str digit limit below MAX_DIGITS (PYTHONINTMAXSTRDIGITS),
    that limit is the one the CLI refuses past, with one line and no traceback."""

    @staticmethod
    def run(argv, limit):
        env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]), PYTHONINTMAXSTRDIGITS=limit)
        env.pop("QFORMS_OUTPUT", None)
        done = subprocess.run(
            [sys.executable, "-m", "qforms.cli", *argv], env=env, capture_output=True, text=True, timeout=60
        )
        return done.returncode, done.stdout, done.stderr

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit")
    @pytest.mark.parametrize(
        "argv, code, message",
        [
            (["reduce", "2^3000"], 2, "the result has an integer of more than 640 digits"),
            (["reduce", "2^3000", "--output", "json"], 2, "the result has an integer of more than 640 digits"),
            (["reduce", "1" * 1000], 2, "integer literal exceeds the limit of 640 digits (at position 0)"),
            (["check", "prop2", "--alpha", "2^3000"], 3, "bad --alpha value: an integer has more than 640 digits"),
            (["reduce", "x", "--alpha", "1" * 1000], 3,
             "bad --alpha value: integer literal exceeds the limit of 640 digits (at position 0)"),
        ],
        ids=["result", "result-json", "literal", "alpha", "alpha-literal"],
    )
    def test_past_a_lower_limit(self, argv, code, message):
        assert self.run(argv, "640") == (code, "", f"qforms: {message}\n")

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit")
    @pytest.mark.parametrize("limit, applied", [("640", 640), ("0", MAX_DIGITS), ("5000", MAX_DIGITS)])
    def test_at_and_past_the_limit_that_applies(self, limit, applied):
        assert self.run(["reduce", f"10^{applied - 1}"], limit) == (0, "1" + "0" * (applied - 1) + "\n", "")
        message = f"qforms: the result has an integer of more than {applied} digits\n"
        assert self.run(["reduce", f"10^{applied}"], limit) == (2, "", message)

    @pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"), reason="the interpreter has no digit limit")
    def test_in_process_at_the_lowest_limit(self, run_cli, capsys):
        # an int of 2,126 bits skips the limit's check and prints under every limit; 10**640, of 2,127, does not
        assert (2**2125).bit_length() == 2126 and len(str(2**2125)) == 640
        before = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(640)
        try:
            assert run_cli(["reduce", "2^2125"]) == (0, f"{2**2125}\n")
            assert run_cli(["reduce", "10^640"]) == (2, "")
        finally:
            sys.set_int_max_str_digits(before)
        assert capsys.readouterr().err == "qforms: the result has an integer of more than 640 digits\n"


class TestDefaultAlpha:
    def test_default_alpha_is_not_parsed(self, run_cli, monkeypatch):
        parsed = []
        monkeypatch.setattr(cli, "parse_scalar", lambda text: parsed.append(text))
        assert run_cli(["reduce", "d2x*x"]) == (0, "q*x*d2x\n")
        assert run_cli(["check", "d3", "--samples", "1", "--alpha", "q"])[0] == 0
        assert parsed == []

    @pytest.mark.parametrize("anyonic", [[], ["--anyonic"]], ids=["generic", "anyonic"])
    @pytest.mark.parametrize("command", ["reduce", "diff", "grade", "closed"])
    def test_default_alpha_builds_no_configuration(self, run_cli, monkeypatch, command, anyonic):
        built = []
        init = CalculusConfig.__init__
        monkeypatch.setattr(CalculusConfig, "__init__", lambda self, *a, **kw: built.append(a) or init(self, *a, **kw))
        for alpha in ([], ["--alpha", "q"]):
            code, out = run_cli([command, "x^2*d2x + dx", *anyonic, *alpha])
            assert code == 0 and out
        assert built == []
        assert run_cli([command, "x", "--alpha", "2"])[0] == 0
        assert len(built) == 1

    @pytest.mark.parametrize("alpha", [" q ", "(q)", "q^4", "-1-q^2"])
    def test_other_spellings_of_q_give_the_same_output(self, run_cli, alpha):
        for argv in (["reduce", "d2x*x + dx*x^2"], ["check", "all", "--samples", "2"]):
            assert run_cli(argv + [f"--alpha={alpha}"]) == run_cli(argv)


def run_isolated(argv):
    """(exit code, stdout, stderr) of one main() call, argparse exits included."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


class TestSharedParser:
    def test_parser_is_built_once_per_process(self, run_cli, monkeypatch):
        built = [0]
        init = argparse.ArgumentParser.__init__

        def counting_init(self, *args, **kwargs):
            built[0] += 1
            init(self, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
        cli._build_parser.cache_clear()
        # '--opt=value' is left to argparse, so these calls build the parser
        run_cli(["reduce", "--alpha=2", "x"])
        once = built[0]
        for _ in range(9):
            run_cli(["diff", "--times=2", "x"])
        assert once > 0
        assert built[0] == once

    def test_fast_path_builds_no_parser(self, run_cli, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("an ArgumentParser was built")

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", refuse)
        cli._build_parser.cache_clear()
        assert run_cli(["reduce", "dx*x"]) == (0, "q*x*dx\n")
        assert run_cli(["diff", "-n", "2", "x^2", "--alpha", "2", "--output", "json"])[0] == 0
        assert cli._build_parser.cache_info().currsize == 0

    def test_importing_builds_no_parser(self):
        src = Path(cli.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=str(src))
        probe = "import qforms.cli as c; print(c._build_parser.cache_info().currsize)"
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=60
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout == "0\n"

    def test_calls_leave_no_state_behind(self, monkeypatch):
        # (argv, QFORMS_OUTPUT or None); neighbours differ in one setting
        steps = [
            (["reduce", "dx*x", "--output", "json"], None),
            (["reduce", "dx*x"], None),
            (["reduce", "x^3", "--anyonic"], None),
            (["reduce", "x^3"], None),
            (["reduce", "d2x*x", "--alpha", "2"], None),
            (["reduce", "d2x*x"], None),
            (["diff", "-n", "2", "x*dx"], None),
            (["diff", "x*dx"], None),
            (["grade", "x + dx"], "json"),
            (["grade", "x + dx"], None),
            (["reduce", "x^"], None),
            (["reduce", "x"], None),
            (["reduce", "x", "--alpha", "1+"], None),
            (["reduce", "x"], None),
            (["diff", "-n", "two", "x"], None),
            (["diff", "x"], None),
            (["closed", "x*d2x + dx^2", "--output", "json"], None),
            (["closed", "x"], None),
        ]

        def run_step(argv, env):
            if env is None:
                monkeypatch.delenv("QFORMS_OUTPUT", raising=False)
            else:
                monkeypatch.setenv("QFORMS_OUTPUT", env)
            return run_isolated(argv)

        interleaved = [run_step(argv, env) for argv, env in steps]
        alone = []
        for argv, env in steps:
            cli._build_parser.cache_clear()
            alone.append(run_step(argv, env))
        assert interleaved == alone
        codes = [code for code, _, _ in alone]
        assert {0, 2, 3} <= set(codes)
        usage_error = alone[steps.index((["diff", "-n", "two", "x"], None))]
        assert usage_error[0] == 2
        assert usage_error[2].startswith("usage: qforms diff")


def run_argparse_route(argv):
    """run_isolated with the fast path off: every argv goes through argparse."""
    with mock.patch.object(cli, "_fast_args", lambda argv: None):
        return run_isolated(argv)


def argparse_vars(argv):
    """vars() of argparse's Namespace for argv, or None where argparse exits."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            return vars(cli._build_parser().parse_args(argv))
        except SystemExit:
            return None


# option values, each list with a few that argparse refuses or reads differently
NUMBERS = ["0", "1", "3", "12", "+2", " 4", "1_0", "\u0663", "-1", "abc", ""]
OPTIONS = st.one_of(
    st.tuples(st.just("--alpha"), st.sampled_from(["q", "2", "1/2", "1+q", "x", "", "(", "-1"])),
    st.tuples(st.just("--anyonic")),
    st.tuples(st.just("--output"), st.sampled_from(["text", "json", "xml"])),
    st.tuples(st.sampled_from(["--seed", "--samples", "--max-degree"]), st.sampled_from(NUMBERS)),
    st.tuples(st.sampled_from(["-n", "--times"]), st.sampled_from(NUMBERS)),
)
EXPRESSIONS = st.sampled_from(["x", "dx*x", "x^2*d2x", "x + dx", "q*d2x^2", "(", ""])
HOSTILE = st.sampled_from(
    ["--alp", "--alpha=2", "--times=2", "--", "-1", "-h", "--help", "-n", "--output", "x", "check"]
)


@st.composite
def cli_argvs(draw):
    """A command, options and one expression in any order, and sometimes
    extra tokens: a repeated positional, an abbreviation, '--' and the like."""
    commands = ["reduce", "diff", "grade", "closed", "check", "red", "--alpha"]
    command = draw(st.sampled_from(commands))
    tokens = [draw(OPTIONS) for _ in range(draw(st.integers(0, 4)))]
    tokens.insert(draw(st.integers(0, len(tokens))), (draw(EXPRESSIONS),))
    if draw(st.booleans()):
        tokens.insert(draw(st.integers(0, len(tokens))), (draw(HOSTILE),))
    return [command] + [token for group in tokens for token in group]


class TestFastArgs:
    @settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(argv=cli_argvs())
    def test_matches_argparse(self, argv):
        fast = cli._fast_args(argv)
        if fast is not None:
            assert vars(fast) == argparse_vars(argv)
        else:
            assert run_isolated(argv) == run_argparse_route(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            ["reduce", "x"],
            ["diff", "x^2*d2x", "-n", "3", "--alpha", "1+q", "--output", "json"],
            ["diff", "--times", "\u0663", "x^3"],
            ["grade", "x + dx", "--anyonic", "--seed", "4", "--samples", "5"],
            ["closed", "--max-degree", "7", "x*d2x + dx^2", "--output", "text"],
            ["reduce", "", "--alpha", "2", "--alpha", "1/2"],
        ],
    )
    def test_accepted_shapes(self, argv):
        fast = cli._fast_args(argv)
        assert fast is not None
        assert vars(fast) == argparse_vars(argv)
        assert run_isolated(argv) == run_argparse_route(argv)

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["reduce"],
            ["reduce", "--alp", "2", "x"],
            ["reduce", "--alpha=2", "x"],
            ["reduce", "-n", "2", "x"],
            ["reduce", "x", "--output", "xml"],
            ["diff", "-n", "abc", "x"],
            ["diff", "-n", "-1", "x"],
            ["reduce", "--", "-x"],
            ["reduce", "-1"],
            ["reduce", "x", "y"],
            ["reduce", "x", "--alpha"],
            ["reduce", "--help"],
            ["check", "swap"],
            ["--alpha", "2", "reduce", "x"],
        ],
    )
    def test_declined_shapes_go_to_argparse(self, argv):
        assert cli._fast_args(argv) is None
        assert run_isolated(argv) == run_argparse_route(argv)

    @pytest.mark.parametrize("argv", [["reduce", "dx*x"], ["reduce", "--alpha=1", "d2x*x"]])
    def test_reads_sys_argv_when_argv_is_none(self, argv, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["qforms"] + argv)
        assert run_isolated(None) == run_argparse_route(argv)
