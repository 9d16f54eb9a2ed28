"""Failure reports of the check suites.

Each law is broken on purpose by monkeypatching one operation its suite
calls. At a fixed seed and config the suite must then report the exact
failing sample and forms, or for prop2 and swap the one failing line, the
CLI must print that report as text and JSON and exit 1, and stderr must
carry one command that reproduces the failure. The last tests run the
refusals and the from_dict check that no other test reaches.
"""

from __future__ import annotations

import itertools
import json
import shlex

import pytest

import qforms.checks as checks
from qforms import CalculusConfig, CycQ, Poly, Q
from qforms.checks import SuiteResult, run_suites
from qforms.forms import Form

SEED, SAMPLES, MAX_DEGREE = 7, 20, 2
OPTIONS = ["--seed", str(SEED), "--samples", str(SAMPLES), "--max-degree", str(MAX_DEGREE)]

# the reports at alpha = q, generic mode, under the breaks of `broken`
REPORTS = {
    "assoc": [
        "sample 0: (u*v)*w != u*(v*w)",
        "u = 1 - 4*q + (-4+3*q)*x + (-5+3*q-4*x^2)*d2x^3",
        "v = (5+5*q)*x^2*dx^2",
        "w = (-2-5*q)*x^2*dx^2*d2x^3",
    ],
    "leibniz": [
        "sample 1: d(u*v) != d(u)*v + q^|u| * u*d(v)",
        "u = (4+1*q+(-3-1*q)*x+(-2-5*q)*x^2)*dx",
        "v = (4+5*q+(-3-4*q)*x^2)*dx^2",
    ],
    "d3": [
        "sample 0: d^3 != 0",
        "u = 1 - 4*q + (-4+3*q)*x + (-5+3*q-4*x^2)*d2x^3",
    ],
}


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    monkeypatch.delenv("QFORMS_OUTPUT", raising=False)


def broken(monkeypatch, suite: str) -> None:
    """Break the one operation of `suite`'s law."""
    if suite == "assoc":  # u o v = u*v + u is not associative
        mul = Form.mul
        monkeypatch.setattr(Form, "mul", lambda self, other, cfg: mul(self, other, cfg) + self)
    elif suite == "leibniz":  # q^|u| one power too high
        q_power = checks.q_power
        monkeypatch.setattr(checks, "q_power", lambda n: q_power(n + 1))
    elif suite == "d3":  # d^3 taken as the identity
        monkeypatch.setattr(checks, "differential_power", lambda u, n, cfg: u)
    elif suite == "prop2":  # the bracket vanishing off alpha = q, and not vanishing at it
        monkeypatch.setattr(checks, "q_bracket", lambda f, cfg: Poly.zero(cfg.anyonic))
        monkeypatch.setattr(checks, "check_homogeneity", lambda cfg, max_degree: False)
    else:  # the swap scalar one power of q too high past a d2x
        swap_scalar = checks.swap_scalar
        monkeypatch.setattr(checks, "swap_scalar", lambda r, j: swap_scalar(r, j) * Q if r else swap_scalar(r, j))


@pytest.mark.parametrize("suite", REPORTS)
def test_suite_reports_the_first_failing_sample(suite, monkeypatch):
    broken(monkeypatch, suite)
    cfg = CalculusConfig(Q)
    expected = SuiteResult(suite, False, REPORTS[suite])
    assert run_suites((suite,), cfg, SEED, SAMPLES, MAX_DEGREE) == [expected]
    assert getattr(checks, f"run_{suite}")(cfg, SEED, SAMPLES, MAX_DEGREE) == expected


@pytest.mark.parametrize("suite", REPORTS)
def test_unbroken_suites_pass_at_the_same_config(suite):
    (result,) = run_suites((suite,), CalculusConfig(Q), SEED, SAMPLES, MAX_DEGREE)
    assert result.passed


@pytest.mark.parametrize("suite", REPORTS)
def test_cli_text_report(suite, monkeypatch, run_cli):
    broken(monkeypatch, suite)
    code, out = run_cli(["check", suite, *OPTIONS])
    assert code == 1
    detail = "".join(f"  {line}\n" for line in REPORTS[suite])
    assert out == f"{suite}: FAIL\n{detail}summary: 0/1 suites passed\n"


@pytest.mark.parametrize("suite", REPORTS)
def test_cli_json_report(suite, monkeypatch, run_cli):
    broken(monkeypatch, suite)
    code, out = run_cli(["check", suite, *OPTIONS, "--output", "json"])
    assert code == 1
    report = {
        "alpha": "q",
        "anyonic": False,
        "seed": SEED,
        "samples": SAMPLES,
        "max_degree": MAX_DEGREE,
        "suites": [{"name": suite, "passed": False, "detail": REPORTS[suite]}],
        "passed": False,
    }
    assert out == json.dumps(report) + "\n"


REPRODUCTIONS = [
    ("leibniz", ["check", "leibniz", "--alpha=1-1*q", *OPTIONS],
     "qforms check leibniz '--alpha=1-1*q' --seed 7 --samples 20 --max-degree 2"),
    ("assoc", ["check", "assoc", "--anyonic", "--samples", "20", "--seed", "7"],
     "qforms check assoc --alpha=q --anyonic --seed 7 --samples 20 --max-degree 6"),
    ("d3", ["check", "all", "--alpha", "2", "--samples", "20", "--seed", "7"],
     "qforms check d3 --alpha=2 --seed 7 --samples 20 --max-degree 6"),
    ("d3", ["check", "d3", "--alpha=-1-1*q", "--output", "json"],
     "qforms check d3 '--alpha=-1-1*q' --seed 0 --samples 200 --max-degree 6"),
]


@pytest.mark.parametrize("suite, argv, line", REPRODUCTIONS, ids=[r[2] for r in REPRODUCTIONS])
def test_failure_prints_a_reproduction_command(suite, argv, line, monkeypatch, run_cli, capsys):
    broken(monkeypatch, suite)
    code, out = run_cli(argv)
    assert code == 1
    assert capsys.readouterr().err == line + "\n"
    command = shlex.split(line)
    assert command[:3] == ["qforms", "check", suite]
    again, rerun = run_cli(command[1:])
    assert again == 1
    assert capsys.readouterr().err == line + "\n"
    if "--output" in argv:
        (detail,) = [s["detail"] for s in json.loads(out)["suites"] if not s["passed"]]
    else:
        lines = out.splitlines()
        block = lines[lines.index(f"{suite}: FAIL") + 1 :]
        detail = [text[2:] for text in itertools.takewhile(lambda text: text.startswith("  "), block)]
    assert len(detail) > 1
    assert rerun == f"{suite}: FAIL\n" + "".join(f"  {d}\n" for d in detail) + "summary: 0/1 suites passed\n"


def test_a_passing_check_writes_nothing_on_stderr(run_cli, capsys):
    code, _ = run_cli(["check", "all", "--samples", "5"])
    assert code == 0
    assert capsys.readouterr().err == ""


# the one-line reports of prop2 and swap under `broken`: (suite, --alpha, line)
ONE_LINE = {
    "prop2-alpha-2": ("prop2", "2", "q-bracket(x) = 0, expected the nonzero value 2-1*q"),
    "prop2-alpha-q": ("prop2", "q", "q-bracket failed to vanish below degree 2 at alpha = q"),
    "swap": ("swap", "q", "d2x^1 * dx^0 reduced to d2x, expected q*d2x"),
}


@pytest.mark.parametrize("suite, alpha, line", ONE_LINE.values(), ids=ONE_LINE)
def test_one_line_suite_reports(suite, alpha, line, monkeypatch):
    broken(monkeypatch, suite)
    cfg = CalculusConfig(2 if alpha == "2" else Q)
    expected = SuiteResult(suite, False, [line])
    assert run_suites((suite,), cfg, SEED, SAMPLES, MAX_DEGREE) == [expected]
    assert getattr(checks, f"run_{suite}")(cfg, SEED, SAMPLES, MAX_DEGREE) == expected


@pytest.mark.parametrize("suite, alpha, line", ONE_LINE.values(), ids=ONE_LINE)
def test_one_line_cli_reports_and_reproduction(suite, alpha, line, monkeypatch, run_cli, capsys):
    broken(monkeypatch, suite)
    argv = ["check", suite, f"--alpha={alpha}", *OPTIONS]
    reproduction = f"qforms check {suite} --alpha={alpha} --seed 7 --samples 20 --max-degree 2\n"
    text = f"{suite}: FAIL\n  {line}\nsummary: 0/1 suites passed\n"
    assert run_cli(argv) == (1, text)
    assert capsys.readouterr().err == reproduction
    assert run_cli(shlex.split(reproduction)[1:]) == (1, text)
    assert capsys.readouterr().err == reproduction
    report = {
        "alpha": alpha,
        "anyonic": False,
        "seed": SEED,
        "samples": SAMPLES,
        "max_degree": MAX_DEGREE,
        "suites": [{"name": suite, "passed": False, "detail": [line]}],
        "passed": False,
    }
    assert run_cli([*argv, "--output", "json"]) == (1, json.dumps(report) + "\n")
    assert capsys.readouterr().err == reproduction


def test_from_dict_refuses_a_negative_degree():
    data = {"mode": "generic", "terms": [{"dx": 0, "d2x": 0, "coeff": [[-1, [1, 1, 0, 1]]]}]}
    with pytest.raises(ValueError, match=r"^negative degree -1$"):
        Form.from_dict(data)


def test_refused_operands():
    assert (SuiteResult("swap", True) == 1) is False
    with pytest.raises(TypeError):
        CycQ(2) ** 1.5
    with pytest.raises(TypeError):
        "a" * Form.one()
    with pytest.raises(TypeError):
        Poly.x() - 1
