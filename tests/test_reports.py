"""Failure reports of the sampled suites.

Each law is broken on purpose by monkeypatching one operation its suite
calls. At a fixed seed and config the suite must then report the exact
failing sample and forms, the CLI must print that report as text and JSON
and exit 1, and stderr must carry one command that reproduces the failure.
"""

from __future__ import annotations

import itertools
import json
import shlex

import pytest

import qforms.checks as checks
from qforms import CalculusConfig, Q
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
    else:  # d^3 taken as the identity
        monkeypatch.setattr(checks, "differential_power", lambda u, n, cfg: u)


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
