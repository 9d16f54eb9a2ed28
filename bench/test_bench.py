"""Tests of the benchmark itself: reference, tracing and failure accounting.

    python3 -m pytest bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import reference
import run
import tracing

F = Fraction
ONE = reference.ONE
Q = reference.Q


def cli_text(argv: list[str]) -> str:
    qforms, _ = run.import_qforms()
    workload = run.CliWorkload(qforms)
    code, out, err = workload.run(run.CliRequest(tuple(argv), "", 1, "", (), Q, False))
    assert (code, err) == (0, "")
    return out


# The README's examples. Inputs that are not left-normal are reduced by hand
# with the paper's rules: dx*x == twist(x)*dx == alpha*x*dx, and
# d2x*x == twist(x)*d2x + q_bracket(x)*dx^2 with q_bracket(x) == alpha - q.
README = [
    (["reduce", "dx*x"], ("reduce", 1, "text", [(Q, 1, 1, 0)], Q), "q*x*dx\n"),
    (
        ["reduce", "d2x*x", "--alpha", "1"],
        ("reduce", 1, "text", [(ONE, 1, 0, 1), ((F(1), F(-1)), 0, 2, 0)], ONE),
        "(1-1*q)*dx^2 + x*d2x\n",
    ),
    (["diff", "-n", "3", "x^2*d2x"], ("diff", 3, "text", [(ONE, 2, 0, 1)], Q), "0\n"),
    (["grade", "x + dx"], ("grade", 1, "text", [(ONE, 1, 0, 0), (ONE, 0, 1, 0)], Q), "0: x\n1: dx\n"),
    (
        ["closed", "x*d2x + dx^2"],
        ("closed", 1, "text", [(ONE, 1, 0, 1), (ONE, 0, 2, 0)], Q),
        "true\n",
    ),
    (
        ["reduce", "dx*x", "--output", "json"],
        ("reduce", 1, "json", [(Q, 1, 1, 0)], Q),
        '{"mode": "generic", "terms": [{"dx": 1, "d2x": 0, "coeff": [[1, [0, 1, 1, 1]]]}]}\n',
    ),
]


@pytest.mark.parametrize("argv, spec, printed", README, ids=[" ".join(r[0]) for r in README])
def test_reference_reproduces_the_readme(argv, spec, printed):
    command, times, output, terms, alpha = spec
    assert reference.expected_output(command, times, output, terms, alpha, False) == printed
    assert cli_text(argv) == printed


def test_reference_anyonic_truncates_and_uses_q_integers():
    # x^3 == 0, and derivative(x^2) == [2]_q x == (1+q) x
    assert reference.expected_output("reduce", 1, "text", [(ONE, 3, 0, 0)], Q, True) == "0\n"
    assert reference.expected_output("diff", 1, "text", [(ONE, 2, 0, 0)], Q, True) == "(1+1*q)*x*dx\n"


def test_generated_requests_match_the_program():
    qforms, _ = run.import_qforms()
    workload = run.CliWorkload(qforms)
    requests = list(zip(range(300), workload.requests(5)))
    commands = {request.command for _, request in requests}
    assert commands == {"reduce", "diff", "grade", "closed"}
    tally = run.Tally(workload)
    closed = set()
    for _, request in requests:
        output, _ = run.run_op(workload, request)
        tally.add(request, output)
        if request.command == "closed":
            closed.add("true" in output[1])
    assert (tally.attempted, tally.failed) == (300, 0), tally.problems
    assert closed == {True, False}


class Raising:
    """A workload whose ops leak the exceptions a broken program could raise."""

    def __init__(self):
        self.errors = iter([RecursionError("deep"), SystemExit(2), ValueError("bad")])

    def run(self, request):
        raise next(self.errors)

    def check(self, request, output):
        return output == "ok"


def test_every_failure_is_counted_and_the_run_goes_on():
    workload = Raising()
    tally = run.Tally(workload)
    for i in range(3):
        output, _ = run.run_op(workload, i)
        assert output[0] == "raised"
        tally.add(i, output)
    assert (tally.attempted, tally.failed) == (3, 3)
    assert ["RecursionError" in p for p in tally.problems] == [True, False, False]


def test_cli_recursion_error_is_a_failed_op():
    qforms, _ = run.import_qforms()
    workload = run.CliWorkload(qforms)
    expr = "(" * 3000 + "x" + ")" * 3000
    request = run.CliRequest(("reduce", expr), "reduce", 1, "text", ((ONE, 1, 0, 0),), Q, False)
    output, _ = run.run_op(workload, request)
    tally = run.Tally(workload)
    tally.add(request, output)
    # an escaping RecursionError (or an error exit) is one failed op, never fatal
    assert output == (0, "x\n", "") or tally.failed == 1


def test_tracer_restores_every_patched_name():
    qforms, modules = run.import_qforms()
    before = {name: dict(vars(module)) for name, module in modules.items()}
    methods = {(cls, m): vars(cls)[m] for cls, m in [(qforms.CycQ, "__mul__"), (qforms.Poly, "__rmul__")]}
    tracer = tracing.Tracer()
    tracer.install(modules)
    assert modules["qforms.forms"].twist is not before["qforms.forms"]["twist"]
    tracer.uninstall()
    for name, module in modules.items():
        assert dict(vars(module)) == before[name]
    for (cls, m), fn in methods.items():
        assert vars(cls)[m] is fn


# traced runs, two per workload with the same seed ------------------------

BENCH = Path(__file__).resolve().parent


def traced_run(workload: str, seed: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    info = json.loads(lines[-2 - len(result["metrics"])])
    assert result["correct"] and result["failed"] == 0, done.stderr
    return {"metrics": result["metrics"], "digest": info["output_digest"]}


@pytest.fixture(scope="module")
def traced_pairs():
    return {w: (traced_run(w, 3), traced_run(w, 3)) for w in run.WORKLOADS}


def counts(result: dict) -> dict:
    return {k: v["value"] for k, v in result["metrics"].items() if v["unit"] != "s"}


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_traced_counts_and_outputs_repeat(traced_pairs, workload):
    first, second = traced_pairs[workload]
    assert set(first["metrics"]) == set(second["metrics"])
    assert counts(first) == counts(second)
    assert first["digest"] == second["digest"]


def test_predicted_split(traced_pairs):
    def value(workload, name):
        return traced_pairs[workload][0]["metrics"][name]["value"]

    generic = value("check_generic", "forms.calculus_calls_per_pair")
    assert generic > 10 * value("cli_requests", "forms.calculus_calls_per_pair")
    assert value("check_anyonic", "calculus.q_bracket_zero_ratio") == 1.0
    assert value("check_generic", "calculus.q_bracket_zero_ratio") < 0.5


def test_fails_without_the_sources(tmp_path):
    root = BENCH.parent
    shutil.copy(root / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "cli_requests", "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
