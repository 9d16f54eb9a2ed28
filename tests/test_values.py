"""The word, configuration and suite-result classes as plain values, and what
importing qforms loads."""

from __future__ import annotations

import copy
import os
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import qforms
from qforms.calculus import CalculusConfig
from qforms.checks import SuiteResult
from qforms.cyclotomic import Q, CycQ
from qforms.forms import FormMonomial


def run_probe(statements: str, modules: set[str]) -> list[str]:
    """The stdout lines of statements run in a fresh interpreter without site,
    followed by the printed sorted list of those modules that were loaded."""
    src = Path(qforms.__file__).resolve().parents[1]
    probe = f"import sys\n{statements}\nprint(sorted({modules!r} & set(sys.modules)))"
    done = subprocess.run(
        [sys.executable, "-S", "-c", probe],
        env=dict(os.environ, PYTHONPATH=str(src)),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.splitlines()


def loaded_after_import(modules: set[str]) -> str:
    """The printed sorted list of those modules that importing qforms, its CLI
    and its checks loads, in a fresh interpreter without site."""
    (line,) = run_probe("import qforms, qforms.cli, qforms.checks", modules)
    return line + "\n"


def test_import_loads_no_dataclasses_or_inspect():
    assert loaded_after_import({"dataclasses", "inspect"}) == "[]\n"


def test_import_loads_no_json():
    # only --output json imports it
    assert loaded_after_import({"json"}) == "[]\n"


# what a request that needs none of them must not load
LAZY = {"fractions", "decimal", "argparse", "qforms.checks"}
PARSER_AND_CHECKS = ["argparse", "qforms.checks"]


def test_import_loads_no_fractions_argparse_or_checks():
    assert run_probe("import qforms, qforms.cli", LAZY) == ["[]"]


@pytest.mark.parametrize("output", ["text", "json"])
def test_fast_path_request_loads_none_of_them(output):
    argv = ["diff", "-n", "2", "1/2*x^2 + (1+q)*d2x", "--alpha", "1/2", "--output", output]
    lines = run_probe(f"import qforms.cli\nprint(qforms.cli.main({argv!r}))", LAZY)
    text = "3/4*dx^2 + 3/4*x*d2x"
    if output == "json":
        text = (
            '{"mode": "generic", "terms": [{"dx": 2, "d2x": 0, "coeff": [[0, [3, 4, 0, 1]]]}, '
            '{"dx": 0, "d2x": 1, "coeff": [[1, [3, 4, 0, 1]]]}]}'
        )
    assert lines == [text, "0", "[]"]


@pytest.mark.parametrize(
    "argv, last_output, loaded",
    [
        (["check", "all", "--samples", "2"], "summary: 5/5 suites passed", PARSER_AND_CHECKS),
        (["reduce", "--alpha=2", "x"], "x", PARSER_AND_CHECKS),
    ],
    ids=["check", "declined-argv"],
)
def test_other_requests_load_what_they_need(argv, last_output, loaded):
    lines = run_probe(f"import qforms.cli\nprint(qforms.cli.main({argv!r}))", LAZY)
    assert lines[-3:] == [last_output, "0", repr(loaded)]


class TestFormMonomial:
    def test_repr(self):
        assert repr(FormMonomial(1, 2)) == "FormMonomial(dx=1, d2x=2)"
        assert repr(FormMonomial(dx=0, d2x=0)) == "FormMonomial(dx=0, d2x=0)"

    @pytest.mark.parametrize(
        "dx, d2x, message",
        [(3, 0, "dx power must lie in {0, 1, 2}"), (0, -1, "d2x power must be nonnegative")],
    )
    def test_out_of_range_powers_raise(self, dx, d2x, message):
        with pytest.raises(ValueError, match=message):
            FormMonomial(dx, d2x)

    def test_is_the_power_pair(self):
        for k in range(3):
            for m in range(4):
                mon = FormMonomial(k, m)
                assert (mon.dx, mon.d2x, mon.grade) == (k, m, k + 2 * m)
                assert mon == (k, m) and hash(mon) == hash((k, m))
        words = [FormMonomial(k, m) for m in (1, 0) for k in (2, 0)]
        assert sorted(words) == [(0, 0), (0, 1), (2, 0), (2, 1)]

    def test_is_immutable(self):
        mon = FormMonomial(1, 2)
        for name in ("dx", "d2x", "grade", "other"):
            with pytest.raises(AttributeError):
                setattr(mon, name, 0)

    def test_copies_and_pickles(self):
        mon = FormMonomial(2, 5)
        for twin in (copy.copy(mon), copy.deepcopy(mon), pickle.loads(pickle.dumps(mon))):
            assert type(twin) is FormMonomial and twin == mon


class TestCalculusConfig:
    def test_repr(self):
        assert repr(CalculusConfig(2)) == "CalculusConfig(alpha=CycQ(2, 0), anyonic=False)"
        assert repr(CalculusConfig(Q, anyonic=True)) == (
            "CalculusConfig(alpha=CycQ(0, 1), anyonic=True)"
        )

    def test_equality_and_hash_follow_the_coerced_alpha(self):
        assert CalculusConfig(2) == CalculusConfig(CycQ(2))
        assert hash(CalculusConfig(2)) == hash(CalculusConfig(CycQ(2)))
        assert CalculusConfig(Q) != CalculusConfig(Q, anyonic=True)
        assert CalculusConfig(Q) != CalculusConfig(CycQ(2))
        assert CalculusConfig(Q) != (Q, False)

    def test_is_immutable(self):
        cfg = CalculusConfig(Q)
        with pytest.raises(AttributeError, match="cannot assign to field 'alpha'"):
            cfg.alpha = CycQ(2)
        with pytest.raises(AttributeError, match="cannot delete field 'anyonic'"):
            del cfg.anyonic
        assert cfg.alpha == Q and cfg.anyonic is False

    def test_copies_and_pickles(self):
        cfg = CalculusConfig(Q, anyonic=True)
        for twin in (copy.copy(cfg), copy.deepcopy(cfg), pickle.loads(pickle.dumps(cfg))):
            assert type(twin) is CalculusConfig and twin == cfg


class TestSuiteResult:
    def test_repr_and_equality(self):
        result = SuiteResult("d3", True)
        assert repr(result) == "SuiteResult(name='d3', passed=True, lines=[])"
        assert result == SuiteResult("d3", True, [])
        assert result != SuiteResult("d3", False)
        assert result != SuiteResult("d3", True, ["detail"])

    def test_default_lines_are_not_shared(self):
        first, second = SuiteResult("assoc", True), SuiteResult("swap", True)
        first.lines.append("detail")
        assert second.lines == []
