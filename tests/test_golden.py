"""Golden byte-identity gate: a fixed, seeded corpus of CLI calls, hashed.

Each call runs cli.main in process. One SHA-256 covers, for every call in
order, its argv, exit code, stdout and stderr. The corpus covers reduce,
diff -n 1..3, grade and closed on seeded typed sums and products, in text
and JSON, at several twist scalars and in the anyonic mode; the README
examples; check all at seeds 0-2; and inputs that must fail, each with its
exit code and message. Calls that argparse itself refuses are left out,
because its messages differ between Python versions.

A change that alters any byte of any of these outputs changes DIGEST, and
must say why. To print the corpus of a failing run:

    python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import io
import json
import random
import sys

import pytest

from qforms.cli import main

DIGEST = "9646e57ae0e0cc834ac9ca7808871b47ab14123766759d93d1cf177c6b85e6fc"

ALPHAS = (("--alpha", "q"), ("--alpha", "1"), ("--alpha", "2"), ("--alpha", "1+q"), ("--alpha", "1/2"),
          ("--alpha", "5/7*q-3/7"), ("--anyonic",))
COEFFS = ("", "2", "q", "(-3*q)",  # no text starts with "-", which argparse reads as a flag
          "1/2", "(1+q)", "(2/3-5/4*q)", "7/9")
WORDS = ("", "dx", "dx^2", "d2x", "dx*d2x", "dx^2*d2x", "d2x^2", "dx*d2x^3")


def _term(rng: random.Random) -> str:
    a = rng.randint(0, 5)
    parts = (rng.choice(COEFFS), "x" if a == 1 else f"x^{a}" if a else "", rng.choice(WORDS))
    return "*".join(p for p in parts if p) or "1"


def _sum(rng: random.Random, most: int) -> str:
    return " + ".join(_term(rng) for _ in range(rng.randint(1, most)))


def _expressions(seed: int) -> list[str]:
    """Typed sums of left-normal terms, and products and powers the kernel reduces."""
    rng = random.Random(seed)
    out = [_sum(rng, 4) for _ in range(3)]
    out += [f"({_sum(rng, 3)})*({_sum(rng, 3)})" for _ in range(2)]
    out.append(f"({_sum(rng, 2)})^{rng.randint(2, 4)}")
    return out


README_EXAMPLES = (
    ["reduce", "dx*x"],
    ["reduce", "d2x*x", "--alpha", "1"],
    ["diff", "-n", "3", "x^2*d2x"],
    ["diff", "x^2", "--alpha=-q"],
    ["grade", "x + dx"],
    ["closed", "x*d2x + dx^2"],
    ["check", "prop2", "--alpha", "1", "--samples", "1"],
    ["reduce", "dx*x", "--output", "json"],
)

FAILING = (
    ["reduce", "x + y"],
    ["reduce", "x $ dx"],
    ["reduce", "(x+d2x)^78", "--alpha", "2"],
    ["reduce", "10^4299"],
    ["reduce", "10^4300"],
    ["reduce", "10^4299", "--output", "json"],
    ["reduce", "10^4300", "--output", "json"],
    ["reduce", "x", "--alpha", "x"],
    ["reduce", "x", "--alpha", "1/0"],
    ["reduce", "x", "--alpha", "1+"],
    ["reduce", "x", "--alpha", "(x+d2x)^300"],
    ["reduce", "x", "--anyonic", "--alpha", "2"],
    ["check", "all", "--samples", "10001"],
)


def corpus() -> list[list[str]]:
    calls = [list(argv) for argv in README_EXAMPLES]
    for seed, alpha in enumerate(ALPHAS):
        for expr in _expressions(seed):
            for output in ("text", "json"):
                for command in (["reduce"], ["diff"], ["diff", "-n", "2"], ["diff", "-n", "3"], ["grade"], ["closed"]):
                    calls.append([*command, expr, *alpha, "--output", output])
    for alpha in ALPHAS:
        for seed in range(3):
            for output in ("text", "json"):
                calls.append(["check", "all", "--samples", "20", "--seed", str(seed), *alpha, "--output", output])
    calls += [list(argv) for argv in FAILING]
    return calls


def run(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(list(argv))
    return code, out.getvalue(), err.getvalue()


@functools.cache
def records() -> tuple[str, ...]:
    """One JSON line per call: [argv, exit code, stdout, stderr]."""
    lines = []
    for argv in corpus():
        code, out, err = run(argv)
        lines.append(json.dumps([argv, code, out, err]))
        if argv[0] == "diff" and argv[-1] == "text" and code == 0 and not out.startswith("-"):
            # the text of each diff, read back by closed: true on d**2 f and d**3 f, since d**3 == 0
            options = argv[4 if argv[1] == "-n" else 2 :]
            again = ["closed", out.strip(), *options]
            lines.append(json.dumps([again, *run(again)]))
    return tuple(lines)


def digest() -> str:
    h = hashlib.sha256()
    for line in records():
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


@pytest.fixture(autouse=True)
def clean_environment(monkeypatch):
    # QFORMS_OUTPUT would override every --output of the corpus
    monkeypatch.delenv("QFORMS_OUTPUT", raising=False)


def test_corpus_covers_every_command_and_exit_code():
    codes = {json.loads(line)[1] for line in records()}
    assert codes == {0, 2, 3}
    assert {argv[0] for argv in corpus()} == {"reduce", "diff", "grade", "closed", "check"}


def test_outputs_are_byte_identical():
    assert digest() == DIGEST


if __name__ == "__main__":
    print("\n".join(records()))
    print(digest(), file=sys.stderr)
