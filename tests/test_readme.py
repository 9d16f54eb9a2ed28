"""README.md's command-line examples, run in process and compared line by line."""

from __future__ import annotations

import contextlib
import io
import re
import shlex
from pathlib import Path

import pytest

from qforms.cli import main

README = Path(__file__).resolve().parents[1] / "README.md"


def readme_examples() -> list[tuple[str, list[str]]]:
    """(command, printed lines) for each '$ qforms ...' line in an sh block."""
    examples = []
    for block in re.findall(r"^```sh\n(.*?)^```", README.read_text(), re.M | re.S):
        for chunk in re.split(r"^(?=\$ )", block, flags=re.M):
            if chunk.startswith("$ qforms "):
                command, *printed = chunk.splitlines()
                examples.append((command[2:], printed))
    return examples


EXAMPLES = readme_examples()


@pytest.mark.parametrize("command, printed", EXAMPLES, ids=[c for c, _ in EXAMPLES])
def test_readme_example(command, printed, monkeypatch):
    monkeypatch.delenv("QFORMS_OUTPUT", raising=False)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(shlex.split(command)[1:])
    assert code == 0
    assert out.getvalue().splitlines() == printed
