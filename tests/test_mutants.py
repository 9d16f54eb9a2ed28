"""tests/mutants.py's list follows the code: each mutant's old text occurs
exactly once in its file, so a stale list fails here, not only in a full
mutation run."""

from __future__ import annotations

import pytest

import mutants

MUTANTS = mutants.MUTANTS


def test_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=[m.name for m in MUTANTS])
def test_old_text_occurs_exactly_once(mutant):
    text = (mutants.ROOT / "src" / "qforms" / mutant.file).read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
    for selection in mutant.selection:
        assert (mutants.ROOT / selection.split("::")[0]).is_file(), selection
