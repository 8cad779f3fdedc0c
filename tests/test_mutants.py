from pathlib import Path

import pytest

from mutants import MUTANTS

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cocyclelab").glob("*.py"))


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_snippet_occurs_once_in_src(mutant):
    counts = {p.name: p.read_text().count(mutant.old) for p in SOURCES}
    assert counts[mutant.path] == 1 and sum(counts.values()) == 1
    assert mutant.new != mutant.old
    assert all((ROOT / f).is_file() for f in mutant.tests)
