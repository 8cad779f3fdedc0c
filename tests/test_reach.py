from pathlib import Path

import pytest

from reach import ALLOWED

ROOT = Path(__file__).resolve().parent.parent
SOURCES = {p.name: p for p in (ROOT / "src" / "cocyclelab").glob("*.py")}


def test_allowlist_entries_are_distinct():
    assert len({(e.path, e.snippet) for e in ALLOWED}) == len(ALLOWED)


@pytest.mark.parametrize("entry", ALLOWED, ids=lambda e: f"{e.path}:{e.snippet.splitlines()[0]}")
def test_allowlist_snippet_occurs_once_with_a_reason(entry):
    assert SOURCES[entry.path].read_text().count(entry.snippet) == 1
    assert entry.reason.strip() and "\n" not in entry.reason
