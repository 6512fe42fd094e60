"""The mutation gate's entries still name code that exists.

``scripts/mutants.py`` refuses an entry whose snippet no longer occurs
exactly once in its file, but it runs outside tier-1 and takes minutes.
This checks the snippets, and that each entry's tests name a test file,
without running any mutant.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def load_mutants():
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "scripts" / "mutants.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.MUTANTS


MUTANTS = load_mutants()


@pytest.mark.parametrize("entry", MUTANTS, ids=lambda e: f"{e[0]}: {e[1].strip()[:40]}")
def test_snippet_occurs_once(entry):
    path, old, new, tests = entry
    assert old != new
    assert (ROOT / path).read_text().count(old) == 1
    assert (ROOT / tests.split("::")[0]).is_file()
