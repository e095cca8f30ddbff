"""The mutants of ``tools/mutation_check.py`` stay aimed at the code: each
one's text occurs exactly once in its module, so the mutation run plants
every one of them.  No mutant runs here."""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("mutation_check",
                                              ROOT / "tools" / "mutation_check.py")
mutation_check = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(mutation_check)


def test_mutant_names_are_unique():
    names = [m.name for m in mutation_check.MUTANTS]
    assert len(set(names)) == len(names)


@pytest.mark.parametrize("mutant", mutation_check.MUTANTS, ids=lambda m: m.name)
def test_mutant_text_occurs_once_in_its_module(mutant):
    text = (ROOT / "src" / "divfreedg" / f"{mutant.module}.py").read_text()
    assert text.count(mutant.old) == 1
    assert mutant.new != mutant.old
