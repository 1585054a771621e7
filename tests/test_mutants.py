"""The mutants that ``tools/mutants.py`` lists still apply to the source.

Running them takes pytest runs of their own (CI runs the tool); here each
mutant's edits are only made in memory, so that a change to the source that
moves an edit's text fails the tier-1 suite rather than the tool alone.
"""

import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
mutants = importlib.util.module_from_spec(spec)
sys.modules["mutants"] = mutants  # dataclasses look their module up there
spec.loader.exec_module(mutants)


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=lambda m: m.name)
def test_edits_apply_once_and_change_the_source(mutant):
    sources = {path: (ROOT / path).read_text() for path, _, _ in mutant.edits}
    files = mutants.edited(sources, mutant)
    assert all(files[path] != sources[path] for path in files)
    # each test is a pytest node id: a file, then ::Class or ::test parts
    assert mutant.tests and all((ROOT / test.split("::")[0]).is_file() for test in mutant.tests)


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_an_edit_that_does_not_apply_is_refused():
    stale = mutants.Mutant("stale", (("a.py", "x = 1", "x = 2"),), ())
    with pytest.raises(ValueError, match="occurs 2 times in a.py"):
        mutants.edited({"a.py": "x = 1\nx = 1\n"}, stale)
