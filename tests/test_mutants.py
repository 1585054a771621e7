"""The mutants that ``tools/mutants.py`` lists still apply to the source.

Running them takes pytest runs of their own (CI runs the tool); here each
mutant's edits are only made in memory, so that a change to the source that
moves an edit's text fails the tier-1 suite rather than the tool alone.
Each test a mutant names must resolve too, class and function included,
so that a renamed test fails here rather than as pytest's "not found".
"""

import ast
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
    assert mutant.tests and all(map(resolves, mutant.tests))


def resolves(test: str) -> bool:
    """Whether a pytest node id (a file, then ::Class and ::test parts, the
    last perhaps with parametrize brackets) names a test file, or a test
    function in it."""
    path, *names = test.split("[", 1)[0].split("::")
    if not (ROOT / path).is_file():
        return False
    node, body = None, ast.parse((ROOT / path).read_text()).body
    for name in names:
        node = next((n for n in body if isinstance(n, (ast.ClassDef, ast.FunctionDef)) and n.name == name), None)
        if node is None:
            return False
        body = node.body
    return node is None or isinstance(node, ast.FunctionDef) and node.name.startswith("test")


@pytest.mark.parametrize(
    "test, found",
    [
        ("tests/test_mutants.py", True),
        ("tests/test_mutants.py::test_names_are_unique", True),
        ("tests/test_mutants.py::test_edits_apply_once_and_change_the_source[count-off-by-one]", True),
        ("tests/test_type_a_reference.py::TestArcTable::test_four_threads_share_it[names]", True),
        ("tests/test_no_such_file.py", False),
        ("tests/test_mutants.py::test_no_such_test", False),
        ("tests/test_type_a_reference.py::TestNoSuchClass::test_four_threads_share_it", False),
        ("tests/test_type_a_reference.py::TestArcTable", False),
        ("tests/test_mutants.py::resolves", False),
    ],
)
def test_a_node_id_resolves_to_a_test_function(test, found):
    assert resolves(test) == found


def test_names_are_unique():
    names = [m.name for m in mutants.MUTANTS]
    assert len(set(names)) == len(names)


def test_an_edit_that_does_not_apply_is_refused():
    stale = mutants.Mutant("stale", (("a.py", "x = 1", "x = 2"),), ())
    with pytest.raises(ValueError, match="occurs 2 times in a.py"):
        mutants.edited({"a.py": "x = 1\nx = 1\n"}, stale)
