"""The package runs on the standard library alone.

Every module under ``src/tubecalc`` is parsed, and every import in it, at
any depth (lazy imports inside functions included), must name a standard
library module or ``tubecalc`` itself.
"""

import ast
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parent.parent / "src" / "tubecalc").glob("*.py"))


def imported_modules(tree: ast.AST):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_sources_found():
    assert "oracle.py" in {path.name for path in SOURCES}


@pytest.mark.parametrize("path", SOURCES, ids=lambda path: path.name)
def test_imports_only_the_standard_library(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    allowed = sys.stdlib_module_names | {"tubecalc"}
    foreign = set(imported_modules(tree)) - allowed
    assert not foreign, f"{path.name} imports {sorted(foreign)}"
