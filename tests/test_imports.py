"""Every name a library module imports is used there, the oracle builds
on no segment code, and the CLI loads only what its commands need.

Each ``src/tubecalc/*.py`` is parsed with ``ast``; a name bound by an
import counts as used if the module reads it anywhere (as a name, or as the
base of an attribute chain) or lists it in ``__all__``.  ``from __future__``
imports bind no name and are skipped.  ``oracle`` models the tube's cyclic
quiver alone, so it imports nothing from ``type_a``, in any form.

A fresh interpreter, without ``site`` so that only the import itself is
seen, imports ``tubecalc.cli``: it must not load ``dataclasses`` (nor the
``inspect`` that it pulls in), not ``tubecalc.render``, which only the
drawing commands import, and not ``json``, which only ``rigid of-pair``
imports to read its file (documents are printed through ``serialize``'s
templates).
"""

import ast
import subprocess
import sys
from pathlib import Path

import pytest

SOURCES = sorted((Path(__file__).resolve().parents[1] / "src" / "tubecalc").glob("*.py"))


def imported_names(tree: ast.Module) -> dict:
    """The name each import binds, mapped to its line."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    return bound


def used_names(tree: ast.Module) -> set:
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(elt.value for elt in node.value.elts if isinstance(elt, ast.Constant))
    return used


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    used = used_names(tree)
    return sorted((line, name) for name, line in imported_names(tree).items() if name not in used)


def test_sources_found():
    assert {p.name for p in SOURCES} >= {"arcs.py", "homs.py", "torsion.py", "type_a.py"}


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_guard_sees_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import math\n"
        "import os.path\n"
        "from . import type_a\n"
        "from .homs import neg_crossing_shifts as shifts, hom_dim\n"
        "__all__ = ['hom_dim']\n"
        "def f(x):\n"
        "    return os.path.join(type_a.low, x)\n"
    )
    assert unused_imports(source) == [(2, "math"), (5, "shifts")]


def modules_imported(source: str) -> set:
    """Each module a library source imports, and each name it imports from
    one, dotted from ``tubecalc`` for a relative import."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(filter(None, ["tubecalc" if node.level else "", node.module]))
            found.add(module)
            found.update(f"{module}.{alias.name}" for alias in node.names)
    return found


def test_the_oracle_imports_nothing_from_type_a():
    oracle = next(p for p in SOURCES if p.name == "oracle.py")
    assert "tubecalc.type_a" not in modules_imported(oracle.read_text())


@pytest.mark.parametrize(
    "line",
    [
        "from .type_a import AArc",
        "from . import homs, type_a",
        "import tubecalc.type_a",
        "from tubecalc.type_a import check_arc",
        "from tubecalc import type_a as ta",
    ],
)
def test_the_guard_sees_an_import_of_type_a(line):
    assert "tubecalc.type_a" in modules_imported(f"from .arcs import Tube\n{line}\n")
    assert "tubecalc.type_a" not in modules_imported("from .arcs import Tube\nfrom . import homs\n")


def test_the_cli_loads_no_dataclasses_and_no_render():
    code = "import sys, tubecalc.cli\nprint(' '.join(sys.modules))"
    # the package is found through PYTHONPATH
    done = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True, check=True)
    loaded = set(done.stdout.split())
    assert "tubecalc.cli" in loaded
    assert not loaded & {"dataclasses", "inspect", "tubecalc.render", "json"}
