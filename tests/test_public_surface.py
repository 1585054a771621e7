"""Every public name of the library earns its place, and the names the
benchmark reads exist.

Each ``src/tubecalc/*.py`` is parsed with ``ast``.  A public top-level
function, or a public method of a public class (properties aside), must
be one of:

- called: library code outside its own ``def`` refers to it.  For a
  function that is its bare name, in its own module or in a module that
  imports it by name, or ``module.name`` through an imported module; for
  a method, ``.name`` on anything;
- exported: listed in ``tubecalc.__all__``;
- named in ``README.md`` as code (inline or fenced): a function as
  ``module.name``, or by its bare name if no other module has a public
  function of that name; a method as ``.name``;
- allowed: listed in ``ALLOWED`` with the reason it stays.

A function that only tests call belongs in a test helper
(``tests/segment_defs.py``, ``tests/tube_defs.py``, ``tests/cover.py``).
An entry of ``ALLOWED`` that is gone from ``src/``, or that would pass
without it, is stale and fails too, and so does one that no
``perfbench/*.py`` source names as the whole ``module.name``.

``perfbench`` reads library names that no test needs: ``run.py`` reads
the tracer's per-function totals by name, and ``workloads.py`` and
``inputs.py`` call into the modules.  A name that is gone breaks only a
traced benchmark run, so the last tests check here that each one exists.
"""

import ast
import importlib
import importlib.util
import re
from collections import Counter
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = "tubecalc"
SOURCES = {p.stem: p.read_text() for p in sorted((ROOT / "src" / PACKAGE).glob("*.py"))}
README = (ROOT / "README.md").read_text(encoding="utf-8")
BENCH = ROOT / "perfbench"
RUN_SOURCE = (BENCH / "run.py").read_text()

ALLOWED = {
    "torsion.members": "perfbench/run.py counts its calls (torsion.members_calls); "
    "it moves to the tests once that counter reads a path the library uses",
    "torsion.left_perp": "perfbench/run.py counts its calls (torsion.perp_calls)",
    "type_a.is_tilting": "perfbench/inputs.py checks each sampled wing with it",
    "type_a.tilting_of_torsion_pair": "the crosscheck_segment workload runs it",
    "oracle.brute_force_max_rigid": "the crosscheck_oracle workload runs it",
}


# -- the scan ---------------------------------------------------------------------


def _is_property(node: ast.FunctionDef) -> bool:
    return any(getattr(d, "id", None) == "property" for d in node.decorator_list)


def public_defs(trees: dict) -> dict:
    """{qualified name: bare name} of the public functions (``module.name``)
    and public methods (``module.Class.name``)."""
    found = {}
    for mod, tree in trees.items():
        for node in tree.body:
            if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
                found[f"{mod}.{node.name}"] = node.name
            elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for item in node.body:
                    if (
                        isinstance(item, ast.FunctionDef)
                        and not item.name.startswith("_")
                        and not _is_property(item)
                    ):
                        found[f"{mod}.{node.name}.{item.name}"] = item.name
    return found


def _imports(tree: ast.Module):
    """{bound name: (module, name in it, or None for the module itself)} of
    the package's relative imports, nested ones included."""
    return {
        alias.asname or alias.name: (node.module, alias.name) if node.module else (alias.name, None)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
    }


def _bindings(trees: dict) -> dict:
    """Per module, {imported name: (module, name, or None for the module
    itself)}, each followed to the module that defines it."""
    raw = {mod: _imports(tree) for mod, tree in trees.items()}

    def resolve(mod, name):
        for _ in range(len(raw) + 1):  # an import cycle stops here
            if name is None or name not in raw.get(mod, {}):
                break
            mod, name = raw[mod][name]
        return mod, name

    return {mod: {bound: resolve(mod, bound) for bound in names} for mod, names in raw.items()}


def _owned(mod: str, tree: ast.Module):
    """(the public name whose ``def`` holds it, or None; node) for each
    top-level statement, and for each statement of a class body."""
    for node in tree.body:
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                method = isinstance(item, ast.FunctionDef)
                yield (f"{mod}.{node.name}.{item.name}" if method else None), item
        else:
            yield (f"{mod}.{node.name}" if isinstance(node, ast.FunctionDef) else None), node


def called(trees: dict, public: dict) -> set:
    """The public names that code outside their own ``def`` refers to."""
    bindings = _bindings(trees)
    methods = {}
    for qual, name in public.items():
        if qual.count(".") == 2:
            methods.setdefault(name, []).append(qual)
    seen = set()
    for mod, tree in trees.items():
        for owner, part in _owned(mod, tree):
            for node in ast.walk(part):
                refs = []
                if isinstance(node, ast.Name):
                    home, name = bindings[mod].get(node.id, (mod, node.id))
                    refs.append(f"{home}.{name}")
                elif isinstance(node, ast.Attribute):
                    refs += methods.get(node.attr, [])
                    home, name = bindings[mod].get(getattr(node.value, "id", None), (None, ""))
                    if name is None:  # attr of an imported module
                        refs.append(f"{home}.{node.attr}")
                seen.update(r for r in refs if r in public and r != owner)
    return seen


def exported(trees: dict) -> set:
    """The public names that ``tubecalc.__all__`` lists."""
    bindings = _bindings(trees)["__init__"]
    return {
        "{}.{}".format(*bindings.get(elt.value, ("__init__", elt.value)))
        for node in trees["__init__"].body
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets)
        for elt in node.value.elts
    }


def readme_names(readme: str, public: dict) -> set:
    """The public names that the README's code spans and blocks name."""
    code = re.findall(r"^```[^\n]*\n(.*?)^```$", readme, re.M | re.S)
    code += re.findall(r"`([^`\n]+)`", re.sub(r"^```.*?^```$", "", readme, flags=re.M | re.S))
    dotted = set(re.findall(r"[A-Za-z_][\w.]*", "\n".join(code)))
    homes = Counter(name for qual, name in public.items() if qual.count(".") == 1)
    out = set()
    for qual, name in public.items():
        if qual.count(".") == 2:  # a method, named on anything
            named = any(d.endswith("." + name) for d in dotted)
        else:  # a function, with its module or by a name no other module has
            named = any(d == qual or d.endswith("." + qual) for d in dotted)
            named = named or name in dotted and homes[name] == 1
        if named:
            out.add(qual)
    return out


def surface(sources: dict, readme: str):
    """(every public name, the public names that pass without ``ALLOWED``)."""
    trees = {mod: ast.parse(source) for mod, source in sources.items()}
    public = public_defs(trees)
    return set(public), called(trees, public) | exported(trees) | readme_names(readme, public)


def unearned(sources: dict, readme: str, allowed: dict) -> list:
    public, used = surface(sources, readme)
    return sorted(public - used - allowed.keys())


def stale(sources: dict, readme: str, allowed: dict) -> list:
    public, used = surface(sources, readme)
    return sorted(q for q in allowed if q not in public or q in used)


def test_sources_found():
    assert {"__init__", "arcs", "homs", "torsion", "type_a", "serialize"} <= SOURCES.keys()


def test_every_public_name_earns_its_place():
    assert unearned(SOURCES, README, ALLOWED) == []


def test_allowlist_is_not_stale():
    assert stale(SOURCES, README, ALLOWED) == []


def unread_allowed(allowed: dict, sources) -> list:
    """The entries that occur verbatim in none of the sources; a bare name
    is not enough, since the tracer names ``type_a.tau``, say."""
    return sorted(q for q in allowed if not any(q in source for source in sources))


def test_the_allowlist_holds_only_names_the_benchmark_reads():
    sources = [p.read_text() for p in sorted(BENCH.glob("*.py"))]
    assert unread_allowed(ALLOWED, sources) == []
    assert unread_allowed({"arcs.Tube.tau": "", "type_a.tau": ""}, sources) == ["arcs.Tube.tau"]


def test_the_scan_sees_a_method_come_back():
    """``Tube.lift`` moved to the tests; put back with no caller, it fails."""
    arcs = SOURCES["arcs"].replace(
        "class Tube:\n", "class Tube:\n    def lift(self, obj, k=0):\n        return obj\n\n", 1
    )
    assert arcs != SOURCES["arcs"]
    assert unearned({**SOURCES, "arcs": arcs}, README, ALLOWED) == ["arcs.Tube.lift"]


def test_the_scan_sees_a_planted_module():
    planted = "def orphan(x):\n    return x\n\n\ndef _helper(x):\n    return x\n"
    assert unearned({**SOURCES, "planted": planted}, README, ALLOWED) == ["planted.orphan"]


def test_what_counts_as_a_call():
    sources = {
        "a": (
            "def by_module(x):\n    return x\n\n"
            "def by_name(x):\n    return x\n\n"
            "def by_alias(x):\n    return x\n\n"
            "def recursive(x):\n    return recursive(x - 1) if x else 0\n\n"
            "def in_readme(x):\n    return x\n\n"
            "def nested_only(x):\n    def inner():\n        return nested_only(x)\n    return inner\n\n"
            "class K:\n"
            "    def called(self):\n        return self.by_method()\n"
            "    def by_method(self):\n        return 0\n"
            "    def uncalled(self):\n        return self.uncalled()\n"
            "    def recursive(self):\n        return 0\n"
            "    @property\n    def prop(self):\n        return 1\n"
        ),
        "b": (
            "from . import a\n"
            "from .a import by_name, by_alias as alias\n\n"
            "def exported(k):\n    return a.by_module(1) + by_name(2) + alias(3) + k.called()\n"
        ),
        "c": "def by_name(x):\n    return x\n",  # a namesake in another module is not called
        "__init__": "from .b import exported\n__all__ = ['exported']\n",
    }
    readme = "Use `a.in_readme` and `K.recursive`; `by_name` has two homes.\n"
    assert unearned(sources, readme, {}) == ["a.K.uncalled", "a.nested_only", "a.recursive", "c.by_name"]
    assert stale(sources, readme, {"a.recursive": "kept", "a.by_name": "called", "a.gone": "gone"}) == [
        "a.by_name",
        "a.gone",
    ]


# -- the names perfbench reads ------------------------------------------------------


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", BENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def wrapped_names() -> set:
    """The names the tracer wraps, ``layer.name`` or ``arcs.Tube.name``,
    read off an installed tracer, which is then taken out again."""
    tracer = _load_tracer().Tracer()
    tracer.install()
    try:
        return set(tracer.layer_of)
    finally:
        tracer.uninstall()


def counter_names(source: str) -> set:
    """Every string passed to ``c(...)`` or ``incl(...)``."""
    return {
        node.args[0].value
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in ("c", "incl")
        and node.args
        and isinstance(node.args[0], ast.Constant)
    }


def missing_reads(source: str) -> list:
    """Each ``module.attr`` the source reads from a library module, and each
    name it imports from one, that the module does not have."""
    tree = ast.parse(source)
    modules, missing = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == PACKAGE:
            for alias in node.names:
                if node.module == PACKAGE:
                    modules[alias.asname or alias.name] = f"{PACKAGE}.{alias.name}"
                elif not hasattr(importlib.import_module(node.module), alias.name):
                    missing.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and getattr(node.value, "id", None) in modules:
            module = modules[node.value.id]
            if not hasattr(importlib.import_module(module), node.attr):
                missing.add(f"{module}.{node.attr}")
    return sorted(missing)


def test_perfbench_counters_are_wrapped():
    names = counter_names(RUN_SOURCE)
    assert {"torsion.members", "torsion.left_perp", "arcs.Tube.normalize"} <= names
    assert sorted(names - wrapped_names()) == []


def test_the_counter_guard_sees_a_missing_name():
    planted = RUN_SOURCE + '\nc("torsion.reflect_pair") + incl("arcs.Tube.lift")\n'
    assert sorted(counter_names(planted) - wrapped_names()) == ["arcs.Tube.lift", "torsion.reflect_pair"]


@pytest.mark.parametrize("name", ["workloads.py", "inputs.py"])
def test_perfbench_reads_exist(name):
    assert missing_reads((BENCH / name).read_text()) == []


def test_the_read_guard_sees_a_missing_name():
    planted = (BENCH / "inputs.py").read_text() + (
        "\ndef planted():\n"
        "    from tubecalc import serialize\n"
        "    from tubecalc.type_a import ses_middle\n"
        "    return torsion.reflect_pair, serialize.rigid_from_doc\n"
    )
    assert missing_reads(planted) == [
        "tubecalc.serialize.rigid_from_doc",
        "tubecalc.torsion.reflect_pair",
        "tubecalc.type_a.ses_middle",
    ]
