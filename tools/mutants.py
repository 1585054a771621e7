"""Run listed source mutants against the tests that must catch them.

A mutant is one or more exact source edits plus the test files that must
fail once they are made.  The checkout's ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory outside it; the
copy, unedited, must pass each test file set first, so that a broken setup
is not read as a kill.  Then each mutant's edits are made in the copy, its
test files run under pytest, and the edited files are put back.  A mutant
is killed when pytest reports a failed test.  Nothing is written into the
checkout.

    python3 tools/mutants.py

Exit status: 0 when every mutant is killed, 1 when one survives or its
tests end other than by a failure (an error, a timeout, nothing
collected), 2 when an edit's text does not occur exactly once.  Standard
library only; pytest runs in a child process.
"""

from __future__ import annotations

import argparse
import os
import re
import shutil
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
COPIED = ("src", "tests", "pyproject.toml")
TIMEOUT = 600  # seconds for one pytest run


@dataclass(frozen=True)
class Mutant:
    name: str
    edits: Tuple[Tuple[str, str, str], ...]  # (file, text, replacement); text occurs exactly once
    tests: Tuple[str, ...]


RENDER = "src/tubecalc/render.py"
RENDER_TESTS = ("tests/test_render.py", "tests/test_render_reference.py")
TORSION = "src/tubecalc/torsion.py"
CLI = "src/tubecalc/cli.py"

MUTANTS = (
    Mutant(
        "frame-keyed-without-rank",
        (
            (RENDER, "frame = _PATHS.get((n, None))", "frame = _PATHS.get((0, None))"),
            (RENDER, "_keep((n, None), piece)", "_keep((0, None), piece)"),
        ),
        RENDER_TESTS,
    ),
    Mutant(
        "hit-skips-point-count",
        ((RENDER, "_samples(True, obj) + 1 if piece is None else piece[0]",
          "_samples(True, obj) + 1 if piece is None else 0"),),
        RENDER_TESTS,
    ),
    Mutant(
        "hit-drops-dash",
        ((RENDER, "        _draw(body, style, d, arrow)\n",
          "        _draw(body, style, d, arrow)\n"
          "        if piece:\n"
          "            k = len(body) - 1 - bool(arrow)\n"
          "            body[k] = body[k].replace(' stroke-dasharray=\"6 3\"', '')\n"),),
        RENDER_TESTS,
    ),
    Mutant(
        "forget-keeps-frames",
        ((RENDER, "    with _PATHS_LOCK:\n        _PATHS.clear()\n        _path_chars = 0\n\n\n#",
          "    with _PATHS_LOCK:\n"
          "        frames = {key: piece for key, piece in _PATHS.items() if key[1] is None}\n"
          "        _PATHS.clear()\n"
          "        _PATHS.update(frames)\n"
          "        _path_chars = 0\n\n\n#"),),
        RENDER_TESTS,
    ),
    Mutant(
        "point-count-of-cover-mode",
        ((RENDER, "path = len(us), ", "path = _samples(False, obj) + 1, "),),
        RENDER_TESTS,
    ),
    Mutant(
        "inverse-drops-span-3-arcs",
        ((TORSION, "for e, d in maxstart.items() if d > 2]", "for e, d in maxstart.items() if d > 3]"),),
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "ptolemy-skips-start-resolution",
        ((TORSION, "(d - a < 2 or contains(tube, desc, _canonical(n, a, d)))", "(True)"),),
        ("tests/test_torsion.py",),
    ),
    Mutant(
        "ptolemy-counts-shared-start",
        ((TORSION, "if d - w < a])", "if d - w <= a])"),),
        ("tests/test_torsion_reference.py",),
    ),
    Mutant(
        "least-spans-skips-first-lift",
        ((TORSION, "if stack and k >= 0:", "if stack and k > 0:"),),
        ("tests/test_acceptance.py",),
    ),
    Mutant(
        "hom-through-tau",
        (("src/tubecalc/homs.py", "neg_crossings(tube, tube.tau_inv(y), x)", "neg_crossings(tube, tube.tau(y), x)"),),
        ("tests/test_homs.py",),
    ),
    Mutant(
        "of-pair-takes-rank",
        ((CLI, 'help="maximal rigid object of a torsion pair")\n',
          'help="maximal rigid object of a torsion pair")\n    p.add_argument("--rank", type=_integer)\n'),),
        ("tests/test_cli.py",),
    ),
    Mutant(
        "render-sizes-outside-the-group",
        ((CLI, '    size.add_argument("--rank"', '    p.add_argument("--rank"'),
         (CLI, '    size.add_argument("--m"', '    p.add_argument("--m"')),
        ("tests/test_cli.py",),
    ),
)


def edited(sources: Dict[str, str], mutant: Mutant) -> Dict[str, str]:
    """The mutant's files with its edits made; ValueError when an edit's
    text does not occur exactly once in the file as edited so far."""
    out = {}
    for path, text, replacement in mutant.edits:
        source = out.get(path, sources[path])
        if source.count(text) != 1:
            raise ValueError(
                f"mutant {mutant.name}: {text!r} occurs {source.count(text)} times in {path}")
        out[path] = source.replace(text, replacement)
    return out


def run_tests(copy: Path, tests: Sequence[str]) -> Tuple[int, str, float]:
    """pytest's exit code on the test files in the copy, its first failed
    test (else the end of its output) and the seconds it took."""
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    argv = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    start = time.perf_counter()
    try:
        done = subprocess.run(argv, cwd=copy, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return -1, f"no result in {TIMEOUT} s", time.perf_counter() - start
    failed = re.search(r"^FAILED (\S+)", done.stdout, re.M)
    return done.returncode, failed.group(1) if failed else done.stdout.strip()[-300:], time.perf_counter() - start


def main(argv: Sequence[str]) -> int:
    argparse.ArgumentParser(description=__doc__.splitlines()[0]).parse_args(argv)
    sources = {path: (ROOT / path).read_text() for m in MUTANTS for path, _, _ in m.edits}
    try:
        mutated = [(m, edited(sources, m)) for m in MUTANTS]
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return 2
    with tempfile.TemporaryDirectory(prefix="mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            source = ROOT / name
            if source.is_dir():
                shutil.copytree(source, copy / name, ignore=shutil.ignore_patterns(
                    "__pycache__", ".hypothesis", ".pytest_cache"))
            else:
                shutil.copy2(source, copy / name)
        for tests in dict.fromkeys(m.tests for m in MUTANTS):
            code, detail, seconds = run_tests(copy, tests)
            if code != 0:
                print(f"the unedited copy fails {' '.join(tests)} (exit {code}): {detail}")
                return 1
            print(f"unedited  passes {' '.join(tests)} ({seconds:.1f} s)")
        survived = 0
        for mutant, files in mutated:
            for path, text in files.items():
                (copy / path).write_text(text)
            try:
                code, detail, seconds = run_tests(copy, mutant.tests)
            finally:
                for path in files:
                    (copy / path).write_text(sources[path])
            verdict = "killed" if code == 1 else "SURVIVED" if code == 0 else f"ERROR {code}"
            survived += code != 1
            print(f"{verdict:<9} {mutant.name} ({seconds:.1f} s){': ' + detail if detail else ''}")
    print(f"{len(mutated) - survived} of {len(mutated)} mutants killed")
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
