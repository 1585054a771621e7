"""Run listed source mutants against the tests that must catch them.

A mutant is one or more exact source edits plus the tests that must fail
once they are made, as pytest node ids (a file, or ``file::test``, or
``file::Class::test``).  The checkout's ``src/``, ``tests/`` and
``pyproject.toml`` are copied to a temporary directory outside it; the
copy, unedited, must pass each set of tests first, so that a broken setup
is not read as a kill.  Then each mutant's edits are made in the copy, its
tests run under pytest, and the edited files are put back.  A mutant
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
    tests: Tuple[str, ...]  # pytest node ids


ARCS = "src/tubecalc/arcs.py"
RENDER = "src/tubecalc/render.py"
MEMO_TESTS = "tests/test_render_reference.py::TestPathMemo"
TORSION = "src/tubecalc/torsion.py"
CLI = "src/tubecalc/cli.py"
SERIALIZE = "src/tubecalc/serialize.py"
CLI_FLAGS = "tests/test_cli.py::TestFlagsEachCommandTakes::test_a_flag_the_command_does_not_take_exits_1"
TYPE_A = "src/tubecalc/type_a.py"
ARC_TESTS = "tests/test_type_a_reference.py::"
ORACLE = "src/tubecalc/oracle.py"
SPARSE_TESTS = "tests/test_oracle_sparse_reference.py::TestEveryArcPair"
REPS_TESTS = "tests/test_oracle_memo_reference.py::"
BOUND_TESTS = "tests/test_cli.py::TestEnumerationBounds::test_above_the_bound_exits_1_before_writing"
NAMES_TESTS = "tests/test_serialize_reference.py::TestPairDocuments"
LISTED_TESTS = "tests/test_torsion_reference.py::TestValidatorByListedArcs"
PRINTER_TESTS = "tests/test_serialize_reference.py::TestPrinters::test_every_document_at_ranks_1_to_7"
WING_PAIR_TESTS = "tests/test_census_reference.py::TestPairsWingByWing::test_each_pair_is_torsion_pair_of_its_object"
TILTING_TESTS = "tests/test_type_a.py::TestTilting"

MUTANTS = (
    Mutant(
        "frame-keyed-without-rank",
        (
            (RENDER, "frame = _PATHS.get((n, None))", "frame = _PATHS.get((0, None))"),
            (RENDER, "_PATHS.keep({(n, None): piece}", "_PATHS.keep({(0, None): piece}"),
        ),
        ("tests/test_render.py::TestSvg::test_golden_bytes",),
    ),
    Mutant(
        "hit-skips-point-count",
        ((RENDER, "_samples(True, obj) + 1 if piece is None else piece[0]",
          "_samples(True, obj) + 1 if piece is None else 0"),),
        (f"{MEMO_TESTS}::test_refusals_hold_with_the_arcs_held",),
    ),
    Mutant(
        "hit-drops-dash",
        ((RENDER, "    return _svg(_ANNULUS_HEAD, frame[1], arcs, pieces)\n",
          "    svg = _svg(_ANNULUS_HEAD, frame[1], arcs, pieces)\n"
          "    if not missed:\n"
          "        svg = svg.replace(' stroke-dasharray=\"6 3\"', '')\n"
          "    return svg\n"),),
        ("tests/test_render.py::TestSvg::test_repeated_renders_identical",),
    ),
    Mutant(
        "forget-keeps-frames",
        ((ARCS, "            dict.clear(self)\n",
          "            frames = {key: piece for key, piece in self.items() if key[1] is None}\n"
          "            dict.clear(self)\n"
          "            self.update(frames)\n"),),
        (f"{MEMO_TESTS}::test_bytes_hold_right_after_a_restart",),
    ),
    Mutant(
        "point-count-of-cover-mode",
        ((RENDER, "path = len(us), ", "path = _samples(False, obj) + 1, "),),
        (f"{MEMO_TESTS}::test_style_stays_outside_the_memo",),
    ),
    Mutant(
        "inverse-drops-span-3-arcs",
        ((TYPE_A, "for s, d in spans if d > 2]", "for s, d in spans if d > 3]"),),
        ("tests/test_acceptance.py::test_criterion_4_bijection_round_trips",),
    ),
    Mutant(
        "inverse-moves-neither-half",
        ((TORSION, "_longest_arcs(low, minend.items(), k)", "_longest_arcs(low, minend.items(), 0)"),),
        ("tests/test_acceptance.py::test_criterion_4_bijection_round_trips",),
    ),
    Mutant(
        "forward-free-side-unshifted",
        ((TORSION, "shift=k - 1,", "shift=-k,"),),
        ("tests/test_torsion_reference.py::TestOneRulePerKind::test_every_object_and_its_pair",),
    ),
    Mutant(
        "wing-pieces-unmoved",
        ((TORSION, "piece(side, 1) for side in", "piece(side, 0) for side in"),),
        (WING_PAIR_TESTS,),
    ),
    Mutant(
        "mirrored-wing-pieces-unswapped",
        ((TORSION, "rows.append((f, t) if mirror else (t, f))", "rows.append((t, f))"),),
        (WING_PAIR_TESTS,),
    ),
    Mutant(
        "apex-range-drops-last-point",
        ((TYPE_A, "            for k in range(a + 1, b)\n", "            for k in range(a + 1, b - 1)\n"),),
        (f"{TILTING_TESTS}::test_count_is_catalan_via_triangulations",),
    ),
    Mutant(
        "boundary-edges-listed-as-arcs",
        ((TYPE_A, "((a, k),) * (k - a >= 2) + ((k, b),) * (b - k >= 2)",
          "((a, k),) * (k - a >= 1) + ((k, b),) * (b - k >= 1)"),),
        (f"{TILTING_TESTS}::test_matches_brute_force_maximal_rigid_search",),
    ),
    Mutant(
        "tilting-sets-unsorted",
        ((TYPE_A, "rows = sorted((row + ((0, m + 1),) for row in _triangulations(0, m + 1, {})), key=sorted)",
          "rows = [row + ((0, m + 1),) for row in _triangulations(0, m + 1, {})]"),),
        (f"{TILTING_TESTS}::test_enumeration_is_in_lexicographic_order",),
    ),
    Mutant(
        "segment-takes-an-m-that-is-no-int",
        ((TYPE_A, "    if type(m) is not int:", "    if False:"),),
        ("tests/test_type_a.py::TestNegativeM::test_an_m_that_is_no_int_is_refused",),
    ),
    Mutant(
        "ext-closed-drops-coray-branch",
        ((TORSION, "    if desc.corays:\n        return is_ext_closed(tube, reflect_desc(tube, desc))\n", ""),),
        ("tests/test_classification.py::test_torsion_classes_are_the_torsion_sides",),
    ),
    Mutant(
        "segment-wall-a-step-short",
        ((TYPE_A, "list(range(m + 2, 2, -1))", "list(range(m + 1, 1, -1))"),),
        (f"{ARC_TESTS}TestValidatorBySpans::test_every_tilting_pair_and_its_swap",),
    ),
    Mutant(
        "ptolemy-skips-start-resolution",
        ((TORSION, "(d - a < 2 or _member(n, desc, _canonical(n, a, d)))", "(True)"),),
        ("tests/test_torsion.py::TestClosurePredicates::test_ptolemy_rule_on_low_is_not_exact",),
    ),
    Mutant(
        "ptolemy-counts-shared-start",
        ((TORSION, "if d - w < a])", "if d - w <= a])"),),
        ("tests/test_torsion_reference.py::TestExtClosedByEnds::test_raw_descriptors",),
    ),
    Mutant(
        "torsion-side-count-dropped",
        ((TORSION, "if len(t.finite_objs) != type_a._closure_count(low) or not canonical:",
          "if not canonical:"),),
        ("tests/test_cli.py::TestRigid::test_torsion_side_with_a_swapped_arc_exits_2",),
    ),
    Mutant(
        "reader-ignores-non-canonical",
        (
            (TORSION, "if s != k or d < 2:\n                canonical = False\n",
             "if s != k or d < 2:\n                pass\n"),
            (TORSION, "if s != a or d < 2 or d >= ", "if d >= "),
        ),
        ("tests/test_torsion.py::TestIsTorsionPair::test_an_arc_on_another_lift_is_refused",),
    ),
    Mutant(
        "free-side-hom-off-by-one",
        ((TORSION, "d >= minend.get(a, 0)", "d > minend.get(a, 0)"),),
        (f"{LISTED_TESTS}::test_every_one_arc_swap",),
    ),
    Mutant(
        "free-side-arc-at-a-ray",
        ((TORSION, "minend.get(a, 0)", "minend.get(a, 2 * n + 1)"),),
        (f"{LISTED_TESTS}::test_every_one_arc_swap",),
    ),
    Mutant(
        "segment-hom-off-by-one",
        ((TYPE_A, "j - i >= minspan[i]", "j - i > minspan[i]"),),
        (f"{ARC_TESTS}TestValidatorReadsFAsPerp::test_every_one_arc_swap",),
    ),
    Mutant(
        "segment-guard-one-too-many",
        ((TYPE_A, "len(f_pairs) < m or", "len(f_pairs) <= m or"),),
        (f"{ARC_TESTS}TestValidatorBySpans::test_every_tilting_pair_and_its_swap",),
    ),
    Mutant(
        "family-walk-starts-a-step-low",
        ((TORSION, "for x in range(2 * n, 1, -1):", "for x in range(2 * n - 1, 1, -1):"),),
        ("tests/test_acceptance.py::test_criterion_4_bijection_round_trips",),
    ),
    Mutant(
        "rigid-doc-adics-first",
        ((SERIALIZE,
          "    names += map(format_obj, sorted(prufers))\n    names += map(format_obj, sorted(adics, key=itemgetter(1)))\n",
          "    names += map(format_obj, sorted(adics, key=itemgetter(1)))\n    names += map(format_obj, sorted(prufers))\n"),),
        ("tests/test_serialize.py::TestRigidDocuments::test_summands_in_sort_key_order",),
    ),
    Mutant(
        "pair-template-keys-swapped",
        (
            (SERIALIZE, '},"kind":"%s","rank":%d,', '},"rank":%d,"kind":"%s",'),
            (SERIALIZE, '        doc["kind"],\n        doc["rank"],\n', '        doc["rank"],\n        doc["kind"],\n'),
        ),
        (PRINTER_TESTS,),
    ),
    Mutant(
        "empty-name-list-printed-as-one-empty-name",
        ((SERIALIZE, 'if names else ""', 'if names is not None else ""'),),
        (PRINTER_TESTS,),
    ),
    Mutant(
        "rigid-template-without-schema",
        (
            (SERIALIZE, ',"schema":%d,"summands":', ',"summands":'),
            (SERIALIZE, 'doc["rank"], doc["schema"], _names(', 'doc["rank"], _names('),
        ),
        (PRINTER_TESTS,),
    ),
    Mutant(
        "homs-takes-a-non-arc",
        (("src/tubecalc/homs.py", "    for start, end in objs:\n", "    for start, end in ():\n"),),
        ("tests/test_homs.py::TestNonArcs::test_either_argument",),
    ),
    Mutant(
        "hom-through-tau",
        (("src/tubecalc/homs.py", "(start if start is None else start + 1, end if end is None else end + 1)",
          "(start if start is None else start - 1, end if end is None else end - 1)"),),
        ("tests/test_homs.py::TestHomDim::test_simple_endomorphisms",),
    ),
    Mutant(
        "count-off-by-one",
        ((TORSION, "comb(2 * tube.n, tube.n)", "comb(2 * tube.n, tube.n - 1)"),),
        ("tests/test_count_reference.py",),
    ),
    Mutant(
        "enumeration-bound-never-counts",
        ((CLI, " or count_max_rigid(tube) > MAX_OBJECTS:", ":"),),
        (f"{BOUND_TESTS}[pairs-12]", f"{BOUND_TESTS}[rigid-12-json]"),
    ),
    Mutant(
        "of-pair-takes-rank",
        ((CLI, 'help="maximal rigid object of a torsion pair")\n',
          'help="maximal rigid object of a torsion pair")\n    p.add_argument("--rank", type=_integer)\n'),),
        (CLI_FLAGS,),
    ),
    Mutant(
        "render-sizes-outside-the-group",
        ((CLI, '    size.add_argument("--rank"', '    p.add_argument("--rank"'),
         (CLI, '    size.add_argument("--m"', '    p.add_argument("--m"')),
        (CLI_FLAGS,),
    ),
    Mutant(
        "arc-equals-a-tuple",
        ((TYPE_A, "            return self.i == other.i and self.j == other.j\n        return NotImplemented",
          "            return self.i == other.i and self.j == other.j\n        return (self.i, self.j) == other"),),
        (f"{ARC_TESTS}TestArcValue::test_unequal_to_tuples_and_tube_arcs",),
    ),
    Mutant(
        "names-memo-skips-lift",
        ((ARCS, "            elif not 0 <= x[0] < n:\n                x = _canonical(n, *x)\n", ""),),
        (f"{NAMES_TESTS}::test_a_name_stored_at_one_rank_is_lifted_at_another",),
    ),
    Mutant(
        "names-memo-stores-refused-name",
        ((ARCS,
          "                x = _canonical(n, s, e)\n"
          "                if store:\n"
          "                    fresh[text] = x if x[0] == s else tuple.__new__(IndObj, (s, e))\n",
          "                if store:\n"
          "                    fresh[text] = tuple.__new__(IndObj, (s, e))\n"
          "                x = _canonical(n, s, e)\n"),),
        (f"{NAMES_TESTS}::test_a_refused_name_is_refused_again",),
    ),
    Mutant(
        "arc-table-keeps-entries-past-its-bound",
        ((ARCS, "                self.clear()", "                pass"),),
        (f"{ARC_TESTS}TestArcTable::test_the_table_starts_again_at_its_bound",),
    ),
    Mutant(
        "memo-keeps-a-batch-past-its-bound",
        ((ARCS, "        if weight > self.bound:\n            return\n", ""),),
        (f"{ARC_TESTS}TestArcTable::test_the_table_starts_again_at_its_bound",),
    ),
    Mutant(
        "arc-table-key-drops-j",
        (
            (TYPE_A, "return list(map(_ARCS.__getitem__, pairs))",
             "return list(map(_ARCS.__getitem__, [i for i, _ in pairs]))"),
            (TYPE_A, "_ARCS.get(p) or AArc(*p)", "_ARCS.get(p[0]) or AArc(*p)"),
            (TYPE_A, "_ARCS.keep(dict(zip(pairs, arcs)))", "_ARCS.keep(dict(zip([i for i, _ in pairs], arcs)))"),
        ),
        (f"{ARC_TESTS}TestArcTable::test_each_key_keeps_its_own_arc",),
    ),
    Mutant(
        "rep-made-unchecked",
        ((ORACLE, "        _check_rep(rep)\n        return rep", "        return rep"),),
        ("tests/test_oracle.py::TestHomOracle::test_one_map_per_arrow",),
    ),
    Mutant(
        "rep-entry-on-wrong-arrow",
        ((ORACLE, "entries[v].append(", "entries[v - 1].append("),),
        (f"{SPARSE_TESTS}::test_tube_arcs",),
    ),
    Mutant(
        "rep-made-of-a-non-arc",
        ((ORACLE, "start, end = _canonical(n, *obj)", "start, end = obj[0] % n, obj[1] - obj[0] + obj[0] % n"),),
        ("tests/test_oracle.py::TestBuildRep::test_a_finite_pair_that_is_no_arc_is_refused",),
    ),
    Mutant(
        "reps-memo-key-drops-rank",
        ((ORACLE, "key = (n, start, end)", "key = (start, end)"),),
        (f"{REPS_TESTS}TestEveryArc::test_each_rank_keeps_its_own_rep",),
    ),
    Mutant(
        "reps-memo-weightless",
        ((ORACLE, "_REPS.keep({key: rep}, n + end - start - 1)", "_REPS.keep({key: rep}, 0)"),),
        (f"{REPS_TESTS}TestBound::test_a_rep_heavier_than_the_bound_is_made_not_kept",),
    ),
    Mutant(
        "rep-check-accepts-float-entry",
        ((ORACLE, "            if not type(i) is type(j) is type(x) is int:  # bool is no entry\n"
                  "                raise ValueError(", "            if False:\n                raise ValueError("),),
        ("tests/test_oracle.py::TestHomOracle::test_entries_must_be_integers",),
    ),
    Mutant(
        "rep-check-accepts-float-shape",
        ((ORACLE, "        if not type(rows) is type(cols) is int:", "        if False:"),),
        ("tests/test_oracle.py::TestHomOracle::test_shapes_must_be_integers",),
    ),
    Mutant(
        "pivot-left-unnormalized",
        ((ORACLE, "if row[c] != 1:", "if False:"),),
        (f"{SPARSE_TESTS}::test_pivots_other_than_one",),
    ),
    Mutant(
        "arrow-skip-reads-bv",
        ((ORACLE, "if not bw * av:", "if not bw * b.dims[v]:"),),
        (f"{SPARSE_TESTS}::test_tube_arcs",),
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
    """pytest's exit code on the node ids in the copy, its first failed
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
