"""``pair-of-rigid`` against the command it replaced.

The reference below is the old ``cmd_pair_of_rigid``, copied unchanged
with the JSON encoder the CLI then printed through: it refused a wrong
summand count and a family mix itself, checked rigidity with
``homs.is_rigid`` (Ext on all n^2 ordered pairs), and only then took
``torsion_pair_of``.  The new command takes the kind from the family
present, lets ``torsion_pair_of`` refuse the count and the family, and
checks rigidity by whether the pair is a torsion pair.  Hypothesis draws
arbitrary summand lists, not only maximal rigid objects: both commands run
through ``cli.main`` on the same argv, and the exit code and the standard
output must be equal.  Only the wording of a refusal may change, from one
of the old messages to one of ``torsion_pair_of``'s or, for a list with
no Prufer or adic summand, the command's own.  Without hypothesis the
property test skips (``optional_hypothesis``), and the others run.
"""

import contextlib
import io
import json
import re
from functools import lru_cache
from unittest import mock

import pytest

from tubecalc import cli, homs
from tubecalc.arcs import Tube, format_obj, parse_obj, sort_key
from tubecalc.torsion import ADIC, PRUFER, MaxRigid, ValidationError, enumerate_max_rigid, torsion_pair_of

from optional_hypothesis import given, settings, st

# -- reference ---------------------------------------------------------------------

# the CLI's JSON writer when this reference was copied; the CLI now prints
# through serialize.pair_json, which tests/test_serialize_reference.py
# compares with this encoder
_encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode


def cmd_pair_of_rigid(args) -> int:
    tube = Tube(args.rank)
    summands = frozenset(
        parse_obj(tube, part) for part in cli._split_summands(args.summands)
    )
    if len(summands) != tube.n:
        raise ValidationError(f"expected {tube.n} distinct summands, got {len(summands)}")
    has_prufer = any(x.is_prufer for x in summands)
    has_adic = any(x.is_adic for x in summands)
    if has_prufer == has_adic:
        raise ValidationError("object must contain Prufer or adic summands, not both or neither")
    if not homs.is_rigid(tube, summands):
        raise ValidationError("summand set is not rigid")
    rigid = MaxRigid(summands, PRUFER if has_prufer else ADIC)
    pair = torsion_pair_of(tube, rigid)
    if args.json:
        print(_encode(cli.pair_to_doc(tube, pair)))
    else:
        print(cli._pair_line(pair))
    return 0


OLD_REFUSALS = [
    r"expected \d+ distinct summands, got \d+",
    r"object must contain Prufer or adic summands, not both or neither",
    r"summand set is not rigid",
]
NEW_REFUSALS = [
    r"a maximal rigid object in rank \d+ has \d+ summands, got \d+",
    r"summand list has no Prufer or adic summand",
    r"(Prufer|adic)-type object holds the (Prufer|adic) summand M\[\S+\]",
    r"summand M\[\d+,\d+\] spans more than \d+, so it is not rigid",
    r"summand set is not rigid",
]

# -- comparison ----------------------------------------------------------------------

N_MAX = 7


def run_with(command, argv):
    """Exit code, standard output and standard error of ``cli.main`` with
    ``command`` serving ``pair-of-rigid``."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.object(cli, "cmd_pair_of_rigid", command):
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def assert_same(argv):
    old_code, old_out, old_err = run_with(cmd_pair_of_rigid, argv)
    new_code, new_out, new_err = run_with(cli.cmd_pair_of_rigid, argv)
    assert (new_code, new_out) == (old_code, old_out), argv
    if new_err != old_err:
        assert any(re.fullmatch(f"error: {p}\n", old_err) for p in OLD_REFUSALS), (argv, old_err)
        assert any(re.fullmatch(f"error: {p}\n", new_err) for p in NEW_REFUSALS), (argv, new_err)
    return new_code


@lru_cache(maxsize=None)
def rigid_objects(n: int):
    return enumerate_max_rigid(Tube(n))


def lifted(n: int, x, k: int) -> str:
    """The name of x moved by k periods: another name of the same arc."""
    s, e = x
    s = "-inf" if s is None else s + k * n
    e = "inf" if e is None else e + k * n
    return f"M[{s},{e}]"


@st.composite
def argvs(draw):
    """``pair-of-rigid`` argv with arbitrary summand lists: arcs in any lift,
    spans from 0 to 2n+1, Prufers and adics, duplicates after normalizing,
    any count; often a real maximal rigid object, written in arbitrary
    lifts, with a summand swapped, dropped, added or repeated."""
    n = draw(st.integers(1, N_MAX))
    arc = st.one_of(
        st.builds(lambda s, d: (s, s + d), st.integers(-2 * n, 2 * n), st.integers(0, 2 * n + 1)),
        st.builds(lambda s: (s, None), st.integers(-n, 2 * n)),
        st.builds(lambda e: (None, e), st.integers(-n, 2 * n)),
    )
    if draw(st.booleans()):
        objects = rigid_objects(n)
        summands = sorted(objects[draw(st.integers(0, len(objects) - 1))].summands, key=sort_key)
        for _ in range(draw(st.integers(0, 2))):
            move = draw(st.sampled_from(["swap", "drop", "add", "repeat", "keep"]))
            if move in ("swap", "drop") and summands:
                del summands[draw(st.integers(0, len(summands) - 1))]
            if move in ("swap", "add"):
                summands.append(draw(arc))
            if move == "repeat" and summands:
                summands.append(draw(st.sampled_from(summands)))
        summands = draw(st.permutations(summands))
    else:
        summands = draw(st.lists(arc, min_size=1, max_size=n + 2))
    names = [lifted(n, x, draw(st.integers(-2, 2))) for x in summands]
    if not names:
        names = [lifted(n, draw(arc), 0)]
    json_flag = draw(st.sampled_from([[], ["--json"]]))
    return ["pair-of-rigid", "--rank", str(n), "--summands", ",".join(names), *json_flag]


@settings(max_examples=800, deadline=None)
@given(argvs())
def test_same_exit_code_and_output(argv):
    assert_same(argv)


@pytest.mark.parametrize("n", range(1, 6))
def test_every_maximal_rigid_object(n):
    for u in rigid_objects(n):
        names = ",".join(format_obj(x) for x in sorted(u.summands, key=sort_key))
        assert assert_same(["pair-of-rigid", "--rank", str(n), "--summands", names, "--json"]) == 0


def test_each_exit_code_is_reached():
    argvs_by_code = {
        0: ["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf],M[2,inf],M[0,2]"],
        1: ["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf],M[2,3],M[0,2]"],
        2: ["pair-of-rigid", "--rank", "3", "--summands", "M[0,inf],M[0,2],M[1,3]"],
    }
    for code, argv in argvs_by_code.items():
        assert assert_same(argv) == code
