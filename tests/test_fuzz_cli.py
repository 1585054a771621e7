"""Property: any argv gives exit code 0, 1 or 2 from ``cli.main``, in
bounded time, with no traceback.

Hypothesis builds argv from the real commands and flags, with ranks near
and far from the drawable range, arc strings in and out of the grammar and
arbitrary text.  Each example runs in one temporary directory, and ``--out``
and ``--pair`` name files there only, so no example reads or writes
anywhere else."""

import contextlib
import io
import json
import os

import pytest

from limits import needs_alarm, time_limit
from tubecalc.cli import main

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

MODES = ["annulus", "cover", "segment", "sphere"]
STYLES = ["summand", "torsion", "free", "", "x"]
# the files --pair may name, written once into the test's directory; --out
# names none of them, so every example reads the same files
PAIR_FILES = {
    "pair.json": json.dumps({
        "schema": 1, "rank": 2, "kind": "ray",
        "torsion": {"finite": ["M[0,2]"], "corays": []},
        "free": {"finite": [], "rays": [1]},
    }),
    "broken.json": "{\"schema\": 1,",
    "deep.json": "[" * 5000,
}
OUT_NAMES = ["out.svg", "no/such/dir/out.svg", "", "."]


def _mostly(good, bad):
    """``good`` four times in five, so that most argv get past the parser."""
    return st.integers(0, 4).flatmap(lambda k: bad if k == 4 else good)


_far = [0, -1, -3, 13, 1001, 10**6, 10**18, -(10**18)]
_int = _mostly(st.integers(1, 7), st.sampled_from(_far)).map(str)
_number = _mostly(_int, st.sampled_from(["", "x", "1.5", "0x10", " 3", "inf"]))
_endpoint = _mostly(
    st.integers(-4, 30).map(str), st.sampled_from(["inf", "-inf", "", "a", "10**9"])
)
_arc = _mostly(
    st.builds(lambda s, e, style: f"M[{s},{e}]" + style, _endpoint, _endpoint,
              _mostly(st.just(""), st.sampled_from(STYLES).map(":".__add__))),
    st.text(max_size=10),
)
_flag = st.sampled_from(["--rank", "--m", "--max-length", "--json", "--mode", "--arc", "--summands",
                         "--pair", "--out", "--help", "--bogus", "-"])
_value = st.one_of(_number, _arc, st.sampled_from([*MODES, *PAIR_FILES, *OUT_NAMES]))


def _command_argvs():
    """Each command with its own arguments, each of them sometimes left out."""
    def opt(flag, value):
        return _mostly(value.map(lambda v: [flag, v]), st.just([]))

    def action(*names):
        return _mostly(st.sampled_from([[name] for name in names]), st.just([]))

    json_flag = st.sampled_from([[], ["--json"]])
    rank = opt("--rank", _number)
    arcs = _mostly(st.lists(_arc, min_size=2, max_size=2), st.lists(_arc, max_size=3))
    summands = st.lists(_arc, min_size=1, max_size=5).map(",".join)
    return st.one_of(
        st.tuples(st.sampled_from([["ext"], ["hom"]]), rank, arcs),
        st.tuples(st.just(["pairs"]), action("count", "enumerate"), rank, json_flag),
        st.tuples(
            st.just(["rigid"]), action("enumerate", "of-pair"), rank,
            opt("--pair", st.sampled_from([*PAIR_FILES, "missing.json", ""])), json_flag,
        ),
        st.tuples(st.just(["pair-of-rigid"]), rank, opt("--summands", summands), json_flag),
        st.tuples(
            st.just(["render"]), opt("--mode", st.sampled_from(MODES)), rank, opt("--m", _number),
            st.lists(_arc, max_size=3).map(lambda arcs: [t for a in arcs for t in ("--arc", a)]),
            opt("--out", st.sampled_from(OUT_NAMES)),
        ),
        st.tuples(st.just(["ar-quiver"]), rank, opt("--max-length", _number)),
    ).map(lambda parts: [token for part in parts for token in part])


@st.composite
def argvs(draw):
    """A command's argv, sometimes with a token dropped, an unknown command,
    stray flags or values added, or the order shuffled."""
    argv = draw(_command_argvs())
    if argv and draw(st.integers(0, 9)) == 9:
        del argv[draw(st.integers(0, len(argv) - 1))]
    if draw(st.integers(0, 19)) == 19:
        argv[:1] = [draw(st.sampled_from(["frobnicate", "", "--help", "-h"]))]
    for _ in range(draw(st.integers(0, 2)) if draw(st.integers(0, 4)) == 4 else 0):
        argv.insert(draw(st.integers(0, len(argv))), draw(st.one_of(_flag, _value)))
    return draw(st.permutations(argv)) if draw(st.integers(0, 19)) == 19 else argv


def _call(argv, directory):
    """Exit code and standard error of main, run inside ``directory``."""
    out, err = io.StringIO(), io.StringIO()
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse's --help exits 0 by itself
                code = exc.code
    finally:
        os.chdir(cwd)
    return code, err.getvalue()


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    directory = tmp_path_factory.mktemp("cli")
    for name, text in PAIR_FILES.items():
        (directory / name).write_text(text, encoding="utf-8")
    return directory


@needs_alarm
@settings(max_examples=100, deadline=None)
@given(argv=argvs())
def test_argv_exits_cleanly(workdir, argv):
    with time_limit(10):
        code, err = _call(argv, workdir)
    assert code in (0, 1, 2), (argv, code, err)
    assert "Traceback" not in err, (argv, err)
    if code:
        assert err.startswith("error: "), (argv, err)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["--help"], 0),
        (["rigid", "of-pair", "--pair", "pair.json", "--json"], 0),
        (["rigid", "of-pair", "--pair", "broken.json"], 1),
        (["rigid", "of-pair", "--pair", "deep.json"], 1),
        (["render", "--mode", "annulus", "--rank", "2", "--out", "no/such/dir/out.svg"], 1),
        (["pair-of-rigid", "--rank", "2", "--summands", "M[0,2],M[0,2]"], 2),
        # integer options take the arc grammar's digits: ASCII, no blanks, no "_"
        (["pairs", "count", "--rank", "\u0663"], 1),
        (["ar-quiver", "--rank", "2", "--max-length", "\uff12"], 1),
        (["pairs", "count", "--rank", " 3_0"], 1),
    ],
)
def test_fixed_files_reach_each_exit_code(workdir, argv, code):
    # the fuzz can reach a success, a usage error and a validation failure
    # through the files above
    assert _call(argv, workdir)[0] == code
