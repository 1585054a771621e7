"""Every statement of the bijection's functions runs at least K times on
the inputs the property tests draw.

``torsion.max_rigid_of``, ``torsion.is_torsion_pair``, the reader of a
side and the family walk they share (``torsion._read_side`` and
``torsion._family_walk``), ``torsion.torsion_pair_of``,
``torsion.is_ext_closed``, ``type_a.tilting_of_torsion_pair``,
``type_a.is_torsion_pair``, the segment's least spans
(``type_a._minspan``) and the longest-arc rule that both models' inverses
share (``type_a._longest_arcs``) run under ``sys.settrace`` on:

- every maximal rigid object at n <= 5, of both kinds, and its pair,
  each side of which is also checked by ``is_ext_closed``;
- the derandomized draws of ``raw_pairs`` (real pairs with raw items, see
  ``test_torsion_reference``), of ``free_items`` (pairs with an item on F
  that lies in no perp, see there) and of ``rigid_values`` (arbitrary
  objects, invalid ones included, see ``test_census_reference``); the
  pair of a drawn object is validated and inverted too;
- the derandomized draws of ``raw_family_subcats`` (raw descriptors with
  no family, rays, corays or both, see ``test_torsion_reference``),
  checked by ``is_ext_closed``;
- every tilting set at m <= 6, with both sides of its torsion pair, each
  side inverted and the pair validated as it is and swapped, so that the
  segment validator's refusal runs.

A statement of those functions that runs fewer than K times fails the
test: a refusal that few inputs reach is a branch the property tests
barely check.  Statements are read off the source with ``ast``, since
Python 3.10 and later emit a line event for the first line of every
statement that runs, whatever the bytecode.  Two refusals used to be
thin (6 and 7 runs with hypothesis 6.155.2, and as few as 2 under other
seeds): ``is_torsion_pair`` refusing a one-sided arc in F, and
``torsion_pair_of`` refusing a summand of the other family.  Each is now
an edit kind of its own in ``raw_pairs`` and ``rigid_values``, drawn one
time in six.  Since ``is_torsion_pair`` checks F's count before its pass
over F, an arc added to F is mostly refused by the count: the pass's
refusal of a one-sided arc or a malformed item ran 8 times on the draws
of ``raw_pairs``, and runs 32 times with those of ``free_items``, which
put such an item in place of an arc of F; its Hom refusal runs 22 times.
The reader's one-sided refusal runs 48 times and its non-canonical flag
114 times, on the draws of hypothesis 6.155.2, with no edit kind of
their own.

The tracer is the standard library's.  The draws come from the property
tests' own strategies, so this module is skipped where hypothesis is not
installed, as those tests are.
"""

import ast
import inspect
import sys
import textwrap
from collections import Counter

import pytest

from tubecalc import torsion, type_a
from tubecalc.arcs import Tube

pytest.importorskip("hypothesis")
from hypothesis import Phase, given, settings  # noqa: E402
from test_census_reference import rigid_values  # noqa: E402
from test_torsion_reference import free_items, on_one_rank, raw_family_subcats, raw_pairs  # noqa: E402

K = 3  # the least number of runs of each statement
DRAWS = 500  # derandomized draws per strategy
FUNCTIONS = (
    torsion.max_rigid_of,
    torsion.is_torsion_pair,
    torsion._read_side,
    torsion._family_walk,
    torsion.torsion_pair_of,
    torsion.is_ext_closed,
    type_a.tilting_of_torsion_pair,
    type_a.is_torsion_pair,
    type_a._longest_arcs,
    type_a._minspan,
)


def statement_lines(fn) -> dict:
    """{line: source} of the first line of each statement in the body of
    ``fn``, its docstring left out."""
    lines, first = inspect.getsourcelines(fn)
    tree = ast.parse(textwrap.dedent("".join(lines)))
    body = tree.body[0].body
    if isinstance(body[0], ast.Expr) and isinstance(body[0].value, ast.Constant):
        body = body[1:]
    found = {}
    for top in body:
        for node in ast.walk(top):
            if isinstance(node, ast.stmt):
                found[first + node.lineno - 1] = lines[node.lineno - 1].strip()
    return found


def draws(strategy) -> list:
    """The first DRAWS values of the strategy, the same in every run of one
    hypothesis release."""
    found = []

    @settings(max_examples=DRAWS, derandomize=True, database=None, deadline=None, phases=[Phase.generate])
    @given(strategy)
    def collect(case):
        found.append(case)

    collect()
    return found


def attempt(fn, *args):
    try:
        return fn(*args)
    except ValueError:  # ValidationError included
        return None


def run_inputs(pairs, objects, sides) -> None:
    found = [(tube, attempt(torsion.torsion_pair_of, tube, u)) for tube, u in objects]
    for tube, pair in pairs + [(tube, pair) for tube, pair in found if pair is not None]:
        attempt(torsion.is_torsion_pair, tube, pair)
        attempt(torsion.max_rigid_of, tube, pair)
    for tube, side in sides:
        attempt(torsion.is_ext_closed, tube, side)
    for m in range(7):
        for u in type_a.enumerate_tilting(m):
            t_part, f_part = type_a.torsion_pair_of_tilting(m, u)
            for side in (t_part, f_part):
                attempt(type_a.tilting_of_torsion_pair, m, side)
            attempt(type_a.is_torsion_pair, m, t_part, f_part)
            attempt(type_a.is_torsion_pair, m, f_part, t_part)


def traced_counts(functions, run) -> Counter:
    """(code, line) -> line events in the frames of ``functions`` while
    ``run()`` runs."""
    codes = {fn.__code__ for fn in functions}
    counts: Counter = Counter()

    def local(frame, event, arg):
        if event == "line":
            counts[frame.f_code, frame.f_lineno] += 1
        return local

    def tracer(frame, event, arg):
        return local if frame.f_code in codes else None

    previous = sys.gettrace()
    sys.settrace(tracer)
    try:
        run()
    finally:
        sys.settrace(previous)
    return counts


def thin_statements(functions, counts) -> list:
    return [
        f"{fn.__module__}.{fn.__name__}:{line} ran {counts[fn.__code__, line]} times: {source}"
        for fn in functions
        for line, source in statement_lines(fn).items()
        if counts[fn.__code__, line] < K
    ]


def test_every_statement_runs_k_times():
    objects = [(Tube(n), u) for n in range(1, 6) for u in torsion.enumerate_max_rigid(Tube(n))]
    pairs = [(tube, torsion.torsion_pair_of(tube, u)) for tube, u in objects]
    sides = [(tube, side) for tube, pair in pairs for side in (pair.t_part, pair.f_part)]
    sides += [(Tube(n), desc) for n, desc in draws(on_one_rank(raw_family_subcats))]
    objects += draws(rigid_values())
    pairs = draws(raw_pairs()) + [case[:2] for case in draws(free_items())]
    counts = traced_counts(FUNCTIONS, lambda: run_inputs(pairs, objects, sides))
    thin = thin_statements(FUNCTIONS, counts)
    assert not thin, "\n".join(thin)


def test_the_count_sees_a_statement_that_runs_too_seldom():
    def sometimes(x):
        if x > 0:
            return 1
        return 0

    lines = statement_lines(sometimes)
    assert list(lines.values()) == ["if x > 0:", "return 1", "return 0"]
    counts = traced_counts([sometimes], lambda: [sometimes(x) for x in range(-5, 3)])
    assert [counts[sometimes.__code__, line] for line in lines] == [8, 2, 6]
    assert thin_statements([sometimes], counts) == [
        f"{__name__}.sometimes:{min(lines) + 1} ran 2 times: return 1"
    ]
