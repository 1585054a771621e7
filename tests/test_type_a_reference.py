"""The array rules of ``type_a`` against the brute-force code they replaced.

The reference below is the old all-pairs code, copied unchanged: the perps
compare every segment arc with every member, the class predicates run the
oriented Ptolemy check over all pairs, the Ext-projectives test Ext on
all pairs, and ``is_tilting`` compares every pair of sorted arcs where the
new code keeps a stack of nested arcs.  Hypothesis draws arbitrary arc sets, not only valid pairs: any
subsets of the segment, torsion pairs with a few arcs toggled, quotient
closures with their perps, and arcs anywhere on the integer line.

An arc that does not fit the segment is a caller error for the functions
that take m (``is_torsion_pair`` and both directions of the bijection): they
raise ``check_arc``'s ValueError, where the old code answered False or read the
arc on the integer line.  The closures and class predicates take no m and
keep the old answers on any arcs, short ones included.

``tilting_of_torsion_pair`` has a second reference, also copied unchanged:
the one that took the Ext-projectives by a running-minimum scan of ``low``
over every start of every end.  The new one reads each arc of the tilting
set as the longest at its start or at its end, off ``low`` and
``minend``.  They are compared on arbitrary arc sets, arcs off the segment
included, and on every quotient closure at m <= 7.

The validator has a second reference, copied with only its name, its
line breaks and the module of its helpers changed: the ``is_torsion_pair``
that read ``minend`` as least ends (with the old ``_minend``, copied as
``old_minend``) and ``maxstart`` as greatest starts, where the new one
reads both as least spans, as the tube does.  They are compared on arbitrary arc sets at
m <= 8, closures, arcs off the segment and swapped sides included, and on
every tilting pair at m <= 8 and its swap: the same value, or the same
ValueError and message.

The validator has a third reference, copied with only its name and the
module of its helpers changed: the ``is_torsion_pair`` that counted F's
subobject closure and checked Hom(T, F) = 0 after reading all of F, where
the new one refuses a pair that lists fewer than m arcs in all, counts
T's closure only and reads F in one pass that stops at its first arc in
no perp.  They are compared on the same arc sets, on every tilting pair at
m <= 8 and its swap, and on every swap or drop of one arc of either side
of every tilting pair at m <= 5.

The last part keeps the frozen dataclass ``AArc`` and the functions that
built an arc per member, copied unchanged but for their names.  The
slotted ``AArc`` hashes, compares and prints as the dataclass did, and
the closures, both directions of the bijection and
``enumerate_tilting`` give the same arcs, now the shared table's
instances.  The table is checked on its own too, under a small bound.
The package's three shared memos (this table, ``arcs``' names and
``render``'s annulus pieces) follow one store rule, ``arcs._Memo``; each is
run with four threads clearing it under each other.
"""

import contextlib
import copy
import itertools
import pickle
import random
import re
import sys
import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple
from unittest import mock

import pytest

from tubecalc import arcs as arcs_mod, render, type_a as ta
from tubecalc.arcs import FINITE_ARC, IndObj, Tube, _Memo
from tubecalc.type_a import AArc, all_arcs
from segment_defs import ext_dim, hom_nonzero, injective_arcs, is_oriented_ptolemy, second_torsion_pair_of_tilting

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# -- reference ---------------------------------------------------------------------


def left_closure(arcs) -> frozenset:
    out = set()
    for x in arcs:
        for i in range(x.i, x.j - 1):
            out.add(AArc(i, x.j))
    return frozenset(out)


def right_closure(arcs) -> frozenset:
    out = set()
    for x in arcs:
        for j in range(x.i + 2, x.j + 1):
            out.add(AArc(x.i, j))
    return frozenset(out)


def tilting_of_torsion_pair(m: int, t_part) -> frozenset:
    """Ext-projective arcs of a torsion class containing every injective arc."""
    t_part = frozenset(t_part)
    if not is_torsion_class(t_part):
        raise ValueError("input is not a torsion class")
    if not set(injective_arcs(m)) <= t_part:
        raise ValueError("torsion class must contain every injective arc")
    items = sorted(t_part, key=lambda a: (a.i, a.j))
    return frozenset(
        x for x in items if all(ext_dim(x, y) == 0 for y in items)
    )


def is_torsion_class(arcs) -> bool:
    arcs = frozenset(arcs)
    return is_oriented_ptolemy(arcs) and left_closure(arcs) <= arcs


def is_torsionfree_class(arcs) -> bool:
    arcs = frozenset(arcs)
    return is_oriented_ptolemy(arcs) and right_closure(arcs) <= arcs


def is_torsion_pair(m: int, t_part, f_part) -> bool:
    """Exact mutual-perp test over the whole (finite) arc set."""
    t_part, f_part = frozenset(t_part), frozenset(f_part)
    universe = all_arcs(m)
    right = frozenset(
        y for y in universe if all(not hom_nonzero(t, y) for t in t_part)
    )
    left = frozenset(
        x for x in universe if all(not hom_nonzero(x, f) for f in f_part)
    )
    return right == f_part and left == t_part


def is_tilting(m: int, arcs) -> bool:
    pairs = sorted(ta._segment_pairs(m, frozenset(arcs)))
    if len(pairs) != m or (m > 0 and (0, m + 1) not in pairs):
        return False
    for p, (i, j) in enumerate(pairs):
        for k, l in pairs[p + 1:]:
            if i < k < j < l:  # k >= i in sorted order
                return False
    return True


def _ext_projective_pairs(low: Dict[int, int], period: int) -> List[Tuple[int, int]]:
    """The Ext-projective (start, end) pairs of the torsion class that
    ``low`` fixes, read with the given period: at end d it reads
    ``low[d % period] + d - d % period``.  Scanning the starts a of each end
    b downward, the running minimum of low over the ends in (a, b) decides
    [a, b]."""
    keep = []
    for b, lo in low.items():
        run = b  # the least low[d] over the ends a < d < b
        for a in range(b - 2, lo - 1, -1):
            r = (a + 1) % period
            if r in low:
                run = min(run, low[r] + a + 1 - r)
            if run >= a:
                keep.append((a, b))
    return keep


def tilting_of_torsion_pair_by_ext_projectives(m: int, t_part) -> frozenset:
    """Ext-projective arcs of a torsion class containing every injective arc."""
    pairs = ta._segment_pairs(m, frozenset(t_part))
    low = ta._low(pairs)
    if not ta._is_torsion_low(low, len(pairs)):
        raise ValueError("input is not a torsion class")
    if m and low.get(m + 1) != 0:
        raise ValueError("torsion class must contain every injective arc")
    return frozenset(AArc(a, b) for a, b in _ext_projective_pairs(low, m + 2))


# -- comparison ----------------------------------------------------------------------

M_MAX = 7
ARCS = {m: all_arcs(m) for m in range(M_MAX + 1)}


def outcome(fn, *args):
    """The value, or the ValueError's message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return ("ValueError", str(exc))


def assert_matches(m: int, t_part, f_part) -> None:
    assert ta.is_torsion_pair(m, t_part, f_part) == is_torsion_pair(m, t_part, f_part)
    for side in (t_part, f_part):
        assert ta.left_closure(side) == left_closure(side)
        assert ta.right_closure(side) == right_closure(side)
        assert ta.is_torsion_class(side) == is_torsion_class(side)
        assert ta.is_torsionfree_class(side) == is_torsionfree_class(side)
        assert outcome(ta.tilting_of_torsion_pair, m, side) == outcome(tilting_of_torsion_pair, m, side)


def subsets(m: int):
    return st.sets(st.sampled_from(ARCS[m])) if ARCS[m] else st.just(set())


@st.composite
def arbitrary_sides(draw):
    m = draw(st.integers(0, M_MAX))
    return m, draw(subsets(m)), draw(subsets(m))


@st.composite
def perturbed_pairs(draw):
    """A torsion pair of a tilting set with up to three arcs toggled on
    either side, or on both sides swapped."""
    m = draw(st.integers(1, M_MAX))
    tiltings = ta.enumerate_tilting(m)
    u = tiltings[draw(st.integers(0, len(tiltings) - 1))]
    first = draw(st.booleans())
    pair = ta.torsion_pair_of_tilting(m, u) if first else second_torsion_pair_of_tilting(m, u)
    t_part, f_part = set(pair[0]), set(pair[1])
    for _ in range(draw(st.integers(0, 3))):
        side = t_part if draw(st.booleans()) else f_part
        side ^= {draw(st.sampled_from(ARCS[m]))}
    if draw(st.booleans()):
        t_part, f_part = f_part, t_part
    return m, t_part, f_part


@st.composite
def closures_with_perps(draw):
    """A quotient closure T of random arcs and its reference right perp F:
    F = T^perp always holds, T = perp-F and the torsion class test hold or
    fail with the Ptolemy rule."""
    m = draw(st.integers(1, M_MAX))
    t_part = left_closure(draw(subsets(m)))
    f_part = frozenset(y for y in ARCS[m] if all(not hom_nonzero(t, y) for t in t_part))
    return m, t_part, f_part


line_arcs = st.builds(AArc, st.integers(-4, 9), st.integers(-4, 9))


class TestMatchesReference:
    @settings(max_examples=400, deadline=None)
    @given(arbitrary_sides())
    def test_arbitrary_subsets(self, case):
        assert_matches(*case)

    @settings(max_examples=400, deadline=None)
    @given(perturbed_pairs())
    def test_perturbed_torsion_pairs(self, case):
        assert_matches(*case)

    @settings(max_examples=300, deadline=None)
    @given(closures_with_perps())
    def test_quotient_closures_and_their_perps(self, case):
        assert_matches(*case)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_every_tilting_pair(self, m):
        for u in ta.enumerate_tilting(m):
            assert_matches(m, *ta.torsion_pair_of_tilting(m, u))
            assert_matches(m, *second_torsion_pair_of_tilting(m, u))

    def test_strategies_reach_both_answers(self):
        # without a torsion pair among the drawn cases the comparison above
        # would only ever see False
        m = 3
        t_part, f_part = ta.torsion_pair_of_tilting(m, ta.enumerate_tilting(m)[1])
        assert is_torsion_pair(m, t_part, f_part)
        assert not is_torsion_pair(m, t_part | f_part, f_part)


@st.composite
def near_tiltings(draw):
    """A tilting set with up to two arcs swapped for arbitrary segment arcs."""
    m = draw(st.integers(1, M_MAX))
    tiltings = ta.enumerate_tilting(m)
    arcs = set(tiltings[draw(st.integers(0, len(tiltings) - 1))])
    for _ in range(draw(st.integers(0, 2))):
        arcs.discard(draw(st.sampled_from(sorted(arcs, key=lambda a: (a.i, a.j)))))
        arcs.add(draw(st.sampled_from(ARCS[m])))
    return m, arcs


class TestIsTilting:
    @settings(max_examples=200, deadline=None)
    @given(arbitrary_sides())
    def test_arbitrary_subsets(self, case):
        m, arcs, _ = case
        assert ta.is_tilting(m, arcs) == is_tilting(m, arcs)

    @settings(max_examples=200, deadline=None)
    @given(near_tiltings())
    def test_tilting_sets_with_arcs_swapped(self, case):
        assert ta.is_tilting(*case) == is_tilting(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 5), st.sets(line_arcs, max_size=7))
    def test_arcs_off_the_segment(self, m, arcs):
        assert outcome(ta.is_tilting, m, arcs) == outcome(is_tilting, m, arcs)

    @pytest.mark.parametrize("m", range(0, 6))
    def test_every_subset_of_the_right_size(self, m):
        # both answers occur: the tilting sets, and the crossing sets of m arcs
        answers = set()
        for arcs in itertools.combinations(ARCS[m], m):
            answers.add(ta.is_tilting(m, arcs))
            assert ta.is_tilting(m, arcs) == is_tilting(m, arcs)
        assert answers == ({True, False} if m >= 2 else {True})


class TestArcsOffTheSegment:
    @settings(max_examples=400, deadline=None)
    @given(st.sets(line_arcs, max_size=8))
    def test_closures_and_class_predicates_read_the_integer_line(self, arcs):
        assert ta.left_closure(arcs) == left_closure(arcs)
        assert ta.right_closure(arcs) == right_closure(arcs)
        assert ta.is_torsion_class(arcs) == is_torsion_class(arcs)
        assert ta.is_torsionfree_class(arcs) == is_torsionfree_class(arcs)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 5), line_arcs, st.booleans())
    def test_segment_functions_raise_check_arc_error(self, m, x, on_t_side):
        fits = 0 <= x.i and x.j <= m + 1 and x.j >= x.i + 2
        t_part = set(injective_arcs(m))
        if on_t_side:
            t_part.add(x)
        f_part = set() if on_t_side else {x}
        if fits:
            ta.is_torsion_pair(m, t_part, f_part)
            return
        with pytest.raises(ValueError, match="does not fit on a segment"):
            ta.is_torsion_pair(m, t_part, f_part)
        if on_t_side:
            with pytest.raises(ValueError, match="does not fit on a segment"):
                ta.tilting_of_torsion_pair(m, t_part)
            with pytest.raises(ValueError, match="does not fit on a segment"):
                ta.torsion_pair_of_tilting(m, t_part)

    def test_examples(self):
        # the old code answered False here, and read the short arc [1,2] as
        # an Ext-projective member
        with pytest.raises(ValueError, match=r"arc \[0,5\] does not fit"):
            ta.is_torsion_pair(3, {AArc(0, 5)}, set())
        with pytest.raises(ValueError, match=r"arc \[1,2\] does not fit"):
            ta.tilting_of_torsion_pair(2, {AArc(0, 3), AArc(1, 3), AArc(1, 2)})
        # the old code read [-4,9] on the integer line
        with pytest.raises(ValueError, match=r"arc \[-4,9\] does not fit on a segment with points 0..3"):
            ta.torsion_pair_of_tilting(2, {AArc(-4, 9)})
        assert tilting_of_torsion_pair(2, {AArc(0, 3), AArc(1, 3), AArc(1, 2)}) == {
            AArc(0, 3), AArc(1, 3), AArc(1, 2)
        }
        # the class predicates ignore a short arc, as before
        assert ta.is_torsion_class({AArc(1, 2)}) and ta.is_torsionfree_class({AArc(4, 3)})


def quotient_closures(m: int):
    """Every quotient closure on the segment: per end j, no arc or every
    start from some a to j - 2."""
    choices = [[None, *range(j - 1)] for j in range(2, m + 2)]
    for lows in itertools.product(*choices):
        yield frozenset(
            AArc(i, j) for j, a in zip(range(2, m + 2), lows) if a is not None for i in range(a, j - 1)
        )


def assert_tilting_matches(m: int, arcs):
    got = outcome(ta.tilting_of_torsion_pair, m, arcs)
    assert got == outcome(tilting_of_torsion_pair_by_ext_projectives, m, arcs), (m, arcs)
    return got


class TestTiltingByLongestArcs:
    @settings(max_examples=400, deadline=None)
    @given(arbitrary_sides())
    def test_arbitrary_subsets(self, case):
        m, t_part, f_part = case
        assert_tilting_matches(m, t_part)
        assert_tilting_matches(m, f_part)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, M_MAX), st.sets(line_arcs, max_size=8))
    def test_arcs_off_the_segment(self, m, arcs):
        assert_tilting_matches(m, arcs)

    @pytest.mark.parametrize("m", range(0, M_MAX + 1))
    def test_every_quotient_closure(self, m):
        # every torsion class is one, and so are the refusals of each kind
        answers = set()
        for t_part in quotient_closures(m):
            got = assert_tilting_matches(m, t_part)
            answers.add(got if isinstance(got, tuple) else "tilting")
        assert "tilting" in answers and (m < 2 or len(answers) == 3)


# -- the validator before least spans ------------------------------------------------

M_SPANS = 8


def old_is_torsion_pair(m: int, t_part, f_part) -> bool:
    t_pairs = ta._segment_pairs(m, frozenset(t_part))
    f_pairs = ta._segment_pairs(m, frozenset(f_part))
    if (len(t_pairs) != ta._closure_count(ta._low(t_pairs))
            or len(f_pairs) != ta._closure_count(ta._reach(f_pairs))):
        return False
    minend = old_minend(m, t_pairs)
    maxstart = [-1] * (m + 2)
    for i, j in f_pairs:
        if i > maxstart[j]:
            maxstart[j] = i
    return (
        all(j < minend[i] for i, j in f_pairs)
        and len(f_pairs) == sum(e - s - 2 for s, e in enumerate(minend))
        and len(t_pairs) == sum(e - 2 - maxstart[e] for e in range(2, m + 2))
    )


@st.composite
def arc_sets_up_to_8(draw):
    """Two arbitrary sets of segment arcs at m <= 8, each sometimes its
    quotient or subobject closure, and now and then with an arc of the
    integer line added; or a tilting pair at m <= 8 with up to three arcs
    toggled, sometimes swapped."""
    m = draw(st.integers(0, M_SPANS))
    arcs = all_arcs(m)
    if m and draw(st.booleans()):
        tiltings = ta.enumerate_tilting(m)
        u = tiltings[draw(st.integers(0, len(tiltings) - 1))]
        sides = list(map(set, ta.torsion_pair_of_tilting(m, u)))
        for _ in range(draw(st.integers(0, 3))):
            sides[draw(st.integers(0, 1))] ^= {draw(st.sampled_from(arcs))}
    else:
        sides = []
        for _ in range(2):
            side = draw(st.sets(st.sampled_from(arcs))) if arcs else set()
            closure = draw(st.sampled_from([None, ta.left_closure, ta.right_closure]))
            sides.append(side if closure is None else set(closure(side)))
    for side in sides:
        if draw(st.integers(0, 7)) == 0:
            side.add(draw(line_arcs))
    if draw(st.booleans()):
        sides.reverse()
    return m, sides[0], sides[1]


class TestValidatorBySpans:
    @settings(max_examples=600, deadline=None)
    @given(arc_sets_up_to_8())
    def test_arbitrary_arc_sets(self, case):
        assert outcome(ta.is_torsion_pair, *case) == outcome(old_is_torsion_pair, *case)

    @pytest.mark.parametrize("m", range(0, M_SPANS + 1))
    def test_every_tilting_pair_and_its_swap(self, m):
        for u in ta.enumerate_tilting(m):
            t_part, f_part = ta.torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_pair(m, t_part, f_part) is old_is_torsion_pair(m, t_part, f_part) is True
            assert ta.is_torsion_pair(m, f_part, t_part) == old_is_torsion_pair(m, f_part, t_part)

    def test_strategy_reaches_every_outcome(self):
        @settings(max_examples=600, deadline=None, derandomize=True, database=None)
        @given(arc_sets_up_to_8())
        def collect(case):
            got = outcome(old_is_torsion_pair, *case)
            seen.add(got if isinstance(got, bool) else got[0])

        seen = set()
        collect()
        assert seen == {True, False, "ValueError"}


# -- the validator that counted F's closure --------------------------------------------


def is_torsion_pair_counting_f(m: int, t_part, f_part) -> bool:
    t_pairs = ta._segment_pairs(m, frozenset(t_part))
    f_pairs = ta._segment_pairs(m, frozenset(f_part))
    if len(t_pairs) != ta._closure_count(ta._low(t_pairs)) or len(f_pairs) != ta._closure_count(ta._reach(f_pairs)):
        return False
    minspan = ta._minspan(m, t_pairs)
    maxspan = list(range(1, m + 3))
    for i, j in f_pairs:
        if j - i < maxspan[j]:
            maxspan[j] = j - i
    return (
        all(j - i < minspan[i] for i, j in f_pairs)
        and len(f_pairs) == sum(minspan) - 2 * m
        and len(t_pairs) == sum(maxspan[2:]) - 2 * m
    )


def assert_same_as_counting_f(m: int, t_part, f_part):
    got = outcome(ta.is_torsion_pair, m, t_part, f_part)
    assert got == outcome(is_torsion_pair_counting_f, m, t_part, f_part), (m, t_part, f_part)
    return got


class TestValidatorReadsFAsPerp:
    """One pass over F checks Hom(T, F) = 0 arc by arc, with no closure
    count of F, and a pair that lists fewer than m arcs is refused first."""

    @settings(max_examples=600, deadline=None)
    @given(arc_sets_up_to_8())
    def test_arbitrary_arc_sets(self, case):
        assert_same_as_counting_f(*case)

    @pytest.mark.parametrize("m", range(0, M_SPANS + 1))
    def test_every_tilting_pair_and_its_swap(self, m):
        for u in ta.enumerate_tilting(m):
            t_part, f_part = ta.torsion_pair_of_tilting(m, u)
            assert assert_same_as_counting_f(m, t_part, f_part) is True
            assert_same_as_counting_f(m, f_part, t_part)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_every_one_arc_swap(self, m):
        """Each arc of either side of every tilting pair swapped for another
        arc of the segment, or dropped: no such pair is a torsion pair."""
        arcs = all_arcs(m)
        for u in ta.enumerate_tilting(m):
            sides = ta.torsion_pair_of_tilting(m, u)
            for k, side in enumerate(sides):
                for x in side:
                    for y in [None] + arcs:
                        swapped = list(sides)
                        swapped[k] = side - {x} | ({y} if y else set())
                        if swapped[k] != side:
                            assert assert_same_as_counting_f(m, *swapped) is False

    def test_fewer_than_m_arcs(self):
        for m in range(2, 7):
            for t_part, f_part in (([], []), ([AArc(0, 2)], []), ([], all_arcs(m)[: m - 1])):
                assert assert_same_as_counting_f(m, t_part, f_part) is False
        assert assert_same_as_counting_f(1, [], []) is False


# -- the dataclass AArc and the closures that built it ------------------------------
#
# Copied unchanged, but for the names: the frozen dataclass AArc, and the
# functions that built an arc per member before the shared table.  They
# share the array helpers (_low, _reach, _is_torsion_low, _segment_pairs),
# which the table did not change; ``old_minend`` is their copy of the
# library's ``_minend``, which gave way to the least spans of ``_minspan``.


@dataclass(frozen=True)
class OldAArc:
    i: int
    j: int

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


def old_all_arcs(m: int) -> List[OldAArc]:
    return [OldAArc(i, j) for i in range(0, m) for j in range(i + 2, m + 2)]


def old_crossing(x, y) -> bool:
    return x.i < y.i < x.j < y.j or y.i < x.i < y.j < x.j


def old_tau(x):
    return OldAArc(x.i - 1, x.j - 1) if x.i >= 1 else None


def old_left_closure(arcs) -> frozenset:
    low = ta._low((x.i, x.j) for x in arcs)
    return frozenset([OldAArc(i, j) for j, a in low.items() for i in range(a, j - 1)])


def old_right_closure(arcs) -> frozenset:
    reach = ta._reach((x.i, x.j) for x in arcs)
    return frozenset([OldAArc(i, j) for i, b in reach.items() for j in range(i + 2, b + 1)])


def old_enumerate_tilting(m: int) -> List[frozenset]:
    if m == 0:
        return [frozenset()]
    arcs = old_all_arcs(m)
    masks = [
        sum(1 << b for b in range(a + 1, len(arcs)) if not old_crossing(x, arcs[b]))
        for a, x in enumerate(arcs)
    ]
    base = arcs.index(OldAArc(0, m + 1))
    results: List[frozenset] = []
    stack = [([base], ((1 << len(arcs)) - 1) ^ (1 << base))]
    while stack:
        chosen, cand = stack.pop()
        if len(chosen) == m:
            results.append(frozenset(map(arcs.__getitem__, chosen)))
            continue
        if len(chosen) + cand.bit_count() < m:
            continue
        c = cand
        while c:
            t = c.bit_length() - 1
            c ^= 1 << t
            stack.append((chosen + [t], cand & masks[t]))
    return results


def old_torsion_pair_of_tilting(m: int, tilting) -> Tuple[frozenset, frozenset]:
    t_part = old_left_closure(tilting)
    shifted = [old_tau(x) for x in tilting if x.i >= 1]
    f_part = old_right_closure(shifted)
    return t_part, f_part


def old_minend(m: int, pairs) -> List[int]:
    minend = [m + 2] * m
    for i, j in pairs:
        if j < minend[i]:
            minend[i] = j
    return minend


def old_tilting_of_torsion_pair(m: int, t_part) -> frozenset:
    pairs = ta._segment_pairs(m, frozenset(t_part))
    low = ta._low(pairs)
    if not ta._is_torsion_low(low, len(pairs)):
        raise ValueError("input is not a torsion class")
    if m and low.get(m + 1) != 0:
        raise ValueError("torsion class must contain every injective arc")
    tilting = {OldAArc(a, e) for e, a in low.items()}
    tilting.update(OldAArc(s + 1, e) for s, e in enumerate(old_minend(m, pairs)) if e - s >= 3)
    return frozenset(tilting)


def ends(arcs):
    """The arcs as a set of (i, j) pairs, so that old and new compare."""
    return frozenset((x.i, x.j) for x in arcs)


def as_old(arcs) -> set:
    return {OldAArc(x.i, x.j) for x in arcs}


def shared(arcs) -> bool:
    """Whether every arc is the table's instance."""
    return all(type(x) is AArc and ta._shared([(x.i, x.j)])[0] is x for x in arcs)


def outcome_ends(fn, *args):
    """``outcome`` with a set of arcs read as its (i, j) pairs, and with the
    arc that a refusal names left out: which of several arcs off the segment
    is named first depends on the order of a set."""
    got = outcome(fn, *args)
    if isinstance(got, tuple):
        return got[0], re.sub(r"^arc \[-?\d+,-?\d+\] ", "arc ", got[1])
    return ends(got)


@contextlib.contextmanager
def fresh_table(bound: int):
    """An empty arc table with the given bound, in place of the shared one."""
    with mock.patch.object(ta, "_ARCS", _Memo(bound)):
        yield


pairs_on_the_line = st.tuples(st.integers(-4, 9), st.integers(-4, 9))


class TestMatchesDataclassCode:
    @settings(max_examples=400, deadline=None)
    @given(st.sets(line_arcs, max_size=8))
    def test_closures(self, arcs):
        for new, old in ((ta.left_closure, old_left_closure), (ta.right_closure, old_right_closure)):
            got = new(arcs)
            assert ends(got) == ends(old(as_old(arcs))) and shared(got)
            # a second closure holds the very same instances
            assert {id(x) for x in new(arcs)} == {id(x) for x in got}

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, M_MAX), st.sets(line_arcs, max_size=8))
    def test_both_directions_of_the_bijection(self, m, arcs):
        # an arc off the segment is refused; the arcs that fit keep the old answer
        fitting = {x for x in arcs if 0 <= x.i and x.j <= m + 1 and x.j >= x.i + 2}
        if fitting != arcs:
            with pytest.raises(ValueError, match="does not fit on a segment"):
                ta.torsion_pair_of_tilting(m, arcs)
        t_part, f_part = ta.torsion_pair_of_tilting(m, fitting)
        old_t, old_f = old_torsion_pair_of_tilting(m, as_old(fitting))
        assert (ends(t_part), ends(f_part)) == (ends(old_t), ends(old_f))
        assert shared(t_part | f_part)
        got = outcome_ends(ta.tilting_of_torsion_pair, m, arcs)
        assert got == outcome_ends(old_tilting_of_torsion_pair, m, as_old(arcs))
        if not isinstance(got, tuple):
            assert shared(ta.tilting_of_torsion_pair(m, arcs))

    @pytest.mark.parametrize("m", range(0, 9))
    def test_enumerate_tilting(self, m):
        got = ta.enumerate_tilting(m)
        assert [ends(u) for u in got] == [ends(u) for u in old_enumerate_tilting(m)]
        assert ta.all_arcs(m) == [AArc(x.i, x.j) for x in old_all_arcs(m)] and shared(ta.all_arcs(m))
        for u in got:
            t_part, f_part = ta.torsion_pair_of_tilting(m, u)
            old_t, old_f = old_torsion_pair_of_tilting(m, as_old(u))
            assert (ends(t_part), ends(f_part)) == (ends(old_t), ends(old_f))
            back = ta.tilting_of_torsion_pair(m, t_part)
            assert back == u and shared(back)


class TestArcValue:
    @settings(max_examples=300, deadline=None)
    @given(pairs_on_the_line, pairs_on_the_line)
    def test_equality_hash_repr_and_str_as_the_dataclass(self, a, b):
        x, y, old_x, old_y = AArc(*a), AArc(*b), OldAArc(*a), OldAArc(*b)
        assert (x == y, x != y) == (old_x == old_y, old_x != old_y)
        assert hash(x) == hash(old_x) == hash(a)
        assert repr(x) == repr(old_x).replace("OldAArc", "AArc") and str(x) == str(old_x)

    @pytest.mark.parametrize("cls", [AArc, OldAArc])
    @pytest.mark.parametrize("other", [(0, 3), IndObj(0, 3)], ids=["tuple", "IndObj"])
    def test_unequal_to_tuples_and_tube_arcs(self, cls, other):
        x = cls(0, 3)
        assert x != other and other != x
        assert not (x == other) and not (other == x)
        assert len({x, other}) == 2

    def test_equal_only_to_an_arc_with_the_same_ends(self):
        assert AArc(0, 3) == AArc(0, 3) and AArc(0, 3) != AArc(0, 4) and AArc(0, 3) != AArc(1, 3)

    def test_immutable(self):
        x = AArc(0, 3)
        for name in ("i", "j", "k"):
            with pytest.raises(AttributeError):
                setattr(x, name, 1)
            with pytest.raises(AttributeError):
                delattr(x, name)
        assert (x.i, x.j) == (0, 3) and not hasattr(x, "__dict__")

    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clones_round_trip(self, clone):
        y = clone(AArc(-4, 9))
        assert type(y) is AArc and y == AArc(-4, 9) and (y.i, y.j) == (-4, 9)


class TestArcTable:
    @settings(max_examples=200, deadline=None)
    @given(st.lists(pairs_on_the_line, max_size=12, unique=True))
    def test_an_arc_from_the_table_equals_the_arc_built_directly(self, pairs):
        got = ta._shared(pairs)
        assert got == [AArc(*p) for p in pairs] and all(type(x) is AArc for x in got)
        assert all(a is b for a, b in zip(ta._shared(pairs), got))

    def test_each_key_keeps_its_own_arc(self):
        # arcs that share a start, or an end, are different keys
        with fresh_table(16):
            for pairs in ([(0, 2), (0, 3)], [(0, 2)], [(0, 3)], [(1, 3), (0, 3)], [(1, 3)]):
                assert ta._shared(pairs) == [AArc(*p) for p in pairs]

    def test_the_table_starts_again_at_its_bound(self):
        with fresh_table(4):
            first = ta._shared([(0, 2), (0, 3), (1, 3)])
            assert len(ta._ARCS) == 3 and ta._shared([(0, 2)])[0] is first[0]
            assert ta._shared([(2, 4), (2, 5)]) == [AArc(2, 4), AArc(2, 5)]
            assert len(ta._ARCS) == 2
            # more arcs than the bound are built, and none is kept
            many = [(0, j) for j in range(2, 8)]
            assert ta._shared(many) == [AArc(*p) for p in many]
            assert set(ta._ARCS) == {(2, 4), (2, 5)}
            for m in range(6):
                assert ta.all_arcs(m) == [AArc(x.i, x.j) for x in old_all_arcs(m)]
                assert len(ta._ARCS) <= 4

    @settings(max_examples=100, deadline=None)
    @given(st.sets(line_arcs, max_size=8))
    def test_closures_hold_with_a_small_table(self, arcs):
        with fresh_table(5):
            assert ends(ta.left_closure(arcs)) == ends(old_left_closure(as_old(arcs)))
            assert ends(ta.right_closure(arcs)) == ends(old_right_closure(as_old(arcs)))
            assert len(ta._ARCS) <= 5

    @pytest.mark.parametrize("memo", ["arc-table", "names", "annulus"])
    def test_four_threads_share_it(self, memo):
        # a small bound, so that the threads clear the memo under each other
        module, name, bound, size, work, fresh = THREAD_CASES[memo]()
        start, wrong = threading.Barrier(4), []

        def run(k):
            start.wait(timeout=60)
            for ok in work(k):
                if not ok:
                    wrong.append(k)
                if size(shared) > bound:
                    wrong.append(size(shared))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's stores too
        try:
            with mock.patch.object(module, name, _Memo(bound)) as shared:
                threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                held = dict(shared)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert size(held) <= bound and all(fresh(key) == value for key, value in held.items())


def arc_table_case():
    """Closures of random arc sets, each against the reference."""
    cases = [
        {AArc(*sorted(rng.sample(range(-4, 10), 2))) for _ in range(6)}
        for rng in map(random.Random, range(40))
    ]
    wants = [(ends(old_left_closure(as_old(c))), ends(old_right_closure(as_old(c)))) for c in cases]

    def work(k):
        for _ in range(50):
            for c, want in zip(cases[k::4], wants[k::4]):
                got = ta.left_closure(c), ta.right_closure(c)
                yield (ends(got[0]), ends(got[1])) == want and all(type(x) is AArc for x in got[0] | got[1])

    return ta, "_ARCS", 24, len, work, lambda key: AArc(*key)


def names_case():
    """Batches of 5 arcs that no batch before named, each thread its own,
    printed and then read back at rank 7."""
    tube = Tube(7)

    def work(k):
        for r in range(3000):
            batch = [IndObj(s, s + 2) for s in range(20 * r + 5 * k, 20 * r + 5 * k + 5)]
            names = arcs_mod.format_finite(batch)
            yield names == [FINITE_ARC % x for x in batch]
            yield arcs_mod._parse_finite(tube, names) == ([tube.normalize(*x) for x in batch], None)

    def fresh(key):
        return FINITE_ARC % key if isinstance(key, tuple) else IndObj(*arcs_mod.parse_endpoints(key))

    return arcs_mod, "_NAMES", 24, len, work, fresh


def annulus_case():
    """Annulus drawings at ranks 1-6, each thread from its own start,
    against the drawings made before with a memo of its own."""
    specs = [
        render.RenderSpec("annulus", n, tuple((x, "summand") for x in Tube(n).finite_objects(n)))
        for n in range(1, 7)
    ]
    with mock.patch.object(render, "_PATHS", _Memo(render.MAX_PATH_CHARS)):
        wants = [render.render_svg(spec) for spec in specs]

    def work(k):
        for _ in range(10):
            for spec, want in zip(specs[k:] + specs[:k], wants[k:] + wants[:k]):
                yield render.render_svg(spec) == want

    def size(memo):
        return sum(len(d) + len(arrow) for _, d, arrow in memo.copy().values())

    def fresh(key):
        n, obj = key
        with mock.patch.object(render, "_PATHS", _Memo(0)):
            return render._frame(n) if obj is None else render._annulus_path(n, obj)

    return render, "_PATHS", 6000, size, work, fresh


THREAD_CASES = {"arc-table": arc_table_case, "names": names_case, "annulus": annulus_case}
