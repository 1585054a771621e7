"""The census path (enumeration, ``torsion_pair_of``, arc names) against the
code it replaced.

The reference below is the old code, copied unchanged: the adic half of
``iter_max_rigid`` reflects every Prufer-type object summand by summand,
``torsion_pair_of`` filters the finite summands and the family in separate
passes and takes one fan row (``tests/wings.py``) per array entry, and
``format_finite`` formats every arc it is given.  The new code places the
adic half wing by wing already mirrored, reads the summands in one pass,
takes each closure from one ``Tube.fans`` call, and reads names from a
bounded memo.  Hypothesis draws arbitrary ``MaxRigid`` values, invalid ones
included: the new refusals (a summand count other than n, a summand of the
other family) are asserted on their own, and so is the summand a refusal
names, the least one where the old code named the first in the set's
order; every other outcome must be the old one.

``torsion.iter_torsion_pairs`` builds the census pairs wing by wing, with
no ``torsion_pair_of`` call: ``TestPairsWingByWing`` holds it to
``torsion_pair_of`` of each enumerated object, pair by pair, in order.
Without hypothesis the property tests skip (``optional_hypothesis``), and
the others run.
"""

import contextlib
import io
import itertools
from functools import lru_cache
from typing import Dict, Iterable, Iterator, List, Tuple

import pytest

from tubecalc import arcs as arcs_mod
from tubecalc import cli, homs
from tubecalc import torsion as tor
from tubecalc import type_a
from wings import fan
from tubecalc.arcs import FINITE_ARC, IndObj, Tube, format_finite
from tubecalc.torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    everything,
)
from optional_hypothesis import given, settings, st
from tube_defs import reflect_rigid

# -- reference ---------------------------------------------------------------------


def _iter_prufer_type(tube: Tube, indices: Iterable[int]) -> Iterator[MaxRigid]:
    try:
        wings = tube.wing_intersection(indices)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    n = tube.n

    def place(base: int, arc: type_a.AArc) -> IndObj:
        start = (base + arc.i) % n
        return IndObj(start, start + arc.j - arc.i)

    prufers = [IndObj(w.start, None) for w in wings]
    placed = [
        [[place(w.start, a) for a in tilting] for tilting in type_a.enumerate_tilting(w.end - w.start - 1)]
        for w in wings
    ]
    for combo in itertools.product(*placed):
        yield MaxRigid(frozenset(itertools.chain(prufers, *combo)), PRUFER)


def _prufer_side(tube: Tube) -> Iterator[MaxRigid]:
    for size in range(1, tube.n + 1):
        for idx in itertools.combinations(range(tube.n), size):
            yield from _iter_prufer_type(tube, idx)


def iter_max_rigid(tube: Tube) -> Iterator[MaxRigid]:
    yield from _prufer_side(tube)
    for u in _prufer_side(tube):
        yield reflect_rigid(tube, u)


def _reach_low(n: int, objs) -> Tuple[Dict[int, int], Dict[int, int]]:
    try:
        spans = [(s % n, e % n, e - s) for s, e in objs]
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return (
        type_a._reach([(s, s + d) for s, _, d in spans]),
        type_a._low([(r - d, r) for _, r, d in spans]),
    )


def _closure_side(
    tube: Tube, bound: Dict[int, int], quotients: bool, shift: int = 0,
    rays=frozenset(), corays=frozenset(),
) -> SubcatDesc:
    n = tube.n
    if len(rays) == n or len(corays) == n:
        return everything(tube)
    skip = rays | corays
    arcs = []
    for a, b in bound.items():
        if a not in skip:
            arcs += fan(tube, (a + shift) % n, a - b if quotients else b - a, at_end=quotients)
    return SubcatDesc(frozenset(arcs), rays, corays)


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    n = tube.n
    reach, low = _reach_low(n, [x for x in rigid.summands if None not in x])
    for s, e in reach.items():
        if e - s > n:  # an arc spanning more than n crosses its own lift
            raise ValidationError(f"summand {IndObj(s, e)} spans more than {n}, so it is not rigid")
    if rigid.kind == PRUFER:
        rays = frozenset(s % n for s, e in rigid.summands if e is None)
        if not rays:
            raise ValidationError("Prufer-type object has no Prufer summand")
        return TorsionPair(
            _closure_side(tube, low, quotients=True, shift=1),
            _closure_side(tube, reach, quotients=False, rays=rays),
            RAY,
        )
    if rigid.kind == ADIC:
        corays = frozenset(e % n for s, e in rigid.summands if s is None)
        if not corays:
            raise ValidationError("adic-type object has no adic summand")
        return TorsionPair(
            _closure_side(tube, low, quotients=True, corays=corays),
            _closure_side(tube, reach, quotients=False, shift=-1),
            CORAY,
        )
    raise ValidationError(f"unknown kind {rigid.kind!r}")


def old_format_finite(objs) -> List[str]:
    return list(map(FINITE_ARC.__mod__, sorted(objs)))


# -- comparison ----------------------------------------------------------------------

N_MAX = 6


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return (type(exc).__name__, str(exc))


def new_refusal(tube: Tube, rigid: MaxRigid):
    """The refusal the old code did not make, as ``outcome`` reports it, or None."""
    n = tube.n
    if len(rigid.summands) != n:
        message = f"a maximal rigid object in rank {n} has {n} summands, got {len(rigid.summands)}"
        return ("ValidationError", message)
    name, other, is_stray = {
        PRUFER: ("Prufer", "adic", lambda x: x.start is None),
        ADIC: ("adic", "Prufer", lambda x: x.end is None),
    }[rigid.kind]
    strays = [x for x in rigid.summands if is_stray(x)]
    if strays:
        least = min(strays, key=arcs_mod.sort_key)
        return ("ValidationError", f"{name}-type object holds the {other} summand {least}")
    return None


def least_too_long(tube: Tube, rigid: MaxRigid):
    """The refusal of a summand spanning more than n, as ``outcome`` reports
    it, naming the longest summand at the least start among them, where the
    old code named the first in the set's order."""
    n = tube.n
    longest = {}
    for s, e in rigid.summands:
        if s is not None and e is not None:
            longest[s % n] = max(longest.get(s % n, 0), e - s)
    s = min(a for a, d in longest.items() if d > n)
    return ("ValidationError", f"summand {IndObj(s, s + longest[s])} spans more than {n}, so it is not rigid")


@lru_cache(maxsize=None)
def rigid_objects(n: int):
    return tor.enumerate_max_rigid(Tube(n))


@st.composite
def rigid_values(draw):
    """Arbitrary ``MaxRigid`` values: arcs in any lift (short, long and
    one-sided ones too), any number of them, any kind; sometimes a real
    maximal rigid object with a summand swapped, dropped or added.  One
    draw in six is its own edit: a real object with a summand swapped for
    one of the other family, its kind kept."""
    n = draw(st.integers(1, N_MAX))
    tube = Tube(n)
    finite = st.builds(
        lambda s, d: IndObj(s, s + d), st.integers(-2 * n, 2 * n), st.integers(0, 2 * n + 2)
    )
    one_sided = st.one_of(
        st.builds(lambda s: IndObj(s, None), st.integers(-n, 2 * n)),
        st.builds(lambda e: IndObj(None, e), st.integers(-n, 2 * n)),
    )
    arc = st.one_of(finite, one_sided)
    kind = draw(st.sampled_from([PRUFER, ADIC, PRUFER, ADIC, "ray"]))
    if draw(st.integers(0, 5)) == 0:
        objects = rigid_objects(n)
        u = objects[draw(st.integers(0, len(objects) - 1))]
        s = draw(st.integers(-n, 2 * n))
        summands = set(u.summands) - {draw(st.sampled_from(sorted(u.summands, key=arcs_mod.sort_key)))}
        summands.add(IndObj(None, s) if u.kind == PRUFER else IndObj(s, None))
        return tube, MaxRigid(frozenset(summands), u.kind)
    if draw(st.booleans()):
        objects = rigid_objects(n)
        summands = set(objects[draw(st.integers(0, len(objects) - 1))].summands)
        for _ in range(draw(st.integers(0, 2))):
            if summands and draw(st.booleans()):
                summands.discard(draw(st.sampled_from(sorted(summands, key=arcs_mod.sort_key))))
            if draw(st.booleans()):
                summands.add(draw(arc))
    else:
        summands = draw(st.sets(arc, max_size=n + 2))
    return tube, MaxRigid(frozenset(summands), kind)


class TestEnumeration:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_same_objects_in_the_same_order(self, n):
        tube = Tube(n)
        new = tor.iter_max_rigid(tube)
        for old_u, new_u in itertools.zip_longest(iter_max_rigid(tube), new):
            assert new_u == old_u

    def test_census_reflects_no_object(self, monkeypatch):
        calls = {"Tube.reflect": 0}

        def counted(name, fn):
            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return wrapper

        monkeypatch.setattr(Tube, "reflect", counted("Tube.reflect", Tube.reflect))
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["pairs", "enumerate", "--rank", "6"]) == 0
        assert out.getvalue().count("\n") == tor.count_max_rigid(Tube(6))
        assert calls == {"Tube.reflect": 0}
        # the counter sees calls when there are some
        reflect_rigid(Tube(2), MaxRigid(frozenset({IndObj(0, None)}), PRUFER))
        assert calls == {"Tube.reflect": 1}


class TestPairsWingByWing:
    @pytest.mark.parametrize("n", range(1, 9))
    def test_each_pair_is_torsion_pair_of_its_object(self, n):
        # n = 1 has only the full families, whose pairs hold the whole tube
        tube = Tube(n)
        expected = [tor.torsion_pair_of(tube, u) for u in tor.iter_max_rigid(tube)]
        assert list(tor.iter_torsion_pairs(tube)) == expected

    def test_census_takes_no_pair_of_an_object(self, monkeypatch):
        def refused(*args):
            raise AssertionError("the census called torsion_pair_of")

        monkeypatch.setattr(cli, "torsion_pair_of", refused)
        monkeypatch.setattr(tor, "torsion_pair_of", refused)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(["pairs", "enumerate", "--rank", "5", "--json"]) == 0
        assert out.getvalue().count('"kind"') == tor.count_max_rigid(Tube(5))


class TestTorsionPairOf:
    @settings(max_examples=600, deadline=None)
    @given(rigid_values())
    def test_arbitrary_objects(self, case):
        tube, rigid = case
        old = outcome(torsion_pair_of, tube, rigid)
        new = outcome(tor.torsion_pair_of, tube, rigid)
        if isinstance(old, TorsionPair) and rigid.kind in (PRUFER, ADIC):
            refusal = new_refusal(tube, rigid)
            if refusal is not None:
                assert new == refusal
                return
        if isinstance(old, tuple) and "spans more than" in old[1]:
            assert new == least_too_long(tube, rigid)
            return
        assert new == old

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_maximal_rigid_object(self, n):
        tube = Tube(n)
        for u in tor.iter_max_rigid(tube):
            assert tor.torsion_pair_of(tube, u) == torsion_pair_of(tube, u)

    def test_new_refusals(self):
        t3 = Tube(3)
        fin = [t3.finite(0, 2), t3.finite(0, 3)]
        cases = [
            (MaxRigid(frozenset({t3.prufer(0), *fin[:1]}), PRUFER), "rank 3 has 3 summands, got 2"),
            (
                MaxRigid(frozenset({t3.prufer(0), t3.adic(0), *fin}), PRUFER),
                r"rank 3 has 3 summands, got 4",
            ),
            (
                MaxRigid(frozenset({t3.prufer(0), t3.adic(2), fin[0]}), PRUFER),
                r"Prufer-type object holds the adic summand M\[-inf,2\]",
            ),
            (
                MaxRigid(frozenset({t3.adic(1), t3.prufer(2), fin[0]}), ADIC),
                r"adic-type object holds the Prufer summand M\[2,inf\]",
            ),
        ]
        for rigid, message in cases:
            assert isinstance(torsion_pair_of(t3, rigid), TorsionPair)  # the old code answered
            with pytest.raises(ValidationError, match=message):
                tor.torsion_pair_of(t3, rigid)

    def test_crossing_summands_are_trusted(self):
        # not refused: the pair is wrong, and is_torsion_pair says so
        t3 = Tube(3)
        rigid = MaxRigid(frozenset({t3.prufer(0), t3.finite(0, 2), t3.finite(1, 3)}), PRUFER)
        assert not tor.is_torsion_pair(t3, tor.torsion_pair_of(t3, rigid))


@st.composite
def one_family_sets(draw):
    """n distinct summands of one family, with a summand of it: arbitrary
    arcs spanning 2 to 2n+1 and one-sided arcs of the family, or a real
    maximal rigid object with one or two summands swapped for such arcs."""
    n = draw(st.integers(1, N_MAX))
    tube = Tube(n)
    kind = draw(st.sampled_from([PRUFER, ADIC]))
    one_sided = tube.prufer if kind == PRUFER else tube.adic
    pool = [tube.normalize(s, s + d) for s in range(n) for d in range(2, 2 * n + 2)]
    pool += [one_sided(i) for i in range(n)]
    summands = set()
    if draw(st.booleans()):
        objects = [u for u in rigid_objects(n) if u.kind == kind]
        summands = set(objects[draw(st.integers(0, len(objects) - 1))].summands)
        for _ in range(min(n, draw(st.integers(1, 2)))):
            summands.discard(draw(st.sampled_from(sorted(summands, key=arcs_mod.sort_key))))
    for x in draw(st.permutations(pool)):
        if len(summands) < n:
            summands.add(x)
    if all(x.is_finite for x in summands):
        summands.discard(draw(st.sampled_from(sorted(summands, key=arcs_mod.sort_key))))
        summands.add(one_sided(draw(st.integers(0, n - 1))))
    return tube, MaxRigid(frozenset(summands), kind)


def rigid_by_pair(tube: Tube, rigid: MaxRigid) -> bool:
    """Rigidity read through the bijection: whether the pair is a torsion pair."""
    try:
        pair = tor.torsion_pair_of(tube, rigid)
    except ValidationError as exc:
        assert "spans more than" in str(exc)  # the only refusal of such a set
        return False
    return tor.is_torsion_pair(tube, pair)


class TestRigidityThroughTheBijection:
    """n distinct summands of one family are maximal rigid iff their pair is
    a torsion pair (the ``torsion_pair_of`` docstring has the proof)."""

    @settings(max_examples=600, deadline=None)
    @given(one_family_sets())
    def test_arbitrary_one_family_sets(self, case):
        tube, rigid = case
        assert len(rigid.summands) == tube.n
        assert rigid_by_pair(tube, rigid) == homs.is_rigid(tube, rigid.summands)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_maximal_rigid_object(self, n):
        tube = Tube(n)
        for u in rigid_objects(n):
            assert rigid_by_pair(tube, u) and homs.is_rigid(tube, u.summands)


class TestFans:
    @settings(max_examples=300, deadline=None)
    @given(
        st.integers(1, N_MAX).flatmap(
            lambda n: st.tuples(
                st.just(n),
                st.dictionaries(st.integers(-n, 2 * n), st.integers(0, 3 * n + 2), max_size=n),
                st.booleans(),
            )
        )
    )
    def test_fans_is_fan_per_entry(self, case):
        n, spans, at_end = case
        tube, fresh = Tube(n), Tube(n)
        want = [x for a, longest in spans.items() for x in fan(fresh, a, longest, at_end)]
        assert tube.fans(spans, at_end) == want
        assert tube.fans(spans, at_end) == want  # read from the grown rows


    def test_a_span_below_two_lists_nothing(self):
        tube = Tube(1)
        fan(tube, 0, 4)
        assert fan(tube, 0, 0) == [] and fan(tube, 0, 1) == []
        assert tube.fans({0: 0, 1: 1, 2: -3}) == []


class TestNames:
    @settings(max_examples=300, deadline=None)
    @given(st.sets(st.builds(lambda s, d: IndObj(s, s + d), st.integers(-50, 50), st.integers(2, 60))))
    def test_names_are_the_formatted_arcs(self, objs):
        assert format_finite(objs) == old_format_finite(objs)
        assert format_finite(frozenset(objs)) == old_format_finite(objs)

    def test_memo_stays_bounded(self):
        bound = arcs_mod.MAX_NAMES
        for start in range(0, 3 * bound, 500):
            batch = [IndObj(s, s + 2) for s in range(start, start + 500)]
            assert format_finite(batch) == old_format_finite(batch)
            assert len(arcs_mod._NAMES) <= bound
        too_many = [IndObj(s, s + 3) for s in range(bound + 1)]
        assert format_finite(too_many) == old_format_finite(too_many)
        assert len(arcs_mod._NAMES) <= bound

    def test_printing_and_reading_share_the_bound(self):
        """Names printed and names read are kept in one memo, which never
        passes ``MAX_NAMES``; a name read at one rank is read again at
        another, lifted."""
        bound, ranks = arcs_mod.MAX_NAMES, [Tube(5), Tube(7)]
        for start in range(-bound, 2 * bound, 500):
            batch = [IndObj(s, s + 2 + s % 4) for s in range(start, start + 500)]
            names = format_finite(batch)
            for tube in ranks:
                want = [arcs_mod.parse_obj(tube, name) for name in names]
                assert arcs_mod._parse_finite(tube, names) == (want, None)
                assert len(arcs_mod._NAMES) <= bound
        for key, value in arcs_mod._NAMES.items():
            assert value == (FINITE_ARC % key if isinstance(key, tuple) else IndObj(*arcs_mod.parse_endpoints(key)))

    def test_a_document_past_the_bound_reads_as_before(self):
        bound, tube = arcs_mod.MAX_NAMES, Tube(5)
        names = [FINITE_ARC % (s, s + d) for s in range(-5, 5) for d in range(2, 2 + (bound + 9) // 10)]
        assert len(set(names)) > bound
        want = [arcs_mod.parse_obj(tube, name) for name in names]
        assert arcs_mod._parse_finite(tube, names[:100]) == (want[:100], None)
        for _ in range(2):  # the first 100 names held, then none of the rest
            assert arcs_mod._parse_finite(tube, names) == (want, None)
            assert len(arcs_mod._NAMES) <= bound
