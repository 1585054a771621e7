"""The tube's closures, perps, quotient check and inverse bijection against
the code they replaced.

The reference below is the old code, copied unchanged: ``_reach_low`` fills
one list per array, indexed by residue; ``right_perp`` walks every quotient
of every listed arc and every start per coray, and normalizes each arc of
its result; ``is_quotient_closed`` looks up every quotient of every listed
arc; ``_ext_projectives`` walks every wing of F and reads ``reach`` there.
The new code reads the same facts off ``type_a``'s ``low`` and ``reach``.
Hypothesis draws arcs in any lift, arbitrary descriptors (also ones that
list arcs ending at their corays, which ``make_desc`` would drop),
closures, and torsion pairs with a few items toggled.

The validators have a second reference, also copied unchanged: the
``left_perp`` that reflected the descriptor, took its ``right_perp`` and
reflected back, and the ``is_torsion_pair`` that compared both perps with
the pair.  The new ones read the cyclic ``minend`` and ``maxstart`` off the
arrays and count, with no perp built.  They are compared on raw
``SubcatDesc`` values too: arcs in any lift, spans below 2 and above n,
one-sided arcs, both families, and real pairs with such an item added.

The Ptolemy check has a third reference, also copied unchanged: the
``is_ext_closed`` that walked every ordered pair of listed arcs, took the
crossing lifts from ``homs.neg_crossing_shifts`` and resolved each with
the segment's middle terms, ``ses_middle`` (once in ``type_a``, now in
``tests/segment_defs.py``).  The crossing lifts are copied too, as
``homs.neg_crossing_shifts`` read them before it refused a finite pair that
is no arc, since the raw descriptors list such pairs.  The new one indexes the listed spans by end
residue and visits each crossing once, by its end.  They are compared on
canonical descriptors, on every side of every pair at n <= 5, and on raw
ones; a listed one-sided arc is left out of the comparison, since the old
answer there depended on which pair the set yielded first.

The inverse has a second reference, also copied unchanged: the
``max_rigid_of`` that took the Ext-projectives of tau T by ``type_a``'s
running-minimum scan over every start of every end, read with period n,
and for coray type ran it on the reflected pair and reflected the object
back.  The new one reads each summand as the longest arc at its start or
at its end, off one side of the pair.  They are compared on every pair at
n <= 6 and its reflection, on ``raw_pairs`` and on perturbed pairs, where
an invalid pair must raise the same error.

The validator, the inverse and ``right_perp`` have one more reference,
also copied unchanged: the ``_least_spans`` that swept a stack over the
2n - 1 lifted anchors of ``low`` or ``reach``, and the ``is_torsion_pair``,
``max_rigid_of`` and ``right_perp`` that read ``minend`` and ``maxstart``
with it.  The new ``is_torsion_pair`` refuses a torsion side that does not
number its quotient closure, then reads both sides' spans off their listed
arcs, and ``right_perp`` off the quotient closure it builds.  They are
compared on raw descriptors and pairs, and on every swap of one listed arc
of either side of every pair at n <= 4 for another arc spanning at most 2n.
Random pairs almost never hit a swap that the new quotient check refuses.

The validator, the inverse and ``right_perp`` have a last reference, also
copied unchanged: the code that read each side in four passes (``_bound``,
the closure count, ``_is_canonical`` and ``_least_spans``, whose family walk
ran inside it) and then read the inverse's side three more times.  The new
code reads a side once with ``_read_side`` and walks a family with
``_family_walk``; the inverse builds its one-sided summands directly.  The
earlier references above read ``_bound`` and ``_is_canonical`` from these
copies.  They are compared on raw pairs, raw descriptors of both kinds,
perturbed pairs and every one-arc swap at n <= 4, on three lifts: the same
value, or the same exception and message.

Both directions of the bijection have one more reference, copied unchanged
but for their names: the ``torsion_pair_of`` with one ``return`` per kind,
and the ``max_rigid_of`` that read a ray-type object off F (its ``reach``
and ``maxstart``) and a coray-type one off T.  The new code writes the kind
as a power of tau, k = 1 for Prufer (ray) type and k = 0 for adic (coray)
type, and inverts both kinds off T with ``type_a._longest_arcs``.  They are
compared on arbitrary ``MaxRigid`` values (``rigid_values``: crossing
summands, mixed families, wrong counts, any lift) and the pairs they give,
on ``raw_pairs`` (non-pairs included), and on every object at n <= 6 and
its pair: the same value, or the same exception type and message.

The validator has a last reference, copied unchanged but for its name
and the module of its helpers: the ``is_torsion_pair`` that read F with
the subobject mode of a two-mode ``_read_side``, for F's ``reach``, and
compared that with T's ``minend``.  The new one checks F's count first and
then reads F in one pass, arc by arc, as a part of T^perp; the library's
``_read_side`` reads quotients only.  The two-mode reader is copied too
(``read_side_two_modes``), and the earlier references that called the
library's reader with ``quotients=`` call the copy.  They are compared on
``free_items`` (``raw_pairs`` and real pairs with an item on F that lies in
no perp: a one-sided arc, an arc at one of F's rays, a 3-tuple), on raw
descriptors of both kinds and on every one-arc swap at n <= 4, on three
lifts: the same value, or the same exception type and message.

Without hypothesis the property tests skip (``optional_hypothesis``), and
the others run.
"""

import math
from functools import lru_cache
from typing import Dict, List, Tuple

import pytest

from tubecalc import torsion as tor
from tubecalc import type_a
from tubecalc.arcs import IndObj, Tube, sort_key
import tube_defs
from cover import lift
from segment_defs import ses_middle
from wings import fan
from tubecalc.torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    classify_kind,
    contains,
    empty_desc,
    everything,
    make_desc,
    reflect_desc,
)
from optional_hypothesis import example, given, needs_hypothesis, settings, st
from test_census_reference import rigid_values
from tube_defs import reflect_rigid

# -- reference ---------------------------------------------------------------------


def _reach_low(n: int, objs) -> Tuple[List[int], List[int]]:
    reach = list(range(1, n + 1))
    low = list(range(-1, n - 1))
    try:
        for start, end in objs:
            span = end - start
            s = start % n
            r = (s + span) % n
            if reach[s] < s + span:
                reach[s] = s + span
            if low[r] > r - span:
                low[r] = r - span
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return reach, low


def _closure_arcs(
    tube: Tube, bound: List[int], quotients: bool, shift: int = 0, skip=()
) -> List[IndObj]:
    n = tube.n
    out = []
    for a in range(n):
        longest = a - bound[a] if quotients else bound[a] - a
        if longest > 1 and a not in skip:
            out += fan(tube, (a + shift) % n, longest, at_end=quotients)
    return out


def left_closure(tube: Tube, objs) -> frozenset:
    _, low = _reach_low(tube.n, objs)
    return frozenset(_closure_arcs(tube, low, quotients=True))


def right_closure(tube: Tube, objs) -> frozenset:
    reach, _ = _reach_low(tube.n, objs)
    return frozenset(_closure_arcs(tube, reach, quotients=False))


def is_quotient_closed(tube: Tube, desc: SubcatDesc) -> bool:
    if desc.rays:
        return desc == everything(tube)
    return all(
        contains(tube, desc, tube.normalize(i, x.end))
        for x in desc.finite_objs for i in range(x.start + 1, x.end - 1)
    )


def is_sub_closed(tube: Tube, desc: SubcatDesc) -> bool:
    return is_quotient_closed(tube, reflect_desc(tube, desc))


def right_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    shortest = [math.inf] * n
    for j in desc.corays:
        for s in range(n):
            shortest[s] = min(shortest[s], (j - s - 2) % n + 1)
    for x in desc.finite_objs:
        for i in range(max(x.start, x.end - 1 - n), x.end - 1):
            shortest[i % n] = min(shortest[i % n], x.end - i - 1)
    rays_out = [s for s in range(n) if shortest[s] == math.inf]
    fin = [
        tube.normalize(s, s + l + 1)
        for s in range(n) if shortest[s] < math.inf
        for l in range(1, shortest[s])
    ]
    return make_desc(tube, fin, rays_out)


def left_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    return reflect_desc(tube, right_perp(tube, reflect_desc(tube, desc)))


def is_torsion_pair(tube: Tube, pair: TorsionPair) -> bool:
    t, f = pair.t_part, pair.f_part
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    return right_perp(tube, t) == f and left_perp(tube, f) == t


def _closure_side(
    tube: Tube, bound: List[int], quotients: bool, shift: int = 0,
    rays=frozenset(), corays=frozenset(),
) -> SubcatDesc:
    if len(rays) == tube.n or len(corays) == tube.n:
        return everything(tube)
    arcs = _closure_arcs(tube, bound, quotients, shift, skip=rays | corays)
    return SubcatDesc(frozenset(arcs), rays, corays)


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    n = tube.n
    reach, low = _reach_low(n, [x for x in rigid.summands if None not in x])
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


def _ext_projectives(tube: Tube, f_part: SubcatDesc) -> MaxRigid:
    n = tube.n
    reach, _ = _reach_low(n, f_part.finite_objs)
    for i in f_part.rays:
        reach[i] = math.inf

    def reach_at(c: int) -> float:
        return reach[c % n] + c - c % n

    keep = [tube.prufer(i) for i in f_part.rays]
    for w in tube.wing_intersection(f_part.rays):
        for s in range(w.start, w.end - 1):
            inner = s + 1  # max reach over the starts strictly inside [s, e]
            for e in range(s + 2, w.end + 1):
                if e > reach_at(s):
                    break
                inner = max(inner, reach_at(e - 1))
                if inner <= e:
                    keep.append(tube.normalize(s, e))
    return MaxRigid(frozenset(keep), PRUFER)


def max_rigid_of(tube: Tube, pair: TorsionPair) -> MaxRigid:
    if not is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    if pair.kind == RAY:
        return _ext_projectives(tube, pair.f_part)
    return reflect_rigid(tube, _ext_projectives(tube, reflect_desc(tube, pair.t_part)))


# -- comparison ----------------------------------------------------------------------

N_MAX = 6


def outcome(fn, *args):
    """The value, or the ValueError's type and message."""
    try:
        return fn(*args)
    except ValueError as exc:
        return (type(exc).__name__, str(exc))


def assert_desc_matches(tube: Tube, desc: SubcatDesc) -> None:
    assert tor.is_quotient_closed(tube, desc) == is_quotient_closed(tube, desc)
    assert tor.is_sub_closed(tube, desc) == is_sub_closed(tube, desc)
    assert tor.right_perp(tube, desc) == right_perp(tube, desc)
    assert tor.left_perp(tube, desc) == left_perp(tube, desc)


def assert_pair_matches(tube: Tube, pair: TorsionPair) -> None:
    assert tor.is_torsion_pair(tube, pair) == is_torsion_pair(tube, pair)
    assert outcome(tor.max_rigid_of, tube, pair) == outcome(max_rigid_of, tube, pair)


@st.composite
def lifted_arcs(draw, n: int, max_size: int = 8):
    """Finite arcs in any lift, up to 3n+2 long, as unnormalized tuples."""
    spans = st.tuples(st.integers(-3 * n, 3 * n), st.integers(2, 3 * n + 2))
    return [IndObj(s, s + d) for s, d in draw(st.lists(spans, max_size=max_size))]


def indices(n: int):
    return st.frozensets(st.integers(0, n - 1), max_size=n)


@st.composite
def descriptors(draw, n=None):
    """A ``make_desc`` descriptor of arbitrary arcs and families, sometimes
    of their quotient or subobject closure, or its right or left perp."""
    tube = Tube(n or draw(st.integers(1, N_MAX)))
    arcs = draw(lifted_arcs(tube.n))
    closure = draw(st.sampled_from([None, tube_defs.left_closure, tube_defs.right_closure]))
    if closure is not None:
        arcs = closure(tube, arcs)
    desc = make_desc(tube, arcs, draw(indices(tube.n)), draw(indices(tube.n)))
    perp = draw(st.sampled_from([None, tor.right_perp, tor.left_perp]))
    return tube, desc if perp is None else perp(tube, desc)


@st.composite
def raw_descriptors(draw):
    """Normalized arcs and corays with no rays, kept as drawn: arcs that end
    at a coray are listed too."""
    tube = Tube(draw(st.integers(1, N_MAX)))
    arcs = draw(lifted_arcs(tube.n))
    if draw(st.booleans()):
        arcs = tube_defs.left_closure(tube, arcs)
    arcs = frozenset(tube.normalize(*x) for x in arcs)
    return tube, SubcatDesc(arcs, frozenset(), draw(indices(tube.n)))


@lru_cache(maxsize=None)
def rigid_objects(n: int):
    return tor.enumerate_max_rigid(Tube(n))


@st.composite
def perturbed_pairs(draw):
    """The pair of a maximal rigid object with up to three arcs, rays or
    corays toggled on either side, and sometimes the kind flipped."""
    n = draw(st.integers(1, N_MAX - 1))
    tube = Tube(n)
    objects = rigid_objects(n)
    pair = tor.torsion_pair_of(tube, objects[draw(st.integers(0, len(objects) - 1))])
    sides = [pair.t_part, pair.f_part]
    for _ in range(draw(st.integers(0, 3))):
        k = draw(st.integers(0, 1))
        side = sides[k]
        fins, rays, corays = set(side.finite_objs), set(side.rays), set(side.corays)
        what = draw(st.sampled_from(["arc", "family"]))
        if what == "arc":
            s, d = draw(st.integers(0, n - 1)), draw(st.integers(2, 2 * n + 1))
            fins ^= {IndObj(s, s + d)}
        else:
            (corays if k == 0 else rays).symmetric_difference_update({draw(st.integers(0, n - 1))})
        sides[k] = make_desc(tube, fins, rays, corays)
    kind = pair.kind
    if draw(st.integers(0, 4)) == 0:
        kind = RAY if kind == CORAY else CORAY
    return tube, TorsionPair(sides[0], sides[1], kind)


class TestClosures:
    @settings(max_examples=400, deadline=None)
    @given(st.integers(1, N_MAX).flatmap(lambda n: st.tuples(st.just(n), lifted_arcs(n, 12))))
    def test_closures_of_arcs_in_any_lift(self, case):
        n, arcs = case
        tube = Tube(n)
        assert tube_defs.left_closure(tube, arcs) == left_closure(tube, arcs)
        assert tube_defs.right_closure(tube, arcs) == right_closure(tube, arcs)

    def test_one_sided_arcs_refused(self):
        tube = Tube(3)
        for arcs in ([IndObj(0, None)], [IndObj(0, 3), IndObj(None, 2)]):
            for new, old in ((tube_defs.left_closure, left_closure), (tube_defs.right_closure, right_closure)):
                assert outcome(new, tube, arcs) == outcome(old, tube, arcs)
                assert outcome(new, tube, arcs)[0] == "ValueError"


class TestDescriptors:
    @settings(max_examples=500, deadline=None)
    @given(descriptors())
    def test_canonical_descriptors(self, case):
        assert_desc_matches(*case)

    @settings(max_examples=300, deadline=None)
    @given(raw_descriptors())
    def test_descriptors_listing_arcs_at_their_corays(self, case):
        assert_desc_matches(*case)

    def test_strategies_reach_both_answers(self):
        # a closed descriptor with corays, and an arc at a coray whose
        # quotients are members only through the coray
        tube = Tube(3)
        closed = make_desc(tube, tube_defs.left_closure(tube, [IndObj(0, 5)]), corays=[1])
        assert is_quotient_closed(tube, closed) and tor.is_quotient_closed(tube, closed)
        raw = SubcatDesc(frozenset([IndObj(0, 4)]), frozenset(), frozenset([1]))
        assert is_quotient_closed(tube, raw) and tor.is_quotient_closed(tube, raw)
        assert not tor.is_quotient_closed(tube, make_desc(tube, [IndObj(0, 4)]))


class TestBijection:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_object(self, n):
        tube = Tube(n)
        for u in rigid_objects(n):
            pair = torsion_pair_of(tube, u)
            assert tor.torsion_pair_of(tube, u) == pair
            assert tor.max_rigid_of(tube, pair) == max_rigid_of(tube, pair) == u

    @settings(max_examples=400, deadline=None)
    @given(perturbed_pairs())
    def test_perturbed_pairs(self, case):
        assert_pair_matches(*case)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, N_MAX).flatmap(lambda n: st.tuples(descriptors(n), descriptors(n))))
    def test_arbitrary_descriptor_pairs(self, case):
        (tube, t_part), (_, f_part) = case
        for kind in (RAY, CORAY):
            assert_pair_matches(tube, TorsionPair(t_part, f_part, kind))


# -- the validators before they read arrays ------------------------------------------


def _reach_low_arrays(n: int, objs):
    try:
        spans = [(s % n, e % n, e - s) for s, e in objs]
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return (
        type_a._reach([(s, s + d) for s, _, d in spans]),
        type_a._low([(r - d, r) for _, r, d in spans]),
    )


def right_perp_by_shortest(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    _, low = _reach_low_arrays(n, desc.finite_objs)
    low.update(dict.fromkeys(desc.corays, -math.inf))
    shortest = {}
    for j, a in low.items():
        for i in range(max(a, j - 1 - n), j - 1):
            if shortest.get(i % n, math.inf) > j - i - 1:
                shortest[i % n] = j - i - 1
    reach = {s: s + l for s, l in shortest.items()}
    rays = frozenset(range(n)).difference(reach)
    # the parent passed the dict to the library's _closure_side; this file's takes a list
    return _closure_side(tube, [reach.get(a, a + 1) for a in range(n)], quotients=False, rays=rays)


def left_perp_by_reflection(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    return reflect_desc(tube, right_perp_by_shortest(tube, reflect_desc(tube, desc)))


def is_torsion_pair_by_perps(tube: Tube, pair: TorsionPair) -> bool:
    t, f = pair.t_part, pair.f_part
    if sum(len(d.finite_objs) + len(d.rays) + len(d.corays) for d in (t, f)) < tube.n:
        return False
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    return right_perp_by_shortest(tube, t) == f and left_perp_by_reflection(tube, f) == t


@st.composite
def raw_subcats(draw, n: int):
    """A ``SubcatDesc`` as drawn, never made canonical: arcs in any lift
    with spans from -1 to 3n+2, now and then a one-sided arc, and any rays
    and corays, both families at once included."""
    spans = st.tuples(st.integers(-3 * n, 3 * n), st.integers(-1, 3 * n + 2))
    arcs = {IndObj(s, s + d) for s, d in draw(st.lists(spans, max_size=6))}
    if draw(st.integers(0, 5)) == 0:
        i = draw(st.integers(-n, 2 * n))
        arcs.add(IndObj(i, None) if draw(st.booleans()) else IndObj(None, i))
    return SubcatDesc(frozenset(arcs), draw(indices(n)), draw(indices(n)))


@st.composite
def raw_family_subcats(draw, n: int):
    """``raw_subcats`` with no family, rays only, corays only or both, each
    as often: drawn independently, both families would come most often."""
    desc = draw(raw_subcats(n))
    rays, corays = draw(st.sampled_from([(False, False), (True, False), (False, True), (True, True)]))
    return SubcatDesc(
        desc.finite_objs, desc.rays if rays else frozenset(), desc.corays if corays else frozenset()
    )


def on_one_rank(*strategies):
    """A rank n <= N_MAX, then one draw of each strategy at that rank."""
    return st.integers(1, N_MAX).flatmap(lambda n: st.tuples(st.just(n), *(s(n) for s in strategies)))


@st.composite
def raw_edits(draw, tube: Tube, desc: SubcatDesc, family: str):
    """The descriptor with one raw item: another lift of a listed arc, an
    arc at one of its own families, a short or one-sided arc, an index of
    the side's own ``family`` ("rays" or "corays") added or dropped, as the
    ``invert_reject`` benchmark corrupts rays, or an index of the other
    family; sometimes in place of a listed arc, so that the side still
    numbers what a count identity expects."""
    n = tube.n
    fins, rays, corays = set(desc.finite_objs), set(desc.rays), set(desc.corays)
    own, other = (rays, corays) if family == "rays" else (corays, rays)
    if fins and draw(st.booleans()):
        fins.discard(draw(st.sampled_from(sorted(fins))))
    what = draw(st.sampled_from(["lift", "at_family", "short", "one_sided", "add_own", "drop_own", "other"]))
    s = draw(st.integers(0, n - 1))
    if what == "lift" and desc.finite_objs:
        x = draw(st.sampled_from(sorted(desc.finite_objs)))
        k = draw(st.sampled_from([-1, 1, 2]))
        fins.add(IndObj(x.start + k * n, x.end + k * n))
    elif what == "at_family" and (rays or corays):
        d = draw(st.integers(2, 2 * n + 1))
        fins.add(IndObj(min(rays), min(rays) + d) if rays else tube.normalize(min(corays) - d, min(corays)))
    elif what == "short":
        fins.add(IndObj(s, s + draw(st.integers(-1, 1))))
    elif what == "one_sided":
        fins.add(IndObj(s, None) if draw(st.booleans()) else IndObj(None, s))
    elif what == "other":
        other.add(s)
    elif what == "drop_own" and own:
        own.discard(draw(st.sampled_from(sorted(own))))
    else:  # add_own, or an edit above that found nothing to act on
        own.add(s)
    return SubcatDesc(frozenset(fins), frozenset(rays), frozenset(corays))


@st.composite
def raw_pairs(draw):
    """The pair of a maximal rigid object with either side kept, edited by
    ``raw_edits`` or replaced by ``raw_family_subcats``; the kind now and
    then flipped.  One draw in six is its own edit: T and the kind kept, a
    one-sided arc added to F's arcs, which lies in no perp."""
    n = draw(st.integers(1, N_MAX - 1))
    tube = Tube(n)
    objects = rigid_objects(n)
    pair = tor.torsion_pair_of(tube, objects[draw(st.integers(0, len(objects) - 1))])
    if draw(st.integers(0, 5)) == 0:
        s, f = draw(st.integers(0, n - 1)), pair.f_part
        arc = IndObj(s, None) if draw(st.booleans()) else IndObj(None, s)
        return tube, TorsionPair(pair.t_part, SubcatDesc(f.finite_objs | {arc}, f.rays, f.corays), pair.kind)
    sides = []
    for side, family in ((pair.t_part, "corays"), (pair.f_part, "rays")):
        how = draw(st.sampled_from(["keep", "edit", "edit", "raw"]))
        if how == "edit":
            side = draw(raw_edits(tube, side, family))
        elif how == "raw":
            side = draw(raw_family_subcats(n))
        sides.append(side)
    kind = pair.kind
    if draw(st.integers(0, 4)) == 0:
        kind = RAY if kind == CORAY else CORAY
    return tube, TorsionPair(sides[0], sides[1], kind)


def assert_validators_match(tube: Tube, pair: TorsionPair) -> None:
    assert outcome(tor.is_torsion_pair, tube, pair) == outcome(is_torsion_pair_by_perps, tube, pair)
    for desc in (pair.t_part, pair.f_part):
        assert outcome(tor.left_perp, tube, desc) == outcome(left_perp_by_reflection, tube, desc)
        assert outcome(tor.right_perp, tube, desc) == outcome(right_perp_by_shortest, tube, desc)


class TestValidatorsOnArrays:
    @settings(max_examples=500, deadline=None)
    @given(raw_pairs())
    def test_real_pairs_with_raw_items(self, case):
        assert_validators_match(*case)

    @settings(max_examples=400, deadline=None)
    @given(on_one_rank(raw_family_subcats, raw_family_subcats))
    def test_raw_descriptors_of_both_kinds(self, case):
        n, t_part, f_part = case
        for kind in (RAY, CORAY):
            assert_validators_match(Tube(n), TorsionPair(t_part, f_part, kind))

    @settings(max_examples=300, deadline=None)
    @given(perturbed_pairs())
    def test_perturbed_pairs(self, case):
        assert_validators_match(*case)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_and_its_reflection(self, n):
        tube = Tube(n)
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            for p in (pair, tube_defs.reflect_pair(tube, pair)):
                assert tor.is_torsion_pair(tube, p) and is_torsion_pair_by_perps(tube, p)
                assert tor.left_perp(tube, p.f_part) == p.t_part == left_perp_by_reflection(tube, p.f_part)

    def test_raw_items_make_the_old_answer_false_or_raise(self):
        """Hand-picked cases the strategies reach, each added to a real
        pair: another lift of a listed arc, an arc at the descriptor's own
        ray, a short arc, and one-sided arcs."""
        tube = Tube(3)
        u = next(v for v in rigid_objects(3) if v.kind == PRUFER and sum(x.is_prufer for x in v.summands) == 1)
        pair = tor.torsion_pair_of(tube, u)
        t, f = pair.t_part, pair.f_part
        x, ray = min(t.finite_objs), min(f.rays)
        assert tor.is_torsion_pair(tube, pair)
        for bad in (
            TorsionPair(SubcatDesc(t.finite_objs | {IndObj(x.start + 3, x.end + 3)}, t.rays, t.corays), f, RAY),
            TorsionPair(SubcatDesc(t.finite_objs | {IndObj(0, 1)}, t.rays, t.corays), f, RAY),
            TorsionPair(t, SubcatDesc(f.finite_objs | {IndObj(ray, ray + 2)}, f.rays, f.corays), RAY),
        ):
            assert not tor.is_torsion_pair(tube, bad) and not is_torsion_pair_by_perps(tube, bad)
        # a short arc in place of an arc whose start keeps a longer one
        tube4 = Tube(4)
        for v in rigid_objects(4):
            p4 = tor.torsion_pair_of(tube4, v)
            inner = [y for y in p4.f_part.finite_objs if IndObj(y.start, y.end + 1) in p4.f_part.finite_objs]
            if inner:
                fins = p4.f_part.finite_objs - {inner[0]} | {IndObj(inner[0].start, inner[0].start + 1)}
                bad4 = TorsionPair(p4.t_part, SubcatDesc(fins, p4.f_part.rays, p4.f_part.corays), p4.kind)
                assert not tor.is_torsion_pair(tube4, bad4) and not is_torsion_pair_by_perps(tube4, bad4)
                break
        else:
            pytest.fail("no pair at rank 4 lists two arcs at one start of F")
        bad_f = SubcatDesc(f.finite_objs | {IndObj(0, None)}, f.rays, f.corays)
        bad = TorsionPair(SubcatDesc(t.finite_objs | {IndObj(0, None)}, t.rays, t.corays), bad_f, RAY)
        assert outcome(tor.is_torsion_pair, tube, bad) == outcome(is_torsion_pair_by_perps, tube, bad)
        assert outcome(tor.is_torsion_pair, tube, bad)[0] == "ValueError"
        assert outcome(tor.left_perp, tube, bad_f) == outcome(left_perp_by_reflection, tube, bad_f)
        assert outcome(tor.left_perp, tube, bad_f)[0] == "ValidationError"


# -- the validator before it read the listed arcs ---------------------------------------


def _least_spans_by_stack(n: int, bound, family, quotients: bool) -> Dict[int, int]:
    """Per residue k, the least span d of an arc of the closure that
    ``bound`` fixes (see ``_closure_side``) whose free end lies at k: the
    end of a subobject [a, a + d] (bound = reach), or the start of a
    quotient [a - d, a] (bound = low, ``quotients``), read with period n.
    An anchor of the family (a ray, or a coray) has every span.  These are
    the cyclic ``k - maxstart[k]`` and ``minend[k] - k`` of ``type_a``.

    Quotients are read mirrored, a -> -a, as subobjects.  One sweep over the
    lifted anchors a = k - 2, k increasing, keeps a stack of those that may
    still reach a later k: the anchor on top is the latest, and one that a
    later anchor outreaches is dropped.  A span above n + 1 is never the
    least (the lift one period nearer is n shorter), so 2n steps cover
    every residue.
    """
    sign = -1 if quotients else 1
    longest = [0] * n  # per residue of an anchor
    for a, b in bound.items():
        longest[sign * a % n] = sign * (b - a)
    for a in family:
        longest[sign * a % n] = n + 1
    least: Dict[int, int] = {}
    stack: List[Tuple[int, int]] = []  # (anchor, its reach), reach decreasing upward
    # the anchors a = k - 2 for k = 1 - n, ..., n - 1 have residues n - 1, 0, 1, ...
    for k, m in zip(range(1 - n, n), longest[-1:] + longest + longest[:n - 2]):
        if m >= 2:
            a = k - 2
            while stack and stack[-1][1] <= a + m:
                stack.pop()
            stack.append((a, a + m))
        while stack and stack[-1][1] < k:
            stack.pop()
        if stack and k >= 0:
            least[sign * k % n] = k - stack[-1][0]
    return least


def right_perp_by_stack(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    low = _bound(n, desc.finite_objs, quotients=True)
    minend = _least_spans_by_stack(n, low, desc.corays, quotients=True)
    reach = {s: s + d - 1 for s, d in minend.items()}
    return tor._closure_side(tube, reach, quotients=False, rays=frozenset(range(n)).difference(reach))


def left_perp_by_stack(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    return reflect_desc(tube, right_perp_by_stack(tube, reflect_desc(tube, desc)))


def is_torsion_pair_by_stack(tube: Tube, pair: TorsionPair) -> bool:
    t, f = pair.t_part, pair.f_part
    n = tube.n
    if sum(len(d.finite_objs) + len(d.rays) + len(d.corays) for d in (t, f)) < n:
        return False
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    if t.rays:  # T^perp is 0, whose left perp is everything
        return f == empty_desc(tube) and t == everything(tube)
    low = _bound(n, t.finite_objs, quotients=True)  # raises as right_perp does
    minend = _least_spans_by_stack(n, low, t.corays, quotients=True)
    if not minend:  # T^perp is everything, whose left perp is 0
        return f == everything(tube) and t == empty_desc(tube)
    full = frozenset(range(n))
    if not _is_canonical(n, t.finite_objs) or f.corays or f.rays != full.difference(minend):
        return False
    try:
        reach = _bound(n, f.finite_objs, quotients=False)
    except ValueError:  # a one-sided arc lies in no perp
        return False
    if (
        not _is_canonical(n, f.finite_objs)
        or any(b - s >= minend.get(s, 0) for s, b in reach.items())
        or len(f.finite_objs) != sum(minend.values()) - 2 * len(minend)
    ):
        return False
    maxstart = _least_spans_by_stack(n, reach, f.rays, quotients=False)
    return (
        bool(maxstart)  # else perp-F is everything, which has rays
        and t.corays == full.difference(maxstart)
        and low.keys() <= maxstart.keys()  # no arc ends at a coray
        and len(t.finite_objs) == sum(maxstart.values()) - 2 * len(maxstart)
    )


def max_rigid_of_by_stack(tube: Tube, pair: TorsionPair) -> MaxRigid:
    if not is_torsion_pair_by_stack(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n = tube.n
    t, f = pair.t_part, pair.f_part
    if pair.kind == RAY:
        reach = _bound(n, f.finite_objs, quotients=False)
        maxstart = _least_spans_by_stack(n, reach, f.rays, quotients=False)
        arcs = list(reach.items())
        arcs += [(e - d, e - 1) for e, d in maxstart.items() if d > 2]
        family, kind = [tube.prufer(i) for i in f.rays], PRUFER
    else:
        low = _bound(n, t.finite_objs, quotients=True)
        minend = _least_spans_by_stack(n, low, t.corays, quotients=True)
        arcs = [(a, e) for e, a in low.items()]
        arcs += [(s + 1, s + d) for s, d in minend.items() if d > 2]
        family, kind = [tube.adic(j) for j in t.corays], ADIC
    fins = [tor._arc(IndObj, (a % n, b - a + a % n)) for a, b in arcs]  # each on its canonical lift
    return MaxRigid(frozenset(fins + family), kind)


def assert_perps_match_the_stack(tube: Tube, desc: SubcatDesc) -> None:
    assert outcome(tor.right_perp, tube, desc) == outcome(right_perp_by_stack, tube, desc)
    assert outcome(tor.left_perp, tube, desc) == outcome(left_perp_by_stack, tube, desc)


def assert_pair_matches_the_stack(tube: Tube, pair: TorsionPair):
    """The validators and the inverse agree; the old verdict is returned."""
    got = outcome(is_torsion_pair_by_stack, tube, pair)
    assert outcome(tor.is_torsion_pair, tube, pair) == got, pair
    assert outcome(tor.max_rigid_of, tube, pair) == outcome(max_rigid_of_by_stack, tube, pair), pair
    return got


class TestValidatorByListedArcs:
    @settings(max_examples=500, deadline=None)
    @given(raw_pairs())
    def test_real_pairs_with_raw_items(self, case):
        tube, pair = case
        assert_pair_matches_the_stack(tube, pair)
        for desc in pair[:2]:
            assert_perps_match_the_stack(tube, desc)

    @settings(max_examples=400, deadline=None)
    @given(on_one_rank(raw_family_subcats, raw_family_subcats))
    def test_raw_descriptors_of_both_kinds(self, case):
        n, t_part, f_part = case
        tube = Tube(n)
        for kind in (RAY, CORAY):
            assert_pair_matches_the_stack(tube, TorsionPair(t_part, f_part, kind))
        for desc in (t_part, f_part):
            assert_perps_match_the_stack(tube, desc)

    @settings(max_examples=300, deadline=None)
    @given(st.integers(1, N_MAX).flatmap(lambda n: st.tuples(descriptors(n), descriptors(n))))
    def test_canonical_descriptors(self, case):
        (tube, t_part), (_, f_part) = case
        for kind in (RAY, CORAY):
            assert_pair_matches_the_stack(tube, TorsionPair(t_part, f_part, kind))
        assert_perps_match_the_stack(tube, t_part)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_one_arc_swap(self, n):
        """Each listed arc of either side of every pair swapped for another
        arc spanning at most 2n, kept raw: no swap is a torsion pair."""
        tube = Tube(n)
        arcs = [IndObj(s, s + d) for s in range(n) for d in range(2, 2 * n + 1)]
        swaps = 0
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            for k, side in enumerate(pair[:2]):
                for x in side.finite_objs:
                    for y in arcs:
                        if y in side.finite_objs:
                            continue
                        swapped = side._replace(finite_objs=side.finite_objs - {x} | {y})
                        sides = [pair.t_part, pair.f_part]
                        sides[k] = swapped
                        assert assert_pair_matches_the_stack(tube, TorsionPair(*sides, pair.kind)) is False
                        assert_perps_match_the_stack(tube, swapped)
                        swaps += 1
        assert swaps == {1: 0, 2: 20, 3: 540, 4: 7216}[n]


# -- the inverse before it read the longest arcs --------------------------------------


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


def _ext_projectives_of_low(tube: Tube, low: Dict[int, int], rays) -> MaxRigid:
    """The Prufer-type object of a ray-type pair: the Prufers at the rays of
    F and the Ext-projectives of tau T, whose anchored ``low`` is given, by
    ``type_a``'s rule read with period n."""
    fins = [tube.normalize(a, b) for a, b in _ext_projective_pairs(low, tube.n)]
    return MaxRigid(frozenset(fins + [tube.prufer(i) for i in rays]), PRUFER)


def max_rigid_of_by_ext_projectives(tube: Tube, pair: TorsionPair) -> MaxRigid:
    """Inverse of the bijection: the Ext-projectives of tau T with the
    Prufers at the rays of F (ray type), or the reflection of those of the
    reflected pair (coray type), whose tau T is tau of F reflected.

    Each side of a torsion pair is the perp of the other, so the ``low`` of
    tau T is read off the side whose perp it is: T = perp-F holds the spans
    below F's ``maxstart`` at each end, which tau moves one step left; and
    F = T^perp the spans below T's ``minend`` at each start, which the
    reflection sends to the end -s and tau one step further.
    """
    if not tor.is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n = tube.n
    t, f = pair.t_part, pair.f_part
    if pair.kind == RAY:  # T ends at e with the spans below maxstart[e]; tau T at e - 1
        maxstart = _least_spans_by_stack(n, _bound(n, f.finite_objs, quotients=False), f.rays, quotients=False)
        spans = {(e - 1) % n: d for e, d in maxstart.items()}
        rays = f.rays
    else:  # F starts at s with the spans below minend[s]; reflected it ends at -s, tau T at -s - 1
        minend = _least_spans_by_stack(n, _bound(n, t.finite_objs, quotients=True), t.corays, quotients=True)
        spans = {(-s - 1) % n: d for s, d in minend.items()}
        rays = [-j % n for j in t.corays]
    u = _ext_projectives_of_low(tube, {e: e - d + 1 for e, d in spans.items()}, rays)
    return u if pair.kind == RAY else reflect_rigid(tube, u)


def assert_inverse_matches(tube: Tube, pair: TorsionPair):
    got = outcome(tor.max_rigid_of, tube, pair)
    assert got == outcome(max_rigid_of_by_ext_projectives, tube, pair), pair
    return got


class TestInverseByLongestArcs:
    @settings(max_examples=600, deadline=None)
    @given(raw_pairs())
    def test_real_pairs_with_raw_items(self, case):
        assert_inverse_matches(*case)

    @settings(max_examples=300, deadline=None)
    @given(perturbed_pairs())
    def test_perturbed_pairs(self, case):
        assert_inverse_matches(*case)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_pair_and_its_reflection(self, n):
        tube = Tube(n)
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            assert assert_inverse_matches(tube, pair) == u
            assert assert_inverse_matches(tube, tube_defs.reflect_pair(tube, pair)) == reflect_rigid(tube, u)

    def test_strategies_reach_both_answers(self):
        # a raw pair that still validates, and refusals: without them the
        # comparison above would see only one kind of outcome
        tube = Tube(3)
        u = next(v for v in rigid_objects(3) if v.kind == ADIC)
        pair = tor.torsion_pair_of(tube, u)
        assert assert_inverse_matches(tube, pair) == u
        bad = TorsionPair(pair.t_part, pair.f_part, RAY)
        assert assert_inverse_matches(tube, bad) == ("ValidationError", "input does not validate as a torsion pair")


# -- the Ptolemy check before it read integers ----------------------------------------


def neg_crossing_shifts(tube: Tube, a: IndObj, b: IndObj) -> range:
    """The shifts k for which the k-th lift of b crosses a negatively (finite
    arcs), lazily: the k with a.start - b.end < k*n < min(a.start - b.start,
    a.end - b.end)."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("crossing shifts are only enumerated for finite arcs")
    lo, hi = a.start - b.end + 1, min(a.start - b.start, a.end - b.end) - 1
    return range(-(-lo // tube.n), hi // tube.n + 1)


def is_ext_closed(tube: Tube, desc: SubcatDesc) -> bool:
    """Oriented Ptolemy condition: for every negative crossing between
    members, the resolution arcs of the crossing lift are again members."""
    if desc.rays and desc.corays:
        return desc == everything(tube)
    if desc.corays:
        return is_ext_closed(tube, reflect_desc(tube, desc))
    fins = desc.finite_objs
    if desc.rays and (
        # the first lift of r past x.start lies strictly inside x
        any((r - x.start - 1) % tube.n < x.length for x in fins for r in desc.rays)
        or not is_sub_closed(tube, desc)
    ):
        return False
    for x in fins:
        for y in fins:
            for k in neg_crossing_shifts(tube, x, y):
                lifted = type_a.AArc(*lift(tube, y, k))
                for mid in ses_middle(type_a.AArc(x.start, x.end), lifted):
                    if not contains(tube, desc, tube.normalize(mid.i, mid.j)):
                        return False
    return True


ONE_SIDED = ("ValueError", "one-sided arcs have no finite length")


def assert_ext_closed_matches(tube: Tube, desc: SubcatDesc) -> bool:
    """The outcomes agree; with a listed one-sided arc and no corays (which
    the reflection refuses first) the new code raises, whatever the order."""
    got = outcome(tor.is_ext_closed, tube, desc)
    if desc.corays or all(x.is_finite for x in desc.finite_objs):
        assert got == outcome(is_ext_closed, tube, desc), desc
    else:
        assert got == ONE_SIDED, desc
    return got


class TestExtClosedByEnds:
    @settings(max_examples=500, deadline=None)
    @given(descriptors())
    def test_canonical_descriptors(self, case):
        assert_ext_closed_matches(*case)

    @settings(max_examples=500, deadline=None)
    @given(on_one_rank(raw_family_subcats))
    # [3, 5] is [0, 2] on another lift: it ends inside [0, 3] but shares its
    # start, so it does not cross it, and [0, 2] is not listed
    @example(case=(3, SubcatDesc(frozenset([IndObj(3, 5), IndObj(0, 3)]), frozenset(), frozenset())))
    def test_raw_descriptors(self, case):
        n, desc = case
        assert_ext_closed_matches(Tube(n), desc)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_side_of_every_pair(self, n):
        tube = Tube(n)
        verdicts = set()
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            for side in (pair.t_part, pair.f_part):
                verdicts.add(assert_ext_closed_matches(tube, side))
                verdicts.add(assert_ext_closed_matches(tube, tor.left_perp(tube, side)))
        assert verdicts == {True}

    def test_strategies_reach_both_answers_and_the_guard(self):
        tube = Tube(3)
        ext = [IndObj(0, 2), IndObj(1, 3), IndObj(0, 3)]
        closed = SubcatDesc(frozenset(ext), frozenset(), frozenset())
        assert is_ext_closed(tube, closed) and tor.is_ext_closed(tube, closed)
        assert not is_ext_closed(tube, SubcatDesc(frozenset(ext[:2]), frozenset(), frozenset()))
        # membership is by the canonical lift: [3, 5] crosses [4, 6] and
        # resolves into [3, 6], which is [0, 3] and so not listed
        raw = SubcatDesc(frozenset([IndObj(3, 5), IndObj(4, 6), IndObj(3, 6)]), frozenset(), frozenset())
        assert not is_ext_closed(tube, raw) and not tor.is_ext_closed(tube, raw)
        # the span guard: an arc spanning n + 1 with its whole quotient closure
        long = make_desc(tube, tube_defs.left_closure(tube, [IndObj(0, 4)]))
        assert not is_ext_closed(tube, long) and not tor.is_ext_closed(tube, long)

    def test_one_sided_arcs_raise_whatever_the_order(self):
        tube = Tube(3)
        for fins in (
            [IndObj(0, None)],
            [IndObj(None, 2)],
            [IndObj(0, 2), IndObj(1, 3), IndObj(0, None)],  # [0, 3] missing
            [IndObj(0, 5), IndObj(None, 1)],  # spans more than n
            [IndObj(0, 1), IndObj(2, None)],  # spans below 2
        ):
            for rays in (frozenset(), frozenset([1]), frozenset([0, 2])):
                desc = SubcatDesc(frozenset(fins), rays, frozenset())
                assert outcome(tor.is_ext_closed, tube, desc) == ONE_SIDED, desc


# -- the validator and the inverse before one reader per side ----------------------------


def _bound(n: int, objs, quotients: bool) -> Dict[int, int]:
    try:
        if quotients:
            return type_a._low([(e % n - e + s, e % n) for s, e in objs])
        return type_a._reach([(s % n, e - s + s % n) for s, e in objs])
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None


def _least_spans(n: int, arcs, family, quotients: bool) -> Dict[int, int]:
    least: Dict[int, int] = {}
    for s, e in arcs:
        k = (s if quotients else e) % n
        if least.get(k, e - s + 1) > e - s:
            least[k] = e - s
    if family:
        sign = 1 if quotients else -1
        anchors = {sign * a % n for a in family}
        near = 0
        for x in range(2 * n, 1, -1):
            if x % n in anchors:
                near = x
            if x <= n + 1:
                k = sign * (x - 2) % n
                least[k] = min(least.get(k, n + 2), near - x + 2)
    return least


def _is_canonical(n: int, objs) -> bool:
    return all(0 <= s < n and s + 2 <= e for s, e in objs)


def read_side_two_modes(n: int, arcs, quotients: bool) -> Tuple[Dict[int, int], Dict[int, int], bool]:
    pairs: List[Tuple[int, int]] = []
    least: Dict[int, int] = {}
    canonical = True
    try:
        if quotients:
            for s, e in arcs:
                d, k, r = e - s, s % n, e % n
                pairs.append((r - d, r))
                if least.get(k, d + 1) > d:
                    least[k] = d
                if s != k or d < 2:
                    canonical = False
        else:
            for s, e in arcs:
                d, k, a = e - s, e % n, s % n
                pairs.append((a, a + d))
                if least.get(k, d + 1) > d:
                    least[k] = d
                if s != a or d < 2:
                    canonical = False
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return (type_a._low if quotients else type_a._reach)(pairs), least, canonical


def right_perp_by_passes(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    low = {r: max(a, r - n - 1) for r, a in _bound(n, desc.finite_objs, quotients=True).items()}
    closure = tor._closure_side(tube, low, quotients=True)
    minend = _least_spans(n, closure.finite_objs, desc.corays, quotients=True)
    reach = {s: s + d - 1 for s, d in minend.items()}
    return tor._closure_side(tube, reach, quotients=False, rays=frozenset(range(n)).difference(reach))


def is_torsion_pair_by_passes(tube: Tube, pair: TorsionPair) -> bool:
    t, f = pair.t_part, pair.f_part
    n = tube.n
    if sum(len(d.finite_objs) + len(d.rays) + len(d.corays) for d in (t, f)) < n:
        return False
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    if t.rays:  # T^perp is 0, whose left perp is everything
        return f == empty_desc(tube) and t == everything(tube)
    low = _bound(n, t.finite_objs, quotients=True)  # raises as right_perp does
    if len(t.finite_objs) != type_a._closure_count(low) or not _is_canonical(n, t.finite_objs):
        return False
    minend = _least_spans(n, t.finite_objs, t.corays, quotients=True)
    if not minend:  # T is 0, whose right perp is everything
        return f == everything(tube)
    full = frozenset(range(n))
    if f.corays or f.rays != full.difference(minend):
        return False
    try:
        reach = _bound(n, f.finite_objs, quotients=False)
    except ValueError:  # a one-sided arc lies in no perp
        return False
    if (
        not _is_canonical(n, f.finite_objs)
        or any(b - s >= minend.get(s, 0) for s, b in reach.items())
        or len(f.finite_objs) != sum(minend.values()) - 2 * len(minend)
    ):
        return False
    maxstart = _least_spans(n, f.finite_objs, f.rays, quotients=False)
    return (
        bool(maxstart)  # else perp-F is everything, which has rays
        and t.corays == full.difference(maxstart)
        and low.keys() <= maxstart.keys()  # no arc ends at a coray
        and len(t.finite_objs) == sum(maxstart.values()) - 2 * len(maxstart)
    )


def max_rigid_of_by_passes(tube: Tube, pair: TorsionPair) -> MaxRigid:
    if not is_torsion_pair_by_passes(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n = tube.n
    t, f = pair.t_part, pair.f_part
    if pair.kind == RAY:
        maxstart = _least_spans(n, f.finite_objs, f.rays, quotients=False)
        arcs = list(_bound(n, f.finite_objs, quotients=False).items())
        arcs += [(e - d, e - 1) for e, d in maxstart.items() if d > 2]
        family, kind = [tube.prufer(i) for i in f.rays], PRUFER
    else:
        minend = _least_spans(n, t.finite_objs, t.corays, quotients=True)
        arcs = [(a, e) for e, a in _bound(n, t.finite_objs, quotients=True).items()]
        arcs += [(s + 1, s + d) for s, d in minend.items() if d > 2]
        family, kind = [tube.adic(j) for j in t.corays], ADIC
    fins = [tor._arc(IndObj, (a % n, b - a + a % n)) for a, b in arcs]  # each on its canonical lift
    return MaxRigid(frozenset(fins + family), kind)


def result(fn, *args):
    """The value with the type of each of its items, or the exception's
    type and message, whatever the exception."""
    try:
        got = fn(*args)
    except Exception as exc:
        return type(exc).__name__, str(exc)
    if isinstance(got, MaxRigid):  # a residue printed as True would not equal one printed as 1
        return got, sorted(map(repr, got.summands))
    return got


def assert_same_as_by_passes(tube: Tube, pair: TorsionPair):
    """The validator, the inverse and both perps of each side agree with
    the passes they replaced; the validator's verdict is returned."""
    got = result(tor.is_torsion_pair, tube, pair)
    assert got == result(is_torsion_pair_by_passes, tube, pair), pair
    assert result(tor.max_rigid_of, tube, pair) == result(max_rigid_of_by_passes, tube, pair), pair
    for desc in pair[:2]:
        assert result(tor.right_perp, tube, desc) == result(right_perp_by_passes, tube, desc), desc
    return got


class TestOneReaderPerSide:
    """``_read_side`` reads a side's listed arcs once, for its bound, its
    least spans and whether it is canonical; ``_family_walk`` adds what a
    family implies.  The validator, the inverse and ``right_perp`` built on
    them answer as the passes they replaced: the same value, or the same
    exception and message."""

    @settings(max_examples=500, deadline=None)
    @given(raw_pairs())
    def test_real_pairs_with_raw_items(self, case):
        assert_same_as_by_passes(*case)

    @settings(max_examples=400, deadline=None)
    @given(on_one_rank(raw_family_subcats, raw_family_subcats))
    def test_raw_descriptors_of_both_kinds(self, case):
        n, t_part, f_part = case
        for kind in (RAY, CORAY):
            assert_same_as_by_passes(Tube(n), TorsionPair(t_part, f_part, kind))

    @settings(max_examples=300, deadline=None)
    @given(perturbed_pairs())
    def test_perturbed_pairs(self, case):
        assert_same_as_by_passes(*case)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_one_arc_swap(self, n):
        """Each listed arc of either side of every pair swapped for another
        arc spanning at most 2n, on any of three lifts, kept raw."""
        tube = Tube(n)
        arcs = [IndObj(s, s + d) for s in range(-n, 2 * n) for d in range(2, 2 * n + 1)]
        verdicts = set()
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            verdicts.add(assert_same_as_by_passes(tube, pair))
            for k, side in enumerate(pair[:2]):
                for x in side.finite_objs:
                    for y in arcs:
                        sides = [pair.t_part, pair.f_part]
                        sides[k] = side._replace(finite_objs=side.finite_objs - {x} | {y})
                        verdicts.add(assert_same_as_by_passes(tube, TorsionPair(*sides, pair.kind)))
        assert verdicts == ({True} if n == 1 else {True, False})

    def test_the_reader_on_lists(self):
        # anchored bound, least span per start (quotients) or end, canonical
        # flag: the library's reader reads quotients only, as the copied
        # two-mode reader does with quotients=True
        arcs = [IndObj(0, 3), IndObj(2, 5), IndObj(4, 6)]
        assert tor._read_side(3, arcs) == ({0: -3, 2: -1}, {0: 3, 2: 3, 1: 2}, False)
        assert read_side_two_modes(3, arcs, quotients=False) == ({0: 3, 2: 5, 1: 3}, {0: 2, 2: 3}, False)
        assert tor._read_side(3, arcs[:1])[2] is True
        assert read_side_two_modes(3, [IndObj(1, 2)], quotients=False)[2] is False  # spans 1
        assert tor._read_side(3, ()) == ({}, {}, True)
        for quotients in (True, False):
            assert read_side_two_modes(3, (), quotients) == ({}, {}, True)
            assert read_side_two_modes(3, arcs, quotients)[0] == _bound(3, arcs, quotients)
        for some in (arcs, arcs[:1], [IndObj(1, 2)], ()):
            assert tor._read_side(3, some) == read_side_two_modes(3, some, quotients=True)

    @pytest.mark.parametrize("one_sided", [IndObj(0, None), IndObj(None, 2)])
    @pytest.mark.parametrize("quotients", [True, False])
    def test_a_one_sided_arc_raises_after_a_non_canonical_one(self, one_sided, quotients):
        """The library's reader of quotients raises, and so does the test
        helpers' reader of subobjects (``tube_defs.right_closure``); the
        validator raises for such arcs on T, as before, and answers False
        for them on F, as before."""
        arcs = [IndObj(7, 9), IndObj(0, 1), one_sided]
        tube = Tube(3)
        with pytest.raises(ValueError, match="^one-sided arcs have no finite length$"):
            tor._read_side(3, arcs) if quotients else tube_defs.right_closure(tube, arcs)
        u = next(v for v in rigid_objects(3) if v.kind == PRUFER)
        pair = tor.torsion_pair_of(tube, u)
        t = SubcatDesc(pair.t_part.finite_objs | set(arcs), pair.t_part.rays, pair.t_part.corays)
        assert assert_same_as_by_passes(tube, TorsionPair(t, pair.f_part, RAY)) == ONE_SIDED
        f = SubcatDesc(pair.f_part.finite_objs | set(arcs), pair.f_part.rays, pair.f_part.corays)
        assert assert_same_as_by_passes(tube, TorsionPair(pair.t_part, f, RAY)) is False

    def test_a_residue_that_only_equals_an_int_is_printed_as_one(self):
        tube = Tube(3)
        for u in rigid_objects(3):
            pair = tor.torsion_pair_of(tube, u)
            t, f = pair.t_part, pair.f_part
            if u.kind == PRUFER and 1 in f.rays:
                f = f._replace(rays=f.rays - {1} | {True})
            elif u.kind == ADIC and 1 in t.corays:
                t = t._replace(corays=t.corays - {1} | {True})
            else:
                continue
            got = tor.max_rigid_of(tube, TorsionPair(t, f, pair.kind))
            assert got == u and "True" not in repr(sorted(map(repr, got.summands)))


# -- the bijection with one branch per kind ------------------------------------------


def torsion_pair_of_per_kind(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    n = tube.n
    prufers, adics, subs, quots = [], [], [], []
    for x in rigid.summands:  # one pass: the anchored lifts of _read_side
        s, e = x
        if e is None:
            prufers.append(x)
        elif s is None:
            adics.append(x)
        else:
            a, r = s % n, e % n
            subs.append((a, a + e - s))
            quots.append((r - e + s, r))
    reach, low = type_a._reach(subs), type_a._low(quots)
    too_long = [s for s, e in reach.items() if e - s > n]  # each crosses its own lift
    if too_long:  # named by the least start: set order varies between processes
        s = min(too_long)
        raise ValidationError(f"summand {IndObj(s, reach[s])} spans more than {n}, so it is not rigid")
    if rigid.kind == PRUFER:
        family, stray, name, other = prufers, adics, "Prufer", "adic"
    elif rigid.kind == ADIC:
        family, stray, name, other = adics, prufers, "adic", "Prufer"
    else:
        raise ValidationError(f"unknown kind {rigid.kind!r}")
    if not family:
        raise ValidationError(f"{name}-type object has no {name} summand")
    if len(rigid.summands) != n:
        raise ValidationError(
            f"a maximal rigid object in rank {n} has {n} summands, got {len(rigid.summands)}"
        )
    if stray:
        raise ValidationError(f"{name}-type object holds the {other} summand {min(stray, key=sort_key)}")
    if rigid.kind == PRUFER:
        return TorsionPair(
            tor._closure_side(tube, low, quotients=True, shift=1),
            tor._closure_side(tube, reach, quotients=False, rays=frozenset(s % n for s, _ in family)),
            RAY,
        )
    return TorsionPair(
        tor._closure_side(tube, low, quotients=True, corays=frozenset(e % n for _, e in family)),
        tor._closure_side(tube, reach, quotients=False, shift=-1),
        CORAY,
    )


def max_rigid_of_per_kind(tube: Tube, pair: TorsionPair) -> MaxRigid:
    if not tor.is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n = tube.n
    t, f = pair.t_part, pair.f_part
    if pair.kind == RAY:
        reach, maxstart, _ = read_side_two_modes(n, f.finite_objs, quotients=False)
        maxstart = tor._family_walk(n, maxstart, f.rays, quotients=False)
        arcs = list(reach.items())
        arcs += [(e - d, e - 1) for e, d in maxstart.items() if d > 2]
        family, kind = [tor._arc(IndObj, (i % n, None)) for i in f.rays], PRUFER
    else:
        low, minend, _ = read_side_two_modes(n, t.finite_objs, quotients=True)
        minend = tor._family_walk(n, minend, t.corays, quotients=True)
        arcs = [(a, e) for e, a in low.items()]
        arcs += [(s + 1, s + d) for s, d in minend.items() if d > 2]
        family, kind = [tor._arc(IndObj, (None, j % n)) for j in t.corays], ADIC
    fins = [tor._arc(IndObj, (a % n, b - a + a % n)) for a, b in arcs]  # each on its canonical lift
    return MaxRigid(frozenset(fins + family), kind)


def assert_inverse_per_kind(tube: Tube, pair: TorsionPair):
    """The inverse answers as the one with a branch per kind: the same
    value, or the same exception type and message; its answer is returned."""
    got = result(tor.max_rigid_of, tube, pair)
    assert got == result(max_rigid_of_per_kind, tube, pair), pair
    return got


def assert_bijection_per_kind(tube: Tube, rigid: MaxRigid):
    """Both directions answer as the code with a branch per kind, the
    inverse on the pair the object gives; the pair is returned, or None."""
    got = result(tor.torsion_pair_of, tube, rigid)
    assert got == result(torsion_pair_of_per_kind, tube, rigid), rigid
    if isinstance(got, TorsionPair):
        assert_inverse_per_kind(tube, got)
        return got
    return None


class TestOneRulePerKind:
    @settings(max_examples=500, deadline=None)
    @given(rigid_values())
    def test_arbitrary_objects(self, case):
        assert_bijection_per_kind(*case)

    @settings(max_examples=500, deadline=None)
    @given(raw_pairs())
    def test_real_pairs_with_raw_items(self, case):
        assert_inverse_per_kind(*case)

    @pytest.mark.parametrize("n", range(1, N_MAX + 1))
    def test_every_object_and_its_pair(self, n):
        tube = Tube(n)
        for u in rigid_objects(n):
            pair = assert_bijection_per_kind(tube, u)
            assert tor.max_rigid_of(tube, pair) == u

    @needs_hypothesis
    def test_strategies_reach_both_kinds_and_refusals(self):
        """Valid and refused objects of both kinds, and pairs that invert
        and pairs that do not, are among the draws compared above."""
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(rigid_values(), raw_pairs())
        def collect(obj, raw):
            pair = result(tor.torsion_pair_of, *obj)
            seen.add(("forward", obj[1].kind, isinstance(pair, TorsionPair)))
            back = result(tor.max_rigid_of, *raw)
            seen.add(("inverse", raw[1].kind, isinstance(back, tuple) and isinstance(back[0], MaxRigid)))

        collect()
        kinds = {"forward": (PRUFER, ADIC), "inverse": (RAY, CORAY)}
        wanted = {(way, kind, ok) for way, both in kinds.items() for kind in both for ok in (True, False)}
        assert wanted <= seen


# -- the validator that read F as a side of its own ------------------------------------


def is_torsion_pair_by_reach(tube: Tube, pair: TorsionPair) -> bool:
    t, f = pair.t_part, pair.f_part
    n = tube.n
    if sum(len(d.finite_objs) + len(d.rays) + len(d.corays) for d in (t, f)) < n:
        return False
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    if t.rays:  # T^perp is 0, whose left perp is everything
        return f == empty_desc(tube) and t == everything(tube)
    low, minend, canonical = read_side_two_modes(n, t.finite_objs, quotients=True)  # raises as right_perp does
    if len(t.finite_objs) != type_a._closure_count(low) or not canonical:
        return False
    minend = tor._family_walk(n, minend, t.corays, quotients=True)
    if not minend:  # T is 0, whose right perp is everything
        return f == everything(tube)
    full = frozenset(range(n))
    if f.corays or f.rays != full.difference(minend):
        return False
    try:
        reach, maxstart, canonical = read_side_two_modes(n, f.finite_objs, quotients=False)
    except ValueError:  # a one-sided arc lies in no perp
        return False
    if (
        not canonical
        or any(b - s >= minend.get(s, 0) for s, b in reach.items())
        or len(f.finite_objs) != sum(minend.values()) - 2 * len(minend)
    ):
        return False
    maxstart = tor._family_walk(n, maxstart, f.rays, quotients=False)
    return (
        bool(maxstart)  # else perp-F is everything, which has rays
        and t.corays == full.difference(maxstart)
        and low.keys() <= maxstart.keys()  # no arc ends at a coray
        and len(t.finite_objs) == sum(maxstart.values()) - 2 * len(maxstart)
    )


FREE_ITEMS = ("none", "one_sided", "at_ray", "triple")


@st.composite
def free_items(draw):
    """A draw of ``raw_pairs`` or, as often, the pair of a maximal rigid
    object, in most draws with one more item on F of a kind the
    validator refuses there: a one-sided arc, an arc at one of F's own
    rays, or a 3-tuple; sometimes in place of a listed arc, so that F still
    numbers what its count identity expects and the pass over F refuses
    it.  The kind of item is returned last."""
    if draw(st.booleans()):
        tube, pair = draw(raw_pairs())
    else:
        tube = Tube(draw(st.integers(1, N_MAX - 1)))
        objects = rigid_objects(tube.n)
        pair = tor.torsion_pair_of(tube, objects[draw(st.integers(0, len(objects) - 1))])
    n, f = tube.n, pair.f_part
    what = draw(st.sampled_from(FREE_ITEMS))
    s = draw(st.integers(0, n - 1))
    if what == "one_sided":
        item = IndObj(s, None) if draw(st.booleans()) else IndObj(None, s)
    elif what == "at_ray" and f.rays:
        ray = draw(st.sampled_from(sorted(f.rays, key=repr)))
        item = IndObj(ray, ray + draw(st.integers(2, 2 * n + 1)))
    elif what == "triple":
        item = (s, s + draw(st.integers(2, 2 * n)), draw(st.integers(0, 1)))
    else:
        return tube, pair, "none"
    fins = set(f.finite_objs)
    if fins and draw(st.booleans()):
        fins.discard(draw(st.sampled_from(sorted(fins, key=repr))))
    fins.add(item)
    return tube, pair._replace(f_part=f._replace(finite_objs=frozenset(fins))), what


def assert_same_as_by_reach(tube: Tube, pair: TorsionPair):
    """The validator answers as the one that read F's ``reach``: the same
    value, or the same exception type and message; its answer is returned."""
    got = result(tor.is_torsion_pair, tube, pair)
    assert got == result(is_torsion_pair_by_reach, tube, pair), pair
    return got


class TestFreeSideAsPerp:
    """``is_torsion_pair`` reads F in one pass, arc by arc, as a part of
    T^perp, where the copy above read F's ``reach`` with the subobject mode
    of the two-mode reader and compared it with T's ``minend``."""

    @settings(max_examples=500, deadline=None)
    @given(free_items())
    def test_real_pairs_with_free_items(self, case):
        assert_same_as_by_reach(*case[:2])

    @settings(max_examples=300, deadline=None)
    @given(on_one_rank(raw_family_subcats, raw_family_subcats))
    def test_raw_descriptors_of_both_kinds(self, case):
        n, t_part, f_part = case
        for kind in (RAY, CORAY):
            assert_same_as_by_reach(Tube(n), TorsionPair(t_part, f_part, kind))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_every_one_arc_swap(self, n):
        """Each listed arc of either side of every pair swapped for another
        arc spanning at most 2n, on any of three lifts, kept raw."""
        tube = Tube(n)
        arcs = [IndObj(s, s + d) for s in range(-n, 2 * n) for d in range(2, 2 * n + 1)]
        verdicts = set()
        for u in rigid_objects(n):
            pair = tor.torsion_pair_of(tube, u)
            verdicts.add(assert_same_as_by_reach(tube, pair))
            for k, side in enumerate(pair[:2]):
                for x in side.finite_objs:
                    for y in arcs:
                        sides = [pair.t_part, pair.f_part]
                        sides[k] = side._replace(finite_objs=side.finite_objs - {x} | {y})
                        verdicts.add(assert_same_as_by_reach(tube, TorsionPair(*sides, pair.kind)))
        assert verdicts == ({True} if n == 1 else {True, False})

    def test_items_on_f_that_lie_in_no_perp(self):
        """Each item in place of an arc of F, so that F's count holds: a
        one-sided arc, an arc at F's own ray, a 3-tuple, an item that is no
        pair, and a pair of strings; both validators answer False."""
        tube = Tube(3)
        pairs = (tor.torsion_pair_of(tube, v) for v in rigid_objects(3) if v.kind == PRUFER)
        pair = next(p for p in pairs if p.f_part.finite_objs)
        f = pair.f_part
        ray, x = min(f.rays), min(f.finite_objs)
        assert assert_same_as_by_reach(tube, pair) is True
        for item in (IndObj(0, None), IndObj(None, 0), IndObj(ray, ray + 2), (0, 2, 0), 5, ("a", "b")):
            bad = pair._replace(f_part=f._replace(finite_objs=f.finite_objs - {x} | {item}))
            assert assert_same_as_by_reach(tube, bad) is False, item

    @needs_hypothesis
    def test_strategy_reaches_each_item_and_both_answers(self):
        seen = set()

        @settings(max_examples=300, deadline=None, derandomize=True, database=None)
        @given(free_items())
        def collect(case):
            tube, pair, what = case
            seen.add(what)
            seen.add(result(is_torsion_pair_by_reach, tube, pair))

        collect()
        assert set(FREE_ITEMS) | {True, False} <= seen
