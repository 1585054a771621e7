"""The tube's closures, perps, quotient check and inverse bijection against
the code they replaced.

The reference below is the old code, copied unchanged: ``_reach_low`` fills
one list per array, indexed by residue; ``right_perp`` walks every quotient
of every listed arc and every start per coray, and normalizes each arc of
its result; ``is_quotient_closed`` looks up every quotient of every listed
arc; ``_ext_projectives`` walks every wing of F and reads ``reach`` there.
The new code reads the same facts off ``type_a``'s ``low`` and ``reach``,
the inverse by ``type_a``'s Ext-projective rule on the ``low`` of tau T.  Hypothesis draws arcs in any lift, arbitrary descriptors (also
ones that list arcs ending at their corays, which ``make_desc`` would
drop), closures, and torsion pairs with a few items toggled.

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
``type_a.ses_middle``.  The new one indexes the listed spans by end residue
and visits each crossing once, by its end.  They are compared on canonical
descriptors, on every side of every pair at n <= 5, and on raw ones; a
listed one-sided arc is left out of the comparison, since the old answer
there depended on which pair the set yielded first.
"""

import math
from functools import lru_cache
from typing import List, Tuple

import pytest

from tubecalc import torsion as tor
from tubecalc import type_a
from tubecalc.arcs import IndObj, Tube
from tubecalc.homs import neg_crossing_shifts
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
    reflect_pair,
    reflect_rigid,
)

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

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
    closure = draw(st.sampled_from([None, tor.left_closure, tor.right_closure]))
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
        arcs = tor.left_closure(tube, arcs)
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
        assert tor.left_closure(tube, arcs) == left_closure(tube, arcs)
        assert tor.right_closure(tube, arcs) == right_closure(tube, arcs)

    def test_one_sided_arcs_refused(self):
        tube = Tube(3)
        for arcs in ([IndObj(0, None)], [IndObj(0, 3), IndObj(None, 2)]):
            for new, old in ((tor.left_closure, left_closure), (tor.right_closure, right_closure)):
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
        closed = make_desc(tube, tor.left_closure(tube, [IndObj(0, 5)]), corays=[1])
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
def raw_edits(draw, tube: Tube, desc: SubcatDesc):
    """The descriptor with one raw item added: another lift of a listed
    arc, an arc at one of its own families, a short or one-sided arc, or an
    index of the other family; sometimes in place of a listed arc, so that
    the side still numbers what a count identity expects."""
    n = tube.n
    fins, rays, corays = set(desc.finite_objs), set(desc.rays), set(desc.corays)
    if fins and draw(st.booleans()):
        fins.discard(draw(st.sampled_from(sorted(fins))))
    what = draw(st.sampled_from(["lift", "at_family", "short", "one_sided", "family"]))
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
    else:
        (corays if desc.rays else rays).add(s)
    return SubcatDesc(frozenset(fins), frozenset(rays), frozenset(corays))


@st.composite
def raw_pairs(draw):
    """The pair of a maximal rigid object with either side kept, edited by
    ``raw_edits`` or replaced by ``raw_subcats``; the kind now and then
    flipped."""
    n = draw(st.integers(1, N_MAX - 1))
    tube = Tube(n)
    objects = rigid_objects(n)
    pair = tor.torsion_pair_of(tube, objects[draw(st.integers(0, len(objects) - 1))])
    sides = []
    for side in (pair.t_part, pair.f_part):
        how = draw(st.sampled_from(["keep", "edit", "edit", "raw"]))
        if how == "edit":
            side = draw(raw_edits(tube, side))
        elif how == "raw":
            side = draw(raw_subcats(n))
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
            for p in (pair, reflect_pair(tube, pair)):
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


# -- the Ptolemy check before it read integers ----------------------------------------


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
                lifted = type_a.AArc(*tube.lift(y, k))
                for mid in type_a.ses_middle(type_a.AArc(x.start, x.end), lifted):
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
        long = make_desc(tube, tor.left_closure(tube, [IndObj(0, 4)]))
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
