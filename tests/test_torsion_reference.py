"""The tube's closures, perps and quotient check against the code they replaced.

The reference below is the old code, copied unchanged: ``_reach_low`` fills
one list per array, indexed by residue; ``right_perp`` walks every quotient
of every listed arc and every start per coray, and normalizes each arc of
its result; ``is_quotient_closed`` looks up every quotient of every listed
arc.  The new code reads the same facts off ``type_a``'s ``low`` and
``reach``.  Hypothesis draws arcs in any lift, arbitrary descriptors (also
ones that list arcs ending at their corays, which ``make_desc`` would
drop), closures, and torsion pairs with a few items toggled.
"""

import math
from functools import lru_cache
from typing import List, Tuple

import pytest

from tubecalc import torsion as tor
from tubecalc.arcs import IndObj, Tube
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
            out += tube.fan((a + shift) % n, longest, at_end=quotients)
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
    @pytest.mark.parametrize("n", range(1, 6))
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
