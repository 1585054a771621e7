"""Torsion pairs in a tube and maximal rigid objects in its limit closure.

The subcategories appearing in torsion pairs admit a finite description:
an explicit set of finite arcs plus the indices of fully contained rays
(fixed start) and corays (fixed end).  Every function here reads that
data exactly; only ``members`` truncates a family, at its caller's length.

The closure predicates take canonical descriptors (``make_desc``); an arc
that starts at a ray or ends at a coray is a member automatically.  Quotients
keep the end, so corays are quotient-closed, every arc is a quotient of a
ray member, and the listed arcs off the corays are closed iff they number
what their ``low`` fixes.  Extensions follow the Ptolemy rule: x = [a, b]
and a lift [c, d] of y with c < a < d < b resolve into [c, b] and, if
d >= a + 2, [a, d].  So with both families only everything is
extension-closed (take a ray member at a, a coray member ending at d, c far
left off the rays and b far right off the corays).  With rays only, a ray
strictly inside a listed arc y makes [y.start, b] arbitrarily long (lemma A
below), and ray members end inside every listed arc, whose proper
subobjects must then be members.
The rest of ``is_ext_closed`` is the Ptolemy check over pairs of listed
arcs.  Its loops walk lazily, and the candidates of one loop that are not
automatic members must be distinct listed arcs, so it stops after at most
|listed arcs| + 1 lookups, however long the arcs are.

Finite objects are uniserial, so the image of a nonzero map x -> y is a
quotient of x and a subobject of y: Hom(x, y) != 0 iff some quotient of x
is a subobject of y.  ``right_perp`` reads that fact off ``low``.

The bijection: a Prufer-type maximal rigid object U yields the pair
(tau^{-1} of the left-shortening closure of its finite part, right
-shortening closure of the finite part together with the rays at its
Prufer indices); adic-type is the reflected dual.

The closures, the perps and the quotient check read the ``reach`` and
``low`` arrays that ``type_a`` builds (see there), with each arc on its
anchored lift.  ``torsion_pair_of`` reads both sides of the pair off these
two arrays (tau and tau^{-1} shift the anchor by one), and ``right_perp``
its result off ``shortest``; both take the arcs from the tube's table
(``Tube.fan``), so they neither normalize nor build an arc per member.

The inverse reads the finite part of a Prufer-type U off T = tau^{-1}
Gen(U_fin): it is the set of Ext-projectives of tau T, which ``type_a``'s
Ext-projective rule reads off the anchored ``low`` of tau T with period n
(arcs of different wings never cross, and an end strictly inside an arc
lies in that arc's wing).  The Prufers sit at the rays of F, and by
lemma A, which ``is_ext_closed`` uses too, the wings lie between them:

A. Ext(Prufer at i, a) != 0 iff i lies strictly inside the arc a, so a
   finite summand lies in a wing between cyclically consecutive rays of F.

The reflection [i,j] -> [-j,-i] is a duality: Hom(y, x) = Hom(x^v, y^v),
and it swaps rays with corays, quotients with subobjects.  So the mirror
-side constructions are derived rather than written out: ``left_perp`` is
the reflected ``right_perp`` of the reflected descriptor, ``is_sub_closed``
is ``is_quotient_closed`` of the reflection, and the coray-type inverse is
the reflected ray-type one.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from . import type_a
from .arcs import IndObj, Tube, sort_key
from .homs import neg_crossing_shifts

RAY = "ray"
CORAY = "coray"
PRUFER = "prufer"
ADIC = "adic"
MAX_COUNT_RANK = 1000  # the largest rank count_max_rigid answers


class ValidationError(ValueError):
    """A descriptor or pair fails a structural precondition."""


@dataclass(frozen=True)
class SubcatDesc:
    """Finite description of an additive subcategory of the tube."""

    finite_objs: FrozenSet[IndObj]
    rays: FrozenSet[int]
    corays: FrozenSet[int]

    @property
    def is_finite_type(self) -> bool:
        return not self.rays and not self.corays


@dataclass(frozen=True)
class TorsionPair:
    t_part: SubcatDesc
    f_part: SubcatDesc
    kind: str


@dataclass(frozen=True)
class MaxRigid:
    summands: FrozenSet[IndObj]
    kind: str


# -- descriptors ---------------------------------------------------------------


def make_desc(tube: Tube, finite_objs=(), rays=(), corays=()) -> SubcatDesc:
    """Canonical descriptor: finite arcs implied by a ray or coray are
    dropped, and a full set of rays (or corays) collapses to the whole-tube
    descriptor, which lists both families in full."""
    n = tube.n
    rayset = frozenset(int(i) % n for i in rays)
    corayset = frozenset(int(j) % n for j in corays)
    fins = []
    for x in finite_objs:  # checked before a full family makes the list moot
        if not x.is_finite:
            raise ValidationError(f"descriptors list finite arcs only, got {x}")
        fins.append(tube.normalize(x.start, x.end))
    if len(rayset) == n or len(corayset) == n:
        full = frozenset(range(n))
        return SubcatDesc(frozenset(), full, full)
    kept = [x for x in fins if x.start not in rayset and x.end % n not in corayset]
    return SubcatDesc(frozenset(kept), rayset, corayset)


def everything(tube: Tube) -> SubcatDesc:
    return make_desc(tube, rays=range(tube.n))


def empty_desc(tube: Tube) -> SubcatDesc:
    return make_desc(tube)


def contains(tube: Tube, desc: SubcatDesc, x: IndObj) -> bool:
    if not x.is_finite:
        raise ValidationError("descriptors only answer membership of finite arcs")
    return (
        x in desc.finite_objs
        or x.start in desc.rays
        or x.end % tube.n in desc.corays
    )


def members(tube: Tube, desc: SubcatDesc, max_len: int) -> List[IndObj]:
    """Finite arcs of the subcategory: the listed ones and every member up to max_len."""
    short = (x for x in tube.finite_objects(max_len) if contains(tube, desc, x))
    return sorted(desc.finite_objs.union(short), key=sort_key)


def _reach_low(n: int, objs) -> Tuple[Dict[int, int], Dict[int, int]]:
    """``type_a``'s ``reach`` and ``low`` of finite arcs, each arc read on
    its anchored lift: the one that starts at residue s for ``reach[s]``,
    the one that ends at residue r for ``low[r]``."""
    try:
        spans = [(s % n, e % n, e - s) for s, e in objs]
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return (
        type_a._reach([(s, s + d) for s, _, d in spans]),
        type_a._low([(r - d, r) for _, r, d in spans]),
    )


def _closure_arcs(
    tube: Tube, bound: Dict[int, int], quotients: bool, shift: int = 0, skip=()
) -> List[IndObj]:
    """The arcs of a closure, read off one array: the subobjects [a, e] with
    e <= reach[a] (bound = reach), or the quotients [i, a] with i >= low[a]
    (bound = low, ``quotients``); moved by tau^{-shift}, and without the arcs
    whose fixed end a lies in skip."""
    n = tube.n
    out = []
    for a, b in bound.items():
        if a not in skip:
            out += tube.fan((a + shift) % n, a - b if quotients else b - a, at_end=quotients)
    return out


def left_closure(tube: Tube, objs) -> frozenset:
    """The quotients of finite arcs: same end, start moved weakly right
    (from ``low`` on)."""
    _, low = _reach_low(tube.n, objs)
    return frozenset(_closure_arcs(tube, low, quotients=True))


def right_closure(tube: Tube, objs) -> frozenset:
    """The subobjects of finite arcs: same start, end moved weakly left
    (down from ``reach``)."""
    reach, _ = _reach_low(tube.n, objs)
    return frozenset(_closure_arcs(tube, reach, quotients=False))


def reflect_desc(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    n = tube.n
    return make_desc(
        tube,
        (tube.reflect(x) for x in desc.finite_objs),
        rays=((-j) % n for j in desc.corays),
        corays=((-i) % n for i in desc.rays),
    )


# -- closure predicates ----------------------------------------------------------


def is_quotient_closed(tube: Tube, desc: SubcatDesc) -> bool:
    if desc.rays:
        return desc == everything(tube)
    n = tube.n
    arcs = [x for x in desc.finite_objs if x.end % n not in desc.corays]
    _, low = _reach_low(n, arcs)
    return len(arcs) == type_a._quotient_count(low)


def is_sub_closed(tube: Tube, desc: SubcatDesc) -> bool:
    """Reflection turns subobjects into quotients."""
    return is_quotient_closed(tube, reflect_desc(tube, desc))


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


# -- perpendicular subcategories ---------------------------------------------------


def right_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    """Descriptor of {y : Hom(x, y) = 0 for every member x of desc}.

    y is in the perp iff none of its subobjects (the arcs at its start, no
    longer than it) is a quotient of a member, so per start s the perp is
    every length below ``shortest[s]``, that of the shortest such quotient.
    The quotients of the members ending at residue j are [i, j] for
    low[j] <= i <= j-2, every arc ending at j for a coray j (low[j] = -inf),
    and every simple for a ray, so a ray leaves nothing.
    """
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    _, low = _reach_low(n, desc.finite_objs)
    low.update(dict.fromkeys(desc.corays, -math.inf))
    shortest: Dict[int, int] = {}
    for j, a in low.items():
        # a quotient is never the shortest at its start if one n shorter exists
        for i in range(max(a, j - 1 - n), j - 1):
            if shortest.get(i % n, math.inf) > j - i - 1:
                shortest[i % n] = j - i - 1
    reach = {s: s + l for s, l in shortest.items()}
    rays = frozenset(range(n)).difference(reach)
    return _closure_side(tube, reach, quotients=False, rays=rays)


def left_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    """Descriptor of {y : Hom(y, x) = 0 for every member x of desc}, the
    mirror of the right perp since Hom(y, x) = Hom(x^v, y^v)."""
    return reflect_desc(tube, right_perp(tube, reflect_desc(tube, desc)))


# -- torsion pairs ---------------------------------------------------------------


def classify_kind(tube: Tube, pair: TorsionPair) -> str:
    """Coray type iff the torsion side is the infinite one."""
    t_inf = not pair.t_part.is_finite_type
    f_inf = not pair.f_part.is_finite_type
    if t_inf == f_inf:
        raise ValidationError("exactly one side of a torsion pair is of infinite type")
    return CORAY if t_inf else RAY


def is_torsion_pair(tube: Tube, pair: TorsionPair) -> bool:
    """Both mutual-perp identities (which imply Hom(t_part, f_part) = 0).
    The pair of an object with k Prufers (or adics) lists k rays (or
    corays) and an arc per finite summand, so it lists n items at least."""
    t, f = pair.t_part, pair.f_part
    if sum(len(d.finite_objs) + len(d.rays) + len(d.corays) for d in (t, f)) < tube.n:
        return False
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    return right_perp(tube, t) == f and left_perp(tube, f) == t


def reflect_pair(tube: Tube, pair: TorsionPair) -> TorsionPair:
    """(T, F) -> (F^v, T^v); ray type and coray type swap."""
    return TorsionPair(
        reflect_desc(tube, pair.f_part),
        reflect_desc(tube, pair.t_part),
        RAY if pair.kind == CORAY else CORAY,
    )


def reflect_rigid(tube: Tube, rigid: MaxRigid) -> MaxRigid:
    return MaxRigid(
        frozenset(tube.reflect(x) for x in rigid.summands),
        ADIC if rigid.kind == PRUFER else PRUFER,
    )


# -- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _tilting_sets(m: int) -> Tuple[frozenset, ...]:
    return tuple(type_a.enumerate_tilting(m))


def prufer_type_rigids(tube: Tube, indices: Iterable[int]) -> List[MaxRigid]:
    """All Prufer-type maximal rigid objects with exactly the given starts."""
    return list(_iter_prufer_type(tube, indices))


def _iter_prufer_type(tube: Tube, indices: Iterable[int]) -> Iterator[MaxRigid]:
    """The objects of :func:`prufer_type_rigids`, one at a time.

    The finite summands form a tilting set inside each wing between
    cyclically consecutive Prufer indices, embedded by shifting segment
    arcs to the wing base; each tilting set is placed once per wing.
    """
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
        [[place(w.start, a) for a in tilting] for tilting in _tilting_sets(w.end - w.start - 1)]
        for w in wings
    ]
    for combo in itertools.product(*placed):
        yield MaxRigid(frozenset(itertools.chain(prufers, *combo)), PRUFER)


def _prufer_side(tube: Tube) -> Iterator[MaxRigid]:
    for size in range(1, tube.n + 1):
        for idx in itertools.combinations(range(tube.n), size):
            yield from _iter_prufer_type(tube, idx)


def iter_max_rigid(tube: Tube) -> Iterator[MaxRigid]:
    """Prufer-type objects first (subsets by size then lexicographically,
    then the tilting choices per wing), followed by their reflections.
    Lazy: the adic side walks the Prufer side a second time rather than
    keep it."""
    yield from _prufer_side(tube)
    for u in _prufer_side(tube):
        yield reflect_rigid(tube, u)


def enumerate_max_rigid(tube: Tube) -> List[MaxRigid]:
    """Every maximal rigid object, in the order of :func:`iter_max_rigid`."""
    return list(iter_max_rigid(tube))


def max_rigid_counts() -> Iterator[int]:
    """The number of maximal rigid objects of the tubes of rank 1, 2, 3, ...
    in turn, without building an object.

    A Prufer-type object cuts the n marked points into cyclic gaps g
    between consecutive Prufer indices, with one of Catalan(g-1) tilting
    sets of A_{g-1} in each wing; reflection pairs it with an adic-type one.
    ``linear[m]`` counts the weighted gap sequences of m points on a line,
    and the gap that holds the point 0 has g possible positions, so rank n
    weighs the terms of ``linear[n]`` by g.
    """
    catalan, linear = [], [1]
    while True:
        k = len(catalan)
        catalan.append(catalan[-1] * 2 * (2 * k - 1) // (k + 1) if k else 1)
        terms = [catalan[g - 1] * linear[k + 1 - g] for g in range(1, k + 2)]
        linear.append(sum(terms))
        yield 2 * sum(g * t for g, t in enumerate(terms, 1))


def count_max_rigid(tube: Tube) -> int:
    """``len(enumerate_max_rigid(tube))``, by O(n^2) big-integer operations
    (about 0.7 s at MAX_COUNT_RANK on a 2-vCPU Intel Xeon)."""
    if tube.n > MAX_COUNT_RANK:
        raise ValueError(f"rank {tube.n} is above the bound MAX_COUNT_RANK = {MAX_COUNT_RANK}")
    return next(itertools.islice(max_rigid_counts(), tube.n - 1, None))


# -- the bijection -----------------------------------------------------------------


def _closure_side(
    tube: Tube, bound: Dict[int, int], quotients: bool, shift: int = 0,
    rays=frozenset(), corays=frozenset(),
) -> SubcatDesc:
    """One side of the pair of a maximal rigid object: the closure that
    ``bound`` fixes, moved by tau^{-shift} (see ``_closure_arcs``), with its
    family.  The arcs the family implies are those anchored at it, so they
    are skipped rather than built, and the result is canonical."""
    if len(rays) == tube.n or len(corays) == tube.n:
        return everything(tube)
    arcs = _closure_arcs(tube, bound, quotients, shift, skip=rays | corays)
    return SubcatDesc(frozenset(arcs), rays, corays)


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    """The torsion pair of a maximal rigid object, read off the reach and low
    arrays of its finite part.  Prufer type: T is tau^{-1} of the quotient
    closure, F the subobject closure with the rays.  Adic type is the
    mirror: T is the quotient closure with the corays, F tau of the
    subobject closure."""
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


def _ext_projectives(tube: Tube, tau_t, rays) -> MaxRigid:
    """The Prufer-type object of a ray-type pair: the Prufers at the rays of
    F and the Ext-projectives of tau T, given as raw (start, end) pairs, by
    ``type_a``'s rule read with period n."""
    _, low = _reach_low(tube.n, tau_t)
    fins = [tube.normalize(a, b) for a, b in type_a._ext_projective_pairs(low, tube.n)]
    return MaxRigid(frozenset(fins + [tube.prufer(i) for i in rays]), PRUFER)


def max_rigid_of(tube: Tube, pair: TorsionPair) -> MaxRigid:
    """Inverse of the bijection: the Ext-projectives of tau T with the
    Prufers at the rays of F (ray type), or the reflection of those of the
    reflected pair (coray type), whose tau T is tau of F reflected."""
    if not is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    if pair.kind == RAY:
        tau_t = [(s - 1, e - 1) for s, e in pair.t_part.finite_objs]
        return _ext_projectives(tube, tau_t, pair.f_part.rays)
    tau_t = [(-e - 1, -s - 1) for s, e in pair.f_part.finite_objs]
    rays = [-j % tube.n for j in pair.t_part.corays]
    return reflect_rigid(tube, _ext_projectives(tube, tau_t, rays))
