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
subobjects must then be members.  The rest of ``is_ext_closed`` reads the
listed spans by end residue and visits each crossing once, by its end, after
a span guard: O(n) steps per listed arc and one per crossing.

Finite objects are uniserial, so the image of a nonzero map x -> y is a
quotient of x and a subobject of y: Hom(x, y) != 0 iff some quotient of x
is a subobject of y.  So the right perp of a subcategory holds, per start
s, every span below its cyclic ``minend[s]`` (the least span of a member's
quotient starting at s), and the left perp, per end e, every span below
its cyclic ``maxstart[e]`` (the least gap from a member's start to e);
``_least_spans`` reads both off ``low`` and ``reach`` in one O(n) sweep.
``is_torsion_pair`` is the segment's rule read with period n: Hom(T, F) = 0
off T's ``minend``, then two count identities, F numbering what T^perp
does and T what perp-F does.  It builds no perp descriptor.

The bijection: a Prufer-type maximal rigid object U yields the pair
(tau^{-1} of the left-shortening closure of its finite part, right
-shortening closure of the finite part together with the rays at its
Prufer indices); adic-type is the reflected dual.

The closures, the perps and the quotient check read the ``reach`` and
``low`` arrays that ``type_a`` builds (see there), with each arc on its
anchored lift.  ``torsion_pair_of`` reads both sides of the pair off these
two arrays (tau and tau^{-1} shift the anchor by one).  Every closure takes
its arcs from the tube's fan table: ``_closure_side`` turns its array into
one ``{anchor: span}`` map and reads all its rows in one ``Tube.fans``
call, so a closure neither normalizes nor builds an arc per member.

The inverse reads the finite part of a Prufer-type U off T = tau^{-1}
Gen(U_fin): it is the set of Ext-projectives of tau T, which ``type_a``'s
Ext-projective rule reads off the anchored ``low`` of tau T with period n
(arcs of different wings never cross, and an end strictly inside an arc
lies in that arc's wing).  Since T = perp-F, that ``low`` is read off F's
``maxstart``, so the inverse reads no arc of T.  The Prufers sit at the
rays of F, and by lemma A, which ``is_ext_closed`` uses too, the wings lie
between them:

A. Ext(Prufer at i, a) != 0 iff i lies strictly inside the arc a, so a
   finite summand lies in a wing between cyclically consecutive rays of F.

The reflection [i,j] -> [-j,-i] is a duality: Hom(y, x) = Hom(x^v, y^v),
and it swaps rays with corays, quotients with subobjects.  So some mirror
-side constructions are derived rather than written out: ``is_sub_closed``
is ``is_quotient_closed`` of the reflection, ``left_perp`` is the reflected
``right_perp``, and the coray-type inverse is the reflected ray-type one
(read off T's ``minend``, since F = T^perp).  ``_least_spans`` reads the
mirrored arrays itself (quotients as mirrored subobjects), since
``is_torsion_pair`` and ``max_rigid_of`` read F's ``maxstart`` off
``reach`` with no reflected descriptor.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from . import type_a
from .arcs import IndObj, Tube, _canonical, sort_key

RAY = "ray"
CORAY = "coray"
PRUFER = "prufer"
ADIC = "adic"
MAX_COUNT_RANK = 1000  # the largest rank count_max_rigid answers
_arc = tuple.__new__  # an IndObj without the check that one end is finite


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
        fins.append(_canonical(n, *x))
    return _desc(n, fins, rayset, corayset)


def _desc(
    n: int, fins, rays: FrozenSet[int] = frozenset(), corays: FrozenSet[int] = frozenset()
) -> SubcatDesc:
    """``make_desc`` of canonical finite arcs and of families given as
    residues: the one place a descriptor is made canonical."""
    if len(rays) == n or len(corays) == n:
        full = frozenset(range(n))
        return SubcatDesc(frozenset(), full, full)
    if rays or corays:
        fins = [x for x in fins if x[0] not in rays and x[1] % n not in corays]
    return SubcatDesc(frozenset(fins), rays, corays)


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


def _bound(n: int, objs, quotients: bool) -> Dict[int, int]:
    """``type_a``'s ``low`` (``quotients``) or ``reach`` of finite arcs,
    each arc read on its anchored lift: the one that ends at residue r for
    ``low[r]``, the one that starts at residue s for ``reach[s]``."""
    try:
        if quotients:
            return type_a._low([(e % n - e + s, e % n) for s, e in objs])
        return type_a._reach([(s % n, e - s + s % n) for s, e in objs])
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None


def _least_spans(n: int, bound, family, quotients: bool) -> Dict[int, int]:
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


def _closure_side(
    tube: Tube, bound: Dict[int, int], quotients: bool, shift: int = 0,
    rays=frozenset(), corays=frozenset(),
) -> SubcatDesc:
    """A closure read off one array, with a family: the subobjects [a, e]
    with e <= reach[a] (bound = reach), or the quotients [i, a] with
    i >= low[a] (bound = low, ``quotients``); moved by tau^{-shift}.  The
    arcs the family implies are those anchored at it, so they are skipped
    rather than built, and the result is canonical.  The arcs are the rows
    of the tube's fan table, read in one ``Tube.fans`` call."""
    n = tube.n
    if len(rays) == n or len(corays) == n:
        return everything(tube)
    skip = rays | corays
    sign = -1 if quotients else 1
    spans = {a + shift: sign * (b - a) for a, b in bound.items() if a not in skip}
    return SubcatDesc(frozenset(tube.fans(spans, at_end=quotients)), rays, corays)


def left_closure(tube: Tube, objs) -> frozenset:
    """The quotients of finite arcs: same end, start moved weakly right
    (from ``low`` on)."""
    low = _bound(tube.n, objs, quotients=True)
    return _closure_side(tube, low, quotients=True).finite_objs


def right_closure(tube: Tube, objs) -> frozenset:
    """The subobjects of finite arcs: same start, end moved weakly left
    (down from ``reach``)."""
    reach = _bound(tube.n, objs, quotients=False)
    return _closure_side(tube, reach, quotients=False).finite_objs


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
    return len(arcs) == type_a._quotient_count(_bound(n, arcs, quotients=True))


def is_sub_closed(tube: Tube, desc: SubcatDesc) -> bool:
    """Reflection turns subobjects into quotients."""
    return is_quotient_closed(tube, reflect_desc(tube, desc))


def is_ext_closed(tube: Tube, desc: SubcatDesc) -> bool:
    """Oriented Ptolemy condition: for every negative crossing between
    members, the resolution arcs of the crossing lift are again members.
    Span guard: a listed [a, b] spanning more than n crosses its lift
    [a-n, b-n] with resolution [a-n, b], n longer, which for the longest such
    arc is listed in no lift (with rays, lemma A refuses it too): False.
    Else the lift [d-w, d] of a span w listed at end residue d mod n crosses
    [a, b] iff a < d < b and d - w < a: each crossing is visited once, by
    its end.  With at most one family, a one-sided arc raises ValueError."""
    if desc.rays and desc.corays:
        return desc == everything(tube)
    if desc.corays:
        return is_ext_closed(tube, reflect_desc(tube, desc))
    n, fins, ends = tube.n, desc.finite_objs, {}
    for w, r in {(x.length + 1, x.end % n) for x in fins}:  # x.length raises for a one-sided arc
        ends.setdefault(r, []).append(w)
    if any(x.length >= n for x in fins) or desc.rays and (
        # the first lift of r past x.start lies strictly inside x
        any((r - x.start - 1) % n < x.length for x in fins for r in desc.rays)
        or not is_sub_closed(tube, desc)
    ):
        return False
    return all(
        contains(tube, desc, _canonical(n, s, e))
        for a, b in fins for d in range(a + 1, b) for w in ends.get(d % n, ())
        if d - w < a  # the lift [d - w, d] crosses [a, b] negatively
        for s, e in ((d - w, b), (a, d)) if e - s >= 2  # [a, a + 1] is no arc
    )


# -- perpendicular subcategories ---------------------------------------------------


def right_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    """Descriptor of {y : Hom(x, y) = 0 for every member x of desc}.

    y is in the perp iff none of its subobjects (the arcs at its start, no
    longer than it) is a quotient of a member, so per start s the perp is
    every span below ``minend[s]``, the least span of such a quotient.  The
    quotients of the members ending at residue j are [i, j] for
    low[j] <= i <= j-2, every arc ending at j for a coray j, and every
    simple for a ray, so a ray leaves nothing.
    """
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    low = _bound(n, desc.finite_objs, quotients=True)
    minend = _least_spans(n, low, desc.corays, quotients=True)
    reach = {s: s + d - 1 for s, d in minend.items()}
    return _closure_side(tube, reach, quotients=False, rays=frozenset(range(n)).difference(reach))


def left_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    """Descriptor of {y : Hom(y, x) = 0 for every member x of desc}: the
    reflected right perp of the reflection, since Hom(y, x) = Hom(x^v, y^v)."""
    return reflect_desc(tube, right_perp(tube, reflect_desc(tube, desc)))


# -- torsion pairs ---------------------------------------------------------------


def classify_kind(tube: Tube, pair: TorsionPair) -> str:
    """Coray type iff the torsion side is the infinite one."""
    t_inf = not pair.t_part.is_finite_type
    f_inf = not pair.f_part.is_finite_type
    if t_inf == f_inf:
        raise ValidationError("exactly one side of a torsion pair is of infinite type")
    return CORAY if t_inf else RAY


def _is_canonical(n: int, objs) -> bool:
    """Whether each finite arc starts in 0..n-1 and spans 2 or more."""
    return all(0 <= s < n and s + 2 <= e for s, e in objs)


def is_torsion_pair(tube: Tube, pair: TorsionPair) -> bool:
    """Whether F is the right perp of T and T the left perp of F, as
    canonical descriptors, read off the arrays with no perp built.

    The segment's rule read with period n.  Hom(T, F) = 0 iff each arc of
    F spans less than T's cyclic ``minend`` at its start, and each ray of
    F starts where T has no ``minend`` (see ``right_perp``).  Given that,
    F lies in T^perp and T in perp-F, so with both sides listing canonical
    arcs only, none at their own family, F = T^perp iff F has a ray at
    every start without ``minend`` and numbers as many arcs as T^perp, and
    then T = perp-F iff T has a coray at every end without F's
    ``maxstart`` and numbers as many arcs as perp-F (the mirror of
    ``right_perp``).
    The pair of an object with k Prufers (or adics) lists k rays (or
    corays) and an arc per finite summand, so it lists n items at least.
    """
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
    minend = _least_spans(n, low, t.corays, quotients=True)
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
    maxstart = _least_spans(n, reach, f.rays, quotients=False)
    return (
        bool(maxstart)  # else perp-F is everything, which has rays
        and t.corays == full.difference(maxstart)
        and low.keys() <= maxstart.keys()  # no arc ends at a coray
        and len(t.finite_objs) == sum(maxstart.values()) - 2 * len(maxstart)
    )


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
def _tilting_offsets(m: int, mirror: bool) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """The tilting sets of A_m, each arc [i, j] as (offset, span): placed in
    a wing at base c it starts at c + i, or mirrored at -c - j (see
    :func:`_iter_prufer_type`), and spans j - i; the sets share these
    pairs, one per arc of the segment."""
    pair = {a: (-a.j if mirror else a.i, a.j - a.i) for a in type_a.all_arcs(m)}
    return tuple(tuple(map(pair.__getitem__, t)) for t in type_a.enumerate_tilting(m))


def _iter_prufer_type(tube: Tube, indices: Iterable[int], mirror: bool = False) -> Iterator[MaxRigid]:
    """The Prufer-type maximal rigid objects with exactly the given starts,
    one at a time, or with ``mirror`` their reflections, in the same order.

    The finite summands form a tilting set inside each wing between
    cyclically consecutive Prufer indices, embedded by shifting segment
    arcs to the wing base; each tilting set is placed once per wing.  The
    reflection [i, j] -> [-j, -i] maps a wing to a wing, so a mirrored wing
    is placed the same way: the arc [base + i, base + j] lands at start
    -(base + j) mod n with its span j - i, and the Prufer at the base
    becomes the adic at -base.
    """
    try:
        wings = tube.wing_intersection(indices)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    n = tube.n
    if mirror:
        family, kind, sign = [IndObj(None, -w.start % n) for w in wings], ADIC, -1
    else:
        family, kind, sign = [IndObj(w.start, None) for w in wings], PRUFER, 1
    placed = []
    for w in wings:
        c = sign * w.start
        placed.append([
            [_arc(IndObj, ((c + i) % n, (c + i) % n + d)) for i, d in tilting]
            for tilting in _tilting_offsets(w.end - w.start - 1, mirror)
        ])
    for combo in itertools.product(*placed):
        yield MaxRigid(frozenset(itertools.chain(family, *combo)), kind)


def iter_max_rigid(tube: Tube) -> Iterator[MaxRigid]:
    """Prufer-type objects first (subsets by size then lexicographically,
    then the tilting choices per wing), followed by their reflections in
    the same order.  Lazy, and the adic side costs what the Prufer side
    does: it is placed wing by wing already mirrored (see
    :func:`_iter_prufer_type`), not reflected object by object."""
    for mirror in (False, True):
        for size in range(1, tube.n + 1):
            for idx in itertools.combinations(range(tube.n), size):
                yield from _iter_prufer_type(tube, idx, mirror)


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


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    """The torsion pair of a maximal rigid object, read off the reach and low
    arrays of its finite part.  Prufer type: T is tau^{-1} of the quotient
    closure, F the subobject closure with the rays.  Adic type is the
    mirror: T is the quotient closure with the corays, F tau of the
    subobject closure.

    ``ValidationError`` refuses an object with a summand that spans more
    than n, without a Prufer (adic) summand, of an unknown kind, with other
    than n summands, or whose kind is Prufer (adic) while it holds an adic
    (Prufer) summand; each check is O(1) per summand.  A refusal names the
    least offending summand (by start, or by ``sort_key``), so that it does
    not depend on the set's order, which varies between processes.  Two
    crossing finite summands are trusted, not refused: the pair is then
    wrong, and ``is_torsion_pair`` rejects it.

    So ``is_torsion_pair`` of the result is how a caller checks an untrusted
    object: n distinct summands of one family that pass the checks above
    are maximal rigid iff their pair is a torsion pair.  The forward
    direction is the bijection.  Conversely (Prufer type; adic type is the
    mirror), say U gives a torsion pair, and let V = ``max_rigid_of`` of it.
    V is maximal rigid with the same pair, so the same Prufers (the rays of
    F), and its finite part has the quotient closure and, off the rays, the
    subobject closure of U's.  An arc of V is the longest summand at its
    start or at its end: the third vertex of the triangle beyond it in its
    wing lies on one side of it.  One that starts at a Prufer is the longest
    at its end, since a longer arc there would hold the Prufer strictly
    inside (lemma A).  So it is ``[s, reach[s]]`` or ``[low[e], e]`` of the
    closures, an arc of U: V is within U, and with n summands each, V = U.
    """
    n = tube.n
    prufers, adics, subs, quots = [], [], [], []
    for x in rigid.summands:  # one pass: the anchored lifts of _bound
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
            _closure_side(tube, low, quotients=True, shift=1),
            _closure_side(tube, reach, quotients=False, rays=frozenset(s % n for s, _ in family)),
            RAY,
        )
    return TorsionPair(
        _closure_side(tube, low, quotients=True, corays=frozenset(e % n for _, e in family)),
        _closure_side(tube, reach, quotients=False, shift=-1),
        CORAY,
    )


def _ext_projectives(tube: Tube, low: Dict[int, int], rays) -> MaxRigid:
    """The Prufer-type object of a ray-type pair: the Prufers at the rays of
    F and the Ext-projectives of tau T, whose anchored ``low`` is given, by
    ``type_a``'s rule read with period n."""
    fins = [tube.normalize(a, b) for a, b in type_a._ext_projective_pairs(low, tube.n)]
    return MaxRigid(frozenset(fins + [tube.prufer(i) for i in rays]), PRUFER)


def max_rigid_of(tube: Tube, pair: TorsionPair) -> MaxRigid:
    """Inverse of the bijection: the Ext-projectives of tau T with the
    Prufers at the rays of F (ray type), or the reflection of those of the
    reflected pair (coray type), whose tau T is tau of F reflected.

    Each side of a torsion pair is the perp of the other, so the ``low`` of
    tau T is read off the side whose perp it is: T = perp-F holds the spans
    below F's ``maxstart`` at each end, which tau moves one step left; and
    F = T^perp the spans below T's ``minend`` at each start, which the
    reflection sends to the end -s and tau one step further.
    """
    if not is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n = tube.n
    t, f = pair.t_part, pair.f_part
    if pair.kind == RAY:  # T ends at e with the spans below maxstart[e]; tau T at e - 1
        maxstart = _least_spans(n, _bound(n, f.finite_objs, quotients=False), f.rays, quotients=False)
        spans = {(e - 1) % n: d for e, d in maxstart.items()}
        rays = f.rays
    else:  # F starts at s with the spans below minend[s]; reflected it ends at -s, tau T at -s - 1
        minend = _least_spans(n, _bound(n, t.finite_objs, quotients=True), t.corays, quotients=True)
        spans = {(-s - 1) % n: d for s, d in minend.items()}
        rays = [-j % n for j in t.corays]
    u = _ext_projectives(tube, {e: e - d + 1 for e, d in spans.items()}, rays)
    return u if pair.kind == RAY else reflect_rigid(tube, u)
