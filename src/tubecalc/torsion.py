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
its cyclic ``maxstart[e]`` (the least gap from a member's start to e),
each read off a side that lists its closure.  ``_read_side`` reads a
torsion side's listed arcs once, for its ``low``, its least spans and
whether it is canonical; ``_family_walk`` then adds what a family implies.
``is_torsion_pair`` is the segment's rule read with period n: it refuses a
T that does not number its quotient closure, then checks two count
identities and Hom(T, F) = 0 off T's ``minend``, with no perp descriptor
built; it reads each side once, F arc by arc as a part of T^perp.

The bijection: the two kinds of maximal rigid object differ by one power
of tau.  Write k = 1 for Prufer type (a ray-type pair) and k = 0 for adic
type (a coray-type pair).  An object U with finite part U_fin goes to
(tau^{-k} Gen U_fin, tau^{1-k} Cogen U_fin), with the rays at its Prufer
indices on F or the corays at its adic indices on T: the infinite side.
The finite summands lie wing by wing, each wing a linear A_m segment, and
so do their closures: the finite sides are, wing by wing, the segment's
pair of that wing's tilting set, moved by tau^{-1} (mirrored for adic
type).  ``iter_torsion_pairs`` builds every pair that way, from a table
cached per wing size, in the order of ``iter_max_rigid``, with which it
shares its placement loop (``_iter_prufer_type``); ``torsion_pair_of``
answers one object, given in any form, and is the reference it equals.

The closures, the perps and the quotient check read the ``reach`` and
``low`` arrays that ``type_a`` builds (see there), with each arc on its
anchored lift.  ``torsion_pair_of`` reads both sides of the pair off these
two arrays (tau and tau^{-1} shift the anchor by one).  Every closure takes
its arcs from the tube's fan table: ``_closure_side`` turns its array into
one ``{anchor: span}`` map and reads all its rows in one ``Tube.fans``
call, so a closure neither normalizes nor builds an arc per member.

The inverse reads U off T alone, for both kinds, since each finite
summand is the longest summand at its start or at its end (see
``torsion_pair_of``): tau^k U_fin is the longest arc of T at each end,
off T's ``low``, and tau^{-1} of the longest arc of F = T^perp at each
start, off T's ``minend``, which is the segment's longest-arc rule
(``type_a._longest_arcs``) moved by tau^k.  So the inverse reads no arc of
F.  The Prufers sit at the rays of F, and by lemma A, which
``is_ext_closed`` uses too, the wings lie between them:

A. Ext(Prufer at i, a) != 0 iff i lies strictly inside the arc a, so a
   finite summand lies in a wing between cyclically consecutive rays of F.

The reflection [i,j] -> [-j,-i] is a duality: Hom(y, x) = Hom(x^v, y^v),
and it swaps rays with corays, quotients with subobjects.  So some mirror
-side constructions are derived rather than written out: ``is_sub_closed``
is ``is_quotient_closed`` of the reflection, and ``left_perp`` is the
reflected ``right_perp``.  ``_read_side`` keys a quotient by its start,
and ``is_torsion_pair`` keys an arc of F by its end, so that it reads T's
``minend`` and F's ``maxstart`` with no reflected descriptor.

The value types are namedtuples, as ``IndObj`` is: ``SubcatDesc`` (its
finite arcs, rays and corays, each a frozenset), ``TorsionPair`` (two
descriptors and a kind) and ``MaxRigid`` (a frozenset of summands and a
kind).  They are immutable, and hash and compare as the tuples of their
fields, so a descriptor equals the plain tuple of its three sets.
"""

from __future__ import annotations

import itertools
from collections import namedtuple
from functools import lru_cache
from math import comb
from typing import Dict, FrozenSet, Iterable, Iterator, List, Tuple

from . import type_a
from .arcs import IndObj, Tube, _canonical, sort_key

RAY = "ray"
CORAY = "coray"
PRUFER = "prufer"
ADIC = "adic"
MAX_COUNT_RANK = 7000  # C(14000, 7000) has 4,213 digits: str() prints up to 4,300
_arc = tuple.__new__  # an IndObj without the check that one end is finite


class ValidationError(ValueError):
    """A descriptor or pair fails a structural precondition."""


class SubcatDesc(namedtuple("SubcatDesc", "finite_objs rays corays")):
    """Finite description of an additive subcategory of the tube: a
    frozenset of finite arcs, and frozensets of ray and coray residues."""

    __slots__ = ()

    @property
    def is_finite_type(self) -> bool:
        return not self.rays and not self.corays


class TorsionPair(namedtuple("TorsionPair", "t_part f_part kind")):
    """Two descriptors and the kind, RAY or CORAY."""

    __slots__ = ()


class MaxRigid(namedtuple("MaxRigid", "summands kind")):
    """A frozenset of summands and the kind, PRUFER or ADIC."""

    __slots__ = ()


# -- descriptors ---------------------------------------------------------------


def make_desc(tube: Tube, finite_objs=(), rays=(), corays=()) -> SubcatDesc:
    """Canonical descriptor: finite arcs implied by a ray or coray are
    dropped, and a full set of rays (or corays) collapses to the whole-tube
    descriptor, which lists both families in full."""
    n, rays, corays = tube.n, tuple(rays), tuple(corays)
    for i in rays + corays:
        if type(i) is not int:  # a bool is none, as Tube refuses such a rank
            raise ValidationError(f"ray and coray indices must be integers, got {i!r}")
    rayset, corayset = frozenset(i % n for i in rays), frozenset(j % n for j in corays)
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
    """Whether the finite arc x, given on any lift, is a member of desc:
    an arc that is not on its canonical lift is normalized as ``make_desc``
    normalizes the arcs it lists."""
    if not x.is_finite:
        raise ValidationError("descriptors only answer membership of finite arcs")
    return _member(tube.n, desc, _canonical(tube.n, *x))


def _member(n: int, desc: SubcatDesc, x: IndObj) -> bool:
    """Whether the canonical finite arc x is a member of desc."""
    return x in desc.finite_objs or x[0] in desc.rays or x[1] % n in desc.corays


def members(tube: Tube, desc: SubcatDesc, max_len: int) -> List[IndObj]:
    """Finite arcs of the subcategory: the listed ones and every member up to max_len."""
    short = (x for x in tube.finite_objects(max_len) if contains(tube, desc, x))
    return sorted(desc.finite_objs.union(short), key=sort_key)


def _read_side(n: int, arcs) -> Tuple[Dict[int, int], Dict[int, int], bool]:
    """One pass over a side's listed finite arcs, for three facts.

    - The bound: ``type_a``'s ``low`` of the arcs, each read on its
      anchored lift, the one that ends at residue r for ``low[r]``.
    - Per residue k, the least span of a listed arc starting at k: on a
      side that lists its quotient closure, the cyclic ``minend[k] - k`` of
      ``type_a``, once ``_family_walk`` has added what its corays imply.
    - Whether every arc is canonical: it starts in 0..n-1 and spans 2 or more.

    A one-sided arc raises ValueError, wherever it is listed."""
    pairs: List[Tuple[int, int]] = []
    least: Dict[int, int] = {}
    canonical = True
    try:
        for s, e in arcs:
            d, k, r = e - s, s % n, e % n
            pairs.append((r - d, r))
            if least.get(k, d + 1) > d:
                least[k] = d
            if s != k or d < 2:
                canonical = False
    except TypeError:  # a None endpoint
        raise ValueError("one-sided arcs have no finite length") from None
    return type_a._low(pairs), least, canonical


def _family_walk(n: int, least: Dict[int, int], family, quotients: bool) -> Dict[int, int]:
    """``least`` of ``_read_side``, lowered where a family implies a shorter
    arc: the coray j (``quotients``) has a quotient at every start, and the
    ray i a subobject at every end.  A walk down x = 2n, ..., 2 keeps the
    nearest anchor at or above x, mirrored for rays: the least quotient at
    k of the coray at j ends at the first lift of j from x = k + 2 on,
    which lies among the n positions from x."""
    if family:
        sign = 1 if quotients else -1
        anchors = {sign * a % n for a in family}
        near = 0
        for x in range(2 * n, 1, -1):
            if x % n in anchors:
                near = x
            if x <= n + 1:
                k, d = sign * (x - 2) % n, near - x + 2
                if least.get(k, d + 1) > d:
                    least[k] = d
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
    n, corays = tube.n, desc.corays
    low = _read_side(n, desc.finite_objs)[0]  # a ValueError for a one-sided arc
    listed = sum(e % n not in corays for _, e in desc.finite_objs)
    return listed == type_a._closure_count({r: a for r, a in low.items() if r not in corays})


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
    its end.  Its resolution [d-w, b] is looked up per crossing, and [a, d],
    which does not depend on w, once per listed [a, b] and end d that some
    lift crosses.  With at most one family, a one-sided arc raises
    ValueError."""
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
        (d - a < 2 or _member(n, desc, _canonical(n, a, d)))  # [a, a + 1] is no arc
        and all(_member(n, desc, _canonical(n, d - w, b)) for w in crossing)
        for a, b in fins for d in range(a + 1, b)
        # the lifts [d - w, d] that cross [a, b] negatively
        if (crossing := [w for w in ends.get(d % n, ()) if d - w < a])
    )


# -- perpendicular subcategories ---------------------------------------------------


def right_perp(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    """Descriptor of {y : Hom(x, y) = 0 for every member x of desc}.

    y is in the perp iff none of its subobjects (the arcs at its start, no
    longer than it) is a quotient of a member, so per start s the perp is
    every span below ``minend[s]``, the least span of such a quotient.  The
    quotients of the members ending at residue j are [i, j] for
    low[j] <= i <= j-2, every arc ending at j for a coray j, and every
    simple for a ray, so a ray leaves nothing.  A quotient spanning more
    than n + 1 is never the least at its start, since the one n shorter
    is a quotient too, so the closure built first stops at span n + 1:
    it costs O(n^2) beyond reading the listed arcs, whatever their length.
    """
    if desc.rays:
        return empty_desc(tube)
    n = tube.n
    low = {r: max(a, r - n - 1) for r, a in _read_side(n, desc.finite_objs)[0].items()}
    closure = _closure_side(tube, low, quotients=True)
    _, minend, _ = _read_side(n, closure.finite_objs)
    minend = _family_walk(n, minend, desc.corays, quotients=True)
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


def is_torsion_pair(tube: Tube, pair: TorsionPair) -> bool:
    """Whether F is the right perp of T and T the left perp of F, as
    canonical descriptors, with no perp built.

    The segment's rule read with period n.  T = perp-F is quotient-closed,
    so a T that does not number its quotient closure is refused first.
    Hom(T, F) = 0 iff each arc of F spans less than T's ``minend`` at its
    start and each ray of F starts where T has none (see ``right_perp``).
    Then, with both sides listing canonical arcs only, none at their own
    family, F = T^perp iff F has a ray at every start without ``minend``
    and numbers as many arcs as T^perp; so F needs no closure check, and
    T = perp-F iff T has a coray at every end without F's ``maxstart`` and
    numbers as many arcs as perp-F (the mirror of ``right_perp``).  F is
    read in one pass, arc by arc, after its count.  The pair of an object
    with k Prufers (or adics) lists k rays (or corays) and an arc per
    finite summand, so it lists n items at least.
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
    low, minend, canonical = _read_side(n, t.finite_objs)  # raises as right_perp does
    if len(t.finite_objs) != type_a._closure_count(low) or not canonical:
        return False
    minend = _family_walk(n, minend, t.corays, quotients=True)
    if not minend:  # T is 0, whose right perp is everything
        return f == everything(tube)
    full = frozenset(range(n))
    if (
        f.corays
        or f.rays != full.difference(minend)
        or len(f.finite_objs) != sum(minend.values()) - 2 * len(minend)
    ):
        return False
    maxstart: Dict[int, int] = {}
    try:
        for s, e in f.finite_objs:
            d, a, k = e - s, s % n, e % n
            if s != a or d < 2 or d >= minend.get(a, 0):  # not canonical, or Hom(T, F) != 0
                return False
            if maxstart.get(k, d + 1) > d:
                maxstart[k] = d
    except (TypeError, ValueError):  # a one-sided arc or a malformed item lies in no perp
        return False
    maxstart = _family_walk(n, maxstart, f.rays, quotients=False)
    return (
        bool(maxstart)  # else perp-F is everything, which has rays
        and t.corays == full.difference(maxstart)
        and low.keys() <= maxstart.keys()  # no arc ends at a coray
        and len(t.finite_objs) == sum(maxstart.values()) - 2 * len(maxstart)
    )


# -- enumeration -----------------------------------------------------------------


@lru_cache(maxsize=None)
def _tilting_offsets(m: int, mirror: bool, closures: bool = False) -> tuple:
    """The tilting sets U of A_m, in ``type_a.enumerate_tilting``'s order,
    and the distinct (offset, span) pairs they hold.  A segment arc [i, j]
    is the pair (i, j - i): placed in a wing at base c it starts at c + i,
    or mirrored at -c - j (see :func:`_iter_prufer_type`), and spans j - i.

    Each set is its summands, or with ``closures`` the two pieces of its
    torsion pair in the wing, (T's, F's): ``type_a.torsion_pair_of_tilting``'s
    Gen U and Cogen tau U, each moved by tau^{-1}, one step right.  The
    reflection exchanges Gen with Cogen and tau with tau^{-1}, so mirrored
    the pieces swap sides.  Every pair is one instance that all the sets
    share, so a table of Catalan(m) sets holds O(m^2) pairs."""
    shared: Dict[Tuple[int, int], Tuple[int, int]] = {}

    def piece(arcs, step: int = 0) -> Tuple[Tuple[int, int], ...]:
        pairs = ((-a.j - step if mirror else a.i + step, a.j - a.i) for a in arcs)
        return tuple(shared.setdefault(p, p) for p in pairs)

    rows = []
    for u in type_a.enumerate_tilting(m):
        if closures:
            t, f = (piece(side, 1) for side in type_a.torsion_pair_of_tilting(m, u))
            rows.append((f, t) if mirror else (t, f))
        else:
            rows.append(piece(u))
    return tuple(rows), tuple(shared)


def _iter_prufer_type(
    tube: Tube, indices: Iterable[int], mirror: bool = False, closures: bool = False
) -> Iterator:
    """The Prufer-type maximal rigid objects with exactly the given starts,
    one at a time, or with ``mirror`` their reflections, in the same order;
    with ``closures`` the torsion pair of each instead, in the same order.

    The finite summands form a tilting set inside each wing between
    cyclically consecutive Prufer indices, embedded by shifting segment
    arcs to the wing base; each tilting set is placed once per wing.  The
    reflection [i, j] -> [-j, -i] maps a wing to a wing, so a mirrored wing
    is placed the same way: the arc [base + i, base + j] lands at start
    -(base + j) mod n with its span j - i, and the Prufer at the base
    becomes the adic at -base.  Every placed arc is one of the tube's fan
    rows (``Tube.fans``), so a placement builds no arc.

    The pair is built wing by wing too.  A quotient or a subobject of a
    summand lies in its wing, so Gen U_fin and Cogen U_fin are the unions
    of the segment's closures, wing by wing, and ``torsion_pair_of``'s T and
    F are the placed pieces of ``_tilting_offsets``: T = tau^{-1} Gen U_fin
    and F = Cogen U_fin, whose arcs at a Prufer the ray there implies
    (Cogen tau U, moved by tau^{-1}, holds none).  The rays at the Prufers
    join F, or mirrored the corays at the adics join T; a full family makes
    its side everything (``_desc``'s rule), with every wing empty.
    """
    try:
        wings = tube.wing_intersection(indices)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    n = tube.n
    sign = -1 if mirror else 1
    at = frozenset(sign * w.start % n for w in wings)  # the family's residues
    fans = tube.fans(dict.fromkeys(range(n), n))  # span d at start s: fans[s * (n - 1) + d - 2]
    placed = []
    for w in wings:
        rows, pairs = _tilting_offsets(w.end - w.start - 1, mirror, closures)
        c = sign * w.start
        arc = dict(zip(pairs, [fans[(c + i) % n * (n - 1) + d - 2] for i, d in pairs])).__getitem__
        if closures:
            placed.append([(list(map(arc, t)), list(map(arc, f))) for t, f in rows])
        else:
            placed.append([list(map(arc, u)) for u in rows])
    combos = itertools.product(*placed)
    if not closures:
        family = [_arc(IndObj, (None, a) if mirror else (a, None)) for a in at]
        kind = ADIC if mirror else PRUFER
        for combo in combos:
            yield MaxRigid(frozenset(itertools.chain(family, *combo)), kind)
        return
    none = frozenset()
    if len(at) == n:  # every wing is empty
        whole, zero = everything(tube), SubcatDesc(none, none, none)
        yield TorsionPair(whole, zero, CORAY) if mirror else TorsionPair(zero, whole, RAY)
        return
    chain = itertools.chain.from_iterable
    for combo in combos:
        t, f = zip(*combo)
        t, f = frozenset(chain(t)), frozenset(chain(f))
        if mirror:
            yield TorsionPair(SubcatDesc(t, none, at), SubcatDesc(f, none, none), CORAY)
        else:
            yield TorsionPair(SubcatDesc(t, none, none), SubcatDesc(f, at, none), RAY)


def _iter_objects(tube: Tube, closures: bool) -> Iterator:
    """``_iter_prufer_type`` over every family: the Prufer-type side, then
    its mirror."""
    for mirror in (False, True):
        for size in range(1, tube.n + 1):
            for idx in itertools.combinations(range(tube.n), size):
                yield from _iter_prufer_type(tube, idx, mirror, closures)


def iter_max_rigid(tube: Tube) -> Iterator[MaxRigid]:
    """Prufer-type objects first (subsets by size then lexicographically,
    then the tilting choices per wing), followed by their reflections in
    the same order.  Lazy, and the adic side costs what the Prufer side
    does: it is placed wing by wing already mirrored (see
    :func:`_iter_prufer_type`), not reflected object by object."""
    return _iter_objects(tube, closures=False)


def iter_torsion_pairs(tube: Tube) -> Iterator[TorsionPair]:
    """The torsion pair of each object of :func:`iter_max_rigid`, in its
    order, equal to ``torsion_pair_of``'s: built wing by wing from the
    segment's pair of each wing's tilting set (see
    :func:`_iter_prufer_type`), with no ``torsion_pair_of`` call.  The
    table behind it is cached per wing size, so a census of all pairs costs
    a placement per wing and two sets per pair; ``torsion_pair_of`` stays
    the path that answers one object."""
    return _iter_objects(tube, closures=True)


def enumerate_max_rigid(tube: Tube) -> List[MaxRigid]:
    """Every maximal rigid object, in the order of :func:`iter_max_rigid`."""
    return list(iter_max_rigid(tube))


def count_max_rigid(tube: Tube) -> int:
    """``len(enumerate_max_rigid(tube))``, which is C(2n, n), without
    building an object; a ValueError above MAX_COUNT_RANK.

    A Prufer-type object cuts the n marked points into cyclic gaps g
    between consecutive Prufer indices, with one of Catalan(g-1) tilting
    sets of A_{g-1} in each wing; reflection pairs it with an adic-type one.
    Let C(x) be the series of the Catalan numbers and D = xC, the gaps
    weighed by their tilting sets; D = x + D^2.  The gap sequences of m
    points on a line number [x^m] 1/(1 - D) = C, that is Catalan(m), and the
    gap that holds the point 0 has g positions, so each kind numbers [x^n]
    of x D' C.  Since D' = 1/(1 - 2D), this is D/(1 - 2D) =
    (1/sqrt(1 - 4x) - 1)/2, whose coefficient of x^n is C(2n, n)/2.
    """
    if tube.n > MAX_COUNT_RANK:
        raise ValueError(f"rank {tube.n} is above the bound MAX_COUNT_RANK = {MAX_COUNT_RANK}")
    return comb(2 * tube.n, tube.n)


# -- the bijection -----------------------------------------------------------------


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    """The torsion pair of a maximal rigid object, read off the reach and low
    arrays of its finite part U_fin.  For kind k (1 for Prufer, 0 for adic),
    T is tau^{-k} of the quotient closure Gen U_fin and F is tau^{1-k} of
    the subobject closure Cogen U_fin; the rays at the Prufers join F, or
    the corays at the adics join T.

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
    for x in rigid.summands:  # one pass: each arc on its anchored lifts
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
        family, stray, name, other, k = prufers, adics, "Prufer", "adic", 1
    elif rigid.kind == ADIC:
        family, stray, name, other, k = adics, prufers, "adic", "Prufer", 0
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
    at = frozenset(x[1 - k] % n for x in family)  # a Prufer's start, an adic's end
    return TorsionPair(
        _closure_side(tube, low, quotients=True, shift=k, corays=frozenset() if k else at),
        _closure_side(tube, reach, quotients=False, shift=k - 1, rays=at if k else frozenset()),
        RAY if k else CORAY,
    )


def max_rigid_of(tube: Tube, pair: TorsionPair) -> MaxRigid:
    """Inverse of the bijection, read off T alone: each finite summand is
    the longest summand at its start or at its end (see
    ``torsion_pair_of``).

    For kind k (1 for ray type, 0 for coray type), T = tau^{-k} Gen U_fin
    and F = T^perp, so F's longest arc at a start s is [s, s + d - 1] for
    T's cyclic ``minend`` span d there (no arc for d = 2, a ray where T
    has no arc).  U_fin is ``type_a._longest_arcs`` of T's ``low`` and
    those spans, moved by tau^k; the Prufers sit at F's rays, the adics at
    T's corays.  Once the pair is validated, T is read once
    (``_read_side``), and each summand is built on its canonical lift, the
    one-sided ones at the validated residues.
    """
    if not is_torsion_pair(tube, pair):
        raise ValidationError("input does not validate as a torsion pair")
    n, t = tube.n, pair.t_part
    low, minend, _ = _read_side(n, t.finite_objs)
    minend = _family_walk(n, minend, t.corays, quotients=True)  # T has none for ray type
    if pair.kind == RAY:
        k, kind, family = 1, PRUFER, [_arc(IndObj, (i % n, None)) for i in pair.f_part.rays]
    else:
        k, kind, family = 0, ADIC, [_arc(IndObj, (None, j % n)) for j in t.corays]
    arcs = type_a._longest_arcs(low, minend.items(), k)
    fins = [_arc(IndObj, (a % n, b - a + a % n)) for a, b in arcs]  # each on its canonical lift
    return MaxRigid(frozenset(fins + family), kind)
