"""Torsion pairs in a tube and maximal rigid objects in its limit closure.

The subcategories appearing in torsion pairs admit a finite description:
an explicit set of finite arcs plus the indices of fully contained rays
(fixed start) and corays (fixed end).  Membership of a long arc depends
only on its anchor index once the length clears a cutoff, so every
predicate here reduces to finitely many O(1) crossing checks.

The bijection: a Prufer-type maximal rigid object U yields the pair
(tau^{-1} of the left-shortening closure of its finite part, right
-shortening closure of the finite part together with the rays at its
Prufer indices); adic-type is the reflected dual.  The inverse filters
the Ext-orthogonal arcs out of the infinite part of the pair.

The reflection [i,j] -> [-j,-i] is a duality: Hom(y, x) = Hom(x^v, y^v),
and it swaps rays with corays, quotients with subobjects.  So the mirror
-side predicates are derived rather than written out: ``left_perp`` is the
reflected ``right_perp`` of the reflected descriptor, and ``is_sub_closed``
is ``is_quotient_closed`` of the reflection.

``torsion_pair_of``, ``max_rigid_of`` and ``is_torsion_pair`` keep their
hand-written coray/adic branches and the early-exit Hom(T, F) loops, for
speed (perfbench on a 2-vCPU Intel Xeon host, medians of three 16 s runs):
reflecting the adic branch of ``torsion_pair_of`` lowered census throughput
by 13% (4157 -> 3610 ops/s); reflecting the coray branch of ``max_rigid_of``
raised the median reject latency from 1.66 to 2.71 ms, dropping the Hom
loops raised it to 3.31 ms, and validating by the bijection round trip
instead of ``is_torsion_pair`` raised it to 8.06 ms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, List, Optional, Tuple

from . import type_a
from .arcs import IndObj, Tube, sort_key
from .homs import ext_dim, hom_dim, neg_crossing_shifts

RAY = "ray"
CORAY = "coray"
PRUFER = "prufer"
ADIC = "adic"


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

    @property
    def is_empty(self) -> bool:
        return not self.finite_objs and self.is_finite_type


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


def default_cutoff(tube: Tube, *descs: SubcatDesc) -> int:
    """Lengths beyond one sigma-period past every explicit arc behave
    periodically; the extra period is a safety margin checked by tests."""
    maxlen = max(
        (x.length for d in descs for x in d.finite_objs), default=0
    )
    return 2 * tube.n + maxlen + 2


def members(tube: Tube, desc: SubcatDesc, max_len: int) -> List[IndObj]:
    """Finite arcs of the subcategory, ray/coray families truncated at max_len."""
    out = set(desc.finite_objs)
    for i in desc.rays:
        out |= tube.ray_members(i, max_len)
    for j in desc.corays:
        out |= tube.coray_members(j, max_len)
    return sorted(out, key=sort_key)


def left_closure(tube: Tube, objs) -> frozenset:
    out = set()
    for x in objs:
        out |= tube.left_shortenings(x)
    return frozenset(out)


def right_closure(tube: Tube, objs) -> frozenset:
    out = set()
    for x in objs:
        out |= tube.right_shortenings(x)
    return frozenset(out)


def reflect_desc(tube: Tube, desc: SubcatDesc) -> SubcatDesc:
    n = tube.n
    return make_desc(
        tube,
        (tube.reflect(x) for x in desc.finite_objs),
        rays=((-j) % n for j in desc.corays),
        corays=((-i) % n for i in desc.rays),
    )


# -- closure predicates ----------------------------------------------------------


def is_quotient_closed(tube: Tube, desc: SubcatDesc, cutoff: Optional[int] = None) -> bool:
    limit = cutoff or default_cutoff(tube, desc)
    for x in members(tube, desc, limit):
        for q in tube.left_shortenings(x):
            if not contains(tube, desc, q):
                return False
    return True


def is_sub_closed(tube: Tube, desc: SubcatDesc, cutoff: Optional[int] = None) -> bool:
    """Reflection turns subobjects into quotients."""
    return is_quotient_closed(tube, reflect_desc(tube, desc), cutoff)


def is_ext_closed(tube: Tube, desc: SubcatDesc, cutoff: Optional[int] = None) -> bool:
    """Oriented Ptolemy condition: for every negative crossing between
    members, the resolution arcs of the crossing lift are again members."""
    limit = cutoff or default_cutoff(tube, desc)
    n = tube.n
    mem = members(tube, desc, limit)
    for x in mem:
        for y in mem:
            for k in neg_crossing_shifts(tube, x, y):
                lifted = type_a.AArc(y.start + k * n, y.end + k * n)
                for mid in type_a.ses_middle(type_a.AArc(x.start, x.end), lifted):
                    if not contains(tube, desc, tube.normalize(mid.i, mid.j)):
                        return False
    return True


# -- perpendicular subcategories ---------------------------------------------------


def _receives_nonzero(tube: Tube, desc: SubcatDesc, y: IndObj) -> bool:
    """Does some member of desc admit a nonzero map INTO y?

    A full ray reaches every arc through a quotient, so rays kill all of
    the perpendicular; deep coray members act on targets exactly like the
    adic arc with the same end.
    """
    if desc.rays:
        return True
    for j in desc.corays:
        if hom_dim(tube, tube.adic(j), y):
            return True
    for x in desc.finite_objs:
        if hom_dim(tube, x, y):
            return True
    return False


def right_perp(tube: Tube, desc: SubcatDesc, cutoff: Optional[int] = None) -> SubcatDesc:
    """Descriptor of {y : Hom(x, y) = 0 for every member x of desc}."""
    if desc.is_empty:
        return everything(tube)
    limit = cutoff or default_cutoff(tube, desc)
    n = tube.n
    surv = set()
    for l in range(1, limit + 1):
        for s in range(n):
            y = tube.normalize(s, s + l + 1)
            if not _receives_nonzero(tube, desc, y):
                surv.add(y)
    rays_out = [
        s
        for s in range(n)
        if all(tube.normalize(s, s + l + 1) in surv for l in range(1, limit + 1))
    ]
    corays_out = [
        e
        for e in range(n)
        if all(tube.normalize(e - l - 1, e) in surv for l in range(1, limit + 1))
    ]
    rayset, corayset = set(rays_out), set(corays_out)
    fin = [
        y
        for y in surv
        if y.start not in rayset and y.end % n not in corayset
    ]
    if any(y.length > limit - n for y in fin):
        raise RuntimeError("perp cutoff too small; descriptor would be lossy")
    return make_desc(tube, fin, rays_out, corays_out)


def left_perp(tube: Tube, desc: SubcatDesc, cutoff: Optional[int] = None) -> SubcatDesc:
    """Descriptor of {y : Hom(y, x) = 0 for every member x of desc}, the
    mirror of the right perp since Hom(y, x) = Hom(x^v, y^v)."""
    return reflect_desc(tube, right_perp(tube, reflect_desc(tube, desc), cutoff))


# -- torsion pairs ---------------------------------------------------------------


def classify_kind(tube: Tube, pair: TorsionPair) -> str:
    """Coray type iff the torsion side is the infinite one."""
    t_inf = not pair.t_part.is_finite_type
    f_inf = not pair.f_part.is_finite_type
    if t_inf == f_inf:
        raise ValidationError("exactly one side of a torsion pair is of infinite type")
    return CORAY if t_inf else RAY


def is_torsion_pair(tube: Tube, pair: TorsionPair, cutoff: Optional[int] = None) -> bool:
    """Hom(t_part, f_part) = 0 plus both mutual-perp identities."""
    t, f = pair.t_part, pair.f_part
    try:
        if classify_kind(tube, pair) != pair.kind:
            return False
    except ValidationError:
        return False
    limit = cutoff or default_cutoff(tube, t, f)
    f_mem = members(tube, f, limit)
    if t.rays and f_mem:
        # a full ray maps onto every arc, so nothing can sit on the right
        return False
    for x in members(tube, t, limit):
        if any(hom_dim(tube, x, y) for y in f_mem):
            return False
        if any(hom_dim(tube, x, tube.prufer(i)) for i in f.rays):
            return False
    for j in t.corays:
        adic = tube.adic(j)
        if any(hom_dim(tube, adic, y) for y in f_mem):
            return False
    return (
        right_perp(tube, t, cutoff) == f and left_perp(tube, f, cutoff) == t
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
def _tilting_sets(m: int) -> Tuple[frozenset, ...]:
    return tuple(type_a.enumerate_tilting(m))


def prufer_type_rigids(tube: Tube, indices: Iterable[int]) -> List[MaxRigid]:
    """All Prufer-type maximal rigid objects with exactly the given starts.

    The finite summands form a tilting set inside each wing between
    cyclically consecutive Prufer indices, embedded by shifting segment
    arcs to the wing base.
    """
    try:
        wings = tube.wing_intersection(indices)
    except ValueError as exc:
        raise ValidationError(str(exc)) from None
    choice_lists = [_tilting_sets(w.end - w.start - 1) for w in wings]
    prufers = frozenset(tube.prufer(w.start) for w in wings)
    out = []
    for combo in itertools.product(*choice_lists):
        summands = set(prufers)
        for w, tilting in zip(wings, combo):
            for arc in tilting:
                summands.add(tube.normalize(w.start + arc.i, w.start + arc.j))
        out.append(MaxRigid(frozenset(summands), PRUFER))
    return out


def enumerate_max_rigid(tube: Tube) -> List[MaxRigid]:
    """Prufer-type objects first (subsets by size then lexicographically,
    then the tilting choices per wing), followed by their reflections."""
    prufer_side: List[MaxRigid] = []
    for size in range(1, tube.n + 1):
        for idx in itertools.combinations(range(tube.n), size):
            prufer_side.extend(prufer_type_rigids(tube, idx))
    adic_side = [reflect_rigid(tube, u) for u in prufer_side]
    return prufer_side + adic_side


# -- the bijection -----------------------------------------------------------------


def torsion_pair_of(tube: Tube, rigid: MaxRigid) -> TorsionPair:
    fins = [x for x in rigid.summands if x.is_finite]
    if rigid.kind == PRUFER:
        ray_idx = [x.start for x in rigid.summands if x.is_prufer]
        if not ray_idx:
            raise ValidationError("Prufer-type object has no Prufer summand")
        f_part = make_desc(tube, right_closure(tube, fins), rays=ray_idx)
        t_part = make_desc(
            tube, (tube.tau_inv(x) for x in left_closure(tube, fins))
        )
        return TorsionPair(t_part, f_part, RAY)
    if rigid.kind == ADIC:
        coray_idx = [x.end for x in rigid.summands if x.is_adic]
        if not coray_idx:
            raise ValidationError("adic-type object has no adic summand")
        t_part = make_desc(tube, left_closure(tube, fins), corays=coray_idx)
        f_part = make_desc(
            tube, (tube.tau(x) for x in right_closure(tube, fins))
        )
        return TorsionPair(t_part, f_part, CORAY)
    raise ValidationError(f"unknown kind {rigid.kind!r}")


def max_rigid_of(tube: Tube, pair: TorsionPair, cutoff: Optional[int] = None) -> MaxRigid:
    """Inverse of the bijection: candidates are the arcs of the infinite
    part plus its limit arcs; keep those with no negative crossing from
    (ray type) or into (coray type) any candidate."""
    if not is_torsion_pair(tube, pair, cutoff):
        raise ValidationError("input does not validate as a torsion pair")
    limit = cutoff or default_cutoff(tube, pair.t_part, pair.f_part)
    if pair.kind == RAY:
        cands = list(members(tube, pair.f_part, limit))
        cands += [tube.prufer(i) for i in sorted(pair.f_part.rays)]
        keep = [a for a in cands if all(ext_dim(tube, b, a) == 0 for b in cands)]
        kind = PRUFER
    else:
        cands = list(members(tube, pair.t_part, limit))
        cands += [tube.adic(j) for j in sorted(pair.t_part.corays)]
        keep = [a for a in cands if all(ext_dim(tube, a, b) == 0 for b in cands)]
        kind = ADIC
    if len(keep) != tube.n:
        raise RuntimeError(
            f"expected {tube.n} summands, found {len(keep)}; cutoff too small?"
        )
    return MaxRigid(frozenset(keep), kind)
