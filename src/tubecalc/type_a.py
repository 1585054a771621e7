"""Arcs over a marked line segment: the linearly oriented type-A model.

Modules over the linearly oriented A_m quiver correspond to arcs [i,j]
(j >= i+2) over a segment with marked points 0..m+1.  Ext^1 is 0 or 1 and
detected by a single negative crossing; tilting sets are triangulations of
the (m+2)-gon; torsion pairs come from shortening closures.  These
functions also power wing-level computations inside a tube, since every
wing of width at most n+1 is equivalent to such a module category.
Every function that takes m refuses m < 0 (``_check_segment``).

An arc is an ``AArc``: an immutable object with slots ``i`` and ``j``,
hashed as the pair (i, j), and equal only to an ``AArc`` with the same
ends, never to a tuple or to a tube arc (``arcs.IndObj``, which is one).
The segment model takes its arcs from one shared table (``_shared``): the
arcs that ``all_arcs``, the closures and both directions of the bijection
return are the table's instances, so a closure
builds no arc and two sets of them compare by identity.  An arc built
directly equals the table's.

The closures and validators read each fact off one integer array per side,
so no loop runs over pairs of arcs.  ``_low`` and ``_reach`` build them for
both models: ``torsion`` feeds them each tube arc on its anchored lift (the
one starting at residue s for ``reach[s]``, ending at r for ``low[r]``).

- ``low[j]``, the smallest start of an arc ending at j, fixes the quotient
  closure (starts low[j]..j-2 at end j); ``reach[i]``, the largest end of
  an arc starting at i, fixes the subobject closure (ends i+2..reach[i]);
- ``minend[s] = min{t.j : t.i <= s <= t.j-2}`` and ``maxstart[e] =
  max{f.i : f.i+2 <= e <= f.j}`` bound the perps; both models read them
  as spans, ``minend[s] - s`` and ``e - maxstart[e]``: ``minend`` off a
  T that numbers its closure (the segment with ``_minspan``, the tube
  cyclically with ``torsion._read_side``), ``maxstart`` in the
  validator's one pass over F.

Three rules follow, each exact:

- Perp bound: a nonzero map x -> y has image [y.i, x.j], a quotient of x
  and a subobject of y, so y is in T^perp iff y.j < minend[y.i], and x is
  in perp-F iff x.i > maxstart[x.j]; perps are then counted per start or
  per end.
- Ptolemy rule on ``low``: in a quotient-closed T, [a, d] crossing [c, b]
  (a < c < d < b) resolves into [c, d], a quotient of [a, d], and [a, b],
  so T is extension-closed iff no ends d < b have low[d] < low[b] < d.
- Longest-arc rule (``_longest_arcs``): each arc of a tilting set U is
  the longest arc of U at its start or at its end, since the triangle
  beyond it has its third vertex on one side of it.  So with T = Gen U and
  T^perp = Cogen tau U, U is [low[e], e] at each end e of T together with
  [s + 1, minend[s]], tau^{-1} of the longest arc of T^perp at start s,
  wherever that spans 2 or more.  Both models call it: the segment's
  ``tilting_of_torsion_pair``, and the tube's ``max_rigid_of``, whose
  torsion side is tau^{-k} Gen U for an object of kind k.
"""

from __future__ import annotations

from typing import Collection, Dict, Iterable, List, Tuple

from .arcs import _Memo


class AArc:
    """The segment arc [i, j].  Immutable; hashed as the pair (i, j), and
    equal only to an ``AArc`` with the same ends."""

    __slots__ = ("i", "j", "_hash")

    def __init__(self, i: int, j: int):
        put = object.__setattr__
        put(self, "i", i)
        put(self, "j", j)
        put(self, "_hash", hash((i, j)))

    def __eq__(self, other):
        if other.__class__ is AArc:
            return self.i == other.i and self.j == other.j
        return NotImplemented

    def __hash__(self) -> int:
        return self._hash

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):  # copy, deepcopy and pickle build it anew
        return AArc, (self.i, self.j)

    def __repr__(self) -> str:
        return f"AArc(i={self.i!r}, j={self.j!r})"

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


# The shared arcs, keyed by (i, j); A_8 has 36 arcs.
MAX_ARCS = 1 << 12
_ARCS = _Memo(MAX_ARCS)


def _shared(pairs: Collection[Tuple[int, int]]) -> List[AArc]:
    """The table's arc for each (i, j) pair, in the pairs' order; the
    arcs it misses are built and kept."""
    try:
        return list(map(_ARCS.__getitem__, pairs))
    except KeyError:
        arcs = [_ARCS.get(p) or AArc(*p) for p in pairs]
        _ARCS.keep(dict(zip(pairs, arcs)))
        return arcs


def _check_segment(m: int) -> None:
    """The one check of m that every segment function makes."""
    if m < 0:
        raise ValueError(f"a segment needs m >= 0, got {m}")


def check_arc(m: int, x: AArc) -> None:
    _check_segment(m)
    if not (0 <= x.i and x.j <= m + 1 and x.j >= x.i + 2):
        raise ValueError(f"arc {x} does not fit on a segment with points 0..{m + 1}")


def all_arcs(m: int) -> List[AArc]:
    """Every arc on the segment, in lexicographic order."""
    _check_segment(m)
    return _shared([(i, j) for i in range(0, m) for j in range(i + 2, m + 2)])


def crossing(x: AArc, y: AArc) -> bool:
    return x.i < y.i < x.j < y.j or y.i < x.i < y.j < x.j


def _low(pairs) -> Dict[int, int]:
    """``low[j]`` of (start, end) pairs, over the ends that have an arc;
    pairs shorter than [j-2, j] are skipped."""
    low: Dict[int, int] = {}
    for i, j in pairs:
        if low.get(j, j - 1) > i:
            low[j] = i
    return low


def _reach(pairs) -> Dict[int, int]:
    """``reach[i]`` of (start, end) pairs, over the starts that have an arc;
    pairs shorter than [i, i+2] are skipped."""
    reach: Dict[int, int] = {}
    for i, j in pairs:
        if reach.get(i, i + 1) < j:
            reach[i] = j
    return reach


def _quotients(low: Dict[int, int]) -> frozenset:
    """The quotient closure that ``low`` fixes."""
    return frozenset(_shared([(i, j) for j, a in low.items() for i in range(a, j - 1)]))


def _subobjects(reach: Dict[int, int]) -> frozenset:
    """The subobject closure that ``reach`` fixes."""
    return frozenset(_shared([(i, j) for i, b in reach.items() for j in range(i + 2, b + 1)]))


def left_closure(arcs) -> frozenset:
    """The quotients of the arcs: same end, start moved weakly right."""
    return _quotients(_low((x.i, x.j) for x in arcs))


def right_closure(arcs) -> frozenset:
    """The subobjects of the arcs: same start, end moved weakly left."""
    return _subobjects(_reach((x.i, x.j) for x in arcs))


def enumerate_tilting(m: int) -> List[frozenset]:
    """All tilting sets: maximal noncrossing m-subsets containing [0, m+1].

    Backtracking over the lexicographically ordered arc list with a bitmask
    per arc of the later arcs it does not cross.  Each state pushes its
    candidates largest first, so the sets come out in lexicographic order.
    """
    arcs = all_arcs(m)
    if m == 0:
        return [frozenset()]
    masks = [
        sum(1 << b for b in range(a + 1, len(arcs)) if not crossing(x, arcs[b]))
        for a, x in enumerate(arcs)
    ]
    base = arcs.index(AArc(0, m + 1))  # it crosses no arc
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


def is_tilting(m: int, arcs) -> bool:
    """m pairwise noncrossing arcs, [0, m+1] among them; ``check_arc``'s
    ValueError for an arc that does not fit the segment."""
    pairs = _segment_pairs(m, frozenset(arcs))
    if len(pairs) != m or (m > 0 and (0, m + 1) not in pairs):
        return False
    # By start, then longest first: the arcs that still cover a start are
    # nested, innermost on top, and [k, l] crosses one of them iff it
    # crosses the top one, [i, j] with i < k < j < l.
    stack: List[Tuple[int, int]] = []
    for k, l in sorted(pairs, key=lambda p: (p[0], -p[1])):
        while stack and stack[-1][1] <= k:
            stack.pop()
        if stack and stack[-1][0] < k and stack[-1][1] < l:
            return False
        stack.append((k, l))
    return True


def torsion_pair_of_tilting(m: int, tilting) -> Tuple[frozenset, frozenset]:
    """(Gen U, Cogen tau(U)): close U under left-shortening; shift U one step
    left (dropping arcs at the wall) and close under right-shortening.
    ``check_arc``'s ValueError for an arc that does not fit the segment."""
    pairs = _segment_pairs(m, frozenset(tilting))
    return _quotients(_low(pairs)), _subobjects(_reach((i - 1, j - 1) for i, j in pairs if i >= 1))


def _segment_pairs(m: int, arcs) -> List[Tuple[int, int]]:
    """The arcs as (start, end) pairs; ``check_arc``'s ValueError for an arc
    that does not fit the segment."""
    _check_segment(m)
    pairs = [(x.i, x.j) for x in arcs]
    for (i, j), x in zip(pairs, arcs):
        if i < 0 or j > m + 1 or j < i + 2:
            check_arc(m, x)
    return pairs


def _closure_count(bound: Dict[int, int]) -> int:
    """The size of the closure that ``low`` or ``reach`` fixes."""
    return sum(abs(b - a) for a, b in bound.items()) - len(bound)


def _is_torsion_low(low: Dict[int, int], size: int) -> bool:
    """Whether ``size`` distinct arcs with this ``low`` form a torsion class:
    quotient-closed iff they number sum(j - 1 - low[j]), every start from
    low[j] to j-2 at each end j; then extension-closed by the Ptolemy rule."""
    if size != _closure_count(low):
        return False
    for b, a in low.items():
        for d in range(a + 1, b):
            if low.get(d, a) < a:
                return False
    return True


def _minspan(m: int, pairs) -> List[int]:
    """``minend[s] - s`` for s in 0..m-1: the least span of an arc at
    start s, or the span to the wall m + 2 where none starts."""
    minspan = list(range(m + 2, 2, -1))
    for i, j in pairs:
        if j - i < minspan[i]:
            minspan[i] = j - i
    return minspan


def _longest_arcs(low: Dict[int, int], spans: Iterable[Tuple[int, int]], k: int) -> List[Tuple[int, int]]:
    """The longest-arc rule: [low[e], e] at each end e, and [s + 1, s + d]
    for each (start s, least span d) of ``spans`` with d > 2, tau^{-1} of
    the perp's longest arc [s, s + d - 1] there; all moved by tau^k, as
    (start, end) pairs.  An arc that is longest at both its ends comes
    twice."""
    arcs = [(a - k, e - k) for e, a in low.items()]
    arcs += [(s + 1 - k, s + d - k) for s, d in spans if d > 2]
    return arcs


def tilting_of_torsion_pair(m: int, t_part) -> frozenset:
    """The tilting set U with T = Gen U, for a torsion class T containing
    every injective arc: ``_longest_arcs`` of T's ``low`` and least spans,
    unmoved."""
    pairs = _segment_pairs(m, frozenset(t_part))
    low = _low(pairs)
    if not _is_torsion_low(low, len(pairs)):
        raise ValueError("input is not a torsion class")
    if m and low.get(m + 1) != 0:
        raise ValueError("torsion class must contain every injective arc")
    return frozenset(_shared(_longest_arcs(low, enumerate(_minspan(m, pairs)), 0)))


def is_torsion_class(arcs) -> bool:
    """Whether the arcs form a torsion class: quotient-closed and
    extension-closed, read off ``low`` (``_is_torsion_low``).  Public as one
    of the segment model's validators, which the README names."""
    pairs = [(x.i, x.j) for x in frozenset(arcs) if x.j >= x.i + 2]
    return _is_torsion_low(_low(pairs), len(pairs))


def is_torsionfree_class(arcs) -> bool:
    """Whether the arcs form a torsionfree class: ``is_torsion_class`` of
    the reflection [i, j] -> [-j, -i], which swaps subobjects and quotients.
    Public as one of the segment model's validators, which the README
    names."""
    pairs = [(-x.j, -x.i) for x in frozenset(arcs) if x.j >= x.i + 2]
    return _is_torsion_low(_low(pairs), len(pairs))


def is_torsion_pair(m: int, t_part, f_part) -> bool:
    """Hom(T, F) = 0, read off ``minend``; given that, F = T^perp and
    T = perp-F iff each side numbers as many arcs as the other's perp, which
    lie below ``minend`` and above ``maxstart``.  T = perp-F is
    quotient-closed, so a T that does not number its quotient closure is
    refused first; F within T^perp with as many arcs is T^perp, so F needs
    no closure check.  One pass over F checks Hom(T, F) = 0 arc by arc and
    keeps F's least span at each end, e + 1 where none ends at e.  Each
    simple [i, i+2] lies in T or in F, so fewer than m arcs in all are
    refused before a list of m + 2 entries is built: linear in the input."""
    t_pairs = _segment_pairs(m, frozenset(t_part))
    f_pairs = _segment_pairs(m, frozenset(f_part))
    if len(t_pairs) + len(f_pairs) < m or len(t_pairs) != _closure_count(_low(t_pairs)):
        return False
    minspan = _minspan(m, t_pairs)
    if len(f_pairs) != sum(minspan) - 2 * m:
        return False
    maxspan = list(range(1, m + 3))
    for i, j in f_pairs:
        if j - i >= minspan[i]:
            return False
        if j - i < maxspan[j]:
            maxspan[j] = j - i
    return len(t_pairs) == sum(maxspan[2:]) - 2 * m
