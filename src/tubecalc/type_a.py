"""Arcs over a marked line segment: the linearly oriented type-A model.

Modules over the linearly oriented A_m quiver correspond to arcs [i,j]
(j >= i+2) over a segment with marked points 0..m+1.  Ext^1 is 0 or 1 and
detected by a single negative crossing; tilting sets are triangulations of
the (m+2)-gon; torsion pairs come from shortening closures.  These
functions also power wing-level computations inside a tube, since every
wing of width at most n+1 is equivalent to such a module category.

The closures and validators read each fact off one integer array per side,
so no loop runs over pairs of arcs.  ``_low`` and ``_reach`` build them for
both models: ``torsion`` feeds them each tube arc on its anchored lift (the
one starting at residue s for ``reach[s]``, ending at r for ``low[r]``).

- ``low[j]``, the smallest start of an arc ending at j, fixes the quotient
  closure (starts low[j]..j-2 at end j); ``reach[i]``, the largest end of
  an arc starting at i, fixes the subobject closure (ends i+2..reach[i]);
- ``minend[s] = min{t.j : t.i <= s <= t.j-2}`` and ``maxstart[e] =
  max{f.i : f.i+2 <= e <= f.j}`` bound the perps; ``minend`` is the
  ``shortest`` array of the tube's ``right_perp`` with n = infinity.

Three rules follow, each exact:

- Perp bound: a nonzero map x -> y has image [y.i, x.j], a quotient of x
  and a subobject of y, so y is in T^perp iff y.j < minend[y.i], and x is
  in perp-F iff x.i > maxstart[x.j]; perps are then counted per start or
  per end.
- Ptolemy rule on ``low``: in a quotient-closed T, [a, d] crossing [c, b]
  (a < c < d < b) resolves into [c, d], a quotient of [a, d], and [a, b],
  so T is extension-closed iff no ends d < b have low[d] < low[b] < d.
- Ext-projective rule: [a, b] in a torsion class is Ext-projective iff
  low[d] >= a for every end d with a < d < b.  Both models use it: the
  segment reads ``low`` as it is (period m+2), and the tube's inverse
  bijection reads the anchored ``low`` of tau T with period n.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple


@dataclass(frozen=True)
class AArc:
    i: int
    j: int

    def __str__(self) -> str:
        return f"[{self.i},{self.j}]"


def check_arc(m: int, x: AArc) -> None:
    if not (0 <= x.i and x.j <= m + 1 and x.j >= x.i + 2):
        raise ValueError(f"arc {x} does not fit on a segment with points 0..{m + 1}")


def all_arcs(m: int) -> List[AArc]:
    """Every arc on the segment, in lexicographic order."""
    return [AArc(i, j) for i in range(0, m) for j in range(i + 2, m + 2)]


def crossing(x: AArc, y: AArc) -> bool:
    return x.i < y.i < x.j < y.j or y.i < x.i < y.j < x.j


def ext_dim(x: AArc, y: AArc) -> int:
    """1 iff the crossing is negative from x's side: y.i < x.i < y.j < x.j."""
    return 1 if y.i < x.i < y.j < x.j else 0


def ses_middle(x: AArc, y: AArc) -> frozenset:
    """Middle-term arcs of the non-split extension of x by y.

    Two arcs [y.i, x.j] and [x.i, y.j] in general; the second degenerates
    (is a boundary segment) when y.j == x.i + 1.
    """
    if ext_dim(x, y) != 1:
        raise ValueError(f"no extension of {x} by {y}")
    mids = {AArc(y.i, x.j)}
    if y.j > x.i + 1:
        mids.add(AArc(x.i, y.j))
    return frozenset(mids)


def tau(x: AArc) -> Optional[AArc]:
    """One step left, or None at the left wall."""
    return AArc(x.i - 1, x.j - 1) if x.i >= 1 else None


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


def left_closure(arcs) -> frozenset:
    """The quotients of the arcs: same end, start moved weakly right."""
    low = _low((x.i, x.j) for x in arcs)
    return frozenset([AArc(i, j) for j, a in low.items() for i in range(a, j - 1)])


def right_closure(arcs) -> frozenset:
    """The subobjects of the arcs: same start, end moved weakly left."""
    reach = _reach((x.i, x.j) for x in arcs)
    return frozenset([AArc(i, j) for i, b in reach.items() for j in range(i + 2, b + 1)])


def enumerate_tilting(m: int) -> List[frozenset]:
    """All tilting sets: maximal noncrossing m-subsets containing [0, m+1].

    Backtracking over the lexicographically ordered arc list with a bitmask
    per arc of the later arcs it does not cross.  Each state pushes its
    candidates largest first, so the sets come out in lexicographic order.
    """
    if m == 0:
        return [frozenset()]
    arcs = all_arcs(m)
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
    left (dropping arcs at the wall) and close under right-shortening."""
    t_part = left_closure(tilting)
    shifted = [tau(x) for x in tilting if x.i >= 1]
    f_part = right_closure(shifted)
    return t_part, f_part


def _segment_pairs(m: int, arcs) -> List[Tuple[int, int]]:
    """The arcs as (start, end) pairs; ``check_arc``'s ValueError for an arc
    that does not fit the segment."""
    pairs = [(x.i, x.j) for x in arcs]
    for (i, j), x in zip(pairs, arcs):
        if i < 0 or j > m + 1 or j < i + 2:
            check_arc(m, x)
    return pairs


def _quotient_count(low: Dict[int, int]) -> int:
    """The size of the quotient closure that ``low`` fixes."""
    return sum(j - 1 - a for j, a in low.items())


def _is_torsion_low(low: Dict[int, int], size: int) -> bool:
    """Whether ``size`` distinct arcs with this ``low`` form a torsion class:
    quotient-closed iff they number sum(j - 1 - low[j]), every start from
    low[j] to j-2 at each end j; then extension-closed by the Ptolemy rule."""
    if size != _quotient_count(low):
        return False
    for b, a in low.items():
        for d in range(a + 1, b):
            if low.get(d, a) < a:
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


def tilting_of_torsion_pair(m: int, t_part) -> frozenset:
    """Ext-projective arcs of a torsion class containing every injective arc."""
    pairs = _segment_pairs(m, frozenset(t_part))
    low = _low(pairs)
    if not _is_torsion_low(low, len(pairs)):
        raise ValueError("input is not a torsion class")
    if m and low.get(m + 1) != 0:
        raise ValueError("torsion class must contain every injective arc")
    return frozenset(AArc(a, b) for a, b in _ext_projective_pairs(low, m + 2))


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
    quotient-closed and F = T^perp sub-closed, so a side that does not
    number its closure is refused first; then ``minend[s]`` is the least end
    of an arc of T at start s, and ``maxstart[e]`` the greatest start of an
    arc of F at end e, one pass each."""
    t_pairs = _segment_pairs(m, frozenset(t_part))
    f_pairs = _segment_pairs(m, frozenset(f_part))
    if len(t_pairs) != _quotient_count(_low(t_pairs)) or len(f_pairs) != sum(
        b - i - 1 for i, b in _reach(f_pairs).items()
    ):
        return False
    minend = [m + 2] * m
    for i, j in t_pairs:
        if j < minend[i]:
            minend[i] = j
    maxstart = [-1] * (m + 2)
    for i, j in f_pairs:
        if i > maxstart[j]:
            maxstart[j] = i
    return (
        all(j < minend[i] for i, j in f_pairs)
        and len(f_pairs) == sum(e - s - 2 for s, e in enumerate(minend))
        and len(t_pairs) == sum(e - 2 - maxstart[e] for e in range(2, m + 2))
    )
