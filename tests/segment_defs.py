"""Segment-level definitions that only the tests read, which the tests
compare the library's segment model with.

- Every arc of the segment, in lexicographic order, and whether two arcs
  cross: the brute-force search for tilting sets reads them.
- The Ext rule: Ext^1(x, y) is 1 iff the crossing of x and y is negative
  from x's side, y.i < x.i < y.j < x.j, and 0 otherwise.
- The middle terms of the non-split extension 0 -> y -> E -> x -> 0: the
  Ptolemy resolution of that crossing, [y.i, x.j] and [x.i, y.j], where the
  second is a boundary segment, and so dropped, when y.j == x.i + 1.
- The Hom rule, the injective and projective fans, tau and tau^{-1}, the
  companion map of the tilting bijection, and the all-pairs Ptolemy check
  built on the two rules above.
- The linear quiver with m vertices and the representation of a segment
  arc on it, which the tests hand to the oracle's elimination
  (``oracle.hom_dim_oracle``, ``oracle.ext_dim_oracle``) as the ground
  truth of the two rules.
"""

from typing import Optional

from tubecalc.oracle import QuiverShape, QuivRep
from tubecalc.type_a import AArc, check_arc, left_closure, right_closure


def all_arcs(m: int) -> list:
    """Every arc [i, j] on the segment with points 0..m+1, in lexicographic order."""
    return [AArc(i, j) for i in range(0, m) for j in range(i + 2, m + 2)]


def crossing(x: AArc, y: AArc) -> bool:
    """Whether the arcs cross: each has one end strictly inside the other."""
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


def hom_nonzero(x: AArc, y: AArc) -> bool:
    """Uniseriality: a nonzero map factors as left-shortening then inclusion."""
    return x.i <= y.i <= x.j - 2 and y.i + 2 <= x.j <= y.j


def injective_arcs(m: int) -> list:
    """The fan at the right endpoint: arcs [i, m+1]."""
    return [AArc(i, m + 1) for i in range(m)]


def projective_arcs(m: int) -> list:
    """The fan at the left endpoint: arcs [0, j]."""
    return [AArc(0, j) for j in range(2, m + 2)]


def tau(x: AArc) -> Optional[AArc]:
    """One step left, or None at the left wall."""
    return AArc(x.i - 1, x.j - 1) if x.i >= 1 else None


def tau_inv(m: int, x: AArc) -> Optional[AArc]:
    """One step right, or None at the right wall."""
    return AArc(x.i + 1, x.j + 1) if x.j + 1 <= m + 1 else None


def second_torsion_pair_of_tilting(m: int, tilting) -> tuple:
    """(Gen tau^{-1}(U), Cogen U), the companion map."""
    shifted = [tau_inv(m, x) for x in tilting if x.j + 1 <= m + 1]
    return left_closure(shifted), right_closure(tilting)


def is_oriented_ptolemy(arcs) -> bool:
    """Closed under resolving negative crossings."""
    arcs = frozenset(arcs)
    for x in arcs:
        for y in arcs:
            if ext_dim(x, y) == 1 and not ses_middle(x, y) <= arcs:
                return False
    return True


def linear_quiver(m: int) -> QuiverShape:
    """Vertices 0..m-1 stand for the simples S_1..S_m; arrow k is k+1 -> k."""
    return QuiverShape(m, tuple((v, v - 1) for v in range(1, m)))


def build_rep_a(m: int, arc: AArc) -> QuivRep:
    """The linear-quiver representation of a segment arc [i, j]: the thin
    interval module with socle S_{i+1}, dimension 1 on vertices i..j-2 and
    the map 1 on each arrow between two of them."""
    check_arc(m, arc)
    shape = linear_quiver(m)
    dims = tuple(int(arc.i <= v <= arc.j - 2) for v in range(m))
    maps = tuple((dims[w], dims[v], ((0, 0, 1),) if dims[v] * dims[w] else ()) for v, w in shape.arrows)
    return QuivRep(shape, dims, maps)
