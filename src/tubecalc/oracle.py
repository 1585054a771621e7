"""Matrix-level ground truth over the fixed prime field F_32003 (``PRIME``).

Tube objects become nilpotent representations of the cyclic quiver with
arrows v -> v-1.  Hom(a, b) is the kernel of the map
(+)_v Hom(a_v, b_v) -> (+)_{arrows k: v -> w} Hom(a_v, b_w) that sends (f_v)
to (f_w A_k - B_k f_v)_k, so its dimension is the number of unknowns minus
the rank of that system mod PRIME.  The elimination is general (any
quiver, any integer maps, no uniserial or 0/1 shortcut).  Ext^1 follows
from Hom and the Euler form, since quiver representations form a
hereditary category.

A ``QuivRep`` is checked when it is made (through ``_make`` and
``_replace`` too): its dimension vector and maps fit its quiver, or it
raises ValueError.  So ``hom_dim_oracle`` only compares the two quivers.
``build_rep`` returns the shared rep of a bounded memo (``arcs._Memo``),
keyed by the rank and the canonical arc, so each rep it makes is checked
once, when it is made; every lift of an arc shares that rep.  The memo
weighs a rep in the tuples it holds, the rank plus the length, and holds
at most ``MAX_REP_CELLS`` of them; a heavier rep is made, not kept.

The map of arrow k: v -> w is held as a plain tuple ``(rows, cols, entries)``
with ``(rows, cols) == (dims[w], dims[v])`` and ``entries`` a tuple of its
nonzero cells ``(row, col, value)`` as Python integers.
"""

from __future__ import annotations

from collections import defaultdict, namedtuple
from functools import lru_cache
from itertools import accumulate
from operator import mul
from typing import Dict, List, Tuple

from . import homs
from .arcs import IndObj, Tube, _Memo, _canonical, sort_key

PRIME = 32003


class QuiverShape(namedtuple("QuiverShape", "num_vertices arrows")):
    """The vertex count and the arrows, each a pair (source, target)."""

    __slots__ = ()


MAX_SHAPES = 64  # quivers that cyclic_quiver holds


@lru_cache(maxsize=MAX_SHAPES)
def cyclic_quiver(n: int) -> QuiverShape:
    """Arrow v is v -> v-1 mod n."""
    return QuiverShape(n, tuple((v, (v - 1) % n) for v in range(n)))


Map = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]  # (rows, cols, nonzero entries)


class QuivRep(namedtuple("QuivRep", "shape dims maps")):
    """A representation: its QuiverShape, its dimension vector as a tuple,
    and one Map per arrow, as a tuple; ValueError unless they fit."""

    __slots__ = ()

    def __new__(cls, shape: QuiverShape, dims, maps):
        rep = tuple.__new__(cls, (shape, dims, maps))
        _check_rep(rep)
        return rep

    @classmethod
    def _make(cls, iterable):  # also behind _replace; keeps the check above
        return cls(*iterable)


def _check_rep(rep: QuivRep) -> None:
    """The dimension vector and the maps must fit the quiver."""
    shape, dims, maps = rep
    if len(dims) != shape.num_vertices or any(type(d) is not int or d < 0 for d in dims):
        raise ValueError(f"dims {dims!r} is not a dimension vector on {shape.num_vertices} vertices")
    if len(maps) != len(shape.arrows):
        raise ValueError(f"{len(maps)} maps for {len(shape.arrows)} arrows")
    for k, ((v, w), (rows, cols, entries)) in enumerate(zip(shape.arrows, maps)):
        if not type(rows) is type(cols) is int:  # bool is no size, 2.0 none either
            raise ValueError(f"the shape of the map of arrow {k} is not two integers: {(rows, cols)!r}")
        if rows != dims[w] or cols != dims[v]:
            raise ValueError(f"the maps of arrow {k} do not match the dimension vectors")
        for i, j, x in entries:
            if not type(i) is type(j) is type(x) is int:  # bool is no entry
                raise ValueError(f"an entry of the map of arrow {k} is not three integers: {(i, j, x)!r}")
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"an entry of the map of arrow {k} lies outside its {rows} x {cols} shape")


# (rank, start, end) of a canonical arc -> its rep, as build_rep makes it;
# weighed in the tuples a rep holds, rank plus length.  A rank-5 crosscheck
# asks for each of its 45 reps 90 times a round, and they weigh 450 in all;
# a full memo holds 1.1-2.2 MB (tracemalloc), the most as one rank-1 rep.
MAX_REP_CELLS = 1 << 14
_REPS = _Memo(MAX_REP_CELLS)


def build_rep(tube: Tube, obj: IndObj) -> QuivRep:
    """Nilpotent cyclic-quiver representation of a finite arc: basis
    b_0..b_{length-1}, b_t at vertex start+t mod n, and arrow v (v -> v-1)
    sends b_t at v to b_{t-1}, the last basis vector at v-1 so far.  The
    memo's rep when it holds one, else one made, checked and kept."""
    if not obj.is_finite:
        raise ValueError("only finite arcs have matrix representations")
    n = tube.n
    start, end = _canonical(n, *obj)  # ValueError unless end >= start + 2
    key = (n, start, end)
    rep = _REPS.get(key)
    if rep is not None:
        return rep
    dims = [0] * n
    entries = [[] for _ in range(n)]  # nonzero cells, arrow by arrow
    for t in range(start, end - 1):
        v = t % n
        if t > start:
            entries[v].append((dims[v - 1] - 1, dims[v], 1))
        dims[v] += 1
    maps = tuple((dims[v - 1], dims[v], tuple(e)) for v, e in enumerate(entries))
    rep = QuivRep(cyclic_quiver(n), tuple(dims), maps)
    _REPS.keep({key: rep}, n + end - start - 1)
    return rep


def euler_form(shape: QuiverShape, d, e) -> int:
    """<d, e> = sum d_v e_v - sum over arrows v->w of d_v e_w."""
    if len(d) != shape.num_vertices or len(e) != shape.num_vertices:
        raise ValueError("dimension vector does not match the quiver")
    return sum(dv * ev for dv, ev in zip(d, e)) - sum(d[v] * e[w] for (v, w) in shape.arrows)


def _intertwiner_rows(a: QuivRep, b: QuivRep, offs: List[int]) -> List[Dict[int, int]]:
    """The system as sparse rows: one {column: value} per entry (i, j) of f_w A_k - B_k f_v
    that some unknown touches, arrow by arrow; an arrow with no entries (b_w a_v = 0) is
    skipped.  Unknown f_v[r, c] is column offs[v] + c * b.dims[v] + r (column-major)."""
    rows: List[Dict[int, int]] = []
    for (v, w), (_, _, a_entries), (_, _, b_entries) in zip(a.shape.arrows, a.maps, b.maps):
        bw, av = b.dims[w], a.dims[v]
        if not bw * av:
            continue
        bv = b.dims[v]
        eqs: Dict[int, Dict[int, int]] = defaultdict(dict)  # entry (i, j) is row j * bw + i
        for l, j, x in a_entries:  # + f_w[i, l] A_k[l, j]
            for i in range(bw):
                eq, col = eqs[j * bw + i], offs[w] + l * bw + i
                eq[col] = eq.get(col, 0) + x
        for i, l, x in b_entries:  # - B_k[i, l] f_v[l, j]
            for j in range(av):
                eq, col = eqs[j * bw + i], offs[v] + j * bv + l
                eq[col] = eq.get(col, 0) - x
        rows += eqs.values()
    return rows


def _rank_mod(rows: List[Dict[int, int]]) -> int:
    """Rank mod PRIME of sparse integer rows: one pivot row per column,
    normalized to 1 at its lowest column, reduces each incoming row there."""
    p = PRIME
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        row = {c: r for c, x in row.items() if (r := x % p)}
        while row:
            c = min(row)
            pivot = pivots.get(c)
            if pivot is None:
                if row[c] != 1:
                    inv = pow(row[c], -1, p)
                    row = {d: x * inv % p for d, x in row.items()}
                pivots[c] = row
                break
            f = row[c]
            for d, x in pivot.items():  # row[d] -= f * x, deleting what cancels
                r = (row.get(d, 0) - f * x) % p
                if r:
                    row[d] = r
                else:
                    del row[d]
    return len(pivots)


def hom_dim_oracle(a: QuivRep, b: QuivRep) -> int:
    """Dimension of the space of intertwiners a -> b: unknowns minus rank."""
    if a.shape != b.shape:
        raise ValueError("representations live over different quivers")
    offs = list(accumulate(map(mul, b.dims, a.dims), initial=0))
    return offs[-1] - _rank_mod(_intertwiner_rows(a, b, offs))


def ext_dim_oracle(a: QuivRep, b: QuivRep) -> int:
    """dim Ext^1 = dim Hom - <dim a, dim b>; negative output means a bug."""
    value = hom_dim_oracle(a, b) - euler_form(a.shape, a.dims, b.dims)
    if value < 0:
        raise RuntimeError(
            f"negative Ext dimension {value} for dims {a.dims} -> {b.dims}; "
            "oracle is internally inconsistent"
        )
    return value


def _bron_kerbosch(r: set, p: set, x: set, neighbors, out: List[set]) -> None:
    if not p and not x:
        out.append(set(r))
        return
    pivot = next(iter(p | x))
    for v in sorted(p - neighbors[pivot]):
        _bron_kerbosch(r | {v}, p & neighbors[v], x & neighbors[v], neighbors, out)
        p.remove(v)
        x.add(v)


def brute_force_max_rigid(tube: Tube) -> List[frozenset]:
    """Maximal cliques of the Ext-compatibility graph on self-rigid arcs.

    Nodes: finite arcs of length < n together with all Prufer and adic
    arcs.  Finite-finite edges are decided by the matrix oracle; edges
    touching a one-sided arc use the crossing formulas (one-sided arcs
    have no finite matrix model).
    """
    n = tube.n
    nodes = tube.finite_objects(n - 1)
    nodes += [tube.prufer(i) for i in range(n)]
    nodes += [tube.adic(j) for j in range(n)]
    nodes.sort(key=sort_key)
    reps = {v: build_rep(tube, v) for v in nodes if v.is_finite}

    def ext_zero(x: IndObj, y: IndObj) -> bool:
        if x.is_finite and y.is_finite:
            return ext_dim_oracle(reps[x], reps[y]) == 0
        return homs.ext_dim(tube, x, y) == 0

    neighbors: Dict[int, set] = {k: set() for k in range(len(nodes))}
    for a in range(len(nodes)):
        for b in range(a + 1, len(nodes)):
            if ext_zero(nodes[a], nodes[b]) and ext_zero(nodes[b], nodes[a]):
                neighbors[a].add(b)
                neighbors[b].add(a)
    found: List[set] = []
    _bron_kerbosch(set(), set(range(len(nodes))), set(), neighbors, found)
    cliques = [frozenset(nodes[k] for k in c) for c in found]
    cliques.sort(key=lambda c: sorted(sort_key(v) for v in c))
    return cliques
