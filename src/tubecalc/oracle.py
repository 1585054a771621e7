"""Matrix-level ground truth over the fixed prime field F_32003 (``PRIME``).

Tube objects become nilpotent representations of the cyclic quiver with
arrows v -> v-1 (and segment arcs become representations of the linear
quiver with the same arrow direction).  Hom(a, b) is the kernel of the map
(+)_v Hom(a_v, b_v) -> (+)_{arrows k: v -> w} Hom(a_v, b_w) that sends (f_v)
to (f_w A_k - B_k f_v)_k, so its dimension is the number of unknowns minus
the rank of that system mod PRIME.  The elimination is general (any
integer maps, no uniserial or 0/1 shortcut).  Ext^1 follows from Hom and
the Euler form, since both quiver categories are hereditary.

The map of arrow k: v -> w is held as a plain tuple ``(rows, cols, entries)``
with ``(rows, cols) == (dims[w], dims[v])`` and ``entries`` a tuple of its
nonzero cells ``(row, col, value)`` as Python integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import Dict, List, Tuple

from . import homs
from .arcs import IndObj, Tube, sort_key
from .type_a import AArc, check_arc

PRIME = 32003


@dataclass(frozen=True)
class QuiverShape:
    num_vertices: int
    arrows: Tuple[Tuple[int, int], ...]


def cyclic_quiver(n: int) -> QuiverShape:
    return QuiverShape(n, tuple((v, (v - 1) % n) for v in range(n)))


def linear_quiver(m: int) -> QuiverShape:
    # vertices 0..m-1 stand for the simples S_1..S_m
    return QuiverShape(m, tuple((v, v - 1) for v in range(1, m)))


Map = Tuple[int, int, Tuple[Tuple[int, int, int], ...]]  # (rows, cols, nonzero entries)


@dataclass
class QuivRep:
    shape: QuiverShape
    dims: Tuple[int, ...]
    maps: Tuple[Map, ...]


def _check_rep(rep: QuivRep) -> None:
    """The dimension vector and the maps must fit the quiver."""
    shape, dims, maps = rep.shape, rep.dims, rep.maps
    if len(dims) != shape.num_vertices or any(type(d) is not int or d < 0 for d in dims):
        raise ValueError(f"dims {dims!r} is not a dimension vector on {shape.num_vertices} vertices")
    if len(maps) != len(shape.arrows):
        raise ValueError(f"{len(maps)} maps for {len(shape.arrows)} arrows")
    for k, ((v, w), (rows, cols, entries)) in enumerate(zip(shape.arrows, maps)):
        if rows != dims[w] or cols != dims[v]:
            raise ValueError(f"the maps of arrow {k} do not match the dimension vectors")
        for i, j, _ in entries:
            if not (0 <= i < rows and 0 <= j < cols):
                raise ValueError(f"an entry of the map of arrow {k} lies outside its {rows} x {cols} shape")


def _uniserial(shape: QuiverShape, socle_vertex: int, length: int) -> QuivRep:
    """Basis b_0..b_{length-1}; b_t sits at vertex socle+t mod the vertex
    count (on the linear quiver socle+t stays below it), arrows send
    b_t -> b_{t-1}."""
    nv = shape.num_vertices
    dims = [0] * nv
    arrow_of = {arrow: k for k, arrow in enumerate(shape.arrows)}
    entries = [[] for _ in shape.arrows]  # nonzero cells, arrow by arrow
    prev = None  # the vertex of b_{t-1}, where it is the last basis vector so far
    for t in range(length):
        v = (socle_vertex + t) % nv
        if t:  # b_t -> b_{t-1} along the arrow v -> prev
            entries[arrow_of[v, prev]].append((dims[prev] - 1, dims[v], 1))
        dims[v] += 1
        prev = v
    maps = tuple((dims[w], dims[v], tuple(e)) for (v, w), e in zip(shape.arrows, entries))
    return QuivRep(shape, tuple(dims), maps)


def build_rep(tube: Tube, obj: IndObj) -> QuivRep:
    """Nilpotent cyclic-quiver representation of a finite arc."""
    if not obj.is_finite:
        raise ValueError("only finite arcs have matrix representations")
    return _uniserial(cyclic_quiver(tube.n), obj.start % tube.n, obj.length)


def build_rep_a(m: int, arc: AArc) -> QuivRep:
    """Linear-quiver representation of a segment arc (socle S_{i+1})."""
    check_arc(m, arc)
    return _uniserial(linear_quiver(m), arc.i, arc.j - arc.i - 1)


def euler_form(shape: QuiverShape, d, e) -> int:
    """<d, e> = sum d_v e_v - sum over arrows v->w of d_v e_w."""
    if len(d) != shape.num_vertices or len(e) != shape.num_vertices:
        raise ValueError("dimension vector does not match the quiver")
    return sum(dv * ev for dv, ev in zip(d, e)) - sum(d[v] * e[w] for (v, w) in shape.arrows)


def _intertwiner_rows(a: QuivRep, b: QuivRep, offs: List[int]) -> List[Dict[int, int]]:
    """The system as sparse rows: one {column: value} per entry (i, j) of f_w A_k - B_k f_v,
    arrow by arrow.  Unknown f_v[r, c] is column offs[v] + c * b.dims[v] + r (column-major)."""
    rows: List[Dict[int, int]] = []
    for k, (v, w) in enumerate(a.shape.arrows):
        bv, bw, av = b.dims[v], b.dims[w], a.dims[v]
        eqs: List[Dict[int, int]] = [{} for _ in range(bw * av)]  # entry (i, j) is row j * bw + i
        for l, j, x in a.maps[k][2]:  # + f_w[i, l] A_k[l, j]
            for i in range(bw):
                eq, col = eqs[j * bw + i], offs[w] + l * bw + i
                eq[col] = eq.get(col, 0) + x
        for i, l, x in b.maps[k][2]:  # - B_k[i, l] f_v[l, j]
            for j in range(av):
                eq, col = eqs[j * bw + i], offs[v] + j * bv + l
                eq[col] = eq.get(col, 0) - x
        rows += eqs
    return rows


def _rank_mod(rows: List[Dict[int, int]]) -> int:
    """Rank mod PRIME of sparse integer rows: one pivot row per column,
    normalized to 1 at its lowest column, reduces each incoming row there."""
    p = PRIME
    pivots: Dict[int, Dict[int, int]] = {}
    for row in rows:
        row = {c: x % p for c, x in row.items() if x % p}
        while row:
            c = min(row)
            if c not in pivots:
                inv = pow(row[c], p - 2, p)
                pivots[c] = {d: x * inv % p for d, x in row.items()}
                break
            f = row[c]
            for d, x in pivots[c].items():
                row[d] = (row.get(d, 0) - f * x) % p
            row = {d: x for d, x in row.items() if x}
    return len(pivots)


def hom_dim_oracle(a: QuivRep, b: QuivRep) -> int:
    """Dimension of the space of intertwiners a -> b: unknowns minus rank."""
    if a.shape != b.shape:
        raise ValueError("representations live over different quivers")
    _check_rep(a)
    _check_rep(b)
    offs = list(accumulate((b.dims[v] * a.dims[v] for v in range(a.shape.num_vertices)), initial=0))
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
