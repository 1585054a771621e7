"""Matrix-level ground truth over a prime field.

Tube objects become nilpotent representations of the cyclic quiver with
arrows v -> v-1 (and segment arcs become representations of the linear
quiver with the same arrow direction).  Hom dimensions come from the
nullspace of the intertwiner equations; Ext^1 follows from Hom and the
Euler form, since both quiver categories are hereditary.  All matrices
are 0/1, so dimensions do not depend on the prime.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Tuple

import numpy as np

from . import homs
from .arcs import IndObj, Tube, sort_key
from .type_a import AArc, check_arc

DEFAULT_PRIME = 32003


@dataclass(frozen=True)
class QuiverShape:
    num_vertices: int
    arrows: Tuple[Tuple[int, int], ...]


def cyclic_quiver(n: int) -> QuiverShape:
    return QuiverShape(n, tuple((v, (v - 1) % n) for v in range(n)))


def linear_quiver(m: int) -> QuiverShape:
    # vertices 0..m-1 stand for the simples S_1..S_m
    return QuiverShape(m, tuple((v, v - 1) for v in range(1, m)))


@dataclass
class QuivRep:
    shape: QuiverShape
    dims: Tuple[int, ...]
    maps: Tuple[np.ndarray, ...]
    p: int


def _uniserial(shape: QuiverShape, socle_vertex: int, length: int, p: int, cyclic: bool) -> QuivRep:
    """Basis b_0..b_{length-1}; b_t sits at vertex socle+t, arrows send b_t -> b_{t-1}."""
    nv = shape.num_vertices
    vert_of = []
    for t in range(length):
        v = socle_vertex + t
        vert_of.append(v % nv if cyclic else v)
    dims = [0] * nv
    local: List[int] = []
    for v in vert_of:
        local.append(dims[v])
        dims[v] += 1
    maps = []
    for (src, dst) in shape.arrows:
        mat = np.zeros((dims[dst], dims[src]), dtype=np.int64)
        for t in range(1, length):
            if vert_of[t] == src and vert_of[t - 1] == dst:
                mat[local[t - 1], local[t]] = 1
        maps.append(mat)
    return QuivRep(shape, tuple(dims), tuple(maps), p)


def build_rep(tube: Tube, obj: IndObj, p: int = DEFAULT_PRIME) -> QuivRep:
    """Nilpotent cyclic-quiver representation of a finite arc."""
    if not obj.is_finite:
        raise ValueError("only finite arcs have matrix representations")
    return _uniserial(cyclic_quiver(tube.n), obj.start % tube.n, obj.length, p, cyclic=True)


def build_rep_a(m: int, arc: AArc, p: int = DEFAULT_PRIME) -> QuivRep:
    """Linear-quiver representation of a segment arc (socle S_{i+1})."""
    check_arc(m, arc)
    return _uniserial(linear_quiver(m), arc.i, arc.j - arc.i - 1, p, cyclic=False)


def euler_form(shape: QuiverShape, d, e) -> int:
    """<d, e> = sum d_v e_v - sum over arrows v->w of d_v e_w."""
    if len(d) != shape.num_vertices or len(e) != shape.num_vertices:
        raise ValueError("dimension vector does not match the quiver")
    total = sum(dv * ev for dv, ev in zip(d, e))
    for (v, w) in shape.arrows:
        total -= d[v] * e[w]
    return total


def _rank_mod(mat: np.ndarray, p: int) -> int:
    m = np.array(mat, dtype=np.int64) % p
    rows, cols = m.shape
    r = 0
    for c in range(cols):
        piv = None
        for rr in range(r, rows):
            if m[rr, c]:
                piv = rr
                break
        if piv is None:
            continue
        if piv != r:
            m[[r, piv]] = m[[piv, r]]
        inv = pow(int(m[r, c]), p - 2, p)
        m[r] = (m[r] * inv) % p
        below = m[r + 1:, c]
        if below.size:
            m[r + 1:] = (m[r + 1:] - np.outer(below, m[r])) % p
        r += 1
        if r == rows:
            break
    return r


def hom_dim_oracle(a: QuivRep, b: QuivRep) -> int:
    """Dimension of the space of intertwiners a -> b, by nullspace count."""
    if a.shape != b.shape or a.p != b.p:
        raise ValueError("representations live over different quivers or primes")
    shape, p = a.shape, a.p
    unk = [b.dims[v] * a.dims[v] for v in range(shape.num_vertices)]
    offs = [0]
    for u in unk:
        offs.append(offs[-1] + u)
    total = offs[-1]
    if total == 0:
        return 0
    blocks = []
    for k, (v, w) in enumerate(shape.arrows):
        rows = b.dims[w] * a.dims[v]
        if rows == 0:
            continue
        block = np.zeros((rows, total), dtype=np.int64)
        # column-major vec of f_v; vec(f_w @ A_k) = kron(A_k^T, I) x_w,
        # vec(B_k @ f_v) = kron(I, B_k) x_v
        if unk[w]:
            block[:, offs[w]:offs[w] + unk[w]] += np.kron(
                a.maps[k].T, np.eye(b.dims[w], dtype=np.int64)
            )
        if unk[v]:
            block[:, offs[v]:offs[v] + unk[v]] -= np.kron(
                np.eye(a.dims[v], dtype=np.int64), b.maps[k]
            )
        blocks.append(block)
    if not blocks:
        return total
    system = np.vstack(blocks)
    return total - _rank_mod(system, p)


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


def brute_force_max_rigid(tube: Tube, p: int = DEFAULT_PRIME) -> List[frozenset]:
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
    reps = {v: build_rep(tube, v, p) for v in nodes if v.is_finite}

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
