"""The sparse elimination of ``oracle`` against the pure-Python code it replaced.

The reference below is the old implementation, copied unchanged:
``_uniserial`` built its quiver and arrow map on every call,
``_intertwiner_rows`` allocated a row for every entry of every arrow's
equation, touched or not, and ``_rank_mod`` reduced every entry mod p
twice and rebuilt the row after each elimination step.  The new code
takes each quiver from a memo, skips an arrow whose equations have no
entries (b_w a_v = 0), emits only the rows some unknown touches, reduces
each entry once and keeps a pivot row that is already 1 as it is.

Two halves.  The first compares on every ordered pair of tube arcs of
length at most 2n at n <= 4, and of segment arcs at m <= 6 (as
``segment_defs.build_rep_a`` builds them on the linear quiver): the
representations, the nonzero rows of the system, and the Hom and Ext
dimensions.  It imports neither numpy nor hypothesis, so it runs with
pytest alone.  The second draws arbitrary integer maps under hypothesis,
not only the 0/1 uniserials, and skips without it.
"""

from collections import Counter
from itertools import accumulate
from typing import Dict, List

import pytest

from limits import needs_alarm, time_limit
from segment_defs import build_rep_a, linear_quiver
from tubecalc import oracle
from tubecalc.arcs import Tube
from tubecalc.oracle import PRIME, QuiverShape, QuivRep, _check_rep
from tubecalc.type_a import all_arcs

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below skip without hypothesis
    given = settings = st = None
needs_hypothesis = pytest.mark.skipif(given is None, reason="needs hypothesis")

# -- reference ---------------------------------------------------------------------


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


# -- comparison ----------------------------------------------------------------------


def nonzero_rows(rows: List[Dict[int, int]]) -> Counter:
    """The rows with their zero entries dropped, empty rows left out, as a multiset."""
    reduced = (frozenset((c, x) for c, x in row.items() if x) for row in rows)
    return Counter(row for row in reduced if row)


def assert_matches(a: QuivRep, b: QuivRep) -> None:
    """The same system, up to its order and empty rows, and the same dimensions."""
    offs = list(accumulate((b.dims[v] * a.dims[v] for v in range(a.shape.num_vertices)), initial=0))
    assert nonzero_rows(oracle._intertwiner_rows(a, b, offs)) == nonzero_rows(_intertwiner_rows(a, b, offs))
    hom = hom_dim_oracle(a, b)
    assert oracle.hom_dim_oracle(a, b) == hom
    assert oracle.ext_dim_oracle(a, b) == hom - oracle.euler_form(a.shape, a.dims, b.dims)


@needs_alarm
class TestEveryArcPair:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_tube_arcs(self, n):
        tube = Tube(n)
        reps = []
        for x in tube.finite_objects(2 * n):
            rep = oracle.build_rep(tube, x)
            assert rep == _uniserial(oracle.cyclic_quiver(n), x.start % n, x.length)
            reps.append(rep)
        with time_limit(60):
            for a in reps:
                for b in reps:
                    assert_matches(a, b)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_segment_arcs(self, m):
        reps = []
        for arc in all_arcs(m):
            rep = build_rep_a(m, arc)
            assert rep == _uniserial(linear_quiver(m), arc.i, arc.j - arc.i - 1)
            reps.append(rep)
        with time_limit(60):
            for a in reps:
                for b in reps:
                    assert_matches(a, b)

    def test_pivots_other_than_one(self):
        # the first pivot is 2: a pivot row that is not normalized never
        # cancels the next row at its column; the third row is the first
        # minus the second
        rows = [{0: 2, 1: 1}, {0: 3, 2: 1}, {0: -1, 1: 1, 2: -1}, {1: PRIME + 4}]
        with time_limit(10):
            assert oracle._rank_mod(rows) == _rank_mod(rows) == 3


# -- arbitrary integer maps ----------------------------------------------------------


def representation_pairs():
    """Two representations of one quiver: cyclic or linear with 1-5 vertices,
    0-3 basis vectors per vertex, and maps with any nonzero cells, each in
    [-5, 5] or a multiple of PRIME (so not necessarily nilpotent, and with
    rows that vanish mod PRIME but not over the integers)."""
    values = st.one_of(st.integers(-5, 5), st.sampled_from([-PRIME, PRIME, 2 * PRIME])).filter(bool)

    def maps(draw, shape, dims):
        for v, w in shape.arrows:
            rows, cols = dims[w], dims[v]
            cells = st.tuples(st.integers(0, max(rows - 1, 0)), st.integers(0, max(cols - 1, 0)))
            entries = draw(st.dictionaries(cells, values, max_size=rows * cols))
            yield rows, cols, tuple((i, j, x) for (i, j), x in sorted(entries.items()))

    @st.composite
    def pairs(draw):
        quiver = draw(st.sampled_from([oracle.cyclic_quiver, linear_quiver]))
        shape = quiver(draw(st.integers(1, 5)))
        nv = shape.num_vertices
        reps = []
        for _ in range(2):
            dims = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
            reps.append(QuivRep(shape, dims, tuple(maps(draw, shape, dims))))
        return reps

    return pairs()


@needs_alarm
@needs_hypothesis
class TestArbitraryMaps:
    def test_representations(self):
        @settings(max_examples=300, deadline=None)
        @given(representation_pairs())
        def check(pair):
            with time_limit(10):
                assert_matches(*pair)

        check()

    def test_rank_of_sparse_rows(self):
        values = st.integers(-2 * PRIME, 2 * PRIME) | st.integers(-5, 5)

        @settings(max_examples=300, deadline=None)
        @given(st.lists(st.dictionaries(st.integers(0, 9), values, max_size=6), max_size=12))
        def check(rows):
            with time_limit(10):
                assert oracle._rank_mod(rows) == _rank_mod(rows)

        check()
