"""The sparse elimination of ``oracle`` against the dense code it replaced.

The reference below is the old implementation, copied unchanged: the
intertwiner system is assembled from Kronecker products with identity
blocks, stacked, and reduced mod p row by row over numpy, on maps held as
dense arrays.  The field is F_p with p = ``oracle.PRIME``.  Hypothesis draws
arbitrary representations, not only the 0/1 uniserials the tube and the
segment use: cyclic quivers with 1-5 vertices and linear quivers with 1-5
vertices, 0-3 basis vectors per vertex, and maps with integer entries at one
of three densities (so not necessarily nilpotent).  Most entries lie in
[-5, 5]; now and then one is a nonzero multiple of p, so rows that vanish
mod p but not over the integers are drawn too.  Each map is drawn once,
handed to the reference as a dense array and to ``oracle`` as its nonzero
entries.  It also compares the rank of random integer matrices, and the
uniserials ``build_rep`` makes, and those of ``build_rep_a`` on the linear
quiver (``tests/segment_defs.py``), with the old dense ones.
"""

from collections import namedtuple

import pytest

from limits import needs_alarm, time_limit
from segment_defs import all_arcs, build_rep_a, linear_quiver
from tubecalc import oracle
from tubecalc.arcs import Tube
from tubecalc.oracle import QuiverShape, QuivRep

np = pytest.importorskip("numpy")
hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# -- reference ---------------------------------------------------------------------

# A representation with dense maps, which a ``QuivRep`` refuses when it is made
DenseRep = namedtuple("DenseRep", "shape dims maps")


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


def hom_dim_oracle(a: DenseRep, b: DenseRep) -> int:
    """Dimension of the space of intertwiners a -> b, by nullspace count."""
    if a.shape != b.shape:
        raise ValueError("representations live over different quivers")
    shape, p = a.shape, oracle.PRIME
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


def _uniserial(shape: QuiverShape, socle_vertex: int, length: int, cyclic: bool) -> DenseRep:
    """Basis b_0..b_{length-1}; b_t sits at vertex socle+t, arrows send b_t -> b_{t-1}."""
    nv = shape.num_vertices
    dims = [0] * nv
    vert_of, local = [], []  # vertex of b_t, and its index among that vertex's basis
    for t in range(length):
        v = (socle_vertex + t) % nv if cyclic else socle_vertex + t
        vert_of.append(v)
        local.append(dims[v])
        dims[v] += 1
    maps = []
    for (src, dst) in shape.arrows:
        mat = np.zeros((dims[dst], dims[src]), dtype=np.int64)
        for t in range(1, length):
            if vert_of[t] == src and vert_of[t - 1] == dst:
                mat[local[t - 1], local[t]] = 1
        maps.append(mat)
    return DenseRep(shape, tuple(dims), tuple(maps))


# -- comparison ----------------------------------------------------------------------

MULTIPLES = (-oracle.PRIME, oracle.PRIME, 2 * oracle.PRIME)


def integer_matrix(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """Entries in [-5, 5], or with probability 1/5 one of ``MULTIPLES``, each
    kept with probability ``density``.  The entries come from a generator
    seeded by hypothesis, which draws the shapes and the density itself:
    drawing every entry through hypothesis made generation two thirds of
    the test's time."""
    shape = (rows, cols)
    small = rng.integers(-5, 6, size=shape)
    entries = np.where(rng.random(shape) < 0.2, rng.choice(MULTIPLES, size=shape), small)
    return entries * (rng.random(shape) < density)


@st.composite
def representation_pairs(draw):
    quiver = draw(st.sampled_from([oracle.cyclic_quiver, linear_quiver]))
    shape = quiver(draw(st.integers(1, 5)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    pair = []
    for _ in range(2):
        nv = shape.num_vertices
        dims = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
        maps = tuple(integer_matrix(rng, dims[w], dims[v], density) for (v, w) in shape.arrows)
        pair.append(both_forms(shape, dims, maps))
    return pair


@st.composite
def integer_matrices(draw):
    """Up to 8 x 8; half of them a product of two such matrices, so that
    ranks below full are common."""
    rows, inner, cols = (draw(st.integers(0, 8)) for _ in range(3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    if draw(st.booleans()):
        return integer_matrix(rng, rows, cols, density)
    return integer_matrix(rng, rows, inner, density) @ integer_matrix(rng, inner, cols, density)


def sparse_rows(mat: np.ndarray):
    return [{c: x for c, x in enumerate(line) if x} for line in mat.tolist()]


def entry_form(mat: np.ndarray):
    """A dense array as the (rows, cols, entries) that ``oracle`` reads."""
    rows, cols = mat.shape
    lines = enumerate(mat.tolist())
    return rows, cols, tuple((i, j, x) for i, line in lines for j, x in enumerate(line) if x)


def both_forms(shape, dims, dense_maps):
    """The same representation for the reference and for ``oracle``."""
    return DenseRep(shape, dims, dense_maps), QuivRep(shape, dims, tuple(map(entry_form, dense_maps)))


@needs_alarm
class TestMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(representation_pairs())
    def test_arbitrary_representations(self, pair):
        (dense_a, a), (dense_b, b) = pair
        with time_limit(10):
            assert oracle.hom_dim_oracle(a, b) == hom_dim_oracle(dense_a, dense_b)
            # Hom - Ext is the Euler form for any representation of a quiver
            assert oracle.ext_dim_oracle(a, b) >= 0

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def test_rank_of_integer_matrices(self, mat):
        with time_limit(10):
            assert oracle._rank_mod(sparse_rows(mat)) == _rank_mod(mat, oracle.PRIME)

    def test_non_nilpotent_loop(self):
        # x -> 2x and x -> x over F_PRIME: only scalars commute with the
        # first, and nothing but 0 intertwines the two; no uniserial is like this
        shape = oracle.cyclic_quiver(1)
        dense_a, a = both_forms(shape, (1,), (np.array([[2]], dtype=np.int64),))
        dense_b, b = both_forms(shape, (1,), (np.array([[1]], dtype=np.int64),))
        assert a.maps == ((1, 1, ((0, 0, 2),)),)
        assert oracle.hom_dim_oracle(a, a) == hom_dim_oracle(dense_a, dense_a) == 1
        assert oracle.hom_dim_oracle(a, b) == hom_dim_oracle(dense_a, dense_b) == 0


class TestUniserialsMatchReference:
    @staticmethod
    def assert_same(rep: QuivRep, dense: DenseRep):
        assert (rep.shape, rep.dims) == (dense.shape, dense.dims)
        assert rep.maps == tuple(map(entry_form, dense.maps))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_tube_arcs(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(2 * n):
            dense = _uniserial(oracle.cyclic_quiver(n), x.start % n, x.length, cyclic=True)
            self.assert_same(oracle.build_rep(tube, x), dense)

    @pytest.mark.parametrize("m", range(1, 7))
    def test_segment_arcs(self, m):
        for arc in all_arcs(m):
            dense = _uniserial(linear_quiver(m), arc.i, arc.j - arc.i - 1, cyclic=False)
            self.assert_same(build_rep_a(m, arc), dense)
