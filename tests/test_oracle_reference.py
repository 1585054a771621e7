"""The sparse elimination of ``oracle`` against the dense code it replaced.

The reference below is the old implementation, copied unchanged: the
intertwiner system is assembled from Kronecker products with identity
blocks, stacked, and reduced mod p row by row over numpy.  Hypothesis draws
arbitrary representations, not only the 0/1 uniserials the tube and the
segment use: cyclic quivers with 1-5 vertices and linear quivers with 1-5
vertices, 0-3 basis vectors per vertex, and maps with integer entries in
[-5, 5] at one of three densities (so not necessarily nilpotent), over
p = 2, 3 or 32003.  It also compares the rank of random integer matrices.
"""

import numpy as np
import pytest

from limits import needs_alarm, time_limit
from tubecalc import oracle
from tubecalc.oracle import QuivRep

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# -- reference ---------------------------------------------------------------------


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


# -- comparison ----------------------------------------------------------------------

PRIMES = (2, 3, 32003)


def integer_matrix(rng, rows: int, cols: int, density: float) -> np.ndarray:
    """Entries in [-5, 5], each kept with probability ``density``.  The
    entries come from a generator seeded by hypothesis, which draws the
    shapes and the density itself: drawing every entry through hypothesis
    made generation two thirds of the test's time."""
    return rng.integers(-5, 6, size=(rows, cols)) * (rng.random((rows, cols)) < density)


@st.composite
def representation_pairs(draw):
    quiver = draw(st.sampled_from([oracle.cyclic_quiver, oracle.linear_quiver]))
    shape = quiver(draw(st.integers(1, 5)))
    p = draw(st.sampled_from(PRIMES))
    rng = np.random.default_rng(draw(st.integers(0, 2**32)))
    density = draw(st.sampled_from([0.3, 0.6, 1.0]))
    pair = []
    for _ in range(2):
        nv = shape.num_vertices
        dims = tuple(draw(st.lists(st.integers(0, 3), min_size=nv, max_size=nv)))
        maps = tuple(integer_matrix(rng, dims[w], dims[v], density) for (v, w) in shape.arrows)
        pair.append(QuivRep(shape, dims, maps, p))
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


@needs_alarm
class TestMatchesReference:
    @settings(max_examples=250, deadline=None)
    @given(representation_pairs())
    def test_arbitrary_representations(self, pair):
        a, b = pair
        with time_limit(10):
            assert oracle.hom_dim_oracle(a, b) == hom_dim_oracle(a, b)
            # Hom - Ext is the Euler form for any representation of a quiver
            assert oracle.ext_dim_oracle(a, b) >= 0

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices(), st.sampled_from(PRIMES))
    def test_rank_of_integer_matrices(self, mat, p):
        with time_limit(10):
            assert oracle._rank_mod(sparse_rows(mat), p) == _rank_mod(mat, p)

    def test_non_nilpotent_loop(self):
        # x -> 2x and x -> x over F_3: only scalars commute with the first,
        # and nothing but 0 intertwines the two; no uniserial is like this
        shape = oracle.cyclic_quiver(1)
        a = QuivRep(shape, (1,), (np.array([[2]], dtype=np.int64),), 3)
        b = QuivRep(shape, (1,), (np.array([[1]], dtype=np.int64),), 3)
        assert oracle.hom_dim_oracle(a, a) == hom_dim_oracle(a, a) == 1
        assert oracle.hom_dim_oracle(a, b) == hom_dim_oracle(a, b) == 0
