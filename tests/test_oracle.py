import itertools

import pytest

from tubecalc import homs, oracle
from tubecalc.arcs import Tube
from tubecalc.type_a import AArc


def compose(mat, cur):
    """The product mat @ cur of two maps held as (rows, cols, entries)."""
    rows, inner, entries = mat
    cur_rows, cols, cur_entries = cur
    assert inner == cur_rows
    out = {}
    for i, l, x in entries:
        for l2, j, y in cur_entries:
            if l == l2:
                out[i, j] = out.get((i, j), 0) + x * y
    return rows, cols, tuple((i, j, x) for (i, j), x in sorted(out.items()) if x)


class TestBuildRep:
    def test_simple_sits_at_its_socle_vertex(self):
        t2 = Tube(2)
        rep = oracle.build_rep(t2, t2.finite(0, 2))
        assert rep.dims == (1, 0)
        rep1 = oracle.build_rep(t2, t2.finite(1, 3))
        assert rep1.dims == (0, 1)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_dims_sum_to_length(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(9):
            rep = oracle.build_rep(tube, x)
            assert sum(rep.dims) == x.length

    def test_rank_one_is_nilpotent_jordan_block(self):
        t1 = Tube(1)
        rep = oracle.build_rep(t1, t1.finite(0, 3))
        assert rep.dims == (2,)
        assert rep.maps[0] == (2, 2, ((0, 1, 1),))

    def test_cycle_composite_is_nilpotent(self):
        t3 = Tube(3)
        rep = oracle.build_rep(t3, t3.finite(1, 8))
        # walk the cycle n times starting at each vertex; must kill everything
        for v in range(3):
            d = rep.dims[v]
            cur = (d, d, tuple((r, r, 1) for r in range(d)))
            w = v
            for _ in range(3 * 3):
                arrow = rep.shape.arrows[w]
                cur = compose(rep.maps[w], cur)
                w = arrow[1]
            assert cur[2] == ()

    def test_infinite_objects_have_no_matrices(self):
        t2 = Tube(2)
        with pytest.raises(ValueError):
            oracle.build_rep(t2, t2.prufer(0))


class TestHomOracle:
    def test_identity_gives_at_least_one(self):
        t3 = Tube(3)
        for x in t3.finite_objects(5):
            rep = oracle.build_rep(t3, x)
            assert oracle.hom_dim_oracle(rep, rep) >= 1

    def test_jordan_intertwiner_count(self):
        t1 = Tube(1)
        for l, m in itertools.product(range(1, 8), repeat=2):
            a = oracle.build_rep(t1, t1.finite(0, l + 1))
            b = oracle.build_rep(t1, t1.finite(0, m + 1))
            assert oracle.hom_dim_oracle(a, b) == min(l, m)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_crossing_formulas(self, n):
        tube = Tube(n)
        objs = tube.finite_objects(7)
        reps = {x: oracle.build_rep(tube, x) for x in objs}
        for x, y in itertools.product(objs, objs):
            assert oracle.hom_dim_oracle(reps[x], reps[y]) == homs.hom_dim(tube, x, y)

    def test_maps_must_match_the_dimension_vector(self):
        rep = oracle.QuivRep(oracle.cyclic_quiver(1), (1,), ((2, 2, ()),))
        with pytest.raises(ValueError, match="arrow 0 do not match the dimension vectors"):
            oracle.hom_dim_oracle(rep, rep)

    @pytest.mark.parametrize("dims", [(1,), (1, 1, 1), (1, -1), (1, 1.0), (True, 1)])
    def test_dims_must_fit_the_quiver(self, dims):
        shape = oracle.cyclic_quiver(2)
        rep = oracle.QuivRep(shape, dims, ((0, 1, ()), (1, 0, ())))
        with pytest.raises(ValueError, match="is not a dimension vector on 2 vertices"):
            oracle.hom_dim_oracle(rep, rep)
        with pytest.raises(ValueError, match="is not a dimension vector on 2 vertices"):
            oracle.ext_dim_oracle(rep, rep)

    def test_one_map_per_arrow(self):
        rep = oracle.QuivRep(oracle.cyclic_quiver(2), (1, 1), ((1, 1, ((0, 0, 1),)),))
        with pytest.raises(ValueError, match="1 maps for 2 arrows"):
            oracle.hom_dim_oracle(rep, rep)

    @pytest.mark.parametrize("cell", [(1, 0), (0, 2), (-1, 0), (0, -1)])
    def test_entries_must_lie_inside_the_map(self, cell):
        # dims (1, 2) on the cyclic quiver with two vertices: the map of
        # arrow 1 (vertex 1 -> vertex 0) is 1 x 2
        shape = oracle.cyclic_quiver(2)
        good = oracle.QuivRep(shape, (1, 2), ((2, 1, ()), (1, 2, ())))
        bad = oracle.QuivRep(shape, (1, 2), ((2, 1, ()), (1, 2, (cell + (1,),))))
        assert oracle.hom_dim_oracle(good, good) == 5
        outside = "an entry of the map of arrow 1 lies outside its 1 x 2 shape"
        for a, b in ((bad, good), (good, bad)):
            with pytest.raises(ValueError, match=outside):
                oracle.hom_dim_oracle(a, b)

    def test_mismatched_quivers_rejected(self):
        a = oracle.build_rep(Tube(2), Tube(2).finite(0, 3))
        b = oracle.build_rep(Tube(3), Tube(3).finite(0, 3))
        with pytest.raises(ValueError):
            oracle.hom_dim_oracle(a, b)


class TestEulerAndExt:
    def test_euler_examples(self):
        assert oracle.euler_form(oracle.cyclic_quiver(2), (1, 0), (0, 1)) == -1
        assert oracle.euler_form(oracle.cyclic_quiver(1), (1,), (1,)) == 0
        # linear A_2: one arrow from vertex 1 to vertex 0
        assert oracle.euler_form(oracle.linear_quiver(2), (1, 0), (0, 1)) == 0
        assert oracle.euler_form(oracle.linear_quiver(2), (0, 1), (1, 0)) == -1

    def test_euler_dimension_mismatch(self):
        with pytest.raises(ValueError):
            oracle.euler_form(oracle.cyclic_quiver(2), (1,), (0, 1))

    def test_rank_one_simple_has_self_extension(self):
        t1 = Tube(1)
        rep = oracle.build_rep(t1, t1.finite(0, 2))
        assert oracle.hom_dim_oracle(rep, rep) == 1
        assert oracle.ext_dim_oracle(rep, rep) == 1

    def test_simple_ext_calibrates_translate(self):
        # Ext(S_i, S_j) is 1 exactly for j = i-1, matching tau on simples
        for n in (2, 3, 4):
            tube = Tube(n)
            reps = {i: oracle.build_rep(tube, tube.finite(i, i + 2)) for i in range(n)}
            for i in range(n):
                for j in range(n):
                    want = 1 if (i - j) % n == 1 else 0
                    assert oracle.ext_dim_oracle(reps[i], reps[j]) == want
            assert tube.tau(tube.finite(1, 3)) == tube.finite(0, 2)

    def test_ext_zero_without_negative_crossing(self):
        t3 = Tube(3)
        objs = t3.finite_objects(6)
        reps = {x: oracle.build_rep(t3, x) for x in objs}
        for x, y in itertools.product(objs, objs):
            if homs.neg_crossings(t3, x, y) == 0:
                assert oracle.ext_dim_oracle(reps[x], reps[y]) == 0


class TestBruteForceMaxRigid:
    def test_rank_two_cliques(self):
        t2 = Tube(2)
        cliques = oracle.brute_force_max_rigid(t2)
        assert len(cliques) == 6
        expect = {
            frozenset({t2.prufer(0), t2.finite(0, 2)}),
            frozenset({t2.prufer(1), t2.finite(1, 3)}),
            frozenset({t2.prufer(0), t2.prufer(1)}),
            frozenset({t2.adic(0), t2.finite(0, 2)}),
            frozenset({t2.adic(1), t2.finite(1, 3)}),
            frozenset({t2.adic(0), t2.adic(1)}),
        }
        assert set(cliques) == expect

    @pytest.mark.parametrize("n", range(1, 5))
    def test_clique_size_and_purity(self, n):
        tube = Tube(n)
        for c in oracle.brute_force_max_rigid(tube):
            assert len(c) == n
            has_p = any(x.is_prufer for x in c)
            has_a = any(x.is_adic for x in c)
            assert has_p != has_a

    def test_deterministic_order(self):
        t3 = Tube(3)
        assert oracle.brute_force_max_rigid(t3) == oracle.brute_force_max_rigid(t3)


class TestLinearQuiverReps:
    def test_arc_rep_dims(self):
        rep = oracle.build_rep_a(3, AArc(0, 3))
        assert rep.dims == (1, 1, 0)
        assert sum(oracle.build_rep_a(4, AArc(1, 5)).dims) == 3

    def test_hom_ext_euler_identity(self):
        for m in (2, 3, 4):
            arcs = [AArc(i, j) for i in range(m) for j in range(i + 2, m + 2)]
            reps = {a: oracle.build_rep_a(m, a) for a in arcs}
            shape = oracle.linear_quiver(m)
            for x, y in itertools.product(arcs, arcs):
                h = oracle.hom_dim_oracle(reps[x], reps[y])
                e = oracle.ext_dim_oracle(reps[x], reps[y])
                assert h - e == oracle.euler_form(shape, reps[x].dims, reps[y].dims)
