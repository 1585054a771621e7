import itertools

import pytest

from tubecalc import homs, oracle
from tubecalc.arcs import Tube
from tubecalc.type_a import AArc


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
        mat = rep.maps[0]
        assert mat.tolist() == [[0, 1], [0, 0]]

    def test_cycle_composite_is_nilpotent(self):
        import numpy as np
        t3 = Tube(3)
        rep = oracle.build_rep(t3, t3.finite(1, 8))
        # walk the cycle n times starting at each vertex; must kill everything
        for v in range(3):
            vec = np.eye(rep.dims[v], dtype=int)
            cur = vec
            w = v
            for _ in range(3 * 3):
                arrow = rep.shape.arrows[w]
                cur = rep.maps[w] @ cur
                w = arrow[1]
            assert not cur.any()

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

    def test_prime_independence(self):
        for n in (1, 2, 3):
            tube = Tube(n)
            objs = tube.finite_objects(6)
            for x, y in itertools.product(objs, objs):
                a2 = oracle.build_rep(tube, x, p=2)
                b2 = oracle.build_rep(tube, y, p=2)
                ab = oracle.build_rep(tube, x)
                bb = oracle.build_rep(tube, y)
                assert oracle.hom_dim_oracle(a2, b2) == oracle.hom_dim_oracle(ab, bb)

    @pytest.mark.parametrize("p", [0, 1, 4, -5])
    def test_non_prime_p_rejected(self, p):
        tube = Tube(3)
        with pytest.raises(ValueError, match=f"p must be a prime, got p={p}"):
            oracle.build_rep(tube, tube.finite(0, 4), p=p)
        with pytest.raises(ValueError, match=f"p must be a prime, got p={p}"):
            oracle.build_rep_a(3, AArc(0, 3), p=p)
        # a representation built by hand is checked where the field is used
        rep = oracle.build_rep(tube, tube.finite(0, 4))
        rep = oracle.QuivRep(rep.shape, rep.dims, rep.maps, p)
        with pytest.raises(ValueError, match=f"p must be a prime, got p={p}"):
            oracle.hom_dim_oracle(rep, rep)

    def test_prime_check_reads_the_type(self):
        tube = Tube(2)
        oracle.build_rep(tube, tube.finite(0, 3), p=5)
        # 5.0 == 5 must not reuse the answer memoized for 5
        for p in (5.0, True, "5"):
            with pytest.raises(ValueError, match="p must be a prime"):
                oracle.build_rep(tube, tube.finite(0, 3), p=p)

    def test_maps_must_match_the_dimension_vector(self):
        import numpy as np
        rep = oracle.QuivRep(oracle.cyclic_quiver(1), (1,), (np.zeros((2, 2), dtype=np.int64),), 3)
        with pytest.raises(ValueError, match="arrow 0 do not match the dimension vectors"):
            oracle.hom_dim_oracle(rep, rep)

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
