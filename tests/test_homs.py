import itertools

import pytest

from tubecalc import oracle
from tubecalc.arcs import Tube
from tubecalc.homs import (
    ALEPH0,
    Aleph0,
    InfinitePairError,
    ext_dim,
    hom_dim,
    is_rigid,
    neg_crossing_shifts,
    neg_crossings,
    pos_crossings,
)


def finite_pairs(tube, max_len):
    objs = tube.finite_objects(max_len)
    return itertools.product(objs, objs)


class TestCrossings:
    def test_prufer_finite_example(self):
        t2 = Tube(2)
        assert neg_crossings(t2, t2.prufer(0), t2.finite(1, 4)) == 1

    def test_finite_prufer_always_zero(self):
        for n in (1, 2, 3):
            tube = Tube(n)
            for x in tube.finite_objects(6):
                for i in range(n):
                    assert neg_crossings(tube, x, tube.prufer(i)) == 0
                    assert neg_crossings(tube, tube.adic(i), x) == 0

    def test_finite_finite_oracle_case(self):
        t2 = Tube(2)
        assert neg_crossings(t2, t2.finite(0, 2), t2.finite(1, 3)) == 1

    def test_pos_is_neg_swapped(self):
        for n in (1, 2, 3, 4):
            tube = Tube(n)
            for a, b in finite_pairs(tube, 8):
                assert pos_crossings(tube, a, b) == neg_crossings(tube, b, a)

    def test_pos_mirror_example(self):
        t2 = Tube(2)
        assert pos_crossings(t2, t2.finite(1, 3), t2.finite(0, 2)) == 1

    def test_one_sided_table(self):
        t3 = Tube(3)
        p, a = t3.prufer(0), t3.adic(1)
        assert neg_crossings(t3, p, a) is ALEPH0
        assert neg_crossings(t3, p, t3.prufer(2)) == 0
        assert neg_crossings(t3, a, p) == 0
        assert neg_crossings(t3, a, t3.adic(0)) == 0
        assert pos_crossings(t3, a, p) is ALEPH0

    def test_shift_list_matches_count(self):
        for n in (1, 2, 3):
            tube = Tube(n)
            for a, b in finite_pairs(tube, 7):
                assert len(neg_crossing_shifts(tube, a, b)) == neg_crossings(tube, a, b)


class TestExtDim:
    def test_prufer_adic_aleph0(self):
        t4 = Tube(4)
        for i in range(4):
            for j in range(4):
                assert ext_dim(t4, t4.prufer(i), t4.adic(j)) is ALEPH0

    def test_simple_no_self_extension_for_n_at_least_2(self):
        for n in (2, 3, 5):
            tube = Tube(n)
            assert ext_dim(tube, tube.finite(0, 2), tube.finite(0, 2)) == 0

    def test_adic_to_finite_zero(self):
        t3 = Tube(3)
        for x in t3.finite_objects(6):
            assert ext_dim(t3, t3.adic(1), x) == 0

    def test_aleph0_is_singleton_and_distinct_from_ints(self):
        assert Aleph0() is ALEPH0
        assert ALEPH0 != 0
        assert repr(ALEPH0) == "aleph0"


class TestHomDim:
    def test_simple_endomorphisms(self):
        for n in (1, 2, 3):
            tube = Tube(n)
            assert hom_dim(tube, tube.finite(0, 2), tube.finite(0, 2)) == 1

    def test_prufer_to_finite_vanishes(self):
        t3 = Tube(3)
        for i in range(3):
            for x in t3.finite_objects(6):
                assert hom_dim(t3, t3.prufer(i), x) == 0
                assert hom_dim(t3, x, t3.adic(i)) == 0

    def test_oracle_fixed_value(self):
        # frozen from the intertwiner-nullspace oracle; equals the
        # translate-dual Ext value as required below
        t2 = Tube(2)
        assert hom_dim(t2, t2.finite(0, 4), t2.finite(1, 3)) == 0
        assert ext_dim(t2, t2.tau_inv(t2.finite(1, 3)), t2.finite(0, 4)) == 0

    def test_two_one_sided_arcs_unsupported(self):
        t2 = Tube(2)
        for x, y in [(t2.prufer(0), t2.prufer(1)), (t2.adic(0), t2.adic(1)),
                     (t2.prufer(0), t2.adic(0)), (t2.adic(0), t2.prufer(0))]:
            with pytest.raises(InfinitePairError):
                hom_dim(t2, x, y)


class TestDualities:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_translate_duality(self, n):
        # dim Hom(Y, tau X) = dim Ext^1(X, Y)
        tube = Tube(n)
        for x, y in finite_pairs(tube, 8):
            assert hom_dim(tube, y, tube.tau(x)) == ext_dim(tube, x, y)

    @pytest.mark.parametrize("n", range(1, 5))
    def test_reflection_preserves_hom_dim(self, n):
        tube = Tube(n)
        finite = tube.finite_objects(8)
        one_sided = [tube.prufer(i) for i in range(n)] + [tube.adic(j) for j in range(n)]
        pairs = itertools.chain(
            finite_pairs(tube, 8),
            itertools.product(finite, one_sided),
            itertools.product(one_sided, finite),
        )
        for x, y in pairs:
            assert hom_dim(tube, x, y) == hom_dim(tube, tube.reflect(y), tube.reflect(x))

    @pytest.mark.parametrize("n", range(1, 5))
    def test_reflection_preserves_ext_vanishing(self, n):
        tube = Tube(n)
        objs = tube.finite_objects(6)
        objs += [tube.prufer(i) for i in range(n)] + [tube.adic(j) for j in range(n)]
        for x in objs:
            for y in objs:
                lhs = ext_dim(tube, x, y) == 0
                rhs = ext_dim(tube, tube.reflect(y), tube.reflect(x)) == 0
                assert lhs == rhs


class TestRigidity:
    def test_singleton_simple(self):
        for n in (2, 3):
            tube = Tube(n)
            assert is_rigid(tube, {tube.finite(0, 2)})

    def test_prufer_adic_mix_fails(self):
        t3 = Tube(3)
        assert not is_rigid(t3, {t3.prufer(0), t3.adic(2)})

    def test_all_prufers_rigid(self):
        t2 = Tube(2)
        assert is_rigid(t2, {t2.prufer(0), t2.prufer(1)})

    @pytest.mark.parametrize("n", range(1, 6))
    def test_self_rigid_iff_span_at_most_n(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(2 * n + 3):
            assert is_rigid(tube, {x}) == (x.end - x.start <= n)


class TestPerpsAndStabilization:
    @pytest.mark.parametrize("n", range(1, 5))
    def test_prufer_left_perp_is_everything(self, n):
        tube = Tube(n)
        for i in range(n):
            for x in tube.finite_objects(3 * n):
                assert ext_dim(tube, x, tube.prufer(i)) == 0

    @pytest.mark.parametrize("n", range(1, 5))
    def test_prufer_right_perp_is_wing(self, n):
        # at n=1 the width-n wing is zero and the perp is empty
        tube = Tube(n)
        max_len = 3 * n
        for i in range(n):
            wing = tube.wing_members(i, n)
            perp = {x for x in tube.finite_objects(max_len)
                    if ext_dim(tube, tube.prufer(i), x) == 0}
            assert perp == {w for w in wing if w.length <= max_len}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_hom_into_ray_stabilizes_to_prufer(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(6):
            span = x.end - x.start
            x_rep = oracle.build_rep(tube, x)
            for i in range(n):
                target = hom_dim(tube, x, tube.prufer(i))
                for extra in range(3):
                    deep = tube.normalize(i, i + span + extra + 1)
                    assert hom_dim(tube, x, deep) == target
                    assert oracle.hom_dim_oracle(x_rep, oracle.build_rep(tube, deep)) == target

    def test_oracle_equivalence_spot(self):
        # the full desk-scale sweep lives in the acceptance suite
        for n in (1, 2, 3):
            tube = Tube(n)
            objs = tube.finite_objects(6)
            reps = {x: oracle.build_rep(tube, x) for x in objs}
            for x, y in itertools.product(objs, objs):
                assert hom_dim(tube, x, y) == oracle.hom_dim_oracle(reps[x], reps[y])
                assert ext_dim(tube, x, y) == oracle.ext_dim_oracle(reps[x], reps[y])
