import pytest

from tubecalc.arcs import IndObj, Tube, format_obj, parse_endpoints, parse_obj, sort_key


def all_objects(tube, max_len):
    objs = tube.finite_objects(max_len)
    objs += [tube.prufer(i) for i in range(tube.n)]
    objs += [tube.adic(j) for j in range(tube.n)]
    return objs


class TestNormalize:
    def test_shift_identification_examples(self):
        assert Tube(14).normalize(14, 17) == IndObj(0, 3)
        assert Tube(3).normalize(-1, 1) == IndObj(2, 4)
        assert Tube(5).normalize(7, None) == IndObj(2, None)

    def test_adic_anchors_on_end(self):
        assert Tube(5).normalize(None, -3) == IndObj(None, 2)

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_idempotent_and_sigma_invariant(self, n):
        tube = Tube(n)
        for i in range(-2 * n, 2 * n):
            for l in range(1, 2 * n + 2):
                x = tube.normalize(i, i + l + 1)
                assert tube.normalize(x.start, x.end) == x
                for k in (-3, -1, 1, 4):
                    assert tube.normalize(i + k * n, i + l + 1 + k * n) == x

    def test_invalid_shapes(self):
        tube = Tube(3)
        with pytest.raises(ValueError):
            tube.normalize(0, 1)
        with pytest.raises(ValueError):
            tube.normalize(None, None)
        with pytest.raises(ValueError):
            IndObj(None, None)
        with pytest.raises(ValueError):
            Tube(0)


class TestSymmetries:
    def test_tau_examples(self):
        assert Tube(3).tau(Tube(3).finite(0, 2)) == IndObj(2, 4)
        assert Tube(4).tau(Tube(4).prufer(0)) == IndObj(3, None)
        t5 = Tube(5)
        x = t5.finite(1, 6)
        assert t5.tau_inv(t5.tau(x)) == x

    def test_reflect_examples(self):
        t5 = Tube(5)
        assert t5.reflect(t5.finite(0, 3)) == IndObj(2, 5)
        assert t5.reflect(t5.prufer(2)) == IndObj(None, 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_involutions_exhaustive(self, n):
        tube = Tube(n)
        for x in all_objects(tube, 3 * n):
            assert tube.tau_inv(tube.tau(x)) == x
            assert tube.tau(tube.tau_inv(x)) == x
            assert tube.reflect(tube.reflect(x)) == x

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reflect_swaps_tau_direction(self, n):
        # (tau X)^v = tau^{-1}(X^v) on finite objects
        tube = Tube(n)
        for x in tube.finite_objects(3 * n):
            assert tube.reflect(tube.tau(x)) == tube.tau_inv(tube.reflect(x))

    def test_reflect_exchanges_prufer_and_adic(self):
        tube = Tube(4)
        assert tube.reflect(tube.prufer(1)).is_adic
        assert tube.reflect(tube.adic(1)).is_prufer


class TestShortenings:
    def test_left_right_examples(self):
        t4 = Tube(4)
        x = t4.finite(0, 4)
        assert t4.left_shortenings(x) == {t4.finite(0, 4), t4.finite(1, 4), t4.finite(2, 4)}
        assert t4.right_shortenings(x) == {t4.finite(0, 4), t4.finite(0, 3), t4.finite(0, 2)}

    def test_simple_has_no_proper_quotients(self):
        t4 = Tube(4)
        s = t4.finite(0, 2)
        assert t4.left_shortenings(s) == {s}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_equal_length(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(3 * n):
            assert len(tube.left_shortenings(x)) == x.length
            assert len(tube.right_shortenings(x)) == x.length

    def test_infinite_objects_rejected(self):
        tube = Tube(2)
        with pytest.raises(ValueError):
            tube.left_shortenings(tube.prufer(0))


class TestWings:
    def test_zero_wing(self):
        assert Tube(10).wing_members(0, 1) == frozenset()
        assert Tube(10).wing_members(0, 0) == frozenset()

    def test_member_enumeration(self):
        t10 = Tube(10)
        got = t10.wing_members(0, 4)
        want = {t10.finite(0, 2), t10.finite(1, 3), t10.finite(2, 4),
                t10.finite(0, 3), t10.finite(1, 4), t10.finite(0, 4)}
        assert got == want
        assert Tube(2).wing_members(0, 2) == {Tube(2).finite(0, 2)}

    def test_intersection_figure_example(self):
        # rank 10, indices {0,4,7,8}: wings based at 0,4,7,8 with the 7..8 gap zero
        wings = Tube(10).wing_intersection([0, 4, 7, 8])
        assert [(w.start, w.end) for w in wings] == [(0, 4), (4, 7), (7, 8), (8, 10)]
        assert [w.is_zero for w in wings] == [False, False, True, False]

    def test_intersection_degenerate_ranks(self):
        w1 = Tube(1).wing_intersection([0])
        assert [(w.start, w.end, w.is_zero) for w in w1] == [(0, 1, True)]
        w2 = Tube(2).wing_intersection([0])
        assert [(w.start, w.end, w.is_zero) for w in w2] == [(0, 2, False)]
        assert Tube(2).wing_members(0, 2) == {Tube(2).finite(0, 2)}

    @pytest.mark.parametrize("n,indices", [(10, (0, 4, 7, 8)), (5, (1, 3)), (6, (0, 1, 2, 3, 4, 5))])
    def test_gap_sum_and_disjointness(self, n, indices):
        tube = Tube(n)
        wings = tube.wing_intersection(indices)
        assert sum(w.end - w.start for w in wings) == n
        seen = set()
        for w in wings:
            mem = tube.wing_members(w.start, w.end - w.start)
            assert not (mem & seen)
            seen |= mem

    @pytest.mark.parametrize(
        "n,indices",
        [(10, (0, 4, 7, 8)), (5, (1, 3)), (6, (0, 2, 3)), (4, (2,)), (7, (0, 1, 5))],
    )
    def test_decomposition_matches_member_level_intersection(self, n, indices):
        # the wings of width n based at the indices intersect in exactly
        # the union of the consecutive-gap wings
        tube = Tube(n)
        intersection = frozenset.intersection(
            *[tube.wing_members(i, n) for i in indices]
        )
        union = frozenset()
        for w in tube.wing_intersection(indices):
            union |= tube.wing_members(w.start, w.end - w.start)
        assert intersection == union

    @pytest.mark.parametrize("n,indices", [(6, (0, 2, 3)), (5, (1, 4)), (10, (0, 4, 7, 8))])
    def test_different_wings_have_no_extensions(self, n, indices):
        from tubecalc.homs import ext_dim

        tube = Tube(n)
        wings = tube.wing_intersection(indices)
        sets = [tube.wing_members(w.start, w.end - w.start) for w in wings]
        for a in range(len(sets)):
            for b in range(len(sets)):
                if a == b:
                    continue
                for x in sets[a]:
                    for y in sets[b]:
                        assert ext_dim(tube, x, y) == 0

    def test_intersection_errors(self):
        with pytest.raises(ValueError):
            Tube(4).wing_intersection([])
        with pytest.raises(ValueError):
            Tube(4).wing_intersection([4])


class TestRaysCorays:
    def test_ray_enumeration(self):
        t2 = Tube(2)
        assert t2.ray_members(0, 3) == {t2.finite(0, 2), t2.finite(0, 3), t2.finite(0, 4)}

    def test_coray_enumeration(self):
        t2 = Tube(2)
        assert t2.coray_members(0, 2) == {t2.finite(0, 2), t2.finite(1, 4)}

    def test_truncation_bound_one(self):
        t3 = Tube(3)
        assert t3.ray_members(1, 1) == {t3.finite(1, 3)}
        assert t3.coray_members(1, 1) == {t3.normalize(-1, 1)}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_coray_members_share_end(self, n):
        tube = Tube(n)
        for j in range(n):
            for x in tube.coray_members(j, 3 * n):
                assert x.end % n == j


class TestGrammar:
    @pytest.mark.parametrize("text", ["M[0,3]", "M[2,inf]", "M[-inf,1]", "M[1,12]"])
    def test_round_trip(self, text):
        tube = Tube(5)
        assert format_obj(parse_obj(tube, text)) == text

    def test_parse_normalizes(self):
        assert format_obj(parse_obj(Tube(3), "M[4,7]")) == "M[1,4]"

    @pytest.mark.parametrize("bad", ["M[0,1]", "M[inf,3]", "M[-inf,inf]", "M(0,3)", "0,3", "M[a,b]"])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_obj(Tube(3), bad)

    def test_parse_endpoints_keeps_raw_indices(self):
        assert parse_endpoints("M[-1,2]") == (-1, 2)
        assert parse_endpoints(" M[7,inf] ") == (7, None)
        assert parse_endpoints("M[-inf,-4]") == (None, -4)
        with pytest.raises(ValueError):
            parse_endpoints("M[a,b]")

    def test_lift_produces_raw_pairs(self):
        tube = Tube(3)
        assert tube.lift(tube.finite(1, 4), 2) == (7, 10)
        assert tube.lift(tube.prufer(0), -1) == (-3, None)
        assert tube.lift(tube.adic(2)) == (None, 2)
        x = tube.finite(1, 4)
        assert tube.normalize(*tube.lift(x, 5)) == x

    def test_sort_key_orders_kinds(self):
        tube = Tube(3)
        objs = [tube.adic(0), tube.prufer(1), tube.finite(2, 4), tube.finite(0, 2)]
        ordered = sorted(objs, key=sort_key)
        assert [format_obj(x) for x in ordered] == ["M[0,2]", "M[2,4]", "M[1,inf]", "M[-inf,0]"]
