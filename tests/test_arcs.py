import copy
import pickle
import re

import pytest

from tubecalc.arcs import (
    IndObj,
    Tube,
    format_finite,
    format_obj,
    parse_endpoints,
    parse_obj,
    sort_key,
)
from tubecalc.torsion import make_desc, members
from tubecalc.type_a import AArc
from cover import lift
from tube_defs import left_closure, right_closure, tau, tau_inv
from wings import fan, wing_members

try:
    from hypothesis import given, strategies as st
except ImportError:  # the property tests below skip without hypothesis
    given = st = None
needs_hypothesis = pytest.mark.skipif(given is None, reason="needs hypothesis")


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

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_fan_matches_normalize(self, n):
        tube = Tube(n)
        for anchor in range(-n, 2 * n):
            for longest in (1, n + 1, 3 * n + 2, 2):  # grown rows, then prefixes
                spans = range(2, longest + 1)
                assert fan(tube, anchor, longest) == [
                    tube.normalize(anchor, anchor + d) for d in spans
                ]
                assert fan(tube, anchor, longest, at_end=True) == [
                    tube.normalize(anchor - d, anchor) for d in spans
                ]

    def test_invalid_shapes(self):
        tube = Tube(3)
        with pytest.raises(ValueError):
            tube.normalize(0, 1)
        with pytest.raises(ValueError):
            tube.reflect(IndObj(0, 1))
        with pytest.raises(ValueError):
            tube.normalize(None, None)
        with pytest.raises(ValueError):
            IndObj(None, None)
        with pytest.raises(ValueError):
            Tube(0)

    @pytest.mark.parametrize("rank", [2.5, 3.0, "3", True, None])
    def test_rank_must_be_an_int(self, rank):
        with pytest.raises(ValueError, match=re.escape(f"got {rank!r}")):
            Tube(rank)

    @pytest.mark.parametrize("ends", [(0, None), (None, 2), (None, None)])
    def test_finite_takes_finite_ends_only(self, ends):
        # normalize would give M[0,inf] and M[-inf,2]
        with pytest.raises(ValueError, match="a finite arc has two finite ends"):
            Tube(3).finite(*ends)


class TestSymmetries:
    def test_tau_examples(self):
        assert tau(Tube(3), Tube(3).finite(0, 2)) == IndObj(2, 4)
        assert tau(Tube(4), Tube(4).prufer(0)) == IndObj(3, None)
        t5 = Tube(5)
        x = t5.finite(1, 6)
        assert tau_inv(t5, tau(t5, x)) == x

    def test_reflect_examples(self):
        t5 = Tube(5)
        assert t5.reflect(t5.finite(0, 3)) == IndObj(2, 5)
        assert t5.reflect(t5.prufer(2)) == IndObj(None, 3)

    @pytest.mark.parametrize("n", range(1, 7))
    def test_involutions_exhaustive(self, n):
        tube = Tube(n)
        for x in all_objects(tube, 3 * n):
            assert tau_inv(tube, tau(tube, x)) == x
            assert tau(tube, tau_inv(tube, x)) == x
            assert tube.reflect(tube.reflect(x)) == x

    @pytest.mark.parametrize("n", range(1, 7))
    def test_reflect_swaps_tau_direction(self, n):
        # (tau X)^v = tau^{-1}(X^v) on finite objects
        tube = Tube(n)
        for x in tube.finite_objects(3 * n):
            assert tube.reflect(tau(tube, x)) == tau_inv(tube, tube.reflect(x))

    def test_reflect_exchanges_prufer_and_adic(self):
        tube = Tube(4)
        assert tube.reflect(tube.prufer(1)).is_adic
        assert tube.reflect(tube.adic(1)).is_prufer


class TestShortenings:
    """The closures of a single arc are its quotients (left) and subobjects (right)."""

    def test_left_right_examples(self):
        t4 = Tube(4)
        x = t4.finite(0, 4)
        assert left_closure(t4, [x]) == {t4.finite(0, 4), t4.finite(1, 4), t4.finite(2, 4)}
        assert right_closure(t4, [x]) == {t4.finite(0, 4), t4.finite(0, 3), t4.finite(0, 2)}

    def test_simple_has_no_proper_quotients(self):
        t4 = Tube(4)
        s = t4.finite(0, 2)
        assert left_closure(t4, [s]) == {s}
        assert right_closure(t4, [s]) == {s}

    @pytest.mark.parametrize("n", range(1, 6))
    def test_counts_equal_length(self, n):
        tube = Tube(n)
        for x in tube.finite_objects(3 * n):
            assert len(left_closure(tube, [x])) == x.length
            assert len(right_closure(tube, [x])) == x.length

    def test_infinite_objects_rejected(self):
        tube = Tube(2)
        for closure in (left_closure, right_closure):
            for x in (tube.prufer(0), tube.adic(1)):
                with pytest.raises(ValueError):
                    closure(tube, [x])


class TestWings:
    def test_zero_wing(self):
        assert wing_members(Tube(10), 0, 1) == frozenset()
        assert wing_members(Tube(10), 0, 0) == frozenset()

    def test_member_enumeration(self):
        t10 = Tube(10)
        got = wing_members(t10, 0, 4)
        want = {t10.finite(0, 2), t10.finite(1, 3), t10.finite(2, 4),
                t10.finite(0, 3), t10.finite(1, 4), t10.finite(0, 4)}
        assert got == want
        assert wing_members(Tube(2), 0, 2) == {Tube(2).finite(0, 2)}

    def test_intersection_figure_example(self):
        # rank 10, indices {0,4,7,8}: wings based at 0,4,7,8 with the 7..8 gap zero
        wings = Tube(10).wing_intersection([0, 4, 7, 8])
        assert [(w.start, w.end) for w in wings] == [(0, 4), (4, 7), (7, 8), (8, 10)]
        assert [w.end - w.start <= 1 for w in wings] == [False, False, True, False]

    @pytest.mark.parametrize("index", ["1", 1.5, True, None, -1, 5])
    def test_intersection_refuses_an_index_that_is_no_int_in_range(self, index):
        with pytest.raises(ValueError, match=rf"^indices must be integers in 0\.\.4, got {re.escape(repr(index))}$"):
            Tube(5).wing_intersection([0, index])

    def test_intersection_degenerate_ranks(self):
        w1 = Tube(1).wing_intersection([0])
        assert [(w.start, w.end, w.end - w.start <= 1) for w in w1] == [(0, 1, True)]
        w2 = Tube(2).wing_intersection([0])
        assert [(w.start, w.end, w.end - w.start <= 1) for w in w2] == [(0, 2, False)]
        assert wing_members(Tube(2), 0, 2) == {Tube(2).finite(0, 2)}

    @pytest.mark.parametrize("n,indices", [(10, (0, 4, 7, 8)), (5, (1, 3)), (6, (0, 1, 2, 3, 4, 5))])
    def test_gap_sum_and_disjointness(self, n, indices):
        tube = Tube(n)
        wings = tube.wing_intersection(indices)
        assert sum(w.end - w.start for w in wings) == n
        seen = set()
        for w in wings:
            mem = wing_members(tube, w.start, w.end - w.start)
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
            *[wing_members(tube, i, n) for i in indices]
        )
        union = frozenset()
        for w in tube.wing_intersection(indices):
            union |= wing_members(tube, w.start, w.end - w.start)
        assert intersection == union

    @pytest.mark.parametrize("n,indices", [(6, (0, 2, 3)), (5, (1, 4)), (10, (0, 4, 7, 8))])
    def test_different_wings_have_no_extensions(self, n, indices):
        from tubecalc.homs import ext_dim

        tube = Tube(n)
        wings = tube.wing_intersection(indices)
        sets = [wing_members(tube, w.start, w.end - w.start) for w in wings]
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
    """One-ray and one-coray descriptors, truncated by ``members``."""

    def test_ray_enumeration(self):
        t2 = Tube(2)
        got = members(t2, make_desc(t2, rays=[0]), 3)
        assert set(got) == {t2.finite(0, 2), t2.finite(0, 3), t2.finite(0, 4)}

    def test_coray_enumeration(self):
        t2 = Tube(2)
        got = members(t2, make_desc(t2, corays=[0]), 2)
        assert set(got) == {t2.finite(0, 2), t2.finite(1, 4)}

    def test_truncation_bound_one(self):
        t3 = Tube(3)
        assert set(members(t3, make_desc(t3, rays=[1]), 1)) == {t3.finite(1, 3)}
        assert set(members(t3, make_desc(t3, corays=[1]), 1)) == {t3.normalize(-1, 1)}

    @pytest.mark.parametrize("n", range(1, 5))
    def test_coray_members_share_end(self, n):
        tube = Tube(n)
        for j in range(n):
            for x in members(tube, make_desc(tube, corays=[j]), 3 * n):
                assert x.end % n == j


class TestGrammar:
    @pytest.mark.parametrize("text", ["M[0,3]", "M[2,inf]", "M[-inf,1]", "M[1,12]"])
    def test_round_trip(self, text):
        tube = Tube(5)
        assert format_obj(parse_obj(tube, text)) == text

    def test_parse_normalizes(self):
        assert format_obj(parse_obj(Tube(3), "M[4,7]")) == "M[1,4]"

    # int() reads Arabic-Indic, Devanagari and fullwidth digits; the grammar must not
    @pytest.mark.parametrize("bad", [
        "M[0,1]", "M[inf,3]", "M[-inf,inf]", "M(0,3)", "0,3", "M[a,b]",
        "M[\u0660,\u0663]", "M[0,\u0663]", "M[\u0966,3]", "M[\uff10,inf]", "M[-inf,\uff13]",
    ])
    def test_parse_errors(self, bad):
        with pytest.raises(ValueError):
            parse_obj(Tube(3), bad)

    def test_parse_endpoints_keeps_raw_indices(self):
        assert parse_endpoints("M[-1,2]") == (-1, 2)
        assert parse_endpoints(" M[7,inf] ") == (7, None)
        assert parse_endpoints("M[-inf,-4]") == (None, -4)
        for bad in ("M[a,b]", "M[\u0660,\u0663]"):
            with pytest.raises(ValueError):
                parse_endpoints(bad)

    def test_lift_produces_raw_pairs(self):
        tube = Tube(3)
        assert lift(tube, tube.finite(1, 4), 2) == (7, 10)
        assert lift(tube, tube.prufer(0), -1) == (-3, None)
        assert lift(tube, tube.adic(2)) == (None, 2)
        x = tube.finite(1, 4)
        assert tube.normalize(*lift(tube, x, 5)) == x

    def test_sort_key_orders_kinds(self):
        tube = Tube(3)
        objs = [tube.adic(0), tube.prufer(1), tube.finite(2, 4), tube.finite(0, 2)]
        ordered = sorted(objs, key=sort_key)
        assert [format_obj(x) for x in ordered] == ["M[0,2]", "M[2,4]", "M[1,inf]", "M[-inf,0]"]


class TestTupleArcs:
    """An arc is the tuple (start, end); hash, equality and the order of
    finite arcs are the tuple's."""

    @pytest.mark.parametrize(
        "build",
        [
            lambda: IndObj(None, None),
            lambda: IndObj(start=None, end=None),
            lambda: IndObj._make([None, None]),
            lambda: IndObj(0, None)._replace(start=None),
            lambda: IndObj(None, 3)._replace(end=None),
        ],
        ids=["positional", "keywords", "_make", "_replace-start", "_replace-end"],
    )
    def test_no_arc_without_a_finite_endpoint(self, build):
        with pytest.raises(ValueError, match="at least one finite endpoint"):
            build()

    def test_equal_to_its_tuple_not_to_a_segment_arc(self):
        x = IndObj(0, 3)
        assert x == (0, 3) and hash(x) == hash((0, 3))
        assert x != AArc(0, 3) and AArc(0, 3) != x
        assert {x, (0, 3), AArc(0, 3)} == {x, AArc(0, 3)}

    def test_immutable(self):
        x = IndObj(0, 3)
        with pytest.raises(AttributeError):
            x.start = 1
        assert not hasattr(x, "__dict__")

    @pytest.mark.parametrize("x", [IndObj(0, 3), IndObj(-4, 9), IndObj(2, None), IndObj(None, 1)])
    @pytest.mark.parametrize(
        "clone",
        [copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))],
        ids=["copy", "deepcopy", "pickle"],
    )
    def test_clones_round_trip(self, x, clone):
        y = clone(x)
        assert type(y) is IndObj and y == x and (y.start, y.end) == (x.start, x.end)

    def test_repr_and_str(self):
        assert repr(IndObj(0, 3)) == "IndObj(start=0, end=3)"
        assert repr(IndObj(None, 2)) == "IndObj(start=None, end=2)"
        assert str(IndObj(-1, 4)) == "M[-1,4]" and str(IndObj(5, None)) == "M[5,inf]"

    @needs_hypothesis
    def test_tuple_order_is_sort_key_order_on_finite_arcs(self):
        @given(st.lists(finite_arcs(), max_size=40))
        def check(objs):
            assert sorted(objs) == sorted(objs, key=sort_key)

        check()

    @needs_hypothesis
    def test_bulk_formatter_agrees_with_format_obj(self):
        @given(st.frozensets(finite_arcs(), max_size=40))
        def check(objs):
            assert format_finite(objs) == [format_obj(x) for x in sorted(objs, key=sort_key)]

        check()


def finite_arcs():
    """Arbitrary finite arcs, negative and very large endpoints included."""
    starts = st.integers(-(10**6), 10**6) | st.integers(-(10**30), 10**30)
    return st.builds(lambda s, d: IndObj(s, s + d), starts, st.integers(2, 10**30))
