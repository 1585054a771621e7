import gc
import inspect
import itertools
import re
from functools import lru_cache

import pytest

from tubecalc import oracle
from tubecalc import type_a as ta
import segment_defs
from limits import needs_alarm, time_limit
from tubecalc.type_a import AArc


@lru_cache(maxsize=None)
def triangulation_count(k):
    """Triangulations of a convex k-gon by direct recursion on the apex of
    the base edge; independent of the arc-based enumeration."""
    if k <= 3:
        return 1
    return sum(triangulation_count(a + 1) * triangulation_count(k - a) for a in range(1, k - 1))


class TestExtAndSes:
    def test_negative_crossing_pattern(self):
        assert segment_defs.ext_dim(AArc(1, 3), AArc(0, 2)) == 1
        assert segment_defs.ext_dim(AArc(0, 2), AArc(1, 3)) == 0

    def test_no_self_crossing(self):
        for x in segment_defs.all_arcs(4):
            assert segment_defs.ext_dim(x, x) == 0

    def test_ses_two_middle_terms(self):
        assert segment_defs.ses_middle(AArc(2, 5), AArc(0, 4)) == {AArc(0, 5), AArc(2, 4)}

    def test_ses_one_middle_term(self):
        assert segment_defs.ses_middle(AArc(2, 5), AArc(0, 3)) == {AArc(0, 5)}

    def test_ses_preserves_total_length(self):
        for m in range(2, 6):
            for x in segment_defs.all_arcs(m):
                for y in segment_defs.all_arcs(m):
                    if segment_defs.ext_dim(x, y) == 1:
                        mids = segment_defs.ses_middle(x, y)
                        total = sum(a.j - a.i - 1 for a in mids)
                        assert total == (x.j - x.i - 1) + (y.j - y.i - 1)

    def test_ses_requires_extension(self):
        with pytest.raises(ValueError):
            segment_defs.ses_middle(AArc(0, 2), AArc(1, 3))


class TestTranslate:
    def test_examples(self):
        assert segment_defs.tau(AArc(1, 3)) == AArc(0, 2)
        assert segment_defs.tau(AArc(0, 4)) is None
        assert segment_defs.tau_inv(3, AArc(0, 2)) == AArc(1, 3)
        assert segment_defs.tau_inv(3, AArc(1, 4)) is None


class TestTilting:
    def test_small_counts(self):
        assert [sorted(map(str, s)) for s in ta.enumerate_tilting(1)] == [["[0,2]"]]
        assert len(ta.enumerate_tilting(2)) == 2
        assert len(ta.enumerate_tilting(3)) == 5

    @pytest.mark.parametrize("m", range(1, 11))
    def test_count_is_catalan_via_triangulations(self, m):
        assert len(ta.enumerate_tilting(m)) == triangulation_count(m + 2)

    @pytest.mark.parametrize("m", range(1, 6))
    def test_matches_brute_force_maximal_rigid_search(self, m):
        arcs = segment_defs.all_arcs(m)
        full = AArc(0, m + 1)
        brute = set()
        for sub in itertools.combinations(arcs, m):
            if full in sub and all(
                not segment_defs.crossing(a, b) for a, b in itertools.combinations(sub, 2)
            ):
                brute.add(frozenset(sub))
        assert brute == set(ta.enumerate_tilting(m))

    @pytest.mark.parametrize("m", range(1, 8))
    def test_every_output_is_tilting(self, m):
        for u in ta.enumerate_tilting(m):
            assert ta.is_tilting(m, u)

    def test_is_tilting_refuses_arcs_off_the_segment(self):
        # a boundary edge and an arc past the last point are no arcs of the segment
        with pytest.raises(ValueError, match=r"arc \[1,2\] does not fit"):
            ta.is_tilting(2, [AArc(0, 3), AArc(1, 2)])
        with pytest.raises(ValueError, match=r"arc \[5,9\] does not fit"):
            ta.is_tilting(3, [AArc(0, 4), AArc(0, 2), AArc(5, 9)])

    def test_is_tilting_negative_cases(self):
        assert not ta.is_tilting(3, [AArc(0, 4), AArc(0, 2), AArc(1, 3)])  # crossing
        assert not ta.is_tilting(3, [AArc(0, 4), AArc(0, 2)])  # too few
        assert not ta.is_tilting(2, [AArc(0, 2), AArc(1, 3)])  # no [0, m+1]

    def test_enumeration_is_deterministic(self):
        assert ta.enumerate_tilting(5) == ta.enumerate_tilting(5)

    @pytest.mark.parametrize("m", range(1, 10))
    def test_enumeration_is_in_lexicographic_order(self, m):
        # by construction: the census pins read this order through
        # torsion._tilting_offsets, whose rows give both the rigid objects and,
        # wing by wing, their pairs (torsion.iter_torsion_pairs); a single
        # object's pair comes from torsion_pair_of
        keys = [sorted((x.i, x.j) for x in u) for u in ta.enumerate_tilting(m)]
        assert keys == sorted(keys) and len(set(map(tuple, keys))) == len(keys)

    def test_enumeration_leaves_no_cyclic_garbage(self):
        # a result list kept alive by a reference cycle is freed only by a
        # full collection, so peak memory would grow with every call
        gc.collect()
        gc.disable()
        try:
            ta.enumerate_tilting(6)
            assert gc.collect() == 0
        finally:
            gc.enable()


# each public function of type_a that takes m, with arguments that are
# fine but for m = -1
CALLS_WITH_NEGATIVE_M = {
    "check_arc": (-1, AArc(0, 2)),
    "enumerate_tilting": (-1,),
    "is_tilting": (-1, []),
    "torsion_pair_of_tilting": (-1, []),
    "tilting_of_torsion_pair": (-1, []),
    "is_torsion_pair": (-1, [], []),
}


class TestNegativeM:
    @pytest.mark.parametrize("name", CALLS_WITH_NEGATIVE_M)
    def test_refused_with_one_message(self, name):
        with pytest.raises(ValueError, match=r"^a segment needs m >= 0, got -1$"):
            getattr(ta, name)(*CALLS_WITH_NEGATIVE_M[name])

    @pytest.mark.parametrize("m", [True, 2.0, "3"], ids=repr)
    @pytest.mark.parametrize("name", CALLS_WITH_NEGATIVE_M)
    def test_an_m_that_is_no_int_is_refused(self, name, m):
        # True would be read as m = 1, and 2.0 or '3' fail deep inside
        args = (m,) + CALLS_WITH_NEGATIVE_M[name][1:]
        with pytest.raises(ValueError, match=f"^a segment needs an integer m, got {re.escape(repr(m))}$"):
            getattr(ta, name)(*args)

    def test_every_function_that_takes_m_is_listed(self):
        takes_m = {
            name for name, fn in vars(ta).items()
            if inspect.isfunction(fn) and not name.startswith("_")
            and list(inspect.signature(fn).parameters)[:1] == ["m"]
        }
        assert takes_m == set(CALLS_WITH_NEGATIVE_M)

    def test_m_zero_is_a_segment(self):
        assert ta.enumerate_tilting(0) == [frozenset()]
        assert ta.is_tilting(0, []) and ta.is_torsion_pair(0, [], [])
        assert ta.torsion_pair_of_tilting(0, []) == (frozenset(), frozenset())
        assert ta.tilting_of_torsion_pair(0, []) == frozenset()


class TestTorsionPairsA:
    def test_m1_single_pair(self):
        (t, f) = ta.torsion_pair_of_tilting(1, frozenset({AArc(0, 2)}))
        assert t == {AArc(0, 2)} and f == frozenset()

    def test_m2_example(self):
        u = frozenset({AArc(0, 3), AArc(0, 2)})
        t, f = ta.torsion_pair_of_tilting(2, u)
        assert t == {AArc(0, 2), AArc(0, 3), AArc(1, 3)}
        assert f == frozenset()

    @pytest.mark.parametrize("m", range(1, 9))
    def test_first_map_gives_torsion_pairs_with_injectives(self, m):
        inj = set(segment_defs.injective_arcs(m))
        for u in ta.enumerate_tilting(m):
            t, f = ta.torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_pair(m, t, f)
            assert inj <= t
            assert all(not segment_defs.hom_nonzero(x, y) for x in t for y in f)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_second_map_gives_torsion_pairs_with_projectives(self, m):
        proj = set(segment_defs.projective_arcs(m))
        for u in ta.enumerate_tilting(m):
            t, f = segment_defs.second_torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_pair(m, t, f)
            assert proj <= f

    @pytest.mark.parametrize("m", range(1, 9))
    def test_ext_projective_recovery_round_trips(self, m):
        for u in ta.enumerate_tilting(m):
            t, _ = ta.torsion_pair_of_tilting(m, u)
            assert ta.tilting_of_torsion_pair(m, t) == u

    @pytest.mark.parametrize("m", range(1, 9))
    def test_second_map_recovers_via_ext_injectives(self, m):
        for u in ta.enumerate_tilting(m):
            _, f = segment_defs.second_torsion_pair_of_tilting(m, u)
            recovered = frozenset(
                x for x in f if all(segment_defs.ext_dim(y, x) == 0 for y in f)
            )
            assert recovered == u

    @needs_alarm
    def test_validator_is_linear_in_its_input(self):
        # a fan on each side, neither closed: O(m) arcs whose closures hold
        # O(m^2), which the validator must not fill
        m = 20000
        t = [AArc(0, j) for j in range(2, m + 2)]
        f = [AArc(i, m + 1) for i in range(m)]
        with time_limit(5):
            assert not ta.is_torsion_pair(m, t, f)
            assert not ta.is_torsion_pair(m, f, t)

    @needs_alarm
    def test_validator_refuses_fewer_than_m_arcs_in_time_linear_in_its_input(self):
        # each simple [i, i+2] lies in T or in F, so every torsion pair of
        # A_m lists m arcs at least; fewer are refused before the validator
        # builds its lists of m + 2 entries
        with time_limit(5):
            assert not ta.is_torsion_pair(10**9, [], [])
            assert not ta.is_torsion_pair(10**9, [AArc(0, 2)], [])

    def test_recovery_example(self):
        t = {AArc(0, 2), AArc(0, 3), AArc(1, 3)}
        assert ta.tilting_of_torsion_pair(2, t) == {AArc(0, 2), AArc(0, 3)}

    def test_whole_category_recovers_projective_fan(self):
        # brute force: [i,j] with i >= 1 always crosses [i-1,i+1] negatively,
        # so the Ext-projectives of the full category are the arcs [0,j]
        for m in (2, 3, 4):
            t = frozenset(segment_defs.all_arcs(m))
            got = ta.tilting_of_torsion_pair(m, t)
            brute = frozenset(
                x for x in segment_defs.all_arcs(m)
                if all(segment_defs.ext_dim(x, y) == 0 for y in segment_defs.all_arcs(m))
            )
            assert got == brute == frozenset(segment_defs.projective_arcs(m))
            full_t, _ = ta.torsion_pair_of_tilting(m, got)
            assert full_t == t

    def test_recovery_validates_input(self):
        with pytest.raises(ValueError):
            ta.tilting_of_torsion_pair(2, {AArc(1, 3)})  # missing injectives
        with pytest.raises(ValueError):
            # not closed under left-shortening ([1,3] is missing)
            ta.tilting_of_torsion_pair(3, set(segment_defs.injective_arcs(3)) | {AArc(0, 3)})


class TestClosurePredicates:
    def test_empty_and_full(self):
        for m in (1, 3):
            full = frozenset(segment_defs.all_arcs(m))
            for s in (frozenset(), full):
                assert segment_defs.is_oriented_ptolemy(s)
                assert ta.is_torsion_class(s)
                assert ta.is_torsionfree_class(s)

    def test_missing_resolution_arc(self):
        assert not segment_defs.is_oriented_ptolemy({AArc(1, 3), AArc(0, 2)})

    @pytest.mark.parametrize("m", range(1, 6))
    def test_ptolemy_iff_closed_under_ses_middles(self, m):
        arcs = segment_defs.all_arcs(m)
        for r in range(len(arcs) + 1):
            for sub in itertools.combinations(arcs, r):
                s = frozenset(sub)
                closed = all(
                    segment_defs.ses_middle(x, y) <= s
                    for x in s
                    for y in s
                    if segment_defs.ext_dim(x, y) == 1
                )
                assert closed == segment_defs.is_oriented_ptolemy(s)

    @pytest.mark.parametrize("m", range(1, 9))
    def test_torsion_parts_pass_predicates(self, m):
        for u in ta.enumerate_tilting(m):
            t, f = ta.torsion_pair_of_tilting(m, u)
            assert ta.is_torsion_class(t)
            assert ta.is_torsionfree_class(f)


class TestHomRule:
    @pytest.mark.parametrize("m", range(1, 8))
    def test_hom_rule_matches_linear_quiver_oracle(self, m):
        arcs = segment_defs.all_arcs(m)
        reps = {a: segment_defs.build_rep_a(m, a) for a in arcs}
        for x in arcs:
            for y in arcs:
                dim = oracle.hom_dim_oracle(reps[x], reps[y])
                assert dim in (0, 1)
                assert (dim == 1) == segment_defs.hom_nonzero(x, y)

    @pytest.mark.parametrize("m", range(1, 8))
    def test_ext_rule_matches_linear_quiver_oracle(self, m):
        arcs = segment_defs.all_arcs(m)
        reps = {a: segment_defs.build_rep_a(m, a) for a in arcs}
        for x in arcs:
            for y in arcs:
                assert oracle.ext_dim_oracle(reps[x], reps[y]) == segment_defs.ext_dim(x, y)
