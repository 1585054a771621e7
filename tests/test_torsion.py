import itertools
import random
from math import comb

import pytest

from tubecalc import oracle
from tubecalc.arcs import Tube, sort_key
from tubecalc.homs import hom_dim
from tubecalc.torsion import (
    CORAY,
    PRUFER,
    RAY,
    TorsionPair,
    ValidationError,
    classify_kind,
    contains,
    default_cutoff,
    empty_desc,
    enumerate_max_rigid,
    everything,
    is_ext_closed,
    is_quotient_closed,
    is_sub_closed,
    is_torsion_pair,
    left_closure,
    left_perp,
    make_desc,
    max_rigid_of,
    members,
    prufer_type_rigids,
    reflect_pair,
    reflect_rigid,
    right_closure,
    right_perp,
    torsion_pair_of,
)


def perturb(tube, desc):
    """Remove one element (or one infinite family) from a descriptor."""
    if desc.finite_objs:
        drop = max(desc.finite_objs, key=sort_key)
        return make_desc(tube, desc.finite_objs - {drop}, desc.rays, desc.corays)
    if desc == everything(tube):
        return make_desc(tube, rays=range(1, tube.n))
    if desc.rays:
        return make_desc(tube, desc.finite_objs, sorted(desc.rays)[1:], desc.corays)
    if desc.corays:
        return make_desc(tube, desc.finite_objs, desc.rays, sorted(desc.corays)[1:])
    return None


class TestDescriptors:
    def test_contains_rules(self):
        t2 = Tube(2)
        ray0 = make_desc(t2, rays=[0])
        assert contains(t2, ray0, t2.finite(0, 9))
        assert not contains(t2, ray0, t2.finite(1, 3))
        coray0 = make_desc(t2, corays=[0])
        assert contains(t2, coray0, t2.finite(0, 4))  # end 4 is 0 mod 2
        assert not contains(t2, coray0, t2.finite(0, 3))
        assert not contains(t2, empty_desc(t2), t2.finite(0, 2))

    def test_contains_rejects_one_sided_arcs(self):
        t2 = Tube(2)
        with pytest.raises(ValidationError):
            contains(t2, everything(t2), t2.prufer(0))

    def test_canonical_form_drops_implied_objects(self):
        t3 = Tube(3)
        d = make_desc(t3, [t3.finite(0, 4), t3.finite(1, 3)], rays=[0])
        assert d.finite_objs == {t3.finite(1, 3)}

    def test_one_sided_arc_rejected_before_full_family_collapse(self):
        t2 = Tube(2)
        with pytest.raises(ValidationError):
            make_desc(t2, [t2.prufer(0)], rays=[0, 1])
        with pytest.raises(ValidationError):
            make_desc(t2, [t2.adic(1)], corays=[0, 1])

    def test_full_family_collapses_to_everything(self):
        t3 = Tube(3)
        assert make_desc(t3, rays=range(3)) == everything(t3)
        assert make_desc(t3, corays=range(3)) == everything(t3)
        assert everything(t3).rays == frozenset(range(3))
        assert everything(t3).corays == frozenset(range(3))

    def test_members_truncation(self):
        t2 = Tube(2)
        d = make_desc(t2, [t2.finite(1, 3)], rays=[0])
        got = members(t2, d, 3)
        assert t2.finite(1, 3) in got
        assert t2.finite(0, 4) in got
        assert len(got) == 4


class TestClosurePredicates:
    def test_wing_closures_are_ext_closed(self):
        for n in range(2, 6):
            tube = Tube(n)
            for x in tube.finite_objects(n - 1):
                assert is_ext_closed(tube, make_desc(tube, left_closure(tube, [x])))
                assert is_ext_closed(tube, make_desc(tube, right_closure(tube, [x])))

    def test_missing_resolution_detected(self):
        t2 = Tube(2)
        d = make_desc(t2, [t2.finite(0, 2), t2.finite(1, 3)])
        assert not is_ext_closed(t2, d)

    def test_long_object_closure_not_ext_closed(self):
        # a length-3 arc at rank 2 has a self-extension escaping its closure
        t2 = Tube(2)
        d = make_desc(t2, left_closure(t2, [t2.finite(0, 4)]))
        assert not is_ext_closed(t2, d)

    def test_ray_desc_not_quotient_closed(self):
        t2 = Tube(2)
        assert not is_quotient_closed(t2, make_desc(t2, rays=[0]))

    def test_coray_desc_quotient_closed(self):
        t2 = Tube(2)
        assert is_quotient_closed(t2, make_desc(t2, corays=[0]))

    def test_ray_desc_sub_closed(self):
        t2 = Tube(2)
        assert is_sub_closed(t2, make_desc(t2, rays=[0]))

    def test_empty_closed_under_everything(self):
        t3 = Tube(3)
        d = empty_desc(t3)
        assert is_quotient_closed(t3, d) and is_sub_closed(t3, d) and is_ext_closed(t3, d)


class TestPerps:
    def test_right_perp_of_empty_is_everything(self):
        t2 = Tube(2)
        assert right_perp(t2, empty_desc(t2)) == everything(t2)
        assert left_perp(t2, empty_desc(t2)) == everything(t2)

    def test_full_corays_kill_everything(self):
        t2 = Tube(2)
        d = make_desc(t2, t2.finite_objects(2), corays=[0, 1])
        assert right_perp(t2, d) == empty_desc(t2)

    def test_perp_pair_example(self):
        t2 = Tube(2)
        t_part = make_desc(t2, [t2.finite(1, 3)])
        f_part = make_desc(t2, rays=[0])
        assert right_perp(t2, t_part) == f_part
        assert left_perp(t2, f_part) == t_part

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mutual_perp_on_enumerated_pairs(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            assert right_perp(tube, pair.t_part) == pair.f_part
            assert left_perp(tube, pair.f_part) == pair.t_part

    @pytest.mark.parametrize("n", range(1, 5))
    def test_cutoff_stability(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            for d in (pair.t_part, pair.f_part):
                base = default_cutoff(tube, d)
                assert right_perp(tube, d, base) == right_perp(tube, d, 2 * base)
                assert left_perp(tube, d, base) == left_perp(tube, d, 2 * base)


def random_desc(rng, tube):
    """An arbitrary descriptor: a few finite arcs, rays and corays."""
    n = tube.n
    pool = tube.finite_objects(n + 1)
    arcs = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    rays = [i for i in range(n) if rng.random() < 0.15]
    corays = [j for j in range(n) if rng.random() < 0.15]
    return make_desc(tube, arcs, rays, corays)


class TestPerpDefinition:
    """Both perps agree with their definition on arbitrary descriptors,
    evaluated by hom_dim against members truncated at three times the
    cutoff, for arcs up to twice the cutoff (past the perp's own cutoff)."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_perps_match_hom_definition(self, n):
        rng = random.Random(2011 + n)
        tube = Tube(n)
        for _ in range(150):
            d = random_desc(rng, tube)
            cutoff = default_cutoff(tube, d)
            mem = members(tube, d, 3 * cutoff)
            right, left = right_perp(tube, d), left_perp(tube, d)
            for y in tube.finite_objects(2 * cutoff):
                assert contains(tube, right, y) == all(hom_dim(tube, x, y) == 0 for x in mem), (d, y)
                assert contains(tube, left, y) == all(hom_dim(tube, y, x) == 0 for x in mem), (d, y)


class TestEnumeration:
    def test_rank_one(self):
        t1 = Tube(1)
        rigids = enumerate_max_rigid(t1)
        assert [(u.kind, sorted(map(str, u.summands))) for u in rigids] == [
            ("prufer", ["M[0,inf]"]),
            ("adic", ["M[-inf,0]"]),
        ]

    def test_rank_two_contents(self):
        t2 = Tube(2)
        got = {u.summands for u in enumerate_max_rigid(t2)}
        assert got == {
            frozenset({t2.prufer(0), t2.finite(0, 2)}),
            frozenset({t2.prufer(1), t2.finite(1, 3)}),
            frozenset({t2.prufer(0), t2.prufer(1)}),
            frozenset({t2.adic(0), t2.finite(0, 2)}),
            frozenset({t2.adic(1), t2.finite(1, 3)}),
            frozenset({t2.adic(0), t2.adic(1)}),
        }

    @pytest.mark.parametrize("n", range(1, 9))
    def test_count_formula(self, n):
        rigids = enumerate_max_rigid(Tube(n))
        assert len(rigids) == 2 * comb(2 * n - 1, n - 1)
        prufer_kind = [u for u in rigids if u.kind == PRUFER]
        assert len(prufer_kind) == comb(2 * n - 1, n - 1)

    @pytest.mark.parametrize("n", range(1, 6))
    def test_matches_brute_force_cliques(self, n):
        tube = Tube(n)
        structured = {u.summands for u in enumerate_max_rigid(tube)}
        assert structured == set(oracle.brute_force_max_rigid(tube))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_summand_structure(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            assert len(u.summands) == n
            infinite = [x for x in u.summands if not x.is_finite]
            finite = [x for x in u.summands if x.is_finite]
            assert len(infinite) + len(finite) == n
            if u.kind == PRUFER:
                assert all(x.is_prufer for x in infinite)
                wings = tube.wing_intersection([x.start for x in infinite])
            else:
                assert all(x.is_adic for x in infinite)
                wings = None
            for x in finite:
                assert x.length <= tube.n - 1
                if wings is not None:
                    hits = [
                        w
                        for w in wings
                        if x in tube.wing_members(w.start, w.end - w.start)
                    ]
                    assert len(hits) == 1

    def test_deterministic(self):
        assert enumerate_max_rigid(Tube(4)) == enumerate_max_rigid(Tube(4))

    def test_prufer_subset_validation(self):
        with pytest.raises(ValidationError):
            prufer_type_rigids(Tube(3), [])
        with pytest.raises(ValidationError):
            prufer_type_rigids(Tube(3), [3])


class TestBijection:
    def test_rank_one_pairs(self):
        t1 = Tube(1)
        u_p, u_a = enumerate_max_rigid(t1)
        tp = torsion_pair_of(t1, u_p)
        assert tp.kind == RAY and tp.t_part == empty_desc(t1) and tp.f_part == everything(t1)
        ta_ = torsion_pair_of(t1, u_a)
        assert ta_.kind == CORAY and ta_.t_part == everything(t1) and ta_.f_part == empty_desc(t1)
        assert max_rigid_of(t1, tp) == u_p
        assert max_rigid_of(t1, ta_) == u_a

    def test_all_prufers_from_full_ray_pair(self):
        t2 = Tube(2)
        pair = TorsionPair(empty_desc(t2), everything(t2), RAY)
        assert max_rigid_of(t2, pair).summands == {t2.prufer(0), t2.prufer(1)}

    @pytest.mark.parametrize("n", range(1, 7))
    def test_round_trips(self, n):
        tube = Tube(n)
        rigids = enumerate_max_rigid(tube)
        pairs = [torsion_pair_of(tube, u) for u in rigids]
        assert len({(p.t_part, p.f_part, p.kind) for p in pairs}) == len(pairs)
        for u, pair in zip(rigids, pairs):
            assert max_rigid_of(tube, pair) == u

    def test_rank14_worked_example(self):
        tube = Tube(14)
        idx = [0, 6, 10, 13]
        wing_sets = [
            tube.wing_members(a, b - a) for (a, b) in [(0, 7), (6, 11), (10, 14), (13, 15)]
        ]
        us = prufer_type_rigids(tube, idx)
        assert len(us) == 420  # catalan(5) * catalan(3) * catalan(2) * catalan(0)
        for u in us:
            pair = torsion_pair_of(tube, u)
            assert sorted(pair.f_part.rays) == idx
            assert pair.t_part.is_finite_type
            for x in pair.t_part.finite_objs:
                assert sum(1 for w in wing_sets if x in w) == 1

    def test_max_rigid_of_validates(self):
        t2 = Tube(2)
        bad = TorsionPair(make_desc(t2, [t2.finite(0, 2)]), make_desc(t2, rays=[0]), RAY)
        with pytest.raises(ValidationError):
            max_rigid_of(t2, bad)


class TestIsTorsionPair:
    def test_rank_one_has_exactly_two(self):
        t1 = Tube(1)
        e, f = empty_desc(t1), everything(t1)
        assert is_torsion_pair(t1, TorsionPair(e, f, RAY))
        assert is_torsion_pair(t1, TorsionPair(f, e, CORAY))
        assert not is_torsion_pair(t1, TorsionPair(e, e, RAY))
        assert not is_torsion_pair(t1, TorsionPair(f, f, CORAY))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_enumerated_pairs_validate(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            assert is_torsion_pair(tube, torsion_pair_of(tube, u))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_perturbed_pairs_fail(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            d_t = perturb(tube, pair.t_part)
            if d_t is not None:
                assert not is_torsion_pair(tube, TorsionPair(d_t, pair.f_part, pair.kind))
            d_f = perturb(tube, pair.f_part)
            if d_f is not None:
                assert not is_torsion_pair(tube, TorsionPair(pair.t_part, d_f, pair.kind))

    def test_wrong_kind_tag_fails(self):
        t2 = Tube(2)
        pair = TorsionPair(empty_desc(t2), everything(t2), CORAY)
        assert not is_torsion_pair(t2, pair)


class TestKindAndReflection:
    def test_classify_examples(self):
        t3 = Tube(3)
        assert classify_kind(t3, TorsionPair(everything(t3), empty_desc(t3), CORAY)) == CORAY
        assert classify_kind(t3, TorsionPair(empty_desc(t3), everything(t3), RAY)) == RAY

    def test_classify_rejects_two_finite_sides(self):
        t2 = Tube(2)
        d = make_desc(t2, [t2.finite(0, 2)])
        with pytest.raises(ValidationError):
            classify_kind(t2, TorsionPair(d, d, RAY))
        with pytest.raises(ValidationError):
            classify_kind(t2, TorsionPair(everything(t2), everything(t2), RAY))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_kind_equivalent_conditions(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            coray_kind = pair.kind == CORAY
            assert coray_kind == (not pair.t_part.is_finite_type)
            assert coray_kind == bool(pair.t_part.corays)
            assert coray_kind == pair.f_part.is_finite_type
            if coray_kind:
                # cogenerating: every start index is hit by a torsion member
                starts = {x.start for x in members(tube, pair.t_part, 2 * tube.n)}
                assert starts == set(range(tube.n))

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reflection_square(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            mirrored = torsion_pair_of(tube, reflect_rigid(tube, u))
            assert mirrored == reflect_pair(tube, pair)
            assert mirrored.kind != pair.kind

    @pytest.mark.parametrize("n", range(1, 6))
    def test_reflect_pair_involution(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            assert reflect_pair(tube, reflect_pair(tube, pair)) == pair

    def test_reflect_rank_one(self):
        t1 = Tube(1)
        pair = TorsionPair(empty_desc(t1), everything(t1), RAY)
        got = reflect_pair(t1, pair)
        assert got == TorsionPair(everything(t1), empty_desc(t1), CORAY)


class TestCompleteness:
    """The enumeration really is all of them: exhaustive search over
    candidate descriptors finds exactly the enumerated pairs."""

    @pytest.mark.parametrize("n", range(1, 5))
    def test_ray_type_pairs_by_descriptor_search(self, n):
        # ray-type torsion parts consist of arcs shorter than n, so
        # searching all subsets of those arcs is exhaustive
        tube = Tube(n)
        wing_objs = tube.finite_objects(n - 1) if n > 1 else []
        found = set()
        for r in range(len(wing_objs) + 1):
            for sub in itertools.combinations(wing_objs, r):
                t = make_desc(tube, sub)
                f = right_perp(tube, t)
                if is_torsion_pair(tube, TorsionPair(t, f, RAY)):
                    found.add((t, f))
        expected = {
            (p.t_part, p.f_part)
            for p in (torsion_pair_of(tube, u) for u in enumerate_max_rigid(tube))
            if p.kind == RAY
        }
        assert found == expected

    @pytest.mark.parametrize("n", range(1, 5))
    def test_coray_type_pairs_by_descriptor_search(self, n):
        tube = Tube(n)
        wing_objs = tube.finite_objects(n - 1) if n > 1 else []
        found = set()
        for r in range(len(wing_objs) + 1):
            for sub in itertools.combinations(wing_objs, r):
                f = make_desc(tube, sub)
                t = left_perp(tube, f)
                if is_torsion_pair(tube, TorsionPair(t, f, CORAY)):
                    found.add((t, f))
        expected = {
            (p.t_part, p.f_part)
            for p in (torsion_pair_of(tube, u) for u in enumerate_max_rigid(tube))
            if p.kind == CORAY
        }
        assert found == expected


class TestLinkingSequence:
    """Defining property: every indecomposable is an extension of a
    torsion-free object by a torsion subobject."""

    @staticmethod
    def _has_linking_sequence(tube, pair, m):
        t, f = pair.t_part, pair.f_part
        if contains(tube, t, m) or contains(tube, f, m):
            return True
        i, j = m.start, m.end
        for jp in range(i + 2, j):
            sub = tube.normalize(i, jp)
            quot = tube.normalize(jp - 1, j)
            if contains(tube, t, sub) and contains(tube, f, quot):
                return True
        return False

    @pytest.mark.parametrize("n", range(1, 6))
    def test_every_indecomposable_is_linked(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            for m in tube.finite_objects(2 * n + 3):
                assert self._has_linking_sequence(tube, pair, m), (n, u, m)


class TestClosureOfEnumeratedPairs:
    @pytest.mark.parametrize("n", range(1, 6))
    def test_parts_pass_closure_predicates(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            assert is_ext_closed(tube, pair.t_part)
            assert is_quotient_closed(tube, pair.t_part)
            assert is_ext_closed(tube, pair.f_part)
            assert is_sub_closed(tube, pair.f_part)
