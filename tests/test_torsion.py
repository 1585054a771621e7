import itertools
import random
import re
from math import comb

import pytest

from limits import needs_alarm, time_limit
from wings import prufer_type_rigids, wing_members
from tubecalc import oracle
from tubecalc.arcs import IndObj, Tube, sort_key
from tubecalc.homs import hom_dim, is_rigid, neg_crossing_shifts
from tube_defs import left_closure, reflect_pair, reflect_rigid, right_closure, tau, tau_inv
from tubecalc.torsion import (
    ADIC,
    CORAY,
    PRUFER,
    RAY,
    MaxRigid,
    SubcatDesc,
    TorsionPair,
    ValidationError,
    classify_kind,
    contains,
    count_max_rigid,
    empty_desc,
    enumerate_max_rigid,
    everything,
    is_ext_closed,
    is_quotient_closed,
    is_sub_closed,
    is_torsion_pair,
    left_perp,
    make_desc,
    max_rigid_of,
    members,
    right_perp,
    torsion_pair_of,
)


def fan_object(tube):
    """The fan object: Prufers at three seeded indices, the fan [i, e] in
    each wing from its base i."""
    idx = sorted(random.Random(0).sample(range(tube.n), 3))
    summands = {tube.prufer(i) for i in idx}
    for i, nxt in zip(idx, idx[1:] + [idx[0] + tube.n]):
        summands.update(tube.finite(i, e) for e in range(i + 2, nxt + 1))
    return MaxRigid(frozenset(summands), PRUFER)


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

    def test_contains_reads_any_lift(self):
        t3 = Tube(3)
        assert contains(t3, make_desc(t3, [t3.finite(0, 2)]), IndObj(3, 5))
        assert contains(t3, make_desc(t3, rays=[0]), IndObj(3, 7))
        assert contains(t3, make_desc(t3, corays=[1]), IndObj(3, 7))
        for n in (1, 2, 3, 4):
            tube = Tube(n)
            arcs = tube.finite_objects(n + 1)
            descs = [make_desc(tube, [x], rays, corays)
                     for x in arcs for rays in ((), (0,)) for corays in ((), (n - 1,))]
            for desc in descs:
                for x in arcs:
                    want = contains(tube, desc, x)
                    for k in range(-2, 3):
                        assert contains(tube, desc, IndObj(x.start + k * n, x.end + k * n)) == want, (desc, x, k)
        for k in range(-2, 3):  # [s, s + 1] is no arc, on any lift, as in make_desc
            with pytest.raises(ValueError, match="needs end >= start"):
                contains(t3, everything(t3), IndObj(3 * k, 3 * k + 1))

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

    @pytest.mark.parametrize("index", ["1", 1.5, True, None])
    def test_an_index_that_is_no_int_is_refused(self, index):
        t3 = Tube(3)
        for family in ("rays", "corays"):
            with pytest.raises(ValidationError, match=f"must be integers, got {re.escape(repr(index))}$"):
                make_desc(t3, **{family: [0, index]})

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

    @needs_alarm
    def test_long_arcs_answer_in_bounded_time(self):
        # the work is bounded by the number of listed arcs, not their length
        t3 = Tube(3)
        long_arc, shifted = t3.finite(0, 10**9), t3.finite(1, 10**9)
        descs = [
            make_desc(t3, [long_arc]),
            make_desc(t3, [long_arc], corays=[0]),
            make_desc(t3, [shifted], rays=[0]),
        ]
        with time_limit(10):
            for d in descs:
                assert not is_quotient_closed(t3, d), d
                assert not is_sub_closed(t3, d), d
                assert not is_ext_closed(t3, d), d

    def test_ptolemy_rule_on_low_is_not_exact(self):
        # quotient-closed is not needed, and no crossing within low is not enough
        t6 = Tube(6)
        missing = make_desc(t6, [t6.finite(0, 3), t6.finite(1, 4), t6.finite(0, 4)])
        assert not is_ext_closed(t6, missing)  # [1,4] x [0,3] resolves into [1,3]
        assert is_ext_closed(t6, make_desc(t6, [t6.finite(0, 2), t6.finite(0, 3), t6.finite(0, 4)]))

    @needs_alarm
    def test_fan_pair_torsion_side_at_rank_100(self):
        tube = Tube(100)
        t_part = torsion_pair_of(tube, fan_object(tube)).t_part
        assert len(t_part.finite_objs) == 2278
        with time_limit(5):
            assert is_ext_closed(tube, t_part)

    @pytest.mark.parametrize("one_sided", [IndObj(0, None), IndObj(None, 2)], ids=["prufer", "adic"])
    @pytest.mark.parametrize(
        "check", [is_quotient_closed, is_sub_closed, is_ext_closed, right_perp, left_perp],
        ids=lambda f: f.__name__,
    )
    def test_a_listed_one_sided_arc_raises_value_error(self, check, one_sided):
        # the descriptors list finite arcs only; the reflection refuses a
        # one-sided arc as make_desc does, the rest as _bound does
        t3 = Tube(3)
        desc = SubcatDesc(frozenset([t3.finite(0, 3), one_sided]), frozenset(), frozenset())
        reflected = check in (is_sub_closed, left_perp)
        message = "descriptors list finite arcs only" if reflected else "one-sided arcs have no finite length"
        with pytest.raises(ValueError, match=message):
            check(t3, desc)

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

    @needs_alarm
    def test_a_long_arc_answers_in_bounded_time(self):
        # the perps read quotients and subobjects up to span n + 1 only, so
        # [0, 200000] has the perps of [0, 5], which ends at the same residue
        t3 = Tube(3)
        long_arc, short_arc = make_desc(t3, [IndObj(0, 200000)]), make_desc(t3, [IndObj(0, 5)])
        with time_limit(2):
            assert right_perp(t3, long_arc) == right_perp(t3, short_arc)
            assert left_perp(t3, long_arc) == left_perp(t3, short_arc)
        assert all(len(row) <= t3.n for rows in t3._fans for row in rows.values())

    @pytest.mark.parametrize("n", range(1, 6))
    def test_mutual_perp_on_enumerated_pairs(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            assert right_perp(tube, pair.t_part) == pair.f_part
            assert left_perp(tube, pair.f_part) == pair.t_part


def random_desc(rng, tube):
    """An arbitrary descriptor: a few finite arcs up to three periods long,
    rays and corays."""
    n = tube.n
    pool = tube.finite_objects(3 * n)
    arcs = rng.sample(pool, rng.randint(0, min(3, len(pool))))
    rays = [i for i in range(n) if rng.random() < 0.15]
    corays = [j for j in range(n) if rng.random() < 0.15]
    return make_desc(tube, arcs, rays, corays)


def reference_cutoff(tube, *descs):
    """The reference truncation unit: two periods past the longest listed
    arc.  The definitions below read members up to three times it and arcs
    up to twice it."""
    maxlen = max((x.length for d in descs for x in d.finite_objs), default=0)
    return 2 * tube.n + maxlen + 2


def hom_free(tube, xs, ys):
    return all(hom_dim(tube, x, y) == 0 for x in xs for y in ys)


class TestPerpDefinition:
    """Both perps agree with their definition on arbitrary descriptors (and,
    up to rank 4, on both parts of every torsion pair).  The definition is
    evaluated by hom_dim against members truncated at three times
    ``reference_cutoff``, for every arc up to twice it.  The descriptors' arcs
    reach three periods, so members whose quotients wind around the annulus
    more than once are covered.  The perps themselves use no cutoff; their
    per-start prefixes stay below one period, since a quotient longer than n
    has one n shorter at the same start."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_perps_match_hom_definition(self, n):
        rng = random.Random(2011 + n)
        tube = Tube(n)
        descs = [random_desc(rng, tube) for _ in range(150)]
        if n <= 4:
            for u in enumerate_max_rigid(tube):
                pair = torsion_pair_of(tube, u)
                descs += [pair.t_part, pair.f_part]
        for d in descs:
            cutoff = reference_cutoff(tube, d)
            mem = members(tube, d, 3 * cutoff)
            right, left = right_perp(tube, d), left_perp(tube, d)
            for y in tube.finite_objects(2 * cutoff):
                assert contains(tube, right, y) == hom_free(tube, mem, [y]), (d, y)
                assert contains(tube, left, y) == hom_free(tube, [y], mem), (d, y)


class TestClosureDefinition:
    """The closure predicates read the descriptor exactly; evaluated by hand
    on members truncated at three times ``reference_cutoff``, they give the
    same answers.  Inputs: random descriptors with arcs up to three periods
    long, their quotient and subobject closures, and both parts of every
    torsion pair up to rank 3."""

    @staticmethod
    def by_hand(tube, desc):
        mem = members(tube, desc, 3 * reference_cutoff(tube, desc))
        quotient_closed = all(
            contains(tube, desc, tube.normalize(i, x.end))
            for x in mem for i in range(x.start + 1, x.end - 1)
        )
        sub_closed = all(
            contains(tube, desc, tube.normalize(x.start, j))
            for x in mem for j in range(x.start + 2, x.end)
        )

        def resolutions(x, y):
            # the k-th lift of y starts before x and ends inside it
            for k in neg_crossing_shifts(tube, x, y):
                ys, ye = y.start + k * tube.n, y.end + k * tube.n
                yield ys, x.end
                if ye >= x.start + 2:
                    yield x.start, ye

        ext_closed = all(
            contains(tube, desc, tube.normalize(i, j))
            for x in mem for y in mem for i, j in resolutions(x, y)
        )
        return quotient_closed, sub_closed, ext_closed

    @pytest.mark.parametrize("n", range(1, 5))
    def test_matches_hand_evaluation(self, n):
        rng = random.Random(3011 + n)
        tube = Tube(n)
        descs = []
        for _ in range(40):
            d = random_desc(rng, tube)
            descs += [
                d,
                make_desc(tube, left_closure(tube, d.finite_objs), corays=d.corays),
                make_desc(tube, right_closure(tube, d.finite_objs), rays=d.rays),
            ]
        if n <= 3:
            for u in enumerate_max_rigid(tube):
                pair = torsion_pair_of(tube, u)
                descs += [pair.t_part, pair.f_part]
        verdicts = set()
        ext_by_family = {}  # (has rays, has corays) -> is_ext_closed verdicts
        for d in descs:
            got = (is_quotient_closed(tube, d), is_sub_closed(tube, d), is_ext_closed(tube, d))
            assert got == self.by_hand(tube, d), d
            verdicts.update(got)
            ext_by_family.setdefault((bool(d.rays), bool(d.corays)), set()).add(got[2])
        assert verdicts == {True, False}
        if n > 1:  # at rank 1 a ray or a coray is already the whole tube
            assert ext_by_family[True, False] == {True, False}
            assert ext_by_family[False, True] == {True, False}


class TestIsTorsionPairDefinition:
    """``is_torsion_pair`` agrees with its definition: Hom(T, F) = 0, F is
    the right perp of T and T the left perp of F, each evaluated by hom_dim
    over members truncated at three times ``reference_cutoff``, for every arc
    up to twice it.  The kind tag is the one ``classify_kind`` reads off."""

    @staticmethod
    def by_definition(tube, t, f):
        cutoff = reference_cutoff(tube, t, f)
        t_mem, f_mem = members(tube, t, 3 * cutoff), members(tube, f, 3 * cutoff)
        arcs = tube.finite_objects(2 * cutoff)
        return (
            hom_free(tube, t_mem, f_mem)
            and all(contains(tube, f, y) == hom_free(tube, t_mem, [y]) for y in arcs)
            and all(contains(tube, t, y) == hom_free(tube, [y], f_mem) for y in arcs)
        )

    @pytest.mark.parametrize("n", range(1, 6))
    def test_agrees_with_definition(self, n):
        rng = random.Random(4011 + n)
        tube = Tube(n)
        sides = []
        for _ in range(60):
            t = random_desc(rng, tube)
            sides += [(t, random_desc(rng, tube)), (t, right_perp(tube, t))]
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            sides.append((pair.t_part, pair.f_part))
            d_t, d_f = perturb(tube, pair.t_part), perturb(tube, pair.f_part)
            if d_t is not None:
                sides.append((d_t, pair.f_part))
            if d_f is not None:
                sides.append((pair.t_part, d_f))
        verdicts = set()
        for t, f in sides:
            try:
                kind = classify_kind(tube, TorsionPair(t, f, RAY))
            except ValidationError:
                kind = RAY
            want = self.by_definition(tube, t, f)
            assert is_torsion_pair(tube, TorsionPair(t, f, kind)) == want, (t, f)
            verdicts.add(want)
        assert verdicts == {True, False}


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
                        if x in wing_members(tube, w.start, w.end - w.start)
                    ]
                    assert len(hits) == 1

    @needs_alarm
    def test_count_without_objects(self):
        # the closed form against the objects themselves; the DP it replaced
        # is in test_count_reference.py
        with time_limit(10):
            for n in range(1, 8):
                assert count_max_rigid(Tube(n)) == len(enumerate_max_rigid(Tube(n))), n

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
            wing_members(tube, a, b - a) for (a, b) in [(0, 7), (6, 11), (10, 14), (13, 15)]
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


def random_max_rigid(rng, tube, kind):
    """A maximal rigid object with random anchors (the Prufer starts) and a
    random triangulation of each wing between cyclically consecutive ones;
    the adic kind is its reflection."""
    n = tube.n
    anchors = sorted(rng.sample(range(n), rng.randint(1, n)))
    summands = {tube.prufer(i) for i in anchors}
    todo = list(zip(anchors, anchors[1:] + [anchors[0] + n]))
    while todo:
        lo, hi = todo.pop()
        if hi - lo >= 2:
            summands.add(tube.normalize(lo, hi))
            apex = rng.randint(lo + 1, hi - 1)
            todo += [(lo, apex), (apex, hi)]
    if kind == ADIC:
        summands = {tube.reflect(x) for x in summands}
    assert len(summands) == n and is_rigid(tube, summands)
    return MaxRigid(frozenset(summands), kind)


class TestRandomRoundTrips:
    """Round trips past the exhaustive ranks, where wings are wide enough
    that a summand is often the longest at one of its ends only."""

    @pytest.mark.parametrize("n", range(8, 33, 4))
    def test_round_trips(self, n):
        rng = random.Random(1112 + n)
        tube = Tube(n)
        for kind in (PRUFER, ADIC):
            for _ in range(25):
                u = random_max_rigid(rng, tube, kind)
                assert max_rigid_of(tube, torsion_pair_of(tube, u)) == u

    @needs_alarm
    def test_fan_pair_at_rank_800(self):
        # the pair lists 147,468 arcs
        tube = Tube(800)
        u = fan_object(tube)
        with time_limit(5):
            for v in (u, reflect_rigid(tube, u)):
                assert max_rigid_of(tube, torsion_pair_of(tube, v)) == v


def shortenings(tube, objs):
    """The quotients and the subobjects of finite arcs, arc by arc."""
    quotients = [tube.normalize(i, x.end) for x in objs for i in range(x.start, x.end - 1)]
    subobjects = [tube.normalize(x.start, j) for x in objs for j in range(x.start + 2, x.end + 1)]
    return quotients, subobjects


def pair_by_definition(tube, rigid):
    """The pair of the bijection from the per-arc shortenings of every finite
    summand, moved by tau or tau^{-1}, through make_desc."""
    quotients, subobjects = shortenings(tube, [x for x in rigid.summands if x.is_finite])
    if rigid.kind == PRUFER:
        rays = [x.start for x in rigid.summands if x.is_prufer]
        t_part = make_desc(tube, [tau_inv(tube, x) for x in quotients])
        return TorsionPair(t_part, make_desc(tube, subobjects, rays=rays), RAY)
    corays = [x.end for x in rigid.summands if x.is_adic]
    f_part = make_desc(tube, [tau(tube, x) for x in subobjects])
    return TorsionPair(make_desc(tube, quotients, corays=corays), f_part, CORAY)


class TestPairByDefinition:
    """``torsion_pair_of`` reads both closures off per-start and per-end
    arrays; it agrees with the closures built arc by arc."""

    @pytest.mark.parametrize("n", range(1, 8))
    def test_every_max_rigid(self, n):
        tube = Tube(n)
        for u in enumerate_max_rigid(tube):
            assert torsion_pair_of(tube, u) == pair_by_definition(tube, u), u

    @pytest.mark.parametrize("n", [8, 12, 16, 24, 32])
    def test_random_max_rigid(self, n):
        rng = random.Random(6132 + n)
        tube = Tube(n)
        for kind in (PRUFER, ADIC):
            for _ in range(25):
                u = random_max_rigid(rng, tube, kind)
                assert torsion_pair_of(tube, u) == pair_by_definition(tube, u), u

    @pytest.mark.parametrize("n", [1, 2, 3, 5])
    def test_closures_of_long_arcs(self, n):
        # arcs up to three periods long, in any lift, overlapping at a start
        # or an end
        rng = random.Random(1112 + n)
        tube = Tube(n)
        for _ in range(50):
            objs = []
            for _ in range(rng.randint(0, 4)):
                start = rng.randint(-2 * n, 2 * n)
                objs.append(IndObj(start, start + rng.randint(2, 3 * n + 2)))
            quotients, subobjects = shortenings(tube, objs)
            assert left_closure(tube, objs) == set(quotients)
            assert right_closure(tube, objs) == set(subobjects)

    def test_rejects_missing_family_and_unknown_kind(self):
        t2 = Tube(2)
        fin = t2.finite(0, 2)
        cases = [
            (MaxRigid(frozenset({fin, t2.adic(0)}), PRUFER), "no Prufer summand"),
            (MaxRigid(frozenset({fin, t2.prufer(0)}), ADIC), "no adic summand"),
            (MaxRigid(frozenset({fin, t2.prufer(0)}), "ray"), "unknown kind 'ray'"),
        ]
        for rigid, message in cases:
            with pytest.raises(ValidationError, match=message):
                torsion_pair_of(t2, rigid)

    @needs_alarm
    def test_rejects_a_summand_longer_than_the_rank(self):
        # an arc spanning more than n is not self-rigid; its closure would
        # list every arc up to its length
        t3 = Tube(3)
        long = IndObj(0, 10**12)
        for kind, one_sided in ((PRUFER, t3.prufer(0)), (ADIC, t3.adic(0))):
            with time_limit(5):
                with pytest.raises(ValidationError, match=r"M\[0,1000000000000\] spans more than 3"):
                    torsion_pair_of(t3, MaxRigid(frozenset({one_sided, long}), kind))


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

    @pytest.mark.parametrize("n", range(2, 5))
    def test_an_arc_on_another_lift_is_refused(self, n):
        # the same arc one period up or down has the same anchored lift,
        # span and count, so only the canonical check refuses it
        tube = Tube(n)
        swaps = 0
        for u in enumerate_max_rigid(tube):
            pair = torsion_pair_of(tube, u)
            for k, side in enumerate(pair[:2]):
                for x in side.finite_objs:
                    for shift in (-n, n):
                        moved = IndObj(x.start + shift, x.end + shift)
                        sides = [pair.t_part, pair.f_part]
                        sides[k] = side._replace(finite_objs=side.finite_objs - {x} | {moved})
                        assert not is_torsion_pair(tube, TorsionPair(*sides, pair.kind))
                        swaps += 1
        assert swaps > 0


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
