"""``oracle.build_rep`` behind its memo against the code that built every rep anew.

The reference below is the old ``build_rep``, copied unchanged but for
its name: it walked the arc and made a checked ``QuivRep`` on every call.
The new one keeps each rep it makes in a bounded ``arcs._Memo`` keyed by
the rank and the canonical arc, so every lift of an arc shares one rep,
and a rep is checked once, when it is made.  Compared here: every arc of
span at most 3n + 2 at n <= 7 (the refused ones too), on three lifts,
with the memo cold and then warm; refusals that leave the memo as it
was; one arc at two ranks; a rep heavier than the bound, which is made
but not kept; a small bound that makes the memo start again; and four
threads sharing a small memo.  The number of checks in a rank-5
crosscheck pins the mechanism: each of the 45 reps is checked once with
the memo cold, and none is checked warm.

Only the standard library and pytest are needed; the one property test
goes through ``optional_hypothesis`` and skips without hypothesis.
"""

import sys
import threading
from unittest import mock

import pytest

from optional_hypothesis import given, settings, st
from tubecalc import oracle
from tubecalc.arcs import IndObj, Tube, _canonical, _Memo
from tubecalc.oracle import QuivRep, cyclic_quiver

# -- reference ---------------------------------------------------------------------


def old_build_rep(tube: Tube, obj: IndObj) -> QuivRep:
    """Nilpotent cyclic-quiver representation of a finite arc: basis
    b_0..b_{length-1}, b_t at vertex start+t mod n, and arrow v (v -> v-1)
    sends b_t at v to b_{t-1}, the last basis vector at v-1 so far."""
    if not obj.is_finite:
        raise ValueError("only finite arcs have matrix representations")
    n = tube.n
    start, end = _canonical(n, *obj)  # ValueError unless end >= start + 2
    dims = [0] * n
    entries = [[] for _ in range(n)]  # nonzero cells, arrow by arrow
    for t in range(start, end - 1):
        v = t % n
        if t > start:
            entries[v].append((dims[v - 1] - 1, dims[v], 1))
        dims[v] += 1
    maps = tuple((dims[v - 1], dims[v], tuple(e)) for v, e in enumerate(entries))
    return QuivRep(cyclic_quiver(n), tuple(dims), maps)


# -- comparison ----------------------------------------------------------------------


def outcome(fn, *args):
    """The value, or the exception's type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


def fresh_memo(bound: int = oracle.MAX_REP_CELLS):
    return mock.patch.object(oracle, "_REPS", _Memo(bound))


def weight(key) -> int:
    """What the memo charges for the rep of ``(n, start, end)``: its rank plus its length."""
    n, start, end = key
    return n + end - start - 1


def state(memo: _Memo):
    return dict(memo), memo.held


def lifts(tube: Tube, span_max: int):
    """Every pair (start, start + span) with start in 0..n-1 and -1 <= span <= span_max,
    each on three lifts."""
    n = tube.n
    return [
        IndObj(s + k * n, s + k * n + span)
        for s in range(n) for span in range(-1, span_max + 1) for k in (-1, 0, 2)
    ]


class TestEveryArc:
    @pytest.mark.parametrize("n", range(1, 8))
    def test_cold_then_warm(self, n):
        tube = Tube(n)
        objs = lifts(tube, 3 * n + 2)
        wants = [outcome(old_build_rep, tube, x) for x in objs]
        with fresh_memo() as memo:
            cold = [outcome(oracle.build_rep, tube, x) for x in objs]
            held = state(memo)
            warm = [outcome(oracle.build_rep, tube, x) for x in objs]
            assert state(memo) == held
        assert cold == wants and warm == wants
        # one entry per canonical arc, shared by its lifts, and weighed as documented
        shared = {}
        for x, rep in zip(objs, warm):
            if isinstance(rep, QuivRep):
                assert shared.setdefault((n, *_canonical(n, *x)), rep) is rep
        assert held[0].keys() == shared.keys() and len(shared) == n * (3 * n + 1)
        assert all(held[0][key] is rep for key, rep in shared.items())
        assert held[1] == sum(map(weight, shared))

    @pytest.mark.parametrize("obj", [IndObj(0, None), IndObj(None, 2), IndObj(3, 4), IndObj(2, -3), IndObj(5, 5)])
    def test_a_refused_arc_leaves_the_memo_as_it_was(self, obj):
        tube = Tube(3)
        with fresh_memo() as memo:
            for x in tube.finite_objects(4):
                oracle.build_rep(tube, x)
            held = state(memo)
            want = outcome(old_build_rep, tube, obj)
            assert isinstance(want, tuple) and want[0] is ValueError
            for _ in range(2):
                assert outcome(oracle.build_rep, tube, obj) == want
                assert state(memo) == held

    @pytest.mark.parametrize("ranks", [(2, 3), (3, 2), (1, 4, 2)])
    def test_each_rank_keeps_its_own_rep(self, ranks):
        # (0, end) is canonical at every rank: only the rank tells the keys apart
        with fresh_memo():
            for _ in range(2):
                for n in ranks:
                    for end in range(2, 9):
                        x = IndObj(0, end)
                        assert oracle.build_rep(Tube(n), x) == old_build_rep(Tube(n), x)


class TestBound:
    def test_a_rep_heavier_than_the_bound_is_made_not_kept(self):
        tube, bound = Tube(1), oracle.MAX_REP_CELLS
        small, at_bound, heavy = IndObj(0, 3), IndObj(0, bound), IndObj(0, bound + 1)
        with fresh_memo() as memo:
            oracle.build_rep(tube, small)
            held = state(memo)
            for _ in range(2):
                assert oracle.build_rep(tube, heavy) == old_build_rep(tube, heavy)
                assert state(memo) == held
            # a rep that weighs the bound exactly is kept, alone
            assert oracle.build_rep(tube, at_bound) == old_build_rep(tube, at_bound)
            assert list(memo) == [(1, 0, bound)] and memo.held == bound

    def test_the_memo_starts_again_at_its_bound(self):
        tube, bound = Tube(5), 60
        objs = tube.finite_objects(9)
        with fresh_memo(bound) as memo:
            for _ in range(3):
                for x in objs:
                    assert oracle.build_rep(tube, x) == old_build_rep(tube, x)
                    assert memo.held == sum(map(weight, memo)) <= bound
                    assert (5, *_canonical(5, *x)) in memo

    def test_four_threads_share_it(self):
        # a small bound, so that the threads clear the memo under each other
        bound = 40
        cases = [(Tube(n), x) for n in range(1, 8) for x in Tube(n).finite_objects(2 * n)]
        wants = [old_build_rep(*case) for case in cases]
        start, wrong = threading.Barrier(4), []

        def run(k):
            start.wait(timeout=60)
            for _ in range(20):
                for (tube, x), want in zip(cases[k::4], wants[k::4]):
                    if oracle.build_rep(tube, x) != want:
                        wrong.append((tube.n, x))
                    held, reps = shared.held, shared.copy()
                    if held > bound or sum(map(weight, reps)) > bound:
                        wrong.append(held)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads often, inside the memo's stores too
        try:
            with fresh_memo(bound) as shared:
                threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
                for t in threads:
                    t.start()
                for t in threads:
                    t.join(timeout=120)
                held = dict(shared)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and wrong == []
        assert sum(map(weight, held)) <= bound
        assert all(rep == old_build_rep(Tube(n), IndObj(s, e)) for (n, s, e), rep in held.items())


class TestChecksOncePerArc:
    def test_a_crosscheck_checks_each_rep_once(self):
        # the crosscheck_oracle round: every ordered pair of the 45 arcs of
        # length <= 9 at rank 5, two reps, Hom and Ext
        tube = Tube(5)
        objs = tube.finite_objects(9)
        counts = []
        with fresh_memo(), mock.patch.object(oracle, "_check_rep", wraps=oracle._check_rep) as check:
            for _ in range(2):
                check.reset_mock()
                for x in objs:
                    for y in objs:
                        a, b = oracle.build_rep(tube, x), oracle.build_rep(tube, y)
                        oracle.hom_dim_oracle(a, b)
                        oracle.ext_dim_oracle(a, b)
                counts.append(check.call_count)
        assert len(objs) == 45 and counts == [45, 0]


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 7),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-2, 23)), max_size=12),
    st.integers(0, 60),
)
def test_drawn_arcs_under_a_small_bound(n, pairs, bound):
    tube = Tube(n)
    objs = [IndObj(s, s + span) for s, span in pairs]
    with fresh_memo(bound) as memo:
        for _ in range(2):
            for x in objs:
                assert outcome(oracle.build_rep, tube, x) == outcome(old_build_rep, tube, x)
                assert memo.held == sum(map(weight, memo)) <= bound
