"""The crossing counts of ``homs`` against the code they replaced.

The reference below is the old code, copied unchanged: two interval
counters, ``_count_open`` and ``_count_closed``, and a ``hom_dim`` with a
count formula per pair of arc types.  The new code reads every dimension
as the length of one range of multiples of n, and Hom by the
Auslander-Reiten formula as Ext(tau^{-1} y, x).  A second reference,
``hom_dim_by_tau_inv``, is the rule that read tau^{-1} y through the
normalizing ``tau_inv`` (``tests/tube_defs.py``), where ``hom_dim`` now shifts
both ends of y by one.  Hypothesis draws finite,
Prufer and adic arcs in any lift, anchored or not, and compares the value
or the exception's type and message.

A second argument of ``hom_dim`` that is no arc (end < start + 2) is a
caller error: the new code raises ``Tube.normalize``'s ValueError where the
old one answered a count, so those inputs are checked on their own.
"""

import pytest

from tubecalc import homs
from tubecalc.arcs import IndObj, Tube
from tubecalc.homs import ALEPH0, InfinitePairError
from tube_defs import tau_inv

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st  # noqa: E402

# -- reference ---------------------------------------------------------------------


def _count_open(n: int, lo: int, hi: int) -> int:
    """Number of integers m with lo < m*n < hi."""
    if hi - lo < 2:
        return 0
    first = lo // n + 1
    last = (hi - 1) // n
    return max(0, last - first + 1)


def _count_closed(n: int, lo: int, hi: int) -> int:
    """Number of integers m with lo <= m*n <= hi."""
    if hi < lo:
        return 0
    first = -((-lo) // n)
    last = hi // n
    return max(0, last - first + 1)


def neg_crossings(tube, a, b):
    n = tube.n
    if a.is_finite and b.is_finite:
        lo = a.start - b.end
        hi = min(a.start - b.start, a.end - b.end)
        return _count_open(n, lo, hi)
    if a.is_prufer and b.is_finite:
        return _count_open(n, b.start - a.start, b.end - a.start)
    if a.is_finite and b.is_adic:
        return _count_open(n, a.start - b.end, a.end - b.end)
    if a.is_prufer and b.is_adic:
        return ALEPH0
    return 0


def neg_crossing_shifts(tube, a, b):
    if not (a.is_finite and b.is_finite):
        raise ValueError("crossing shifts are only enumerated for finite arcs")
    n = tube.n
    lo = a.start - b.end
    hi = min(a.start - b.start, a.end - b.end)
    return range(lo // n + 1, (hi - 1) // n + 1)


def hom_dim(tube, x, y):
    n = tube.n
    if x.is_finite and y.is_finite:
        a, b, c, d = x.start, x.end, y.start, y.end
        return _count_closed(n, max(a - c, b - d), b - 2 - c)
    if x.is_finite and y.is_prufer:
        return _count_closed(n, x.start - y.start, x.end - 2 - y.start)
    if x.is_adic and y.is_finite:
        return _count_closed(n, y.start + 2 - x.end, y.end - x.end)
    if x.is_prufer and y.is_finite:
        return 0
    if x.is_finite and y.is_adic:
        return 0
    raise InfinitePairError(f"Hom({x}, {y}) between one-sided arcs is unsupported")


def hom_dim_by_tau_inv(tube, x, y):
    """The rule that read tau^{-1} y through the normalizing ``tau_inv``."""
    if not (x.is_finite or y.is_finite):
        raise InfinitePairError(f"Hom({x}, {y}) between one-sided arcs is unsupported")
    return homs.neg_crossings(tube, tau_inv(tube, y), x)


# -- strategies ----------------------------------------------------------------------

ranks = st.integers(1, 9)
ends = st.integers(-60, 60)


@st.composite
def arcs(draw):
    """A finite arc in any lift (span 2 to 40), a Prufer or an adic arc."""
    kind = draw(st.sampled_from(["finite", "finite", "prufer", "adic"]))
    if kind == "prufer":
        return IndObj(draw(ends), None)
    if kind == "adic":
        return IndObj(None, draw(ends))
    start = draw(ends)
    return IndObj(start, start + draw(st.integers(2, 40)))


def outcome(f, *args):
    try:
        value = f(*args)
    except Exception as exc:
        return type(exc), str(exc)
    return list(value) if isinstance(value, range) else value


# -- tests -----------------------------------------------------------------------------


class TestAgainstReference:
    @settings(max_examples=2000, deadline=None)
    @given(ranks, arcs(), arcs())
    def test_every_function(self, n, x, y):
        tube = Tube(n)
        for new, old in (
            (homs.neg_crossings, neg_crossings),
            (homs.pos_crossings, lambda t, a, b: neg_crossings(t, b, a)),
            (homs.ext_dim, neg_crossings),
            (homs.neg_crossing_shifts, neg_crossing_shifts),
            (homs.hom_dim, hom_dim),
        ):
            assert outcome(new, tube, x, y) == outcome(old, tube, x, y), new.__name__

    @settings(max_examples=2000, deadline=None)
    @given(ranks, arcs(), arcs())
    def test_hom_by_shifted_ends(self, n, x, y):
        # finite, Prufer and adic arcs in any lift, finite ones spanning up to 40 > n
        tube = Tube(n)
        assert outcome(homs.hom_dim, tube, x, y) == outcome(hom_dim_by_tau_inv, tube, x, y)

    @settings(max_examples=300, deadline=None)
    @given(ranks, arcs(), ends, st.integers(-3, 1))
    def test_hom_into_a_non_arc_is_refused(self, n, x, start, span):
        y = IndObj(start, start + span)
        with pytest.raises(ValueError, match="finite arc needs end >= start\\+2"):
            homs.hom_dim(Tube(n), x, y)

    @settings(max_examples=300, deadline=None)
    @given(ranks, ends, ends)
    def test_multiples(self, n, lo, hi):
        assert list(homs._multiples(n, lo, hi)) == [k for k in range(-61, 62) if lo <= k * n <= hi]
