"""Hom and Ext dimensions between tube arcs, by counting signed crossings.

Two arcs cross negatively in the configuration i' < i < j' < j (reading the
second arc's lift inside the first); the number of such lifts is the
dimension of Ext^1.  Hom dimensions count the epi-mono factorizations
through a common shortening.  Every count reduces to the number of
multiples of n inside an integer interval, so all functions here are O(1).
"""

from __future__ import annotations

from typing import Union

from .arcs import IndObj, Tube


class Aleph0:
    """Countably infinite dimension; arises only for Ext(Prufer, adic)."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "aleph0"


ALEPH0 = Aleph0()

ExtDim = Union[int, Aleph0]


class InfinitePairError(ValueError):
    """Hom between two one-sided arcs is outside this calculus."""


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


def neg_crossings(tube: Tube, a: IndObj, b: IndObj) -> ExtDim:
    """Negative crossing count I^-(a, b) of the two arcs on the annulus."""
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
    # finite/Prufer, adic/anything, Prufer/Prufer: never cross negatively
    return 0


def pos_crossings(tube: Tube, a: IndObj, b: IndObj) -> ExtDim:
    """Positive crossing count; a crossing is positive for (a,b) iff negative for (b,a)."""
    return neg_crossings(tube, b, a)


def neg_crossing_shifts(tube: Tube, a: IndObj, b: IndObj) -> range:
    """The shifts k for which the k-th lift of b crosses a negatively (finite arcs), lazily."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("crossing shifts are only enumerated for finite arcs")
    n = tube.n
    lo = a.start - b.end
    hi = min(a.start - b.start, a.end - b.end)
    return range(lo // n + 1, (hi - 1) // n + 1)  # the k with lo < k*n < hi


def ext_dim(tube: Tube, x: IndObj, y: IndObj) -> ExtDim:
    """dim Ext^1(x, y): the negative crossing count of the two arcs."""
    return neg_crossings(tube, x, y)


def hom_dim(tube: Tube, x: IndObj, y: IndObj) -> int:
    """dim Hom(x, y); undefined (raises) when both arcs are one-sided."""
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


def is_rigid(tube: Tube, objs) -> bool:
    """True iff Ext^1 vanishes between all ordered pairs (self pairs included)."""
    objs = list(objs)
    for x in objs:
        for y in objs:
            if ext_dim(tube, x, y) != 0:
                return False
    return True
