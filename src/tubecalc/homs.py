"""Hom and Ext dimensions between tube arcs, by counting signed crossings.

Two arcs cross negatively in the configuration i' < i < j' < j (reading the
second arc's lift inside the first); the number of such lifts is the
dimension of Ext^1.  Every dimension here is the length of one range of
multiples of n (``_multiples``), so all functions are O(1).

Hom needs no count of its own: by the Auslander-Reiten formula
Ext^1(X, Y) = D Hom(Y, tau X), so dim Hom(x, y) = dim Ext^1(tau^{-1} y, x).
For x = [a, b] and y = [c, d], Hom counts the k with
max(a - c, b - d) <= kn <= b - c - 2 (epi-mono factorizations through a
common shortening), and Ext(tau^{-1} y, x) the k with
c - b + 2 <= kn <= min(c - a, d - b): k -> -k maps one set onto the other.
``tests/test_oracle.py`` and the benchmark's ``crosscheck_oracle`` workload
check both dimensions independently, against the rank of the intertwiner
system of the quiver representations.
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


def _multiples(n: int, lo: int, hi: int) -> range:
    """The integers k with lo <= k*n <= hi."""
    return range(-(-lo // n), hi // n + 1)


def _check_arcs(*objs: IndObj) -> None:
    """ValueError if one of objs is a finite pair that is no arc, end < start + 2."""
    for start, end in objs:
        if start is not None and end is not None and end < start + 2:
            raise ValueError(f"finite arc needs end >= start+2, got [{start},{end}]")


def neg_crossings(tube: Tube, a: IndObj, b: IndObj) -> ExtDim:
    """Negative crossing count I^-(a, b) of the two arcs on the annulus;
    ValueError if either is a finite pair that is no arc."""
    if a.is_finite and b.is_finite:
        return len(neg_crossing_shifts(tube, a, b))
    _check_arcs(a, b)
    if a.is_prufer and b.is_finite:
        return len(_multiples(tube.n, b.start - a.start + 1, b.end - a.start - 1))
    if a.is_finite and b.is_adic:
        return len(_multiples(tube.n, a.start - b.end + 1, a.end - b.end - 1))
    if a.is_prufer and b.is_adic:
        return ALEPH0
    # finite/Prufer, adic/anything, Prufer/Prufer: never cross negatively
    return 0


def pos_crossings(tube: Tube, a: IndObj, b: IndObj) -> ExtDim:
    """Positive crossing count; a crossing is positive for (a,b) iff negative for (b,a)."""
    return neg_crossings(tube, b, a)


def neg_crossing_shifts(tube: Tube, a: IndObj, b: IndObj) -> range:
    """The shifts k for which the k-th lift of b crosses a negatively (finite
    arcs), lazily: the k with a.start - b.end < k*n < min(a.start - b.start,
    a.end - b.end)."""
    if not (a.is_finite and b.is_finite):
        raise ValueError("crossing shifts are only enumerated for finite arcs")
    _check_arcs(a, b)
    hi = min(a.start - b.start, a.end - b.end)
    return _multiples(tube.n, a.start - b.end + 1, hi - 1)


def ext_dim(tube: Tube, x: IndObj, y: IndObj) -> ExtDim:
    """dim Ext^1(x, y): the negative crossing count of the two arcs."""
    return neg_crossings(tube, x, y)


def hom_dim(tube: Tube, x: IndObj, y: IndObj) -> int:
    """dim Hom(x, y) = dim Ext^1(tau^{-1} y, x); undefined (raises) when both
    arcs are one-sided.  tau^{-1} y is y with both ends one step right, on
    no particular lift: the crossing counts read every lift alike."""
    if not (x.is_finite or y.is_finite):
        raise InfinitePairError(f"Hom({x}, {y}) between one-sided arcs is unsupported")
    _check_arcs(y)
    start, end = y
    shifted = (start if start is None else start + 1, end if end is None else end + 1)
    return neg_crossings(tube, tuple.__new__(IndObj, shifted), x)


def is_rigid(tube: Tube, objs) -> bool:
    """True iff Ext^1 vanishes between all ordered pairs (self pairs included)."""
    objs = list(objs)
    for x in objs:
        for y in objs:
            if ext_dim(tube, x, y) != 0:
                return False
    return True
