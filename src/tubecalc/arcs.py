"""Oriented arcs on an annulus with n marked points.

The indecomposables of a rank-n tube (together with its Prufer and adic
limit objects) are parametrized by arcs: a finite arc ``M[i,j]`` with
``j >= i+2``, a one-sided arc ``M[i,inf]`` (Prufer, spirals inward), or
``M[-inf,j]`` (adic).  Index pairs are taken up to the shift
``sigma: i -> i+n``; we store the representative whose anchor lies in
``0..n-1`` (the start for finite and Prufer arcs, the end for adic arcs).

The finite arc ``M[i,j]`` corresponds to the uniserial object with socle
the simple at ``i`` and length ``j - i - 1``.

An arc is a tuple ``(start, end)``, so ``IndObj(0, 3) == (0, 3)`` and its
hash, equality and the ordering of finite arcs run in C: on finite arcs
``sorted(objs)`` is the order of :func:`sort_key`.  One-sided arcs hold a
None and do not compare with finite ones, so mixed lists sort by
:func:`sort_key`.  A ``Wing`` is a namedtuple ``(start, end)`` too, so
``Wing(0, 3) == IndObj(0, 3) == (0, 3)``; a segment arc
(``type_a.AArc``) is not a tuple and equals none of them.
"""

from __future__ import annotations

import re
import threading
from collections import namedtuple
from typing import Dict, Iterable, List, Optional, Tuple


class IndObj(namedtuple("IndObj", "start end")):
    """A single arc; ``start=None`` encodes -inf (adic), ``end=None`` +inf (Prufer)."""

    __slots__ = ()

    def __new__(cls, start: Optional[int], end: Optional[int]):
        if start is None and end is None:
            raise ValueError("an arc needs at least one finite endpoint")
        return tuple.__new__(cls, (start, end))

    @classmethod
    def _make(cls, iterable):  # also behind _replace; keeps the check above
        return cls(*iterable)

    @property
    def is_finite(self) -> bool:
        return None not in self

    @property
    def is_prufer(self) -> bool:
        return self.end is None

    @property
    def is_adic(self) -> bool:
        return self.start is None

    @property
    def length(self) -> int:
        if not self.is_finite:
            raise ValueError("one-sided arcs have no finite length")
        return self.end - self.start - 1

    def __str__(self) -> str:
        return format_obj(self)


class Wing(namedtuple("Wing", "start end")):
    """The triangle of arcs contained in the interval [start, end]."""

    __slots__ = ()


def sort_key(obj: IndObj) -> Tuple[int, int, int]:
    """Deterministic ordering: finite arcs first, then Prufer, then adic."""
    if obj.is_finite:
        return (0, obj.start, obj.end)
    if obj.is_prufer:
        return (1, obj.start, 0)
    return (2, obj.end, 0)


def _canonical(n: int, start: int, end: int) -> IndObj:
    """The finite arc [start, end] on the lift that starts in 0..n-1; the
    one place a finite pair is normalized."""
    if end < start + 2:
        raise ValueError(f"finite arc needs end >= start+2, got [{start},{end}]")
    s = start % n
    return tuple.__new__(IndObj, (s, end - start + s))


class Tube:
    """A tube of rank n; owns every index computation that depends on n."""

    def __init__(self, n: int):
        if type(n) is not int or n < 1:  # bool is no rank
            raise ValueError(f"rank must be a positive integer, got {n!r}")
        self.n = n
        self._fans = ({}, {})  # [at_end][anchor] -> arcs by span, see fans()

    def __repr__(self) -> str:
        return f"Tube({self.n})"

    # -- construction ------------------------------------------------------

    def normalize(self, start: Optional[int], end: Optional[int]) -> IndObj:
        """The canonical representative of the arc [start, end].

        Accepts any lift: the shift sigma^k is applied so that the anchor
        index (start for finite/Prufer, end for adic) lands in 0..n-1.
        """
        n = self.n
        if start is None and end is None:
            raise ValueError("an arc needs at least one finite endpoint")
        if start is None:
            return IndObj(None, end % n)
        if end is None:
            return IndObj(start % n, None)
        return _canonical(n, start, end)

    def finite(self, i: int, j: int) -> IndObj:
        if i is None or j is None:
            raise ValueError(f"a finite arc has two finite ends, got ({i}, {j})")
        return self.normalize(i, j)

    def prufer(self, i: int) -> IndObj:
        return self.normalize(i, None)

    def adic(self, j: int) -> IndObj:
        return self.normalize(None, j)

    def fans(self, spans: Dict[int, int], at_end: bool = False) -> List[IndObj]:
        """For every ``anchor: longest`` of ``spans``, in its order, the
        canonical arcs that start at ``anchor`` (or end at residue ``anchor``
        if at_end) with span end - start from 2 to longest, in that order,
        as one list: a closure's arcs in one call.
        Each arc is built once per tube, in a row per anchor that later
        calls share; a grown row replaces the old one, which is never
        changed, so concurrent callers each see a consistent row."""
        n = self.n
        rows = self._fans[at_end]
        out: List[IndObj] = []
        for anchor, longest in spans.items():
            if longest < 2:
                continue
            anchor %= n
            row = rows.get(anchor, ())
            if len(row) < longest - 1:
                row = list(row)
                for span in range(len(row) + 2, longest + 1):
                    s = (anchor - span) % n if at_end else anchor
                    row.append(IndObj(s, s + span))
                rows[anchor] = row
            out += row[:longest - 1]
        return out

    # -- elementary symmetries ----------------------------------------------

    def reflect(self, obj: IndObj) -> IndObj:
        """The involution [i,j] -> [-j,-i]; swaps Prufer with adic arcs.

        Index arithmetic only: the image starts at -j mod n and keeps the
        length, so no lift needs normalizing.
        """
        n = self.n
        if obj.start is None:
            return IndObj(-obj.end % n, None)
        if obj.end is None:
            return IndObj(None, -obj.start % n)
        if obj.end < obj.start + 2:
            raise ValueError(f"finite arc needs end >= start+2, got [{obj.start},{obj.end}]")
        s = -obj.end % n
        return IndObj(s, s + obj.end - obj.start)

    # -- wings ----------------------------------------------------------------

    def wing_intersection(self, indices: Iterable[int]) -> List[Wing]:
        """Cyclically consecutive wings cut out by a set of marked points.

        The intersection of the wings of width n based at the given indices
        decomposes into the wings spanning consecutive indices; the last one
        wraps around by +n.  A gap of 1 produces a zero wing.
        """
        idx = list(indices)
        for i in idx:
            if type(i) is not int or not 0 <= i < self.n:  # a bool is no index, as it is no rank
                raise ValueError(f"indices must be integers in 0..{self.n - 1}, got {i!r}")
        idx = sorted(set(idx))
        if not idx:
            raise ValueError("need at least one index")
        wings = []
        for r, i in enumerate(idx):
            nxt = idx[r + 1] if r + 1 < len(idx) else idx[0] + self.n
            wings.append(Wing(i, nxt))
        return wings

    # -- enumeration helpers -------------------------------------------------

    def finite_objects(self, max_len: int) -> List[IndObj]:
        """Every finite arc of length at most max_len, ordered by (length, start)."""
        return [
            self.normalize(s, s + l + 1)
            for l in range(1, max_len + 1)
            for s in range(self.n)
        ]


# -- textual grammar ----------------------------------------------------------

_OBJ_RE = re.compile(r"^M\[(-inf|-?[0-9]+),(inf|-?[0-9]+)\]$")
FINITE_ARC = "M[%d,%d]"  # a finite arc is its own argument tuple
_FINITE_RE = re.compile(r"M\[(0|-?[1-9][0-9]*),(0|-?[1-9][0-9]*)\]")  # what FINITE_ARC prints


def format_obj(obj: IndObj) -> str:
    if None not in obj:
        return FINITE_ARC % obj
    s = "-inf" if obj.start is None else str(obj.start)
    e = "inf" if obj.end is None else str(obj.end)
    return f"M[{s},{e}]"


class _Memo(dict):
    """A dict that callers share as a bounded memo: the arc names here,
    ``type_a``'s arc table and ``render``'s annulus pieces.  Lookups are
    plain dict calls.  ``keep`` stores a dict of entries with a weight, by
    default how many they are; ``held`` adds up the weights kept since the
    memo last started again, and never passes ``bound``: a store that would
    pass it empties the memo first, and a store heavier than the bound on
    its own is dropped.  A value depends on its key alone, so callers (and
    threads) can share a memo: a race costs a miss, or a second instance of
    an equal value, never a wrong one.  Stores take a lock, so the bound
    holds with threads too; lookups take none."""

    __slots__ = ("bound", "held", "_lock")

    def __init__(self, bound: int):
        super().__init__()
        self.bound, self.held, self._lock = bound, 0, threading.RLock()

    def keep(self, items: dict, weight: Optional[int] = None) -> None:
        if weight is None:
            weight = len(items)
        if weight > self.bound:
            return
        with self._lock:
            if self.held + weight > self.bound:
                self.clear()
            self.update(items)
            self.held += weight

    def clear(self) -> None:
        """Empty the memo; it then holds no weight."""
        with self._lock:
            dict.clear(self)
            self.held = 0


# The names of finite arcs, both ways: format_finite keys each printed arc
# by the arc, and _parse_finite each name it read by the name.  The rank-8
# census names 56 distinct arcs 238,288 times in all; the 448 seed-1
# invert_reject documents name 370 distinct arcs 7,717 times.
MAX_NAMES = 1 << 12
_NAMES = _Memo(MAX_NAMES)


def format_finite(objs: Iterable[IndObj]) -> List[str]:
    """The finite arcs, in :func:`sort_key` order, each as :func:`format_obj` prints it."""
    arcs = sorted(objs)
    try:
        return list(map(_NAMES.__getitem__, arcs))
    except KeyError:
        names = list(map(FINITE_ARC.__mod__, arcs))
        _NAMES.keep(dict(zip(arcs, names)))
        return names


def parse_endpoints(text: str) -> Tuple[Optional[int], Optional[int]]:
    """The raw endpoints of ``M[start,end]``, with None for an infinite end."""
    m = _OBJ_RE.match(text.strip())
    if not m:
        raise ValueError(f"cannot parse object {text!r}, expected M[start,end]")
    raw_s, raw_e = m.group(1), m.group(2)
    return (None if raw_s == "-inf" else int(raw_s), None if raw_e == "inf" else int(raw_e))


def parse_obj(tube: Tube, text: str) -> IndObj:
    """Parse ``M[start,end]`` and normalize; inverse of :func:`format_obj`."""
    return tube.normalize(*parse_endpoints(text))


def _parse_finite(tube: Tube, strings: List[str]) -> Tuple[List[IndObj], Optional[IndObj]]:
    """The finite arcs that :func:`parse_obj` reads off the strings, in
    their order, and the first one-sided arc among them (None if there is
    none).  A name read before, at any rank, is one ``_NAMES`` lookup: the
    memo holds it as the arc with its printed ends, lifted here when its
    start lies off 0..n-1.  Any other string is fullmatched once against
    the grammar that ``FINITE_ARC`` prints, and a match becomes its
    canonical arc at once and is kept, once ``_canonical`` has accepted
    it, unless the list is longer than the memo's bound; so each key of
    the memo is the printed name of its arc.  Only a string that does not
    match goes through ``parse_obj``, so the first string that fails raises
    the ValueError ``parse_obj`` raises, and names read before it are kept."""
    n, names = tube.n, _NAMES
    get, match = names.get, _FINITE_RE.fullmatch
    arcs: List[IndObj] = []
    one_sided = None
    fresh: Dict[str, IndObj] = {}
    store = len(strings) <= names.bound  # the names of a longer list are not kept
    try:
        for text in strings:
            x = get(text)
            if x is None:
                m = match(text)
                if m is None:
                    x = parse_obj(tube, text)
                    if x.is_finite:
                        arcs.append(x)
                    elif one_sided is None:
                        one_sided = x
                    continue
                s, e = int(m[1]), int(m[2])
                x = _canonical(n, s, e)
                if store:
                    fresh[text] = x if x[0] == s else tuple.__new__(IndObj, (s, e))
            elif not 0 <= x[0] < n:
                x = _canonical(n, *x)
            arcs.append(x)
    finally:
        names.keep(fresh)
    return arcs, one_sided
