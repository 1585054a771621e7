"""Oriented arcs on an annulus with n marked points.

The indecomposables of a rank-n tube (together with its Prufer and adic
limit objects) are parametrized by arcs: a finite arc ``M[i,j]`` with
``j >= i+2``, a one-sided arc ``M[i,inf]`` (Prufer, spirals inward), or
``M[-inf,j]`` (adic).  Index pairs are taken up to the shift
``sigma: i -> i+n``; we store the representative whose anchor lies in
``0..n-1`` (the start for finite and Prufer arcs, the end for adic arcs).

The finite arc ``M[i,j]`` corresponds to the uniserial object with socle
the simple at ``i`` and length ``j - i - 1``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, List, Optional, Tuple


@dataclass(frozen=True)
class IndObj:
    """A single arc; ``start=None`` encodes -inf (adic), ``end=None`` +inf (Prufer)."""

    start: Optional[int]
    end: Optional[int]

    def __post_init__(self):
        if self.start is None and self.end is None:
            raise ValueError("an arc needs at least one finite endpoint")

    @property
    def is_finite(self) -> bool:
        return self.start is not None and self.end is not None

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


@dataclass(frozen=True)
class Wing:
    """The triangle of arcs contained in the interval [start, end]."""

    start: int
    end: int

    @property
    def is_zero(self) -> bool:
        return self.end - self.start <= 1


def sort_key(obj: IndObj) -> Tuple[int, int, int]:
    """Deterministic ordering: finite arcs first, then Prufer, then adic."""
    if obj.is_finite:
        return (0, obj.start, obj.end)
    if obj.is_prufer:
        return (1, obj.start, 0)
    return (2, obj.end, 0)


class Tube:
    """A tube of rank n; owns every index computation that depends on n."""

    def __init__(self, n: int):
        if n < 1:
            raise ValueError(f"rank must be a positive integer, got {n}")
        self.n = n

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
        if end < start + 2:
            raise ValueError(f"finite arc needs end >= start+2, got [{start},{end}]")
        shift = start % n - start
        return IndObj(start % n, end + shift)

    def finite(self, i: int, j: int) -> IndObj:
        return self.normalize(i, j)

    def prufer(self, i: int) -> IndObj:
        return self.normalize(i, None)

    def adic(self, j: int) -> IndObj:
        return self.normalize(None, j)

    def lift(self, obj: IndObj, k: int = 0) -> Tuple[Optional[int], Optional[int]]:
        """The k-th lift of the arc to the universal cover, as a raw pair."""
        kn = k * self.n
        return (
            None if obj.start is None else obj.start + kn,
            None if obj.end is None else obj.end + kn,
        )

    # -- elementary symmetries ----------------------------------------------

    def tau(self, obj: IndObj) -> IndObj:
        """Auslander-Reiten translate: both endpoints move one step left."""
        s = None if obj.start is None else obj.start - 1
        e = None if obj.end is None else obj.end - 1
        return self.normalize(s, e)

    def tau_inv(self, obj: IndObj) -> IndObj:
        s = None if obj.start is None else obj.start + 1
        e = None if obj.end is None else obj.end + 1
        return self.normalize(s, e)

    def reflect(self, obj: IndObj) -> IndObj:
        """The involution [i,j] -> [-j,-i]; swaps Prufer with adic arcs."""
        s = None if obj.end is None else -obj.end
        e = None if obj.start is None else -obj.start
        return self.normalize(s, e)

    # -- shortenings (quotients and subobjects) -----------------------------

    def left_shortenings(self, obj: IndObj) -> frozenset:
        """Arcs with the same end and start moved weakly right: the quotients."""
        self._require_finite(obj)
        return frozenset(
            self.normalize(i, obj.end) for i in range(obj.start, obj.end - 1)
        )

    def right_shortenings(self, obj: IndObj) -> frozenset:
        """Arcs with the same start and end moved weakly left: the subobjects."""
        self._require_finite(obj)
        return frozenset(
            self.normalize(obj.start, j) for j in range(obj.start + 2, obj.end + 1)
        )

    # -- distinguished families ---------------------------------------------

    def ray_members(self, i: int, max_len: int) -> frozenset:
        """Arcs starting at i with length 1..max_len (the ray, truncated)."""
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        return frozenset(self.normalize(i, i + l + 1) for l in range(1, max_len + 1))

    def coray_members(self, j: int, max_len: int) -> frozenset:
        """Arcs ending at j with length 1..max_len (the coray, truncated)."""
        if max_len < 1:
            raise ValueError("max_len must be at least 1")
        return frozenset(self.normalize(j - l - 1, j) for l in range(1, max_len + 1))

    def wing_members(self, i: int, t: int) -> frozenset:
        """All arcs [a,b] with i <= a and b <= i+t; empty for t <= 1."""
        out = set()
        for a in range(i, i + t - 1):
            for b in range(a + 2, i + t + 1):
                out.add(self.normalize(a, b))
        return frozenset(out)

    def wing_intersection(self, indices: Iterable[int]) -> List[Wing]:
        """Cyclically consecutive wings cut out by a set of marked points.

        The intersection of the wings of width n based at the given indices
        decomposes into the wings spanning consecutive indices; the last one
        wraps around by +n.  A gap of 1 produces a zero wing.
        """
        idx = sorted(set(indices))
        if not idx:
            raise ValueError("need at least one index")
        if any(i < 0 or i >= self.n for i in idx):
            raise ValueError(f"indices must lie in 0..{self.n - 1}")
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

    @staticmethod
    def _require_finite(obj: IndObj) -> None:
        if not obj.is_finite:
            raise ValueError(f"operation needs a finite arc, got {obj}")


# -- textual grammar ----------------------------------------------------------

_OBJ_RE = re.compile(r"^M\[(-inf|-?\d+),(inf|-?\d+)\]$")


def format_obj(obj: IndObj) -> str:
    s = "-inf" if obj.start is None else str(obj.start)
    e = "inf" if obj.end is None else str(obj.end)
    return f"M[{s},{e}]"


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
