"""Static diagrams: annulus / universal cover / segment SVG, text AR quiver.

Element orders are fixed and every coordinate is printed to 10^-3, so a
given input produces identical bytes on every run and platform.  A path is
built list by list (parameters, radii, angles, then x and y), and its points
fill one ``"%.3f,%.3f"`` template.  That prints what rounding each point with
``round(x, 3)`` and then ``.3f`` printed: each coordinate is the same float
expression, in the same order, as in a point-by-point loop; ``%.3f`` is
correctly rounded, as ``round`` is; and ``-0.000`` is rewritten to ``0.000``.

An annulus drawing is put together from pieces that depend on the rank
and the arc alone, and a rank-n tube has few arcs worth drawing: a maximal
rigid object's summands are among n(n-1) finite arcs of span at most n and
the 2n one-sided ones.  So one memo holds, under ``(n, arc)``, the arc's
point count and the printed points of its path (and, for a one-sided arc,
of its arrowhead), and under ``(n, None)`` the rank's frame: the two
circles and the n marked points with their labels, printed as one string.
A piece is stored only once its arc, or its rank, has passed the checks, so
a drawing checks only the arcs the memo misses and adds up its points from
the stored counts; it refuses what a cold drawing refuses, with the same
message, and prints nothing before its points are counted.  The memo holds
each piece's points once, and no style: the element's class, colour and
dash come from strings printed once per style (``_STYLE_ENDS``), put before
and after the points.  The memo is an ``arcs._Memo`` of at most
``MAX_PATH_CHARS`` characters, so a piece longer than that on its own is
drawn but not kept.  Cover and segment paths depend on the drawing's ends
as well, and are printed and checked each time.

Every mode assembles its drawing the same way (``_svg``): one flat list of
the head, the frame, and per arc the style's strings around its points,
joined once, so no piece is copied before the join and the drawing is not
copied after it.  Each style string starts its element on a new line.  The
head of an annulus drawing, which is always 480 by 480, is printed once,
at import; a line drawing's head holds its width and is printed each time.

Bounds, checked before any work (``ValueError``): ``MAX_POINTS`` marked and
sampled points per drawing; ``MAX_CELLS`` nodes and ``MAX_CHARS`` characters
per AR quiver.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import lru_cache
from typing import List, Sequence, Tuple

from .arcs import IndObj, Tube, _Memo, format_obj
from .type_a import AArc, _check_segment, check_arc

STYLE_COLOR = {
    "summand": "#000000",
    "torsion": "#1f77b4",
    "free": "#d62728",
    "prufer": "#000000",
    "adic": "#000000",
}
DASHED_STYLES = {"prufer", "adic"}

SPIRAL_TURNS = 2.5  # one-sided arcs are truncated after this many turns
MAX_POINTS = 10**6  # marked points plus sampled arc points of one drawing
MAX_CELLS = 10**5  # nodes of one AR quiver: rank x max_length
MAX_CHARS = 10**7  # characters of one AR quiver display; rows are indented
MAX_PATH_CHARS = 1 << 22  # characters of printed points held by the annulus memo

CX = 240.0
CY = 240.0
R_OUT = 200.0
R_IN = 70.0


class RenderSpec(namedtuple("RenderSpec", "mode rank arcs")):
    """The mode ("annulus", "cover" or "segment"), the tube rank n (or m in
    segment mode), and the arcs as a tuple of (arc, style) pairs: ``IndObj``
    arcs, or ``AArc`` arcs in segment mode."""

    __slots__ = ()


def _fmt(x: float) -> str:
    return ("%.3f" % x).replace("-0.000", "0.000")


def _coords(xs: Sequence[float], ys: Sequence[float], sep: str) -> str:
    """The points as "x,y" joined by sep, each number as _fmt prints it."""
    flat = [0.0] * (2 * len(xs))
    flat[::2], flat[1::2] = xs, ys
    return (sep.join(["%.3f,%.3f"] * len(xs)) % tuple(flat)).replace("-0.000", "0.000")


@lru_cache(maxsize=64)
def _steps(samples: int) -> Tuple[Tuple[float, ...], Tuple[float, ...]]:
    """The parameters u = t / samples, t = 0..samples, and the bulge sin(pi u)."""
    us = tuple(t / samples for t in range(samples + 1))
    return us, tuple(math.sin(math.pi * u) for u in us)


def _ends(obj) -> Tuple:
    """(start, end) of a tube or segment arc; None at an open end."""
    return (obj.i, obj.j) if isinstance(obj, AArc) else (obj.start, obj.end)


def _samples(annulus: bool, obj) -> int:
    """How many steps an arc's path takes; the path has one point more."""
    i, j = _ends(obj)
    if i is None or j is None:
        return 160 if annulus else 24
    return 16 + 8 * (j - i) if annulus else 12 + 4 * (j - i)


def _arrowhead(xs, ys) -> str:
    """The points of the arrowhead at the path's last point."""
    x0, y0, x1, y1 = xs[-2], ys[-2], xs[-1], ys[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = math.hypot(dx, dy) or 1.0
    ux, uy = dx / norm, dy / norm
    bx, by = x1 - 9 * ux, y1 - 9 * uy  # the base, 9 back from the tip; half width 4
    return _coords((x1, bx - 4 * uy, bx + 4 * uy), (y1, by + 4 * ux, by - 4 * ux), " ")


# per style: what goes before and after the printed points of a path, then
# of an arrowhead; each element starts on a line of its own
_STYLE_ENDS = {
    style: (
        f'\n<path class="arc {style}" d="M ',
        f'" fill="none" stroke="{color}" stroke-width="1.5"'
        + (' stroke-dasharray="6 3"' if style in DASHED_STYLES else "") + "/>",
        f'\n<polygon class="arrow {style}" points="',
        f'" fill="{color}"/>',
    )
    for style, color in STYLE_COLOR.items()
}


def _head(width: float, height: float) -> str:
    """The XML declaration and the opening svg tag, each on a line."""
    return (
        '<?xml version="1.0" encoding="UTF-8"?>\n'
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">\n'
    )


_ANNULUS_HEAD = _head(480, 480)  # every annulus drawing has this size


def _svg(head: str, frame: str, arcs, pieces) -> str:
    """The drawing: the head, the frame, then per (arc, style) of arcs and
    piece (count, d, arrow) of pieces, the path through the printed points d
    and, if arrow is not empty, the arrowhead through its printed points;
    every part is joined once."""
    parts = [head, frame]
    add = parts.extend
    for (_, style), (_, d, arrow) in zip(arcs, pieces):
        path_open, path_close, arrow_open, arrow_close = _STYLE_ENDS[style]
        if arrow:
            add((path_open, d, path_close, arrow_open, arrow, arrow_close))
        else:
            add((path_open, d, path_close))
    parts.append("\n</svg>\n")
    return "".join(parts)


# -- annulus mode ---------------------------------------------------------------

# (rank, arc) -> (its points, path points, arrowhead points), as _annulus_path
# prints them; (rank, None) -> (marked points, frame, ""), as _frame prints it;
# weighed in printed characters
_PATHS = _Memo(MAX_PATH_CHARS)


def _ring(n: int, idxs, rs) -> Tuple[List[float], List[float]]:
    """Points at the given indices and radii: index 0 at the bottom, anticlockwise."""
    a, b = -math.pi / 2, 2 * math.pi
    ths = [a + b * i / n for i in idxs]
    xs = [CX + r * c for r, c in zip(rs, map(math.cos, ths))]
    ys = [CY - r * s for r, s in zip(rs, map(math.sin, ths))]
    return xs, ys


def _annulus_svg(n: int, arcs) -> str:
    """The drawing of the sorted arcs, from the memo's pieces where it holds
    them.  Every key was checked before it was stored, so only the arcs it
    misses are checked, and the rank only when its frame is missed too.  The
    points are counted before any piece is printed."""
    # 3.0 == 3 and True == 1 as keys, but Tube refuses them: such a rank draws nothing
    frame = _PATHS.get((n, None)) if type(n) is int else None
    pieces = [_PATHS.get((n, obj)) for obj, _ in arcs]
    missed = [arc for arc, piece in zip(arcs, pieces) if piece is None]
    if frame is None or missed:
        _check_tube_arcs(n, missed)
    _check_points(n + sum(
        _samples(True, obj) + 1 if piece is None else piece[0]
        for (obj, _), piece in zip(arcs, pieces)
    ))
    frame = frame or _frame(n)
    if missed:
        pieces = [piece or _annulus_path(n, obj) for (obj, _), piece in zip(arcs, pieces)]
    return _svg(_ANNULUS_HEAD, frame[1], arcs, pieces)


def _frame(n: int) -> Tuple[int, str, str]:
    """The two circles, then the n marked points with their labels, as one
    piece; kept in the memo."""
    lines = [
        f'<circle cx="{_fmt(CX)}" cy="{_fmt(CY)}" r="{_fmt(r)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>'
        for r in (R_OUT, R_IN)
    ]
    marks = zip(*_ring(n, range(n), [R_OUT] * n), *_ring(n, range(n), [R_OUT + 14] * n))
    for k, (x, y, lx, ly) in enumerate(marks):
        lines += [
            f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000000"/>',
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
            f'text-anchor="middle" dominant-baseline="middle">{k}</text>',
        ]
    piece = n, "\n".join(lines), ""
    _PATHS.keep({(n, None): piece}, len(piece[1]))
    return piece


def _annulus_path(n: int, obj: IndObj) -> Tuple[int, str, str]:
    """The arc's point count at rank n, the printed points of its path and,
    for a one-sided arc, of its arrowhead ("" for a finite arc); from the
    memo if there."""
    key = (n, obj)
    path = _PATHS.get(key)
    if path is None:
        us, bulge = _steps(_samples(True, obj))
        turns, width = SPIRAL_TURNS * n, R_OUT - R_IN - 6
        if obj.is_finite:
            start, span = obj.start, obj.end - obj.start
            depth = min(R_OUT - R_IN - 12, 22.0 + 11.0 * span)
            idxs = [start + span * u for u in us]
            rs = [R_OUT - depth * v for v in bulge]
        elif obj.is_prufer:
            idxs = [obj.start + turns * u for u in us]
            rs = [R_OUT - width * u for u in us]
        else:
            idxs = [obj.end - turns * (1 - u) for u in us]
            rs = [R_IN + 6 + width * u for u in us]
        xs, ys = _ring(n, idxs, rs)
        path = len(us), _coords(xs, ys, " L "), "" if obj.is_finite else _arrowhead(xs, ys)
        _PATHS.keep({key: path}, len(path[1]) + len(path[2]))
    return path


# -- cover and segment modes -------------------------------------------------------


_UNIT = 40.0
_BASE = 200.0
_MARGIN = 30.0


def _line_svg(lo: int, hi: int, arcs) -> str:
    """The drawing of the sorted arcs over the marked points lo..hi of a line."""
    def xpos(i: float) -> float:
        return _MARGIN + (i - lo) * _UNIT

    width = _MARGIN * 2 + (hi - lo) * _UNIT
    lines = [
        f'<line x1="{_fmt(xpos(lo))}" y1="{_fmt(_BASE)}" '
        f'x2="{_fmt(xpos(hi))}" y2="{_fmt(_BASE)}" stroke="#888888" stroke-width="1"/>'
    ]
    for k in range(lo, hi + 1):
        x = _fmt(xpos(k))
        lines += [
            f'<circle cx="{x}" cy="{_fmt(_BASE)}" r="3" fill="#000000"/>',
            f'<text x="{x}" y="{_fmt(_BASE + 18)}" font-size="12" text-anchor="middle">{k}</text>',
        ]
    pieces = []
    for obj, style in arcs:
        i, j = _ends(obj)
        if i is None:  # adic
            x0, x1, height = xpos(lo), xpos(j), 24.0
        elif j is None:  # Prufer
            x0, x1, height = xpos(i), xpos(hi), 24.0
        else:
            x0, x1, height = xpos(i), xpos(j), 16.0 + 9.0 * (j - i)
        us, bulge = _steps(_samples(False, obj))
        xs = [x0 + (x1 - x0) * u for u in us]
        ys = [_BASE - height * v for v in bulge]
        arrow = _arrowhead(xs, ys) if i is None or j is None else ""
        pieces.append((len(us), _coords(xs, ys, " L "), arrow))
    return _svg(_head(width, 280), "\n".join(lines), arcs, pieces)


def render_svg(spec: RenderSpec) -> str:
    for _, style in spec.arcs:
        if style not in STYLE_COLOR:
            raise ValueError(f"unknown style {style!r}")
    arcs = sorted(spec.arcs, key=_arc_key)
    mode, n = spec.mode, spec.rank
    if mode == "annulus":
        return _annulus_svg(n, arcs)
    if mode == "segment":
        _check_segment(n)
        for obj, _ in arcs:
            if not isinstance(obj, AArc):
                raise ValueError("segment mode draws segment arcs only")
            check_arc(n, obj)
        lo, hi = 0, n + 1
    elif mode == "cover":
        _check_tube_arcs(n, arcs)
        ends = [0, n]
        for i, j in (_ends(obj) for obj, _ in arcs):
            ends += [j - 2 * n if i is None else i, i + 2 * n if j is None else j]
        lo, hi = min(ends) - 1, max(ends) + 1
    else:
        raise ValueError(f"unknown render mode {spec.mode!r}")
    _check_points(hi - lo + 1 + sum(_samples(False, obj) + 1 for obj, _ in arcs))
    return _line_svg(lo, hi, arcs)


def _check_points(points: int) -> None:
    if points > MAX_POINTS:
        raise ValueError(
            f"the drawing needs {points} points, above the bound MAX_POINTS = {MAX_POINTS}")


def _arc_key(item) -> Tuple:
    """The drawing order of an (arc, style) pair: by style, then as
    ``sort_key`` orders tube arcs (a segment arc as a finite one)."""
    obj, style = item
    if isinstance(obj, AArc):
        return style, 0, obj.i, obj.j
    start, end = obj.start, obj.end
    if end is None:
        return style, 1, start, 0
    if start is None:
        return style, 2, end, 0
    return style, 0, start, end


def _check_tube_arcs(n: int, arcs) -> None:
    tube = Tube(n)
    for obj, _ in arcs:
        if isinstance(obj, AArc):
            raise ValueError("annulus and cover modes draw tube arcs only")
        if tube.normalize(obj.start, obj.end) != obj:
            raise ValueError(f"arc {obj} is not normalized for rank {n}")


def write_svg(spec: RenderSpec, path: str) -> None:
    data = render_svg(spec).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


# -- text AR quiver -----------------------------------------------------------------


def ar_quiver_grid(tube: Tube, max_length: int) -> dict:
    """Labels of the AR-quiver nodes, keyed by (length, start index)."""
    if (cells := tube.n * max_length) > MAX_CELLS:
        raise ValueError(
            f"the AR quiver has {cells} nodes, above the bound MAX_CELLS = {MAX_CELLS}")
    return {(x.length, x.start): format_obj(x) for x in tube.finite_objects(max_length)}


def ar_quiver_lines(tube: Tube, max_length: int) -> List[str]:
    """Rows of lengths max_length..1; columns by start index; the wrap
    column repeats the start-0 object (left and right edges identified).
    Rows are offset by half a cell per length so the translate moves one
    column left and the mesh arrows point up-right and down-right."""
    grid = ar_quiver_grid(tube, max_length)
    width = max(len(v) for v in grid.values()) + 2
    if (chars := max_length * ((max_length + 2 * tube.n + 1) * width // 2 + 2)) > MAX_CHARS:
        raise ValueError(
            f"the AR quiver takes {chars} characters, above the bound MAX_CHARS = {MAX_CHARS}")
    lines = []
    for l in range(max_length, 0, -1):
        indent = ((l - 1) * width) // 2
        cells = "".join(grid[(l, s)].ljust(width) for s in range(tube.n))
        lines.append(" " * indent + cells + "| " + grid[(l, 0)])
    return lines
