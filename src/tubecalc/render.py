"""Static diagrams: annulus / universal cover / segment SVG, text AR quiver.

Every coordinate is quantized to 10^-3 before emission and all element
orders are fixed, so a given input produces identical bytes on every run
and platform.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Tuple, Union

from .arcs import IndObj, Tube, format_obj, sort_key
from .type_a import AArc, check_arc

STYLE_COLOR = {
    "summand": "#000000",
    "torsion": "#1f77b4",
    "free": "#d62728",
    "prufer": "#000000",
    "adic": "#000000",
}
DASHED_STYLES = {"prufer", "adic"}

SPIRAL_TURNS = 2.5  # one-sided arcs are truncated after this many turns

CX = 240.0
CY = 240.0
R_OUT = 200.0
R_IN = 70.0


@dataclass(frozen=True)
class RenderSpec:
    mode: str  # "annulus" | "cover" | "segment"
    rank: int  # tube rank n, or m in segment mode
    arcs: Tuple[Tuple[Union[IndObj, AArc], str], ...]


def _fmt(x: float) -> str:
    q = round(x, 3)
    if abs(q) < 5e-4:
        q = 0.0
    return f"{q:.3f}"


def _pt(x: float, y: float) -> str:
    return f"{_fmt(x)},{_fmt(y)}"


def _path(points: Sequence[Tuple[float, float]], style: str) -> str:
    d = "M " + " L ".join(_pt(x, y) for x, y in points)
    dash = ' stroke-dasharray="6 3"' if style in DASHED_STYLES else ""
    return (
        f'<path class="arc {style}" d="{d}" fill="none" '
        f'stroke="{STYLE_COLOR[style]}" stroke-width="1.5"{dash}/>'
    )


def _arrowhead(points: Sequence[Tuple[float, float]], style: str) -> str:
    (x0, y0), (x1, y1) = points[-2], points[-1]
    dx, dy = x1 - x0, y1 - y0
    norm = math.hypot(dx, dy) or 1.0
    ux, uy = dx / norm, dy / norm
    px, py = -uy, ux
    tip = (x1, y1)
    left = (x1 - 9 * ux + 4 * px, y1 - 9 * uy + 4 * py)
    right = (x1 - 9 * ux - 4 * px, y1 - 9 * uy - 4 * py)
    pts = " ".join(_pt(x, y) for x, y in (tip, left, right))
    return f'<polygon class="arrow {style}" points="{pts}" fill="{STYLE_COLOR[style]}"/>'


def _svg(width: float, height: float, body: List[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


# -- annulus mode ---------------------------------------------------------------


def _angle(n: int, index: float) -> float:
    # point 0 at the bottom, indices increasing anticlockwise
    return -math.pi / 2 + 2 * math.pi * index / n


def _apos(n: int, index: float, radius: float) -> Tuple[float, float]:
    th = _angle(n, index)
    return (CX + radius * math.cos(th), CY - radius * math.sin(th))


def _annulus_body(n: int, arcs) -> List[str]:
    body = [
        f'<circle cx="{_fmt(CX)}" cy="{_fmt(CY)}" r="{_fmt(R_OUT)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>',
        f'<circle cx="{_fmt(CX)}" cy="{_fmt(CY)}" r="{_fmt(R_IN)}" '
        'fill="none" stroke="#888888" stroke-width="1"/>',
    ]
    for k in range(n):
        x, y = _apos(n, k, R_OUT)
        lx, ly = _apos(n, k, R_OUT + 14)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(y)}" r="3" fill="#000000"/>')
        body.append(
            f'<text x="{_fmt(lx)}" y="{_fmt(ly)}" font-size="12" '
            f'text-anchor="middle" dominant-baseline="middle">{k}</text>'
        )
    for obj, style in arcs:
        if obj.is_finite:
            span = obj.end - obj.start
            depth = min(R_OUT - R_IN - 12, 22.0 + 11.0 * span)
            samples = 16 + 8 * span
            pts = []
            for t in range(samples + 1):
                u = t / samples
                idx = obj.start + span * u
                r = R_OUT - depth * math.sin(math.pi * u)
                pts.append(_apos(n, idx, r))
            body.append(_path(pts, style))
        elif obj.is_prufer:
            samples = 160
            pts = []
            for t in range(samples + 1):
                u = t / samples
                idx = obj.start + SPIRAL_TURNS * n * u
                r = R_OUT - (R_OUT - R_IN - 6) * u
                pts.append(_apos(n, idx, r))
            body.append(_path(pts, style))
            body.append(_arrowhead(pts, style))
        else:
            samples = 160
            pts = []
            for t in range(samples + 1):
                u = t / samples
                idx = obj.end - SPIRAL_TURNS * n * (1 - u)
                r = R_IN + 6 + (R_OUT - R_IN - 6) * u
                pts.append(_apos(n, idx, r))
            body.append(_path(pts, style))
            body.append(_arrowhead(pts, style))
    return body


# -- cover and segment modes -------------------------------------------------------


_UNIT = 40.0
_BASE = 200.0
_MARGIN = 30.0


def _bump(x0: float, x1: float, height: float, samples: int) -> List[Tuple[float, float]]:
    pts = []
    for t in range(samples + 1):
        u = t / samples
        pts.append((x0 + (x1 - x0) * u, _BASE - height * math.sin(math.pi * u)))
    return pts


def _line_body(lo: int, hi: int, arcs) -> Tuple[List[str], float]:
    def xpos(i: float) -> float:
        return _MARGIN + (i - lo) * _UNIT

    width = _MARGIN * 2 + (hi - lo) * _UNIT
    body = [
        f'<line x1="{_fmt(xpos(lo))}" y1="{_fmt(_BASE)}" '
        f'x2="{_fmt(xpos(hi))}" y2="{_fmt(_BASE)}" stroke="#888888" stroke-width="1"/>'
    ]
    for k in range(lo, hi + 1):
        x = xpos(k)
        body.append(f'<circle cx="{_fmt(x)}" cy="{_fmt(_BASE)}" r="3" fill="#000000"/>')
        body.append(
            f'<text x="{_fmt(x)}" y="{_fmt(_BASE + 18)}" font-size="12" '
            f'text-anchor="middle">{k}</text>'
        )
    for obj, style in arcs:
        if isinstance(obj, AArc) or obj.is_finite:
            i = obj.i if isinstance(obj, AArc) else obj.start
            j = obj.j if isinstance(obj, AArc) else obj.end
            span = j - i
            pts = _bump(xpos(i), xpos(j), 16.0 + 9.0 * span, 12 + 4 * span)
            body.append(_path(pts, style))
        elif obj.is_prufer:
            pts = _bump(xpos(obj.start), xpos(hi), 24.0, 24)
            body.append(_path(pts, style))
            body.append(_arrowhead(pts, style))
        else:
            pts = _bump(xpos(lo), xpos(obj.end), 24.0, 24)
            body.append(_path(pts, style))
            body.append(_arrowhead(pts, style))
    return body, width


def render_svg(spec: RenderSpec) -> str:
    for _, style in spec.arcs:
        if style not in STYLE_COLOR:
            raise ValueError(f"unknown style {style!r}")
    arcs = sorted(spec.arcs, key=lambda a: (a[1], _arc_key(a[0])))
    if spec.mode == "annulus":
        n = spec.rank
        _check_tube_arcs(n, arcs)
        return _svg(480, 480, _annulus_body(n, arcs))
    if spec.mode == "cover":
        n = spec.rank
        _check_tube_arcs(n, arcs)
        ends = [0, n]
        for obj, _ in arcs:
            if obj.is_finite:
                ends += [obj.start, obj.end]
            elif obj.is_prufer:
                ends += [obj.start, obj.start + 2 * n]
            else:
                ends += [obj.end - 2 * n, obj.end]
        lo, hi = min(ends) - 1, max(ends) + 1
        body, width = _line_body(lo, hi, arcs)
        return _svg(width, 280, body)
    if spec.mode == "segment":
        m = spec.rank
        for obj, _ in arcs:
            if not isinstance(obj, AArc):
                raise ValueError("segment mode draws segment arcs only")
            check_arc(m, obj)
        body, width = _line_body(0, m + 1, arcs)
        return _svg(width, 280, body)
    raise ValueError(f"unknown render mode {spec.mode!r}")


def _arc_key(obj) -> Tuple:
    if isinstance(obj, AArc):
        return (0, obj.i, obj.j)
    return sort_key(obj)


def _check_tube_arcs(n: int, arcs) -> None:
    tube = Tube(n)
    for obj, _ in arcs:
        if isinstance(obj, AArc):
            raise ValueError("annulus and cover modes draw tube arcs only")
        normal = tube.normalize(obj.start, obj.end)
        if normal != obj:
            raise ValueError(f"arc {obj} is not normalized for rank {n}")


def write_svg(spec: RenderSpec, path: str) -> None:
    data = render_svg(spec).encode("utf-8")
    with open(path, "wb") as fh:
        fh.write(data)


# -- text AR quiver -----------------------------------------------------------------


def ar_quiver_grid(tube: Tube, max_length: int) -> dict:
    """Labels of the AR-quiver nodes, keyed by (length, start index)."""
    return {(x.length, x.start): format_obj(x) for x in tube.finite_objects(max_length)}


def ar_quiver_lines(tube: Tube, max_length: int) -> List[str]:
    """Rows of lengths max_length..1; columns by start index; the wrap
    column repeats the start-0 object (left and right edges identified).
    Rows are offset by half a cell per length so the translate moves one
    column left and the mesh arrows point up-right and down-right."""
    grid = ar_quiver_grid(tube, max_length)
    width = max(len(v) for v in grid.values()) + 2
    lines = []
    for l in range(max_length, 0, -1):
        indent = ((l - 1) * width) // 2
        cells = "".join(grid[(l, s)].ljust(width) for s in range(tube.n))
        lines.append(" " * indent + cells + "| " + grid[(l, 0)])
    return lines
