"""Byte equivalence of render_svg with the point-by-point renderer it replaced.

The reference below is the old per-point code, copied unchanged; hypothesis
draws specs in all three modes and every byte must agree.  The same specs are
compared once more with every number printed in full, where rounding to
10^-3 would hide a coordinate that is off by one ulp.

The annulus memo (each rank's frame and each arc's path) is checked cold,
warm and right after it starts again, against the reference and against a
pinned SHA-256, and its refusals are checked with the rank's arcs already
held; those tests need only the standard library, so they run where
hypothesis is not installed, and the property tests skip.

The assembly has a reference of its own, also copied unchanged: each
element was concatenated from its style strings and points (``_draw``),
the elements were joined with newlines under a head printed per drawing,
and a newline was added to the whole (``_svg``).  Now every mode gathers
one flat list and joins it once, under an annulus head printed at import.
Both assemble the library's pieces here, so they are compared in all three
modes, with the memo cold and warm.
"""

import contextlib
import hashlib
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor
from typing import List, Sequence, Tuple

import pytest

from limits import needs_alarm, time_limit
from tubecalc import render
from tubecalc.arcs import IndObj, Tube, sort_key
from tubecalc.render import (
    CX,
    CY,
    DASHED_STYLES,
    R_IN,
    R_OUT,
    SPIRAL_TURNS,
    STYLE_COLOR,
    RenderSpec,
    render_svg,
)
from tubecalc.type_a import AArc

try:
    from hypothesis import given, settings, strategies as st
except ImportError:  # the property tests below skip without hypothesis
    given = settings = st = None
needs_hypothesis = pytest.mark.skipif(given is None, reason="needs hypothesis")

# -- reference renderer -------------------------------------------------------------

_UNIT = 40.0
_BASE = 200.0
_MARGIN = 30.0


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


def _arc_key(obj) -> Tuple:
    if isinstance(obj, AArc):
        return (0, obj.i, obj.j)
    return sort_key(obj)


def reference_svg(spec: RenderSpec) -> str:
    """The old render_svg on a valid spec (its validation left out)."""
    arcs = sorted(spec.arcs, key=lambda a: (a[1], _arc_key(a[0])))
    if spec.mode == "annulus":
        return _svg(480, 480, _annulus_body(spec.rank, arcs))
    if spec.mode == "cover":
        n = spec.rank
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
    body, width = _line_body(0, spec.rank + 1, arcs)
    return _svg(width, 280, body)


# -- byte equivalence with the reference ---------------------------------------------


def styles():
    return st.sampled_from(sorted(STYLE_COLOR))


def tube_specs(mode, ranks, spans, min_arcs=0):
    """Specs of up to 8 styled tube arcs; finite spans drawn from spans(n)."""

    @st.composite
    def specs(draw):
        n = draw(ranks)
        tube = Tube(n)
        starts = st.integers(0, n - 1)
        arc = st.one_of(
            st.builds(lambda s, span: tube.finite(s, s + span), starts, spans(n)),
            st.builds(tube.prufer, starts),
            st.builds(tube.adic, starts),
        )
        arcs = draw(st.lists(st.tuples(arc, styles()), min_size=min_arcs, max_size=8))
        return RenderSpec(mode, n, tuple(arcs))

    return specs()


def annulus_specs():
    return tube_specs("annulus", st.integers(1, 40), lambda n: st.integers(2, 3 * n + 2))


def tall_cover_specs():
    """Cover specs with at least one finite arc of span >= 21, whose bump
    rises above the base line, so y runs through 0 into negative values."""

    @st.composite
    def specs(draw):
        spec = draw(tube_specs("cover", st.integers(1, 8), lambda n: st.integers(2, 48)))
        n = spec.rank
        start = draw(st.integers(0, n - 1))
        tall = Tube(n).finite(start, start + draw(st.integers(21, 48)))
        return RenderSpec("cover", n, spec.arcs + ((tall, draw(styles())),))

    return specs()


def segment_specs():
    @st.composite
    def specs(draw):
        m = draw(st.integers(1, 30))
        arc = st.integers(0, m - 1).flatmap(
            lambda i: st.builds(lambda j: AArc(i, j), st.integers(i + 2, m + 1))
        )
        arcs = draw(st.lists(st.tuples(arc, styles()), max_size=8))
        return RenderSpec("segment", m, tuple(arcs))

    return specs()


def spiral_specs(n: int):
    """Every Prufer arc of rank n, then every adic arc, as two specs."""
    t = Tube(n)
    return [
        RenderSpec("annulus", n, tuple((make(i), kind) for i in range(n)))
        for kind, make in (("prufer", t.prufer), ("adic", t.adic))
    ]


class TestMatchesReference:
    """render_svg builds each path in bulk; every byte must equal the old
    point-by-point output."""

    @needs_alarm
    @needs_hypothesis
    def test_annulus(self):
        @settings(max_examples=150, deadline=None)
        @given(annulus_specs())
        def check(spec):
            with time_limit(20):
                assert render_svg(spec) == reference_svg(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_cover_with_tall_arcs(self):
        @settings(max_examples=100, deadline=None)
        @given(tall_cover_specs())
        def check(spec):
            with time_limit(20):
                assert render_svg(spec) == reference_svg(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_segment(self):
        @settings(max_examples=100, deadline=None)
        @given(segment_specs())
        def check(spec):
            with time_limit(20):
                assert render_svg(spec) == reference_svg(spec)

        check()

    @needs_alarm
    def test_every_spiral_at_every_rank(self):
        with time_limit(60):
            for n in range(1, 41):
                for spec in spiral_specs(n):
                    assert render_svg(spec) == reference_svg(spec), (n, spec.arcs[0][1])

    @needs_hypothesis
    def test_number_format_matches_round_then_format(self):
        # near-halves at the 4th decimal and negative values that round to
        # zero; no drawing reaches the latter (bumps of span up to 5000 never
        # land in (-0.0005, 0)), so the emitter is pinned on its own
        @settings(max_examples=300, deadline=None)
        @given(
            st.one_of(
                st.floats(-1000, 1000, allow_nan=False),
                st.floats(-0.001, 0.001, allow_nan=False),
                st.integers(-10**6, 10**6).map(lambda k: (k + 0.5) / 1000),
            ),
        )
        def check(x):
            assert render._fmt(x) == _fmt(x)
            assert render._coords([x, 1.0], [2.0, x], " L ") == f"{_pt(x, 2.0)} L {_pt(1.0, x)}"

        check()


# -- the annulus path memo -----------------------------------------------------------


def dense_annulus(n: int) -> RenderSpec:
    """Every finite arc of span <= n and every spiral at rank n, the styles in turn."""
    t = Tube(n)
    arcs = [t.finite(s, s + d) for s in range(n) for d in range(2, n + 1)]
    arcs += [t.prufer(i) for i in range(n)] + [t.adic(i) for i in range(n)]
    cycle = sorted(STYLE_COLOR)
    return RenderSpec("annulus", n, tuple((x, cycle[k % len(cycle)]) for k, x in enumerate(arcs)))


# the dense rank-20 drawing as the renderer printed it before the memo
DENSE_20_SHA256 = "7ff86a305a33f646ccbb5b3038bdca0ecd6f77fa889d12a1f263a6935bef410e"


def memo_chars() -> int:
    """The characters the memo holds: every frame and every path."""
    return sum(len(d) + len(arrow) for _, d, arrow in render._PATHS.values())


def points_of(spec: RenderSpec) -> int:
    """The marked points plus every sampled point of the reference's paths."""
    return spec.rank + sum(
        16 + 8 * (x.end - x.start) + 1 if x.is_finite else 160 + 1 for x, _ in spec.arcs
    )


def first_path(svg: str) -> str:
    return re.search(r"<path [^>]*>", svg).group()


@pytest.fixture
def cold():
    """An empty memo on entry and on exit."""
    render._PATHS.clear()
    yield
    render._PATHS.clear()


class TestPathMemo:
    """A frame or path taken from the memo is the one printed on a miss: the
    same bytes cold, warm and in the reference, whatever was drawn before.
    An arc the memo holds was checked when it was stored, and its point
    count is stored with it, so a warm drawing refuses what a cold one does,
    with the same message."""

    def test_pinned_dense_drawing_cold_and_warm(self, cold):
        spec = dense_annulus(20)
        for _ in ("cold", "warm"):
            assert hashlib.sha256(render_svg(spec).encode()).hexdigest() == DENSE_20_SHA256

    @needs_alarm
    def test_cold_warm_and_reference_agree_at_small_ranks(self, cold):
        with time_limit(60):
            for n in range(1, 13):
                for spec in [dense_annulus(n)] + spiral_specs(n):
                    render._PATHS.clear()
                    first = render_svg(spec)
                    assert render_svg(spec) == first == reference_svg(spec), n

    @needs_alarm
    def test_bytes_hold_right_after_a_restart(self, cold, monkeypatch):
        # a budget of half the drawing: the memo starts again part way
        # through it, so the next drawing finds some pieces and misses the rest
        with time_limit(60):
            for n in range(1, 13):
                for spec in [dense_annulus(n)] + spiral_specs(n):
                    want = reference_svg(spec)
                    render._PATHS.clear()
                    assert render_svg(spec) == want
                    monkeypatch.setattr(render._PATHS, "bound", render._PATHS.held // 2)
                    render._PATHS.clear()
                    for _ in ("restarted", "partly held", "again"):
                        assert render_svg(spec) == want, n
                        assert memo_chars() == render._PATHS.held <= render._PATHS.bound
                    monkeypatch.undo()

    def test_style_stays_outside_the_memo(self, cold):
        x = Tube(4).prufer(1)
        for style in sorted(STYLE_COLOR):
            spec = RenderSpec("annulus", 4, ((x, style),))
            assert render_svg(spec) == reference_svg(spec)
        assert list(render._PATHS) == [(4, None), (4, x)]
        frame, path = render._PATHS.values()
        assert frame[0] == 4 and frame[2] == "" and frame[1].count("<text ") == 4
        assert path[0] == 161 and path[1].count(" L ") == 160 and path[2].count(" ") == 2

    def test_the_key_holds_the_rank(self, cold):
        specs = [RenderSpec("annulus", n, ((Tube(n).finite(0, 2), "summand"),)) for n in (3, 5)]
        svgs = [render_svg(spec) for spec in specs]
        assert first_path(svgs[0]) != first_path(svgs[1])
        assert svgs == [reference_svg(spec) for spec in specs]
        assert list(render._PATHS) == [(3, None), (3, specs[0].arcs[0][0]), (5, None), (5, specs[1].arcs[0][0])]

    def test_refusals_hold_with_the_arcs_held(self, cold, monkeypatch):
        spec = dense_annulus(5)
        render_svg(spec)  # the frame and every arc of rank 5 are held now
        held = dict(render._PATHS)
        refused = [
            ((IndObj(6, 8), "summand"), "arc M[6,8] is not normalized for rank 5"),
            ((IndObj(None, 7), "adic"), "arc M[-inf,7] is not normalized for rank 5"),
            ((AArc(0, 3), "summand"), "annulus and cover modes draw tube arcs only"),
            ((Tube(5).finite(0, 2), "sparkly"), "unknown style 'sparkly'"),
        ]
        for extra, message in refused:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                render_svg(RenderSpec("annulus", 5, spec.arcs + (extra,)))
        assert render._PATHS == held  # a refusal stores nothing
        points = points_of(spec)
        monkeypatch.setattr(render, "MAX_POINTS", points - 1)
        message = f"the drawing needs {points} points, above the bound MAX_POINTS = {points - 1}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            render_svg(spec)
        monkeypatch.setattr(render, "MAX_POINTS", points)
        assert render_svg(spec) == reference_svg(spec)

    def test_a_rank_that_only_equals_an_int_is_refused_warm_too(self, cold):
        for rank in (3.0, True):
            arcs = ((Tube(int(rank)).finite(0, 2), "summand"),)
            render_svg(RenderSpec("annulus", int(rank), arcs))
            with pytest.raises(ValueError, match=re.escape(f"got {rank!r}")):
                render_svg(RenderSpec("annulus", rank, arcs))

    def test_memo_stays_within_its_bound(self, cold, monkeypatch):
        monkeypatch.setattr(render._PATHS, "bound", 20000)
        held = []
        for n in range(1, 9):
            for spec in [dense_annulus(n)] + spiral_specs(n):
                assert render_svg(spec) == reference_svg(spec)
                assert memo_chars() == render._PATHS.held <= 20000
                held.append(render._PATHS.held)
        assert any(b < a for a, b in zip(held, held[1:]))  # it started again

    def test_path_over_the_budget_is_drawn_but_not_kept(self, cold, monkeypatch):
        monkeypatch.setattr(render._PATHS, "bound", 20000)
        t = Tube(3)
        short, long = (t.finite(0, 2), "summand"), (t.finite(0, 200), "summand")
        render_svg(RenderSpec("annulus", 3, (short,)))
        spec = RenderSpec("annulus", 3, (long,))
        svg = render_svg(spec)
        assert len(first_path(svg)) > 20000 and svg == reference_svg(spec)
        assert list(render._PATHS) == [(3, None), (3, short[0])]  # kept, and the long one not
        assert memo_chars() == render._PATHS.held

    def test_threads_share_the_memo(self, cold, monkeypatch):
        monkeypatch.setattr(render._PATHS, "bound", 20000)
        specs = [spec for n in range(1, 9) for spec in [dense_annulus(n)] + spiral_specs(n)]
        want = [reference_svg(spec) for spec in specs]

        def draw(k):
            order = specs[k:] + specs[:k]
            return [render_svg(spec) for spec in order] == want[k:] + want[:k]

        with ThreadPoolExecutor(4) as pool:
            assert all(pool.map(draw, range(0, 4 * 5, 5)))
        # two threads that keep the same path count it twice, never less
        assert memo_chars() <= render._PATHS.held <= 20000

    @needs_alarm
    @needs_hypothesis
    def test_cold_warm_and_reference_agree(self):
        @settings(max_examples=150, deadline=None)
        @given(annulus_specs())
        def check(spec):
            with time_limit(20):
                render._PATHS.clear()
                first = render_svg(spec)
                assert render_svg(spec) == first == reference_svg(spec)

        check()


# -- the same at full precision ------------------------------------------------------


def _full(x) -> str:
    return repr(float(x))


def _full_coords(xs, ys, sep: str) -> str:
    return sep.join(f"{_full(x)},{_full(y)}" for x, y in zip(xs, ys))


@contextlib.contextmanager
def full_precision():
    """Both renderers print every number as repr(float); the path memo is
    emptied on entry and on exit, and the annulus head, printed once at
    import, is printed again, so that no piece printed at one precision is
    drawn at the other."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(render, "_fmt", _full)
        mp.setattr(render, "_coords", _full_coords)
        mp.setattr(render, "_ANNULUS_HEAD", render._head(480, 480))
        mp.setattr(sys.modules[__name__], "_fmt", _full)
        render._PATHS.clear()
        try:
            yield
        finally:
            render._PATHS.clear()


def reference_svg_in_full(spec: RenderSpec) -> str:
    with full_precision():
        return reference_svg(spec)


def assert_same_at_full_precision(spec: RenderSpec) -> None:
    with full_precision():
        ours, theirs = render_svg(spec), reference_svg(spec)
    assert ours == theirs


class TestMatchesReferenceAtFullPrecision:
    """Every coordinate must be the same float as in the reference, so the
    bulk code must keep each float expression and its order of operations."""

    def test_mode_prints_in_full(self):
        spec = RenderSpec("annulus", 3, ((Tube(3).finite(0, 2), "summand"),))
        render_svg(spec)  # a warm memo must not leak a 3-decimal frame or path in
        with full_precision():
            svg = render_svg(spec)
        decimals = [len(x) for x in re.findall(r"\.(\d+)", svg)]
        assert 'cx="240.0"' in svg and max(decimals) > 3
        assert re.search(r"\.\d{4}", first_path(svg))
        assert svg == reference_svg_in_full(spec)
        assert render_svg(spec) == reference_svg(spec)  # nor full-precision ones out

    @needs_alarm
    @needs_hypothesis
    def test_annulus(self):
        @settings(max_examples=150, deadline=None)
        @given(annulus_specs())
        def check(spec):
            with time_limit(20):
                assert_same_at_full_precision(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_cover_with_tall_arcs(self):
        @settings(max_examples=100, deadline=None)
        @given(tall_cover_specs())
        def check(spec):
            with time_limit(20):
                assert_same_at_full_precision(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_segment(self):
        @settings(max_examples=100, deadline=None)
        @given(segment_specs())
        def check(spec):
            with time_limit(20):
                assert_same_at_full_precision(spec)

        check()

    @needs_alarm
    def test_every_spiral_at_every_rank(self):
        with time_limit(60):
            for n in range(1, 41):
                for spec in spiral_specs(n):
                    assert_same_at_full_precision(spec)


# -- the assembly before one join ---------------------------------------------------

_STYLE_ENDS = {
    style: (
        f'<path class="arc {style}" d="M ',
        f'" fill="none" stroke="{color}" stroke-width="1.5"'
        + (' stroke-dasharray="6 3"' if style in DASHED_STYLES else "") + "/>",
        f'<polygon class="arrow {style}" points="',
        f'" fill="{color}"/>',
    )
    for style, color in STYLE_COLOR.items()
}


def _draw(body: List[str], style: str, d: str, arrow: str) -> None:
    path_open, path_close, arrow_open, arrow_close = _STYLE_ENDS[style]
    body.append(path_open + d + path_close)
    if arrow:
        body.append(arrow_open + arrow + arrow_close)


def _svg_by_lines(width: float, height: float, body: List[str]) -> str:
    head = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
        f'width="{render._fmt(width)}" height="{render._fmt(height)}" '
        f'viewBox="0 0 {render._fmt(width)} {render._fmt(height)}">',
    ]
    return "\n".join(head + body + ["</svg>"]) + "\n"


def _annulus_svg_by_lines(n: int, arcs) -> str:
    frame = render._PATHS.get((n, None)) if type(n) is int else None
    pieces = [render._PATHS.get((n, obj)) for obj, _ in arcs]
    missed = [arc for arc, piece in zip(arcs, pieces) if piece is None]
    if frame is None or missed:
        render._check_tube_arcs(n, missed)
    render._check_points(n + sum(
        render._samples(True, obj) + 1 if piece is None else piece[0]
        for (obj, _), piece in zip(arcs, pieces)
    ))
    body = [(frame or render._frame(n))[1]]
    for (obj, style), piece in zip(arcs, pieces):
        _, d, arrow = piece or render._annulus_path(n, obj)
        _draw(body, style, d, arrow)
    return _svg_by_lines(480, 480, body)


def _line_body_by_lines(lo: int, hi: int, arcs) -> Tuple[List[str], float]:
    def xpos(i: float) -> float:
        return _MARGIN + (i - lo) * _UNIT

    _fmt = render._fmt
    width = _MARGIN * 2 + (hi - lo) * _UNIT
    body = [
        f'<line x1="{_fmt(xpos(lo))}" y1="{_fmt(_BASE)}" '
        f'x2="{_fmt(xpos(hi))}" y2="{_fmt(_BASE)}" stroke="#888888" stroke-width="1"/>'
    ]
    for k in range(lo, hi + 1):
        x = _fmt(xpos(k))
        body += [
            f'<circle cx="{x}" cy="{_fmt(_BASE)}" r="3" fill="#000000"/>',
            f'<text x="{x}" y="{_fmt(_BASE + 18)}" font-size="12" text-anchor="middle">{k}</text>',
        ]
    for obj, style in arcs:
        i, j = render._ends(obj)
        if i is None:  # adic
            x0, x1, height = xpos(lo), xpos(j), 24.0
        elif j is None:  # Prufer
            x0, x1, height = xpos(i), xpos(hi), 24.0
        else:
            x0, x1, height = xpos(i), xpos(j), 16.0 + 9.0 * (j - i)
        us, bulge = render._steps(render._samples(False, obj))
        xs = [x0 + (x1 - x0) * u for u in us]
        ys = [_BASE - height * v for v in bulge]
        arrow = render._arrowhead(xs, ys) if i is None or j is None else ""
        _draw(body, style, render._coords(xs, ys, " L "), arrow)
    return body, width


def assembled_by_lines(spec: RenderSpec) -> str:
    """The old render_svg on a valid spec (its validation left out), from
    the library's pieces."""
    arcs = sorted(spec.arcs, key=render._arc_key)
    n = spec.rank
    if spec.mode == "annulus":
        return _annulus_svg_by_lines(n, arcs)
    if spec.mode == "segment":
        lo, hi = 0, n + 1
    else:
        ends = [0, n]
        for i, j in (render._ends(obj) for obj, _ in arcs):
            ends += [j - 2 * n if i is None else i, i + 2 * n if j is None else j]
        lo, hi = min(ends) - 1, max(ends) + 1
    body, width = _line_body_by_lines(lo, hi, arcs)
    return _svg_by_lines(width, 280, body)


def assert_assembled_as_before(spec: RenderSpec) -> None:
    """Cold then warm, each assembly drawing first in turn."""
    for new_first in (True, False):
        render._PATHS.clear()
        for _ in ("cold", "warm"):
            if new_first:
                ours = render_svg(spec)
                theirs = assembled_by_lines(spec)
            else:
                theirs = assembled_by_lines(spec)
                ours = render_svg(spec)
            assert ours == theirs


class TestAssembly:
    @needs_alarm
    @needs_hypothesis
    def test_annulus(self, cold):
        @settings(max_examples=150, deadline=None)
        @given(annulus_specs())
        def check(spec):
            with time_limit(20):
                assert_assembled_as_before(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_cover(self, cold):
        @settings(max_examples=100, deadline=None)
        @given(tall_cover_specs())
        def check(spec):
            with time_limit(20):
                assert_assembled_as_before(spec)

        check()

    @needs_alarm
    @needs_hypothesis
    def test_segment(self, cold):
        @settings(max_examples=100, deadline=None)
        @given(segment_specs())
        def check(spec):
            with time_limit(20):
                assert_assembled_as_before(spec)

        check()

    def test_every_mode_cold_and_warm(self, cold):
        specs = [dense_annulus(n) for n in range(1, 9)] + spiral_specs(5) + [
            RenderSpec("annulus", 4, ()),
            RenderSpec("cover", 3, ((Tube(3).finite(2, 9), "torsion"), (Tube(3).adic(1), "adic"))),
            RenderSpec("cover", 2, ()),
            RenderSpec("segment", 5, ((AArc(0, 6), "free"), (AArc(1, 3), "summand"))),
            RenderSpec("segment", 1, ()),
        ]
        for spec in specs:
            assert_assembled_as_before(spec)

    def test_at_full_precision(self):
        for spec in (dense_annulus(4), RenderSpec("cover", 3, ((Tube(3).prufer(1), "prufer"),))):
            with full_precision():
                ours, theirs = render_svg(spec), assembled_by_lines(spec)
            assert ours == theirs
        with full_precision():
            assert 'width="480.0" height="480.0"' in render._ANNULUS_HEAD
        assert 'width="480.000" height="480.000"' in render._ANNULUS_HEAD
