import os

import pytest

from golden_specs import golden_specs
from tube_defs import tau
from tubecalc import render
from tubecalc.arcs import Tube
from tubecalc.render import (
    RenderSpec,
    ar_quiver_grid,
    ar_quiver_lines,
    render_svg,
    write_svg,
)
from tubecalc.type_a import AArc

GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "goldens")


class TestSvg:
    def test_repeated_renders_identical(self):
        for spec in golden_specs().values():
            assert render_svg(spec) == render_svg(spec)

    @pytest.mark.parametrize("name", sorted(golden_specs()))
    def test_golden_bytes(self, name):
        spec = golden_specs()[name]
        with open(os.path.join(GOLDEN_DIR, name), "rb") as fh:
            want = fh.read()
        assert render_svg(spec).encode("utf-8") == want

    def test_worked_example_has_four_spirals(self):
        t14 = Tube(14)
        spec = RenderSpec("annulus", 14, tuple((t14.prufer(i), "prufer") for i in (0, 6, 10, 13)))
        svg = render_svg(spec)
        assert svg.count('class="arc prufer"') == 4
        assert svg.count('class="arrow prufer"') == 4

    def test_segment_layout_has_all_marked_points(self):
        svg = render_svg(RenderSpec("segment", 4, ()))
        for k in range(0, 6):
            assert f">{k}</text>" in svg

    def test_write_svg_round_trips(self, tmp_path):
        spec = golden_specs()["segment_m4.svg"]
        out = tmp_path / "out.svg"
        write_svg(spec, str(out))
        assert out.read_bytes() == render_svg(spec).encode("utf-8")

    def test_arc_validation(self):
        t2 = Tube(2)
        with pytest.raises(ValueError):
            render_svg(RenderSpec("segment", 2, ((AArc(0, 9), "summand"),)))
        with pytest.raises(ValueError):
            render_svg(RenderSpec("annulus", 2, ((t2.finite(0, 2), "sparkly"),)))
        with pytest.raises(ValueError):
            render_svg(RenderSpec("doughnut", 2, ()))


class TestArQuiver:
    def test_grid_node_count(self):
        tube = Tube(2)
        grid = ar_quiver_grid(tube, 2)
        assert len(grid) == 4
        assert len(set(grid.values())) == 4

    def test_rows_and_wrap_column(self):
        tube = Tube(2)
        lines = ar_quiver_lines(tube, 2)
        assert len(lines) == 2
        assert lines[-1].startswith("M[0,2]")
        assert lines[-1].rstrip().endswith("| M[0,2]")
        assert "M[0,3]" in lines[0] and "M[1,4]" in lines[0]

    def test_translate_moves_one_column_left(self):
        tube = Tube(3)
        grid = ar_quiver_grid(tube, 4)
        for (l, s), label in grid.items():
            x = tube.normalize(s, s + l + 1)
            assert grid[(l, (s - 1) % 3)] == str(tau(tube, x))

    def test_mesh_arrow_targets_exist(self):
        # arrows go to [i, j+1] and [i+1, j]; both live one row up or down
        tube = Tube(3)
        max_len = 4
        grid = ar_quiver_grid(tube, max_len)
        for (l, s) in grid:
            if l + 1 <= max_len:
                up = tube.normalize(s, s + l + 2)
                assert grid[(l + 1, up.start)] == str(up)
            if l >= 2:
                down = tube.normalize(s + 1, s + l + 1)
                assert grid[(l - 1, down.start)] == str(down)


class TestDrawingBound:
    """The point count is taken before anything is sampled; the CLI tests
    run each unbounded input of the contract against it."""

    def test_point_count_names_the_bound(self):
        # rank n with no arcs draws n marked points and nothing else
        with pytest.raises(ValueError, match="needs 1000001 points, above the bound MAX_POINTS"):
            render_svg(RenderSpec("annulus", render.MAX_POINTS + 1, ()))
