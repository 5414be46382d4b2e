"""Tests for the CLI and the figure renderers."""

import pytest

from repro.cli import build_system, main
from repro.systems import HierarchicalGrid, HierarchicalTriangle
from repro.viz import (
    render_figure1,
    render_figure2,
    render_hgrid,
    render_htriangle_division,
)


class TestBuildSystem:
    @pytest.mark.parametrize(
        "spec, n",
        [
            ("majority:15", 15),
            ("hqs:5x3", 15),
            ("cwlog:14", 14),
            ("grid:4x4", 16),
            ("h-grid:5x5", 25),
            ("h-t-grid:4x4", 16),
            ("h-triang:15", 15),
            ("y:15", 15),
            ("paths:13", 13),
            ("fpp:7", 7),
            ("tree:h2", 7),
            ("tgrid:4x4", 16),
            ("triangle:5", 15),
            ("diamond:3", 9),
            ("singleton:3", 3),
        ],
    )
    def test_catalogue(self, spec, n):
        assert build_system(spec).n == n

    def test_unknown_system(self):
        with pytest.raises(SystemExit):
            build_system("frobnicator:3")

    def test_bad_params(self):
        with pytest.raises(SystemExit):
            build_system("majority:xyz")
        with pytest.raises(SystemExit):
            build_system("h-triang:16")


class TestCommands:
    def test_info(self, capsys):
        main(["info", "h-triang:15"])
        out = capsys.readouterr().out
        assert "n             : 15" in out
        assert "min=5 max=5" in out

    def test_failure(self, capsys):
        main(["failure", "majority:5", "-p", "0.5"])
        out = capsys.readouterr().out
        assert "0.500000" in out

    def test_load(self, capsys):
        main(["load", "fpp:7"])
        out = capsys.readouterr().out
        assert "0.4285" in out

    def test_compare(self, capsys):
        main(["compare", "majority:15", "h-triang:15", "-p", "0.1"])
        out = capsys.readouterr().out
        assert "0.000034" in out
        assert "0.000677" in out

    def test_figures(self, capsys):
        main(["figures"])
        out = capsys.readouterr().out
        assert "Figure 1" in out
        assert "Figure 2" in out


class TestViz:
    def test_figure1_shape(self):
        text = render_figure1()
        grid_lines = [l for l in text.splitlines() if l and l[0] in ".CLB"]
        assert len(grid_lines) == 4
        assert all(len(l.split()) == 4 for l in grid_lines)

    def test_figure2_marks(self):
        body = render_figure2().splitlines()[2:]  # drop the header
        joined = "\n".join(body)
        assert joined.count("1") == 3  # T1 has 3 elements
        assert joined.count("G") == 6  # sub-grid has 6
        assert joined.count("2") == 6  # T2 has 6

    def test_render_hgrid_markers(self):
        grid = HierarchicalGrid.halving(2, 2)
        line = grid.full_lines()[0]
        text = render_hgrid(grid, line=line)
        assert "L" in text

    def test_render_division_requires_standard(self):
        custom = HierarchicalTriangle(3, subgrid="flat").grown("t2")
        with pytest.raises(ValueError):
            render_htriangle_division(custom)


class TestNewCommands:
    def test_dual(self, capsys):
        main(["dual", "h-triang:15", "--show", "2"])
        out = capsys.readouterr().out
        assert "self-dual     : True" in out

    def test_byzantine(self, capsys):
        main(["byzantine", "majority:5"])
        out = capsys.readouterr().out
        assert "masking threshold      : b = 0" in out

    def test_simulate(self, capsys):
        main(["simulate", "majority:5", "-p", "0.3", "--epochs", "3000"])
        out = capsys.readouterr().out
        assert "epochs    : 3001, crash p = 0.3" in out
        assert "measured  : 0.155615 ± 0.017044" in out
        assert "analytic  : 0.163080" in out


class TestCurveRendering:
    def test_compare_plot(self, capsys):
        main(["compare", "majority:5", "h-triang:15", "--plot", "-p", "0.3"])
        out = capsys.readouterr().out
        assert "A = majority" in out
        assert "B = h-triang5" in out
        assert "|" in out

    def test_render_wall(self):
        from repro.viz import render_wall

        text = render_wall([1, 2, 3])
        lines = text.splitlines()
        assert [line.count("o") for line in lines] == [1, 2, 3]

    def test_render_failure_curves_validation(self):
        from repro.viz import render_failure_curves
        from repro.systems import SingletonQuorumSystem

        with pytest.raises(ValueError):
            render_failure_curves([SingletonQuorumSystem.of_size(1)], points=1)
        with pytest.raises(ValueError):
            render_failure_curves(
                [SingletonQuorumSystem.of_size(1)] * 11
            )

    def test_curves_monotone_markers(self):
        from repro.viz import render_failure_curves
        from repro.systems import GridQuorumSystem

        text = render_failure_curves([GridQuorumSystem(3, 3)], points=10, height=8)
        assert "A = grid3x3" in text

    def test_critical(self, capsys):
        main(["critical", "h-triang:15", "-p", "0.15", "--top", "2"])
        out = capsys.readouterr().out
        assert "Birnbaum importance" in out
        assert "I = 0.011845" in out  # the T2 elements top the list at t=5
