"""Tests for the programmatic table regeneration (repro.tables)."""

import pytest

from repro.tables import P_GRID, render_failure_table, table2, table4, table5


class TestFailureTables:
    def test_table2_rows(self):
        rows = table2()
        assert len(rows) == 7
        by_name = {row.system: row for row in rows}
        # The exact columns agree with the published values.
        for name in ("majority(15)", "hqs[5x3]", "cwlog(14)", "y(15)", "h-triang(15)"):
            row = by_name[name]
            for measured, published in zip(row.measured, row.published):
                assert measured == pytest.approx(published, abs=1.5e-6)
        # The substitution row is flagged.
        assert "substitution" in by_name["paths(13)"].note

    def test_render(self):
        text = render_failure_table(table2()[:2], "Table 2 (excerpt)")
        assert "Table 2 (excerpt)" in text
        assert "paper" in text
        assert f"p={P_GRID[0]}" in text


class TestSizeLoadTable:
    def test_blocks_present(self):
        blocks = table4()
        assert set(blocks) == {15, 28, 100}

    def test_htriang_rows(self):
        blocks = table4()
        for scale, t in ((15, 5), (28, 7), (100, 14)):
            row = next(r for r in blocks[scale] if r.system == "h-triang")
            assert row.smallest == row.largest == t
            assert row.load == pytest.approx(t / row.n)

    def test_cwlog_tradeoff_loads(self):
        blocks = table4()
        cw15 = next(r for r in blocks[15] if r.system == "cwlog")
        assert cw15.load == pytest.approx(5 / 9, abs=1e-9)
        cw28 = next(r for r in blocks[28] if r.system == "cwlog")
        assert cw28.load == pytest.approx(0.4375, abs=1e-9)


class TestAsymptoticTable:
    def test_rows(self):
        rows = table5()
        assert len(rows) == 7
        triangle = next(r for r in rows if r["system"] == "h-triang")
        assert triangle["same size"] is True
        assert "sqrt" in triangle["load"]


class TestCLITable:
    @pytest.mark.parametrize("number, marker", [(2, "h-triang"), (5, "c(S)")])
    def test_cli_table(self, capsys, number, marker):
        from repro.cli import main

        main(["table", str(number)])
        out = capsys.readouterr().out
        assert marker in out

    def test_cli_table_bounds(self):
        from repro.cli import main

        with pytest.raises(SystemExit):
            main(["table", "9"])
