"""Tests for ASCII figure rendering."""

from __future__ import annotations

import pytest

from repro.experiments.plotting import ascii_plot, ascii_speedup_plot


class TestAsciiPlot:
    def test_contains_markers_and_legend(self):
        out = ascii_plot(
            {"a": [(0, 0), (1, 1)], "b": [(0, 1), (1, 0)]},
            title="T",
            width=20,
            height=8,
        )
        assert "T" in out
        assert "o=a" in out and "x=b" in out
        assert "o" in out and "x" in out

    def test_empty(self):
        assert "(no data)" in ascii_plot({}, title="E")

    def test_degenerate_single_point(self):
        out = ascii_plot({"a": [(1.0, 2.0)]}, width=10, height=4)
        assert "o" in out

    def test_axis_labels(self):
        out = ascii_plot(
            {"a": [(0, 0), (10, 5)]}, xlabel="cores", ylabel="speedup"
        )
        assert "cores" in out and "speedup" in out

    def test_extremes_rendered_at_bounds(self):
        out = ascii_plot({"a": [(0, 0), (100, 10)]}, width=30, height=10)
        lines = [l for l in out.splitlines() if "|" in l]
        # Max y appears on the first grid row, min y on the last.
        assert "o" in lines[0]
        assert "o" in lines[-1]


class TestSpeedupPlot:
    def test_includes_ideal_diagonal(self):
        out = ascii_speedup_plot({"ours": {1: 1.0, 10: 7.0, 40: 17.0}})
        assert "ideal" in out
        assert "ours" in out
