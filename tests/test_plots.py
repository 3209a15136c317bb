"""Unit tests for terminal plotting helpers."""

import pytest

from repro.analysis.plots import (
    cost_trajectory_sketch,
    sparkline,
    utilization_rows,
)


class TestSparkline:
    def test_empty(self):
        assert sparkline([]) == ""

    def test_constant_series(self):
        assert sparkline([5, 5, 5]) == "▁▁▁"

    def test_monotone_series(self):
        line = sparkline([0, 1, 2, 3])
        assert len(line) == 4
        assert line[0] == "▁" and line[-1] == "█"

    def test_extremes_mapped_to_ends(self):
        line = sparkline([10, 0, 10])
        assert line == "█▁█"


class TestUtilizationRows:
    def test_skips_infinite_capacity(self):
        text = utilization_rows({(0, 1): [1.0]}, {(0, 1): float("inf")})
        assert text == ""

    def test_orders_by_peak(self):
        samples = {(0, 1): [1.0, 2.0], (1, 2): [9.0, 1.0]}
        caps = {(0, 1): 10.0, (1, 2): 10.0}
        lines = utilization_rows(samples, caps).splitlines()
        assert "( 1, 2)" in lines[0]
        assert "90%" in lines[0]

    def test_top_limits_rows(self):
        samples = {(i, i + 1): [1.0] for i in range(5)}
        caps = {key: 10.0 for key in samples}
        assert len(utilization_rows(samples, caps, top=2).splitlines()) == 2


class TestCostTrajectorySketch:
    def test_empty(self):
        assert cost_trajectory_sketch([]) == "(no data)"

    def test_range_annotated(self):
        text = cost_trajectory_sketch([10.0, 20.0, 30.0])
        assert "[10 .. 30]" in text

    def test_downsamples(self):
        text = cost_trajectory_sketch(list(range(1000)), width=50)
        spark = text.split("  ")[0]
        assert len(spark) == 50
