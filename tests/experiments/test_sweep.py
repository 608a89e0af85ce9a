"""Re-slicing matrix rows into figure series (``repro.obs.report.figure_series``)."""

import itertools

import pytest

from repro.obs.report import figure_series


def grid_rows(metric_fn, **axes):
    """Rows ``(axes, metrics)`` of the cartesian product of ``axes``."""
    names = list(axes)
    return [
        (dict(zip(names, combo)), metric_fn(**dict(zip(names, combo))))
        for combo in itertools.product(*axes.values())
    ]


def metric_fn(a, b, scale=1.0):
    return {"sum": (a + b) * scale, "prod": a * b * scale}


class TestSeries:
    @pytest.fixture()
    def rows(self):
        return grid_rows(metric_fn, a=[1, 2, 3], b=[10, 20])

    def test_grouped_series(self, rows):
        x, series = figure_series(rows, x="a", metric="sum", group_by="b")
        assert x == [1, 2, 3]
        assert series["10"] == [11, 12, 13]
        assert series["20"] == [21, 22, 23]

    def test_ungrouped_series(self):
        rows = grid_rows(lambda a: metric_fn(a, 5), a=[1, 2])
        x, series = figure_series(rows, x="a", metric="prod")
        assert x == [1, 2]
        assert series["prod"] == [5, 10]

    def test_single_axis(self):
        rows = grid_rows(lambda a: {"m": a * 2.0}, a=[1, 2, 3])
        x, series = figure_series(rows, x="a", metric="m")
        assert x == [1, 2, 3]
        assert series == {"m": [2.0, 4.0, 6.0]}

    def test_unknown_keys(self, rows):
        with pytest.raises(KeyError):
            figure_series(rows, x="zzz", metric="sum")
        with pytest.raises(KeyError):
            figure_series(rows, x="a", metric="zzz")
        with pytest.raises(KeyError):
            figure_series(rows, x="a", metric="sum", group_by="zzz")

    def test_incomplete_grid_rejected(self):
        # Hand-built rows with a hole: group b=20 has no value at a=2.
        holey = [
            ({"a": 1, "b": 10}, {"m": 1.0}),
            ({"a": 2, "b": 10}, {"m": 2.0}),
            ({"a": 1, "b": 20}, {"m": 3.0}),
        ]
        with pytest.raises(ValueError, match="incomplete grid.*'20'"):
            figure_series(holey, x="a", metric="m", group_by="b")

    def test_every_varying_axis_labels_a_series(self):
        # r in {0.5, 0.7} x d in {1, 2} x p = lru: one line per r, so no
        # cell is dropped; p does not vary, so it stays out of the label.
        rows = grid_rows(lambda r, d, p: {"m": r * 10 + d}, r=[0.5, 0.7], d=[1, 2], p=["lru"])
        x, series = figure_series(rows, x="d", metric="m", group_by="p")
        assert x == [1, 2]
        assert series == {"lru, r=0.5": [6.0, 7.0], "lru, r=0.7": [8.0, 9.0]}
        _, ungrouped = figure_series(rows, x="d", metric="m")
        assert ungrouped == {"r=0.5": [6.0, 7.0], "r=0.7": [8.0, 9.0]}
