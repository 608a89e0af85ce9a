"""Benchmark-suite configuration.

Each paper-figure benchmark runs one bundled figure spec — its ``-quick``
twin by default, the paper-scale spec with ``REPRO_FULL=1`` — slices the
document's cells into the figure's series and asserts the qualitative
*shape* the paper reports (DESIGN.md §4; DESIGN.md §2 records where the
paper-scale runs deviate).  The series are printed; run with ``-s`` to
see them.
"""

import os

import pytest

from repro.experiments.matrix import load_spec, run_matrix
from repro.experiments.report import format_series
from repro.obs.report import figure_series

FULL = os.environ.get("REPRO_FULL", "0") not in ("0", "", "false")


@pytest.fixture(scope="session")
def full_scale() -> bool:
    return FULL


@pytest.fixture()
def run_once(benchmark):
    """Run an experiment exactly once under the benchmark timer.

    Figure regeneration is deterministic and expensive; repeated rounds
    would only re-measure the same arithmetic.
    """

    def _run(fn, **kwargs):
        return benchmark.pedantic(fn, kwargs=kwargs, rounds=1, iterations=1)

    return _run


@pytest.fixture()
def run_figure(run_once):
    """Run a figure's bundled spec once: ``<name>-quick``, or ``<name>``
    under ``REPRO_FULL=1``; returns the document's cells in run order."""

    def _run(name):
        doc = run_once(run_matrix, spec=load_spec(name if FULL else f"{name}-quick"))
        cells = sorted(doc["cells"].items(), key=lambda item: item[1]["index"])
        return [dict(cell, key=key) for key, cell in cells]

    return _run


@pytest.fixture()
def panel():
    """``panel(cells, x, metric, group_by="policy", **where)``: one panel's
    ``(x_values, series)`` over the cells whose axes match ``where``, with
    the app-aware series named ``opt`` as in the paper."""

    def _panel(cells, x, metric, group_by="policy", **where):
        rows = [
            (cell["axes"], cell["summary"])
            for cell in cells
            if all(cell["axes"][axis] == value for axis, value in where.items())
        ]
        x_values, series = figure_series(rows, x, metric, group_by)
        series = {("opt" if s == "app-aware" else s): v for s, v in series.items()}
        print()
        print(format_series(x, x_values, series, title=f"{metric} {where}"))
        return x_values, series

    return _panel
