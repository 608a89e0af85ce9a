"""Tests for the self-contained matrix HTML report."""

import html
import re
from pathlib import Path

import pytest

from repro.experiments.gating import load_snapshot
from repro.experiments.matrix import load_spec, run_matrix
from repro.obs.report import (
    render_report as render_matrix_report,
    write_report as write_matrix_report,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


@pytest.fixture(scope="module")
def smoke_doc():
    # A fresh run of the bundled spec: its [report] names the committed
    # trend files (the committed MATRIX_smoke.json predates their names).
    return run_matrix(load_spec("smoke"))


@pytest.fixture(scope="module")
def smoke_html(smoke_doc):
    return render_matrix_report(smoke_doc, base_dir=REPO_ROOT)


class TestSelfContainment:
    """The acceptance bar: no scripts, no network-loaded assets."""

    def test_no_script_elements(self, smoke_html):
        assert "<script" not in smoke_html.lower()

    def test_no_network_urls(self, smoke_html):
        assert "http://" not in smoke_html
        assert "https://" not in smoke_html

    def test_single_html_document(self, smoke_html):
        assert smoke_html.startswith("<!DOCTYPE html>")
        assert "<style>" in smoke_html  # inline CSS only


class TestSections:
    def test_cell_table_lists_every_cell(self, smoke_doc, smoke_html):
        for key in smoke_doc["cells"]:
            assert key in smoke_html
        assert "total_miss_rate" in smoke_html

    def test_figures_render_as_inline_svg(self, smoke_html):
        assert "<svg" in smoke_html and "polyline" in smoke_html
        # one series per workload group, named by the axis value
        assert "spherical" in smoke_html and "zoom" in smoke_html

    def test_trend_tables_from_committed_snapshots(self, smoke_html):
        # [report] bench_snapshots names both committed baselines; each
        # trend is the document's cell table plus its fairness tables.
        assert "MATRIX_bench-quick.json" in smoke_html
        assert "MATRIX_serve-baseline.json" in smoke_html
        assert "not found" not in smoke_html and "skipped" not in smoke_html
        assert "Jain fairness" in smoke_html  # serve cell + bench suite scenarios
        trends = smoke_html.split("Committed snapshot trends")[1]
        assert "serve-baseline" in trends  # the serve document's cell
        assert "<h3>suite</h3>" in trends  # the bench document's scenario
        assert "zoom/app-aware" in trends and "total_miss_rate" in trends

    def test_non_matrix_trend_file_noted_not_fatal(self, smoke_doc, tmp_path):
        (tmp_path / "MATRIX_bench-quick.json").write_text('{"runs": {}}')
        html = render_matrix_report(smoke_doc, base_dir=tmp_path)
        assert "not a matrix document" in html and "skipped" in html

    def test_missing_snapshot_noted_not_fatal(self, smoke_doc, tmp_path):
        html = render_matrix_report(smoke_doc, base_dir=tmp_path)
        assert "not found" in html and "skipped" in html

    def test_report_title_from_spec(self, smoke_html):
        assert "matrix smoke report" in smoke_html

    @pytest.mark.parametrize("name", ["MATRIX_fig9-quick.json", "MATRIX_fig12-quick.json"])
    def test_many_series_charts_stay_readable(self, name):
        """Every series of a chart has its own (colour, dash) style, and
        every legend row fits inside the SVG at 7 px per character."""
        doc = load_snapshot(REPO_ROOT / name)
        figures = render_matrix_report(doc).split("<h2>Figures</h2>")[1]
        charts = re.findall(r"<svg class='chart' width='(\d+)' height='(\d+)'(.*?)</svg>",
                            figures)
        assert charts
        for width, height, body in charts:
            legend = body.split("<g class='legend'>")[1]
            rows = re.findall(
                r"<line [^>]*y1='(\d+)'[^>]* stroke='([^']+)' stroke-width='2'"
                r"(?: stroke-dasharray='([^']+)')?/>"
                r"<text x='(\d+)' y='(\d+)' font-size='11'>([^<]*)</text>",
                legend,
            )
            assert len(rows) == body.count("<polyline") > 0
            styles = {(color, dash) for _, color, dash, _, _, _ in rows}
            assert len(styles) == len(rows)
            for _, _, _, x, y, label in rows:
                assert int(x) + 7 * len(html.unescape(label)) <= int(width), label
                assert int(y) <= int(height)

    def test_three_axis_figure_draws_every_cell(self):
        # r x d x p with the figure over d grouped by p: one line per r
        # value, so every cell's value is a point of the chart.
        from repro.experiments.gating import MATRIX_SCHEMA_VERSION
        from repro.obs.report import _fmt

        cells, index = {}, 0
        for r in (0.5, 0.7):
            for d in (1, 2):
                cells[f"{r}/{d}/lru"] = {
                    "axes": {"r": r, "d": d, "p": "lru"}, "index": index, "repeat": 0,
                    "summary": {"total_miss_rate": r / 10 + d / 100},
                }
                index += 1
        doc = {
            "schema_version": MATRIX_SCHEMA_VERSION, "kind": "matrix", "label": "three",
            "runner": "replay", "n_cells": len(cells), "cells": cells,
            "spec": {"axes": {"r": [0.5, 0.7], "d": [1, 2], "p": ["lru"]},
                     "figures": [{"x": "d", "metric": "total_miss_rate", "group_by": "p"}]},
        }
        figures = render_matrix_report(doc).split("<h2>Figures</h2>")[1]
        for cell in cells.values():
            r, d = cell["axes"]["r"], cell["axes"]["d"]
            value = _fmt(cell["summary"]["total_miss_rate"])
            assert f"lru, r={r} @ {d}: {value}</title>" in figures, (r, d)


class TestFaultAndTenantSections:
    def test_fault_table_for_faulted_cells(self):
        doc = run_matrix(load_spec("cluster-smoke"))
        html = render_matrix_report(doc, base_dir=REPO_ROOT)
        assert "Fault resilience" in html
        assert "link-partition" in html
        assert "<script" not in html.lower()
        assert "http://" not in html and "https://" not in html

    def test_tenant_tables_for_serve_cells(self):
        # A serve-style cell (multi_tenant section) renders fairness tables;
        # synthesize one cell to keep this test fast.
        doc = load_snapshot(REPO_ROOT / "MATRIX_smoke.json")
        import copy

        serve = load_snapshot(REPO_ROOT / "MATRIX_serve-baseline.json")
        doc = copy.deepcopy(doc)
        key = next(iter(doc["cells"]))
        doc["cells"][key]["multi_tenant"] = serve["cells"]["serve-baseline"]["multi_tenant"]
        html = render_matrix_report(doc, base_dir=REPO_ROOT)
        assert "Fairness / per-tenant frame times" in html
        assert "p99" in html


class TestWriteReport:
    def test_write_resolves_snapshots_against_cwd(self, smoke_doc, tmp_path, monkeypatch):
        # Relative [report] bench_snapshots names resolve against the
        # current directory, never against the output file's directory.
        monkeypatch.chdir(tmp_path)
        text = write_matrix_report(smoke_doc, tmp_path / "r.html").read_text()
        assert "not found" in text
        monkeypatch.chdir(REPO_ROOT)
        text = write_matrix_report(smoke_doc, tmp_path / "r2.html").read_text()
        assert "not found" not in text
        trends = text.split("Committed snapshot trends")[1]
        assert "<h3>MATRIX_bench-quick.json</h3>" in trends
        assert "<h3>MATRIX_serve-baseline.json</h3>" in trends
