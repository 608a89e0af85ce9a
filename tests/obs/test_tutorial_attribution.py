"""Executes the TUTORIAL's "Explaining a slow frame" code blocks.

Mirrors docs/TUTORIAL.md §13 line for line (smaller grid/steps for
speed); if an API there drifts, this file breaks with it.
"""

import pytest

from repro.camera.path import random_path
from repro.core.pipeline import PipelineContext
from repro.experiments import fresh_hierarchy
from repro.obs.attribution import attribute_run
from repro.runtime import run_baseline
from repro.storage import EvictionLineage
from repro.trace import Tracer


@pytest.fixture(scope="module")
def walkthrough(small_grid):
    path = random_path(n_positions=6, degree_change=(5.0, 10.0),
                       distance=2.5, view_angle_deg=10.0, seed=11)
    return small_grid, PipelineContext.create(path, small_grid)


class TestTutorialAttributionWalkthrough:
    def test_attribute_run_block(self, walkthrough):
        grid, context = walkthrough

        tracer = Tracer()
        hierarchy = fresh_hierarchy(grid)
        result = run_baseline(context, hierarchy, tracer=tracer)

        report = attribute_run(tracer.events(), result.steps,
                               drop_stats=tracer.drop_stats())
        assert report.reconciled                 # float ==, no tolerance
        worst = max(report.frames, key=lambda f: f.frame_time_s)
        assert dict(worst.components)            # e.g. {"miss_transfer:hdd": ...}
        assert not report.incomplete

    def test_eviction_lineage_block(self, walkthrough):
        grid, context = walkthrough

        lineage = EvictionLineage(premature_window=8)
        hierarchy2 = fresh_hierarchy(grid)
        hierarchy2.set_forensics(lineage)
        run_baseline(context, hierarchy2)

        assert lineage.n_re_misses >= 0
        assert lineage.n_premature <= lineage.n_re_misses
        top = lineage.top_premature(10)
        assert len(top) <= 10
        for entry in top:
            assert entry["count"] >= 1

    def test_bench_analyze_cli_block(self, tmp_path, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(tmp_path)
        assert main(["bench", "--quick", "--label", "local",
                     "--out", str(tmp_path)]) == 0
        assert main(["analyze", str(tmp_path / "MATRIX_local.json"),
                     "--out", str(tmp_path / "report.html"),
                     "--prom", str(tmp_path / "metrics.prom")]) == 0
        assert (tmp_path / "report.html").read_text(encoding="utf-8").startswith(
            "<!DOCTYPE html>")
        assert "# TYPE" in (tmp_path / "metrics.prom").read_text(encoding="utf-8")
