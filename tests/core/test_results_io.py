"""Tests for run-result serialization."""

import dataclasses
import json

import pytest

from repro.core.metrics import RunResult, StepMetrics
from repro.core.results_io import load_run_json, run_to_dict, save_run_json, save_steps_csv
from repro.storage.stats import CacheStats, HierarchyStats


@pytest.fixture()
def result():
    steps = [
        StepMetrics(step=0, n_visible=5, n_fast_misses=2, io_time_s=0.5,
                    lookup_time_s=0.01, prefetch_time_s=0.2, render_time_s=1.0,
                    n_prefetched=3),
        StepMetrics(step=1, n_visible=6, n_fast_misses=0, io_time_s=0.1,
                    render_time_s=1.1),
    ]
    stats = HierarchyStats(levels={"dram": CacheStats(hits=9, misses=2)})
    return RunResult("demo", "app-aware", True, steps, stats, extras={"sigma": 2.0})


class TestRunToDict:
    def test_structure(self, result):
        d = run_to_dict(result)
        assert d["name"] == "demo"
        assert d["policy"] == "app-aware"
        assert d["summary"]["sigma"] == 2.0
        assert d["hierarchy"]["levels"]["dram"]["hits"] == 9
        assert len(d["steps"]) == 2
        assert d["steps"][0]["n_prefetched"] == 3

    def test_json_serializable(self, result):
        json.dumps(run_to_dict(result))


class TestSaveLoadJson:
    def test_roundtrip(self, result, tmp_path):
        p = save_run_json(result, tmp_path / "run.json")
        loaded = load_run_json(p)
        assert loaded == run_to_dict(result)

    def test_human_readable(self, result, tmp_path):
        p = save_run_json(result, tmp_path / "run.json")
        text = p.read_text()
        assert "\n" in text  # indented
        assert '"policy"' in text

    def test_creates_the_directory(self, result, tmp_path):
        p = save_run_json(result, tmp_path / "new" / "dir" / "run.json")
        assert load_run_json(p) == run_to_dict(result)


class TestStepsCsv:
    def test_rows_and_header(self, result, tmp_path):
        p = save_steps_csv(result, tmp_path / "steps.csv")
        lines = p.read_text().strip().splitlines()
        assert len(lines) == 3
        assert lines[0].startswith("step,n_visible,n_fast_misses")
        first = lines[1].split(",")
        assert first[0] == "0" and first[1] == "5"

    def test_creates_the_directory(self, result, tmp_path):
        p = save_steps_csv(result, tmp_path / "new" / "dir" / "steps.csv")
        assert len(p.read_text().strip().splitlines()) == 3

    def test_real_run_exports(self, tmp_path):
        """End-to-end: export an actual replay."""
        from repro.camera.path import random_path
        from repro.camera.sampling import SamplingConfig
        from repro.experiments.runner import ExperimentSetup, compare_policies

        setup = ExperimentSetup.for_dataset(
            "3d_ball", target_n_blocks=64, scale=0.04,
            sampling=SamplingConfig(n_directions=16, n_distances=1),
        )
        path = random_path(n_positions=6, degree_change=(5, 10), distance=2.5,
                           view_angle_deg=setup.view_angle_deg, seed=0)
        results = compare_policies(setup, path)
        p = save_run_json(results["opt"], tmp_path / "opt.json")
        loaded = load_run_json(p)
        assert loaded["summary"]["total_miss_rate"] == results["opt"].total_miss_rate
        csv_path = save_steps_csv(results["opt"], tmp_path / "opt.csv")
        assert len(csv_path.read_text().splitlines()) == 7


class TestDataclassDrivenFields:
    """Step rows are derived from dataclasses.fields, not a column list."""

    def test_every_stepmetrics_field_is_serialised(self, result):
        d = run_to_dict(result)
        expected = {f.name for f in dataclasses.fields(StepMetrics)}
        assert set(d["steps"][0]) == expected

    def test_extras_are_in_the_document(self, result):
        assert run_to_dict(result)["extras"] == {"sigma": 2.0}
