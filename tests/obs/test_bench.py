"""Tests for the `repro bench` harness: schema, round-trip, comparison."""

import copy
import json
from functools import partial
from types import SimpleNamespace

import pytest

from repro.experiments.runner import ExperimentSetup
from repro.obs import bench
from repro.obs.bench import (
    BENCH_SCHEMA_VERSION,
    BenchConfig,
    comparable_metrics,
    compare_bench,
    format_comparison,
    load_bench,
    run_bench,
    write_bench,
)

from tests.runtime._seed_drivers import (
    SeedAppAwareOptimizer,
    SeedOptimizerConfig,
    seed_run_baseline,
)

_TINY = BenchConfig(blocks=27, scale=0.03, steps=4, n_directions=8, n_distances=1)


def _sim_only(doc):
    """Strip every machine-dependent (wall-clock) field from a snapshot."""
    d = copy.deepcopy(doc)
    d.pop("phases")
    d.pop("suite_wall_s")
    d.pop("workers")
    d.pop("profile", None)
    for run in d["runs"].values():
        run["phases"].pop("wall")
        run.pop("wall_s")
    return d


def _seed_scalar_optimizer(setup, config=None):
    seed = SeedAppAwareOptimizer(
        setup.visible_table, setup.importance_table, SeedOptimizerConfig()
    )
    return SimpleNamespace(run=partial(seed.run, engine="scalar"))


def _per_block_cells(monkeypatch):
    """Replay every suite cell through the seed drivers' per-block loop
    (one ``hierarchy.fetch`` per block) instead of the runtime recipes."""
    monkeypatch.setattr(bench, "run_baseline", partial(seed_run_baseline, engine="scalar"))
    monkeypatch.setattr(ExperimentSetup, "optimizer", _seed_scalar_optimizer)


@pytest.fixture(scope="module")
def doc():
    return run_bench(config=_TINY, label="test")


class TestRunBench:
    def test_document_shape(self, doc):
        assert doc["schema_version"] == BENCH_SCHEMA_VERSION
        assert doc["label"] == "test"
        assert doc["config"]["blocks"] == 27
        assert set(doc["runs"]) == {
            "orbit/lru",
            "orbit/app-aware",
            "zoom/lru",
            "zoom/app-aware",
        }

    def test_run_cells_have_required_sections(self, doc):
        for run in doc["runs"].values():
            assert {"summary", "hierarchy_stats", "derived", "metrics", "trace",
                    "phases"} <= set(run)
            assert 0.0 <= run["summary"]["total_miss_rate"] <= 1.0
            assert run["trace"]["ledger_agrees"] is True
            assert run["trace"]["n_dropped"] == 0

    def test_fetch_latency_percentiles_per_level(self, doc):
        lat = doc["runs"]["orbit/lru"]["derived"]["fetch_latency_seconds"]
        assert any("level=" in key for key in lat)
        for row in lat.values():
            assert row["p50"] <= row["p95"] <= row["p99"]

    def test_frame_time_histogram_present(self, doc):
        for run in doc["runs"].values():
            frame = run["derived"]["frame_time_seconds"]
            assert frame and all(row["count"] > 0 for row in frame.values())

    def test_prefetch_precision_recall_only_for_app_aware(self, doc):
        lru = doc["runs"]["orbit/lru"]["derived"]
        app = doc["runs"]["orbit/app-aware"]["derived"]
        assert lru["prefetch_precision"] is None
        if app["prefetch_precision"] is not None:
            assert 0.0 <= app["prefetch_precision"] <= 1.0
        if app["prefetch_recall"] is not None:
            assert 0.0 <= app["prefetch_recall"] <= 1.0

    def test_phase_breakdown_sim_vs_wall(self, doc):
        suite = doc["phases"]
        assert "bench" in suite["wall"] and "bench/setup" in suite["wall"]
        run = doc["runs"]["orbit/app-aware"]["phases"]
        assert "replay/fetch" in run["wall"]
        assert "io" in run["sim"] and "render" in run["sim"]

    def test_deterministic(self, doc):
        again = run_bench(config=_TINY, label="test")
        assert json.dumps(_sim_only(doc), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_wall_clock_fields_present(self, doc):
        assert doc["suite_wall_s"] > 0
        assert doc["workers"] == 1
        assert all(run["wall_s"] > 0 for run in doc["runs"].values())

    def test_scalar_engine_sim_identical(self, doc, monkeypatch):
        _per_block_cells(monkeypatch)
        scalar = run_bench(config=_TINY, label="test")
        a, b = _sim_only(doc), _sim_only(scalar)
        # Histogram sum/mean (observe_many associates value*n, a last-bit
        # float difference) legitimately differ; everything else must not.
        for d in (a, b):
            for run in d["runs"].values():
                for hist in run["metrics"]["histograms"].values():
                    hist.pop("sum")
                    hist.pop("mean")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_bench(config=_TINY, workers=0)


class TestParallelAndProfile:
    def test_workers_match_serial(self, doc):
        parallel = run_bench(config=_TINY, label="test", workers=2)
        assert parallel["workers"] == 2
        a, b = _sim_only(doc), _sim_only(parallel)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "profile.json"
        d = run_bench(config=_TINY, label="test", profile_path=out)
        assert d["profile"]["cell"] == "orbit/app-aware"
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "replay" in names and "fetch" in names


class TestWriteLoad:
    def test_round_trip(self, doc, tmp_path):
        path = write_bench(doc, tmp_path)
        assert path.name == "BENCH_test.json"
        assert load_bench(path)["runs"].keys() == doc["runs"].keys()

    def test_label_sanitised(self, doc, tmp_path):
        doc2 = dict(doc, label="a/b")
        assert write_bench(doc2, tmp_path).name == "BENCH_a-b.json"

    def test_schema_version_mismatch_rejected(self, doc, tmp_path):
        bad = dict(doc, schema_version=BENCH_SCHEMA_VERSION + 1)
        path = tmp_path / "BENCH_bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            load_bench(path)


class TestCompare:
    def test_self_compare_is_clean(self, doc):
        rows = compare_bench(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_only_sim_metrics_compared(self, doc):
        names = comparable_metrics(doc).keys()
        assert not any("wall" in n for n in names)
        assert any(".total_time_s" in n for n in names)
        assert any("fetch_latency_seconds" in n and ".p95" in n for n in names)

    def test_regression_detected(self, doc):
        worse = copy.deepcopy(doc)
        worse["runs"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_bench(doc, worse, threshold=0.10)
        bad = [r for r in rows if r["status"] == "regression"]
        assert [r["metric"] for r in bad] == ["orbit/lru.total_time_s"]

    def test_improvement_not_a_regression(self, doc):
        better = copy.deepcopy(doc)
        better["runs"]["orbit/lru"]["summary"]["total_time_s"] *= 0.5
        rows = compare_bench(doc, better, threshold=0.10)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "improved"

    def test_higher_is_better_direction(self, doc):
        base = copy.deepcopy(doc)
        base["runs"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.8
        worse = copy.deepcopy(base)
        worse["runs"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.4
        rows = compare_bench(base, worse, threshold=0.10)
        row = next(
            r for r in rows if r["metric"] == "orbit/app-aware.prefetch_precision"
        )
        assert row["status"] == "regression"

    def test_missing_metric_reported_not_regressed(self, doc):
        partial = copy.deepcopy(doc)
        del partial["runs"]["orbit/lru"]["summary"]["total_time_s"]
        rows = compare_bench(doc, partial)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "missing"
        assert not any(r["status"] == "regression" for r in rows)

    def test_bad_threshold_rejected(self, doc):
        with pytest.raises(ValueError):
            compare_bench(doc, doc, threshold=-0.1)

    def test_format_comparison(self, doc):
        worse = copy.deepcopy(doc)
        worse["runs"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        text = format_comparison(compare_bench(doc, worse))
        assert "orbit/lru.total_time_s" in text
        assert "1 regression(s)" in text
        verbose = format_comparison(compare_bench(doc, doc), verbose=True)
        assert "0 regression(s)" in verbose


class TestFaultedBench:
    @pytest.fixture(scope="class")
    def faulty(self):
        return run_bench(config=_TINY, label="chaos", faults="lossy", fault_seed=7)

    def test_runs_gain_a_faults_section(self, faulty):
        assert faulty["config"]["faults"] == "lossy"
        assert faulty["config"]["fault_seed"] == 7
        for run in faulty["runs"].values():
            section = run["faults"]
            assert section["profile"] == "lossy"
            assert section["seed"] == 7
            assert {"errors", "retries", "timeouts", "dropped_blocks"} <= \
                set(section["stats"])
            assert {"faults", "retries", "degraded", "fault_time_s"} <= \
                set(section["trace"])
        # A lossy hdd at seed 7 injects *something* somewhere in the suite.
        assert any(
            run["faults"]["stats"]["errors"] > 0 for run in faulty["runs"].values()
        )

    def test_fault_free_doc_has_no_faults_section(self, doc):
        assert doc["config"]["faults"] == "none"
        assert all("faults" not in run for run in doc["runs"].values())

    def test_faulted_bench_deterministic(self, faulty):
        again = run_bench(config=_TINY, label="chaos", faults="lossy", fault_seed=7)
        assert json.dumps(_sim_only(faulty), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_engines_identical_under_faults(self, faulty, monkeypatch):
        _per_block_cells(monkeypatch)
        scalar = run_bench(config=_TINY, label="chaos", faults="lossy", fault_seed=7)
        for key, run in faulty["runs"].items():
            assert scalar["runs"][key]["faults"] == run["faults"]
            assert scalar["runs"][key]["summary"] == run["summary"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            run_bench(config=_TINY, faults="gremlins")
