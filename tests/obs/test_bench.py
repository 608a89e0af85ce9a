"""Tests for the default bench tier: the ``bench-cell`` runner and its
``suite.multi_tenant`` scenario through ``run_matrix`` — document shape,
round-trip, comparison."""

import copy
import json
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import pytest

from repro.experiments.gating import (
    MATRIX_SCHEMA_VERSION,
    compare_snapshots,
    count_regressions,
    flatten_snapshot,
    format_gate_rows,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.matrix import load_spec, run_matrix
from repro.experiments.runner import ExperimentSetup
from repro.obs import bench

from tests.runtime._seed_drivers import (
    SeedAppAwareOptimizer,
    SeedOptimizerConfig,
    seed_run_baseline,
)

_QUICK = load_spec("bench-quick")
_TINY = replace(
    _QUICK,
    base={**_QUICK.base, "blocks": 27, "scale": 0.03, "steps": 4},
    setup={**_QUICK.setup, "n_directions": 8},
)


def _faulted(profile, seed):
    return replace(_TINY, base={**_TINY.base, "faults": profile, "fault_seed": seed})


def _sim_only(doc):
    """Strip every machine-dependent (wall-clock) field from a snapshot."""
    d = copy.deepcopy(doc)
    d.pop("suite_wall_s")
    d.pop("workers")
    d.pop("profile", None)
    for run in d["cells"].values():
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
    return run_matrix(_TINY)


class TestRunBench:
    def test_document_shape(self, doc):
        assert doc["schema_version"] == MATRIX_SCHEMA_VERSION
        assert doc["kind"] == "matrix" and doc["runner"] == "bench-cell"
        assert doc["label"] == "bench-quick"
        assert doc["spec"]["base"]["blocks"] == 27
        assert set(doc["cells"]) == {
            "orbit/lru",
            "orbit/app-aware",
            "zoom/lru",
            "zoom/app-aware",
        }
        assert set(doc["suite"]) == {"multi_tenant"}

    def test_suite_multi_tenant_is_the_pinned_scenario(self, doc):
        # LoadGenConfig defaults except the [setup] multi_tenant shape and
        # the spec's grid/seed; degrees stay the loadgen default (5, 10).
        mt = doc["suite"]["multi_tenant"]
        config = mt["config"]
        assert config["n_sessions"] == mt["n_sessions"] == 4
        assert config["steps"] == 6
        assert config["degrees"] == [5.0, 10.0]
        assert (config["blocks"], config["scale"], config["seed"]) == (27, 0.03, 0)
        assert set(mt["workloads"]) == set(mt["frame_times"]["per_tenant"])
        assert set(mt["attribution"]["tenants"]) == set(mt["workloads"])

    def test_no_scenario_no_suite_section(self):
        setup = {k: v for k, v in _TINY.setup.items() if k != "multi_tenant"}
        plain = run_matrix(replace(_TINY, setup=setup, axes={**_TINY.axes, "workload": ("zoom",)}))
        assert "suite" not in plain

    def test_run_cells_have_required_sections(self, doc):
        for run in doc["cells"].values():
            assert {"summary", "hierarchy_stats", "derived", "metrics", "trace",
                    "phases"} <= set(run)
            assert 0.0 <= run["summary"]["total_miss_rate"] <= 1.0
            assert run["trace"]["ledger_agrees"] is True
            assert run["trace"]["n_dropped"] == 0

    def test_fetch_latency_percentiles_per_level(self, doc):
        lat = doc["cells"]["orbit/lru"]["derived"]["fetch_latency_seconds"]
        assert any("level=" in key for key in lat)
        for row in lat.values():
            assert row["p50"] <= row["p95"] <= row["p99"]

    def test_frame_time_histogram_present(self, doc):
        for run in doc["cells"].values():
            frame = run["derived"]["frame_time_seconds"]
            assert frame and all(row["count"] > 0 for row in frame.values())

    def test_prefetch_precision_recall_only_for_app_aware(self, doc):
        lru = doc["cells"]["orbit/lru"]["derived"]
        app = doc["cells"]["orbit/app-aware"]["derived"]
        assert lru["prefetch_precision"] is None
        if app["prefetch_precision"] is not None:
            assert 0.0 <= app["prefetch_precision"] <= 1.0
        if app["prefetch_recall"] is not None:
            assert 0.0 <= app["prefetch_recall"] <= 1.0

    def test_phase_breakdown_sim_vs_wall(self, doc):
        run = doc["cells"]["orbit/app-aware"]["phases"]
        assert "replay/fetch" in run["wall"]
        assert "io" in run["sim"] and "render" in run["sim"]

    def test_deterministic(self, doc):
        again = run_matrix(_TINY)
        assert json.dumps(_sim_only(doc), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_wall_clock_fields_present(self, doc):
        assert doc["suite_wall_s"] > 0
        assert doc["workers"] == 1
        assert all(run["wall_s"] > 0 for run in doc["cells"].values())

    def test_scalar_engine_sim_identical(self, doc, monkeypatch):
        _per_block_cells(monkeypatch)
        scalar = run_matrix(_TINY)
        a, b = _sim_only(doc), _sim_only(scalar)
        # Histogram sum/mean (observe_many associates value*n, a last-bit
        # float difference) legitimately differ; everything else must not.
        for d in (a, b):
            for run in d["cells"].values():
                for hist in run["metrics"]["histograms"].values():
                    hist.pop("sum")
                    hist.pop("mean")
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_matrix(_TINY, workers=0)


class TestParallelAndProfile:
    def test_workers_match_serial(self, doc):
        parallel = run_matrix(_TINY, workers=2)
        assert parallel["workers"] == 2
        a, b = _sim_only(doc), _sim_only(parallel)
        assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "profile.json"
        d = run_matrix(_TINY, profile=out)
        assert d["profile"] == {"cell": "orbit/app-aware", "path": str(out)}
        trace = json.loads(out.read_text(encoding="utf-8"))
        events = trace["traceEvents"]
        assert events and all(e["ph"] == "X" for e in events)
        names = {e["name"] for e in events}
        assert "replay" in names and "fetch" in names


class TestWriteLoad:
    def test_round_trip(self, doc, tmp_path):
        path = write_snapshot(doc, tmp_path, label="test")
        assert path.name == "MATRIX_test.json"
        loaded = load_snapshot(path)
        assert loaded["cells"].keys() == doc["cells"].keys()
        assert loaded["suite"] == json.loads(json.dumps(doc["suite"]))

    def test_label_sanitised(self, doc, tmp_path):
        assert write_snapshot(doc, tmp_path, label="a/b").name == "MATRIX_a-b.json"

    def test_schema_version_mismatch_rejected(self, doc, tmp_path):
        bad = dict(doc, schema_version=MATRIX_SCHEMA_VERSION + 1)
        path = tmp_path / "MATRIX_bad.json"
        path.write_text(json.dumps(bad), encoding="utf-8")
        with pytest.raises(ValueError, match="schema_version"):
            load_snapshot(path)

    def test_records_the_spec_it_ran(self, doc):
        assert doc["spec"] == _TINY.to_dict()
        assert "config" not in doc


class TestCompare:
    def test_self_compare_is_clean(self, doc):
        rows = compare_snapshots(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_only_sim_metrics_compared(self, doc):
        names = flatten_snapshot(doc).keys()
        assert not any("wall" in n for n in names)
        assert any(".total_time_s" in n for n in names)
        assert any("fetch_latency_seconds" in n and ".p95" in n for n in names)

    def test_regression_detected(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_snapshots(doc, worse, threshold=0.10)
        bad = [r for r in rows if r["status"] == "regression"]
        assert [r["metric"] for r in bad] == ["orbit/lru.total_time_s"]

    def test_improvement_not_a_regression(self, doc):
        better = copy.deepcopy(doc)
        better["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 0.5
        rows = compare_snapshots(doc, better, threshold=0.10)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "improved"

    def test_higher_is_better_direction(self, doc):
        base = copy.deepcopy(doc)
        base["cells"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.8
        worse = copy.deepcopy(base)
        worse["cells"]["orbit/app-aware"]["derived"]["prefetch_precision"] = 0.4
        rows = compare_snapshots(base, worse, threshold=0.10)
        row = next(
            r for r in rows if r["metric"] == "orbit/app-aware.prefetch_precision"
        )
        assert row["status"] == "regression"

    def test_missing_metric_reported_not_regressed(self, doc):
        # A metric only the candidate has is informational.
        partial = copy.deepcopy(doc)
        del partial["cells"]["orbit/lru"]["summary"]["total_time_s"]
        rows = compare_snapshots(partial, doc)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "missing"
        assert count_regressions(rows) == 0

    def test_dropped_metric_regresses(self, doc):
        # A metric the baseline has and the candidate lacks fails the gate,
        # and so does a whole lost suite section.
        partial = copy.deepcopy(doc)
        del partial["cells"]["orbit/lru"]["summary"]["total_time_s"]
        rows = compare_snapshots(doc, partial)
        row = next(r for r in rows if r["metric"] == "orbit/lru.total_time_s")
        assert row["status"] == "dropped" and row["new"] is None
        assert count_regressions(rows) == 1
        no_suite = copy.deepcopy(doc)
        del no_suite["suite"]
        rows = compare_snapshots(doc, no_suite)
        assert count_regressions(rows) == 18
        assert all(
            r["metric"].startswith("multi_tenant.")
            for r in rows if r["status"] == "dropped"
        )

    def test_bad_threshold_rejected(self, doc):
        with pytest.raises(ValueError):
            compare_snapshots(doc, doc, threshold=-0.1)

    def test_format_gate_rows(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        text = format_gate_rows(compare_snapshots(doc, worse))
        assert "orbit/lru.total_time_s" in text
        assert "1 regression(s)" in text
        verbose = format_gate_rows(compare_snapshots(doc, doc), verbose=True)
        assert "0 regression(s)" in verbose

    def test_multi_tenant_gates_one_way(self, doc):
        metrics = flatten_snapshot(doc)
        assert metrics["multi_tenant.fairness_jain"][1].mode == "absolute_drop"
        assert metrics["multi_tenant.cross_evictions"][1].mode == "absolute_increase"
        assert metrics["multi_tenant.pooled.p50"][1].mode == "relative"


class TestFaultedBench:
    @pytest.fixture(scope="class")
    def faulty(self):
        return run_matrix(_faulted("lossy", 7))

    def test_runs_gain_a_faults_section(self, faulty):
        assert faulty["spec"]["base"]["faults"] == "lossy"
        assert faulty["spec"]["base"]["fault_seed"] == 7
        for run in faulty["cells"].values():
            section = run["faults"]
            assert section["profile"] == "lossy"
            assert section["seed"] == 7
            assert {"errors", "retries", "timeouts", "dropped_blocks"} <= \
                set(section["stats"])
            assert {"faults", "retries", "degraded", "fault_time_s"} <= \
                set(section["trace"])
        # A lossy hdd at seed 7 injects *something* somewhere in the suite.
        assert any(
            run["faults"]["stats"]["errors"] > 0 for run in faulty["cells"].values()
        )

    def test_fault_free_doc_has_no_faults_section(self, doc):
        assert doc["spec"]["base"]["faults"] == "none"
        assert all("faults" not in run for run in doc["cells"].values())

    def test_faulted_bench_deterministic(self, faulty):
        again = run_matrix(_faulted("lossy", 7))
        assert json.dumps(_sim_only(faulty), sort_keys=True) == \
            json.dumps(_sim_only(again), sort_keys=True)

    def test_engines_identical_under_faults(self, faulty, monkeypatch):
        _per_block_cells(monkeypatch)
        scalar = run_matrix(_faulted("lossy", 7))
        for key, run in faulty["cells"].items():
            assert scalar["cells"][key]["faults"] == run["faults"]
            assert scalar["cells"][key]["summary"] == run["summary"]

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="faults must be one of"):
            run_matrix(_faulted("gremlins", 0))
