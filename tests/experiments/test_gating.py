"""Tests for the one snapshot gate.

Every committed snapshot — each bench tier, the serve scenario and the
matrix smoke run — is a ``MATRIX_*.json`` document written, loaded and
compared through this one module; the pinning tests here assert the
verdicts on the committed baselines through ``compare_snapshots``.
"""

import copy
import json
from pathlib import Path

import pytest

from repro.experiments.gating import (
    GateRule,
    WALL_THRESHOLD_FACTOR,
    compare_metric_sets,
    compare_snapshots,
    count_regressions,
    flatten_cluster_section,
    flatten_fullscale_section,
    flatten_multi_tenant,
    flatten_run_summary,
    flatten_snapshot,
    format_gate_rows,
    load_snapshot,
    write_snapshot,
)

REPO_ROOT = Path(__file__).resolve().parents[2]


def _load(name):
    return json.loads((REPO_ROOT / name).read_text())


class TestGateRule:
    def test_defaults(self):
        rule = GateRule("lower")
        assert rule.mode == "relative" and rule.scale == 1.0

    def test_bad_direction_rejected(self):
        with pytest.raises(ValueError):
            GateRule("sideways")

    def test_bad_mode_rejected(self):
        with pytest.raises(ValueError):
            GateRule("lower", mode="fuzzy")


class TestCompareMetricSets:
    def test_negative_threshold_rejected(self):
        with pytest.raises(ValueError):
            compare_metric_sets({}, {}, threshold=-0.1)

    def test_relative_regression_and_improvement(self):
        old = {"m": (1.0, GateRule("lower"))}
        assert compare_metric_sets(old, {"m": (1.2, GateRule("lower"))})[0]["status"] == "regression"
        assert compare_metric_sets(old, {"m": (0.5, GateRule("lower"))})[0]["status"] == "improved"
        assert compare_metric_sets(old, {"m": (1.05, GateRule("lower"))})[0]["status"] == "ok"

    def test_higher_direction_flips(self):
        old = {"m": (1.0, GateRule("higher"))}
        assert compare_metric_sets(old, {"m": (0.5, GateRule("higher"))})[0]["status"] == "regression"
        assert compare_metric_sets(old, {"m": (2.0, GateRule("higher"))})[0]["status"] == "improved"

    def test_absolute_increase_mode(self):
        # any increase at all regresses, regardless of the relative threshold
        old = {"m": (0.0, GateRule("lower", mode="absolute_increase"))}
        new = {"m": (1.0, GateRule("lower", mode="absolute_increase"))}
        assert compare_metric_sets(old, new)[0]["status"] == "regression"
        assert compare_metric_sets(old, old)[0]["status"] == "ok"

    def test_absolute_drop_mode(self):
        # drop limit = threshold * scale = 0.2 * 2.0 = 0.4 absolute units
        rule = GateRule("higher", mode="absolute_drop", scale=2.0)
        old = {"m": (0.9, rule)}
        assert compare_metric_sets(old, {"m": (0.6, rule)}, threshold=0.2)[0]["status"] == "ok"
        assert compare_metric_sets(old, {"m": (0.3, rule)}, threshold=0.2)[0]["status"] == "regression"

    def test_strict_zero_mode(self):
        # A metric that was exactly 0 must stay 0: the relative mode divides
        # by abs_floor (1e-12), so any move off 0 regresses.
        rule = GateRule("lower")
        old = {"m": (0.0, rule)}
        row = compare_metric_sets(old, {"m": (0.001, rule)})[0]
        assert row["status"] == "regression" and row["change"] > 1e6
        assert compare_metric_sets(old, {"m": (0.0, rule)})[0]["status"] == "ok"

    def test_missing_metrics_reported_both_ways(self):
        # Only the baseline's: dropped, a regression.  Only the
        # candidate's: missing, informational.
        rows = compare_metric_sets(
            {"gone": (1.0, GateRule("lower"))},
            {"new": (1.0, GateRule("lower"))},
        )
        statuses = {r["metric"]: r["status"] for r in rows}
        assert statuses == {"gone": "dropped", "new": "missing"}
        by_name = {r["metric"]: r for r in rows}
        assert by_name["gone"]["old"] == 1.0 and by_name["gone"]["new"] is None
        assert by_name["new"]["old"] is None and by_name["new"]["new"] == 1.0
        assert count_regressions(rows) == 1
        assert "1 regression(s) (1 dropped)" in format_gate_rows(rows)

    def test_format_hides_ok_rows_by_default(self):
        rows = compare_metric_sets(
            {"m": (1.0, GateRule("lower"))}, {"m": (1.0, GateRule("lower"))}
        )
        assert "hidden" in format_gate_rows(rows)
        assert "m" in format_gate_rows(rows, verbose=True)


class TestFlatteners:
    def test_run_summary_on_committed_bench(self):
        doc = _load("MATRIX_bench-quick.json")
        run = doc["cells"]["orbit/lru"]
        metrics = flatten_run_summary(run, "orbit/lru")
        assert "orbit/lru.total_miss_rate" in metrics
        assert "orbit/lru.trace.n_dropped" in metrics
        assert not any("wall" in name for name in metrics)
        # wall metrics only appear when asked for, at the widened threshold
        walled = flatten_run_summary(run, "x", wall_metrics=("wall_s",))
        assert walled["x.wall_s"][1].scale == WALL_THRESHOLD_FACTOR

    def test_multi_tenant_on_committed_serve(self):
        mt = _load("MATRIX_serve-baseline.json")["cells"]["serve-baseline"]["multi_tenant"]
        metrics = flatten_multi_tenant(mt)
        modes = {name: rule.mode for name, (_value, rule) in metrics.items()}
        assert modes.pop("multi_tenant.fairness_jain") == "absolute_drop"
        assert modes.pop("multi_tenant.cross_evictions") == "absolute_increase"
        # percentiles and makespan: relative, everywhere
        assert modes and set(modes.values()) == {"relative"}
        assert {"multi_tenant.makespan_s", "multi_tenant.pooled.p50",
                "multi_tenant.pooled.p95", "multi_tenant.pooled.p99"} <= set(modes)

    def test_cluster_section_on_committed_snapshot(self):
        section = _load("MATRIX_cluster-smoke.json")["cells"]["orbit/K4/partition"]["cluster"]
        metrics = flatten_cluster_section(section)
        assert "cluster.split_bytes.peer" in metrics
        assert metrics["cluster.locality_score"][1].direction == "higher"

    def test_fullscale_section_on_committed_snapshot(self):
        section = _load("MATRIX_fullscale-smoke.json")["suite"]["fullscale"]
        metrics = flatten_fullscale_section(section)
        assert set(metrics) == {
            "fullscale.importance_wall_s", "fullscale.table_build_wall_s",
            "fullscale.peak_rss_bytes",
        }
        assert all(rule.scale == WALL_THRESHOLD_FACTOR for _v, rule in metrics.values())


class TestBenchVerdictPinning:
    """The default bench tier's committed baseline through compare_snapshots."""

    @pytest.fixture(scope="class")
    def baseline(self):
        return _load("MATRIX_bench-quick.json")

    def test_self_compare_all_ok(self, baseline):
        rows = compare_snapshots(baseline, baseline)
        assert rows and all(r["status"] == "ok" for r in rows)
        # canonical row vocabulary
        assert all("change" in r for r in rows)

    def test_perturbed_miss_rate_regresses(self, baseline):
        worse = copy.deepcopy(baseline)
        worse["cells"]["orbit/lru"]["summary"]["total_miss_rate"] *= 1.5
        rows = compare_snapshots(baseline, worse)
        bad = [r for r in rows if r["status"] == "regression"]
        assert [r["metric"] for r in bad] == ["orbit/lru.total_miss_rate"]

    def test_improvement_reported(self, baseline):
        better = copy.deepcopy(baseline)
        better["cells"]["orbit/lru"]["summary"]["io_time_s"] *= 0.5
        rows = compare_snapshots(baseline, better)
        assert any(
            r["metric"] == "orbit/lru.io_time_s" and r["status"] == "improved"
            for r in rows
        )

    def test_cluster_tier_self_compare(self):
        doc = _load("MATRIX_cluster-smoke.json")
        rows = compare_snapshots(doc, doc)
        assert all(r["status"] == "ok" for r in rows)
        assert any(r["metric"].startswith("orbit/K4/partition.cluster.") for r in rows)

    def test_multi_tenant_fairness_and_cross_evictions_are_absolute(self, baseline):
        # Fairness regresses on an absolute drop past the threshold: 0.08
        # off ~0.66 is a 12 % relative drop but passes a 0.10 gate.  Cross-
        # tenant evictions regress on any increase, even 2 on top of 50.
        old = copy.deepcopy(baseline)
        old["suite"]["multi_tenant"]["cross_evictions"] = 50
        new = copy.deepcopy(old)
        new["suite"]["multi_tenant"]["cross_evictions"] = 52
        new["suite"]["multi_tenant"]["frame_times"]["fairness_jain"] -= 0.08
        rows = {r["metric"]: r["status"] for r in compare_snapshots(old, new)}
        assert rows["multi_tenant.fairness_jain"] == "ok"
        assert rows["multi_tenant.cross_evictions"] == "regression"
        new["suite"]["multi_tenant"]["frame_times"]["fairness_jain"] -= 0.05
        rows = {r["metric"]: r["status"] for r in compare_snapshots(old, new)}
        assert rows["multi_tenant.fairness_jain"] == "regression"


class TestServeVerdictPinning:
    """The committed serve baseline through compare_snapshots."""

    PREFIX = "serve-baseline.multi_tenant."

    @pytest.fixture(scope="class")
    def baseline(self):
        return _load("MATRIX_serve-baseline.json")

    @staticmethod
    def _mt(doc):
        return doc["cells"]["serve-baseline"]["multi_tenant"]

    def test_self_compare_all_ok(self, baseline):
        rows = compare_snapshots(baseline, baseline)
        assert rows and all(r["status"] == "ok" for r in rows)
        # canonical vocabulary, <cell>.multi_tenant.* names, pooled p50/p95/p99
        assert all("change" in r for r in rows)
        names = {r["metric"] for r in rows}
        assert len(names) == 30
        assert all(name.startswith(self.PREFIX) for name in names)
        assert {f"{self.PREFIX}{n}" for n in (
            "pooled.p50", "pooled.p95", "pooled.p99", "fairness_jain",
        )} <= names

    def test_cross_evictions_gate_is_absolute(self, baseline):
        worse = copy.deepcopy(baseline)
        self._mt(worse)["cross_evictions"] += 1
        rows = compare_snapshots(baseline, worse)
        assert any(
            r["metric"] == f"{self.PREFIX}cross_evictions" and r["status"] == "regression"
            for r in rows
        )

    def test_fairness_drop_regresses(self, baseline):
        worse = copy.deepcopy(baseline)
        self._mt(worse)["frame_times"]["fairness_jain"] -= 0.3
        rows = compare_snapshots(baseline, worse, threshold=0.25)
        fairness = [r for r in rows if r["metric"] == f"{self.PREFIX}fairness_jain"]
        assert fairness and fairness[0]["status"] == "regression"

    def test_missing_tenant_rows_are_schema_only(self, baseline):
        # Tenant rows the baseline lacks (a candidate with one more
        # tenant) are informational.
        fewer = copy.deepcopy(baseline)
        per_tenant = self._mt(fewer)["frame_times"]["per_tenant"]
        extra = sorted(per_tenant)[0]
        per_tenant.pop(extra)
        rows = compare_snapshots(fewer, baseline)
        missing = [r for r in rows if r["status"] == "missing"]
        assert len(missing) == 3 and all(
            r["metric"].startswith(f"{self.PREFIX}{extra}.") and r["old"] is None
            for r in missing
        )
        assert count_regressions(rows) == 0

    def test_dropped_tenant_rows_regress(self, baseline):
        # ...while a candidate that lost a tenant's rows fails the gate.
        fewer = copy.deepcopy(baseline)
        per_tenant = self._mt(fewer)["frame_times"]["per_tenant"]
        lost = sorted(per_tenant)[0]
        per_tenant.pop(lost)
        rows = compare_snapshots(baseline, fewer)
        dropped = [r for r in rows if r["status"] == "dropped"]
        assert len(dropped) == 3 and all(
            r["metric"].startswith(f"{self.PREFIX}{lost}.") and r["new"] is None
            for r in dropped
        )
        assert count_regressions(rows) == 3


#: Every committed snapshot and the runner that wrote it.
COMMITTED_SNAPSHOTS = {
    "MATRIX_bench-quick.json": "bench-cell",
    "MATRIX_cluster-smoke.json": "replay",
    "MATRIX_fullscale.json": "fullscale-cell",
    "MATRIX_fullscale-smoke.json": "fullscale-cell",
    "MATRIX_serve-baseline.json": "serve",
    "MATRIX_smoke.json": "replay",
}

#: Case ids that are not the file name: the serve scenario's snapshot keeps the
#: id it had as ``SERVE_baseline.json``, so its case is not named like
#: ``MATRIX_smoke.json``'s up to the ninth character.
SNAPSHOT_CASE_IDS = {"MATRIX_serve-baseline.json": "SERVE_baseline"}


class TestOneGate:
    @pytest.mark.parametrize(
        "name",
        [pytest.param(n, id=SNAPSHOT_CASE_IDS.get(n, n)) for n in sorted(COMMITTED_SNAPSHOTS)],
    )
    def test_committed_snapshot_loads_and_compares_clean(self, name):
        doc = load_snapshot(REPO_ROOT / name)
        assert doc["runner"] == COMMITTED_SNAPSHOTS[name]
        rows = compare_snapshots(doc, doc)
        assert rows and all(r["status"] == "ok" for r in rows)
        assert "0 regression(s)" in format_gate_rows(rows)

    def test_two_kinds_are_refused_naming_both(self):
        # Different runners...
        with pytest.raises(ValueError, match="'serve'-runner document with a 'bench-cell'"):
            compare_snapshots(
                _load("MATRIX_serve-baseline.json"), _load("MATRIX_bench-quick.json")
            )
        with pytest.raises(ValueError, match="'replay'-runner document with a 'fullscale-cell'"):
            compare_snapshots(
                _load("MATRIX_cluster-smoke.json"), _load("MATRIX_fullscale.json")
            )
        # ...or one runner over different axes.
        with pytest.raises(ValueError, match="different axes"):
            compare_snapshots(_load("MATRIX_cluster-smoke.json"), _load("MATRIX_smoke.json"))

    def test_loader_checks_the_expected_kind(self, tmp_path):
        legacy = tmp_path / "BENCH_old.json"
        legacy.write_text(json.dumps({"schema_version": 1, "runs": {}}))
        with pytest.raises(ValueError, match="not a matrix document"):
            load_snapshot(legacy)
        assert load_snapshot(REPO_ROOT / "MATRIX_smoke.json")["kind"] == "matrix"

    def test_unknown_documents_rejected(self, tmp_path):
        path = tmp_path / "x.json"
        for bad in ({"schema_version": 1}, [1, 2], {"kind": "bench"}):
            path.write_text(json.dumps(bad))
            with pytest.raises(ValueError, match="not a matrix document"):
                load_snapshot(path)
        odd = dict(_load("MATRIX_smoke.json"), suite={"mystery": {}})
        with pytest.raises(ValueError, match="unknown suite section 'mystery'"):
            flatten_snapshot(odd)

    def test_writer_creates_the_directory_and_sanitises_the_label(self, tmp_path):
        serve = _load("MATRIX_serve-baseline.json")
        path = write_snapshot(serve, tmp_path / "new" / "dir", label="a/b")
        assert path == tmp_path / "new" / "dir" / "MATRIX_a-b.json"
        assert load_snapshot(path) == serve
        assert write_snapshot(serve, tmp_path).name == "MATRIX_serve-baseline.json"
        matrix = _load("MATRIX_smoke.json")
        assert write_snapshot(matrix, tmp_path).name == "MATRIX_smoke.json"

    def test_flatteners_per_kind(self):
        # Wall fields gate (widened) on fullscale-cell documents only.
        fullscale = flatten_snapshot(_load("MATRIX_fullscale-smoke.json"))
        assert fullscale["fullscale.table_build_wall_s"][1].scale == WALL_THRESHOLD_FACTOR
        assert fullscale["orbit/lru.wall_s"][1].scale == WALL_THRESHOLD_FACTOR
        assert fullscale["orbit/lru.per_step_wall_s"][1].scale == WALL_THRESHOLD_FACTOR
        widened = {n for n, (_v, rule) in fullscale.items() if rule.scale != 1.0}
        assert widened == {n for n in fullscale if "wall" in n or "rss" in n}
        assert len(widened) == 11
        for name in ("MATRIX_bench-quick.json", "MATRIX_cluster-smoke.json",
                     "MATRIX_serve-baseline.json", "MATRIX_smoke.json"):
            metrics = flatten_snapshot(_load(name))
            assert not any("wall" in n for n in metrics), name
            assert all(rule.scale == 1.0 for _v, rule in metrics.values()), name
        matrix = flatten_snapshot(_load("MATRIX_smoke.json"))
        assert "orbit/lru.total_miss_rate" in matrix
        assert len(matrix) == 20
