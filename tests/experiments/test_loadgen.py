"""The serve-sim load generator: seeded synthesis, the ``serve`` runner's
documents, gating."""

import json
import math

import pytest

from repro.experiments.gating import (
    MATRIX_SCHEMA_VERSION,
    compare_snapshots,
    flatten_snapshot,
    format_gate_rows,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.loadgen import LoadGenConfig, make_session_specs, run_load
from repro.experiments.matrix import MatrixSpec, run_matrix

SMALL = LoadGenConfig(n_sessions=4, steps=5, blocks=64, scale=0.04, seed=3)

#: SMALL as a one-cell ``serve`` spec.
SMALL_SPEC = MatrixSpec(
    label="small",
    runner="serve",
    base={"blocks": 64, "scale": 0.04, "steps": 5, "seed": 3, "sessions": 4},
    setup={"attribution": False},
)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError, match="n_sessions"):
            LoadGenConfig(n_sessions=0)
        with pytest.raises(ValueError, match="mix"):
            LoadGenConfig(mix=(1.0, -0.5, 0.5))
        with pytest.raises(ValueError, match="mix"):
            LoadGenConfig(mix=(0.0, 0.0, 0.0))
        with pytest.raises(ValueError, match="partition"):
            LoadGenConfig(partition="striped")

    @pytest.mark.parametrize("rate", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rate_rejected(self, rate):
        with pytest.raises(ValueError, match="arrival_rate_hz"):
            LoadGenConfig(arrival_rate_hz=rate)

    @pytest.mark.parametrize("weight", [math.nan, math.inf])
    def test_non_finite_mix_weight_rejected(self, weight):
        with pytest.raises(ValueError, match="mix"):
            LoadGenConfig(mix=(weight, 1.0, 1.0))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("distance", math.nan),
            ("distance", math.inf),
            ("degrees", (0.0, math.inf)),
            ("degrees", (math.nan, 5.0)),
            ("scale", math.nan),
            ("cache_ratio", math.inf),
        ],
    )
    def test_non_finite_values_rejected_by_field(self, field, value):
        with pytest.raises(ValueError, match=rf"^{field} must be .*finite"):
            LoadGenConfig(**{field: value})

    def test_non_positive_rate_still_means_all_at_zero(self):
        assert LoadGenConfig(arrival_rate_hz=-1.0).arrival_rate_hz == -1.0

    def test_to_dict_json_plain(self):
        json.dumps(SMALL.to_dict())


class TestMakeSessionSpecs:
    def test_deterministic(self):
        a, b = make_session_specs(SMALL), make_session_specs(SMALL)
        assert a == b

    def test_seed_changes_everything(self):
        a = make_session_specs(SMALL)
        b = make_session_specs(LoadGenConfig(n_sessions=4, steps=5, blocks=64,
                                             scale=0.04, seed=4))
        assert [s.seed for s in a] != [s.seed for s in b]

    def test_prefix_stable_under_growth(self):
        """Adding sessions never reshuffles the existing ones' path seeds."""
        small = make_session_specs(SMALL)
        grown = make_session_specs(
            LoadGenConfig(n_sessions=8, steps=5, blocks=64, scale=0.04, seed=3)
        )
        assert [s.seed for s in grown[:4]] == [s.seed for s in small]

    def test_arrivals_sorted_first_at_zero(self):
        specs = make_session_specs(SMALL)
        arrivals = [s.arrival_s for s in specs]
        assert arrivals[0] == 0.0
        assert arrivals == sorted(arrivals)

    def test_zero_rate_means_simultaneous(self):
        cfg = LoadGenConfig(n_sessions=3, arrival_rate_hz=0.0)
        assert all(s.arrival_s == 0.0 for s in make_session_specs(cfg))

    def test_mix_respected_when_pure(self):
        cfg = LoadGenConfig(n_sessions=6, mix=(0.0, 1.0, 0.0))
        assert all(s.workload == "zoom" for s in make_session_specs(cfg))

    def test_session_ids_unique(self):
        ids = [s.session_id for s in make_session_specs(SMALL)]
        assert len(set(ids)) == len(ids)


class TestRunLoad:
    @pytest.fixture(scope="class")
    def doc(self):
        return run_load(SMALL)

    def test_snapshot_deterministic(self, doc):
        again = run_load(SMALL)
        assert json.dumps(doc, sort_keys=True) == json.dumps(again, sort_keys=True)

    def test_snapshot_shape(self, doc):
        assert doc["schema_version"] == 1
        assert doc["config"]["n_sessions"] == 4
        mt = doc["multi_tenant"]
        assert mt["n_sessions"] == 4
        assert mt["cross_evictions"] == 0
        assert set(mt["frame_times"]["per_tenant"]) == set(doc["workloads"])

    def test_partition_none_disables_quotas(self):
        cfg = LoadGenConfig(n_sessions=3, steps=4, blocks=64, scale=0.04,
                            partition="none", seed=3)
        doc = run_load(cfg)
        assert doc["multi_tenant"]["quotas"] == {}

    def test_roundtrip_and_compare_clean(self, doc, tmp_path):
        # The serve runner's cell is run_load's document.
        matrix = run_matrix(SMALL_SPEC)
        cell = matrix["cells"]["small"]
        assert cell["serve_config"] == doc["config"]
        assert cell["workloads"] == doc["workloads"]
        assert cell["multi_tenant"] == doc["multi_tenant"]
        path = write_snapshot(matrix, tmp_path, label="t")
        assert path.name == "MATRIX_t.json"
        loaded = load_snapshot(path)
        rows = compare_snapshots(loaded, matrix)
        assert len(rows) == 18 and all(r["status"] == "ok" for r in rows)
        assert "0 regression(s)" in format_gate_rows(rows)

    def test_load_rejects_wrong_schema(self, tmp_path):
        bad = tmp_path / "MATRIX_bad.json"
        bad.write_text(json.dumps(
            _doc_of(_multi_tenant(), schema_version=MATRIX_SCHEMA_VERSION + 98)
        ))
        with pytest.raises(ValueError, match="schema_version 99"):
            load_snapshot(bad)


def _multi_tenant(p99_scale=1.0, fairness=0.9, tenants=("a", "b")):
    per = {
        t: {"p50": 0.01, "p95": 0.02, "p99": 0.03 * p99_scale,
            "mean": 0.01, "max": 0.05, "count": 10}
        for t in tenants
    }
    return {
        "makespan_s": 1.0,
        "cross_evictions": 0,
        "frame_times": {
            "per_tenant": per,
            "pooled": {"p50": 0.01, "p95": 0.02, "p99": 0.03 * p99_scale,
                       "mean": 0.01, "max": 0.05, "count": 20},
            "fairness_jain": fairness,
        },
    }


def _doc_of(mt, schema_version=MATRIX_SCHEMA_VERSION):
    """A one-cell serve-runner document around ``mt``."""
    return {
        "schema_version": schema_version,
        "kind": "matrix",
        "runner": "serve",
        "spec": {"axes": {}},
        "cells": {"serve": {"multi_tenant": mt}},
    }


class TestCompareServe:
    def _doc(self, **kwargs):
        return _doc_of(_multi_tenant(**kwargs))

    def test_regression_on_p99_blowup(self):
        rows = compare_snapshots(self._doc(), self._doc(p99_scale=2.0), threshold=0.25)
        regressed = {r["metric"] for r in rows if r["status"] == "regression"}
        assert "serve.multi_tenant.a.p99" in regressed
        assert "serve.multi_tenant.pooled.p99" in regressed

    def test_within_threshold_ok(self):
        rows = compare_snapshots(self._doc(), self._doc(p99_scale=1.1), threshold=0.25)
        assert all(r["status"] == "ok" for r in rows)

    def test_fairness_drop_regresses(self):
        rows = compare_snapshots(self._doc(fairness=0.95), self._doc(fairness=0.5),
                                 threshold=0.25)
        fairness_row = next(r for r in rows if r["metric"] == "serve.multi_tenant.fairness_jain")
        assert fairness_row["status"] == "regression"

    def test_new_tenant_is_missing_not_regressed(self):
        rows = compare_snapshots(
            self._doc(tenants=("a",)), self._doc(tenants=("a", "b")), threshold=0.25
        )
        b_rows = [r for r in rows if r["metric"].startswith("serve.multi_tenant.b.")]
        assert b_rows and all(r["status"] == "missing" for r in b_rows)

    def test_cross_evictions_increase_regresses(self):
        new = self._doc()
        new["cells"]["serve"]["multi_tenant"]["cross_evictions"] = 3
        rows = compare_snapshots(self._doc(), new)
        row = next(r for r in rows if r["metric"] == "serve.multi_tenant.cross_evictions")
        assert row["status"] == "regression"

    def test_flattened_metrics_take_multi_tenant_names(self):
        m = flatten_snapshot(self._doc())
        assert {f"serve.multi_tenant.{name}" for name in (
            "makespan_s", "cross_evictions", "pooled.p50", "pooled.p95",
            "pooled.p99", "a.p50",
        )} <= set(m)
