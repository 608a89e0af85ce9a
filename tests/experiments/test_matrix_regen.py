"""The committed matrix specs regenerate the committed baselines.

The acceptance bar of the matrix refactor: driving the committed
``bench-quick`` and ``serve-baseline`` specs through the *matrix* runner
reproduces the simulated-metric sections of the committed
``BENCH_baseline.json`` and ``SERVE_baseline.json`` bit-identically, and
the cluster tier run from its ``cluster-smoke`` spec reproduces
``BENCH_cluster.json`` — the tiers and the matrix are one machine, not
two implementations that happen to agree today.

Wall-clock fields (``wall_s``, ``events_per_s``, the ``phases`` span
table) are machine-dependent by design and stripped before comparison;
everything else must match with ``==``, no tolerance.
"""

import json
from pathlib import Path

import pytest

from repro.experiments.matrix import load_spec, run_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Machine-dependent, informational-only keys (never gated, never pinned).
_WALL_KEYS = ("wall_s", "events_per_s", "phases")

_CELL_META = ("axes", "index", "repeat", "config")


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _WALL_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _cell_payload(cell):
    return _strip({k: v for k, v in cell.items() if k not in _CELL_META})


class TestBenchRegeneration:
    @pytest.fixture(scope="class")
    def fresh(self):
        return run_matrix(load_spec("bench-quick"))

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO_ROOT / "BENCH_baseline.json").read_text())

    def test_same_cell_keys(self, fresh, committed):
        assert set(fresh["cells"]) == set(committed["runs"])

    def test_sim_sections_bit_identical(self, fresh, committed):
        for key, run in committed["runs"].items():
            assert _cell_payload(fresh["cells"][key]) == _strip(run), key


class TestServeRegeneration:
    @pytest.fixture(scope="class")
    def fresh_cell(self):
        doc = run_matrix(load_spec("serve-baseline"))
        assert list(doc["cells"]) == ["serve-baseline"]
        return doc["cells"]["serve-baseline"]

    @pytest.fixture(scope="class")
    def committed(self):
        return json.loads((REPO_ROOT / "SERVE_baseline.json").read_text())

    def test_multi_tenant_bit_identical(self, fresh_cell, committed):
        assert _strip(fresh_cell["multi_tenant"]) == _strip(committed["multi_tenant"])

    def test_workloads_and_config_identical(self, fresh_cell, committed):
        assert fresh_cell["workloads"] == committed["workloads"]
        assert fresh_cell["serve_config"] == committed["config"]


class TestClusterRegeneration:
    def test_legacy_wrapper_still_regenerates_committed_snapshot(self):
        from repro.obs.bench_cluster import run_cluster

        committed = json.loads((REPO_ROOT / "BENCH_cluster.json").read_text())
        fresh = run_cluster(
            load_spec("cluster-smoke"),
            label=committed["label"],
            quick=committed["quick"],
        )
        drop = _WALL_KEYS + ("suite_wall_s",)
        a = {k: _strip(v) for k, v in fresh.items() if k not in drop}
        b = {k: _strip(v) for k, v in committed.items() if k not in drop}
        assert a == b
