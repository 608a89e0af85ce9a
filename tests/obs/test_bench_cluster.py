"""The cluster bench tier: document shape, reconciliation, comparison."""

import json
from dataclasses import replace

import pytest

from repro.experiments.gating import (
    compare_snapshots,
    flatten_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.matrix import load_spec, run_matrix

_SMOKE = load_spec("cluster-smoke")
TINY = replace(
    _SMOKE,
    base={**_SMOKE.base, "steps": 6},
    setup={**_SMOKE.setup, "n_directions": 8},
)


@pytest.fixture(scope="module")
def doc():
    return run_matrix(TINY)


class TestClusterTier:
    def test_doc_shape(self, doc):
        assert doc["runner"] == "replay"
        assert set(doc["cells"]) == {"orbit/K1", "orbit/K4", "orbit/K4/partition"}
        assert "suite" not in doc
        for key, cell in doc["cells"].items():
            assert cell["ledger_reconciles"] is True, key
            assert cell["cluster"]["n_nodes"] == cell["config"]["shards"], key
            assert "summary" in cell

    def test_cluster_section_is_the_partition_ledger(self, doc):
        cell = doc["cells"]["orbit/K4/partition"]
        cl = cell["cluster"]
        assert cl["n_nodes"] == max(TINY.axes["shards"])
        assert cl["shard_map"]["strategy"] == TINY.base["shard_map"]
        assert cl["link_fallbacks"] > 0  # the severed link was exercised
        assert cl["split_bytes"]["cold"] > 0
        assert cell["split_bytes"] == cl["split_bytes"]
        assert cell["faults"]["profile"] == "link-partition"

    def test_k1_cell_stays_off_the_network(self, doc):
        split = doc["cells"]["orbit/K1"]["split_bytes"]
        assert split["peer"] == 0 and split["ghost"] == 0 and split["cold"] == 0

    def test_round_trips_and_self_compares_clean(self, doc, tmp_path):
        path = write_snapshot(doc, tmp_path)
        assert path.name == "MATRIX_cluster-smoke.json"
        loaded = load_snapshot(path)
        assert loaded == json.loads(json.dumps(doc))
        rows = compare_snapshots(loaded, loaded)
        assert rows and all(r["status"] == "ok" for r in rows)

    def test_cluster_metrics_enter_the_comparison(self, doc):
        metrics = flatten_snapshot(doc)
        for key in doc["cells"]:
            assert f"{key}.cluster.split_bytes.peer" in metrics
            assert metrics[f"{key}.cluster.locality_score"][1].direction == "higher"
        assert any(k.startswith("orbit/K4/partition.cluster.link.") for k in metrics)
        # cells without a network ledger gain none of these
        plain = dict(doc, cells={
            key: {k: v for k, v in cell.items() if k != "cluster"}
            for key, cell in doc["cells"].items()
        })
        assert not any(".cluster." in k for k in flatten_snapshot(plain))

    def test_deterministic_replay(self, doc):
        import copy

        again = run_matrix(TINY)
        a, b = copy.deepcopy(doc), copy.deepcopy(again)
        a.pop("suite_wall_s"), b.pop("suite_wall_s")
        for run in list(a["cells"].values()) + list(b["cells"].values()):
            run.pop("wall_s", None)
        assert a == b

    def test_workers_match_serial(self, doc):
        parallel = run_matrix(TINY, workers=2)
        assert parallel["workers"] == 2
        for key, cell in doc["cells"].items():
            assert parallel["cells"][key]["cluster"] == cell["cluster"]
            assert parallel["cells"][key]["summary"] == cell["summary"]
