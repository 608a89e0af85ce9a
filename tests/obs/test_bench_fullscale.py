"""The fullscale wall-clock bench tier: document shape, gating, CLI.

A tiny variant of the bundled ``fullscale-smoke`` spec keeps the suite
fast; the real tier runs at ``scale=0.5``/~16k blocks via ``repro bench
--tier fullscale``.  What matters here is the contract: the document is
a matrix document whose ``suite.fullscale`` section carries the timed
table build, the wall-clock metrics join the comparable set *only* on
``fullscale-cell`` documents, and the gate judges them at the widened
``WALL_THRESHOLD_FACTOR`` so same-machine CI catches multi-x slowdowns
without flaking on scheduler noise.
"""

import copy
from dataclasses import replace

import pytest

from repro.cli import build_parser, main
from repro.experiments.gating import (
    WALL_THRESHOLD_FACTOR,
    compare_snapshots,
    flatten_snapshot,
    load_snapshot,
    write_snapshot,
)
from repro.experiments.matrix import load_spec, run_matrix

_SMOKE = load_spec("fullscale-smoke")
_TINY = replace(
    _SMOKE,
    base={**_SMOKE.base, "blocks": 256, "scale": 0.08, "steps": 12},
    setup={**_SMOKE.setup, "n_directions": 16},
)

WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")


@pytest.fixture(scope="module")
def doc():
    return run_matrix(_TINY)


class TestRunFullscale:
    def test_document_shape(self, doc):
        assert doc["runner"] == "fullscale-cell"
        assert doc["label"] == "fullscale-smoke"
        assert set(doc["cells"]) == {
            "orbit/lru", "orbit/app-aware", "zoom/lru", "zoom/app-aware",
        }
        fs = doc["suite"]["fullscale"]
        for name in WALL_METRICS:
            assert fs[name] > 0, name
        assert set(fs) == set(WALL_METRICS) | {
            "n_blocks", "volume_voxels", "n_samples", "mean_set_size",
        }
        assert fs["n_blocks"] >= 64
        assert fs["n_samples"] == 16
        assert fs["mean_set_size"] > 0

    def test_runs_record_wall_and_sim(self, doc):
        for key, run in doc["cells"].items():
            assert run["wall_s"] > 0, key
            assert run["per_step_wall_s"] == run["wall_s"] / _TINY.base["steps"]
            assert run["summary"]["total_time_s"] > 0
            assert "hierarchy_stats" in run

    def test_app_aware_beats_lru_on_sim_clock(self, doc):
        for path_name in ("orbit", "zoom"):
            lru = doc["cells"][f"{path_name}/lru"]["summary"]["total_time_s"]
            app = doc["cells"][f"{path_name}/app-aware"]["summary"]["total_time_s"]
            assert app <= lru

    def test_round_trip(self, doc, tmp_path):
        path = write_snapshot(doc, tmp_path, label="fullscale-test")
        assert path.name == "MATRIX_fullscale-test.json"
        assert load_snapshot(path) == doc

    def test_profile_writes_chrome_trace(self, tmp_path):
        out = tmp_path / "fs_profile.json"
        d = run_matrix(_TINY, profile=out)
        assert d["profile"]["path"] == str(out)
        assert out.exists()

    def test_bad_workers_rejected(self):
        with pytest.raises(ValueError, match="workers"):
            run_matrix(_TINY, workers=0)

    def test_workers_match_serial(self, doc):
        parallel = run_matrix(_TINY, workers=2)
        assert parallel["workers"] == 2
        for key, cell in doc["cells"].items():
            assert parallel["cells"][key]["summary"] == cell["summary"]
        sim = ("n_blocks", "volume_voxels", "n_samples", "mean_set_size")
        assert {k: parallel["suite"]["fullscale"][k] for k in sim} == \
            {k: doc["suite"]["fullscale"][k] for k in sim}


class TestFullscaleComparison:
    def test_wall_metrics_comparable_only_on_fullscale_tier(self, doc):
        names = flatten_snapshot(doc).keys()
        for metric in WALL_METRICS:
            assert f"fullscale.{metric}" in names
        assert "orbit/lru.wall_s" in names and "orbit/lru.per_step_wall_s" in names
        other_runner = copy.deepcopy(doc)
        other_runner["runner"] = "replay"
        other_runner.pop("suite")
        other_names = flatten_snapshot(other_runner).keys()
        assert not any("wall" in n or "rss" in n for n in other_names)

    def test_self_compare_is_clean(self, doc):
        rows = compare_snapshots(doc, doc)
        assert rows
        assert all(r["status"] == "ok" for r in rows)

    def test_wall_regression_needs_widened_threshold(self, doc):
        tolerated = copy.deepcopy(doc)
        tolerated["suite"]["fullscale"]["table_build_wall_s"] *= (
            1 + 0.25 * WALL_THRESHOLD_FACTOR * 0.9
        )
        rows = compare_snapshots(doc, tolerated, threshold=0.25)
        row = next(r for r in rows if r["metric"] == "fullscale.table_build_wall_s")
        assert row["status"] == "ok"

        flagged = copy.deepcopy(doc)
        flagged["suite"]["fullscale"]["table_build_wall_s"] *= (
            1 + 0.25 * WALL_THRESHOLD_FACTOR * 1.5
        )
        rows = compare_snapshots(doc, flagged, threshold=0.25)
        row = next(r for r in rows if r["metric"] == "fullscale.table_build_wall_s")
        assert row["status"] == "regression"

    def test_sim_metrics_keep_tight_threshold(self, doc):
        worse = copy.deepcopy(doc)
        worse["cells"]["orbit/lru"]["summary"]["total_time_s"] *= 1.5
        rows = compare_snapshots(doc, worse, threshold=0.10)
        bad = [r["metric"] for r in rows if r["status"] == "regression"]
        assert bad == ["orbit/lru.total_time_s"]

    def test_per_run_wall_uses_widened_threshold(self, doc):
        noisy = copy.deepcopy(doc)
        noisy["cells"]["orbit/lru"]["wall_s"] *= 1.3
        noisy["cells"]["orbit/lru"]["per_step_wall_s"] *= 1.3
        rows = compare_snapshots(doc, noisy, threshold=0.10)
        for r in rows:
            if r["metric"].endswith("wall_s"):
                assert r["status"] == "ok", r["metric"]


class TestFullscaleCLI:
    def test_parser_default_tier(self):
        args = build_parser().parse_args(["bench"])
        assert args.tier == "default"
        args = build_parser().parse_args(["bench", "--tier", "fullscale"])
        assert args.tier == "fullscale"

    def test_unknown_tier_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["bench", "--tier", "mega"])

    def test_fullscale_rejects_faults(self, capsys):
        rc = main(["bench", "--tier", "fullscale", "--faults", "chaos"])
        assert rc == 2
        assert "faults" in capsys.readouterr().err
