"""The committed matrix documents regenerate from their bundled specs.

Every committed ``MATRIX_*.json`` — the bench tiers, the serve scenario,
the matrix smoke run and the paper figures — is ``run_matrix`` over the
bundled spec of the same name, so rerunning that spec reproduces its
simulated sections bit-identically: the cells and the ``suite`` sections.
The figures' quick twins regenerate here; the paper-scale fig11, fig12,
fig13 and ablations documents regenerate under ``-m slow``.  Three are
committed and never re-run (minutes each): the scale-0.5
``MATRIX_fullscale.json`` (its ``fullscale-smoke`` twin runs the same
code) and the paper-scale ``MATRIX_fig7.json`` and ``MATRIX_fig9.json``
(their quick twins run the same specs at a smaller scale).

Wall-clock fields (``wall_s``, ``per_step_wall_s``, ``events_per_s``,
the ``phases`` span table, the timed table build and peak RSS) are
machine-dependent by design and stripped before comparison; everything
else must match with ``==``, no tolerance.
"""

import functools
import json
from pathlib import Path

import pytest

from repro.experiments.matrix import load_spec, run_matrix

REPO_ROOT = Path(__file__).resolve().parents[2]

#: Machine-dependent, informational-only keys (never pinned).
_WALL_KEYS = (
    "wall_s", "per_step_wall_s", "events_per_s", "phases",
    "importance_wall_s", "table_build_wall_s", "peak_rss_bytes",
)

_CELL_META = ("axes", "index", "repeat", "config")

#: committed document -> the bundled spec that writes it.
COMMITTED = {
    "MATRIX_bench-quick.json": "bench-quick",
    "MATRIX_cluster-smoke.json": "cluster-smoke",
    "MATRIX_fullscale-smoke.json": "fullscale-smoke",
    "MATRIX_serve-baseline.json": "serve-baseline",
    "MATRIX_smoke.json": "smoke",
    "MATRIX_fig7-quick.json": "fig7-quick",
    "MATRIX_fig9-quick.json": "fig9-quick",
    "MATRIX_fig11-quick.json": "fig11-quick",
    "MATRIX_fig12-quick.json": "fig12-quick",
    "MATRIX_fig13-quick.json": "fig13-quick",
    "MATRIX_ablations-quick.json": "ablations-quick",
}

#: paper-scale figure documents, regenerated under ``-m slow``.
PAPER_SCALE = {
    "MATRIX_fig11.json": "fig11",
    "MATRIX_fig12.json": "fig12",
    "MATRIX_fig13.json": "fig13",
    "MATRIX_ablations.json": "ablations",
}


def _strip(obj):
    if isinstance(obj, dict):
        return {k: _strip(v) for k, v in obj.items() if k not in _WALL_KEYS}
    if isinstance(obj, list):
        return [_strip(v) for v in obj]
    return obj


def _cell_payload(cell):
    return _strip({k: v for k, v in cell.items() if k not in _CELL_META})


def _committed(name):
    return json.loads((REPO_ROOT / name).read_text())


@functools.lru_cache(maxsize=None)
def _fresh(spec_name):
    # Through JSON, as the committed files were written.
    return json.loads(json.dumps(run_matrix(load_spec(spec_name))))


def _sim(doc):
    d = {k: v for k, v in doc.items() if k not in ("suite_wall_s", "workers", "profile")}
    # [report] only names trend files; MATRIX_smoke.json predates the
    # committed files' current names and is not rewritten.
    d["spec"] = {k: v for k, v in doc["spec"].items() if k != "report"}
    return _strip(d)


class TestEveryCommittedDocument:
    @pytest.mark.parametrize("name", sorted(COMMITTED))
    def test_regenerates(self, name):
        committed, fresh = _committed(name), _fresh(COMMITTED[name])
        assert committed["label"] == COMMITTED[name]
        assert _sim(fresh) == _sim(committed)


@pytest.mark.slow
class TestPaperScaleFigures:
    @pytest.mark.parametrize("name", sorted(PAPER_SCALE))
    def test_regenerates(self, name):
        committed, fresh = _committed(name), _fresh(PAPER_SCALE[name])
        assert committed["label"] == PAPER_SCALE[name]
        assert _sim(fresh) == _sim(committed)


class TestBenchRegeneration:
    @pytest.fixture(scope="class")
    def fresh(self):
        return _fresh("bench-quick")

    @pytest.fixture(scope="class")
    def committed(self):
        return _committed("MATRIX_bench-quick.json")

    def test_same_cell_keys(self, fresh, committed):
        assert set(fresh["cells"]) == set(committed["cells"])
        assert set(fresh["suite"]) == set(committed["suite"]) == {"multi_tenant"}

    def test_sim_sections_bit_identical(self, fresh, committed):
        for key, cell in committed["cells"].items():
            assert _cell_payload(fresh["cells"][key]) == _cell_payload(cell), key
        assert fresh["suite"]["multi_tenant"] == committed["suite"]["multi_tenant"]


class TestServeRegeneration:
    @pytest.fixture(scope="class")
    def fresh_cell(self):
        doc = _fresh("serve-baseline")
        assert list(doc["cells"]) == ["serve-baseline"]
        return doc["cells"]["serve-baseline"]

    @pytest.fixture(scope="class")
    def committed(self):
        return _committed("MATRIX_serve-baseline.json")["cells"]["serve-baseline"]

    def test_multi_tenant_bit_identical(self, fresh_cell, committed):
        assert _strip(fresh_cell["multi_tenant"]) == _strip(committed["multi_tenant"])

    def test_workloads_and_config_identical(self, fresh_cell, committed):
        assert fresh_cell["workloads"] == committed["workloads"]
        assert fresh_cell["serve_config"] == committed["serve_config"]


class TestClusterRegeneration:
    def test_legacy_wrapper_still_regenerates_committed_snapshot(self, tmp_path):
        # `repro bench --tier cluster --quick` wraps run_matrix over the
        # cluster-smoke spec.
        from repro.cli import main

        assert main(["bench", "--tier", "cluster", "--quick", "--label", "cli",
                     "--out", str(tmp_path)]) == 0
        fresh = json.loads((tmp_path / "MATRIX_cli.json").read_text())
        assert _sim(fresh) == _sim(_committed("MATRIX_cluster-smoke.json"))
