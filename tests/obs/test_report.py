"""HTML report rendering for ``repro analyze``."""

from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.gating import load_snapshot
from repro.obs.report import attribution_sections, render_report, write_report

REPO_ROOT = Path(__file__).resolve().parents[2]
COMMITTED = (
    "MATRIX_bench-quick.json",
    "MATRIX_cluster-smoke.json",
    "MATRIX_fullscale.json",
    "MATRIX_fullscale-smoke.json",
    "MATRIX_serve-baseline.json",
    "MATRIX_smoke.json",
)


def _attr_doc(**over):
    doc = {
        "schema_version": 1,
        "n_frames": 2,
        "demand_components": {"hit_service": 1e-6, "miss_transfer:hdd": 0.2},
        "prefetch_components": {"prefetch_transfer:ssd": 0.01},
        "totals": {
            "io_time_s": 0.200001,
            "lookup_time_s": 0.001,
            "prefetch_time_s": 0.01,
            "render_time_s": 0.05,
            "frame_time_s": 0.251001,
            "overlap_saving_s": 0.01,
        },
        "n_re_miss": 1,
        "n_degraded": 0,
        "degraded_extra_s": 0.0,
        "reconciled": True,
        "exact": True,
        "incomplete": False,
        "frames": [
            {
                "step": 0,
                "io_time_s": 0.2,
                "lookup_time_s": 0.0005,
                "prefetch_time_s": 0.01,
                "render_time_s": 0.025,
                "frame_time_s": 0.2255,
                "components": {"miss_transfer:hdd": 0.2},
                "prefetch_components": {"prefetch_transfer:ssd": 0.01},
                "overlap_saving_s": 0.01,
                "n_re_miss": 1,
                "n_degraded": 0,
                "degraded_extra_s": 0.0,
                "reconciled": True,
                "exact": True,
            },
            {
                "step": 1,
                "io_time_s": 1e-6,
                "lookup_time_s": 0.0005,
                "prefetch_time_s": 0.0,
                "render_time_s": 0.025,
                "frame_time_s": 0.025501,
                "components": {"hit_service": 1e-6},
                "prefetch_components": {},
                "overlap_saving_s": 0.0,
                "n_re_miss": 0,
                "n_degraded": 0,
                "degraded_extra_s": 0.0,
                "reconciled": True,
                "exact": True,
            },
        ],
    }
    doc.update(over)
    return doc


def _bench_doc():
    attr = _attr_doc()
    attr["forensics"] = {
        "capacity": 4096,
        "premature_window": 8,
        "n_evictions": 10,
        "n_re_misses": 3,
        "n_premature": 2,
        "top_premature": [
            {"block": 7, "count": 2, "min_age_steps": 1, "last_step": 9,
             "evicted_from": "dram", "policy": "lru", "tenant": "", "rank": 0},
        ],
    }
    attr["regret"] = {
        "policy": "lru", "fast_capacity": 32,
        "actual_fast_misses": 40, "belady_misses": 25, "regret": 15,
    }
    return {
        "schema_version": 1,
        "kind": "matrix",
        "label": "test",
        "cells": {
            "orbit/lru": {"attribution": attr},
            "serve": {"multi_tenant": {"attribution": {
                "schema_version": 1,
                "tenants": {"s001": _attr_doc(frames=[])},
            }}},
        },
        "suite": {
            "multi_tenant": {
                "attribution": {
                    "schema_version": 1,
                    "tenants": {"s000": _attr_doc(frames=[])},
                },
            },
        },
    }


class TestAttributionSections:
    def test_cells_cell_tenants_then_suite_tenants(self):
        labels = [label for label, _attr in attribution_sections(_bench_doc())]
        assert labels == ["orbit/lru", "serve/tenant:s001", "tenant:s000"]

    def test_bare_attribution_doc_is_one_section(self):
        assert [label for label, _ in attribution_sections(_attr_doc())] == ["run"]

    def test_document_without_attribution_has_none(self):
        doc = {"kind": "matrix", "cells": {"orbit/lru": {"summary": {}}}}
        assert list(attribution_sections(doc)) == []


class TestRenderReport:
    def test_bench_doc_sections(self):
        html = render_report(_bench_doc())
        assert html.startswith("<!DOCTYPE html>")
        assert "matrix document test" in html
        assert "orbit/lru" in html
        assert "tenant:s000" in html and "serve/tenant:s001" in html
        assert "Frame-time waterfall" in html
        assert "Eviction forensics" in html
        assert "Regret vs Belady" in html
        assert "miss_transfer:hdd" in html

    def test_bare_attribution_doc(self):
        html = render_report(_attr_doc())
        assert "Frame-time waterfall" in html
        assert "Regret vs Belady" not in html  # no regret section present

    def test_serve_doc_without_attribution(self):
        doc = {"kind": "matrix", "cells": {"serve": {"multi_tenant": {"frame_times": {}}}}}
        html = render_report(doc)
        assert "no attribution section" in html

    def test_not_reconciled_is_flagged(self):
        doc = _attr_doc(reconciled=False)
        doc["frames"][0]["reconciled"] = False
        html = render_report(doc)
        assert "NOT RECONCILED" in html
        assert 'class="badge bad"' in html

    def test_incomplete_warns_lower_bounds(self):
        html = render_report(_attr_doc(incomplete=True))
        assert "lower bounds" in html

    def test_title_and_escaping(self):
        html = render_report(_attr_doc(), title="<b>x</b>")
        assert "<b>x</b>" not in html
        assert "&lt;b&gt;x&lt;/b&gt;" in html

    def test_self_contained(self):
        html = render_report(_bench_doc())
        assert "<script" not in html
        assert "http" not in html.split("</style>")[1]  # no external asset URLs

    def test_deterministic(self):
        assert render_report(_bench_doc()) == render_report(_bench_doc())

    def test_write(self, tmp_path):
        path = write_report(_attr_doc(), tmp_path / "r.html")
        assert path.read_text(encoding="utf-8") == render_report(_attr_doc())


@pytest.mark.parametrize("name", COMMITTED)
def test_every_committed_document_renders(name, tmp_path):
    doc = load_snapshot(REPO_ROOT / name)
    html = render_report(doc, base_dir=REPO_ROOT)
    for key in doc["cells"]:
        assert f"<tr><td>{key}</td>" in html, key  # its cell-table row
    assert "<script" not in html.lower()
    assert "http://" not in html and "https://" not in html
    assert render_report(doc, base_dir=REPO_ROOT) == html
    assert main(["analyze", str(REPO_ROOT / name), "--out", str(tmp_path / "r.html")]) == 0
