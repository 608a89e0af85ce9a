"""Self-tests of the repository benchmark, on tiny workload sizes.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import harness  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9_.-]+")
WORKLOADS = sorted(workloads.WORKLOADS)


@pytest.fixture(scope="module", params=WORKLOADS)
def traced(request, tmp_path_factory):
    out = tmp_path_factory.mktemp(request.param)
    result = harness.run(request.param, seed=3, seconds=0.5, trace=True, size="tiny",
                         out_dir=out)
    return request.param, result, out


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)
    assert [m["name"] for m in SPEC["end_to_end"]] == list(harness.END_TO_END)
    for section in ("end_to_end", "per_layer"):
        for metric in SPEC[section]:
            assert NAME.fullmatch(metric["name"]), metric["name"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tiny_workload_passes_its_checks(workload):
    result = harness.run(workload, seed=5, seconds=0.3, trace=False, size="tiny")
    assert result["problems"] == []
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    units = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == units
    assert all(v["value"] > 0 for v in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_sim_metrics_repeat_exactly(workload):
    sim = ("sim_frame_ms", "sim_frame_ms_p99", "dram_miss_rate")
    first, second = (
        harness.run(workload, seed=7, seconds=0.1, trace=False, size="tiny")["metrics"]
        for _ in range(2)
    )
    assert [first[k] for k in sim] == [second[k] for k in sim]


def test_traced_run_only_observes(traced):
    workload, result, _ = traced
    assert result["problems"] == []
    assert result["correct"]
    assert result["traced_digests"] == result["digests"]


def test_traced_metrics_and_self_times_add_up(traced):
    workload, result, out = traced
    units = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    metrics = result["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == units
    self_times = sum(metrics[name]["value"] for name in spans.SELF_TIME_METRICS.values())
    assert self_times == pytest.approx(metrics["bench.wall_s"]["value"], rel=1e-9)
    assert metrics["runtime.frames"]["value"] >= 1
    layers = json.loads((out / f"{workload}-seed3-layers.json").read_text())
    assert layers["iteration_wall_s"] == pytest.approx(metrics["bench.wall_s"]["value"])
    trace = json.loads((out / layers["span_file"]).read_text())
    assert trace["traceEvents"][0]["name"] == spans.ROOT_SPAN
    assert trace["traceEvents"][0]["args"]["parent"] == -1


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "replay", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
