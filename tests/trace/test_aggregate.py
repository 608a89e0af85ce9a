"""Tests for per-step timeline aggregation."""

from repro.camera.path import random_path
from repro.cluster import cluster_fault_plan, make_sharded_hierarchy
from repro.core.pipeline import PipelineContext
from repro.experiments.report import format_trace_report
from repro.faults import FaultInjector
from repro.runtime import run_baseline
from repro.trace import Tracer, aggregate
from repro.volume.blocks import BlockGrid


def _trace():
    t = Tracer()
    t.record("preload", step=-1, level="dram", key=5)
    t.record("fetch", step=0, level="hdd", key=1, nbytes=1000, time_s=0.01)
    t.record("evict", step=0, level="dram", key=5)
    t.record("hit", step=0, level="dram", key=5, nbytes=1000, time_s=1e-6)
    t.record("prefetch", step=0, level="ssd", key=2, nbytes=1000, time_s=0.002)
    t.record("render", step=0, time_s=0.5)
    t.record("hit", step=1, level="dram", key=1, nbytes=1000, time_s=1e-6)
    t.record("bypass", step=1, level="dram", key=9)
    return t.events()


class TestAggregate:
    def test_rows_sorted_with_preload_first(self):
        s = aggregate(_trace())
        assert [row.step for row in s.steps] == [-1, 0, 1]

    def test_step_counters(self):
        s = aggregate(_trace())
        pre, s0, s1 = s.steps
        assert pre.preloads == 1
        assert s0.hits == 1 and s0.demand_fetches == 1 and s0.prefetches == 1
        assert s0.evictions == 1
        assert s1.hits == 1 and s1.bypasses == 1

    def test_byte_split(self):
        s = aggregate(_trace())
        assert s.demand_bytes == 3000  # fetch + two hits
        assert s.prefetch_bytes == 1000
        assert s.total_bytes == 4000

    def test_level_bytes(self):
        s = aggregate(_trace())
        assert s.level_bytes["hdd"] == {"demand": 1000, "prefetch": 0}
        assert s.level_bytes["dram"] == {"demand": 2000, "prefetch": 0}
        assert s.level_bytes["ssd"] == {"demand": 0, "prefetch": 1000}

    def test_coverage(self):
        s = aggregate(_trace())
        _, s0, s1 = s.steps
        assert s0.fast_coverage == 0.5  # 1 hit, 1 demand fetch
        assert s1.fast_coverage == 1.0
        assert s.mean_fast_coverage == 0.75  # preload row excluded

    def test_render_time(self):
        s = aggregate(_trace())
        assert s.steps[1].render_time_s == 0.5

    def test_empty_trace(self):
        s = aggregate([])
        assert s.steps == [] and s.total_bytes == 0
        assert s.mean_fast_coverage == 1.0

    def test_trace_report_shows_network_and_faults(self):
        # A 4-node node-chaos replay: the `repro trace` text report must
        # carry its peer transfers and its failed reads, not only totals.
        grid = BlockGrid((32, 32, 32), (8, 8, 8))
        path = random_path(
            n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
            view_angle_deg=10.0, seed=11,
        )
        h = make_sharded_hierarchy(grid, 4, cache_ratio=0.5)
        h.set_fault_injector(FaultInjector(cluster_fault_plan("node-chaos", 4, seed=7)))
        tracer = Tracer()
        run_baseline(PipelineContext.create(path, grid), h, tracer=tracer)
        s = aggregate(tracer.events())
        assert s.total_xfers > 0 and s.total_faults > 0
        text = format_trace_report(s, title="sharded")
        assert "trace total:" in text
        assert f"network: {s.total_xfers} peer transfers" in text
        assert f"faults: {s.total_faults} failed reads, {s.total_retries} retries" in text

    def test_trace_report_single_box_has_no_network_line(self):
        text = format_trace_report(aggregate(_trace()))
        assert "preload" in text  # the preload row label
        assert "network:" not in text and "faults:" not in text
