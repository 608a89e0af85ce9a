"""Tests for visible-set computation, trace collection, and the baseline driver."""

import numpy as np
import pytest

from repro.camera.frustum import visible_mask
from repro.core.pipeline import (
    PipelineContext,
    collect_demand_trace,
    compute_visible_sets,
)
from repro.runtime import run_baseline
from repro.experiments.runner import belady_hierarchy, fresh_hierarchy
from repro.render.render_model import RenderCostModel

VIEW = 10.0


class TestComputeVisibleSets:
    def test_matches_per_position_masks(self, short_random_path, small_grid):
        sets = compute_visible_sets(short_random_path, small_grid)
        assert len(sets) == len(short_random_path)
        for i, pos in enumerate(short_random_path.positions):
            expect = np.flatnonzero(visible_mask(pos, small_grid, VIEW))
            assert np.array_equal(sets[i], expect)

    def test_nonempty_for_cameras_looking_at_volume(self, short_spherical_path, small_grid):
        sets = compute_visible_sets(short_spherical_path, small_grid)
        assert all(len(s) > 0 for s in sets)


class TestCollectDemandTrace:
    def test_flattens_in_order(self, short_random_path, small_grid):
        sets = compute_visible_sets(short_random_path, small_grid)
        trace = collect_demand_trace(short_random_path, small_grid, sets)
        assert trace.dtype == np.int64
        assert len(trace) == sum(len(s) for s in sets)
        assert np.array_equal(trace[: len(sets[0])], sets[0])

    def test_reuses_precomputed_sets(self, short_random_path, small_grid):
        sets = compute_visible_sets(short_random_path, small_grid)
        a = collect_demand_trace(short_random_path, small_grid, sets)
        b = collect_demand_trace(short_random_path, small_grid)
        assert np.array_equal(a, b)


class TestPipelineContext:
    def test_create(self, short_random_path, small_grid):
        ctx = PipelineContext.create(short_random_path, small_grid)
        assert len(ctx.visible_sets) == len(short_random_path)
        assert isinstance(ctx.render_model, RenderCostModel)

    def test_demand_trace(self, short_random_path, small_grid):
        ctx = PipelineContext.create(short_random_path, small_grid)
        assert np.array_equal(
            ctx.demand_trace(), collect_demand_trace(short_random_path, small_grid)
        )


class TestRunBaseline:
    @pytest.fixture()
    def ctx(self, short_random_path, small_grid):
        return PipelineContext.create(short_random_path, small_grid)

    def test_accounting_consistent(self, ctx, small_grid):
        h = fresh_hierarchy(small_grid, policy="lru")
        result = run_baseline(ctx, h)
        total_visible = sum(len(s) for s in ctx.visible_sets)
        dram = result.hierarchy_stats.levels["dram"]
        assert dram.hits + dram.misses == total_visible
        assert result.n_steps == len(ctx.visible_sets)
        assert result.policy == "lru"
        assert not result.overlap_prefetch

    def test_step_miss_counts_sum(self, ctx, small_grid):
        h = fresh_hierarchy(small_grid, policy="lru")
        result = run_baseline(ctx, h)
        assert sum(s.n_fast_misses for s in result.steps) == \
            result.hierarchy_stats.levels["dram"].misses

    def test_io_time_positive_and_render_modeled(self, ctx, small_grid):
        h = fresh_hierarchy(small_grid, policy="fifo")
        result = run_baseline(ctx, h)
        assert result.io_time_s > 0
        expect_render = sum(
            ctx.render_model.render_time(len(s)) for s in ctx.visible_sets
        )
        assert result.render_time_s == pytest.approx(expect_render)

    def test_identical_demand_sequence_across_policies(self, ctx, small_grid):
        r1 = run_baseline(ctx, fresh_hierarchy(small_grid, policy="lru"))
        r2 = run_baseline(ctx, fresh_hierarchy(small_grid, policy="fifo"))
        d1 = r1.hierarchy_stats.levels["dram"]
        d2 = r2.hierarchy_stats.levels["dram"]
        assert d1.hits + d1.misses == d2.hits + d2.misses

    def test_deterministic(self, ctx, small_grid):
        a = run_baseline(ctx, fresh_hierarchy(small_grid, policy="lru"))
        b = run_baseline(ctx, fresh_hierarchy(small_grid, policy="lru"))
        assert a.total_miss_rate == b.total_miss_rate
        assert a.total_time_s == b.total_time_s

    def test_belady_hierarchy_runs_and_is_optimal_at_dram(self, ctx, small_grid):
        trace = ctx.demand_trace()
        hb = belady_hierarchy(small_grid, trace)
        rb = run_baseline(ctx, hb, name="belady")
        for policy in ("lru", "fifo", "arc"):
            r = run_baseline(ctx, fresh_hierarchy(small_grid, policy=policy))
            assert rb.hierarchy_stats.levels["dram"].misses <= \
                r.hierarchy_stats.levels["dram"].misses

    def test_protect_current_step_variant(self, ctx, small_grid):
        h = fresh_hierarchy(small_grid, policy="lru")
        result = run_baseline(ctx, h, protect_current_step=True)
        assert result.n_steps == len(ctx.visible_sets)
