"""Tests for sort-last parallel rendering over a sharded hierarchy."""

import numpy as np
import pytest

from repro.camera.path import spherical_path
from repro.cluster import ShardMap, make_sharded_hierarchy, run_sort_last
from repro.core.pipeline import PipelineContext
from repro.importance.entropy import block_entropies
from repro.runtime import run_baseline
from repro.storage.hierarchy import make_standard_hierarchy
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

VIEW = 10.0


@pytest.fixture(scope="module")
def context():
    grid = BlockGrid((32, 32, 32), (4, 4, 4))  # 512 blocks
    path = spherical_path(n_positions=12, degrees_per_step=8.0, distance=2.5,
                          view_angle_deg=VIEW, seed=4)
    return PipelineContext.create(path, grid)


@pytest.fixture(scope="module")
def scores(context):
    return block_entropies(Volume(ball_field((32, 32, 32))), context.grid)


def _run(context, shard_map, cache_ratio=0.5, name="sort-last"):
    h = make_sharded_hierarchy(
        context.grid, shard_map.n_nodes, shard_map=shard_map, cache_ratio=cache_ratio
    )
    return run_sort_last(context, h, name=name)


def _reference(context, assignment, n_nodes, cache_ratio):
    """The multi-node loop before it ran on the sharded hierarchy's nodes:
    one single-box hierarchy per node, sized for the node's own share."""
    grid = context.grid
    hierarchies = [
        make_standard_hierarchy(
            n_blocks=max(int((assignment == node).sum()), 1),
            block_nbytes=grid.uniform_block_nbytes(),
            cache_ratio=cache_ratio,
        )
        for node in range(n_nodes)
    ]
    frame_times, busy = [], [0.0] * n_nodes
    for i, ids in enumerate(context.visible_sets):
        owners = assignment[ids]
        frame = 0.0
        for node in range(n_nodes):
            mine = ids[owners == node]
            io = hierarchies[node].fetch_many(mine, i, min_free_step=i).time_s
            node_time = io + context.render_model.render_time(len(mine))
            busy[node] += node_time
            frame = max(frame, node_time)
        frame_times.append(frame)
    return frame_times, busy


class TestRunSortLast:
    def test_single_node_degenerates_to_serial(self, context):
        grid = context.grid
        result = _run(context, ShardMap(grid, 1))
        assert result.n_nodes == 1
        assert result.parallel_efficiency == pytest.approx(1.0)
        assert len(result.frame_times_s) == len(context.visible_sets)
        # Exactly the serial protected baseline, frame by frame.
        for cache_ratio in (0.25, 0.5):
            one = _run(context, ShardMap(grid, 1), cache_ratio=cache_ratio)
            serial = run_baseline(
                context,
                make_standard_hierarchy(
                    grid.n_blocks, grid.uniform_block_nbytes(), cache_ratio=cache_ratio
                ),
                protect_current_step=True,
            )
            assert one.frame_times_s == [s.step_total_serial_s for s in serial.steps]

    def test_frame_time_is_max_over_nodes(self, context):
        """With all blocks owned by node 0 of 2 (node 1 failed, its blocks
        dealt to node 0), node 1 renders nothing and the frame time equals
        the single-node time: no speedup, and no barrier wait either."""
        grid = context.grid
        lopsided = ShardMap(grid, 2).reshard_without(1)
        assert np.all(lopsided.owner == 0)
        two = _run(context, lopsided)
        one = _run(context, ShardMap(grid, 1))
        assert two.total_time_s == pytest.approx(one.total_time_s)
        assert two.node_busy_s[1] == 0
        assert two.parallel_efficiency == pytest.approx(1.0)

    def test_balanced_partition_speeds_up(self, context):
        grid = context.grid
        four = _run(context, ShardMap(grid, 4, "round-robin"))
        one = _run(context, ShardMap(grid, 1))
        assert four.total_time_s < one.total_time_s

    def test_validation(self, context):
        grid = context.grid
        other = BlockGrid((16, 16, 16), (4, 4, 4))
        with pytest.raises(ValueError):
            run_sort_last(context, make_sharded_hierarchy(other, 2))
        with pytest.raises(ValueError):
            make_sharded_hierarchy(grid, 0)
        with pytest.raises(ValueError):
            make_sharded_hierarchy(grid, 2, shard_map=ShardMap(grid, 4))

    def test_metrics_consistency(self, context):
        result = _run(context, ShardMap(context.grid, 2, "round-robin"))
        assert result.ideal_time_s <= result.total_time_s + 1e-9
        assert 0.0 < result.parallel_efficiency <= 1.0
        assert result.load_imbalance >= 1.0


class TestMatchesReference:
    """The sharded hierarchy's nodes serve a sort-last frame exactly as the
    per-node single-box hierarchies of the reference loop."""

    @pytest.mark.parametrize("cache_ratio", [0.25, 0.5])
    @pytest.mark.parametrize("strategy", ["slab", "importance"])
    @pytest.mark.parametrize("n_nodes", [1, 2, 4, 8])
    def test_frame_and_busy_times_equal(self, context, scores, n_nodes, strategy, cache_ratio):
        grid = context.grid
        if strategy == "importance":
            shard_map = ShardMap.by_importance(grid, n_nodes, scores)
        else:
            shard_map = ShardMap(grid, n_nodes, strategy)
        result = _run(context, shard_map, cache_ratio=cache_ratio)
        frame_times, busy = _reference(context, shard_map.owner, n_nodes, cache_ratio)
        assert result.frame_times_s == frame_times
        assert result.node_busy_s == busy


class TestDistributionMatters:
    def test_spreading_the_hot_region_helps(self, context, scores):
        """The §VI claim made operational: when per-view work concentrates
        in a spatial region, a partition that spreads blocks across nodes
        (importance-LPT, which interleaves) beats spatial slabs, where one
        node owns the entire visible region."""
        grid = context.grid
        slabs = _run(context, ShardMap(grid, 4, "slab"), name="spatial")
        lpt = _run(context, ShardMap.by_importance(grid, 4, scores), name="importance-lpt")
        assert lpt.total_time_s < slabs.total_time_s
        assert lpt.parallel_efficiency > slabs.parallel_efficiency
