"""Tests for the multi-node parallel rendering simulation."""

import numpy as np
import pytest

from repro.camera.path import spherical_path
from repro.core.pipeline import PipelineContext
from repro.importance.entropy import block_entropies
from repro.parallel.distribution import partition_by_importance, partition_spatial
from repro.parallel.multinode import run_multinode
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


class TestRunMultinode:
    def test_single_node_degenerates_to_serial(self, context):
        grid = context.grid
        result = run_multinode(context, np.zeros(grid.n_blocks, dtype=np.int64), 1)
        assert result.n_nodes == 1
        assert result.parallel_efficiency == pytest.approx(1.0)
        assert len(result.frame_times_s) == len(context.visible_sets)
        # Exactly the serial protected baseline, frame by frame.
        for cache_ratio in (0.25, 0.5):
            one = run_multinode(
                context, np.zeros(grid.n_blocks, dtype=np.int64), 1, cache_ratio=cache_ratio
            )
            serial = run_baseline(
                context,
                make_standard_hierarchy(
                    grid.n_blocks, grid.uniform_block_nbytes(), cache_ratio=cache_ratio
                ),
                protect_current_step=True,
            )
            assert one.frame_times_s == [s.step_total_serial_s for s in serial.steps]

    def test_frame_time_is_max_over_nodes(self, context):
        """With all blocks owned by node 0 of 2, node 1 idles and the frame
        time equals the single-node time (no speedup from an idle node)."""
        grid = context.grid
        lopsided = np.zeros(grid.n_blocks, dtype=np.int64)
        two = run_multinode(context, lopsided, 2)
        one = run_multinode(context, lopsided, 1)
        assert two.total_time_s == pytest.approx(one.total_time_s)
        assert two.node_busy_s[1] > 0  # only the base render cost per frame
        assert two.parallel_efficiency < 0.8

    def test_balanced_partition_speeds_up(self, context):
        grid = context.grid
        even = np.arange(grid.n_blocks, dtype=np.int64) % 4
        four = run_multinode(context, even, 4)
        one = run_multinode(context, np.zeros(grid.n_blocks, dtype=np.int64), 1)
        assert four.total_time_s < one.total_time_s

    def test_validation(self, context):
        grid = context.grid
        with pytest.raises(ValueError):
            run_multinode(context, np.zeros(10, dtype=np.int64), 2)
        with pytest.raises(ValueError):
            run_multinode(context, np.zeros(grid.n_blocks, dtype=np.int64), 0)
        bad = np.full(grid.n_blocks, 5, dtype=np.int64)
        with pytest.raises(ValueError):
            run_multinode(context, bad, 2)

    def test_metrics_consistency(self, context):
        grid = context.grid
        result = run_multinode(context, np.arange(grid.n_blocks) % 2, 2)
        assert result.ideal_time_s <= result.total_time_s + 1e-9
        assert 0.0 < result.parallel_efficiency <= 1.0
        assert result.load_imbalance >= 1.0


class TestDistributionMatters:
    def test_spreading_the_hot_region_helps(self, context):
        """The §VI claim made operational: when per-view work concentrates
        in a spatial region, a partition that spreads blocks across nodes
        (importance-LPT, which interleaves) beats spatial slabs, where one
        node owns the entire visible region."""
        grid = context.grid
        vol = Volume(ball_field((32, 32, 32)))
        scores = block_entropies(vol, grid)

        slabs = run_multinode(context, partition_spatial(grid, 4), 4, name="spatial")
        lpt = run_multinode(
            context, partition_by_importance(scores, 4), 4, name="importance-lpt"
        )
        assert lpt.total_time_s < slabs.total_time_s
        assert lpt.parallel_efficiency > slabs.parallel_efficiency
