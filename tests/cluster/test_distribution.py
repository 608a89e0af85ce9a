"""Tests for importance-aware data distribution (``ShardMap.by_importance``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.cluster import ShardMap
from repro.volume.blocks import BlockGrid


def _row(n_blocks: int) -> BlockGrid:
    """An ``n_blocks`` x 1 x 1 block grid."""
    return BlockGrid((4 * n_blocks, 4, 4), (4, 4, 4))


def _loads(shard_map: ShardMap, scores: np.ndarray) -> np.ndarray:
    loads = np.zeros(shard_map.n_nodes)
    np.add.at(loads, shard_map.owner, scores)
    return loads


class TestByImportance:
    def test_every_block_assigned(self):
        scores = np.arange(20, dtype=float)
        m = ShardMap.by_importance(_row(20), 4, scores)
        assert m.owner.shape == (20,)
        assert set(np.unique(m.owner)) == {0, 1, 2, 3}
        assert m.strategy == "importance"

    def test_balances_uniform_scores(self):
        m = ShardMap.by_importance(_row(12), 3, np.ones(12))
        assert np.all(m.counts() == 4)

    def test_balances_skewed_scores(self):
        # One huge block + many small: the huge one gets its own light node.
        scores = np.array([100.0] + [1.0] * 9)
        m = ShardMap.by_importance(_row(10), 2, scores)
        # LPT guarantee: max load <= 4/3 * optimal; optimal here is 100 vs 9.
        assert _loads(m, scores).max() == pytest.approx(100.0)

    @given(
        arrays(np.float64, st.integers(4, 60), elements=st.floats(0.0, 10.0)),
        st.integers(1, 4),
    )
    @settings(max_examples=50)
    def test_lpt_bound(self, scores, n_nodes):
        m = ShardMap.by_importance(_row(scores.size), n_nodes, scores)
        total = scores.sum()
        if total == 0:
            return
        # LPT makespan bound: max <= mean * 4/3 + largest item.
        assert _loads(m, scores).max() <= total / n_nodes * (4 / 3) + scores.max() + 1e-9

    def test_validation(self):
        with pytest.raises(ValueError):
            ShardMap.by_importance(_row(2), 3, np.ones(2))
        with pytest.raises(ValueError):
            ShardMap.by_importance(_row(4), 1, np.ones((2, 2)))
        with pytest.raises(ValueError):
            ShardMap.by_importance(_row(4), 1, np.ones(5))
        with pytest.raises(ValueError):
            ShardMap.by_importance(_row(4), 0, np.ones(4))


class TestSlab:
    def test_slabs_along_longest_axis(self):
        grid = BlockGrid((32, 8, 8), (4, 4, 4))  # 8x2x2 blocks, x longest
        m = ShardMap(grid, 4, "slab")
        for bid in grid.iter_ids():
            bi, _, _ = grid.block_index(bid)
            assert m.owner[bid] == bi // 2

    def test_every_node_nonempty(self):
        grid = BlockGrid((16, 16, 16), (4, 4, 4))
        m = ShardMap(grid, 4, "slab")
        assert set(np.unique(m.owner)) == {0, 1, 2, 3}

    def test_single_node(self):
        grid = BlockGrid((8, 8, 8), (4, 4, 4))
        assert np.all(ShardMap(grid, 1, "slab").owner == 0)


class TestLoadImbalance:
    @pytest.fixture()
    def grid(self):
        return BlockGrid((16, 16, 16), (4, 4, 4))

    def test_importance_map_balances_better(self, grid):
        """The headline trade-off: LPT balances importance, slabs localize."""
        rng = np.random.default_rng(0)
        # Importance concentrated in one corner (a feature region).
        scores = rng.random(grid.n_blocks) * 0.1
        corner = grid.centers()
        hot = np.all(corner > 0, axis=1)
        scores[hot] += 5.0

        by_imp = ShardMap.by_importance(grid, 4, scores)
        slab = ShardMap(grid, 4, "slab")

        assert by_imp.load_imbalance(scores) < slab.load_imbalance(scores)
        assert by_imp.locality_score() < slab.locality_score()

    def test_perfect_balance_uniform(self, grid):
        scores = np.ones(grid.n_blocks)
        m = ShardMap.by_importance(grid, 4, scores)
        assert m.load_imbalance(scores) == pytest.approx(1.0)
        assert m.load_imbalance() == pytest.approx(1.0)

    def test_counts_alive_nodes_only(self, grid):
        """A failed node owns nothing and carries no load in the mean."""
        m = ShardMap(grid, 4, "round-robin").reshard_without(3)
        counts = m.counts()
        assert counts[3] == 0
        assert m.load_imbalance() == counts[:3].max() / counts[:3].mean()
        assert m.load_imbalance(np.zeros(grid.n_blocks)) == 1.0

    def test_validation(self, grid):
        with pytest.raises(ValueError):
            ShardMap(grid, 4).load_imbalance(np.zeros(3))


class TestReshardWithout:
    @pytest.fixture()
    def grid(self):
        return BlockGrid((16, 16, 16), (4, 4, 4))

    @pytest.mark.parametrize("dead", [-1, 4, 7, [1, 9]])
    def test_node_outside_the_range_raises(self, grid, dead):
        """An id outside ``[0, n_nodes)`` is an error, not a silent no-op."""
        m = ShardMap(grid, 4, "slab")
        with pytest.raises(ValueError, match=r"not in \[0, 4\)"):
            m.reshard_without(dead)

    def test_node_in_range_reshards(self, grid):
        m = ShardMap(grid, 4, "slab").reshard_without([0, 3])
        assert m.alive == (1, 2) and m.counts()[[0, 3]].tolist() == [0, 0]
