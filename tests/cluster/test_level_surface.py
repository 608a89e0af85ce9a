"""The level surface a sharded hierarchy inherits from the single box."""

import numpy as np
import pytest

from repro.cluster import NetworkFabric, ShardedHierarchy, ShardMap, make_sharded_hierarchy
from repro.policies import make_policy
from repro.storage.cache import CacheLevel
from repro.storage.hierarchy import make_standard_hierarchy
from repro.storage.stats import CacheStats
from repro.volume.blocks import BlockGrid

GRID = BlockGrid((32, 32, 32), (8, 8, 8))  # 64 blocks


def test_one_node_hierarchy_rejects_a_ghost_cache():
    node = make_standard_hierarchy(GRID.n_blocks, GRID.uniform_block_nbytes())
    ghost = CacheLevel("ghost", 4, make_policy("lru"), n_blocks=GRID.n_blocks)
    with pytest.raises(ValueError, match="one-node"):
        ShardedHierarchy(ShardMap(GRID, 1), [node], NetworkFabric(1),
                         GRID.uniform_block_nbytes(), ghost=ghost)


@pytest.mark.parametrize("keys", [[], [5, 3, 60, 3, 7]])
def test_one_node_levels_and_preload_are_the_single_box(keys):
    sharded = make_sharded_hierarchy(GRID, 1, cache_ratio=0.25)
    single = make_standard_hierarchy(GRID.n_blocks, GRID.uniform_block_nbytes(), 0.25)
    assert sharded.levels == sharded.nodes[0].levels
    assert sharded.preload(keys) == single.preload(keys)
    assert {name: s.as_dict() for name, s in sharded.stats().levels.items()} == {
        name: s.as_dict() for name, s in single.stats().levels.items()
    }


def test_many_node_levels_are_every_node_then_the_ghost():
    h = make_sharded_hierarchy(GRID, 4, ghost_ratio=0.1)
    names = [level.name for level in h.levels]
    assert names == [f"n{k}.{d}" for k in range(4) for d in ("dram", "ssd")] + ["ghost"]
    assert list(h.stats().levels) == names
    placed = h.preload(np.arange(8))
    assert sum(placed.values()) == sum(len(level) for level in h.levels)


def test_many_node_fastest_stats_are_one_cache_stats_of_the_sums():
    """At K>1 the fastest tier's ``stats`` is a ``CacheStats`` whose
    counters are the node DRAM tiers' sums, so its rates are those of the
    sums: a run of misses reads ``miss_rate`` 1.0, not one per node."""
    h = make_sharded_hierarchy(GRID, 4)
    for key in range(GRID.n_blocks):
        h.fetch(key, step=0)
    stats = h.fastest.stats
    assert isinstance(stats, CacheStats)
    parts = [node.fastest.stats for node in h.nodes]
    for name in ("hits", "misses", "inserts", "evictions", "bytes_read"):
        assert getattr(stats, name) == sum(getattr(p, name) for p in parts)
    assert (stats.hits, stats.misses) == (0, GRID.n_blocks)
    assert (stats.miss_rate, stats.hit_rate) == (1.0, 0.0)
    assert stats.as_dict()["miss_rate"] == 1.0
    resident = next(key for key in range(GRID.n_blocks) if key in h.fastest)
    h.fetch(resident, step=1)
    n = GRID.n_blocks
    assert (h.fastest.stats.hits, h.fastest.stats.miss_rate) == (1, n / (n + 1))


@pytest.mark.parametrize("n_nodes", [1, 4])
def test_fastest_stats_reset_clears_the_counters_it_reads(n_nodes):
    """``h.fastest.stats.reset()`` means one thing at every K: the next
    read shows zero.  At K>1 it resets the node DRAM tiers' counters, the
    sums' parts."""
    h = make_sharded_hierarchy(GRID, n_nodes)
    for key in range(GRID.n_blocks):
        h.fetch(key, step=0)
    assert h.fastest.stats.misses == GRID.n_blocks
    h.fastest.stats.reset()
    assert h.fastest.stats.as_dict() == CacheStats().as_dict()
    assert all(node.fastest.stats == CacheStats() for node in h.nodes)
