"""Tenant quotas on a K>1 sharded hierarchy.

``ShardedHierarchy.set_tenant_quotas`` partitions every node level and
the home-side ghost cache under one rule, the one
``MemoryHierarchy`` applies to its levels: all of them or none.
"""

import pytest

from repro.cluster import make_sharded_hierarchy
from repro.volume.blocks import BlockGrid


def _levels(h):
    return [level for node in h.nodes for level in node.levels] + [h.ghost]


@pytest.fixture
def sharded():
    grid = BlockGrid((64, 64, 64), (8, 8, 8))  # 512 blocks, 128 per node
    h = make_sharded_hierarchy(grid, 4, cache_ratio=0.5, ghost_ratio=0.01)
    assert h.ghost.capacity == 5
    return h


class TestShardedTenantQuotas:
    def test_every_node_level_and_the_ghost_cache(self, sharded):
        quotas = sharded.set_tenant_quotas({f"t{i}": 0.25 for i in range(4)})
        assert sorted(quotas) == sorted(level.name for level in _levels(sharded))
        assert quotas["n0.dram"] == {f"t{i}": 8 for i in range(4)}
        assert quotas["ghost"] == {f"t{i}": 1 for i in range(4)}
        assert all(level.tenant_quotas_enabled for level in _levels(sharded))
        assert sharded.set_tenant_quotas(None) == {}
        assert not any(level.tenant_quotas_enabled for level in _levels(sharded))

    def test_a_level_that_cannot_hold_its_quotas_installs_none(self, sharded):
        # Every node level holds 8 tenants at 1/8; the 5-block ghost cache
        # cannot give each of them a block.
        with pytest.raises(ValueError, match="ghost: capacity 5"):
            sharded.set_tenant_quotas({f"t{i}": 1 / 8 for i in range(8)})
        assert not any(level.tenant_quotas_enabled for level in _levels(sharded))
