"""Simulated K-node cluster: sharded block ownership + network cost model.

The paper's replacement policy assumes a single-box DRAM/SSD/HDD
hierarchy.  This package partitions the block grid across K simulated
nodes (:class:`ShardMap`), gives each node its own DRAM/SSD tier over a
shared cold store, and charges peer transfers on a per-link network cost
model (:class:`NetworkLink` / :class:`NetworkFabric`) using the same
sim-clock ledger as the storage devices.  :class:`ShardedHierarchy`
implements the :class:`~repro.storage.hierarchy.MemoryHierarchy`
fetch/prefetch surface, so it drops into the replay engine, the
sessions scheduler, and the bench/serve harnesses unchanged — and at
K=1 it delegates wholesale to a single-box hierarchy, which the
shard-equivalence suite pins bit-for-bit against ``run_baseline``.
"""

from repro.cluster.faults import (
    CLUSTER_FAULT_PROFILES,
    cluster_fault_plan,
    partitioned_links,
)
from repro.cluster.hierarchy import ShardedHierarchy, make_sharded_hierarchy
from repro.cluster.network import NetworkFabric, NetworkLink
from repro.cluster.prefetch import GhostLayerPrefetcher, ReplicationPrefetcher
from repro.cluster.shardmap import SHARD_STRATEGIES, ShardMap

__all__ = [
    "CLUSTER_FAULT_PROFILES",
    "GhostLayerPrefetcher",
    "NetworkFabric",
    "NetworkLink",
    "ReplicationPrefetcher",
    "SHARD_STRATEGIES",
    "ShardMap",
    "ShardedHierarchy",
    "cluster_fault_plan",
    "make_sharded_hierarchy",
    "partitioned_links",
]
