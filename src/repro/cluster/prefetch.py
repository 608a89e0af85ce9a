"""Cluster-aware prefetch strategies: ghost layers and replication.

Both strategies follow the :mod:`repro.prefetch.strategies` protocol
(``name`` / ``predict(step, position, visible_ids)`` returning an int64
id array) and are registered in the prefetcher registry as ``ghost`` and
``replicate``, so ``make_prefetcher("ghost", shard_map=...)`` builds one
for :func:`~repro.runtime.run_with_prefetcher` unchanged.  Both
need the cluster's :class:`~repro.cluster.shardmap.ShardMap` (passed
through the factory dependency pool as ``shard_map=``).

``ghost``
    Predicts the *ghost layer*: remote-owned 6-neighbors of the current
    visible set — the halo a distributed renderer exchanges ahead of
    camera motion, so the blocks most likely to become visible next frame
    are already replicated home-side.

``replicate``
    Predicts every remote-owned block of the current visible set itself:
    eager replication that turns repeat visibility of peer blocks into
    local (owner-DRAM or ghost-cache) hits.
"""

from __future__ import annotations

import numpy as np

from repro.cluster.shardmap import ShardMap
from repro.prefetch.base import Prefetcher

__all__ = ["GhostLayerPrefetcher", "ReplicationPrefetcher"]

_EMPTY = np.empty(0, dtype=np.int64)


def _neighbor_ids(ids: np.ndarray, extents) -> np.ndarray:
    """Unique 6-neighbor block ids of ``ids`` (in-grid only), ascending."""
    if ids.size == 0:
        return _EMPTY
    coords = np.stack(np.unravel_index(ids, extents)).astype(np.int64)
    parts = []
    for axis in range(3):
        for delta in (-1, 1):
            shifted = coords.copy()
            shifted[axis] += delta
            ok = (shifted[axis] >= 0) & (shifted[axis] < extents[axis])
            if np.any(ok):
                parts.append(
                    np.ravel_multi_index(tuple(shifted[:, ok]), extents).astype(np.int64)
                )
    if not parts:
        return _EMPTY
    return np.unique(np.concatenate(parts))


class GhostLayerPrefetcher(Prefetcher):
    """Prefetch the remote-owned halo around the visible set."""

    name = "ghost"

    def __init__(self, shard_map: ShardMap, home: int = 0) -> None:
        self.shard_map = shard_map
        self.home = int(home)

    def predict(self, step: int, position, visible_ids: np.ndarray) -> np.ndarray:
        ids = np.ascontiguousarray(visible_ids, dtype=np.int64)
        halo = _neighbor_ids(ids, self.shard_map.grid.blocks_per_axis)
        if halo.size == 0:
            return _EMPTY
        halo = np.setdiff1d(halo, ids, assume_unique=False)
        remote = halo[self.shard_map.owner[halo] != self.home]
        return np.ascontiguousarray(remote, dtype=np.int64)


class ReplicationPrefetcher(Prefetcher):
    """Prefetch every remote-owned block of the visible set itself."""

    name = "replicate"

    def __init__(self, shard_map: ShardMap, home: int = 0) -> None:
        self.shard_map = shard_map
        self.home = int(home)

    def predict(self, step: int, position, visible_ids: np.ndarray) -> np.ndarray:
        ids = np.ascontiguousarray(visible_ids, dtype=np.int64)
        if ids.size == 0:
            return _EMPTY
        remote = ids[self.shard_map.owner[ids] != self.home]
        return np.ascontiguousarray(remote, dtype=np.int64)
