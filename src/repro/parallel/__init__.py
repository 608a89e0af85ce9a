"""Parallel data fetching and importance-aware distribution.

The paper's future work (§VI): "extend our method for parallel data
fetching and rendering ... study data partitioning and distribution
schemes by leveraging data importance information".  This package builds
both pieces:

- :class:`ParallelBlockFetcher` — a thread-pool fetcher over any
  :class:`~repro.volume.store.BlockStore`, overlapping real block reads
  (numpy releases the GIL during I/O and large copies);
- :func:`partition_by_importance` — distribute blocks across render nodes
  balancing total importance (greedy LPT), plus spatially-contiguous
  variants for comparison.
"""

from repro.parallel.fetcher import ParallelBlockFetcher
from repro.parallel.distribution import (
    partition_by_importance,
    partition_spatial,
    partition_stats,
)
from repro.parallel.multinode import MultiNodeResult, run_multinode

__all__ = [
    "ParallelBlockFetcher",
    "partition_by_importance",
    "partition_spatial",
    "partition_stats",
    "MultiNodeResult",
    "run_multinode",
]
