"""Parallel data fetching (the paper's future work, §VI).

"Extend our method for parallel data fetching and rendering":
:class:`ParallelBlockFetcher` is a thread-pool fetcher over any
:class:`~repro.volume.store.BlockStore`, overlapping real block reads
(numpy releases the GIL during I/O and large copies).  Distributing
blocks across render nodes — importance-balanced or spatial — and
sort-last rendering over them live in :mod:`repro.cluster`
(:meth:`~repro.cluster.ShardMap.by_importance`,
:func:`~repro.cluster.run_sort_last`).
"""

from repro.parallel.fetcher import ParallelBlockFetcher

__all__ = ["ParallelBlockFetcher"]
