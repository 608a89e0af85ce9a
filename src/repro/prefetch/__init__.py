"""Prefetch strategies.

The paper's prefetcher is the ``T_visible`` lookup (Algorithm 1 line 22).
This package frames it as one of several interchangeable strategies so the
ablation benches can ask *how much of the win is the table* versus generic
prediction:

- :class:`NoPrefetcher` — caching only (the paper's FIFO/LRU regime);
- :class:`TableLookupPrefetcher` — the paper's method;
- :class:`MotionExtrapolationPrefetcher` — dead reckoning: extrapolate the
  camera and evaluate the frustum directly (no table, more compute);
- :class:`MarkovPrefetcher` — application-agnostic history-based
  prediction (first-order successor counting on block appearances).

:func:`repro.runtime.run_with_prefetcher` replays a camera path with
any strategy under the same accounting as the core pipeline.
"""

from repro.prefetch.base import Prefetcher
from repro.prefetch.strategies import (
    NoPrefetcher,
    TableLookupPrefetcher,
    MotionExtrapolationPrefetcher,
    MarkovPrefetcher,
)
from repro.runtime.drivers import run_with_prefetcher

__all__ = [
    "Prefetcher",
    "NoPrefetcher",
    "TableLookupPrefetcher",
    "MotionExtrapolationPrefetcher",
    "MarkovPrefetcher",
    "run_with_prefetcher",
]
