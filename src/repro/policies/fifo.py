"""First-In-First-Out replacement (paper baseline, §V).

Array-native: FIFO is :class:`~repro.policies.lru.LRUPolicy` whose hits
never tick, so ``_seq`` holds each tracked key's insertion tick and
victims and the cache's amortised victim queue both come from the same
sorted tick array.
"""

from __future__ import annotations

import numpy as np

from repro.policies.lru import LRUPolicy

__all__ = ["FIFOPolicy"]


class FIFOPolicy(LRUPolicy):
    """Evict in insertion order; hits do not refresh a block's position."""

    name = "fifo"
    hits_reorder_victims = False

    def on_hit(self, key: int, step: int) -> None:
        # FIFO ignores recency by definition.
        pass

    def on_hit_many(self, keys: np.ndarray, step: int) -> None:
        pass

    def on_access_many(self, keys: np.ndarray, inserted: np.ndarray, step: int) -> None:
        self.on_insert_many(keys[inserted], step)

    def insertion_order(self) -> "list[int]":
        """Keys from oldest to newest insertion (testing/diagnostics)."""
        return self.recency_order()
