"""The ``OrderedDict`` FIFO policy: the reference the array-native
:class:`repro.policies.fifo.FIFOPolicy` must answer exactly like."""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.policies.base import EvictablePredicate, ReplacementPolicy, always_evictable


class FIFOPolicy(ReplacementPolicy):
    """Evict in insertion order; hits do not refresh a block's position."""

    name = "fifo"

    def __init__(self) -> None:
        self._order: "OrderedDict[int, None]" = OrderedDict()

    def reset(self) -> None:
        self._order.clear()

    def on_hit(self, key: int, step: int) -> None:
        # FIFO ignores recency by definition.
        pass

    def on_insert(self, key: int, step: int) -> None:
        if key in self._order:
            raise KeyError(f"key {key} already tracked")
        self._order[key] = None

    def on_evict(self, key: int) -> None:
        del self._order[key]

    def choose_victim(self, evictable: EvictablePredicate = always_evictable) -> Optional[int]:
        for key in self._order:
            if evictable(key):
                return key
        return None

    def __len__(self) -> int:
        return len(self._order)

    def insertion_order(self) -> "list[int]":
        """Keys from oldest to newest insertion (testing/diagnostics)."""
        return list(self._order)
