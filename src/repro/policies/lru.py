"""Least-Recently-Used replacement (paper baseline, §V).

Array-native: recency is a dense ``int64`` sequence array indexed by block
id (``-1`` = not tracked), bumped from a monotone clock on every insert and
hit.  The least-recent tracked key is the argmin of the sequence values —
no per-access ``OrderedDict`` churn, and the hierarchy's batched calls can
refresh a whole hit array with one fancy-indexed assignment
(:meth:`on_hit_many`) and pick victims via a masked argmin
(:meth:`choose_victim_masked`).

Recency order is identical to the classic ``OrderedDict`` formulation:
``move_to_end`` ⇔ assigning the next clock tick, and scanning from the
front ⇔ ascending sequence order.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.policies.base import EvictablePredicate, ReplacementPolicy, always_evictable

__all__ = ["LRUPolicy"]

_NOT_TRACKED = -1


class LRUPolicy(ReplacementPolicy):
    """Classic LRU over a dense per-key sequence array (min = least recent).

    ``choose_victim`` visits keys in ascending recency and returns the first
    evictable one; :meth:`choose_victim_masked` computes the same answer as
    a single masked argmin, which is how the batched fetch path calls it.
    """

    name = "lru"
    supports_masked_victim = True
    supports_victim_order = True

    def __init__(self) -> None:
        self._seq = np.full(64, _NOT_TRACKED, dtype=np.int64)
        self._clock = 0  # next sequence number to hand out (monotone)
        self._n = 0

    def _ensure(self, key: int) -> None:
        if key >= len(self._seq):
            grown = np.full(max(len(self._seq) * 2, key + 1), _NOT_TRACKED, dtype=np.int64)
            grown[: len(self._seq)] = self._seq
            self._seq = grown

    def reset(self) -> None:
        self._seq.fill(_NOT_TRACKED)
        self._clock = 0
        self._n = 0

    def on_hit(self, key: int, step: int) -> None:
        if key >= len(self._seq) or self._seq[key] == _NOT_TRACKED:
            raise KeyError(key)
        self._seq[key] = self._clock
        self._clock += 1

    def on_insert(self, key: int, step: int) -> None:
        self._ensure(key)
        if self._seq[key] != _NOT_TRACKED:
            raise KeyError(f"key {key} already tracked")
        self._seq[key] = self._clock
        self._clock += 1
        self._n += 1

    def on_evict(self, key: int) -> None:
        if key >= len(self._seq) or self._seq[key] == _NOT_TRACKED:
            raise KeyError(key)
        self._seq[key] = _NOT_TRACKED
        self._n -= 1

    def on_hit_many(self, keys: np.ndarray, step: int) -> None:
        n = len(keys)
        if n == 0:
            return
        self._seq[keys] = np.arange(self._clock, self._clock + n, dtype=np.int64)
        self._clock += n

    def on_insert_many(self, keys: np.ndarray, step: int) -> None:
        n = len(keys)
        if n == 0:
            return
        try:
            tracked = self._seq[keys] != _NOT_TRACKED
        except IndexError:
            self._ensure(int(keys.max()))
            tracked = self._seq[keys] != _NOT_TRACKED
        if tracked.any():
            raise KeyError("on_insert_many: key already tracked")
        self._seq[keys] = np.arange(self._clock, self._clock + n, dtype=np.int64)
        self._clock += n
        self._n += n

    def on_evict_many(self, keys: np.ndarray) -> None:
        n = len(keys)
        if n == 0:
            return
        if (self._seq[keys] == _NOT_TRACKED).any():
            raise KeyError("on_evict_many: key not tracked")
        self._seq[keys] = _NOT_TRACKED
        self._n -= n

    def choose_victim(self, evictable: EvictablePredicate = always_evictable) -> Optional[int]:
        tracked = np.flatnonzero(self._seq != _NOT_TRACKED)
        if tracked.size == 0:
            return None
        for key in tracked[np.argsort(self._seq[tracked], kind="stable")]:
            k = int(key)
            if evictable(k):
                return k
        return None

    def choose_victim_masked(self, evictable_mask: np.ndarray) -> Optional[int]:
        # Tracked keys are always covered by both arrays (the cache ensures
        # its arrays before admitting), so trimming to the shorter is safe.
        n = min(len(evictable_mask), len(self._seq))
        cand = np.flatnonzero(evictable_mask[:n] & (self._seq[:n] != _NOT_TRACKED))
        if cand.size == 0:
            return None
        return int(cand[np.argmin(self._seq[cand])])

    def victim_order(self, evictable_mask: np.ndarray) -> np.ndarray:
        """All current candidates, least-recent first (one sort, no argmins).

        Victim choice has no side effects in LRU, and later accesses can
        only *remove* keys from candidacy (a touch makes the key most
        recent; an insert is never an immediate candidate) — never reorder
        the survivors — so the cache may walk this once-sorted queue
        instead of recomputing :meth:`choose_victim_masked` per eviction.
        """
        n = min(len(evictable_mask), len(self._seq))
        cand = np.flatnonzero(evictable_mask[:n] & (self._seq[:n] != _NOT_TRACKED))
        return cand[np.argsort(self._seq[cand], kind="stable")]

    def victim_order_token(self) -> int:
        """Clock value delimiting the order: entries all have ``seq < clock``."""
        return self._clock

    def victim_still_ordered(self, key: int, token: int) -> bool:
        """True while ``key`` has not been touched/re-inserted since ``token``.

        Every access after the token bumps the key's seq to ``>= token``,
        i.e. *more recent than every queue entry* — so the first entry that
        passes this check is the global least-recent key, exactly what
        :meth:`choose_victim_masked` over the live state would return.
        """
        seq = self._seq[key]
        return seq != _NOT_TRACKED and seq < token

    def victim_still_ordered_many(self, keys: np.ndarray, token: int) -> np.ndarray:
        seq = self._seq[keys]
        return (seq != _NOT_TRACKED) & (seq < token)

    def __len__(self) -> int:
        return self._n

    def recency_order(self) -> "list[int]":
        """Keys from least to most recently used (testing/diagnostics)."""
        tracked = np.flatnonzero(self._seq != _NOT_TRACKED)
        return [int(k) for k in tracked[np.argsort(self._seq[tracked], kind="stable")]]
