"""Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

Cited in the paper's related work (§II) as a strong generic policy; we
include it so the benches can show the app-aware policy also beats an
*adaptive* recency/frequency baseline, not just FIFO/LRU.

This is the standard ARC algorithm adapted to this library's cache/policy
split: the cache owns residency, so ARC's REPLACE step is realised through
``choose_victim`` (pick from T1 or T2 per the adaptation target ``p``) and
``on_evict`` (move the evicted key into the matching ghost list).  Ghost
hits adjust ``p`` inside ``on_insert`` exactly as in the original CASES
II/III; ghost-list trimming follows CASE IV.  A level's frame
(``CacheLevel.access_many``) makes these calls in frame order over its
own plan — ``on_hit_many`` per run of hits, and per admitted miss
``choose_victim``, ``on_evict`` and ``on_insert`` — and then writes the
frame once.
"""

from __future__ import annotations

from collections import OrderedDict
from typing import Optional

from repro.policies.base import EvictablePredicate, ReplacementPolicy, always_evictable

__all__ = ["ARCPolicy"]


class ARCPolicy(ReplacementPolicy):
    name = "arc"

    def __init__(self, capacity: Optional[int] = None) -> None:
        self._c = capacity
        self._p = 0.0  # adaptation target for |T1|
        self._t1: "OrderedDict[int, None]" = OrderedDict()  # recency (seen once)
        self._t2: "OrderedDict[int, None]" = OrderedDict()  # frequency (seen 2+)
        self._b1: "OrderedDict[int, None]" = OrderedDict()  # ghosts of T1
        self._b2: "OrderedDict[int, None]" = OrderedDict()  # ghosts of T2

    # -- lifecycle -------------------------------------------------------------

    def set_capacity(self, capacity: int) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._c = capacity

    def reset(self) -> None:
        self._p = 0.0
        for lst in (self._t1, self._t2, self._b1, self._b2):
            lst.clear()

    def _require_capacity(self) -> int:
        if self._c is None:
            raise RuntimeError("ARCPolicy needs set_capacity() before use")
        return self._c

    # -- policy events -----------------------------------------------------------

    def on_hit(self, key: int, step: int) -> None:
        # CASE I: hit in T1 or T2 -> MRU of T2.
        if key in self._t1:
            del self._t1[key]
        elif key in self._t2:
            del self._t2[key]
        else:
            raise KeyError(f"hit on untracked key {key}")
        self._t2[key] = None

    def on_hit_many(self, keys, step: int) -> None:
        # CASE I per key, without a policy call each: a T2 hit is a
        # move_to_end, which raises KeyError for an untracked key too.
        # ``keys`` is a list (a planned frame's hit run) or an array.
        t1, t2 = self._t1, self._t2
        move = t2.move_to_end
        for key in keys if isinstance(keys, list) else keys.tolist():
            if key in t1:
                del t1[key]
                t2[key] = None
            else:
                move(key)

    def on_insert(self, key: int, step: int) -> None:
        c = self._require_capacity()
        if key in self._t1 or key in self._t2:
            raise KeyError(f"key {key} already tracked")
        if key in self._b1:
            # CASE II: ghost hit in B1 -> grow p, promote to T2.
            delta = max(len(self._b2) / max(len(self._b1), 1), 1.0)
            self._p = min(float(c), self._p + delta)
            del self._b1[key]
            self._t2[key] = None
            return
        if key in self._b2:
            # CASE III: ghost hit in B2 -> shrink p, promote to T2.
            delta = max(len(self._b1) / max(len(self._b2), 1), 1.0)
            self._p = max(0.0, self._p - delta)
            del self._b2[key]
            self._t2[key] = None
            return
        # CASE IV: completely new key -> trim ghost lists, insert into T1.
        l1 = len(self._t1) + len(self._b1)
        if l1 >= c:
            if self._b1:
                self._b1.popitem(last=False)
            # (If B1 is empty the resident eviction is the cache's job.)
        else:
            total = l1 + len(self._t2) + len(self._b2)
            if total >= 2 * c and self._b2:
                self._b2.popitem(last=False)
        self._t1[key] = None

    def on_evict(self, key: int) -> None:
        # REPLACE epilogue: evicted residents become ghosts (LRU->MRU order).
        if key in self._t1:
            del self._t1[key]
            self._b1[key] = None
        elif key in self._t2:
            del self._t2[key]
            self._b2[key] = None
        else:
            raise KeyError(f"evict of untracked key {key}")

    def choose_victim(self, evictable: EvictablePredicate = always_evictable) -> Optional[int]:
        self._require_capacity()
        prefer_t1 = len(self._t1) >= max(1.0, self._p)
        lists = (self._t1, self._t2) if prefer_t1 else (self._t2, self._t1)
        for lst in lists:
            for key in lst:  # LRU end first
                if evictable(key):
                    return key
        return None

    def __len__(self) -> int:
        return len(self._t1) + len(self._t2)

    # -- diagnostics ---------------------------------------------------------

    @property
    def p(self) -> float:
        """Current adaptation target for the size of T1."""
        return self._p

    def list_sizes(self) -> "dict[str, int]":
        """Sizes of T1/T2/B1/B2 (testing/diagnostics)."""
        return {
            "t1": len(self._t1),
            "t2": len(self._t2),
            "b1": len(self._b1),
            "b2": len(self._b2),
        }
