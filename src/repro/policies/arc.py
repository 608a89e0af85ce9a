"""Adaptive Replacement Cache (Megiddo & Modha, FAST'03).

Cited in the paper's related work (§II) as a strong generic policy; we
include it so the benches can show the app-aware policy also beats an
*adaptive* recency/frequency baseline, not just FIFO/LRU.

This is the standard ARC algorithm adapted to this library's cache/policy
split: the cache owns residency, so ARC's REPLACE step is realised through
``choose_victim`` (pick from T1 or T2 per the adaptation target ``p``) and
``on_evict`` (move the evicted key into the matching ghost list).  Ghost
hits adjust ``p`` inside ``on_insert`` exactly as in the original CASES
II/III; ghost-list trimming follows CASE IV.
"""

from __future__ import annotations

import bisect
from collections import OrderedDict
from typing import Optional

import numpy as np

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
        self._hits(keys.tolist())

    def _hits(self, keys: list) -> None:
        # CASE I per key, without a policy call each: a T2 hit is a
        # move_to_end, which raises KeyError for an untracked key too.
        t1, t2 = self._t1, self._t2
        move = t2.move_to_end
        for key in keys:
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

    plans_frames = True

    def plan_frame(self, keys, hit, where, free, used, step, touch, limit, admits):
        """A level's frame in one pass over the lists: CASE I on each run of
        hits, and for each admitted miss past the free slots the victim
        :meth:`choose_victim` takes — T1 when ``len(T1) >= max(1, p)``,
        else T2, the other list when the preferred one has nothing
        evictable, LRU end first — moved to its ghost list, then CASES
        II–IV.

        ``keys`` are the frame's unique block ids, ``hit`` their residency
        at the frame's start, ``where`` each block id's frame position (-1:
        not in the frame), ``free`` the level's empty slots and ``used``
        the residents that are not evictable (None: all are); what the
        frame touches or inserts joins ``used``.  ``touch``, ``limit`` and
        ``admits`` are ``access_many``'s.  ``hit`` becomes the live hit
        mask (a block evicted before its access is a miss).  Returns
        ``(end, inserted, victims, evicted_at, bypassed)``: the frame
        processed is ``keys[:end]``, then the inserts' frame positions, the
        victims in eviction order with the position of the miss that
        popped each, and the bypassed misses' positions."""
        evictable = always_evictable if used is None else (lambda key: key not in used)
        misses = np.flatnonzero(~hit).tolist()
        inserted, victims, evicted_at, bypassed = [], [], [], []
        pos = i = n_admits = 0
        while i < len(misses):  # ascending frame positions
            p = misses[i]
            i += 1
            if touch and pos < p:
                run = keys[pos:p]
                self._hits(run)
                if used is not None:
                    used.update(run)
            pos = p + 1
            if admits is not None and not admits[p]:
                continue
            n_admits += 1
            if free:
                free -= 1
            else:
                victim = self.choose_victim(evictable)
                if victim is None:  # nothing evictable
                    bypassed.append(p)
                    if n_admits == limit:
                        break
                    continue
                self.on_evict(victim)
                victims.append(victim)
                evicted_at.append(p)
                at = int(where[victim])
                if at > p:  # evicted before its access
                    hit[at] = False
                    bisect.insort(misses, at, lo=i)
            self.on_insert(keys[p], step)
            if used is not None:
                used.add(keys[p])
            inserted.append(p)
            if n_admits == limit:
                break
        else:
            if touch and pos < len(keys):
                self._hits(keys[pos:])
            pos = len(keys)
        return pos, inserted, victims, evicted_at, bypassed

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
