"""Replacement-policy interface.

A policy is pure bookkeeping: the :class:`repro.storage.cache.CacheLevel`
owns residency and statistics, and notifies the policy of hits, inserts and
evictions.  When the cache is full it asks :meth:`choose_victim`, passing an
*evictability predicate* — this is how Algorithm 1's constraint that a
victim's last-used time must be ``< i`` (i.e. not touched at the current
view point) is enforced uniformly across all policies.

Batch hooks (:meth:`on_hit_many`, :meth:`on_insert_many`) let the
cache notify a whole array of keys in one call; the defaults loop over the
scalar hooks *in array order*, so a policy that only implements the scalar
interface sees exactly the per-key call sequence a per-block ``fetch``
loop would have produced.  Policies that can enumerate their whole
eviction order from dense per-key state (LRU, FIFO) set
``supports_victim_order``: the cache then takes every victim from a queue
:meth:`victim_order` builds over a boolean evictability mask, and writes a
planned frame through their array hooks.  Every other policy (ARC,
Belady) only ranks: a frame's plan makes the per-key loop's calls —
:meth:`on_hit_many` per run of hits (a list), then :meth:`choose_victim`,
:meth:`on_evict` and :meth:`on_insert` per admitted miss — with a
predicate that reads the plan, and the cache writes the frame once.
"""

from __future__ import annotations

import abc
from typing import Callable, List, Optional, Union

import numpy as np

EvictablePredicate = Callable[[int], bool]

__all__ = ["ReplacementPolicy", "EvictablePredicate", "always_evictable"]


def always_evictable(key: int) -> bool:
    """Default predicate: every resident block may be evicted."""
    return True


class ReplacementPolicy(abc.ABC):
    """Base class for replacement policies over integer block ids.

    Contract (enforced by the cache, relied on by subclasses):

    - ``on_insert(key)`` is only called for keys not currently tracked;
    - ``on_hit(key)`` only for tracked keys;
    - ``on_evict(key)`` exactly once per eviction, with a tracked key;
    - ``choose_victim`` must return a tracked key satisfying the predicate,
      or ``None`` when no tracked key satisfies it (the cache then bypasses
      the insert rather than thrash the working set);
    - the policy ranks victims and never reads the cache: a frame's plan
      calls the hooks in the per-key loop's order before the cache writes
      anything, so the predicate is the only view of residency it gets.
    """

    name: str = "base"

    def set_capacity(self, capacity: int) -> None:
        """Hook for policies that need to know the cache size (ARC)."""

    @abc.abstractmethod
    def reset(self) -> None:
        """Forget all tracked keys and adaptive state."""

    @abc.abstractmethod
    def on_hit(self, key: int, step: int) -> None:
        """A resident ``key`` was accessed at logical time ``step``."""

    @abc.abstractmethod
    def on_insert(self, key: int, step: int) -> None:
        """``key`` became resident at logical time ``step``."""

    @abc.abstractmethod
    def on_evict(self, key: int) -> None:
        """``key`` was removed from the cache."""

    @abc.abstractmethod
    def choose_victim(self, evictable: EvictablePredicate = always_evictable) -> Optional[int]:
        """Pick a victim among tracked keys, or ``None`` if none qualifies."""

    @abc.abstractmethod
    def __len__(self) -> int:
        """Number of tracked (resident) keys — used by invariant checks."""

    # -- batch hooks (compatibility defaults loop over the scalar hooks) ------

    def on_hit_many(self, keys: Union[np.ndarray, List[int]], step: int) -> None:
        """Batch form of :meth:`on_hit`; keys accessed in order.  A list
        comes from a planned frame's run of hits, an array from
        ``touch_many``."""
        for k in keys if isinstance(keys, list) else keys.tolist():
            self.on_hit(k, step)

    def on_insert_many(self, keys: "np.ndarray", step: int) -> None:
        """Batch form of :meth:`on_insert`; keys inserted in array order."""
        for k in keys.tolist():
            self.on_insert(k, step)

    #: True when :meth:`victim_order` can enumerate the full eviction order
    #: up-front from a mask — i.e. victim choice has no side effects and
    #: depends only on per-key state that accesses *between* evictions can
    #: invalidate but never reorder (LRU, FIFO).  The cache then takes every
    #: victim from such an order (``CacheLevel._pop_victim``) and plans a
    #: whole frame's evictions (``CacheLevel.access_many``), which it
    #: writes through the policy's ``on_access_many(keys, inserted, step)``
    #: (one frame's hits and inserts, in array order) and
    #: ``on_evict_many(keys)``; it validates unconstrained queue entries
    #: with ``victim_still_ordered_many(keys, token)``.  Such a policy
    #: implements those three and the methods below.
    supports_victim_order: bool = False

    #: With ``supports_victim_order``: True when :meth:`on_hit` moves the key
    #: behind every entry of an already-built victim order (LRU), False when
    #: :meth:`on_hit` changes nothing (FIFO).  ``CacheLevel.access_many``
    #: reads it to decide whether a block hit earlier in a frame is still
    #: the next victim of an unconstrained queue.
    hits_reorder_victims: bool = True

    def victim_order(self, evictable_mask: "np.ndarray") -> "np.ndarray":
        """Candidate keys in eviction order (``supports_victim_order`` only)."""
        raise NotImplementedError

    def victim_order_token(self) -> int:
        """Opaque marker for *when* :meth:`victim_order` was computed.

        Used by the unconstrained (``min_free_step=None``) eviction queue:
        an entry is still the true next victim iff
        :meth:`victim_still_ordered` holds for the token captured at
        order-build time (``supports_victim_order`` only).  It is a clock:
        each insert advances it by one, and so does each hit when
        ``hits_reorder_victims`` — which is how ``CacheLevel.access_many``
        knows the token of a queue it builds mid-frame without writing
        the frame first.
        """
        raise NotImplementedError

    def victim_still_ordered(self, key: int, token: int) -> bool:
        """Has ``key`` kept its rank since ``token`` was captured?"""
        raise NotImplementedError

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}(tracked={len(self)})"
