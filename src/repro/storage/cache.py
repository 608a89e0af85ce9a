"""One cache level: residency, protected-aware admission, statistics.

The level owns *which* blocks are resident and *when* each was last used;
the plugged-in :class:`~repro.policies.base.ReplacementPolicy` only ranks
eviction candidates.  Algorithm 1's eviction constraint — a victim's
last-used time must be ``< i`` (lines 16 and 22) — is realised by the
``min_free_step`` argument of :meth:`admit`: blocks touched at or after
that step are not evictable.

Residency is a pair of dense arrays indexed by block id — ``_resident``
(bool) and ``_last_used`` (int64) — grown by doubling as larger ids show
up.  Membership is one array load, whole visible sets partition with one
fancy-indexed read (:meth:`contains_many`), and the evictable-candidate
set under ``min_free_step`` is a single vectorized compare, which policies
that implement ``choose_victim_masked`` consume directly.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional

import numpy as np

from repro.obs.metrics import NULL_REGISTRY
from repro.policies.base import ReplacementPolicy
from repro.storage.stats import CacheStats
from repro.trace.tracer import NULL_TRACER
from repro.utils.validation import check_positive

__all__ = ["CacheLevel"]

_NEVER_USED = -1  # last_used for preloaded blocks (Alg. 1 line 5: time <- -1)


class CacheLevel:
    """A fixed-capacity cache of block ids with a pluggable policy."""

    def __init__(
        self,
        name: str,
        capacity_blocks: int,
        policy: ReplacementPolicy,
        tracer=NULL_TRACER,
        n_blocks: Optional[int] = None,
    ) -> None:
        self.name = str(name)
        self.capacity = int(check_positive("capacity_blocks", capacity_blocks))
        self.policy = policy
        policy.set_capacity(self.capacity)
        size = max(64, int(n_blocks)) if n_blocks else 64
        self._resident = np.zeros(size, dtype=bool)
        self._last_used = np.full(size, _NEVER_USED, dtype=np.int64)
        self._n_resident = 0
        # Amortised victim selection: when the policy supports victim_order,
        # the full eviction order for one (step, min_free_step) epoch is
        # computed once and consumed entry-by-entry, with entries validated
        # against live state on pop (see _pop_victim).
        self._vq: Optional[np.ndarray] = None  # victim queue, consumed via cursor
        self._vq_pos = 0
        self._vq_epoch: Optional[tuple] = None
        self._vq_token = 0  # policy order token (unconstrained-queue mode)
        self.stats = CacheStats()
        self.tracer = tracer
        self.registry = NULL_REGISTRY
        # Eviction forensics (opt-in): an EvictionLineage installed via
        # MemoryHierarchy.set_forensics.  Purely observational — never
        # changes a decision, so enabled runs stay byte-identical.
        self.forensics = None
        self._occupancy = NULL_REGISTRY.gauge("cache_occupancy_blocks")
        self._evictions = NULL_REGISTRY.counter("cache_evictions_total")
        self._bypasses = NULL_REGISTRY.counter("cache_bypasses_total")
        self._cross_evictions = NULL_REGISTRY.counter("cache_tenant_cross_evictions_total")
        # Tenant partitioning (disabled unless set_tenant_quotas is called):
        # _owner maps block id -> tenant index (-1 = unowned), _tenant_used /
        # _tenant_quota are per-tenant residency counters and caps.
        self._tenant_index: Optional[dict] = None
        self._tenant_names: tuple = ()
        self._tenant_quota: Optional[np.ndarray] = None
        self._tenant_used: Optional[np.ndarray] = None
        self._owner: Optional[np.ndarray] = None
        self.tenant_cross_evictions = 0

    def set_registry(self, registry) -> None:
        """Bind this level's metrics on ``registry`` (occupancy, churn)."""
        self.registry = registry
        self._occupancy = registry.gauge("cache_occupancy_blocks", level=self.name)
        self._evictions = registry.counter("cache_evictions_total", level=self.name)
        self._bypasses = registry.counter("cache_bypasses_total", level=self.name)
        self._cross_evictions = registry.counter(
            "cache_tenant_cross_evictions_total", level=self.name
        )
        if registry.enabled:
            self._occupancy.set(self._n_resident)

    def ensure_ids(self, max_key: int) -> None:
        """Grow the residency arrays to cover ids up to ``max_key``."""
        if max_key >= len(self._resident):
            size = max(len(self._resident) * 2, int(max_key) + 1)
            resident = np.zeros(size, dtype=bool)
            resident[: len(self._resident)] = self._resident
            last_used = np.full(size, _NEVER_USED, dtype=np.int64)
            last_used[: len(self._last_used)] = self._last_used
            if self._owner is not None:
                owner = np.full(size, -1, dtype=np.int32)
                owner[: len(self._owner)] = self._owner
                self._owner = owner
            self._resident = resident
            self._last_used = last_used

    # -- tenant partitioning ---------------------------------------------------

    def set_tenant_quotas(self, quotas: Optional[Mapping[str, int]]) -> None:
        """Partition this level between tenants (``None``/empty disables).

        ``quotas`` maps tenant label -> maximum resident blocks *owned* by
        that tenant.  A tenant-labelled :meth:`admit` never exceeds its
        quota (at quota it evicts one of its own blocks first) and never
        evicts another tenant's block, so one hot session cannot push a
        neighbour below its partition.  Unlabelled admits (``tenant=None``)
        stay unowned and follow the legacy policy-global path; unowned
        residents are fair game for any tenant under its quota.

        Quotas must each be >= 1 and sum to at most ``capacity``.  Blocks
        already resident when quotas are installed stay unowned.
        """
        if not quotas:
            self._tenant_index = None
            self._tenant_names = ()
            self._tenant_quota = None
            self._tenant_used = None
            self._owner = None
            return
        names = tuple(quotas)
        caps = []
        for name in names:
            cap = int(quotas[name])
            if cap < 1:
                raise ValueError(f"{self.name}: quota for {name!r} must be >= 1, got {cap}")
            caps.append(cap)
        if sum(caps) > self.capacity:
            raise ValueError(
                f"{self.name}: tenant quotas sum to {sum(caps)}, "
                f"exceeding capacity {self.capacity}"
            )
        self._tenant_index = {name: i for i, name in enumerate(names)}
        self._tenant_names = names
        self._tenant_quota = np.asarray(caps, dtype=np.int64)
        self._tenant_used = np.zeros(len(names), dtype=np.int64)
        self._owner = np.full(len(self._resident), -1, dtype=np.int32)
        self.tenant_cross_evictions = 0

    @property
    def tenant_quotas_enabled(self) -> bool:
        return self._tenant_index is not None

    def tenant_usage(self) -> dict:
        """Resident block counts per tenant (empty when quotas disabled)."""
        if self._tenant_index is None:
            return {}
        used = self._tenant_used.tolist()
        return {name: used[i] for i, name in enumerate(self._tenant_names)}

    def tenant_quota(self, tenant: str) -> int:
        """The installed quota for ``tenant`` (KeyError when unknown)."""
        if self._tenant_index is None:
            raise KeyError(f"{self.name}: tenant quotas are not enabled")
        return int(self._tenant_quota[self._tenant_index[tenant]])

    def _tenant_id(self, tenant: Optional[str]) -> int:
        """Resolve a tenant label to its index (-1 = untracked)."""
        if tenant is None or self._tenant_index is None:
            return -1
        try:
            return self._tenant_index[tenant]
        except KeyError:
            raise KeyError(f"{self.name}: unknown tenant {tenant!r}") from None

    # -- queries -------------------------------------------------------------

    def __contains__(self, key: int) -> bool:
        return key < len(self._resident) and bool(self._resident[key])

    def __len__(self) -> int:
        return self._n_resident

    @property
    def is_full(self) -> bool:
        return self._n_resident >= self.capacity

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        """Boolean residency mask for an id array (grows arrays as needed)."""
        if keys.size:
            self.ensure_ids(int(keys.max()))
        return self._resident[keys]

    def resident_ids(self) -> Iterable[int]:
        """Snapshot iterator over resident block ids (ascending)."""
        return iter(np.flatnonzero(self._resident).tolist())

    def last_used(self, key: int) -> int:
        """Step at which ``key`` was last touched (−1 for untouched preloads)."""
        if key not in self:
            raise KeyError(key)
        return int(self._last_used[key])

    def evictable_mask(self, min_free_step: Optional[int]) -> np.ndarray:
        """Residents whose ``last_used < min_free_step`` (all, when None)."""
        if min_free_step is None:
            return self._resident
        return self._resident & (self._last_used < min_free_step)

    # -- mutation --------------------------------------------------------------

    def touch(self, key: int, step: int) -> None:
        """Record a hit on a resident ``key`` at ``step``."""
        resident = self._resident
        if key >= len(resident) or not resident[key]:
            raise KeyError(f"{self.name}: touch of non-resident block {key}")
        epoch = self._vq_epoch
        if epoch is not None and epoch[1] is not None and step < epoch[1]:
            self._vq_epoch = None  # touch keeps the key evictable: order stale
        self._last_used[key] = step
        self.policy.on_hit(key, step)

    def touch_many(self, keys: np.ndarray, step: int) -> None:
        """Record hits on an array of resident keys at ``step``."""
        epoch = self._vq_epoch
        if epoch is not None and epoch[1] is not None and step < epoch[1]:
            self._vq_epoch = None
        self._last_used[keys] = step
        self.policy.on_hit_many(keys, step)

    def admit(
        self,
        key: int,
        step: int,
        min_free_step: Optional[int] = None,
        agg: Optional[dict] = None,
        tenant: Optional[str] = None,
    ) -> bool:
        """Make ``key`` resident, evicting if full; returns False on bypass.

        ``min_free_step`` is Algorithm 1's constraint: only blocks with
        ``last_used < min_free_step`` are eviction candidates.  When the
        cache is full and no candidate exists, the insert is *bypassed*
        (the caller still gets the data, it just is not cached) — this is
        the safe degradation when the working set exceeds capacity.

        ``agg`` is the batched calls' trace-aggregation accumulator:
        when given, evict/bypass events are counted into it per
        (kind, level) instead of recorded individually.

        ``tenant`` labels the admission for quota accounting when
        :meth:`set_tenant_quotas` is active: the block is owned by the
        tenant, victims are restricted to the tenant's own blocks (at
        quota) or own-plus-unowned blocks (under quota), and the insert
        bypasses when no such victim exists.  With quotas disabled, or
        ``tenant=None``, the legacy path is taken unchanged.
        """
        tid = self._tenant_id(tenant)
        if tid >= 0:
            return self._admit_tenant(key, step, tid, min_free_step, agg)
        self.ensure_ids(key)
        if self._resident[key]:
            raise KeyError(f"{self.name}: block {key} already resident")
        if self._n_resident >= self.capacity:
            # One victim frees one slot, but loop for safety with
            # pathological policies.
            use_queue = self.policy.supports_victim_order and (
                min_free_step is None or min_free_step <= step
            )
            while self._n_resident >= self.capacity:
                vrank = -1
                if use_queue:
                    victim = self._pop_victim(step, min_free_step)
                    if victim is not None:
                        vrank = self._vq_pos - 1
                elif self.policy.supports_masked_victim:
                    victim = self.policy.choose_victim_masked(
                        self.evictable_mask(min_free_step)
                    )
                else:
                    victim = self.policy.choose_victim(
                        self._evictable_predicate(min_free_step)
                    )
                if victim is None:
                    self.stats.bypasses += 1
                    if self.registry.enabled:
                        self._bypasses.inc()
                    if agg is not None:
                        acc = agg.setdefault(("bypass", self.name), [0, 0, 0.0])
                        acc[0] += 1
                    elif self.tracer.enabled:
                        self.tracer.record("bypass", step, self.name, key)
                    return False
                self.evict(victim, step=step, agg=agg, rank=vrank)
        self._resident[key] = True
        self._last_used[key] = step
        self._n_resident += 1
        self.policy.on_insert(key, step)
        epoch = self._vq_epoch
        if epoch is not None and epoch[1] is not None and step < epoch[1]:
            self._vq_epoch = None  # insert is immediately evictable: not queued
        self.stats.inserts += 1
        if self.registry.enabled:
            self._occupancy.set(self._n_resident)
        return True

    def _admit_tenant(
        self,
        key: int,
        step: int,
        tid: int,
        min_free_step: Optional[int],
        agg: Optional[dict],
    ) -> bool:
        """Quota-constrained admission for tenant ``tid``.

        Victim selection goes through ``choose_victim_masked`` (or the
        predicate fallback) on an owner-restricted candidate mask rather
        than the amortised victim queue: the queue is policy-global and
        cannot express per-tenant constraints.  Evicting here only
        *shrinks* the global candidate set, which scalar queue pops
        re-validate against live state, so interleaved untenanted admits
        stay correct.
        """
        self.ensure_ids(key)
        if self._resident[key]:
            raise KeyError(f"{self.name}: block {key} already resident")
        owner = self._owner
        used = self._tenant_used
        quota = int(self._tenant_quota[tid])
        while self._n_resident >= self.capacity or used[tid] >= quota:
            at_quota = used[tid] >= quota
            if self.policy.supports_masked_victim:
                allowed = self.evictable_mask(min_free_step) & (owner == tid)
                if not at_quota:
                    allowed |= self.evictable_mask(min_free_step) & (owner == -1)
                victim = self.policy.choose_victim_masked(allowed)
            else:
                base = self._evictable_predicate(min_free_step)
                if at_quota:
                    def pred(k, base=base, owner=owner):
                        return owner[k] == tid and base(k)
                else:
                    def pred(k, base=base, owner=owner):
                        return owner[k] in (tid, -1) and base(k)
                victim = self.policy.choose_victim(pred)
            if victim is None:
                self.stats.bypasses += 1
                if self.registry.enabled:
                    self._bypasses.inc()
                if agg is not None:
                    acc = agg.setdefault(("bypass", self.name), [0, 0, 0.0])
                    acc[0] += 1
                elif self.tracer.enabled:
                    self.tracer.record("bypass", step, self.name, key)
                return False
            self.evict(victim, step=step, agg=agg, by=tid)
        self._resident[key] = True
        self._last_used[key] = step
        self._n_resident += 1
        owner[key] = tid
        used[tid] += 1
        self.policy.on_insert(key, step)
        epoch = self._vq_epoch
        if epoch is not None and epoch[1] is not None and step < epoch[1]:
            self._vq_epoch = None
        self.stats.inserts += 1
        if self.registry.enabled:
            self._occupancy.set(self._n_resident)
        return True

    def _pop_victim(self, step: int, min_free_step: Optional[int]) -> Optional[int]:
        """Next victim from the amortised eviction queue.

        The policy's full eviction order over the *current* candidates is
        computed once and consumed entry-by-entry; each popped entry is
        re-validated against live state, so the result is exactly what a
        fresh ``choose_victim_masked`` would return.

        With a ``min_free_step`` constraint the queue lives for one
        ``(step, min_free_step)`` epoch: later accesses within it can only
        *shrink* the candidate set (a touch sets ``last_used = step >=
        min_free_step``; an insert is never an immediate candidate), and
        mutations that could grow or reorder it invalidate the epoch at
        the mutation site.  Validation is ``resident & last_used <
        min_free_step``.

        Unconstrained (``min_free_step is None``), candidates never leave
        the set, but a touch *reorders* — it makes the key more recent
        than every queue entry (policy token contract), so the first entry
        that still holds its rank is the global victim.  The queue then
        survives across steps and is rebuilt only when exhausted.
        """
        policy = self.policy
        if min_free_step is None:
            while True:
                if self._vq_epoch != ("*", None):
                    order = policy.victim_order(self._resident)
                    if order.size == 0:
                        return None
                    self._vq = order
                    self._vq_pos = 0
                    self._vq_token = policy.victim_order_token()
                    self._vq_epoch = ("*", None)
                queue = self._vq
                pos = self._vq_pos
                end = len(queue)
                token = self._vq_token
                while pos < end:
                    key = int(queue[pos])
                    pos += 1
                    if policy.victim_still_ordered(key, token):
                        self._vq_pos = pos
                        return key
                self._vq_pos = pos
                self._vq_epoch = None  # every entry moved since build: rebuild
        epoch = (step, min_free_step)
        if self._vq_epoch != epoch:
            self._vq = policy.victim_order(self.evictable_mask(min_free_step))
            self._vq_pos = 0
            self._vq_epoch = epoch
        queue = self._vq
        pos = self._vq_pos
        end = len(queue)
        resident = self._resident
        last_used = self._last_used
        while pos < end:
            key = int(queue[pos])
            pos += 1
            if resident[key] and last_used[key] < min_free_step:
                self._vq_pos = pos
                return key
        self._vq_pos = pos
        return None

    def admit_many_absent(
        self,
        keys: np.ndarray,
        step: int,
        min_free_step: Optional[int] = None,
        agg: Optional[dict] = None,
        tenant: Optional[str] = None,
    ) -> None:
        """Admit an array of unique *non-resident* keys, in array order.

        Vectorized equivalent of calling :meth:`admit` per key — same
        inserts, same victims in the same order, same bypasses: free slots
        go to the leading keys, then one victim-queue entry per key while
        candidates last; keys beyond that fall back to scalar
        :meth:`admit` (which bypasses, or rebuilds the unconstrained
        queue).  Requires ``policy.supports_victim_order``; the victim
        choices are batch-safe because nothing else touches this level
        between the admissions (see :meth:`_pop_victim` for why accesses
        *between* victim picks cannot reorder the queue).

        Bookkeeping (stats, registry counters/occupancy, ``agg`` counts)
        is grouped but total-identical to the scalar calls.
        """
        m = int(keys.size)
        if m == 0:
            return
        if self._tenant_id(tenant) >= 0:
            # Tenant-labelled bulk admits take the scalar reference path:
            # quota accounting is per-victim and the owner-restricted
            # candidate mask changes after every eviction, so there is no
            # batch-safe victim window to exploit.
            for key in keys.tolist():
                self.admit(key, step, min_free_step=min_free_step, agg=agg, tenant=tenant)
            return
        if m <= 2:
            # Vectorization overhead beats the win at this size; the scalar
            # path is the reference semantics anyway.
            for key in keys.tolist():
                self.admit(key, step, min_free_step=min_free_step, agg=agg)
            return
        try:
            resident_in = self._resident[keys]
        except IndexError:
            self.ensure_ids(int(keys.max()))
            resident_in = self._resident[keys]
        if resident_in.any():
            raise KeyError(f"{self.name}: admit_many_absent got a resident key")
        policy = self.policy
        free = self.capacity - self._n_resident
        k1 = min(free, m) if free > 0 else 0
        r = 0
        victims = None
        if k1 < m:
            # Build/reuse the victim queue exactly as _pop_victim would,
            # then take the next (m - k1) valid entries — validated in a
            # window that grows toward the tail end, not the whole tail.
            if min_free_step is None:
                if self._vq_epoch != ("*", None):
                    self._vq = policy.victim_order(self._resident)
                    self._vq_pos = 0
                    self._vq_token = policy.victim_order_token()
                    self._vq_epoch = ("*", None)
            else:
                epoch = (step, min_free_step)
                if self._vq_epoch != epoch:
                    self._vq = policy.victim_order(self.evictable_mask(min_free_step))
                    self._vq_pos = 0
                    self._vq_epoch = epoch
            queue = self._vq
            end = len(queue)
            pos = self._vq_pos
            need = m - k1
            taken: list = []
            taken_pos: list = []  # absolute queue positions (forensics rank)
            while pos < end and r < need:
                hi = min(end, pos + max(2 * (need - r), 8))
                window = queue[pos:hi]
                if min_free_step is None:
                    valid = policy.victim_still_ordered_many(window, self._vq_token)
                else:
                    valid = self._resident[window] & (
                        self._last_used[window] < min_free_step
                    )
                idx = np.flatnonzero(valid)
                take = min(need - r, int(idx.size))
                if take:
                    taken.append(window[idx[:take]])
                    taken_pos.append(pos + idx[:take])
                    r += take
                    # Entries skipped over as invalid are consumed for good,
                    # exactly like the scalar pops would discard them.
                    pos += int(idx[take - 1]) + 1
                else:
                    pos = hi
            self._vq_pos = pos
            if r:
                victims = taken[0] if len(taken) == 1 else np.concatenate(taken)
        if r:
            if self.forensics is not None:
                ranks = (
                    taken_pos[0] if len(taken_pos) == 1 else np.concatenate(taken_pos)
                ).tolist()
                owners = (
                    self._owner[victims].tolist() if self._owner is not None else None
                )
                names = self._tenant_names
                for j, vkey in enumerate(victims.tolist()):
                    tname = names[owners[j]] if owners is not None and owners[j] >= 0 else ""
                    self.forensics.record_eviction(
                        vkey, self.name, step, self.policy.name, tname, int(ranks[j])
                    )
            if self._owner is not None:
                owned = self._owner[victims]
                owned = owned[owned >= 0]
                if owned.size:
                    np.subtract.at(self._tenant_used, owned, 1)
                    self._owner[victims] = -1
            self._resident[victims] = False
            self._last_used[victims] = _NEVER_USED
            self._n_resident -= r
            policy.on_evict_many(victims)
            self.stats.evictions += r
            if self.registry.enabled:
                self._evictions.inc(r)
            if agg is not None:
                acc = agg.setdefault(("evict", self.name), [0, 0, 0.0])
                acc[0] += r
            elif self.tracer.enabled:
                for key in victims.tolist():
                    self.tracer.record("evict", step, self.name, key)
        n_ins = k1 + r
        if n_ins:
            ins = keys[:n_ins]
            self._resident[ins] = True
            self._last_used[ins] = step
            self._n_resident += n_ins
            policy.on_insert_many(ins, step)
            self.stats.inserts += n_ins
            if self.registry.enabled:
                # n_ins insert-sets plus r evict-sets, ending at the live
                # occupancy (the walk never exceeds it — evict dips recover).
                self._occupancy.set_n(self._n_resident, n_ins + r)
        if n_ins < m:
            # Queue exhausted: scalar admits bypass (constrained) or
            # rebuild over the freshly inserted keys (unconstrained).
            for key in keys[n_ins:].tolist():
                self.admit(key, step, min_free_step=min_free_step, agg=agg)

    def _evictable_predicate(self, min_free_step: Optional[int]):
        if min_free_step is None:
            return lambda key: True
        last_used = self._last_used
        return lambda key: last_used[key] < min_free_step

    def evict(
        self,
        key: int,
        step: Optional[int] = None,
        agg: Optional[dict] = None,
        by: Optional[int] = None,
        rank: int = -1,
    ) -> None:
        """Remove a resident ``key`` (policy notified).

        ``step`` is only used for tracing: the replay step whose admission
        forced this eviction (``None`` for evictions outside a replay).
        ``agg`` aggregates the evict event instead of recording it
        (see :meth:`admit`).  ``by`` is the tenant index whose admission
        forced the eviction; evicting a block owned by a *different*
        tenant counts as a cross-tenant eviction (always zero under quota
        partitioning — the admission path never selects such victims).
        ``rank`` is the victim's absolute position in the amortised victim
        queue when the admission path selected it from one (−1 for
        masked/predicate selection and direct evicts); it flows into the
        forensics lineage only.
        """
        resident = self._resident
        if key >= len(resident) or not resident[key]:
            raise KeyError(f"{self.name}: evict of non-resident block {key}")
        tenant_name = ""
        if self._owner is not None:
            prev = int(self._owner[key])
            if prev >= 0:
                tenant_name = self._tenant_names[prev]
                self._tenant_used[prev] -= 1
                self._owner[key] = -1
                if by is not None and by != prev:
                    self.tenant_cross_evictions += 1
                    if self.registry.enabled:
                        self._cross_evictions.inc()
        self._resident[key] = False
        self._last_used[key] = _NEVER_USED
        self._n_resident -= 1
        self.policy.on_evict(key)
        self.stats.evictions += 1
        if self.registry.enabled:
            self._evictions.inc()
            self._occupancy.set(self._n_resident)
        if self.forensics is not None:
            self.forensics.record_eviction(
                key,
                self.name,
                -1 if step is None else step,
                self.policy.name,
                tenant_name,
                rank,
            )
        if agg is not None:
            acc = agg.setdefault(("evict", self.name), [0, 0, 0.0])
            acc[0] += 1
        elif self.tracer.enabled:
            self.tracer.record("evict", -1 if step is None else step, self.name, key)

    def preload(self, keys: Iterable[int], aggregate_trace: bool = False) -> int:
        """Fill the cache with ``keys`` (up to capacity) before a run.

        Used for Step 2's importance preload (Alg. 1 line 7).  Preloaded
        blocks get ``last_used = -1`` so any later step may evict them.
        Counts toward ``stats.inserts`` like any other placement, so the
        insert/eviction ledger stays balanced.  Returns how many were
        actually placed.  ``aggregate_trace`` emits one counted preload
        event for the batch instead of one per key.
        """
        if isinstance(keys, np.ndarray):
            arr = keys.astype(np.int64, copy=False)
        else:
            arr = np.fromiter(keys, dtype=np.int64)
        free = self.capacity - self._n_resident
        if free <= 0 or arr.size == 0:
            return 0
        self.ensure_ids(int(arr.max()))
        # First occurrence of each key, in priority order, non-resident only —
        # exactly what a skip-duplicates/skip-resident scan would place.
        _, first = np.unique(arr, return_index=True)
        arr = arr[np.sort(first)]
        arr = arr[~self._resident[arr]][:free]
        placed = int(arr.size)
        if placed:
            self._vq_epoch = None  # preloads are evictable: any queue is stale
            self._resident[arr] = True
            self._last_used[arr] = _NEVER_USED
            self._n_resident += placed
            self.policy.on_insert_many(arr, _NEVER_USED)
            self.stats.inserts += placed
            if self.tracer.enabled:
                if aggregate_trace:
                    self.tracer.record(
                        "preload", _NEVER_USED, self.name, -1, count=placed
                    )
                else:
                    for key in arr.tolist():
                        self.tracer.record("preload", _NEVER_USED, self.name, key)
        if self.registry.enabled:
            self._occupancy.set(self._n_resident)
        return placed

    def clear(self) -> None:
        """Drop all residents and reset policy state (stats preserved)."""
        self._resident.fill(False)
        self._last_used.fill(_NEVER_USED)
        self._n_resident = 0
        self._vq_epoch = None
        if self._owner is not None:
            self._owner.fill(-1)
            self._tenant_used.fill(0)
        self.policy.reset()
        if self.registry.enabled:
            self._occupancy.set(0)

    def check_invariants(self) -> None:
        """Raise if residency and policy bookkeeping have diverged."""
        if self._n_resident != int(self._resident.sum()):
            raise AssertionError(
                f"{self.name}: resident counter {self._n_resident} != mask "
                f"population {int(self._resident.sum())}"
            )
        if self._n_resident > self.capacity:
            raise AssertionError(
                f"{self.name}: {self._n_resident} residents exceed capacity {self.capacity}"
            )
        if len(self.policy) != self._n_resident:
            raise AssertionError(
                f"{self.name}: policy tracks {len(self.policy)} keys, cache has {self._n_resident}"
            )
        if self._owner is not None:
            if ((self._owner >= 0) & ~self._resident).any():
                raise AssertionError(f"{self.name}: non-resident block has a tenant owner")
            for i, name in enumerate(self._tenant_names):
                owned = int((self._owner == i).sum())
                if owned != int(self._tenant_used[i]):
                    raise AssertionError(
                        f"{self.name}: tenant {name!r} usage counter "
                        f"{int(self._tenant_used[i])} != owned population {owned}"
                    )
                if owned > int(self._tenant_quota[i]):
                    raise AssertionError(
                        f"{self.name}: tenant {name!r} owns {owned} blocks, "
                        f"exceeding quota {int(self._tenant_quota[i])}"
                    )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"CacheLevel(name={self.name!r}, capacity={self.capacity}, "
            f"resident={self._n_resident}, policy={self.policy.name!r})"
        )
