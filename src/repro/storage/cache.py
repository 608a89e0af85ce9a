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

A frame reaches a level as one :meth:`CacheLevel.access_many` call (touch
the resident keys, admit the rest); for victim-queue policies it plans the
frame's evictions in one pass, tenant quotas included, and writes them
once as arrays.  Under a
per-event tracer the frame's ``evict``/``bypass`` events go to an
:class:`EventSink`, each tagged with the frame position of the access
that caused it, so the caller can write them in the per-key loop's order.
"""

from __future__ import annotations

import bisect
from typing import Iterable, Mapping, Optional

import numpy as np

from repro.obs.metrics import NULL_REGISTRY
from repro.policies.base import ReplacementPolicy
from repro.storage.stats import CacheStats
from repro.trace.tracer import NULL_TRACER
from repro.utils.validation import check_positive

__all__ = ["CacheLevel", "EventSink"]

_NEVER_USED = -1  # last_used for preloaded blocks (Alg. 1 line 5: time <- -1)


def _entries(queue: np.ndarray, where: np.ndarray):
    """A victim queue built for the current state, as
    :meth:`CacheLevel._queue_candidates` yields it (every entry is a
    candidate), read in windows that double toward the tail."""
    pos, width = 0, 16
    while pos < len(queue):
        window = queue[pos: pos + width]
        yield from zip(range(pos + 1, pos + 1 + window.size), window.tolist(),
                       where[window].tolist())
        pos += window.size
        width *= 2


class EventSink:
    """The ``evict``/``bypass`` events of one :meth:`CacheLevel.access_many`
    call, each tagged with the frame position of the access that caused it
    (``at`` while :meth:`CacheLevel.admit` runs).  Columns, not events:
    the caller merges them with its own and writes them in one
    ``record_many``."""

    __slots__ = ("at", "pos", "kinds", "keys")

    def __init__(self) -> None:
        self.at = -1
        self.pos: list = []
        self.kinds: list = []
        self.keys: list = []

    def add(self, kind: str, key: int) -> None:
        self.pos.append(self.at)
        self.kinds.append(kind)
        self.keys.append(key)

    def extend(self, pos: list, kind: str, keys: list) -> None:
        """One ``kind`` event per ``(pos, key)`` pair."""
        self.pos.extend(pos)
        self.kinds.extend([kind] * len(pos))
        self.keys.extend(keys)


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
        self._vq_epoch = None  # queued owner filters name the old partition
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
        sink: Optional[EventSink] = None,
    ) -> bool:
        """Make ``key`` resident, evicting if full; returns False on bypass.

        ``min_free_step`` is Algorithm 1's constraint: only blocks with
        ``last_used < min_free_step`` are eviction candidates.  When the
        cache is full and no candidate exists, the insert is *bypassed*
        (the caller still gets the data, it just is not cached) — this is
        the safe degradation when the working set exceeds capacity.

        ``agg`` is the batched calls' trace-aggregation accumulator:
        when given, evict/bypass events are counted into it per
        (kind, level) instead of recorded individually; ``sink`` collects
        them per event instead (see :class:`EventSink`).

        ``tenant`` labels the admission for quota accounting when
        :meth:`set_tenant_quotas` is active: the block is owned by the
        tenant, victims are restricted to the tenant's own blocks (at
        quota) or own-plus-unowned blocks (under quota), and the insert
        bypasses when no such victim exists.  With quotas disabled, or
        ``tenant=None``, victims are unrestricted and the block stays
        unowned.

        Victim-queue policies pop victims from the amortised queue
        (:meth:`_pop_victim`), restricted to the tenant's owner filter; a
        ``min_free_step`` past ``step`` and every other policy rank a
        fresh candidate mask (or predicate) per victim.
        """
        tid = self._tenant_id(tenant)
        self.ensure_ids(key)
        if self._resident[key]:
            raise KeyError(f"{self.name}: block {key} already resident")
        used = self._tenant_used
        quota = int(self._tenant_quota[tid]) if tid >= 0 else 0
        use_queue = self.policy.supports_victim_order and (
            min_free_step is None or min_free_step <= step
        )
        # One victim frees one slot (and one quota unit), but loop for
        # safety with pathological policies.
        while self._n_resident >= self.capacity or (tid >= 0 and used[tid] >= quota):
            # The owners a victim may have: its own at quota, else own or none.
            owners = None if tid < 0 else ((tid,) if used[tid] >= quota else (tid, -1))
            vrank = -1
            if use_queue:
                victim = self._pop_victim(step, min_free_step, owners)
                if victim is not None and owners is None:
                    vrank = self._vq_pos - 1
            elif self.policy.supports_masked_victim:
                victim = self.policy.choose_victim_masked(
                    self._candidate_mask(min_free_step, owners)
                )
            else:
                victim = self.policy.choose_victim(
                    self._evictable_predicate(min_free_step, owners)
                )
            if victim is None:
                self.stats.bypasses += 1
                if self.registry.enabled:
                    self._bypasses.inc()
                if agg is not None:
                    acc = agg.setdefault(("bypass", self.name), [0, 0, 0.0])
                    acc[0] += 1
                elif sink is not None:
                    sink.add("bypass", key)
                elif self.tracer.enabled:
                    self.tracer.record("bypass", step, self.name, key)
                return False
            self.evict(
                victim, step=step, agg=agg, by=None if tid < 0 else tid, rank=vrank, sink=sink
            )
        self._resident[key] = True
        self._last_used[key] = step
        self._n_resident += 1
        if tid >= 0:
            self._owner[key] = tid
            used[tid] += 1
        self.policy.on_insert(key, step)
        epoch = self._vq_epoch
        if epoch is not None and epoch[1] is not None and step < epoch[1]:
            self._vq_epoch = None  # insert is immediately evictable: not queued
        self.stats.inserts += 1
        if self.registry.enabled:
            self._occupancy.set(self._n_resident)
        return True

    def _pop_victim(
        self, step: int, min_free_step: Optional[int], owners: Optional[tuple] = None
    ) -> Optional[int]:
        """Next victim from the amortised eviction queue.

        The policy's full eviction order over the *current* candidates is
        computed once and consumed entry-by-entry; each popped entry is
        re-validated against live state, so the result is exactly what a
        fresh ``choose_victim_masked`` would return.

        ``owners`` restricts a tenant admission's victims to those owner
        indices — ``(tenant,)`` at quota, ``(tenant, -1)`` (own or unowned)
        under quota: the queue then holds only such blocks, is kept for
        that filter alone, and every pop also checks the owner.

        With a ``min_free_step`` constraint the queue lives for one
        ``(step, min_free_step, owners)`` epoch: later accesses within it
        can only *shrink* the candidate set (a touch sets ``last_used =
        step >= min_free_step``; an insert is never an immediate
        candidate), and mutations that could grow or reorder it
        invalidate the epoch at the mutation site.  Validation is
        ``resident & last_used < min_free_step``.

        Unconstrained (``min_free_step is None``), candidates never leave
        the set, but a touch *reorders* — it makes the key more recent
        than every queue entry (policy token contract), so the first entry
        that still holds its rank is the global victim.  The queue then
        survives across steps and is rebuilt only when exhausted.
        """
        policy = self.policy
        owner = self._owner
        if min_free_step is None:
            epoch = ("*", None, owners)
            while True:
                if self._vq_epoch != epoch:
                    self._build_queue(epoch)
                    if not len(self._vq):
                        self._vq_epoch = None
                        return None
                queue = self._vq
                pos = self._vq_pos
                end = len(queue)
                token = self._vq_token
                while pos < end:
                    key = int(queue[pos])
                    pos += 1
                    if policy.victim_still_ordered(key, token) and (
                        owners is None or owner[key] in owners
                    ):
                        self._vq_pos = pos
                        return key
                self._vq_pos = pos
                self._vq_epoch = None  # every entry moved since build: rebuild
        epoch = (step, min_free_step, owners)
        if self._vq_epoch != epoch:
            self._build_queue(epoch)
        queue = self._vq
        pos = self._vq_pos
        end = len(queue)
        resident = self._resident
        last_used = self._last_used
        while pos < end:
            key = int(queue[pos])
            pos += 1
            if (
                resident[key]
                and last_used[key] < min_free_step
                and (owners is None or owner[key] in owners)
            ):
                self._vq_pos = pos
                return key
        self._vq_pos = pos
        return None

    def access_many(
        self,
        keys: np.ndarray,
        step: int,
        min_free_step: Optional[int] = None,
        touch: bool = True,
        agg: Optional[dict] = None,
        limit: Optional[int] = None,
        tenant: Optional[str] = None,
        sink: Optional[EventSink] = None,
        admits: Optional[np.ndarray] = None,
    ) -> np.ndarray:
        """One frame's accesses: touch the resident ``keys``, admit the rest.

        Exactly ``for k in keys: touch(k) if k in self else admit(k)`` over
        *unique* ``keys`` in array order — same residency, ``last_used``,
        stats, policy order, victim queue, registry/``agg`` counts and
        ``sink`` events (tagged with positions in ``keys``).
        ``touch=False`` leaves hits alone (a prefetch); ``limit`` stops
        right after that many admissions (inserts or bypasses).  ``admits``
        (a mask over ``keys``) admits only the misses it marks: the others
        are passed over, as a caller that serves them elsewhere does.
        Returns the hit mask of the processed keys ``keys[:len(hit)]``: a
        key an earlier admission evicted is a miss.

        Victim-queue policies (``supports_victim_order``) on a level with
        no forensics, with ``min_free_step`` None or at most ``step``, and
        whose events are aggregated, collected in a ``sink`` or not
        traced, plan the frame's evictions in one pass and write them once
        (:meth:`_access_planned`), tenant-quota levels included;
        everything else runs the scalar calls live (:meth:`_access_live`).
        A frame with a miss resolves ``tenant`` before anything is
        written, so an unknown tenant raises ``KeyError`` on an unchanged
        level.
        """
        if keys.size == 0 or (limit is not None and limit <= 0):
            return np.zeros(0, dtype=bool)
        self.ensure_ids(int(keys.max()))
        hit = self._resident[keys]
        if hit.all():  # nothing to admit: the frame is its touches
            if touch:
                self.touch_many(keys, step)
            return hit
        tid = self._tenant_id(tenant)
        if (
            self.policy.supports_victim_order
            and (min_free_step is None or min_free_step <= step)
            and self.forensics is None
            and (agg is not None or sink is not None or not self.tracer.enabled)
        ):
            return self._access_planned(
                keys, hit, step, min_free_step, touch, agg, limit, tid, sink, admits
            )
        return self._access_live(
            keys, hit, step, min_free_step, touch, agg, limit, tenant, sink, admits
        )

    def _access_live(
        self, keys, hit, step, min_free_step, touch, agg, limit, tenant, sink, admits
    ) -> np.ndarray:
        """:meth:`access_many` as scalar calls: ``touch_many`` per run of
        hits, one :meth:`admit` per admitted miss, residency re-read after
        each (``hit`` is the residency of ``keys`` at the frame's start)."""
        m = keys.size
        resident = self._resident
        initial_misses = iter(np.flatnonzero(~hit).tolist() + [m])
        miss = next(initial_misses)
        pos = n_admits = 0
        while pos < m:
            if pos < miss:
                run = keys[pos:miss]
                live = resident[run]
                k = run.size if live.all() else int(np.argmin(live))
                if touch and k:
                    self.touch_many(run[:k], step)
                pos += k
                if pos == miss:
                    continue
                hit[pos] = False  # evicted by an admission earlier in this frame
            else:
                miss = next(initial_misses)
            if admits is not None and not admits[pos]:
                pos += 1
                continue
            if sink is not None:
                sink.at = pos
            self.admit(int(keys[pos]), step, min_free_step, agg, tenant, sink)
            pos += 1
            n_admits += 1
            if n_admits == limit:
                return hit[:pos]
        return hit

    def _access_planned(
        self, keys, hit, step, min_free_step, touch, agg, limit, tid, sink, admits
    ) -> np.ndarray:
        """:meth:`access_many` for victim-queue policies: plan, then write once.

        ``hit`` is the residency of ``keys`` at the frame's start and
        ``tid`` the admitting tenant's index (-1: none).  Nothing is written
        while the frame is planned, so each decision reads the state the
        frame found and what the plan did to it so far.

        A miss takes a free slot while the level has room and the tenant is
        under its quota.  Otherwise it pops a victim under the owner filter
        :meth:`admit` would use — ``(tid,)`` at quota, ``(tid, -1)`` under
        it, none untenanted — taking queue entries exactly as
        :meth:`_pop_victim` consumes them.  An entry is skipped when this
        frame touched it after the queue was built (under a constraint,
        where a touch sets ``last_used = step``, or under a policy whose
        hits reorder); a victim the frame accesses later turns that access
        into a miss.  An admission that takes the tenant to its quota
        changes the filter, and so the epoch.

        Each queue the per-key loop builds mid-frame — its epoch is stale
        at a pop, or an unconstrained queue ran dry — is built from the
        plan instead (``build``): the found state's candidates under the
        filter, minus the blocks the plan evicted and, when entries are
        skipped as above, the blocks touched before the miss; then,
        unconstrained, the frame's accesses before the miss that left
        their block resident at the back of the order (inserts, and
        touches when hits reorder), in frame order, under the filter.  Its
        token is the policy clock at that miss: the victim-order token
        advanced by one per insert, and per touch when hits reorder.  A
        constrained queue needs no tail: whatever the frame touched or
        inserted has ``last_used = step``.

        The only cut is ``limit``: :meth:`_write_segment` then applies
        ``keys[:end]`` as array writes, and each eviction or bypass goes to
        ``sink`` at the position of the miss that caused it.
        """
        policy = self.policy
        m = keys.size
        f = min_free_step
        reorder = touch and policy.hits_reorder_victims  # touches tick the policy clock
        skip_touched = touch and (f is not None or policy.hits_reorder_victims)
        free = self.capacity - self._n_resident
        if tid >= 0:  # quota units left, and the owners a victim may have
            left = int(self._tenant_quota[tid] - self._tenant_used[tid])
            mixed = left > 0
            owners = (tid, -1) if mixed else (tid,)
        else:
            left, mixed, owners = m + 1, False, None  # more than the frame can take
        queue, qpos, qepoch, qtoken = self._vq, self._vq_pos, self._vq_epoch, self._vq_token
        entries = None  # the current queue's candidates, consumed across pops
        built_at = None  # the miss the current queue was built at (None: found)
        lo = 0  # frame position from which a touch drops a queued entry
        where = drop = None  # per block id: frame position; see build
        dropped = 0  # victims already in drop
        written: dict = {}  # owner filter -> (found candidates in order, hits it allows)
        inserted: list = []  # frame positions of the inserts
        victims: list = []
        evicted_at: list = []  # the miss whose admission popped each victim
        late: list = []  # frame positions of blocks evicted after their access
        bypassed: list = []

        def build(p):
            # drop[k]: the miss from which found candidate k has left the
            # order (its touch, when touched entries skip; -1 once evicted).
            nonlocal drop, dropped
            if drop is None:
                drop = np.full(len(where), m, dtype=np.int64)
                if skip_touched:
                    drop[keys] = np.arange(m)
            if dropped < len(victims):
                drop[victims[dropped:]] = -1
                dropped = len(victims)
            found = written.get(owners)
            if found is None:
                allowed = None
                if reorder and owners is not None:
                    allowed = self._owned_by(self._owner[keys], owners)
                found = written[owners] = (
                    policy.victim_order(self._candidate_mask(f, owners)), allowed
                )
            base, allowed = found
            base = base[drop[base] >= p]
            if f is not None:
                return base, qtoken
            ticks = len(inserted)
            if reorder:
                tail = hit[:p] & allowed[:p] if allowed is not None else hit[:p].copy()
                ticks += int(np.count_nonzero(hit[:p]))
            else:
                tail = np.zeros(p, dtype=bool)
            tail[inserted] = True  # the tenant's own, or unfiltered
            if late:
                tail[late] = False
            return np.concatenate((base, keys[:p][tail])), policy.victim_order_token() + ticks

        epoch = ("*" if f is None else step, f, owners)
        n_admits = 0
        end = m
        misses = np.flatnonzero(~hit).tolist()
        i = 0
        while i < len(misses):  # ascending frame positions
            p = misses[i]
            i += 1
            if admits is not None and not admits[p]:
                continue
            if free and left > 0:
                free -= 1
                left -= 1
                if not left:  # at quota: victims are the tenant's own from here
                    mixed, owners = False, (tid,)
                    epoch = (epoch[0], f, owners)
                inserted.append(p)
            else:
                if qepoch is not epoch:  # the first pop, or the epoch changed
                    if where is None:
                        where = np.full(len(self._resident), -1, dtype=np.int64)
                        where[keys] = np.arange(m)
                    if entries is None and qepoch == epoch:  # the queue the frame found
                        entries = self._queue_candidates(f, owners, where)
                        qepoch, lo = epoch, 0
                    else:
                        queue, qtoken = build(p)
                        qepoch, built_at, lo = epoch, p, p
                        entries = _entries(queue, where)
                victim = None
                for qpos, key, at in entries:
                    if not (skip_touched and lo <= at < p):
                        victim = key
                        break
                else:
                    if f is None and built_at != p:
                        queue, qtoken = build(p)  # ran dry: rebuild from the state at p
                        built_at = lo = p
                        entries = _entries(queue, where)
                        first = next(entries, None)  # a fresh queue's head is the victim
                        if first is not None:
                            qpos, victim, at = first
                if victim is None:
                    qpos = len(queue)
                    if f is None:
                        qepoch = None  # nothing resident passes the filter
                    bypassed.append(p)  # nothing evictable
                else:
                    victims.append(victim)
                    evicted_at.append(p)
                    inserted.append(p)
                    if at >= 0:
                        if at < p:
                            late.append(at)
                        else:
                            hit[at] = False  # evicted before its access
                            bisect.insort(misses, at, lo=i)
                    if mixed and (at < 0 or at > p or hit[at]) and self._owner[victim] < 0:
                        left -= 1  # an unowned block's slot became the tenant's
                        if not left:
                            mixed, owners = False, (tid,)
                            epoch = (epoch[0], f, owners)
            n_admits += 1
            if n_admits == limit:
                end = p + 1
                break
        self._vq, self._vq_pos, self._vq_epoch, self._vq_token = queue, qpos, qepoch, qtoken
        self._write_segment(
            keys, end, hit, inserted, victims, evicted_at if late else None, where,
            len(bypassed), step, touch, agg, tid,
        )
        if sink is not None:
            sink.extend(evicted_at, "evict", victims)
            if bypassed:
                sink.extend(bypassed, "bypass", keys[bypassed].tolist())
        return hit[:end]

    def _build_queue(self, epoch: tuple) -> None:
        """Build the victim queue of ``epoch`` — ``(step or "*",
        min_free_step, owners)`` — from the current state: every candidate
        under the epoch's ``min_free_step`` (every resident when None) that
        passes its owner filter."""
        policy = self.policy
        order = policy.victim_order(self._candidate_mask(epoch[1], epoch[2]))
        if epoch[1] is None:
            self._vq_token = policy.victim_order_token()
        self._vq, self._vq_pos, self._vq_epoch = order, 0, epoch

    def _candidate_mask(self, min_free_step: Optional[int], owners: Optional[tuple]):
        """Evictable residents, restricted to the ``owners`` indices when
        given (see :meth:`_pop_victim`)."""
        mask = self.evictable_mask(min_free_step)
        if owners is None:
            return mask
        return mask & self._owned_by(self._owner, owners)

    @staticmethod
    def _owned_by(owner: np.ndarray, owners: tuple) -> np.ndarray:
        """``owner`` entries in ``owners`` — ``(tenant,)`` or ``(tenant, -1)``."""
        allowed = owner == owners[0]
        if len(owners) > 1:
            allowed |= owner == -1
        return allowed

    def _queue_candidates(self, min_free_step, owners, where):
        """Victim-queue entries from ``_vq_pos`` on that are candidates in
        the current state under the ``owners`` filter, as ``(queue position
        after it, key, frame position)``; validated in windows that double
        toward the tail."""
        queue = self._vq
        pos = self._vq_pos
        width = 16
        while pos < len(queue):
            window = queue[pos: pos + width]
            if min_free_step is None:
                ok = self.policy.victim_still_ordered_many(window, self._vq_token)
            else:
                ok = self._resident[window] & (self._last_used[window] < min_free_step)
            if owners is not None:
                ok &= self._owned_by(self._owner[window], owners)
            idx = np.flatnonzero(ok)
            cand = window[idx]
            yield from zip((idx + pos + 1).tolist(), cand.tolist(), where[cand].tolist())
            pos += window.size
            width *= 2

    def _write_segment(
        self, keys, end, hit, inserted, victims, evicted_at, where, n_bypass, step, touch,
        agg, tid,
    ) -> None:
        """Apply a planned frame ``keys[:end]`` as array writes.

        A victim the frame accessed before its eviction (a block touched or
        inserted earlier in the frame) leaves after the frame's accesses
        are applied, every other victim before them, so the policy sees
        each block tracked or not exactly when the per-key loop's hooks
        did.  Victims release their owners' quota units and inserts are
        owned by ``tid``; no victim is another tenant's, since each passed
        its admission's owner filter.
        """
        policy = self.policy
        seg = keys[:end]
        ins = np.zeros(end, dtype=bool)
        ins[inserted] = True
        touched = hit[:end] if touch else np.zeros(end, dtype=bool)
        r = len(victims)
        late = None
        if r:
            gone = np.asarray(victims, dtype=np.int64)
            if evicted_at is not None:
                at = where[gone]
                after = (at >= 0) & (at < np.asarray(evicted_at, dtype=np.int64))
                late, gone = gone[after], gone[~after]
            self._drop(gone)
            self.stats.evictions += r
            if self.registry.enabled:
                self._evictions.inc(r)
            if agg is not None:
                agg.setdefault(("evict", self.name), [0, 0, 0.0])[0] += r
        if touch:
            self._last_used[seg[touched]] = step
        k = len(inserted)
        if k:
            new = seg[ins]
            self._resident[new] = True
            self._last_used[new] = step
            if tid >= 0:
                self._owner[new] = tid
                self._tenant_used[tid] += k
        accessed = touched | ins
        if accessed.any():
            policy.on_access_many(seg[accessed], ins[accessed], step)
            epoch = self._vq_epoch
            if epoch is not None and epoch[1] is not None and step < epoch[1]:
                self._vq_epoch = None  # as touch/admit: another epoch's order is stale
        if late is not None:
            self._drop(late)
        if k:
            self._n_resident += k - r
            self.stats.inserts += k
            if self.registry.enabled:
                # k insert-sets plus r evict-sets ending at the live occupancy,
                # which every evict dip recovers to: the walk never exceeds it.
                self._occupancy.set_n(self._n_resident, k + r)
        if n_bypass:
            self.stats.bypasses += n_bypass
            if self.registry.enabled:
                self._bypasses.inc(n_bypass)
            if agg is not None:
                agg.setdefault(("bypass", self.name), [0, 0, 0.0])[0] += n_bypass

    def _drop(self, gone: np.ndarray) -> None:
        """Evicted residents leave: residency, ``last_used``, owners' quota
        units and the policy order."""
        self._resident[gone] = False
        self._last_used[gone] = _NEVER_USED
        owner = self._owner
        if owner is not None:
            held = owner[gone]
            held = held[held >= 0]
            if held.size:
                self._tenant_used -= np.bincount(held, minlength=len(self._tenant_used))
            owner[gone] = -1
        self.policy.on_evict_many(gone)

    def _evictable_predicate(self, min_free_step: Optional[int], owners: Optional[tuple]):
        """Per-key form of :meth:`_candidate_mask` for policies that rank
        victims by predicate."""
        last_used = self._last_used
        if owners is None:
            if min_free_step is None:
                return lambda key: True
            return lambda key: last_used[key] < min_free_step
        owner = self._owner
        if min_free_step is None:
            return lambda key: owner[key] in owners
        return lambda key: owner[key] in owners and last_used[key] < min_free_step

    def evict(
        self,
        key: int,
        step: Optional[int] = None,
        agg: Optional[dict] = None,
        by: Optional[int] = None,
        rank: int = -1,
        sink: Optional[EventSink] = None,
    ) -> None:
        """Remove a resident ``key`` (policy notified).

        ``step`` is only used for tracing: the replay step whose admission
        forced this eviction (``None`` for evictions outside a replay).
        ``agg`` aggregates the evict event instead of recording it, and
        ``sink`` collects it (see :meth:`admit`).  ``by`` is the tenant
        index whose admission forced the eviction; evicting a block owned
        by a *different* tenant counts as a cross-tenant eviction (always
        zero under quota partitioning — the admission path never selects
        such victims).
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
        elif sink is not None:
            sink.add("evict", key)
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
