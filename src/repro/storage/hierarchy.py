"""Multi-level memory hierarchy with an inclusive read path.

Levels are ordered fastest-first (DRAM, SSD, ...) above a backing device
(HDD) that always holds the whole dataset.  A fetch searches top-down;
on a hit at level *j* the block is copied into every faster level (the
paper's HDD → SSD → DRAM movement, §V-A), charged at level *j*'s device
read cost — the slowest medium on the critical path.  The batched calls
run that path level by level: each level accesses, in one call, the ids
the level above missed.  Their per-event trace events are tagged with the
position of the id that caused them and written in columns, in the order
the per-key loop records them (:class:`TaggedEvents`).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.obs.metrics import NULL_REGISTRY
from repro.policies.registry import make_policy
from repro.storage.cache import CacheLevel, EventSink
from repro.storage.device import DRAM, HDD, SSD, StorageDevice
from repro.storage.stats import HierarchyStats
from repro.trace.events import KIND_CODES, InternTable
from repro.trace.tracer import NULL_TRACER
from repro.utils.validation import check_positive

__all__ = [
    "DROPPED",
    "EVENT_STRIDE",
    "FetchResult",
    "BatchFetchResult",
    "FrameSink",
    "LevelSurface",
    "MemoryHierarchy",
    "TaggedEvents",
    "install_tenant_quotas",
    "make_standard_hierarchy",
]

#: ``FetchResult.source`` when every source (including the backing store)
#: failed and the block could not be delivered.
DROPPED = "dropped"


@dataclass(frozen=True)
class FetchResult:
    """Outcome of one block fetch.

    ``dropped`` is True only under fault injection, when every candidate
    source exhausted its retries: the charged ``time_s`` is the wasted
    attempt/backoff time and no data moved (``source`` is :data:`DROPPED`).
    """

    key: int
    time_s: float
    source: str  # name of the level/device that served the data
    fastest_hit: bool  # True when the block was already in the fastest level
    dropped: bool = False


@dataclass(frozen=True)
class BatchFetchResult:
    """Outcome of one :meth:`MemoryHierarchy.fetch_many` call.

    ``time_s`` is the left-fold sum of the per-block charged times in id
    order — bit-identical to accumulating ``fetch(...).time_s`` over the
    same ids with ``+=``.  ``n_dropped``/``dropped_ids`` are non-trivial
    only under fault injection (see :meth:`MemoryHierarchy.set_fault_injector`).
    """

    n: int
    n_fastest_hits: int
    time_s: float
    n_dropped: int = 0
    dropped_ids: "tuple[int, ...]" = ()


#: A batched call's trace event sorts at ``position * EVENT_STRIDE + slot``,
#: where ``position`` is its id's place in the frame: slot 0 is the id's
#: hit/fetch/prefetch event, slot ``1 + j`` level ``j``'s evictions or
#: bypass.  A caller that adds events of its own per id (the sharded layer)
#: takes the slots above the levels'.
EVENT_STRIDE = 64

#: Kind codes by "served below the fastest" (``KIND_CODES`` of hit, fetch).
_DEMAND_KINDS = np.array([KIND_CODES["hit"], KIND_CODES["fetch"]], dtype=np.uint8)
_TAG_DTYPES = (np.uint8, np.int32, np.int64, np.int64, np.float64)


class TaggedEvents:
    """Trace-event columns of one batched call, each row tagged with its
    sort key (see :data:`EVENT_STRIDE`).

    Kinds are :data:`~repro.trace.events.KIND_CODES` codes and levels codes
    into this call's own level table (``levels``).  :meth:`write`
    sorts the rows stably by key — rows with one key keep the order they
    were added in — re-codes the levels to the tracer's table and hands the
    columns to the ring with one
    :meth:`~repro.trace.tracer.Tracer.record_codes`: the per-key loop's
    events, ``seq`` numbers and span stamps, and no object per event.
    """

    __slots__ = ("order", "columns", "levels")

    def __init__(self) -> None:
        self.order: List[np.ndarray] = []
        self.columns: "tuple[list, ...]" = ([], [], [], [], [])  # kind, level, key, nbytes, time
        self.levels = InternTable()

    def add(self, order: np.ndarray, kind, level, keys, nbytes=0, times=0.0) -> None:
        """Rows sorting at ``order``.  ``kind`` is a kind name or one code
        per row, ``level`` a level name or one ``levels`` code per row;
        ``nbytes``/``times`` are one value for every row or one per row."""
        n = len(order)
        if n:
            self.order.append(order)
            if isinstance(kind, str):
                kind = KIND_CODES[kind]
            if isinstance(level, str):
                level = self.levels.code(level)
            for column, value, dtype in zip(
                self.columns, (kind, level, keys, nbytes, times), _TAG_DTYPES
            ):
                column.append(
                    np.asarray(value, dtype) if isinstance(value, (np.ndarray, list))
                    else np.full(n, value, dtype)
                )

    def add_sink(self, sink: EventSink, at: np.ndarray, slot: int, level: str) -> None:
        """One level's evictions and bypasses; ``at`` maps the positions
        the level saw to frame positions."""
        if sink.pos:
            order = at[np.asarray(sink.pos, dtype=np.int64)] * EVENT_STRIDE + slot
            kinds = np.fromiter(map(KIND_CODES.__getitem__, sink.kinds), np.uint8, len(order))
            self.add(order, kinds, level, sink.keys)

    def write(self, tracer, step: int) -> None:
        """Record every row, in key order, with one ``record_codes``."""
        if not self.order:
            return
        order, *columns = (
            np.concatenate(parts) if len(parts) > 1 else parts[0]
            for parts in (self.order, *self.columns)
        )
        if order.size > 1 and not (order[1:] >= order[:-1]).all():
            perm = np.argsort(order, kind="stable")
            columns = [column[perm] for column in columns]
        kinds, levels, keys, nbytes, times = columns
        names = self.levels.names
        to_tracer = np.fromiter(map(tracer.level_code, names), np.int32, len(names))
        tracer.record_codes(step, kinds, to_tracer[levels], keys, nbytes, times)


class FrameSink:
    """A frame served by several cascades, one per owner node.

    Each cascade writes its ids' charged times and fastest-hit flags at
    their frame positions ``at`` (set by the caller before each call) and
    adds its events, tagged with those positions, to ``events`` (None when
    untraced); the caller folds ``times`` once and writes ``events`` once.
    """

    __slots__ = ("at", "times", "fast", "events")

    def __init__(self, n: int, traced: bool) -> None:
        self.at = np.arange(n)
        self.times = np.empty(n, dtype=np.float64)
        self.fast = np.zeros(n, dtype=bool)
        self.events: Optional[TaggedEvents] = TaggedEvents() if traced else None


def install_tenant_quotas(
    levels: Sequence[CacheLevel], fractions: Optional[Mapping[str, float]]
) -> "dict[str, dict[str, int]]":
    """Partition ``levels`` between tenants (``None``/empty disables).

    ``fractions`` maps tenant label -> fraction of each level's capacity
    (fractions must sum to at most 1).  Each level gets ``max(1,
    floor(fraction * capacity))`` blocks per tenant.  Every level's quotas
    are computed before any is installed, so a level whose capacity cannot
    hold its quotas raises ``ValueError`` naming it and leaves every level
    as it was.  Returns the installed block quotas per level name.
    """
    plan: "dict[str, dict[str, int]]" = {}
    if fractions:
        total = sum(float(f) for f in fractions.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"tenant fractions sum to {total:.4f}, exceeding 1")
        for level in levels:
            quotas = {
                name: max(1, int(float(frac) * level.capacity))
                for name, frac in fractions.items()
            }
            if sum(quotas.values()) > level.capacity:
                raise ValueError(
                    f"{level.name}: capacity {level.capacity} cannot hold one "
                    f"block per tenant for {len(quotas)} tenants"
                )
            plan[level.name] = quotas
    for level in levels:
        level.set_tenant_quotas(plan.get(level.name))
    return plan


class LevelSurface:
    """The hierarchy surface that only loops over cache ``levels``.

    :class:`MemoryHierarchy` and the sharded hierarchy
    (:class:`~repro.cluster.hierarchy.ShardedHierarchy`, whose ``levels``
    are every node's levels, then its ghost cache) both inherit it; each
    keeps its own read path — ``fetch``, ``fetch_many``, ``prefetch_many``
    and ``preload`` are defined in each class's body.
    """

    levels: List[CacheLevel]
    _block_nbytes: int

    def block_nbytes(self, key: int) -> int:
        """Block ``key``'s size in bytes: every block has the one size."""
        return self._block_nbytes

    def _bind_fetch_metrics(self, sources: Sequence[str]) -> None:
        """Per serving source: ``fetch_latency_seconds`` split by demand/
        prefetch, ``bytes_read_total`` and ``fetches_total``, on the
        current registry."""
        registry = self.registry
        self._fetch_metrics = {
            name: (
                registry.histogram("fetch_latency_seconds", level=name, kind="demand"),
                registry.histogram("fetch_latency_seconds", level=name, kind="prefetch"),
                registry.counter("bytes_read_total", level=name),
                registry.counter("fetches_total", level=name, kind="demand"),
                registry.counter("fetches_total", level=name, kind="prefetch"),
            )
            for name in sources
        }

    def _record_fetch(
        self, source: str, prefetch: bool, nbytes: int, time_s: float, n: int = 1
    ) -> None:
        """Fetch metrics of ``n`` reads of ``nbytes`` from ``source``, each
        charged ``time_s``."""
        demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = self._fetch_metrics[source]
        hist, count = (prefetch_h, prefetch_c) if prefetch else (demand_h, demand_c)
        hist.observe_many(time_s, n)
        count.inc(n)
        bytes_c.inc(nbytes * n)

    # -- tenant partitioning ---------------------------------------------------

    def set_tenant_quotas(
        self, fractions: Optional[Mapping[str, float]]
    ) -> "dict[str, dict[str, int]]":
        """Partition every level between tenants, all or nothing (see
        :func:`install_tenant_quotas`); returns the installed block quotas
        per level for the caller's ledger."""
        return install_tenant_quotas(self.levels, fractions)

    def tenant_usage(self) -> "dict[str, dict[str, int]]":
        """Per-level resident block counts per tenant."""
        return {lv.name: lv.tenant_usage() for lv in self.levels if lv.tenant_quotas_enabled}

    def tenant_cross_evictions(self) -> int:
        """Total cross-tenant evictions across levels (0 under partitioning)."""
        return sum(lv.tenant_cross_evictions for lv in self.levels)

    # -- stats & lifecycle -------------------------------------------------------

    def stats(self) -> HierarchyStats:
        return HierarchyStats(levels={lv.name: lv.stats for lv in self.levels})

    def clear(self) -> None:
        """Empty every level (stats preserved)."""
        for level in self.levels:
            level.clear()

    def check_invariants(self) -> None:
        for level in self.levels:
            level.check_invariants()


class MemoryHierarchy(LevelSurface):
    """Cache levels over a backing store, with demand and prefetch paths."""

    def __init__(
        self,
        levels: Sequence[CacheLevel],
        level_devices: Sequence[StorageDevice],
        backing: StorageDevice,
        block_nbytes: int,
        prefetch_latency_factor: float = 0.25,
        tracer=None,
        registry=None,
    ) -> None:
        if not levels:
            raise ValueError("hierarchy needs at least one cache level")
        if len(levels) != len(level_devices):
            raise ValueError(
                f"{len(levels)} levels but {len(level_devices)} devices"
            )
        names = [lv.name for lv in levels]
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate level names: {names}")
        self.levels: List[CacheLevel] = list(levels)
        self.level_devices: List[StorageDevice] = list(level_devices)
        self.backing = backing
        self._block_nbytes = int(check_positive("block_nbytes", block_nbytes))
        if not 0.0 <= prefetch_latency_factor <= 1.0:
            raise ValueError(
                f"prefetch_latency_factor must be in [0, 1], got {prefetch_latency_factor}"
            )
        # Prefetch requests are queued and asynchronous, so they amortise
        # per-request latency (readahead / NCQ); demand reads pay it fully.
        self.prefetch_latency_factor = prefetch_latency_factor
        self.backing_reads = 0
        self.backing_bytes = 0
        # One block size: device read times are pure constants per
        # (source, demand/prefetch) pair.
        self._read_time_cache: dict = {}
        # Source names by source index (the levels, then the backing store).
        self._source_names = [lv.name for lv in self.levels] + [backing.name]
        # Fault injection (None = fault-free: no fault draw, retry or
        # breaker runs, keeping fault-free runs byte-identical).
        self.fault_injector = None
        self._fault_free = True  # no installed injector can touch a device here
        self.retry_policy = None
        self.breakers: dict = {}
        self._sim_now = 0.0  # accumulated charged io; drives breaker cooldowns
        self._fault_metrics: dict = {}
        # Eviction forensics (None = off; see set_forensics).  Strictly
        # observational: lineage lookups never change a fetch decision.
        self.forensics = None
        self._re_miss_counter = NULL_REGISTRY.counter("forensics_re_miss_total")
        self._premature_counter = NULL_REGISTRY.counter(
            "forensics_premature_evictions_total"
        )
        self.tracer = NULL_TRACER
        self.set_tracer(tracer if tracer is not None else NULL_TRACER)
        self.registry = NULL_REGISTRY
        self.set_registry(registry if registry is not None else NULL_REGISTRY)

    def set_tracer(self, tracer) -> None:
        """Install ``tracer`` on the hierarchy and every cache level."""
        self.tracer = tracer
        for level in self.levels:
            level.tracer = tracer

    def set_registry(self, registry) -> None:
        """Bind the read-path metrics on ``registry`` (hierarchy + levels).

        Per serving source (each cache level plus the backing device) the
        hierarchy keeps a ``fetch_latency_seconds`` histogram split by
        demand/prefetch and a ``bytes_read_total`` counter that increments
        exactly where the :class:`~repro.storage.stats.CacheStats` byte
        ledger does — so registry counters and ``HierarchyStats`` totals
        are equal by construction (pinned by the test suite).
        """
        self.registry = registry
        for level in self.levels:
            level.set_registry(registry)
        self._bind_fetch_metrics([lv.name for lv in self.levels] + [self.backing.name])
        if self.fault_injector is not None:
            self._bind_fault_metrics()
        if self.forensics is not None:
            self._bind_forensics_metrics()

    def set_forensics(self, lineage) -> None:
        """Install an :class:`~repro.storage.forensics.EvictionLineage` (or None).

        With a lineage installed, every eviction on every level records its
        provenance (block, level, step, policy, tenant, victim-queue rank),
        and every *demand* miss consults the lineage: a block the ring
        remembers evicting produces a re-miss record, a ``re_miss`` trace
        event (when a tracer is attached) carrying the age and the evicting
        policy/tenant, and bumps the ``forensics_re_miss_total`` /
        ``forensics_premature_evictions_total`` counters.  Purely
        observational — enabled runs keep byte-identical ledgers.
        """
        self.forensics = lineage
        for level in self.levels:
            level.forensics = lineage
        if lineage is not None:
            self._bind_forensics_metrics()

    def _bind_forensics_metrics(self) -> None:
        self._re_miss_counter = self.registry.counter("forensics_re_miss_total")
        self._premature_counter = self.registry.counter(
            "forensics_premature_evictions_total"
        )

    def _note_re_miss(self, key: int, step: int) -> None:
        """Demand-miss forensics hook: lineage lookup + event + counters."""
        rec = self.forensics.on_miss(key, step)
        if rec is None:
            return
        if self.registry.enabled:
            self._re_miss_counter.inc()
            if rec.premature:
                self._premature_counter.inc()
        if self.tracer.enabled:
            self.tracer.record(
                "re_miss",
                step,
                rec.evicted_from,
                key,
                age_steps=rec.age_steps,
                origin=f"{rec.policy}:{rec.tenant}",
            )

    def set_fault_injector(
        self,
        injector,
        retry_policy=None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.25,
    ) -> None:
        """Install a :class:`~repro.faults.injector.FaultInjector` (or None).

        With an injector installed, every read — per-block and batched, demand
        and prefetch — is a per-block fetch that reads under faults
        (:meth:`_read_with_faults`): per-attempt fault draws, bounded
        retries with deterministic sim-clock exponential backoff
        (``retry_policy``, default :class:`~repro.faults.resilience.
        RetryPolicy`), a per-device circuit breaker that skips a sick level
        and falls back to the next slower one, and graceful drops when even
        the backing store fails.  Without one, the fault-free fast paths are
        byte-identical to a hierarchy that never heard of faults — and so
        are batched reads under an injector whose plan names none of this
        hierarchy's devices and a retry policy with no read timeout (a
        cluster node under a link-only profile): their fault reads could
        only do what a fault-free read does, so they take the cascade.

        Accounting under faults keeps the PR-1 invariants: every probed
        level records exactly one hit or miss per fetch, bytes are charged
        only at the source that actually served, and the trace's
        movement + ``fault`` + ``retry`` event times sum to the charged io
        exactly (``degraded`` events are informational and carry only the
        *extra* seconds above the nominal read cost).
        """
        # Imported lazily: repro.faults pulls in repro.volume, and eager
        # top-level imports would tie the two packages' init order together.
        from repro.faults.resilience import CircuitBreaker, RetryPolicy

        self.fault_injector = injector
        if injector is None:
            self.retry_policy = None
            self.breakers = {}
            self._fault_metrics = {}
            self._fault_free = True
            return
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        device_names = [dev.name for dev in self.level_devices] + [self.backing.name]
        # An injector whose plan names none of these devices, under a retry
        # policy with no read timeout, can never change a read here: a read
        # under it does exactly what a fault-free read does.
        self._fault_free = self.retry_policy.read_timeout_s is None and all(
            injector.plan.profile_for(name) is None for name in device_names
        )
        self.breakers = {
            name: CircuitBreaker(breaker_threshold, breaker_cooldown_s)
            for name in device_names
        }
        self._bind_fault_metrics()

    def _bind_fault_metrics(self) -> None:
        """(Re)bind the per-device fault metrics on the current registry —
        called at injector install and again if a registry is installed
        later (drivers call ``set_registry`` at replay start)."""
        registry = self.registry
        device_names = [dev.name for dev in self.level_devices] + [self.backing.name]
        self._fault_metrics = {
            name: (
                registry.counter("fault_errors_total", device=name),
                registry.counter("fault_retries_total", device=name),
                registry.counter("fault_timeouts_total", device=name),
                registry.counter("fault_dropped_blocks_total", device=name),
                registry.histogram("fault_spike_seconds", device=name),
            )
            for name in device_names
        }

    # -- helpers -------------------------------------------------------------

    @property
    def fastest(self) -> CacheLevel:
        return self.levels[0]

    def contains_fast(self, key: int) -> bool:
        """Is ``key`` already in the fastest level (no I/O needed)?"""
        return key in self.levels[0]

    # -- the read path ---------------------------------------------------------

    def fetch(
        self,
        key: int,
        step: int,
        prefetch: bool = False,
        min_free_step: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> FetchResult:
        """Bring ``key`` into the fastest level; return the charged time.

        Demand fetches (``prefetch=False``) update recency and the demand
        hit/miss counters; prefetch fetches update the prefetch counters and
        do not refresh recency on hits (a prediction must not perturb the
        replacement order of data the user actually touched).

        Byte accounting is uniform: every fetch charges the block's size
        exactly once at the serving source — ``bytes_read`` of the serving
        cache level (including fastest-level hits, whose bytes the renderer
        still reads) or ``backing_bytes`` for backing-store reads.  The
        ``bytes_moved`` extras reported by the drivers therefore equal
        ``backing_bytes + total_bytes_read``, and the trace's
        hit/fetch/prefetch events sum to the same total.

        ``tenant`` labels every admission this fetch performs for quota
        accounting (see :meth:`CacheLevel.set_tenant_quotas`); it is inert
        when no level has quotas installed.
        """
        return self._fetch_one(key, step, prefetch, min_free_step, tenant)

    def _read_time(self, source_idx: int, latency_scale: float) -> float:
        """Device read time of one block, memoised per (source, scale).

        ``source_idx`` indexes ``level_devices``; ``-1`` is the backing
        device.  Identical values to calling ``read_time`` directly.
        """
        cache_key = (source_idx, latency_scale)
        time_s = self._read_time_cache.get(cache_key)
        if time_s is None:
            dev = self.backing if source_idx < 0 else self.level_devices[source_idx]
            time_s = self._read_time_cache[cache_key] = dev.read_time(
                self._block_nbytes, latency_scale
            )
        return time_s

    def _fetch_one(
        self,
        key: int,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        tenant: Optional[str] = None,
        rec: "Optional[dict]" = None,
    ) -> FetchResult:
        """One block's fetch: probe the levels, serve, then book.

        Without a fault injector the first level holding the block serves
        at its device read time.  With one, the holding levels and then the
        backing store are tried in turn (:meth:`_read_with_faults`), and the
        charged ``time_s`` includes the failed attempts and backoffs.  One
        tail books either: the fastest level's hit, or one miss at every
        level above the serving source (every level on a drop), the serve,
        and an admission into each of those levels that does not hold the
        block.  A tenant that a level which may admit the block does not
        know raises ``KeyError`` before anything is booked.

        ``rec`` (batch mode, without a fault injector) accumulates the
        registry fetch metrics per (source, time) for a grouped flush
        instead of recording them immediately.
        """
        levels = self.levels
        nbytes = self._block_nbytes
        latency_scale = self.prefetch_latency_factor if prefetch else 1.0
        holders = []
        for j, level in enumerate(levels):
            resident = level._resident
            if key < len(resident) and resident[key]:
                holders.append(j)
        inj = self.fault_injector
        if tenant is not None:
            # Every level that may admit the block resolves the tenant before
            # anything is booked; without faults, those above the first holder.
            reach = len(levels) if inj is not None or not holders else holders[0]
            for j in range(reach):
                if j not in holders:
                    levels[j]._tenant_id(tenant)
        if inj is None:
            served = holders[0] if holders else -1  # -1: the backing store
            total_t = serve_t = self._read_time(served, latency_scale)
        else:
            served, total_t, serve_t = self._read_with_faults(
                key, step, holders, nbytes, latency_scale
            )

        # One miss at every level above the serving source; a drop missed
        # everywhere.  A resident-but-unreadable level counts a miss too —
        # it was probed and failed to serve.
        upto = len(levels) if (served is None or served < 0) else served
        if upto:
            for level in levels[:upto]:
                if prefetch:
                    level.stats.prefetch_misses += 1
                else:
                    level.stats.misses += 1
            if not prefetch and self.forensics is not None:
                self._note_re_miss(key, step)

        if served is None:
            inj.record_drop(self.backing.name)
            if self.registry.enabled:
                metrics = self._fault_metrics.get(self.backing.name)
                if metrics is not None:
                    metrics[3].inc()
            return FetchResult(key, total_t, DROPPED, fastest_hit=False, dropped=True)

        if served < 0:
            source_name = self.backing.name
            self.backing_reads += 1
            self.backing_bytes += nbytes
        else:
            serving = levels[served]
            if prefetch:
                serving.stats.prefetch_hits += 1
            else:
                serving.stats.hits += 1
                serving.touch(key, step)
            serving.stats.bytes_read += nbytes
            source_name = serving.name
        if rec is not None:
            k = (source_name, serve_t)
            rec[k] = rec.get(k, 0) + 1
        elif self.registry.enabled:
            self._record_fetch(source_name, prefetch, nbytes, serve_t)
        if self.tracer.enabled:
            kind = "prefetch" if prefetch else "hit" if served == 0 else "fetch"
            self.tracer.record(kind, step, source_name, key, nbytes, serve_t)
        # Copy into every faster level that does not already hold the key
        # (inclusive hierarchy); transient faults do not evict, so a
        # resident-but-unreadable copy stays where it is.
        for level in levels[:upto]:
            resident = level._resident
            if not (key < len(resident) and resident[key]):
                level.admit(key, step, min_free_step=min_free_step, tenant=tenant)
        return FetchResult(key, total_t, source_name, fastest_hit=served == 0)

    def _read_with_faults(
        self, key: int, step: int, holders: List[int], nbytes: int, latency_scale: float
    ) -> "tuple[Optional[int], float, float]":
        """Read ``key`` under the fault injector; returns the serving
        source (a level index, -1 for the backing store, None when every
        source failed), the time charged and the serving attempt's time.

        The ``holders`` (levels holding the key, fastest first) and then the
        backing store are tried in turn.  Each gets up to
        ``retry_policy.max_attempts`` reads; a failed attempt charges its
        cost (a timed-out one charges the deadline), emits a ``fault``
        trace event, and — if retries remain — a ``retry`` event carrying
        the deterministic backoff.  A level whose circuit breaker is open
        is skipped without a read (the backing store, the last resort, is
        never skipped).  The movement + ``fault`` + ``retry`` event times
        sum to the charged time exactly; ``degraded`` events are
        informational and carry only the seconds *above* the nominal read
        cost.  The charged time advances the breakers' sim clock.
        """
        inj = self.fault_injector
        policy = self.retry_policy
        tracer = self.tracer
        record = self.registry.enabled
        total_t = 0.0  # everything charged: attempts, backoffs, the serve
        for j in holders + [-1]:  # the backing store always holds everything
            if j < 0:
                device = source_name = self.backing.name
            else:
                device = self.level_devices[j].name
                source_name = self.levels[j].name
            breaker = self.breakers.get(device)
            if j >= 0 and breaker is not None and not breaker.allows(self._sim_now + total_t):
                inj.record_breaker_skip(device)
                continue
            base_t = self._read_time(j, latency_scale)
            metrics = self._fault_metrics.get(device) if record else None
            for attempt in range(policy.max_attempts):
                slow = inj.slowdown(device, step)
                spike = inj.spike_s(device, key, step, attempt)
                attempt_t = base_t * slow + spike
                if spike > 0.0 and metrics is not None:
                    metrics[4].observe(spike)
                timed_out = (
                    policy.read_timeout_s is not None and attempt_t > policy.read_timeout_s
                )
                if timed_out:
                    attempt_t = policy.read_timeout_s  # abandoned at the deadline
                    inj.record_timeout(device)
                    if metrics is not None:
                        metrics[2].inc()
                if timed_out or inj.fails(device, key, step, attempt):
                    if not timed_out and metrics is not None:
                        metrics[0].inc()
                    total_t += attempt_t
                    if tracer.enabled:
                        tracer.record("fault", step, source_name, key, 0, attempt_t)
                    if breaker is not None and breaker.record_failure(self._sim_now + total_t):
                        inj.record_breaker_open(device)
                    if attempt + 1 < policy.max_attempts:
                        back = policy.backoff_s(attempt)
                        total_t += back
                        inj.record_retry(device)
                        if metrics is not None:
                            metrics[1].inc()
                        if tracer.enabled:
                            tracer.record("retry", step, source_name, key, 0, back)
                    continue
                total_t += attempt_t
                if breaker is not None:
                    breaker.record_success(self._sim_now + total_t)
                if attempt_t > base_t:
                    inj.record_degraded(device)
                    if tracer.enabled:
                        tracer.record(
                            "degraded", step, source_name, key, 0, attempt_t - base_t
                        )
                self._sim_now += total_t
                return j, total_t, attempt_t
        self._sim_now += total_t
        return None, total_t, 0.0

    # -- the batched read path -------------------------------------------------

    def fetch_many(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool = False,
        min_free_step: Optional[int] = None,
        tenant: Optional[str] = None,
        *,
        _frame: Optional[FrameSink] = None,
    ) -> BatchFetchResult:
        """Fetch a whole id array; result-identical to scalar :meth:`fetch`.

        Unique ids, with no forensics, no fault injector that can touch
        this hierarchy's devices and no ``min_free_step`` past ``step``,
        take the level cascade
        (:meth:`_cascade`): the fastest level accesses every id in one
        :meth:`CacheLevel.access_many`, each slower level the misses of
        the level above, and the charged times, stats, registry metrics
        and trace events are booked once per call.  Any other call runs
        the per-block reference loop (:meth:`_fetch_each`).

        The total ``time_s`` is accumulated with a sequential left fold
        (``np.add.accumulate``), so it is bit-identical to the scalar
        loop's ``io += fetch(...).time_s``.

        ``_frame`` is the sharded layer's per-owner call (the caller has
        checked the cascade applies): the per-id times, fastest-hit flags
        and tagged events go to the :class:`FrameSink` at its positions.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = ids.size
        if n == 0:
            return BatchFetchResult(0, 0, 0.0)
        if _frame is not None:
            at = _frame.at
            _, times, fast = self._cascade(
                ids, step, prefetch, min_free_step, tenant, events=_frame.events, at=at
            )
            _frame.times[at] = times
            _frame.fast[at] = fast
            return BatchFetchResult(n, int(fast.sum()), _fold(times))
        if self._cascades(ids, step, min_free_step):
            _, times, fast = self._cascade(ids, step, prefetch, min_free_step, tenant)
            return BatchFetchResult(n, int(fast.sum()), _fold(times))
        results = self._fetch_each(ids, step, prefetch, min_free_step, tenant)[1]
        times = np.array([r.time_s for r in results])
        dropped = tuple(r.key for r in results if r.dropped)
        n_fast = sum(r.fastest_hit for r in results)
        return BatchFetchResult(n, n_fast, _fold(times), len(dropped), dropped)

    def prefetch_many(
        self,
        candidates,
        step: int,
        min_free_step: Optional[int] = None,
        max_fetch: Optional[int] = None,
        dedupe: bool = False,
        tenant: Optional[str] = None,
    ) -> "tuple[List[int], float]":
        """Issue prefetches for ``candidates`` in order; returns
        ``(issued ids, total prefetch time)``.

        Replicates a per-block ``fetch(..., prefetch=True)`` loop exactly:
        candidates already resident in the fastest level are skipped
        against *live* residency (an earlier prefetch in the same batch may
        have evicted a later candidate), at most ``max_fetch`` fetches are
        issued (None = unlimited; the cap check precedes the skip checks),
        and ``dedupe=True`` fetches each candidate id at most once (the
        attempted-set semantics of ``run_with_prefetcher`` — note a
        duplicate of a *skipped* resident candidate may still be fetched
        later if it was evicted in between).

        Under the same conditions as :meth:`fetch_many` (unique candidates,
        so ``dedupe`` is moot) the fastest level's ``access_many`` with
        ``touch=False`` and ``limit=max_fetch`` picks the issued ids — its
        misses — and the slower levels serve them as a cascade.
        """
        arr = np.ascontiguousarray(candidates, dtype=np.int64)
        if arr.size == 0:
            return [], 0.0
        if self._cascades(arr, step, min_free_step):
            issued, times, _ = self._cascade(
                arr, step, True, min_free_step, tenant, skip_fast=True, limit=max_fetch
            )
            return issued.tolist(), _fold(times)
        issued, results = self._fetch_each(
            arr, step, True, min_free_step, tenant, skip_fast=True, limit=max_fetch,
            dedupe=dedupe,
        )
        return issued, _fold(np.array([r.time_s for r in results]))

    @property
    def batchable(self) -> bool:
        """Can this hierarchy's batched calls take the level cascade at
        all?  Everything the cascade books in bulk must commute: no fault
        draw on any device here, no forensics lineage.  (The call must
        also pass :meth:`_cascades`.)"""
        return self._fault_free and self.forensics is None

    def _cascades(
        self, ids: np.ndarray, step: int = 0, min_free_step: Optional[int] = None
    ) -> bool:
        """Can ``ids`` at ``step`` take the level cascade?  They must be
        unique, and a ``min_free_step`` past the step (a touched block
        stays a candidate there) admits per key."""
        return self.batchable and _unique(ids) and (min_free_step is None or min_free_step <= step)

    def _cascade(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        tenant: Optional[str],
        skip_fast: bool = False,
        limit: Optional[int] = None,
        events: Optional[TaggedEvents] = None,
        at: Optional[np.ndarray] = None,
    ) -> "tuple[np.ndarray, np.ndarray, np.ndarray]":
        """Serve unique ``ids`` down the levels; returns the served ids,
        their charged times and their fastest-level hit mask.

        Each level accesses the ids the level above missed, in id order
        (levels are independent, so level by level equals key by key),
        touching hits on demand reads only; then stats, registry metrics
        and trace events are booked once.  ``skip_fast`` is the prefetch:
        ids resident in the fastest level are skipped, not served, and
        ``limit`` caps the fastest level's misses.

        Tracing tags every event with its id's frame position (``at``,
        default the index in ``ids``): each level's evictions and bypasses
        come from an :class:`EventSink`, and the hit/fetch/prefetch events
        from the sources served.  They go to ``events`` when the caller
        merges them with its own, else to the tracer in one write.
        """
        levels = self.levels
        n_lv = len(levels)
        tracer = self.tracer
        own = events is None and tracer.enabled
        if own:
            events = TaggedEvents()
        if events is not None and at is None:
            at = np.arange(ids.size)
        sink = None if events is None else EventSink()
        hit = levels[0].access_many(ids, step, min_free_step, not prefetch, limit, tenant, sink)
        if sink is not None:
            events.add_sink(sink, at, 1, levels[0].name)
        if skip_fast:
            served = ~hit
            ids = ids[: hit.size][served]
            if at is not None:
                at = at[: hit.size][served]
            hit = np.zeros(ids.size, dtype=bool)
        src = np.where(hit, 0, n_lv)  # n_lv = the backing store
        pos = np.flatnonzero(~hit)
        for j in range(1, n_lv):
            if not pos.size:
                break
            sink = None if events is None else EventSink()
            hit = levels[j].access_many(
                ids[pos], step, min_free_step, not prefetch, None, tenant, sink
            )
            if sink is not None:
                events.add_sink(sink, at[pos], 1 + j, levels[j].name)
            src[pos[hit]] = j
            pos = pos[~hit]
        nb = self._block_nbytes
        scale = self.prefetch_latency_factor if prefetch else 1.0
        t_src = [self._read_time(j, scale) for j in range(n_lv)]
        t_src.append(self._read_time(-1, scale))
        counts = np.bincount(src, minlength=n_lv + 1).tolist()
        below = counts[n_lv]  # ids served deeper than the level being booked
        self.backing_reads += below
        self.backing_bytes += below * nb
        for j in range(n_lv - 1, -1, -1):
            stats = levels[j].stats
            if prefetch:
                stats.prefetch_hits += counts[j]
                stats.prefetch_misses += below
            else:
                stats.hits += counts[j]
                stats.misses += below
            stats.bytes_read += counts[j] * nb
            below += counts[j]
        if self.registry.enabled:
            for j, c in enumerate(counts):
                if c:
                    self._record_fetch(self._source_names[j], prefetch, nb, t_src[j], c)
        times = np.asarray(t_src)[src]
        if events is not None:
            kinds = "prefetch" if prefetch else _DEMAND_KINDS[(src > 0).view(np.int8)]
            sources = events.levels.codes(self._source_names)
            events.add(at * EVENT_STRIDE, kinds, sources[src], ids, nb, times)
            if own:
                events.write(tracer, step)
        if self.fault_injector is not None:  # the breakers' sim clock
            self._sim_now = _fold(times, self._sim_now)
        return ids, times, src == 0

    def _fetch_each(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        tenant: Optional[str],
        skip_fast: bool = False,
        limit: Optional[int] = None,
        dedupe: bool = False,
    ) -> "tuple[List[int], List[FetchResult]]":
        """The per-block reference loop: one :meth:`_fetch_one` per id, in
        id order; returns the fetched ids and their results.

        ``skip_fast`` is the prefetch loop: candidates resident in the
        fastest level are skipped, at most ``limit`` are fetched (checked
        before the skips) and ``dedupe`` fetches each id at most once.  A
        dropped prefetch still counts as fetched: the prediction was acted
        on, it just failed.  Registry fetch metrics are grouped per
        (source, time) without a fault injector.
        """
        rec: "Optional[dict]" = (
            {} if self.registry.enabled and self.fault_injector is None else None
        )
        fast = self.levels[0]
        attempted = set() if dedupe else None
        fetched: List[int] = []
        results: List[FetchResult] = []
        for key in ids.tolist():
            if skip_fast:
                if limit is not None and len(fetched) >= limit:
                    break
                if attempted is not None and key in attempted:
                    continue
                if key in fast:
                    continue
                if attempted is not None:
                    attempted.add(key)
            r = self._fetch_one(key, step, prefetch, min_free_step, tenant, rec)
            fetched.append(key)
            results.append(r)
        self._flush_rec(rec, prefetch)
        return fetched, results

    def _flush_rec(self, rec: "Optional[dict]", prefetch: bool) -> None:
        """Flush grouped registry fetch metrics."""
        if not rec:
            return
        for (source_name, t), c in rec.items():
            self._record_fetch(source_name, prefetch, self._block_nbytes, t, c)

    # -- preload (Step 2 / Alg. 1 line 7) -----------------------------------------

    def preload(self, keys_by_priority: Sequence[int]) -> "dict[str, int]":
        """Fill every level from the head of a priority-ordered key list.

        Inclusive placement: the top ``capacity`` keys of each level go into
        it, so the fastest level holds the most important blocks and slower
        levels hold supersets.  Returns blocks placed per level.
        """
        return {level.name: level.preload(keys_by_priority) for level in self.levels}

    # -- stats & lifecycle -------------------------------------------------------

    def reset_stats(self) -> None:
        for level in self.levels:
            level.stats.reset()
        self.backing_reads = 0
        self.backing_bytes = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lv = ", ".join(f"{lvl.name}:{lvl.capacity}" for lvl in self.levels)
        return f"MemoryHierarchy([{lv}] over {self.backing.name})"


def make_standard_hierarchy(
    n_blocks: int,
    block_nbytes: int,
    cache_ratio: float = 0.5,
    policy: str = "lru",
    devices: Sequence[StorageDevice] = (DRAM, SSD),
    backing: StorageDevice = HDD,
    tracer=None,
    registry=None,
) -> MemoryHierarchy:
    """The paper's DRAM/SSD-over-HDD setup for a dataset of ``n_blocks``.

    ``cache_ratio`` is the size ratio between two successive memory levels
    (§V-A: 0.5 → SSD holds 50 % of the dataset, DRAM 25 %; Fig. 13(b) uses
    0.7).  Each level gets its own fresh ``policy`` instance.
    """
    if not 0 < cache_ratio <= 1:
        raise ValueError(f"cache_ratio must be in (0, 1], got {cache_ratio}")
    if n_blocks < 1:
        raise ValueError(f"n_blocks must be >= 1, got {n_blocks}")
    levels: List[CacheLevel] = []
    frac = 1.0
    for device in reversed(devices):  # slowest cache level first for sizing
        frac *= cache_ratio
        capacity = max(1, int(round(n_blocks * frac)))
        levels.append(CacheLevel(device.name, capacity, make_policy(policy), n_blocks=n_blocks))
    levels.reverse()  # fastest first
    return MemoryHierarchy(
        levels, list(devices), backing, block_nbytes, tracer=tracer, registry=registry
    )


def _unique(ids: np.ndarray) -> bool:
    """No repeated id (one compare for a sorted set, else one sort)."""
    if ids.size < 2 or (ids[1:] > ids[:-1]).all():
        return True
    ordered = np.sort(ids)
    return bool((ordered[1:] != ordered[:-1]).all())


def _fold(times: np.ndarray, start: Optional[float] = None) -> float:
    """Sequential left-fold sum, bit-identical to ``total += t`` per entry
    (from ``total = start`` when given)."""
    if start is not None:
        times = np.concatenate(([start], times))
    return float(np.add.accumulate(times)[-1]) if times.size else 0.0
