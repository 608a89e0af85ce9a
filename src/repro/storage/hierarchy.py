"""Multi-level memory hierarchy with an inclusive read path.

Levels are ordered fastest-first (DRAM, SSD, ...) above a backing device
(HDD) that always holds the whole dataset.  A fetch searches top-down;
on a hit at level *j* the block is copied into every faster level (the
paper's HDD → SSD → DRAM movement, §V-A), charged at level *j*'s device
read cost — the slowest medium on the critical path.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, List, Mapping, Optional, Sequence, Union

import numpy as np

from repro.obs.metrics import NULL_REGISTRY
from repro.policies.registry import make_policy
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD, StorageDevice
from repro.storage.stats import HierarchyStats
from repro.trace.tracer import NULL_TRACER

__all__ = [
    "DROPPED",
    "FetchResult",
    "BatchFetchResult",
    "MemoryHierarchy",
    "make_standard_hierarchy",
]

BlockSize = Union[int, Callable[[int], int]]


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


class MemoryHierarchy:
    """Cache levels over a backing store, with demand and prefetch paths."""

    def __init__(
        self,
        levels: Sequence[CacheLevel],
        level_devices: Sequence[StorageDevice],
        backing: StorageDevice,
        block_nbytes: BlockSize,
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
        self._block_nbytes = block_nbytes
        if not 0.0 <= prefetch_latency_factor <= 1.0:
            raise ValueError(
                f"prefetch_latency_factor must be in [0, 1], got {prefetch_latency_factor}"
            )
        # Prefetch requests are queued and asynchronous, so they amortise
        # per-request latency (readahead / NCQ); demand reads pay it fully.
        self.prefetch_latency_factor = prefetch_latency_factor
        self.backing_reads = 0
        self.backing_bytes = 0
        # Uniform-block fast path: block size and device read times are
        # then pure constants per (source, demand/prefetch) pair.
        self._uniform_nbytes = None if callable(block_nbytes) else int(block_nbytes)
        self._read_time_cache: dict = {}
        #: When True, :meth:`fetch_many`/:meth:`prefetch_many` emit one
        #: aggregated trace event per (step, level, kind) for the
        #: hit/fetch/prefetch kinds (``count`` carries the multiplicity,
        #: byte/time totals are preserved) instead of one event per block.
        #: Evict/bypass/preload/render events are always per-event.
        self.aggregate_trace = False
        # Fault injection (None = fault-free: the resilient read path is
        # bypassed entirely, keeping fault-free runs byte-identical).
        self.fault_injector = None
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
        source_names = [lv.name for lv in self.levels] + [self.backing.name]
        self._fetch_metrics = {
            name: (
                registry.histogram("fetch_latency_seconds", level=name, kind="demand"),
                registry.histogram("fetch_latency_seconds", level=name, kind="prefetch"),
                registry.counter("bytes_read_total", level=name),
                registry.counter("fetches_total", level=name, kind="demand"),
                registry.counter("fetches_total", level=name, kind="prefetch"),
            )
            for name in source_names
        }
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
        and prefetch — routes through the resilient path: per-attempt fault
        draws, bounded retries with deterministic sim-clock exponential
        backoff (``retry_policy``, default :class:`~repro.faults.resilience.
        RetryPolicy`), a per-device circuit breaker that skips a sick level
        and falls back to the next slower one, and graceful drops when even
        the backing store fails.  Without one, the fault-free fast paths are
        byte-identical to a hierarchy that never heard of faults.

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
            return
        self.retry_policy = retry_policy if retry_policy is not None else RetryPolicy()
        device_names = [dev.name for dev in self.level_devices] + [self.backing.name]
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

    def _record_fetch(self, source: str, prefetch: bool, nbytes: int, time_s: float) -> None:
        demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = self._fetch_metrics[source]
        if prefetch:
            prefetch_h.observe(time_s)
            prefetch_c.inc()
        else:
            demand_h.observe(time_s)
            demand_c.inc()
        bytes_c.inc(nbytes)

    # -- helpers -------------------------------------------------------------

    @property
    def fastest(self) -> CacheLevel:
        return self.levels[0]

    def block_nbytes(self, key: int) -> int:
        if callable(self._block_nbytes):
            return int(self._block_nbytes(key))
        return int(self._block_nbytes)

    def contains_fast(self, key: int) -> bool:
        """Is ``key`` already in the fastest level (no I/O needed)?"""
        return key in self.levels[0]

    # -- tenant partitioning ---------------------------------------------------

    def set_tenant_quotas(
        self, fractions: Optional[Mapping[str, float]]
    ) -> "dict[str, dict[str, int]]":
        """Partition every level between tenants (``None``/empty disables).

        ``fractions`` maps tenant label -> fraction of each level's
        capacity (fractions must sum to at most 1).  Each level gets
        ``max(1, floor(fraction * capacity))`` blocks per tenant, clamped
        so the quotas never exceed the level's capacity.  Returns the
        installed block quotas per level for the caller's ledger.
        """
        if not fractions:
            for level in self.levels:
                level.set_tenant_quotas(None)
            return {}
        total = sum(float(f) for f in fractions.values())
        if total > 1.0 + 1e-9:
            raise ValueError(f"tenant fractions sum to {total:.4f}, exceeding 1")
        installed: "dict[str, dict[str, int]]" = {}
        for level in self.levels:
            quotas = {
                name: max(1, int(float(frac) * level.capacity))
                for name, frac in fractions.items()
            }
            if sum(quotas.values()) > level.capacity:
                raise ValueError(
                    f"{level.name}: capacity {level.capacity} cannot hold one "
                    f"block per tenant for {len(quotas)} tenants"
                )
            level.set_tenant_quotas(quotas)
            installed[level.name] = quotas
        return installed

    def tenant_usage(self) -> "dict[str, dict[str, int]]":
        """Per-level resident block counts per tenant."""
        return {lv.name: lv.tenant_usage() for lv in self.levels if lv.tenant_quotas_enabled}

    def tenant_cross_evictions(self) -> int:
        """Total cross-tenant evictions across levels (0 under partitioning)."""
        return sum(lv.tenant_cross_evictions for lv in self.levels)

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
        if self.fault_injector is not None:
            return self._fetch_one_resilient(key, step, prefetch, min_free_step, tenant)
        return self._fetch_one(key, step, prefetch, min_free_step, None, None, tenant)

    def _read_time(self, source_idx: int, nbytes: int, latency_scale: float) -> float:
        """Device read time, memoised per (source, scale) for uniform blocks.

        ``source_idx`` indexes ``level_devices``; ``-1`` is the backing
        device.  Identical values to calling ``read_time`` directly.
        """
        if self._uniform_nbytes is None:
            dev = self.backing if source_idx < 0 else self.level_devices[source_idx]
            return dev.read_time(nbytes, latency_scale)
        cache_key = (source_idx, latency_scale)
        time_s = self._read_time_cache.get(cache_key)
        if time_s is None:
            dev = self.backing if source_idx < 0 else self.level_devices[source_idx]
            time_s = self._read_time_cache[cache_key] = dev.read_time(nbytes, latency_scale)
        return time_s

    def _fetch_one(
        self,
        key: int,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        agg: "Optional[dict]",
        rec: "Optional[dict]" = None,
        tenant: Optional[str] = None,
    ) -> FetchResult:
        """Scalar fetch; ``agg`` (batch mode) accumulates the movement
        event per (kind, source) instead of recording it immediately, and
        ``rec`` (uniform block size only) likewise accumulates the registry
        fetch metrics per (source, time) for a grouped flush."""
        nbytes = self._uniform_nbytes
        if nbytes is None:
            nbytes = self.block_nbytes(key)
        latency_scale = self.prefetch_latency_factor if prefetch else 1.0
        found_at = None
        for j, level in enumerate(self.levels):
            resident = level._resident
            if key < len(resident) and resident[key]:
                found_at = j
                break

        tracer = self.tracer
        if found_at == 0:
            level = self.levels[0]
            if prefetch:
                level.stats.prefetch_hits += 1
            else:
                level.stats.hits += 1
                level.touch(key, step)
            level.stats.bytes_read += nbytes
            time_s = self._read_time(0, nbytes, latency_scale)
            if rec is not None:
                k = (level.name, time_s)
                rec[k] = rec.get(k, 0) + 1
            elif self.registry.enabled:
                self._record_fetch(level.name, prefetch, nbytes, time_s)
            kind = "prefetch" if prefetch else "hit"
            if agg is not None:
                acc = agg.setdefault((kind, level.name), [0, 0, 0.0])
                acc[0] += 1
                acc[1] += nbytes
                acc[2] += time_s
            elif tracer.enabled:
                tracer.record(kind, step, level.name, key, nbytes, time_s)
            return FetchResult(key, time_s, level.name, fastest_hit=True)

        # Count misses at every level above the serving one.
        upper = self.levels if found_at is None else self.levels[:found_at]
        for level in upper:
            if prefetch:
                level.stats.prefetch_misses += 1
            else:
                level.stats.misses += 1
        if not prefetch and self.forensics is not None:
            self._note_re_miss(key, step)

        if found_at is None:
            source_name = self.backing.name
            time_s = self._read_time(-1, nbytes, latency_scale)
            self.backing_reads += 1
            self.backing_bytes += nbytes
        else:
            serving = self.levels[found_at]
            if prefetch:
                serving.stats.prefetch_hits += 1
            else:
                serving.stats.hits += 1
                serving.touch(key, step)
            serving.stats.bytes_read += nbytes
            source_name = serving.name
            time_s = self._read_time(found_at, nbytes, latency_scale)

        if rec is not None:
            k = (source_name, time_s)
            rec[k] = rec.get(k, 0) + 1
        elif self.registry.enabled:
            self._record_fetch(source_name, prefetch, nbytes, time_s)
        kind = "prefetch" if prefetch else "fetch"
        if agg is not None:
            acc = agg.setdefault((kind, source_name), [0, 0, 0.0])
            acc[0] += 1
            acc[1] += nbytes
            acc[2] += time_s
        elif tracer.enabled:
            tracer.record(kind, step, source_name, key, nbytes, time_s)
        # Copy into every faster level (inclusive hierarchy).
        for level in upper:
            level.admit(key, step, min_free_step=min_free_step, agg=agg, tenant=tenant)
        return FetchResult(key, time_s, source_name, fastest_hit=False)

    # -- the resilient read path (fault injection) -----------------------------

    def _fetch_one_resilient(
        self,
        key: int,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        tenant: Optional[str] = None,
    ) -> FetchResult:
        """Scalar fetch with fault draws, retries, breakers, and fallback.

        Candidate sources are probed fastest-first (every level holding the
        key, then the backing store).  Each candidate gets up to
        ``retry_policy.max_attempts`` reads; a failed attempt charges its
        cost (a timed-out one charges the deadline), emits a ``fault``
        trace event, and — if retries remain — a ``retry`` event carrying
        the deterministic backoff.  A candidate whose circuit breaker is
        open is skipped without a read (the backing store, the last
        resort, is never skipped).  When every candidate fails the block
        is *dropped*: the wasted time is still charged, but no bytes move
        and nothing is admitted.

        Accounting preserves the fault-free invariants: every level above
        the final serving source (all levels, on a drop) records exactly
        one miss, the serving source records the hit/bytes, and the
        movement + ``fault`` + ``retry`` event times sum to the charged
        ``time_s`` exactly.  ``degraded`` events are informational: they
        carry only the seconds *above* the nominal read cost, outside the
        time ledger.
        """
        inj = self.fault_injector
        policy = self.retry_policy
        tracer = self.tracer
        record = self.registry.enabled
        nbytes = self._uniform_nbytes
        if nbytes is None:
            nbytes = self.block_nbytes(key)
        latency_scale = self.prefetch_latency_factor if prefetch else 1.0

        candidates: List[int] = []
        for j, level in enumerate(self.levels):
            resident = level._resident
            if key < len(resident) and resident[key]:
                candidates.append(j)
        candidates.append(-1)  # the backing store always holds everything

        total_t = 0.0  # everything charged: attempts, backoffs, the serve
        serve_t = 0.0  # the successful attempt's cost alone
        served: Optional[int] = None
        for j in candidates:
            if j < 0:
                device = source_name = self.backing.name
            else:
                device = self.level_devices[j].name
                source_name = self.levels[j].name
            breaker = self.breakers.get(device)
            if j >= 0 and breaker is not None and not breaker.allows(self._sim_now + total_t):
                inj.record_breaker_skip(device)
                continue
            base_t = self._read_time(j, nbytes, latency_scale)
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
                serve_t = attempt_t
                if breaker is not None:
                    breaker.record_success(self._sim_now + total_t)
                if attempt_t > base_t:
                    inj.record_degraded(device)
                    if tracer.enabled:
                        tracer.record(
                            "degraded", step, source_name, key, 0, attempt_t - base_t
                        )
                served = j
                break
            if served is not None:
                break
        self._sim_now += total_t

        if served == 0:
            level = self.levels[0]
            if prefetch:
                level.stats.prefetch_hits += 1
            else:
                level.stats.hits += 1
                level.touch(key, step)
            level.stats.bytes_read += nbytes
            if record:
                self._record_fetch(level.name, prefetch, nbytes, serve_t)
            if tracer.enabled:
                tracer.record(
                    "prefetch" if prefetch else "hit", step, level.name, key, nbytes, serve_t
                )
            return FetchResult(key, total_t, level.name, fastest_hit=True)

        # One miss at every level above the serving source; a drop missed
        # everywhere.  A resident-but-unreadable level counts a miss too —
        # it was probed and failed to serve.
        upto = len(self.levels) if (served is None or served < 0) else served
        for level in self.levels[:upto]:
            if prefetch:
                level.stats.prefetch_misses += 1
            else:
                level.stats.misses += 1
        if not prefetch and self.forensics is not None:
            self._note_re_miss(key, step)

        if served is None:
            inj.record_drop(self.backing.name)
            if record:
                metrics = self._fault_metrics.get(self.backing.name)
                if metrics is not None:
                    metrics[3].inc()
            return FetchResult(key, total_t, DROPPED, fastest_hit=False, dropped=True)

        if served < 0:
            source_name = self.backing.name
            self.backing_reads += 1
            self.backing_bytes += nbytes
        else:
            serving = self.levels[served]
            if prefetch:
                serving.stats.prefetch_hits += 1
            else:
                serving.stats.hits += 1
                serving.touch(key, step)
            serving.stats.bytes_read += nbytes
            source_name = serving.name
        if record:
            self._record_fetch(source_name, prefetch, nbytes, serve_t)
        if tracer.enabled:
            tracer.record(
                "prefetch" if prefetch else "fetch", step, source_name, key, nbytes, serve_t
            )
        # Copy into every faster level that does not already hold the key;
        # transient faults do not evict, so a resident-but-unreadable copy
        # stays where it is.
        for level in self.levels[:upto]:
            resident = level._resident
            if not (key < len(resident) and resident[key]):
                level.admit(key, step, min_free_step=min_free_step, agg=None, tenant=tenant)
        return FetchResult(key, total_t, source_name, fastest_hit=False)

    def _fetch_many_resilient(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        tenant: Optional[str] = None,
    ) -> BatchFetchResult:
        """Batched fetch under fault injection: the scalar resilient path
        per id, with the same left-fold time accumulation as the fast
        path.  Fault draws are pure functions of (seed, device, key, step,
        attempt), so this is deterministic and batching-independent."""
        n = ids.size
        times = np.zeros(n, dtype=np.float64)
        n_fast = 0
        dropped: List[int] = []
        for p, key in enumerate(ids.tolist()):
            r = self._fetch_one_resilient(key, step, prefetch, min_free_step, tenant)
            times[p] = r.time_s
            if r.fastest_hit:
                n_fast += 1
            if r.dropped:
                dropped.append(key)
        total = float(np.add.accumulate(times)[-1]) if n > 1 else float(times[0])
        return BatchFetchResult(n, n_fast, total, len(dropped), tuple(dropped))

    def _prefetch_many_resilient(
        self,
        arr: np.ndarray,
        step: int,
        min_free_step: Optional[int],
        max_fetch: Optional[int],
        dedupe: bool,
        tenant: Optional[str] = None,
    ) -> "tuple[List[int], float]":
        """Prefetch under fault injection: the per-block prefetch loop
        semantics (cap before skip, optional dedupe, live fastest-level
        residency) over the resilient fetch.  A dropped prefetch still
        counts as issued — the prediction was acted on, it just failed."""
        issued: List[int] = []
        total_time = 0.0
        attempted = set() if dedupe else None
        fast = self.levels[0]
        for key in arr.tolist():
            if max_fetch is not None and len(issued) >= max_fetch:
                break
            if attempted is not None and key in attempted:
                continue
            resident = fast._resident
            if key < len(resident) and resident[key]:
                continue
            if attempted is not None:
                attempted.add(key)
            total_time += self._fetch_one_resilient(
                key, step, True, min_free_step, tenant
            ).time_s
            issued.append(key)
        return issued, total_time

    # -- the batched read path -------------------------------------------------

    def _serve_fast_hits(
        self,
        run: np.ndarray,
        step: int,
        prefetch: bool,
        latency_scale: float,
        agg: "Optional[dict]",
    ):
        """Bulk-process a verified run of fastest-level hits.

        Returns the per-block charged times — a scalar (uniform block
        size: every block charges the same) or an array; either broadcasts
        into the caller's ``times`` slice.  Values are identical to what a
        scalar fetch would charge.
        """
        fast = self.levels[0]
        n = run.size
        if prefetch:
            fast.stats.prefetch_hits += n
        else:
            fast.stats.hits += n
            fast.touch_many(run, step)
        nb = self._uniform_nbytes
        uniform = nb is not None
        if uniform:
            nbs = None
            time_s = self._read_time(0, nb, latency_scale)
            times = None
            total_nb = nb * n
        else:
            dev = self.level_devices[0]
            nbs = [int(self._block_nbytes(int(k))) for k in run]
            times = np.array([dev.read_time(b, latency_scale) for b in nbs])
            time_s = 0.0
            total_nb = sum(nbs)
        fast.stats.bytes_read += total_nb
        if self.registry.enabled:
            demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = self._fetch_metrics[fast.name]
            hist = prefetch_h if prefetch else demand_h
            if uniform:
                hist.observe_many(time_s, n)
            else:
                for t in times.tolist():
                    hist.observe(t)
            (prefetch_c if prefetch else demand_c).inc(n)
            bytes_c.inc(total_nb)
        kind = "prefetch" if prefetch else "hit"
        if agg is not None:
            acc = agg.setdefault((kind, fast.name), [0, 0, 0.0])
            acc[0] += n
            acc[1] += total_nb
            # Repeated scalar adds keep the accumulation order (and hence
            # the float result) identical to per-event aggregation.
            t = acc[2]
            if uniform:
                for _ in range(n):
                    t += time_s
            else:
                for v in times.tolist():
                    t += v
            acc[2] = t
        elif self.tracer.enabled:
            if uniform:
                for k_ in run.tolist():
                    self.tracer.record(kind, step, fast.name, k_, nb, time_s)
            else:
                for k_, nb_, t_ in zip(run.tolist(), nbs, times.tolist()):
                    self.tracer.record(kind, step, fast.name, k_, nb_, t_)
        return time_s if uniform else times

    def _fetch_miss_run(
        self,
        run: np.ndarray,
        step: int,
        prefetch: bool,
        min_free_step: Optional[int],
        agg: "Optional[dict]",
        latency_scale: float,
        times: np.ndarray,
        pos: int,
        tenant: Optional[str] = None,
    ) -> None:
        """Bulk-process a run of fastest-level misses (uniform block size).

        Bookkeeping that commutes across the run — miss/hit/byte counters,
        fetch histograms, backing totals, aggregated movement events — is
        grouped per serving source and flushed once after the run; recency
        touches and admissions, whose interleaving is observable through
        victim choice, stay per-key in scalar order.  The serving source
        is probed against *live* residency per key (an admission can evict
        a later run member from an intermediate level).  Requires unique
        ids (a fastest-level miss cannot turn resident mid-run) and an
        aggregated-or-disabled tracer (per-event emission order is not
        preserved).
        """
        levels = self.levels
        fast = levels[0]
        lowers = levels[1:]
        n_lowers = len(lowers)
        nb = self._uniform_nbytes
        n = run.size
        if prefetch:
            fast.stats.prefetch_misses += n
        else:
            fast.stats.misses += n
        t_src = [self._read_time(j + 1, nb, latency_scale) for j in range(n_lowers)]
        t_back = self._read_time(-1, nb, latency_scale)
        counts = [0] * (n_lowers + 1)  # keys per serving source; [-1] = backing
        # Admissions into the fastest level are order-independent of the
        # per-key work below (no fast-level probe or touch happens inside a
        # miss run), so they can go through the bulk path in one call.
        batch_fast = fast.policy.supports_victim_order
        note_re_miss = not prefetch and self.forensics is not None
        i = pos
        for key in run.tolist():
            if note_re_miss:
                self._note_re_miss(key, step)
            found = -1
            for j in range(n_lowers):
                if lowers[j]._resident[key]:
                    found = j
                    break
            if found < 0:
                counts[-1] += 1
                times[i] = t_back
                for level in lowers:
                    level.admit(key, step, min_free_step=min_free_step, agg=agg, tenant=tenant)
            else:
                counts[found] += 1
                if not prefetch:
                    lowers[found].touch(key, step)
                times[i] = t_src[found]
                for level in lowers[:found]:
                    level.admit(key, step, min_free_step=min_free_step, agg=agg, tenant=tenant)
            if not batch_fast:
                fast.admit(key, step, min_free_step=min_free_step, agg=agg, tenant=tenant)
            i += 1
        if batch_fast:
            fast.admit_many_absent(
                run, step, min_free_step=min_free_step, agg=agg, tenant=tenant
            )
        # -- grouped flushes (order-independent bookkeeping) -------------------
        n_back = counts[-1]
        if n_back:
            self.backing_reads += n_back
            self.backing_bytes += n_back * nb
        served_below = n_back  # keys served strictly deeper than lowers[j]
        for j in range(n_lowers - 1, -1, -1):
            lower = lowers[j]
            if served_below:  # each of those missed this level on the way down
                if prefetch:
                    lower.stats.prefetch_misses += served_below
                else:
                    lower.stats.misses += served_below
            c = counts[j]
            if c:
                if prefetch:
                    lower.stats.prefetch_hits += c
                else:
                    lower.stats.hits += c
                lower.stats.bytes_read += c * nb
            served_below += c
        kind = "prefetch" if prefetch else "fetch"
        record = self.registry.enabled
        for j in range(n_lowers + 1):
            c = counts[j]
            if not c:
                continue
            if j < n_lowers:
                source_name, t = lowers[j].name, t_src[j]
            else:
                source_name, t = self.backing.name, t_back
            if record:
                demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = (
                    self._fetch_metrics[source_name]
                )
                (prefetch_h if prefetch else demand_h).observe_many(t, c)
                (prefetch_c if prefetch else demand_c).inc(c)
                bytes_c.inc(c * nb)
            if agg is not None:
                acc = agg.setdefault((kind, source_name), [0, 0, 0.0])
                acc[0] += c
                acc[1] += c * nb
                # Repeated adds of the per-source constant reproduce the
                # per-event accumulation bit-for-bit.
                tt = acc[2]
                for _ in range(c):
                    tt += t
                acc[2] = tt

    def fetch_many(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool = False,
        min_free_step: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> BatchFetchResult:
        """Fetch a whole id array; result-identical to scalar :meth:`fetch`.

        ``ids`` must be *unique* (a visible set is — ids come from
        ``np.flatnonzero``).  The fastest level's residency mask partitions
        the array into hit runs and misses in one vectorized pass; the mask
        is a *hint* — an admit during a miss can evict a later batch member
        from the fastest level (``min_free_step`` only protects blocks
        already touched this step), so every tentative hit run is
        re-verified against live residency and demoted to the scalar miss
        path where stale.  Uniqueness guarantees the opposite staleness
        (absent at partition time, resident later) cannot happen: only
        batch members are admitted, each at its own position.

        The total ``time_s`` is accumulated with a sequential left fold
        (``np.add.accumulate``), so it is bit-identical to the scalar
        loop's ``io += fetch(...).time_s``.
        """
        ids = np.ascontiguousarray(ids, dtype=np.int64)
        n = ids.size
        if n == 0:
            return BatchFetchResult(0, 0, 0.0)
        if self.fault_injector is not None:
            return self._fetch_many_resilient(ids, step, prefetch, min_free_step, tenant)
        mx = int(ids.max())
        for level in self.levels:
            level.ensure_ids(mx)
        fast = self.levels[0]
        hint = fast._resident[ids]
        latency_scale = self.prefetch_latency_factor if prefetch else 1.0
        times = np.zeros(n, dtype=np.float64)
        agg: "Optional[dict]" = {} if (self.aggregate_trace and self.tracer.enabled) else None
        # Miss runs can be bulk-processed when block size is uniform and the
        # tracer is aggregated (or off): per-event emission order is the only
        # thing the grouped path does not preserve.
        batch_miss = self._uniform_nbytes is not None and (
            agg is not None or not self.tracer.enabled
        )
        rec: "Optional[dict]" = (
            {} if (self.registry.enabled and self._uniform_nbytes is not None) else None
        )
        n_fast_hits = 0
        # Hints can only go stale through a fastest-level eviction, so while
        # the eviction counter still reads its partition-time value every
        # hinted hit run is provably live and needs no re-verification.
        ev0 = fast.stats.evictions
        if n == 1:
            bounds = np.array([0, 1])
        else:
            change = np.flatnonzero(hint[1:] != hint[:-1])
            bounds = np.concatenate(([0], change + 1, [n]))
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            if hint[a]:
                if fast.stats.evictions == ev0:
                    times[a:b] = self._serve_fast_hits(
                        ids[a:b], step, prefetch, latency_scale, agg
                    )
                    n_fast_hits += b - a
                    continue
                pos = a
                seg = ids[a:b]
                while seg.size:
                    live = fast._resident[seg]
                    k = int(seg.size) if live.all() else int(np.argmin(live))
                    if k:
                        times[pos: pos + k] = self._serve_fast_hits(
                            seg[:k], step, prefetch, latency_scale, agg
                        )
                        n_fast_hits += k
                    if k < seg.size:  # stale hint: evicted mid-batch
                        times[pos + k] = self._fetch_one(
                            int(seg[k]), step, prefetch, min_free_step, agg, rec, tenant
                        ).time_s
                    seg = seg[k + 1:]
                    pos += k + 1
            elif batch_miss:
                self._fetch_miss_run(
                    ids[a:b], step, prefetch, min_free_step, agg, latency_scale, times, a,
                    tenant,
                )
            else:
                for p, key in enumerate(ids[a:b].tolist(), start=a):
                    result = self._fetch_one(
                        key, step, prefetch, min_free_step, agg, rec, tenant
                    )
                    times[p] = result.time_s
                    if result.fastest_hit:  # unreachable for unique ids; stay exact anyway
                        n_fast_hits += 1
        total = float(np.add.accumulate(times)[-1]) if n > 1 else float(times[0])
        self._flush_agg(agg, step)
        self._flush_rec(rec, prefetch)
        return BatchFetchResult(n, n_fast_hits, total)

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

        Vectorization mirrors :meth:`fetch_many`: the initial residency
        mask partitions the candidates; runs of hinted-resident candidates
        are skipped wholesale once a fancy-indexed probe confirms they are
        all still resident (skips mutate nothing, so skipping past the
        cap is unobservable — the cap only gates *fetches*); stale
        entries and hinted-miss candidates go through the scalar per-block
        checks.  A hinted-miss candidate can still turn resident mid-batch
        when the candidate list has duplicates (the first copy was
        fetched), so the live ``in fast`` probe stays.
        """
        arr = np.ascontiguousarray(candidates, dtype=np.int64)
        n = arr.size
        issued: List[int] = []
        total_time = 0.0
        if n == 0:
            return issued, total_time
        if self.fault_injector is not None:
            return self._prefetch_many_resilient(
                arr, step, min_free_step, max_fetch, dedupe, tenant
            )
        mx = int(arr.max())
        for level in self.levels:
            level.ensure_ids(mx)
        fast = self.levels[0]
        hint = fast._resident[arr]
        latency_scale = self.prefetch_latency_factor
        agg: "Optional[dict]" = {} if (self.aggregate_trace and self.tracer.enabled) else None
        rec: "Optional[dict]" = (
            {} if (self.registry.enabled and self._uniform_nbytes is not None) else None
        )
        attempted = set() if dedupe else None
        if n == 1:
            bounds = [0, 1]
        else:
            change = np.flatnonzero(hint[1:] != hint[:-1])
            bounds = np.concatenate(([0], change + 1, [n])).tolist()
        # With unique candidates a hinted miss can never turn resident
        # mid-batch (only batch members are admitted), so whole miss runs
        # can go through the bulk path — same conditions as fetch_many,
        # and dedupe/live-residency checks trivially pass.  Uniqueness is
        # one sort, computed lazily the first time a run is worth batching.
        unique: Optional[bool] = True if n == 1 else None
        batch_ok = self._uniform_nbytes is not None and (
            agg is not None or not self.tracer.enabled
        )
        capped = False
        # As in fetch_many: hints only go stale via a fastest-level eviction.
        ev0 = fast.stats.evictions
        for a, b in zip(bounds[:-1], bounds[1:]):
            if capped:
                break
            if hint[a]:
                if fast.stats.evictions == ev0:
                    continue  # whole run provably still resident: skip it
                seg = arr[a:b]
                while seg.size:
                    live = fast._resident[seg]
                    k = int(seg.size) if live.all() else int(np.argmin(live))
                    # seg[:k] still resident: skipped, no state change.
                    if k == seg.size:
                        break
                    key = int(seg[k])  # stale hint: evicted mid-batch
                    if max_fetch is not None and len(issued) >= max_fetch:
                        capped = True
                        break
                    if attempted is None or key not in attempted:
                        if attempted is not None:
                            attempted.add(key)
                        total_time += self._fetch_one(
                            key, step, True, min_free_step, agg, rec, tenant
                        ).time_s
                        issued.append(key)
                    seg = seg[k + 1:]
            elif batch_ok and b - a >= 4 and (
                unique
                if unique is not None
                else (unique := bool(np.unique(arr).size == n))
            ):
                run = arr[a:b]
                if max_fetch is not None:
                    left = max_fetch - len(issued)
                    if left <= 0:
                        capped = True
                        break
                    if left < run.size:
                        run = run[:left]  # the cap cut; next check trips it
                tbuf = np.empty(run.size, dtype=np.float64)
                self._fetch_miss_run(
                    run, step, True, min_free_step, agg, latency_scale, tbuf, 0, tenant
                )
                # Scalar-order left fold, bit-identical to `total_time +=`.
                for t in tbuf.tolist():
                    total_time += t
                issued.extend(run.tolist())
            else:
                # Live probe via the residency array directly; binding it is
                # safe because every candidate id is covered by the upfront
                # ensure_ids, so no admit in this batch can regrow it.
                fast_resident = fast._resident
                for key in arr[a:b].tolist():
                    if max_fetch is not None and len(issued) >= max_fetch:
                        capped = True
                        break
                    if attempted is not None and key in attempted:
                        continue
                    if fast_resident[key]:
                        continue
                    if attempted is not None:
                        attempted.add(key)
                    total_time += self._fetch_one(
                        key, step, True, min_free_step, agg, rec, tenant
                    ).time_s
                    issued.append(key)
        self._flush_agg(agg, step)
        self._flush_rec(rec, True)
        return issued, total_time

    def _flush_agg(self, agg: "Optional[dict]", step: int) -> None:
        """Emit one aggregated trace event per accumulated (kind, source)."""
        if agg:
            for (kind, src), (cnt, nb, t) in agg.items():
                self.tracer.record(kind, step, src, -1, nb, t, count=cnt)

    def _flush_rec(self, rec: "Optional[dict]", prefetch: bool) -> None:
        """Flush grouped registry fetch metrics (uniform block size only)."""
        if not rec:
            return
        nb = self._uniform_nbytes
        for (source_name, t), c in rec.items():
            demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = (
                self._fetch_metrics[source_name]
            )
            (prefetch_h if prefetch else demand_h).observe_many(t, c)
            (prefetch_c if prefetch else demand_c).inc(c)
            bytes_c.inc(c * nb)

    # -- preload (Step 2 / Alg. 1 line 7) -----------------------------------------

    def preload(self, keys_by_priority: Sequence[int]) -> "dict[str, int]":
        """Fill every level from the head of a priority-ordered key list.

        Inclusive placement: the top ``capacity`` keys of each level go into
        it, so the fastest level holds the most important blocks and slower
        levels hold supersets.  Returns blocks placed per level.
        """
        placed = {}
        aggregate = self.aggregate_trace and self.tracer.enabled
        for level in self.levels:
            placed[level.name] = level.preload(keys_by_priority, aggregate_trace=aggregate)
        return placed

    # -- stats & lifecycle -------------------------------------------------------

    def stats(self) -> HierarchyStats:
        return HierarchyStats(levels={lv.name: lv.stats for lv in self.levels})

    def reset_stats(self) -> None:
        for level in self.levels:
            level.stats.reset()
        self.backing_reads = 0
        self.backing_bytes = 0

    def clear(self) -> None:
        """Empty every level (stats preserved)."""
        for level in self.levels:
            level.clear()

    def check_invariants(self) -> None:
        for level in self.levels:
            level.check_invariants()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        lv = ", ".join(f"{lvl.name}:{lvl.capacity}" for lvl in self.levels)
        return f"MemoryHierarchy([{lv}] over {self.backing.name})"


def make_standard_hierarchy(
    n_blocks: int,
    block_nbytes: BlockSize,
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
