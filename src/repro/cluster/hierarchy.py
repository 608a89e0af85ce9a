"""A K-node sharded hierarchy behind the ``MemoryHierarchy`` surface.

Each simulated node owns a :class:`~repro.storage.hierarchy.MemoryHierarchy`
(its private DRAM/SSD tier) over the *shared* cold store, and a
:class:`~repro.cluster.shardmap.ShardMap` assigns every block to exactly
one owner.  A fetch from the ``home`` node resolves as:

* **local** — the home node owns the block: served by the home hierarchy
  exactly as in the single-box simulator;
* **ghost hit** — a replicated copy of a remote block lives in the
  optional home-side ghost cache: served at DRAM cost, no network;
* **peer** — the owner node serves the block through its own hierarchy,
  then the payload crosses the home↔owner link; the link time is charged
  on the same sim-clock ledger and recorded as an ``xfer`` trace event
  (outside ``MOVEMENT_KINDS``, so storage byte accounting is untouched);
* **cold fallback** — the link faulted (partition): one probe latency is
  charged (a ``fault`` event on the link), and the block is read straight
  from the shared cold store at home, bypassing every cache.

At K=1 every call delegates wholesale to the single node, which the
shard-equivalence suite pins bit-for-bit against ``run_baseline``.

Accounting invariants (pinned by ``tests/cluster``):

* every per-block charge is ``node_time + link_time`` accumulated as a
  flat left fold, so ``fetch_many`` stays result-identical to a
  per-block ``fetch`` loop for any K, and attribution invariant A
  extends to the new
  ``peer_transfer:{link}`` component;
* ``bytes_moved`` decomposes exactly into local + ghost + peer +
  cold-fallback bytes, and the peer share equals the per-link byte
  ledger of the :class:`~repro.cluster.network.NetworkFabric`.
"""

from __future__ import annotations

from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.cluster.network import (
    DEFAULT_LINK_BANDWIDTH_BPS,
    DEFAULT_LINK_LATENCY_S,
    NetworkFabric,
)
from repro.cluster.shardmap import ShardMap
from repro.obs.metrics import NULL_REGISTRY
from repro.policies import make_policy
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD, StorageDevice
from repro.storage.hierarchy import (
    BatchFetchResult,
    FetchResult,
    MemoryHierarchy,
    make_standard_hierarchy,
)
from repro.storage.stats import HierarchyStats
from repro.trace.tracer import NULL_TRACER
from repro.volume.blocks import BlockGrid

__all__ = ["ShardedHierarchy", "make_sharded_hierarchy"]


class _SummedStats:
    """Live elementwise-sum view over several ``CacheStats``."""

    def __init__(self, parts) -> None:
        self._parts = tuple(parts)

    def __getattr__(self, name):
        return sum(getattr(p, name) for p in self._parts)


class _FastestView:
    """Aggregate "fastest level" facade over all node DRAM tiers (+ ghost).

    The engine stages only need ``stats`` (live miss counters),
    ``capacity``, ``policy`` and residency probes — each is the natural
    cluster-wide aggregate: a block is "in the fastest tier" when it is
    resident in its owner's DRAM or in the home-side ghost cache.
    """

    def __init__(self, sharded: "ShardedHierarchy") -> None:
        self._s = sharded
        self.name = "dram"
        self.policy = sharded.nodes[sharded.home].fastest.policy

    @property
    def capacity(self) -> int:
        cap = sum(n.fastest.capacity for n in self._s.nodes)
        if self._s.ghost is not None:
            cap += self._s.ghost.capacity
        return cap

    @property
    def stats(self) -> _SummedStats:
        return _SummedStats(n.fastest.stats for n in self._s.nodes)

    def contains_many(self, keys: np.ndarray) -> np.ndarray:
        arr = np.ascontiguousarray(keys, dtype=np.int64)
        out = np.zeros(arr.size, dtype=bool)
        for node in self._s.nodes:
            out |= node.fastest.contains_many(arr)
        if self._s.ghost is not None:
            out |= self._s.ghost.contains_many(arr)
        return out

    def __contains__(self, key: int) -> bool:
        if any(key in n.fastest for n in self._s.nodes):
            return True
        return self._s.ghost is not None and key in self._s.ghost


class ShardedHierarchy:
    """K per-node hierarchies + a network fabric, one fetch surface."""

    def __init__(
        self,
        shard_map: ShardMap,
        nodes: Sequence[MemoryHierarchy],
        fabric: NetworkFabric,
        block_nbytes,
        home: int = 0,
        ghost: Optional[CacheLevel] = None,
        backing: StorageDevice = HDD,
        tracer=None,
        registry=None,
    ) -> None:
        if len(nodes) != shard_map.n_nodes:
            raise ValueError(
                f"{len(nodes)} nodes for a {shard_map.n_nodes}-way shard map"
            )
        if not 0 <= home < len(nodes):
            raise ValueError(f"home must be a node index, got {home}")
        self.shard_map = shard_map
        self.nodes: List[MemoryHierarchy] = list(nodes)
        self.fabric = fabric
        self.home = int(home)
        self.ghost = ghost
        self.backing = backing
        self._block_nbytes = block_nbytes
        self._uniform_nbytes = None if callable(block_nbytes) else int(block_nbytes)
        # K=1: wholesale delegation to the single node — bit-for-bit the
        # single-box simulator (pinned by the shard-equivalence suite).
        self._solo: Optional[MemoryHierarchy] = nodes[0] if len(nodes) == 1 else None
        self.prefetch_latency_factor = self.nodes[0].prefetch_latency_factor
        # Cold-fallback counters (reads that bypassed every cache after a
        # link fault); node backing counters stay inside each node.
        self._fallback_reads = 0
        self._fallback_bytes = 0
        # Exact byte split of everything the hierarchy served:
        # local + ghost + peer + cold == bytes_moved (pinned).
        self._split = {"local": 0, "ghost": 0, "peer": 0, "cold": 0}
        self._node_serves = [0] * len(self.nodes)
        self._failed: set = set()
        self.fault_injector = None
        self._fastest_view = None if self._solo is not None else _FastestView(self)
        self.forensics = None
        self._agg_requested = False
        self.tracer = NULL_TRACER
        self.set_tracer(tracer if tracer is not None else NULL_TRACER)
        self.registry = NULL_REGISTRY
        self.set_registry(registry if registry is not None else NULL_REGISTRY)

    # -- wiring (tracer / registry / forensics / faults) -----------------------

    def set_tracer(self, tracer) -> None:
        self.tracer = tracer
        for node in self.nodes:
            node.set_tracer(tracer)
        if self.ghost is not None:
            self.ghost.tracer = tracer

    def set_registry(self, registry) -> None:
        self.registry = registry
        for node in self.nodes:
            node.set_registry(registry)
        if self._solo is not None:
            return
        if self.ghost is not None:
            self.ghost.set_registry(registry)
        # Own fetch metrics for the sources the sharded layer serves
        # directly (ghost hits, cold fallbacks) — same names/labels as
        # MemoryHierarchy.set_registry so snapshots merge cleanly.
        sources = [self.backing.name] + (["ghost"] if self.ghost is not None else [])
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
        # Per-link and per-route cluster metrics.
        self._link_metrics = {
            name: (
                registry.counter("cluster_link_bytes_total", link=name),
                registry.counter("cluster_link_transfers_total", link=name),
                registry.gauge("cluster_link_seconds_total", link=name),
                registry.counter("cluster_link_fallbacks_total", link=name),
            )
            for name in self.fabric.link_names()
        }
        self._route_counters = {
            route: registry.counter("cluster_fetches_total", route=route)
            for route in ("local", "ghost", "peer", "cold_fallback")
        }
        self._node_serve_counters = [
            registry.counter("cluster_node_serves_total", node=f"n{k}")
            for k in range(len(self.nodes))
        ]

    def set_forensics(self, lineage) -> None:
        self.forensics = lineage
        for node in self.nodes:
            node.set_forensics(lineage)
        if self.ghost is not None:
            self.ghost.forensics = lineage

    def set_fault_injector(
        self,
        injector,
        retry_policy=None,
        breaker_threshold: int = 5,
        breaker_cooldown_s: float = 0.25,
    ) -> None:
        """Install the injector on every node and on the link layer.

        Node devices draw per-device faults inside their own resilient
        read paths; the sharded layer itself draws *link* faults (keyed
        by link name): a failing draw abandons the transfer after one
        probe latency and falls back to the shared cold store, a slow
        window / spike degrades the transfer time.  Links get no retries
        — the cold store is always reachable.
        """
        self.fault_injector = injector
        for node in self.nodes:
            node.set_fault_injector(
                injector,
                retry_policy=retry_policy,
                breaker_threshold=breaker_threshold,
                breaker_cooldown_s=breaker_cooldown_s,
            )

    # -- trace aggregation flag -------------------------------------------------

    @property
    def aggregate_trace(self) -> bool:
        if self._solo is not None:
            return self._solo.aggregate_trace
        return False  # sharded fetches run per block: always per-event

    @aggregate_trace.setter
    def aggregate_trace(self, value: bool) -> None:
        self._agg_requested = bool(value)
        if self._solo is not None:
            self._solo.aggregate_trace = bool(value)

    # -- helpers ---------------------------------------------------------------

    @property
    def fastest(self):
        if self._solo is not None:
            return self._solo.fastest
        return self._fastest_view

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def backing_reads(self) -> int:
        return self._fallback_reads + sum(n.backing_reads for n in self.nodes)

    @property
    def backing_bytes(self) -> int:
        return self._fallback_bytes + sum(n.backing_bytes for n in self.nodes)

    def block_nbytes(self, key: int) -> int:
        if callable(self._block_nbytes):
            return int(self._block_nbytes(key))
        return int(self._block_nbytes)

    def contains_fast(self, key: int) -> bool:
        if self._solo is not None:
            return self._solo.contains_fast(key)
        if self.nodes[int(self.shard_map.owner[key])].contains_fast(key):
            return True
        return self.ghost is not None and key in self.ghost

    def _record_fetch(self, source: str, prefetch: bool, nbytes: int, time_s: float) -> None:
        demand_h, prefetch_h, bytes_c, demand_c, prefetch_c = self._fetch_metrics[source]
        if prefetch:
            prefetch_h.observe(time_s)
            prefetch_c.inc()
        else:
            demand_h.observe(time_s)
            demand_c.inc()
        bytes_c.inc(nbytes)

    # -- tenant partitioning ---------------------------------------------------

    def set_tenant_quotas(self, fractions: Optional[Mapping[str, float]]):
        if self._solo is not None:
            return self._solo.set_tenant_quotas(fractions)
        quotas: dict = {}
        for node in self.nodes:
            quotas.update(node.set_tenant_quotas(fractions))
        if self.ghost is not None:
            if not fractions:
                self.ghost.set_tenant_quotas(None)
            else:
                cap = self.ghost.capacity
                blocks = {t: max(1, int(f * cap)) for t, f in fractions.items()}
                total = sum(blocks.values())
                if total > cap:  # clamp as MemoryHierarchy does
                    scale = cap / total
                    blocks = {t: max(1, int(b * scale)) for t, b in blocks.items()}
                self.ghost.set_tenant_quotas(blocks)
                quotas["ghost"] = blocks
        return quotas

    def tenant_usage(self):
        if self._solo is not None:
            return self._solo.tenant_usage()
        usage: dict = {}
        for node in self.nodes:
            usage.update(node.tenant_usage())
        if self.ghost is not None and self.ghost.tenant_quotas_enabled:
            usage["ghost"] = self.ghost.tenant_usage()
        return usage

    def tenant_cross_evictions(self) -> int:
        total = sum(n.tenant_cross_evictions() for n in self.nodes)
        if self.ghost is not None:
            total += self.ghost.tenant_cross_evictions
        return total

    # -- node loss -------------------------------------------------------------

    def fail_node(self, node: int) -> ShardMap:
        """Kill ``node``: deterministic re-shard + cache contents lost.

        The surviving owners keep their blocks; the dead node's blocks are
        dealt to the survivors by :meth:`ShardMap.reshard_without`, and its
        cache is cleared, so every re-homed block re-fetches from the
        shared cold store on next use — the re-fetch cost lands on the
        ordinary ledgers with no special-casing.
        """
        node = int(node)
        if self._solo is not None or node == self.home:
            raise ValueError(f"cannot fail node {node} (home or only node)")
        self.shard_map = self.shard_map.reshard_without(node)
        self.nodes[node].clear()
        self._failed.add(node)
        return self.shard_map

    # -- the read path ---------------------------------------------------------

    def fetch(
        self,
        key: int,
        step: int,
        prefetch: bool = False,
        min_free_step: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> FetchResult:
        if self._solo is not None:
            return self._solo.fetch(
                key, step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
            )
        key = int(key)
        owner = int(self.shard_map.owner[key])
        nbytes = self._uniform_nbytes
        if nbytes is None:
            nbytes = self.block_nbytes(key)
        scale = self.prefetch_latency_factor if prefetch else 1.0
        record = self.registry.enabled

        if owner == self.home:
            r = self.nodes[owner].fetch(
                key, step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
            )
            if not r.dropped:
                self._split["local"] += nbytes
                self._node_serves[owner] += 1
                if record:
                    self._route_counters["local"].inc()
                    self._node_serve_counters[owner].inc()
            return r

        ghost = self.ghost
        if ghost is not None and key in ghost:
            # Replicated copy in home DRAM: served without touching the
            # network — same accounting shape as a fastest-level hit.
            if prefetch:
                ghost.stats.prefetch_hits += 1
            else:
                ghost.stats.hits += 1
                ghost.touch(key, step)
            ghost.stats.bytes_read += nbytes
            time_s = DRAM.read_time(nbytes, scale)
            if record:
                self._record_fetch("ghost", prefetch, nbytes, time_s)
                self._route_counters["ghost"].inc()
            kind = "prefetch" if prefetch else "hit"
            if self.tracer.enabled:
                self.tracer.record(kind, step, "ghost", key, nbytes, time_s)
            self._split["ghost"] += nbytes
            return FetchResult(key, time_s, "ghost", fastest_hit=True)

        link = self.fabric.link(self.home, owner)
        inj = self.fault_injector
        faulted = inj is not None and not inj.is_null
        if faulted and inj.fails(link.name, key, step, 0):
            # Link partition: one probe latency is lost, then the block is
            # read straight from the shared cold store, bypassing every
            # cache (so a partitioned block re-fetches on every use).
            probe_t = link.latency_s * scale
            self.fabric.record_fallback(self.home, owner)
            if self.tracer.enabled:
                self.tracer.record("fault", step, link.name, key, 0, probe_t)
            cold_t = self.backing.read_time(nbytes, scale)
            self._fallback_reads += 1
            self._fallback_bytes += nbytes
            self._split["cold"] += nbytes
            if record:
                self._record_fetch(self.backing.name, prefetch, nbytes, cold_t)
                self._route_counters["cold_fallback"].inc()
                self._link_metrics[link.name][3].inc()
            kind = "prefetch" if prefetch else "fetch"
            if self.tracer.enabled:
                self.tracer.record(kind, step, self.backing.name, key, nbytes, cold_t)
            return FetchResult(key, probe_t + cold_t, self.backing.name, fastest_hit=False)

        r = self.nodes[owner].fetch(
            key, step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
        )
        if r.dropped:
            return r  # the owner dropped the block; nothing crossed the link
        net_t = base_t = link.transfer_time(nbytes, scale)
        if faulted:
            net_t = base_t * inj.slowdown(link.name, step) + inj.spike_s(
                link.name, key, step, 0
            )
            if net_t > base_t:
                # Informational, outside the time ledger: only the seconds
                # *above* the nominal transfer (mirrors the device path).
                inj.record_degraded(link.name)
                if self.tracer.enabled:
                    self.tracer.record("degraded", step, link.name, key, 0, net_t - base_t)
        self.fabric.charge(self.home, owner, nbytes, net_t)
        self._split["peer"] += nbytes
        self._node_serves[owner] += 1
        if record:
            bytes_c, xfers_c, seconds_g, _ = self._link_metrics[link.name]
            bytes_c.inc(nbytes)
            xfers_c.inc()
            seconds_g.inc(net_t)
            self._route_counters["peer"].inc()
            self._node_serve_counters[owner].inc()
        if self.tracer.enabled:
            self.tracer.record("xfer", step, link.name, key, nbytes, net_t)
        if ghost is not None:
            ghost.admit(key, step, min_free_step=min_free_step, agg=None, tenant=tenant)
        # Flat left fold: node time then link time, so batched and per-block
        # fetches accumulate identically and attribution replays exactly.
        total = r.time_s + net_t
        return FetchResult(key, total, r.source, fastest_hit=r.fastest_hit)

    def fetch_many(
        self,
        ids: np.ndarray,
        step: int,
        prefetch: bool = False,
        min_free_step: Optional[int] = None,
        tenant: Optional[str] = None,
    ) -> BatchFetchResult:
        if self._solo is not None:
            return self._solo.fetch_many(
                ids, step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
            )
        arr = np.ascontiguousarray(ids, dtype=np.int64)
        n = arr.size
        if n == 0:
            return BatchFetchResult(0, 0, 0.0)
        times = np.empty(n, dtype=np.float64)
        n_hits = 0
        dropped: List[int] = []
        for i in range(n):
            r = self.fetch(
                int(arr[i]), step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
            )
            times[i] = r.time_s
            if r.fastest_hit:
                n_hits += 1
            if r.dropped:
                dropped.append(r.key)
        total = float(np.add.accumulate(times)[-1]) if n > 1 else float(times[0])
        return BatchFetchResult(n, n_hits, total, len(dropped), tuple(dropped))

    def prefetch_many(
        self,
        candidates,
        step: int,
        min_free_step: Optional[int] = None,
        max_fetch: Optional[int] = None,
        dedupe: bool = False,
        tenant: Optional[str] = None,
    ):
        if self._solo is not None:
            return self._solo.prefetch_many(
                candidates,
                step,
                min_free_step=min_free_step,
                max_fetch=max_fetch,
                dedupe=dedupe,
                tenant=tenant,
            )
        arr = np.ascontiguousarray(candidates, dtype=np.int64)
        issued: List[int] = []
        total_time = 0.0
        attempted: Optional[set] = set() if dedupe else None
        for key in arr:
            if max_fetch is not None and len(issued) >= max_fetch:
                break
            k = int(key)
            if attempted is not None:
                if k in attempted or self.contains_fast(k):
                    continue
                attempted.add(k)
            elif self.contains_fast(k):
                continue
            total_time += self.fetch(
                k, step, prefetch=True, min_free_step=min_free_step, tenant=tenant
            ).time_s
            issued.append(k)
        return issued, total_time

    # -- preload ---------------------------------------------------------------

    def preload(self, keys_by_priority: Sequence[int]) -> "dict[str, int]":
        if self._solo is not None:
            return self._solo.preload(keys_by_priority)
        arr = np.ascontiguousarray(keys_by_priority, dtype=np.int64)
        placed: dict = {}
        by_node = self.shard_map.partition(arr)
        for node_idx, keys in sorted(by_node.items()):
            placed.update(self.nodes[node_idx].preload(keys))
        return placed

    # -- stats & lifecycle -------------------------------------------------------

    def stats(self) -> HierarchyStats:
        if self._solo is not None:
            return self._solo.stats()
        levels = {}
        for node in self.nodes:
            for lv in node.levels:
                levels[lv.name] = lv.stats
        if self.ghost is not None:
            levels["ghost"] = self.ghost.stats
        return HierarchyStats(levels=levels)

    def cluster_ledger(self) -> dict:
        """The exact byte/time split the conservation tests reconcile."""
        split = dict(self._split)
        if self._solo is not None:
            solo = self._solo
            split["local"] = solo.backing_bytes + solo.stats().total_bytes_read
        return {
            "n_nodes": self.n_nodes,
            "home": self.home,
            "failed_nodes": sorted(self._failed),
            "shard_map": self.shard_map.as_dict(),
            "split_bytes": split,
            "links": self.fabric.ledger(),
            "peer_bytes": self.fabric.total_bytes,
            "peer_time_s": self.fabric.total_time_s,
            "peer_transfers": self.fabric.total_transfers,
            "link_fallbacks": self.fabric.total_fallbacks,
            "fallback_reads": self._fallback_reads,
            "node_serves": {f"n{k}": c for k, c in enumerate(self._node_serves)},
        }

    def reset_stats(self) -> None:
        for node in self.nodes:
            node.reset_stats()
        if self.ghost is not None:
            self.ghost.stats.reset()
        self._fallback_reads = 0
        self._fallback_bytes = 0
        self._split = {"local": 0, "ghost": 0, "peer": 0, "cold": 0}
        self._node_serves = [0] * len(self.nodes)
        self.fabric.reset()

    def clear(self) -> None:
        for node in self.nodes:
            node.clear()
        if self.ghost is not None:
            self.ghost.clear()

    def check_invariants(self) -> None:
        for node in self.nodes:
            node.check_invariants()
        if self.ghost is not None:
            self.ghost.check_invariants()

    @property
    def levels(self):
        """Every cache level across every node (plus the ghost cache)."""
        if self._solo is not None:
            return self._solo.levels
        out = [lv for node in self.nodes for lv in node.levels]
        if self.ghost is not None:
            out.append(self.ghost)
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardedHierarchy(n_nodes={self.n_nodes}, home={self.home}, "
            f"strategy={self.shard_map.strategy!r}, ghost={self.ghost is not None})"
        )


def make_sharded_hierarchy(
    grid: BlockGrid,
    n_nodes: int,
    block_nbytes=None,
    strategy: str = "slab",
    shard_map: Optional[ShardMap] = None,
    cache_ratio: float = 0.5,
    policy: str = "lru",
    ghost_ratio: float = 0.0,
    link_latency_s: float = DEFAULT_LINK_LATENCY_S,
    link_bandwidth_bps: float = DEFAULT_LINK_BANDWIDTH_BPS,
    devices: Sequence[StorageDevice] = (DRAM, SSD),
    backing: StorageDevice = HDD,
    home: int = 0,
    n_variables: int = 1,
    seed: int = 0,
    tracer=None,
    registry=None,
) -> ShardedHierarchy:
    """Build a K-node sharded hierarchy over ``grid``.

    At K=1 the single node is exactly ``make_standard_hierarchy`` (level
    names ``dram``/``ssd`` over ``hdd``), so the sharded wrapper is
    bit-for-bit the single-box simulator.  For K>1 each node's DRAM/SSD
    tier is sized by the successive ``cache_ratio`` powers of its *owned*
    block count, its devices are renamed ``n{k}.dram``/``n{k}.ssd`` so
    fault profiles target individual nodes, and ``ghost_ratio`` > 0 adds
    a home-side ghost cache for replicated remote blocks.
    """
    n_blocks = grid.n_blocks
    if block_nbytes is None:
        block_nbytes = grid.uniform_block_nbytes(n_variables=n_variables)
    if shard_map is None:
        shard_map = ShardMap(grid, n_nodes, strategy, seed)
    elif shard_map.n_nodes != n_nodes:
        raise ValueError(
            f"shard_map is {shard_map.n_nodes}-way but n_nodes={n_nodes}"
        )
    if n_nodes == 1:
        nodes = [
            make_standard_hierarchy(
                n_blocks, block_nbytes, cache_ratio, policy, devices, backing
            )
        ]
    else:
        if not 0 < cache_ratio <= 1:
            raise ValueError(f"cache_ratio must be in (0, 1], got {cache_ratio}")
        counts = shard_map.counts()
        nodes = []
        for k in range(n_nodes):
            owned = max(1, int(counts[k]))
            levels: List[CacheLevel] = []
            node_devices: List[StorageDevice] = []
            frac = 1.0
            for device in reversed(devices):  # slowest cache level first for sizing
                frac *= cache_ratio
                capacity = max(1, int(round(owned * frac)))
                named = StorageDevice(
                    f"n{k}.{device.name}", device.read_latency_s, device.read_bandwidth_bps
                )
                node_devices.append(named)
                levels.append(
                    CacheLevel(named.name, capacity, make_policy(policy), n_blocks=n_blocks)
                )
            levels.reverse()
            node_devices.reverse()
            nodes.append(MemoryHierarchy(levels, node_devices, backing, block_nbytes))
    fabric = NetworkFabric(n_nodes, link_latency_s, link_bandwidth_bps)
    ghost = None
    if ghost_ratio > 0 and n_nodes > 1:
        if ghost_ratio > 1:
            raise ValueError(f"ghost_ratio must be in [0, 1], got {ghost_ratio}")
        ghost = CacheLevel(
            "ghost",
            max(1, int(round(n_blocks * ghost_ratio))),
            make_policy(policy),
            n_blocks=n_blocks,
        )
    return ShardedHierarchy(
        shard_map,
        nodes,
        fabric,
        block_nbytes,
        home=home,
        ghost=ghost,
        backing=backing,
        tracer=tracer,
        registry=registry,
    )
