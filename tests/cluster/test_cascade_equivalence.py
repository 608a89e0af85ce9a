"""The per-owner cascade of ``ShardedHierarchy.fetch_many`` *is* the
per-block ``fetch`` loop.

Twin K-node hierarchies take the same frames — one through ``fetch_many``
(the per-owner cascade whenever it applies), one through a loop of
``fetch`` — and must agree exactly, frame after frame:

- every call's :class:`~repro.storage.hierarchy.BatchFetchResult`;
- the full trace event stream (``seq``, order, every field);
- ``stats()``, ``cluster_ledger()`` and the injector's fault stats;
- each level's residency, ``last_used`` and policy order (ghost included);
- the registry snapshot, exact except histogram ``sum``/``mean``: the
  cascade records equal latencies with one ``observe_many(t, c)``.

Swept by hypothesis over K, shard strategy, ghost size, policy, fault
profile (the cluster profiles plus a link-only profile with transient
errors, spikes and a slow window), tracer and registry on or off,
``min_free_step``, tenant quotas, and frames with repeated and unsorted
ids.  Directed cases pin the ghost pass's fault rules and the per-link
fold.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.cluster import (
    CLUSTER_FAULT_PROFILES,
    SHARD_STRATEGIES,
    cluster_fault_plan,
    make_sharded_hierarchy,
)
from repro.cluster.network import link_name
from repro.faults import FaultInjector
from repro.faults.plan import DeviceFaultProfile, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.storage.hierarchy import BatchFetchResult
from repro.trace import Tracer
from repro.volume.blocks import BlockGrid

GRID = BlockGrid((32, 32, 32), (8, 8, 8))  # 64 blocks
PROFILES = CLUSTER_FAULT_PROFILES + ("flaky-links",)


def _plan(profile, n_nodes, seed):
    if profile != "flaky-links":
        return cluster_fault_plan(profile, n_nodes, seed=seed)
    # Link faults only: every node still cascades, and the array draws
    # decide errors, spikes and the slow window.
    return FaultPlan(
        seed=seed,
        profiles=tuple(
            DeviceFaultProfile(
                link_name(0, k), error_rate=0.3, spike_rate=0.3, spike_s=1e-3,
                slow_windows=((2, 5, 3.0),),
            )
            for k in range(1, n_nodes)
        ),
    )


def _build(n_nodes, strategy, ghost_ratio, policy, profile, fault_seed, traced, metered,
           quotas=False):
    h = make_sharded_hierarchy(
        GRID, n_nodes, strategy=strategy, cache_ratio=0.5, policy=policy,
        ghost_ratio=ghost_ratio, seed=1,
    )
    if quotas:  # tenant-quota levels plan under owner filters
        h.set_tenant_quotas({"a": 0.4, "b": 0.4})
    if traced:
        h.set_tracer(Tracer())
    if metered:
        h.set_registry(MetricsRegistry())
    if profile != "none":
        h.set_fault_injector(FaultInjector(_plan(profile, n_nodes, fault_seed)))
    return h


def _fetch_loop(h, ids, step, prefetch, min_free_step, tenant=None):
    """The reference: one ``fetch`` per id, times folded with ``+=``."""
    total, n_fast, dropped = 0.0, 0, []
    for key in ids:
        r = h.fetch(
            int(key), step, prefetch=prefetch, min_free_step=min_free_step, tenant=tenant
        )
        total += r.time_s
        n_fast += r.fastest_hit
        if r.dropped:
            dropped.append(r.key)
    return BatchFetchResult(len(ids), n_fast, total, len(dropped), tuple(dropped))


def _order(level):
    policy = level.policy
    if hasattr(policy, "recency_order"):
        return policy.recency_order()
    return (policy.list_sizes(), policy.p, list(policy._t1), list(policy._t2))


def _levels_equal(a, b):
    assert len(a.levels) == len(b.levels)
    for la, lb in zip(a.levels, b.levels):
        assert la.name == lb.name
        ra, rb = np.flatnonzero(la._resident), np.flatnonzero(lb._resident)
        np.testing.assert_array_equal(ra, rb, err_msg=la.name)
        np.testing.assert_array_equal(la._last_used[ra], lb._last_used[rb], err_msg=la.name)
        assert _order(la) == _order(lb), la.name
        la.check_invariants()


def _registries_equal(a, b):
    sa, sb = a.snapshot(), b.snapshot()
    assert sa["counters"] == sb["counters"]
    assert sa["gauges"] == sb["gauges"]
    assert sa["histograms"].keys() == sb["histograms"].keys()
    for key, ha in sa["histograms"].items():
        hb = sb["histograms"][key]
        assert {k: v for k, v in ha.items() if k not in ("sum", "mean")} == {
            k: v for k, v in hb.items() if k not in ("sum", "mean")
        }, key
        assert math.isclose(ha["sum"], hb["sum"], rel_tol=1e-12), key


def _surfaces_equal(got, want):
    assert got.tracer.events() == want.tracer.events()
    assert got.tracer.n_recorded == want.tracer.n_recorded
    assert got.stats() == want.stats()
    assert got.backing_bytes == want.backing_bytes
    assert got.cluster_ledger() == want.cluster_ledger()
    if got.fault_injector is not None:
        assert got.fault_injector.stats.as_dict() == want.fault_injector.stats.as_dict()
    assert got.tenant_usage() == want.tenant_usage()
    _levels_equal(got, want)
    _registries_equal(got.registry, want.registry)


def _run_twins(build, frames, constrained):
    got, want = build(), build()
    for step, (ids, prefetch, tenant) in enumerate(frames, start=1):
        arr = np.asarray(ids, dtype=np.int64)
        mfs = step if constrained else None
        result = got.fetch_many(arr, step, prefetch=prefetch, min_free_step=mfs, tenant=tenant)
        assert result == _fetch_loop(want, arr, step, prefetch, mfs, tenant)
        _surfaces_equal(got, want)
    return got, want


_ids = st.integers(0, GRID.n_blocks - 1)
# (ids, prefetch, tenant): mostly unique ids (the cascade), some with
# repeats (the per-key loop), a few prefetch frames.
_frames = st.lists(
    st.tuples(
        st.one_of(st.lists(_ids, unique=True, max_size=28), st.lists(_ids, max_size=20)),
        st.sampled_from([False] * 5 + [True]),
        st.sampled_from([None, "a", "b"]),
    ),
    min_size=1, max_size=6,
)


def _differential(n_nodes, strategy, ghost_ratio, policy, profile, fault_seed, traced,
                  metered, constrained, quotas, frames):
    def build():
        return _build(n_nodes, strategy, ghost_ratio, policy, profile, fault_seed, traced,
                      metered, quotas)

    _run_twins(build, frames, constrained)


_sweep = dict(
    n_nodes=st.sampled_from([2, 3, 4]),
    strategy=st.sampled_from(SHARD_STRATEGIES),
    ghost_ratio=st.sampled_from([0.0, 0.05, 0.2]),
    policy=st.sampled_from(["lru", "fifo", "arc"]),
    profile=st.sampled_from(PROFILES),
    fault_seed=st.integers(0, 2**16),
    traced=st.booleans(),
    metered=st.booleans(),
    constrained=st.booleans(),
    quotas=st.booleans(),
    frames=_frames,
)


@given(**_sweep)
@settings(max_examples=60, deadline=None)
def test_fetch_many_matches_the_fetch_loop(**kw):
    _differential(**kw)


@pytest.mark.slow
@given(**_sweep)
@settings(max_examples=600, deadline=None)
def test_fetch_many_matches_the_fetch_loop_wide(**kw):
    _differential(**kw)


@pytest.mark.parametrize("profile", PROFILES)
def test_cascade_applies_unless_a_node_can_fault(profile):
    """The per-owner cascade runs for unique ids on every profile whose
    plan names no node device; node-chaos keeps the per-key loop."""
    h = _build(4, "slab", 0.05, "lru", profile, 3, True, True)
    ids = np.arange(GRID.n_blocks, dtype=np.int64)
    assert h._cascades(ids) == (profile != "node-chaos")
    assert not h._cascades(np.array([1, 2, 1], dtype=np.int64))


def _three_nodes_with_a_tiny_ghost():
    """K=3 over 64 blocks with a one-block ghost cache; returns the
    hierarchy, a block owned by n1 (behind the partitioned n0-n1 link)
    and one owned by n2."""
    h = make_sharded_hierarchy(
        GRID, 3, strategy="round-robin", cache_ratio=0.5, ghost_ratio=1 / GRID.n_blocks,
    )
    h.set_tracer(Tracer())
    assert h.ghost.capacity == 1
    owner = h.shard_map.owner
    return h, int(np.flatnonzero(owner == 1)[0]), int(np.flatnonzero(owner == 2)[0])


def test_failing_link_ghost_resident_evicted_in_frame_is_not_readmitted():
    """y (behind the severed link) is ghost-resident at frame start; x's
    admission evicts it, so y misses — and its failing draw sends it to the
    cold store without a ghost admission."""
    twins = []
    for _ in range(2):
        h, y, x = _three_nodes_with_a_tiny_ghost()
        h.fetch_many(np.array([y]), 0)  # fault-free: y crosses n0-n1 into the ghost
        assert y in h.ghost
        h.set_fault_injector(FaultInjector(cluster_fault_plan("link-partition", 3, seed=0)))
        twins.append(h)
    got, want = twins
    frame = np.array([x, y], dtype=np.int64)
    assert got._cascades(frame)
    assert got.fetch_many(frame, 1, min_free_step=1) == _fetch_loop(want, frame, 1, False, 1)
    assert x in got.ghost and y not in got.ghost
    kinds = [(e.kind, e.level, e.key) for e in got.tracer.events() if e.step == 1]
    assert kinds[-2:] == [("fault", "n0-n1", y), ("fetch", "hdd", y)]
    _surfaces_equal(got, want)


def test_ghost_hit_draws_nothing():
    """A ghost-resident block behind a severed link is served from the
    ghost cache: the per-key loop never draws its link, so no error is
    recorded."""
    twins = []
    for _ in range(2):
        h, y, _x = _three_nodes_with_a_tiny_ghost()
        h.fetch_many(np.array([y]), 0)
        inj = FaultInjector(cluster_fault_plan("link-partition", 3, seed=0))
        h.set_fault_injector(inj)
        twins.append(h)
    got, want = twins
    frame = np.array([y], dtype=np.int64)
    assert got.fetch_many(frame, 1) == _fetch_loop(want, frame, 1, False, None)
    assert got.fault_injector.stats.total("errors") == 0
    assert got.cluster_ledger()["split_bytes"]["ghost"] > 0
    _surfaces_equal(got, want)


def test_link_seconds_fold_per_link_in_id_order():
    """Many transfers on one link per frame: the fabric's seconds and the
    ``cluster_link_seconds_total`` gauge add each transfer in id order, as
    the per-block loop does (a pairwise sum differs in the last bits)."""
    twins = []
    for _ in range(2):
        h = make_sharded_hierarchy(GRID, 2, strategy="round-robin", cache_ratio=0.5)
        h.set_registry(MetricsRegistry())
        h.set_fault_injector(FaultInjector(_plan("flaky-links", 2, 5)))
        twins.append(h)
    got, want = twins
    remote = np.flatnonzero(got.shard_map.owner == 1)
    assert remote.size > 16
    for step in range(1, 7):
        frame = np.roll(remote, step)
        assert got._cascades(frame)
        assert got.fetch_many(frame, step) == _fetch_loop(want, frame, step, False, None)
        _surfaces_equal(got, want)
