"""Property tests: the batched hierarchy calls are result-identical to
per-block ``fetch`` loops.

The contract under test is the tentpole exactness claim: for every policy,
capacity split, and access pattern, ``fetch_many`` /
``prefetch_many`` produce the same simulated clock, the same
:class:`~repro.storage.stats.CacheStats`, the same residency and recency
state, and the same trace byte ledger as the per-block scalar loop — not
approximately, byte-identically.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.path import spherical_path
from repro.runtime import run_baseline, run_with_prefetcher
from repro.core.pipeline import PipelineContext
from repro.experiments.runner import fresh_hierarchy
from repro.faults import FaultInjector, FaultPlan
from repro.policies.registry import make_policy
from repro.prefetch.strategies import MotionExtrapolationPrefetcher
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import MemoryHierarchy
from repro.trace import Tracer
from repro.volume.blocks import BlockGrid

from tests.runtime._seed_drivers import (
    seed_run_baseline,
    seed_run_with_prefetcher,
)

POLICIES = ["fifo", "lru", "arc"]


def _make_hierarchy(policy, n_blocks, cap_fast, cap_slow):
    levels = [
        CacheLevel("dram", cap_fast, make_policy(policy), n_blocks=n_blocks),
        CacheLevel("ssd", cap_slow, make_policy(policy), n_blocks=n_blocks),
    ]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, 256)


def _assert_same_state(a: MemoryHierarchy, b: MemoryHierarchy) -> None:
    """Stats, residency, recency, policy order, and byte ledger all agree."""
    assert a.backing_reads == b.backing_reads
    assert a.backing_bytes == b.backing_bytes
    assert a.stats() == b.stats()
    for la, lb in zip(a.levels, b.levels):
        ra = np.flatnonzero(la._resident)
        rb = np.flatnonzero(lb._resident)
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(la._last_used[ra], lb._last_used[rb])
        # Internal order drift fails here, not only through a later victim.
        pa, pb = la.policy, lb.policy
        for order in ("recency_order", "insertion_order", "list_sizes"):
            if hasattr(pa, order):
                assert getattr(pa, order)() == getattr(pb, order)(), order
        if hasattr(pa, "p"):
            assert pa.p == pb.p
        la.check_invariants()
        lb.check_invariants()


def _assert_same_future(a: MemoryHierarchy, b: MemoryHierarchy, n_blocks, step) -> None:
    """Equal observable state must imply equal *behaviour*: a full-range
    scalar probe replay exercises the policies' internal ordering."""
    probe = np.arange(n_blocks, dtype=np.int64)
    io_a = io_b = 0.0
    for k in probe.tolist():
        io_a += a.fetch(k, step, min_free_step=step).time_s
        io_b += b.fetch(k, step, min_free_step=step).time_s
    assert io_a == io_b
    _assert_same_state(a, b)


@st.composite
def replay_cases(draw):
    n_blocks = draw(st.integers(6, 28))
    cap_fast = draw(st.integers(1, max(1, n_blocks // 2)))
    cap_slow = draw(st.integers(cap_fast, n_blocks))
    n_steps = draw(st.integers(1, 6))
    ids = st.integers(0, n_blocks - 1)
    # Visible sets are sorted and unique; lists with repeats (and in any
    # order) must match the per-block loop too.
    steps = [
        np.array(
            draw(
                st.one_of(
                    st.sets(ids, max_size=n_blocks).map(sorted),
                    st.lists(ids, max_size=2 * n_blocks),
                )
            ),
            dtype=np.int64,
        )
        for _ in range(n_steps)
    ]
    return n_blocks, cap_fast, cap_slow, steps


class TestFetchManyEquivalence:
    @given(case=replay_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_demand_path_identical(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        for i, ids in enumerate(steps):
            io = 0.0
            fast_hits = 0
            for k in ids.tolist():
                r = a.fetch(k, i, min_free_step=i)
                io += r.time_s
                fast_hits += r.fastest_hit
            batch = b.fetch_many(ids, i, min_free_step=i)
            assert batch.n == ids.size
            assert batch.time_s == io  # bit-identical, not approx
            assert batch.n_fastest_hits == fast_hits
        _assert_same_state(a, b)
        _assert_same_future(a, b, n_blocks, len(steps))

    @given(case=replay_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=30, deadline=None)
    def test_unconstrained_demand_path_identical(self, case, policy):
        """min_free_step=None exercises the persistent victim queue."""
        n_blocks, cap_fast, cap_slow, steps = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        for i, ids in enumerate(steps):
            io = sum(a.fetch(k, i).time_s for k in ids.tolist())
            assert b.fetch_many(ids, i).time_s == io
        _assert_same_state(a, b)


@pytest.mark.parametrize("policy", POLICIES)
def test_repeated_ids_match_the_per_block_loop(policy):
    """A repeated id is a hit the second time, charged as one."""
    a = _make_hierarchy(policy, 16, 8, 16)
    b = _make_hierarchy(policy, 16, 8, 16)
    ids = np.array([3, 5, 5, 7, 9], dtype=np.int64)
    io = 0.0
    for k in ids.tolist():
        io += a.fetch(k, 0).time_s
    res = b.fetch_many(ids, 0)
    assert (res.time_s, res.n_fastest_hits) == (io, 1)
    _assert_same_state(a, b)


def _scalar_prefetch(h, candidates, step, cap, dedupe):
    """The drivers' scalar prefetch loop, verbatim semantics."""
    issued, total = [], 0.0
    attempted = set()
    for k in candidates.tolist():
        if cap is not None and len(issued) >= cap:
            break
        if dedupe and k in attempted:
            continue
        if h.contains_fast(k):
            continue
        if dedupe:
            attempted.add(k)
        total += h.fetch(k, step, prefetch=True, min_free_step=step).time_s
        issued.append(k)
    return issued, total


@st.composite
def prefetch_cases(draw):
    n_blocks, cap_fast, cap_slow, steps = draw(replay_cases())
    cands = [
        np.array(
            draw(st.lists(st.integers(0, n_blocks - 1), max_size=2 * n_blocks)),
            dtype=np.int64,
        )
        for _ in steps
    ]
    cap = draw(st.one_of(st.none(), st.integers(0, n_blocks)))
    dedupe = draw(st.booleans())
    return n_blocks, cap_fast, cap_slow, steps, cands, cap, dedupe


class TestPrefetchManyEquivalence:
    @given(case=prefetch_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_mixed_demand_and_prefetch_identical(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps, cands, cap, dedupe = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        for i, (ids, cand) in enumerate(zip(steps, cands)):
            io = sum(a.fetch(k, i, min_free_step=i).time_s for k in ids.tolist())
            assert b.fetch_many(ids, i, min_free_step=i).time_s == io
            issued_a, t_a = _scalar_prefetch(a, cand, i, cap, dedupe)
            issued_b, t_b = b.prefetch_many(
                cand, i, min_free_step=i, max_fetch=cap, dedupe=dedupe
            )
            assert issued_b == issued_a
            assert t_b == t_a
        _assert_same_state(a, b)
        _assert_same_future(a, b, n_blocks, len(steps))


def _trace_totals(tracer):
    """Per-(kind, level, step) event count / byte / time totals, plus the
    moved-byte ledger over the hit/fetch/prefetch kinds.

    Keyed per step: the per-block loop and the batched calls each record
    one event per block, in the same order, so every group's count, bytes
    and left-folded time agree exactly.
    """
    per_group: dict = {}
    moved = 0
    for ev in tracer.events():
        key = (ev.kind, ev.level, ev.step)
        cnt, nb, t = per_group.get(key, (0, 0, 0.0))
        per_group[key] = (cnt + 1, nb + ev.nbytes, t + ev.time_s)
        if ev.kind in ("hit", "fetch", "prefetch"):
            moved += ev.nbytes
    return per_group, moved


class TestTraceByteLedger:
    @given(case=prefetch_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=40, deadline=None)
    def test_batched_trace_preserves_ledger(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps, cands, cap, dedupe = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        a.set_tracer(Tracer())
        b.set_tracer(Tracer())
        for i, (ids, cand) in enumerate(zip(steps, cands)):
            for k in ids.tolist():
                a.fetch(k, i, min_free_step=i)
            b.fetch_many(ids, i, min_free_step=i)
            _scalar_prefetch(a, cand, i, cap, dedupe)
            b.prefetch_many(cand, i, min_free_step=i, max_fetch=cap, dedupe=dedupe)
        groups_a, moved_a = _trace_totals(a.tracer)
        groups_b, moved_b = _trace_totals(b.tracer)
        assert groups_a == groups_b  # counts, bytes, and time totals
        assert moved_a == moved_b
        # The ledger invariant: traced movement equals charged movement.
        for h, moved in ((a, moved_a), (b, moved_b)):
            assert moved == h.backing_bytes + h.stats().total_bytes_read


#: (profile, seed) pairs covering light, degraded, and drop-heavy injection.
FAULT_CASES = [("flaky-hdd", 42), ("degraded-ssd", 3), ("lossy", 7)]


class TestFaultedEquivalence:
    """The engine-equivalence contract extends to fault injection: both
    engines issue the same reads in the same order, and fault draws are
    pure functions of (seed, device, key, step, attempt) — so injected
    runs stay bit-identical too."""

    @given(case=replay_cases(), policy=st.sampled_from(POLICIES),
           fault=st.sampled_from(FAULT_CASES))
    @settings(max_examples=40, deadline=None)
    def test_demand_path_identical_under_faults(self, case, policy, fault):
        profile, seed = fault
        n_blocks, cap_fast, cap_slow, steps = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        a.set_fault_injector(FaultInjector(FaultPlan.from_profile(profile, seed=seed)))
        b.set_fault_injector(FaultInjector(FaultPlan.from_profile(profile, seed=seed)))
        for i, ids in enumerate(steps):
            io = 0.0
            dropped = []
            for k in ids.tolist():
                r = a.fetch(k, i, min_free_step=i)
                io += r.time_s
                if r.dropped:
                    dropped.append(k)
            batch = b.fetch_many(ids, i, min_free_step=i)
            assert batch.time_s == io  # bit-identical, not approx
            assert batch.n_dropped == len(dropped)
            assert list(batch.dropped_ids) == dropped
        _assert_same_state(a, b)
        assert (
            a.fault_injector.stats.as_dict() == b.fault_injector.stats.as_dict()
        )

    @given(case=prefetch_cases(), policy=st.sampled_from(POLICIES),
           fault=st.sampled_from(FAULT_CASES))
    @settings(max_examples=30, deadline=None)
    def test_prefetch_identical_under_faults(self, case, policy, fault):
        profile, seed = fault
        n_blocks, cap_fast, cap_slow, steps, cands, cap, dedupe = case
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow)
        plan = FaultPlan.from_profile(profile, seed=seed)
        a.set_fault_injector(FaultInjector(plan))
        b.set_fault_injector(FaultInjector(plan))
        for i, (ids, cand) in enumerate(zip(steps, cands)):
            io = sum(a.fetch(k, i, min_free_step=i).time_s for k in ids.tolist())
            assert b.fetch_many(ids, i, min_free_step=i).time_s == io
            issued_a, t_a = _scalar_prefetch(a, cand, i, cap, dedupe)
            issued_b, t_b = b.prefetch_many(
                cand, i, min_free_step=i, max_fetch=cap, dedupe=dedupe
            )
            assert issued_b == issued_a
            assert t_b == t_a
        _assert_same_state(a, b)


@pytest.fixture(scope="module")
def small_context():
    grid = BlockGrid((16, 16, 16), (8, 8, 8))
    path = spherical_path(
        n_positions=6, degrees_per_step=6.0, distance=2.5,
        view_angle_deg=20.0, seed=7,
    )
    return grid, PipelineContext.create(path, grid)


class TestDriverEngineEquivalence:
    """The runtime drivers against the per-block seed drivers (one
    ``hierarchy.fetch`` per block, ``engine="scalar"``)."""

    def test_run_baseline(self, small_context):
        grid, context = small_context
        a = seed_run_baseline(context, fresh_hierarchy(grid), engine="scalar")
        b = run_baseline(context, fresh_hierarchy(grid))
        assert a.steps == b.steps
        assert a.hierarchy_stats == b.hierarchy_stats
        assert a.extras == b.extras

    def test_run_with_prefetcher(self, small_context):
        grid, context = small_context

        def prefetcher():
            return MotionExtrapolationPrefetcher(grid, context.path.view_angle_deg)

        a = seed_run_with_prefetcher(
            context, fresh_hierarchy(grid), prefetcher(),
            max_prefetch_per_step=8, engine="scalar",
        )
        b = run_with_prefetcher(
            context, fresh_hierarchy(grid), prefetcher(), max_prefetch_per_step=8
        )
        assert a.steps == b.steps
        assert a.hierarchy_stats == b.hierarchy_stats
        assert a.extras == b.extras
