"""Property tests: the batched hierarchy calls are result-identical to
per-block ``fetch`` loops.

The contract under test is the tentpole exactness claim: for every policy,
capacity split, block-size model, and access pattern, ``fetch_many`` /
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
from repro.runtime import run_baseline, run_budgeted, run_with_prefetcher
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
    seed_run_budgeted,
    seed_run_with_prefetcher,
)

# "random" draws victims from its own RNG; the two twin instances would
# need lock-step seeding to compare, so it is exercised elsewhere.
POLICIES = ["fifo", "lru", "mru", "lfu", "clock", "arc"]


def _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, block_nbytes):
    levels = [
        CacheLevel("dram", cap_fast, make_policy(policy), n_blocks=n_blocks),
        CacheLevel("ssd", cap_slow, make_policy(policy), n_blocks=n_blocks),
    ]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, block_nbytes)


def _assert_same_state(a: MemoryHierarchy, b: MemoryHierarchy) -> None:
    """Stats, residency, recency, and byte ledger all agree."""
    assert a.backing_reads == b.backing_reads
    assert a.backing_bytes == b.backing_bytes
    assert a.stats() == b.stats()
    for la, lb in zip(a.levels, b.levels):
        ra = np.flatnonzero(la._resident)
        rb = np.flatnonzero(lb._resident)
        np.testing.assert_array_equal(ra, rb)
        np.testing.assert_array_equal(la._last_used[ra], lb._last_used[rb])
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
    steps = [
        np.array(
            sorted(draw(st.sets(st.integers(0, n_blocks - 1), max_size=n_blocks))),
            dtype=np.int64,
        )
        for _ in range(n_steps)
    ]
    uniform = draw(st.booleans())
    return n_blocks, cap_fast, cap_slow, steps, uniform


def _nbytes_model(uniform):
    return 256 if uniform else (lambda k: 64 + (k % 5) * 16)


class TestFetchManyEquivalence:
    @given(case=replay_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_demand_path_identical(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps, uniform = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
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
        n_blocks, cap_fast, cap_slow, steps, uniform = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        for i, ids in enumerate(steps):
            io = sum(a.fetch(k, i).time_s for k in ids.tolist())
            assert b.fetch_many(ids, i).time_s == io
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
    n_blocks, cap_fast, cap_slow, steps, uniform = draw(replay_cases())
    cands = [
        np.array(
            draw(st.lists(st.integers(0, n_blocks - 1), max_size=2 * n_blocks)),
            dtype=np.int64,
        )
        for _ in steps
    ]
    cap = draw(st.one_of(st.none(), st.integers(0, n_blocks)))
    dedupe = draw(st.booleans())
    return n_blocks, cap_fast, cap_slow, steps, cands, uniform, cap, dedupe


class TestPrefetchManyEquivalence:
    @given(case=prefetch_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=60, deadline=None)
    def test_mixed_demand_and_prefetch_identical(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps, cands, uniform, cap, dedupe = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
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

    Keyed per step because that is the aggregation granularity: one
    batched event carries the left-fold of its step's per-event times, so
    per-step totals are bit-identical while a cross-step re-sum would
    associate differently in the last bit.
    """
    per_group: dict = {}
    moved = 0
    for ev in tracer.events():
        key = (ev.kind, ev.level, ev.step)
        cnt, nb, t = per_group.get(key, (0, 0, 0.0))
        per_group[key] = (cnt + ev.count, nb + ev.nbytes, t + ev.time_s)
        if ev.kind in ("hit", "fetch", "prefetch"):
            moved += ev.nbytes
    return per_group, moved


class TestTraceByteLedger:
    @given(case=prefetch_cases(), policy=st.sampled_from(POLICIES))
    @settings(max_examples=40, deadline=None)
    def test_aggregated_trace_preserves_ledger(self, case, policy):
        n_blocks, cap_fast, cap_slow, steps, cands, uniform, cap, dedupe = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        a.set_tracer(Tracer())
        b.set_tracer(Tracer())
        b.aggregate_trace = True
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
        n_blocks, cap_fast, cap_slow, steps, uniform = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
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
        n_blocks, cap_fast, cap_slow, steps, cands, uniform, cap, dedupe = case
        nb = _nbytes_model(uniform)
        a = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
        b = _make_hierarchy(policy, n_blocks, cap_fast, cap_slow, nb)
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

    def test_run_budgeted(self, small_context):
        grid, context = small_context
        ha, hb = fresh_hierarchy(grid), fresh_hierarchy(grid)
        a = seed_run_budgeted(context, ha, io_budget_s=5e-4, engine="scalar")
        b = run_budgeted(context, hb, io_budget_s=5e-4)
        # BudgetedStep carries a numpy rendered_ids field, so dataclass ==
        # is ambiguous; compare field-wise instead.
        assert len(a.steps) == len(b.steps)
        for sa, sb in zip(a.steps, b.steps):
            assert (sa.step, sa.n_visible, sa.n_rendered) == (
                sb.step, sb.n_visible, sb.n_rendered
            )
            assert sa.io_time_s == sb.io_time_s
            assert sa.prefetch_time_s == sb.prefetch_time_s
            np.testing.assert_array_equal(sa.rendered_ids, sb.rendered_ids)
        assert ha.stats() == hb.stats()
