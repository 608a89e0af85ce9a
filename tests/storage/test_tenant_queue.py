"""Tenant-quota admission: the owner-filtered victim queue against a
victim ranked afresh.

A tenant admission on a victim-queue policy (LRU, FIFO) pops its victim
from the amortised queue kept for its owner filter — the tenant's own
blocks at quota, its own and unowned blocks under quota.  The reference
level ranks every victim afresh: the head of the policy's
``victim_order`` over a freshly built ``resident & last_used <
min_free_step & owner filter`` mask, with no queue kept between
admissions.  Random op sequences — tenanted and untenanted admits,
touches, explicit evicts, ``clear``, ``preload`` and quota re-installs, at
steps that need not increase (sessions keep their own step counters),
with ``min_free_step`` None, below, at or past the step — must choose the
same victims in the same order and leave the same state behind.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.registry import make_policy
from repro.storage.cache import CacheLevel
from repro.trace import Tracer

TENANTS = ("a", "b", "c")
N_KEYS = 10


class _FreshLevel(CacheLevel):
    """Every victim the head of a victim order built afresh for it."""

    def _candidate_mask(self, min_free_step, owners):
        mask = self._resident.copy()
        if min_free_step is not None:
            mask &= self._last_used < min_free_step
        if owners is not None:
            mask &= np.isin(self._owner, owners)
        return mask

    def _pop_victim(self, step, min_free_step, owners=None):
        order = self.policy.victim_order(self._candidate_mask(min_free_step, owners))
        return int(order[0]) if order.size else None


def _pair(policy, capacity, quotas):
    levels = []
    for cls in (CacheLevel, _FreshLevel):
        level = cls("dram", capacity, make_policy(policy), tracer=Tracer())
        level.set_tenant_quotas(quotas)
        levels.append(level)
    return levels


def _quotas(draw_caps, capacity):
    """Quotas for a prefix of TENANTS, each >= 1, summing to <= capacity."""
    caps = [c for c in draw_caps if c >= 1]
    out = {}
    left = capacity
    for name, cap in zip(TENANTS, caps):
        cap = min(cap, left)
        if cap < 1:
            break
        out[name] = cap
        left -= cap
    return out or {TENANTS[0]: 1}


_frame = st.tuples(
    st.just("frame"),
    st.sampled_from((None,) + TENANTS),
    st.integers(0, 5),
    st.lists(st.integers(0, N_KEYS - 1), min_size=1, max_size=6),
)
# Frames (one tenant's accesses at one step, as a session renders them)
# dominate, so levels fill and queues get consumed between the rarer
# mutations that must reset or reorder them.
_op = st.one_of(
    *[_frame] * 6,
    st.tuples(st.just("evict"), st.integers(0, N_KEYS - 1)),
    st.tuples(st.just("clear")),
    st.tuples(st.just("preload"), st.lists(st.integers(0, N_KEYS - 1), max_size=4)),
    st.tuples(st.just("quotas"), st.lists(st.integers(1, 4), min_size=1, max_size=3)),
)
_MIN_FREE = {"none": None, "below": -1, "at": 0, "past": 1}  # offset from the step


def _apply(level, op, capacity, mode):
    kind = op[0]
    if kind == "frame":
        _, tenant, step, keys = op
        if tenant is not None and tenant not in level._tenant_names:
            tenant = None
        f = None if _MIN_FREE[mode] is None else step + _MIN_FREE[mode]
        for key in keys:
            if key in level:
                level.touch(key, step)
            else:
                level.admit(key, step, min_free_step=f, tenant=tenant)
    elif kind == "evict":
        if op[1] in level:
            level.evict(op[1], step=0)
    elif kind == "clear":
        level.clear()
    elif kind == "preload":
        level.preload(op[1])
    else:
        level.set_tenant_quotas(_quotas(op[1], capacity))


def _assert_same(a, b):
    # Victims (evict events) and bypasses, in order, with their steps.
    assert [e[1:5] for e in a.tracer.events()] == [e[1:5] for e in b.tracer.events()]
    np.testing.assert_array_equal(a._resident, b._resident)
    np.testing.assert_array_equal(a._last_used, b._last_used)
    np.testing.assert_array_equal(a._owner, b._owner)
    np.testing.assert_array_equal(a._tenant_used, b._tenant_used)
    assert a.stats == b.stats
    assert a.tenant_cross_evictions == b.tenant_cross_evictions == 0
    assert a.policy.recency_order() == b.policy.recency_order()
    a.check_invariants()


def _differential(policy, mode, capacity, caps, ops):
    queued, reference = _pair(policy, capacity, _quotas(caps, capacity))
    for op in ops:
        for level in (queued, reference):
            _apply(level, op, capacity, mode)
        _assert_same(queued, reference)


_cases = dict(
    capacity=st.integers(3, 7),
    caps=st.lists(st.integers(1, 3), min_size=2, max_size=3),
    ops=st.lists(_op, min_size=8, max_size=40),
)


@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("mode", list(_MIN_FREE))
@settings(max_examples=100, deadline=None)
@given(**_cases)
def test_queue_pops_the_masked_argmin(policy, mode, capacity, caps, ops):
    """``mode`` places ``min_free_step`` relative to each frame's step:
    unconstrained, one below, at, or one past it.  Past the step a touch
    or an insert keeps its block a candidate, so only the epoch resets in
    ``touch`` and ``admit`` keep the queue exact there."""
    _differential(policy, mode, capacity, caps, ops)


@pytest.mark.slow
@pytest.mark.parametrize("policy", ["lru", "fifo"])
@pytest.mark.parametrize("mode", list(_MIN_FREE))
@settings(max_examples=500, deadline=None)
@given(**_cases)
def test_queue_pops_the_masked_argmin_wide(policy, mode, capacity, caps, ops):
    _differential(policy, mode, capacity, caps, ops)


def test_owner_filter_keeps_each_tenant_to_its_partition():
    """Under quota a tenant evicts its own or unowned blocks, never an
    older foreign one; at quota only its own, never an older unowned one."""
    level = CacheLevel("dram", 4, make_policy("lru"))
    level.set_tenant_quotas({"a": 2, "b": 1})
    level.admit(0, 0, tenant="b")
    level.admit(1, 1)  # unowned
    level.admit(2, 2, tenant="a")
    level.admit(3, 3)  # unowned
    level.admit(4, 4, tenant="a")  # full, a under quota: oldest of {1, 2, 3}
    assert sorted(level.resident_ids()) == [0, 2, 3, 4]
    level.touch(2, 5)
    level.admit(5, 6, tenant="a")  # a at quota: its own 4, not unowned 3
    assert sorted(level.resident_ids()) == [0, 2, 3, 5]
    level.admit(6, 7, tenant="b")  # b at quota: its own 0
    assert sorted(level.resident_ids()) == [2, 3, 5, 6]
    assert level.tenant_usage() == {"a": 2, "b": 1}
    assert level.tenant_cross_evictions == 0
    level.check_invariants()


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_clear_drops_the_queue(policy):
    """``clear`` restarts the policy's order clock, so a queue built
    before it would rank the refilled blocks by stale positions."""
    queued, reference = _pair(policy, 2, {"a": 1})
    for op in [("frame", None, 0, [0, 1, 2]), ("clear",), ("frame", None, 0, [5, 1, 3])]:
        for level in (queued, reference):
            _apply(level, op, 2, "none")
        _assert_same(queued, reference)
    assert sorted(queued.resident_ids()) == [1, 3]


@pytest.mark.parametrize("policy", ["lru", "fifo"])
def test_quota_install_drops_the_queue(policy):
    """A re-install leaves every block unowned, so a tenant's queue built
    under the old owners would miss its neighbour's former blocks."""
    queued, reference = _pair(policy, 3, {"a": 1, "b": 1})
    ops = [
        ("frame", "b", 0, [0]),
        ("frame", None, 1, [1, 2]),
        ("frame", "a", 3, [3]),  # under quota: pops unowned 1, queue keeps 2
        ("quotas", [1, 1]),
        ("frame", "a", 4, [4]),  # under quota again: oldest is b's former 0
    ]
    for op in ops:
        for level in (queued, reference):
            _apply(level, op, 3, "none")
        _assert_same(queued, reference)
    assert sorted(queued.resident_ids()) == [2, 3, 4]
