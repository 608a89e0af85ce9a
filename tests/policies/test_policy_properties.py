"""Property-based tests: every policy obeys the cache-policy contract,
LRU/FIFO match reference implementations, Belady is never worse.
"""

from collections import OrderedDict

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.arc import ARCPolicy
from repro.policies.belady import BeladyPolicy
from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy

traces = st.lists(st.integers(0, 12), min_size=1, max_size=120)
capacities = st.integers(1, 8)


def simulate(policy, trace, capacity):
    """Reference cache loop; returns (misses, resident_set)."""
    resident = set()
    misses = 0
    for t, key in enumerate(trace):
        if key in resident:
            policy.on_hit(key, t)
        else:
            misses += 1
            if len(resident) >= capacity:
                victim = policy.choose_victim()
                assert victim in resident, "victim must be resident"
                policy.on_evict(victim)
                resident.discard(victim)
            policy.on_insert(key, t)
            resident.add(key)
        assert len(policy) == len(resident), "policy tracking diverged"
        assert len(resident) <= capacity
    return misses, resident


def fresh_policies(trace, capacity):
    arc = ARCPolicy(capacity=capacity)
    return [
        LRUPolicy(),
        FIFOPolicy(),
        arc,
        BeladyPolicy(trace),
    ]


class TestContract:
    @given(traces, capacities)
    @settings(max_examples=60, deadline=None)
    def test_all_policies_complete_any_trace(self, trace, capacity):
        """Every policy finishes every trace with consistent bookkeeping.

        (The invariants — victim residency, tracking size, capacity — are
        asserted inside :func:`simulate` on every access.)
        """
        for policy in fresh_policies(trace, capacity):
            misses, _ = simulate(policy, trace, capacity)
            assert misses >= 1  # the first access always misses

    @given(traces, capacities)
    @settings(max_examples=60, deadline=None)
    def test_compulsory_misses_lower_bound(self, trace, capacity):
        """No policy can miss fewer times than the number of distinct keys."""
        for policy in fresh_policies(trace, capacity):
            misses, _ = simulate(policy, trace, capacity)
            assert misses >= len(set(trace))


class TestLRUReference:
    @given(traces, capacities)
    @settings(max_examples=80, deadline=None)
    def test_matches_ordereddict_lru(self, trace, capacity):
        policy = LRUPolicy()
        ref: "OrderedDict[int, None]" = OrderedDict()
        for t, key in enumerate(trace):
            if key in ref:
                ref.move_to_end(key)
                policy.on_hit(key, t)
            else:
                if len(ref) >= capacity:
                    victim_ref, _ = ref.popitem(last=False)
                    victim = policy.choose_victim()
                    assert victim == victim_ref
                    policy.on_evict(victim)
                ref[key] = None
                policy.on_insert(key, t)


class TestFIFOReference:
    @given(traces, capacities)
    @settings(max_examples=80, deadline=None)
    def test_matches_queue_fifo(self, trace, capacity):
        policy = FIFOPolicy()
        queue = []
        for t, key in enumerate(trace):
            if key in queue:
                policy.on_hit(key, t)
            else:
                if len(queue) >= capacity:
                    victim_ref = queue.pop(0)
                    victim = policy.choose_victim()
                    assert victim == victim_ref
                    policy.on_evict(victim)
                queue.append(key)
                policy.on_insert(key, t)


class TestBeladyOptimality:
    @given(traces, capacities)
    @settings(max_examples=80, deadline=None)
    def test_never_worse_than_online_policies(self, trace, capacity):
        belady_misses, _ = simulate(BeladyPolicy(trace), trace, capacity)
        for policy in (LRUPolicy(), FIFOPolicy(), ARCPolicy(capacity=capacity)):
            misses, _ = simulate(policy, trace, capacity)
            assert belady_misses <= misses

    @given(traces)
    @settings(max_examples=30, deadline=None)
    def test_no_capacity_misses_when_cache_fits_all(self, trace):
        capacity = len(set(trace))
        misses, _ = simulate(BeladyPolicy(trace), trace, capacity)
        assert misses == capacity
