"""Tests for LRUPolicy."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.policies.fifo import FIFOPolicy
from repro.policies.lru import LRUPolicy


@pytest.fixture()
def p():
    return LRUPolicy()


class TestLRU:
    def test_victim_is_least_recent(self, p):
        for k in (1, 2, 3):
            p.on_insert(k, k)
        assert p.choose_victim() == 1

    def test_hit_refreshes(self, p):
        for k in (1, 2, 3):
            p.on_insert(k, k)
        p.on_hit(1, 4)
        assert p.choose_victim() == 2

    def test_protected_skipped(self, p):
        for k in (1, 2, 3):
            p.on_insert(k, k)
        assert p.choose_victim(lambda k: k != 1) == 2

    def test_no_candidate_returns_none(self, p):
        p.on_insert(1, 0)
        assert p.choose_victim(lambda k: False) is None

    def test_empty_returns_none(self, p):
        assert p.choose_victim() is None

    def test_evict_removes(self, p):
        p.on_insert(1, 0)
        p.on_insert(2, 1)
        p.on_evict(1)
        assert len(p) == 1
        assert p.choose_victim() == 2

    def test_double_insert_rejected(self, p):
        p.on_insert(1, 0)
        with pytest.raises(KeyError):
            p.on_insert(1, 1)

    def test_reset(self, p):
        p.on_insert(1, 0)
        p.reset()
        assert len(p) == 0

    def test_recency_order(self, p):
        for k in (5, 6, 7):
            p.on_insert(k, k)
        p.on_hit(5, 10)
        assert p.recency_order() == [6, 7, 5]

    def test_eviction_sequence(self, p):
        """Classic LRU trace: insert 1..3, hit 1, then evict twice."""
        for k in (1, 2, 3):
            p.on_insert(k, k)
        p.on_hit(1, 4)
        v1 = p.choose_victim()
        p.on_evict(v1)
        v2 = p.choose_victim()
        assert (v1, v2) == (2, 3)


_HOOKS = ("insert", "hit", "evict", "insert_many", "hit_many", "access_many", "evict_many",
          "reset")


@given(
    policy=st.sampled_from([LRUPolicy, FIFOPolicy]),
    ops=st.lists(
        st.tuples(st.sampled_from(_HOOKS), st.lists(st.integers(0, 99), max_size=8)),
        max_size=40,
    ),
)
@settings(max_examples=200, deadline=None)
def test_tracked_clock_values_stay_distinct(policy, ops):
    """Scalar and batch hooks interleaved on LRU and FIFO: every tracked
    key's ``_seq`` is a different clock value, so the victim order's
    unstable sort is the stable one."""
    p = policy()
    tracked = set()
    for hook, drawn in ops:
        keys = list(dict.fromkeys(drawn))  # unique, in drawn order
        old = [k for k in keys if k in tracked]
        new = [k for k in keys if k not in tracked]
        if hook == "insert":
            for k in new:
                p.on_insert(k, 0)
        elif hook == "hit":
            for k in old:
                p.on_hit(k, 0)
        elif hook == "evict":
            for k in old:
                p.on_evict(k)
        elif hook == "insert_many":
            p.on_insert_many(np.array(new, dtype=np.int64), 0)
        elif hook == "hit_many":
            p.on_hit_many(np.array(old, dtype=np.int64), 0)
        elif hook == "access_many":
            inserted = np.array([k not in tracked for k in keys], dtype=bool)
            p.on_access_many(np.array(keys, dtype=np.int64), inserted, 0)
        elif hook == "evict_many":
            p.on_evict_many(np.array(old, dtype=np.int64))
        else:
            p.reset()
            tracked.clear()
        if hook in ("insert", "insert_many", "access_many"):
            tracked.update(new)
        elif hook in ("evict", "evict_many"):
            tracked.difference_update(old)
        ids = np.array(sorted(tracked), dtype=np.int64)
        seq = p._seq[ids]
        assert len(p) == len(tracked) and (seq >= 0).all()
        assert np.unique(seq).size == seq.size
        order = p.victim_order(np.ones(len(p._seq), dtype=bool))
        assert order.tolist() == ids[np.argsort(seq, kind="stable")].tolist()
