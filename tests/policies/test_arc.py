"""Tests for the ARC policy."""

import numpy as np
import pytest

from repro.policies.arc import ARCPolicy


@pytest.fixture()
def arc():
    p = ARCPolicy()
    p.set_capacity(4)
    return p


class TestARCBasics:
    def test_requires_capacity(self):
        p = ARCPolicy()
        p.on_hit  # attribute access fine
        with pytest.raises(RuntimeError):
            p.on_insert(1, 0)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ARCPolicy().set_capacity(0)

    def test_new_keys_go_to_t1(self, arc):
        arc.on_insert(1, 0)
        arc.on_insert(2, 0)
        sizes = arc.list_sizes()
        assert sizes["t1"] == 2 and sizes["t2"] == 0

    def test_hit_promotes_to_t2(self, arc):
        arc.on_insert(1, 0)
        arc.on_hit(1, 1)
        sizes = arc.list_sizes()
        assert sizes["t1"] == 0 and sizes["t2"] == 1

    def test_t2_hit_stays_in_t2(self, arc):
        arc.on_insert(1, 0)
        arc.on_hit(1, 1)
        arc.on_hit(1, 2)
        assert arc.list_sizes()["t2"] == 1

    def test_hit_untracked_rejected(self, arc):
        with pytest.raises(KeyError):
            arc.on_hit(9, 0)

    def test_double_insert_rejected(self, arc):
        arc.on_insert(1, 0)
        with pytest.raises(KeyError):
            arc.on_insert(1, 1)

    def test_hit_many_is_per_key_case_one(self, arc):
        ref = ARCPolicy()
        ref.set_capacity(4)
        for p in (arc, ref):
            for k in (1, 2, 3):
                p.on_insert(k, 0)
            p.on_hit(2, 1)
        arc.on_hit_many(np.array([3, 2, 1]), 2)
        for k in (3, 2, 1):
            ref.on_hit(k, 2)
        assert list(arc._t1) == list(ref._t1) and list(arc._t2) == list(ref._t2)

    def test_hit_many_untracked_rejected(self, arc):
        arc.on_insert(1, 0)
        with pytest.raises(KeyError):
            arc.on_hit_many(np.array([1, 9]), 1)


class TestARCGhosts:
    def test_evicted_t1_key_becomes_b1_ghost(self, arc):
        arc.on_insert(1, 0)
        arc.on_evict(1)
        assert arc.list_sizes()["b1"] == 1
        assert len(arc) == 0

    def test_b1_ghost_hit_raises_p_and_promotes(self, arc):
        arc.on_insert(1, 0)
        arc.on_evict(1)
        p_before = arc.p
        arc.on_insert(1, 1)  # ghost hit
        assert arc.p > p_before
        sizes = arc.list_sizes()
        assert sizes["t2"] == 1 and sizes["b1"] == 0

    def test_b2_ghost_hit_lowers_p(self, arc):
        arc.on_insert(1, 0)
        arc.on_hit(1, 1)  # 1 in T2
        arc.on_evict(1)  # -> B2
        arc.on_insert(2, 2)
        arc.on_evict(2)  # -> B1
        arc.on_insert(2, 3)  # B1 hit raises p
        p_mid = arc.p
        arc.on_insert(1, 4)  # B2 hit lowers p
        assert arc.p < p_mid

    def test_ghost_lists_trimmed(self):
        arc = ARCPolicy(capacity=2)
        # Run a long one-shot scan: B1 must stay bounded near capacity.
        for k in range(50):
            arc.on_insert(k, k)
            victim = arc.choose_victim()
            if victim is not None and len(arc) > 2:
                arc.on_evict(victim)
        assert arc.list_sizes()["b1"] <= 2 + 1


class TestARCVictims:
    def test_prefers_t1_when_t1_large(self, arc):
        for k in (1, 2, 3, 4):
            arc.on_insert(k, 0)
        assert arc.choose_victim() == 1  # LRU of T1 (p == 0)

    def test_victim_from_t2_when_p_high(self, arc):
        # Fill T2 only.
        for k in (1, 2):
            arc.on_insert(k, 0)
            arc.on_hit(k, 1)
        v = arc.choose_victim()
        assert v == 1  # LRU of T2

    def test_protected_skipped(self, arc):
        for k in (1, 2, 3):
            arc.on_insert(k, 0)
        assert arc.choose_victim(lambda k: k != 1) == 2

    def test_none_when_all_protected(self, arc):
        arc.on_insert(1, 0)
        assert arc.choose_victim(lambda k: False) is None

    def test_reset(self, arc):
        arc.on_insert(1, 0)
        arc.on_evict(1)
        arc.reset()
        assert len(arc) == 0
        assert arc.list_sizes() == {"t1": 0, "t2": 0, "b1": 0, "b2": 0}
        assert arc.p == 0.0


class TestARCAdaptivity:
    def _churn(self, arc, keys, capacity):
        """Insert keys, evicting via the policy whenever over capacity."""
        for k in keys:
            if len(arc) >= capacity:
                victim = arc.choose_victim()
                arc.on_evict(victim)
            arc.on_insert(k, 0)

    def test_b1_ghost_reinsert_raises_p(self):
        arc = ARCPolicy(capacity=4)
        # Promote two keys to T2 so T1 stays below capacity and evicted
        # T1 keys survive as B1 ghosts (under a pure scan ARC drops them).
        for k in (100, 101):
            arc.on_insert(k, 0)
            arc.on_hit(k, 1)
        self._churn(arc, range(6), 4)
        assert arc.list_sizes()["b1"] > 0
        # B1 is trimmed to |T1|+|B1| <= c, so only the *youngest* evicted
        # keys survive as ghosts; key 3 was evicted last during the churn.
        ghost = 3
        before = arc.p
        if len(arc) >= 4:
            arc.on_evict(arc.choose_victim())
        arc.on_insert(ghost, 0)
        assert arc.p > before

    def test_p_never_negative_or_above_capacity(self):
        arc = ARCPolicy(capacity=4)
        self._churn(arc, range(20), 4)
        assert 0.0 <= arc.p <= 4.0
