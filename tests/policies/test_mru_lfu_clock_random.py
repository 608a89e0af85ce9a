"""Tests for the MRU and LFU policies."""


from repro.policies.lfu import LFUPolicy
from repro.policies.mru import MRUPolicy


class TestMRU:
    def test_victim_is_most_recent(self):
        p = MRUPolicy()
        for k in (1, 2, 3):
            p.on_insert(k, k)
        assert p.choose_victim() == 3

    def test_hit_makes_key_the_victim(self):
        p = MRUPolicy()
        for k in (1, 2, 3):
            p.on_insert(k, k)
        p.on_hit(1, 5)
        assert p.choose_victim() == 1

    def test_protected_falls_back(self):
        p = MRUPolicy()
        for k in (1, 2, 3):
            p.on_insert(k, k)
        assert p.choose_victim(lambda k: k != 3) == 2

    def test_evict_tracked(self):
        p = MRUPolicy()
        p.on_insert(1, 0)
        p.on_evict(1)
        assert len(p) == 0 and p.choose_victim() is None


class TestLFU:
    def test_victim_is_least_frequent(self):
        p = LFUPolicy()
        for k in (1, 2, 3):
            p.on_insert(k, 0)
        p.on_hit(1, 1)
        p.on_hit(1, 2)
        p.on_hit(2, 3)
        assert p.choose_victim() == 3

    def test_tie_breaks_by_age(self):
        p = LFUPolicy()
        p.on_insert(10, 0)
        p.on_insert(20, 1)
        assert p.choose_victim() == 10

    def test_protected_skipped(self):
        p = LFUPolicy()
        p.on_insert(1, 0)
        p.on_insert(2, 0)
        p.on_hit(2, 1)
        assert p.choose_victim(lambda k: k != 1) == 2

    def test_victim_survives_until_evict(self):
        """choose_victim must not corrupt state if the cache retries."""
        p = LFUPolicy()
        p.on_insert(1, 0)
        p.on_insert(2, 0)
        assert p.choose_victim() == 1
        assert p.choose_victim() == 1  # idempotent before on_evict
        p.on_evict(1)
        assert p.choose_victim() == 2

    def test_frequency_counter(self):
        p = LFUPolicy()
        p.on_insert(1, 0)
        p.on_hit(1, 1)
        assert p.frequency(1) == 2

    def test_stale_heap_entries_ignored(self):
        p = LFUPolicy()
        p.on_insert(1, 0)
        p.on_insert(2, 0)
        p.on_hit(1, 1)  # key 1 now has a stale count-1 entry in the heap
        assert p.choose_victim() == 2

    def test_reset(self):
        p = LFUPolicy()
        p.on_insert(1, 0)
        p.reset()
        assert len(p) == 0 and p.choose_victim() is None
