"""Tests for the MRU policy."""


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

