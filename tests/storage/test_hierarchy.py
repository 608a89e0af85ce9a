"""Tests for the multi-level memory hierarchy."""

import copy

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FaultInjector, FaultPlan
from repro.policies.lru import LRUPolicy
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import MemoryHierarchy, make_standard_hierarchy


def tiny(block_nbytes=1024, dram=2, ssd=4):
    levels = [CacheLevel("dram", dram, LRUPolicy()), CacheLevel("ssd", ssd, LRUPolicy())]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, block_nbytes)


class TestConstruction:
    def test_requires_levels(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([], [], HDD, 1024)

    def test_device_count_mismatch(self):
        with pytest.raises(ValueError):
            MemoryHierarchy([CacheLevel("a", 1, LRUPolicy())], [], HDD, 1024)

    def test_duplicate_names_rejected(self):
        levels = [CacheLevel("x", 1, LRUPolicy()), CacheLevel("x", 1, LRUPolicy())]
        with pytest.raises(ValueError, match="duplicate"):
            MemoryHierarchy(levels, [DRAM, SSD], HDD, 1024)

    def test_block_size_is_one_positive_number(self):
        """Every block has one size, checked when either hierarchy is built:
        a per-block size function, 0 and a negative size all raise."""
        from repro.cluster import NetworkFabric, ShardedHierarchy, ShardMap
        from repro.volume.blocks import BlockGrid

        grid = BlockGrid((16, 16, 16), (8, 8, 8))

        def sharded(block_nbytes):
            node = make_standard_hierarchy(grid.n_blocks, 1024)
            return ShardedHierarchy(ShardMap(grid, 1), [node], NetworkFabric(1), block_nbytes)

        assert tiny().block_nbytes(4) == 1024
        assert sharded(1024).block_nbytes(4) == 1024
        for build in (tiny, sharded):
            with pytest.raises(TypeError):
                build(lambda k: 10 * (k + 1))
            for size in (0, -1):
                with pytest.raises(ValueError, match="block_nbytes must be > 0"):
                    build(size)


class TestReadPath:
    def test_cold_fetch_comes_from_backing(self):
        h = tiny()
        res = h.fetch(1, step=0)
        assert res.source == "hdd"
        assert not res.fastest_hit
        assert res.time_s == pytest.approx(HDD.read_time(1024))
        assert h.backing_reads == 1

    def test_cold_fetch_populates_all_levels(self):
        h = tiny()
        h.fetch(1, 0)
        assert 1 in h.levels[0] and 1 in h.levels[1]

    def test_second_fetch_hits_fastest(self):
        h = tiny()
        h.fetch(1, 0)
        res = h.fetch(1, 1)
        assert res.fastest_hit
        assert res.source == "dram"
        assert res.time_s == pytest.approx(DRAM.read_time(1024))

    def test_ssd_hit_after_dram_eviction(self):
        h = tiny(dram=1, ssd=4)
        h.fetch(1, 0)
        h.fetch(2, 1)  # evicts 1 from dram; 1 stays in ssd
        res = h.fetch(1, 2)
        assert res.source == "ssd"
        assert res.time_s == pytest.approx(SSD.read_time(1024))
        assert 1 in h.levels[0]  # promoted back

    def test_miss_counted_per_level(self):
        h = tiny()
        h.fetch(1, 0)
        stats = h.stats()
        assert stats.levels["dram"].misses == 1
        assert stats.levels["ssd"].misses == 1
        h.fetch(1, 1)
        assert stats.levels["dram"].hits == 1
        assert stats.levels["ssd"].hits == 0  # served at dram, ssd untouched

    def test_total_miss_rate(self):
        h = tiny()
        h.fetch(1, 0)  # dram miss + ssd miss
        h.fetch(1, 1)  # dram hit
        # accesses: dram 2, ssd 1; misses: dram 1, ssd 1
        assert h.stats().total_miss_rate == pytest.approx(2 / 3)


class TestPrefetchPath:
    def test_prefetch_counts_separately(self):
        h = tiny()
        h.fetch(1, 0, prefetch=True)
        stats = h.stats()
        assert stats.levels["dram"].prefetch_misses == 1
        assert stats.levels["dram"].misses == 0
        assert stats.total_miss_rate == 0.0

    def test_prefetch_hit_does_not_touch_recency(self):
        h = tiny(dram=2)
        h.fetch(1, 0)
        h.fetch(2, 1)
        h.fetch(1, 2, prefetch=True)  # would refresh 1 if it touched
        h.fetch(3, 3)  # evicts LRU
        assert 1 not in h.levels[0]  # 1 stayed LRU despite the prefetch hit
        assert 2 in h.levels[0]

    def test_demand_after_prefetch_hits(self):
        h = tiny()
        h.fetch(5, 0, prefetch=True)
        res = h.fetch(5, 1)
        assert res.fastest_hit
        assert h.stats().levels["dram"].misses == 0


class TestMinFreeStep:
    def test_bypass_propagates(self):
        h = tiny(dram=1, ssd=1)
        h.fetch(1, step=3)
        res = h.fetch(2, step=3, min_free_step=3)
        # Block 1 was used at step 3 -> protected; insert bypassed.
        assert 2 not in h.levels[0]
        assert res.source == "hdd"
        assert h.levels[0].stats.bypasses == 1

    def test_older_blocks_replaced(self):
        h = tiny(dram=1, ssd=2)
        h.fetch(1, step=0)
        h.fetch(2, step=3, min_free_step=3)
        assert 2 in h.levels[0]
        assert 1 not in h.levels[0]


class TestByteAccounting:
    """Bytes are charged exactly once per fetch, at the serving source."""

    def test_known_trace_total_bytes_pinned(self):
        h = tiny(block_nbytes=1024, dram=1, ssd=4)
        h.fetch(1, 0)  # cold: hdd -> backing_bytes 1024
        h.fetch(1, 1)  # dram hit -> dram bytes_read 1024
        h.fetch(2, 2)  # cold: hdd (evicts 1 from dram) -> backing 1024
        h.fetch(1, 3)  # ssd hit -> ssd bytes_read 1024
        h.fetch(1, 4)  # dram hit -> dram bytes_read 1024
        stats = h.stats()
        assert h.backing_bytes == 2 * 1024
        assert stats.levels["dram"].bytes_read == 2 * 1024
        assert stats.levels["ssd"].bytes_read == 1 * 1024
        # The bytes_moved ledger: one charge per fetch, five fetches.
        assert h.backing_bytes + stats.total_bytes_read == 5 * 1024

    def test_fastest_hit_charges_bytes(self):
        h = tiny(block_nbytes=2048)
        h.fetch(3, 0)
        before = h.stats().levels["dram"].bytes_read
        h.fetch(3, 1)
        assert h.stats().levels["dram"].bytes_read == before + 2048

    def test_prefetch_bytes_charged_at_source(self):
        h = tiny(block_nbytes=512)
        h.fetch(9, 0, prefetch=True)  # cold prefetch from backing
        assert h.backing_bytes == 512
        h.fetch(9, 1, prefetch=True)  # fastest-level prefetch hit
        assert h.stats().levels["dram"].bytes_read == 512

    def test_every_fetch_charges_exactly_once(self):
        h = tiny(block_nbytes=100, dram=2, ssd=4)
        n_fetches = 0
        for step, key in enumerate([1, 2, 3, 1, 4, 2, 5, 1, 3]):
            h.fetch(key, step)
            n_fetches += 1
        total = h.backing_bytes + h.stats().total_bytes_read
        assert total == n_fetches * 100


class TestTenants:
    """A tenant that no quota level knows raises before anything is booked,
    on the per-block fetch as on ``fetch_many``."""

    @staticmethod
    def _quota_hierarchy(faults):
        h = make_standard_hierarchy(64, 4096, policy="lru")
        h.set_tenant_quotas({"a": 0.5})
        if faults is not None:
            h.set_fault_injector(FaultInjector(FaultPlan.from_profile(faults, seed=1)))
        return h

    @staticmethod
    def _ledger(h):
        return h.backing_reads, h.backing_bytes, [(copy.copy(lv.stats), len(lv)) for lv in h.levels]

    @pytest.mark.parametrize("faults", [None, "flaky-hdd"])
    @pytest.mark.parametrize("prefetch", [False, True])
    def test_per_block_fetch_of_a_missing_block(self, faults, prefetch):
        h = self._quota_hierarchy(faults)
        h.fetch(1, 0, tenant="a")
        before = self._ledger(h)
        with pytest.raises(KeyError, match="unknown tenant"):
            h.fetch(5, 1, prefetch=prefetch, tenant="z")
        assert self._ledger(h) == before
        h.check_invariants()

    def test_block_held_below_the_fastest_level(self):
        h = self._quota_hierarchy(None)
        h.fetch(1, 0, tenant="a")
        h.levels[0].evict(1)
        before = self._ledger(h)
        with pytest.raises(KeyError, match="unknown tenant"):
            h.fetch(1, 1, tenant="z")
        assert self._ledger(h) == before

    def test_fastest_hit_admits_nothing(self):
        """Nothing to admit, nothing to resolve: as a frame of hits in
        ``fetch_many``."""
        h = self._quota_hierarchy(None)
        h.fetch(1, 0, tenant="a")
        assert h.fetch(1, 1, tenant="z").fastest_hit
        assert h.fetch_many(np.array([1]), 2, tenant="z").n_fastest_hits == 1

    def test_fetch_many_of_a_missing_block(self):
        h = self._quota_hierarchy(None)
        before = self._ledger(h)
        with pytest.raises(KeyError, match="unknown tenant"):
            h.fetch_many(np.array([5]), 1, tenant="z")
        assert self._ledger(h) == before


class TestPreload:
    def test_inclusive_fill(self):
        h = tiny(dram=2, ssd=4)
        placed = h.preload([10, 11, 12, 13, 14])
        assert placed == {"dram": 2, "ssd": 4}
        assert 10 in h.levels[0] and 10 in h.levels[1]
        assert 12 not in h.levels[0] and 12 in h.levels[1]

    def test_preloaded_hit_costs_nothing_extra(self):
        h = tiny()
        h.preload([1])
        res = h.fetch(1, 0)
        assert res.fastest_hit


class TestLifecycle:
    def test_reset_stats(self):
        h = tiny()
        h.fetch(1, 0)
        h.reset_stats()
        assert h.stats().total_accesses == 0
        assert h.backing_reads == 0
        assert 1 in h.levels[0]  # residency preserved

    def test_clear(self):
        h = tiny()
        h.fetch(1, 0)
        h.clear()
        assert len(h.levels[0]) == 0 and len(h.levels[1]) == 0

    def test_check_invariants(self):
        h = tiny()
        h.fetch(1, 0)
        h.check_invariants()


class TestMakeStandardHierarchy:
    def test_paper_ratios(self):
        h = make_standard_hierarchy(n_blocks=100, block_nbytes=1024, cache_ratio=0.5)
        assert h.levels[0].name == "dram"
        assert h.levels[1].name == "ssd"
        assert h.levels[1].capacity == 50
        assert h.levels[0].capacity == 25

    def test_ratio_07(self):
        h = make_standard_hierarchy(n_blocks=100, block_nbytes=1024, cache_ratio=0.7)
        assert h.levels[1].capacity == 70
        assert h.levels[0].capacity == 49

    def test_policy_instances_independent(self):
        h = make_standard_hierarchy(10, 1024, policy="lru")
        assert h.levels[0].policy is not h.levels[1].policy

    def test_invalid_ratio(self):
        with pytest.raises(ValueError):
            make_standard_hierarchy(10, 1024, cache_ratio=0.0)

    def test_invalid_blocks(self):
        with pytest.raises(ValueError):
            make_standard_hierarchy(0, 1024)


class TestHierarchyProperties:
    @given(
        st.lists(st.integers(0, 20), min_size=1, max_size=200),
        st.integers(1, 5),
        st.integers(1, 10),
    )
    @settings(max_examples=40, deadline=None)
    def test_invariants_hold_on_any_trace(self, trace, dram_cap, ssd_extra):
        h = tiny(dram=dram_cap, ssd=dram_cap + ssd_extra)
        for step, key in enumerate(trace):
            h.fetch(key, step)
            h.check_invariants()
        stats = h.stats()
        dram = stats.levels["dram"]
        assert dram.hits + dram.misses == len(trace)
        # Every block ever admitted was either evicted or is still resident.
        for level in h.levels:
            assert level.stats.inserts - level.stats.evictions == len(level)

    @given(st.lists(st.integers(0, 8), min_size=1, max_size=100))
    @settings(max_examples=30, deadline=None)
    def test_total_time_monotone_in_misses(self, trace):
        """A bigger DRAM never yields more backing reads."""
        def backing_reads(dram_cap):
            h = tiny(dram=dram_cap, ssd=16)
            for step, key in enumerate(trace):
                h.fetch(key, step)
            return h.backing_reads

        assert backing_reads(4) <= backing_reads(1) + len(set(trace))
        # Backing reads are at least the compulsory misses.
        assert backing_reads(4) >= len(set(trace))
