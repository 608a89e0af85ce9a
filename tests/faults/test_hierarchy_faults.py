"""Tests for the hierarchy's resilient read path: retries, breakers,
fallback, drops, and the accounting/trace invariants under injection."""

import math

import numpy as np
import pytest

from repro.faults import DeviceFaultProfile, FaultInjector, FaultPlan, RetryPolicy
from repro.obs.metrics import MetricsRegistry
from repro.policies.registry import make_policy
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import DROPPED, MemoryHierarchy
from repro.trace import FAULT_KINDS, MOVEMENT_KINDS, Tracer

N_BLOCKS = 32
NBYTES = 256


def _hierarchy(policy="lru", cap_fast=4, cap_slow=8):
    levels = [
        CacheLevel("dram", cap_fast, make_policy(policy), n_blocks=N_BLOCKS),
        CacheLevel("ssd", cap_slow, make_policy(policy), n_blocks=N_BLOCKS),
    ]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, NBYTES)


def _plan(seed=0, **device_rates):
    """``_plan(hdd=dict(error_rate=1.0))`` -> a plan for those devices."""
    return FaultPlan(
        seed=seed,
        profiles=tuple(
            DeviceFaultProfile(dev, **kw) for dev, kw in device_rates.items()
        ),
    )


def _byte_ledger_exact(h):
    moved = sum(
        ev.nbytes for ev in h.tracer.events() if ev.kind in MOVEMENT_KINDS
    )
    assert moved == h.backing_bytes + h.stats().total_bytes_read


class TestInstallation:
    def test_breakers_cover_every_device(self):
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(FaultPlan()))
        assert set(h.breakers) == {"dram", "ssd", "hdd"}
        assert isinstance(h.retry_policy, RetryPolicy)

    def test_none_clears(self):
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(FaultPlan()))
        h.set_fault_injector(None)
        assert h.fault_injector is None
        assert h.breakers == {}

    def test_null_injector_is_byte_identical(self):
        a, b = _hierarchy(), _hierarchy()
        b.set_fault_injector(FaultInjector(FaultPlan()))
        io_a = io_b = 0.0
        for i in range(4):
            for k in range(0, N_BLOCKS, 2):
                io_a += a.fetch(k, i, min_free_step=i).time_s
                io_b += b.fetch(k, i, min_free_step=i).time_s
        assert io_a == io_b
        assert a.stats() == b.stats()
        assert a.backing_bytes == b.backing_bytes
        assert not b.fault_injector.stats.any_faults


class TestDropPath:
    def test_certain_backing_failure_drops(self):
        clean = _hierarchy()
        base_t = clean.fetch(0, 0).time_s  # fault-free backing demand read

        h = _hierarchy()
        inj = FaultInjector(_plan(hdd=dict(error_rate=1.0)))
        h.set_fault_injector(inj)
        r = h.fetch(0, 0)
        assert r.dropped
        assert r.source == DROPPED
        assert not r.fastest_hit
        # Every attempt charged, plus the deterministic backoff schedule.
        policy = h.retry_policy
        expected = policy.max_attempts * base_t + sum(
            policy.backoff_s(a) for a in range(policy.max_retries)
        )
        assert r.time_s == pytest.approx(expected, rel=1e-12)
        # Accounting: a drop misses everywhere, moves no bytes, admits nothing.
        for level in h.levels:
            assert level.stats.misses == 1
            assert level.stats.bytes_read == 0
            assert not level._resident[0]
        assert h.backing_reads == 0
        assert h.backing_bytes == 0
        assert inj.stats.total("errors") == policy.max_attempts
        assert inj.stats.total("retries") == policy.max_retries
        assert inj.stats.total("dropped_blocks") == 1

    def test_drop_emits_fault_and_retry_events_only(self):
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(_plan(hdd=dict(error_rate=1.0))))
        h.set_tracer(Tracer())
        r = h.fetch(5, 2)
        kinds = [ev.kind for ev in h.tracer.events()]
        assert set(kinds) <= set(FAULT_KINDS)
        # fault/retry event times sum to the charged io exactly.
        charged = sum(ev.time_s for ev in h.tracer.events())
        assert charged == r.time_s
        _byte_ledger_exact(h)


class TestFallback:
    def test_unreadable_level_falls_back_to_backing(self):
        h = _hierarchy()
        h.levels[1].admit(3, 0)  # resident on the ssd
        inj = FaultInjector(_plan(ssd=dict(error_rate=1.0)))
        h.set_fault_injector(inj)
        r = h.fetch(3, 1)
        assert not r.dropped
        assert r.source == "hdd"  # the backing store saved the read
        # The unreadable ssd copy stays resident (transient faults never
        # evict), and the ssd counts the miss it failed to serve.
        assert h.levels[1]._resident[3]
        assert h.levels[1].stats.misses == 1
        assert h.levels[0]._resident[3]  # still admitted upward
        assert h.backing_reads == 1
        assert inj.stats.total("errors") == h.retry_policy.max_attempts

    def test_open_breaker_skips_device(self):
        h = _hierarchy()
        for k in (1, 2):
            h.levels[1].admit(k, 0)
        inj = FaultInjector(_plan(ssd=dict(error_rate=1.0)))
        # Cooldown far beyond any simulated time: once open, stays open.
        h.set_fault_injector(inj, breaker_threshold=2, breaker_cooldown_s=1e9)
        h.fetch(1, 0)  # ssd fails every attempt; breaker trips open
        assert inj.stats.total("breaker_opens") >= 1

        clean = _hierarchy()
        backing_t = clean.fetch(0, 0).time_s
        r = h.fetch(2, 1)
        # The sick ssd was skipped without a single read: the fetch costs
        # exactly one clean backing read.
        assert r.time_s == backing_t
        assert r.source == "hdd"
        assert inj.stats.total("breaker_skips") == 1

    def test_breaker_half_open_probe_recovers(self):
        h = _hierarchy()
        for k in (1, 2):
            h.levels[1].admit(k, 0)
        inj = FaultInjector(_plan(ssd=dict(error_rate=1.0)))
        h.set_fault_injector(inj, breaker_threshold=2, breaker_cooldown_s=0.0)
        h.fetch(1, 0)
        assert h.breakers["ssd"].opens >= 1
        inj.plan = FaultPlan()  # the device recovers
        r = h.fetch(2, 1)  # zero cooldown: the half-open probe runs, succeeds
        assert r.source == "ssd"
        assert h.breakers["ssd"].state == "closed"


class TestTimeouts:
    def test_spike_beyond_timeout_charges_deadline(self):
        clean = _hierarchy()
        base_t = clean.fetch(0, 0).time_s

        h = _hierarchy()
        inj = FaultInjector(_plan(hdd=dict(spike_rate=1.0, spike_s=10.0)))
        timeout = base_t * 2.0
        h.set_fault_injector(
            inj, retry_policy=RetryPolicy(max_retries=1, read_timeout_s=timeout)
        )
        r = h.fetch(0, 0)
        assert r.dropped  # every (spiked) attempt exceeds the deadline
        assert inj.stats.total("timeouts") == 2
        expected = 2 * timeout + h.retry_policy.backoff_s(0)
        assert r.time_s == pytest.approx(expected, rel=1e-12)


class TestDegraded:
    def test_slow_window_records_degraded_reads(self):
        h = _hierarchy()
        inj = FaultInjector(_plan(hdd=dict(slow_windows=((0, 4, 3.0),))))
        h.set_fault_injector(inj)
        h.set_tracer(Tracer())
        clean = _hierarchy()
        base_t = clean.fetch(0, 2).time_s
        r = h.fetch(0, 2)
        assert not r.dropped
        assert r.time_s == pytest.approx(3.0 * base_t, rel=1e-12)
        assert inj.stats.total("degraded_reads") == 1
        degraded = [ev for ev in h.tracer.events() if ev.kind == "degraded"]
        assert len(degraded) == 1
        # Informational only: carries the *extra* seconds, not the read.
        assert degraded[0].time_s == pytest.approx(2.0 * base_t, rel=1e-12)
        assert degraded[0].nbytes == 0
        # Outside the window the read is nominal again.
        assert h.fetch(1, 5).time_s == pytest.approx(base_t, rel=1e-12)

    def test_degraded_events_outside_time_ledger(self):
        h = _hierarchy()
        h.set_fault_injector(
            FaultInjector(_plan(hdd=dict(slow_windows=((0, 10, 2.0),))))
        )
        h.set_tracer(Tracer())
        total = sum(h.fetch(k, 0).time_s for k in range(6))
        ledger = sum(
            ev.time_s
            for ev in h.tracer.events()
            if ev.kind in MOVEMENT_KINDS or ev.kind in ("fault", "retry")
        )
        assert math.isclose(ledger, total, rel_tol=1e-9)
        _byte_ledger_exact(h)


class TestLedgersUnderFaults:
    def test_lossy_profile_ledgers_hold(self):
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(FaultPlan.from_profile("lossy", seed=7)))
        h.set_tracer(Tracer())
        total = 0.0
        for i in range(5):
            for k in range(0, N_BLOCKS, 3):
                total += h.fetch(k, i, min_free_step=i).time_s
        _byte_ledger_exact(h)
        ledger = sum(
            ev.time_s
            for ev in h.tracer.events()
            if ev.kind in MOVEMENT_KINDS or ev.kind in ("fault", "retry")
        )
        assert math.isclose(ledger, total, rel_tol=1e-9)

    def test_accounting_symmetry(self):
        """Every demand fetch lands exactly one hit or miss per probed level."""
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(FaultPlan.from_profile("lossy", seed=3)))
        n_fetches = 0
        for i in range(6):
            for k in range(0, N_BLOCKS, 2):
                h.fetch(k, i, min_free_step=i)
                n_fetches += 1
        fast = h.levels[0].stats
        assert fast.hits + fast.misses == n_fetches
        for level in h.levels:
            level.check_invariants()


class TestFaultMetrics:
    def test_counters_populated(self):
        h = _hierarchy()
        registry = MetricsRegistry()
        h.set_registry(registry)
        h.set_fault_injector(FaultInjector(_plan(hdd=dict(error_rate=1.0))))
        h.fetch(0, 0)
        errors = registry.get("fault_errors_total", device="hdd")
        retries = registry.get("fault_retries_total", device="hdd")
        drops = registry.get("fault_dropped_blocks_total", device="hdd")
        assert errors.value == h.retry_policy.max_attempts
        assert retries.value == h.retry_policy.max_retries
        assert drops.value == 1

    def test_registry_installed_after_injector_rebinds(self):
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(_plan(hdd=dict(error_rate=1.0))))
        registry = MetricsRegistry()
        h.set_registry(registry)  # drivers install the registry at replay start
        h.fetch(0, 0)
        assert registry.get("fault_errors_total", device="hdd").value > 0

    def test_spike_histogram(self):
        h = _hierarchy()
        registry = MetricsRegistry()
        h.set_registry(registry)
        h.set_fault_injector(
            FaultInjector(_plan(hdd=dict(spike_rate=1.0, spike_s=0.02)))
        )
        h.fetch(0, 0)
        hist = registry.get("fault_spike_seconds", device="hdd")
        assert hist.count >= 1


class TestPrefetchUnderFaults:
    def test_dropped_prefetch_still_counts_as_issued(self):
        h = _hierarchy()
        inj = FaultInjector(_plan(hdd=dict(error_rate=1.0)))
        h.set_fault_injector(inj)
        issued, t = h.prefetch_many(
            np.array([0, 1, 2], dtype=np.int64), 0, max_fetch=8
        )
        assert issued == [0, 1, 2]  # the predictions were acted on
        assert t > 0.0
        assert inj.stats.total("dropped_blocks") == 3
        assert not any(h.levels[0]._resident[k] for k in (0, 1, 2))


class TestUntouchedHierarchyCascades:
    """An injector that names none of a hierarchy's devices (under a retry
    policy with no read timeout) can never change a read there, so batched
    reads take the level cascade and match a per-block ``fetch`` loop —
    which runs the resilient path — exactly."""

    def _twins(self):
        twins = []
        for _ in range(2):
            h = _hierarchy()
            h.set_tracer(Tracer())
            h.set_registry(MetricsRegistry())
            h.set_fault_injector(FaultInjector(_plan(n0_n1=dict(error_rate=1.0))))
            twins.append(h)
        return twins

    def test_matches_the_resilient_fetch_loop(self):
        got, want = self._twins()
        rng = np.random.default_rng(3)
        for step in range(12):
            ids = rng.choice(N_BLOCKS, size=10, replace=False)
            assert got._cascades(ids)
            res = got.fetch_many(ids, step, min_free_step=step)
            total = 0.0
            for key in ids.tolist():
                total += want.fetch(key, step, min_free_step=step).time_s
            assert res.time_s == total
            cands = rng.choice(N_BLOCKS, size=6, replace=False)
            issued, t = got.prefetch_many(cands, step, min_free_step=step, max_fetch=3)
            want_issued, want_t = [], 0.0
            for key in cands.tolist():
                if len(want_issued) >= 3:
                    break
                if key in want.fastest:
                    continue
                want_t += want.fetch(key, step, prefetch=True, min_free_step=step).time_s
                want_issued.append(key)
            assert (issued, t) == (want_issued, want_t)
        assert got.tracer.events() == want.tracer.events()
        assert got.stats() == want.stats()
        assert got._sim_now == want._sim_now
        assert got.fault_injector.stats.as_dict() == want.fault_injector.stats.as_dict()
        snap_got, snap_want = got.registry.snapshot(), want.registry.snapshot()
        assert snap_got["counters"] == snap_want["counters"]
        for key, hist in snap_got["histograms"].items():
            assert hist["count"] == snap_want["histograms"][key]["count"]
            assert hist["sum"] == pytest.approx(snap_want["histograms"][key]["sum"])

    def test_a_named_device_or_a_timeout_keeps_the_loop(self):
        ids = np.arange(4)
        h = _hierarchy()
        h.set_fault_injector(FaultInjector(_plan(ssd=dict(spike_rate=0.0))))
        assert not h._cascades(ids)  # named, even with nothing to draw
        h.set_fault_injector(
            FaultInjector(_plan(n0_n1=dict(error_rate=1.0))),
            retry_policy=RetryPolicy(read_timeout_s=1e-3),
        )
        assert not h._cascades(ids)  # a timeout can fail any slow read
        h.set_fault_injector(None)
        assert h._cascades(ids)
