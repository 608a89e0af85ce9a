"""Tests for the deterministic fault plan and its counter-based draws."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.faults import FAULT_PROFILES, DeviceFaultProfile, FaultInjector, FaultPlan, unit_draw
from repro.faults.plan import _device_id, unit_draws


class TestUnitDraw:
    def test_deterministic(self):
        assert unit_draw(42, 1, 2, 3) == unit_draw(42, 1, 2, 3)

    def test_in_unit_interval(self):
        for seed in range(20):
            for parts in [(0,), (1, 2), (7, 8, 9, 10)]:
                u = unit_draw(seed, *parts)
                assert 0.0 <= u < 1.0

    def test_sensitive_to_every_argument(self):
        base = unit_draw(1, 2, 3, 4)
        assert unit_draw(2, 2, 3, 4) != base
        assert unit_draw(1, 9, 3, 4) != base
        assert unit_draw(1, 2, 9, 4) != base
        assert unit_draw(1, 2, 3, 9) != base

    def test_roughly_uniform(self):
        n = 4000
        draws = [unit_draw(0, k) for k in range(n)]
        assert abs(sum(draws) / n - 0.5) < 0.03
        assert sum(1 for u in draws if u < 0.25) / n == pytest.approx(0.25, abs=0.03)


class TestDeviceFaultProfile:
    def test_rate_validation(self):
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", error_rate=1.5)
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", spike_rate=-0.1)
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", corruption_rate=2.0)
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", spike_s=-1.0)

    def test_window_validation(self):
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", slow_windows=((5, 5, 2.0),))
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", slow_windows=((0, 10, 0.5),))
        with pytest.raises(ValueError):
            DeviceFaultProfile("hdd", slow_windows=((0, 10),))  # type: ignore[arg-type]

    def test_is_null(self):
        assert DeviceFaultProfile("hdd").is_null
        assert not DeviceFaultProfile("hdd", error_rate=0.1).is_null
        assert not DeviceFaultProfile("hdd", slow_windows=((0, 4, 2.0),)).is_null


class TestFaultPlan:
    def test_duplicate_device_rejected(self):
        with pytest.raises(ValueError, match="duplicate"):
            FaultPlan(profiles=(DeviceFaultProfile("hdd"), DeviceFaultProfile("hdd")))

    def test_null_plan_never_injects(self):
        plan = FaultPlan(seed=3)
        assert plan.is_null
        for key in range(50):
            assert not plan.fails("hdd", key, 0, 0)
            assert plan.spike_s("hdd", key, 0, 0) == 0.0
            assert plan.slowdown("hdd", key) == 1.0
            assert not plan.corrupts("hdd", key, 0)

    def test_queries_are_pure(self):
        plan = FaultPlan.from_profile("chaos", seed=11)
        args = ("hdd", 17, 3, 1)
        assert plan.fails(*args) == plan.fails(*args)
        assert plan.spike_s(*args) == plan.spike_s(*args)
        assert plan.corrupts("hdd", 17, 1) == plan.corrupts("hdd", 17, 1)

    def test_seed_changes_draws(self):
        a = FaultPlan.from_profile("lossy", seed=0)
        b = FaultPlan.from_profile("lossy", seed=1)
        diffs = sum(
            a.fails("hdd", k, s, 0) != b.fails("hdd", k, s, 0)
            for k in range(40)
            for s in range(5)
        )
        assert diffs > 0

    def test_retries_draw_independently(self):
        plan = FaultPlan(
            seed=0, profiles=(DeviceFaultProfile("hdd", error_rate=0.5),)
        )
        outcomes = {plan.fails("hdd", 3, 0, attempt) for attempt in range(16)}
        assert outcomes == {True, False}

    def test_error_rate_respected_empirically(self):
        plan = FaultPlan(
            seed=9, profiles=(DeviceFaultProfile("hdd", error_rate=0.3),)
        )
        n = 3000
        rate = sum(plan.fails("hdd", k, 0, 0) for k in range(n)) / n
        assert rate == pytest.approx(0.3, abs=0.04)

    def test_unlisted_device_unaffected(self):
        plan = FaultPlan(
            seed=0, profiles=(DeviceFaultProfile("hdd", error_rate=1.0),)
        )
        assert plan.fails("hdd", 0, 0, 0)
        assert not plan.fails("ssd", 0, 0, 0)
        assert plan.profile_for("ssd") is None

    def test_slowdown_windows(self):
        plan = FaultPlan(
            profiles=(
                DeviceFaultProfile(
                    "ssd", slow_windows=((4, 8, 2.0), (6, 10, 5.0))
                ),
            )
        )
        assert plan.slowdown("ssd", 3) == 1.0
        assert plan.slowdown("ssd", 4) == 2.0
        assert plan.slowdown("ssd", 7) == 5.0  # overlapping: the max wins
        assert plan.slowdown("ssd", 9) == 5.0
        assert plan.slowdown("ssd", 10) == 1.0

    def test_spike_magnitude(self):
        plan = FaultPlan(
            seed=1,
            profiles=(DeviceFaultProfile("hdd", spike_rate=1.0, spike_s=0.04),),
        )
        assert plan.spike_s("hdd", 0, 0, 0) == 0.04


class TestNamedProfiles:
    def test_registry_contents(self):
        assert FAULT_PROFILES == ("chaos", "degraded-ssd", "flaky-hdd", "lossy", "none")

    def test_all_profiles_construct(self):
        for name in FAULT_PROFILES:
            plan = FaultPlan.from_profile(name, seed=5)
            assert plan.seed == 5
            assert plan.is_null == (name == "none")

    def test_unknown_profile_rejected(self):
        with pytest.raises(ValueError, match="unknown fault profile"):
            FaultPlan.from_profile("cosmic-rays")

    def test_as_dict_round_trips_shape(self):
        doc = FaultPlan.from_profile("chaos", seed=2).as_dict()
        assert doc["seed"] == 2
        devices = {d["device"] for d in doc["devices"]}
        assert devices == {"hdd", "ssd"}
        for d in doc["devices"]:
            assert set(d) == {
                "device", "error_rate", "spike_rate", "spike_s",
                "slow_windows", "corruption_rate",
            }


class TestArrayDraws:
    """The array draws a batched caller makes are the per-key draws."""

    @given(
        seed=st.integers(-(2**63), 2**64 - 1),
        link=st.sampled_from(["n0-n1", "n0-n2", "n2-n3", "hdd"]),
        keys=st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
        step=st.integers(-1, 10**6),
        attempt=st.integers(0, 7),
        channel=st.integers(1, 3),
    )
    @settings(max_examples=150, deadline=None)
    def test_unit_draws_bit_equal_to_unit_draw(self, seed, link, keys, step, attempt, channel):
        dev = _device_id(link)
        got = unit_draws(seed, dev, np.array(keys, dtype=np.int64), step, attempt, channel)
        want = [unit_draw(seed, dev, k, step, attempt, channel) for k in keys]
        assert got.tolist() == want  # float ==: the same bits

    @given(
        seed=st.integers(0, 2**32),
        keys=st.lists(st.integers(0, 2**40), min_size=1, max_size=40),
        step=st.integers(0, 40),
        attempt=st.integers(0, 3),
        rate=st.sampled_from([0.05, 0.5, 1.0]),
    )
    @settings(max_examples=100, deadline=None)
    def test_fails_and_spikes_many_match_the_scalar_queries(
        self, seed, keys, step, attempt, rate
    ):
        link = "n0-n1"
        plan = FaultPlan(seed, (
            DeviceFaultProfile(link, error_rate=rate, spike_rate=rate, spike_s=0.003),
        ))
        arr = np.array(keys, dtype=np.int64)
        assert plan.fails_many(link, arr, step, attempt).tolist() == [
            plan.fails(link, k, step, attempt) for k in keys
        ]
        spikes = [plan.spike_s(link, k, step, attempt) for k in keys]
        assert plan.spike_s_many(link, arr, step, attempt).tolist() == spikes
        # the injector counts each positive spike, as the per-key calls do
        inj = FaultInjector(plan)
        inj.spike_s_many(link, arr, step, attempt)
        assert inj.stats.total("spikes") == sum(s > 0 for s in spikes)
        # an unnamed device never faults
        assert not plan.fails_many("n0-n2", arr, step, attempt).any()
        assert not plan.spike_s_many("n0-n2", arr, step, attempt).any()
