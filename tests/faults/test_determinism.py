"""Seed determinism and fault-free byte-identity at the driver level.

``"batched"`` runs the runtime driver; ``"scalar"`` the seed driver's
per-block loop (one ``hierarchy.fetch`` per block) as the reference.
"""

import pytest

from repro.camera.path import spherical_path
from repro.cluster import make_sharded_hierarchy
from repro.core.pipeline import PipelineContext
from repro.runtime import run_baseline
from repro.experiments.runner import compare_policies, fresh_hierarchy
from repro.faults import FaultInjector, FaultPlan
from repro.runtime.config import RunConfig
from repro.trace import Tracer
from repro.volume.blocks import BlockGrid

from tests.runtime._seed_drivers import seed_run_baseline


@pytest.fixture(scope="module")
def small_context():
    grid = BlockGrid((16, 16, 16), (8, 8, 8))
    path = spherical_path(
        n_positions=6, degrees_per_step=6.0, distance=2.5,
        view_angle_deg=20.0, seed=7,
    )
    return grid, PipelineContext.create(path, grid)


def _baseline(context, hierarchy, replay, **kwargs):
    if replay == "scalar":
        return seed_run_baseline(context, hierarchy, engine="scalar", **kwargs)
    return run_baseline(context, hierarchy, **kwargs)


def _faulty_run(grid, context, profile, seed, replay):
    h = fresh_hierarchy(grid)
    h.set_fault_injector(FaultInjector(FaultPlan.from_profile(profile, seed=seed)))
    tracer = Tracer()
    result = _baseline(context, h, replay, tracer=tracer)
    events = [
        (ev.kind, ev.step, ev.level, ev.key, ev.nbytes, ev.time_s)
        for ev in tracer.events()
    ]
    return result, events


class TestSeedDeterminism:
    @pytest.mark.parametrize("replay", ["scalar", "batched"])
    def test_identical_runs_same_seed(self, small_context, replay):
        grid, context = small_context
        a, ev_a = _faulty_run(grid, context, "lossy", 11, replay)
        b, ev_b = _faulty_run(grid, context, "lossy", 11, replay)
        assert a.steps == b.steps
        assert a.hierarchy_stats == b.hierarchy_stats
        assert a.extras == b.extras
        assert ev_a == ev_b  # full trace, event for event

    def test_engines_identical_under_faults(self, small_context):
        grid, context = small_context
        a, _ = _faulty_run(grid, context, "lossy", 11, "scalar")
        b, _ = _faulty_run(grid, context, "lossy", 11, "batched")
        assert a.steps == b.steps
        assert a.hierarchy_stats == b.hierarchy_stats
        assert a.extras == b.extras

    def test_different_seed_different_faults(self, small_context):
        grid, context = small_context
        a, _ = _faulty_run(grid, context, "lossy", 0, "batched")
        b, _ = _faulty_run(grid, context, "lossy", 1, "batched")
        assert a.extras["fault_stats"] != b.extras["fault_stats"]


class TestFaultFreeByteIdentity:
    @pytest.mark.parametrize("replay", ["scalar", "batched"])
    def test_null_plan_matches_no_injector(self, small_context, replay):
        grid, context = small_context
        plain = _baseline(context, fresh_hierarchy(grid), replay)
        wrapped, _ = _faulty_run(grid, context, "none", 0, replay)
        # Identical replay: clocks, stats, ledger — byte for byte.
        assert wrapped.steps == plain.steps
        assert wrapped.hierarchy_stats == plain.hierarchy_stats
        for key, value in plain.extras.items():
            assert wrapped.extras[key] == value
        # The only difference: the gated fault keys exist (and are clean).
        assert wrapped.extras["dropped_blocks"] == 0.0
        assert wrapped.extras["degraded_frames"] == 0.0
        assert wrapped.extras["fault_stats"]["errors"] == 0

    def test_plain_run_has_no_fault_keys(self, small_context):
        grid, context = small_context
        plain = run_baseline(context, fresh_hierarchy(grid))
        assert "dropped_blocks" not in plain.extras
        assert "fault_stats" not in plain.extras
        assert "dropped_blocks" not in plain.summary()


class TestComparePoliciesFaults:
    def test_policies_share_the_fault_environment(self, small_context):
        grid, context = small_context
        setup = _StubSetup(grid, context)
        results = compare_policies(
            setup, context.path, baselines=("fifo", "lru"),
            include_app_aware=False, faults="lossy", fault_seed=4,
        )
        assert set(results) == {"fifo", "lru"}
        for res in results.values():
            assert "fault_stats" in res.extras
        # Deterministic: the identical call reproduces every number.
        again = compare_policies(
            setup, context.path, baselines=("fifo", "lru"),
            include_app_aware=False, faults="lossy", fault_seed=4,
        )
        for name in results:
            assert results[name].steps == again[name].steps
            assert results[name].extras == again[name].extras

    def test_unknown_profile_rejected(self, small_context):
        grid, context = small_context
        with pytest.raises(ValueError, match="unknown fault profile"):
            compare_policies(
                _StubSetup(grid, context), context.path,
                baselines=("lru",), include_app_aware=False, faults="gremlins",
            )


    def test_single_box_device_profile_rejected_when_sharded(self, small_context):
        """``degraded-ssd`` names ``ssd``, which a sharded hierarchy calls
        ``n{k}.ssd``: at shards > 1 it would silently inject nothing there,
        so compare_policies rejects it as RunConfig does."""
        grid, context = small_context
        setup = _StubSetup(grid, context)
        kwargs = dict(baselines=("lru",), include_app_aware=False,
                      faults="degraded-ssd", fault_seed=3)
        with pytest.raises(ValueError, match="single-box device"):
            compare_policies(setup, context.path, shards=4, **kwargs)
        with pytest.raises(ValueError, match="single-box device"):
            RunConfig(faults="degraded-ssd", fault_seed=3, shards=4)
        # The hdd-only profile exists on every node layout; one box keeps ssd.
        assert compare_policies(setup, context.path, **kwargs)["lru"].extras["fault_stats"]
        sharded = compare_policies(setup, context.path, shards=4, baselines=("lru",),
                                   include_app_aware=False, faults="flaky-hdd", fault_seed=3)
        assert sharded["lru"].extras["fault_stats"]


class _StubSetup:
    """The minimal ExperimentSetup surface compare_policies touches."""

    def __init__(self, grid, context):
        self.grid = grid
        self._context = context
        self.cache_ratio = 0.5

    def context(self, path):
        return self._context

    def hierarchy(self, policy="lru", cache_ratio=None, shards=1, shard_map="slab"):
        if shards > 1:
            return make_sharded_hierarchy(self.grid, shards, strategy=shard_map, policy=policy)
        return fresh_hierarchy(self.grid, policy=policy)
