"""A one-node ``ShardedHierarchy`` *is* the single-box hierarchy.

The cluster layer's contract with everything built before it: at K=1 the
sharded facade delegates wholesale to a
:func:`~repro.storage.hierarchy.make_standard_hierarchy` node, so every
driver and fault regime must produce a **bit-for-bit** identical
observable surface to a plain single-box run — the same matrix the PR 5
runtime refactor was pinned by:

- the **byte ledger** (``CacheStats`` per level, ``backing_bytes``,
  ``bytes_moved`` extras);
- the **time ledger** (every per-step io/lookup/prefetch/render second);
- the **trace stream** (every event dict, in order);
- the **metrics registry snapshot**;
- the **profiler sim totals**.

Swept over fault-free/chaos x two replays — the runtime drivers
(``"batched"``: ``fetch_many``/``prefetch_many`` delegation) and the seed
drivers' per-block loop (``"scalar"``: ``fetch`` delegation) — for the
baseline driver, a prefetcher driver, and the app-aware optimizer
(covering ``preload`` and the tenant paths).
"""

import dataclasses
from functools import partial

import numpy as np
import pytest

from repro.camera.path import random_path
from repro.camera.sampling import SamplingConfig
from repro.cluster import ShardedHierarchy, make_sharded_hierarchy
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.prefetch.strategies import MarkovPrefetcher
from repro.runtime import (
    AppAwareOptimizer,
    OptimizerConfig,
    run_baseline,
    run_with_prefetcher,
)
from repro.storage.hierarchy import make_standard_hierarchy
from repro.tables.builder import build_importance_table, build_visible_table
from repro.trace import Tracer
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

from tests.runtime._seed_drivers import (
    SeedAppAwareOptimizer,
    SeedOptimizerConfig,
    seed_run_baseline,
    seed_run_with_prefetcher,
)

VIEW = 10.0
REPLAYS = ("batched", "scalar")
FAULTS = ("none", "chaos")
FAULT_SEED = 7


@pytest.fixture(scope="module")
def shard_setup():
    volume = Volume(ball_field((32, 32, 32)), name="shard_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = random_path(
        n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=11,
    )
    context = PipelineContext.create(path, grid)
    sampling = SamplingConfig(n_directions=24, n_distances=2, distance_range=(2.3, 2.7))
    vtable = build_visible_table(grid, sampling, VIEW, seed=0)
    itable = build_importance_table(volume, grid)
    return grid, context, vtable, itable


class Obs:
    """One run's full observability bundle (fresh per run)."""

    def __init__(self):
        self.tracer = Tracer()
        self.registry = MetricsRegistry()
        self.profiler = PhaseProfiler()

    def kwargs(self):
        return dict(
            tracer=self.tracer, registry=self.registry, profiler=self.profiler
        )

    def surface(self):
        report = self.profiler.report()
        return (
            [e.as_dict() for e in self.tracer.events()],
            self.registry.snapshot(),
            report.get("sim"),
        )


def _inject(h, faults):
    if faults != "none":
        h.set_fault_injector(
            FaultInjector(FaultPlan.from_profile(faults, seed=FAULT_SEED))
        )
    return h


def _single_box(grid, faults):
    return _inject(
        make_standard_hierarchy(
            n_blocks=grid.n_blocks,
            block_nbytes=grid.uniform_block_nbytes(),
            cache_ratio=0.5,
        ),
        faults,
    )


def _sharded_k1(grid, faults):
    h = make_sharded_hierarchy(grid, 1, cache_ratio=0.5)
    assert isinstance(h, ShardedHierarchy) and h.n_nodes == 1
    return _inject(h, faults)


def _steps_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        for f in dataclasses.fields(g):
            gv, wv = getattr(g, f.name), getattr(w, f.name)
            if isinstance(gv, np.ndarray):
                assert np.array_equal(gv, wv), f.name
            else:
                assert gv == wv, f.name


def _run_results_equal(got, want):
    assert got.policy == want.policy
    assert got.overlap_prefetch == want.overlap_prefetch
    _steps_equal(got.steps, want.steps)
    assert got.hierarchy_stats == want.hierarchy_stats
    assert got.extras == want.extras


def _surfaces_equal(got_obs, want_obs):
    got_trace, got_snap, got_sim = got_obs.surface()
    want_trace, want_snap, want_sim = want_obs.surface()
    assert got_trace == want_trace
    assert got_snap == want_snap
    assert got_sim == want_sim


def _hierarchies_equal(sharded, single):
    """The post-run hierarchy surfaces agree (byte ledger + membership)."""
    assert sharded.stats() == single.stats()
    assert sharded.backing_reads == single.backing_reads
    assert sharded.backing_bytes == single.backing_bytes
    assert sharded.fastest.stats == single.fastest.stats
    assert sharded.fastest.capacity == single.fastest.capacity


def _baseline(replay):
    return partial(seed_run_baseline, engine="scalar") if replay == "scalar" else run_baseline


def _with_prefetcher(replay):
    if replay == "scalar":
        return partial(seed_run_with_prefetcher, engine="scalar")
    return run_with_prefetcher


def _optimizer(replay, vtable, itable):
    if replay == "scalar":
        seed = SeedAppAwareOptimizer(vtable, itable, SeedOptimizerConfig())
        return partial(seed.run, engine="scalar")
    return AppAwareOptimizer(vtable, itable, OptimizerConfig()).run


@pytest.mark.parametrize("replay", REPLAYS)
@pytest.mark.parametrize("faults", FAULTS)
class TestShardEquivalence:
    def test_baseline(self, shard_setup, replay, faults):
        grid, context, _vt, _it = shard_setup
        go, wo = Obs(), Obs()
        sharded = _sharded_k1(grid, faults)
        single = _single_box(grid, faults)
        got = _baseline(replay)(context, sharded, **go.kwargs())
        want = _baseline(replay)(context, single, **wo.kwargs())
        _run_results_equal(got, want)
        _surfaces_equal(go, wo)
        _hierarchies_equal(sharded, single)

    def test_prefetcher_markov(self, shard_setup, replay, faults):
        grid, context, _vt, _it = shard_setup
        go, wo = Obs(), Obs()
        sharded = _sharded_k1(grid, faults)
        single = _single_box(grid, faults)
        got = _with_prefetcher(replay)(context, sharded, MarkovPrefetcher(), **go.kwargs())
        want = _with_prefetcher(replay)(context, single, MarkovPrefetcher(), **wo.kwargs())
        _run_results_equal(got, want)
        _surfaces_equal(go, wo)
        _hierarchies_equal(sharded, single)

    def test_optimizer(self, shard_setup, replay, faults):
        grid, context, vtable, itable = shard_setup
        go, wo = Obs(), Obs()
        sharded = _sharded_k1(grid, faults)
        single = _single_box(grid, faults)
        got = _optimizer(replay, vtable, itable)(context, sharded, **go.kwargs())
        want = _optimizer(replay, vtable, itable)(context, single, **wo.kwargs())
        _run_results_equal(got, want)
        _surfaces_equal(go, wo)
        _hierarchies_equal(sharded, single)


class TestSoloDelegation:
    """The K=1 facade forwards every surface wholesale."""

    def test_ledger_degenerates_to_local(self, shard_setup):
        grid, context, _vt, _it = shard_setup
        h = _sharded_k1(grid, "none")
        run_baseline(context, h)
        ledger = h.cluster_ledger()
        assert ledger["n_nodes"] == 1
        solo_moved = h.backing_bytes + h.stats().total_bytes_read
        assert ledger["split_bytes"]["local"] == solo_moved
        assert ledger["split_bytes"]["peer"] == 0
        assert ledger["split_bytes"]["cold"] == 0
        assert ledger["peer_transfers"] == 0
        assert ledger["links"] == {}

    def test_levels_and_contains(self, shard_setup):
        grid, _context, _vt, _it = shard_setup
        h = _sharded_k1(grid, "none")
        assert [lv.name for lv in h.levels] == ["dram", "ssd"]
        h.fetch(3, step=0)
        assert h.contains_fast(3)
        assert 3 in h.fastest
