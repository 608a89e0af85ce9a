"""The runtime engine is *exactly* the seed drivers, stage by stage.

Every canonical :mod:`repro.runtime` driver is replayed against a frozen
verbatim copy of its pre-refactor implementation
(:mod:`tests.runtime._seed_drivers`) on identical inputs, and the full
observable surface is required to match bit-for-bit:

- the **byte ledger** (``CacheStats`` per level: hits/misses/bytes moved);
- the **time ledger** (every per-step io/lookup/prefetch/render second);
- the **trace stream** (every event dict, in order);
- the **metrics registry snapshot** (counters, gauges, histogram buckets);
- the **profiler sim totals** (per-phase simulated seconds and call counts).

The seed drivers run in both of their modes: ``batched`` (one
``fetch_many``/``prefetch_many`` per step, like the runtime) and
``scalar`` (one ``hierarchy.fetch`` per block).  Against seed-scalar the
registry snapshot is exact except histogram ``sum``/``mean``: the batched
path records each group of equal fetch latencies with one
``observe_many(t, c)`` where the per-block loop adds ``c`` separate
``observe(t)`` calls, so the two sums differ in the last bits.  The grid
is the baseline, prefetcher and optimizer drivers x 2 seed modes x 2 fault
regimes (fault-free, and the ``chaos`` profile with a fixed seed).
"""

import dataclasses

import pytest

from repro.camera.path import random_path
from repro.camera.sampling import SamplingConfig
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector, FaultPlan
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.prefetch.strategies import MarkovPrefetcher, TableLookupPrefetcher
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
SEED_MODES = ("batched", "scalar")
FAULTS = ("none", "chaos")
FAULT_SEED = 7


@pytest.fixture(scope="module")
def eq_setup():
    volume = Volume(ball_field((32, 32, 32)), name="eq_ball")
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


def _hierarchy(grid, faults):
    h = make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=0.5,
    )
    if faults != "none":
        h.set_fault_injector(
            FaultInjector(FaultPlan.from_profile(faults, seed=FAULT_SEED))
        )
    return h


def _steps_equal(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        for f in dataclasses.fields(g):
            assert getattr(g, f.name) == getattr(w, f.name), f.name


def _run_results_equal(got, want):
    assert got.name == want.name
    assert got.policy == want.policy
    assert got.overlap_prefetch == want.overlap_prefetch
    _steps_equal(got.steps, want.steps)
    assert got.hierarchy_stats == want.hierarchy_stats
    assert got.extras == want.extras


def _without_histogram_sums(snapshot):
    """The snapshot minus every histogram's ``sum`` and ``mean``."""
    out = dict(snapshot)
    out["histograms"] = {
        key: {k: v for k, v in hist.items() if k not in ("sum", "mean")}
        for key, hist in snapshot["histograms"].items()
    }
    return out


def _surfaces_equal(got_obs, want_obs, seed_mode="batched"):
    got_trace, got_snap, got_sim = got_obs.surface()
    want_trace, want_snap, want_sim = want_obs.surface()
    assert got_trace == want_trace
    if seed_mode == "scalar":
        got_snap = _without_histogram_sums(got_snap)
        want_snap = _without_histogram_sums(want_snap)
    assert got_snap == want_snap
    assert got_sim == want_sim


def _compare(runner, seed_runner, make_args, seed_mode="batched"):
    got_obs, want_obs = Obs(), Obs()
    got = runner(*make_args(), **got_obs.kwargs())
    want = seed_runner(*make_args(), **want_obs.kwargs(), engine=seed_mode)
    return got, want, got_obs, want_obs


@pytest.mark.parametrize("seed_mode", SEED_MODES)
@pytest.mark.parametrize("faults", FAULTS)
class TestDriverEquivalence:
    def test_baseline(self, eq_setup, seed_mode, faults):
        grid, context, _vt, _it = eq_setup
        got, want, go, wo = _compare(
            run_baseline, seed_run_baseline,
            lambda: (context, _hierarchy(grid, faults)), seed_mode=seed_mode,
        )
        _run_results_equal(got, want)
        _surfaces_equal(go, wo, seed_mode)

    def test_prefetcher_table(self, eq_setup, seed_mode, faults):
        grid, context, vtable, itable = eq_setup
        got, want, go, wo = _compare(
            run_with_prefetcher, seed_run_with_prefetcher,
            lambda: (
                context,
                _hierarchy(grid, faults),
                TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf")),
            ),
            seed_mode=seed_mode,
        )
        _run_results_equal(got, want)
        _surfaces_equal(go, wo, seed_mode)

    def test_prefetcher_markov(self, eq_setup, seed_mode, faults):
        grid, context, _vt, _it = eq_setup
        got, want, go, wo = _compare(
            run_with_prefetcher, seed_run_with_prefetcher,
            lambda: (context, _hierarchy(grid, faults), MarkovPrefetcher()),
            seed_mode=seed_mode,
        )
        _run_results_equal(got, want)
        _surfaces_equal(go, wo, seed_mode)

    def test_optimizer(self, eq_setup, seed_mode, faults):
        grid, context, vtable, itable = eq_setup
        got_obs, want_obs = Obs(), Obs()
        got = AppAwareOptimizer(vtable, itable, OptimizerConfig()).run(
            context, _hierarchy(grid, faults), **got_obs.kwargs()
        )
        want = SeedAppAwareOptimizer(vtable, itable, SeedOptimizerConfig()).run(
            context, _hierarchy(grid, faults), engine=seed_mode, **want_obs.kwargs()
        )
        _run_results_equal(got, want)
        _surfaces_equal(got_obs, want_obs, seed_mode)

    def test_optimizer_adaptive_sigma(self, eq_setup, seed_mode, faults):
        grid, context, vtable, itable = eq_setup
        cfg = dict(adaptive_sigma=True, sigma=None)
        got_obs, want_obs = Obs(), Obs()
        got = AppAwareOptimizer(vtable, itable, OptimizerConfig(**cfg)).run(
            context, _hierarchy(grid, faults), **got_obs.kwargs()
        )
        want = SeedAppAwareOptimizer(vtable, itable, SeedOptimizerConfig(**cfg)).run(
            context, _hierarchy(grid, faults), engine=seed_mode, **want_obs.kwargs()
        )
        _run_results_equal(got, want)
        _surfaces_equal(got_obs, want_obs, seed_mode)


@pytest.mark.parametrize("seed_mode", SEED_MODES)
@pytest.mark.parametrize("protect", (False, True))
def test_baseline_arc(eq_setup, seed_mode, protect):
    """ARC hierarchies too: the runtime's levels rank each frame's victims
    over the frame's plan (``CacheLevel._access_ranked``), the seed's
    scalar mode admits block by block; fault-free, traced per event and
    metered."""
    grid, context, _vt, _it = eq_setup

    def hierarchy():
        return make_standard_hierarchy(
            n_blocks=grid.n_blocks, block_nbytes=grid.uniform_block_nbytes(),
            cache_ratio=0.5, policy="arc",
        )

    got_obs, want_obs = Obs(), Obs()
    got = run_baseline(
        context, hierarchy(), protect_current_step=protect, **got_obs.kwargs()
    )
    want = seed_run_baseline(
        context, hierarchy(), protect_current_step=protect, engine=seed_mode,
        **want_obs.kwargs(),
    )
    _run_results_equal(got, want)
    _surfaces_equal(got_obs, want_obs, seed_mode)
    assert got.hierarchy_stats.levels["dram"].evictions > 0
