"""Every replay recipe fetches in batches.

Algorithm 1 fetches every visible block before it renders, so a frame's
demand fetch is one ``fetch_many`` and its prefetch one ``prefetch_many``:
no recipe calls the per-block :meth:`MemoryHierarchy.fetch` (DESIGN §6),
fault-free or with an injector that sends the batched calls down their
per-block reference loop, and fault-free not even that loop runs.  A
recipe that loops over blocks, or sends a frame the level cascade cannot
take, fails here instead of showing up as a silent slowdown.
"""

import pytest

from repro.camera.path import spherical_path
from repro.camera.sampling import SamplingConfig
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector, FaultPlan
from repro.prefetch.strategies import MarkovPrefetcher, TableLookupPrefetcher
from repro.runtime import (
    AppAwareOptimizer,
    OptimizerConfig,
    SessionSpec,
    run_baseline,
    run_sessions,
    run_with_prefetcher,
)
from repro.storage.hierarchy import MemoryHierarchy, make_standard_hierarchy
from repro.tables.builder import build_importance_table, build_visible_table
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

VIEW = 10.0
SAMPLING = SamplingConfig(n_directions=16, n_distances=2, distance_range=(2.3, 2.7))


@pytest.fixture(scope="module")
def ball():
    volume = Volume(ball_field((32, 32, 32)), name="recipe_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = spherical_path(
        n_positions=10, degrees_per_step=6.0, distance=2.5, view_angle_deg=VIEW, seed=2
    )
    context = PipelineContext.create(path, grid)
    vtable = build_visible_table(grid, SAMPLING, VIEW, seed=0)
    itable = build_importance_table(volume, grid)
    return grid, context, vtable, itable


def _hierarchy(n_blocks, block_nbytes, faults):
    h = make_standard_hierarchy(n_blocks=n_blocks, block_nbytes=block_nbytes, cache_ratio=0.5)
    if faults:
        h.set_fault_injector(FaultInjector(FaultPlan.from_profile("flaky-hdd", seed=42)))
    return h


def _baseline(ball, faults):
    grid, context, _vt, _it = ball
    h = _hierarchy(grid.n_blocks, grid.uniform_block_nbytes(), faults)
    return h, [run_baseline(context, h)]


def _table_prefetcher(ball, faults):
    grid, context, vtable, itable = ball
    h = _hierarchy(grid.n_blocks, grid.uniform_block_nbytes(), faults)
    prefetcher = TableLookupPrefetcher(vtable, importance=itable)
    return h, [run_with_prefetcher(context, h, prefetcher, preload_importance=itable)]


def _markov_prefetcher(ball, faults):
    grid, context, _vt, _it = ball
    h = _hierarchy(grid.n_blocks, grid.uniform_block_nbytes(), faults)
    return h, [run_with_prefetcher(context, h, MarkovPrefetcher())]


def _optimizer(ball, faults):
    grid, context, vtable, itable = ball
    h = _hierarchy(grid.n_blocks, grid.uniform_block_nbytes(), faults)
    return h, [AppAwareOptimizer(vtable, itable, OptimizerConfig()).run(context, h)]


def _sessions(ball, faults):
    grid, _ctx, _vt, _it = ball
    h = _hierarchy(grid.n_blocks, grid.uniform_block_nbytes(), faults)
    specs = [
        SessionSpec(session_id=f"s{i}", workload=w, steps=6, seed=10 + i, arrival_s=0.01 * i)
        for i, w in enumerate(("spherical", "zoom", "flythrough"))
    ]
    result = run_sessions(specs, h, grid, view_angle_deg=VIEW, partition="equal")
    return h, list(result.runs.values())


RECIPES = {
    "run_baseline": _baseline,
    "run_with_prefetcher[table]": _table_prefetcher,
    "run_with_prefetcher[markov]": _markov_prefetcher,
    "AppAwareOptimizer.run": _optimizer,
    "run_sessions": _sessions,
}


@pytest.mark.parametrize("faults", (False, True), ids=("fault-free", "flaky-hdd"))
@pytest.mark.parametrize("recipe", list(RECIPES))
def test_recipe_makes_no_per_block_fetch(recipe, faults, ball, monkeypatch):
    calls = {"fetch": 0, "_fetch_one": 0}
    for name in calls:
        wrapped = getattr(MemoryHierarchy, name)

        def counted(self, *args, _name=name, _wrapped=wrapped, **kwargs):
            calls[_name] += 1
            return _wrapped(self, *args, **kwargs)

        monkeypatch.setattr(MemoryHierarchy, name, counted)
    h, results = RECIPES[recipe](ball, faults)
    assert calls["fetch"] == 0
    # Fault-free every frame takes the level cascade, so the per-block body
    # never runs; under flaky-hdd the batched calls run it in their
    # reference loop, and the injector failed or slowed some HDD reads.
    assert (calls["_fetch_one"] > 0) == faults
    if faults:
        stats = h.fault_injector.stats
        assert not h.batchable and stats.total("errors") + stats.total("spikes") > 0
    # The run did real work: frames missed, and prefetching recipes issued
    # prefetches.
    assert all(r.steps and r.hierarchy_stats.levels["dram"].misses for r in results)
    if recipe not in ("run_baseline", "run_sessions"):
        assert sum(s.n_prefetched for r in results for s in r.steps) > 0
