"""Batched KD lookups must be ledger-invisible.

The table-driven stages and :class:`TableLookupPrefetcher` batch their
KD-tree queries over the whole camera path (one ``nearest_entries`` /
``prime`` call) instead of querying per frame.  That is a wall-clock
optimization only: every run result — per-step ``lookup_time_s`` charges,
byte ledgers, trace stream, metrics — must be byte-identical to per-frame
lookups, because ``LookupCostModel.query_time_many`` charges exactly
``n_queries * query_time`` and the batched answers are the same KD
indices.  Each test replays the runtime driver against the seed driver
of :mod:`tests.runtime._seed_drivers`, which queries the table once per
frame and never primes the prefetcher, in both of the seed's modes.
"""

import numpy as np
import pytest

from repro.camera.path import random_path
from repro.camera.sampling import SamplingConfig
from repro.core.pipeline import PipelineContext
from repro.prefetch.base import Prefetcher
from repro.prefetch.strategies import TableLookupPrefetcher
from repro.runtime import (
    AppAwareOptimizer,
    OptimizerConfig,
    run_with_prefetcher,
)
from repro.storage.hierarchy import make_standard_hierarchy
from repro.tables.builder import build_importance_table, build_visible_table
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

from tests.runtime._seed_drivers import (
    SeedAppAwareOptimizer,
    SeedOptimizerConfig,
    seed_run_with_prefetcher,
)
from tests.runtime.test_equivalence import Obs, _run_results_equal, _surfaces_equal

VIEW = 10.0


@pytest.fixture(scope="module")
def setup():
    volume = Volume(ball_field((32, 32, 32)), name="batch_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = random_path(
        n_positions=12, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=3,
    )
    context = PipelineContext.create(path, grid)
    sampling = SamplingConfig(n_directions=24, n_distances=2, distance_range=(2.3, 2.7))
    vtable = build_visible_table(grid, sampling, VIEW, seed=0)
    itable = build_importance_table(volume, grid)
    return grid, context, vtable, itable


def _hierarchy(grid):
    return make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=0.5,
    )


@pytest.mark.parametrize("seed_mode", ("batched", "scalar"))
class TestBatchedLedgerEquality:
    def test_optimizer(self, setup, seed_mode):
        grid, context, vtable, itable = setup
        batched_obs, frame_obs = Obs(), Obs()
        batched = AppAwareOptimizer(vtable, itable, OptimizerConfig()).run(
            context, _hierarchy(grid), **batched_obs.kwargs()
        )
        per_frame = SeedAppAwareOptimizer(vtable, itable, SeedOptimizerConfig()).run(
            context, _hierarchy(grid), engine=seed_mode, **frame_obs.kwargs()
        )
        _run_results_equal(batched, per_frame)
        _surfaces_equal(batched_obs, frame_obs, seed_mode)
        assert any(s.lookup_time_s > 0 for s in batched.steps)

    def test_table_prefetcher(self, setup, seed_mode):
        grid, context, vtable, itable = setup

        def prefetcher():
            return TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf"))

        batched_obs, frame_obs = Obs(), Obs()
        batched = run_with_prefetcher(
            context, _hierarchy(grid), prefetcher(), **batched_obs.kwargs()
        )
        per_frame = seed_run_with_prefetcher(
            context, _hierarchy(grid), prefetcher(), engine=seed_mode, **frame_obs.kwargs()
        )
        _run_results_equal(batched, per_frame)
        _surfaces_equal(batched_obs, frame_obs, seed_mode)


class TestPrimedPrefetcher:
    def test_prime_matches_per_step_nearest(self, setup):
        _grid, context, vtable, itable = setup
        positions = context.path.positions
        primed = TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf"))
        primed.reset()
        primed.prime(positions)
        cold = TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf"))
        cold.reset()
        for step, pos in enumerate(positions):
            assert primed._nearest(step, pos) == cold._nearest(step, pos)
            got = primed.predict(step, pos, None)
            want = cold.predict(step, pos, None)
            assert np.array_equal(got, want)

    def test_prime_ignored_when_positions_differ(self, setup):
        _grid, context, vtable, itable = setup
        positions = context.path.positions
        pf = TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf"))
        pf.reset()
        pf.prime(positions)
        off_path = positions[0] + 0.37
        idx, _dist = vtable.nearest_entry(off_path)
        assert pf._nearest(0, off_path) == idx
        assert pf._nearest(len(positions) + 5, positions[0]) == vtable.nearest_entry(
            positions[0]
        )[0]

    def test_reset_clears_primed_state(self, setup):
        _grid, context, vtable, itable = setup
        pf = TableLookupPrefetcher(vtable, importance=itable, sigma=float("-inf"))
        pf.reset()
        pf.prime(context.path.positions)
        assert pf._primed_keys is not None
        pf.reset()
        assert pf._primed_keys is None and pf._primed_positions is None

    def test_base_prime_is_noop(self, setup):
        _grid, context, *_ = setup

        class Dummy(Prefetcher):
            name = "dummy"

            def predict(self, step, position, context):
                return np.empty(0, dtype=np.int64)

        Dummy().prime(context.path.positions)
