"""Tests for the interactive OutOfCoreSession."""

import numpy as np
import pytest

from repro.camera.path import random_path, spherical_path, zoom_path
from repro.camera.sampling import SamplingConfig
from repro.core.pipeline import PipelineContext
from repro.core.session import OutOfCoreSession
from repro.runtime import AppAwareOptimizer
from repro.storage.hierarchy import make_standard_hierarchy
from repro.tables.builder import build_importance_table, build_visible_table
from repro.volume.blocks import BlockGrid
from repro.volume.store import CountingBlockStore, InMemoryBlockStore
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

VIEW = 10.0


@pytest.fixture()
def parts():
    vol = Volume(ball_field((32, 32, 32)))
    grid = BlockGrid(vol.shape, (8, 8, 8))
    store = CountingBlockStore(InMemoryBlockStore(vol, grid))
    sampling = SamplingConfig(n_directions=24, n_distances=2, distance_range=(2.3, 2.7))
    vtable = build_visible_table(grid, sampling, VIEW, seed=0)
    itable = build_importance_table(vol, grid)
    hierarchy = make_standard_hierarchy(grid.n_blocks, grid.uniform_block_nbytes())
    return vol, grid, store, vtable, itable, hierarchy


def make_session(parts, **kwargs):
    vol, grid, store, vtable, itable, hierarchy = parts
    return OutOfCoreSession(store, vtable, itable, hierarchy, VIEW, **kwargs)


class TestSessionBasics:
    def test_view_returns_visible_payloads(self, parts):
        vol, grid, store, *_ = parts
        session = make_session(parts)
        blocks = session.view(np.array([2.5, 0.0, 0.0]))
        assert len(blocks) > 0
        for bid, payload in blocks.items():
            assert np.array_equal(payload, vol.data()[grid.block_slices(bid)])

    def test_memory_bounded_by_fastest_capacity(self, parts):
        *_, hierarchy = parts
        session = make_session(parts)
        path = spherical_path(n_positions=15, degrees_per_step=15.0, distance=2.5,
                              view_angle_deg=VIEW, seed=2)
        for pos in path.positions:
            session.view(pos)
            assert session.n_resident_blocks <= hierarchy.fastest.capacity
            # Payload dict mirrors the simulated residency exactly.
            assert set(int(b) for b in session.resident_ids()) == set(
                hierarchy.fastest.resident_ids()
            )

    def test_resident_bytes_tracks_payloads(self, parts):
        _, grid, *_ = parts
        session = make_session(parts)
        session.view(np.array([2.5, 0.0, 0.0]))
        assert session.resident_nbytes == session.n_resident_blocks * grid.uniform_block_nbytes()

    def test_history_accumulates(self, parts):
        session = make_session(parts)
        session.view(np.array([2.5, 0.0, 0.0]))
        session.view(np.array([2.45, 0.3, 0.0]))
        assert len(session.history) == 2
        assert session.history[0].step == 0
        assert session.history[1].step == 1

    def test_second_view_mostly_hits(self, parts):
        session = make_session(parts)
        session.view(np.array([2.5, 0.0, 0.0]))
        before = session.stats().levels["dram"].misses
        session.view(np.array([2.5, 0.05, 0.0]))  # tiny motion
        after = session.stats().levels["dram"].misses
        assert after - before <= 3  # nearly everything already resident


class TestSessionModes:
    def test_preload_materialises_payloads(self, parts):
        session = make_session(parts)
        assert session.preloaded["dram"] > 0
        assert session.n_resident_blocks == session.preloaded["dram"]

    def test_no_tables_mode(self, parts):
        vol, grid, store, _, _, hierarchy = parts
        session = OutOfCoreSession(store, None, None, hierarchy, VIEW)
        blocks = session.view(np.array([2.5, 0.0, 0.0]))
        assert len(blocks) > 0
        assert session.history[0].n_prefetched == 0
        assert session.history[0].lookup_time_s == 0.0

    def test_preload_off(self, parts):
        vol, grid, store, vtable, itable, hierarchy = parts
        session = OutOfCoreSession(store, vtable, itable, hierarchy, VIEW, preload=False)
        assert session.n_resident_blocks == 0

    def test_physical_reads_bounded(self, parts):
        """Each block is physically read once per residency period, never
        redundantly while it stays resident."""
        vol, grid, store, *_ = parts
        session = make_session(parts)
        session.view(np.array([2.5, 0.0, 0.0]))
        reads_after_first = store.total_reads
        session.view(np.array([2.5, 0.02, 0.0]))  # same view, all hits
        assert store.total_reads <= reads_after_first + 3

    def test_prefetch_warms_next_view(self, parts):
        session = make_session(parts)
        path = spherical_path(n_positions=8, degrees_per_step=5.0, distance=2.5,
                              view_angle_deg=VIEW, seed=1)
        for pos in path.positions:
            session.view(pos)
        prefetched = sum(s.n_prefetched for s in session.history)
        assert prefetched > 0


#: Four camera paths for the Algorithm 1 equivalence pin.
PATHS = {
    "orbit": lambda: spherical_path(
        n_positions=15, degrees_per_step=15.0, distance=2.5, view_angle_deg=VIEW, seed=2
    ),
    "random": lambda: random_path(
        n_positions=15, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=3,
    ),
    "zoom": lambda: zoom_path(
        n_positions=15, degrees_per_step=6.0, distance_range=(2.0, 3.0),
        view_angle_deg=VIEW, seed=4,
    ),
    "fast-orbit": lambda: spherical_path(
        n_positions=15, degrees_per_step=30.0, distance=2.5, view_angle_deg=VIEW, seed=5
    ),
}


class TestMatchesOptimizer:
    @pytest.mark.parametrize("cache_ratio", (0.25, 0.5))
    @pytest.mark.parametrize("path_name", sorted(PATHS))
    def test_view_steps_equal_app_aware_run(self, parts, path_name, cache_ratio):
        """Viewing a path one position at a time is Algorithm 1: the same
        per-step times, prefetch counts, misses and hierarchy stats as
        ``AppAwareOptimizer().run`` on the same path and hierarchy."""
        _, grid, store, vtable, itable, _ = parts
        path = PATHS[path_name]()

        def hierarchy():
            return make_standard_hierarchy(
                grid.n_blocks, grid.uniform_block_nbytes(), cache_ratio=cache_ratio
            )

        session = OutOfCoreSession(store, vtable, itable, hierarchy(), VIEW)
        for pos in path.positions:
            session.view(pos)
        want = AppAwareOptimizer(vtable, itable).run(
            PipelineContext.create(path, grid), hierarchy()
        )
        fields = ("step", "n_visible", "n_fast_misses", "n_prefetched",
                  "io_time_s", "lookup_time_s", "prefetch_time_s")
        got_rows = [tuple(getattr(s, f) for f in fields) for s in session.history]
        want_rows = [tuple(getattr(s, f) for f in fields) for s in want.steps]
        assert got_rows == want_rows
        assert session.stats() == want.hierarchy_stats
