"""Shared fixtures: small, fast instances of every substrate."""

from __future__ import annotations

import pytest
from hypothesis import settings

from repro.camera.path import random_path, spherical_path
from repro.camera.sampling import SamplingConfig
from repro.policies.lru import LRUPolicy
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import MemoryHierarchy
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

TEST_VIEW_ANGLE = 10.0

# `pytest --hypothesis-profile=ci`: the same examples on every run (no
# random seed, no example database), and a failure prints the blob that
# reproduces it with `@reproduce_failure`.
settings.register_profile("ci", derandomize=True, database=None, print_blob=True)


@pytest.fixture(scope="session")
def small_volume() -> Volume:
    """A 32^3 ball volume shared (read-only) across the suite."""
    return Volume(ball_field((32, 32, 32)), name="test_ball")


@pytest.fixture(scope="session")
def small_grid(small_volume) -> BlockGrid:
    """4x4x4 blocks of 8^3 voxels."""
    return BlockGrid(small_volume.shape, (8, 8, 8))


@pytest.fixture()
def tiny_hierarchy() -> MemoryHierarchy:
    """2-level hierarchy: dram holds 4 blocks, ssd 8, over hdd."""
    levels = [
        CacheLevel("dram", 4, LRUPolicy()),
        CacheLevel("ssd", 8, LRUPolicy()),
    ]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, block_nbytes=1024)


@pytest.fixture(scope="session")
def short_spherical_path():
    return spherical_path(
        n_positions=12, degrees_per_step=5.0, distance=2.5,
        view_angle_deg=TEST_VIEW_ANGLE, seed=3,
    )


@pytest.fixture(scope="session")
def short_random_path():
    return random_path(
        n_positions=12, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=TEST_VIEW_ANGLE, seed=3,
    )


@pytest.fixture(scope="session")
def small_sampling() -> SamplingConfig:
    return SamplingConfig(n_directions=24, n_distances=2, distance_range=(2.3, 2.7))
