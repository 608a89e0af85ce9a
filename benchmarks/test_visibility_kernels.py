"""The lattice Eq. 1 kernel against the dense reference across block counts.

The dense kernel materializes a ``(positions, blocks, 9, 3)`` broadcast,
so it tests nine points per block.  The lattice kernel uses the block
grid's tensor-product structure: neighbouring blocks share their corners,
so it evaluates Eq. 1 once per grid vertex and once per block centre —
about two test points per block — with outer sums of per-axis arrays
instead of a 3-vector contraction.  Neither kernel's cost depends on how
many blocks are visible.  This sweep pins the speedup shape (a big win at
>= 10^4 blocks) and correctness (the lattice output is asserted identical
to dense at every size).

Quick scale sweeps {64, 1000, 10648} blocks; ``REPRO_FULL=1`` adds the
~10^5-block grid from the paper's largest configurations.
"""

import time

import numpy as np
import pytest

from repro.camera.frustum import visible_ids_batch, visible_masks_batch
from repro.volume.blocks import BlockGrid

VIEW = 10.0
N_POSITIONS = 32

# (label, grid shape, block shape) -> 64 / 1e3 / ~1e4 / ~1e5 blocks
SIZES = {
    "64": ((32, 32, 32), (8, 8, 8)),
    "1e3": ((40, 40, 40), (4, 4, 4)),
    "1e4": ((88, 88, 88), (4, 4, 4)),
    "1e5": ((96, 96, 96), (2, 2, 2)),
}


def _positions(seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((N_POSITIONS, 3))
    return 2.5 * dirs / np.linalg.norm(dirs, axis=1, keepdims=True)


def _grid(label: str) -> BlockGrid:
    shape, block = SIZES[label]
    grid = BlockGrid(shape, block)
    grid.corners()  # warm the geometry caches outside the timer
    return grid


@pytest.fixture(scope="module")
def sizes(full_scale):
    return ("64", "1e3", "1e4", "1e5") if full_scale else ("64", "1e3", "1e4")


@pytest.mark.parametrize("kernel", ("lattice", "dense"))
@pytest.mark.parametrize("label", ("64", "1e3", "1e4", "1e5"))
def test_kernel_sweep(benchmark, kernel, label, sizes):
    """One path's visibility ground truth (32 cameras) per kernel per size."""
    if label not in sizes:
        pytest.skip("1e5-block sweep requires REPRO_FULL=1")
    grid = _grid(label)
    positions = _positions()

    got = benchmark(
        visible_ids_batch, positions, grid, VIEW, kernel=kernel
    )
    assert len(got) == N_POSITIONS
    want = visible_ids_batch(positions, grid, VIEW, kernel="dense")
    for g, w in zip(got, want):
        assert np.array_equal(g, w)


def test_lattice_speedup_at_1e4_blocks():
    """The acceptance-criterion shape: the lattice must win big at 10^4 blocks."""
    grid = _grid("1e4")
    positions = _positions()
    timings = {}
    for kernel in ("dense", "lattice"):
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            visible_masks_batch(positions, grid, VIEW, kernel=kernel)
            best = min(best, time.perf_counter() - t0)
        timings[kernel] = best
    # Conservative floor for a shared CI box; locally this is ~15x.
    assert timings["dense"] / timings["lattice"] > 5.0, timings
