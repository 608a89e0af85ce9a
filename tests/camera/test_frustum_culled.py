"""The hierarchical cull must be *bit-for-bit* the dense Eq. 1 kernel.

The prescreen is conservative (a bounding sphere outside the widened cone
cannot contain a visible test point) and the exact corner test runs the
dense kernel's elementwise arithmetic on the survivors, so every output —
masks, sorted id lists, and the CSR table build downstream — must be
byte-identical across ``kernel=`` values.  Hypothesis sweeps random grids,
angles, and camera placements, including the adversarial ones: cameras
inside blocks, at or within 1e-15…1e-6 of the centroid (degenerate view
axis) and of block faces, grazing the cone boundary, and
``include_center=False``.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.camera.frustum import (
    _DENSE_TEMPS,
    AUTO_CULL_MIN_BLOCKS,
    broadcast_position_chunk,
    resolve_kernel,
    visible_blocks,
    visible_ids_batch,
    visible_mask,
    visible_masks_batch,
)
from repro.volume.blocks import BlockGrid

CULLED = ("culled", "culled-flat")


@pytest.fixture(scope="module")
def grid():
    return BlockGrid((32, 32, 32), (4, 4, 4))  # 8x8x8 = 512 blocks


def _assert_all_kernels_equal(positions, grid, angle, include_center):
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    dense = visible_masks_batch(positions, grid, angle, include_center, kernel="dense")
    dense_ids = visible_ids_batch(positions, grid, angle, include_center, kernel="dense")
    for kernel in CULLED:
        masks = visible_masks_batch(positions, grid, angle, include_center, kernel=kernel)
        assert np.array_equal(dense, masks), kernel
        ids = visible_ids_batch(positions, grid, angle, include_center, kernel=kernel)
        for row_dense, row in zip(dense_ids, ids):
            assert row.dtype == np.int64
            assert np.array_equal(row_dense, row), kernel
    return dense


grids = st.sampled_from(
    [
        BlockGrid((16, 16, 16), (4, 4, 4)),
        BlockGrid((32, 32, 32), (4, 4, 4)),
        BlockGrid((24, 40, 16), (7, 5, 3)),  # partial edge blocks
        BlockGrid((8, 8, 8), (8, 8, 8)),  # single block
        BlockGrid((48, 12, 12), (4, 6, 5)),  # anisotropic
    ]
)
angles = st.floats(1.0, 170.0)
coords = st.floats(-3.0, 3.0, allow_nan=False, allow_infinity=False)


#: Camera offsets 1e-15…1e-6 from an anchor, four per decade.
NEAR_OFFSETS = 10.0 ** np.linspace(-15.0, -6.0, 37)


@st.composite
def near_degenerate_cameras(draw):
    """A grid and cameras 1e-15…1e-6 away from the volume centroid (where
    the view axis ``-pos`` nearly vanishes) or from a block face, along one
    drawn direction: ``(grid, (len(NEAR_OFFSETS), 3) positions)``."""
    g = draw(grids)
    # Grid-symmetric directions put block corners exactly on the view axis,
    # which is where a wrongly culled block shows.
    lattice = st.tuples(*[st.integers(-1, 1)] * 3)
    unit = st.floats(-1.0, 1.0, allow_nan=False, allow_infinity=False)
    direction = np.array(draw(st.one_of(lattice, st.tuples(unit, unit, unit))), dtype=float)
    norm = np.linalg.norm(direction)
    direction = direction / norm if norm > 1e-3 else np.array([0.0, 0.0, 1.0])
    anchor = np.zeros(3)  # the centroid
    if draw(st.booleans()):
        lo, hi = g.bounds()
        bid = draw(st.integers(0, g.n_blocks - 1))
        frac = np.array(draw(st.tuples(*[st.floats(0.0, 1.0)] * 3)))
        anchor = lo[bid] + frac * (hi[bid] - lo[bid])
        axis = draw(st.integers(0, 2))
        anchor[axis] = (lo if draw(st.booleans()) else hi)[bid, axis]  # on a face plane
    return g, anchor + NEAR_OFFSETS[:, None] * direction


class TestDenseCulledEquivalence:
    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_cameras(self, g, angle, points):
        _assert_all_kernels_equal(np.array(points), g, angle, True)

    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_cameras_corners_only(self, g, angle, points):
        _assert_all_kernels_equal(np.array(points), g, angle, False)

    @given(grids, angles, st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    @example(BlockGrid((16, 16, 16), (4, 4, 4)), 1.0, 0.0, 0.0, 1e-12)
    @settings(max_examples=40, deadline=None)
    def test_camera_inside_volume(self, g, angle, x, y, z):
        """Cameras inside the volume: the inside-AABB rule must survive the
        cull (a bounding sphere containing the camera is never prescreened
        away)."""
        pos = np.array([x, y, z])
        dense = _assert_all_kernels_equal(pos, g, angle, True)
        for bid in g.blocks_containing(pos):
            assert dense[0, bid]

    @given(near_degenerate_cameras(), angles, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_camera_near_centroid_or_face(self, cameras, angle, include_center):
        """Near the centroid ``d·‖axis‖`` can fall below the prescreen's
        clamp; the prescreen must then keep the block for the exact test
        instead of culling it."""
        g, positions = cameras
        _assert_all_kernels_equal(positions, g, angle, include_center)

    def test_camera_at_centroid_degenerate_axis(self, grid):
        """At the exact centroid the view axis is the zero vector: the cone
        test degenerates and only the containing block stays visible."""
        _assert_all_kernels_equal(np.zeros(3), grid, 10.0, True)
        _assert_all_kernels_equal(np.zeros(3), grid, 10.0, False)

    def test_cone_boundary_grazing(self, grid):
        """Angles chosen so block corners sit near the exact cos threshold —
        the prescreen slack must keep every borderline block a survivor."""
        pos = np.array([2.5, 0.0, 0.0])
        for angle in (9.999999, 10.0, 10.000001, 45.0, 89.999999, 90.0):
            _assert_all_kernels_equal(pos, grid, angle, True)

    def test_far_camera_tiny_angle(self, grid):
        _assert_all_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, True)
        _assert_all_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, False)

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_chunked_culled_consistent(self, angle):
        """Both chunk boundaries of the culled kernel: 65 positions cross
        its 64-position prescreen chunk, and a budget of seven (position,
        block) pairs splits the exact-test slabs."""
        g = BlockGrid((16, 16, 16), (4, 4, 4))  # 64 blocks
        rng = np.random.default_rng(3)
        positions = rng.uniform(-3, 3, size=(65, 3))
        seven_pairs = 7 * 9 * 3 * 8 * _DENSE_TEMPS
        for kernel in CULLED:
            tiny = visible_ids_batch(positions, g, angle, kernel=kernel, chunk_bytes=seven_pairs)
            big = visible_ids_batch(positions, g, angle, kernel=kernel)
            for a, b in zip(tiny, big):
                assert np.array_equal(a, b)


class TestKernelSelection:
    def test_resolve_kernel_auto_threshold(self):
        assert resolve_kernel("auto", AUTO_CULL_MIN_BLOCKS - 1) == "dense"
        assert resolve_kernel("auto", AUTO_CULL_MIN_BLOCKS) == "culled"
        assert resolve_kernel("dense", 10**6) == "dense"
        assert resolve_kernel("culled-flat", 8) == "culled-flat"

    def test_unknown_kernel_rejected(self, grid):
        with pytest.raises(ValueError, match="kernel"):
            visible_mask(np.array([2.5, 0, 0]), grid, 10.0, kernel="fast")
        with pytest.raises(ValueError):
            resolve_kernel("sparse", 64)

    def test_single_position_entry_points(self, grid):
        pos = np.array([2.5, 0.3, -0.2])
        dense_mask = visible_mask(pos, grid, 20.0, kernel="dense")
        dense_ids = visible_blocks(pos, grid, 20.0, kernel="dense")
        for kernel in CULLED:
            assert np.array_equal(dense_mask, visible_mask(pos, grid, 20.0, kernel=kernel))
            assert np.array_equal(dense_ids, visible_blocks(pos, grid, 20.0, kernel=kernel))

    def test_broadcast_position_chunk_never_degenerate(self):
        # The shared heuristic must stay >= 1 even when one position's
        # broadcast exceeds the budget (the old 4M//n_blocks formula's bug).
        assert broadcast_position_chunk(10**7, 9, 256 * 1024 * 1024) == 1
        assert broadcast_position_chunk(64, 9, 256 * 1024 * 1024) > 1000
        assert broadcast_position_chunk(1, 1, 1) == 1
