"""The lattice kernel must be *bit-for-bit* the dense Eq. 1 kernel.

The lattice kernel evaluates Eq. 1 once per grid vertex and block centre
with the dense kernel's per-element arithmetic, so every output — masks,
sorted id lists, and the CSR table build downstream — must be
byte-identical across ``kernel=`` values.  Hypothesis sweeps random grids,
angles, and camera placements, including the adversarial ones: cameras
inside blocks, at or within 1e-15…1e-6 of the centroid (degenerate view
axis) and of block faces, grazing the cone boundary, and
``include_center=False``.  The lattice needs neighbouring blocks to share
their corners bit for bit; that precondition is checked per call and
pinned here for every axis length up to 4,096 voxels.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.camera.frustum import (
    _LATTICE_CHUNK_BYTES,
    KERNELS,
    _axis_lattices,
    lattice_position_chunk,
    visible_blocks,
    visible_ids_batch,
    visible_mask,
    visible_masks_batch,
)
from repro.volume.blocks import BlockGrid


@pytest.fixture(scope="module")
def grid():
    return BlockGrid((32, 32, 32), (4, 4, 4))  # 8x8x8 = 512 blocks


def _assert_kernels_equal(positions, grid, angle, include_center):
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    dense = visible_masks_batch(positions, grid, angle, include_center, kernel="dense")
    dense_ids = visible_ids_batch(positions, grid, angle, include_center, kernel="dense")
    masks = visible_masks_batch(positions, grid, angle, include_center, kernel="lattice")
    assert np.array_equal(dense, masks)
    ids = visible_ids_batch(positions, grid, angle, include_center, kernel="lattice")
    assert len(ids) == len(dense_ids)
    for row_dense, row in zip(dense_ids, ids):
        assert row.dtype == np.int64
        assert np.array_equal(row_dense, row)
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
    # which is where a lattice/dense disagreement would show.
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


class TestLatticeEquivalence:
    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=6))
    @settings(max_examples=60, deadline=None)
    def test_random_cameras(self, g, angle, points):
        _assert_kernels_equal(np.array(points), g, angle, True)

    @given(grids, angles, st.lists(st.tuples(coords, coords, coords), min_size=1, max_size=4))
    @settings(max_examples=40, deadline=None)
    def test_random_cameras_corners_only(self, g, angle, points):
        _assert_kernels_equal(np.array(points), g, angle, False)

    @given(grids, angles, st.floats(-0.99, 0.99), st.floats(-0.99, 0.99), st.floats(-0.99, 0.99))
    @example(BlockGrid((16, 16, 16), (4, 4, 4)), 1.0, 0.0, 0.0, 1e-12)
    @settings(max_examples=40, deadline=None)
    def test_camera_inside_volume(self, g, angle, x, y, z):
        """Cameras inside the volume: the lattice's outer AND of per-axis
        interval tests must reproduce the inside-AABB rule."""
        pos = np.array([x, y, z])
        dense = _assert_kernels_equal(pos, g, angle, True)
        for bid in g.blocks_containing(pos):
            assert dense[0, bid]

    @given(near_degenerate_cameras(), angles, st.booleans())
    @settings(max_examples=60, deadline=None)
    def test_camera_near_centroid_or_face(self, cameras, angle, include_center):
        """Near the centroid ``‖w‖·‖axis‖`` falls below the ``_EPS`` clamp;
        both kernels must clamp the same products."""
        g, positions = cameras
        _assert_kernels_equal(positions, g, angle, include_center)

    def test_camera_at_centroid_degenerate_axis(self, grid):
        """At the exact centroid the view axis is the zero vector: the cone
        test degenerates and only the containing block stays visible."""
        _assert_kernels_equal(np.zeros(3), grid, 10.0, True)
        _assert_kernels_equal(np.zeros(3), grid, 10.0, False)

    def test_cone_boundary_grazing(self, grid):
        """Angles chosen so block corners sit near the exact cos threshold."""
        pos = np.array([2.5, 0.0, 0.0])
        for angle in (9.999999, 10.0, 10.000001, 45.0, 89.999999, 90.0):
            _assert_kernels_equal(pos, grid, angle, True)

    def test_far_camera_tiny_angle(self, grid):
        _assert_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, True)
        _assert_kernels_equal(np.array([80.0, 0.2, -0.1]), grid, 1.0, False)

    @given(angles)
    @settings(max_examples=20, deadline=None)
    def test_chunked_lattice_consistent(self, angle):
        """Both chunk boundaries: one position more than the lattice
        kernel's camera chunk, and a budget too small for two cameras."""
        g = BlockGrid((32, 32, 32), (4, 4, 4))  # 512 blocks, 205 cameras a chunk
        n = lattice_position_chunk(g, _LATTICE_CHUNK_BYTES) + 1
        rng = np.random.default_rng(3)
        positions = rng.uniform(-3, 3, size=(n, 3))
        want = visible_ids_batch(positions, g, angle, kernel="dense")
        for chunk_bytes in (1, 256 * 1024 * 1024):
            got = visible_ids_batch(positions, g, angle, chunk_bytes=chunk_bytes)
            assert len(got) == n
            for a, b in zip(want, got):
                assert np.array_equal(a, b)


class TestFoldOrder:
    """Both 3-term sums fold as ``(x + z) + y``; this case tells the orders
    apart.  Block 70's far corner ``(0.6, 1.0, -0.8)`` lies exactly on the
    60° cone bound from ``(-0.8, -1.0, -0.6)``: its ``w·w`` is 6.0 under
    ``(x + z) + y`` but 6.000000000000001 under ``(x + y) + z``, which
    drops it out of the cone."""

    GRID = BlockGrid((50, 1, 30), (5, 1, 3))
    CAMERA = np.array([-0.8, -1.0, -0.6])

    def test_case_tells_fold_orders_apart(self):
        w = self.GRID.corners()[70, 7] - self.CAMERA
        s = w * w
        assert (s[0] + s[2]) + s[1] == 6.0
        assert (s[0] + s[1]) + s[2] > 6.0

    @pytest.mark.parametrize("kernel", KERNELS)
    @pytest.mark.parametrize("include_center", (True, False))
    def test_corner_on_cone_bound_visible(self, kernel, include_center):
        mask = visible_mask(self.CAMERA, self.GRID, 60.0, include_center, kernel=kernel)
        assert mask[70]


class TestSharedCorners:
    @given(
        st.integers(0, 2),
        st.integers(1, 4096).flatmap(
            lambda n: st.tuples(st.just(n), st.integers(1, n))
        ),
        st.integers(1, 4),
        st.integers(1, 4),
    )
    @settings(max_examples=200, deadline=None)
    def test_every_axis_up_to_4096_voxels_shares_corners(self, axis, axis_shape, m, n):
        """The lattice precondition holds on ``BlockGrid``'s own arithmetic:
        ``_axis_lattices`` raises on any axis whose corners differ."""
        length, block = axis_shape
        volume, blocks = [m, n, m], [1, 1, 1]
        volume[axis], blocks[axis] = length, block
        g = BlockGrid(tuple(volume), tuple(blocks))
        vertices = _axis_lattices(g)[axis][0]
        assert vertices.size == g.blocks_per_axis[axis] + 1
        assert vertices[0] == -1.0

    @pytest.mark.parametrize("axis", range(3))
    @pytest.mark.parametrize("whole_slab", (True, False))
    def test_perturbed_bounds_raise(self, axis, whole_slab):
        """One ulp on the low face of the second slab of blocks breaks the
        shared corners; on its last block alone it breaks the lattice."""

        class Nudged(BlockGrid):
            def bounds(self):
                lo, hi = BlockGrid.bounds(self)
                lo = lo.copy()
                second = lo[:, axis] == np.unique(lo[:, axis])[1]
                rows = second if whole_slab else np.flatnonzero(second)[-1]
                lo[rows, axis] = np.nextafter(lo[rows, axis], 2.0)
                return lo, hi

        g = Nudged((16, 16, 16), (4, 4, 4))
        with pytest.raises(ValueError, match=f"axis {'xyz'[axis]}"):
            visible_mask(np.array([2.5, 0.3, -0.2]), g, 20.0)
        # The dense reference kernel has no such precondition.
        visible_mask(np.array([2.5, 0.3, -0.2]), g, 20.0, kernel="dense")


class TestKernelSelection:
    def test_unknown_kernel_rejected(self, grid):
        for kernel in ("fast", "culled", "culled-flat", "auto"):
            with pytest.raises(ValueError, match="kernel"):
                visible_mask(np.array([2.5, 0, 0]), grid, 10.0, kernel=kernel)
            with pytest.raises(ValueError, match="kernel"):
                visible_ids_batch(np.array([[2.5, 0, 0]]), grid, 10.0, kernel=kernel)

    def test_single_position_entry_points(self, grid):
        pos = np.array([2.5, 0.3, -0.2])
        dense_mask = visible_mask(pos, grid, 20.0, kernel="dense")
        dense_ids = visible_blocks(pos, grid, 20.0, kernel="dense")
        assert np.array_equal(dense_mask, visible_mask(pos, grid, 20.0))
        assert np.array_equal(dense_ids, visible_blocks(pos, grid, 20.0))

    def test_lattice_position_chunk_never_degenerate(self):
        # The shared chunk formula must stay >= 1 even when one position's
        # lattice exceeds the budget.
        assert lattice_position_chunk(BlockGrid((512,) * 3, (2, 2, 2)), 1 << 20) == 1
        assert lattice_position_chunk(BlockGrid((16,) * 3, (4, 4, 4)), 256 * 1024 * 1024) > 1000
        assert lattice_position_chunk(BlockGrid((1, 1, 1), (1, 1, 1)), 1) == 1
