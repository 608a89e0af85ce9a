"""Uniform block partitioning of a volume.

The block is the unit of everything in this system: visibility is decided
per block (Eq. 1 tests the eight block corners), entropy is computed per
block, and the memory hierarchy caches and replaces blocks.  ``BlockGrid``
owns the id scheme, voxel slices, and normalized-space geometry
(the paper normalizes the volume edge to 2, coordinates in [-1, 1]).
"""

from __future__ import annotations

from typing import Iterator, Optional, Tuple

import numpy as np

from repro.utils.validation import check_shape_3d

__all__ = ["BlockGrid"]

_CORNER_OFFSETS = np.array(
    [[i, j, k] for i in (0, 1) for j in (0, 1) for k in (0, 1)], dtype=np.float64
)  # (8, 3) unit-cube corners


class BlockGrid:
    """Partition of a ``volume_shape`` voxel grid into uniform blocks.

    Blocks are addressed by a flat id in ``[0, n_blocks)`` laid out in
    C order over block indices ``(bi, bj, bk)``.  Edge blocks may be
    partial when the volume shape is not divisible by the block shape.

    Geometry is exposed in *normalized coordinates*: each axis of the
    volume maps linearly onto [-1, 1] (the paper's Fig. 10 convention),
    so the volume occupies the cube of edge 2 centred at the origin.
    """

    def __init__(self, volume_shape: Tuple[int, int, int], block_shape: Tuple[int, int, int]) -> None:
        self.volume_shape = check_shape_3d("volume_shape", volume_shape)
        self.block_shape = check_shape_3d("block_shape", block_shape)
        for axis in range(3):
            if self.block_shape[axis] > self.volume_shape[axis]:
                raise ValueError(
                    f"block_shape{self.block_shape} exceeds volume_shape{self.volume_shape} on axis {axis}"
                )
        self.blocks_per_axis: Tuple[int, int, int] = tuple(
            -(-self.volume_shape[a] // self.block_shape[a]) for a in range(3)
        )  # ceil division
        self.n_blocks = int(np.prod(self.blocks_per_axis))
        self._corners: Optional[np.ndarray] = None
        self._centers: Optional[np.ndarray] = None
        self._bounds: Optional[Tuple[np.ndarray, np.ndarray]] = None

    # -- id scheme -----------------------------------------------------------

    def block_index(self, block_id: int) -> Tuple[int, int, int]:
        """Flat id -> 3D block index ``(bi, bj, bk)``."""
        self._check_id(block_id)
        gx, gy, gz = self.blocks_per_axis
        bi, rem = divmod(block_id, gy * gz)
        bj, bk = divmod(rem, gz)
        return bi, bj, bk

    def block_id(self, bi: int, bj: int, bk: int) -> int:
        """3D block index -> flat id."""
        gx, gy, gz = self.blocks_per_axis
        if not (0 <= bi < gx and 0 <= bj < gy and 0 <= bk < gz):
            raise IndexError(f"block index ({bi},{bj},{bk}) outside grid {self.blocks_per_axis}")
        return (bi * gy + bj) * gz + bk

    def _check_id(self, block_id: int) -> None:
        if not (0 <= block_id < self.n_blocks):
            raise IndexError(f"block id {block_id} outside [0, {self.n_blocks})")

    def __len__(self) -> int:
        return self.n_blocks

    def iter_ids(self) -> Iterator[int]:
        return iter(range(self.n_blocks))

    # -- voxel extents -------------------------------------------------------

    def block_slices(self, block_id: int) -> Tuple[slice, slice, slice]:
        """Voxel slices of a block (clipped at the volume boundary)."""
        bi, bj, bk = self.block_index(block_id)
        bx, by, bz = self.block_shape
        nx, ny, nz = self.volume_shape
        return (
            slice(bi * bx, min((bi + 1) * bx, nx)),
            slice(bj * by, min((bj + 1) * by, ny)),
            slice(bk * bz, min((bk + 1) * bz, nz)),
        )

    def block_voxel_shape(self, block_id: int) -> Tuple[int, int, int]:
        """Actual voxel extent of a block (edge blocks may be partial)."""
        sl = self.block_slices(block_id)
        return tuple(s.stop - s.start for s in sl)

    def block_n_voxels(self, block_id: int) -> int:
        sx, sy, sz = self.block_voxel_shape(block_id)
        return sx * sy * sz

    def block_nbytes(self, block_id: int, itemsize: int = 4, n_variables: int = 1) -> int:
        """Payload bytes of one block (float32 voxels by default)."""
        return self.block_n_voxels(block_id) * itemsize * n_variables

    def uniform_block_nbytes(self, itemsize: int = 4, n_variables: int = 1) -> int:
        """Nominal bytes of a full (non-edge) block — the cost-model unit."""
        bx, by, bz = self.block_shape
        return bx * by * bz * itemsize * n_variables

    # -- normalized geometry ---------------------------------------------------

    def _voxel_to_normalized(self, voxel_coords: np.ndarray) -> np.ndarray:
        """Map voxel-space coordinates (0..n per axis) to [-1, 1] per axis."""
        scale = 2.0 / np.asarray(self.volume_shape, dtype=np.float64)
        return voxel_coords * scale - 1.0

    def corners(self) -> np.ndarray:
        """Normalized corner coordinates of every block, shape ``(n_blocks, 8, 3)``.

        Cached after first call; the input of the dense (reference) Eq. 1
        visibility kernel, computed fully vectorised.
        """
        if self._corners is None:
            lo, hi = self.bounds()
            # corner = lo + offset * (hi - lo); broadcast (B,1,3)*(8,3)
            self._corners = lo[:, None, :] + _CORNER_OFFSETS[None, :, :] * (hi - lo)[:, None, :]
        return self._corners

    def centers(self) -> np.ndarray:
        """Normalized block centers, shape ``(n_blocks, 3)``."""
        if self._centers is None:
            lo, hi = self.bounds()
            self._centers = 0.5 * (lo + hi)
        return self._centers

    def bounds(self) -> Tuple[np.ndarray, np.ndarray]:
        """Normalized per-block AABBs as ``(lo, hi)`` arrays of shape ``(n_blocks, 3)``."""
        if self._bounds is None:
            gx, gy, gz = self.blocks_per_axis
            bx, by, bz = self.block_shape
            nx, ny, nz = self.volume_shape
            bi, bj, bk = np.meshgrid(
                np.arange(gx), np.arange(gy), np.arange(gz), indexing="ij"
            )
            idx = np.stack([bi.ravel(), bj.ravel(), bk.ravel()], axis=1).astype(np.float64)
            block = np.array([bx, by, bz], dtype=np.float64)
            vol = np.array([nx, ny, nz], dtype=np.float64)
            lo_vox = idx * block
            hi_vox = np.minimum(lo_vox + block, vol)
            self._bounds = (
                self._voxel_to_normalized(lo_vox),
                self._voxel_to_normalized(hi_vox),
            )
        return self._bounds

    def blocks_containing(self, point: np.ndarray) -> np.ndarray:
        """Ids of blocks whose normalized AABB contains ``point`` (0 or 1 ids)."""
        point = np.asarray(point, dtype=np.float64)
        lo, hi = self.bounds()
        inside = np.all((point >= lo) & (point <= hi), axis=1)
        return np.flatnonzero(inside)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BlockGrid(volume_shape={self.volume_shape}, block_shape={self.block_shape}, "
            f"blocks_per_axis={self.blocks_per_axis}, n_blocks={self.n_blocks})"
        )

    # -- factory helpers -------------------------------------------------------

    @staticmethod
    def with_target_blocks(volume_shape: Tuple[int, int, int], target_n_blocks: int) -> "BlockGrid":
        """A grid whose block count is close to ``target_n_blocks``.

        The paper sweeps block *divisions* (Fig. 9: 512..16384 blocks); this
        helper picks per-axis splits proportional to the axis lengths so the
        blocks stay roughly cubic.
        """
        if target_n_blocks < 1:
            raise ValueError(f"target_n_blocks must be >= 1, got {target_n_blocks}")
        shape = np.asarray(check_shape_3d("volume_shape", volume_shape), dtype=np.float64)
        # Ideal splits: s_a proportional to shape_a with prod(s) = target.
        k = (target_n_blocks / float(np.prod(shape))) ** (1.0 / 3.0)
        splits = np.maximum(1, np.round(k * shape)).astype(int)
        splits = np.minimum(splits, shape.astype(int))
        block_shape = tuple(int(-(-int(shape[a]) // int(splits[a]))) for a in range(3))
        return BlockGrid(tuple(int(s) for s in volume_shape), block_shape)
