"""Per-block visibility: the paper's Eq. 1, fully vectorised.

A block ``b`` is visible from a camera at ``v`` (looking at the centroid
``o``) when the angle φ between ``v→b_i`` and ``v→o`` is at most θ/2 for
some test point ``b_i`` of the block.  The paper tests the eight block
corners; we additionally include the block center by default and treat a
block that contains the camera as visible — both guard the zoomed-in case
where the frustum axis pierces a large block whose corners all fall
outside the cone (documented deviation; disable with
``include_center=False``).

Instead of ``arccos`` we compare ``cos φ ≥ cos(θ/2)`` on the normalised
dot products — same predicate, no transcendental per corner (see the HPC
guide: vectorise and compute less).

Two kernels evaluate the same predicate, bit for bit:

- ``kernel="lattice"`` (the default) uses the block grid's tensor-product
  structure.  Neighbouring blocks share their corners, so Eq. 1 runs once
  per grid vertex: ``w·a`` and ``w·w`` over the ``(gx+1)(gy+1)(gz+1)``
  vertex lattice and the ``gx·gy·gz`` centre lattice are outer sums of
  three 1-D per-axis arrays.  A block is visible when any of its eight
  vertex flags, its centre flag, or the camera-inside-block test (an
  outer AND of three per-axis interval tests) is set.  Its cost does not
  depend on how many blocks are visible.
- ``kernel="dense"`` broadcasts ``positions × blocks × test-points`` — the
  reference the lattice kernel is tested against.

Both write the 3-term sums as ``(x + z) + y``, the order ``np.einsum``
folds these 3-vectors in with numpy 2.x on AVX-512, so every result
matches the einsum formulation the kernels replaced and no longer depends
on which SIMD path numpy takes.
"""

from __future__ import annotations

from functools import partial
from typing import Iterator, List, Tuple

import numpy as np

from repro.volume.blocks import BlockGrid

__all__ = [
    "visible_mask",
    "visible_blocks",
    "visible_masks_batch",
    "visible_ids_batch",
    "union_visible_mask",
    "lattice_position_chunk",
    "KERNELS",
]

_EPS = 1e-12

#: Kernel names accepted by the ``kernel=`` arguments in this module.
KERNELS = ("lattice", "dense")

#: Byte budget of one lattice evaluation: enough cameras to amortise the
#: per-call numpy overhead, few enough that the lattices stay cache-sized
#: (from 7 cameras at 15,625 blocks to 109 at 1,000).
_LATTICE_CHUNK_BYTES = 4 * 1024 * 1024

#: Float64 lattice temporaries alive per camera (``w·a`` and ``w·w``).
_LATTICE_TEMPS = 2

#: Approximate float64 temporaries alive per (position, block, point) cell
#: of the dense broadcast: ``w``, ``w·a`` and ``w·w`` per component, and
#: the reduced terms.
_DENSE_TEMPS = 12


def lattice_position_chunk(grid: BlockGrid, chunk_bytes: int) -> int:
    """Positions per batch so one batch's lattice temporaries and mask
    rows stay under ``chunk_bytes`` (never less than one).

    The table builder sizes its sample groups with the same formula.
    """
    gx, gy, gz = grid.blocks_per_axis
    n_points = (gx + 1) * (gy + 1) * (gz + 1) + grid.n_blocks
    per_pos = 8 * _LATTICE_TEMPS * n_points + grid.n_blocks
    return max(1, int(chunk_bytes // per_pos))


def visible_mask(
    position: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "lattice",
) -> np.ndarray:
    """Boolean mask over block ids, True where the block is visible (Eq. 1)."""
    masks = visible_masks_batch(
        np.asarray(position, dtype=np.float64)[None, :],
        grid,
        view_angle_deg,
        include_center,
        kernel=kernel,
    )
    return masks[0]


def visible_blocks(
    position: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "lattice",
) -> np.ndarray:
    """Sorted array of visible block ids from ``position``."""
    ids = visible_ids_batch(
        np.asarray(position, dtype=np.float64)[None, :],
        grid,
        view_angle_deg,
        include_center,
        kernel=kernel,
    )
    return ids[0]


def visible_masks_batch(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    chunk_bytes: int = 256 * 1024 * 1024,
    kernel: str = "lattice",
) -> np.ndarray:
    """Visibility masks for many camera positions at once.

    Returns a ``(n_positions, n_blocks)`` boolean array.  Work is chunked
    over positions so the kernel's temporaries stay under ``chunk_bytes``;
    at large block counts prefer :func:`visible_ids_batch`, which never
    holds more than one chunk's masks.
    """
    positions = _check_positions(positions, view_angle_deg)
    out = np.empty((positions.shape[0], grid.n_blocks), dtype=bool)
    for start, masks in _mask_chunks(
        positions, grid, view_angle_deg, include_center, chunk_bytes, kernel
    ):
        out[start : start + len(masks)] = masks
    return out


def visible_ids_batch(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "lattice",
    chunk_bytes: int = 256 * 1024 * 1024,
) -> List[np.ndarray]:
    """Sparse visibility: one sorted int64 id array per camera position.

    Exactly ``np.flatnonzero`` of each row of :func:`visible_masks_batch`,
    one chunk of masks at a time.  Output is identical across kernels
    (tested).
    """
    positions = _check_positions(positions, view_angle_deg)
    ids: List[np.ndarray] = []
    for _, masks in _mask_chunks(
        positions, grid, view_angle_deg, include_center, chunk_bytes, kernel
    ):
        ids.extend(np.flatnonzero(m).astype(np.int64) for m in masks)
    return ids


def union_visible_mask(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool = True,
    kernel: str = "lattice",
) -> np.ndarray:
    """Union of the visibility masks of several positions (vicinal aggregation)."""
    masks = visible_masks_batch(
        positions, grid, view_angle_deg, include_center, kernel=kernel
    )
    return masks.any(axis=0)


def _check_positions(positions: np.ndarray, view_angle_deg: float) -> np.ndarray:
    positions = np.atleast_2d(np.asarray(positions, dtype=np.float64))
    if positions.shape[1] != 3:
        raise ValueError(f"positions must be (N, 3), got {positions.shape}")
    if not 0.0 < view_angle_deg < 180.0:
        raise ValueError(f"view_angle_deg must be in (0, 180), got {view_angle_deg}")
    return positions


def _mask_chunks(
    positions: np.ndarray,
    grid: BlockGrid,
    view_angle_deg: float,
    include_center: bool,
    chunk_bytes: int,
    kernel: str,
) -> Iterator[Tuple[int, np.ndarray]]:
    """``(start, (C, n_blocks) masks)`` per chunk of positions."""
    if kernel not in KERNELS:
        raise ValueError(f"kernel must be one of {KERNELS}, got {kernel!r}")
    cos_half = np.cos(np.deg2rad(view_angle_deg) / 2.0)
    if kernel == "lattice":
        chunk = lattice_position_chunk(grid, min(chunk_bytes, _LATTICE_CHUNK_BYTES))
        evaluate = partial(
            _lattice_masks, axes=_axis_lattices(grid), cos_half=cos_half,
            include_center=include_center,
        )
    else:
        points = _test_points(grid, include_center)  # (B, P, 3)
        per_pos = points.shape[0] * points.shape[1] * 8 * _DENSE_TEMPS
        chunk = max(1, int(chunk_bytes // per_pos))
        lo, hi = grid.bounds()
        evaluate = partial(_dense_masks, points=points, lo=lo, hi=hi, cos_half=cos_half)
    for start in range(0, positions.shape[0], chunk):
        yield start, evaluate(positions[start : start + chunk])


# ---------------------------------------------------------------------------
# lattice kernel


def _axis_lattices(grid: BlockGrid) -> List[Tuple[np.ndarray, ...]]:
    """Per axis: ``(vertices, centres, lo, hi)`` 1-D coordinate arrays.

    Vertex ``i`` is block ``i``'s low face and block ``i − 1``'s far face,
    so block ``i − 1``'s far corner — computed as the dense kernel computes
    it, ``lo + 1.0·(hi − lo)`` — must equal block ``i``'s ``lo`` bit for
    bit, and the block bounds must be the outer product of the per-axis
    ones.  Both are checked; a grid that breaks either raises
    ``ValueError`` naming the axis.
    """
    lo, hi = grid.bounds()
    shape = grid.blocks_per_axis
    lo = lo.reshape(*shape, 3)
    hi = hi.reshape(*shape, 3)
    axes = []
    for a, name in enumerate("xyz"):
        line = [0, 0, 0]
        line[a] = slice(None)
        spread = [None, None, None]
        spread[a] = slice(None)
        lo_a, hi_a = lo[(*line, a)], hi[(*line, a)]
        far = lo_a + 1.0 * (hi_a - lo_a)
        if not (
            np.all(lo[..., a] == lo_a[tuple(spread)])
            and np.all(hi[..., a] == hi_a[tuple(spread)])
            and np.array_equal(far[:-1], lo_a[1:])
        ):
            raise ValueError(
                f"block bounds along axis {name} do not form a lattice with "
                f"shared corners: each block's far corner lo + 1.0*(hi - lo) "
                f"must equal the next block's lo"
            )
        axes.append((np.append(lo_a, far[-1]), 0.5 * (lo_a + hi_a), lo_a, hi_a))
    return axes


def _outer_sum(x: np.ndarray, y: np.ndarray, z: np.ndarray) -> np.ndarray:
    """``(x + z) + y`` over the ``(C, nx, ny, nz)`` outer grid."""
    return (x[:, :, None, None] + z[:, None, None, :]) + y[:, None, :, None]


def _lattice_flags(
    pos: np.ndarray,
    axis: np.ndarray,
    an: np.ndarray,
    coords: Tuple[np.ndarray, np.ndarray, np.ndarray],
    cos_half: float,
) -> np.ndarray:
    """Eq. 1 at every point of the outer grid of ``coords``: ``(C, nx, ny, nz)``."""
    w = [c[None, :] - pos[:, a, None] for a, c in enumerate(coords)]
    dots = _outer_sum(*(w_a * axis[:, a, None] for a, w_a in enumerate(w)))
    denom = _outer_sum(*(w_a * w_a for w_a in w))
    np.sqrt(denom, out=denom)
    denom *= an[:, None, None, None]
    np.maximum(denom, _EPS, out=denom)
    denom *= cos_half
    # cos φ ≥ cos(θ/2) ⇔ φ ≤ θ/2 (both sides in [0, π]).
    return dots >= denom


def _lattice_masks(
    pos: np.ndarray,
    axes: List[Tuple[np.ndarray, ...]],
    cos_half: float,
    include_center: bool,
) -> np.ndarray:
    axis = -pos  # the view axis v->o
    an = np.linalg.norm(axis, axis=1)
    vertex = _lattice_flags(pos, axis, an, tuple(a[0] for a in axes), cos_half)
    # A block's eight corners are the 2×2×2 vertex neighbourhood: OR the
    # neighbours along x, then y, then z.
    vis = vertex[:, :-1] | vertex[:, 1:]
    vis = vis[:, :, :-1] | vis[:, :, 1:]
    vis = vis[:, :, :, :-1] | vis[:, :, :, 1:]
    if include_center:
        vis |= _lattice_flags(pos, axis, an, tuple(a[1] for a in axes), cos_half)
    # A block containing the camera is visible even if every test point
    # falls outside the cone.
    ix, iy, iz = (
        (pos[:, a, None] >= lo) & (pos[:, a, None] <= hi)
        for a, (_, _, lo, hi) in enumerate(axes)
    )
    vis |= ix[:, :, None, None] & iy[:, None, :, None] & iz[:, None, None, :]
    return vis.reshape(pos.shape[0], -1)


# ---------------------------------------------------------------------------
# dense reference kernel


def _test_points(grid: BlockGrid, include_center: bool) -> np.ndarray:
    """(n_blocks, P, 3) test points: corners (+ center)."""
    corners = grid.corners()
    if not include_center:
        return corners
    centers = grid.centers()[:, None, :]
    return np.concatenate([corners, centers], axis=1)


def _dense_masks(
    pos: np.ndarray,
    points: np.ndarray,
    lo: np.ndarray,
    hi: np.ndarray,
    cos_half: float,
) -> np.ndarray:
    # w = v->point vectors; the view axis is v->o = -pos.
    w = points[None, :, :, :] - pos[:, None, None, :]  # (C, B, P, 3)
    axis = -pos  # (C, 3)
    t = w * axis[:, None, None, :]
    dots = (t[..., 0] + t[..., 2]) + t[..., 1]
    s = w * w
    wn = np.sqrt((s[..., 0] + s[..., 2]) + s[..., 1])
    an = np.linalg.norm(axis, axis=1)[:, None, None]
    denom = np.maximum(wn * an, _EPS)
    # cos φ ≥ cos(θ/2) ⇔ φ ≤ θ/2 (both sides in [0, π]).
    vis = (dots >= cos_half * denom).any(axis=2)  # (C, B)
    # A block containing the camera is visible even if every test point
    # falls outside the cone.
    inside = np.all(
        (pos[:, None, :] >= lo[None, :, :]) & (pos[:, None, :] <= hi[None, :, :]),
        axis=2,
    )
    return vis | inside
