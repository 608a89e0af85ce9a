"""A small CPU volume ray-caster (perspective, front-to-back compositing).

This is the real renderer behind the examples: it produces images from the
same camera model the pipeline uses, and can restrict sampling to a set of
resident blocks — visualising exactly what a partially-cached volume looks
like mid-exploration.

Implementation notes (per the HPC guides): all rays are marched together
as one ``(n_rays, n_samples, 3)`` coordinate tensor fed to
``scipy.ndimage.map_coordinates`` once per frame; compositing is a single
vectorised scan over the sample axis.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np
from scipy.ndimage import map_coordinates

from repro.camera.model import Camera
from repro.render.transfer_function import TransferFunction
from repro.utils.geometry import normalize, perpendicular_unit_vector
from repro.volume.blocks import BlockGrid
from repro.volume.volume import Volume

__all__ = ["RenderSettings", "Raycaster"]


@dataclass(frozen=True)
class RenderSettings:
    """Image and sampling resolution for the ray-caster."""

    width: int = 128
    height: int = 128
    n_samples: int = 128  # samples per ray across the volume cube
    background: Tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise ValueError(f"image size must be >= 1x1, got {self.width}x{self.height}")
        if self.n_samples < 2:
            raise ValueError(f"n_samples must be >= 2, got {self.n_samples}")


class Raycaster:
    """Render a :class:`Volume` from :class:`Camera` positions."""

    def __init__(
        self,
        volume: Volume,
        transfer_function: Optional[TransferFunction] = None,
        settings: Optional[RenderSettings] = None,
        variable: Optional[str] = None,
    ) -> None:
        self.volume = volume
        self.tf = transfer_function or TransferFunction.grayscale_ramp()
        self.settings = settings or RenderSettings()
        self._data = volume.data(variable).astype(np.float32)
        lo, hi = float(self._data.min()), float(self._data.max())
        self._lo, self._span = lo, (hi - lo) if hi > lo else 1.0

    # -- ray setup ---------------------------------------------------------------

    def _ray_directions(self, camera: Camera) -> np.ndarray:
        """Unit direction per pixel, shape ``(H*W, 3)``."""
        s = self.settings
        forward = camera.direction
        right = perpendicular_unit_vector(forward)
        up = np.cross(right, forward)
        half = np.tan(camera.half_angle_rad)
        # Pixel centres in NDC [-1, 1] (x right, y up), aspect-corrected.
        xs = (np.arange(s.width) + 0.5) / s.width * 2.0 - 1.0
        ys = 1.0 - (np.arange(s.height) + 0.5) / s.height * 2.0
        aspect = s.width / s.height
        px, py = np.meshgrid(xs * half * aspect, ys * half, indexing="xy")
        dirs = (
            forward[None, None, :]
            + px[:, :, None] * right[None, None, :]
            + py[:, :, None] * up[None, None, :]
        )
        return normalize(dirs.reshape(-1, 3))

    @staticmethod
    def _box_intersections(origin: np.ndarray, dirs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Entry/exit distances of each ray with the cube [-1, 1]³ (slab test)."""
        with np.errstate(divide="ignore", invalid="ignore"):
            inv = 1.0 / dirs
        t0 = (-1.0 - origin[None, :]) * inv
        t1 = (1.0 - origin[None, :]) * inv
        # Rays parallel to a slab: +-inf propagates correctly through min/max,
        # but 0 * inf = nan needs cleanup.
        t0 = np.nan_to_num(t0, nan=-np.inf, posinf=np.inf, neginf=-np.inf)
        t1 = np.nan_to_num(t1, nan=np.inf, posinf=np.inf, neginf=-np.inf)
        tnear = np.maximum.reduce(np.minimum(t0, t1), axis=1)
        tfar = np.minimum.reduce(np.maximum(t0, t1), axis=1)
        tnear = np.maximum(tnear, 0.0)  # start at the camera, not behind it
        return tnear, tfar

    # -- rendering -----------------------------------------------------------------

    def render(
        self,
        camera: Camera,
        resident_blocks: Optional[np.ndarray] = None,
        grid: Optional[BlockGrid] = None,
    ) -> np.ndarray:
        """Render an RGB image of shape ``(height, width, 3)`` in [0, 1].

        When ``resident_blocks`` (ids) and ``grid`` are given, samples in
        non-resident blocks contribute nothing — the image shows holes
        where data has not been fetched yet.
        """
        s = self.settings
        origin = camera.position_array
        dirs = self._ray_directions(camera)
        tnear, tfar = self._box_intersections(origin, dirs)
        hit = tfar > tnear
        n_rays = dirs.shape[0]

        image = np.empty((n_rays, 3), dtype=np.float64)
        image[:] = np.asarray(s.background)
        if not hit.any():
            return image.reshape(s.height, s.width, 3)

        d_hit = dirs[hit]
        t0 = tnear[hit]
        t1 = tfar[hit]
        ts = t0[:, None] + (t1 - t0)[:, None] * np.linspace(0.0, 1.0, s.n_samples)[None, :]
        pts = origin[None, None, :] + d_hit[:, None, :] * ts[:, :, None]  # (R, S, 3)

        # Normalized cube [-1,1] -> voxel index space per axis.
        shape = np.asarray(self.volume.shape, dtype=np.float64)
        coords = (pts + 1.0) * 0.5 * shape[None, None, :] - 0.5
        flat = coords.reshape(-1, 3).T  # (3, R*S)
        samples = map_coordinates(self._data, flat, order=1, mode="nearest")
        samples = samples.reshape(len(d_hit), s.n_samples)
        samples = (samples - self._lo) / self._span

        if resident_blocks is not None:
            if grid is None:
                raise ValueError("resident_blocks requires the matching BlockGrid")
            mask = self._resident_sample_mask(pts, grid, resident_blocks)
            samples = np.where(mask, samples, 0.0)

        rgba = self.tf(samples)  # (R, S, 4)
        # Opacity correction for the per-ray step length (reference step =
        # cube diagonal / n_samples).
        step_len = (t1 - t0) / (s.n_samples - 1)
        ref = 2.0 * np.sqrt(3.0) / s.n_samples
        alpha = 1.0 - np.power(
            np.clip(1.0 - rgba[..., 3], 1e-9, 1.0), step_len[:, None] / ref
        )

        color = np.zeros((len(d_hit), 3), dtype=np.float64)
        transmittance = np.ones(len(d_hit), dtype=np.float64)
        for k in range(s.n_samples):  # front-to-back, vectorised over rays
            a = alpha[:, k] * transmittance
            color += a[:, None] * rgba[:, k, :3]
            transmittance *= 1.0 - alpha[:, k]
            if transmittance.max() < 1e-4:
                break
        color += transmittance[:, None] * np.asarray(s.background)[None, :]

        image[hit] = np.clip(color, 0.0, 1.0)
        return image.reshape(s.height, s.width, 3)

    @staticmethod
    def _resident_sample_mask(
        pts: np.ndarray, grid: BlockGrid, resident_blocks: np.ndarray
    ) -> np.ndarray:
        """True where a sample point falls inside a resident block."""
        resident = np.zeros(grid.n_blocks, dtype=bool)
        resident[np.asarray(resident_blocks, dtype=np.int64)] = True
        gx, gy, gz = grid.blocks_per_axis
        dims = np.asarray(grid.volume_shape, dtype=np.float64)
        block = np.asarray(grid.block_shape, dtype=np.float64)
        # Normalized [-1,1] -> voxel -> block index per axis.
        vox = (pts + 1.0) * 0.5 * dims[None, None, :]
        idx = np.floor(vox / block[None, None, :]).astype(np.int64)
        np.clip(idx[..., 0], 0, gx - 1, out=idx[..., 0])
        np.clip(idx[..., 1], 0, gy - 1, out=idx[..., 1])
        np.clip(idx[..., 2], 0, gz - 1, out=idx[..., 2])
        flat = (idx[..., 0] * gy + idx[..., 1]) * gz + idx[..., 2]
        return resident[flat]

    @staticmethod
    def to_ppm(image: np.ndarray, path: str) -> str:
        """Write an RGB float image to a binary PPM file (no deps needed)."""
        arr = np.clip(np.asarray(image) * 255.0 + 0.5, 0, 255).astype(np.uint8)
        if arr.ndim != 3 or arr.shape[2] != 3:
            raise ValueError(f"image must be (H, W, 3), got {arr.shape}")
        h, w, _ = arr.shape
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
            f.write(arr.tobytes())
        return path
