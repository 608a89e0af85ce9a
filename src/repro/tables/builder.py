"""One-time preprocessing: build ``T_visible`` and ``T_important``.

This is the offline part of the paper's pipeline (Fig. 5, Steps 1 and 2).
For every sampled camera position the builder aggregates the frustums of
the vicinal points ``v'`` (radius from Eq. 6 unless fixed) into the
predicted set ``S_v``; over-predicted sets are truncated to the most
important blocks (§IV-C last paragraph) when an importance table and a
capacity are supplied.

The per-sample sets are accumulated CSR-natively into a
:class:`SampleSets` (one growing int64 id buffer + a sizes array — no
Python list-of-arrays, no per-set ``np.concatenate``), which
:meth:`VisibleTable.from_sets` consumes without any further copy of the
offsets.  Eq. 1 runs on the lattice kernel of
:mod:`repro.camera.frustum`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator, Optional, Tuple

import numpy as np

from repro.camera.frustum import (
    lattice_position_chunk,
    visible_ids_batch,  # noqa: F401 - perfbench/spans.py wraps it by name
    visible_masks_batch,
)
from repro.camera.sampling import SamplingConfig, sample_positions
from repro.camera.vicinity import optimal_radius, vicinal_points
from repro.importance.measures import compute_importance
from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import VisibleTable
from repro.utils.rng import SeedLike, spawn_rngs
from repro.volume.blocks import BlockGrid
from repro.volume.volume import Volume

__all__ = [
    "build_visible_table",
    "build_importance_table",
    "build_tables",
    "compute_sample_sets",
    "SampleSets",
]


@dataclass
class SampleSets:
    """CSR-packed per-sample visible-id sets.

    ``sizes[i]`` ids belong to sample *i*; ``ids`` is their concatenation
    in sample order.  Behaves like the list of int64 arrays it replaces
    (``len``/iteration/indexing return views), so existing callers keep
    working, while :meth:`VisibleTable.from_sets` consumes the arrays
    directly with zero repacking.
    """

    sizes: np.ndarray
    ids: np.ndarray
    _offsets: Optional[np.ndarray] = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        self.sizes = np.asarray(self.sizes, dtype=np.int64)
        self.ids = np.asarray(self.ids, dtype=np.int64)
        if self.sizes.ndim != 1 or self.ids.ndim != 1:
            raise ValueError("sizes and ids must be 1-D")
        if int(self.sizes.sum()) != self.ids.size:
            raise ValueError(
                f"sizes sum to {int(self.sizes.sum())} but ids has {self.ids.size}"
            )

    @property
    def offsets(self) -> np.ndarray:
        """(n_samples + 1,) CSR offsets into :attr:`ids`."""
        if self._offsets is None:
            off = np.zeros(self.sizes.size + 1, dtype=np.int64)
            np.cumsum(self.sizes, out=off[1:])
            self._offsets = off
        return self._offsets

    def __len__(self) -> int:
        return self.sizes.size

    def __getitem__(self, i: int) -> np.ndarray:
        off = self.offsets
        return self.ids[off[i] : off[i + 1]]

    def __iter__(self) -> Iterator[np.ndarray]:
        off = self.offsets
        return (self.ids[off[i] : off[i + 1]] for i in range(self.sizes.size))


class _SetAccumulator:
    """Appends id arrays into one growing int64 buffer (amortised O(1))."""

    def __init__(self, n_samples: int) -> None:
        self.sizes = np.zeros(n_samples, dtype=np.int64)
        self._buf = np.empty(max(1024, 8 * n_samples), dtype=np.int64)
        self._used = 0
        self._cursor = 0

    def append(self, ids: np.ndarray) -> None:
        need = self._used + ids.size
        if need > self._buf.size:
            grown = np.empty(max(need, 2 * self._buf.size), dtype=np.int64)
            grown[: self._used] = self._buf[: self._used]
            self._buf = grown
        self._buf[self._used : need] = ids
        self._used = need
        self.sizes[self._cursor] = ids.size
        self._cursor += 1

    def finish(self) -> SampleSets:
        if self._cursor != self.sizes.size:
            raise RuntimeError(
                f"accumulated {self._cursor} of {self.sizes.size} samples"
            )
        return SampleSets(self.sizes, self._buf[: self._used].copy())


def build_importance_table(
    volume: Volume,
    grid: BlockGrid,
    measure: str = "entropy",
    variable: Optional[str] = None,
) -> ImportanceTable:
    """Step 2: rank every block by ``measure`` (entropy is the paper's)."""
    scores = compute_importance(volume, grid, measure=measure, variable=variable)
    return ImportanceTable(scores, measure=measure)


def compute_sample_sets(
    grid: BlockGrid,
    positions: np.ndarray,
    indices,
    rngs,
    view_angle_deg: float,
    cache_ratio: float = 0.5,
    fixed_radius: Optional[float] = None,
    n_vicinal: int = 8,
    importance: Optional[ImportanceTable] = None,
    max_set_size: Optional[int] = None,
    include_center: bool = True,
    chunk_bytes: int = 256 * 1024 * 1024,
) -> SampleSets:
    """Predicted visible sets for the sample positions at ``indices``.

    The kernel of :func:`build_visible_table`: ``rngs[i]`` is the
    vicinal RNG of global sample ``i``, so any partition of the index
    range reproduces the whole-range result exactly.  Returns a CSR-packed
    :class:`SampleSets` (list-compatible).
    """
    indices = list(indices)
    acc = _SetAccumulator(len(indices))
    # Chunk samples so one visibility batch's lattice temporaries and mask
    # rows stay under chunk_bytes (positions-per-batch / points-per-sample).
    pts_per_sample = n_vicinal + 1  # vicinal_points includes the center
    pos_chunk = lattice_position_chunk(grid, chunk_bytes)
    chunk = max(1, pos_chunk // pts_per_sample)
    for start in range(0, len(indices), chunk):
        group = indices[start : start + chunk]
        group_points = []
        for i in group:
            pos = positions[i]
            d = float(np.linalg.norm(pos))
            r = fixed_radius if fixed_radius is not None else optimal_radius(
                view_angle_deg, d, cache_ratio
            )
            group_points.append(
                vicinal_points(pos, r, n_points=n_vicinal, seed=rngs[i])
            )
        masks = visible_masks_batch(
            np.concatenate(group_points, axis=0), grid, view_angle_deg,
            include_center, chunk_bytes,
        )
        # Every sample contributes pts_per_sample consecutive rows.
        unions = masks.reshape(len(group), pts_per_sample, -1).any(axis=1)
        for union in unions:
            ids = np.flatnonzero(union).astype(np.int64)
            if (
                max_set_size is not None
                and importance is not None
                and ids.size > max_set_size
            ):
                scores = importance.scores[ids]
                keep = np.argsort(-scores, kind="stable")[:max_set_size]
                ids = np.sort(ids[keep])
            acc.append(ids)
    return acc.finish()


def build_visible_table(
    grid: BlockGrid,
    sampling: SamplingConfig,
    view_angle_deg: float,
    cache_ratio: float = 0.5,
    fixed_radius: Optional[float] = None,
    n_vicinal: int = 8,
    importance: Optional[ImportanceTable] = None,
    max_set_size: Optional[int] = None,
    seed: SeedLike = 0,
    include_center: bool = True,
) -> VisibleTable:
    """Step 1: the ``T_visible`` lookup table.

    Parameters
    ----------
    grid:
        Block partition of the volume (the table depends only on the block
        geometry and the views, §IV-B).
    sampling:
        How camera positions are placed in Ω.
    view_angle_deg:
        Frustum opening angle θ.
    cache_ratio:
        ρ for the Eq. 6 optimal vicinal radius (ignored when
        ``fixed_radius`` is given — the Fig. 11 comparison axis).
    fixed_radius:
        Use this vicinal radius for every sample instead of Eq. 6.
    n_vicinal:
        Random points ``v'`` per vicinal sphere (the center is always
        included).
    importance, max_set_size:
        When both are given, any ``S_v`` larger than ``max_set_size`` keeps
        only its most important blocks (over-prediction truncation).
    """
    positions = sample_positions(sampling)
    n_samples = positions.shape[0]
    rngs = spawn_rngs(seed, n_samples)
    sets = compute_sample_sets(
        grid,
        positions,
        range(n_samples),
        rngs,
        view_angle_deg,
        cache_ratio=cache_ratio,
        fixed_radius=fixed_radius,
        n_vicinal=n_vicinal,
        importance=importance,
        max_set_size=max_set_size,
        include_center=include_center,
    )

    meta = {
        "view_angle_deg": float(view_angle_deg),
        "cache_ratio": float(cache_ratio),
        "fixed_radius": None if fixed_radius is None else float(fixed_radius),
        "n_vicinal": int(n_vicinal),
        "n_blocks": int(grid.n_blocks),
        "scheme": sampling.scheme,
    }
    return VisibleTable.from_sets(positions, sets, meta)


def build_tables(
    volume: Volume,
    grid: BlockGrid,
    sampling: SamplingConfig,
    view_angle_deg: float,
    cache_ratio: float = 0.5,
    measure: str = "entropy",
    truncate_to_capacity: Optional[int] = None,
    seed: SeedLike = 0,
    **visible_kwargs,
) -> Tuple[VisibleTable, ImportanceTable]:
    """Run both preprocessing steps and return ``(T_visible, T_important)``."""
    itable = build_importance_table(volume, grid, measure=measure)
    vtable = build_visible_table(
        grid,
        sampling,
        view_angle_deg,
        cache_ratio=cache_ratio,
        importance=itable,
        max_set_size=truncate_to_capacity,
        seed=seed,
        **visible_kwargs,
    )
    return vtable, itable
