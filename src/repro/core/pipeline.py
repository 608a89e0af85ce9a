"""Camera-path replay inputs: visible-set computation and the replay context.

The demand access sequence of a replay is *policy independent* — which
blocks are visible at step ``i`` depends only on the path and geometry —
so :func:`compute_visible_sets` is shared by every driver and
:func:`collect_demand_trace` can feed the offline Belady policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.camera.frustum import visible_ids_batch
from repro.camera.path import CameraPath
from repro.render.render_model import RenderCostModel
from repro.volume.blocks import BlockGrid

__all__ = [
    "compute_visible_sets",
    "collect_demand_trace",
    "PipelineContext",
]


def compute_visible_sets(
    path: CameraPath,
    grid: BlockGrid,
    include_center: bool = True,
) -> List[np.ndarray]:
    """Ground-truth visible block ids per view point (ascending id order).

    One batched visibility evaluation over all path positions — this is
    the geometry the renderer needs at each step, independent of caching.
    """
    return visible_ids_batch(
        path.positions, grid, path.view_angle_deg, include_center
    )


def collect_demand_trace(
    path: CameraPath,
    grid: BlockGrid,
    visible_sets: Optional[List[np.ndarray]] = None,
) -> np.ndarray:
    """The flat demand access sequence a replay will issue (``int64``).

    Feeding this to :class:`repro.policies.belady.BeladyPolicy` yields the
    offline-optimal baseline; the order (steps outer, ascending block id
    inner) matches every driver in this module.
    """
    if visible_sets is None:
        visible_sets = compute_visible_sets(path, grid)
    if not visible_sets:
        return np.empty(0, dtype=np.int64)
    return np.concatenate([np.asarray(ids, dtype=np.int64) for ids in visible_sets])


@dataclass
class PipelineContext:
    """Everything a driver needs to replay a path, bundled for reuse.

    Precomputing ``visible_sets`` once and replaying under several
    hierarchies (FIFO vs LRU vs app-aware) keeps comparisons exact: every
    driver sees the identical demand sequence.
    """

    path: CameraPath
    grid: BlockGrid
    visible_sets: List[np.ndarray]
    render_model: RenderCostModel

    @classmethod
    def create(
        cls,
        path: CameraPath,
        grid: BlockGrid,
        render_model: Optional[RenderCostModel] = None,
        include_center: bool = True,
    ) -> "PipelineContext":
        return cls(
            path=path,
            grid=grid,
            visible_sets=compute_visible_sets(path, grid, include_center),
            render_model=render_model or RenderCostModel(),
        )

    def demand_trace(self) -> np.ndarray:
        return collect_demand_trace(self.path, self.grid, self.visible_sets)
