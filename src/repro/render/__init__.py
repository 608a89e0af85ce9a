"""Rendering substrate.

The pipeline's *timing* uses the analytic :class:`RenderCostModel` (only
the render duration matters for the overlap rule, §V-D); the examples use
the real CPU ray-caster in :mod:`repro.render.raycast` to produce images,
including partial renders restricted to cache-resident blocks.  The
data-dependent operations of Fig. 3 (histograms, correlation matrices over
the visible region) live in :mod:`repro.render.analysis`.
"""

from repro.render.transfer_function import TransferFunction
from repro.render.render_model import RenderCostModel
from repro.render.raycast import Raycaster, RenderSettings
from repro.render.analysis import (
    visible_histogram,
    visible_correlation_matrix,
    visible_statistics,
)
from repro.render.query import BlockRangeIndex, RangeQuery, evaluate_query
from repro.render.isosurface import (
    isosurface_blocks,
    isosurface_mask,
    isosurface_statistics,
    IsoStatistics,
)

__all__ = [
    "TransferFunction",
    "RenderCostModel",
    "Raycaster",
    "RenderSettings",
    "visible_histogram",
    "visible_correlation_matrix",
    "visible_statistics",
    "BlockRangeIndex",
    "RangeQuery",
    "evaluate_query",
    "isosurface_blocks",
    "isosurface_mask",
    "isosurface_statistics",
    "IsoStatistics",
]
