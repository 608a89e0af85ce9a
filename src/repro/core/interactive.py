"""Budgeted interactive replay: frame deadlines instead of stalls.

The main pipeline models the paper's semantics — every visible block is
fetched before rendering, so misses cost *time*.  Real interactive systems
often invert this: the frame deadline is fixed, the renderer draws with
whatever is resident, and missing blocks appear as holes until I/O catches
up.  Under that regime the replacement/prefetch policy determines *image
quality* rather than latency.

:func:`repro.runtime.run_budgeted` replays a path with a per-step
demand-I/O budget: visible blocks are fetched in priority order until the
budget runs out, the rest stay missing for that frame.  The result records
per-step *coverage* (fraction of visible blocks resident at render time)
and the resident visible sets, which :func:`render_quality_series` turns
into PSNR-vs-full-data numbers with the real ray-caster.  The
:class:`BudgetedStep`/:class:`BudgetedResult` records live here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.pipeline import PipelineContext
from repro.render.image import psnr

__all__ = ["BudgetedStep", "BudgetedResult", "render_quality_series"]


@dataclass(frozen=True)
class BudgetedStep:
    """One frame of a budgeted replay."""

    step: int
    n_visible: int
    n_rendered: int  # visible blocks resident when the deadline hit
    io_time_s: float
    prefetch_time_s: float
    rendered_ids: np.ndarray  # the resident visible ids (for image eval)
    n_dropped: int = 0  # blocks the (fault-injected) storage failed to deliver

    @property
    def coverage(self) -> float:
        """Fraction of the visible set available to the renderer."""
        return self.n_rendered / self.n_visible if self.n_visible else 1.0


@dataclass
class BudgetedResult:
    """Aggregate of a budgeted replay."""

    name: str
    io_budget_s: float
    steps: List[BudgetedStep] = field(default_factory=list)

    @property
    def mean_coverage(self) -> float:
        if not self.steps:
            return 1.0
        return float(np.mean([s.coverage for s in self.steps]))

    @property
    def min_coverage(self) -> float:
        if not self.steps:
            return 1.0
        return float(min(s.coverage for s in self.steps))

    @property
    def full_frames(self) -> int:
        """Frames rendered with the complete visible set."""
        return sum(1 for s in self.steps if s.n_rendered == s.n_visible)

    @property
    def dropped_blocks(self) -> int:
        """Blocks dropped by fault injection across the replay."""
        return sum(s.n_dropped for s in self.steps)

    @property
    def degraded_frames(self) -> int:
        """Frames that rendered without at least one dropped block."""
        return sum(1 for s in self.steps if s.n_dropped)


def render_quality_series(
    result: BudgetedResult,
    context: PipelineContext,
    raycaster,
    every: int = 10,
) -> "list[tuple[int, float]]":
    """PSNR of budget-limited frames vs the frames a stalling pipeline shows.

    The reference frame for step *i* is the render restricted to the *full
    visible set* of that step — exactly the image the paper's stall-until-
    loaded pipeline would display.  (Not the unrestricted render: square
    image corners see slightly past the circular Eq. 1 cone, so even full
    coverage would differ from an all-blocks render.)  Renders every
    ``every``-th step twice and returns ``(step, psnr_db)`` pairs; full
    coverage gives ``inf``.
    """
    if every < 1:
        raise ValueError(f"every must be >= 1, got {every}")
    out = []
    for s in result.steps[::every]:
        camera = context.path.camera(s.step)
        reference = raycaster.render(
            camera,
            resident_blocks=np.asarray(context.visible_sets[s.step], dtype=np.int64),
            grid=context.grid,
        )
        partial = raycaster.render(
            camera, resident_blocks=s.rendered_ids, grid=context.grid
        )
        out.append((s.step, psnr(partial, reference)))
    return out
