"""The paper's primary contribution: application-aware I/O optimization.

:class:`AppAwareOptimizer` implements Algorithm 1 — importance preload,
constrained-LRU demand fetching, and table-driven prefetch overlapped with
rendering — on top of the substrates (volume blocks, storage hierarchy,
camera prediction, importance tables).  :mod:`repro.core.pipeline` builds
the replay inputs (visible sets, demand traces); the drivers that replay
them under any policy live in :mod:`repro.runtime` and are re-exported
here, producing comparable :class:`~repro.core.metrics.RunResult` records.
"""

from repro.core.metrics import StepMetrics, RunResult
from repro.core.pipeline import (
    compute_visible_sets,
    collect_demand_trace,
    PipelineContext,
)
from repro.core.interactive import (
    BudgetedResult,
    BudgetedStep,
    render_quality_series,
)

from repro.runtime.config import OptimizerConfig
from repro.runtime.drivers import (
    AppAwareOptimizer,
    run_baseline,
    run_budgeted,
    run_temporal,
)
from repro.core.session import OutOfCoreSession
from repro.core.results_io import run_to_dict, save_run_json, save_steps_csv, load_run_json

__all__ = [
    "run_temporal",
    "BudgetedResult",
    "BudgetedStep",
    "run_budgeted",
    "render_quality_series",
    "OutOfCoreSession",
    "run_to_dict",
    "save_run_json",
    "save_steps_csv",
    "load_run_json",
    "StepMetrics",
    "RunResult",
    "compute_visible_sets",
    "collect_demand_trace",
    "run_baseline",
    "PipelineContext",
    "AppAwareOptimizer",
    "OptimizerConfig",
]
