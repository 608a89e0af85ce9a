"""Unified replay runtime: one engine, one context, pluggable stages.

This package replaces the five hand-rolled replay loops that used to live
in ``core/pipeline.py``, ``prefetch/driver.py``, ``core/interactive.py``,
``core/temporal.py`` and ``core/optimizer.py`` with a single composable
:class:`SimulationEngine`:

- :class:`RunConfig` — frozen, schema-validated description of a run
  (dataset/workload/policy/prefetcher/faults/budget), round-
  trippable through ``to_dict``/``from_dict`` and buildable from the CLI;
- :class:`RunContext` — the cross-cutting services (tracer, metrics
  registry, profiler, fault injector, sim clock, rng) that previously
  travelled as repeated keyword arguments;
- :class:`SimulationEngine` + :mod:`~repro.runtime.stages` — the step loop
  (demand fetch → render → overlap prefetch → budget enforcement →
  bookkeeping) as an ordered stage recipe;
- :mod:`~repro.runtime.drivers` — the five historical drivers, each now a
  ~20-line recipe;
- :mod:`~repro.runtime.registries` — stage/prefetcher/workload/policy
  registries, so new behaviours are registered rather than threaded;
- :mod:`~repro.runtime.sessions` — the event-driven multi-tenant session
  scheduler interleaving N viewer sessions over one shared hierarchy
  (``repro serve-sim``).

See ``DESIGN.md`` ("The runtime engine") for the architecture diagram and
``docs/TUTORIAL.md`` ("Writing a custom stage") for an extension example.
"""

from repro.runtime.config import (
    CLI_FIELD_MAP,
    CLI_ONLY_FLAGS,
    RUN_CONFIG_SCHEMA,
    OptimizerConfig,
    RunConfig,
)
from repro.runtime.context import RunContext
from repro.runtime.drivers import (
    AppAwareOptimizer,
    run_baseline,
    run_budgeted,
    run_temporal,
    run_with_prefetcher,
)
from repro.runtime.engine import (
    BudgetedCollector,
    Collector,
    SimulationEngine,
    StepMetricsCollector,
    movement_extras,
)
from repro.runtime.registries import (
    PREFETCHERS,
    STAGES,
    WORKLOADS,
    Registry,
    make_prefetcher,
    make_stage,
    make_workload,
    register_prefetcher,
    register_stage,
    register_workload,
)
from repro.runtime.sessions import SessionSpec, SessionsResult, run_sessions
from repro.runtime.stages import (
    AdaptiveSigmaStage,
    BudgetedFetchStage,
    BudgetedPrefetchStage,
    DemandFetchStage,
    Frame,
    PreloadStage,
    RenderStage,
    SigmaState,
    Stage,
    StrategyPrefetchStage,
    TablePrefetchStage,
    TemporalPrefetchStage,
    TemporalRemapStage,
)

__all__ = [
    "RunConfig",
    "OptimizerConfig",
    "RunContext",
    "RUN_CONFIG_SCHEMA",
    "CLI_FIELD_MAP",
    "CLI_ONLY_FLAGS",
    "SimulationEngine",
    "Collector",
    "StepMetricsCollector",
    "BudgetedCollector",
    "movement_extras",
    "run_baseline",
    "run_with_prefetcher",
    "run_budgeted",
    "run_temporal",
    "run_sessions",
    "SessionSpec",
    "SessionsResult",
    "AppAwareOptimizer",
    "Frame",
    "Stage",
    "PreloadStage",
    "DemandFetchStage",
    "BudgetedFetchStage",
    "RenderStage",
    "StrategyPrefetchStage",
    "TablePrefetchStage",
    "AdaptiveSigmaStage",
    "BudgetedPrefetchStage",
    "TemporalRemapStage",
    "TemporalPrefetchStage",
    "SigmaState",
    "Registry",
    "STAGES",
    "PREFETCHERS",
    "WORKLOADS",
    "register_stage",
    "make_stage",
    "register_prefetcher",
    "make_prefetcher",
    "register_workload",
    "make_workload",
]
