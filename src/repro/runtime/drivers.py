"""Canonical replay drivers, expressed as :class:`SimulationEngine` recipes.

Each function here is the implementation of a replay mode; the package
namespaces (``repro.core``, ``repro.prefetch``, ``repro``) re-export them.
A driver builds a stage list + collector and hands them to the engine —
the loop itself lives in exactly one place.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.pipeline import PipelineContext
from repro.runtime.config import OptimizerConfig
from repro.runtime.context import RunContext
from repro.runtime.engine import (
    BudgetedCollector,
    SimulationEngine,
    StepMetricsCollector,
    movement_extras,
)
from repro.runtime.stages import (
    AdaptiveSigmaStage,
    BudgetedFetchStage,
    BudgetedPrefetchStage,
    DemandFetchStage,
    PreloadStage,
    RenderStage,
    SigmaState,
    Stage,
    StrategyPrefetchStage,
    TablePrefetchStage,
    TemporalPrefetchStage,
    TemporalRemapStage,
)
from repro.utils.validation import check_positive

__all__ = [
    "run_baseline",
    "run_with_prefetcher",
    "run_budgeted",
    "run_temporal",
    "AppAwareOptimizer",
    "OptimizerConfig",
]


def _resolve_ctx(ctx, tracer, registry, profiler) -> RunContext:
    """One context per run: either a caller-built :class:`RunContext` or
    the legacy tracer/registry/profiler keyword trio — never both."""
    if ctx is None:
        return RunContext(tracer=tracer, registry=registry, profiler=profiler)
    if tracer is not None or registry is not None or profiler is not None:
        raise ValueError("pass either ctx= or tracer=/registry=/profiler=, not both")
    return ctx


def run_baseline(
    context: PipelineContext,
    hierarchy,
    name: Optional[str] = None,
    protect_current_step: bool = False,
    tracer=None,
    registry=None,
    profiler=None,
    ctx: Optional[RunContext] = None,
) -> "RunResult":
    """Replay the path with a conventional policy (FIFO/LRU/ARC/...).

    Per step: fetch every visible block through the hierarchy, then render;
    no prediction, no prefetch, so the step time is ``io + render`` (§IV-D:
    "I/O is idle during the rendering time").

    ``protect_current_step=True`` applies Algorithm 1's eviction constraint
    (victims must not have been used at the current step) to the baseline
    too — an ablation knob; the paper's baselines run unprotected.

    ``tracer``/``registry``/``profiler`` behave as described in
    :mod:`repro.runtime` (see :class:`~repro.runtime.context.RunContext`).
    """
    policy_name = hierarchy.fastest.policy.name
    collector = StepMetricsCollector(
        name=name or f"baseline-{policy_name}",
        policy=policy_name,
        overlap_prefetch=False,
        observe="serial",
        charge=("io", "render"),
        extras_fn=movement_extras,
    )
    stages: List[Stage] = [
        DemandFetchStage(protect=protect_current_step),
        RenderStage(),
    ]
    ctx = _resolve_ctx(ctx, tracer, registry, profiler)
    return SimulationEngine(context, hierarchy, stages, collector, ctx=ctx).run()


def run_with_prefetcher(
    context: PipelineContext,
    hierarchy,
    prefetcher,
    preload_importance=None,
    preload_sigma: float = float("-inf"),
    max_prefetch_per_step: Optional[int] = None,
    name: Optional[str] = None,
    tracer=None,
    registry=None,
    profiler=None,
    ctx: Optional[RunContext] = None,
) -> "RunResult":
    """Replay ``context.path`` using ``prefetcher`` for predictions.

    Per step: demand-fetch the visible blocks (Algorithm 1's protected
    eviction), render, and overlap the strategy's prediction + prefetch
    with the render, charging the strategy's own query cost.  The paper's
    optimizer is equivalent to this driver with
    :class:`~repro.prefetch.strategies.TableLookupPrefetcher` plus the
    importance preload.

    ``preload_importance``/``preload_sigma`` optionally run the Step 2
    importance preload first (pass the table the paper's method uses, or
    ``None`` for a cold start).  ``registry`` additionally records prefetch
    queue depth and precision/recall counters (a prefetch at step *i* is
    *useful* when the block is demanded at step *i + 1*).

    ``tracer``/``registry``/``profiler`` behave as described in
    :class:`~repro.runtime.context.RunContext`.
    """
    collector = StepMetricsCollector(
        name=name or f"prefetch-{prefetcher.name}",
        policy=f"prefetch-{prefetcher.name}",
        overlap_prefetch=True,
        observe="overlapped",
        charge=("io", "lookup", "prefetch", "render"),
        extras_fn=movement_extras,
    )
    stages: List[Stage] = []
    if preload_importance is not None:
        stages.append(PreloadStage(lambda: preload_importance.ids_above(preload_sigma)))
    stages += [
        DemandFetchStage(protect=True),
        RenderStage(),
        StrategyPrefetchStage(prefetcher, max_prefetch_per_step=max_prefetch_per_step),
    ]
    ctx = _resolve_ctx(ctx, tracer, registry, profiler)
    return SimulationEngine(context, hierarchy, stages, collector, ctx=ctx).run()


def run_budgeted(
    context: PipelineContext,
    hierarchy,
    io_budget_s: float,
    importance=None,
    visible_table=None,
    sigma: float = float("-inf"),
    preload: bool = False,
    name: str = "budgeted",
    tracer=None,
    registry=None,
    profiler=None,
    ctx: Optional[RunContext] = None,
) -> "BudgetedResult":
    """Replay with a per-step demand-I/O deadline.

    Per step: visible blocks already resident are free — their (cheap)
    fast-memory read time is recorded in ``io_time_s`` but never charged
    against the budget, so a fully-resident frame always renders complete.
    Missing blocks are fetched most-important-first (when ``importance``
    is given) until the accumulated *miss* fetch time would exceed
    ``io_budget_s`` — the rest are holes this frame.  When
    ``visible_table`` is given, the predicted next view is prefetched
    during rendering exactly as in Algorithm 1 (the prefetch rides the
    render time, not the budget).

    On top of the hierarchy's fetch metrics, ``registry`` records a
    per-step ``frame_coverage`` histogram and a ``frame_time_seconds``
    histogram.  ``tracer``/``profiler`` behave as described in
    :class:`~repro.runtime.context.RunContext`.  The budget cut-off keeps
    the miss loop sequential (one ``fetch`` per missing block).
    """
    check_positive("io_budget_s", io_budget_s)
    collector = BudgetedCollector(name=name, io_budget_s=io_budget_s)
    stages: List[Stage] = []
    if preload and importance is not None:
        stages.append(PreloadStage(lambda: importance.ids_above(sigma)))
    stages.append(BudgetedFetchStage(io_budget_s, importance=importance))
    if visible_table is not None:
        stages.append(BudgetedPrefetchStage(visible_table, importance=importance, sigma=sigma))
    stages.append(RenderStage(count="rendered", span=False))
    ctx = _resolve_ctx(ctx, tracer, registry, profiler)
    return SimulationEngine(context, hierarchy, stages, collector, ctx=ctx).run()


def run_temporal(
    context: PipelineContext,
    series,
    hierarchy,
    steps_per_timestep: int,
    visible_table=None,
    importance=None,
    sigma: float = float("-inf"),
    prefetch_next_timestep: bool = True,
    lookup_cost=None,
    name: str = "temporal",
    ctx: Optional[RunContext] = None,
) -> "RunResult":
    """Replay a camera path over a time-varying volume.

    As the user orbits, the simulation time also advances, so the working
    set is the *visible blocks of the current timestep*.  Extends
    Algorithm 1 with temporal prefetch: during rendering it prefetches the
    predicted visible set of the **next timestep** — the same spatial
    prediction, shifted one step forward in time.

    Parameters
    ----------
    context:
        The spatial replay context (path + grid + visible sets).
    series:
        The time-varying volume; timestep at path step ``i`` is
        ``min(i // steps_per_timestep, n_timesteps - 1)``.
    hierarchy:
        Must be sized for the *temporal* id space
        (``series.n_total_blocks(grid)`` blocks).
    visible_table, importance, sigma:
        The paper's tables; when given, prefetch pulls the σ-filtered
        predicted set of the next timestep during rendering.
    prefetch_next_timestep:
        Turn the temporal prefetch off to measure its contribution.
    """
    from repro.tables.visible_table import LookupCostModel

    lookup_cost = lookup_cost or LookupCostModel()
    remap = TemporalRemapStage(series, steps_per_timestep)
    collector = StepMetricsCollector(
        name=name,
        policy="temporal-app-aware" if prefetch_next_timestep else "temporal-lru",
        overlap_prefetch=True,
        observe=None,
        charge=(),
        extras_fn=lambda engine: {
            "n_timesteps": float(series.n_timesteps),
            "backing_bytes": float(engine.hierarchy.backing_bytes),
        },
        fault_extras=False,
        metrics=False,
    )
    stages: List[Stage] = []
    if importance is not None:
        stages.append(PreloadStage(lambda: [int(b) for b in importance.ids_above(sigma)]))
    stages += [
        remap,
        DemandFetchStage(protect=True),
        RenderStage(count="visible", span=False, emit_trace=False),
    ]
    if prefetch_next_timestep:
        stages.append(
            TemporalPrefetchStage(
                remap, visible_table, importance=importance, sigma=sigma, lookup_cost=lookup_cost
            )
        )
    return SimulationEngine(context, hierarchy, stages, collector, ctx=ctx).run()


class AppAwareOptimizer:
    """Replays camera paths with the paper's application-aware policy.

    Composes the three steps of Algorithm 1 at run time:

    1. **Preload** (lines 1–7): blocks whose importance exceeds σ are
       placed into the hierarchy in importance order before the first view.
    2. **Demand fetch** (lines 8–19): per view point, every visible block
       is brought to fast memory; eviction candidates must not have been
       used at the current step (``time < i``), falling back to a bypass
       when the working set alone fills the cache.
    3. **Prefetch overlapped with rendering** (lines 20–22): the nearest
       sampled position's ``T_visible`` entry predicts the next view's
       blocks; those above σ are prefetched while the frame renders, so
       the step costs ``io + max(prefetch, render)`` instead of
       ``io + render``.
    """

    def __init__(
        self,
        visible_table,
        importance_table,
        config: Optional[OptimizerConfig] = None,
    ) -> None:
        self.visible_table = visible_table
        self.importance_table = importance_table
        self.config = config or OptimizerConfig()
        self.sigma = self.config.resolve_sigma(importance_table)

    # -- Alg. 1 lines 1-7 ------------------------------------------------------

    def preload(self, hierarchy) -> "dict[str, int]":
        """Place important blocks into every level before the first view."""
        return hierarchy.preload(self.importance_table.ids_above(self.sigma))

    # -- Alg. 1 main loop ------------------------------------------------------

    def run(
        self,
        context: PipelineContext,
        hierarchy,
        name: str = "app-aware",
        tracer=None,
        registry=None,
        profiler=None,
        ctx: Optional[RunContext] = None,
    ) -> "RunResult":
        """Replay ``context.path`` with Algorithm 1 on ``hierarchy``.

        ``registry`` additionally records prefetch queue depth and
        precision/recall counters (a prefetch at step *i* counts as
        *useful* when the block is demanded at step *i + 1*).
        ``tracer``/``profiler`` behave as described in
        :class:`~repro.runtime.context.RunContext`.
        """
        cfg = self.config
        sigma_state = SigmaState(self.sigma, cfg.sigma_percentile)
        collector = StepMetricsCollector(
            name=name,
            policy="app-aware",
            overlap_prefetch=True,
            observe="overlapped",
            charge=("io", "lookup", "prefetch", "render"),
            extras_fn=lambda engine: {
                "sigma": self.sigma,
                "final_sigma": sigma_state.sigma,
                **movement_extras(engine),
            },
        )
        stages: List[Stage] = []
        if cfg.preload:
            stages.append(PreloadStage(lambda: self.importance_table.ids_above(self.sigma)))
        stages += [
            DemandFetchStage(protect=True),
            RenderStage(),
            TablePrefetchStage(
                self.visible_table,
                self.importance_table,
                sigma_state,
                cfg.lookup_cost,
                use_importance_filter=cfg.use_importance_filter,
                max_prefetch_per_step=cfg.max_prefetch_per_step,
                enabled=cfg.prefetch,
            ),
        ]
        if cfg.adaptive_sigma and cfg.prefetch:
            stages.append(AdaptiveSigmaStage(sigma_state, self.importance_table, cfg))
        ctx = _resolve_ctx(ctx, tracer, registry, profiler)
        return SimulationEngine(context, hierarchy, stages, collector, ctx=ctx).run()
