"""Canonical replay drivers, expressed as :class:`SimulationEngine` recipes.

Each function here is the implementation of a replay mode; the package
namespaces (``repro.core``, ``repro.prefetch``, ``repro``) re-export them.
A driver builds a stage list + a :class:`StepMetricsCollector` and hands
them to the engine — the loop itself lives in exactly one place, and
every driver returns a :class:`~repro.core.metrics.RunResult`.  Each
frame is fetched with one ``fetch_many`` and prefetched with one
``prefetch_many``: Algorithm 1 fetches every visible block before it
renders, so no driver needs the per-block ``fetch``.
"""

from __future__ import annotations

from typing import List, Optional

from repro.core.pipeline import PipelineContext
from repro.runtime.config import OptimizerConfig
from repro.runtime.context import RunContext
from repro.runtime.engine import (
    SimulationEngine,
    StepMetricsCollector,
    movement_extras,
)
from repro.runtime.stages import (
    AdaptiveSigmaStage,
    DemandFetchStage,
    PreloadStage,
    RenderStage,
    SigmaState,
    Stage,
    StrategyPrefetchStage,
    TablePrefetchStage,
)

__all__ = [
    "run_baseline",
    "run_with_prefetcher",
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
