"""The single replay step loop, composed from pluggable stages.

:class:`SimulationEngine` is what the five legacy drivers each hand-rolled:
one pass over a camera path's visible sets, calling an ordered list of
:class:`~repro.runtime.stages.Stage` objects per view point and handing the
finished :class:`~repro.runtime.stages.Frame` to a *collector* that rows it
up into the run's result type.  A legacy driver is now a *recipe* — a
particular stage list plus collector — built by
:mod:`repro.runtime.drivers`.

Stages drive the hierarchy through the vectorized
``fetch_many``/``prefetch_many`` calls, one per step.  Simulated clocks,
cache stats, byte ledger, and trace stream are pinned against frozen
copies of the pre-runtime drivers (per-block and batched) by the
equivalence suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

import numpy as np

from repro.core.metrics import RunResult, StepMetrics
from repro.runtime.context import RunContext
from repro.runtime.stages import Frame, Stage

__all__ = [
    "SimulationEngine",
    "Collector",
    "StepMetricsCollector",
    "BudgetedCollector",
    "movement_extras",
]

#: sim-clock channel -> StepMetrics field, for end-of-run charge_sim.
_CHANNEL_FIELDS = {
    "io": "io_time_s",
    "lookup": "lookup_time_s",
    "prefetch": "prefetch_time_s",
    "render": "render_time_s",
}


class Collector:
    """The bookkeeping stage: snapshots each finished frame into a result.

    Unlike ordinary stages, the collector's ``start`` runs *first* (its
    metrics are created before any stage side effects) and its ``collect``
    runs *last* each step (after every stage wrote the frame).
    """

    def start(self, engine) -> None:
        """Called before any stage's ``start``."""

    def collect(self, engine, frame: Frame) -> None:
        """Called after every stage's ``step`` for this frame."""

    def finish(self, engine):
        """Called after every stage's ``finish``; returns the run result."""
        raise NotImplementedError


class SimulationEngine:
    """Replays a :class:`~repro.core.pipeline.PipelineContext` through a
    stage recipe against one hierarchy.

    Parameters
    ----------
    context:
        The precomputed replay context (path + grid + visible sets +
        render cost model).
    hierarchy:
        The storage hierarchy the stages fetch through; the run context's
        services are installed on it at construction.
    stages:
        Ordered stage list; each runs once per step in this order.
    collector:
        The bookkeeping stage producing the final result object.
    ctx:
        Cross-cutting services (tracer/metrics/profiler/faults/clock/rng);
        ``None`` builds a default (null services, adopt the hierarchy's).
    tenant:
        Tenant label stamped on every fetch the stages issue (quota
        accounting in a shared hierarchy); None outside multi-tenant runs.
    """

    def __init__(
        self,
        context,
        hierarchy,
        stages: Sequence[Stage],
        collector: Collector,
        ctx: Optional[RunContext] = None,
        tenant: Optional[str] = None,
    ) -> None:
        self.context = context
        self.hierarchy = hierarchy
        self.stages: List[Stage] = list(stages)
        self.collector = collector
        self.ctx = (ctx if ctx is not None else RunContext()).bind(hierarchy)
        self.tenant = tenant

    def run(self):
        """Execute the recipe over every view point; returns the result."""
        self.collector.start(self)
        for stage in self.stages:
            stage.start(self)
        for i, ids in enumerate(self.context.visible_sets):
            frame = Frame(step=i, ids=ids)
            for stage in self.stages:
                stage.step(self, frame)
            self.collector.collect(self, frame)
        for stage in self.stages:
            stage.finish(self)
        return self.collector.finish(self)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        names = [getattr(s, "name", type(s).__name__) for s in self.stages]
        return f"SimulationEngine(stages={names})"


def movement_extras(engine) -> Dict[str, float]:
    """The data-movement extras every RunResult-producing recipe reports."""
    hierarchy = engine.hierarchy
    return {
        "backing_bytes": float(hierarchy.backing_bytes),
        "bytes_moved": float(
            hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
        ),
    }


class StepMetricsCollector(Collector):
    """Rows frames into :class:`StepMetrics` and builds a :class:`RunResult`.

    Parameters
    ----------
    name, policy, overlap_prefetch:
        The result's identity fields.
    observe:
        What the per-step ``frame_time_seconds`` histogram sees:
        ``"serial"`` (``io + lookup + render``), ``"overlapped"``
        (``io + lookup + max(prefetch, render)``), or ``None``.
    charge:
        Sim-clock channels charged on the profiler at run end, in order
        (subset of ``io``/``lookup``/``prefetch``/``render``).
    extras_fn:
        ``engine -> dict`` of result extras (ordering preserved).
    fault_extras:
        Append dropped-block/degraded-frame/fault-stats extras when the
        hierarchy carries a fault injector (gated so fault-free summaries
        stay byte-identical to pre-fault snapshots).
    metrics:
        ``False`` skips the frame-time histogram entirely (the temporal
        driver's historical behaviour).
    """

    def __init__(
        self,
        name: str,
        policy: str,
        overlap_prefetch: bool,
        observe: Optional[str] = "serial",
        charge: Sequence[str] = ("io", "render"),
        extras_fn: Optional[Callable[..., Dict[str, float]]] = movement_extras,
        fault_extras: bool = True,
        metrics: bool = True,
    ) -> None:
        if observe not in (None, "serial", "overlapped"):
            raise ValueError(f"observe must be None, 'serial' or 'overlapped', got {observe!r}")
        unknown = [ch for ch in charge if ch not in _CHANNEL_FIELDS]
        if unknown:
            raise ValueError(f"unknown sim channels {unknown}; known: {sorted(_CHANNEL_FIELDS)}")
        self.name = name
        self.policy = policy
        self.overlap_prefetch = overlap_prefetch
        self.observe = observe
        self.charge = tuple(charge)
        self.extras_fn = extras_fn
        self.fault_extras = fault_extras
        self.metrics = metrics
        self.steps: List[StepMetrics] = []
        self.dropped_blocks = 0
        self.degraded_frames = 0
        self._frame_hist = None
        self._faulty = False

    def start(self, engine) -> None:
        self.steps = []
        self.dropped_blocks = 0
        self.degraded_frames = 0
        self._faulty = engine.hierarchy.fault_injector is not None
        if self.metrics:
            self._frame_hist = engine.ctx.registry.histogram("frame_time_seconds", kind="sim")

    def collect(self, engine, frame: Frame) -> None:
        row = StepMetrics(
            step=frame.step,
            n_visible=frame.n_visible,
            n_fast_misses=frame.n_fast_misses,
            io_time_s=frame.io_time_s,
            lookup_time_s=frame.lookup_time_s,
            prefetch_time_s=frame.prefetch_time_s,
            render_time_s=frame.render_time_s,
            n_prefetched=frame.n_prefetched,
        )
        if frame.n_dropped:
            # Graceful degradation: the frame rendered without the blocks
            # the storage stack could not deliver.
            self.dropped_blocks += frame.n_dropped
            self.degraded_frames += 1
        if self.metrics and engine.ctx.registry.enabled and self.observe is not None:
            value = (
                row.step_total_serial_s
                if self.observe == "serial"
                else row.step_total_overlapped_s
            )
            self._frame_hist.observe(value)
        self.steps.append(row)

    def finish(self, engine) -> RunResult:
        profiler = engine.ctx.profiler
        if profiler.enabled:
            for channel in self.charge:
                field = _CHANNEL_FIELDS[channel]
                profiler.charge_sim(channel, sum(getattr(s, field) for s in self.steps))
        extras = dict(self.extras_fn(engine)) if self.extras_fn is not None else {}
        if self.fault_extras and self._faulty:
            # Added only under fault injection so fault-free summaries stay
            # byte-identical to pre-faults snapshots.
            extras["dropped_blocks"] = float(self.dropped_blocks)
            extras["degraded_frames"] = float(self.degraded_frames)
            extras["fault_stats"] = engine.hierarchy.fault_injector.stats.as_dict()
        return RunResult(
            name=self.name,
            policy=self.policy,
            overlap_prefetch=self.overlap_prefetch,
            steps=self.steps,
            hierarchy_stats=engine.hierarchy.stats(),
            extras=extras,
        )


class BudgetedCollector(Collector):
    """Rows frames into :class:`~repro.core.interactive.BudgetedStep` and
    builds a :class:`~repro.core.interactive.BudgetedResult`."""

    def __init__(self, name: str, io_budget_s: float) -> None:
        self.name = name
        self.io_budget_s = float(io_budget_s)
        self.steps: list = []
        self._frame_hist = None
        self._coverage_hist = None

    def start(self, engine) -> None:
        registry = engine.ctx.registry
        self.steps = []
        self._frame_hist = registry.histogram("frame_time_seconds", kind="sim")
        self._coverage_hist = registry.histogram(
            "frame_coverage", buckets=tuple(k / 10.0 for k in range(11))
        )

    def collect(self, engine, frame: Frame) -> None:
        from repro.core.interactive import BudgetedStep

        rendered = frame.rendered if frame.rendered is not None else []
        row = BudgetedStep(
            step=frame.step,
            n_visible=frame.n_visible,
            n_rendered=len(rendered),
            io_time_s=frame.io_time_s,
            prefetch_time_s=frame.prefetch_time_s,
            rendered_ids=np.asarray(sorted(rendered), dtype=np.int64),
            n_dropped=frame.n_dropped,
        )
        if engine.ctx.registry.enabled:
            self._frame_hist.observe(
                frame.io_time_s + max(frame.prefetch_time_s, frame.render_time_s)
            )
            self._coverage_hist.observe(row.coverage)
        self.steps.append(row)

    def finish(self, engine):
        from repro.core.interactive import BudgetedResult

        return BudgetedResult(name=self.name, io_budget_s=self.io_budget_s, steps=self.steps)
