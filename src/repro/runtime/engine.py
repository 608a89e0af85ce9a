"""The single replay step loop, composed from pluggable stages.

:class:`SimulationEngine` is what the legacy drivers each hand-rolled:
one pass over a camera path's visible sets, calling an ordered list of
:class:`~repro.runtime.stages.Stage` objects per view point and handing the
finished :class:`~repro.runtime.stages.Frame` to a *collector*.  Every
recipe's collector is a :class:`StepMetricsCollector`, which rows the
frames into a :class:`~repro.core.metrics.RunResult`; per-frame
attribution is :func:`~repro.obs.attribution.attribute_run` over the
run's trace (or, per tenant, ``run_sessions(attribution=True)``).
A legacy driver is now a *recipe* — a particular stage list plus
collector — built by :mod:`repro.runtime.drivers`.

Stages drive the hierarchy through the vectorized
``fetch_many``/``prefetch_many`` calls, one each per step; no stage calls
the per-block ``fetch``.  Simulated clocks, cache stats, byte ledger, and
trace stream are pinned against frozen copies of the pre-runtime drivers
(per-block and batched) by the equivalence suite.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro.core.metrics import RunResult, StepMetrics
from repro.runtime.context import RunContext
from repro.runtime.stages import Frame, Stage

__all__ = [
    "SimulationEngine",
    "Collector",
    "StepMetricsCollector",
    "movement_extras",
]

#: overlap_prefetch -> the sim-clock channels charged on the profiler at
#: run end (a serial step has no lookup or prefetch time).
_CHARGED: Dict[bool, Tuple[str, ...]] = {
    True: ("io", "lookup", "prefetch", "render"),
    False: ("io", "render"),
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
        Cross-cutting services (tracer/metrics/profiler/faults/rng);
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
        The result's identity fields.  ``overlap_prefetch`` also sets what
        the per-step ``frame_time_seconds`` histogram sees — ``io + lookup
        + max(prefetch, render)`` with overlap, ``io + lookup + render``
        without — and which sim-clock channels are charged on the profiler
        at run end: ``io``/``lookup``/``prefetch``/``render`` with overlap,
        ``io``/``render`` without.
    extras_fn:
        ``engine -> dict`` of result extras (ordering preserved).  When the
        hierarchy carries a fault injector, the dropped-block,
        degraded-frame and fault-stats extras follow them (so fault-free
        summaries stay byte-identical to pre-fault snapshots).
    """

    def __init__(
        self,
        name: str,
        policy: str,
        overlap_prefetch: bool,
        extras_fn: Callable[..., Dict[str, float]] = movement_extras,
    ) -> None:
        self.name = name
        self.policy = policy
        self.overlap_prefetch = overlap_prefetch
        self.extras_fn = extras_fn
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
        if engine.ctx.registry.enabled:
            self._frame_hist.observe(
                row.step_total_overlapped_s
                if self.overlap_prefetch
                else row.step_total_serial_s
            )
        self.steps.append(row)

    def finish(self, engine) -> RunResult:
        profiler = engine.ctx.profiler
        if profiler.enabled:
            for channel in _CHARGED[self.overlap_prefetch]:
                field = f"{channel}_time_s"
                profiler.charge_sim(channel, sum(getattr(s, field) for s in self.steps))
        extras = dict(self.extras_fn(engine))
        if self._faulty:
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
