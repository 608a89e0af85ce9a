"""Frozen copies of the seed replay drivers (pre-`repro.runtime`).

These are byte-for-byte transplants of the driver loops as they stood at
commit 7e556e0 (the last PR before the `repro.runtime` consolidation): the
baseline, prefetcher and optimizer loops (the budgeted and temporal loops
went with their drivers).
The equivalence suite replays identical inputs through these oracles and
through the `SimulationEngine` recipes and asserts the byte ledger, time
ledger, cache stats, and aggregated trace match exactly.

Do not "fix" or modernise this module: it is the reference behaviour.
"""

# ruff: noqa
from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.metrics import RunResult, StepMetrics
from repro.core.pipeline import PipelineContext
from repro.obs.profiler import resolve_profiler
from repro.prefetch.base import Prefetcher
from repro.storage.hierarchy import MemoryHierarchy
from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import LookupCostModel, VisibleTable

#: Replay fast-path choices of the seed drivers' ``engine`` argument.
REPLAY_ENGINES = ("batched", "scalar")


def _resolve_engine(engine: str) -> bool:
    """Validate ``engine`` and return True for the batched fast path."""
    if engine not in REPLAY_ENGINES:
        raise ValueError(f"engine must be one of {REPLAY_ENGINES}, got {engine!r}")
    return engine == "batched"


def seed_run_baseline(
    context: PipelineContext,
    hierarchy: MemoryHierarchy,
    name: Optional[str] = None,
    protect_current_step: bool = False,
    tracer=None,
    registry=None,
    profiler=None,
    engine: str = "batched",
) -> RunResult:
    """Replay the path with a conventional policy (FIFO/LRU/ARC/...).

    Per step: fetch every visible block through the hierarchy, then render;
    no prediction, no prefetch, so the step time is ``io + render`` (§IV-D:
    "I/O is idle during the rendering time").

    ``protect_current_step=True`` applies Algorithm 1's eviction constraint
    (victims must not have been used at the current step) to the baseline
    too — an ablation knob; the paper's baselines run unprotected.

    ``engine`` selects the replay fast path: ``"batched"`` (default)
    fetches each step's visible set with one
    :meth:`~repro.storage.hierarchy.MemoryHierarchy.fetch_many` call,
    ``"scalar"`` issues one ``fetch`` per block.  Both produce identical
    results (simulated clocks, stats, byte ledger — pinned by the
    equivalence tests); batched is simply faster.

    ``tracer`` (a :class:`repro.trace.Tracer`) is installed on the
    hierarchy for the replay and additionally receives one ``render``
    event per step; pass ``None`` to keep whatever tracer the hierarchy
    already has (the no-op tracer by default).

    ``registry`` (a :class:`repro.obs.MetricsRegistry`) is likewise
    installed on the hierarchy (per-level fetch latency and byte metrics)
    and receives a per-step ``frame_time_seconds`` histogram of simulated
    step totals.  ``profiler`` (a :class:`repro.obs.PhaseProfiler`)
    records wall-clock ``fetch``/``render`` spans per step.
    """
    if tracer is not None:
        hierarchy.set_tracer(tracer)
    tracer = hierarchy.tracer
    if registry is not None:
        hierarchy.set_registry(registry)
    registry = hierarchy.registry
    profiler = resolve_profiler(profiler)
    frame_hist = registry.histogram("frame_time_seconds", kind="sim")
    policy_name = hierarchy.fastest.policy.name
    batched = _resolve_engine(engine)
    faulty = hierarchy.fault_injector is not None
    dropped_blocks = 0
    degraded_frames = 0
    steps: List[StepMetrics] = []
    for i, ids in enumerate(context.visible_sets):
        fast_misses_before = hierarchy.fastest.stats.misses
        min_free = i if protect_current_step else None
        step_dropped = 0
        with profiler.span("fetch"):
            if batched:
                res = hierarchy.fetch_many(ids, i, min_free_step=min_free)
                io = res.time_s
                step_dropped = res.n_dropped
            else:
                io = 0.0
                for b in ids:
                    r = hierarchy.fetch(int(b), i, min_free_step=min_free)
                    io += r.time_s
                    if r.dropped:
                        step_dropped += 1
        if step_dropped:
            # Graceful degradation: the frame renders without the blocks
            # the storage stack could not deliver.
            dropped_blocks += step_dropped
            degraded_frames += 1
        with profiler.span("render"):
            render = context.render_model.render_time(len(ids) - step_dropped)
        if tracer.enabled:
            tracer.record("render", i, time_s=render)
        if registry.enabled:
            frame_hist.observe(io + render)
        steps.append(
            StepMetrics(
                step=i,
                n_visible=len(ids),
                n_fast_misses=hierarchy.fastest.stats.misses - fast_misses_before,
                io_time_s=io,
                render_time_s=render,
            )
        )
    if profiler.enabled:
        profiler.charge_sim("io", sum(s.io_time_s for s in steps))
        profiler.charge_sim("render", sum(s.render_time_s for s in steps))
    extras = {
        "backing_bytes": float(hierarchy.backing_bytes),
        "bytes_moved": float(
            hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
        ),
    }
    if faulty:
        # Added only under fault injection so fault-free summaries stay
        # byte-identical to pre-faults snapshots.
        extras["dropped_blocks"] = float(dropped_blocks)
        extras["degraded_frames"] = float(degraded_frames)
        extras["fault_stats"] = hierarchy.fault_injector.stats.as_dict()
    return RunResult(
        name=name or f"baseline-{policy_name}",
        policy=policy_name,
        overlap_prefetch=False,
        steps=steps,
        hierarchy_stats=hierarchy.stats(),
        extras=extras,
    )


def seed_run_with_prefetcher(
    context: PipelineContext,
    hierarchy: MemoryHierarchy,
    prefetcher: Prefetcher,
    preload_importance: Optional[ImportanceTable] = None,
    preload_sigma: float = float("-inf"),
    max_prefetch_per_step: Optional[int] = None,
    name: Optional[str] = None,
    tracer=None,
    registry=None,
    profiler=None,
    engine: str = "batched",
) -> RunResult:
    """Replay ``context.path`` using ``prefetcher`` for predictions.

    ``preload_importance``/``preload_sigma`` optionally run the Step 2
    importance preload first (pass the table the paper's method uses, or
    ``None`` for a cold start).

    ``tracer`` is installed on the hierarchy for the replay and receives
    one ``render`` event per step.  ``registry`` is installed likewise and
    records per-step frame times, prefetch queue depth, and prefetch
    precision/recall counters (a prefetch at step *i* is *useful* when the
    block is demanded at step *i + 1*).  ``profiler`` records wall-clock
    preload/fetch/render/predict/prefetch spans.

    ``engine="batched"`` (default) drives demand fetches through
    :meth:`~repro.storage.hierarchy.MemoryHierarchy.fetch_many` and the
    prefetch loop through ``prefetch_many``; ``"scalar"`` keeps the
    per-block loops.  Results are identical either way.
    """
    prefetcher.reset()
    if tracer is not None:
        hierarchy.set_tracer(tracer)
    tracer = hierarchy.tracer
    if registry is not None:
        hierarchy.set_registry(registry)
    registry = hierarchy.registry
    profiler = resolve_profiler(profiler)
    frame_hist = registry.histogram("frame_time_seconds", kind="sim")
    queue_gauge = registry.gauge("prefetch_queue_depth")
    issued_counter = registry.counter("prefetch_evaluated_total")
    useful_counter = registry.counter("prefetch_useful_total")
    demanded_counter = registry.counter("prefetch_demand_window_total")
    batched = _resolve_engine(engine)
    issued_prev: "set[int]" = set()  # scalar engine
    issued_prev_arr = np.empty(0, dtype=np.int64)  # batched engine
    if preload_importance is not None:
        with profiler.span("preload"):
            hierarchy.preload(preload_importance.ids_above(preload_sigma))

    fastest = hierarchy.fastest
    cap = max_prefetch_per_step if max_prefetch_per_step is not None else fastest.capacity

    steps: List[StepMetrics] = []
    positions = context.path.positions
    faulty = hierarchy.fault_injector is not None
    dropped_blocks = 0
    degraded_frames = 0
    for i, ids in enumerate(context.visible_sets):
        if registry.enabled:
            # Prefetch usefulness: blocks prefetched at step i-1 that the
            # demand stream touches at step i were correct predictions.
            if batched:
                if issued_prev_arr.size:
                    issued_counter.inc(issued_prev_arr.size)
                    # Set membership beats np.isin at visible-set sizes.
                    demand_now = set(np.asarray(ids).tolist())
                    useful_counter.inc(
                        sum(1 for b in issued_prev_arr.tolist() if b in demand_now)
                    )
                issued_prev_arr = np.empty(0, dtype=np.int64)
            else:
                demand_now = {int(b) for b in ids}
                if issued_prev:
                    issued_counter.inc(len(issued_prev))
                    useful_counter.inc(len(issued_prev & demand_now))
                issued_prev = set()
            if i > 0:
                demanded_counter.inc(len(ids))

        fast_misses_before = fastest.stats.misses
        step_dropped = 0
        with profiler.span("fetch"):
            if batched:
                res = hierarchy.fetch_many(ids, i, min_free_step=i)
                io = res.time_s
                step_dropped = res.n_dropped
            else:
                io = 0.0
                for b in ids:
                    r = hierarchy.fetch(int(b), i, min_free_step=i)
                    io += r.time_s
                    if r.dropped:
                        step_dropped += 1
        n_fast_misses = fastest.stats.misses - fast_misses_before
        if step_dropped:
            dropped_blocks += step_dropped
            degraded_frames += 1

        with profiler.span("render"):
            # Dropped blocks are holes this frame: render what arrived.
            render = context.render_model.render_time(len(ids) - step_dropped)
        if tracer.enabled:
            tracer.record("render", i, time_s=render)

        with profiler.span("predict"):
            candidates = prefetcher.predict(i, positions[i], ids)
        lookup_time = prefetcher.query_cost_s()
        if registry.enabled:
            queue_gauge.set(len(candidates))
        with profiler.span("prefetch"):
            if batched:
                # dedupe=True: a predictor may repeat ids; fetch each at most once
                issued, prefetch_time = hierarchy.prefetch_many(
                    candidates, i, min_free_step=i, max_fetch=cap, dedupe=True
                )
                n_prefetched = len(issued)
                if registry.enabled:
                    issued_prev_arr = np.asarray(issued, dtype=np.int64)
            else:
                prefetch_time = 0.0
                n_prefetched = 0
                attempted = set()  # a predictor may repeat ids; fetch each at most once
                for b in candidates:
                    if n_prefetched >= cap:
                        break
                    b = int(b)
                    if b in attempted or hierarchy.contains_fast(b):
                        continue
                    attempted.add(b)
                    prefetch_time += hierarchy.fetch(
                        b, i, prefetch=True, min_free_step=i
                    ).time_s
                    n_prefetched += 1
                    if registry.enabled:
                        issued_prev.add(b)

        step_metrics = StepMetrics(
            step=i,
            n_visible=len(ids),
            n_fast_misses=n_fast_misses,
            io_time_s=io,
            lookup_time_s=lookup_time,
            prefetch_time_s=prefetch_time,
            render_time_s=render,
            n_prefetched=n_prefetched,
        )
        if registry.enabled:
            frame_hist.observe(step_metrics.step_total_overlapped_s)
        steps.append(step_metrics)

    if profiler.enabled:
        profiler.charge_sim("io", sum(s.io_time_s for s in steps))
        profiler.charge_sim("lookup", sum(s.lookup_time_s for s in steps))
        profiler.charge_sim("prefetch", sum(s.prefetch_time_s for s in steps))
        profiler.charge_sim("render", sum(s.render_time_s for s in steps))
    extras = {
        "backing_bytes": float(hierarchy.backing_bytes),
        "bytes_moved": float(
            hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
        ),
    }
    if faulty:
        # Gated on the injector so fault-free summaries stay byte-identical.
        extras["dropped_blocks"] = float(dropped_blocks)
        extras["degraded_frames"] = float(degraded_frames)
        extras["fault_stats"] = hierarchy.fault_injector.stats.as_dict()
    return RunResult(
        name=name or f"prefetch-{prefetcher.name}",
        policy=f"prefetch-{prefetcher.name}",
        overlap_prefetch=True,
        steps=steps,
        hierarchy_stats=hierarchy.stats(),
        extras=extras,
    )


from dataclasses import dataclass
from repro.utils.validation import check_probability


@dataclass(frozen=True)
class SeedOptimizerConfig:
    """Tunables of Algorithm 1.

    Parameters
    ----------
    sigma:
        Absolute importance threshold σ.  When ``None`` it is derived from
        ``sigma_percentile`` of the importance distribution.
    sigma_percentile:
        Fraction of blocks considered unimportant (default 0.5: the lower
        half of the entropy distribution is neither preloaded nor
        prefetched).
    preload:
        Run the importance preload (Alg. 1 line 7).  Ablation knob.
    prefetch:
        Run the overlapped prefetch (lines 20–22).  Ablation knob.
    use_importance_filter:
        Filter prefetch candidates by σ (line 22).  With ``False`` every
        predicted block is prefetched — the over-prediction failure mode
        §IV-C warns about.  Ablation knob.
    max_prefetch_per_step:
        Hard cap on prefetch fetches per step (None = fastest-level
        capacity).
    lookup_cost:
        Simulated ``T_visible`` query-cost model (drives Fig. 7b).
    adaptive_sigma:
        Tune σ online (extension): when a step's prefetch time overruns
        its render time, raise the threshold (prefetch less next step);
        when prefetch uses less than half the render budget, lower it.
        The paper fixes σ; this controller keeps the prefetch stream
        filling — but not overrunning — the overlap window as view speed
        changes.  Requires percentile mode (``sigma=None``).
    sigma_step:
        Percentile increment per adjustment of the adaptive controller.
    sigma_bounds:
        Percentile clamp range for the adaptive controller.
    """

    sigma: Optional[float] = None
    sigma_percentile: float = 0.5
    preload: bool = True
    prefetch: bool = True
    use_importance_filter: bool = True
    max_prefetch_per_step: Optional[int] = None
    lookup_cost: LookupCostModel = LookupCostModel()
    adaptive_sigma: bool = False
    sigma_step: float = 0.05
    sigma_bounds: "tuple[float, float]" = (0.05, 0.95)

    def __post_init__(self) -> None:
        check_probability("sigma_percentile", self.sigma_percentile)
        if self.max_prefetch_per_step is not None and self.max_prefetch_per_step < 0:
            raise ValueError(
                f"max_prefetch_per_step must be >= 0, got {self.max_prefetch_per_step}"
            )
        if self.adaptive_sigma:
            if self.sigma is not None:
                raise ValueError("adaptive_sigma requires percentile mode (sigma=None)")
            lo, hi = self.sigma_bounds
            check_probability("sigma_bounds[0]", lo)
            check_probability("sigma_bounds[1]", hi)
            if not lo < hi:
                raise ValueError(f"sigma_bounds must satisfy lo < hi, got {self.sigma_bounds}")
            if not 0.0 < self.sigma_step <= 0.5:
                raise ValueError(f"sigma_step must be in (0, 0.5], got {self.sigma_step}")

    def resolve_sigma(self, importance: ImportanceTable) -> float:
        if self.sigma is not None:
            return float(self.sigma)
        return importance.threshold_for_percentile(self.sigma_percentile)


class SeedAppAwareOptimizer:
    """Replays camera paths with the paper's application-aware policy."""

    def __init__(
        self,
        visible_table: VisibleTable,
        importance_table: ImportanceTable,
        config: Optional[SeedOptimizerConfig] = None,
    ) -> None:
        self.visible_table = visible_table
        self.importance_table = importance_table
        self.config = config or SeedOptimizerConfig()
        self.sigma = self.config.resolve_sigma(importance_table)

    # -- Alg. 1 lines 1-7 ------------------------------------------------------

    def preload(self, hierarchy: MemoryHierarchy) -> "dict[str, int]":
        """Place important blocks into every level before the first view."""
        return hierarchy.preload(self.importance_table.ids_above(self.sigma))

    # -- Alg. 1 main loop -----------------------------------------------------------

    def run(
        self,
        context: PipelineContext,
        hierarchy: MemoryHierarchy,
        name: str = "app-aware",
        tracer=None,
        registry=None,
        profiler=None,
        engine: str = "batched",
    ) -> RunResult:
        """Replay ``context.path`` with Algorithm 1 on ``hierarchy``.

        ``tracer`` is installed on the hierarchy for the replay and
        receives one ``render`` event per step.  ``registry`` is installed
        likewise and additionally records per-step frame times, prefetch
        queue depth, and prefetch precision/recall counters (a prefetch at
        step *i* counts as *useful* when the block is demanded at step
        *i + 1*).  ``profiler`` records wall-clock spans for the preload
        and the per-step fetch/render/prefetch phases.

        ``engine="batched"`` (default) runs the demand phase through
        :meth:`~repro.storage.hierarchy.MemoryHierarchy.fetch_many` and
        the prefetch phase through ``prefetch_many``; ``"scalar"`` keeps
        the per-block loops.  Results are identical either way.
        """
        cfg = self.config
        if tracer is not None:
            hierarchy.set_tracer(tracer)
        tracer = hierarchy.tracer
        if registry is not None:
            hierarchy.set_registry(registry)
        registry = hierarchy.registry
        profiler = resolve_profiler(profiler)
        frame_hist = registry.histogram("frame_time_seconds", kind="sim")
        queue_gauge = registry.gauge("prefetch_queue_depth")
        issued_counter = registry.counter("prefetch_evaluated_total")
        useful_counter = registry.counter("prefetch_useful_total")
        demanded_counter = registry.counter("prefetch_demand_window_total")
        batched = _resolve_engine(engine)
        issued_prev: "set[int]" = set()  # scalar engine
        issued_prev_arr = np.empty(0, dtype=np.int64)  # batched engine
        if cfg.preload:
            with profiler.span("preload"):
                self.preload(hierarchy)
        sigma = self.sigma
        percentile = cfg.sigma_percentile

        fastest = hierarchy.fastest
        max_prefetch = (
            cfg.max_prefetch_per_step
            if cfg.max_prefetch_per_step is not None
            else fastest.capacity
        )

        steps: List[StepMetrics] = []
        positions = context.path.positions
        faulty = hierarchy.fault_injector is not None
        dropped_blocks = 0
        degraded_frames = 0
        for i, ids in enumerate(context.visible_sets):
            # Prefetch usefulness: blocks prefetched at step i-1 that the
            # demand stream touches at step i were correct predictions.
            if registry.enabled:
                if batched:
                    if issued_prev_arr.size:
                        issued_counter.inc(issued_prev_arr.size)
                        # Set membership beats np.isin at visible-set sizes.
                        demand_now = set(np.asarray(ids).tolist())
                        useful_counter.inc(
                            sum(1 for b in issued_prev_arr.tolist() if b in demand_now)
                        )
                    issued_prev_arr = np.empty(0, dtype=np.int64)
                else:
                    demand_now = {int(b) for b in ids}
                    if issued_prev:
                        issued_counter.inc(len(issued_prev))
                        useful_counter.inc(len(issued_prev & demand_now))
                    issued_prev = set()
                if i > 0:
                    demanded_counter.inc(len(ids))

            # Demand phase (lines 14-19): victims must satisfy time < i.
            fast_misses_before = fastest.stats.misses
            step_dropped = 0
            with profiler.span("fetch"):
                if batched:
                    res = hierarchy.fetch_many(ids, i, min_free_step=i)
                    io = res.time_s
                    step_dropped = res.n_dropped
                else:
                    io = 0.0
                    for b in ids:
                        r = hierarchy.fetch(int(b), i, min_free_step=i)
                        io += r.time_s
                        if r.dropped:
                            step_dropped += 1
            n_fast_misses = fastest.stats.misses - fast_misses_before
            if step_dropped:
                dropped_blocks += step_dropped
                degraded_frames += 1

            with profiler.span("render"):
                # Dropped blocks are holes this frame: render what arrived.
                render = context.render_model.render_time(len(ids) - step_dropped)
            if tracer.enabled:
                tracer.record("render", i, time_s=render)

            # Prefetch phase (lines 20-22), overlapped with rendering.
            lookup_time = 0.0
            prefetch_time = 0.0
            n_prefetched = 0
            if cfg.prefetch:
                with profiler.span("prefetch"):
                    _, predicted = self.visible_table.lookup(positions[i])
                    lookup_time = cfg.lookup_cost.query_time(self.visible_table.n_entries)
                    if cfg.use_importance_filter:
                        candidates = self.importance_table.filter_and_rank(predicted, sigma)
                    else:
                        candidates = predicted
                    if registry.enabled:
                        queue_gauge.set(len(candidates))
                    if batched:
                        issued, prefetch_time = hierarchy.prefetch_many(
                            candidates, i, min_free_step=i, max_fetch=max_prefetch
                        )
                        n_prefetched = len(issued)
                        if registry.enabled:
                            issued_prev_arr = np.asarray(issued, dtype=np.int64)
                    else:
                        for b in candidates:
                            if n_prefetched >= max_prefetch:
                                break
                            b = int(b)
                            if hierarchy.contains_fast(b):
                                continue
                            prefetch_time += hierarchy.fetch(
                                b, i, prefetch=True, min_free_step=i
                            ).time_s
                            n_prefetched += 1
                            if registry.enabled:
                                issued_prev.add(b)

            if cfg.adaptive_sigma and cfg.prefetch:
                # Controller: keep the prefetch stream inside the overlap
                # window.  Overrun -> prefetch less (raise sigma); big
                # slack -> prefetch more (lower sigma).
                lo, hi = cfg.sigma_bounds
                if prefetch_time > render:
                    percentile = min(hi, percentile + cfg.sigma_step)
                elif prefetch_time < 0.5 * render:
                    percentile = max(lo, percentile - cfg.sigma_step)
                sigma = self.importance_table.threshold_for_percentile(percentile)

            step_metrics = StepMetrics(
                step=i,
                n_visible=len(ids),
                n_fast_misses=n_fast_misses,
                io_time_s=io,
                lookup_time_s=lookup_time,
                prefetch_time_s=prefetch_time,
                render_time_s=render,
                n_prefetched=n_prefetched,
            )
            if registry.enabled:
                frame_hist.observe(step_metrics.step_total_overlapped_s)
            steps.append(step_metrics)

        if profiler.enabled:
            profiler.charge_sim("io", sum(s.io_time_s for s in steps))
            profiler.charge_sim("lookup", sum(s.lookup_time_s for s in steps))
            profiler.charge_sim("prefetch", sum(s.prefetch_time_s for s in steps))
            profiler.charge_sim("render", sum(s.render_time_s for s in steps))
        extras = {
            "sigma": self.sigma,
            "final_sigma": sigma,
            "backing_bytes": float(hierarchy.backing_bytes),
            "bytes_moved": float(
                hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
            ),
        }
        if faulty:
            # Gated on the injector so fault-free summaries stay byte-identical.
            extras["dropped_blocks"] = float(dropped_blocks)
            extras["degraded_frames"] = float(degraded_frames)
            extras["fault_stats"] = hierarchy.fault_injector.stats.as_dict()
        return RunResult(
            name=name,
            policy="app-aware",
            overlap_prefetch=True,
            steps=steps,
            hierarchy_stats=hierarchy.stats(),
            extras=extras,
        )
