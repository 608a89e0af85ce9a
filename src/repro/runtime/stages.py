"""Composable step-loop stages of the :class:`~repro.runtime.engine.SimulationEngine`.

One replay step of every legacy driver decomposes into the same pipeline:

    demand fetch -> render -> overlap prefetch -> budget enforcement -> bookkeeping

Each phase is a :class:`Stage`: an object with three hooks —
``start(engine)`` once before the loop, ``step(engine, frame)`` once per
view point (in recipe order), and ``finish(engine)`` once after the loop.
A recipe is an ordered list of stages plus a *collector* (the bookkeeping
stage that rows up :class:`~repro.core.metrics.StepMetrics` and builds the
result).  The stages below reproduce the five legacy drivers exactly —
byte ledger, time ledger, cache stats, and trace stream are pinned against
frozen copies of the seed loops by ``tests/runtime/test_equivalence.py``.

Write a custom stage by subclassing :class:`Stage` and registering it with
:func:`repro.runtime.registries.register_stage`; see ``docs/TUTORIAL.md``
("Writing a custom stage") for a worked logging-stage example.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence

import numpy as np

__all__ = [
    "Frame",
    "Stage",
    "PreloadStage",
    "DemandFetchStage",
    "RenderStage",
    "StrategyPrefetchStage",
    "TablePrefetchStage",
    "AdaptiveSigmaStage",
    "BudgetedFetchStage",
    "BudgetedPrefetchStage",
    "TemporalRemapStage",
    "TemporalPrefetchStage",
    "SigmaState",
]


@dataclass
class Frame:
    """Mutable per-step state the stages read and write.

    ``ids`` starts as the step's visible block ids; a remapping stage
    (e.g. temporal) may replace it before the demand fetch.  Timing fields
    accumulate simulated seconds; the collector snapshots them into the
    immutable result row at the end of the step.
    """

    step: int
    ids: Any  # np.ndarray of visible block ids
    io_time_s: float = 0.0
    lookup_time_s: float = 0.0
    prefetch_time_s: float = 0.0
    render_time_s: float = 0.0
    n_fast_misses: int = 0
    n_prefetched: int = 0
    n_dropped: int = 0
    #: budgeted recipes: block ids actually available to the renderer.
    rendered: Optional[List[int]] = None

    @property
    def n_visible(self) -> int:
        return len(self.ids)


class Stage:
    """Base class: one pluggable phase of the engine's step loop."""

    name = "stage"

    def start(self, engine) -> None:
        """Called once, before the first step (preloads, metric setup)."""

    def step(self, engine, frame: Frame) -> None:
        """Called once per view point, in recipe order."""

    def finish(self, engine) -> None:
        """Called once, after the last step (final accounting)."""

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"{type(self).__name__}()"


# ---------------------------------------------------------------------------
# preload


class PreloadStage(Stage):
    """Algorithm 1 lines 1-7: place important blocks before the first view.

    ``ids_fn`` defers the id computation to run start so σ resolution and
    table construction stay owned by the recipe builder.
    """

    name = "preload"

    def __init__(self, ids_fn: Callable[[], Sequence[int]]) -> None:
        self.ids_fn = ids_fn

    def start(self, engine) -> None:
        with engine.ctx.profiler.span("preload"):
            engine.hierarchy.preload(self.ids_fn())


# ---------------------------------------------------------------------------
# demand fetch


class DemandFetchStage(Stage):
    """Bring every visible block to fast memory (Alg. 1 lines 8-19).

    ``protect=True`` applies the paper's eviction constraint: victims must
    not have been used at the current step (``min_free_step = i``).  One
    ``fetch_many`` per step.
    """

    name = "demand-fetch"

    def __init__(self, protect: bool = True) -> None:
        self.protect = protect

    def step(self, engine, frame: Frame) -> None:
        hierarchy = engine.hierarchy
        fastest = hierarchy.fastest
        min_free = frame.step if self.protect else None
        fast_misses_before = fastest.stats.misses
        tenant = getattr(engine, "tenant", None)
        with engine.ctx.profiler.span("fetch"):
            res = hierarchy.fetch_many(
                frame.ids, frame.step, min_free_step=min_free, tenant=tenant
            )
        frame.io_time_s = res.time_s
        frame.n_dropped = res.n_dropped
        frame.n_fast_misses = fastest.stats.misses - fast_misses_before


class BudgetedFetchStage(Stage):
    """Deadline-bounded demand fetch: budget enforcement on the miss stream.

    Resident blocks are free with respect to the budget (their cheap
    fast-memory read time is recorded but never charged); missing blocks
    are fetched most-important-first until the accumulated *miss* time
    would exceed ``io_budget_s`` — the rest stay holes this frame.  Sets
    ``frame.rendered`` to the ids available at the deadline.
    """

    name = "budgeted-fetch"

    def __init__(self, io_budget_s: float, importance=None) -> None:
        self.io_budget_s = float(io_budget_s)
        self.importance = importance

    def step(self, engine, frame: Frame) -> None:
        hierarchy = engine.hierarchy
        fastest = hierarchy.fastest
        importance = self.importance
        i = frame.step
        ids_arr = np.ascontiguousarray(frame.ids, dtype=np.int64)
        mask = fastest.contains_many(ids_arr)
        resident = ids_arr[mask]
        missing = ids_arr[~mask]
        if importance is not None and missing.size:
            missing = missing[np.argsort(-importance.scores[missing], kind="stable")]
        rendered = resident.tolist()

        miss_time = 0.0
        step_dropped = 0
        with engine.ctx.profiler.span("fetch"):
            # Hits: account + touch; free wrt the budget.
            res = hierarchy.fetch_many(resident, i, min_free_step=i)
            hit_time = res.time_s
            if res.n_dropped:  # resident copy unreadable, nothing served
                step_dropped += res.n_dropped
                gone = set(res.dropped_ids)
                rendered = [b for b in rendered if b not in gone]
            # Misses stay per block: the budget cut-off is order-dependent.
            for b in missing.tolist():
                r = hierarchy.fetch(b, i, min_free_step=i)
                miss_time += r.time_s
                if r.dropped:
                    step_dropped += 1  # charged time but no data: a hole
                else:
                    rendered.append(b)
                if miss_time >= self.io_budget_s:
                    break  # deadline: remaining blocks stay holes this frame
        frame.io_time_s = hit_time + miss_time
        frame.n_dropped = step_dropped
        frame.rendered = rendered


# ---------------------------------------------------------------------------
# render


class RenderStage(Stage):
    """Charge the render cost model for the blocks that actually arrived.

    ``count`` selects what the renderer sees: ``"visible-minus-dropped"``
    (graceful degradation — fault-dropped blocks are holes),
    ``"visible"`` (ignore drops; the temporal driver's historical
    behaviour), or ``"rendered"`` (the budgeted recipes' resident set).
    """

    name = "render"

    _COUNTS = ("visible-minus-dropped", "visible", "rendered")

    def __init__(
        self,
        count: str = "visible-minus-dropped",
        span: bool = True,
        emit_trace: bool = True,
    ) -> None:
        if count not in self._COUNTS:
            raise ValueError(f"count must be one of {self._COUNTS}, got {count!r}")
        self.count = count
        self.span = span
        self.emit_trace = emit_trace

    def _n_blocks(self, frame: Frame) -> int:
        if self.count == "rendered":
            return len(frame.rendered or ())
        if self.count == "visible":
            return frame.n_visible
        return frame.n_visible - frame.n_dropped

    def step(self, engine, frame: Frame) -> None:
        model = engine.context.render_model
        if self.span:
            with engine.ctx.profiler.span("render"):
                render = model.render_time(self._n_blocks(frame))
        else:
            render = model.render_time(self._n_blocks(frame))
        frame.render_time_s = render
        if self.emit_trace and engine.ctx.tracer.enabled:
            engine.ctx.tracer.record("render", frame.step, time_s=render)


# ---------------------------------------------------------------------------
# overlap prefetch


class _OverlapPrefetchBase(Stage):
    """Shared machinery: usefulness scoreboard + capped issue loop.

    A prefetch issued at step *i* counts as *useful* when the demand
    stream touches the block at step *i + 1*; the precision/recall
    counters live on the registry so unmetered runs pay nothing.
    """

    def __init__(self, max_prefetch_per_step: Optional[int] = None, dedupe: bool = False) -> None:
        self.max_prefetch_per_step = max_prefetch_per_step
        self.dedupe = dedupe
        self._cap = 0
        self._issued_prev = np.empty(0, dtype=np.int64)
        self._queue_gauge = None
        self._issued_counter = None
        self._useful_counter = None
        self._demanded_counter = None

    def start(self, engine) -> None:
        registry = engine.ctx.registry
        self._queue_gauge = registry.gauge("prefetch_queue_depth")
        self._issued_counter = registry.counter("prefetch_evaluated_total")
        self._useful_counter = registry.counter("prefetch_useful_total")
        self._demanded_counter = registry.counter("prefetch_demand_window_total")
        self._issued_prev = np.empty(0, dtype=np.int64)
        cap = self.max_prefetch_per_step
        self._cap = cap if cap is not None else engine.hierarchy.fastest.capacity

    def _scoreboard(self, engine, frame: Frame) -> None:
        # Prefetch usefulness: blocks prefetched at step i-1 that the
        # demand stream touches at step i were correct predictions.
        if not engine.ctx.registry.enabled:
            return
        ids = frame.ids
        if self._issued_prev.size:
            self._issued_counter.inc(self._issued_prev.size)
            # Set membership beats np.isin at visible-set sizes.
            demand_now = set(np.asarray(ids).tolist())
            self._useful_counter.inc(
                sum(1 for b in self._issued_prev.tolist() if b in demand_now)
            )
        self._issued_prev = np.empty(0, dtype=np.int64)
        if frame.step > 0:
            self._demanded_counter.inc(len(ids))

    def _issue(self, engine, frame: Frame, candidates) -> None:
        """The capped prefetch call; fills prefetch_time_s/n_prefetched."""
        i = frame.step
        issued, prefetch_time = engine.hierarchy.prefetch_many(
            candidates, i, min_free_step=i, max_fetch=self._cap, dedupe=self.dedupe
        )
        if engine.ctx.registry.enabled:
            self._issued_prev = np.asarray(issued, dtype=np.int64)
        frame.prefetch_time_s = prefetch_time
        frame.n_prefetched = len(issued)


class StrategyPrefetchStage(_OverlapPrefetchBase):
    """Overlapped prefetch driven by a :class:`~repro.prefetch.base.Prefetcher`.

    The strategy's prediction runs in its own ``predict`` profiler span
    and its per-query compute cost is charged to ``lookup_time_s``;
    duplicate candidate ids are fetched at most once (attempted-set
    semantics).
    """

    name = "strategy-prefetch"

    def __init__(self, prefetcher, max_prefetch_per_step: Optional[int] = None) -> None:
        super().__init__(max_prefetch_per_step=max_prefetch_per_step, dedupe=True)
        self.prefetcher = prefetcher

    def start(self, engine) -> None:
        self.prefetcher.reset()
        # Let index-backed strategies resolve the whole path in one batch;
        # per-step predictions (and simulated costs) are unchanged.
        self.prefetcher.prime(engine.context.path.positions)
        super().start(engine)

    def step(self, engine, frame: Frame) -> None:
        self._scoreboard(engine, frame)
        profiler = engine.ctx.profiler
        registry = engine.ctx.registry
        positions = engine.context.path.positions
        with profiler.span("predict"):
            candidates = self.prefetcher.predict(frame.step, positions[frame.step], frame.ids)
        frame.lookup_time_s = self.prefetcher.query_cost_s()
        if registry.enabled:
            self._queue_gauge.set(len(candidates))
        with profiler.span("prefetch"):
            self._issue(engine, frame, candidates)


class _BatchedTableLookupMixin:
    """Resolve every frame's nearest ``T_visible`` key in ONE KD-tree query.

    The per-point results are bit-identical to single-frame
    :meth:`VisibleTable.lookup` calls (same tree, same metric), and the
    simulated lookup cost is still charged per frame — so the ledger is
    byte-identical to the per-frame seed drivers (tested).  Stages mix
    this in and call :meth:`_predicted` instead of ``lookup``.
    """

    _path_keys: Optional[np.ndarray] = None

    def _reset_path_keys(self) -> None:
        self._path_keys = None

    def _predicted(self, engine, step: int) -> np.ndarray:
        table = self.visible_table
        if self._path_keys is None:
            self._path_keys, _ = table.nearest_entries(engine.context.path.positions)
        return table.entry(int(self._path_keys[step]))


class SigmaState:
    """Mutable σ shared between the table prefetch stage and the adaptive
    controller (the paper fixes σ; the controller tunes it online)."""

    __slots__ = ("sigma", "percentile")

    def __init__(self, sigma: float, percentile: float) -> None:
        self.sigma = float(sigma)
        self.percentile = float(percentile)


class TablePrefetchStage(_BatchedTableLookupMixin, _OverlapPrefetchBase):
    """Algorithm 1 lines 20-22: ``T_visible`` lookup, σ-filter, prefetch.

    The whole predict-filter-issue sequence shares one ``prefetch``
    profiler span (matching the optimizer's historical profile shape) and
    the lookup cost model charges the simulated table-query time.
    ``enabled=False`` keeps the usefulness scoreboard (and its metrics)
    alive while skipping the issuance — the ``prefetch=False`` ablation.
    """

    name = "table-prefetch"

    def __init__(
        self,
        visible_table,
        importance_table,
        sigma_state: SigmaState,
        lookup_cost,
        use_importance_filter: bool = True,
        max_prefetch_per_step: Optional[int] = None,
        enabled: bool = True,
    ) -> None:
        super().__init__(max_prefetch_per_step=max_prefetch_per_step, dedupe=False)
        self.visible_table = visible_table
        self.importance_table = importance_table
        self.sigma_state = sigma_state
        self.lookup_cost = lookup_cost
        self.use_importance_filter = use_importance_filter
        self.enabled = enabled

    def start(self, engine) -> None:
        self._reset_path_keys()
        super().start(engine)

    def step(self, engine, frame: Frame) -> None:
        self._scoreboard(engine, frame)
        if not self.enabled:
            return
        registry = engine.ctx.registry
        with engine.ctx.profiler.span("prefetch"):
            predicted = self._predicted(engine, frame.step)
            frame.lookup_time_s = self.lookup_cost.query_time(self.visible_table.n_entries)
            if self.use_importance_filter:
                candidates = self.importance_table.filter_and_rank(
                    predicted, self.sigma_state.sigma
                )
            else:
                candidates = predicted
            if registry.enabled:
                self._queue_gauge.set(len(candidates))
            self._issue(engine, frame, candidates)


class AdaptiveSigmaStage(Stage):
    """Online σ controller: keep the prefetch stream inside the overlap
    window.  Overrun -> prefetch less (raise σ); big slack -> prefetch
    more (lower σ).  Runs after the prefetch stage each step."""

    name = "adaptive-sigma"

    def __init__(self, sigma_state: SigmaState, importance_table, config) -> None:
        self.sigma_state = sigma_state
        self.importance_table = importance_table
        self.config = config

    def step(self, engine, frame: Frame) -> None:
        cfg = self.config
        state = self.sigma_state
        lo, hi = cfg.sigma_bounds
        if frame.prefetch_time_s > frame.render_time_s:
            state.percentile = min(hi, state.percentile + cfg.sigma_step)
        elif frame.prefetch_time_s < 0.5 * frame.render_time_s:
            state.percentile = max(lo, state.percentile - cfg.sigma_step)
        state.sigma = self.importance_table.threshold_for_percentile(state.percentile)


class BudgetedPrefetchStage(_BatchedTableLookupMixin, Stage):
    """Budgeted-replay prefetch: the predicted next view rides the render.

    Candidates are sliced to the fastest level's capacity *before* the
    resident skip (skipped candidates still consume queue slots — the
    seed driver's semantics), and the prefetch time is never charged
    against the frame budget.
    """

    name = "budgeted-prefetch"

    def __init__(self, visible_table, importance=None, sigma: float = float("-inf")) -> None:
        self.visible_table = visible_table
        self.importance = importance
        self.sigma = float(sigma)

    def start(self, engine) -> None:
        self._reset_path_keys()

    def step(self, engine, frame: Frame) -> None:
        hierarchy = engine.hierarchy
        i = frame.step
        with engine.ctx.profiler.span("prefetch"):
            predicted = self._predicted(engine, i)
            if self.importance is not None:
                candidates = self.importance.filter_and_rank(predicted, self.sigma)
            else:
                candidates = predicted
            # Slice *before* the resident skip: skipped candidates still
            # consume queue slots.
            _, prefetch_time = hierarchy.prefetch_many(
                candidates[: hierarchy.fastest.capacity], i, min_free_step=i
            )
        frame.prefetch_time_s = prefetch_time


# ---------------------------------------------------------------------------
# temporal


class TemporalRemapStage(Stage):
    """Map the step's spatial visible set into the current timestep's id
    space (time-varying data: the working set is the visible blocks *of
    the current timestep*)."""

    name = "temporal-remap"

    def __init__(self, series, steps_per_timestep: int) -> None:
        if steps_per_timestep < 1:
            raise ValueError(f"steps_per_timestep must be >= 1, got {steps_per_timestep}")
        self.series = series
        self.steps_per_timestep = int(steps_per_timestep)

    def timestep(self, step: int) -> int:
        return min(step // self.steps_per_timestep, self.series.n_timesteps - 1)

    def step(self, engine, frame: Frame) -> None:
        t = self.timestep(frame.step)
        frame.ids = self.series.temporal_visible_ids(frame.ids, t, engine.context.grid)


class TemporalPrefetchStage(_BatchedTableLookupMixin, Stage):
    """Temporal extension of Algorithm 1's prefetch: pull the predicted
    visible set of the **next timestep** during rendering — the same
    spatial prediction, shifted one step forward in time."""

    name = "temporal-prefetch"

    def __init__(
        self,
        remap: TemporalRemapStage,
        visible_table,
        importance=None,
        sigma: float = float("-inf"),
        lookup_cost=None,
    ) -> None:
        self.remap = remap
        self.visible_table = visible_table
        self.importance = importance
        self.sigma = float(sigma)
        self.lookup_cost = lookup_cost

    def start(self, engine) -> None:
        self._reset_path_keys()

    def step(self, engine, frame: Frame) -> None:
        if self.visible_table is None:
            return
        hierarchy = engine.hierarchy
        series = self.remap.series
        n_spatial = engine.context.grid.n_blocks
        i = frame.step
        t_next = min((i + 1) // self.remap.steps_per_timestep, series.n_timesteps - 1)
        with engine.ctx.profiler.span("prefetch"):
            predicted = self._predicted(engine, i)
            frame.lookup_time_s = self.lookup_cost.query_time(self.visible_table.n_entries)
            if self.importance is not None:
                # Importance is over the temporal id space; rank the
                # predicted spatial set within the *next* timestep.
                shifted = np.asarray(predicted, dtype=np.int64) + t_next * n_spatial
                candidates = self.importance.filter_and_rank(shifted, self.sigma)
            else:
                candidates = np.asarray(predicted, dtype=np.int64) + t_next * n_spatial
            issued, prefetch_time = hierarchy.prefetch_many(
                candidates, i, min_free_step=i, max_fetch=hierarchy.fastest.capacity
            )
        frame.prefetch_time_s = prefetch_time
        frame.n_prefetched = len(issued)
