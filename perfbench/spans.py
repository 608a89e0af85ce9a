"""In-memory span recording for the traced benchmark run.

The traced run wraps each layer's public functions where the program looks
them up (module attributes, classes) inside the benchmark process; the
package source is never edited.  Every wrapped call becomes a span
``(id, parent, name, start, end)``.  Self time (a span minus the part of
it its child spans cover) is folded per span name as spans close, so the
per-layer table is exact however many spans a run makes; only the first
``keep`` spans are retained for the Chrome-trace file.

Spans are recorded only while a root span is open: the harness opens one
per workload iteration (entry call to the end of the last replay call),
so the output checks that run between iterations stay untraced and the
root's self time is the iteration's unattributed wall time.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager
from functools import partial
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Tuple

ROOT_SPAN = "bench.iteration"

#: The clock of every benchmark timestamp: this process's CPU time.  The
#: workloads run on one thread and never wait for I/O, so on a machine of
#: their own it reads as wall time does; on a shared host it leaves out the
#: time the scheduler, or a hypervisor whose guest kernel accounts steal
#: time, hands the CPU to someone else, which wall time would count.
CLOCK = time.process_time

#: Replacement-policy hook methods (the cache level calls these per access).
POLICY_HOOKS = (
    "on_hit", "on_hit_many", "on_insert", "on_insert_many", "on_evict",
    "on_evict_many", "choose_victim", "choose_victim_masked", "victim_order",
    "victim_order_token", "victim_still_ordered", "victim_still_ordered_many",
    "reset", "set_capacity",
)

#: Stage and collector methods of the replay engine.
RUNTIME_METHODS = ("start", "step", "finish", "collect")


class SpanRecorder:
    """Records nested spans and folds their self times by name."""

    def __init__(self, keep: int = 20_000) -> None:
        self.keep = int(keep)
        self.active = False
        self.spans: List[list] = []  # [id, parent id, name, start, end]
        self.n_spans = 0
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, float] = defaultdict(float)
        # Open spans: [name, start, child seconds, id, retained record].
        self._stack: List[list] = []

    def open_root(self, t: float) -> None:
        self.active = True
        self._push(ROOT_SPAN, t)

    def close_root(self, t: float) -> None:
        while self._stack:
            self._pop(t)
        self.active = False

    def _push(self, name: str, t: float) -> None:
        parent = self._stack[-1][3] if self._stack else -1
        record = None
        if len(self.spans) < self.keep:  # kept in opening order, root first
            record = [self.n_spans, parent, name, t, t]
            self.spans.append(record)
        self._stack.append([name, t, 0.0, self.n_spans, record])
        self.n_spans += 1

    def _pop(self, t: float) -> None:
        name, start, child_s, _, record = self._stack.pop()
        dur = t - start
        self.self_s[name] += dur - child_s
        self.calls[name] += 1
        if self._stack:
            self._stack[-1][2] += dur
        if record is not None:
            record[4] = t

    def wrap(self, fn: Callable, name: str, work: Optional[Callable] = None) -> Callable:
        """``fn`` recording one ``name`` span per call while a root is open.

        ``work(counts, args, result)`` adds the call's work counts.
        """
        recorder = self
        clock = CLOCK

        def traced(*args, **kwargs):
            if not recorder.active:
                return fn(*args, **kwargs)
            recorder._push(name, clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                recorder._pop(clock())
            if work is not None:
                work(recorder.counts, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        traced.__doc__ = getattr(fn, "__doc__", None)
        return traced

    def write_chrome_trace(self, path: Path) -> Path:
        """Write the retained spans as Chrome-trace complete events.

        Times are microseconds from the first span's start; each event's
        ``args`` carry the span id and its parent's id (``-1`` for a root).
        """
        t0 = self.spans[0][3] if self.spans else 0.0
        events = [
            {
                "name": name,
                "cat": name.split(".", 1)[0],
                "ph": "X",
                "ts": (start - t0) * 1e6,
                "dur": (end - start) * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"id": span_id, "parent": parent},
            }
            for span_id, parent, name, start, end in self.spans
        ]
        doc = {
            "traceEvents": events,
            "displayTimeUnit": "ms",
            "otherData": {"n_spans": self.n_spans, "n_retained": len(self.spans)},
        }
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(doc), encoding="utf-8")
        return path


# ---------------------------------------------------------------------------
# work counters


def _eq1_work(counts, args, result) -> None:
    positions, grid = args[0], args[1]
    counts["camera.eq1_positions"] += len(positions)
    counts["camera.eq1_block_tests"] += len(positions) * grid.n_blocks


def _voxel_work(counts, args, result) -> None:
    counts["importance.voxel_bytes"] += args[0].nbytes


def _vtable_work(counts, args, result) -> None:
    sizes = result.entry_sizes()
    counts["tables.entries"] += result.n_entries
    counts["tables.set_ids"] += int(sizes.sum())


def _fetch_many_work(counts, args, result) -> None:
    counts["storage.fetch_blocks"] += result.n
    counts["storage.fast_hits"] += result.n_fastest_hits


def _fetch_work(counts, args, result) -> None:
    counts["storage.fetch_blocks"] += 1
    counts["storage.fast_hits"] += int(result.fastest_hit)


def _prefetch_work(counts, args, result) -> None:
    counts["storage.prefetch_candidates"] += len(args[1])
    counts["storage.prefetch_issued"] += len(result[0])


def _frame_work(counts, args, result) -> None:
    counts["runtime.frames"] += 1


def _targets() -> List[Tuple[str, str, Optional[Callable]]]:
    """``(module:attribute, span name, work)`` for every wrapped call site."""
    from repro.policies import registry as policy_registry
    from repro.runtime import engine as engine_module
    from repro.runtime import stages as stages_module

    targets = [
        ("repro.experiments.runner:make_dataset", "volume.synth", None),
        ("repro.tables.builder:compute_importance", "importance.entropy", _voxel_work),
        ("repro.tables.builder:visible_ids_batch", "camera.eq1_table", _eq1_work),
        ("repro.tables.builder:visible_masks_batch", "camera.eq1_table", _eq1_work),
        ("repro.core.pipeline:visible_ids_batch", "camera.eq1_path", None),
        ("repro.tables.builder:build_visible_table", "tables.vtable", _vtable_work),
        ("repro.experiments.runner:build_visible_table", "tables.vtable", _vtable_work),
        ("repro.tables.visible_table:VisibleTable.nearest_entries", "tables.lookup", None),
        ("repro.tables.visible_table:VisibleTable.lookup", "tables.lookup", None),
        ("repro.tables.visible_table:VisibleTable.entry", "tables.lookup", None),
        ("repro.tables.importance_table:ImportanceTable.filter_and_rank",
         "tables.filter_rank", None),
        ("repro.tables.importance_table:ImportanceTable.ids_above", "tables.filter_rank", None),
        ("repro.tables.importance_table:ImportanceTable.threshold_for_percentile",
         "tables.filter_rank", None),
        ("repro.storage.hierarchy:MemoryHierarchy.fetch_many", "storage.fetch", _fetch_many_work),
        ("repro.storage.hierarchy:MemoryHierarchy.fetch", "storage.fetch", _fetch_work),
        ("repro.storage.hierarchy:MemoryHierarchy.prefetch_many", "storage.prefetch",
         _prefetch_work),
        ("repro.storage.hierarchy:MemoryHierarchy.preload", "storage.preload", None),
        ("repro.render.render_model:RenderCostModel.render_time", "render.model", None),
        ("repro.runtime.sessions:attribute_frames", "obs.attribution", None),
        ("repro.cluster.hierarchy:ShardedHierarchy.fetch_many", "cluster.route", None),
        ("repro.cluster.hierarchy:ShardedHierarchy.fetch", "cluster.route", None),
        ("repro.cluster.hierarchy:ShardedHierarchy.prefetch_many", "cluster.route", None),
        ("repro.cluster.hierarchy:ShardedHierarchy.preload", "cluster.route", None),
        ("repro.runtime.engine:SimulationEngine.run", "runtime", None),
        ("repro.runtime.drivers:run_baseline", "runtime", None),
        ("repro.runtime.drivers:AppAwareOptimizer.run", "runtime", None),
        ("repro.experiments.loadgen:run_sessions", "runtime", None),
    ]
    for cls_name in ("ReplacementPolicy", "FIFOPolicy", "LRUPolicy", "ARCPolicy"):
        cls = getattr(policy_registry, cls_name)
        for method in POLICY_HOOKS:
            fn = vars(cls).get(method)
            if callable(fn) and not getattr(fn, "__isabstractmethod__", False):
                targets.append(
                    (f"{cls.__module__}:{cls.__qualname__}.{method}", "policies.hook", None)
                )
    runtime_classes = [
        getattr(stages_module, name) for name in stages_module.__all__
        if isinstance(getattr(stages_module, name), type)
    ] + [getattr(engine_module, name) for name in ("StepMetricsCollector", "Collector")]
    for cls in runtime_classes:
        for method in RUNTIME_METHODS:
            if callable(vars(cls).get(method)):
                work = _frame_work if (cls.__name__, method) == ("DemandFetchStage", "step") \
                    else None
                targets.append((f"{cls.__module__}:{cls.__qualname__}.{method}", "runtime", work))
    return targets


def _resolve(target: str):
    module_name, _, attr_path = target.partition(":")
    owner = importlib.import_module(module_name)
    *parents, attr = attr_path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, attr


@contextmanager
def patched(owner, attr: str, make: Callable[[Callable], Callable]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(owner.attr)``; restore on exit."""
    original = vars(owner)[attr]
    setattr(owner, attr, make(getattr(owner, attr)))
    try:
        yield
    finally:
        setattr(owner, attr, original)


@contextmanager
def instrument(recorder: SpanRecorder) -> Iterator[None]:
    """Wrap every layer call site for the duration of the block."""
    with ExitStack() as stack:
        for target, name, work in _targets():
            owner, attr = _resolve(target)
            stack.enter_context(
                patched(owner, attr, partial(recorder.wrap, name=name, work=work))
            )
        yield


#: Span name -> the per-layer self-time metric it feeds.
SELF_TIME_METRICS = {
    "volume.synth": "volume.synth_s",
    "importance.entropy": "importance.entropy_s",
    "camera.eq1_table": "camera.eq1_table_s",
    "camera.eq1_path": "camera.eq1_path_s",
    "tables.vtable": "tables.vtable_self_s",
    "tables.lookup": "tables.lookup_s",
    "tables.filter_rank": "tables.filter_rank_s",
    "storage.fetch": "storage.fetch_s",
    "storage.prefetch": "storage.prefetch_s",
    "storage.preload": "storage.preload_s",
    "policies.hook": "policies.hook_s",
    "render.model": "render.model_s",
    "runtime": "runtime.self_s",
    "obs.attribution": "obs.attribution_s",
    "cluster.route": "cluster.route_self_s",
    ROOT_SPAN: "bench.unattributed_s",
}


def _ratio(numer: float, denom: float) -> float:
    return numer / denom if denom else 0.0


def layer_metrics(recorder: SpanRecorder, n_iterations: int) -> Dict[str, Tuple[float, str]]:
    """Per-iteration layer metrics ``name -> (value, unit)`` from the spans.

    Every ``*_s`` time is a self time; together they add up to the traced
    iterations' wall time (``bench.wall_s``).
    """
    n = max(1, n_iterations)
    self_s, calls, counts = recorder.self_s, recorder.calls, recorder.counts
    out: Dict[str, Tuple[float, str]] = {
        metric: (self_s.get(span, 0.0) / n, "s") for span, metric in SELF_TIME_METRICS.items()
    }
    out["bench.wall_s"] = (sum(self_s.values()) / n, "s")
    entropy_s = self_s.get("importance.entropy", 0.0)
    out["importance.voxel_mb_per_s"] = (
        _ratio(counts["importance.voxel_bytes"] / 1e6, entropy_s), "MB/s",
    )
    out["camera.eq1_positions"] = (counts["camera.eq1_positions"] / n, "count")
    out["camera.eq1_block_tests_per_s"] = (
        _ratio(counts["camera.eq1_block_tests"], self_s.get("camera.eq1_table", 0.0)), "1/s",
    )
    out["tables.entries"] = (counts["tables.entries"] / n, "count")
    out["tables.mean_set_size"] = (
        _ratio(counts["tables.set_ids"], counts["tables.entries"]), "blocks",
    )
    out["tables.lookup_calls"] = (calls.get("tables.lookup", 0) / n, "count")
    out["storage.fetch_calls"] = (calls.get("storage.fetch", 0) / n, "count")
    out["storage.fetch_blocks"] = (counts["storage.fetch_blocks"] / n, "count")
    out["storage.us_per_block"] = (
        _ratio(self_s.get("storage.fetch", 0.0) * 1e6, counts["storage.fetch_blocks"]), "us",
    )
    out["storage.fast_hit_ratio"] = (
        _ratio(counts["storage.fast_hits"], counts["storage.fetch_blocks"]), "ratio",
    )
    out["storage.prefetch_issued_ratio"] = (
        _ratio(counts["storage.prefetch_issued"], counts["storage.prefetch_candidates"]),
        "ratio",
    )
    out["policies.hook_calls"] = (calls.get("policies.hook", 0) / n, "count")
    out["runtime.frames"] = (counts["runtime.frames"] / n, "count")
    return out


def self_time_table(recorder: SpanRecorder) -> List[Dict[str, object]]:
    """Rows ``{span, calls, self_s}``, largest self time first."""
    return [
        {"span": name, "calls": recorder.calls[name], "self_s": secs}
        for name, secs in sorted(recorder.self_s.items(), key=lambda kv: -kv[1])
    ]
