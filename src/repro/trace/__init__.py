"""End-to-end event tracing and metrics for the I/O path.

A :class:`Tracer` rides along the whole read path — hierarchy fetches,
cache evictions/bypasses, preload, prefetch, render — recording typed
events into a bounded ring buffer of numpy columns.  Readers take a
column view (``Tracer.columns_since``) or a snapshot of the columns
(``Tracer.events``); both are :class:`TraceColumns`, which reads as a
sequence of :class:`TraceEvent` rows built only on demand.  The shared
:data:`NULL_TRACER` keeps instrumented code allocation-free when tracing
is off.  :func:`aggregate` folds a trace's columns into per-step
timelines (demand vs prefetch bytes per level, eviction churn,
fast-memory coverage); :mod:`repro.trace.export` streams the columns out
as JSON-lines or Chrome-trace JSON for ``chrome://tracing`` / Perfetto,
and reads JSON-lines back into columns (:func:`read_jsonl`), so every
reader takes one shape.
"""

from repro.trace.events import (
    EVENT_KINDS,
    FAULT_KINDS,
    MOVEMENT_KINDS,
    TraceColumns,
    TraceEvent,
)
from repro.trace.tracer import NULL_TRACER, NullTracer, Tracer
from repro.trace.aggregate import StepTimeline, TraceSummary, aggregate
from repro.trace.export import (
    read_jsonl,
    seq_drop_stats,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)

__all__ = [
    "EVENT_KINDS",
    "MOVEMENT_KINDS",
    "FAULT_KINDS",
    "TraceEvent",
    "TraceColumns",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
    "StepTimeline",
    "TraceSummary",
    "aggregate",
    "write_jsonl",
    "read_jsonl",
    "seq_drop_stats",
    "to_chrome_trace",
    "write_chrome_trace",
]
