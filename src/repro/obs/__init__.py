"""Observability: metrics registry, phase profiler, regression bench.

Three layers, mirroring the tracer's opt-in design (every instrumented
component defaults to a shared no-op so unmetered runs stay byte-identical):

- :mod:`repro.obs.metrics` — labelled counters, gauges, and fixed-bucket
  histograms with p50/p95/p99, behind :class:`MetricsRegistry` /
  :data:`NULL_REGISTRY`;
- :mod:`repro.obs.profiler` — nested wall-clock spans next to the
  simulated clock (:class:`PhaseProfiler` / :data:`NULL_PROFILER`), and
  span ids stamped onto trace events;
- :mod:`repro.obs.bench` — the ``bench-cell`` runner of the pinned
  ``repro bench`` suite, whose ``MATRIX_<label>.json`` documents the one
  gate in :mod:`repro.experiments.gating` compares.  (Imported lazily —
  see the module — to keep this package import-light for the storage
  layer.)

:mod:`repro.obs.fairness` adds the multi-tenant summaries (Jain fairness
index, per-tenant frame-time tails) the session scheduler reports.

Like ``bench``, the forensics/report layer stays lazy (import the
modules directly, they pull in the runtime engine):

- :mod:`repro.obs.attribution` — exact per-frame latency attribution
  reconciled bit-for-bit against the engine's time ledger;
- :mod:`repro.obs.report` — the one self-contained HTML report, written
  by ``repro analyze`` and ``repro matrix run --report``;
- :mod:`repro.obs.prometheus` — text-exposition dump of a registry
  snapshot (``repro analyze --prom``).
"""

from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NullRegistry,
    NULL_REGISTRY,
    DEFAULT_LATENCY_BUCKETS,
    default_latency_buckets,
)
from repro.obs.fairness import TenantFrameStats, jain_index, percentile_summary
from repro.obs.profiler import NullProfiler, NULL_PROFILER, PhaseProfiler

__all__ = [
    "TenantFrameStats",
    "jain_index",
    "percentile_summary",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "NullRegistry",
    "NULL_REGISTRY",
    "DEFAULT_LATENCY_BUCKETS",
    "default_latency_buckets",
    "PhaseProfiler",
    "NullProfiler",
    "NULL_PROFILER",
]
