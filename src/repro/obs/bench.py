"""The ``repro bench`` regression harness.

Every bench tier is a bundled matrix spec (:data:`TIER_SPECS`): ``repro
bench [--tier T] [--quick]`` loads it and hands it to :func:`run_bench`,
:func:`repro.obs.bench_cluster.run_cluster` or
:func:`repro.obs.bench_fullscale.run_fullscale`.  The default tier runs a
pinned suite — two camera paths (an orbit and a zoom) × two policies (the
LRU baseline and the paper's app-aware optimizer) on one synthetic
dataset — with the metrics registry, event tracer, and phase profiler all
attached, and emits a schema-versioned ``BENCH_<label>.json`` snapshot
that records the spec it ran.  Everything the comparison looks at is
*simulated*-clock derived, so two snapshots of the same code are
bit-identical regardless of the machine; wall-clock phase timings (and
the per-run ``wall_s`` / suite ``suite_wall_s`` fields) ride along for
human inspection but are never compared.

Cells run through the ``bench-cell`` runner registered here: exact
per-block trace emission, eviction forensics
(:class:`~repro.storage.forensics.EvictionLineage`) and the per-frame
latency attribution of :mod:`repro.obs.attribution` in each run's
informational ``attribution`` section.  ``workers > 1`` fans the cells
out over worker processes, each building its own tables from the spec,
so snapshots are byte-identical regardless of parallelism.

Snapshots are written, loaded and compared by the one gate in
:mod:`repro.experiments.gating` (``repro bench --compare`` exits non-zero
when any metric regresses past threshold).
"""

from __future__ import annotations

import time
from dataclasses import replace
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Union

from repro.experiments.gating import BENCH_SCHEMA_VERSION
from repro.experiments.matrix import (
    MatrixCell,
    MatrixSpec,
    _context_for,
    execute_cells,
    expand_cells,
    load_spec,
    register_cell_runner,
    run_matrix_cell,
    setup_for,
)
from repro.faults import FAULT_PROFILES, FaultInjector, FaultPlan
from repro.obs.attribution import attribute_run
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.runtime.drivers import run_baseline
from repro.storage.forensics import EvictionLineage, optimal_miss_count
from repro.trace import Tracer, aggregate
from repro.utils.rng import derive_seed

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "PROFILE_CELL",
    "TIER_SPECS",
    "tier_spec",
    "run_bench",
]

PathLike = Union[str, Path]

#: ``repro bench --tier`` -> (bundled spec, bundled ``--quick`` spec).
TIER_SPECS = {
    "default": ("bench", "bench-quick"),
    "cluster": ("cluster", "cluster-smoke"),
    "fullscale": ("fullscale", "fullscale-smoke"),
}

#: The cell ``repro bench --profile`` re-runs with a span timeline kept.
PROFILE_CELL = "orbit/app-aware"


def tier_spec(tier: str, quick: bool = False) -> MatrixSpec:
    """The bundled spec of a bench tier (its ``--quick`` twin if asked)."""
    full, smoke = TIER_SPECS[tier]
    return load_spec(smoke if quick else full)


def profile_cell(cells: List[MatrixCell], spec: MatrixSpec) -> MatrixCell:
    """The :data:`PROFILE_CELL` of an expanded tier spec."""
    for cell in cells:
        if cell.key == PROFILE_CELL:
            return cell
    raise ValueError(f"spec {spec.label!r} has no {PROFILE_CELL!r} cell to profile")


def _ratio(numer: Optional[object], denom: Optional[object]) -> Optional[float]:
    if numer is None or denom is None or not denom.value:
        return None
    return numer.value / denom.value


def _histogram_percentiles(registry: MetricsRegistry, name: str) -> Dict[str, Dict[str, float]]:
    """``{flat-label: {count, p50, p95, p99}}`` for every histogram ``name``."""
    out: Dict[str, Dict[str, float]] = {}
    for metric in registry.metrics():
        if isinstance(metric, Histogram) and metric.name == name:
            key = ",".join(f"{k}={v}" for k, v in metric.labels) or "all"
            out[key] = {"count": metric.count, **metric.percentiles()}
    return out


def _bench_cell(
    cell: MatrixCell,
    extras: Mapping[str, Any],
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, object]:
    """One instrumented (path, policy) cell: run it, snapshot everything.

    Faulted cells draw from ``derive_seed(fault_seed, cell.index)``, so
    every cell of a suite sees a distinct, reproducible fault schedule.
    """
    config = cell.config
    setup = setup_for(config, extras)
    context = _context_for(setup, config, extras)
    t0 = time.perf_counter()
    registry = MetricsRegistry()
    tracer = Tracer(capacity=int(extras.get("tracer_capacity", 500_000)))
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    policy = config.policy
    hierarchy = setup.hierarchy("lru" if policy == "app-aware" else policy)
    # Per-block trace emission: the attribution section replays the
    # engine's exact per-fetch time folds from the event stream, which an
    # aggregated (count > 1) roll-up cannot support.
    hierarchy.aggregate_trace = False
    lineage = EvictionLineage()
    hierarchy.set_forensics(lineage)
    injector = None
    derived_seed = derive_seed(config.fault_seed, cell.index)
    if config.faults != "none":
        injector = FaultInjector(FaultPlan.from_profile(config.faults, seed=derived_seed))
        hierarchy.set_fault_injector(injector)
    with profiler.span("replay"):
        if policy == "app-aware":
            result = setup.optimizer().run(
                context, hierarchy, tracer=tracer, registry=registry, profiler=profiler
            )
        else:
            result = run_baseline(
                context, hierarchy, tracer=tracer, registry=registry, profiler=profiler
            )

    summary = aggregate(tracer.events())
    precision = _ratio(
        registry.get("prefetch_useful_total"), registry.get("prefetch_evaluated_total")
    )
    recall = _ratio(
        registry.get("prefetch_useful_total"), registry.get("prefetch_demand_window_total")
    )
    run: Dict[str, object] = {
        "wall_s": time.perf_counter() - t0,  # informational; never compared
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "derived": {
            "prefetch_precision": precision,
            "prefetch_recall": recall,
            "fetch_latency_seconds": _histogram_percentiles(
                registry, "fetch_latency_seconds"
            ),
            "frame_time_seconds": _histogram_percentiles(registry, "frame_time_seconds"),
        },
        "metrics": registry.snapshot(),
        "trace": {
            **tracer.drop_stats(),
            "total_bytes": summary.total_bytes,
            "ledger_agrees": (
                tracer.n_dropped == 0
                and float(summary.total_bytes) == float(result.extras["bytes_moved"])
            ),
        },
        "phases": profiler.report(),
    }
    # Forensics + per-frame latency attribution (informational: the
    # comparison allowlist never reads this section).  The regret is the
    # demand stream's actual fast-level misses vs the Belady offline bound
    # over the same keys and capacity; a warm importance preload can make
    # it negative (see repro.storage.forensics), so it is reported raw.
    attribution = attribute_run(
        tracer.events(), result.steps, drop_stats=tracer.drop_stats()
    )
    capacity = hierarchy.fastest.capacity
    actual_misses = hierarchy.fastest.stats.misses
    belady_misses = optimal_miss_count(
        [int(k) for k in context.demand_trace()], capacity
    )
    doc = attribution.as_dict(include_frames=True)
    doc["forensics"] = lineage.as_dict()
    doc["regret"] = {
        "policy": policy,
        "fast_capacity": capacity,
        "actual_fast_misses": int(actual_misses),
        "belady_misses": int(belady_misses),
        "regret": int(actual_misses) - int(belady_misses),
    }
    run["attribution"] = doc
    if injector is not None:
        # Gated on the injector so fault-free snapshots stay byte-identical
        # to pre-faults baselines.
        run["faults"] = {
            "profile": config.faults,
            "seed": config.fault_seed,
            "derived_seed": derived_seed,
            "stats": injector.stats.as_dict(),
            "trace": {
                "faults": summary.total_faults,
                "retries": summary.total_retries,
                "degraded": summary.total_degraded,
                "fault_time_s": summary.fault_time_s,
            },
        }
    return run


register_cell_runner("bench-cell", _bench_cell)


def run_bench(
    spec: Optional[MatrixSpec] = None,
    label: str = "local",
    quick: bool = False,
    progress=None,
    workers: int = 1,
    profile_path: Optional[PathLike] = None,
    faults: Optional[str] = None,
    fault_seed: Optional[int] = None,
) -> Dict[str, object]:
    """Run the default tier's spec; returns the JSON-ready snapshot document.

    ``spec`` defaults to the bundled ``bench`` spec (``bench-quick`` when
    ``quick``); ``quick`` also shrinks the multi-tenant scenario.
    ``progress`` is an optional ``str -> None`` callback (the CLI passes
    ``print``) invoked before each phase.  ``workers > 1`` runs the cells
    in that many worker processes (capped at the cell count); every
    simulated metric is identical to a serial run.  ``profile_path``, when
    given, re-runs the :data:`PROFILE_CELL` with a span timeline kept and
    writes a Chrome-trace JSON there.

    ``faults``/``fault_seed`` (when not None) override the spec's fault
    profile: each cell then runs with a seeded
    :class:`~repro.faults.FaultInjector` installed on its hierarchy, and
    every run grows a ``faults`` section (injector stats + trace fault
    totals).  The default (``"none"``) keeps fault-free snapshots
    byte-identical to pre-faults baselines.  The snapshot records the
    spec with the override applied.
    """
    if spec is None:
        spec = tier_spec("default", quick)
    if faults is not None and faults not in FAULT_PROFILES:
        raise ValueError(
            f"unknown fault profile {faults!r}; expected one of {FAULT_PROFILES}"
        )
    overrides = {
        name: value
        for name, value in (("faults", faults), ("fault_seed", fault_seed))
        if value is not None
    }
    if overrides:
        spec = replace(spec, base={**spec.base, **overrides})
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()
    cells = expand_cells(spec)
    config = cells[0].config

    suite_profiler = PhaseProfiler()
    with suite_profiler.span("bench"):
        notify(f"setup: {config.dataset}, ~{config.blocks} blocks, {config.steps} steps")
        with suite_profiler.span("setup"):
            setup = setup_for(config, spec.setup)

        runs: Dict[str, Dict[str, object]] = {}
        n_workers = min(workers, len(cells))
        if n_workers > 1:
            notify(f"runs: {len(cells)} cells on {n_workers} workers")
            with suite_profiler.span("runs"):
                runs = execute_cells(
                    cells, spec.runner, spec.setup, workers=n_workers, progress=notify
                )
        else:
            notify("building T_visible / T_important tables")
            with suite_profiler.span("table_build"):
                setup.importance_table  # noqa: B018 - builds and caches
                setup.visible_table  # noqa: B018 - builds and caches
            for cell in cells:
                notify(f"run: {cell.key}")
                with suite_profiler.span(f"run {cell.key.replace('/', ':')}"):
                    runs[cell.key] = run_matrix_cell(cell, spec)

        # The multi-tenant serving scenario: a pinned 8-session
        # orbit/zoom/flythrough mix over one shared hierarchy with equal
        # tenant quotas, capped so the DRAM level can hold at least one
        # block per tenant on the tiniest configs.  Every number in it is
        # simulated-clock derived, so per-tenant tail latencies and the
        # fairness gauge gate the same way the single-stream cells do.
        from repro.experiments.loadgen import LoadGenConfig, run_load

        dram_capacity = max(
            1, int(round(setup.grid.n_blocks * config.cache_ratio**2))
        )
        n_sessions = min(4 if quick else 8, dram_capacity)
        notify(f"multi-tenant: {n_sessions}-session mixed serve scenario")
        with suite_profiler.span("multi_tenant"):
            serve_doc = run_load(
                LoadGenConfig(
                    n_sessions=n_sessions,
                    steps=6 if quick else 12,
                    blocks=config.blocks,
                    scale=config.scale,
                    cache_ratio=config.cache_ratio,
                    seed=config.seed,
                ),
                attribution=True,
            )
        multi_tenant = {
            "config": serve_doc["config"],
            "workloads": serve_doc["workloads"],
            **serve_doc["multi_tenant"],
        }

    doc: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "label": label,
        "quick": quick,
        "workers": n_workers,
        "spec": spec.to_dict(),
        "runs": runs,
        "multi_tenant": multi_tenant,
        "suite_wall_s": time.perf_counter() - t0,  # informational; never compared
        "phases": suite_profiler.report(),
    }

    if profile_path is not None:
        notify(f"profile: re-running {PROFILE_CELL} with span timeline")
        run_profiler = PhaseProfiler(keep_timeline=True)
        _bench_cell(profile_cell(cells, spec), spec.setup, profiler=run_profiler)
        out = run_profiler.write_chrome_trace(profile_path)
        doc["profile"] = {"cell": PROFILE_CELL, "path": str(out)}

    return doc
