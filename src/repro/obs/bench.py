"""The default bench tier: the ``bench-cell`` runner and its suite.

Every bench tier is a bundled matrix spec (:data:`TIER_SPECS`), and
``repro bench [--tier T] [--quick]`` is a spelling of
:func:`repro.experiments.matrix.run_matrix` over it: the document is a
``MATRIX_<label>.json`` like every other snapshot.  The default tier
runs a pinned suite — two camera paths (an orbit and a zoom) × two
policies (the LRU baseline and the paper's app-aware optimizer) on one
synthetic dataset — through the ``bench-cell`` runner registered here,
with the metrics registry, event tracer, and phase profiler all attached.
Everything the gate looks at is *simulated*-clock derived, so two
snapshots of the same code are bit-identical regardless of the machine;
the per-cell wall-clock fields (``wall_s``, the ``phases`` wall spans)
ride along for human inspection but are never compared.

Each cell carries exact per-block trace emission, eviction forensics
(:class:`~repro.storage.forensics.EvictionLineage`) and the per-frame
latency attribution of :mod:`repro.obs.attribution` in its
informational ``attribution`` section.  The runner's suite hook adds the
spec's ``[setup] multi_tenant`` serving scenario as ``suite.multi_tenant``.
"""

from __future__ import annotations

import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments.matrix import (
    MatrixCell,
    MatrixSpec,
    _context_for,
    load_spec,
    register_cell_runner,
    setup_for,
)
from repro.faults import FaultInjector, FaultPlan
from repro.obs.attribution import attribute_run
from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.runtime.drivers import run_baseline
from repro.storage.forensics import EvictionLineage, optimal_miss_count
from repro.trace import Tracer, aggregate
from repro.utils.rng import derive_seed

__all__ = ["TIER_SPECS", "tier_spec"]

#: ``repro bench --tier`` -> (bundled spec, bundled ``--quick`` spec).
TIER_SPECS = {
    "default": ("bench", "bench-quick"),
    "cluster": ("cluster", "cluster-smoke"),
    "fullscale": ("fullscale", "fullscale-smoke"),
}


def tier_spec(tier: str, quick: bool = False) -> MatrixSpec:
    """The bundled spec of a bench tier (its ``--quick`` twin if asked)."""
    full, smoke = TIER_SPECS[tier]
    return load_spec(smoke if quick else full)


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
        tracer.columns_since(0), result.steps, drop_stats=tracer.drop_stats()
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


def _bench_suite(
    spec: MatrixSpec,
    cells: List[MatrixCell],
    run_cells: Callable[[], Dict[str, Dict[str, object]]],
    notify: Callable[[str], None],
):
    """The cells, then the ``[setup] multi_tenant`` serving scenario.

    A pinned orbit/zoom/flythrough mix over one shared hierarchy with
    equal tenant quotas (:func:`~repro.experiments.loadgen.run_load`
    with attribution, ``LoadGenConfig`` defaults otherwise), capped so
    the DRAM level can hold at least one block per tenant on the tiniest
    configs.  Every number in it is simulated-clock derived, so per-tenant
    tail latencies and the fairness gauge gate the same way the cells do.
    A spec without the key gets no suite section.
    """
    from repro.experiments.loadgen import LoadGenConfig, run_load

    runs = run_cells()
    scenario = spec.setup.get("multi_tenant")
    if scenario is None:
        return runs, {}
    config = cells[0].config
    grid = setup_for(config, spec.setup).grid
    dram_capacity = max(1, int(round(grid.n_blocks * config.cache_ratio**2)))
    n_sessions = min(scenario["sessions"], dram_capacity)
    notify(f"multi-tenant: {n_sessions}-session mixed serve scenario")
    serve_doc = run_load(
        LoadGenConfig(
            n_sessions=n_sessions,
            steps=scenario["steps"],
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
    return runs, {"multi_tenant": multi_tenant}


register_cell_runner("bench-cell", _bench_cell, suite=_bench_suite, profiled=True)
