"""The ``repro bench --tier fullscale`` wall-clock tier.

The default bench tier gates *simulated*-clock metrics, which are
byte-identical across machines but say nothing about how fast the code
itself runs.  This tier runs paper-scale geometry (Table I block counts:
``scale=0.5`` grids of ~16k blocks in the bundled ``fullscale`` spec,
hundreds of path steps) and records the raw-speed numbers — table-build
wall time, per-step replay wall time, and peak RSS — alongside the usual
simulated summary, so raw performance becomes a tracked, ratcheting
number.  ``--quick`` runs the ``fullscale-smoke`` spec: a quarter-scale
grid and short paths, same shape, a few minutes end-to-end.

Wall-clock metrics are machine-dependent: the gate in
:mod:`repro.experiments.gating` compares them with a widened threshold
(:data:`~repro.experiments.gating.WALL_THRESHOLD_FACTOR` × the sim
threshold), so same-machine CI catches multi-x slowdowns without flaking
on scheduler noise, while the simulated metrics in the same snapshot
still gate bit-exactly.

Cells are deliberately lightweight compared to the default tier: no
eviction forensics, no per-frame attribution, and aggregated trace
roll-ups — those are diagnostic features with their own costs, and this
tier measures the production replay path.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Dict, Mapping, Optional

from repro.experiments.gating import BENCH_SCHEMA_VERSION
from repro.experiments.matrix import (
    MatrixCell,
    MatrixSpec,
    _context_for,
    expand_cells,
    register_cell_runner,
    run_matrix_cell,
    setup_for,
)
from repro.obs.bench import PROFILE_CELL, profile_cell, tier_spec
from repro.obs.metrics import MetricsRegistry
from repro.obs.profiler import PhaseProfiler
from repro.parallel.preprocess import build_visible_table_parallel
from repro.runtime.drivers import run_baseline
from repro.tables.builder import build_importance_table, build_visible_table
from repro.trace import Tracer

__all__ = ["run_fullscale"]


def _peak_rss_bytes() -> int:
    # ru_maxrss is KiB on Linux (bytes on macOS, where this tier is not
    # gated); monotone over the process lifetime, sampled at suite end.
    return int(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) * 1024


def _fullscale_cell(
    cell: MatrixCell,
    extras: Mapping[str, Any],
    profiler: Optional[PhaseProfiler] = None,
) -> Dict[str, object]:
    """One lightweight (path, policy) cell: summary + wall timings only.

    Standalone (``repro matrix run``), the cell builds its tables lazily
    (serial, untimed); under :func:`run_fullscale` they are already built
    by its timed preamble.
    """
    config = cell.config
    setup = setup_for(config, extras)
    if setup._vtable is None:
        setup._vtable = build_visible_table(
            setup.grid, setup.sampling, setup.view_angle_deg,
            cache_ratio=config.cache_ratio,
            importance=setup.importance_table,
            seed=config.seed,
        )
    context = _context_for(setup, config, extras)
    registry = MetricsRegistry()
    tracer = Tracer(capacity=int(extras.get("tracer_capacity", 500_000)))
    if profiler is None:
        profiler = PhaseProfiler(tracer=tracer)
    hierarchy = setup.hierarchy("lru" if config.policy == "app-aware" else config.policy)
    # Aggregated roll-ups bound the event count at fullscale step counts;
    # the forensic per-block stream is the default tier's job.
    hierarchy.aggregate_trace = True
    t0 = time.perf_counter()
    with profiler.span("replay"):
        if config.policy == "app-aware":
            result = setup.optimizer().run(
                context, hierarchy, tracer=tracer, registry=registry, profiler=profiler
            )
        else:
            result = run_baseline(
                context, hierarchy, tracer=tracer, registry=registry, profiler=profiler
            )
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "per_step_wall_s": wall / max(1, config.steps),
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "phases": profiler.report(),
    }


register_cell_runner("fullscale-cell", _fullscale_cell)


def run_fullscale(
    spec: Optional[MatrixSpec] = None,
    label: str = "fullscale",
    quick: bool = False,
    progress=None,
    workers: int = 1,
    profile_path=None,
) -> Dict[str, object]:
    """Run the fullscale tier; returns the JSON-ready snapshot document.

    ``spec`` defaults to the bundled ``fullscale`` spec
    (``fullscale-smoke`` when ``quick``).  A timed preamble builds
    ``T_important`` and ``T_visible`` (over ``workers`` processes when
    ``workers > 1``); the cells then run through
    the ``fullscale-cell`` runner.  The document shares the bench schema
    and adds ``"tier": "fullscale"`` plus a ``fullscale`` section of
    wall-clock build metrics, which the gate compares — at the widened
    wall threshold — only on fullscale-tier snapshots.
    """
    if spec is None:
        spec = tier_spec("fullscale", quick)
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()
    cells = expand_cells(spec)
    config = cells[0].config

    notify(
        f"setup: {config.dataset} scale={config.scale}, "
        f"~{config.blocks} blocks, {config.steps} steps"
    )
    setup = setup_for(config, spec.setup)

    notify("building T_important")
    t_imp = time.perf_counter()
    setup._itable = build_importance_table(setup.volume, setup.grid)
    importance_wall_s = time.perf_counter() - t_imp

    n_samples = setup.sampling.n_directions * setup.sampling.n_distances
    notify(f"building T_visible ({n_samples} samples, workers={workers})")
    t_tab = time.perf_counter()
    build_kwargs = dict(
        cache_ratio=config.cache_ratio,
        importance=setup.importance_table,
        seed=config.seed,
    )
    if workers > 1:
        setup._vtable = build_visible_table_parallel(
            setup.grid, setup.sampling, setup.view_angle_deg,
            n_workers=workers, **build_kwargs,
        )
    else:
        setup._vtable = build_visible_table(
            setup.grid, setup.sampling, setup.view_angle_deg, **build_kwargs
        )
    table_build_wall_s = time.perf_counter() - t_tab

    runs: Dict[str, Dict[str, object]] = {}
    for cell in cells:
        notify(f"run: {cell.key}")
        runs[cell.key] = run_matrix_cell(cell, spec)

    vtable = setup.visible_table
    sizes = vtable.entry_sizes()
    doc: Dict[str, object] = {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "fullscale",
        "label": label,
        "quick": quick,
        "workers": int(workers),
        "spec": spec.to_dict(),
        "fullscale": {
            "n_blocks": int(setup.grid.n_blocks),
            "volume_voxels": int(setup.volume.n_voxels),
            "n_samples": int(vtable.n_entries),
            "mean_set_size": float(sizes.mean()) if sizes.size else 0.0,
            "importance_wall_s": importance_wall_s,
            "table_build_wall_s": table_build_wall_s,
            "peak_rss_bytes": _peak_rss_bytes(),
        },
        "runs": runs,
        "suite_wall_s": time.perf_counter() - t0,
    }

    if profile_path is not None:
        notify(f"profile: re-running {PROFILE_CELL} with span timeline")
        run_profiler = PhaseProfiler(keep_timeline=True)
        _fullscale_cell(profile_cell(cells, spec), spec.setup, profiler=run_profiler)
        out = run_profiler.write_chrome_trace(profile_path)
        doc["profile"] = {"cell": PROFILE_CELL, "path": str(out)}
    return doc
