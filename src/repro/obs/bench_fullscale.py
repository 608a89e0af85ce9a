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

The tier is its spec's ``fullscale-cell`` runner, registered here with a
suite hook that builds and times ``T_important`` and ``T_visible``
before the cells and samples peak RSS after them (``suite.fullscale``).

Wall-clock metrics are machine-dependent: the gate in
:mod:`repro.experiments.gating` compares them with a widened threshold
(:data:`~repro.experiments.gating.WALL_THRESHOLD_FACTOR` × the sim
threshold), so same-machine CI catches multi-x slowdowns without flaking
on scheduler noise, while the simulated metrics in the same snapshot
still gate bit-exactly.

Cells are deliberately lightweight compared to the default tier: no
tracer, no metrics registry, no eviction forensics and no per-frame
attribution — those are diagnostic features with their own costs, and
this tier measures the untraced production replay path.
"""

from __future__ import annotations

import resource
import time
from typing import Any, Callable, Dict, List, Mapping, Optional

from repro.experiments.matrix import (
    MatrixCell,
    MatrixSpec,
    _context_for,
    register_cell_runner,
    setup_for,
)
from repro.obs.profiler import PhaseProfiler
from repro.runtime.drivers import run_baseline
from repro.tables.builder import build_importance_table, build_visible_table

__all__: List[str] = []


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

    The tables are built (or reused from the suite's timed build) before
    the replay timer starts, so ``wall_s`` is the replay alone.
    """
    config = cell.config
    setup = setup_for(config, extras)
    setup.visible_table  # noqa: B018 - built outside the replay timer
    context = _context_for(setup, config, extras)
    if profiler is None:
        profiler = PhaseProfiler()
    hierarchy = setup.hierarchy("lru" if config.policy == "app-aware" else config.policy)
    t0 = time.perf_counter()
    with profiler.span("replay"):
        if config.policy == "app-aware":
            result = setup.optimizer().run(context, hierarchy, profiler=profiler)
        else:
            result = run_baseline(context, hierarchy, profiler=profiler)
    wall = time.perf_counter() - t0
    return {
        "wall_s": wall,
        "per_step_wall_s": wall / max(1, config.steps),
        "summary": result.summary(),
        "hierarchy_stats": result.hierarchy_stats.as_dict(),
        "phases": profiler.report(),
    }


def _fullscale_suite(
    spec: MatrixSpec,
    cells: List[MatrixCell],
    run_cells: Callable[[], Dict[str, Dict[str, object]]],
    notify: Callable[[str], None],
):
    """Timed ``T_important``/``T_visible`` builds, the cells, peak RSS.

    The builds run in this process; with ``workers > 1`` each worker
    builds its own tables untimed, and ``peak_rss_bytes`` is this
    process's alone.
    """
    config = cells[0].config
    notify(
        f"setup: {config.dataset} scale={config.scale}, "
        f"~{config.blocks} blocks, {config.steps} steps"
    )
    setup = setup_for(config, spec.setup)

    notify("building T_important")
    t0 = time.perf_counter()
    setup._itable = build_importance_table(setup.volume, setup.grid)
    importance_wall_s = time.perf_counter() - t0

    n_samples = setup.sampling.n_directions * setup.sampling.n_distances
    notify(f"building T_visible ({n_samples} samples)")
    t0 = time.perf_counter()
    setup._vtable = build_visible_table(
        setup.grid, setup.sampling, setup.view_angle_deg,
        cache_ratio=config.cache_ratio,
        importance=setup.importance_table,
        seed=config.seed,
    )
    table_build_wall_s = time.perf_counter() - t0

    runs = run_cells()
    vtable = setup.visible_table
    sizes = vtable.entry_sizes()
    return runs, {
        "fullscale": {
            "n_blocks": int(setup.grid.n_blocks),
            "volume_voxels": int(setup.volume.n_voxels),
            "n_samples": int(vtable.n_entries),
            "mean_set_size": float(sizes.mean()) if sizes.size else 0.0,
            "importance_wall_s": importance_wall_s,
            "table_build_wall_s": table_build_wall_s,
            "peak_rss_bytes": _peak_rss_bytes(),
        },
    }


register_cell_runner(
    "fullscale-cell", _fullscale_cell, suite=_fullscale_suite, profiled=True
)
