"""Parallel Step 1 preprocessing.

Building ``T_visible`` is embarrassingly parallel over sample positions.
Workers each run the shared kernel
(:func:`repro.tables.builder.compute_sample_sets`) on a contiguous slice
of the sample indices with the *same* per-sample RNG list, so the parallel
table is bit-identical to the serial one (tested).  Threads suffice: the
visibility kernel spends its time in numpy ufuncs, which release the GIL.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from typing import Optional

from repro.camera.sampling import SamplingConfig, sample_positions
from repro.tables.builder import SampleSets, compute_sample_sets
from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import VisibleTable
from repro.utils.rng import SeedLike, spawn_rngs
from repro.volume.blocks import BlockGrid

__all__ = ["build_visible_table_parallel"]


def build_visible_table_parallel(
    grid: BlockGrid,
    sampling: SamplingConfig,
    view_angle_deg: float,
    n_workers: int = 4,
    cache_ratio: float = 0.5,
    fixed_radius: Optional[float] = None,
    n_vicinal: int = 8,
    importance: Optional[ImportanceTable] = None,
    max_set_size: Optional[int] = None,
    seed: SeedLike = 0,
    include_center: bool = True,
) -> VisibleTable:
    """Drop-in parallel variant of :func:`repro.tables.builder.build_visible_table`."""
    if n_workers < 1:
        raise ValueError(f"n_workers must be >= 1, got {n_workers}")
    positions = sample_positions(sampling)
    n_samples = positions.shape[0]
    rngs = spawn_rngs(seed, n_samples)

    kwargs = dict(
        cache_ratio=cache_ratio,
        fixed_radius=fixed_radius,
        n_vicinal=n_vicinal,
        importance=importance,
        max_set_size=max_set_size,
        include_center=include_center,
    )

    n_workers = min(n_workers, n_samples)
    bounds = [round(w * n_samples / n_workers) for w in range(n_workers + 1)]
    chunks = [range(bounds[w], bounds[w + 1]) for w in range(n_workers)]

    if n_workers == 1:
        all_sets = compute_sample_sets(
            grid, positions, chunks[0], rngs, view_angle_deg, **kwargs
        )
    else:
        with ThreadPoolExecutor(max_workers=n_workers, thread_name_prefix="tvis") as pool:
            futures = [
                pool.submit(
                    compute_sample_sets,
                    grid, positions, chunk, rngs, view_angle_deg, **kwargs,
                )
                for chunk in chunks
            ]
            # CSR-packed partitions joined in submission (index) order.
            all_sets = SampleSets.concat([f.result() for f in futures])

    meta = {
        "view_angle_deg": float(view_angle_deg),
        "cache_ratio": float(cache_ratio),
        "fixed_radius": None if fixed_radius is None else float(fixed_radius),
        "n_vicinal": int(n_vicinal),
        "n_blocks": int(grid.n_blocks),
        "scheme": sampling.scheme,
        "n_workers": int(n_workers),
    }
    return VisibleTable.from_sets(positions, all_sets, meta)
