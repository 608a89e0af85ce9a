#!/usr/bin/env python
"""Time-varying exploration, value queries, and parallel distribution.

Three extensions built on the paper's machinery (its §VI future work plus
the query-based visualization its §III-A motivates):

1. **Temporal replay** — the camera orbits a *time-varying* climate
   analogue while simulation time advances; the app-aware prefetcher warms
   the next timestep's predicted blocks during rendering.
2. **Query-based visualization** — "where is heavy smoke inside the
   typhoon?" evaluated through a block min/max index, composed with the
   current visible set (view-dependent ∩ data-dependent selection).
3. **Importance-aware distribution** — partition the blocks across render
   nodes balancing entropy (greedy LPT) vs conventional spatial slabs.

Run:  python examples/temporal_and_queries.py
"""

import numpy as np

from repro import BlockGrid, RangeQuery, SamplingConfig, spherical_path
from repro.cluster import ShardMap
from repro.core.pipeline import PipelineContext, compute_visible_sets
from repro.runtime import run_temporal
from repro.render.query import BlockRangeIndex, evaluate_query
from repro.storage.hierarchy import make_standard_hierarchy
from repro.tables.builder import build_visible_table
from repro.volume.timeseries import make_time_varying_climate

VIEW = 10.0


def main() -> None:
    # -- 1. temporal replay ---------------------------------------------------
    series = make_time_varying_climate(shape=(48, 40, 16), n_timesteps=5, seed=11)
    grid = BlockGrid(series.shape, (8, 8, 8))
    print(f"time-varying dataset: {series.n_timesteps} timesteps of {series.shape}, "
          f"{grid.n_blocks} spatial blocks ({series.n_total_blocks(grid)} temporal)")

    path = spherical_path(n_positions=60, degrees_per_step=4.0, distance=2.5,
                          view_angle_deg=VIEW, seed=11)
    context = PipelineContext.create(path, grid)
    sampling = SamplingConfig(n_directions=64, n_distances=2, distance_range=(2.3, 2.7))
    vtable = build_visible_table(grid, sampling, VIEW, seed=0)
    itable = series.temporal_importance(grid)
    sigma = itable.threshold_for_percentile(0.5)

    def hierarchy():
        return make_standard_hierarchy(
            n_blocks=series.n_total_blocks(grid),
            block_nbytes=grid.uniform_block_nbytes(),
        )

    kwargs = dict(steps_per_timestep=12, visible_table=vtable,
                  importance=itable, sigma=sigma)
    with_pf = run_temporal(context, series, hierarchy(), **kwargs)
    without = run_temporal(context, series, hierarchy(),
                           steps_per_timestep=12, prefetch_next_timestep=False)
    print(f"  temporal prefetch ON : miss {with_pf.total_miss_rate:.3f}, "
          f"total {with_pf.total_time_s:.2f}s")
    print(f"  temporal prefetch OFF: miss {without.total_miss_rate:.3f}, "
          f"total {without.total_time_s:.2f}s")
    boundary = 12  # first step of timestep 1
    print(f"  misses at the first timestep boundary (step {boundary}): "
          f"{with_pf.steps[boundary].n_fast_misses} vs "
          f"{without.steps[boundary].n_fast_misses}\n")

    # -- 2. query-based visualization --------------------------------------------
    snapshot = series[2]
    index = BlockRangeIndex.build(snapshot, grid)
    query = RangeQuery({"smoke_pm10": (0.45, 1.0), "typhoon": (0.25, 1.0)})
    print(f"query {dict(query.intervals)}:")
    print(f"  index selectivity: {index.selectivity(query):.1%} of blocks are candidates")

    visible = compute_visible_sets(path, grid)[0]
    ids, counts = evaluate_query(snapshot, grid, query, index, restrict_to=visible)
    print(f"  within the current view ({len(visible)} visible blocks): "
          f"{len(ids)} blocks actually match, {int(counts.sum())} voxels")
    if len(ids):
        top = ids[np.argmax(counts)]
        print(f"  densest matching block: id {int(top)} "
              f"({int(counts.max())} matching voxels)\n")

    # -- 3. importance-aware distribution ---------------------------------------
    from repro.importance.entropy import block_entropies

    scores = block_entropies(snapshot, grid)
    for n_nodes in (4, 8):
        by_imp = ShardMap.by_importance(grid, n_nodes, scores)
        spatial = ShardMap(grid, n_nodes, "slab")
        print(f"{n_nodes} render nodes: importance-LPT imbalance "
              f"{by_imp.load_imbalance(scores):.3f} "
              f"(locality {by_imp.locality_score():.3f})  "
              f"vs spatial slabs {spatial.load_imbalance(scores):.3f} "
              f"(locality {spatial.locality_score():.3f})")
    print("(LPT trades spatial locality for balanced interactive load)")


if __name__ == "__main__":
    main()
