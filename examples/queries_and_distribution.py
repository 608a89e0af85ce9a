#!/usr/bin/env python
"""Value queries and importance-aware parallel distribution.

Two extensions built on the paper's machinery (the query-based
visualization its §III-A motivates, plus its §VI future work):

1. **Query-based visualization** — "where is heavy smoke inside the
   typhoon?" evaluated through a block min/max index, composed with the
   current visible set (view-dependent ∩ data-dependent selection).
2. **Importance-aware distribution** — partition the blocks across render
   nodes balancing entropy (greedy LPT) vs conventional spatial slabs.

Run:  python examples/queries_and_distribution.py
"""

import numpy as np

from repro import BlockGrid, RangeQuery, Volume, spherical_path, visible_blocks
from repro.cluster import ShardMap
from repro.importance.entropy import block_entropies
from repro.render.query import BlockRangeIndex, evaluate_query
from repro.volume.synthetic import climate_field

VIEW = 10.0


def main() -> None:
    volume = Volume(
        climate_field((48, 40, 16), n_variables=4, seed=11),
        name="climate", primary="smoke_pm10",
    )
    grid = BlockGrid(volume.shape, (8, 8, 8))
    print(f"climate dataset: {volume.shape}, {grid.n_blocks} blocks\n")

    # -- 1. query-based visualization --------------------------------------------
    index = BlockRangeIndex.build(volume, grid)
    query = RangeQuery({"smoke_pm10": (0.45, 1.0), "typhoon": (0.25, 1.0)})
    print(f"query {dict(query.intervals)}:")
    print(f"  index selectivity: {index.selectivity(query):.1%} of blocks are candidates")

    path = spherical_path(n_positions=1, degrees_per_step=4.0, distance=2.5,
                          view_angle_deg=VIEW, seed=11)
    visible = visible_blocks(path.positions[0], grid, VIEW)
    ids, counts = evaluate_query(volume, grid, query, index, restrict_to=visible)
    print(f"  within the current view ({len(visible)} visible blocks): "
          f"{len(ids)} blocks actually match, {int(counts.sum())} voxels")
    if len(ids):
        top = ids[np.argmax(counts)]
        print(f"  densest matching block: id {int(top)} "
              f"({int(counts.max())} matching voxels)\n")

    # -- 2. importance-aware distribution ---------------------------------------
    scores = block_entropies(volume, grid)
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
