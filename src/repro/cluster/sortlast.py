"""Sort-last parallel rendering over a sharded hierarchy (§VI future work).

Each node of a :class:`~repro.cluster.hierarchy.ShardedHierarchy` renders
the visible blocks it *owns* (its shard map says which), fetching them
through its own hierarchy, and a compositing barrier joins the partial
images — so the frame time is the **slowest node's** fetch + render time.
The distribution question the paper poses ("data partitioning and
distribution schemes by leveraging data importance") becomes measurable:
a map that balances per-view work across nodes
(:meth:`~repro.cluster.shardmap.ShardMap.by_importance`) beats one that
leaves a node owning the whole hot region (``slab``).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.cluster.hierarchy import ShardedHierarchy
from repro.core.pipeline import PipelineContext

__all__ = ["SortLastResult", "run_sort_last"]


@dataclass
class SortLastResult:
    """Per-node and per-frame accounting of a sort-last replay."""

    name: str
    n_nodes: int
    frame_times_s: List[float] = field(default_factory=list)
    node_busy_s: List[float] = field(default_factory=list)  # per node, total

    @property
    def total_time_s(self) -> float:
        """Sum of frame times (each frame waits for its slowest node)."""
        return float(sum(self.frame_times_s))

    @property
    def ideal_time_s(self) -> float:
        """Perfectly balanced lower bound: total work / n_nodes."""
        return float(sum(self.node_busy_s)) / self.n_nodes if self.n_nodes else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """ideal / actual — 1.0 means the barrier never waited."""
        total = self.total_time_s
        return self.ideal_time_s / total if total > 0 else 1.0

    @property
    def load_imbalance(self) -> float:
        """max node busy time / mean node busy time."""
        busy = np.asarray(self.node_busy_s)
        mean = busy.mean() if busy.size else 0.0
        return float(busy.max() / mean) if mean > 0 else 1.0


def run_sort_last(
    context: PipelineContext, hierarchy: ShardedHierarchy, name: str = "sort-last"
) -> SortLastResult:
    """Replay a camera path on every node of ``hierarchy`` in parallel.

    Per view, each node demand-fetches the visible blocks it owns through
    its own hierarchy (current-step protection, as the serial protected
    baseline) and renders them; the frame costs
    ``max_over_nodes(fetch + render of the node's visible share)``.  No
    block crosses the network: a node only ever touches what it owns.
    """
    owner = hierarchy.shard_map.owner
    if owner.size != context.grid.n_blocks:
        raise ValueError(
            f"the shard map covers {owner.size} blocks, the grid has "
            f"{context.grid.n_blocks}"
        )
    nodes = hierarchy.nodes
    result = SortLastResult(name=name, n_nodes=len(nodes), node_busy_s=[0.0] * len(nodes))
    for i, ids in enumerate(context.visible_sets):
        owners = owner[ids]
        frame = 0.0
        for k, node in enumerate(nodes):
            mine = ids[owners == k]
            io = node.fetch_many(mine, i, min_free_step=i).time_s
            node_time = io + context.render_model.render_time(len(mine))
            result.node_busy_s[k] += node_time
            frame = max(frame, node_time)
        result.frame_times_s.append(frame)
    return result
