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
from typing import List, Optional, Tuple

import numpy as np

from repro.cluster.hierarchy import ShardedHierarchy
from repro.core.pipeline import PipelineContext

__all__ = ["SortLastResult", "run_sort_last"]


@dataclass
class SortLastResult:
    """Per-node and per-frame accounting of a sort-last replay.

    ``alive`` names the nodes that rendered (every node unless some were
    failed); a dead node's ``node_busy_s`` stays 0 and it counts in no
    balance figure.
    """

    name: str
    n_nodes: int
    frame_times_s: List[float] = field(default_factory=list)
    node_busy_s: List[float] = field(default_factory=list)  # per node, total
    alive: Optional[Tuple[int, ...]] = None

    @property
    def _alive_busy(self) -> np.ndarray:
        busy = np.asarray(self.node_busy_s, dtype=np.float64)
        return busy if self.alive is None else busy[list(self.alive)]

    @property
    def total_time_s(self) -> float:
        """Sum of frame times (each frame waits for its slowest node)."""
        return float(sum(self.frame_times_s))

    @property
    def ideal_time_s(self) -> float:
        """Perfectly balanced lower bound: total work / alive nodes."""
        busy = self._alive_busy
        return float(sum(self.node_busy_s)) / busy.size if busy.size else 0.0

    @property
    def parallel_efficiency(self) -> float:
        """ideal / actual — 1.0 means the barrier never waited."""
        total = self.total_time_s
        return self.ideal_time_s / total if total > 0 else 1.0

    @property
    def load_imbalance(self) -> float:
        """max alive-node busy time / mean alive-node busy time."""
        busy = self._alive_busy
        mean = busy.mean() if busy.size else 0.0
        return float(busy.max() / mean) if mean > 0 else 1.0


def run_sort_last(
    context: PipelineContext, hierarchy: ShardedHierarchy, name: str = "sort-last"
) -> SortLastResult:
    """Replay a camera path on every alive node of ``hierarchy`` in parallel.

    Per view, each alive node (``hierarchy.shard_map.alive``) demand-fetches
    the visible blocks it owns through its own hierarchy (current-step
    protection, as the serial protected baseline) and renders them; the
    frame costs ``max_over_alive_nodes(fetch + render of the node's visible
    share)``.  A dead node owns nothing and renders nothing.  No block
    crosses the network: a node only ever touches what it owns.
    """
    shard_map = hierarchy.shard_map
    owner = shard_map.owner
    if owner.size != context.grid.n_blocks:
        raise ValueError(
            f"the shard map covers {owner.size} blocks, the grid has "
            f"{context.grid.n_blocks}"
        )
    nodes = hierarchy.nodes
    alive = tuple(shard_map.alive)
    result = SortLastResult(
        name=name, n_nodes=len(nodes), node_busy_s=[0.0] * len(nodes), alive=alive
    )
    for i, ids in enumerate(context.visible_sets):
        owners = owner[ids]
        frame = 0.0
        for k in alive:
            mine = ids[owners == k]
            io = nodes[k].fetch_many(mine, i, min_free_step=i).time_s
            node_time = io + context.render_model.render_time(len(mine))
            result.node_busy_s[k] += node_time
            frame = max(frame, node_time)
        result.frame_times_s.append(frame)
    return result
