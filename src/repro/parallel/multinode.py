"""Multi-node parallel rendering simulation (§VI future work, operational).

Sort-last parallel volume rendering: each node *owns* a partition of the
blocks, renders its share of every view, and a compositing barrier joins
the partial images — so the frame time is the **slowest node's** fetch +
render time.  The distribution question the paper poses ("data
partitioning and distribution schemes by leveraging data importance")
becomes measurable: a partition that balances per-view work across nodes
beats one that leaves a node owning the whole hot region.

Each node gets its own cache hierarchy sized for its share; per view, a
node demand-fetches the visible blocks *it owns* and renders them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List

import numpy as np

from repro.core.pipeline import PipelineContext
from repro.storage.hierarchy import MemoryHierarchy, make_standard_hierarchy
from repro.volume.blocks import BlockGrid

__all__ = ["MultiNodeResult", "run_multinode"]


@dataclass
class MultiNodeResult:
    """Per-node and per-frame accounting of a multi-node replay."""

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


def run_multinode(
    context: PipelineContext,
    assignment: np.ndarray,
    n_nodes: int,
    cache_ratio: float = 0.5,
    policy: str = "lru",
    name: str = "multinode",
) -> MultiNodeResult:
    """Replay a camera path across ``n_nodes`` render nodes.

    ``assignment[block_id] = node`` is the ownership map (from
    :func:`repro.parallel.distribution.partition_by_importance` or
    :func:`partition_spatial`).  Each node's hierarchy is sized for its
    own share of the blocks, and each frame costs
    ``max_over_nodes(fetch + render of the node's visible share)``.
    """
    grid: BlockGrid = context.grid
    assignment = np.asarray(assignment, dtype=np.int64)
    if assignment.size != grid.n_blocks:
        raise ValueError(
            f"assignment covers {assignment.size} blocks, grid has {grid.n_blocks}"
        )
    if n_nodes < 1:
        raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
    if assignment.min() < 0 or assignment.max() >= n_nodes:
        raise ValueError("assignment references nodes outside [0, n_nodes)")

    # One hierarchy per node, sized for the node's own share.
    hierarchies: List[MemoryHierarchy] = []
    for node in range(n_nodes):
        owned = int((assignment == node).sum())
        hierarchies.append(
            make_standard_hierarchy(
                n_blocks=max(owned, 1),
                block_nbytes=grid.uniform_block_nbytes(),
                cache_ratio=cache_ratio,
                policy=policy,
            )
        )

    result = MultiNodeResult(name=name, n_nodes=n_nodes,
                             node_busy_s=[0.0] * n_nodes)
    for i, ids in enumerate(context.visible_sets):
        owners = assignment[ids] if len(ids) else np.empty(0, dtype=np.int64)
        frame = 0.0
        for node in range(n_nodes):
            mine = ids[owners == node]
            io = hierarchies[node].fetch_many(mine, i, min_free_step=i).time_s
            render = context.render_model.render_time(len(mine))
            node_time = io + render
            result.node_busy_s[node] += node_time
            frame = max(frame, node_time)
        result.frame_times_s.append(frame)
    return result
