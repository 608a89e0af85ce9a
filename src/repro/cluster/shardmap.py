"""Block-grid ownership maps for the simulated cluster.

A :class:`ShardMap` assigns every block id of a
:class:`~repro.volume.blocks.BlockGrid` to exactly one of ``n_nodes``
simulated nodes.  Three strategies (:data:`SHARD_STRATEGIES`):

``round-robin``
    ``owner[b] = (b + seed) % K``.  Perfectly balanced, no locality.

``slab``
    Blocks sorted by their coordinate along the longest grid axis (stable,
    id-tiebroken) and split into K equal contiguous slabs.  When the axis
    extent divides K the slabs are plane-aligned, so only the K-1 cut
    planes separate 6-neighbors.

``octree``
    Blocks sorted by Morton (Z-order) code and split into K equal
    contiguous ranges — each range is a union of aligned octree subtrees,
    i.e. a small set of axis-aligned boxes, which keeps 6-neighbors
    co-sharded far more often than round-robin.

and one built from data, :meth:`ShardMap.by_importance` (label
``importance``): greedy LPT over per-block importance scores, the paper's
§VI "distribution schemes by leveraging data importance".  It balances
summed importance and ignores locality; :meth:`ShardMap.load_imbalance`
and :meth:`ShardMap.locality_score` measure that trade-off.

Ownership is a pure function of ``(grid shape, n_nodes, strategy, seed)``
(of the scores, for ``importance``) — no RNG state — so replaying a seed reproduces the map exactly, and
:meth:`reshard_without` (node loss) is likewise deterministic: blocks of
dead nodes are dealt to the surviving nodes by ``block_id % n_alive``
over the ascending alive list, leaving surviving owners untouched.
"""

from __future__ import annotations

import heapq
from typing import Dict, Iterable, Sequence, Tuple

import numpy as np

from repro.volume.blocks import BlockGrid

__all__ = ["SHARD_STRATEGIES", "ShardMap"]

SHARD_STRATEGIES: Tuple[str, ...] = ("round-robin", "slab", "octree")


def _morton_codes(coords: np.ndarray, extents: Sequence[int]) -> np.ndarray:
    """Z-order code per column of a (3, n) integer coordinate array."""
    bits = max(int(e - 1).bit_length() for e in extents)
    code = np.zeros(coords.shape[1], dtype=np.int64)
    for b in range(bits):
        for axis in range(3):
            code |= ((coords[axis] >> b) & 1).astype(np.int64) << (3 * b + (2 - axis))
    return code


class ShardMap:
    """Deterministic block → node ownership for a K-node cluster."""

    def __init__(
        self,
        grid: BlockGrid,
        n_nodes: int,
        strategy: str = "slab",
        seed: int = 0,
        _owner: "np.ndarray | None" = None,
        _alive: "Tuple[int, ...] | None" = None,
    ) -> None:
        if n_nodes < 1:
            raise ValueError(f"n_nodes must be >= 1, got {n_nodes}")
        if _owner is None and strategy not in SHARD_STRATEGIES:
            raise ValueError(
                f"unknown shard strategy {strategy!r}; expected one of {SHARD_STRATEGIES}"
            )
        self.grid = grid
        self.n_nodes = int(n_nodes)
        self.strategy = strategy
        self.seed = int(seed)
        self.alive: Tuple[int, ...] = (
            tuple(range(self.n_nodes)) if _alive is None else tuple(_alive)
        )
        self.owner: np.ndarray = (
            self._build_owner() if _owner is None else np.asarray(_owner, dtype=np.int64)
        )
        if len(self.owner) != grid.n_blocks:
            raise ValueError(
                f"owner array has {len(self.owner)} entries for {grid.n_blocks} blocks"
            )

    # -- construction ----------------------------------------------------------

    @classmethod
    def by_importance(cls, grid: BlockGrid, n_nodes: int, scores) -> "ShardMap":
        """Balance summed importance across nodes (greedy LPT).

        Blocks are placed in descending score order (stable, so ties go
        by id) onto the currently lightest node, ties to the lowest node
        id — the classic 4/3-approximation for makespan, so no node
        carries much more "interesting" data than another.
        """
        scores = np.asarray(scores, dtype=np.float64)
        if scores.shape != (grid.n_blocks,):
            raise ValueError(
                f"scores must have shape ({grid.n_blocks},), got {scores.shape}"
            )
        if not 1 <= n_nodes <= grid.n_blocks:
            raise ValueError(f"{grid.n_blocks} blocks cannot fill {n_nodes} nodes")
        owner = np.empty(grid.n_blocks, dtype=np.int64)
        heap = [(0.0, node) for node in range(n_nodes)]  # (load, node)
        for bid in np.argsort(-scores, kind="stable").tolist():
            load, node = heapq.heappop(heap)
            owner[bid] = node
            heapq.heappush(heap, (load + float(scores[bid]), node))
        return cls(grid, n_nodes, "importance", _owner=owner)

    def _build_owner(self) -> np.ndarray:
        n = self.grid.n_blocks
        k = self.n_nodes
        ids = np.arange(n, dtype=np.int64)
        if k == 1:
            return np.zeros(n, dtype=np.int64)
        if self.strategy == "round-robin":
            return (ids + self.seed) % k
        extents = self.grid.blocks_per_axis
        coords = np.stack(np.unravel_index(ids, extents)).astype(np.int64)
        if self.strategy == "slab":
            axis = int(np.argmax(extents))
            order = np.argsort(coords[axis], kind="stable")
        else:  # octree
            order = np.argsort(_morton_codes(coords, extents), kind="stable")
        owner = np.empty(n, dtype=np.int64)
        for node, chunk in enumerate(np.array_split(order, k)):
            owner[chunk] = node
        return owner

    # -- queries ---------------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        return self.grid.n_blocks

    def owner_of(self, key: int) -> int:
        return int(self.owner[key])

    def counts(self) -> np.ndarray:
        """Blocks owned per node (length ``n_nodes``; dead nodes own 0)."""
        return np.bincount(self.owner, minlength=self.n_nodes)

    def partition(self, ids: np.ndarray) -> Dict[int, np.ndarray]:
        """Split an id array by owner, preserving input order per node."""
        ids = np.asarray(ids, dtype=np.int64)
        owners = self.owner[ids]
        return {
            int(node): ids[owners == node]
            for node in np.unique(owners)
        }

    def load_imbalance(self, scores=None) -> float:
        """Max over mean of the alive nodes' loads; 1.0 is perfect balance.

        A node's load is the summed ``scores`` of its blocks, or its block
        count when ``scores`` is None.  1.0 when every load is zero.
        """
        if scores is not None:
            scores = np.asarray(scores, dtype=np.float64)
            if scores.shape != self.owner.shape:
                raise ValueError(
                    f"scores must have shape {self.owner.shape}, got {scores.shape}"
                )
        loads = np.bincount(self.owner, scores, minlength=self.n_nodes)[list(self.alive)]
        mean = loads.mean()
        return float(loads.max() / mean) if mean > 0 else 1.0

    def locality_score(self) -> float:
        """Fraction of 6-neighbor block pairs owned by the same node.

        Pairs are counted once (along the +axis direction).  1.0 when the
        grid has no neighbor pairs (a single block).
        """
        own3 = self.owner.reshape(self.grid.blocks_per_axis)
        pairs = 0
        same = 0
        for axis in range(3):
            lo = [slice(None)] * 3
            hi = [slice(None)] * 3
            lo[axis] = slice(None, -1)
            hi[axis] = slice(1, None)
            a = own3[tuple(lo)]
            b = own3[tuple(hi)]
            pairs += a.size
            same += int(np.count_nonzero(a == b))
        return same / pairs if pairs else 1.0

    # -- node loss -------------------------------------------------------------

    def reshard_without(self, dead: "int | Iterable[int]") -> "ShardMap":
        """A new map with ``dead`` node(s) removed, surviving owners kept.

        Every block owned by a dead node is reassigned to
        ``alive[block_id % n_alive]`` over the ascending alive list — a
        pure function of the block id and the alive set, so repeated
        failures in any order produce the same final map.  A node id
        outside ``[0, n_nodes)`` raises ``ValueError``.
        """
        dead_set = {int(dead)} if isinstance(dead, (int, np.integer)) else {
            int(d) for d in dead
        }
        outside = sorted(d for d in dead_set if not 0 <= d < self.n_nodes)
        if outside:
            raise ValueError(f"node {outside[0]} is not in [0, {self.n_nodes})")
        alive = tuple(n for n in self.alive if n not in dead_set)
        if not alive:
            raise ValueError("cannot reshard: no nodes left alive")
        if len(alive) == len(self.alive):
            return self
        alive_arr = np.asarray(alive, dtype=np.int64)
        owner = self.owner.copy()
        lost = ~np.isin(owner, alive_arr)
        ids = np.arange(len(owner), dtype=np.int64)
        owner[lost] = alive_arr[ids[lost] % len(alive_arr)]
        return ShardMap(
            self.grid,
            self.n_nodes,
            self.strategy,
            self.seed,
            _owner=owner,
            _alive=alive,
        )

    def as_dict(self) -> Dict[str, object]:
        counts = self.counts()
        return {
            "strategy": self.strategy,
            "n_nodes": self.n_nodes,
            "seed": self.seed,
            "alive": list(self.alive),
            "blocks_per_node": {f"n{i}": int(c) for i, c in enumerate(counts)},
            "locality_score": self.locality_score(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ShardMap({self.strategy!r}, n_nodes={self.n_nodes}, "
            f"n_blocks={self.n_blocks}, alive={len(self.alive)})"
        )
