"""An interactive out-of-core session: the adoptable front door.

Everything else in :mod:`repro.core` replays *recorded* paths for
experiments.  :class:`OutOfCoreSession` is the API an application embeds:
feed it camera positions one at a time, get back the voxel blocks for the
current view — with real, bounded memory use.  The simulated hierarchy
makes the placement decisions (Algorithm 1: protected eviction, importance
preload, table prefetch), and the session keeps its in-RAM block payloads
exactly mirroring the fastest level's residency, so evictions actually
release memory.

>>> session = OutOfCoreSession(store, vtable, itable, hierarchy)
>>> blocks = session.view(np.array([2.5, 0.0, 0.0]))   # {block_id: voxels}
>>> session.stats().total_miss_rate
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.camera.frustum import visible_blocks
from repro.core.metrics import StepMetrics
from repro.storage.hierarchy import MemoryHierarchy
from repro.storage.stats import HierarchyStats
from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import LookupCostModel, VisibleTable
from repro.volume.store import BlockStore

__all__ = ["OutOfCoreSession"]


class OutOfCoreSession:
    """Interactive viewer state over a block store and the paper's tables.

    Parameters
    ----------
    store:
        Source of real block payloads (file-backed or in-memory).
    visible_table, importance_table:
        The Step 1-2 preprocessing products.  ``visible_table=None``
        disables prefetch; ``importance_table=None`` disables the preload
        and the σ filter.
    hierarchy:
        The placement simulator; its fastest level bounds how many block
        payloads this session keeps in RAM.
    view_angle_deg:
        Frustum opening angle for visibility.
    sigma:
        Importance threshold (defaults to the table's median score).
    """

    def __init__(
        self,
        store: BlockStore,
        visible_table: Optional[VisibleTable],
        importance_table: Optional[ImportanceTable],
        hierarchy: MemoryHierarchy,
        view_angle_deg: float = 10.0,
        sigma: Optional[float] = None,
        lookup_cost: Optional[LookupCostModel] = None,
        preload: bool = True,
    ) -> None:
        self.store = store
        self.grid = store.grid
        self.visible_table = visible_table
        self.importance_table = importance_table
        self.hierarchy = hierarchy
        self.view_angle_deg = float(view_angle_deg)
        self.lookup_cost = lookup_cost or LookupCostModel()
        if sigma is None and importance_table is not None:
            sigma = importance_table.threshold_for_percentile(0.5)
        self.sigma = float(sigma) if sigma is not None else float("-inf")

        self._blocks: Dict[int, np.ndarray] = {}  # payloads mirroring DRAM
        self._step = 0
        self.history: "list[StepMetrics]" = []

        if preload and importance_table is not None:
            placed = hierarchy.preload(
                [int(b) for b in importance_table.ids_above(self.sigma)]
            )
            # Materialise the preloaded fastest-level payloads.
            for bid in hierarchy.fastest.resident_ids():
                self._blocks[bid] = store.read_block(bid)
            self.preloaded = placed
        else:
            self.preloaded = {}

    # -- the interactive step ---------------------------------------------------

    def view(self, position: np.ndarray) -> Dict[int, np.ndarray]:
        """Advance to a new camera position; return the visible payloads.

        Fetches whatever the view needs (simulated timing, real reads),
        prefetches the predicted next view, and drops payloads the
        hierarchy evicted — RAM use never exceeds the fastest level's
        capacity in blocks.
        """
        position = np.asarray(position, dtype=np.float64)
        i = self._step
        ids = visible_blocks(position, self.grid, self.view_angle_deg)

        misses_before = self.hierarchy.fastest.stats.misses
        io = self.hierarchy.fetch_many(ids, i, min_free_step=i).time_s
        n_misses = self.hierarchy.fastest.stats.misses - misses_before

        lookup_time = 0.0
        prefetch_time = 0.0
        n_prefetched = 0
        if self.visible_table is not None:
            _, predicted = self.visible_table.lookup(position)
            lookup_time = self.lookup_cost.query_time(self.visible_table.n_entries)
            if self.importance_table is not None:
                candidates = self.importance_table.filter_and_rank(predicted, self.sigma)
            else:
                candidates = predicted
            issued, prefetch_time = self.hierarchy.prefetch_many(
                candidates, i, min_free_step=i, max_fetch=self.hierarchy.fastest.capacity
            )
            n_prefetched = len(issued)

        self._sync_payloads()
        self.history.append(
            StepMetrics(
                step=i,
                n_visible=len(ids),
                n_fast_misses=n_misses,
                io_time_s=io,
                lookup_time_s=lookup_time,
                prefetch_time_s=prefetch_time,
                n_prefetched=n_prefetched,
            )
        )
        self._step += 1
        return {int(b): self._blocks[int(b)] for b in ids if int(b) in self._blocks}

    def _sync_payloads(self) -> None:
        """Mirror the fastest level: load new residents, free evicted ones."""
        resident = set(self.hierarchy.fastest.resident_ids())
        for bid in list(self._blocks):
            if bid not in resident:
                del self._blocks[bid]
        for bid in resident:
            if bid not in self._blocks:
                self._blocks[bid] = self.store.read_block(bid)

    # -- introspection --------------------------------------------------------------

    @property
    def n_resident_blocks(self) -> int:
        return len(self._blocks)

    @property
    def resident_nbytes(self) -> int:
        """Actual bytes of payload currently held in RAM."""
        return sum(b.nbytes for b in self._blocks.values())

    def resident_ids(self) -> np.ndarray:
        return np.asarray(sorted(self._blocks), dtype=np.int64)

    def stats(self) -> HierarchyStats:
        return self.hierarchy.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"OutOfCoreSession(step={self._step}, resident={len(self._blocks)}/"
            f"{self.hierarchy.fastest.capacity} blocks, "
            f"{self.resident_nbytes / 1e6:.1f} MB)"
        )
