"""Shared experiment machinery.

:class:`ExperimentSetup` bundles a dataset analogue, block grid, camera
geometry, and preprocessing tables; :func:`compare_policies` replays one
camera path under several conventional policies *and* the app-aware
optimizer against identical demand sequences and fresh hierarchies, which
is the comparison every figure in the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence

from repro.camera.path import CameraPath
from repro.camera.sampling import SamplingConfig
from repro.core.metrics import RunResult
from repro.core.pipeline import PipelineContext
from repro.runtime.config import OptimizerConfig, check_fault_devices
from repro.runtime.context import RunContext
from repro.runtime.drivers import AppAwareOptimizer, run_baseline
from repro.policies.belady import BeladyPolicy
from repro.policies.registry import make_policy
from repro.render.render_model import RenderCostModel
from repro.storage.cache import CacheLevel
from repro.storage.device import DRAM, HDD, SSD
from repro.storage.hierarchy import MemoryHierarchy, make_standard_hierarchy
from repro.tables.builder import build_importance_table, build_visible_table
from repro.tables.importance_table import ImportanceTable
from repro.tables.visible_table import VisibleTable
from repro.utils.rng import SeedLike
from repro.volume.blocks import BlockGrid
from repro.volume.datasets import make_dataset
from repro.volume.volume import Volume

__all__ = [
    "ExperimentSetup",
    "fresh_hierarchy",
    "belady_hierarchy",
    "compare_policies",
    "DEFAULT_VIEW_ANGLE_DEG",
]

# Experiments default to a 10-degree frustum with the camera near d = 2.5:
# the visible working set is then ~8-11% of the blocks, comfortably below
# the DRAM share (25% at cache ratio 0.5) so that predicted + current
# blocks fit in fast memory together — the regime the paper targets
# ("the total size of the predicted and current visible blocks is equal to
# the cache size in faster memory", §IV-B).
DEFAULT_VIEW_ANGLE_DEG = 10.0


def fresh_hierarchy(
    grid: BlockGrid,
    cache_ratio: float = 0.5,
    policy: str = "lru",
    n_variables: int = 1,
) -> MemoryHierarchy:
    """A new DRAM/SSD-over-HDD hierarchy sized for ``grid`` (§V-A ratios)."""
    return make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(n_variables=n_variables),
        cache_ratio=cache_ratio,
        policy=policy,
    )


def belady_hierarchy(
    grid: BlockGrid,
    trace: Sequence[int],
    cache_ratio: float = 0.5,
    n_variables: int = 1,
) -> MemoryHierarchy:
    """Hierarchy with offline Belady-OPT at the fastest level.

    Only the fastest level sees the full (policy-independent) demand trace;
    slower levels fall back to LRU because their access streams depend on
    upper-level evictions.
    """
    block_nbytes = grid.uniform_block_nbytes(n_variables=n_variables)
    n = grid.n_blocks
    ssd_cap = max(1, round(n * cache_ratio))
    dram_cap = max(1, round(n * cache_ratio * cache_ratio))
    levels = [
        CacheLevel("dram", dram_cap, BeladyPolicy(trace), n_blocks=n),
        CacheLevel("ssd", ssd_cap, make_policy("lru"), n_blocks=n),
    ]
    return MemoryHierarchy(levels, [DRAM, SSD], HDD, block_nbytes)


@dataclass
class ExperimentSetup:
    """A dataset analogue with its grid, tables, and replay context factory."""

    volume: Volume
    grid: BlockGrid
    view_angle_deg: float = DEFAULT_VIEW_ANGLE_DEG
    cache_ratio: float = 0.5
    sampling: SamplingConfig = field(default_factory=SamplingConfig)
    render_model: RenderCostModel = field(default_factory=RenderCostModel)
    seed: SeedLike = 0
    _vtable: Optional[VisibleTable] = None
    _itable: Optional[ImportanceTable] = None
    #: Random points per vicinal sphere of ``T_visible``.
    n_vicinal: int = 8
    #: One vicinal radius for every sample; ``None`` lets Eq. 6 pick it.
    fixed_radius: Optional[float] = None

    @classmethod
    def for_dataset(
        cls,
        name: str,
        target_n_blocks: int,
        scale: Optional[float] = None,
        view_angle_deg: float = DEFAULT_VIEW_ANGLE_DEG,
        cache_ratio: float = 0.5,
        sampling: Optional[SamplingConfig] = None,
        seed: SeedLike = 0,
        n_vicinal: int = 8,
        fixed_radius: Optional[float] = None,
    ) -> "ExperimentSetup":
        """Build a setup from a Table I dataset analogue and a block budget."""
        volume = make_dataset(name, scale=scale, seed=seed)
        grid = BlockGrid.with_target_blocks(volume.shape, target_n_blocks)
        return cls(
            volume=volume,
            grid=grid,
            view_angle_deg=view_angle_deg,
            cache_ratio=cache_ratio,
            sampling=sampling or SamplingConfig(),
            seed=seed,
            n_vicinal=n_vicinal,
            fixed_radius=fixed_radius,
        )

    @property
    def importance_table(self) -> ImportanceTable:
        if self._itable is None:
            self._itable = build_importance_table(self.volume, self.grid)
        return self._itable

    @property
    def visible_table(self) -> VisibleTable:
        if self._vtable is None:
            self._vtable = build_visible_table(
                self.grid,
                self.sampling,
                self.view_angle_deg,
                cache_ratio=self.cache_ratio,
                fixed_radius=self.fixed_radius,
                n_vicinal=self.n_vicinal,
                importance=self.importance_table,
                seed=self.seed,
            )
        return self._vtable

    def rebuild_visible_table(self, **kwargs) -> VisibleTable:
        """Rebuild ``T_visible`` with overrides (sampling sweeps, fixed r)."""
        params = dict(
            sampling=self.sampling,
            cache_ratio=self.cache_ratio,
            seed=self.seed,
        )
        params.update(kwargs)
        sampling = params.pop("sampling")
        self._vtable = build_visible_table(
            self.grid,
            sampling,
            self.view_angle_deg,
            importance=self.importance_table,
            **params,
        )
        return self._vtable

    def context(self, path: CameraPath) -> PipelineContext:
        return PipelineContext.create(path, self.grid, self.render_model)

    def hierarchy(
        self,
        policy: str = "lru",
        cache_ratio: Optional[float] = None,
        shards: int = 1,
        shard_map: str = "slab",
    ) -> MemoryHierarchy:
        if shards > 1:
            from repro.cluster import make_sharded_hierarchy

            return make_sharded_hierarchy(
                self.grid,
                shards,
                strategy=shard_map,
                cache_ratio=self.cache_ratio if cache_ratio is None else cache_ratio,
                policy=policy,
            )
        return fresh_hierarchy(
            self.grid,
            cache_ratio=self.cache_ratio if cache_ratio is None else cache_ratio,
            policy=policy,
            n_variables=1,
        )

    def optimizer(self, config: Optional[OptimizerConfig] = None) -> AppAwareOptimizer:
        return AppAwareOptimizer(self.visible_table, self.importance_table, config)


def compare_policies(
    setup: ExperimentSetup,
    path: CameraPath,
    baselines: Sequence[str] = ("fifo", "lru"),
    include_app_aware: bool = True,
    include_belady: bool = False,
    optimizer_config: Optional[OptimizerConfig] = None,
    cache_ratio: Optional[float] = None,
    faults: str = "none",
    fault_seed: int = 0,
    shards: int = 1,
    shard_map: str = "slab",
) -> Dict[str, RunResult]:
    """Replay ``path`` under each policy with identical demand sequences.

    Returns results keyed by policy name (``'opt'`` is the app-aware
    method, matching the paper's figure legends).

    ``faults`` names a profile from :data:`repro.faults.FAULT_PROFILES`;
    anything but ``"none"`` gives every run a fresh seeded
    :class:`~repro.faults.FaultInjector` (via
    :meth:`repro.runtime.RunContext.create`).  The fault draws are
    counter-based over ``(seed, device, block, step, attempt)``, so every
    policy replays against the *same* fault environment — the comparison
    stays apples-to-apples under failure.

    ``shards`` > 1 runs every policy on a K-node
    :class:`~repro.cluster.ShardedHierarchy` (ownership strategy
    ``shard_map``); the Belady run, when requested, stays single-box —
    the offline oracle has no sharded counterpart.  A profile that names
    a single-box device other than ``hdd`` is then rejected, as
    :class:`~repro.runtime.RunConfig` rejects it (see
    :func:`~repro.runtime.config.check_fault_devices`).
    """
    check_fault_devices(faults, shards)

    def _ctx() -> RunContext:
        return RunContext.create(faults=faults, fault_seed=fault_seed)

    # Only thread the shard kwargs through when sharding is requested, so
    # duck-typed setups with the pre-cluster hierarchy() signature keep
    # working for single-box comparisons.
    shard_kwargs = dict(shards=shards, shard_map=shard_map) if shards > 1 else {}

    context = setup.context(path)
    results: Dict[str, RunResult] = {}
    for policy in baselines:
        results[policy] = run_baseline(
            context,
            setup.hierarchy(policy, cache_ratio, **shard_kwargs),
            ctx=_ctx(),
        )
    if include_belady:
        trace = context.demand_trace()
        hierarchy = belady_hierarchy(
            setup.grid,
            trace,
            cache_ratio=setup.cache_ratio if cache_ratio is None else cache_ratio,
        )
        results["belady"] = run_baseline(
            context, hierarchy, name="baseline-belady", ctx=_ctx()
        )
    if include_app_aware:
        optimizer = setup.optimizer(optimizer_config)
        results["opt"] = optimizer.run(
            context,
            setup.hierarchy("lru", cache_ratio, **shard_kwargs),
            ctx=_ctx(),
        )
    return results
