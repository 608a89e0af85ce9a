"""The ``repro bench --tier cluster`` sharded-replay tier.

The default tier gates the single-box replay; this tier pins the
:mod:`repro.cluster` surface: a 4-node :class:`~repro.cluster.ShardedHierarchy`
replaying the orbit path, fault-free and under the pinned
``link-partition`` cluster fault profile.  The snapshot records the
per-route byte split (local / ghost / peer / cold), the per-link network
ledger, and the shard map's locality score — all *simulated*-clock
quantities, byte-identical across machines, so the comparison gates
bit-exactly like the default tier.

Three cells share one orbit context:

- ``orbit/K1`` — a one-node sharded hierarchy, which delegates wholesale
  to the single-box :class:`~repro.storage.hierarchy.MemoryHierarchy`
  (the shard-equivalence suite pins this bit-for-bit);
- ``orbit/K4`` — four slab-sharded nodes, fault-free;
- ``orbit/K4-partition`` — the same four nodes with the home node's
  first peer link partitioned, exercising the cold-store fallback path.

The ``cluster`` section is the partition cell's
:meth:`~repro.cluster.ShardedHierarchy.cluster_ledger` plus
``ledger_reconciles``, the exact conservation check CI asserts:
``bytes_moved == local + ghost + peer + cold`` and
``peer == sum(per-link bytes)``.
"""

from __future__ import annotations

import time
from dataclasses import asdict, dataclass
from typing import Dict, Optional

from repro.experiments.matrix import MatrixSpec, expand_cells, run_matrix_cell
from repro.obs.bench import BENCH_SCHEMA_VERSION

__all__ = ["ClusterConfig", "cluster_matrix_spec", "ledger_reconciles", "run_cluster"]


@dataclass(frozen=True)
class ClusterConfig:
    """Pinned parameters of the cluster tier (recorded into the snapshot)."""

    dataset: str = "3d_ball"
    blocks: int = 256
    scale: float = 0.08
    steps: int = 40
    cache_ratio: float = 0.5
    seed: int = 0
    n_directions: int = 32
    n_distances: int = 1
    degrees_per_step: float = 5.0
    tracer_capacity: int = 500_000
    n_nodes: int = 4
    strategy: str = "slab"
    ghost_ratio: float = 0.05
    #: Cluster fault profile of the partition cell
    #: (see :data:`repro.cluster.CLUSTER_FAULT_PROFILES`).
    faults: str = "link-partition"
    fault_seed: int = 0

    @classmethod
    def smoke(cls) -> "ClusterConfig":
        """The CI `cluster-smoke` variant: same shape, a fraction of the work."""
        return cls(blocks=64, scale=0.04, steps=12, n_directions=16)


def ledger_reconciles(hierarchy) -> bool:
    """Exact (integer ``==``) conservation check over a sharded run.

    Every byte the hierarchy served must appear in exactly one route of the
    split ledger, and every peer byte must be charged to exactly one link:

    - ``bytes_moved`` (``backing_bytes`` + every cache level's
      ``bytes_read``) equals ``local + ghost + peer + cold``;
    - ``peer`` equals the fabric total, which equals the per-link sum.
    """
    ledger = hierarchy.cluster_ledger()
    split = ledger["split_bytes"]
    bytes_moved = hierarchy.backing_bytes + hierarchy.stats().total_bytes_read
    link_bytes = sum(row["bytes"] for row in ledger["links"].values())
    return (
        bytes_moved == sum(split.values())
        and split["peer"] == ledger["peer_bytes"] == link_bytes
    )


def cluster_matrix_spec(config: ClusterConfig) -> MatrixSpec:
    """The cluster tier as a matrix spec.

    Two axes — shard count and fault profile — with the fault-free K1
    combination of the partition profile pruned by a constraint, expand
    to the tier's three pinned cells in run order (``orbit/K1``,
    ``orbit/K<n>``, ``orbit/K<n>/partition``); all three share one orbit
    context through the replay runner's caches, exactly like the legacy
    single-setup loop.  ``force_sharded`` keeps the K1 cell on a one-node
    :class:`~repro.cluster.ShardedHierarchy` (the shard-equivalence
    surface) instead of the plain single-box hierarchy.
    """
    return MatrixSpec(
        label="cluster",
        runner="replay",
        base={
            "dataset": config.dataset,
            "blocks": config.blocks,
            "scale": config.scale,
            "steps": config.steps,
            "cache_ratio": config.cache_ratio,
            "seed": config.seed,
            "workload": "spherical",
            "degrees": (config.degrees_per_step, config.degrees_per_step),
            "distance": 2.5,
            "policy": "lru",
            "fault_seed": config.fault_seed,
            "shard_map": config.strategy,
        },
        axes={
            "shards": (1, config.n_nodes),
            "faults": ("none", config.faults),
        },
        constraints=({"shards": 1, "faults": config.faults},),
        labels={
            "shards": {"1": "K1", str(config.n_nodes): f"K{config.n_nodes}"},
            "faults": {"none": "", config.faults: "partition"},
        },
        key_prefix="orbit",
        setup={
            "n_directions": config.n_directions,
            "n_distances": config.n_distances,
            "tracer_capacity": config.tracer_capacity,
            "ghost_ratio": config.ghost_ratio,
            "force_sharded": True,
        },
        figures=(
            {
                "x": "shards",
                "metric": "total_miss_rate",
                "group_by": "faults",
                "title": "miss rate vs shard count",
            },
        ),
    )


def run_cluster(
    config: Optional[ClusterConfig] = None,
    label: str = "cluster",
    quick: bool = False,
    progress=None,
) -> Dict[str, object]:
    """Run the cluster tier; returns the JSON-ready snapshot document.

    The document shares the bench schema (``write_bench``/``load_bench``/
    ``compare_bench`` all apply) and adds ``"tier": "cluster"`` plus a
    ``cluster`` section — the partition cell's
    :meth:`~repro.cluster.ShardedHierarchy.cluster_ledger` with the
    ``ledger_reconciles`` conservation bit the CI smoke job asserts.
    """
    if config is None:
        config = ClusterConfig.smoke() if quick else ClusterConfig()
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()

    notify(
        f"setup: {config.dataset}, ~{config.blocks} blocks, {config.steps} steps, "
        f"{config.n_nodes} nodes ({config.strategy})"
    )
    # The tier is a committed matrix spec; the replay runner's caches give
    # the three cells one shared setup + orbit context, like the legacy
    # single-setup loop.  The per-cell run dicts are reshaped to the
    # tier's historical layout (n_nodes/faults scalars, no nested ledger)
    # so committed baselines stay byte-identical.
    spec = cluster_matrix_spec(config)
    runs: Dict[str, Dict[str, object]] = {}
    cluster_section = None
    for cell in expand_cells(spec):
        faults = cell.axes["faults"]
        key = cell.key.replace("/partition", "-partition")
        notify(f"run: {key}")
        run = run_matrix_cell(cell, spec)
        ledger = run.pop("cluster")
        run.pop("faults", None)
        run["n_nodes"] = cell.config.shards
        run["faults"] = faults
        runs[key] = run
        if faults != "none":
            cluster_section = ledger
            cluster_section["ledger_reconciles"] = run["ledger_reconciles"]

    assert cluster_section is not None

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "cluster",
        "label": label,
        "quick": quick,
        "config": asdict(config),
        "cluster": cluster_section,
        "runs": runs,
        "suite_wall_s": time.perf_counter() - t0,
    }
