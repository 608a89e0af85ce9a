"""The ``repro bench --tier cluster`` sharded-replay tier.

The default tier gates the single-box replay; this tier pins the
:mod:`repro.cluster` surface: a 4-node :class:`~repro.cluster.ShardedHierarchy`
replaying the orbit path, fault-free and under the pinned
``link-partition`` cluster fault profile.  The snapshot records the
per-route byte split (local / ghost / peer / cold), the per-link network
ledger, and the shard map's locality score — all *simulated*-clock
quantities, byte-identical across machines, so the comparison gates
bit-exactly like the default tier.

The tier is the bundled ``cluster`` spec (``cluster-smoke`` for
``--quick``), run by the ``replay`` runner.  Two axes — shard count and
fault profile — with the fault-free K1 combination of the partition
profile pruned by a constraint give three cells that share one orbit
context:

- ``orbit/K1`` — a one-node sharded hierarchy (``[setup] force_sharded``),
  which delegates wholesale to the single-box
  :class:`~repro.storage.hierarchy.MemoryHierarchy` (the
  shard-equivalence suite pins this bit-for-bit);
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
from typing import Dict, Optional

from repro.experiments.gating import BENCH_SCHEMA_VERSION
from repro.experiments.matrix import MatrixSpec, expand_cells, run_matrix_cell

__all__ = ["ledger_reconciles", "run_cluster"]


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


def run_cluster(
    spec: Optional[MatrixSpec] = None,
    label: str = "cluster",
    quick: bool = False,
    progress=None,
) -> Dict[str, object]:
    """Run the cluster tier; returns the JSON-ready snapshot document.

    ``spec`` defaults to the bundled ``cluster`` spec (``cluster-smoke``
    when ``quick``).  The document shares the bench schema and adds
    ``"tier": "cluster"`` plus a ``cluster`` section — the last faulted
    cell's :meth:`~repro.cluster.ShardedHierarchy.cluster_ledger` with the
    ``ledger_reconciles`` conservation bit the CI smoke job asserts.  The
    per-cell run dicts keep the tier's layout (``n_nodes``/``faults``
    scalars, no nested ledger, ``-partition`` keys).
    """
    if spec is None:
        from repro.obs.bench import tier_spec

        spec = tier_spec("cluster", quick)
    notify = progress if progress is not None else (lambda msg: None)
    t0 = time.perf_counter()
    cells = expand_cells(spec)
    if all(cell.config.faults == "none" for cell in cells):
        raise ValueError(
            f"cluster spec {spec.label!r} has no faulted cell to take the "
            f"cluster ledger from"
        )
    config = cells[-1].config
    notify(
        f"setup: {config.dataset}, ~{config.blocks} blocks, {config.steps} steps, "
        f"{config.shards} nodes ({config.shard_map})"
    )
    runs: Dict[str, Dict[str, object]] = {}
    cluster_section: Dict[str, object] = {}
    for cell in cells:
        faults = cell.config.faults
        key = cell.key.replace("/partition", "-partition")
        notify(f"run: {key}")
        run = run_matrix_cell(cell, spec)
        ledger = run.pop("cluster")
        run.pop("faults", None)
        run["n_nodes"] = cell.config.shards
        run["faults"] = faults
        runs[key] = run
        if faults != "none":
            cluster_section = {**ledger, "ledger_reconciles": run["ledger_reconciles"]}

    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tier": "cluster",
        "label": label,
        "quick": quick,
        "spec": spec.to_dict(),
        "cluster": cluster_section,
        "runs": runs,
        "suite_wall_s": time.perf_counter() - t0,
    }
