"""The exact conservation check over a sharded run's network ledger.

The cluster bench tier is the bundled ``cluster`` spec (``cluster-smoke``
for ``--quick``), run by the ``replay`` runner: one orbit path on a
one-node sharded hierarchy (``orbit/K1``, which delegates wholesale to
the single-box hierarchy), four slab-sharded nodes fault-free
(``orbit/K4``), and the same four nodes under the ``link-partition``
fault profile (``orbit/K4/partition``).  Every sharded cell carries its
:meth:`~repro.cluster.ShardedHierarchy.cluster_ledger` as ``cluster`` and
the :func:`ledger_reconciles` bit CI asserts.
"""

from __future__ import annotations

__all__ = ["ledger_reconciles"]


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
