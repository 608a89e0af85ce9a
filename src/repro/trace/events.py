"""Typed trace events for the I/O path.

One :class:`TraceEvent` is recorded per observable action on the
simulated storage stack.  The event kinds mirror the hierarchy's
read-path decisions:

- ``hit``      — a demand fetch served by the fastest level (no movement
  between levels, but the renderer still reads the bytes);
- ``fetch``    — a demand fetch served by a slower level or the backing
  store (the block is promoted into every faster level);
- ``prefetch`` — a predicted fetch issued during rendering, any source;
- ``evict``    — a victim removed from a level to make room;
- ``bypass``   — an insert abandoned because every resident block was
  protected (Algorithm 1's eviction constraint);
- ``preload``  — a block placed by the Step 2 importance preload;
- ``render``   — one frame's render phase (duration only);
- ``fault``    — one failed read attempt under fault injection, carrying
  the simulated time the failed attempt cost;
- ``retry``    — the deterministic backoff wait before re-attempting a
  failed read (duration only);
- ``degraded`` — informational marker on a read that succeeded slower
  than its nominal cost (latency spike / degraded-bandwidth window);
  ``time_s`` carries only the *extra* seconds above nominal, which are
  already included in the movement event, so degraded events are
  excluded from every time ledger;
- ``xfer``     — one peer-to-peer network transfer in a sharded
  (:mod:`repro.cluster`) run: ``level`` names the link, ``nbytes`` the
  payload and ``time_s`` the charged link time.  The *same* bytes are
  already counted by the movement event of the serving node, so ``xfer``
  is deliberately **outside** :data:`MOVEMENT_KINDS` — it feeds the
  per-link network ledger, never the storage byte ledger;
- ``re_miss``  — forensics marker emitted (only when an
  :class:`~repro.storage.forensics.EvictionLineage` is installed) on a
  demand miss for a block that the lineage ring remembers evicting:
  ``level`` names the level it was evicted *from*, ``age_steps`` the
  steps since that eviction, and ``origin`` the evicting
  ``policy:tenant``.  ``time_s`` is always 0 — re-miss markers sit
  outside every time ledger.

Exactly one of ``hit``/``fetch``/``prefetch`` is emitted per
:meth:`repro.storage.hierarchy.MemoryHierarchy.fetch` call, carrying the
block's size and the simulated time charged — so summing ``nbytes`` over
those three kinds reproduces the hierarchy's ``bytes_moved`` ledger
exactly (a property the test suite pins).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Dict, Tuple

__all__ = ["EVENT_KINDS", "MOVEMENT_KINDS", "FAULT_KINDS", "TraceEvent"]

EVENT_KINDS: Tuple[str, ...] = (
    "fetch",
    "hit",
    "evict",
    "bypass",
    "prefetch",
    "preload",
    "render",
    "fault",
    "retry",
    "degraded",
    "xfer",
    "re_miss",
)

# Kinds whose ``nbytes`` counts toward the bytes-moved ledger.
MOVEMENT_KINDS: Tuple[str, ...] = ("fetch", "hit", "prefetch")

# Kinds emitted only under fault injection.  The time invariant under
# faults: movement times + ``fault`` + ``retry`` times sum to the charged
# io exactly; ``degraded`` is outside the ledger (see module docstring).
FAULT_KINDS: Tuple[str, ...] = ("fault", "retry", "degraded")


@dataclass(frozen=True)
class TraceEvent:
    """One observable action on the simulated I/O path.

    Parameters
    ----------
    seq:
        Monotonic sequence number assigned by the tracer (survives ring
        wrap-around, so gaps reveal dropped events).
    kind:
        One of :data:`EVENT_KINDS`.
    step:
        Camera-path step the event belongs to (−1 when outside a replay,
        e.g. preload).
    level:
        Serving level or device name (``""`` when not applicable).
    key:
        Block id (−1 when not applicable, e.g. render).
    nbytes:
        Bytes moved or read by this event (0 for evict/bypass/render).
    time_s:
        Simulated seconds charged for this event.
    span:
        Profiler span path open when the event was recorded (``""`` when
        no :class:`~repro.obs.profiler.PhaseProfiler` was attached), e.g.
        ``"replay/fetch"`` — links trace events to wall-clock phases.
    count:
        Number of per-block actions this event stands for.  ``1`` in exact
        mode (one event per action); the aggregated mode of ``fetch_many``/
        ``prefetch_many`` (``hierarchy.aggregate_trace``) folds a step's hits/fetches/prefetches per (step, level, kind) into
        one event with ``count > 1``, ``nbytes``/``time_s`` summed, and
        ``key = -1`` — the byte ledger is unchanged because aggregation
        only re-buckets the same totals.
    age_steps:
        For ``re_miss`` events: steps elapsed since the block was evicted
        (−1 for every other kind).
    origin:
        For ``re_miss`` events: ``"<policy>:<tenant>"`` of the eviction
        that caused this miss (``""`` for every other kind, and an empty
        tenant part for unpartitioned caches).
    """

    seq: int
    kind: str
    step: int
    level: str
    key: int
    nbytes: int
    time_s: float
    span: str = ""
    count: int = 1
    age_steps: int = -1
    origin: str = ""

    def as_dict(self) -> Dict[str, object]:
        return asdict(self)

    @classmethod
    def from_dict(cls, d: Dict[str, object]) -> "TraceEvent":
        return cls(
            seq=int(d["seq"]),
            kind=str(d["kind"]),
            step=int(d["step"]),
            level=str(d["level"]),
            key=int(d["key"]),
            nbytes=int(d["nbytes"]),
            time_s=float(d["time_s"]),
            span=str(d.get("span", "")),
            count=int(d.get("count", 1)),
            age_steps=int(d.get("age_steps", -1)),
            origin=str(d.get("origin", "")),
        )
