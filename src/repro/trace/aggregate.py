"""Per-step timeline aggregation over a raw event stream.

Turns the flat event list into the quantities the paper's figures (and
the ``repro trace`` CLI) report per step: demand vs prefetch bytes split
by serving level, eviction churn, and fast-memory coverage (the fraction
of demand accesses served without leaving the fastest level).

The ledger invariant: ``TraceSummary.total_bytes`` — the sum of
``nbytes`` over hit/fetch/prefetch events — equals the hierarchy's
``bytes_moved`` extra (``backing_bytes + total_bytes_read``) when the
trace captured the whole run.  ``tests/trace/test_integration.py`` pins
this equality exactly.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List

from repro.trace.events import MOVEMENT_KINDS, TraceEvent

__all__ = ["StepTimeline", "TraceSummary", "aggregate"]


@dataclass
class StepTimeline:
    """Aggregated I/O activity at one camera-path step."""

    step: int
    hits: int = 0
    demand_fetches: int = 0
    prefetches: int = 0
    evictions: int = 0
    bypasses: int = 0
    preloads: int = 0
    demand_bytes: int = 0
    prefetch_bytes: int = 0
    demand_time_s: float = 0.0
    prefetch_time_s: float = 0.0
    render_time_s: float = 0.0
    # Fault-injection activity (all zero on a fault-free run).
    faults: int = 0
    retries: int = 0
    degraded: int = 0
    fault_time_s: float = 0.0  # failed attempts + backoffs (charged io)
    # Cluster network activity (zero on a single-box run).  Peer bytes
    # are deliberately NOT part of demand/prefetch bytes: the serving
    # node's movement event already counts them, xfer only feeds the
    # network ledger.
    xfers: int = 0
    peer_bytes: int = 0
    peer_time_s: float = 0.0  # charged link time (inside the io ledger)
    # Forensics markers (zero unless an EvictionLineage was installed).
    re_misses: int = 0

    @property
    def fast_coverage(self) -> float:
        """Fraction of demand accesses served by the fastest level."""
        n = self.hits + self.demand_fetches
        return self.hits / n if n else 1.0


@dataclass
class TraceSummary:
    """Whole-trace aggregation: per-step rows plus per-level byte splits."""

    steps: List[StepTimeline] = field(default_factory=list)
    #: level/device name -> {"demand": bytes, "prefetch": bytes}
    level_bytes: Dict[str, Dict[str, int]] = field(default_factory=dict)
    n_events: int = 0

    @property
    def demand_bytes(self) -> int:
        return sum(s.demand_bytes for s in self.steps)

    @property
    def prefetch_bytes(self) -> int:
        return sum(s.prefetch_bytes for s in self.steps)

    @property
    def total_bytes(self) -> int:
        """Demand + prefetch bytes — must equal the hierarchy's ``bytes_moved``."""
        return self.demand_bytes + self.prefetch_bytes

    @property
    def total_evictions(self) -> int:
        return sum(s.evictions for s in self.steps)

    @property
    def total_faults(self) -> int:
        return sum(s.faults for s in self.steps)

    @property
    def total_retries(self) -> int:
        return sum(s.retries for s in self.steps)

    @property
    def total_degraded(self) -> int:
        return sum(s.degraded for s in self.steps)

    @property
    def total_re_misses(self) -> int:
        return sum(s.re_misses for s in self.steps)

    @property
    def total_xfers(self) -> int:
        return sum(s.xfers for s in self.steps)

    @property
    def peer_bytes(self) -> int:
        """Bytes moved across network links (outside ``total_bytes``)."""
        return sum(s.peer_bytes for s in self.steps)

    @property
    def peer_time_s(self) -> float:
        return sum(s.peer_time_s for s in self.steps)

    @property
    def fault_time_s(self) -> float:
        """Charged io lost to failed attempts and backoffs."""
        return sum(s.fault_time_s for s in self.steps)

    @property
    def mean_fast_coverage(self) -> float:
        rows = [s for s in self.steps if s.step >= 0]
        if not rows:
            return 1.0
        return sum(s.fast_coverage for s in rows) / len(rows)


def aggregate(events: Iterable[TraceEvent]) -> TraceSummary:
    """Fold an event stream into a :class:`TraceSummary`.

    Events with ``step == -1`` (preload before the replay) are gathered
    into their own row, kept first so the timeline stays sorted.
    """
    rows: Dict[int, StepTimeline] = {}
    level_bytes: Dict[str, Dict[str, int]] = {}
    n_events = 0
    for e in events:
        n_events += 1
        row = rows.get(e.step)
        if row is None:
            row = rows[e.step] = StepTimeline(step=e.step)
        if e.kind == "hit":
            row.hits += e.count
            row.demand_bytes += e.nbytes
            row.demand_time_s += e.time_s
        elif e.kind == "fetch":
            row.demand_fetches += e.count
            row.demand_bytes += e.nbytes
            row.demand_time_s += e.time_s
        elif e.kind == "prefetch":
            row.prefetches += e.count
            row.prefetch_bytes += e.nbytes
            row.prefetch_time_s += e.time_s
        elif e.kind == "evict":
            row.evictions += e.count
        elif e.kind == "bypass":
            row.bypasses += e.count
        elif e.kind == "preload":
            row.preloads += e.count
        elif e.kind == "render":
            row.render_time_s += e.time_s
        elif e.kind == "fault":
            row.faults += e.count
            row.fault_time_s += e.time_s
        elif e.kind == "retry":
            row.retries += e.count
            row.fault_time_s += e.time_s
        elif e.kind == "degraded":
            # Informational: the extra seconds are already inside the
            # movement event's time, so only the count is aggregated.
            row.degraded += e.count
        elif e.kind == "xfer":
            # Peer network transfer: bytes/time go to the network ledger
            # only — never to the demand/prefetch byte split, which must
            # keep summing to the storage ``bytes_moved`` ledger.
            row.xfers += e.count
            row.peer_bytes += e.nbytes
            row.peer_time_s += e.time_s
        elif e.kind == "re_miss":
            # Forensics marker: no bytes, no time — count only.
            row.re_misses += e.count
        if e.kind in MOVEMENT_KINDS and e.level:
            split = level_bytes.setdefault(e.level, {"demand": 0, "prefetch": 0})
            split["prefetch" if e.kind == "prefetch" else "demand"] += e.nbytes
    return TraceSummary(
        steps=[rows[k] for k in sorted(rows)],
        level_bytes=level_bytes,
        n_events=n_events,
    )
