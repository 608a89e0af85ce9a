"""Per-step timeline aggregation over a trace's columns.

Turns a trace into the quantities the paper's figures (and the ``repro
trace`` CLI) report per step: demand vs prefetch bytes split by serving
level, eviction churn, and fast-memory coverage (the fraction of demand
accesses served without leaving the fastest level).

The ledger invariant: ``TraceSummary.total_bytes`` — the sum of
``nbytes`` over hit/fetch/prefetch events — equals the hierarchy's
``bytes_moved`` extra (``backing_bytes + total_bytes_read``) when the
trace captured the whole run.  ``tests/trace/test_integration.py`` pins
this equality exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple, Union

import numpy as np

from repro.trace.events import (
    EVENT_KINDS,
    KIND_CODES,
    MOVEMENT_KINDS,
    TraceColumns,
    TraceEvent,
)

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


#: Each kind's :class:`StepTimeline` fields: the one its events count
#: in, the one its ``nbytes`` adds to and the one its ``time_s`` adds to
#: (``None``: the kind adds nothing there).
_FIELDS: Dict[str, Tuple[Optional[str], Optional[str], Optional[str]]] = {
    "hit": ("hits", "demand_bytes", "demand_time_s"),
    "fetch": ("demand_fetches", "demand_bytes", "demand_time_s"),
    "prefetch": ("prefetches", "prefetch_bytes", "prefetch_time_s"),
    "evict": ("evictions", None, None),
    "bypass": ("bypasses", None, None),
    "preload": ("preloads", None, None),
    "render": (None, None, "render_time_s"),
    "fault": ("faults", None, "fault_time_s"),
    "retry": ("retries", None, "fault_time_s"),
    # Informational: the extra seconds are already inside the movement
    # event's time, so only the count is aggregated.
    "degraded": ("degraded", None, None),
    # Peer network transfer: bytes/time go to the network ledger only —
    # never to the demand/prefetch byte split, which must keep summing to
    # the storage ``bytes_moved`` ledger.
    "xfer": ("xfers", "peer_bytes", "peer_time_s"),
    # Forensics marker: no bytes, no time — count only.
    "re_miss": ("re_misses", None, None),
}
_MOVEMENT_CODES = [KIND_CODES[kind] for kind in MOVEMENT_KINDS]


def check_sums(cols: TraceColumns) -> None:
    """Raise a one-line ``ValueError`` when a sum of ``cols.nbytes`` could
    leave int64, where :func:`aggregate` adds them, or a sum of
    ``cols.time_s`` could leave the finite floats (a time is not finite,
    or ``n`` of the largest would overflow; the factor of two covers the
    rounding of any fold of up to ``n`` terms), where :func:`aggregate`
    and the attribution fold add them."""
    n = len(cols)
    if not n:
        return
    largest = max(-int(cols.nbytes.min()), int(cols.nbytes.max()))
    if n * largest >= 2**63:
        raise ValueError(f"{n} events of up to {largest} bytes: a byte sum could leave int64")
    slowest = float(np.abs(cols.time_s).max())
    if not math.isfinite(2.0 * n * slowest):
        raise ValueError(
            f"{n} events of up to {slowest} s: a time sum could leave the finite floats"
        )


def aggregate(events: Union[TraceColumns, Iterable[TraceEvent]]) -> TraceSummary:
    """Fold a trace into a :class:`TraceSummary`.

    Events with ``step == -1`` (preload before the replay) are gathered
    into their own row, kept first so the timeline stays sorted.  The
    fold reads :class:`~repro.trace.events.TraceColumns` (what a
    tracer's ``events()`` and :func:`~repro.trace.export.read_jsonl`
    return); a :class:`TraceEvent` sequence is converted into columns
    once.  Per-step counts go by ``np.bincount``, byte sums by
    ``np.add.at`` and time sums by ``np.bincount``, which adds its
    weights in input order, so every float is the event-by-event left
    fold's, bit for bit.  Byte sums that could leave int64 and time sums
    that could leave the finite floats raise (:func:`check_sums`).
    """
    cols = TraceColumns.from_events(events)
    check_sums(cols)
    steps, row = np.unique(cols.step, return_inverse=True)
    n_kinds = len(EVENT_KINDS)
    cell = row * n_kinds + cols.kind
    counts = np.bincount(cell, minlength=len(steps) * n_kinds).reshape(-1, n_kinds)
    nbytes = np.zeros(len(steps) * n_kinds, np.int64)
    np.add.at(nbytes, cell, cols.nbytes)
    nbytes = nbytes.reshape(-1, n_kinds)
    fields: Dict[str, np.ndarray] = {}
    timed: Dict[str, List[int]] = {}
    for kind, (count, nbyte, time_s) in _FIELDS.items():
        code = KIND_CODES[kind]
        if count:
            fields[count] = fields.get(count, 0) + counts[:, code]
        if nbyte:
            fields[nbyte] = fields.get(nbyte, 0) + nbytes[:, code]
        if time_s:
            timed.setdefault(time_s, []).append(code)
    for name, codes in timed.items():
        mask = np.isin(cols.kind, codes)
        sums = np.bincount(row[mask], cols.time_s[mask], minlength=len(steps))
        fields[name] = sums.astype(np.float64, copy=False)  # no rows: bincount gives ints
    names = list(fields)
    timelines = [
        StepTimeline(step, **dict(zip(names, values)))
        for step, *values in zip(steps.tolist(), *(fields[k].tolist() for k in names))
    ]
    # Movement bytes per named level, levels in first-appearance order.
    named = np.array([bool(name) for name in cols.levels], dtype=bool)
    moved = np.isin(cols.kind, _MOVEMENT_CODES) & named[cols.level]
    level = cols.level[moved].astype(np.int64)
    split = np.zeros(2 * len(cols.levels), np.int64)
    np.add.at(split, 2 * level + (cols.kind[moved] == KIND_CODES["prefetch"]), cols.nbytes[moved])
    codes, first = np.unique(level, return_index=True)
    level_bytes = {
        cols.levels[code]: {"demand": int(split[2 * code]), "prefetch": int(split[2 * code + 1])}
        for code in codes[np.argsort(first)].tolist()
    }
    return TraceSummary(steps=timelines, level_bytes=level_bytes, n_events=len(cols))
