"""The event loop: the reference :func:`repro.trace.aggregate` must fold
to, field for field.

One Python pass over :class:`~repro.trace.events.TraceEvent` rows in
order, each adding itself to its step's :class:`StepTimeline` — the fold
``aggregate`` ran before it read columns.  Its sums are Python ints and
left-folded floats, so the column fold's must equal them bit for bit.
It keeps its own kind table, so a wrong entry in the fold's shows.
"""

from __future__ import annotations

from typing import Dict, Iterable

from repro.trace.aggregate import StepTimeline, TraceSummary
from repro.trace.events import MOVEMENT_KINDS, TraceEvent

#: Each kind's fields: the one its events count in, the one its
#: ``nbytes`` adds to and the one its ``time_s`` adds to.
_FIELDS = {
    "hit": ("hits", "demand_bytes", "demand_time_s"),
    "fetch": ("demand_fetches", "demand_bytes", "demand_time_s"),
    "prefetch": ("prefetches", "prefetch_bytes", "prefetch_time_s"),
    "evict": ("evictions", None, None),
    "bypass": ("bypasses", None, None),
    "preload": ("preloads", None, None),
    "render": (None, None, "render_time_s"),
    "fault": ("faults", None, "fault_time_s"),
    "retry": ("retries", None, "fault_time_s"),
    "degraded": ("degraded", None, None),
    "xfer": ("xfers", "peer_bytes", "peer_time_s"),
    "re_miss": ("re_misses", None, None),
}


def aggregate_events(events: Iterable[TraceEvent]) -> TraceSummary:
    """The per-step timelines of ``events``, one event at a time."""
    rows: Dict[int, StepTimeline] = {}
    level_bytes: Dict[str, Dict[str, int]] = {}
    n_events = 0
    for e in events:
        n_events += 1
        row = rows.get(e.step)
        if row is None:
            row = rows[e.step] = StepTimeline(step=e.step)
        count, nbytes, time_s = _FIELDS[e.kind]
        if count:
            setattr(row, count, getattr(row, count) + 1)
        if nbytes:
            setattr(row, nbytes, getattr(row, nbytes) + e.nbytes)
        if time_s:
            setattr(row, time_s, getattr(row, time_s) + e.time_s)
        if e.kind in MOVEMENT_KINDS and e.level:
            split = level_bytes.setdefault(e.level, {"demand": 0, "prefetch": 0})
            split["prefetch" if e.kind == "prefetch" else "demand"] += e.nbytes
    return TraceSummary(
        steps=[rows[k] for k in sorted(rows)],
        level_bytes=level_bytes,
        n_events=n_events,
    )
