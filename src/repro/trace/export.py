"""Trace exporters: JSON-lines and Chrome-trace (Perfetto) formats.

JSONL is the lossless interchange format — one event dict per line,
round-trippable through :func:`read_jsonl`, which returns the columns
(:class:`~repro.trace.events.TraceColumns`) every trace reader takes.

The Chrome trace format (the ``traceEvents`` JSON consumed by
``chrome://tracing`` and https://ui.perfetto.dev) lays events out on a
simulated wall clock: events are replayed in sequence order and each
one's charged duration advances the clock, with one track (``tid``) per
serving level plus dedicated tracks for render and cache-maintenance
events.  Durations are stretched to microseconds via ``time_scale`` so
nanosecond-scale DRAM reads stay visible next to millisecond HDD seeks.
:func:`write_chrome_trace` writes it one event at a time from the
columns, never holding the event list :func:`to_chrome_trace` returns.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Union

import numpy as np

from repro.trace.aggregate import check_sums
from repro.trace.events import _CHUNK, EVENT_KINDS, TraceColumns, TraceEvent

__all__ = [
    "write_jsonl", "read_jsonl", "seq_drop_stats", "to_chrome_trace", "write_chrome_trace",
]

PathLike = Union[str, Path]


# -- JSON lines ---------------------------------------------------------------


def write_jsonl(events: Iterable[TraceEvent], path: PathLike) -> Path:
    """Write one JSON object per event (creating the file's directory);
    returns the path written."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for e in events:
            fh.write(json.dumps(e.as_dict(), separators=(",", ":")))
            fh.write("\n")
    return path


def read_jsonl(path: PathLike) -> TraceColumns:
    """Parse a file written by :func:`write_jsonl` (blank lines ignored)
    into columns.

    Every event is one block: a ``count`` key (older versions wrote one,
    always ``1``) must be ``1``.  Anything the trace readers cannot take
    raises a one-line :class:`ValueError` naming the file, so CLI
    consumers report it without a traceback: an empty file; a truncated
    or corrupt line, another ``count`` or a ``time_s`` that is not a
    finite number ``>= 0`` (these name the line too); an unknown kind, a
    number past int64, or byte or time sums that could overflow
    (:func:`~repro.trace.aggregate.check_sums`).
    """
    path = Path(path)
    rows: List[TraceEvent] = []
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                d = json.loads(line)
                rows.append(TraceEvent.from_dict(d))
            except (ValueError, KeyError, TypeError) as exc:
                raise ValueError(
                    f"{path}:{lineno}: truncated or corrupt trace line ({exc})"
                ) from None
            if d.get("count", 1) != 1:
                raise ValueError(
                    f"{path}:{lineno}: \"count\": {d['count']!r}, but every event is one block"
                )
            time_s = rows[-1].time_s
            if not (math.isfinite(time_s) and time_s >= 0):
                raise ValueError(
                    f"{path}:{lineno}: \"time_s\": {time_s!r}, but a charged time is a "
                    f"finite number >= 0"
                )
    if not rows:
        raise ValueError(f"{path}: empty trace file (no events)")
    try:
        cols = TraceColumns.from_events(rows)
        check_sums(cols)
    except (ValueError, OverflowError) as exc:
        raise ValueError(f"{path}: {exc}") from None
    return cols


def seq_drop_stats(
    events: Union[TraceColumns, Sequence[TraceEvent]],
) -> Optional[Dict[str, int]]:
    """The drop counts a trace's ``seq`` numbers imply, or ``None`` when
    none is missing.

    A tracer numbers every event it records, so a file of its retained
    events holds ``n_recorded = last seq + 1`` events less those the ring
    overwrote: ``n_dropped`` is that number less the rows.  A complete
    trace (first ``seq`` 0, contiguous) drops nothing.
    """
    seq = TraceColumns.from_events(events).seq
    n_recorded = int(seq.max()) + 1 if len(seq) else 0
    n_dropped = n_recorded - len(seq)
    if n_dropped <= 0:
        return None
    return {"n_recorded": n_recorded, "n_retained": len(seq), "n_dropped": n_dropped}


# -- Chrome trace -------------------------------------------------------------

# Events that occupy the I/O timeline (duration events); everything else
# becomes an instant marker on its own track.  Failed attempts ("fault")
# and backoffs ("retry") are charged io, so they advance the clock like
# movement events; "degraded" stays an instant marker — its time is the
# extra already inside the adjacent movement event's duration.
_DURATION_KINDS = frozenset({"hit", "fetch", "prefetch", "render", "fault", "retry"})
_ADVANCES_CLOCK = np.array([kind in _DURATION_KINDS for kind in EVENT_KINDS])


def _track_for(kind: str, level: str) -> str:
    if kind == "render":
        return "render"
    if kind == "xfer":
        # Peer transfers live on per-link network tracks (level = link name).
        return f"net:{level}" if level else "net"
    if kind in ("evict", "bypass", "preload", "re_miss"):
        return f"cache:{level}" if level else "cache"
    return f"io:{level}" if level else "io"


def _chrome_events(
    events: Union[TraceColumns, Sequence[TraceEvent]],
    time_scale: float,
    process_name: str,
) -> Iterator[Dict[str, object]]:
    """The Chrome-trace events one dict at a time: the process-name
    record, then one per row in ``seq`` order (rows with equal ``seq``
    keep their order), built :data:`~repro.trace.events._CHUNK` rows at a
    time.  Bad input raises before the first yield, a time or clock that
    would not be finite once scaled too (JSON has no ``Infinity``)."""
    if time_scale <= 0:
        raise ValueError(f"time_scale must be > 0, got {time_scale}")
    cols = TraceColumns.from_events(events)
    order = np.argsort(cols.seq, kind="stable")
    clock = cols.time_s[order]  # the loop's clock below, as the same left fold
    clock[~_ADVANCES_CLOCK[cols.kind[order]]] = 0.0
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.accumulate(clock, out=clock)
        finite = np.isfinite(cols.time_s * time_scale).all() and np.isfinite(
            clock * time_scale
        ).all()
    if not finite:
        raise ValueError(f"time_scale {time_scale}: a scaled time or clock would not be finite")
    yield {"name": "process_name", "ph": "M", "pid": 0, "tid": 0, "args": {"name": process_name}}
    levels, spans, origins = cols.levels, cols.spans, cols.origins
    clock = 0.0
    for lo in range(0, len(order), _CHUNK):
        part = order[lo : lo + _CHUNK]
        for seq, code, step, level, key, nbytes, time_s, span, age_steps, origin in zip(
            cols.seq[part].tolist(), *(column[part].tolist() for column in cols.columns)
        ):
            kind = EVENT_KINDS[code]
            ts = clock * time_scale
            args = {"seq": seq, "step": step, "key": key, "nbytes": nbytes, "time_s": time_s}
            if spans[span]:
                args["span"] = spans[span]
            if kind == "re_miss":
                args["age_steps"] = age_steps
                args["origin"] = origins[origin]
            name = f"{kind} {key}" if key >= 0 else kind
            if kind in _DURATION_KINDS:
                yield {
                    "name": name,
                    "cat": kind,
                    "ph": "X",
                    "ts": ts,
                    "dur": max(time_s * time_scale, 0.001),
                    "pid": 0,
                    "tid": _track_for(kind, levels[level]),
                    "args": args,
                }
                clock += time_s
            else:
                yield {
                    "name": name,
                    "cat": kind,
                    "ph": "i",
                    "s": "t",
                    "ts": ts,
                    "pid": 0,
                    "tid": _track_for(kind, levels[level]),
                    "args": args,
                }


def to_chrome_trace(
    events: Union[TraceColumns, Sequence[TraceEvent]],
    time_scale: float = 1e6,
    process_name: str = "repro",
) -> Dict[str, object]:
    """Build a Chrome-trace dict (``{"traceEvents": [...]}``).

    ``time_scale`` converts simulated seconds to trace microseconds
    (default 1e6: one simulated second = one trace second).  The clock is
    the cumulative simulated time of the events in sequence order — a
    serialisation of the run, not the overlapped schedule.
    """
    return {
        "traceEvents": list(_chrome_events(events, time_scale, process_name)),
        "displayTimeUnit": "ms",
    }


def write_chrome_trace(
    events: Union[TraceColumns, Sequence[TraceEvent]],
    path: PathLike,
    time_scale: float = 1e6,
) -> Path:
    """Write :func:`to_chrome_trace`'s document to ``path`` (creating its
    directory), one event at a time: the file is ``json.dumps`` of the
    dict, byte for byte, without the list.  Returns the path."""
    rows = _chrome_events(events, time_scale, "repro")
    first = next(rows)  # raises on bad input before the file exists
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.write('{"traceEvents": [' + json.dumps(first))
        for row in rows:
            fh.write(", " + json.dumps(row))
        fh.write('], "displayTimeUnit": "ms"}')
    return path
