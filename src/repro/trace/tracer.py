"""The tracer: a bounded ring buffer of trace events, kept in columns.

Two implementations share one duck-typed interface:

- :class:`Tracer` records into a fixed-capacity ring (oldest events are
  overwritten once full — a replay can run forever without growing).
  The ring is numpy columns (:data:`~repro.trace.events.COLUMN_DTYPES`):
  the numeric fields as numbers, ``kind`` as its code in
  :data:`~repro.trace.events.EVENT_KINDS`, and ``level``, ``span`` and
  ``origin`` as codes into small intern tables; an event's ``seq`` is its
  row's position.  No Python object per event lives in the ring.  The
  columns start small and grow by half up to ``capacity``;
- :class:`NullTracer` is a do-nothing stand-in whose ``enabled`` flag is
  ``False``.  Hot paths guard event construction with
  ``if tracer.enabled:`` so a disabled trace costs one attribute load and
  a branch — no allocation, no call.

Readers take :meth:`Tracer.columns_since` (a column view; it may share
the ring's memory, so copy it before the ring moves on) or, outside any
frame, :meth:`Tracer.events` / :meth:`Tracer.events_since`: a snapshot
copy of the same columns that reads as a sequence of
:class:`~repro.trace.events.TraceEvent` rows and builds each row only
when a caller indexes or iterates it.

Instrumented components accept a tracer and default to the shared
:data:`NULL_TRACER`, so tracing is strictly opt-in.
"""

from __future__ import annotations

from typing import List, Sequence

import numpy as np

from repro.trace.events import (
    COLUMN_DTYPES,
    EVENT_KINDS,
    KIND_CODES,
    InternTable,
    TraceColumns,
)

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]

_MIN_ROWS = 1024  # the columns' first allocation (capped at the capacity)
_SCALARS = (int, float, np.integer, np.floating)  # one value for every row


def _unknown_kind(kinds) -> ValueError:
    return ValueError(
        f"unknown event kind {sorted(set(kinds) - KIND_CODES.keys())[0]!r}; "
        f"expected one of {EVENT_KINDS}"
    )


class Tracer:
    """Fixed-capacity, overwrite-oldest event recorder.

    ``current_span`` is the profiler span path stamped onto every event
    recorded while it is set (a :class:`~repro.obs.profiler.PhaseProfiler`
    with this tracer attached maintains it; ``""`` otherwise).
    """

    __slots__ = (
        "capacity", "current_span", "_cols", "_size", "_next", "_total",
        "_levels", "_spans", "_origins",
    )

    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.current_span = ""
        self._cols: List[np.ndarray] = [np.empty(0, dtype) for _, dtype in COLUMN_DTYPES]
        self._size = 0  # rows retained
        self._next = 0  # ring slot the next event lands in (once full)
        self._total = 0  # events ever recorded (monotonic)
        self._levels = InternTable()
        self._spans = InternTable()
        self._origins = InternTable()

    # -- recording -----------------------------------------------------------

    def level_code(self, level: str) -> int:
        """``level``'s code in this tracer's level table (added if new)."""
        return self._levels.code(level)

    def _grow(self, rows: int) -> None:
        """Room for ``rows`` retained rows: half as many again, capped at
        the capacity, one column at a time (so at most one old column
        outlives its copy).  Not doubling: numpy asks for huge pages on
        arrays of 4 MiB or more, so a column's unwritten tail can become
        resident."""
        cols = self._cols
        new = min(self.capacity, max(rows, 3 * len(cols[0]) // 2, _MIN_ROWS))
        for i, col in enumerate(cols):
            wider = np.empty(new, col.dtype)
            wider[: self._size] = col[: self._size]
            cols[i] = wider

    def record(
        self,
        kind: str,
        step: int = -1,
        level: str = "",
        key: int = -1,
        nbytes: int = 0,
        time_s: float = 0.0,
        age_steps: int = -1,
        origin: str = "",
    ) -> None:
        """Append one event; overwrites the oldest once the ring is full.

        ``age_steps``/``origin`` carry eviction provenance on ``re_miss``
        events and keep their defaults everywhere else.
        """
        code = KIND_CODES.get(kind)
        if code is None:
            raise _unknown_kind([kind])
        row = (code, step, self._levels.code(level), key, nbytes, time_s,
               self._spans.code(self.current_span), age_steps, self._origins.code(origin))
        i = self._size
        full = i == self.capacity
        if full:
            i = self._next
        elif i == len(self._cols[0]):
            self._grow(i + 1)
        for col, value in zip(self._cols, row):
            col[i] = value
        self._total += 1
        if full:
            self._next = (i + 1) % self.capacity
        else:
            self._size = i + 1

    def record_many(
        self,
        kinds: Sequence[str],
        step: int,
        levels: Sequence[str],
        keys: Sequence[int],
        nbytes: Sequence[int],
        times_s: Sequence[float],
    ) -> None:
        """Append one event per row of equal-length columns, in order.

        Exactly ``record(kinds[i], step, levels[i], keys[i], nbytes[i],
        times_s[i])`` for each ``i`` — the same ``seq`` numbers, span
        stamp, ring wrap and ``n_dropped`` — as one write.  An unknown kind
        rejects the whole batch before anything is recorded.
        """
        n = len(kinds)
        if not n:
            return
        try:
            codes = np.fromiter(map(KIND_CODES.__getitem__, kinds), np.uint8, n)
        except KeyError:
            raise _unknown_kind(kinds) from None
        self.record_codes(step, codes, self._levels.codes(levels), keys, nbytes, times_s)

    def record_codes(self, step: int, kinds, levels, keys, nbytes, times_s) -> None:
        """:meth:`record_many` with the kinds as :data:`KIND_CODES` codes and
        the levels as :meth:`level_code` codes; each column is an array or
        list of one value per row, or one value for every row (``keys``
        sets the row count)."""
        n = len(keys)
        if not n:
            return
        row = (kinds, step, levels, keys, nbytes, times_s,
               self._spans.code(self.current_span), -1, self._origins.code(""))
        capacity = self.capacity
        runs = []  # (first slot, first row, end row)
        done = 0
        if self._size < capacity:  # filling: append, growing as needed
            done = min(n, capacity - self._size)
            if self._size + done > len(self._cols[0]):
                self._grow(self._size + done)
            runs.append((self._size, 0, done))
            self._size += done
        m = n - done
        if m:
            # The ring is full: row j lands in slot (_next + j) % capacity,
            # so only the last ``capacity`` of the rest survive.
            skip = max(0, m - capacity)
            slot = (self._next + skip) % capacity
            head = min(capacity - slot, m - skip)
            runs.append((slot, done + skip, done + skip + head))
            if done + skip + head < n:
                runs.append((0, done + skip + head, n))
            self._next = (self._next + m) % capacity
        self._total += n
        for col, value in zip(self._cols, row):
            if isinstance(value, _SCALARS):
                for slot, lo, hi in runs:
                    col[slot : slot + hi - lo] = value
            else:
                value = np.asarray(value)
                for slot, lo, hi in runs:
                    col[slot : slot + hi - lo] = value[lo:hi]

    # -- reading -------------------------------------------------------------

    def columns_since(self, seq: int) -> TraceColumns:
        """Retained events with ``seq >= seq`` as columns, oldest first.

        O(k) in the number of rows returned, and views of the ring where
        the rows are contiguous in it: copy the result before recording
        more if it must outlive the ring's next writes.  Events older than
        ``seq`` that were already overwritten are simply absent; compare
        ``n_dropped`` across the window to detect that.
        """
        return self._since(seq, copy=False)

    def events(self) -> TraceColumns:
        """Retained events, oldest first (drops are at the front), as
        :meth:`events_since` ``(0)``."""
        return self._since(0, copy=True)

    def events_since(self, seq: int) -> TraceColumns:
        """:meth:`columns_since`'s rows as a snapshot that owns its columns:
        later records leave it unchanged.  It reads as a sequence of
        :class:`~repro.trace.events.TraceEvent` rows, built only when a
        caller indexes or iterates it."""
        return self._since(seq, copy=True)

    def _since(self, seq: int, copy: bool) -> TraceColumns:
        tables = (self._levels.names, self._spans.names, self._origins.names)
        if seq >= self._total:
            return TraceColumns(np.empty(0, np.int64),
                                [np.empty(0, dtype) for _, dtype in COLUMN_DTYPES], *tables)
        oldest = self._total - self._size
        start = max(int(seq), oldest)
        count = self._size - (start - oldest)
        phys = (self._next + start - oldest) % self.capacity
        if phys + count <= self.capacity:
            columns = [col[phys : phys + count] for col in self._cols]
            if copy:
                columns = [col.copy() for col in columns]
        else:  # wrapped: concatenating copies
            wrap = phys + count - self.capacity
            columns = [np.concatenate((col[phys:], col[:wrap])) for col in self._cols]
        return TraceColumns(np.arange(start, start + count, dtype=np.int64), columns, *tables)

    def __len__(self) -> int:
        return self._size

    @property
    def n_recorded(self) -> int:
        """Events ever recorded, including any overwritten by wrap-around."""
        return self._total

    @property
    def n_dropped(self) -> int:
        """Events lost to ring wrap-around."""
        return self._total - self._size

    def drop_stats(self) -> "dict[str, int]":
        """Recorded/retained/dropped counts, bench- and report-friendly."""
        return {
            "capacity": self.capacity,
            "n_recorded": self.n_recorded,
            "n_retained": self._size,
            "n_dropped": self.n_dropped,
        }

    def clear(self) -> None:
        """Forget retained events and the drop counter (capacity kept)."""
        self._cols = [np.empty(0, dtype) for _, dtype in COLUMN_DTYPES]
        self._size = 0
        self._next = 0
        self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Tracer(capacity={self.capacity}, retained={self._size}, "
            f"dropped={self.n_dropped})"
        )


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``enabled`` is ``False`` so instrumented code skips event construction
    entirely; calling :meth:`record` anyway is harmless.
    """

    __slots__ = ()

    enabled = False
    current_span = ""

    def record(
        self,
        kind: str,
        step: int = -1,
        level: str = "",
        key: int = -1,
        nbytes: int = 0,
        time_s: float = 0.0,
        age_steps: int = -1,
        origin: str = "",
    ) -> None:
        pass

    def record_many(
        self,
        kinds: Sequence[str],
        step: int,
        levels: Sequence[str],
        keys: Sequence[int],
        nbytes: Sequence[int],
        times_s: Sequence[float],
    ) -> None:
        pass

    def columns_since(self, seq: int) -> TraceColumns:
        return TraceColumns.empty()

    def events(self) -> TraceColumns:
        return TraceColumns.empty()

    def events_since(self, seq: int) -> TraceColumns:
        return TraceColumns.empty()

    def __len__(self) -> int:
        return 0

    @property
    def n_recorded(self) -> int:
        return 0

    @property
    def n_dropped(self) -> int:
        return 0

    def drop_stats(self) -> "dict[str, int]":
        return {"capacity": 0, "n_recorded": 0, "n_retained": 0, "n_dropped": 0}

    def clear(self) -> None:
        pass

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullTracer()"


#: Shared disabled tracer; instrumented components default to this.
NULL_TRACER = NullTracer()
