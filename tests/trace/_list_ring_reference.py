"""The list ring: the reference the columnar ring in
:class:`repro.trace.tracer.Tracer` must answer exactly like.

A bounded list of :class:`~repro.trace.events.TraceEvent`s, one named
tuple per recorded event — the ring the tracer kept before it stored
columns.
"""

from __future__ import annotations

from functools import partial
from itertools import repeat
from typing import List, Sequence

from repro.trace.events import EVENT_KINDS, TraceEvent

_KINDS = frozenset(EVENT_KINDS)
_make_event = TraceEvent._make
_new_event = partial(tuple.__new__, TraceEvent)


class ListRing:
    """Fixed-capacity, overwrite-oldest event recorder.

    ``current_span`` is the profiler span path stamped onto every event
    recorded while it is set (a :class:`~repro.obs.profiler.PhaseProfiler`
    with this tracer attached maintains it; ``""`` otherwise).
    """

    __slots__ = ("capacity", "current_span", "_ring", "_next", "_total")

    enabled = True

    def __init__(self, capacity: int = 65536) -> None:
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.current_span = ""
        self._ring: List[TraceEvent] = []
        self._next = 0  # ring slot the next event lands in (once full)
        self._total = 0  # events ever recorded (monotonic)

    # -- recording -----------------------------------------------------------

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
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        event = _make_event(
            (
                self._total,
                kind,
                step,
                level,
                key,
                nbytes,
                time_s,
                self.current_span,
                age_steps,
                origin,
            )
        )
        self._total += 1
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._next] = event
            self._next = (self._next + 1) % self.capacity

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
        bad = set(kinds) - _KINDS
        if bad:
            raise ValueError(
                f"unknown event kind {sorted(bad)[0]!r}; expected one of {EVENT_KINDS}"
            )
        start = self._total
        self._total += n
        capacity = self.capacity
        ring = self._ring
        events = list(
            map(
                _new_event,
                zip(
                    range(start, start + n),
                    kinds,
                    repeat(step),
                    levels,
                    keys,
                    nbytes,
                    times_s,
                    repeat(self.current_span),
                    repeat(-1),
                    repeat(""),
                ),
            )
        )
        room = capacity - len(ring)
        if room > 0:
            ring.extend(events[:room])
            events = events[room:]
        m = len(events)
        if not m:
            return
        # The ring is full: event j lands in slot (_next + j) % capacity, so
        # only the last ``capacity`` of the rest survive.
        skip = max(0, m - capacity)
        slot = (self._next + skip) % capacity
        rest = events[skip:]
        head = min(capacity - slot, len(rest))
        ring[slot : slot + head] = rest[:head]
        ring[: len(rest) - head] = rest[head:]
        self._next = (self._next + m) % capacity

    # -- reading -------------------------------------------------------------

    def events(self) -> List[TraceEvent]:
        """Retained events, oldest first (drops are at the front)."""
        return self._ring[self._next:] + self._ring[: self._next]

    def events_since(self, seq: int) -> List[TraceEvent]:
        """Retained events with ``event.seq >= seq``, oldest first.

        O(k) in the number of returned events — per-frame consumers (the
        session scheduler's attribution hook) call this with the previous
        frame's ``n_recorded`` instead of copying the whole ring.  Events
        older than ``seq`` that were already overwritten are simply absent;
        compare ``n_dropped`` across the window to detect that.
        """
        if seq >= self._total:
            return []
        oldest = self._total - len(self._ring)
        start = max(int(seq), oldest)
        offset = start - oldest  # logical index into the ordered ring
        count = len(self._ring) - offset
        if len(self._ring) < self.capacity:  # never wrapped: ring is in order
            return self._ring[offset:]
        phys = (self._next + offset) % self.capacity
        tail = self._ring[phys : phys + count]
        if len(tail) == count:
            return tail
        return tail + self._ring[: count - len(tail)]

    def __len__(self) -> int:
        return len(self._ring)

    @property
    def n_recorded(self) -> int:
        """Events ever recorded, including any overwritten by wrap-around."""
        return self._total

    @property
    def n_dropped(self) -> int:
        """Events lost to ring wrap-around."""
        return self._total - len(self._ring)

    def drop_stats(self) -> "dict[str, int]":
        """Recorded/retained/dropped counts, bench- and report-friendly."""
        return {
            "capacity": self.capacity,
            "n_recorded": self.n_recorded,
            "n_retained": len(self._ring),
            "n_dropped": self.n_dropped,
        }

    def clear(self) -> None:
        """Forget retained events and the drop counter (capacity kept)."""
        self._ring.clear()
        self._next = 0
        self._total = 0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ListRing(capacity={self.capacity}, retained={len(self._ring)}, "
            f"dropped={self.n_dropped})"
        )
