"""The tracer: a bounded ring buffer of :class:`TraceEvent`.

Two implementations share one duck-typed interface:

- :class:`Tracer` records into a fixed-capacity ring (oldest events are
  overwritten once full — a replay can run forever without growing);
- :class:`NullTracer` is a do-nothing stand-in whose ``enabled`` flag is
  ``False``.  Hot paths guard event construction with
  ``if tracer.enabled:`` so a disabled trace costs one attribute load and
  a branch — no allocation, no call.

Instrumented components accept a tracer and default to the shared
:data:`NULL_TRACER`, so tracing is strictly opt-in.
"""

from __future__ import annotations

from typing import List

from repro.trace.events import EVENT_KINDS, TraceEvent

__all__ = ["Tracer", "NullTracer", "NULL_TRACER"]

_KINDS = frozenset(EVENT_KINDS)


class Tracer:
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
        count: int = 1,
        age_steps: int = -1,
        origin: str = "",
    ) -> None:
        """Append one event; overwrites the oldest once the ring is full.

        ``count > 1`` marks an aggregated event standing for that many
        per-block actions (the batched calls' per-step roll-up).
        ``age_steps``/``origin`` carry eviction provenance on ``re_miss``
        events and keep their defaults everywhere else.
        """
        if kind not in _KINDS:
            raise ValueError(f"unknown event kind {kind!r}; expected one of {EVENT_KINDS}")
        event = TraceEvent(
            self._total,
            kind,
            step,
            level,
            key,
            nbytes,
            time_s,
            self.current_span,
            count,
            age_steps,
            origin,
        )
        self._total += 1
        if len(self._ring) < self.capacity:
            self._ring.append(event)
        else:
            self._ring[self._next] = event
            self._next = (self._next + 1) % self.capacity

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
            f"Tracer(capacity={self.capacity}, retained={len(self._ring)}, "
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
        count: int = 1,
        age_steps: int = -1,
        origin: str = "",
    ) -> None:
        pass

    def events(self) -> List[TraceEvent]:
        return []

    def events_since(self, seq: int) -> List[TraceEvent]:
        return []

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
