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

:class:`TraceColumns` is the same rows as numpy columns — the form the
tracer's ring keeps, the one its readers hand out and the one the
per-frame readers fold.  It reads as a sequence of :class:`TraceEvent`
rows, built only when a caller indexes or iterates it, and converts to
and from a :class:`TraceEvent` list.
"""

from __future__ import annotations

import operator
from functools import partial
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

import numpy as np

__all__ = [
    "EVENT_KINDS",
    "MOVEMENT_KINDS",
    "FAULT_KINDS",
    "KIND_CODES",
    "InternTable",
    "TraceEvent",
    "TraceColumns",
]

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

#: Kind name -> the code a ``kind`` column stores (its index in EVENT_KINDS).
KIND_CODES: Dict[str, int] = {kind: code for code, kind in enumerate(EVENT_KINDS)}


class TraceEvent(NamedTuple):
    """One observable action on the simulated I/O path.

    An immutable named tuple: the tracer's ring keeps its fields in
    columns (:class:`TraceColumns`), and a ``TraceEvent`` is built only
    when a reader indexes or iterates those columns.

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
    age_steps: int = -1
    origin: str = ""

    def as_dict(self) -> Dict[str, object]:
        """The fields by name, in declaration order."""
        return self._asdict()

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
            age_steps=int(d.get("age_steps", -1)),
            origin=str(d.get("origin", "")),
        )


#: The columns of :class:`TraceColumns` after ``seq``, in field order, with
#: the dtypes the ring stores them in (string fields as intern codes).
COLUMN_DTYPES: Tuple[Tuple[str, type], ...] = (
    ("kind", np.uint8),
    ("step", np.int64),
    ("level", np.int32),
    ("key", np.int64),
    ("nbytes", np.int64),
    ("time_s", np.float64),
    ("span", np.int32),
    ("age_steps", np.int64),
    ("origin", np.int32),
)
_CHUNK = 1 << 16  # rows turned into Python values at a time (bounds the temporaries)
_new_event = partial(tuple.__new__, TraceEvent)  # the cheapest TraceEvent from a full row


class InternTable:
    """A string column's table: names by code and codes by name.  Codes
    are handed out in first-appearance order and never change."""

    __slots__ = ("names", "_codes")

    def __init__(self) -> None:
        self.names: List[str] = []
        self._codes: Dict[str, int] = {}

    def code(self, name: str) -> int:
        """``name``'s code (added if new)."""
        code = self._codes.get(name)
        if code is None:
            code = self._codes[name] = len(self.names)
            self.names.append(name)
        return code

    def codes(self, names: Sequence[str]) -> np.ndarray:
        return np.fromiter(map(self.code, names), np.int32, len(names))


def _shared(column: np.ndarray):
    """``column.tolist()`` with one object per distinct value (bit pattern,
    so ``-0.0`` stays apart from ``0.0``): the events of a ring share
    their block ids, sizes and read times."""
    distinct, index = np.unique(column.view(np.int64), return_inverse=True)
    return map(distinct.view(column.dtype).tolist().__getitem__, index.tolist())


class TraceColumns:
    """Trace events as numpy columns, oldest first.

    One array per :class:`TraceEvent` field.  ``kind`` holds codes into
    :data:`EVENT_KINDS` (:data:`KIND_CODES`); ``level``, ``span`` and
    ``origin`` hold codes into the ``levels``, ``spans`` and ``origins``
    intern tables.  A tracer's tables only ever grow, so a code keeps its
    meaning after the slice was taken.  Slices of the ring may be views:
    :meth:`copy` before the ring moves on.

    It also reads as a read-only sequence of :class:`TraceEvent` rows:
    ``len``, an int index (a ``TraceEvent``), a slice (a ``TraceColumns``
    of views), iteration (``TraceEvent`` rows built :data:`_CHUNK` at a
    time) and ``==`` against a list, a tuple or another ``TraceColumns``
    (row for row, as the rows' list would compare).  No row object exists
    until a caller asks for one.
    """

    __slots__ = ("seq",) + tuple(name for name, _ in COLUMN_DTYPES) + (
        "levels", "spans", "origins",
    )

    def __init__(
        self,
        seq: np.ndarray,
        columns: Sequence[np.ndarray],
        levels: List[str],
        spans: List[str],
        origins: List[str],
    ) -> None:
        self.seq = seq
        (self.kind, self.step, self.level, self.key, self.nbytes, self.time_s,
         self.span, self.age_steps, self.origin) = columns
        self.levels = levels
        self.spans = spans
        self.origins = origins

    @classmethod
    def empty(cls) -> "TraceColumns":
        return cls(
            np.empty(0, np.int64), [np.empty(0, dtype) for _, dtype in COLUMN_DTYPES],
            [], [], [],
        )

    @classmethod
    def from_events(cls, events: Iterable[TraceEvent]) -> "TraceColumns":
        """The columns of a :class:`TraceEvent` sequence (a ``TraceColumns``
        comes back as is); unknown kinds raise ``ValueError``."""
        if isinstance(events, TraceColumns):
            return events
        rows = list(events)
        if not rows:
            return cls.empty()
        seq, kind, step, level, key, nbytes, time_s, span, age, origin = zip(*rows)
        bad = set(kind) - KIND_CODES.keys()
        if bad:
            raise ValueError(
                f"unknown event kind {sorted(bad)[0]!r}; expected one of {EVENT_KINDS}"
            )
        levels, spans, origins = InternTable(), InternTable(), InternTable()
        return cls(
            np.array(seq, np.int64),
            [
                np.fromiter(map(KIND_CODES.__getitem__, kind), np.uint8, len(rows)),
                np.array(step, np.int64),
                levels.codes(level),
                np.array(key, np.int64),
                np.array(nbytes, np.int64),
                np.array(time_s, np.float64),
                spans.codes(span),
                np.array(age, np.int64),
                origins.codes(origin),
            ],
            levels.names, spans.names, origins.names,
        )

    @property
    def columns(self) -> Tuple[np.ndarray, ...]:
        """Every column after ``seq``, in :data:`COLUMN_DTYPES` order."""
        return (self.kind, self.step, self.level, self.key, self.nbytes, self.time_s,
                self.span, self.age_steps, self.origin)

    def __len__(self) -> int:
        return len(self.seq)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return self.take(index)
        n = len(self)
        i = operator.index(index)
        if not -n <= i < n:
            raise IndexError(f"event index {index} out of range for {n} events")
        i %= n
        return self._events(slice(i, i + 1))[0]

    def __iter__(self) -> Iterator[TraceEvent]:
        for lo in range(0, len(self), _CHUNK):
            yield from self._events(slice(lo, lo + _CHUNK))

    def __eq__(self, other) -> bool:
        if not isinstance(other, (TraceColumns, list, tuple)):
            return NotImplemented
        return len(self) == len(other) and all(map(operator.eq, self, other))

    def take(self, index) -> "TraceColumns":
        """The rows at ``index``: copies for a boolean mask or positions,
        views for a slice."""
        return TraceColumns(
            self.seq[index], [c[index] for c in self.columns],
            self.levels, self.spans, self.origins,
        )

    def copy(self) -> "TraceColumns":
        return TraceColumns(
            self.seq.copy(), [c.copy() for c in self.columns],
            self.levels, self.spans, self.origins,
        )

    def events(self) -> List[TraceEvent]:
        """The rows as a list of :class:`TraceEvent`s."""
        return list(self)

    def _events(self, part: slice) -> List[TraceEvent]:
        """The rows in ``part`` as :class:`TraceEvent`s, with plain Python
        field values."""
        return list(map(_new_event, zip(
            self.seq[part].tolist(),
            map(EVENT_KINDS.__getitem__, self.kind[part].tolist()),
            _shared(self.step[part]),
            map(self.levels.__getitem__, self.level[part].tolist()),
            _shared(self.key[part]),
            _shared(self.nbytes[part]),
            _shared(self.time_s[part]),
            map(self.spans.__getitem__, self.span[part].tolist()),
            self.age_steps[part].tolist(),
            map(self.origins.__getitem__, self.origin[part].tolist()),
        )))

    @classmethod
    def concat(cls, parts: Sequence["TraceColumns"]) -> "TraceColumns":
        """The rows of ``parts`` in order, on one set of intern tables
        (re-coded where the parts' tables differ)."""
        if len(parts) == 1:
            return parts[0]
        if not parts:
            return cls.empty()
        by_name = {name: [getattr(p, name) for p in parts] for name, _ in COLUMN_DTYPES}
        tables = []
        for field, attr in (("level", "levels"), ("span", "spans"), ("origin", "origins")):
            shared = getattr(parts[0], attr)
            if any(getattr(p, attr) is not shared for p in parts):
                shared, by_name[field] = _recoded(
                    [getattr(p, attr) for p in parts], by_name[field]
                )
            tables.append(shared)
        columns = [np.concatenate(by_name[name]) for name, _ in COLUMN_DTYPES]
        return cls(np.concatenate([p.seq for p in parts]), columns, *tables)


def _recoded(tables: Sequence[List[str]], codes: Sequence[np.ndarray]):
    """One table for several ``(table, codes)`` pairs, and each pair's
    codes into it."""
    merged = InternTable()
    return merged.names, [merged.codes(table)[part] for table, part in zip(tables, codes)]
