"""The columnar ring against the list ring it replaced.

``tests/trace/_list_ring_reference.py`` is the tracer's former ring: one
``TraceEvent`` per recorded event in a bounded list.  On drawn sequences
of ``record``, ``record_many`` (including batches that a bad kind
rejects), ``clear`` and span changes, at capacities from 1 to 64, the
column ring must answer every read the same, event for event: ``events``,
``events_since`` windows from before the oldest retained event to past
the end, ``columns_since`` turned back into events, the counters and
``drop_stats``.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.trace import EVENT_KINDS, Tracer

from tests.trace._list_ring_reference import ListRing

_kinds = st.sampled_from(EVENT_KINDS)
_levels = st.sampled_from(["", "dram", "ssd", "hdd", "n0-n1"])
_ints = st.integers(-(2**40), 2**40)
_times = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
    st.sampled_from([0.0, -0.0, 5e-324, 1e-6, 0.25]),
)
_spans = st.sampled_from(["", "replay", "replay/fetch", "replay/prefetch"])

_record = st.tuples(
    st.just("record"), _kinds, st.integers(-1, 300), _levels, _ints, _ints, _times,
    st.integers(-1, 50), st.sampled_from(["", "lru:a", "fifo:"]),
)
_batch = st.integers(0, 80).flatmap(lambda n: st.tuples(
    st.just("record_many"),
    st.lists(_kinds, min_size=n, max_size=n),
    st.integers(-1, 300),
    st.lists(_levels, min_size=n, max_size=n),
    st.lists(_ints, min_size=n, max_size=n),
    st.lists(_ints, min_size=n, max_size=n),
    st.lists(_times, min_size=n, max_size=n),
))
_ops = st.lists(
    st.one_of(
        _record, _record, _batch,
        st.tuples(st.just("span"), _spans),
        st.tuples(st.just("bad_batch"), st.integers(1, 5)),
        st.just(("clear",)),
    ),
    max_size=30,
)


def _apply(ring, op) -> None:
    name = op[0]
    if name == "record":
        ring.record(*op[1:])
    elif name == "record_many":
        ring.record_many(*op[1:])
    elif name == "span":
        ring.current_span = op[1]
    elif name == "bad_batch":
        n = op[1]
        kinds = ["hit"] * (n - 1) + ["frobnicate"]
        with pytest.raises(ValueError, match="unknown event kind 'frobnicate'"):
            ring.record_many(kinds, 0, ["dram"] * n, [1] * n, [8] * n, [0.5] * n)
    else:
        ring.clear()


def _windows(ring):
    total, kept = ring.n_recorded, len(ring)
    oldest = total - kept
    return sorted({0, max(0, oldest - 3), oldest, oldest + kept // 2, total - 1, total,
                   total + 5})


def _same(got: Tracer, want: ListRing) -> None:
    assert got.events() == want.events()
    assert got.n_recorded == want.n_recorded
    assert got.n_dropped == want.n_dropped
    assert len(got) == len(want)
    assert got.drop_stats() == want.drop_stats()
    for seq in _windows(want):
        expected = want.events_since(seq)
        assert got.events_since(seq) == expected
        assert got.columns_since(seq).events() == expected
        assert got.columns_since(seq).copy().events() == expected


def _differential(capacity, ops) -> None:
    got, want = Tracer(capacity), ListRing(capacity)
    for op in ops:
        _apply(got, op)
        _apply(want, op)
        _same(got, want)


@given(st.integers(1, 64), _ops)
@settings(max_examples=150, deadline=None)
def test_column_ring_matches_the_list_ring(capacity, ops):
    _differential(capacity, ops)


@pytest.mark.slow
@given(st.integers(1, 64), _ops)
@settings(max_examples=500, deadline=None)
def test_column_ring_matches_the_list_ring_wide(capacity, ops):
    _differential(capacity, ops)


def _hits(t: Tracer, n: int) -> None:
    t.record_many(["hit"] * n, 0, ["dram"] * n, list(range(n)), [8] * n, [1e-6] * n)


def test_columns_grow_by_half_up_to_the_capacity():
    """No column is allocated at full capacity up front."""
    t = Tracer(capacity=5000)
    assert len(t._cols[0]) == 0
    t.record("hit", 0, "dram", 1, 8, 1e-6)
    assert len(t._cols[0]) == 1024
    _hits(t, 1100)  # 1,101 rows
    assert len(t._cols[0]) == 1536
    _hits(t, 1000)  # 2,101 rows
    assert len(t._cols[0]) == 2304
    _hits(t, 1000)  # 3,101 rows
    assert len(t._cols[0]) == 3456
    _hits(t, 3000)
    assert all(len(c) == 5000 for c in t._cols)
    assert len(t) == 5000 and t.n_dropped == 1101


def test_no_object_per_event_lives_in_the_ring():
    """Recording adds no collector-tracked object per event."""
    import gc

    t = Tracer(capacity=1 << 12)
    t.record("hit", 0, "dram", 1, 8, 1e-6)
    gc.collect()
    before = len(gc.get_objects())
    t.record_many(["fetch"] * 3000, 2, ["hdd"] * 3000, list(range(3000)), [8] * 3000,
                  [0.5] * 3000)
    for k in range(500):
        t.record("evict", 2, "dram", k)
    gc.collect()
    assert len(gc.get_objects()) - before < 50


def test_events_are_a_snapshot_without_an_object_per_event(monkeypatch):
    """``events()`` on 100k rows adds no collector-tracked object per row,
    builds no ``TraceEvent`` for ``aggregate``, and keeps its rows after
    the ring wraps past them."""
    import gc

    import repro.trace.events as trace_events
    from repro.trace import aggregate

    n = 100_000
    t = Tracer(capacity=n)
    _hits(t, n - 1)
    t.record("render", 1, time_s=0.5)
    gc.collect()
    before = len(gc.get_objects())
    snapshot = t.events()
    gc.collect()
    assert len(gc.get_objects()) - before < 50
    real = trace_events._new_event
    monkeypatch.setattr(trace_events, "_new_event", None)  # any row built fails
    summary = aggregate(snapshot)
    assert summary.n_events == n and summary.total_bytes == 8 * (n - 1)
    monkeypatch.setattr(trace_events, "_new_event", real)
    rows = snapshot.events()
    t.record_many(["fetch"] * (n + 7), 2, ["hdd"] * (n + 7), list(range(n + 7)),
                  [64] * (n + 7), [0.25] * (n + 7))
    assert t.n_dropped == n + 7  # every snapshotted row is overwritten
    assert snapshot == rows and len(snapshot) == n
    assert t.events_since(0)[0].kind == "fetch"
