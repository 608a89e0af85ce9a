"""Tests for the ring-buffer tracer and its no-op twin."""

from operator import getitem

import numpy as np
import pytest

from repro.trace import NULL_TRACER, EVENT_KINDS, NullTracer, TraceColumns, TraceEvent, Tracer
import repro.trace.events as trace_events
from repro.trace.events import _CHUNK


class TestRecording:
    def test_events_in_order(self):
        t = Tracer(capacity=16)
        t.record("fetch", step=0, level="hdd", key=1, nbytes=100, time_s=0.5)
        t.record("hit", step=1, level="dram", key=1, nbytes=100, time_s=0.01)
        t.record("render", step=1, time_s=0.2)
        kinds = [e.kind for e in t.events()]
        assert kinds == ["fetch", "hit", "render"]
        assert [e.seq for e in t.events()] == [0, 1, 2]

    def test_event_fields(self):
        t = Tracer()
        t.record("prefetch", step=3, level="ssd", key=42, nbytes=2048, time_s=1.5)
        (e,) = t.events()
        assert e.step == 3 and e.level == "ssd" and e.key == 42
        assert e.nbytes == 2048 and e.time_s == 1.5

    def test_unknown_kind_rejected(self):
        t = Tracer()
        with pytest.raises(ValueError, match="unknown event kind"):
            t.record("frobnicate")

    def test_all_declared_kinds_accepted(self):
        t = Tracer()
        for kind in EVENT_KINDS:
            t.record(kind)
        assert len(t) == len(EVENT_KINDS)

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestRingOverflow:
    def test_oldest_dropped_first(self):
        t = Tracer(capacity=3)
        for k in range(5):
            t.record("fetch", step=k, key=k)
        events = t.events()
        assert len(events) == 3
        assert [e.step for e in events] == [2, 3, 4]  # 0 and 1 overwritten

    def test_counters_survive_wraparound(self):
        t = Tracer(capacity=3)
        for k in range(10):
            t.record("evict", key=k)
        assert t.n_recorded == 10
        assert t.n_dropped == 7
        assert len(t) == 3

    def test_seq_numbers_monotonic_across_wrap(self):
        t = Tracer(capacity=2)
        for k in range(5):
            t.record("hit", key=k)
        seqs = [e.seq for e in t.events()]
        assert seqs == [3, 4]

    def test_clear_resets_ring_and_counters(self):
        t = Tracer(capacity=2)
        for k in range(5):
            t.record("hit", key=k)
        t.clear()
        assert len(t) == 0 and t.n_recorded == 0 and t.n_dropped == 0
        t.record("hit", key=9)
        assert [e.seq for e in t.events()] == [0]


class TestNullTracer:
    def test_disabled_and_inert(self):
        n = NullTracer()
        assert not n.enabled
        n.record("fetch", step=0, key=1, nbytes=10, time_s=0.1)
        assert n.events() == []
        assert len(n) == 0
        assert n.n_recorded == 0 and n.n_dropped == 0
        n.clear()

    def test_shared_singleton_is_disabled(self):
        assert not NULL_TRACER.enabled

    def test_tracer_enabled_flag(self):
        assert Tracer().enabled


def _rows(n, kinds=("hit", "fetch", "evict", "xfer")):
    return (
        [kinds[i % len(kinds)] for i in range(n)],
        [f"lv{i % 3}" for i in range(n)],
        list(range(100, 100 + n)),
        [8 * i for i in range(n)],
        [0.5 * i for i in range(n)],
    )


def _loop(tracer, step, rows):
    for kind, level, key, nbytes, time_s in zip(*rows):
        tracer.record(kind, step, level, key, nbytes, time_s)


class TestRecordMany:
    """``record_many`` is exactly a loop of ``record``."""

    @pytest.mark.parametrize(
        "capacity, before, batches",
        [
            (64, 0, [10]),  # fits
            (8, 0, [20]),  # one batch larger than the ring
            (8, 5, [6]),  # fills the ring, then wraps mid-batch
            (8, 13, [3, 17, 1, 8]),  # already wrapped, batches of every size
            (5, 2, [5, 0, 4]),
        ],
    )
    def test_equals_a_record_loop(self, capacity, before, batches):
        got, want = Tracer(capacity), Tracer(capacity)
        for t in (got, want):
            _loop(t, -1, _rows(before))
        for step, n in enumerate(batches):
            rows = _rows(n)
            got.current_span = want.current_span = f"replay/step{step}"
            got.record_many(rows[0], step, *rows[1:])
            _loop(want, step, rows)
            assert got.events() == want.events()
            assert got.n_recorded == want.n_recorded
            assert got.n_dropped == want.n_dropped
            assert len(got) == len(want)
            for seq in range(got.n_recorded + 1):
                assert got.events_since(seq) == want.events_since(seq)
        got.record("render", 9, time_s=1.0)
        want.record("render", 9, time_s=1.0)
        assert got.events() == want.events()  # the ring cursor carries on

    def test_fields_and_span(self):
        t = Tracer()
        t.current_span = "replay/fetch"
        t.record_many(["fetch", "evict"], 4, ["hdd", "dram"], [7, 3], [64, 0], [0.25, 0.0])
        a, b = t.events()
        assert (a.seq, a.kind, a.step, a.level, a.key, a.nbytes, a.time_s) == (
            0, "fetch", 4, "hdd", 7, 64, 0.25
        )
        assert (b.seq, b.kind, b.level, b.key) == (1, "evict", "dram", 3)
        assert a.span == b.span == "replay/fetch"
        assert (a.age_steps, a.origin) == (-1, "")

    def test_unknown_kind_rejects_the_whole_batch(self):
        t = Tracer()
        with pytest.raises(ValueError, match="unknown event kind 'frobnicate'"):
            t.record_many(["hit", "frobnicate"], 0, ["a", "b"], [1, 2], [0, 0], [0.0, 0.0])
        assert t.n_recorded == 0 and t.events() == []

    def test_empty_batch_is_a_no_op(self):
        t = Tracer(capacity=2)
        t.record_many([], 0, [], [], [], [])
        assert t.n_recorded == 0

    def test_null_tracer_ignores_batches(self):
        n = NullTracer()
        n.record_many(["hit"], 0, ["dram"], [1], [8], [0.1])
        assert n.events() == [] and n.n_recorded == 0
        NULL_TRACER.record_many(["frobnicate"], 0, [""], [0], [0], [0.0])


def _varied(n: int, capacity: int = 1 << 20) -> TraceColumns:
    """``tracer.events()`` of ``n`` rows that differ in every field."""
    t = Tracer(capacity)
    t.level_code("ssd")  # a table code no row uses
    for i in range(n):
        t.current_span = ("", "replay", "replay/fetch")[i % 3]
        t.record(EVENT_KINDS[i % len(EVENT_KINDS)], i % 7 - 1, ("", "dram", "hdd")[i % 3],
                 i, 8 * i, 0.25 * i, i % 5 - 1, ("", "lru:a")[i % 2])
    return t.events()


class TestEventSequence:
    """``events()`` reads as the ``TraceEvent`` list ``TraceColumns.events``
    builds."""

    def test_len_and_int_indexing(self):
        cols = _varied(23)
        rows = cols.events()
        assert len(cols) == len(rows) == 23
        for i in (0, 1, 11, 22, -1, -5, -23, np.int64(3)):
            assert cols[i] == rows[i]
            assert type(cols[i]) is TraceEvent
        for i in (23, 24, -24, 10**9):
            pytest.raises(IndexError, getitem, cols, i)
        pytest.raises(TypeError, getitem, cols, 1.5)
        pytest.raises(IndexError, getitem, TraceColumns.empty(), 0)

    @pytest.mark.parametrize("part", [
        slice(None), slice(3, 9), slice(-4, None), slice(None, -20), slice(None, None, -1),
        slice(1, 20, 3), slice(9, 3), slice(30, 40),
    ])
    def test_slices_are_columns_of_the_same_rows(self, part):
        cols = _varied(23)
        got = cols[part]
        assert isinstance(got, TraceColumns)
        assert got.events() == cols.events()[part]

    def test_iteration_across_a_chunk_boundary(self, monkeypatch):
        n = _CHUNK + 5
        t = Tracer(n)
        t.current_span = "replay"
        t.record_many(["hit", "fetch"] * (n // 2) + ["evict"], 3, ["dram", "hdd"] * (n // 2)
                      + [""], list(range(n)), [8] * n, [0.5] * n)
        cols = t.events()
        built = []
        real = trace_events._new_event
        monkeypatch.setattr(trace_events, "_new_event", lambda row: built.append(1) or real(row))
        it = iter(cols)
        first = next(it)
        assert first == TraceEvent(0, "hit", 3, "dram", 0, 8, 0.5, "replay")
        assert len(built) == _CHUNK  # one chunk, not the whole sequence
        rows = [first, *it]
        assert len(built) == n
        assert rows == cols.events() and len(rows) == n
        assert [e.seq for e in rows] == list(range(n))
        assert rows[_CHUNK - 1 : _CHUNK + 1] == [
            TraceEvent(_CHUNK - 1, "fetch", 3, "hdd", _CHUNK - 1, 8, 0.5, "replay"),
            TraceEvent(_CHUNK, "hit", 3, "dram", _CHUNK, 8, 0.5, "replay"),
        ]
        assert rows[-1] == TraceEvent(n - 1, "evict", 3, "", n - 1, 8, 0.5, "replay")

    def test_equality_both_ways(self):
        cols = _varied(23)
        rows = cols.events()
        other = TraceColumns.from_events(rows)  # its own intern tables
        assert other.levels != cols.levels
        assert cols == rows and rows == cols
        assert cols == tuple(rows) and tuple(rows) == cols
        assert cols == other and other == cols
        assert cols == cols.copy()
        changed = list(rows)
        changed[7] = changed[7]._replace(nbytes=changed[7].nbytes + 1)
        assert cols != changed and changed != cols
        assert cols != TraceColumns.from_events(changed)
        assert cols != rows[:-1] and rows[:-1] != cols
        assert cols != cols[:-1] and cols[1:] != cols
        assert TraceColumns.empty() == [] and [] == TraceColumns.empty()
        assert cols != 23 and cols != "events"
