"""Tests for per-step timeline aggregation."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.path import random_path
from repro.cluster import cluster_fault_plan, make_sharded_hierarchy
from repro.core.pipeline import PipelineContext
from repro.experiments.report import format_trace_report
from repro.faults import FaultInjector
from repro.runtime import run_baseline
from repro.trace import EVENT_KINDS, TraceColumns, TraceEvent, Tracer, aggregate
import repro.trace.events as trace_events
from repro.volume.blocks import BlockGrid
from tests.trace._aggregate_reference import aggregate_events


def _trace():
    t = Tracer()
    t.record("preload", step=-1, level="dram", key=5)
    t.record("fetch", step=0, level="hdd", key=1, nbytes=1000, time_s=0.01)
    t.record("evict", step=0, level="dram", key=5)
    t.record("hit", step=0, level="dram", key=5, nbytes=1000, time_s=1e-6)
    t.record("prefetch", step=0, level="ssd", key=2, nbytes=1000, time_s=0.002)
    t.record("render", step=0, time_s=0.5)
    t.record("hit", step=1, level="dram", key=1, nbytes=1000, time_s=1e-6)
    t.record("bypass", step=1, level="dram", key=9)
    return t.events()


class TestAggregate:
    def test_rows_sorted_with_preload_first(self):
        s = aggregate(_trace())
        assert [row.step for row in s.steps] == [-1, 0, 1]

    def test_step_counters(self):
        s = aggregate(_trace())
        pre, s0, s1 = s.steps
        assert pre.preloads == 1
        assert s0.hits == 1 and s0.demand_fetches == 1 and s0.prefetches == 1
        assert s0.evictions == 1
        assert s1.hits == 1 and s1.bypasses == 1

    def test_byte_split(self):
        s = aggregate(_trace())
        assert s.demand_bytes == 3000  # fetch + two hits
        assert s.prefetch_bytes == 1000
        assert s.total_bytes == 4000

    def test_level_bytes(self):
        s = aggregate(_trace())
        assert s.level_bytes["hdd"] == {"demand": 1000, "prefetch": 0}
        assert s.level_bytes["dram"] == {"demand": 2000, "prefetch": 0}
        assert s.level_bytes["ssd"] == {"demand": 0, "prefetch": 1000}

    def test_coverage(self):
        s = aggregate(_trace())
        _, s0, s1 = s.steps
        assert s0.fast_coverage == 0.5  # 1 hit, 1 demand fetch
        assert s1.fast_coverage == 1.0
        assert s.mean_fast_coverage == 0.75  # preload row excluded

    def test_render_time(self):
        s = aggregate(_trace())
        assert s.steps[1].render_time_s == 0.5

    def test_empty_trace(self):
        s = aggregate([])
        assert s.steps == [] and s.total_bytes == 0
        assert s.mean_fast_coverage == 1.0

    def test_trace_report_shows_network_and_faults(self):
        # A 4-node node-chaos replay: the `repro trace` text report must
        # carry its peer transfers and its failed reads, not only totals.
        grid = BlockGrid((32, 32, 32), (8, 8, 8))
        path = random_path(
            n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
            view_angle_deg=10.0, seed=11,
        )
        h = make_sharded_hierarchy(grid, 4, cache_ratio=0.5)
        h.set_fault_injector(FaultInjector(cluster_fault_plan("node-chaos", 4, seed=7)))
        tracer = Tracer()
        run_baseline(PipelineContext.create(path, grid), h, tracer=tracer)
        s = aggregate(tracer.events())
        assert s.total_xfers > 0 and s.total_faults > 0
        text = format_trace_report(s, title="sharded")
        assert "trace total:" in text
        assert f"network: {s.total_xfers} peer transfers" in text
        assert f"faults: {s.total_faults} failed reads, {s.total_retries} retries" in text

    def test_trace_report_single_box_has_no_network_line(self):
        text = format_trace_report(aggregate(_trace()))
        assert "preload" in text  # the preload row label
        assert "network:" not in text and "faults:" not in text


# -- the column fold against the event loop (tests/trace/_aggregate_reference) --

_rows = st.lists(
    st.tuples(
        st.sampled_from(EVENT_KINDS),
        st.integers(-1, 3),  # step
        st.sampled_from(["", "dram", "ssd", "hdd", "n0-n1"]),  # level
        st.integers(-1, 2**20),  # key
        st.integers(-(2**40), 2**40),  # nbytes
        st.one_of(  # time_s: sums whose rounding depends on the order
            st.floats(allow_nan=False, allow_infinity=False, allow_subnormal=True),
            st.sampled_from([0.0, -0.0, 5e-324, 1e-6, 0.1, 0.2, 0.3, 1.0, 1e16]),
        ),
        st.sampled_from(["", "replay", "replay/fetch"]),  # span
    ),
    max_size=120,
)


def _fields(summary):
    """Every value of a summary, each with its type and its repr (so a
    float must match bit for bit, sign of zero included)."""
    steps = [
        [(f.name, type(v), repr(v)) for f in dataclasses.fields(row)
         for v in [getattr(row, f.name)]]
        for row in summary.steps
    ]
    return steps, list(summary.level_bytes.items()), summary.n_events


def _fold_both_ways(rows, capacity):
    """Record ``rows`` into a ring of ``capacity`` (so a wrap leaves the
    oldest rows out), then fold its columns, their event list and their
    columns rebuilt from that list, each against the event loop.  Rows
    whose time sums could leave the finite floats (twice ``n`` times the
    largest time overflows) raise instead, in every form."""
    tracer = Tracer(capacity)
    for kind, step, level, key, nbytes, time_s, span in rows:
        tracer.current_span = span
        tracer.record(kind, step, level, key, nbytes, time_s)
    cols = tracer.events()
    events = cols.events()
    if not math.isfinite(2.0 * len(events) * max((abs(e.time_s) for e in events), default=0)):
        for form in (cols, events, TraceColumns.from_events(events)):
            with pytest.raises(ValueError, match="could leave the finite floats"):
                aggregate(form)
        return
    want = _fields(aggregate_events(events))
    assert _fields(aggregate(cols)) == want
    assert _fields(aggregate(events)) == want
    assert _fields(aggregate(TraceColumns.from_events(events))) == want


@given(_rows, st.integers(1, 150))
@settings(max_examples=200, deadline=None)
def test_column_fold_matches_the_event_loop(rows, capacity):
    _fold_both_ways(rows, capacity)


@pytest.mark.slow
@given(_rows, st.integers(1, 150))
@settings(max_examples=1500, deadline=None)
def test_column_fold_matches_the_event_loop_wide(rows, capacity):
    _fold_both_ways(rows, capacity)


def test_column_fold_covers_every_kind():
    """One row of every kind at two steps and the preload step."""
    rows = [(kind, step, level, 7, 64 * (i + 1), 0.1 * (i + 1), "")
            for step in (-1, 0, 3)
            for i, (kind, level) in enumerate(zip(EVENT_KINDS, ["", "dram", "ssd"] * 4))]
    _fold_both_ways(rows, len(rows))


def test_float_sums_keep_the_event_order():
    """Per-step times are added in event order (0.1 + 0.2 + 0.3 is not
    0.3 + 0.2 + 0.1), over runs long enough for pairwise summation."""
    times = [0.1, 0.2, 0.3, 1e16, 1.0, 1e-6, 3.3, -1e16, 0.7]
    rows = [(("fetch", "hit", "retry", "fault", "render")[i % 5], i % 2, "dram", i, 8,
             times[i % len(times)] * (1 + i / 7), "") for i in range(400)]
    _fold_both_ways(rows, len(rows))
    t = Tracer()
    t.record_many(["fetch"] * 3, 0, ["dram"] * 3, [1, 2, 3], [8] * 3, [0.1, 0.2, 0.3])
    assert aggregate(t.events()).steps[0].demand_time_s == (0.1 + 0.2) + 0.3 != 0.6


def test_column_fold_builds_no_trace_event(monkeypatch):
    def refuse(row):
        raise AssertionError("a TraceEvent was built")

    monkeypatch.setattr(trace_events, "_new_event", refuse)
    summary = aggregate(_trace())
    assert summary.n_events == 8 and summary.total_bytes == 4000


def test_sums_past_int64_raise():
    """The fold sums bytes in int64: columns whose sums could leave it
    raise a one-line error instead of wrapping, and sums that reach the
    edge still fold."""
    t = Tracer()
    t.record("fetch", step=0, level="hdd", key=1, nbytes=2**62)
    t.record("fetch", step=0, level="hdd", key=2, nbytes=2**62)
    with pytest.raises(ValueError, match="could leave int64") as exc:
        aggregate(t.events())
    assert "\n" not in str(exc.value)
    t.clear()
    t.record("fetch", step=0, level="hdd", key=1, nbytes=2**62 - 1)
    t.record("fetch", step=0, level="hdd", key=2, nbytes=-(2**62 - 1))
    assert aggregate(t.events()).steps[0].demand_bytes == 0


def test_time_sums_past_the_finite_floats_raise():
    """Times whose sums could overflow (or that are not finite) raise a
    one-line error instead of folding to ``inf``; large ones that fit
    still fold."""
    for times in ([1e308, 1e308], [float("inf")], [float("nan")], [1.0, 8e307]):
        t = Tracer()
        t.record_many(["fetch"] * len(times), 0, ["hdd"] * len(times),
                      list(range(len(times))), [8] * len(times), times)
        with pytest.raises(ValueError, match="could leave the finite floats") as exc:
            aggregate(t.events())
        assert "\n" not in str(exc.value)
    t = Tracer()
    t.record_many(["fetch"] * 2, 0, ["hdd"] * 2, [1, 2], [8] * 2, [1e303, 1e303])
    assert aggregate(t.events()).steps[0].demand_time_s == 2e303


def test_event_lists_with_unknown_kinds_raise():
    """A list is folded as its columns, which hold only the event kinds."""
    with pytest.raises(ValueError, match="unknown event kind 'frobnicate'"):
        aggregate([TraceEvent(0, "frobnicate", 4, "dram", 1, 8, 0.5)])
