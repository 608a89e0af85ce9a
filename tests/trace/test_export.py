"""Tests for the JSONL and Chrome-trace exporters."""

import json

import numpy as np
import pytest

from repro.trace import (
    TraceColumns,
    TraceEvent,
    Tracer,
    read_jsonl,
    seq_drop_stats,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)
import repro.trace.events as trace_events
from repro.trace.events import KIND_CODES


def _sample_events():
    t = Tracer()
    t.record("preload", step=-1, level="dram", key=7)
    t.record("fetch", step=0, level="hdd", key=1, nbytes=1024, time_s=0.01)
    t.record("evict", step=0, level="dram", key=7)
    t.record("hit", step=1, level="dram", key=1, nbytes=1024, time_s=1e-6)
    t.record("prefetch", step=1, level="ssd", key=2, nbytes=1024, time_s=0.002)
    t.record("render", step=1, time_s=0.05)
    t.record("bypass", step=2, level="dram", key=3)
    return t.events()


class TestJsonl:
    def test_round_trip_preserves_events(self, tmp_path):
        events = _sample_events()
        path = write_jsonl(events, tmp_path / "t.jsonl")
        back = read_jsonl(path)
        assert len(back) == len(events)
        assert back == events

    def test_one_json_object_per_line(self, tmp_path):
        events = _sample_events()
        path = write_jsonl(events, tmp_path / "t.jsonl")
        lines = path.read_text().strip().splitlines()
        assert len(lines) == len(events)
        for line in lines:
            d = json.loads(line)
            assert {"seq", "kind", "step", "level", "key", "nbytes", "time_s"} <= set(d)

    def test_blank_lines_ignored(self, tmp_path):
        events = _sample_events()
        path = write_jsonl(events, tmp_path / "t.jsonl")
        path.write_text(path.read_text() + "\n\n")
        assert read_jsonl(path) == events

    def test_drops_follow_from_seq(self, tmp_path):
        complete = read_jsonl(write_jsonl(_sample_events(), tmp_path / "t.jsonl"))
        assert seq_drop_stats(complete) is None
        t = Tracer(capacity=3)
        for k in range(8):
            t.record("hit", step=k, level="dram", key=k, nbytes=8)
        wrapped = read_jsonl(write_jsonl(t.events(), tmp_path / "w.jsonl"))
        assert [e.seq for e in wrapped] == [5, 6, 7]
        assert seq_drop_stats(wrapped) == {"n_recorded": 8, "n_retained": 3, "n_dropped": 5}
        assert seq_drop_stats(TraceColumns.concat([complete[:2], complete[3:]])) == {
            "n_recorded": 7, "n_retained": 6, "n_dropped": 1,
        }
        assert seq_drop_stats([]) is None

    def test_event_dict_round_trip(self):
        e = TraceEvent(0, "fetch", 1, "hdd", 2, 1024, 0.5)
        assert TraceEvent.from_dict(e.as_dict()) == e

    def test_fixed_events_write_pinned_lines(self, tmp_path):
        path = write_jsonl(_PINNED_EVENTS, tmp_path / "t.jsonl")
        assert path.read_text().splitlines() == _PINNED_LINES
        assert read_jsonl(path) == _PINNED_EVENTS


#: Events covering every field, defaults and float edge cases, with the
#: JSONL lines written for them.
_PINNED_EVENTS = [
    TraceEvent(0, "fetch", 0, "hdd", 7, 4096, 0.1),
    TraceEvent(1, "hit", 0, "dram", 3, 4096, 5e-324, span="replay/fetch"),
    TraceEvent(2, "prefetch", 1, "ssd", -1, 16384, 1e3, span="replay/prefetch"),
    TraceEvent(3, "re_miss", 2, "dram", 9, 0, 0.0, age_steps=2, origin="lru:alice"),
    TraceEvent(4, "render", 2, "", -1, 0, 0.30000000000000004),
]
_PINNED_LINES = [
    '{"seq":0,"kind":"fetch","step":0,"level":"hdd","key":7,"nbytes":4096,"time_s":0.1,'
    '"span":"","age_steps":-1,"origin":""}',
    '{"seq":1,"kind":"hit","step":0,"level":"dram","key":3,"nbytes":4096,"time_s":5e-324,'
    '"span":"replay/fetch","age_steps":-1,"origin":""}',
    '{"seq":2,"kind":"prefetch","step":1,"level":"ssd","key":-1,"nbytes":16384,'
    '"time_s":1000.0,"span":"replay/prefetch","age_steps":-1,"origin":""}',
    '{"seq":3,"kind":"re_miss","step":2,"level":"dram","key":9,"nbytes":0,"time_s":0.0,'
    '"span":"","age_steps":2,"origin":"lru:alice"}',
    '{"seq":4,"kind":"render","step":2,"level":"","key":-1,"nbytes":0,'
    '"time_s":0.30000000000000004,"span":"","age_steps":-1,"origin":""}',
]


#: ``json.dumps(to_chrome_trace(_PINNED_EVENTS[::-1], time_scale=1e3))``, as
#: the writer that sorted every event into one list gave it.
_PINNED_CHROME = (
    '{"traceEvents": [{"name": "process_name", "ph": "M", "pid": 0, "tid": 0, '
    '"args": {"name": "repro"}}, {"name": "fetch 7", "cat": "fetch", "ph": "X", '
    '"ts": 0.0, "dur": 100.0, "pid": 0, "tid": "io:hdd", "args": {"seq": 0, '
    '"step": 0, "key": 7, "nbytes": 4096, "time_s": 0.1}}, {"name": "hit 3", '
    '"cat": "hit", "ph": "X", "ts": 100.0, "dur": 0.001, "pid": 0, "tid": "io:dram", '
    '"args": {"seq": 1, "step": 0, "key": 3, "nbytes": 4096, "time_s": 5e-324, '
    '"span": "replay/fetch"}}, {"name": "prefetch", "cat": "prefetch", "ph": "X", '
    '"ts": 100.0, "dur": 1000000.0, "pid": 0, "tid": "io:ssd", "args": {"seq": 2, '
    '"step": 1, "key": -1, "nbytes": 16384, "time_s": 1000.0, '
    '"span": "replay/prefetch"}}, {"name": "re_miss 9", "cat": "re_miss", "ph": "i", '
    '"s": "t", "ts": 1000100.0, "pid": 0, "tid": "cache:dram", "args": {"seq": 3, '
    '"step": 2, "key": 9, "nbytes": 0, "time_s": 0.0, "age_steps": 2, '
    '"origin": "lru:alice"}}, {"name": "render", "cat": "render", "ph": "X", '
    '"ts": 1000100.0, "dur": 300.00000000000006, "pid": 0, "tid": "render", '
    '"args": {"seq": 4, "step": 2, "key": -1, "nbytes": 0, '
    '"time_s": 0.30000000000000004}}], "displayTimeUnit": "ms"}'
)


class TestTraceEventTuple:
    def test_fields_are_read_only(self):
        e = TraceEvent(0, "fetch", 1, "hdd", 2, 1024, 0.5)
        with pytest.raises(AttributeError):
            e.kind = "hit"
        with pytest.raises(AttributeError):
            e.extra = 1

    def test_as_dict_has_ten_fields_in_order_with_defaults(self):
        d = TraceEvent(0, "fetch", 1, "hdd", 2, 1024, 0.5).as_dict()
        assert list(d) == [
            "seq", "kind", "step", "level", "key", "nbytes", "time_s",
            "span", "age_steps", "origin",
        ]
        assert d == {
            "seq": 0, "kind": "fetch", "step": 1, "level": "hdd", "key": 2,
            "nbytes": 1024, "time_s": 0.5, "span": "",
            "age_steps": -1, "origin": "",
        }

    @pytest.mark.parametrize("e", _PINNED_EVENTS)
    def test_from_dict_inverts_as_dict(self, e):
        assert TraceEvent.from_dict(e.as_dict()) == e


class TestChromeTrace:
    def test_structure(self):
        doc = to_chrome_trace(_sample_events())
        assert isinstance(doc["traceEvents"], list)
        # metadata event + one per trace event
        assert len(doc["traceEvents"]) == len(_sample_events()) + 1
        for ev in doc["traceEvents"]:
            assert "ph" in ev and "pid" in ev and "tid" in ev

    def test_duration_events_for_io_and_render(self):
        doc = to_chrome_trace(_sample_events())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert {e["cat"] for e in complete} == {"fetch", "hit", "prefetch", "render"}
        for e in complete:
            assert e["dur"] > 0

    def test_instants_for_cache_maintenance(self):
        doc = to_chrome_trace(_sample_events())
        instants = {e["cat"] for e in doc["traceEvents"] if e["ph"] == "i"}
        assert instants == {"preload", "evict", "bypass"}

    def test_timestamps_monotonic(self):
        doc = to_chrome_trace(_sample_events())
        ts = [e["ts"] for e in doc["traceEvents"] if e["ph"] in ("X", "i")]
        assert ts == sorted(ts)

    def test_serialises_to_valid_json(self, tmp_path):
        path = write_chrome_trace(_sample_events(), tmp_path / "trace.json")
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_time_scale_validation(self):
        with pytest.raises(ValueError):
            to_chrome_trace(_sample_events(), time_scale=0)


def _traced_run():
    """A 4-node replay under node chaos: every kind but ``re_miss``."""
    from repro.camera.path import random_path
    from repro.cluster import cluster_fault_plan, make_sharded_hierarchy
    from repro.core.pipeline import PipelineContext
    from repro.faults import FaultInjector
    from repro.runtime import run_baseline
    from repro.volume.blocks import BlockGrid

    grid = BlockGrid((32, 32, 32), (8, 8, 8))
    path = random_path(n_positions=8, degree_change=(5.0, 10.0), distance=2.5,
                       view_angle_deg=10.0, seed=11)
    h = make_sharded_hierarchy(grid, 4, cache_ratio=0.5)
    h.set_fault_injector(FaultInjector(cluster_fault_plan("node-chaos", 4, seed=7)))
    tracer = Tracer()
    run_baseline(PipelineContext.create(path, grid), h, tracer=tracer)
    return tracer.events()


class TestStreamedChromeTrace:
    """``write_chrome_trace`` writes one event at a time from the columns;
    its file is ``json.dumps`` of ``to_chrome_trace``'s dict."""

    def test_pinned_document(self, tmp_path):
        doc = to_chrome_trace(_PINNED_EVENTS[::-1], time_scale=1e3)
        assert json.dumps(doc) == _PINNED_CHROME
        path = write_chrome_trace(_PINNED_EVENTS[::-1], tmp_path / "t.json", time_scale=1e3)
        assert path.read_text() == _PINNED_CHROME

    def test_file_is_json_dumps_of_the_dict(self, tmp_path):
        import random

        events = _traced_run()
        kinds = {e.kind for e in events}
        assert {"xfer", "fault", "retry", "degraded", "render", "evict"} <= kinds
        shuffled = random.Random(0).sample(events.events(), len(events))
        assert [e.seq for e in shuffled] != sorted(e.seq for e in shuffled)
        files = []
        for i, rows in enumerate((events, shuffled, events.take(np.argsort(-events.seq)))):
            path = write_chrome_trace(rows, tmp_path / f"t{i}.json")
            files.append(path.read_bytes())
            assert files[-1] == json.dumps(to_chrome_trace(rows)).encode()
        assert files[0] == files[1] == files[2]  # written in seq order

    def test_equal_seqs_keep_their_order(self):
        rows = [TraceEvent(0, "fetch", 0, "hdd", 1, 8, 0.5),
                TraceEvent(0, "hit", 0, "dram", 2, 8, 0.25)]
        doc = to_chrome_trace(rows)
        assert [e["name"] for e in doc["traceEvents"][1:]] == ["fetch 1", "hit 2"]
        assert [e["ts"] for e in doc["traceEvents"][1:]] == [0.0, 0.5e6]

    def test_empty_trace(self, tmp_path):
        path = write_chrome_trace([], tmp_path / "t.json")
        assert path.read_text() == json.dumps(to_chrome_trace(TraceColumns.empty()))
        assert len(json.loads(path.read_text())["traceEvents"]) == 1

    def test_bad_input_raises_before_the_file_exists(self, tmp_path):
        with pytest.raises(ValueError, match="time_scale"):
            write_chrome_trace(_sample_events(), tmp_path / "x" / "t.json", time_scale=0)
        with pytest.raises(ValueError, match="unknown event kind"):
            write_chrome_trace([TraceEvent(0, "frobnicate", 0, "", 1, 0, 0.0)],
                               tmp_path / "x" / "t.json")
        with pytest.raises(ValueError, match="would not be finite"):  # 1e309 microseconds
            write_chrome_trace([TraceEvent(0, "fetch", 0, "hdd", 1, 8, 1e303)],
                               tmp_path / "x" / "t.json")
        assert not (tmp_path / "x").exists()

    def test_builds_no_trace_event(self, tmp_path, monkeypatch):
        def refuse(row):
            raise AssertionError("a TraceEvent was built")

        events = _traced_run()
        want = json.dumps(to_chrome_trace(events))
        monkeypatch.setattr(trace_events, "_new_event", refuse)
        assert write_chrome_trace(events, tmp_path / "t.json").read_text() == want

    @pytest.mark.slow  # tracemalloc makes each writer about 13x slower
    def test_peak_memory_at_most_the_jsonl_writers(self, tmp_path):
        """On a 100,000-row snapshot the Chrome writer's traced peak stays
        at or below the JSONL writer's on the same rows."""
        import gc
        import tracemalloc

        n = 100_000
        t = Tracer(capacity=n)
        t.current_span = "replay/fetch"
        keys = np.arange(n) % 4096
        for lo in range(0, n, 1000):
            t.record_codes(lo // 1000, KIND_CODES["hit"], t.level_code("dram"),
                           keys[lo : lo + 1000], 4096, 1e-6 * (1 + keys[lo : lo + 1000] % 7))
        snapshot = t.events()
        del t
        peaks = {}
        for name, write in (("jsonl", write_jsonl), ("chrome", write_chrome_trace)):
            gc.collect()
            tracemalloc.start()
            try:
                write(snapshot, tmp_path / name)
                peaks[name] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peaks["chrome"] <= peaks["jsonl"], peaks


def _one_of_every_kind():
    """One event per kind with every field set to a non-default value."""
    from repro.trace import EVENT_KINDS

    events = []
    for i, kind in enumerate(EVENT_KINDS):
        events.append(
            TraceEvent(
                seq=i,
                kind=kind,
                step=i % 3,
                level="dram" if kind != "render" else "",
                key=100 + i,
                nbytes=1024 * i,
                time_s=0.001 * i,
                span=f"replay/{kind}",
                age_steps=4 if kind == "re_miss" else -1,
                origin="lru:alice" if kind == "re_miss" else "",
            )
        )
    return events


class TestRoundTripAllFields:
    def test_every_kind_every_field(self, tmp_path):
        """write_jsonl -> read_jsonl preserves every TraceEvent field for
        every event kind, including fault/retry/degraded/re_miss."""
        events = _one_of_every_kind()
        back = read_jsonl(write_jsonl(events, tmp_path / "all.jsonl"))
        assert back == events
        for orig, rt in zip(events, back):
            for field in ("seq", "kind", "step", "level", "key", "nbytes",
                          "time_s", "span", "age_steps", "origin"):
                assert getattr(rt, field) == getattr(orig, field), field

    def test_empty_file_one_line_error(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        with pytest.raises(ValueError) as exc:
            read_jsonl(path)
        msg = str(exc.value)
        assert "empty trace file" in msg and "\n" not in msg

    def test_truncated_line_one_line_error(self, tmp_path):
        path = tmp_path / "trunc.jsonl"
        path.write_text('{"seq":0,"kind":"hit","step":0,"level":"dram","ke')
        with pytest.raises(ValueError) as exc:
            read_jsonl(path)
        msg = str(exc.value)
        assert "truncated or corrupt" in msg and ":1:" in msg and "\n" not in msg

    def test_missing_field_one_line_error(self, tmp_path):
        path = tmp_path / "missing.jsonl"
        path.write_text('{"seq":0,"kind":"hit"}\n')
        with pytest.raises(ValueError, match="truncated or corrupt"):
            read_jsonl(path)


class TestTrackForAllKinds:
    def test_track_pinned_for_every_kind(self):
        """Every event kind maps to a stable Chrome-trace track."""
        from repro.trace import EVENT_KINDS
        from repro.trace.export import _track_for

        expected = {
            "fetch": "io:dram",
            "hit": "io:dram",
            "prefetch": "io:dram",
            "preload": "cache:dram",
            "evict": "cache:dram",
            "bypass": "cache:dram",
            "render": "render",
            "fault": "io:dram",
            "retry": "io:dram",
            "degraded": "io:dram",
            "xfer": "net:dram",
            "re_miss": "cache:dram",
        }
        assert set(expected) == set(EVENT_KINDS)
        for kind, track in expected.items():
            assert _track_for(kind, "dram" if kind != "render" else "") == track, kind

    def test_levelless_events_fall_back_to_bare_tracks(self):
        from repro.trace.export import _track_for

        assert _track_for("fetch", "") == "io"
        assert _track_for("evict", "") == "cache"

    def test_re_miss_chrome_args_carry_forensics_fields(self):
        e = TraceEvent(0, "re_miss", 2, "dram", 7, 0, 0.0,
                       age_steps=3, origin="lru:bob")
        doc = to_chrome_trace([e])
        (ev,) = [x for x in doc["traceEvents"] if x.get("cat") == "re_miss"]
        assert ev["ph"] == "i"  # zero-time marker, not a duration
        assert ev["args"]["age_steps"] == 3
        assert ev["args"]["origin"] == "lru:bob"
