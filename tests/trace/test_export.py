"""Tests for the JSONL and Chrome-trace exporters."""

import json

import pytest

from repro.trace import (
    TraceEvent,
    Tracer,
    read_jsonl,
    seq_drop_stats,
    to_chrome_trace,
    write_chrome_trace,
    write_jsonl,
)


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
        assert seq_drop_stats(complete[:2] + complete[3:]) == {
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
#: JSONL lines the frozen-dataclass ``TraceEvent`` wrote for them.
_PINNED_EVENTS = [
    TraceEvent(0, "fetch", 0, "hdd", 7, 4096, 0.1),
    TraceEvent(1, "hit", 0, "dram", 3, 4096, 5e-324, span="replay/fetch"),
    TraceEvent(2, "prefetch", 1, "ssd", -1, 16384, 1e3, span="replay/prefetch", count=4),
    TraceEvent(3, "re_miss", 2, "dram", 9, 0, 0.0, age_steps=2, origin="lru:alice"),
    TraceEvent(4, "render", 2, "", -1, 0, 0.30000000000000004),
]
_PINNED_LINES = [
    '{"seq":0,"kind":"fetch","step":0,"level":"hdd","key":7,"nbytes":4096,"time_s":0.1,'
    '"span":"","count":1,"age_steps":-1,"origin":""}',
    '{"seq":1,"kind":"hit","step":0,"level":"dram","key":3,"nbytes":4096,"time_s":5e-324,'
    '"span":"replay/fetch","count":1,"age_steps":-1,"origin":""}',
    '{"seq":2,"kind":"prefetch","step":1,"level":"ssd","key":-1,"nbytes":16384,'
    '"time_s":1000.0,"span":"replay/prefetch","count":4,"age_steps":-1,"origin":""}',
    '{"seq":3,"kind":"re_miss","step":2,"level":"dram","key":9,"nbytes":0,"time_s":0.0,'
    '"span":"","count":1,"age_steps":2,"origin":"lru:alice"}',
    '{"seq":4,"kind":"render","step":2,"level":"","key":-1,"nbytes":0,'
    '"time_s":0.30000000000000004,"span":"","count":1,"age_steps":-1,"origin":""}',
]


class TestTraceEventTuple:
    def test_fields_are_read_only(self):
        e = TraceEvent(0, "fetch", 1, "hdd", 2, 1024, 0.5)
        with pytest.raises(AttributeError):
            e.kind = "hit"
        with pytest.raises(AttributeError):
            e.extra = 1

    def test_as_dict_has_eleven_fields_in_order_with_defaults(self):
        d = TraceEvent(0, "fetch", 1, "hdd", 2, 1024, 0.5).as_dict()
        assert list(d) == [
            "seq", "kind", "step", "level", "key", "nbytes", "time_s",
            "span", "count", "age_steps", "origin",
        ]
        assert d == {
            "seq": 0, "kind": "fetch", "step": 1, "level": "hdd", "key": 2,
            "nbytes": 1024, "time_s": 0.5, "span": "", "count": 1,
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
                count=2,
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
                          "time_s", "span", "count", "age_steps", "origin"):
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
            e = TraceEvent(0, kind, 0, "dram" if kind != "render" else "", 1, 0, 0.0)
            assert _track_for(e) == track, kind

    def test_levelless_events_fall_back_to_bare_tracks(self):
        from repro.trace.export import _track_for

        assert _track_for(TraceEvent(0, "fetch", 0, "", 1, 0, 0.0)) == "io"
        assert _track_for(TraceEvent(0, "evict", 0, "", 1, 0, 0.0)) == "cache"

    def test_re_miss_chrome_args_carry_forensics_fields(self):
        e = TraceEvent(0, "re_miss", 2, "dram", 7, 0, 0.0,
                       age_steps=3, origin="lru:bob")
        doc = to_chrome_trace([e])
        (ev,) = [x for x in doc["traceEvents"] if x.get("cat") == "re_miss"]
        assert ev["ph"] == "i"  # zero-time marker, not a duration
        assert ev["args"]["age_steps"] == 3
        assert ev["args"]["origin"] == "lru:bob"
