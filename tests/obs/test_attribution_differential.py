"""The columnar attribution fold against the per-event reference fold.

``attribute_frames`` folds each frame's column slice with array
operations; ``tests/obs/_event_fold_reference.py`` is the per-event
Python fold it replaced.  On drawn frames — fault/retry chains, orphans
with and without a span hint, ``xfer`` tails and lone ``xfer``s,
aggregated events, render-only and empty frames, zero and subnormal
times, and an unstructured event soup over a few blocks — both must give
the same report, frame by frame: ``as_dict()``, component order,
``reconciled`` and ``exact``.
"""

from __future__ import annotations

from typing import List

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.attribution import attribute_frames, attribute_run, frame_row
from repro.trace import EVENT_KINDS, Tracer

from tests.obs import _event_fold_reference as reference

_times = st.one_of(
    st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 1e-310, 1e-300, 2.0**-60, 1e-6, 0.1, 0.3, 1.0, 1e3]),
)
_levels = st.sampled_from(["dram", "ssd", "hdd", "n1-n2", "ghost"])
_keys = st.integers(0, 3)
_spans = st.sampled_from(["", "replay", "replay/fetch", "replay/prefetch", "replay/preload"])


@st.composite
def _event(draw, kind=None, key=None):
    """``(span, kind, level, key, nbytes, time_s, age, origin)``."""
    kind = kind or draw(st.sampled_from(EVENT_KINDS))
    origin = draw(st.sampled_from(["", "lru:a"])) if kind == "re_miss" else ""
    return (
        draw(_spans), kind, draw(_levels), draw(_keys) if key is None else key,
        draw(st.sampled_from([0, 4096])), draw(_times),
        draw(st.integers(-1, 5)), origin,
    )


@st.composite
def _block(draw):
    """A few events of one shape, in emission order."""
    shape = draw(st.sampled_from(
        ["plain", "faulted", "xfer", "orphan", "lone_xfer", "render", "noise", "soup"]
    ))
    key = draw(_keys)
    movement = st.sampled_from(["hit", "fetch", "prefetch"])
    events = []
    if shape in ("faulted", "orphan"):
        for kind in draw(st.lists(st.sampled_from(["fault", "retry"]), min_size=1, max_size=3)):
            events.append(draw(_event(kind, key)))
    if shape in ("plain", "faulted", "xfer"):
        events.append(draw(_event(draw(movement), key)))
    if shape in ("xfer", "lone_xfer"):
        events.append(draw(_event("xfer", key if shape == "xfer" else None)))
    if shape == "render":
        events.append(draw(_event("render")))
    if shape == "noise":
        kinds = st.sampled_from(["evict", "bypass", "preload", "degraded", "re_miss"])
        events.append(draw(_event(draw(kinds))))
    if shape == "soup":
        events += draw(st.lists(_event(), max_size=6))
    return events


_frames = st.lists(
    st.lists(_block(), max_size=8).map(lambda blocks: [e for b in blocks for e in b]),
    min_size=1, max_size=5,
)


def _record(frames) -> "tuple[Tracer, List[int]]":
    """Each frame's events recorded at its step, and each frame's first seq."""
    tracer = Tracer(capacity=1 << 16)
    seqs = []
    for step, events in enumerate(frames):
        seqs.append(tracer.n_recorded)
        for span, kind, level, key, nbytes, time_s, age, origin in events:
            tracer.current_span = span
            tracer.record(kind, step, level, key, nbytes, time_s, age, origin)
    return tracer, seqs


class _Frame:
    """The ledger fields ``frame_row`` reads."""

    def __init__(self, step, ledger):
        self.step = step
        self.io_time_s, self.lookup_time_s, self.prefetch_time_s, self.render_time_s = ledger


def _ledgers(draw_mode, want_rows):
    """``None`` for every frame, the reference's own totals (so frames
    reconcile), or those totals with the io channel nudged."""
    folded = reference.attribute_frames(want_rows)
    out = []
    for f in folded.frames:
        io = f.io_time_s if draw_mode != "nudged" else f.io_time_s + 1.0
        out.append(None if draw_mode == "none" else
                   (io, 0.25, f.prefetch_time_s, f.render_time_s))
    return out


def _assert_same(got, want):
    assert got.as_dict() == want.as_dict()
    assert len(got.frames) == len(want.frames)
    for g, w in zip(got.frames, want.frames):
        assert g.as_dict() == w.as_dict()
        assert list(g.components.items()) == list(w.components.items())
        assert list(g.prefetch_components.items()) == list(w.prefetch_components.items())
        assert g.reconciled is w.reconciled and g.exact is w.exact
    assert list(got.demand_components.items()) == list(want.demand_components.items())
    assert list(got.prefetch_components.items()) == list(want.prefetch_components.items())
    assert got.reconciled is want.reconciled and got.exact is want.exact


def _differential(frames, mode):
    tracer, seqs = _record(frames)
    ends = seqs[1:] + [tracer.n_recorded]
    want_rows = [
        (step, [e for e in tracer.events_since(seq) if e.seq < end], None)
        for step, (seq, end) in enumerate(zip(seqs, ends))
    ]
    ledgers = _ledgers(mode, want_rows)
    want_rows = [(s, events, lg) for (s, events, _), lg in zip(want_rows, ledgers)]
    want = reference.attribute_frames(want_rows)
    # The columnar fold reads column slices: one per frame, as the session
    # scheduler takes them (every frame after the first recorded later).
    got_rows = []
    for step, (seq, lg) in enumerate(zip(seqs, ledgers)):
        cols = tracer.columns_since(seq)
        cols = cols.take(cols.step == step)
        got_rows.append((step, cols, lg))
    _assert_same(attribute_frames(got_rows), want)
    # The TraceEvent form of the same rows is converted into columns once.
    _assert_same(attribute_frames(want_rows), want)
    # The flat stream groups by step the same way.
    steps = [None if lg is None else
             {"step": s, "io_time_s": lg[0], "lookup_time_s": lg[1],
              "prefetch_time_s": lg[2], "render_time_s": lg[3]}
             for s, lg in enumerate(ledgers)]
    steps = [row for row in steps if row is not None] or None
    _assert_same(attribute_run(tracer.columns_since(0), steps),
                 reference.attribute_run(tracer.events(), steps))


_modes = st.sampled_from(["none", "own", "nudged"])


@given(_frames, _modes)
@settings(max_examples=150, deadline=None)
def test_columnar_fold_matches_the_event_fold(frames, mode):
    _differential(frames, mode)


@pytest.mark.slow
@given(_frames, _modes)
@settings(max_examples=500, deadline=None)
def test_columnar_fold_matches_the_event_fold_wide(frames, mode):
    _differential(frames, mode)


def test_more_than_a_bucket_of_terms_in_one_exponent():
    """1,500 movements of 0.75 s, each followed by its block's ``xfer``,
    give 1,500 positive shares in one (component, exponent) bucket whose
    int64 sum would pass 2**63 unsplit; so do 1,500 faults of 0.75 s
    each closed by a fetch, and a run of alternating hits and misses."""
    span = "replay/fetch"
    shipped, faulted, alternating = [], [], []
    for i in range(1500):
        shipped += [(span, "fetch", "hdd", i % 4, 4096, 0.75, -1, ""),
                    (span, "xfer", "n0-n1", i % 4, 4096, 1e-3, -1, "")]
        faulted += [(span, "fault", "hdd", i % 4, 0, 0.75, -1, ""),
                    (span, "fetch", "hdd", i % 4, 4096, 1e-3, -1, "")]
        kind, level = ("hit", "dram") if i % 2 else ("fetch", "ssd")
        alternating.append((span, kind, level, i % 4, 4096, 1e-6 * (1 + i % 3), -1, ""))
    _differential([shipped, faulted, [], alternating], "own")


def test_frame_row_copies_before_the_ring_wraps():
    tracer = Tracer(capacity=4)
    tracer.record("fetch", 0, "hdd", 1, 8, 0.5)
    tracer.record("render", 0, time_s=0.1)
    row, dropped = frame_row(tracer, 0, _Frame(0, (0.5, 0.0, 0.0, 0.1)))
    for k in range(6):  # overwrite the frame's rows
        tracer.record("hit", 1, "dram", k, 8, 1e-6)
    report = attribute_frames([row])
    assert not dropped
    assert report.frames[0].io_time_s == 0.5 and report.reconciled is True
