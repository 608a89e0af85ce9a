"""Per-frame latency attribution: exact reconciliation and partition.

The two invariants pinned here (see :mod:`repro.obs.attribution`):

- **A (fold fidelity)**: the reconstructed per-channel totals equal the
  engine's time ledger bit-for-bit (`==` on floats, no tolerance) — for
  the runtime's batched calls and for a per-block ``fetch`` loop (the
  seed drivers' scalar mode), fault-free and under the chaos fault
  profile;
- **B (exact partition)**: each frame's component values, summed as
  ``fractions.Fraction``, equal the channel total exactly.
"""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.camera.path import random_path
from repro.core.pipeline import PipelineContext
from repro.faults import FaultInjector, FaultPlan
from repro.obs import attribution
from repro.obs.attribution import attribute_frames, attribute_run
from repro.runtime import run_baseline, run_with_prefetcher
from repro.prefetch.strategies import MarkovPrefetcher
from repro.storage.hierarchy import make_standard_hierarchy
from repro.trace import TraceEvent, Tracer
from repro.trace.events import TraceColumns
from repro.volume.blocks import BlockGrid
from repro.volume.synthetic import ball_field
from repro.volume.volume import Volume

from tests.obs import _fraction_fold_reference
from tests.runtime._seed_drivers import seed_run_baseline, seed_run_with_prefetcher

VIEW = 10.0
#: "batched": the runtime drivers; "scalar": the seed drivers' per-block
#: loop (one ``hierarchy.fetch`` per block).
REPLAYS = ("batched", "scalar")
FAULTS = ("none", "chaos")


@pytest.fixture(scope="module")
def attr_context():
    volume = Volume(ball_field((32, 32, 32)), name="attr_ball")
    grid = BlockGrid(volume.shape, (8, 8, 8))
    path = random_path(
        n_positions=10, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=VIEW, seed=11,
    )
    return grid, PipelineContext.create(path, grid)


def _hierarchy(grid, faults):
    h = make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=0.5,
    )
    if faults != "none":
        h.set_fault_injector(FaultInjector(FaultPlan.from_profile(faults, seed=7)))
    return h


def _run(context, grid, replay, faults, prefetch=False):
    tracer = Tracer()
    hierarchy = _hierarchy(grid, faults)
    if replay == "scalar":
        if prefetch:
            result = seed_run_with_prefetcher(
                context, hierarchy, MarkovPrefetcher(), tracer=tracer, engine="scalar"
            )
        else:
            result = seed_run_baseline(context, hierarchy, tracer=tracer, engine="scalar")
    elif prefetch:
        result = run_with_prefetcher(context, hierarchy, MarkovPrefetcher(), tracer=tracer)
    else:
        result = run_baseline(context, hierarchy, tracer=tracer)
    return tracer, result


def _assert_partition_exact(report):
    """Invariant B: per-frame and run-level component sums are exact."""
    for frame in report.frames:
        assert sum(
            (Fraction(v) for v in frame.components.values()), Fraction(0)
        ) == Fraction(frame.io_time_s)
        assert sum(
            (Fraction(v) for v in frame.prefetch_components.values()), Fraction(0)
        ) == Fraction(frame.prefetch_time_s)
    # Run-level components sum to the *exact* (Fraction) sum of the frame
    # channel totals; totals["io_time_s"] is that sum rounded to float.
    exact_io = sum((Fraction(f.io_time_s) for f in report.frames), Fraction(0))
    exact_pf = sum((Fraction(f.prefetch_time_s) for f in report.frames), Fraction(0))
    assert sum(report.demand_components.values(), Fraction(0)) == exact_io
    assert sum(report.prefetch_components.values(), Fraction(0)) == exact_pf
    assert report.totals["io_time_s"] == float(exact_io)
    assert report.totals["prefetch_time_s"] == float(exact_pf)


class TestExactReconciliation:
    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_baseline_reconciles_bit_for_bit(self, attr_context, replay, faults):
        grid, context = attr_context
        tracer, result = _run(context, grid, replay, faults)
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.exact
        assert report.reconciled is True
        assert not report.incomplete
        for frame, row in zip(report.frames, result.steps):
            assert frame.io_time_s == row.io_time_s  # float ==, no tolerance
            assert frame.render_time_s == row.render_time_s
            assert frame.frame_time_s == (
                row.io_time_s + row.lookup_time_s + row.render_time_s
            )
        _assert_partition_exact(report)

    @pytest.mark.parametrize("replay", REPLAYS)
    def test_chaos_components_sum_to_ledger(self, attr_context, replay):
        """Satellite: hit + miss + retry + fault shares sum exactly to the
        per-step ledger under the chaos profile, batched or per block."""
        grid, context = attr_context
        tracer, result = _run(context, grid, replay, "chaos")
        report = attribute_run(tracer.events(), result.steps)
        assert report.reconciled is True
        _assert_partition_exact(report)
        all_comps = set()
        for f in report.frames:
            all_comps.update(f.components)
        assert any(c.startswith("miss_transfer:") for c in all_comps)
        # chaos with seed 7 injects faults on this trace
        assert {"fault_penalty", "retry_backoff"} & all_comps

    @pytest.mark.parametrize("replay", REPLAYS)
    @pytest.mark.parametrize("faults", FAULTS)
    def test_prefetch_channel_reconciles(self, attr_context, replay, faults):
        grid, context = attr_context
        tracer, result = _run(context, grid, replay, faults, prefetch=True)
        report = attribute_run(tracer.events(), result.steps)
        assert report.reconciled is True
        assert report.totals["prefetch_time_s"] > 0.0
        _assert_partition_exact(report)

    def test_overlap_saving_is_min_of_prefetch_and_render(self, attr_context):
        grid, context = attr_context
        tracer, result = _run(context, grid, "batched", "none", prefetch=True)
        report = attribute_run(tracer.events(), result.steps)
        for f in report.frames:
            assert f.overlap_saving_s == min(f.prefetch_time_s, f.render_time_s)


# Times from the smallest subnormal to 1e3, with the values rounding
# turns on most: exact zeros, powers of two and decimal fractions.
_times = st.one_of(
    st.floats(min_value=0.0, max_value=1e3, allow_subnormal=True),
    st.sampled_from([0.0, 5e-324, 1e-300, 2.0**-60, 1e-6, 0.1, 0.3, 1.0, 1e3]),
)
_levels = st.sampled_from(["dram", "ssd", "hdd", "n1-n2"])
_penalties = st.lists(
    st.tuples(st.sampled_from(["fault", "retry"]), _times), min_size=1, max_size=3
)


@st.composite
def _groups(draw):
    """One channel's fetch groups: fault-free movements, fault/retry runs
    closed by a movement, movements with an ``xfer`` tail, and orphans
    (a dropped block's penalties, or an unmatched ``xfer``)."""
    groups = []
    for shape in draw(
        st.lists(st.sampled_from(["plain", "faulted", "xfer", "orphan", "lone_xfer"]),
                 max_size=12)
    ):
        events = []
        if shape in ("faulted", "orphan"):
            events += [(kind, "hdd", t) for kind, t in draw(_penalties)]
        if shape in ("plain", "faulted", "xfer"):
            kind = draw(st.sampled_from(["hit", "fetch", "prefetch"]))
            events.append((kind, draw(_levels), draw(_times)))
        if shape in ("xfer", "lone_xfer"):
            events.append(("xfer", draw(_levels), draw(_times)))
        groups.append(
            [TraceEvent(i, kind, 0, level, 5, 0, t) for i, (kind, level, t) in enumerate(events)]
        )
    return groups


def _fold_channel(groups):
    """Invariants A and B for one channel's fetch groups, in fold order:
    the float total and the exact shares in 2**-1074 units, from
    ``attribution._fold`` on the events converted once into columns."""
    groups = [g for g in map(list, groups) if g]
    cols = TraceColumns.from_events([e for g in groups for e in g])
    sizes = np.array([len(g) for g in groups], dtype=np.int64)
    starts = np.cumsum(sizes) - sizes
    comps = attribution._components(cols.kind, cols.level)
    last = starts + sizes - 1
    totals, shares = attribution._fold(
        cols.time_s, comps, starts, attribution._dust_components(cols.kind[last], comps[last]),
        np.zeros(len(groups), dtype=np.int64), 1, 3 + 3 * len(cols.levels),
    )
    names = attribution._component_names(cols.levels)
    return float(totals[0]), {names[c]: u for c, u in shares.get(0, {}).items()}


def _has_dust(groups):
    total = 0.0
    for g in groups:
        inner = 0.0
        for e in g:
            inner = inner + e.time_s
        before, total = total, total + inner
        if Fraction(total) - Fraction(before) != Fraction(inner):
            return True
    return False


class TestIntegerPartition:
    def test_matches_the_fraction_fold(self):
        """Invariant B in integers of 2**-1074 equals the ``Fraction``
        fold: the same float total, the same component ``Fraction``s in
        the same order, and a sum equal to the total exactly — on drawn
        channels that include ones whose groups leave rounding dust."""
        dusty = []

        @settings(max_examples=300, deadline=None)
        @given(_groups())
        def check(groups):
            total, units = _fold_channel(groups)
            ref_total, ref = _fraction_fold_reference._fold_channel(groups)
            assert total == ref_total
            comps = attribution._fractions(units)
            assert list(comps.items()) == list(ref.items())
            assert sum(comps.values(), Fraction(0)) == Fraction(total)
            dusty.append(_has_dust(groups))

        check()
        assert any(dusty)


class TestIncompleteAndInexact:
    def test_tiny_ring_marks_incomplete(self, attr_context):
        grid, context = attr_context
        tracer = Tracer(capacity=8)  # far below the event count
        result = run_baseline(context, _hierarchy(grid, "none"), tracer=tracer)
        assert tracer.n_dropped > 0
        report = attribute_run(
            tracer.events(), result.steps, drop_stats=tracer.drop_stats()
        )
        assert report.incomplete
        assert report.drop_stats["n_dropped"] == tracer.n_dropped
        assert report.as_dict()["incomplete"] is True

    def test_mismatched_ledger_fails_reconciliation(self):
        events = [TraceEvent(0, "fetch", 0, "hdd", 1, 4096, 0.5)]
        report = attribute_frames([(0, events, (0.25, 0.0, 0.0, 0.0))])
        assert report.frames[0].reconciled is False
        assert report.reconciled is False

    def test_no_ledger_means_unchecked(self):
        events = [TraceEvent(0, "hit", 0, "dram", 1, 1024, 1e-6)]
        report = attribute_frames([(0, events, None)])
        assert report.frames[0].reconciled is None
        assert report.reconciled is None


class TestOrphanGroups:
    def test_dropped_block_charged_via_span_hint(self):
        # two failed attempts, no closing movement (block dropped), span
        # stamped by the demand fetch stage
        events = [
            TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3, span="replay/fetch"),
            TraceEvent(1, "retry", 0, "hdd", 5, 0, 0.1, span="replay/fetch"),
        ]
        io = 0.0
        for e in events:
            io += e.time_s
        report = attribute_frames([(0, events, (io, 0.0, 0.0, 0.0))])
        frame = report.frames[0]
        assert frame.exact  # span hint is authoritative
        assert frame.reconciled is True
        assert frame.components["fault_penalty"] == pytest.approx(0.3)
        assert frame.components["retry_backoff"] == pytest.approx(0.1)

    def test_orphan_without_span_falls_back_and_clears_exact(self):
        events = [TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3)]
        report = attribute_frames([(0, events, (0.3, 0.0, 0.0, 0.0))])
        assert not report.frames[0].exact
        # an inexact frame that happens to match is luck, not proof
        assert report.frames[0].reconciled is None

    def test_prefetch_span_routes_orphan_to_prefetch_channel(self):
        events = [TraceEvent(0, "fault", 0, "hdd", 5, 0, 0.3, span="replay/prefetch")]
        report = attribute_frames([(0, events, (0.0, 0.0, 0.3, 0.0))])
        frame = report.frames[0]
        assert frame.reconciled is True
        assert frame.prefetch_components["fault_penalty"] == pytest.approx(0.3)


class TestSessionsAttribution:
    def test_per_tenant_reports_reconcile(self, small_grid):
        from repro.experiments.runner import fresh_hierarchy
        from repro.runtime import SessionSpec, run_sessions
        from repro.runtime.context import RunContext

        specs = [
            SessionSpec(session_id="alice", workload="spherical", steps=6, seed=1),
            SessionSpec(session_id="bob", workload="zoom", steps=6, seed=2,
                        arrival_s=0.5),
        ]
        result = run_sessions(
            specs, fresh_hierarchy(small_grid), small_grid, partition="equal",
            ctx=RunContext(tracer=Tracer()), attribution=True,
        )
        assert set(result.attribution) == {"alice", "bob"}
        for rep in result.attribution.values():
            assert rep.reconciled is True
            assert rep.exact
            _assert_partition_exact(rep)
        doc = result.as_dict()
        assert doc["attribution"]["tenants"]["alice"]["reconciled"] is True

    def _two_sessions(self, small_grid, tracer):
        from repro.experiments.runner import fresh_hierarchy
        from repro.runtime import SessionSpec, run_sessions
        from repro.runtime.context import RunContext

        specs = [
            SessionSpec(session_id="alice", workload="spherical", steps=6, seed=1),
            SessionSpec(session_id="bob", workload="zoom", steps=6, seed=2,
                        arrival_s=0.5),
        ]
        return run_sessions(
            specs, fresh_hierarchy(small_grid), small_grid, partition="equal",
            ctx=RunContext(tracer=tracer), attribution=True,
        ).attribution

    def test_ring_that_wraps_between_frames_is_complete(self, small_grid):
        """Each frame is sliced before the ring overwrites it, so a ring
        half the run's size drops events yet loses none of any frame."""
        full = Tracer()
        self._two_sessions(small_grid, full)
        half = Tracer(capacity=full.n_recorded // 2)
        reports = self._two_sessions(small_grid, half)
        assert half.n_dropped > 0
        for rep in reports.values():
            assert rep.incomplete is False
            assert rep.reconciled is True
            assert rep.drop_stats["n_dropped"] == half.n_dropped

    def test_ring_smaller_than_a_frame_is_incomplete(self, small_grid):
        reports = self._two_sessions(small_grid, Tracer(capacity=8))
        for rep in reports.values():
            assert rep.incomplete is True
            assert rep.as_dict()["incomplete"] is True

    def test_attribution_requires_enabled_tracer(self, small_grid):
        from repro.experiments.runner import fresh_hierarchy
        from repro.runtime import SessionSpec, run_sessions

        specs = [SessionSpec(session_id="a", workload="spherical", steps=4, seed=1)]
        with pytest.raises(ValueError, match="(?i)tracer"):
            run_sessions(
                specs, fresh_hierarchy(small_grid), small_grid, attribution=True
            )

    def test_run_load_attribution_does_not_change_ledger(self):
        import json

        from repro.experiments import LoadGenConfig, run_load

        cfg = LoadGenConfig(n_sessions=2, steps=4, blocks=64, scale=0.04)
        plain = run_load(cfg)
        attributed = run_load(cfg, attribution=True)
        attr = attributed["multi_tenant"].pop("attribution")
        assert json.dumps(plain, sort_keys=True) == json.dumps(
            attributed, sort_keys=True
        )
        for rep in attr["tenants"].values():
            assert rep["reconciled"] is True
