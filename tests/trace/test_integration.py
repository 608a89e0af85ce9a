"""End-to-end tracing: drivers emit a trace whose ledger matches the stats.

The acceptance property of the tracing layer: summing ``nbytes`` over the
trace's hit/fetch/prefetch events reproduces the hierarchy's
``bytes_moved`` extra *exactly* — the two ledgers are kept by different
code paths, so their agreement pins the uniform byte accounting.
"""

import pytest

from repro.camera.path import random_path
from repro.camera.sampling import SamplingConfig
from repro.runtime import run_baseline
from repro.experiments.runner import ExperimentSetup
from repro.runtime import run_with_prefetcher
from repro.prefetch.strategies import MotionExtrapolationPrefetcher
from repro.trace import Tracer, aggregate


@pytest.fixture(scope="module")
def setup():
    return ExperimentSetup.for_dataset(
        "3d_ball", target_n_blocks=216, scale=0.06,
        sampling=SamplingConfig(n_directions=24, n_distances=2, distance_range=(2.3, 2.7)),
        seed=0,
    )


@pytest.fixture(scope="module")
def context(setup):
    path = random_path(
        n_positions=12, degree_change=(5.0, 10.0), distance=2.5,
        view_angle_deg=setup.view_angle_deg, seed=7,
    )
    return setup.context(path)


def _assert_ledgers_agree(tracer, result):
    assert tracer.n_dropped == 0, "ring too small for an exact ledger"
    summary = aggregate(tracer.events())
    assert float(summary.total_bytes) == result.extras["bytes_moved"]


class TestLedgerAgreement:
    def test_baseline(self, setup, context):
        tracer = Tracer(capacity=200_000)
        result = run_baseline(context, setup.hierarchy("lru"), tracer=tracer)
        _assert_ledgers_agree(tracer, result)

    def test_prefetcher_driver(self, setup, context):
        tracer = Tracer(capacity=200_000)
        result = run_with_prefetcher(
            context, setup.hierarchy("lru"),
            MotionExtrapolationPrefetcher(setup.grid, setup.view_angle_deg),
            preload_importance=setup.importance_table,
            preload_sigma=setup.importance_table.threshold_for_percentile(0.5),
            tracer=tracer,
        )
        _assert_ledgers_agree(tracer, result)
        summary = aggregate(tracer.events())
        assert summary.prefetch_bytes > 0  # the prefetch stream is visible

    def test_app_aware_optimizer(self, setup, context):
        tracer = Tracer(capacity=200_000)
        result = setup.optimizer().run(context, setup.hierarchy("lru"), tracer=tracer)
        _assert_ledgers_agree(tracer, result)

    def test_demand_prefetch_split_matches_stats(self, setup, context):
        tracer = Tracer(capacity=200_000)
        hierarchy = setup.hierarchy("lru")
        run_with_prefetcher(
            context, hierarchy,
            MotionExtrapolationPrefetcher(setup.grid, setup.view_angle_deg),
            tracer=tracer,
        )
        summary = aggregate(tracer.events())
        # Per-level byte splits must match each level's own counter.
        stats = hierarchy.stats()
        for name, level_stats in stats.levels.items():
            traced = summary.level_bytes.get(name, {"demand": 0, "prefetch": 0})
            assert traced["demand"] + traced["prefetch"] == level_stats.bytes_read


class TestNoOpTracer:
    def test_baseline_result_identical_with_tracing_off_and_on(self, setup, context):
        plain = run_baseline(context, setup.hierarchy("lru"))
        traced = run_baseline(context, setup.hierarchy("lru"), tracer=Tracer(capacity=200_000))
        assert plain.steps == traced.steps
        assert plain.extras == traced.extras
        assert plain.hierarchy_stats == traced.hierarchy_stats

    def test_hierarchy_defaults_to_disabled_tracer(self, setup):
        hierarchy = setup.hierarchy("lru")
        assert not hierarchy.tracer.enabled
        for level in hierarchy.levels:
            assert not level.tracer.enabled


class TestEventStream:
    def test_one_render_event_per_step(self, setup, context):
        tracer = Tracer(capacity=200_000)
        run_baseline(context, setup.hierarchy("lru"), tracer=tracer)
        renders = [e for e in tracer.events() if e.kind == "render"]
        assert [e.step for e in renders] == list(range(len(context.visible_sets)))

    def test_preload_events_emitted(self, setup, context):
        tracer = Tracer(capacity=200_000)
        run_with_prefetcher(
            context, setup.hierarchy("lru"),
            MotionExtrapolationPrefetcher(setup.grid, setup.view_angle_deg),
            preload_importance=setup.importance_table,
            preload_sigma=setup.importance_table.threshold_for_percentile(0.5),
            tracer=tracer,
        )
        preloads = [e for e in tracer.events() if e.kind == "preload"]
        assert preloads and all(e.step == -1 for e in preloads)

    def test_eviction_events_when_working_set_exceeds_cache(self, setup, context):
        tracer = Tracer(capacity=200_000)
        hierarchy = setup.hierarchy("lru")
        run_baseline(context, hierarchy, tracer=tracer)
        evicts = sum(1 for e in tracer.events() if e.kind == "evict")
        assert evicts == sum(s.evictions for s in hierarchy.stats().levels.values())
