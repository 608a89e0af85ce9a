"""Registries: duplicate/unknown names, decorator form, custom stages."""

import pytest

from repro.camera.path import random_path
from repro.core.pipeline import PipelineContext
from repro.runtime import (
    PREFETCHERS,
    STAGES,
    WORKLOADS,
    DemandFetchStage,
    Registry,
    RenderStage,
    RunConfig,
    RunContext,
    SimulationEngine,
    Stage,
    StepMetricsCollector,
    make_prefetcher,
    make_stage,
    make_workload,
    movement_extras,
    register_stage,
)
from repro.storage.hierarchy import make_standard_hierarchy

VIEW = 10.0


class TestRegistry:
    def test_duplicate_name_rejected(self):
        r = Registry("thing")
        r.register("x", dict)
        with pytest.raises(ValueError, match="already registered"):
            r.register("x", list)

    def test_unknown_name_lists_known(self):
        r = Registry("thing")
        r.register("a", dict)
        with pytest.raises(KeyError, match="unknown thing 'b'.*'a'"):
            r.create("b")

    def test_contains(self):
        assert "demand-fetch" in STAGES
        assert "table" in PREFETCHERS
        assert "zoom" in WORKLOADS


class TestBuiltins:
    def test_builtin_stage_names(self):
        for name in ("preload", "demand-fetch", "render", "strategy-prefetch"):
            assert name in STAGES

    def test_make_prefetcher_unknown(self):
        with pytest.raises(KeyError, match="unknown prefetcher"):
            make_prefetcher("psychic")

    def test_make_prefetcher_missing_dependency(self):
        with pytest.raises(ValueError, match="visible_table"):
            make_prefetcher("table")

    def test_make_prefetcher_ignores_extra_deps(self):
        p = make_prefetcher("markov", visible_table=object(), grid=object())
        assert p.name == "markov"

    def test_make_workload_from_config(self):
        cfg = RunConfig(workload="spherical", steps=7, seed=2)
        path = make_workload(cfg, VIEW)
        assert len(path.positions) == 7

    def test_make_stage(self):
        stage = make_stage("demand-fetch", protect=True)
        assert isinstance(stage, DemandFetchStage)
        assert stage.protect


class TestCustomStage:
    def test_register_and_run_custom_stage(self, small_grid):
        """The TUTORIAL's worked example: a logging stage rides a recipe."""

        @register_stage("test_step_logger")
        class StepLogger(Stage):
            name = "test_step_logger"

            def __init__(self):
                self.lines = []

            def step(self, engine, frame):
                self.lines.append((frame.step, frame.n_visible))

        logger = STAGES.create("test_step_logger")
        path = random_path(
            n_positions=6, degree_change=(5.0, 10.0), distance=2.5,
            view_angle_deg=VIEW, seed=3,
        )
        context = PipelineContext.create(path, small_grid)
        hierarchy = make_standard_hierarchy(
            n_blocks=small_grid.n_blocks,
            block_nbytes=small_grid.uniform_block_nbytes(),
            cache_ratio=0.5,
        )
        collector = StepMetricsCollector(
            name="custom", policy="lru", overlap_prefetch=False,
            extras_fn=movement_extras,
        )
        result = SimulationEngine(
            context, hierarchy,
            [DemandFetchStage(), RenderStage(), logger],
            collector, ctx=RunContext(),
        ).run()
        assert [step for step, _ in logger.lines] == list(range(6))
        assert [n for _, n in logger.lines] == [m.n_visible for m in result.steps]

    def test_custom_stage_charges_land_in_the_profiler_ledger(self, small_grid):
        """TUTORIAL §11: a stage charges simulated time on the run's
        profiler, next to the built-in channels and under its own span."""
        from repro.obs.profiler import PhaseProfiler

        class Charging(Stage):
            name = "charging"

            def step(self, engine, frame):
                with engine.ctx.span("mystage"):
                    engine.ctx.profiler.charge_sim("mystage", 0.5)

        path = random_path(
            n_positions=5, degree_change=(5.0, 10.0), distance=2.5,
            view_angle_deg=VIEW, seed=3,
        )
        hierarchy = make_standard_hierarchy(
            n_blocks=small_grid.n_blocks,
            block_nbytes=small_grid.uniform_block_nbytes(),
            cache_ratio=0.5,
        )
        collector = StepMetricsCollector(
            name="charged", policy="lru", overlap_prefetch=False,
            extras_fn=movement_extras,
        )
        profiler = PhaseProfiler()
        SimulationEngine(
            PipelineContext.create(path, small_grid), hierarchy,
            [DemandFetchStage(), RenderStage(), Charging()],
            collector, ctx=RunContext(profiler=profiler),
        ).run()
        report = profiler.report()
        assert report["sim"]["mystage"] == 2.5
        assert {"io", "render"} <= set(report["sim"])
        (span,) = [p for p in report["wall"] if p.endswith("mystage")]
        assert report["wall"][span]["count"] == 5


class TestScenarioZoo:
    """The workload registry is the scenario zoo: every RunConfig-reachable
    camera path, documented in one table (the registries module docstring)."""

    def test_every_workload_name_registered_and_documented(self):
        from repro.runtime import registries
        from repro.runtime.config import WORKLOAD_NAMES

        for name in WORKLOAD_NAMES:
            assert name in WORKLOADS, name
            assert f"``{name}``" in registries.__doc__, f"{name} missing from zoo table"

    def test_random_walk_workload(self):
        config = RunConfig(workload="random-walk", steps=10, distance=2.0, seed=5)
        path = make_workload(config, view_angle_deg=VIEW)
        assert len(path) == 10
        # the walk wanders distance within ±25% of the nominal
        import numpy as np

        radii = np.linalg.norm(path.positions, axis=1)
        assert (radii >= 0.8 * 2.0 - 1e-9).all()
        assert (radii <= 1.25 * 2.0 + 1e-9).all()
        again = make_workload(config, view_angle_deg=VIEW)
        np.testing.assert_allclose(again.positions, path.positions)  # seeded

    def test_recorded_workload_round_trip(self, tmp_path):
        import numpy as np

        from repro.camera.recorded import write_camera_trace

        source = make_workload(RunConfig(workload="spherical", steps=8), VIEW)
        trace = tmp_path / "orbit.jsonl"
        write_camera_trace(source, trace)
        config = RunConfig(workload="recorded", steps=8, trace_file=str(trace))
        replayed = make_workload(config, view_angle_deg=VIEW)
        np.testing.assert_allclose(replayed.positions, source.positions)

    def test_recorded_workload_truncates_longer_traces(self, tmp_path):
        from repro.camera.recorded import write_camera_trace

        source = make_workload(RunConfig(workload="spherical", steps=8), VIEW)
        trace = tmp_path / "orbit.jsonl"
        write_camera_trace(source, trace)
        shorter = make_workload(
            RunConfig(workload="recorded", steps=5, trace_file=str(trace)), VIEW
        )
        assert len(shorter) == 5

    def test_recorded_workload_short_trace_rejected(self, tmp_path):
        from repro.camera.recorded import write_camera_trace

        source = make_workload(RunConfig(workload="spherical", steps=4), VIEW)
        trace = tmp_path / "short.jsonl"
        write_camera_trace(source, trace)
        with pytest.raises(ValueError, match="has 4 positions.*steps=9"):
            make_workload(
                RunConfig(workload="recorded", steps=9, trace_file=str(trace)), VIEW
            )

    def test_recorded_requires_trace_file(self):
        with pytest.raises(ValueError, match="trace_file is required"):
            RunConfig(workload="recorded")
