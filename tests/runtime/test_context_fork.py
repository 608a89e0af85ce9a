"""RunContext.fork: reusing one configuration across runs without bleed.

The shared-state bug this pins down: passing the same ``ctx=`` to two
consecutive driver runs used to accumulate trace events and metrics
samples and advance the shared rng, so the second run's snapshot silently
included the first run's history.  ``fork()`` is the supported reuse
path — each child gets fresh service instances of the parent's shape.
"""

from repro.core.pipeline import PipelineContext
from repro.obs.metrics import MetricsRegistry
from repro.runtime.context import RunContext
from repro.runtime.drivers import run_baseline
from repro.storage.hierarchy import make_standard_hierarchy
from repro.trace.tracer import Tracer

VIEW = 10.0


def _hierarchy(grid):
    return make_standard_hierarchy(
        n_blocks=grid.n_blocks,
        block_nbytes=grid.uniform_block_nbytes(),
        cache_ratio=0.5,
    )


def _run(grid, path, ctx):
    return run_baseline(PipelineContext.create(path, grid), _hierarchy(grid), ctx=ctx)


class TestForkRegression:
    def test_two_forked_runs_match_two_fresh_ctx_runs(self, small_grid, short_spherical_path):
        """Sequential runs through forks of one shared parent produce the
        same results (and the same metric counts) as fully fresh contexts."""
        parent = RunContext(tracer=Tracer(capacity=100_000), registry=MetricsRegistry())
        forked = [
            _run(small_grid, short_spherical_path, parent.fork(session_id=f"r{i}"))
            for i in range(2)
        ]
        fresh = [
            _run(
                small_grid,
                short_spherical_path,
                RunContext(tracer=Tracer(capacity=100_000), registry=MetricsRegistry()),
            )
            for i in range(2)
        ]
        for got, want in zip(forked, fresh):
            assert got.steps == want.steps
            assert got.hierarchy_stats == want.hierarchy_stats
            assert got.extras == want.extras

    def test_forked_children_do_not_share_services(self):
        parent = RunContext(tracer=Tracer(capacity=64), registry=MetricsRegistry())
        a, b = parent.fork(), parent.fork()
        assert a.tracer is not b.tracer is not parent.tracer
        assert a.registry is not b.registry is not parent.registry
        assert a.tracer.capacity == 64

    def test_fork_keeps_null_services_shared(self):
        parent = RunContext()  # no tracer/registry: stays unresolved/null
        child = parent.fork()
        assert child.tracer is parent.tracer
        assert child.registry is parent.registry

    def test_fork_rng_deterministic_per_index(self):
        a = RunContext(seed=9)
        b = RunContext(seed=9)
        assert a.fork().rng.integers(0, 1 << 30) == b.fork().rng.integers(0, 1 << 30)
        # fork #2 draws a different stream than fork #1
        c, d = RunContext(seed=9), RunContext(seed=9)
        first = c.fork().rng.integers(0, 1 << 30)
        c_second = c.fork().rng.integers(0, 1 << 30)
        d.fork()
        assert d.fork().rng.integers(0, 1 << 30) == c_second
        assert first != c_second or first != d.fork().rng.integers(0, 1 << 30)

    def test_fork_stamps_session_id(self):
        child = RunContext().fork(session_id="viewer-3")
        assert child.session_id == "viewer-3"
        assert RunContext().session_id is None

    def test_fork_clones_fault_injector_plan(self):
        from repro.faults import FaultInjector, FaultPlan

        parent = RunContext(
            fault_injector=FaultInjector(FaultPlan.from_profile("flaky-hdd", seed=11))
        )
        child = parent.fork()
        assert child.fault_injector is not parent.fault_injector
        assert child.fault_injector.plan is parent.fault_injector.plan

    def test_reused_ctx_accumulates_but_forks_do_not(self, small_grid, short_spherical_path):
        """The failure mode itself: raw reuse doubles the metric history,
        forked reuse does not."""
        shared = RunContext(registry=MetricsRegistry())
        _run(small_grid, short_spherical_path, shared)
        first_count = shared.registry.get(
            "frame_time_seconds", kind="sim"
        ).count
        _run(small_grid, short_spherical_path, shared)
        assert shared.registry.get("frame_time_seconds", kind="sim").count == 2 * first_count

        parent = RunContext(registry=MetricsRegistry())
        counts = []
        for _ in range(2):
            child = parent.fork()
            _run(small_grid, short_spherical_path, child)
            counts.append(child.registry.get("frame_time_seconds", kind="sim").count)
        assert counts == [first_count, first_count]
