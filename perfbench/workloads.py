"""The three benchmark workloads, built from the package's public entry points.

A workload *iteration* is one user-visible job: the entry call (dataset
synthesis, block partition, ``T_important``, ``T_visible``, path or session
visible sets) followed by its replay calls.  The harness repeats
iterations for the measured seconds; every iteration of a run replays the
identical inputs, all derived from the run's ``--seed``.

Each replay call is one *operation*: the harness checks its outputs after
the iteration (outside the timed region) and counts it as failed on an
exception or a failed check.
"""

from __future__ import annotations

import itertools
import traceback
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional

import numpy as np

from spans import patched

__all__ = ["Replay", "Iteration", "WORKLOADS", "SIZES", "make_workload"]


@dataclass
class Replay:
    """One replay call and what its output checks need."""

    label: str
    context: str = ""  # key into Iteration.contexts (dense-kernel check)
    result: Any = None  # RunResult, or the SessionsResult for serve
    hierarchy: Any = None
    tracer: Any = None
    injector: Any = None
    document: Any = None  # serve: the run_load snapshot document
    error: Optional[str] = None

    @property
    def runs(self) -> list:
        """The replay's RunResults (one per session for serve)."""
        if self.document is not None:
            return list(self.result.runs.values())
        return [self.result]


@dataclass
class Iteration:
    """The replay calls of one iteration and its path contexts."""

    replays: List[Replay] = field(default_factory=list)
    contexts: Dict[str, Any] = field(default_factory=dict)


def _call(replays: List[Replay], replay: Replay, clock, fn: Callable[[], Any]) -> None:
    """Run one replay call between frame-clock call markers."""
    clock.begin_call()
    try:
        replay.result = fn()
    except Exception:  # one failed operation; the run goes on
        replay.error = traceback.format_exc()
    clock.end_call()
    replays.append(replay)


def _path(name: str, steps: int, degrees, view_angle_deg: float, seed: int):
    from repro.runtime.registries import WORKLOADS as PATHS

    return PATHS.create(
        name, steps=steps, degrees=degrees, distance=2.5,
        view_angle_deg=view_angle_deg, seed=seed,
    )


def _seed(seed: int, index: int) -> int:
    from repro.utils.rng import derive_seed

    return derive_seed(seed, index)


# ---------------------------------------------------------------------------
# replay: the paper's policy comparison, long single-viewer replays


def replay(size: Dict[str, Any], seed: int, clock) -> Iteration:
    """``compare_policies`` over orbit, zoom and random-walk paths: FIFO,
    LRU, ARC and app-aware on fresh hierarchies, no tracer, no registry.
    Every path's visible sets are built before the first replay.  Several
    paths of each kind average the seed's view orientations out of the
    per-frame work, so runs on different seeds stay comparable."""
    from repro.camera.sampling import SamplingConfig
    from repro.experiments.runner import ExperimentSetup
    from repro.runtime import drivers
    from repro.runtime.context import RunContext

    clock.entry()
    setup = ExperimentSetup.for_dataset(
        "3d_ball",
        target_n_blocks=size["blocks"],
        scale=size["scale"],
        sampling=SamplingConfig(
            n_directions=size["n_directions"], n_distances=size["n_distances"]
        ),
        seed=seed,
    )
    setup.visible_table  # T_important + T_visible (auto kernel)
    it = Iteration()
    kinds = (("orbit", "spherical", (3.0, 3.0)), ("zoom", "zoom", (3.0, 3.0)),
             ("random-walk", "random-walk", (5.0, 10.0)))
    for k in range(size["paths"]):
        for label, workload, degrees in kinds:
            path = _path(workload, size["steps"], degrees, setup.view_angle_deg,
                         _seed(seed, len(it.contexts)))
            it.contexts[f"{label}{k}"] = setup.context(path)
    for label, context in it.contexts.items():
        for policy in ("fifo", "lru", "arc", "app-aware"):
            hierarchy = setup.hierarchy("lru" if policy == "app-aware" else policy)
            run_ctx = RunContext.create(faults="none")
            if policy == "app-aware":
                run = lambda: setup.optimizer().run(context, hierarchy, ctx=run_ctx)  # noqa: E731
            else:
                run = lambda: drivers.run_baseline(context, hierarchy, ctx=run_ctx)  # noqa: E731
            _call(it.replays, Replay(f"{label}/{policy}", label, hierarchy=hierarchy),
                  clock, run)
    clock.end()
    return it


# ---------------------------------------------------------------------------
# serve: the repro serve-sim entry, many tenants on one hierarchy


class _Captured:
    """Observe-only hooks that keep what ``run_load`` builds internally
    (the shared hierarchy and the scheduler's result) for the checks."""

    def __init__(self) -> None:
        self.values: Dict[str, Any] = {}

    def hook(self, key: str):
        def make(fn):
            def capture(*args, **kwargs):
                value = fn(*args, **kwargs)
                self.values[key] = value
                return value
            return capture
        return make


def serve(size: Dict[str, Any], seed: int, clock) -> Iteration:
    """``repro.experiments.loadgen.run_load`` with equal-quota tenants, an
    orbit/zoom/flythrough mix with arrivals on the simulated clock, a
    per-event tracer, a registry and per-tenant attribution."""
    from repro.experiments import loadgen
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime.context import RunContext
    from repro.trace import Tracer

    config = loadgen.LoadGenConfig(
        n_sessions=size["sessions"],
        mix=(1.0, 1.0, 1.0),
        arrival_rate_hz=4.0,
        steps=size["steps"],
        degrees=(5.0, 10.0),
        blocks=size["blocks"],
        scale=size["scale"],
        policy="lru",
        partition="equal",
        seed=seed,
    )
    tracer = Tracer(capacity=size["tracer_capacity"])
    run_ctx = RunContext(tracer=tracer, registry=MetricsRegistry())
    captured = _Captured()
    it = Iteration()
    replay = Replay("sessions", tracer=tracer)
    with patched(loadgen, "fresh_hierarchy", captured.hook("hierarchy")), \
            patched(loadgen, "run_sessions", captured.hook("sessions")):
        clock.entry()
        _call(it.replays, replay, clock,
              lambda: loadgen.run_load(config, ctx=run_ctx, attribution=True))
        clock.end()
    replay.document = replay.result
    replay.result = captured.values.get("sessions")
    replay.hierarchy = captured.values.get("hierarchy")
    return it


# ---------------------------------------------------------------------------
# cluster: a 4-node slab-sharded hierarchy with a ghost cache


def cluster(size: Dict[str, Any], seed: int, clock) -> Iteration:
    """LRU and app-aware on a K=4 sharded hierarchy, fault-free and under
    ``link-partition``, each with a per-event tracer and a registry, as
    the matrix ``replay`` runner builds sharded cells."""
    from repro.camera.sampling import SamplingConfig
    from repro.cluster import cluster_fault_plan, make_sharded_hierarchy
    from repro.experiments.runner import ExperimentSetup
    from repro.faults import FaultInjector
    from repro.obs.metrics import MetricsRegistry
    from repro.runtime import drivers
    from repro.runtime.context import RunContext
    from repro.trace import Tracer

    clock.entry()
    setup = ExperimentSetup.for_dataset(
        "3d_ball",
        target_n_blocks=size["blocks"],
        scale=size["scale"],
        sampling=SamplingConfig(
            n_directions=size["n_directions"], n_distances=size["n_distances"]
        ),
        seed=seed,
    )
    setup.visible_table
    it = Iteration()
    # Slab ownership makes the miss rate depend on the orbit's orientation;
    # several short orbits average it.
    for k in range(size["paths"]):
        path = _path("spherical", size["steps"], (5.0, 5.0), setup.view_angle_deg, _seed(seed, k))
        it.contexts[f"orbit{k}"] = setup.context(path)
    for faults in ("none", "link-partition"):
        for policy, label in itertools.product(("lru", "app-aware"), it.contexts):
            context = it.contexts[label]
            hierarchy = make_sharded_hierarchy(
                setup.grid, size["nodes"], strategy="slab", cache_ratio=setup.cache_ratio,
                policy="lru", ghost_ratio=0.05, seed=seed,
            )
            injector = None
            if faults != "none":
                plan = cluster_fault_plan(faults, size["nodes"], seed=_seed(seed, 100))
                injector = FaultInjector(plan)
            tracer = Tracer(capacity=size["tracer_capacity"])
            run_ctx = RunContext(
                tracer=tracer, registry=MetricsRegistry(), fault_injector=injector
            )
            if policy == "app-aware":
                run = lambda: setup.optimizer().run(context, hierarchy, ctx=run_ctx)  # noqa: E731
            else:
                run = lambda: drivers.run_baseline(context, hierarchy, ctx=run_ctx)  # noqa: E731
            replay = Replay(f"{faults}/{policy}/{label}", label, hierarchy=hierarchy,
                            tracer=tracer, injector=injector)
            _call(it.replays, replay, clock, run)
    clock.end()
    return it


WORKLOADS: Dict[str, Callable[[Dict[str, Any], int, Any], Iteration]] = {
    "replay": replay,
    "serve": serve,
    "cluster": cluster,
}

#: Pinned workload sizes; ``tiny`` is the self-test shape of each.
SIZES: Dict[str, Dict[str, Dict[str, Any]]] = {
    "full": {
        "replay": dict(blocks=4096, scale=0.125, n_directions=64, n_distances=2, paths=3,
                       steps=200),
        "serve": dict(sessions=16, steps=64, blocks=1000, scale=0.1,
                      tracer_capacity=2_000_000),
        "cluster": dict(blocks=1000, scale=0.1, n_directions=64, n_distances=2, paths=10,
                        steps=32, nodes=4, tracer_capacity=2_000_000),
    },
    "tiny": {
        "replay": dict(blocks=4096, scale=0.08, n_directions=8, n_distances=1, paths=1,
                       steps=10),
        "serve": dict(sessions=4, steps=6, blocks=64, scale=0.04, tracer_capacity=100_000),
        "cluster": dict(blocks=64, scale=0.04, n_directions=8, n_distances=1, paths=2,
                        steps=8, nodes=4, tracer_capacity=100_000),
    },
}


def make_workload(name: str, size: str = "full"):
    """``(iterate(seed, clock) -> Iteration)`` for a workload at a size."""
    fn = WORKLOADS[name]
    params = SIZES[size][name]
    return lambda seed, clock: fn(params, seed, clock)


def frame_sim_times(replay: Replay) -> np.ndarray:
    """Simulated frame times (s): overlapped for prefetching recipes,
    serial otherwise; serve frames are the scheduler's serial times."""
    return np.asarray(
        [
            s.step_total_overlapped_s if run.overlap_prefetch else s.step_total_serial_s
            for run in replay.runs
            for s in run.steps
        ],
        dtype=np.float64,
    )


def demand_counts(replay: Replay):
    """``(fastest-level demand misses, visible-block demands)``."""
    steps = [s for run in replay.runs for s in run.steps]
    return sum(s.n_fast_misses for s in steps), sum(s.n_visible for s in steps)
