"""Name-based registries: stages, prefetchers, workloads (and policies).

New behaviours are *registered*, not threaded through driver signatures:

- **stages** — custom :class:`~repro.runtime.stages.Stage` subclasses,
  resolvable by name when assembling a recipe;
- **prefetchers** — prediction strategies :func:`make_prefetcher` builds by
  name for :func:`~repro.runtime.run_with_prefetcher`
  (``none``/``table``/``motion``/``markov``, and the cluster's
  ``ghost``/``replicate``);
- **workloads** — camera-path generators (the scenario zoo, below);
- **policies** — re-exported from :mod:`repro.policies.registry`, the
  registry that predates this module.

Each registry rejects duplicate names, and ``make_*`` raises ``KeyError``
with the known names on a miss.

The scenario zoo — every registered workload name, addressable from a
``RunConfig`` / matrix spec / ``--path-type`` flag:

==================  =========================================================
name                scenario
==================  =========================================================
``random``          random walk turning ``degrees`` per step at ``distance``
                    (the paper's §V-C random path)
``spherical``       great-circle orbit, ``degrees[0]`` per step (§V-A)
``zoom``            orbiting zoom-in/zoom-out spiral, distance hi→lo→hi
``flythrough``      seeded tour through random saved viewpoints (slerp)
``random-walk``     exploratory drift: like ``random`` but the distance also
                    wanders in ``±25%`` around ``distance``
``recorded``        replay of a camera-trace JSONL (``trace_file``; written
                    by ``repro replay --record``)
``multi-focus``     collaborative session dwelling on shared foci (foci come
                    from a fixed ``focus_seed`` so sessions overlap)
``temporal-sweep``  near-stationary view with bounded jitter ``degrees[0]``
                    — a time-series sweep from one vantage point
==================  =========================================================
"""

from __future__ import annotations

from typing import Any, Callable, Dict, Optional

from repro.policies.registry import POLICY_NAMES, make_policy, register_policy
from repro.runtime.stages import (
    AdaptiveSigmaStage,
    DemandFetchStage,
    PreloadStage,
    RenderStage,
    Stage,
    StrategyPrefetchStage,
    TablePrefetchStage,
)

__all__ = [
    "Registry",
    "STAGES",
    "PREFETCHERS",
    "WORKLOADS",
    "register_stage",
    "make_stage",
    "register_prefetcher",
    "make_prefetcher",
    "register_workload",
    "make_workload",
    "make_policy",
    "register_policy",
    "POLICY_NAMES",
]


class Registry:
    """A small name -> factory map with duplicate/missing-name errors."""

    def __init__(self, kind: str) -> None:
        self.kind = kind
        self._factories: Dict[str, Callable[..., Any]] = {}

    def register(self, name: str, factory: Callable[..., Any]) -> None:
        if name in self._factories:
            raise ValueError(f"{self.kind} {name!r} is already registered")
        self._factories[name] = factory

    def create(self, name: str, *args: Any, **kwargs: Any) -> Any:
        try:
            factory = self._factories[name]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} {name!r}; known: {self.names()}"
            ) from None
        return factory(*args, **kwargs)

    def names(self) -> "list[str]":
        return sorted(self._factories)

    def __contains__(self, name: str) -> bool:
        return name in self._factories


# ---------------------------------------------------------------------------
# stages

STAGES = Registry("stage")
for _cls in (
    PreloadStage,
    DemandFetchStage,
    RenderStage,
    StrategyPrefetchStage,
    TablePrefetchStage,
    AdaptiveSigmaStage,
):
    STAGES.register(_cls.name, _cls)


def register_stage(name: str, factory: Optional[Callable[..., Stage]] = None):
    """Register a custom stage; usable as ``register_stage("x", Cls)`` or as
    a class decorator ``@register_stage("x")``."""
    if factory is not None:
        STAGES.register(name, factory)
        return factory

    def _decorator(cls: Callable[..., Stage]) -> Callable[..., Stage]:
        STAGES.register(name, cls)
        return cls

    return _decorator


def make_stage(name: str, *args: Any, **kwargs: Any) -> Stage:
    return STAGES.create(name, *args, **kwargs)


# ---------------------------------------------------------------------------
# prefetchers


def _make_none_prefetcher(**_kwargs: Any):
    from repro.prefetch.strategies import NoPrefetcher

    return NoPrefetcher()


def _make_table_prefetcher(
    visible_table=None, importance=None, sigma: float = float("-inf"),
    lookup_cost=None, **_kwargs: Any,
):
    from repro.prefetch.strategies import TableLookupPrefetcher

    if visible_table is None:
        raise ValueError("the 'table' prefetcher requires visible_table=")
    return TableLookupPrefetcher(
        visible_table, importance=importance, sigma=sigma, lookup_cost=lookup_cost
    )


def _make_motion_prefetcher(grid=None, view_angle_deg=None, **_kwargs: Any):
    from repro.prefetch.strategies import MotionExtrapolationPrefetcher

    if grid is None or view_angle_deg is None:
        raise ValueError("the 'motion' prefetcher requires grid= and view_angle_deg=")
    return MotionExtrapolationPrefetcher(grid, view_angle_deg)


def _make_markov_prefetcher(**_kwargs: Any):
    from repro.prefetch.strategies import MarkovPrefetcher

    return MarkovPrefetcher()


def _make_ghost_prefetcher(shard_map=None, home: int = 0, **_kwargs: Any):
    from repro.cluster.prefetch import GhostLayerPrefetcher

    if shard_map is None:
        raise ValueError("the 'ghost' prefetcher requires shard_map= (a sharded run)")
    return GhostLayerPrefetcher(shard_map, home=home)


def _make_replicate_prefetcher(shard_map=None, home: int = 0, **_kwargs: Any):
    from repro.cluster.prefetch import ReplicationPrefetcher

    if shard_map is None:
        raise ValueError("the 'replicate' prefetcher requires shard_map= (a sharded run)")
    return ReplicationPrefetcher(shard_map, home=home)


PREFETCHERS = Registry("prefetcher")
PREFETCHERS.register("none", _make_none_prefetcher)
PREFETCHERS.register("table", _make_table_prefetcher)
PREFETCHERS.register("motion", _make_motion_prefetcher)
PREFETCHERS.register("markov", _make_markov_prefetcher)
PREFETCHERS.register("ghost", _make_ghost_prefetcher)
PREFETCHERS.register("replicate", _make_replicate_prefetcher)


def register_prefetcher(name: str, factory: Callable[..., Any]) -> None:
    PREFETCHERS.register(name, factory)


def make_prefetcher(name: str, **kwargs: Any):
    """Build a prefetch strategy by registry name.

    Extra keyword arguments are the dependency pool (``visible_table``,
    ``importance``, ``sigma``, ``lookup_cost``, ``grid``,
    ``view_angle_deg``, ``shard_map``, ``home``); each factory picks what
    it needs and ignores the rest, so one call site can serve every
    strategy.
    """
    return PREFETCHERS.create(name, **kwargs)


# ---------------------------------------------------------------------------
# workloads (camera paths)


def _make_random_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import random_path

    lo, hi = degrees
    return random_path(
        steps, degree_change=(lo, hi), distance=distance,
        view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_spherical_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import spherical_path

    lo, _hi = degrees
    return spherical_path(
        steps, degrees_per_step=max(lo, 0.1), distance=distance,
        view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_zoom_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import zoom_path

    lo, _hi = degrees
    return zoom_path(
        steps, degrees_per_step=max(lo, 0.1),
        view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_flythrough_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import flythrough_path

    return flythrough_path(
        steps, distance=distance, view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_random_walk_path(steps, degrees, distance, view_angle_deg, seed):
    # Exploratory drift: the random workload with the paper's "randomly
    # different d and l values" — distance wanders in ±25% of the nominal.
    from repro.camera.path import random_path

    lo, hi = degrees
    return random_path(
        steps, degree_change=(lo, hi),
        distance=(0.8 * distance, 1.25 * distance),
        view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_recorded_path(steps, degrees, distance, view_angle_deg, seed,
                        trace_file=None):
    from repro.camera.recorded import read_camera_trace

    if trace_file is None:
        raise ValueError("the 'recorded' workload requires trace_file= (a JSONL trace)")
    path = read_camera_trace(trace_file)
    if len(path) < steps:
        raise ValueError(
            f"camera trace {trace_file!r} has {len(path)} positions, "
            f"but the run asks for steps={steps}"
        )
    if len(path) > steps:
        from repro.camera.path import CameraPath

        path = CameraPath(path.positions[:steps].copy(), path.view_angle_deg, path.name)
    return path


def _make_multi_focus_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import multi_focus_path

    return multi_focus_path(
        steps, distance=distance, view_angle_deg=view_angle_deg, seed=seed,
    )


def _make_temporal_sweep_path(steps, degrees, distance, view_angle_deg, seed):
    from repro.camera.path import temporal_sweep_path

    lo, _hi = degrees
    return temporal_sweep_path(
        steps, jitter_deg=lo, distance=distance,
        view_angle_deg=view_angle_deg, seed=seed,
    )


WORKLOADS = Registry("workload")
WORKLOADS.register("random", _make_random_path)
WORKLOADS.register("spherical", _make_spherical_path)
WORKLOADS.register("zoom", _make_zoom_path)
WORKLOADS.register("flythrough", _make_flythrough_path)
WORKLOADS.register("random-walk", _make_random_walk_path)
WORKLOADS.register("recorded", _make_recorded_path)
WORKLOADS.register("multi-focus", _make_multi_focus_path)
WORKLOADS.register("temporal-sweep", _make_temporal_sweep_path)


def register_workload(name: str, factory: Callable[..., Any]) -> None:
    WORKLOADS.register(name, factory)


def make_workload(config, view_angle_deg: float):
    """Build the camera path a :class:`~repro.runtime.config.RunConfig`
    describes (``workload``/``steps``/``degrees``/``distance``/``seed``,
    plus ``trace_file`` for the ``recorded`` workload)."""
    kwargs: Dict[str, Any] = dict(
        steps=config.steps,
        degrees=config.degrees,
        distance=config.distance,
        view_angle_deg=view_angle_deg,
        seed=config.seed,
    )
    if getattr(config, "trace_file", None) is not None:
        kwargs["trace_file"] = config.trace_file
    return WORKLOADS.create(config.workload, **kwargs)
