"""Event-driven multi-tenant session scheduler over a shared hierarchy.

The drivers in :mod:`repro.runtime.drivers` replay ONE camera stream.
Interactive deployments serve *many* concurrent viewers from one storage
hierarchy, and what dominates at that scale is contention for the shared
block cache, not single-stream latency.  This module interleaves N
independent sessions — each its own camera path, visible-set sequence and
:class:`~repro.runtime.engine.StepMetricsCollector` — over one shared
:class:`~repro.storage.hierarchy.MemoryHierarchy` and one shared
:class:`~repro.runtime.context.RunContext`.

Scheduling is event-driven on the *simulated* clock: each session owns a
local timeline starting at its ``arrival_s``; rendering frame ``i`` costs
its simulated serial step time (io + lookup + render), which advances the
session's timeline; the session with the earliest next-frame time always
runs next (ties break by spec order).  Because frame times are pure
simulated quantities, the whole interleaving — and therefore every cache
decision in the shared hierarchy — is a deterministic function of the
session specs.  Replaying the same specs gives bit-identical byte and
time ledgers.

Tenant isolation rides on :meth:`CacheLevel.set_tenant_quotas
<repro.storage.cache.CacheLevel.set_tenant_quotas>`: with a partition
installed, every fetch a session issues is labelled with its tenant, so
one hot session can never evict a neighbour's working set beyond its
quota (cross-tenant evictions are counted and stay zero).

A single-session schedule degenerates to exactly the
:func:`~repro.runtime.drivers.run_baseline` recipe — same stages, same
collector, same call order — so its RunResult is bit-for-bit identical
to the single-stream driver's (pinned by the test suite).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.core.pipeline import PipelineContext
from repro.obs.attribution import AttributionReport, attribute_frames, frame_row
from repro.obs.fairness import TenantFrameStats
from repro.runtime.config import WORKLOAD_NAMES
from repro.runtime.context import RunContext
from repro.runtime.engine import (
    SimulationEngine,
    StepMetricsCollector,
    movement_extras,
)
from repro.runtime.registries import WORKLOADS
from repro.runtime.stages import DemandFetchStage, Frame, RenderStage, Stage
from repro.utils.rng import SeedLike

__all__ = ["SessionSpec", "SessionsResult", "run_sessions"]


@dataclass(frozen=True)
class SessionSpec:
    """One viewer session: a workload, a seed, and an arrival time.

    ``tenant`` is the quota/accounting label; it defaults to the
    ``session_id`` (one tenant per session).  Several sessions may share
    a tenant to model one user opening multiple views.
    """

    session_id: str
    workload: str = "spherical"
    steps: int = 40
    degrees: Tuple[float, float] = (5.0, 10.0)
    distance: float = 2.5
    seed: SeedLike = 0
    arrival_s: float = 0.0
    tenant: Optional[str] = None

    def __post_init__(self) -> None:
        if self.workload not in WORKLOAD_NAMES:
            raise ValueError(
                f"workload must be one of {WORKLOAD_NAMES}, got {self.workload!r}"
            )
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.arrival_s < 0:
            raise ValueError(f"arrival_s must be >= 0, got {self.arrival_s}")

    @property
    def tenant_label(self) -> str:
        return self.tenant if self.tenant is not None else self.session_id


@dataclass
class SessionsResult:
    """Everything one multi-tenant schedule produced.

    ``runs`` holds the per-session RunResults (the same shape the
    single-stream drivers return); ``frame_stats`` the per-tenant /
    pooled tail summaries and fairness; ``quotas``/``tenant_usage``/
    ``cross_evictions`` the partition ledger.  ``as_dict`` flattens the
    simulated (machine-independent) portion for bench snapshots.
    """

    runs: "Dict[str, object]"
    end_times: Dict[str, float]
    frame_stats: TenantFrameStats
    quotas: Dict[str, Dict[str, int]] = field(default_factory=dict)
    tenant_usage: Dict[str, Dict[str, int]] = field(default_factory=dict)
    cross_evictions: int = 0
    #: Per-tenant latency attribution (``run_sessions(attribution=True)``);
    #: None when attribution was not requested.
    attribution: Optional[Dict[str, AttributionReport]] = None

    @property
    def makespan_s(self) -> float:
        return max(self.end_times.values()) if self.end_times else 0.0

    def as_dict(self) -> dict:
        ledger = {}
        for sid, run in self.runs.items():
            n_visible = sum(s.n_visible for s in run.steps)
            n_misses = sum(s.n_fast_misses for s in run.steps)
            ledger[sid] = {
                "total_time_s": run.total_time_s,
                "io_time_s": sum(s.io_time_s for s in run.steps),
                "n_steps": len(run.steps),
                # Per-session miss rate from the step rows (the RunResult's
                # hierarchy_stats snapshot is the *shared* cumulative view).
                "fast_miss_rate": (n_misses / n_visible) if n_visible else 0.0,
                "bytes_moved": run.extras.get("bytes_moved", 0.0),
                "end_time_s": self.end_times[sid],
            }
        doc = {
            "n_sessions": len(self.runs),
            "makespan_s": self.makespan_s,
            "sessions": ledger,
            "frame_times": self.frame_stats.as_dict(),
            "quotas": self.quotas,
            "tenant_usage": self.tenant_usage,
            "cross_evictions": self.cross_evictions,
        }
        if self.attribution is not None:
            from repro.obs.attribution import ATTRIBUTION_SCHEMA_VERSION

            doc["attribution"] = {
                "schema_version": ATTRIBUTION_SCHEMA_VERSION,
                "tenants": {
                    label: rep.as_dict(include_frames=False)
                    for label, rep in self.attribution.items()
                },
            }
        return doc


@dataclass
class _SessionState:
    """Mutable per-session scheduling state."""

    spec: SessionSpec
    engine: SimulationEngine
    next_step: int = 0
    clock_s: float = 0.0
    started: bool = False
    result: object = None


def _equal_partition(tenants: Sequence[str]) -> Dict[str, float]:
    frac = 1.0 / len(tenants)
    return {t: frac for t in tenants}


def run_sessions(
    specs: Sequence[SessionSpec],
    hierarchy,
    grid,
    view_angle_deg: float = 10.0,
    render_model=None,
    ctx: Optional[RunContext] = None,
    partition: "Union[None, str, Mapping[str, float]]" = None,
    protect_current_step: bool = False,
    attribution: bool = False,
) -> SessionsResult:
    """Interleave ``specs`` over one shared ``hierarchy``; see module doc.

    Parameters
    ----------
    specs:
        The sessions, in arrival order.  Session ids must be unique.
    hierarchy:
        The *shared* storage hierarchy all sessions fetch through.
    grid:
        The shared :class:`~repro.volume.blocks.BlockGrid` (every session
        views the same dataset).
    view_angle_deg, render_model:
        Camera/render parameters shared by every session.
    ctx:
        The shared :class:`RunContext`; its registry/tracer see every
        session (the ``frame_time_seconds`` histogram pools all tenants).
    partition:
        ``None`` — no quotas (free-for-all sharing); ``"equal"`` — each
        distinct tenant gets ``1/n`` of every level; or a mapping tenant
        -> capacity fraction.  Installed via
        :meth:`MemoryHierarchy.set_tenant_quotas`.
    protect_current_step:
        Apply Algorithm 1's eviction constraint per session step.
    attribution:
        Build per-tenant latency attribution (see
        :mod:`repro.obs.attribution`).  Frames are processed strictly
        sequentially, so slicing the shared tracer around each frame's
        stage loop captures exactly that frame's events; requires an
        enabled tracer on ``ctx``.
    """
    if not specs:
        raise ValueError("run_sessions needs at least one session spec")
    ids = [s.session_id for s in specs]
    if len(set(ids)) != len(ids):
        raise ValueError(f"session ids must be unique, got {ids}")

    ctx = (ctx if ctx is not None else RunContext()).bind(hierarchy)
    if attribution and not ctx.tracer.enabled:
        raise ValueError(
            "attribution=True requires an enabled Tracer on the shared RunContext"
        )
    tenants = list(dict.fromkeys(s.tenant_label for s in specs))

    quotas: Dict[str, Dict[str, int]] = {}
    if partition is not None:
        fractions = _equal_partition(tenants) if partition == "equal" else dict(partition)
        missing = [t for t in tenants if t not in fractions]
        if missing:
            raise ValueError(f"partition is missing tenants {missing}")
        quotas = hierarchy.set_tenant_quotas(fractions)

    policy_name = hierarchy.fastest.policy.name
    states: List[_SessionState] = []
    for spec in specs:
        path = WORKLOADS.create(
            spec.workload,
            steps=spec.steps,
            degrees=spec.degrees,
            distance=spec.distance,
            view_angle_deg=view_angle_deg,
            seed=spec.seed,
        )
        context = PipelineContext.create(path, grid, render_model)
        collector = StepMetricsCollector(
            name=spec.session_id,
            policy=policy_name,
            overlap_prefetch=False,
            observe="serial",
            charge=("io", "render"),
            extras_fn=movement_extras,
        )
        stages: List[Stage] = [
            DemandFetchStage(protect=protect_current_step),
            RenderStage(),
        ]
        sim = SimulationEngine(
            context, hierarchy, stages, collector, ctx=ctx,
            tenant=spec.tenant_label if quotas else None,
        )
        states.append(_SessionState(spec=spec, engine=sim))

    stats = TenantFrameStats(registry=ctx.registry)
    # The event heap orders by (next frame's sim time, spec order); both
    # keys are deterministic, so the interleaving — and every cache
    # decision it induces — replays bit-identically.
    heap: List[Tuple[float, int]] = []
    for idx, state in enumerate(states):
        state.clock_s = float(state.spec.arrival_s)
        heapq.heappush(heap, (state.clock_s, idx))

    # Per-tenant (step, events, ledger) rows for the attribution reports,
    # and whether the ring overwrote any of a tenant's frame windows.
    attr_rows: Dict[str, list] = {t: [] for t in tenants} if attribution else {}
    attr_incomplete: Dict[str, bool] = dict.fromkeys(attr_rows, False)

    end_times: Dict[str, float] = {}
    while heap:
        _, idx = heapq.heappop(heap)
        state = states[idx]
        sim = state.engine
        if not state.started:
            # Collector first, then stages — the exact engine.run() order.
            sim.collector.start(sim)
            for stage in sim.stages:
                stage.start(sim)
            state.started = True
        i = state.next_step
        seq0 = ctx.tracer.n_recorded if attribution else 0
        frame = Frame(step=i, ids=sim.context.visible_sets[i])
        for stage in sim.stages:
            stage.step(sim, frame)
        sim.collector.collect(sim, frame)
        if attribution:
            label = state.spec.tenant_label
            row, dropped = frame_row(ctx.tracer, seq0, frame)
            attr_rows[label].append(row)
            attr_incomplete[label] |= dropped
        frame_time = frame.io_time_s + frame.lookup_time_s + frame.render_time_s
        stats.observe(
            state.spec.tenant_label, frame_time, frame.n_visible, frame.n_fast_misses
        )
        state.clock_s += frame_time
        state.next_step = i + 1
        if state.next_step < len(sim.context.visible_sets):
            heapq.heappush(heap, (state.clock_s, idx))
        else:
            for stage in sim.stages:
                stage.finish(sim)
            state.result = sim.collector.finish(sim)
            end_times[state.spec.session_id] = state.clock_s

    stats.fairness()  # publish the tenant_fairness_jain gauge
    reports: Optional[Dict[str, AttributionReport]] = None
    if attribution:
        reports = {
            label: attribute_frames(
                rows,
                drop_stats=ctx.tracer.drop_stats(),
                incomplete=attr_incomplete[label],
            )
            for label, rows in attr_rows.items()
        }
    return SessionsResult(
        runs={st.spec.session_id: st.result for st in states},
        end_times=end_times,
        frame_stats=stats,
        quotas=quotas,
        tenant_usage=hierarchy.tenant_usage(),
        cross_evictions=hierarchy.tenant_cross_evictions(),
        attribution=reports,
    )
