"""The per-event attribution fold: the reference the columnar fold in
:mod:`repro.obs.attribution` must answer exactly like.

One Python pass per event: :func:`_parse_groups` splits a frame's events
into fetch groups, :func:`_resolve_orphans` gives every orphan group a
channel, and :func:`_fold_channel` replays the engine's two-level float
fold with the exact marginal partition in 2⁻¹⁰⁷⁴ units.  This is the
fold the package ran before its trace ring kept columns.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.obs.attribution import (
    _DUST_TO_LAST,
    _MOVEMENT,
    _UNIT,
    AttributionReport,
    FrameAttribution,
    _fractions,
    _span_channel,
    _ledger_tuple,
    _units,
)
from repro.trace.events import TraceEvent


def _component_of(event: TraceEvent) -> str:
    if event.kind == "hit":
        return "hit_service"
    if event.kind == "fetch":
        return f"miss_transfer:{event.level}"
    if event.kind == "prefetch":
        return f"prefetch_transfer:{event.level}"
    if event.kind == "xfer":
        return f"peer_transfer:{event.level}"
    if event.kind == "fault":
        return "fault_penalty"
    return "retry_backoff"  # retry


def _parse_groups(
    events: Sequence[TraceEvent],
) -> Tuple[List[Tuple[Optional[str], List[TraceEvent]]], List[TraceEvent], int, int, float]:
    """Split one step's events into fetch groups.

    Returns ``(groups, render_events, n_re_miss, n_degraded,
    degraded_extra_s)`` where each group is ``(channel, events)`` —
    channel ``"demand"``/``"prefetch"`` when a movement closed the
    group, ``None`` for an orphan (dropped block, resolved later).
    ``evict``/``bypass``/``preload`` events carry no charged time and
    are skipped; ``degraded``/``re_miss`` markers are counted only.
    """
    groups: List[Tuple[Optional[str], List[TraceEvent]]] = []
    render_events: List[TraceEvent] = []
    pending: List[TraceEvent] = []
    pending_key: Optional[int] = None
    n_re_miss = 0
    n_degraded = 0
    degraded_extra = 0.0
    for e in events:
        kind = e.kind
        if kind in ("fault", "retry"):
            if pending and pending_key != e.key:
                groups.append((None, pending))  # previous block was dropped
                pending = []
            pending_key = e.key
            pending.append(e)
        elif kind in _MOVEMENT:
            channel = "prefetch" if kind == "prefetch" else "demand"
            if pending and pending_key == e.key:
                pending.append(e)
                groups.append((channel, pending))
            else:
                if pending:
                    groups.append((None, pending))
                groups.append((channel, [e]))
            pending = []
            pending_key = None
        elif kind == "xfer":
            # A peer transfer is charged right after the movement it
            # ships, in the same per-block fold — append it to the group
            # that movement just closed so the inner fold replays
            # ``node_time + link_time`` in emission order.
            if (
                groups
                and groups[-1][0] is not None
                and groups[-1][1][-1].kind in _MOVEMENT
                and groups[-1][1][-1].key == e.key
            ):
                groups[-1][1].append(e)
            else:  # defensive: an xfer with no matching movement is an orphan
                groups.append((None, [e]))
        elif kind == "render":
            render_events.append(e)
        elif kind == "re_miss":
            n_re_miss += 1
        elif kind == "degraded":
            n_degraded += 1
            degraded_extra += e.time_s
        # evict / bypass / preload: no charged time, nothing to fold.
    if pending:
        groups.append((None, pending))
    return groups, render_events, n_re_miss, n_degraded, degraded_extra


def _resolve_orphans(
    groups: List[Tuple[Optional[str], List[TraceEvent]]],
) -> Tuple[List[Tuple[str, List[TraceEvent]]], bool]:
    """Assign a channel to every orphan group; returns (groups, all_hinted).

    Span hint first (exact — the profiler stamped the issuing stage),
    then the previous resolved group's channel, then demand.  Any
    non-span fallback clears the frame's ``exact`` flag: the orphan's
    fold position is only provably right when the hint was authoritative.
    """
    resolved: List[Tuple[str, List[TraceEvent]]] = []
    all_hinted = True
    prev = "demand"
    for channel, g in groups:
        if channel is None:
            channel = _span_channel(g[0].span)
            if channel is None:
                channel = prev
                all_hinted = False
        resolved.append((channel, g))
        prev = channel
    return resolved, all_hinted


def _fold_channel(
    groups: Iterable[List[TraceEvent]],
) -> Tuple[float, Dict[str, int]]:
    """Invariants A and B for one channel.

    Inner float fold per group (emission order), outer float fold over
    group totals — reproducing the engine's accumulation bit-for-bit —
    plus the exact marginal partition in 2⁻¹⁰⁷⁴ units with per-group dust
    assigned to the closing movement's component (fault penalty for
    orphans).
    """
    total = 0.0
    total_u = 0
    comps: Dict[str, int] = {}
    for g in groups:
        inner = 0.0
        inner_u = 0
        for e in g:
            inner = inner + e.time_s
            after = _units(inner)
            comp = _component_of(e)
            comps[comp] = comps.get(comp, 0) + (after - inner_u)
            inner_u = after
        total = total + inner
        after = _units(total)
        dust = after - total_u - inner_u
        total_u = after
        if dust:
            last = g[-1]
            comp = _component_of(last) if last.kind in _DUST_TO_LAST else "fault_penalty"
            comps[comp] = comps.get(comp, 0) + dust
    return total, comps


def _attribute_one(
    step: int,
    events: Sequence[TraceEvent],
    ledger: Optional[Tuple[float, float, float, float]],
) -> Tuple[FrameAttribution, Dict[str, int], Dict[str, int]]:
    """Attribute one step; ledger is ``(io, lookup, prefetch, render)``.

    Also returns the frame's demand and prefetch shares in 2⁻¹⁰⁷⁴ units.
    """
    groups, render_events, n_re_miss, n_degraded, degraded_extra = _parse_groups(events)
    resolved, exact = _resolve_orphans(groups)
    io_total, demand = _fold_channel(g for ch, g in resolved if ch == "demand")
    pf_total, prefetch = _fold_channel(g for ch, g in resolved if ch == "prefetch")
    render_total = 0.0
    for e in render_events:
        render_total = render_total + e.time_s
    if ledger is not None:
        lg_io, lg_lookup, lg_prefetch, lg_render = ledger
        reconciled: Optional[bool] = (
            io_total == lg_io and pf_total == lg_prefetch and render_total == lg_render
        )
        if not exact and reconciled:
            # An inexact fold that happens to match is luck, not proof.
            reconciled = None
        lookup = lg_lookup
    else:
        reconciled = None
        lookup = 0.0
    frame = FrameAttribution(
        step=step,
        io_time_s=io_total,
        lookup_time_s=lookup,
        prefetch_time_s=pf_total,
        render_time_s=render_total,
        components=_fractions(demand),
        prefetch_components=_fractions(prefetch),
        overlap_saving_s=min(pf_total, render_total),
        n_re_miss=n_re_miss,
        n_degraded=n_degraded,
        degraded_extra_s=degraded_extra,
        reconciled=reconciled,
        exact=exact,
    )
    return frame, demand, prefetch


def attribute_frames(
    rows: Iterable[Tuple[int, Sequence[TraceEvent], Optional[Tuple[float, float, float, float]]]],
    drop_stats: Optional[Dict[str, int]] = None,
    incomplete: bool = False,
) -> AttributionReport:
    """Build a report from explicit ``(step, events, ledger)`` rows.

    The session scheduler uses this directly (it slices the shared
    tracer per frame); :func:`attribute_run` is the flat-stream wrapper.
    ``incomplete`` is the caller's verdict that some frame's events were
    overwritten before it sliced them; ``drop_stats`` is recorded as is.
    """
    frames: List[FrameAttribution] = []
    demand_tot: Dict[str, int] = {}
    prefetch_tot: Dict[str, int] = {}
    io = lookup = prefetch = render = saving = 0
    n_re_miss = n_degraded = 0
    degraded_extra = 0.0
    for step, events, ledger in rows:
        frame, demand_u, prefetch_u = _attribute_one(step, events, ledger)
        frames.append(frame)
        for k, v in demand_u.items():
            demand_tot[k] = demand_tot.get(k, 0) + v
        for k, v in prefetch_u.items():
            prefetch_tot[k] = prefetch_tot.get(k, 0) + v
        io += _units(frame.io_time_s)
        lookup += _units(frame.lookup_time_s)
        prefetch += _units(frame.prefetch_time_s)
        render += _units(frame.render_time_s)
        saving += _units(frame.overlap_saving_s)
        n_re_miss += frame.n_re_miss
        n_degraded += frame.n_degraded
        degraded_extra += frame.degraded_extra_s
    checkable = [f.reconciled for f in frames if f.reconciled is not None]
    return AttributionReport(
        frames=frames,
        demand_components=_fractions(demand_tot),
        prefetch_components=_fractions(prefetch_tot),
        totals={
            name: float(Fraction(units, _UNIT))
            for name, units in (
                ("io_time_s", io),
                ("lookup_time_s", lookup),
                ("prefetch_time_s", prefetch),
                ("render_time_s", render),
                ("frame_time_s", io + lookup + render),
                ("overlap_saving_s", saving),
            )
        },
        n_re_miss=n_re_miss,
        n_degraded=n_degraded,
        degraded_extra_s=degraded_extra,
        reconciled=(all(checkable) if checkable else None),
        exact=all(f.exact for f in frames) if frames else True,
        incomplete=incomplete,
        drop_stats=dict(drop_stats) if drop_stats is not None else None,
    )


def attribute_run(
    events: Iterable[TraceEvent],
    steps: Optional[Sequence] = None,
    drop_stats: Optional[Dict[str, int]] = None,
) -> AttributionReport:
    """Attribute a whole run from its flat trace stream.

    ``steps`` are the run's :class:`~repro.core.metrics.StepMetrics`
    rows (or their ``as_dict`` forms, as found in bench snapshots) —
    they supply the per-step time ledger the folds reconcile against
    and the untraced ``lookup_time_s``.  Events with ``step < 0``
    (preload) carry no charged frame time and are skipped.  A flat
    stream has no per-frame window to check, so any drop in
    ``drop_stats`` marks the report ``incomplete``.
    """
    by_step: Dict[int, List[TraceEvent]] = {}
    for e in events:
        if e.step < 0:
            continue
        by_step.setdefault(e.step, []).append(e)
    ledgers: Dict[int, Tuple[float, float, float, float]] = {}
    if steps is not None:
        for row in steps:
            key = int(row["step"]) if isinstance(row, dict) else int(row.step)
            ledgers[key] = _ledger_tuple(row)
    all_steps = sorted(set(by_step) | set(ledgers))
    rows = [(s, by_step.get(s, ()), ledgers.get(s)) for s in all_steps]
    return attribute_frames(
        rows,
        drop_stats=drop_stats,
        incomplete=drop_stats is not None and drop_stats.get("n_dropped", 0) > 0,
    )
