"""Per-frame latency attribution over the trace event stream.

Answers "where did this frame's time go?" by decomposing each step's
simulated frame time into named components — fastest-level hit service,
per-level miss transfer, prefetch transfer, failed-attempt penalty,
retry backoff — reconstructed *exactly* from the trace events, and
reconciled bit-for-bit against the engine's per-step time ledger.

Two invariants make the decomposition trustworthy rather than merely
plausible:

**Invariant A (fold fidelity).**  The engine accumulates each channel's
time with a specific float fold: per fetch its attempts/backoffs/serve
are summed in emission order (``total_t += ...`` in
:meth:`~repro.storage.hierarchy.MemoryHierarchy._fetch_one_resilient`),
and per step the per-fetch totals are left-folded in id order
(``io += r.time_s`` / ``np.add.accumulate``).  Float addition is not
associative, so the reconstruction repeats the *same two-level fold*:
an inner fold over each fetch group's events, an outer fold over the
group totals.  ``reconciled`` is then a float ``==`` against the
ledger, not a tolerance check.

**Invariant B (exact partition).**  Component shares are telescoping
marginals, exact because every finite binary float is an integer
multiple of 2⁻¹⁰⁷⁴ (the smallest subnormal): the partition runs in
Python integers of that unit, ``U(x) = x · 2¹⁰⁷⁴``.  Each event's share
is ``U(inner_after) − U(inner_before)``, each group's share of the
channel total is ``U(outer_after) − U(outer_before)``, and the rounding
*dust* between a group's outer marginal and the sum of its inner
marginals is assigned to the group's dominant component (the closing
movement's, else the fault penalty).  The components therefore sum to
the channel total **exactly** — asserted by the test suite, no epsilon
anywhere.  A share becomes a :class:`fractions.Fraction` only where a
report stores it, so the API and its JSON floats are those of a
``Fraction`` partition.

A fetch *group* is the maximal event run charged to one block fetch:
zero or more ``fault``/``retry`` events followed by the closing
``hit``/``fetch``/``prefetch`` movement, or — when every source failed
and the block was dropped — fault/retry events with no closing
movement.  Fault-free fetches are single-event groups, so the two-level
fold degenerates to the flat left fold and produces no dust.
``degraded`` and ``re_miss`` events sit outside every time ledger and
are only counted; ``lookup_time_s`` is not traced and is taken from the
ledger row.

Orphan groups (dropped blocks) are assigned a channel by the profiler
span stamped on their events (``"prefetch"`` substring checked before
``"fetch"`` — the former contains the latter), falling back to the
previous group's channel; a fallback marks the frame ``exact=False``.
Aggregated traces (``count > 1``) also clear ``exact`` — the per-block
fold cannot be replayed from a roll-up.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.runtime.engine import Collector
from repro.trace.events import MOVEMENT_KINDS, TraceEvent

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "FrameAttribution",
    "AttributionReport",
    "AttributionCollector",
    "attribute_run",
    "attribute_frames",
]

#: Version stamp of the ``attribution`` snapshot sections (bench/serve).
ATTRIBUTION_SCHEMA_VERSION = 1

_MOVEMENT = frozenset(MOVEMENT_KINDS)
#: Kinds whose group dust goes to their own component (else fault penalty).
_DUST_TO_LAST = _MOVEMENT | {"xfer"}
_UNIT = 1 << 1074  # 2**1074 units per second: every finite float is whole


def _units(x: float) -> int:
    """``x`` as an exact integer count of 2⁻¹⁰⁷⁴ units."""
    n, d = x.as_integer_ratio()  # d is a power of two, at most 2**1074
    return n << (1075 - d.bit_length())


def _fractions(units: Dict[str, int]) -> Dict[str, Fraction]:
    return {k: Fraction(v, _UNIT) for k, v in units.items()}


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


def _span_channel(span: str) -> Optional[str]:
    """Channel hinted by a profiler span path, if any.

    ``"prefetch"`` must be checked before ``"fetch"`` — it contains it.
    """
    if "prefetch" in span or "preload" in span:
        return "prefetch"
    if "fetch" in span:
        return "demand"
    return None


@dataclass
class FrameAttribution:
    """One step's frame time, decomposed into exact components.

    ``components`` partitions ``io_time_s`` (the demand channel) and
    ``prefetch_components`` partitions ``prefetch_time_s``; each sums to
    its channel total exactly (invariant B).  ``lookup_time_s`` comes
    from the ledger (prediction cost is not traced).  ``reconciled`` is
    ``True`` when all three reconstructed channel folds equal the ledger
    row bit-for-bit, ``False`` when any differs, and ``None`` when no
    ledger row was available or the frame is not ``exact``.
    """

    step: int
    io_time_s: float
    lookup_time_s: float
    prefetch_time_s: float
    render_time_s: float
    #: Exact rational shares (``fractions.Fraction``) in memory — their
    #: sum equals ``Fraction(io_time_s)`` with NO rounding; ``as_dict``
    #: rounds each to float for JSON (display only — the float sums may
    #: differ from the total by sub-ulp dust).
    components: Dict[str, Fraction] = field(default_factory=dict)
    prefetch_components: Dict[str, Fraction] = field(default_factory=dict)
    overlap_saving_s: float = 0.0
    n_re_miss: int = 0
    n_degraded: int = 0
    degraded_extra_s: float = 0.0
    reconciled: Optional[bool] = None
    exact: bool = True

    @property
    def frame_time_s(self) -> float:
        """The serial frame clock: ``io + lookup + render``."""
        return self.io_time_s + self.lookup_time_s + self.render_time_s

    def as_dict(self) -> dict:
        return {
            "step": self.step,
            "io_time_s": self.io_time_s,
            "lookup_time_s": self.lookup_time_s,
            "prefetch_time_s": self.prefetch_time_s,
            "render_time_s": self.render_time_s,
            "frame_time_s": self.frame_time_s,
            "components": {k: float(v) for k, v in self.components.items()},
            "prefetch_components": {
                k: float(v) for k, v in self.prefetch_components.items()
            },
            "overlap_saving_s": self.overlap_saving_s,
            "n_re_miss": self.n_re_miss,
            "n_degraded": self.n_degraded,
            "degraded_extra_s": self.degraded_extra_s,
            "reconciled": self.reconciled,
            "exact": self.exact,
        }


@dataclass
class AttributionReport:
    """A run's attribution: per-frame rows plus exact component totals.

    ``reconciled`` is the conjunction over frames that could be checked
    (``None`` when none could); ``incomplete`` means the tracer ring
    dropped events inside the attributed window, so reconstructed folds
    may be missing contributions — treat component values as lower
    bounds, not ground truth.
    """

    frames: List[FrameAttribution] = field(default_factory=list)
    #: Exact ``Fraction`` shares, like :attr:`FrameAttribution.components`.
    demand_components: Dict[str, Fraction] = field(default_factory=dict)
    prefetch_components: Dict[str, Fraction] = field(default_factory=dict)
    totals: Dict[str, float] = field(default_factory=dict)
    n_re_miss: int = 0
    n_degraded: int = 0
    degraded_extra_s: float = 0.0
    reconciled: Optional[bool] = None
    exact: bool = True
    incomplete: bool = False
    drop_stats: Optional[Dict[str, int]] = None

    def as_dict(self, include_frames: bool = True) -> dict:
        doc = {
            "schema_version": ATTRIBUTION_SCHEMA_VERSION,
            "n_frames": len(self.frames),
            "demand_components": {
                k: float(v) for k, v in self.demand_components.items()
            },
            "prefetch_components": {
                k: float(v) for k, v in self.prefetch_components.items()
            },
            "totals": dict(self.totals),
            "n_re_miss": self.n_re_miss,
            "n_degraded": self.n_degraded,
            "degraded_extra_s": self.degraded_extra_s,
            "reconciled": self.reconciled,
            "exact": self.exact,
            "incomplete": self.incomplete,
        }
        if self.drop_stats is not None:
            doc["drop_stats"] = dict(self.drop_stats)
        if include_frames:
            doc["frames"] = [f.as_dict() for f in self.frames]
        return doc


# -- group parsing -------------------------------------------------------------


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
            n_re_miss += e.count
        elif kind == "degraded":
            n_degraded += e.count
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
    resolved, all_hinted = _resolve_orphans(groups)
    exact = all_hinted and all(
        e.count == 1 for _, g in resolved for e in g
    )
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


def _ledger_tuple(row) -> Tuple[float, float, float, float]:
    """``(io, lookup, prefetch, render)`` from a StepMetrics or a dict."""
    if isinstance(row, dict):
        return (
            float(row.get("io_time_s", 0.0)),
            float(row.get("lookup_time_s", 0.0)),
            float(row.get("prefetch_time_s", 0.0)),
            float(row.get("render_time_s", 0.0)),
        )
    return (
        float(row.io_time_s),
        float(getattr(row, "lookup_time_s", 0.0)),
        float(getattr(row, "prefetch_time_s", 0.0)),
        float(getattr(row, "render_time_s", 0.0)),
    )


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


# -- engine integration --------------------------------------------------------


class AttributionCollector(Collector):
    """Wraps any :class:`~repro.runtime.engine.Collector` and attributes
    each frame as it completes.

    The engine calls ``collect`` after every stage wrote the frame, so
    slicing the tracer between consecutive collects yields exactly the
    events charged to that frame.  ``finish`` returns the inner
    collector's result unchanged and leaves the report on ``.report``
    — strictly observational, like the forensics hooks.
    """

    def __init__(self, inner: Collector) -> None:
        self.inner = inner
        self.report: Optional[AttributionReport] = None
        self._rows: List[Tuple[int, Sequence[TraceEvent], Tuple[float, float, float, float]]] = []
        self._seq = 0
        self._incomplete = False

    def start(self, engine) -> None:
        self.inner.start(engine)
        tracer = engine.ctx.tracer
        self._rows = []
        self._seq = tracer.n_recorded
        self._incomplete = not tracer.enabled

    def collect(self, engine, frame) -> None:
        self.inner.collect(engine, frame)
        tracer = engine.ctx.tracer
        events = [e for e in tracer.events_since(self._seq) if e.step == frame.step]
        # The ring overwrote part of this frame's window before the slice.
        self._incomplete |= tracer.n_dropped > self._seq
        self._seq = tracer.n_recorded
        self._rows.append(
            (
                frame.step,
                events,
                (
                    frame.io_time_s,
                    frame.lookup_time_s,
                    frame.prefetch_time_s,
                    frame.render_time_s,
                ),
            )
        )

    def finish(self, engine):
        result = self.inner.finish(engine)
        tracer = engine.ctx.tracer
        self.report = attribute_frames(
            self._rows, drop_stats=tracer.drop_stats(), incomplete=self._incomplete
        )
        return result
