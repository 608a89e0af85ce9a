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
:meth:`~repro.storage.hierarchy.MemoryHierarchy._read_with_faults`, under
the per-block fetch :meth:`~repro.storage.hierarchy.MemoryHierarchy._fetch_one`),
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
fold degenerates to the flat left fold and each event's share is its
outer marginal.  ``degraded`` and ``re_miss`` events sit outside every
time ledger and are only counted; ``lookup_time_s`` is not traced and is
taken from the ledger row.

The fold reads numpy columns (:class:`~repro.trace.events.TraceColumns`,
a copy of the tracer's ring per frame: :func:`frame_row`) and folds all
of a report's frames with array operations: groups and orphans from
shifted comparisons, the inner folds with every group advanced one row
at a time, the outer fold with one ``np.add.accumulate`` per (frame,
channel), and each share as a signed sum of ``U`` values.  Those sums
are exact: each value is its 53-bit integer mantissa times a power of
two, mantissas sharing a component and an exponent add in int64 (at
most 1,023 at a time, so no sum reaches 2⁶³), and each such sum is
shifted once into a Python int.  The per-event Python fold it replaced
is kept in the tests as the reference it must equal.

Orphan groups (dropped blocks) are assigned a channel by the profiler
span stamped on their events (``"prefetch"`` substring checked before
``"fetch"`` — the former contains the latter), falling back to the
previous group's channel; a fallback marks the frame ``exact=False``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.trace.events import (
    EVENT_KINDS,
    KIND_CODES,
    MOVEMENT_KINDS,
    TraceColumns,
    TraceEvent,
)

__all__ = [
    "ATTRIBUTION_SCHEMA_VERSION",
    "FrameAttribution",
    "AttributionReport",
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


# -- the columnar fold ---------------------------------------------------------

_DEMAND, _PREFETCH = 0, 1  # channel codes; a frame's segment ``s`` is ``2 * frame + channel``
_CHANNELS = {None: -1, "demand": _DEMAND, "prefetch": _PREFETCH}  # -1: no span hint
_PREFETCH_KIND = KIND_CODES["prefetch"]
_RENDER, _XFER = KIND_CODES["render"], KIND_CODES["xfer"]
_RE_MISS, _DEGRADED = KIND_CODES["re_miss"], KIND_CODES["degraded"]


def _kinds(*names: str) -> np.ndarray:
    mask = np.zeros(len(EVENT_KINDS), dtype=bool)
    mask[[KIND_CODES[n] for n in names]] = True
    return mask


_IS_MOVEMENT = _kinds(*MOVEMENT_KINDS)
_IS_PENALTY = _kinds("fault", "retry")
_IS_DUST_TO_LAST = _kinds(*_DUST_TO_LAST)
# Component ids: hit_service, fault_penalty, retry_backoff, then per level
# code ``l`` the ids ``3 + 3l`` (miss), ``4 + 3l`` (prefetch), ``5 + 3l`` (peer).
_FAULT_PENALTY = 1
_COMP_BASE = np.zeros(len(EVENT_KINDS), dtype=np.int64)
_COMP_PER_LEVEL = np.zeros(len(EVENT_KINDS), dtype=np.int64)
for _kind, _base in (("hit", 0), ("fault", 1), ("retry", 2), ("fetch", 3), ("prefetch", 4),
                     ("xfer", 5)):
    _COMP_BASE[KIND_CODES[_kind]] = _base
    _COMP_PER_LEVEL[KIND_CODES[_kind]] = 3 if _base >= 3 else 0
_SHORT_RUN = 32  # longer runs take one np.add.accumulate each
_TWO53 = float(1 << 53)
_EXP_SPAN = 2200  # frexp exponents of finite floats lie in [-1073, 1024]
_EXP_BIAS = 1100
_BUCKET = 1023  # int64 terms per bucket: 1023 mantissas below 2**53 sum below 2**63


def _component_names(levels: Sequence[str]) -> List[str]:
    names = ["hit_service", "fault_penalty", "retry_backoff"]
    for level in levels:
        names += [f"miss_transfer:{level}", f"prefetch_transfer:{level}",
                  f"peer_transfer:{level}"]
    return names


def _components(kind: np.ndarray, level: np.ndarray) -> np.ndarray:
    """Component id of each (charged) event (see :func:`_component_names`)."""
    return _COMP_BASE[kind] + _COMP_PER_LEVEL[kind] * level


def _dust_components(kind: np.ndarray, comps: np.ndarray) -> np.ndarray:
    """Component taking each group's dust, from the group's last event."""
    return np.where(_IS_DUST_TO_LAST[kind], comps, _FAULT_PENALTY)


def _left_folds(values: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Running left folds of ``values`` from ``0.0``, restarting at each of
    ``starts`` (ascending, the first 0): the engine's ``+=`` order, bit
    for bit.  Each long run takes one ``np.add.accumulate``; the short
    ones advance together, one row at a time."""
    out = values + 0.0  # a fold from 0.0: 0.0 + x
    ends = np.append(starts[1:], len(values))
    lengths = ends - starts
    long = lengths > _SHORT_RUN
    for a, b in zip(starts[long].tolist(), ends[long].tolist()):
        np.add.accumulate(out[a:b], out=out[a:b])
    starts, lengths = starts[~long], lengths[~long]
    for depth in range(1, int(lengths.max(initial=1))):
        rows = starts[lengths > depth] + depth
        out[rows] += out[rows - 1]
    return out


def _exact_sums(values: np.ndarray, negative: np.ndarray, buckets: np.ndarray) -> Dict[int, int]:
    """``sum(±U(v))`` per bucket id, exactly, in 2⁻¹⁰⁷⁴ units.

    Each value is its 53-bit integer mantissa times a power of two; the
    mantissas that share a bucket and an exponent are added in int64, at
    most :data:`_BUCKET` at a time, and each such sum is shifted once into
    a Python int.
    """
    keep = values != 0.0
    mantissa, exponent = np.frexp(values[keep])
    m = (mantissa * _TWO53).astype(np.int64)
    m[negative[keep]] *= -1
    key = buckets[keep] * _EXP_SPAN + (exponent + _EXP_BIAS)
    order = np.argsort(key, kind="stable")
    key, m = key[order], m[order]
    run = np.flatnonzero(np.diff(key, prepend=-1))
    within = np.arange(key.size) - np.repeat(run, np.diff(np.append(run, key.size)))
    chunks = np.flatnonzero(within % _BUCKET == 0)
    sums = np.add.reduceat(m, chunks) if chunks.size else m[:0]
    bucket, shift = np.divmod(key[chunks], _EXP_SPAN)
    shift -= _EXP_BIAS + 53 - 1074  # U(v) = m * 2**(exponent - 53 + 1074)
    out: Dict[int, int] = {}
    for b, s, k in zip(bucket.tolist(), sums.tolist(), shift.tolist()):
        out[b] = out.get(b, 0) + (s << k if k >= 0 else s >> -k)
    return out


def _fold(
    times: np.ndarray,
    comps: np.ndarray,
    group_starts: np.ndarray,
    dust_comps: np.ndarray,
    seg_of_group: np.ndarray,
    n_segs: int,
    n_comps: int,
) -> Tuple[np.ndarray, Dict[int, Dict[int, int]]]:
    """Invariants A and B for ``n_segs`` channel segments at once.

    ``times``/``comps`` are the charged events in fold order: by segment,
    then group, then emission.  Groups start at ``group_starts``, belong
    to segment ``seg_of_group`` (non-decreasing) and give their dust to
    ``dust_comps``.  Returns each segment's float total — the inner fold
    per group, then the outer ``np.add.accumulate`` over group totals —
    and, per non-empty segment, its components' exact shares in 2⁻¹⁰⁷⁴
    units, in first-appearance order.

    With ``T_j`` the outer running total and ``g_j`` group ``j``'s inner
    total, an event's share is ``U(inner after) − U(inner before)`` and
    group ``j``'s dust is ``U(T_j) − U(T_{j−1}) − U(g_j)``: every share is
    a signed sum of ``U`` values, which :func:`_exact_sums` adds exactly.
    """
    totals = np.zeros(n_segs)
    n, n_groups = len(times), len(group_starts)
    if not n:
        return totals, {}
    inner = _left_folds(times, group_starts)
    sizes = np.diff(np.append(group_starts, n))
    group_end = group_starts + sizes - 1
    g = inner[group_end]
    seg_start = np.flatnonzero(np.diff(seg_of_group, prepend=-1))
    outer = _left_folds(g, seg_start)
    seg_end = np.append(seg_start[1:], n_groups) - 1
    totals[seg_of_group[seg_end]] = outer[seg_end]
    before = np.empty(n_groups)
    before[0] = 0.0
    before[1:] = outer[:-1]
    before[seg_start] = 0.0
    # Nonzero dust is a rounded outer add: TwoSum's exact error term.
    back = outer - before
    dusty = ((before - (outer - back)) + (g - back)) != 0.0

    group_of = np.repeat(np.arange(n_groups), sizes)
    ev_bucket = seg_of_group[group_of] * n_comps + comps
    g_bucket = seg_of_group * n_comps + dust_comps
    # A one-event group whose event takes its dust: +U(event) − U(g) = 0.
    solo = (sizes == 1) & (comps[group_starts] == dust_comps)
    ev = np.flatnonzero(~solo[group_of])
    starts_group = np.zeros(n, dtype=bool)
    starts_group[group_starts] = True
    deep = ev[~starts_group[ev]]  # events after their group's first
    # Consecutive groups of one bucket telescope: +U(T_j) meets −U(T_j).
    same_next = np.zeros(n_groups, dtype=bool)
    same_next[:-1] = g_bucket[1:] == g_bucket[:-1]
    same_prev = np.zeros(n_groups, dtype=bool)
    same_prev[1:] = same_next[:-1]
    up, down, minus_g = ~same_next, ~same_prev, np.flatnonzero(~solo)
    values = np.concatenate((inner[ev], inner[deep - 1], outer[up], before[down], g[minus_g]))
    negative = np.zeros(values.size, dtype=bool)
    negative[ev.size:ev.size + deep.size] = True
    negative[values.size - minus_g.size - int(down.sum()):] = True
    buckets = np.concatenate((
        ev_bucket[ev], ev_bucket[deep], g_bucket[up], g_bucket[down], g_bucket[minus_g]
    ))
    shares = _exact_sums(values, negative, buckets)

    first = np.full(n_segs * n_comps, 2 * n + 1, dtype=np.int64)
    np.minimum.at(first, ev_bucket, 2 * np.arange(n))
    dust_at = np.flatnonzero(dusty)
    np.minimum.at(first, g_bucket[dust_at], 2 * group_end[dust_at] + 1)
    present = np.flatnonzero(first <= 2 * n)
    present = present[np.argsort(first[present], kind="stable")]
    per_seg: Dict[int, Dict[int, int]] = {}
    for b in present.tolist():
        seg, comp = divmod(b, n_comps)
        per_seg.setdefault(seg, {})[comp] = shares.get(b, 0)
    return totals, per_seg


def _per_frame_folds(values, frame, n_frames) -> np.ndarray:
    """Each frame's left fold of ``values`` (events in frame order)."""
    out = np.zeros(n_frames)
    if values.size:
        starts = np.flatnonzero(np.diff(frame, prepend=-1))
        ends = np.append(starts[1:], values.size) - 1
        out[frame[ends]] = _left_folds(values, starts)[ends]
    return out


def _fold_frames(cols: TraceColumns, frame: np.ndarray, n_frames: int):
    """Group, resolve and fold every frame of ``cols`` (``frame``: each
    row's frame index, non-decreasing) in one pass of array operations.

    Returns ``(io, prefetch, render, degraded_extra, n_re_miss, n_degraded,
    exact, shares, names)``: per-frame arrays, the per-segment shares of
    :func:`_fold` and the component names by id.
    """
    n = len(cols)
    kind, key, time_s = cols.kind, cols.key, cols.time_s
    frame_last = np.searchsorted(frame, np.arange(n_frames), side="right") - 1

    # Fault/retry/movement events form groups: a group continues while the
    # previous event is a fault/retry of the same block in the same frame.
    fm = np.flatnonzero(_IS_PENALTY[kind] | _IS_MOVEMENT[kind])
    f_fm, k_fm, m_fm = frame[fm], key[fm], _IS_MOVEMENT[kind[fm]]
    same_frame = np.zeros(fm.size, dtype=bool)
    same_frame[1:] = f_fm[1:] == f_fm[:-1]
    cont = same_frame.copy()
    cont[1:] &= ~m_fm[:-1] & (k_fm[1:] == k_fm[:-1])
    first = np.flatnonzero(~cont)
    last = np.append(first[1:], fm.size)[: first.size] - 1
    closed = m_fm[last]
    group_of = np.full(n, -1, dtype=np.int64)
    group_of[fm] = np.cumsum(~cont) - 1
    # A group is listed when its movement closes it, else (an orphan) when
    # the next fault/movement of its frame flushes it, else at frame end.
    nxt = np.minimum(last + 1, max(fm.size - 1, 0))
    flushed = (last + 1 < fm.size) & same_frame[nxt]
    rank = np.where(
        closed, 3 * fm[last] + 2,
        np.where(flushed, 3 * fm[nxt] + 1, 3 * frame_last[f_fm[last]] + 2),
    )

    # An xfer joins the group its block's movement just closed when that
    # was the frame's last listing; otherwise it is an orphan of its own.
    action = np.zeros(n, dtype=np.int8)  # 1: a movement listed a group
    action[fm[m_fm]] = 1
    flush = ~cont & same_frame & ~m_fm  # an orphan listed before a fault
    flush[1:] &= ~m_fm[:-1]
    action[fm[flush]] = 2
    xs = np.flatnonzero(kind == _XFER)
    action[xs] = 2
    acts = np.flatnonzero(action)
    at = np.searchsorted(acts, xs)
    prev = acts[np.maximum(at - 1, 0)]
    joins = (at > 0) & (frame[prev] == frame[xs]) & (action[prev] == 1) & (key[prev] == key[xs])
    x_joined, x_alone = xs[joins], xs[~joins]
    group_of[x_joined] = group_of[prev[joins]]
    group_of[x_alone] = first.size + np.arange(x_alone.size)

    g_first = np.concatenate((fm[first], x_alone))
    g_last = np.concatenate((fm[last], x_alone))
    g_rank = np.concatenate((rank, 3 * x_alone + 1))
    g_frame = frame[g_first]
    # A movement names its group's channel; an orphan's span may hint it.
    hints = np.array([_CHANNELS[_span_channel(s)] for s in cols.spans] or [-1])
    g_channel = np.where(
        np.append(closed, np.zeros(x_alone.size, dtype=bool)),
        np.where(kind[g_last] == _PREFETCH_KIND, _PREFETCH, _DEMAND),
        hints[cols.span[g_first]],
    )
    # Unhinted orphans take the previous listed group's channel (demand first).
    listed = np.argsort(g_rank, kind="stable")
    channel = g_channel[listed]
    unhinted = channel < 0
    starts_frame = np.diff(g_frame[listed], prepend=-1) != 0
    channel[unhinted & starts_frame] = _DEMAND
    source = np.where(channel >= 0, np.arange(channel.size), 0)
    np.maximum.accumulate(source, out=source)
    g_channel[listed] = channel[source]
    g_last[group_of[x_joined]] = x_joined  # the dust goes by the last event
    exact = np.ones(n_frames, dtype=bool)
    exact[g_frame[listed[unhinted]]] = False
    charged = np.flatnonzero(group_of >= 0)

    # Fold order: segment (frame, channel), then listing, then emission.
    g_seg = 2 * g_frame + g_channel
    g_order = np.argsort(g_seg * (3 * n + 3) + g_rank, kind="stable")
    g_pos = np.empty_like(g_order)
    g_pos[g_order] = np.arange(g_order.size)
    pos = g_pos[group_of[charged]]
    order = np.argsort(pos, kind="stable")
    events, pos = charged[order], pos[order]
    comps = _components(kind[events], cols.level[events])
    group_starts = np.flatnonzero(np.diff(pos, prepend=-1))
    ends = g_last[g_order]
    totals, shares = _fold(
        time_s[events], comps, group_starts,
        _dust_components(kind[ends], _components(kind[ends], cols.level[ends])),
        g_seg[g_order], 2 * n_frames, 3 + 3 * len(cols.levels),
    )

    render = np.flatnonzero(kind == _RENDER)
    degraded = np.flatnonzero(kind == _DEGRADED)
    return (
        totals[0::2], totals[1::2],
        _per_frame_folds(time_s[render], frame[render], n_frames),
        _per_frame_folds(time_s[degraded], frame[degraded], n_frames),
        np.bincount(frame[kind == _RE_MISS], minlength=n_frames),
        np.bincount(frame[degraded], minlength=n_frames),
        exact, shares, _component_names(cols.levels),
    )


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


def frame_row(tracer, seq: int, frame) -> Tuple[tuple, bool]:
    """One frame's ``(step, columns, ledger)`` row, and whether the tracer
    overwrote part of the frame's window before this slice.

    ``seq`` is ``tracer.n_recorded`` when the frame started; the columns
    are a copy of the rows recorded since then at the frame's step (the
    ring may wrap after the frame), and the ledger is the frame's ``(io,
    lookup, prefetch, render)`` times.  Frames run strictly one after
    another, so the slice is exactly the frame's.
    """
    cols = tracer.columns_since(seq)
    at_step = cols.step == frame.step
    cols = cols.copy() if at_step.all() else cols.take(at_step)
    ledger = (frame.io_time_s, frame.lookup_time_s, frame.prefetch_time_s, frame.render_time_s)
    return (frame.step, cols, ledger), tracer.n_dropped > seq


def _report(
    steps: Sequence[int],
    cols: TraceColumns,
    frame: np.ndarray,
    ledgers: Sequence[Optional[Tuple[float, float, float, float]]],
    drop_stats: Optional[Dict[str, int]],
    incomplete: bool,
) -> AttributionReport:
    """The report of frames ``steps``; ``frame`` is each row's index into
    them (non-decreasing) and ``ledgers`` their ledger rows."""
    (io, pf, render, degraded, n_re_miss, n_degraded, exact, shares,
     names) = _fold_frames(cols, frame, len(steps))
    frames: List[FrameAttribution] = []
    demand_tot: Dict[str, int] = {}
    prefetch_tot: Dict[str, int] = {}
    io_u = lookup_u = prefetch_u = render_u = saving_u = 0
    degraded_extra = 0.0
    for f, (step, ledger, io_total, pf_total, render_total, frame_exact) in enumerate(zip(
        steps, ledgers, io.tolist(), pf.tolist(), render.tolist(), exact.tolist()
    )):
        demand = {names[c]: u for c, u in shares.get(2 * f, {}).items()}
        prefetch = {names[c]: u for c, u in shares.get(2 * f + 1, {}).items()}
        if ledger is not None:
            lg_io, lg_lookup, lg_prefetch, lg_render = ledger
            reconciled: Optional[bool] = (
                io_total == lg_io and pf_total == lg_prefetch and render_total == lg_render
            )
            if not frame_exact and reconciled:
                # An inexact fold that happens to match is luck, not proof.
                reconciled = None
            lookup = lg_lookup
        else:
            reconciled = None
            lookup = 0.0
        row = FrameAttribution(
            step=step,
            io_time_s=io_total,
            lookup_time_s=lookup,
            prefetch_time_s=pf_total,
            render_time_s=render_total,
            components=_fractions(demand),
            prefetch_components=_fractions(prefetch),
            overlap_saving_s=min(pf_total, render_total),
            n_re_miss=int(n_re_miss[f]),
            n_degraded=int(n_degraded[f]),
            degraded_extra_s=float(degraded[f]),
            reconciled=reconciled,
            exact=frame_exact,
        )
        frames.append(row)
        for k, v in demand.items():
            demand_tot[k] = demand_tot.get(k, 0) + v
        for k, v in prefetch.items():
            prefetch_tot[k] = prefetch_tot.get(k, 0) + v
        io_u += _units(io_total)
        lookup_u += _units(row.lookup_time_s)
        prefetch_u += _units(pf_total)
        render_u += _units(render_total)
        saving_u += _units(row.overlap_saving_s)
        degraded_extra += row.degraded_extra_s
    checkable = [f.reconciled for f in frames if f.reconciled is not None]
    return AttributionReport(
        frames=frames,
        demand_components=_fractions(demand_tot),
        prefetch_components=_fractions(prefetch_tot),
        totals={
            name: float(Fraction(units, _UNIT))
            for name, units in (
                ("io_time_s", io_u),
                ("lookup_time_s", lookup_u),
                ("prefetch_time_s", prefetch_u),
                ("render_time_s", render_u),
                ("frame_time_s", io_u + lookup_u + render_u),
                ("overlap_saving_s", saving_u),
            )
        },
        n_re_miss=int(n_re_miss.sum()),
        n_degraded=int(n_degraded.sum()),
        degraded_extra_s=degraded_extra,
        reconciled=(all(checkable) if checkable else None),
        exact=bool(exact.all()),
        incomplete=incomplete,
        drop_stats=dict(drop_stats) if drop_stats is not None else None,
    )


def attribute_frames(
    rows: Iterable[Tuple[int, Union[TraceColumns, Sequence[TraceEvent]],
                         Optional[Tuple[float, float, float, float]]]],
    drop_stats: Optional[Dict[str, int]] = None,
    incomplete: bool = False,
) -> AttributionReport:
    """Build a report from explicit ``(step, events, ledger)`` rows.

    ``events`` is a frame's :class:`~repro.trace.events.TraceColumns`
    (:func:`frame_row`'s) or a :class:`TraceEvent` sequence, converted
    once into columns.  The session scheduler uses this directly (it
    slices the shared tracer per frame); :func:`attribute_run` is the
    flat-stream wrapper.  ``incomplete`` is the caller's verdict that
    some frame's events were overwritten before it sliced them;
    ``drop_stats`` is recorded as is.
    """
    steps, parts, ledgers = [], [], []
    for step, events, ledger in rows:
        steps.append(step)
        parts.append(TraceColumns.from_events(events))
        ledgers.append(ledger)
    frame = np.repeat(np.arange(len(parts)), [len(p) for p in parts])
    return _report(steps, TraceColumns.concat(parts), frame, ledgers, drop_stats, incomplete)


def attribute_run(
    events: Union[TraceColumns, Iterable[TraceEvent]],
    steps: Optional[Sequence] = None,
    drop_stats: Optional[Dict[str, int]] = None,
) -> AttributionReport:
    """Attribute a whole run from its flat trace stream.

    ``events`` is a tracer's :meth:`~repro.trace.tracer.Tracer.columns_since`
    view or a :class:`TraceEvent` iterable (converted once into columns).
    ``steps`` are the run's :class:`~repro.core.metrics.StepMetrics`
    rows (or their ``as_dict`` forms, as found in bench snapshots) —
    they supply the per-step time ledger the folds reconcile against
    and the untraced ``lookup_time_s``.  Events with ``step < 0``
    (preload) carry no charged frame time and are skipped.  A flat
    stream has no per-frame window to check, so any drop in
    ``drop_stats`` marks the report ``incomplete``.
    """
    cols = TraceColumns.from_events(events)
    ledgers: Dict[int, Tuple[float, float, float, float]] = {}
    if steps is not None:
        for row in steps:
            key = int(row["step"]) if isinstance(row, dict) else int(row.step)
            ledgers[key] = _ledger_tuple(row)
    kept = np.flatnonzero(cols.step >= 0)
    kept = kept[np.argsort(cols.step[kept], kind="stable")]
    cols = cols.take(kept)
    all_steps = sorted(set(np.unique(cols.step).tolist()) | set(ledgers))
    frame = np.searchsorted(np.array(all_steps, dtype=np.int64), cols.step)
    return _report(
        all_steps, cols, frame, [ledgers.get(s) for s in all_steps], drop_stats,
        drop_stats is not None and drop_stats.get("n_dropped", 0) > 0,
    )
