"""The stateful side of fault injection: plan queries plus running stats.

:class:`FaultInjector` is what gets installed on a
:class:`~repro.storage.hierarchy.MemoryHierarchy` — it delegates every
decision to the immutable :class:`~repro.faults.plan.FaultPlan` and
counts what actually happened per device (errors, retries, timeouts,
spikes, degraded reads, breaker transitions, dropped blocks), so a run
can report its fault exposure in bench snapshots and summaries.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.faults.plan import FaultPlan

__all__ = ["FaultStats", "FaultInjector"]

#: Per-device event kinds a :class:`FaultStats` tracks.
FAULT_STAT_KINDS = (
    "errors",
    "retries",
    "timeouts",
    "spikes",
    "degraded_reads",
    "breaker_opens",
    "breaker_skips",
    "dropped_blocks",
    "corruptions",
)


class FaultStats:
    """Per-device counters of injected faults and resilience actions."""

    __slots__ = FAULT_STAT_KINDS

    def __init__(self) -> None:
        for kind in FAULT_STAT_KINDS:
            setattr(self, kind, {})

    def bump(self, kind: str, device: str, n: int = 1) -> None:
        counts: Dict[str, int] = getattr(self, kind)
        counts[device] = counts.get(device, 0) + n

    def total(self, kind: str) -> int:
        return sum(getattr(self, kind).values())

    @property
    def any_faults(self) -> bool:
        return any(self.total(kind) for kind in FAULT_STAT_KINDS)

    def as_dict(self) -> Dict[str, object]:
        """Totals plus the per-device breakdown (sorted for stable JSON)."""
        out: Dict[str, object] = {}
        for kind in FAULT_STAT_KINDS:
            counts: Dict[str, int] = getattr(self, kind)
            out[kind] = self.total(kind)
            out[f"{kind}_by_device"] = {d: counts[d] for d in sorted(counts)}
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        parts = ", ".join(f"{k}={self.total(k)}" for k in FAULT_STAT_KINDS if self.total(k))
        return f"FaultStats({parts or 'clean'})"


class FaultInjector:
    """A :class:`FaultPlan` plus the stats of what it actually injected.

    The query methods mirror the plan's (pure) queries but record each
    positive outcome, so the plan stays shareable/immutable while the
    injector is per-run state.
    """

    def __init__(self, plan: FaultPlan) -> None:
        self.plan = plan
        self.stats = FaultStats()

    @property
    def is_null(self) -> bool:
        return self.plan.is_null

    # -- plan queries (recorded) ----------------------------------------------

    def fails(self, device: str, key: int, step: int, attempt: int) -> bool:
        if self.plan.fails(device, key, step, attempt):
            self.stats.bump("errors", device)
            return True
        return False

    def spike_s(self, device: str, key: int, step: int, attempt: int) -> float:
        s = self.plan.spike_s(device, key, step, attempt)
        if s > 0.0:
            self.stats.bump("spikes", device)
        return s

    def slowdown(self, device: str, step: int) -> float:
        return self.plan.slowdown(device, step)

    def spike_s_many(self, device: str, keys: np.ndarray, step: int, attempt: int) -> np.ndarray:
        """:meth:`spike_s` for every key, as one array."""
        out = self.plan.spike_s_many(device, keys, step, attempt)
        n = int(np.count_nonzero(out))
        if n:
            self.stats.bump("spikes", device, n)
        return out

    def corrupts(self, device: str, key: int, attempt: int) -> bool:
        if self.plan.corrupts(device, key, attempt):
            self.stats.bump("corruptions", device)
            return True
        return False

    # -- resilience-action records ---------------------------------------------

    def record_errors(self, device: str, n: int) -> None:
        """``n`` failed draws a batched caller looked up with the plan's
        array form (:meth:`FaultPlan.fails_many`) ahead of using them."""
        self.stats.bump("errors", device, n)

    def record_retry(self, device: str) -> None:
        self.stats.bump("retries", device)

    def record_timeout(self, device: str) -> None:
        self.stats.bump("timeouts", device)

    def record_degraded(self, device: str, n: int = 1) -> None:
        self.stats.bump("degraded_reads", device, n)

    def record_breaker_open(self, device: str) -> None:
        self.stats.bump("breaker_opens", device)

    def record_breaker_skip(self, device: str) -> None:
        self.stats.bump("breaker_skips", device)

    def record_drop(self, device: str) -> None:
        self.stats.bump("dropped_blocks", device)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FaultInjector(seed={self.plan.seed}, {self.stats!r})"
