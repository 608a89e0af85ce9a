"""The ``Fraction`` fold: the reference the integer partition in
:func:`repro.obs.attribution._fold` must answer exactly like (one channel
at a time: ``_fold_channel`` in ``tests/obs/test_attribution.py``).

Invariants A and B computed with :class:`fractions.Fraction` marginals,
one ``Fraction`` per event and per group.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from repro.obs.attribution import _MOVEMENT
from repro.trace.events import TraceEvent

from tests.obs._event_fold_reference import _component_of

_ZERO = Fraction(0)


def _fold_channel(
    groups: Iterable[List[TraceEvent]],
) -> Tuple[float, Dict[str, Fraction]]:
    """Invariants A and B for one channel.

    Inner float fold per group (emission order), outer float fold over
    group totals — reproducing the engine's accumulation bit-for-bit —
    plus the exact ``Fraction`` marginal partition with per-group dust
    assigned to the closing movement's component (fault penalty for
    orphans).
    """
    total = 0.0
    comps: Dict[str, Fraction] = {}
    for g in groups:
        inner = 0.0
        marginals: List[Tuple[str, Fraction]] = []
        for e in g:
            before = inner
            inner = inner + e.time_s
            marginals.append((_component_of(e), Fraction(inner) - Fraction(before)))
        outer_before = total
        total = total + inner
        group_share = Fraction(total) - Fraction(outer_before)
        dust = group_share - Fraction(inner)
        for comp, m in marginals:
            comps[comp] = comps.get(comp, _ZERO) + m
        if dust:
            last = g[-1]
            comp = (
                _component_of(last)
                if (last.kind in _MOVEMENT or last.kind == "xfer")
                else "fault_penalty"
            )
            comps[comp] = comps.get(comp, _ZERO) + dust
    return total, comps
