"""Persisting run results.

Every replay produces a :class:`~repro.core.metrics.RunResult`; this
module serialises it for downstream analysis — a JSON document with the
summary plus full per-level statistics, and a per-step CSV for plotting
time series.  No pickle: files are portable and diffable.

Per-step records are serialised from ``dataclasses.fields`` of
:class:`~repro.core.metrics.StepMetrics`, so a field added to it shows up
in every artifact automatically instead of silently drifting out of a
hand-maintained column list.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict

import numpy as np

from repro.core.metrics import RunResult, StepMetrics

__all__ = ["run_to_dict", "save_run_json", "save_steps_csv", "load_run_json"]


def _plain(value):
    """JSON-plain view of one numpy scalar (a step field or an extra)."""
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_to_dict(result: RunResult) -> Dict:
    """A JSON-serialisable view of a run (summary + hierarchy stats + steps);
    step rows carry every :class:`~repro.core.metrics.StepMetrics` field."""
    return {
        "name": result.name,
        "steps": [
            {f.name: _plain(getattr(s, f.name)) for f in dataclasses.fields(s)}
            for s in result.steps
        ],
        "policy": result.policy,
        "overlap_prefetch": result.overlap_prefetch,
        "summary": dict(result.summary()),
        "hierarchy": result.hierarchy_stats.as_dict(),
        "extras": {k: _plain(v) for k, v in result.extras.items()},
    }


def save_run_json(result: RunResult, path: "str | Path") -> Path:
    """Write the full run record as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_to_dict(result), indent=2, sort_keys=True))
    return path


def load_run_json(path: "str | Path") -> Dict:
    """Read back a saved run record (as plain dicts, not a RunResult)."""
    return json.loads(Path(path).read_text())


def save_steps_csv(result: RunResult, path: "str | Path") -> Path:
    """Write the per-step time series as CSV (one row per view point);
    the columns are :class:`~repro.core.metrics.StepMetrics`'s fields, in
    declaration order."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = [f.name for f in dataclasses.fields(StepMetrics)]
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for s in result.steps:
            writer.writerow([_plain(getattr(s, name)) for name in fields])
    return path
