"""Persisting run results.

Experiments produce :class:`~repro.core.metrics.RunResult` (and
:class:`~repro.core.interactive.BudgetedResult`) objects; this module
serialises them for downstream analysis — a JSON document with the summary
plus full per-level statistics, and a per-step CSV for plotting time
series.  No pickle: files are portable and diffable.

Per-step records are serialised from ``dataclasses.fields`` of the actual
step type, so a field added to :class:`~repro.core.metrics.StepMetrics` or
:class:`~repro.core.interactive.BudgetedStep` (e.g. ``n_dropped``) shows
up in every artifact automatically instead of silently drifting out of a
hand-maintained column list.
"""

from __future__ import annotations

import csv
import dataclasses
import json
from pathlib import Path
from typing import Dict, List

import numpy as np

from repro.core.metrics import RunResult

__all__ = ["run_to_dict", "save_run_json", "save_steps_csv", "load_run_json"]


def _step_field_names(result) -> List[str]:
    if not result.steps:
        return []
    return [f.name for f in dataclasses.fields(result.steps[0])]


def _plain(value):
    """JSON-plain view of one step field value."""
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, np.generic):
        return value.item()
    return value


def run_to_dict(result) -> Dict:
    """A JSON-serialisable view of a run (summary + hierarchy stats + steps).

    Accepts a :class:`~repro.core.metrics.RunResult` or a
    :class:`~repro.core.interactive.BudgetedResult`; step rows carry every
    dataclass field of the step type.
    """
    doc: Dict = {
        "name": result.name,
        "steps": [
            {f.name: _plain(getattr(s, f.name)) for f in dataclasses.fields(s)}
            for s in result.steps
        ],
    }
    if isinstance(result, RunResult):
        doc["policy"] = result.policy
        doc["overlap_prefetch"] = result.overlap_prefetch
        doc["summary"] = dict(result.summary())
        doc["hierarchy"] = result.hierarchy_stats.as_dict()
        doc["extras"] = {k: _plain(v) for k, v in result.extras.items()}
    else:  # budgeted replay
        doc["io_budget_s"] = result.io_budget_s
        doc["summary"] = {
            "mean_coverage": result.mean_coverage,
            "min_coverage": result.min_coverage,
            "full_frames": result.full_frames,
        }
    return doc


def save_run_json(result, path: "str | Path") -> Path:
    """Write the full run record as JSON; returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(run_to_dict(result), indent=2, sort_keys=True))
    return path


def load_run_json(path: "str | Path") -> Dict:
    """Read back a saved run record (as plain dicts, not a RunResult)."""
    return json.loads(Path(path).read_text())


def save_steps_csv(result, path: "str | Path") -> Path:
    """Write the per-step time series as CSV (one row per view point).

    Columns are the step dataclass's fields, in declaration order; array
    fields (``rendered_ids``) are written as JSON lists in their cell.
    """
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fields = _step_field_names(result)
    with path.open("w", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(fields)
        for s in result.steps:
            row = []
            for name in fields:
                value = _plain(getattr(s, name))
                row.append(json.dumps(value) if isinstance(value, list) else value)
            writer.writerow(row)
    return path
