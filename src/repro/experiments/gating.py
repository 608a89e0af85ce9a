"""The one snapshot gate.

Every snapshot in the repo is a ``MATRIX_<label>.json`` document written
by :func:`repro.experiments.matrix.run_matrix` — each bench tier and the
serve scenario included — and CI gates all of them the same way: flatten
the metrics of two documents to ``{name: (value, rule)}``, then diff each
metric against a per-direction threshold.

The vocabulary:

- a :class:`GateRule` says how one metric gates — its good *direction*,
  its comparison *mode* (relative change, absolute increase, absolute
  drop), and a threshold *scale* (wall-clock metrics gate at a widened
  threshold);
- a *metric set* is ``{name: (value, GateRule)}``;
- :func:`compare_metric_sets` diffs two metric sets into rows with the
  canonical statuses ``"regression"`` / ``"improved"`` / ``"ok"`` /
  ``"dropped"`` (the baseline has the metric, the candidate lacks it — a
  regression) / ``"missing"`` (only the candidate has it — informational).

A document flattens as its cells (:func:`flatten_run_summary`, plus
:func:`flatten_multi_tenant` and :func:`flatten_cluster_section` for the
sections serve and sharded cells carry) and its ``suite`` sections, each
under the section's name.  :func:`write_snapshot` / :func:`load_snapshot`
are the one writer and loader, :func:`compare_snapshots` refuses two
documents that ran different runners or axes, and
:func:`format_gate_rows` prints the rows.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

__all__ = [
    "MATRIX_SCHEMA_VERSION",
    "GateRule",
    "MetricSet",
    "WALL_THRESHOLD_FACTOR",
    "SUMMARY_METRIC_DIRECTIONS",
    "DERIVED_METRIC_DIRECTIONS",
    "compare_metric_sets",
    "count_regressions",
    "format_gate_rows",
    "flatten_run_summary",
    "flatten_multi_tenant",
    "flatten_cluster_section",
    "flatten_fullscale_section",
    "flatten_snapshot",
    "compare_snapshots",
    "write_snapshot",
    "load_snapshot",
]

#: Bump when the document layout changes incompatibly.
MATRIX_SCHEMA_VERSION = 1

#: Wall-clock/RSS metrics are machine-noisy; they gate at
#: ``threshold * WALL_THRESHOLD_FACTOR`` so same-machine CI catches
#: multi-x slowdowns without flaking on scheduler jitter.
WALL_THRESHOLD_FACTOR = 4.0

PathLike = Union[str, Path]

#: run ``summary`` metric -> good direction ("lower" = increases regress).
SUMMARY_METRIC_DIRECTIONS = {
    "total_miss_rate": "lower",
    "fast_miss_rate": "lower",
    "io_time_s": "lower",
    "total_time_s": "lower",
    "bytes_moved": "lower",
}

#: run ``derived`` metric -> good direction.
DERIVED_METRIC_DIRECTIONS = {
    "prefetch_precision": "higher",
    "prefetch_recall": "higher",
}


@dataclass(frozen=True)
class GateRule:
    """How one metric gates.

    ``direction``
        ``"lower"`` (increases are bad) or ``"higher"``.
    ``mode``
        - ``"relative"`` — change relative to ``max(|old|, abs_floor)``;
          regresses past ``threshold * scale`` in the bad direction.  A
          metric that was exactly 0 divides by ``abs_floor`` (1e-12), so
          a move off 0 in the bad direction regresses unless it is below
          ``threshold * scale * abs_floor``.
        - ``"absolute_increase"`` — any increase regresses, threshold
          ignored (cross-tenant evictions).
        - ``"absolute_drop"`` — a drop of more than ``threshold * scale``
          in absolute units regresses (the Jain fairness index).
    ``scale``
        Threshold multiplier; wall-clock metrics use
        :data:`WALL_THRESHOLD_FACTOR`.
    """

    direction: str = "lower"
    mode: str = "relative"
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.direction not in ("lower", "higher"):
            raise ValueError(f"direction must be 'lower'/'higher', got {self.direction!r}")
        if self.mode not in ("relative", "absolute_increase", "absolute_drop"):
            raise ValueError(f"unknown gate mode {self.mode!r}")
        if self.scale <= 0:
            raise ValueError(f"scale must be positive, got {self.scale}")


#: ``{metric name: (value, rule)}`` — what the flatteners produce and
#: :func:`compare_metric_sets` consumes.
MetricSet = Dict[str, Tuple[float, GateRule]]

_WALL_RULE = GateRule("lower", scale=WALL_THRESHOLD_FACTOR)


def _compare_one(
    old_value: float, new_value: float, rule: GateRule, threshold: float, abs_floor: float
) -> Tuple[float, bool, bool]:
    """Returns ``(change, regressed, improved)`` for one metric pair."""
    limit = threshold * rule.scale
    if rule.mode == "absolute_increase":
        change = new_value - old_value
        bad = new_value > old_value
        good = new_value < old_value
    elif rule.mode == "absolute_drop":
        change = new_value - old_value
        drop = old_value - new_value if rule.direction == "higher" else new_value - old_value
        bad = drop > limit
        good = drop < 0
    else:
        denom = max(abs(old_value), abs_floor)
        change = (new_value - old_value) / denom
        bad = change > limit if rule.direction == "lower" else change < -limit
        good = change < 0 if rule.direction == "lower" else change > 0
    return change, bad, good and change != 0


def compare_metric_sets(
    old: Mapping[str, Tuple[float, GateRule]],
    new: Mapping[str, Tuple[float, GateRule]],
    threshold: float = 0.10,
    abs_floor: float = 1e-12,
) -> List[Dict[str, object]]:
    """Diff two metric sets; one row per metric present in either.

    Rows are sorted by metric name and carry ``metric`` / ``old`` /
    ``new`` / ``change`` / ``direction`` / ``status``.  A metric only the
    baseline has reports ``"dropped"`` and counts as a regression (a lost
    section must not pass silently); one only the candidate has reports
    ``"missing"`` and never regresses.  Both carry the present side's
    value.  The rule of the *new* side wins when the two sides disagree
    (a renamed direction applies immediately).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            rows.append({
                "metric": name,
                "status": "dropped" if name in old else "missing",
                "old": old.get(name, (None,))[0],
                "new": new.get(name, (None,))[0],
            })
            continue
        old_value, _old_rule = old[name]
        new_value, rule = new[name]
        change, bad, good = _compare_one(
            float(old_value), float(new_value), rule, threshold, abs_floor
        )
        rows.append({
            "metric": name,
            "old": float(old_value),
            "new": float(new_value),
            "change": change,
            "direction": rule.direction,
            "status": "regression" if bad else ("improved" if good else "ok"),
        })
    return rows


def count_regressions(rows: List[Dict[str, object]]) -> int:
    """Rows that fail the gate: regressions and dropped metrics."""
    return sum(1 for r in rows if r["status"] in ("regression", "dropped"))


def format_gate_rows(rows: List[Dict[str, object]], verbose: bool = False) -> str:
    """Human-readable comparison table; non-ok rows always shown."""
    lines = [f"{'metric':<58} {'old':>12} {'new':>12} {'change':>9}  status"]
    lines.append("-" * len(lines[0]))
    shown = 0
    for row in rows:
        if row["status"] == "ok" and not verbose:
            continue
        shown += 1
        old = "-" if row.get("old") is None else f"{row['old']:.6g}"
        new = "-" if row.get("new") is None else f"{row['new']:.6g}"
        change = f"{row['change']:+.1%}" if "change" in row else "-"
        lines.append(f"{row['metric']:<58} {old:>12} {new:>12} {change:>9}  {row['status']}")
    n_reg = count_regressions(rows)
    n_dropped = sum(1 for r in rows if r["status"] == "dropped")
    tally = f"{len(rows)} metrics compared, {n_reg} regression(s)"
    if n_dropped:
        tally += f" ({n_dropped} dropped)"
    if not verbose:
        tally += f", {len(rows) - shown} unchanged/ok hidden"
    lines.append(tally)
    return "\n".join(lines)


# -- flatteners ---------------------------------------------------------------


def flatten_run_summary(
    run: Mapping[str, object],
    prefix: str,
    wall_metrics: Tuple[str, ...] = (),
) -> MetricSet:
    """Flatten one cell (``summary``/``derived``/histograms/trace drops).

    ``wall_metrics`` names top-level cell keys (``fullscale-cell``:
    ``wall_s``, ``per_step_wall_s``) additionally gated at the widened
    wall threshold.
    """
    out: MetricSet = {}
    summary = run.get("summary", {})
    for name, direction in SUMMARY_METRIC_DIRECTIONS.items():
        value = summary.get(name)
        if isinstance(value, (int, float)):
            out[f"{prefix}.{name}"] = (float(value), GateRule(direction))
    derived = run.get("derived", {})
    for name, direction in DERIVED_METRIC_DIRECTIONS.items():
        value = derived.get(name)
        if isinstance(value, (int, float)):
            out[f"{prefix}.{name}"] = (float(value), GateRule(direction))
    for hist_name in ("fetch_latency_seconds", "frame_time_seconds"):
        for labels, row in sorted(derived.get(hist_name, {}).items()):
            for pct in ("p50", "p95", "p99"):
                value = row.get(pct)
                if isinstance(value, (int, float)):
                    out[f"{prefix}.{hist_name}{{{labels}}}.{pct}"] = (
                        float(value), GateRule("lower"),
                    )
    drops = run.get("trace", {}).get("n_dropped")
    if isinstance(drops, int):
        out[f"{prefix}.trace.n_dropped"] = (float(drops), GateRule("lower"))
    for name in wall_metrics:
        value = run.get(name)
        if isinstance(value, (int, float)):
            out[f"{prefix}.{name}"] = (float(value), _WALL_RULE)
    return out


def flatten_multi_tenant(
    mt: Mapping[str, object], prefix: str = "multi_tenant"
) -> MetricSet:
    """Flatten a ``multi_tenant`` section (a serve cell's or the default
    tier's ``suite`` scenario) — one rule everywhere.

    Per-tenant and pooled frame-time percentiles and the makespan gate
    relatively; the Jain fairness index regresses on an absolute drop of
    more than the threshold; cross-tenant evictions regress on any
    increase.
    """
    frames = mt["frame_times"]
    out: MetricSet = {
        f"{prefix}.fairness_jain": (
            float(frames["fairness_jain"]), GateRule("higher", mode="absolute_drop"),
        ),
        f"{prefix}.cross_evictions": (
            float(mt["cross_evictions"]), GateRule("lower", mode="absolute_increase"),
        ),
        f"{prefix}.makespan_s": (float(mt["makespan_s"]), GateRule("lower")),
    }
    for pct in ("p50", "p95", "p99"):
        out[f"{prefix}.pooled.{pct}"] = (float(frames["pooled"][pct]), GateRule("lower"))
    for tenant, row in sorted(frames["per_tenant"].items()):
        for pct in ("p50", "p95", "p99"):
            out[f"{prefix}.{tenant}.{pct}"] = (float(row[pct]), GateRule("lower"))
    return out


def flatten_cluster_section(
    section: Mapping[str, object], prefix: str = "cluster"
) -> MetricSet:
    """Flatten a sharded cell's network ledger (all simulated quantities)."""
    out: MetricSet = {}
    for route, value in sorted(section.get("split_bytes", {}).items()):
        if isinstance(value, (int, float)):
            out[f"{prefix}.split_bytes.{route}"] = (float(value), GateRule("lower"))
    locality = section.get("shard_map", {}).get("locality_score")
    if isinstance(locality, (int, float)):
        out[f"{prefix}.locality_score"] = (float(locality), GateRule("higher"))
    for name, direction in (
        ("peer_bytes", "lower"),
        ("peer_time_s", "lower"),
        ("peer_transfers", "lower"),
        ("link_fallbacks", "lower"),
        ("fallback_reads", "lower"),
    ):
        value = section.get(name)
        if isinstance(value, (int, float)):
            out[f"{prefix}.{name}"] = (float(value), GateRule(direction))
    for link, row in sorted(section.get("links", {}).items()):
        for field in ("bytes", "time_s"):
            value = row.get(field)
            if isinstance(value, (int, float)):
                out[f"{prefix}.link.{link}.{field}"] = (float(value), GateRule("lower"))
    return out


def flatten_fullscale_section(
    section: Mapping[str, object], prefix: str = "fullscale"
) -> MetricSet:
    """Flatten the fullscale tier's timed table build: its wall-clock and
    RSS metrics, all at the widened wall threshold."""
    out: MetricSet = {}
    for name in ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes"):
        value = section.get(name)
        if isinstance(value, (int, float)):
            out[f"{prefix}.{name}"] = (float(value), _WALL_RULE)
    return out


# -- snapshots ----------------------------------------------------------------

#: runner -> the wall-clock fields of its cells that gate (at the widened
#: threshold).  Every other runner's wall fields are informational.
_WALL_GATED_FIELDS = {"fullscale-cell": ("wall_s", "per_step_wall_s")}

#: ``suite`` section name -> its flattener; rows keep the section's name
#: as their prefix.
_SUITE_FLATTENERS = {
    "multi_tenant": flatten_multi_tenant,
    "fullscale": flatten_fullscale_section,
}


def flatten_snapshot(doc: Mapping[str, Any]) -> MetricSet:
    """The gating metric set of a document.

    Per cell: the run summary, the multi-tenant section of serve cells
    and the network ledger of sharded cells; per ``suite`` section, its
    flattener under the section's name.
    """
    wall = _WALL_GATED_FIELDS.get(doc.get("runner"), ())
    out: MetricSet = {}
    for key, cell in sorted(doc["cells"].items()):
        out.update(flatten_run_summary(cell, key, wall_metrics=wall))
        if "multi_tenant" in cell:
            out.update(flatten_multi_tenant(cell["multi_tenant"], prefix=f"{key}.multi_tenant"))
        if "cluster" in cell:
            out.update(flatten_cluster_section(cell["cluster"], prefix=f"{key}.cluster"))
    for name, section in sorted(doc.get("suite", {}).items()):
        if name not in _SUITE_FLATTENERS:
            raise ValueError(
                f"unknown suite section {name!r}; known: {sorted(_SUITE_FLATTENERS)}"
            )
        out.update(_SUITE_FLATTENERS[name](section, prefix=name))
    return out


def _shape(doc: Mapping[str, Any]) -> Tuple[Any, List[str]]:
    # Sorted: a written document's keys are sorted, an in-memory one's
    # keep the spec's declaration order.
    return doc.get("runner"), sorted(doc.get("spec", {}).get("axes", {}))


def compare_snapshots(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = 0.10,
    abs_floor: float = 1e-12,
) -> List[Dict[str, object]]:
    """Diff two documents of one runner and one axis layout into gate rows.

    Raises :class:`ValueError` naming both sides when the runners or the
    axis names differ: the metric names of two such documents never line
    up, so the diff would be nothing but dropped and missing rows.
    """
    (old_runner, old_axes), (new_runner, new_axes) = _shape(old), _shape(new)
    if old_runner != new_runner:
        raise ValueError(
            f"cannot compare a {old_runner!r}-runner document with a "
            f"{new_runner!r}-runner document"
        )
    if old_axes != new_axes:
        raise ValueError(
            f"cannot compare documents over different axes: {old_axes} vs {new_axes}"
        )
    return compare_metric_sets(
        flatten_snapshot(old), flatten_snapshot(new), threshold=threshold, abs_floor=abs_floor
    )


def write_snapshot(
    doc: Mapping[str, Any], out_dir: PathLike = ".", label: Optional[str] = None
) -> Path:
    """Write ``MATRIX_<label>.json`` under ``out_dir`` (created if
    missing); returns the path.

    ``label`` (default: the document's own) names the file only; a ``/``
    in it becomes ``-`` so the file lands in ``out_dir``.
    """
    label = doc["label"] if label is None else label
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"MATRIX_{str(label).replace('/', '-')}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_snapshot(path: PathLike) -> Dict[str, Any]:
    """Read a matrix document, checking its kind and schema version."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    if not isinstance(doc, Mapping) or doc.get("kind") != "matrix":
        raise ValueError(f"{path}: not a matrix document (no kind 'matrix')")
    version = doc.get("schema_version")
    if version != MATRIX_SCHEMA_VERSION:
        raise ValueError(
            f"{path}: schema_version {version!r} != supported {MATRIX_SCHEMA_VERSION}"
        )
    return doc
