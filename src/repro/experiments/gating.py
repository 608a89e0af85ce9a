"""The one snapshot gate.

Every snapshot in the repo — ``BENCH_*.json`` (three bench tiers),
``SERVE_*.json`` and ``MATRIX_*.json`` — is written, loaded and compared
here, and CI gates all of them the same way: flatten the metrics of two
snapshots of one *kind* to ``{name: (value, rule)}``, then diff each
metric against a per-direction threshold.

The vocabulary:

- a :class:`GateRule` says how one metric gates — its good *direction*,
  its comparison *mode* (relative change, absolute increase, absolute
  drop), and a threshold *scale* (wall-clock metrics gate at a widened
  threshold);
- a *metric set* is ``{name: (value, GateRule)}``;
- :func:`compare_metric_sets` diffs two metric sets into rows with the
  canonical statuses ``"regression"`` / ``"improved"`` / ``"ok"`` /
  ``"missing"`` (metrics missing on either side never regress).

A snapshot's kind (:func:`snapshot_kind`) is its bench tier (``bench``,
``cluster``, ``fullscale``), ``serve`` or ``matrix``; each kind has one
flattener built from the section flatteners (:func:`flatten_run_summary`,
:func:`flatten_multi_tenant`, :func:`flatten_cluster_section`).
:func:`write_snapshot` / :func:`load_snapshot` are the one writer and
loader, :func:`compare_snapshots` refuses two different kinds, and
:func:`format_gate_rows` prints the rows of every kind.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any, Callable, Dict, List, Mapping, NamedTuple, Optional, Sequence, Tuple, Union,
)

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "SERVE_SCHEMA_VERSION",
    "MATRIX_SCHEMA_VERSION",
    "BENCH_KINDS",
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
    "snapshot_kind",
    "flatten_snapshot",
    "compare_snapshots",
    "write_snapshot",
    "load_snapshot",
]

#: Bump one of these when that snapshot layout changes incompatibly.
BENCH_SCHEMA_VERSION = 1
SERVE_SCHEMA_VERSION = 1
MATRIX_SCHEMA_VERSION = 1

#: The kinds of a ``BENCH_*.json`` snapshot: its ``tier`` (no ``tier``
#: key is the default ``bench`` tier).
BENCH_KINDS = ("bench", "cluster", "fullscale")

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
    ``new`` / ``change`` / ``direction`` / ``status``; metrics missing
    on either side report status ``"missing"`` (with the present side's
    value) and never regress.  The rule of the *new* side wins when the
    two sides disagree (a renamed direction applies immediately).
    """
    if threshold < 0:
        raise ValueError(f"threshold must be >= 0, got {threshold}")
    rows: List[Dict[str, object]] = []
    for name in sorted(set(old) | set(new)):
        if name not in old or name not in new:
            rows.append({
                "metric": name,
                "status": "missing",
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
    return sum(1 for r in rows if r["status"] == "regression")


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
    lines.append(
        f"{len(rows)} metrics compared, {n_reg} regression(s), "
        f"{len(rows) - shown} unchanged/ok hidden"
        if not verbose
        else f"{len(rows)} metrics compared, {n_reg} regression(s)"
    )
    return "\n".join(lines)


# -- flatteners ---------------------------------------------------------------


def flatten_run_summary(
    run: Mapping[str, object],
    prefix: str,
    wall_metrics: Tuple[str, ...] = (),
) -> MetricSet:
    """Flatten one run cell (``summary``/``derived``/histograms/trace drops).

    This is the per-run section shared by every bench tier and every
    matrix cell.  ``wall_metrics`` names top-level run keys (fullscale
    tier: ``wall_s``, ``per_step_wall_s``) additionally gated at the
    widened wall threshold.
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
            out[f"{prefix}.{name}"] = (
                float(value), GateRule("lower", scale=WALL_THRESHOLD_FACTOR),
            )
    return out


def flatten_multi_tenant(
    mt: Mapping[str, object], prefix: str = "multi_tenant"
) -> MetricSet:
    """Flatten a ``multi_tenant`` section (bench suite, serve snapshot or
    serve matrix cell) — one rule everywhere.

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
    """Flatten a cluster-tier network ledger (all simulated quantities)."""
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


# -- snapshots ----------------------------------------------------------------

#: Wall-clock/RSS metrics of a fullscale-tier ``fullscale`` section.
_FULLSCALE_WALL_METRICS = ("importance_wall_s", "table_build_wall_s", "peak_rss_bytes")


def _flatten_runs(doc: Mapping[str, Any], wall_metrics: Tuple[str, ...] = ()) -> MetricSet:
    out: MetricSet = {}
    for key, run in sorted(doc["runs"].items()):
        out.update(flatten_run_summary(run, key, wall_metrics=wall_metrics))
    return out


def _flatten_bench(doc: Mapping[str, Any]) -> MetricSet:
    """Default tier: the run cells plus the multi-tenant scenario (absent
    from pre-multi-tenant snapshots, whose rows then report missing)."""
    out = _flatten_runs(doc)
    if doc.get("multi_tenant"):
        out.update(flatten_multi_tenant(doc["multi_tenant"]))
    return out


def _flatten_cluster(doc: Mapping[str, Any]) -> MetricSet:
    """Cluster tier: the run cells plus the partition cell's network ledger."""
    return {**flatten_cluster_section(doc.get("cluster", {})), **_flatten_runs(doc)}


def _flatten_fullscale(doc: Mapping[str, Any]) -> MetricSet:
    """Fullscale tier: the run cells plus its wall-clock/RSS metrics, all
    of those at the widened wall threshold."""
    out: MetricSet = {}
    section = doc.get("fullscale", {})
    for name in _FULLSCALE_WALL_METRICS:
        value = section.get(name)
        if isinstance(value, (int, float)):
            out[f"fullscale.{name}"] = (
                float(value), GateRule("lower", scale=WALL_THRESHOLD_FACTOR),
            )
    out.update(_flatten_runs(doc, wall_metrics=("wall_s", "per_step_wall_s")))
    return out


def _flatten_serve(doc: Mapping[str, Any]) -> MetricSet:
    return flatten_multi_tenant(doc["multi_tenant"])


def _flatten_matrix(doc: Mapping[str, Any]) -> MetricSet:
    """Per cell: the run summary, the multi-tenant section of serve cells
    and the network ledger of sharded cells; never a wall-clock field."""
    out: MetricSet = {}
    for key, cell in sorted(doc["cells"].items()):
        out.update(flatten_run_summary(cell, key))
        if "multi_tenant" in cell:
            out.update(flatten_multi_tenant(cell["multi_tenant"], prefix=f"{key}.multi_tenant"))
        if "cluster" in cell:
            out.update(flatten_cluster_section(cell["cluster"], prefix=f"{key}.cluster"))
    return out


class _Kind(NamedTuple):
    prefix: str  # file name: <prefix>_<label>.json
    schema_version: int
    flatten: Callable[[Mapping[str, Any]], MetricSet]


_KINDS: Dict[str, _Kind] = {
    "bench": _Kind("BENCH", BENCH_SCHEMA_VERSION, _flatten_bench),
    "cluster": _Kind("BENCH", BENCH_SCHEMA_VERSION, _flatten_cluster),
    "fullscale": _Kind("BENCH", BENCH_SCHEMA_VERSION, _flatten_fullscale),
    "serve": _Kind("SERVE", SERVE_SCHEMA_VERSION, _flatten_serve),
    "matrix": _Kind("MATRIX", MATRIX_SCHEMA_VERSION, _flatten_matrix),
}


def snapshot_kind(doc: Any) -> str:
    """A snapshot's kind: its bench tier (:data:`BENCH_KINDS`), ``serve``
    or ``matrix``, read from the document's own layout."""
    if not isinstance(doc, Mapping):
        raise ValueError("a snapshot is a JSON object")
    if doc.get("kind") == "matrix":
        return "matrix"
    if "runs" in doc:
        tier = doc.get("tier", "bench")
        if tier not in BENCH_KINDS:
            raise ValueError(f"unknown bench tier {tier!r}; known: {BENCH_KINDS}")
        return tier
    if "multi_tenant" in doc:
        return "serve"
    raise ValueError(
        "not a snapshot: no 'runs' (bench tier), 'multi_tenant' (serve) "
        "or kind 'matrix'"
    )


def flatten_snapshot(doc: Mapping[str, Any]) -> MetricSet:
    """The gating metric set of a snapshot, by its kind's flattener."""
    return _KINDS[snapshot_kind(doc)].flatten(doc)


def compare_snapshots(
    old: Mapping[str, Any],
    new: Mapping[str, Any],
    threshold: float = 0.10,
    abs_floor: float = 1e-12,
) -> List[Dict[str, object]]:
    """Diff two snapshots of one kind into canonical gate rows.

    Raises :class:`ValueError` naming both kinds when they differ: the
    metric names of two kinds never line up, so such a diff would be all
    ``missing`` rows and pass vacuously.
    """
    old_kind, new_kind = snapshot_kind(old), snapshot_kind(new)
    if old_kind != new_kind:
        raise ValueError(f"cannot compare a {old_kind} snapshot with a {new_kind} snapshot")
    flatten = _KINDS[old_kind].flatten
    return compare_metric_sets(
        flatten(old), flatten(new), threshold=threshold, abs_floor=abs_floor
    )


def write_snapshot(
    doc: Mapping[str, Any], out_dir: PathLike = ".", label: Optional[str] = None
) -> Path:
    """Write ``<BENCH|SERVE|MATRIX>_<label>.json`` under ``out_dir``
    (created if missing); returns the path.

    ``label`` defaults to the document's own (serve snapshots carry none);
    a ``/`` in it becomes ``-`` so the file lands in ``out_dir``.
    """
    kind = snapshot_kind(doc)
    if label is None:
        label = doc.get("label")
        if label is None:
            raise ValueError(f"a {kind} snapshot carries no label; pass one")
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    path = out / f"{_KINDS[kind].prefix}_{str(label).replace('/', '-')}.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def load_snapshot(path: PathLike, kinds: Optional[Sequence[str]] = None) -> Dict[str, Any]:
    """Read a snapshot, checking its kind (one of ``kinds`` when given)
    and the schema version that kind supports."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"))
    try:
        kind = snapshot_kind(doc)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from None
    if kinds is not None and kind not in kinds:
        raise ValueError(
            f"{path} is a {kind} snapshot, not a {' or '.join(kinds)} snapshot"
        )
    version = doc.get("schema_version")
    supported = _KINDS[kind].schema_version
    if version != supported:
        raise ValueError(f"{path}: schema_version {version!r} != supported {supported}")
    return doc
