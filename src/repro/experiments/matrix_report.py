"""Self-contained HTML reports for experiment-matrix runs.

``repro matrix report`` feeds this module a ``MATRIX_<label>.json``
document (see :mod:`repro.experiments.matrix`) and gets back one HTML
file with no external assets — inline CSS and inline SVG only, no
JavaScript, no network-loaded fonts or scripts — so the artifact can be
archived from CI and opened anywhere:

- a **cell table**: one row per cell in run order, its axes values and
  the flattened simulated summary metrics;
- one **SVG line chart per ``[[figures]]`` entry** in the spec, sliced
  through :meth:`repro.experiments.sweep.SweepResult.series` (the same
  re-slicing the figure modules use);
- a **fault-resilience table** for cells that ran under a fault profile
  (injected faults, retries, degraded frames, simulated fault time);
- **fairness / per-tenant tables** for cells carrying a
  ``multi_tenant`` section (serve-style runs) and for a
  ``suite.multi_tenant`` scenario;
- **trend tables** over committed ``MATRIX_*.json`` snapshots named in
  the spec's ``[report] bench_snapshots`` list — each one's cell table
  and fairness tables.

Rendering is deterministic for a given document: cells keep run-order,
metric columns sort by name, and nothing samples a clock.
"""

from __future__ import annotations

from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.gating import SUMMARY_METRIC_DIRECTIONS, load_snapshot
from repro.experiments.sweep import SweepResult
from repro.obs.report import _STYLE, _esc, _fmt

__all__ = ["render_matrix_report", "write_matrix_report"]

_SERIES_COLORS = ("#1565c0", "#e65100", "#2e7d32", "#8e24aa", "#00838f", "#b71c1c")

_MATRIX_STYLE = _STYLE + """
svg.chart{background:#fafafa;border:1px solid #ddd;margin:.6em 0}
.chartrow{display:flex;flex-wrap:wrap;gap:1em}
"""


def _metric_value(cell: Mapping[str, Any], metric: str) -> Optional[float]:
    """Look a figure metric up in a cell: summary, derived, then top level."""
    for container in (cell.get("summary") or {}, cell.get("derived") or {}, cell):
        value = container.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _ordered_cells(doc: Mapping[str, Any]) -> List[Tuple[str, Mapping[str, Any]]]:
    return sorted(doc["cells"].items(), key=lambda kv: kv[1]["index"])


def _cells_table(doc: Mapping[str, Any], heading: str = "<h2>Cells</h2>") -> str:
    cells = _ordered_cells(doc)
    axis_names = list(doc["spec"]["axes"])
    metric_names = sorted(
        {
            name
            for _, cell in cells
            for name in SUMMARY_METRIC_DIRECTIONS
            if isinstance((cell.get("summary") or {}).get(name), (int, float))
        }
    )
    head = (
        "<th>cell</th>"
        + "".join(f"<th>{_esc(a)}</th>" for a in axis_names)
        + "<th>repeat</th>"
        + "".join(f"<th>{_esc(m)}</th>" for m in metric_names)
    )
    rows = []
    for key, cell in cells:
        summary = cell.get("summary") or {}
        rows.append(
            "<tr>"
            f"<td>{_esc(key)}</td>"
            + "".join(f"<td>{_esc(cell['axes'].get(a, ''))}</td>" for a in axis_names)
            + f"<td class='num'>{_esc(cell.get('repeat', 0))}</td>"
            + "".join(
                f"<td class='num'>{_fmt(summary[m]) if isinstance(summary.get(m), (int, float)) else ''}</td>"
                for m in metric_names
            )
            + "</tr>"
        )
    return (
        heading
        + f"<table><thead><tr>{head}</tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _svg_line_chart(
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    y_label: str = "",
) -> str:
    """One categorical-x line chart as inline SVG (no external assets)."""
    width, height = 540, 300
    ml, mr, mt, mb = 64, 150, 34, 44
    pw, ph = width - ml - mr, height - mt - mb

    values = [v for vs in series.values() for v in vs]
    lo, hi = min(values), max(values)
    if hi == lo:
        pad = abs(hi) * 0.1 or 1.0
        lo, hi = lo - pad, hi + pad
    else:
        pad = (hi - lo) * 0.08
        lo, hi = lo - pad, hi + pad

    def sx(i: int) -> float:
        if len(x_values) == 1:
            return ml + pw / 2.0
        return ml + pw * i / (len(x_values) - 1)

    def sy(v: float) -> float:
        return mt + ph * (1.0 - (v - lo) / (hi - lo))

    parts = [
        f"<svg class='chart' width='{width}' height='{height}' "
        f"viewBox='0 0 {width} {height}' "
        f"role='img' aria-label='{_esc(title or y_label)}'>",
        f"<text x='{ml}' y='18' font-size='13' font-weight='bold'>{_esc(title)}</text>",
        f"<line x1='{ml}' y1='{mt}' x2='{ml}' y2='{mt + ph}' stroke='#888'/>",
        f"<line x1='{ml}' y1='{mt + ph}' x2='{ml + pw}' y2='{mt + ph}' stroke='#888'/>",
    ]
    n_ticks = 4
    for t in range(n_ticks + 1):
        v = lo + (hi - lo) * t / n_ticks
        y = sy(v)
        parts.append(
            f"<line x1='{ml - 4}' y1='{y:.1f}' x2='{ml + pw}' y2='{y:.1f}' "
            "stroke='#e0e0e0'/>"
            f"<text x='{ml - 8}' y='{y + 4:.1f}' font-size='10' "
            f"text-anchor='end'>{_esc(_fmt(v))}</text>"
        )
    for i, x in enumerate(x_values):
        parts.append(
            f"<text x='{sx(i):.1f}' y='{mt + ph + 16}' font-size='11' "
            f"text-anchor='middle'>{_esc(x)}</text>"
        )
    if y_label:
        parts.append(
            f"<text x='14' y='{mt + ph / 2:.1f}' font-size='11' text-anchor='middle' "
            f"transform='rotate(-90 14 {mt + ph / 2:.1f})'>{_esc(y_label)}</text>"
        )
    for s_idx, (label, vals) in enumerate(series.items()):
        color = _SERIES_COLORS[s_idx % len(_SERIES_COLORS)]
        points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals))
        parts.append(
            f"<polyline points='{points}' fill='none' stroke='{color}' "
            "stroke-width='2'/>"
        )
        for i, v in enumerate(vals):
            parts.append(
                f"<circle cx='{sx(i):.1f}' cy='{sy(v):.1f}' r='3' fill='{color}'>"
                f"<title>{_esc(label)} @ {_esc(x_values[i])}: {_fmt(v)}</title></circle>"
            )
        ly = mt + 14 + 16 * s_idx
        parts.append(
            f"<line x1='{ml + pw + 10}' y1='{ly}' x2='{ml + pw + 28}' y2='{ly}' "
            f"stroke='{color}' stroke-width='2'/>"
            f"<text x='{ml + pw + 33}' y='{ly + 4}' font-size='11'>{_esc(label)}</text>"
        )
    parts.append("</svg>")
    return "".join(parts)


def _figures_section(doc: Mapping[str, Any]) -> str:
    figures = doc["spec"].get("figures") or []
    if not figures:
        return ""
    axis_names = tuple(doc["spec"]["axes"])
    charts: List[str] = []
    for fig in figures:
        metric = fig["metric"]
        rows: List[Tuple[Dict[str, Any], Dict[str, float]]] = []
        missing = False
        for key, cell in _ordered_cells(doc):
            if cell.get("repeat", 0):
                continue  # charts show the repeat-0 value of each cell
            value = _metric_value(cell, metric)
            if value is None:
                missing = True
                break
            rows.append((dict(cell["axes"]), {metric: value}))
        if missing or not rows:
            charts.append(
                f"<p class='note'>figure skipped: metric {_esc(metric)} "
                "not present in every cell</p>"
            )
            continue
        sweep = SweepResult(param_names=axis_names, metric_names=(metric,), rows=rows)
        try:
            x_values, series = sweep.series(
                x=fig["x"], metric=metric, group_by=fig.get("group_by")
            )
        except (KeyError, ValueError) as exc:
            charts.append(f"<p class='note'>figure skipped: {_esc(exc)}</p>")
            continue
        charts.append(
            _svg_line_chart(
                x_values,
                series,
                title=fig.get("title", f"{metric} vs {fig['x']}"),
                y_label=metric,
            )
        )
    return "<h2>Figures</h2><div class='chartrow'>" + "".join(charts) + "</div>"


def _fault_table(doc: Mapping[str, Any]) -> str:
    rows = []
    for key, cell in _ordered_cells(doc):
        faults = cell.get("faults")
        if not isinstance(faults, Mapping):
            continue
        trace = faults.get("trace") or {}
        rows.append(
            "<tr>"
            f"<td>{_esc(key)}</td>"
            f"<td>{_esc(faults.get('profile', ''))}</td>"
            f"<td class='num'>{_esc(faults.get('derived_seed', faults.get('seed', '')))}</td>"
            f"<td class='num'>{_esc(trace.get('faults', ''))}</td>"
            f"<td class='num'>{_esc(trace.get('retries', ''))}</td>"
            f"<td class='num'>{_esc(trace.get('degraded', ''))}</td>"
            f"<td class='num'>{_fmt(trace.get('fault_time_s', 0.0))}</td>"
            "</tr>"
        )
    if not rows:
        return ""
    return (
        "<h2>Fault resilience</h2>"
        "<p class='note'>simulated-clock fault injection per cell; seeds are "
        "derived per cell index so repeats stay reproducible.</p>"
        "<table><thead><tr><th>cell</th><th>profile</th><th>seed</th>"
        "<th>faults</th><th>retries</th><th>degraded frames</th>"
        "<th>fault time (s)</th></tr></thead><tbody>"
        + "".join(rows)
        + "</tbody></table>"
    )


def _tenant_rows(mt: Mapping[str, Any]) -> str:
    frames = mt.get("frame_times") or {}
    per_tenant = frames.get("per_tenant") or {}
    body = "".join(
        "<tr>"
        f"<td>{_esc(tenant)}</td>"
        + "".join(
            f"<td class='num'>{_fmt(row.get(p, 0.0))}</td>"
            for p in ("p50", "p95", "p99")
        )
        + "</tr>"
        for tenant, row in sorted(per_tenant.items())
    )
    pooled = frames.get("pooled") or {}
    summary = (
        f"<p>makespan {_fmt(mt.get('makespan_s', 0.0))}s · "
        f"Jain fairness {_fmt(frames.get('fairness_jain', 0.0))} · "
        f"cross-tenant evictions {_esc(mt.get('cross_evictions', 0))} · "
        f"pooled p99 {_fmt(pooled.get('p99', 0.0))}s</p>"
    )
    if not body:
        return summary
    return (
        summary
        + "<table><thead><tr><th>tenant</th><th>p50</th><th>p95</th><th>p99</th>"
        "</tr></thead><tbody>" + body + "</tbody></table>"
    )


def _fairness_section(
    doc: Mapping[str, Any], heading: str = "<h2>Fairness / per-tenant frame times</h2>"
) -> str:
    scenarios = [(key, cell.get("multi_tenant")) for key, cell in _ordered_cells(doc)]
    scenarios.append(("suite", (doc.get("suite") or {}).get("multi_tenant")))
    parts = [
        f"<h3>{_esc(key)}</h3>" + _tenant_rows(mt)
        for key, mt in scenarios
        if isinstance(mt, Mapping)
    ]
    if not parts:
        return ""
    return heading + "".join(parts)


def _snapshot_trend(name: str, doc: Mapping[str, Any]) -> str:
    return (
        f"<h3>{_esc(name)}</h3>"
        + _cells_table(doc, heading="")
        + _fairness_section(doc, heading="")
    )


def _trend_section(doc: Mapping[str, Any], base_dir: Path) -> str:
    names = (doc["spec"].get("report") or {}).get("bench_snapshots") or []
    if not names:
        return ""
    parts = ["<h2>Committed snapshot trends</h2>"]
    for name in names:
        path = Path(name)
        if not path.is_absolute():
            path = base_dir / path
        if not path.exists():
            parts.append(f"<p class='note'>snapshot {_esc(name)} not found — skipped</p>")
            continue
        try:
            snapshot = load_snapshot(path)
        except ValueError as exc:
            parts.append(f"<p class='note'>{_esc(exc)} — skipped</p>")
            continue
        parts.append(_snapshot_trend(name, snapshot))
    return "".join(parts)


def render_matrix_report(
    doc: Mapping[str, Any],
    title: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> str:
    """Render a matrix document as one self-contained HTML page.

    ``base_dir`` anchors relative ``bench_snapshots`` paths (defaults to
    the current directory).  The output carries no ``<script>`` element
    and references no network resources.
    """
    base_dir = Path(base_dir) if base_dir is not None else Path.cwd()
    report_cfg = doc["spec"].get("report") or {}
    page_title = title or report_cfg.get("title") or f"matrix {doc.get('label', '')}"
    header = (
        f"<h1>{_esc(page_title)}</h1>"
        f"<p class='note'>label {_esc(doc.get('label'))} · runner "
        f"{_esc(doc.get('runner'))} · {_esc(doc.get('n_cells'))} cells · "
        f"{_esc(doc.get('workers'))} worker(s) · suite wall "
        f"{_fmt(doc.get('suite_wall_s', 0.0))}s · schema v"
        f"{_esc(doc.get('schema_version'))}</p>"
    )
    body = [
        header,
        _cells_table(doc),
        _figures_section(doc),
        _fault_table(doc),
        _fairness_section(doc),
        _trend_section(doc, base_dir),
    ]
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(page_title)}</title><style>{_MATRIX_STYLE}</style></head>"
        f"<body>{''.join(body)}</body></html>\n"
    )


def write_matrix_report(
    doc: Mapping[str, Any],
    path,
    title: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> Path:
    """Write :func:`render_matrix_report` to ``path``; returns the path."""
    path = Path(path)
    if base_dir is None:
        base_dir = path.parent
    path.write_text(
        render_matrix_report(doc, title=title, base_dir=base_dir), encoding="utf-8"
    )
    return path
