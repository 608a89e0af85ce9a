"""Self-contained HTML reports: the one page ``repro analyze`` and
``repro matrix run --report`` write.

The page has no external assets — inline CSS and inline SVG only, no
JavaScript — so the artifact can be archived from CI and opened
anywhere.  A matrix document (``MATRIX_<label>.json``, see
:mod:`repro.experiments.matrix`) renders every section it carries:

- a **cell table**: one row per cell in run order, its axes values and
  the flattened simulated summary metrics;
- one **SVG line chart per ``[[figures]]`` entry** in the spec, sliced
  by :func:`figure_series`: one line per ``group_by`` value and per value
  of every other axis that varies, so every cell is drawn;
- a **fault-resilience table** for cells that ran under a fault profile;
- **fairness / per-tenant tables** for cells carrying a ``multi_tenant``
  section and for a ``suite.multi_tenant`` scenario;
- one **attribution section** per :func:`attribution_sections` entry:
  the totals' stacked bar and component table, a frame-time waterfall
  (one stacked bar per frame, scaled to the slowest frame) and the
  top-10 premature evictions from the eviction lineage;
- the **regret vs Belady** table (actual fast-level misses minus the
  offline MIN bound, negative when a warm preload beats cold Belady);
- **trend tables** over the committed ``MATRIX_*.json`` snapshots named
  in the spec's ``[report] bench_snapshots`` list — each one's cell and
  fairness tables.

A bare attribution document (``repro analyze`` of a ``.jsonl`` trace)
renders its one attribution section and the regret table.

Rendering is deterministic for a given document: cells keep run order,
metric columns and components sort by name, and nothing samples a clock.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Any, Dict, Iterable, Iterator, List, Mapping, Optional, Sequence, Tuple

from repro.experiments.gating import SUMMARY_METRIC_DIRECTIONS, load_snapshot

__all__ = ["attribution_sections", "figure_series", "render_report", "write_report"]

# Fixed palette: named components first, then positional fallbacks for
# per-level channels (miss_transfer:ssd, ...), keyed by first-seen order.
_COMPONENT_COLORS = {
    "hit_service": "#4caf50",
    "fault_penalty": "#b71c1c",
    "retry_backoff": "#8e24aa",
    "lookup": "#9e9e9e",
    "render": "#26a69a",
}
_MISS_SHADES = ("#e65100", "#ef6c00", "#f57c00", "#fb8c00", "#ffa726")
_PREFETCH_SHADES = ("#1565c0", "#1e88e5", "#42a5f5", "#64b5f6", "#90caf9")
_SERIES_COLORS = ("#1565c0", "#e65100", "#2e7d32", "#8e24aa", "#00838f", "#b71c1c")
#: Line dashes, one per pass through the colours, so 24 series are distinct.
_SERIES_DASHES = ("", "7 3", "2 3", "9 3 2 3")

#: Frames past this many are summarised in a note, not drawn.
_WATERFALL_CAP = 240


# -- components -----------------------------------------------------------------


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


class _Html(str):
    """Markup that :func:`_table` inserts as is instead of escaping."""


def _table(
    head: Sequence[str],
    rows: Iterable[Sequence[Any]],
    classes: Sequence[str],
    cls: str = "",
) -> str:
    """One table of ``head`` labels over ``rows`` of cells, every cell
    escaped unless it is :class:`_Html`; ``classes[j]``, when non-empty,
    is column ``j``'s cell class."""

    def td(j: int, cell: Any) -> str:
        text = cell if isinstance(cell, _Html) else _esc(cell)
        return f"<td class='{classes[j]}'>{text}</td>" if classes[j] else f"<td>{text}</td>"

    body = "".join(
        "<tr>" + "".join(td(j, cell) for j, cell in enumerate(row)) + "</tr>"
        for row in rows
    )
    attr = f" class='{cls}'" if cls else ""
    return (
        f"<table{attr}><thead><tr>"
        + "".join(f"<th>{_esc(h)}</th>" for h in head)
        + f"</tr></thead><tbody>{body}</tbody></table>"
    )


def _stacked_bar(
    parts: List[Tuple[str, float, str]], width_frac: float = 1.0
) -> str:
    """One horizontal stacked bar; parts are (label, seconds, color)."""
    total = sum(p[1] for p in parts)
    if total <= 0:
        return '<div class="bar"></div>'
    spans = []
    for label, seconds, color in parts:
        if seconds <= 0:
            continue
        pct = 100.0 * width_frac * seconds / total
        spans.append(
            f'<span class="seg" style="width:{pct:.3f}%;background:{color}" '
            f'title="{_esc(label)}: {_fmt(seconds)}s"></span>'
        )
    return f'<div class="bar">{"".join(spans)}</div>'


def _svg_line_chart(
    x_values: Sequence[Any],
    series: Mapping[str, Sequence[float]],
    title: str = "",
    y_label: str = "",
) -> str:
    """One categorical-x line chart as inline SVG (no external assets).

    Series ``i`` is drawn in colour ``i % 6`` with dash ``i // 6``; the
    legend lists one series per row below the plot, and the SVG grows
    down to hold it.
    """
    width = 540
    ml, mr, mt, mb = 64, 24, 34, 44
    pw, ph = width - ml - mr, 222
    legend_top = mt + ph + mb
    height = legend_top + 16 * len(series) + 4

    values = [v for vs in series.values() for v in vs]
    lo, hi = min(values), max(values)
    pad = (hi - lo) * 0.08 if hi > lo else abs(hi) * 0.1 or 1.0
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
    legend = []
    for s_idx, (label, vals) in enumerate(series.items()):
        color = _SERIES_COLORS[s_idx % len(_SERIES_COLORS)]
        dash = _SERIES_DASHES[s_idx // len(_SERIES_COLORS) % len(_SERIES_DASHES)]
        stroke = f"stroke='{color}' stroke-width='2'"
        if dash:
            stroke += f" stroke-dasharray='{dash}'"
        points = " ".join(f"{sx(i):.1f},{sy(v):.1f}" for i, v in enumerate(vals))
        parts.append(f"<polyline points='{points}' fill='none' {stroke}/>")
        for i, v in enumerate(vals):
            parts.append(
                f"<circle cx='{sx(i):.1f}' cy='{sy(v):.1f}' r='3' fill='{color}'>"
                f"<title>{_esc(label)} @ {_esc(x_values[i])}: {_fmt(v)}</title></circle>"
            )
        ly = legend_top + 16 * s_idx + 8
        legend.append(
            f"<line x1='{ml}' y1='{ly}' x2='{ml + 22}' y2='{ly}' {stroke}/>"
            f"<text x='{ml + 28}' y='{ly + 4}' font-size='11'>{_esc(label)}</text>"
        )
    parts.append(f"<g class='legend'>{''.join(legend)}</g></svg>")
    return "".join(parts)


_STYLE = """
body{font-family:-apple-system,'Segoe UI',Roboto,Helvetica,Arial,sans-serif;
     margin:2em auto;max-width:70em;padding:0 1em;color:#212121}
h1{border-bottom:2px solid #212121;padding-bottom:.2em}
h3{display:inline;font-size:1.1em}
table{border-collapse:collapse;margin:.6em 0;font-size:.92em}
th,td{border:1px solid #bbb;padding:.25em .6em;text-align:left}
th{background:#eee}
td.num{text-align:right;font-variant-numeric:tabular-nums}
td.flags{color:#b71c1c;font-size:.85em}
.bar{display:flex;height:14px;background:#f5f5f5;border:1px solid #ddd;
     min-width:2px}
.seg{display:block;height:100%}
.barcell{min-width:28em;border:none}
.waterfall td{border:none;padding:.1em .5em}
.waterfall th{border:none}
.swatch{display:inline-block;width:.8em;height:.8em;margin-right:.4em;
        border:1px solid #888;vertical-align:baseline}
.badge{padding:.1em .5em;border-radius:.6em;font-size:.8em;color:#fff}
.badge.ok{background:#2e7d32}.badge.bad{background:#b71c1c}
.badge.warn{background:#9e9e9e}
.note{color:#616161;font-size:.85em}
.warnline{color:#b71c1c}
details{margin:1em 0;border:1px solid #ddd;padding:.5em 1em;border-radius:4px}
summary{cursor:pointer}
svg.chart{background:#fafafa;border:1px solid #ddd;margin:.6em 0}
.chartrow{display:flex;flex-wrap:wrap;gap:1em}
"""


def _page(title: str, body: Iterable[str]) -> str:
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(title)}</title><style>{_STYLE}</style></head>"
        f"<body><h1>{_esc(title)}</h1>{''.join(body)}</body></html>\n"
    )


# -- attribution ------------------------------------------------------------------


def _color_for(component: str, seen: Dict[str, str]) -> str:
    color = _COMPONENT_COLORS.get(component) or seen.get(component)
    if color is not None:
        return color
    prefetch = component.startswith("prefetch_transfer:")
    shades = _PREFETCH_SHADES if prefetch else _MISS_SHADES
    n = sum(1 for k in seen if k.startswith("prefetch_transfer:") == prefetch)
    color = seen[component] = shades[n % len(shades)]
    return color


def _badge(label: str, ok: Optional[bool]) -> str:
    cls = "ok" if ok else ("warn" if ok is None else "bad")
    text = {True: "yes", False: "NO", None: "n/a"}[ok]
    return f'<span class="badge {cls}">{_esc(label)}: {text}</span>'


def _parts(
    components: Mapping, ledger: Mapping, palette: Dict[str, str]
) -> List[Tuple[str, float, str]]:
    """``(label, seconds, color)`` per component by name, then the
    untraced lookup and render shares ``ledger`` records."""
    parts = [(name, float(components[name]), _color_for(name, palette))
             for name in sorted(components)]
    for name in ("lookup", "render"):
        seconds = float(ledger.get(f"{name}_time_s", 0.0))
        if seconds:
            parts.append((name, seconds, _COMPONENT_COLORS[name]))
    return parts


def _waterfall(frames: List[Mapping], palette: Dict[str, str]) -> str:
    """The per-frame waterfall table (stacked bar per step)."""
    shown = frames[:_WATERFALL_CAP]
    peak = max(float(f.get("frame_time_s", 0.0)) for f in shown) or 1.0
    rows = []
    for f in shown:
        ft = float(f.get("frame_time_s", 0.0))
        flags = []
        if f.get("n_re_miss"):
            flags.append(f"re-miss ×{f['n_re_miss']}")
        if f.get("reconciled") is False:
            flags.append("NOT RECONCILED")
        if not f.get("exact", True):
            flags.append("inexact")
        bar = _stacked_bar(_parts(f.get("components", {}), f, palette), ft / peak)
        rows.append((f.get("step"), _Html(bar), _fmt(ft), ", ".join(flags)))
    note = (
        f"<p class='note'>showing first {_WATERFALL_CAP} of {len(frames)} frames</p>"
        if len(frames) > _WATERFALL_CAP
        else ""
    )
    return _table(
        ("step", "frame time decomposition", "s", ""),
        rows,
        ("num", "barcell", "num", "flags"),
        cls="waterfall",
    ) + note


def _components_table(doc: Mapping, palette: Dict[str, str]) -> str:
    """Totals stacked bar + component table for one attribution doc."""
    totals = doc.get("totals", {})
    parts = _parts(doc.get("demand_components", {}), totals, palette)
    rows = [
        (name, v, color, "ledger" if name in ("lookup", "render") else "demand")
        for name, v, color in parts
    ] + [
        (name, v, color, "overlapped")
        for name, v, color in _parts(doc.get("prefetch_components", {}), {}, palette)
    ]
    table = _table(
        ("component", "seconds", "channel"),
        (
            (_Html(f"<span class='swatch' style='background:{color}'></span>{_esc(name)}"),
             _fmt(v), channel)
            for name, v, color, channel in rows
        ),
        ("", "num", ""),
    )
    extra = (
        f"<p class='note'>overlap saving {_fmt(totals.get('overlap_saving_s', 0.0))}s · "
        f"re-misses {doc.get('n_re_miss', 0)} · degraded {doc.get('n_degraded', 0)} "
        f"(+{_fmt(doc.get('degraded_extra_s', 0.0))}s outside ledger)</p>"
    )
    return (
        f"<h4>Total {_fmt(totals.get('frame_time_s', 0.0))}s over "
        f"{doc.get('n_frames', len(doc.get('frames', [])))} frames</h4>"
        + _stacked_bar(parts)
        + table
        + extra
    )


def _forensics_table(forensics: Mapping) -> str:
    rows = forensics.get("top_premature", [])
    header = (
        f"<p>{forensics.get('n_evictions', 0)} evictions · "
        f"{forensics.get('n_re_misses', 0)} re-misses · "
        f"{forensics.get('n_premature', 0)} premature "
        f"(window {forensics.get('premature_window', '?')} steps)</p>"
    )
    if not rows:
        return header + "<p class='note'>no premature evictions recorded</p>"
    return header + _table(
        ("block", "premature re-misses", "min age (steps)", "last step",
         "evicted from", "by", "queue rank"),
        (
            (r["block"], r["count"], r["min_age_steps"], r["last_step"], r["evicted_from"],
             r["policy"] + (":" + r["tenant"] if r.get("tenant") else ""), r["rank"])
            for r in rows
        ),
        ("num", "num", "num", "num", "", "", "num"),
    )


def _regret_table(rows: List[Tuple[str, Mapping]]) -> str:
    if not rows:
        return ""
    return (
        "<h2>Regret vs Belady</h2>"
        "<p class='note'>actual fast-level misses minus the offline MIN bound "
        "over the same demand keys; negative when a warm preload beats cold "
        "Belady.</p>"
        + _table(
            ("run", "policy", "fast capacity", "actual misses", "Belady misses", "regret"),
            (
                (label, r.get("policy"), r.get("fast_capacity"),
                 r.get("actual_fast_misses"), r.get("belady_misses"), r.get("regret"))
                for label, r in rows
            ),
            ("", "", "num", "num", "num", "num"),
        )
    )


def _attribution_section(title: str, doc: Mapping) -> str:
    palette: Dict[str, str] = {}
    badges = " ".join(
        (
            _badge("reconciled", doc.get("reconciled")),
            _badge("exact", bool(doc.get("exact", True))),
            _badge("complete", not doc.get("incomplete", False)),
        )
    )
    parts = [f"<details open><summary><h3>{_esc(title)}</h3> {badges}</summary>"]
    if doc.get("incomplete"):
        parts.append(
            "<p class='warnline'>tracer dropped events inside the attributed "
            "window — component values are lower bounds.</p>"
        )
    parts.append(_components_table(doc, palette))
    frames = doc.get("frames")
    if frames:
        parts.append("<h4>Frame-time waterfall</h4>")
        parts.append(_waterfall(list(frames), palette))
    forensics = doc.get("forensics")
    if forensics:
        parts.append("<h4>Eviction forensics</h4>")
        parts.append(_forensics_table(forensics))
    parts.append("</details>")
    return "".join(parts)


def _tenant_sections(mt: Optional[Mapping], prefix: str) -> Iterator[Tuple[str, Mapping]]:
    tenants = ((mt or {}).get("attribution") or {}).get("tenants") or {}
    for tenant, attr in sorted(tenants.items()):
        yield f"{prefix}tenant:{tenant}", attr


def attribution_sections(doc: Mapping) -> Iterator[Tuple[str, Mapping]]:
    """``(label, attribution doc)`` for every section of a document.

    A bare :class:`AttributionReport` document is one section ``run``; a
    matrix document has one per cell carrying ``attribution`` (the
    ``bench-cell`` runner's), one per tenant of each cell's
    ``multi_tenant`` section (``<cell>/tenant:<id>``, serve cells) and one
    per tenant of ``suite.multi_tenant`` (``tenant:<id>``).
    """
    if "demand_components" in doc:
        yield "run", doc
        return
    for key, cell in (doc.get("cells") or {}).items():
        if cell.get("attribution"):
            yield key, cell["attribution"]
        yield from _tenant_sections(cell.get("multi_tenant"), f"{key}/")
    yield from _tenant_sections((doc.get("suite") or {}).get("multi_tenant"), "")


def _attribution_body(doc: Mapping) -> str:
    """Every attribution section of ``doc``, then the regret table."""
    sections: List[str] = []
    regret_rows: List[Tuple[str, Mapping]] = []
    for label, attr in attribution_sections(doc):
        sections.append(_attribution_section(label, attr))
        if attr.get("regret"):
            regret_rows.append((label, attr["regret"]))
    if not sections:
        sections.append(
            "<p>This document carries no attribution section — "
            "<code>bench-cell</code> cells carry one, and so do serve cells run with "
            "<code>[setup] attribution = true</code>.</p>"
        )
    return "".join(sections) + _regret_table(regret_rows)


# -- matrix sections --------------------------------------------------------------


def _ordered_cells(doc: Mapping[str, Any]) -> List[Tuple[str, Mapping[str, Any]]]:
    return sorted((doc.get("cells") or {}).items(), key=lambda kv: kv[1].get("index", 0))


def _metric_value(cell: Mapping[str, Any], metric: str) -> Optional[float]:
    """Look a figure metric up in a cell: summary, derived, then top level."""
    for container in (cell.get("summary") or {}, cell.get("derived") or {}, cell):
        value = container.get(metric)
        if isinstance(value, (int, float)) and not isinstance(value, bool):
            return float(value)
    return None


def _cells_table(doc: Mapping[str, Any]) -> str:
    cells = _ordered_cells(doc)
    axis_names = list((doc.get("spec") or {}).get("axes") or ())
    metric_names = sorted(
        {
            name
            for _, cell in cells
            for name in SUMMARY_METRIC_DIRECTIONS
            if isinstance((cell.get("summary") or {}).get(name), (int, float))
        }
    )
    rows = []
    for key, cell in cells:
        summary = cell.get("summary") or {}
        rows.append(
            [key]
            + [cell["axes"].get(a, "") for a in axis_names]
            + [cell.get("repeat", 0)]
            + [
                _fmt(summary[m]) if isinstance(summary.get(m), (int, float)) else ""
                for m in metric_names
            ]
        )
    return _table(
        ["cell", *axis_names, "repeat", *metric_names],
        rows,
        [""] * (1 + len(axis_names)) + ["num"] * (1 + len(metric_names)),
    )


def figure_series(
    rows: Sequence[Tuple[Mapping[str, Any], Mapping[str, Any]]],
    x: str,
    metric: str,
    group_by: Optional[str] = None,
) -> Tuple[List[Any], Dict[str, List[Any]]]:
    """Re-slice ``(axes, metrics)`` rows into ``(x_values, {label: values})``.

    There is one series per ``group_by`` value and per value of every
    other axis that varies across the rows, labelled ``"<group>, axis=value,
    ..."``, so no row is dropped; with neither, one series named after the
    metric.  Every series needs a value at every ``x`` (a cartesian grid,
    constraints aside).
    """
    names = list(rows[0][0]) if rows else []
    for axis in (x, group_by):
        if axis is not None and axis not in names:
            raise KeyError(f"unknown axis {axis!r}; have {names}")
    if rows and metric not in rows[0][1]:
        raise KeyError(f"unknown metric {metric!r}; have {sorted(rows[0][1])}")
    others = [
        name for name in names
        if name not in (x, group_by)
        and any(axes[name] != rows[0][0][name] for axes, _ in rows)
    ]

    x_values: List[Any] = []
    for axes, _ in rows:
        if axes[x] not in x_values:
            x_values.append(axes[x])

    series: Dict[str, List[Any]] = {}
    for axes, metrics in rows:
        parts = [str(axes[group_by])] if group_by is not None else []
        parts += [f"{name}={axes[name]}" for name in others]
        label = ", ".join(parts) or metric
        series.setdefault(label, [None] * len(x_values))
        series[label][x_values.index(axes[x])] = metrics[metric]
    for label, values in series.items():
        if any(v is None for v in values):
            raise ValueError(f"incomplete grid: series {label!r} missing values over {x!r}")
    return x_values, series


def _figures_section(doc: Mapping[str, Any]) -> str:
    spec = doc.get("spec") or {}
    figures = spec.get("figures") or []
    if not figures:
        return ""
    charts: List[str] = []
    for fig in figures:
        metric = fig["metric"]
        # Charts show the repeat-0 value of each cell.
        values = [
            (cell["axes"], _metric_value(cell, metric))
            for _, cell in _ordered_cells(doc)
            if not cell.get("repeat", 0)
        ]
        if not values or any(value is None for _, value in values):
            charts.append(
                f"<p class='note'>figure skipped: metric {_esc(metric)} "
                "not present in every cell</p>"
            )
            continue
        rows = [(dict(axes), {metric: value}) for axes, value in values]
        try:
            x_values, series = figure_series(
                rows, x=fig["x"], metric=metric, group_by=fig.get("group_by")
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
        rows.append((
            key, faults.get("profile", ""), faults.get("derived_seed", faults.get("seed", "")),
            trace.get("faults", ""), trace.get("retries", ""), trace.get("degraded", ""),
            _fmt(trace.get("fault_time_s", 0.0)),
        ))
    if not rows:
        return ""
    return (
        "<h2>Fault resilience</h2>"
        "<p class='note'>simulated-clock fault injection per cell; seeds are "
        "derived per cell index so repeats stay reproducible.</p>"
        + _table(
            ("cell", "profile", "seed", "faults", "retries", "degraded frames",
             "fault time (s)"),
            rows,
            ("", "", "num", "num", "num", "num", "num"),
        )
    )


def _tenant_rows(mt: Mapping[str, Any]) -> str:
    frames = mt.get("frame_times") or {}
    per_tenant = frames.get("per_tenant") or {}
    pooled = frames.get("pooled") or {}
    summary = (
        f"<p>makespan {_fmt(mt.get('makespan_s', 0.0))}s · "
        f"Jain fairness {_fmt(frames.get('fairness_jain', 0.0))} · "
        f"cross-tenant evictions {_esc(mt.get('cross_evictions', 0))} · "
        f"pooled p99 {_fmt(pooled.get('p99', 0.0))}s</p>"
    )
    if not per_tenant:
        return summary
    return summary + _table(
        ("tenant", "p50", "p95", "p99"),
        (
            [tenant] + [_fmt(row.get(p, 0.0)) for p in ("p50", "p95", "p99")]
            for tenant, row in sorted(per_tenant.items())
        ),
        ("", "num", "num", "num"),
    )


def _fairness_section(doc: Mapping[str, Any], heading: str = "") -> str:
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


def _trend_section(doc: Mapping[str, Any], base_dir: Path) -> str:
    names = ((doc.get("spec") or {}).get("report") or {}).get("bench_snapshots") or []
    if not names:
        return ""
    parts = ["<h2>Committed snapshot trends</h2>"]
    for name in names:
        try:
            snapshot = load_snapshot(base_dir / name)  # an absolute name replaces base_dir
        except FileNotFoundError:
            parts.append(f"<p class='note'>snapshot {_esc(name)} not found — skipped</p>")
        except ValueError as exc:
            parts.append(f"<p class='note'>{_esc(exc)} — skipped</p>")
        else:
            parts.append(
                f"<h3>{_esc(name)}</h3>" + _cells_table(snapshot) + _fairness_section(snapshot)
            )
    return "".join(parts)


# -- the page ---------------------------------------------------------------------


def render_report(
    doc: Mapping[str, Any],
    title: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> str:
    """Render a matrix document or a bare attribution document as one
    self-contained HTML page (see the module docstring for its sections).

    ``title`` overrides the spec's ``[report] title``.  ``base_dir``
    anchors relative ``[report] bench_snapshots`` names; it defaults to
    the current directory.  The output carries no ``<script>`` element
    and references no network resources.
    """
    if "demand_components" in doc:
        return _page(title or "attribution report", [_attribution_body(doc)])
    base_dir = Path.cwd() if base_dir is None else Path(base_dir)
    spec = doc.get("spec") or {}
    page_title = (
        title
        or (spec.get("report") or {}).get("title")
        or f"matrix document {doc.get('label', '')}".strip()
    )
    header = (
        f"<p class='note'>label {_esc(doc.get('label'))} · runner "
        f"{_esc(doc.get('runner'))} · {_esc(doc.get('n_cells'))} cells · "
        f"{_esc(doc.get('workers'))} worker(s) · suite wall "
        f"{_fmt(doc.get('suite_wall_s', 0.0))}s · schema v"
        f"{_esc(doc.get('schema_version'))}</p>"
    )
    return _page(
        page_title,
        [
            header,
            "<h2>Cells</h2>" + _cells_table(doc),
            _figures_section(doc),
            _fault_table(doc),
            _fairness_section(doc, "<h2>Fairness / per-tenant frame times</h2>"),
            "<h2>Latency attribution</h2>" + _attribution_body(doc),
            _trend_section(doc, base_dir),
        ],
    )


def write_report(
    doc: Mapping[str, Any],
    path,
    title: Optional[str] = None,
    base_dir: Optional[Path] = None,
) -> Path:
    """Write :func:`render_report` to ``path`` (its directory created if
    missing); returns the path."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(render_report(doc, title=title, base_dir=base_dir), encoding="utf-8")
    return path
