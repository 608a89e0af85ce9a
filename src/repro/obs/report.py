"""Self-contained HTML rendering of attribution + forensics documents.

``repro analyze`` feeds this module a matrix document (a bench tier's
or the serve scenario's ``MATRIX_<label>.json``) or a bare attribution
report and gets back one HTML file with no external assets — inline CSS
only, no JavaScript — so the artifact can be archived from CI and opened
anywhere:

- a **frame-time waterfall**: one stacked horizontal bar per frame,
  scaled to the slowest frame, decomposed into the exact attribution
  components plus the untraced lookup and render shares;
- **attribution stacked bars** summarizing where each run's total time
  went, with the per-component table next to it;
- the **top-10 premature evictions** table from the eviction lineage
  (who evicted the block, how soon it was wanted back);
- the **regret vs Belady** table (actual fast-level misses minus the
  offline MIN bound, negative when a warm preload beats cold Belady).

Rendering is deterministic for a given document: components sort by
name, runs keep snapshot order, and nothing samples a clock.
"""

from __future__ import annotations

import html
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

__all__ = ["attribution_sections", "render_report", "write_report"]

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


def _esc(value) -> str:
    return html.escape(str(value), quote=True)


def _fmt(value: float) -> str:
    return f"{float(value):.6g}"


def _color_for(component: str, seen: Dict[str, str]) -> str:
    color = _COMPONENT_COLORS.get(component)
    if color is not None:
        return color
    cached = seen.get(component)
    if cached is not None:
        return cached
    if component.startswith("prefetch_transfer:"):
        shades = _PREFETCH_SHADES
        n = sum(1 for k in seen if k.startswith("prefetch_transfer:"))
    else:
        shades = _MISS_SHADES
        n = sum(1 for k in seen if not k.startswith("prefetch_transfer:"))
    color = shades[n % len(shades)]
    seen[component] = color
    return color


def _badge(label: str, ok: Optional[bool]) -> str:
    cls = "ok" if ok else ("warn" if ok is None else "bad")
    text = {True: "yes", False: "NO", None: "n/a"}[ok]
    return f'<span class="badge {cls}">{_esc(label)}: {text}</span>'


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


def _frame_parts(frame: Mapping, palette: Dict[str, str]) -> List[Tuple[str, float, str]]:
    parts: List[Tuple[str, float, str]] = []
    for name in sorted(frame.get("components", {})):
        parts.append(
            (name, float(frame["components"][name]), _color_for(name, palette))
        )
    lookup = float(frame.get("lookup_time_s", 0.0))
    if lookup:
        parts.append(("lookup", lookup, _COMPONENT_COLORS["lookup"]))
    render = float(frame.get("render_time_s", 0.0))
    if render:
        parts.append(("render", render, _COMPONENT_COLORS["render"]))
    return parts


def _waterfall(frames: List[Mapping], palette: Dict[str, str], cap: int = 240) -> str:
    """The per-frame waterfall table (stacked bar per step)."""
    if not frames:
        return "<p>No per-frame rows in this document.</p>"
    shown = frames[:cap]
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
        rows.append(
            "<tr>"
            f"<td class='num'>{_esc(f.get('step'))}</td>"
            f"<td class='barcell'>{_stacked_bar(_frame_parts(f, palette), ft / peak)}</td>"
            f"<td class='num'>{_fmt(ft)}</td>"
            f"<td class='flags'>{_esc(', '.join(flags))}</td>"
            "</tr>"
        )
    note = (
        f"<p class='note'>showing first {cap} of {len(frames)} frames</p>"
        if len(frames) > cap
        else ""
    )
    return (
        "<table class='waterfall'><thead><tr>"
        "<th>step</th><th>frame time decomposition</th><th>s</th><th></th>"
        "</tr></thead><tbody>" + "".join(rows) + "</tbody></table>" + note
    )


def _components_table(doc: Mapping, palette: Dict[str, str]) -> str:
    """Totals stacked bar + component table for one attribution doc."""
    totals = doc.get("totals", {})
    parts: List[Tuple[str, float, str]] = []
    rows = []
    for name in sorted(doc.get("demand_components", {})):
        v = float(doc["demand_components"][name])
        color = _color_for(name, palette)
        parts.append((name, v, color))
        rows.append((name, v, color, "demand"))
    lookup = float(totals.get("lookup_time_s", 0.0))
    if lookup:
        parts.append(("lookup", lookup, _COMPONENT_COLORS["lookup"]))
        rows.append(("lookup", lookup, _COMPONENT_COLORS["lookup"], "ledger"))
    render = float(totals.get("render_time_s", 0.0))
    if render:
        parts.append(("render", render, _COMPONENT_COLORS["render"]))
        rows.append(("render", render, _COMPONENT_COLORS["render"], "ledger"))
    for name in sorted(doc.get("prefetch_components", {})):
        v = float(doc["prefetch_components"][name])
        color = _color_for(name, palette)
        rows.append((name, v, color, "overlapped"))
    table = "".join(
        "<tr>"
        f"<td><span class='swatch' style='background:{color}'></span>{_esc(name)}</td>"
        f"<td class='num'>{_fmt(v)}</td><td>{_esc(channel)}</td></tr>"
        for name, v, color, channel in rows
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
        + "<table><thead><tr><th>component</th><th>seconds</th><th>channel</th></tr>"
        "</thead><tbody>" + table + "</tbody></table>" + extra
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
    body = "".join(
        "<tr>"
        f"<td class='num'>{_esc(r['block'])}</td>"
        f"<td class='num'>{_esc(r['count'])}</td>"
        f"<td class='num'>{_esc(r['min_age_steps'])}</td>"
        f"<td class='num'>{_esc(r['last_step'])}</td>"
        f"<td>{_esc(r['evicted_from'])}</td>"
        f"<td>{_esc(r['policy'] + (':' + r['tenant'] if r.get('tenant') else ''))}</td>"
        f"<td class='num'>{_esc(r['rank'])}</td>"
        "</tr>"
        for r in rows
    )
    return (
        header
        + "<table><thead><tr><th>block</th><th>premature re-misses</th>"
        "<th>min age (steps)</th><th>last step</th><th>evicted from</th>"
        "<th>by</th><th>queue rank</th></tr></thead><tbody>"
        + body
        + "</tbody></table>"
    )


def _regret_table(rows: List[Tuple[str, Mapping]]) -> str:
    if not rows:
        return ""
    body = "".join(
        "<tr>"
        f"<td>{_esc(label)}</td><td>{_esc(r.get('policy'))}</td>"
        f"<td class='num'>{_esc(r.get('fast_capacity'))}</td>"
        f"<td class='num'>{_esc(r.get('actual_fast_misses'))}</td>"
        f"<td class='num'>{_esc(r.get('belady_misses'))}</td>"
        f"<td class='num'>{_esc(r.get('regret'))}</td>"
        "</tr>"
        for label, r in rows
    )
    return (
        "<h2>Regret vs Belady</h2>"
        "<p class='note'>actual fast-level misses minus the offline MIN bound "
        "over the same demand keys; negative when a warm preload beats cold "
        "Belady.</p>"
        "<table><thead><tr><th>run</th><th>policy</th><th>fast capacity</th>"
        "<th>actual misses</th><th>Belady misses</th><th>regret</th></tr>"
        "</thead><tbody>" + body + "</tbody></table>"
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
"""


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


def render_report(doc: Mapping, title: Optional[str] = None) -> str:
    """Render a matrix document or bare attribution doc as HTML, one
    section per :func:`attribution_sections` entry."""
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
    if "demand_components" in doc:
        kind = "attribution report"
    else:
        kind = f"matrix document {doc.get('label', '')}".strip()

    page_title = title or f"repro analyze — {kind}"
    body = [f"<h1>{_esc(page_title)}</h1>"]
    body.extend(sections)
    body.append(_regret_table(regret_rows))
    return (
        "<!DOCTYPE html><html><head><meta charset='utf-8'>"
        f"<title>{_esc(page_title)}</title><style>{_STYLE}</style></head>"
        f"<body>{''.join(body)}</body></html>\n"
    )


def write_report(doc: Mapping, path, title: Optional[str] = None) -> Path:
    """Write :func:`render_report` to ``path``; returns the path."""
    path = Path(path)
    path.write_text(render_report(doc, title=title), encoding="utf-8")
    return path
