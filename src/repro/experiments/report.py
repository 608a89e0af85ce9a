"""Plain-text rendering of experiment results (the paper's rows/series)."""

from __future__ import annotations

from typing import Iterable, List, Mapping, Sequence

__all__ = [
    "format_table",
    "format_series",
    "format_run_summaries",
    "format_trace_report",
]


def _fmt(value) -> str:
    if isinstance(value, float):
        if value == 0:
            return "0"
        if abs(value) >= 1000 or abs(value) < 1e-3:
            return f"{value:.3e}"
        return f"{value:.4g}"
    return str(value)


def format_table(headers: Sequence[str], rows: Iterable[Sequence[object]], title: str = "") -> str:
    """Align ``rows`` under ``headers`` with a rule line (monospace-friendly)."""
    str_rows: List[List[str]] = [[_fmt(c) for c in row] for row in rows]
    widths = [len(h) for h in headers]
    for row in str_rows:
        if len(row) != len(headers):
            raise ValueError(f"row has {len(row)} cells for {len(headers)} headers")
        for j, cell in enumerate(row):
            widths[j] = max(widths[j], len(cell))
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(h.ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in str_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def format_series(
    x_label: str,
    x_values: Sequence[object],
    series: Mapping[str, Sequence[float]],
    title: str = "",
) -> str:
    """One row per x value, one column per named series (a figure as text)."""
    headers = [x_label] + list(series)
    rows = []
    for i, x in enumerate(x_values):
        rows.append([x] + [series[name][i] for name in series])
    return format_table(headers, rows, title=title)


def format_trace_report(summary, result=None, title: str = "") -> str:
    """Tabulate a :class:`~repro.trace.aggregate.TraceSummary` (the
    ``repro trace`` output).

    A ``network:`` line follows when the trace carries peer transfers (a
    sharded run) and a ``faults:`` line when it carries injected faults.
    When ``result`` (a :class:`~repro.core.metrics.RunResult`) is given,
    a ledger line cross-checks the trace's byte total against the run's
    ``bytes_moved`` extra — after the accounting fixes the two must agree
    exactly.
    """
    headers = ["step", "hits", "fetches", "prefetches", "preloads", "evict",
               "bypass", "demand_MB", "prefetch_MB", "coverage"]
    rows = []
    for s in summary.steps:
        rows.append([
            "preload" if s.step < 0 else s.step,
            s.hits,
            s.demand_fetches,
            s.prefetches,
            s.preloads,
            s.evictions,
            s.bypasses,
            s.demand_bytes / 1e6,
            s.prefetch_bytes / 1e6,
            s.fast_coverage,
        ])
    lines = [format_table(headers, rows, title=title)]
    lines.append(
        f"levels: "
        + ", ".join(
            f"{name} {b['demand'] / 1e6:.2f} MB demand / {b['prefetch'] / 1e6:.2f} MB prefetch"
            for name, b in summary.level_bytes.items()
        )
    )
    lines.append(
        f"trace total: {summary.total_bytes / 1e6:.3f} MB moved "
        f"({summary.demand_bytes / 1e6:.3f} demand + {summary.prefetch_bytes / 1e6:.3f} prefetch), "
        f"{summary.total_evictions} evictions, "
        f"mean fast coverage {summary.mean_fast_coverage:.3f}"
    )
    if summary.total_xfers:
        lines.append(
            f"network: {summary.total_xfers} peer transfers, "
            f"{summary.peer_bytes / 1e6:.2f} MB over links, "
            f"{summary.peer_time_s * 1e3:.3f} ms link time"
        )
    if summary.total_faults or summary.total_retries or summary.total_degraded:
        lines.append(
            f"faults: {summary.total_faults} failed reads, "
            f"{summary.total_retries} retries, "
            f"{summary.total_degraded} degraded reads, "
            f"{summary.fault_time_s * 1e3:.3f} ms lost"
        )
    if result is not None and "bytes_moved" in result.extras:
        moved = result.extras["bytes_moved"]
        agree = "agrees" if float(summary.total_bytes) == float(moved) else "MISMATCH"
        lines.append(
            f"ledger check: trace {summary.total_bytes / 1e6:.3f} MB vs "
            f"hierarchy bytes_moved {moved / 1e6:.3f} MB — {agree}"
        )
    return "\n".join(lines)


def format_run_summaries(results: Mapping[str, object], title: str = "") -> str:
    """Tabulate :class:`~repro.core.metrics.RunResult` objects by policy."""
    headers = [
        "policy",
        "miss_rate",
        "fast_miss_rate",
        "io_time_s",
        "prefetch_time_s",
        "render_time_s",
        "total_time_s",
    ]
    rows = []
    for name, result in results.items():
        rows.append(
            [
                name,
                result.total_miss_rate,
                result.fast_miss_rate,
                result.io_time_s,
                result.prefetch_time_s,
                result.render_time_s,
                result.total_time_s,
            ]
        )
    return format_table(headers, rows, title=title)
