"""Nested wall-clock span profiling, aligned with the simulated clock.

The experiments measure *simulated* time (device cost models on a
:class:`~repro.utils.timers.SimClock`); the reproduction itself spends
*wall* time building tables, preloading, and replaying.  The
:class:`PhaseProfiler` records both sides in one place so a bench report
can show the sim-vs-wall phase breakdown:

- :meth:`PhaseProfiler.span` opens a nested wall-clock span (built on
  :class:`~repro.utils.timers.WallTimer`); spans aggregate by their
  ``/``-joined path, accumulating total seconds and a call count.
- :meth:`PhaseProfiler.charge_sim` forwards to an internal
  :class:`~repro.utils.timers.SimClock`, so a driver's simulated channel
  totals land next to the wall numbers in :meth:`report`.

When a :class:`~repro.trace.tracer.Tracer` is attached, entering a span
publishes the span path on ``tracer.current_span`` — every event recorded
while the span is open carries the span id, linking the trace timeline to
the profile (events gain span ids).

The shared :data:`NULL_PROFILER` mirrors ``NULL_TRACER`` /
``NULL_REGISTRY``: ``span`` returns a reusable no-op context manager, so
unprofiled hot paths cost one attribute load and a branch.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.utils.timers import SimClock

__all__ = ["PhaseProfiler", "NullProfiler", "NULL_PROFILER"]


class _Span:
    """Context manager for one entry of a named span (reused per path)."""

    __slots__ = ("_profiler", "_name", "_t0")

    def __init__(self, profiler: "PhaseProfiler", name: str) -> None:
        self._profiler = profiler
        self._name = name
        self._t0 = 0.0

    def __enter__(self) -> "_Span":
        self._t0 = self._profiler._enter(self._name)
        return self

    def __exit__(self, *exc) -> None:
        self._profiler._exit(time.perf_counter() - self._t0)


class PhaseProfiler:
    """Aggregating wall-clock span recorder with a sim-clock side channel."""

    enabled = True

    def __init__(self, tracer=None, keep_timeline: bool = False) -> None:
        #: path -> [total_seconds, n_calls]
        self._wall: Dict[str, List[float]] = {}
        self._stack: List[str] = []
        self._paths: List[str] = []  # parallel to _stack: joined paths
        self.sim = SimClock()
        # Only a real tracer can carry span ids (NullTracer has no state).
        self._tracer = tracer if tracer is not None and tracer.enabled else None
        #: With keep_timeline, every span close appends (path, start_s, dur_s)
        #: relative to profiler construction — the raw material for a Chrome
        #: trace.  Off by default: the aggregate view costs O(paths), the
        #: timeline costs O(calls).
        self._t_origin = time.perf_counter()
        self._timeline: Optional[List[Tuple[str, float, float]]] = (
            [] if keep_timeline else None
        )

    # -- spans ---------------------------------------------------------------

    def span(self, name: str) -> _Span:
        """Open a (nested) wall-clock span: ``with profiler.span("preload"):``."""
        if "/" in name:
            raise ValueError(f"span name may not contain '/': {name!r}")
        return _Span(self, name)

    def _enter(self, name: str) -> float:
        path = f"{self._paths[-1]}/{name}" if self._stack else name
        self._stack.append(name)
        self._paths.append(path)
        if self._tracer is not None:
            self._tracer.current_span = path
        return time.perf_counter()

    def _exit(self, dt: float) -> None:
        path = self._paths.pop()
        self._stack.pop()
        if self._tracer is not None:
            self._tracer.current_span = self._paths[-1] if self._paths else ""
        entry = self._wall.get(path)
        if entry is None:
            entry = self._wall[path] = [0.0, 0]
        entry[0] += dt
        entry[1] += 1
        if self._timeline is not None:
            start = time.perf_counter() - self._t_origin - dt
            self._timeline.append((path, start, dt))

    @property
    def current_path(self) -> str:
        """The open span path (``""`` outside any span)."""
        return self._paths[-1] if self._paths else ""

    # -- sim side ------------------------------------------------------------

    def charge_sim(self, channel: str, seconds: float) -> None:
        """Accumulate simulated seconds next to the wall-clock spans."""
        self.sim.charge(channel, seconds)

    # -- queries / export ----------------------------------------------------

    def wall_seconds(self, path: str) -> float:
        entry = self._wall.get(path)
        return entry[0] if entry else 0.0

    def n_calls(self, path: str) -> int:
        entry = self._wall.get(path)
        return int(entry[1]) if entry else 0

    def timeline(self) -> List[Tuple[str, float, float]]:
        """Recorded ``(path, start_s, dur_s)`` spans (``keep_timeline`` only)."""
        return list(self._timeline) if self._timeline is not None else []

    def write_chrome_trace(self, path) -> Path:
        """Write the timeline as a Chrome-trace JSON (``keep_timeline`` only),
        creating the file's directory.

        Emits complete ("X") events in microseconds, viewable in
        chrome://tracing or https://ui.perfetto.dev.  Raises if the
        profiler was constructed without ``keep_timeline=True`` — the
        aggregate view cannot be turned back into a timeline.
        """
        if self._timeline is None:
            raise RuntimeError(
                "write_chrome_trace requires PhaseProfiler(keep_timeline=True)"
            )
        events = [
            {
                "name": span_path.rsplit("/", 1)[-1],
                "cat": "wall",
                "ph": "X",
                "ts": start * 1e6,
                "dur": dur * 1e6,
                "pid": 0,
                "tid": 0,
                "args": {"path": span_path},
            }
            for span_path, start, dur in self._timeline
        ]
        out = Path(path)
        out.parent.mkdir(parents=True, exist_ok=True)
        out.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )
        return out

    def report(self) -> Dict[str, object]:
        """JSON-ready sim-vs-wall breakdown.

        ``wall`` maps span path to total seconds / call count / mean;
        ``sim`` is the simulated channel totals charged so far.
        """
        wall = {
            path: {
                "seconds": secs,
                "count": int(n),
                "mean_seconds": secs / n if n else 0.0,
            }
            for path, (secs, n) in sorted(self._wall.items())
        }
        return {"wall": wall, "sim": self.sim.channels()}

    def format_report(self) -> str:
        """Monospace table of the report (for CLI output)."""
        rep = self.report()
        lines = [f"{'phase (wall)':<40} {'calls':>7} {'total s':>12} {'mean s':>12}"]
        lines.append("-" * len(lines[0]))
        for path, row in rep["wall"].items():
            indent = "  " * path.count("/")
            label = indent + path.rsplit("/", 1)[-1]
            lines.append(
                f"{label:<40} {row['count']:>7} {row['seconds']:>12.6f} "
                f"{row['mean_seconds']:>12.6f}"
            )
        sim = rep["sim"]
        if sim:
            lines.append("")
            lines.append(f"{'channel (sim)':<40} {'total s':>12}")
            for channel, secs in sorted(sim.items()):
                lines.append(f"{channel:<40} {secs:>12.6f}")
        return "\n".join(lines)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"PhaseProfiler({len(self._wall)} span paths, depth={len(self._stack)})"


class _NullSpan:
    """Reusable, reentrant no-op context manager."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc) -> None:
        pass


_NULL_SPAN = _NullSpan()


class NullProfiler:
    """The disabled profiler: spans are shared no-ops, queries are empty."""

    __slots__ = ()

    enabled = False
    current_path = ""

    def span(self, name: str) -> _NullSpan:
        return _NULL_SPAN

    def charge_sim(self, channel: str, seconds: float) -> None:
        pass

    def wall_seconds(self, path: str) -> float:
        return 0.0

    def n_calls(self, path: str) -> int:
        return 0

    def timeline(self) -> List[Tuple[str, float, float]]:
        return []

    def report(self) -> Dict[str, object]:
        return {"wall": {}, "sim": {}}

    def format_report(self) -> str:
        return "(profiling disabled)"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return "NullProfiler()"


#: Shared disabled profiler; instrumented drivers default to this.
NULL_PROFILER = NullProfiler()


def resolve_profiler(profiler: Optional[PhaseProfiler]):
    """``profiler`` or the shared null profiler."""
    return profiler if profiler is not None else NULL_PROFILER
