"""Prometheus text-exposition rendering of a metrics snapshot.

:meth:`repro.obs.metrics.MetricsRegistry.snapshot` flattens metrics to
``name{k=v,...}`` keys; this module re-renders that dict (or any
equally-shaped dict, e.g. the synthetic one ``repro analyze`` builds
from an attribution report) in the Prometheus text exposition format —
counters and gauges as single samples, histograms as cumulative
``_bucket{le=...}`` series plus ``_sum``/``_count``.

The output is deterministic: metric families sort by name, samples by
label signature, buckets by upper bound — so a dump can be diffed or
pinned byte-for-byte in tests.
"""

from __future__ import annotations

import re
from typing import Dict, List, Mapping, Optional, Tuple

__all__ = [
    "prometheus_text",
    "write_prometheus",
    "labeled_key",
    "relabel_snapshot",
    "merge_snapshots",
]

_NAME_RE = re.compile(r"[^a-zA-Z0-9_:]")


def _sanitize(name: str) -> str:
    name = _NAME_RE.sub("_", name)
    if name and name[0].isdigit():
        name = "_" + name
    return name


def _parse_key(key: str) -> Tuple[str, Dict[str, str]]:
    """Split a snapshot key ``name{k=v,...}`` into (name, labels)."""
    if "{" not in key:
        return key, {}
    name, _, rest = key.partition("{")
    rest = rest.rstrip("}")
    labels: Dict[str, str] = {}
    if rest:
        for part in rest.split(","):
            k, _, v = part.partition("=")
            labels[k] = v
    return name, labels


def labeled_key(name: str, labels: Mapping[str, str]) -> str:
    """Build a snapshot key ``name{k=v,...}`` with deterministically sorted labels."""
    if not labels:
        return name
    inner = ",".join(f"{k}={v}" for k, v in sorted(labels.items()))
    return f"{name}{{{inner}}}"


def relabel_snapshot(
    snapshot: Mapping[str, Mapping[str, dict]], extra_labels: Mapping[str, str]
) -> Dict[str, Dict[str, dict]]:
    """A copy of ``snapshot`` with ``extra_labels`` merged into every key.

    Used to pool several runs' registries into one exposition without
    duplicating ``# TYPE`` lines: each run's samples get a ``run=...``
    label and the merged snapshot renders as one family per metric.
    """
    out: Dict[str, Dict[str, dict]] = {}
    for section, metrics in snapshot.items():
        sec = out.setdefault(section, {})
        for key, data in (metrics or {}).items():
            name, labels = _parse_key(key)
            labels.update(extra_labels)
            sec[labeled_key(name, labels)] = data
    return out


def merge_snapshots(*snapshots: Mapping[str, Mapping[str, dict]]) -> Dict[str, Dict[str, dict]]:
    """Union several snapshots (later keys win on collision)."""
    out: Dict[str, Dict[str, dict]] = {}
    for snap in snapshots:
        for section, metrics in (snap or {}).items():
            out.setdefault(section, {}).update(metrics or {})
    return out


def _escape(value: str) -> str:
    return value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")


def _label_str(labels: Mapping[str, str]) -> str:
    if not labels:
        return ""
    inner = ",".join(
        f'{_sanitize(k)}="{_escape(str(v))}"' for k, v in sorted(labels.items())
    )
    return "{" + inner + "}"


def _fmt(value: float) -> str:
    # Integral floats render as integers (Prometheus accepts either; the
    # shorter form diffs cleanly), everything else as repr — lossless.
    if isinstance(value, bool):
        return "1" if value else "0"
    f = float(value)
    if f.is_integer() and abs(f) < 1e15:
        return str(int(f))
    return repr(f)


def prometheus_text(
    snapshot: Mapping[str, Mapping[str, dict]],
    namespace: str = "repro",
    extra_labels: Optional[Mapping[str, str]] = None,
) -> str:
    """Render a registry snapshot in the Prometheus text format.

    ``snapshot`` is the dict from ``MetricsRegistry.snapshot()``:
    ``{"counters": {...}, "gauges": {...}, "histograms": {...}}`` (any
    section may be absent).  ``extra_labels`` are merged into every
    sample (e.g. ``{"run": "orbit-lru"}``); ``namespace`` prefixes every
    metric name.
    """
    extra = dict(extra_labels or {})
    prefix = f"{_sanitize(namespace)}_" if namespace else ""

    # family name -> (type, [(sorted label sig, lines)])
    families: Dict[str, Tuple[str, List[Tuple[str, List[str]]]]] = {}

    def family(name: str, kind: str) -> List[Tuple[str, List[str]]]:
        entry = families.get(name)
        if entry is None:
            entry = families[name] = (kind, [])
        return entry[1]

    for key, data in (snapshot.get("counters") or {}).items():
        name, labels = _parse_key(key)
        name = prefix + _sanitize(name)
        labels.update(extra)
        sig = _label_str(labels)
        family(name, "counter").append(
            (sig, [f"{name}{sig} {_fmt(data['value'])}"])
        )

    for key, data in (snapshot.get("gauges") or {}).items():
        name, labels = _parse_key(key)
        name = prefix + _sanitize(name)
        labels.update(extra)
        sig = _label_str(labels)
        family(name, "gauge").append(
            (sig, [f"{name}{sig} {_fmt(data['value'])}"])
        )

    for key, data in (snapshot.get("histograms") or {}).items():
        name, labels = _parse_key(key)
        name = prefix + _sanitize(name)
        labels.update(extra)
        sig = _label_str(labels)
        lines: List[str] = []
        cumulative = 0
        buckets = data.get("buckets") or {}
        for bound, count in sorted(buckets.items(), key=lambda kv: float(kv[0])):
            cumulative += int(count)
            blabels = dict(labels)
            blabels["le"] = str(bound)
            lines.append(f"{name}_bucket{_label_str(blabels)} {cumulative}")
        blabels = dict(labels)
        blabels["le"] = "+Inf"
        lines.append(f"{name}_bucket{_label_str(blabels)} {int(data['count'])}")
        lines.append(f"{name}_sum{sig} {_fmt(data['sum'])}")
        lines.append(f"{name}_count{sig} {int(data['count'])}")
        family(name, "histogram").append((sig, lines))

    out: List[str] = []
    for name in sorted(families):
        kind, samples = families[name]
        out.append(f"# TYPE {name} {kind}")
        for _, lines in sorted(samples, key=lambda s: s[0]):
            out.extend(lines)
    return "\n".join(out) + ("\n" if out else "")


def write_prometheus(snapshot, path, namespace: str = "repro", extra_labels=None):
    """Write :func:`prometheus_text` to ``path`` (its directory created if
    missing); returns the path."""
    from pathlib import Path

    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(
        prometheus_text(snapshot, namespace=namespace, extra_labels=extra_labels),
        encoding="utf-8",
    )
    return path
