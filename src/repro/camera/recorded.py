"""Recorded camera-session traces (JSONL).

A trace file captures one interactive session position-by-position so it
can be replayed as the ``recorded`` workload — against other datasets,
policies, or cluster layouts.  The format is line-oriented JSON for
appendability and diffability:

- line 1, the header: ``{"kind": "camera-trace", "version": 1,
  "name": ..., "view_angle_deg": ...}``;
- one line per position: ``{"step": i, "position": [x, y, z]}``.

``repro replay --record out.jsonl`` writes one; a matrix spec (or
``repro replay --path-type recorded --trace-file out.jsonl``) replays it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import IO, Union

import numpy as np

from repro.camera.model import DEFAULT_VIEW_ANGLE_DEG
from repro.camera.path import CameraPath

__all__ = ["CAMERA_TRACE_VERSION", "write_camera_trace", "read_camera_trace"]

CAMERA_TRACE_VERSION = 1


def write_camera_trace(path: CameraPath, file: Union[str, Path, IO[str]]) -> None:
    """Serialise ``path`` to a camera-trace JSONL file (creating its
    directory) or to an open handle."""
    header = {
        "kind": "camera-trace",
        "version": CAMERA_TRACE_VERSION,
        "name": path.name,
        "view_angle_deg": float(path.view_angle_deg),
        "n_positions": len(path),
    }
    if hasattr(file, "write"):
        _write_lines(path, header, file)  # type: ignore[arg-type]
    else:
        Path(file).parent.mkdir(parents=True, exist_ok=True)
        with open(file, "w", encoding="utf-8") as handle:
            _write_lines(path, header, handle)


def _write_lines(path: CameraPath, header: dict, handle: IO[str]) -> None:
    handle.write(json.dumps(header, sort_keys=True) + "\n")
    for i, position in enumerate(path.positions):
        row = {"step": i, "position": [float(v) for v in position]}
        handle.write(json.dumps(row, sort_keys=True) + "\n")


def read_camera_trace(file: Union[str, Path, IO[str]]) -> CameraPath:
    """Load a camera-trace JSONL file back into a :class:`CameraPath`."""
    if hasattr(file, "read"):
        lines = file.read().splitlines()  # type: ignore[union-attr]
        where = "<stream>"
    else:
        lines = Path(file).read_text(encoding="utf-8").splitlines()
        where = str(file)
    lines = [line for line in lines if line.strip()]
    if not lines:
        raise ValueError(f"{where}: empty camera trace")
    header = json.loads(lines[0])
    if header.get("kind") != "camera-trace":
        raise ValueError(
            f"{where}: not a camera trace (kind={header.get('kind')!r})"
        )
    version = header.get("version")
    if version != CAMERA_TRACE_VERSION:
        raise ValueError(
            f"{where}: camera-trace version {version!r} not supported "
            f"(expected {CAMERA_TRACE_VERSION})"
        )
    positions = []
    for i, line in enumerate(lines[1:]):
        row = json.loads(line)
        position = row.get("position")
        if not isinstance(position, list) or len(position) != 3:
            raise ValueError(f"{where}: line {i + 2} has no [x, y, z] position")
        positions.append([float(v) for v in position])
    if not positions:
        raise ValueError(f"{where}: camera trace has a header but no positions")
    return CameraPath(
        np.asarray(positions, dtype=np.float64),
        view_angle_deg=float(header.get("view_angle_deg", DEFAULT_VIEW_ANGLE_DEG)),
        name=str(header.get("name", "recorded")),
    )
