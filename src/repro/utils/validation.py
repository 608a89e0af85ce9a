"""Small argument-validation helpers.

Centralising these keeps error messages consistent ("<name> must be ...")
and keeps the numeric modules free of repetitive guard clauses.
"""

from __future__ import annotations

import math
from typing import Any, Sequence, Tuple

__all__ = [
    "is_finite_number",
    "check_positive",
    "check_non_negative",
    "check_in_range",
    "check_shape_3d",
    "check_probability",
    "check_camera_motion",
]


def is_finite_number(value: Any) -> bool:
    """A real number (not a bool) that is neither NaN nor infinite."""
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
    )


def check_positive(name: str, value: float) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not value > 0:
        raise ValueError(f"{name} must be > 0, got {value}")
    return value


def check_non_negative(name: str, value: float) -> float:
    """Require ``value >= 0``; return it for chaining."""
    if value < 0:
        raise ValueError(f"{name} must be >= 0, got {value}")
    return value


def check_in_range(name: str, value: float, lo: float, hi: float) -> float:
    """Require ``lo <= value <= hi``; return it for chaining."""
    if not (lo <= value <= hi):
        raise ValueError(f"{name} must be in [{lo}, {hi}], got {value}")
    return value


def check_probability(name: str, value: float) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    return check_in_range(name, value, 0.0, 1.0)


def check_camera_motion(degrees: Any, distance: Any) -> None:
    """Require a camera path's per-step turn range ``degrees`` to be a
    finite ``(lo, hi)`` pair with ``0 <= lo <= hi`` and its ``distance`` to
    be positive and finite."""
    if not (is_finite_number(distance) and distance > 0):
        raise ValueError(f"distance must be positive and finite, got {distance!r}")
    if (
        not isinstance(degrees, (tuple, list))
        or len(degrees) != 2
        or not all(is_finite_number(v) for v in degrees)
        or not 0 <= degrees[0] <= degrees[1]
    ):
        raise ValueError(
            f"degrees must be a finite (lo, hi) pair with 0 <= lo <= hi, got {degrees!r}"
        )


def check_shape_3d(name: str, shape: Sequence[int]) -> Tuple[int, int, int]:
    """Require a length-3 sequence of positive ints; return it as a tuple."""
    shape = tuple(int(s) for s in shape)
    if len(shape) != 3:
        raise ValueError(f"{name} must have 3 dimensions, got {shape}")
    if any(s <= 0 for s in shape):
        raise ValueError(f"{name} dimensions must all be > 0, got {shape}")
    return shape
