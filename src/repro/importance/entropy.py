"""Shannon entropy of data blocks (Eq. 2).

``H(x) = −Σ p(x)·log₂ p(x)`` over the histogram of a block's voxel values.
Bin edges are shared across the whole volume (global min/max), so entropies
are comparable between blocks: ambient regions with near-constant values
land in few bins (H ≈ 0) while feature regions spread across many
(H up to log₂ n_bins) — Observation 2 of the paper.
"""

from __future__ import annotations

import math
from typing import Optional

import numpy as np

from repro.volume.blocks import BlockGrid
from repro.volume.volume import Volume

__all__ = ["shannon_entropy", "histogram_probabilities", "block_entropies", "DEFAULT_N_BINS"]

DEFAULT_N_BINS = 64


def histogram_probabilities(values: np.ndarray, n_bins: int, value_range: "tuple[float, float]") -> np.ndarray:
    """Normalized histogram of ``values`` over fixed ``value_range``."""
    if n_bins < 1:
        raise ValueError(f"n_bins must be >= 1, got {n_bins}")
    lo, hi = value_range
    if not hi >= lo:
        raise ValueError(f"value_range must satisfy hi >= lo, got {value_range}")
    values = np.asarray(values).ravel()
    if values.size == 0:
        raise ValueError("cannot histogram an empty block")
    if hi == lo:  # constant volume: everything in one bin
        return np.array([1.0] + [0.0] * (n_bins - 1))
    counts, _ = np.histogram(values, bins=n_bins, range=(lo, hi))
    return counts / values.size


def shannon_entropy(probabilities: np.ndarray) -> float:
    """H in bits of a probability vector (zero bins contribute nothing)."""
    p = np.asarray(probabilities, dtype=np.float64)
    if p.size == 0 or p.min() < 0:
        raise ValueError("probabilities must be non-negative and non-empty")
    total = p.sum()
    if not np.isclose(total, 1.0, atol=1e-6):
        raise ValueError(f"probabilities must sum to 1, got {total}")
    nz = p[p > 0]
    return float(-np.sum(nz * np.log2(nz)))


def block_entropies(
    volume: Volume,
    grid: BlockGrid,
    n_bins: int = DEFAULT_N_BINS,
    variable: Optional[str] = None,
) -> np.ndarray:
    """Per-block entropy array of shape ``(n_blocks,)``.

    The inner histogram uses ``np.bincount`` on pre-quantised bin indices
    of the *whole* volume (one pass), then slices per block — ~n_bins×
    faster than calling ``np.histogram`` per block for small blocks.
    """
    if grid.volume_shape != volume.shape:
        raise ValueError(
            f"grid shape {grid.volume_shape} does not match volume shape {volume.shape}"
        )
    data = volume.data(variable)
    lo, hi = float(data.min()), float(data.max())
    if hi > lo:
        idx = _bin_indices(data, lo, hi, n_bins)
    else:
        idx = np.zeros(volume.shape, dtype=np.int32)

    out = np.empty(grid.n_blocks, dtype=np.float64)
    for bid in grid.iter_ids():
        block_idx = idx[grid.block_slices(bid)].ravel()
        counts = np.bincount(block_idx, minlength=n_bins)
        p = counts[counts > 0] / block_idx.size
        out[bid] = -np.sum(p * np.log2(p))
    return out


def _bin_indices(data: np.ndarray, lo: float, hi: float, n_bins: int) -> np.ndarray:
    """Every voxel's bin over ``[lo, hi]`` (``lo < hi``), the hi edge in
    the last bin.

    ``(data - lo) * (n_bins / (hi - lo))`` in the data's float type, except
    where that overflows the type: a range wider than its largest value
    (``data - lo``) or narrower than ``n_bins`` over it (the scale).  The
    field is then first scaled by a power of two that brings the range to
    ``[0.5, 1)`` — exact, and rounding commutes with it — so the bins are
    those the same expression gives the field at a moderate scale.
    """
    ftype = np.result_type(data.dtype, 1.0)  # the type ``data - lo`` runs in
    with np.errstate(over="ignore"):
        span = ftype.type(hi) - ftype.type(lo)
    if not (np.isfinite(span) and n_bins / (hi - lo) <= float(np.finfo(ftype).max)):
        width = hi - lo
        if math.isinf(width):
            exponent = math.frexp(hi * 0.5 - lo * 0.5)[1] + 1
        else:
            exponent = math.frexp(width)[1]
        data = np.ldexp(data, -exponent)
        lo, hi = math.ldexp(lo, -exponent), math.ldexp(hi, -exponent)
    # Quantise every voxel once; guard the hi edge into the last bin.
    idx = ((data - lo) * (n_bins / (hi - lo))).astype(np.int32)
    np.clip(idx, 0, n_bins - 1, out=idx)
    return idx
