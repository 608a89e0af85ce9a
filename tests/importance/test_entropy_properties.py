"""Property-based tests for the entropy machinery."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.importance.entropy import block_entropies, histogram_probabilities, shannon_entropy
from repro.volume.blocks import BlockGrid
from repro.volume.volume import Volume

small_fields = arrays(
    np.float32,
    (8, 8, 8),
    elements=st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False, width=32),
)


class TestEntropyProperties:
    @given(small_fields)
    @settings(max_examples=40, deadline=None)
    def test_bounds_for_any_field(self, data):
        vol = Volume(data)
        grid = BlockGrid((8, 8, 8), (4, 4, 4))
        h = block_entropies(vol, grid, n_bins=32)
        assert np.all(h >= 0.0)
        assert np.all(h <= np.log2(32) + 1e-9)

    @given(small_fields)
    @settings(max_examples=30, deadline=None)
    def test_voxel_permutation_invariance_within_block(self, data):
        """Entropy is a histogram property: shuffling voxels inside one
        block leaves its entropy unchanged."""
        grid = BlockGrid((8, 8, 8), (8, 8, 8))  # single block
        rng = np.random.default_rng(0)
        shuffled = data.copy().ravel()
        rng.shuffle(shuffled)
        h0 = block_entropies(Volume(data), grid)
        h1 = block_entropies(Volume(shuffled.reshape(8, 8, 8)), grid)
        assert h0[0] == pytest.approx(h1[0], abs=1e-9)

    @given(small_fields, st.floats(0.1, 10.0), st.floats(-5.0, 5.0))
    @settings(max_examples=30, deadline=None)
    def test_affine_invariance(self, data, scale, shift):
        """Entropy uses value-range-relative bins, so a*x+b preserves it
        (up to float32 rounding at bin edges)."""
        vol0 = Volume(data)
        vol1 = Volume(data * np.float32(scale) + np.float32(shift))
        grid = BlockGrid((8, 8, 8), (4, 4, 4))
        h0 = block_entropies(vol0, grid, n_bins=16)
        h1 = block_entropies(vol1, grid, n_bins=16)
        assert np.allclose(h0, h1, atol=0.35)

    @given(
        st.sampled_from([np.float32, np.float64]),
        arrays(np.int8, (8, 8, 8), elements=st.integers(-31, 31)),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_power_of_two_scaling_keeps_entropies(self, dtype, field, where):
        """Bins are range-relative, and scaling by 2**e is exact: an
        integer field keeps every block's entropy at any exponent of the
        type, from the smallest subnormal to the largest finite values —
        including the fields whose range (``data - lo``) or scale
        (``n_bins / (hi - lo)``) overflows the type."""
        info = np.finfo(dtype)
        lowest = int(info.minexp) - int(info.nmant)  # 1 * 2**lowest: the least subnormal
        highest = int(info.maxexp) - 5  # 31 * 2**highest is still finite
        e = lowest + round(where * (highest - lowest))
        grid = BlockGrid((8, 8, 8), (4, 4, 4))
        base = field.astype(dtype)
        scaled = np.ldexp(base, e)
        assert np.array_equal(np.ldexp(scaled, -e), base)  # exact
        np.testing.assert_array_equal(
            block_entropies(_Field(scaled), grid), block_entropies(_Field(base), grid)
        )

    @given(st.integers(2, 64))
    @settings(max_examples=20)
    def test_uniform_histogram_attains_bound(self, n_bins):
        p = np.full(n_bins, 1.0 / n_bins)
        assert shannon_entropy(p) == pytest.approx(np.log2(n_bins))

    @given(arrays(np.float64, st.integers(1, 200), elements=st.floats(0.0, 1.0)))
    @settings(max_examples=40)
    def test_histogram_is_distribution(self, values):
        if values.size == 0:
            return
        p = histogram_probabilities(values, 16, (0.0, 1.0))
        assert p.sum() == pytest.approx(1.0)
        assert np.all(p >= 0.0)

    def test_mixing_blocks_never_reduces_below_max_part(self):
        """Entropy of a concatenation is at least each part's entropy minus
        log of the weight — sanity of the 'high entropy = feature' logic on
        composite blocks (checked numerically on a family of mixtures)."""
        rng = np.random.default_rng(1)
        a = rng.random(500)
        b = np.full(500, 0.5)
        pa = histogram_probabilities(a, 32, (0.0, 1.0))
        pab = histogram_probabilities(np.concatenate([a, b]), 32, (0.0, 1.0))
        # The mixture keeps substantial entropy (>= half the pure part's,
        # since half its mass is the high-entropy component).
        assert shannon_entropy(pab) >= 0.5 * shannon_entropy(pa)


class _Field:
    """A volume of any float type (``Volume`` stores float32)."""

    def __init__(self, data):
        self._data = data
        self.shape = data.shape

    def data(self, variable=None):
        return self._data
